(** A whole simulated machine: engine, CPU, memory pool with pageout
    daemon, disk, and a mounted UFS.  The unit every experiment runs
    against. *)

type t = {
  config : Config.t;
  engine : Sim.Engine.t;
  cpu : Sim.Cpu.t;
  pool : Vm.Pool.t;
  pageout : Vm.Pageout.t;
  dev : Disk.Blkdev.t;
      (** what the file system is mounted on: one drive, or a volume of
          [config.vol.disks] ({!Disk.Blkdev.members}) *)
  mutable fs : Ufs.Types.fs;
      (** the mount; {!Topology.reboot_server} replaces it in place
          after crash recovery *)
}

val create : ?engine:Sim.Engine.t -> Config.t -> t
(** Build the machine, mkfs the disk and mount it.  [engine] runs the
    machine on an existing engine instead of a fresh one — multi-machine
    topologies (M servers, N clients) share one virtual clock. *)

val register_metrics : t -> Sim.Metrics.t -> unit
(** Register every layer of the machine (disks, volume, page pool,
    pageout daemon, UFS) into the registry, using the config name as
    the instance label (member drives get a [.dN] suffix). *)

val with_metrics_sink : Sim.Metrics.t -> (unit -> 'a) -> 'a
(** [with_metrics_sink reg f] makes every machine built during [f]
    register itself into [reg] (as {!register_metrics} would).  Sinks
    nest; the previous sink is restored on exit.  This is how the bench
    harness collects metrics from experiments that build machines
    internally. *)

val current_metrics_sink : unit -> Sim.Metrics.t option
(** The registry installed by the innermost {!with_metrics_sink}, if
    any — for experiment code that builds its layers without a machine
    (the EFS comparison) and wants to register them into the same
    sink. *)

val create_no_format : ?engine:Sim.Engine.t -> Config.t -> Disk.Store.t -> t
(** Build a machine around an existing disk image (the aged-file-system
    experiments reuse a store across machines).  The store is copied
    onto the new machine's disk. *)

val run : t -> (t -> 'a) -> 'a
(** Run [f] as a simulation process, drive the engine until it (and all
    I/O it started) completes, and return its result.  An exception
    raised by [f] is re-raised here with its original backtrace;
    a deadlock raises {!Sim.Engine.Deadlock}. *)

val snapshot_store : t -> Disk.Store.t
(** The machine's live backing store (shared, not copied). *)

val crash : t -> Disk.Store.t
(** Power failure: a deep copy of the disk exactly as it stands —
    whatever is still in the page cache, the metadata cache or the disk
    queue is lost.  Run {!Ufs.Fsck.check} over a device built from the
    copy (or hand it to {!create_no_format}) to study the wreckage.
    The simulation itself keeps running; crash as often as you like.
    Requests queued or in flight at the instant of the crash are
    tallied into the drives' [crash_dropped] counters (the
    ["disk"]-layer [crash_dropped_reqs]/[crash_dropped_bytes] metrics)
    so experiments can report the exposure window. *)

val crash_dropped : t -> int * int
(** (requests, bytes) lost across this machine's drives — see
    {!Disk.Device.crash_dropped}. *)
