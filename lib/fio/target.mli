(** Where a spec's ops land: a local UFS mount or an NFS client mount
    of a simulated topology, behind the IObench file handle
    ({!Workload.Iobench.file}) so the runner is target-agnostic.

    Job [j] of a spec works on file [<spec.file>.<j>].  On a remote
    target, jobs are assigned to the topology's client mounts round
    robin ([j mod clients]) {e and}, on a multi-server fleet, to
    servers round robin ([j mod servers]), so one spec can load many
    client machines and every server.  A [share=1] spec instead puts
    its one file behind client 0's mount to whichever server the
    namespace hash ({!Clusterfs.Topology.shard}) assigns the path.

    All functions must run inside a simulation process. *)

type file = Workload.Iobench.file = {
  read : off:int -> buf:bytes -> len:int -> int;
  write : off:int -> buf:bytes -> len:int -> unit;
  fsync : unit -> unit;
  cold : unit -> unit;
  close : unit -> unit;
}

type t = {
  engine : Sim.Engine.t;
  prepare : job:int -> Spec.t -> file;
      (** Create the job's file; when the spec can read
          ({!Stream.needs_data}), also write its [size] bytes of
          deterministic content ({!Stream.fill}) and drop the caches
          the target controls, so the measured phase starts cold. *)
}

val local : Clusterfs.Machine.t -> t
val remote : Clusterfs.Topology.t -> t
