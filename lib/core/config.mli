(** Experiment configurations: one value fully describes a machine —
    disk, memory, file-system layout and kernel feature set.

    The four presets reproduce Figure 9:

    {v
        cluster  rot    UFS          free    write
        size     delay  version      behind  limit
    A   120KB    0      SunOS 4.1.1  Yes     Yes
    B   8KB      4      SunOS 4.1    Yes     Yes
    C   8KB      4      SunOS 4.1    No      Yes
    D   8KB      4      SunOS 4.1    No      No
    v}

    All four share the hardware: an 8 MB, 20 MHz SPARCstation 1 with one
    400 MB 3.5-inch IBM SCSI drive — modelled by
    {!Disk.Device.default_config} and 8 MB of page pool. *)

type vol_spec = {
  disks : int;  (** number of member drives (1 = bare disk) *)
  layout : Disk.Blkdev.layout;
  stripe_kb : int;  (** stripe unit; only meaningful for [Stripe] *)
}

val single_disk : vol_spec
(** [{ disks = 1; layout = Concat; stripe_kb = 128 }] — the paper's
    hardware. *)

type t = {
  name : string;
  disk : Disk.Device.config;  (** per-member drive model *)
  vol : vol_spec;
  memory_mb : int;
  mkfs : Ufs.Fs.mkfs_options;
  features : Ufs.Types.features;
  costs : Ufs.Costs.t;
}

val config_a : t
(** 120 KB clusters (maxcontig 15), rotdelay 0, clustering + free-behind
    + write limit: the shipped SunOS 4.1.1 tuned as in the paper. *)

val config_b : t
(** Old block I/O, rotdelay 4 ms, but with free-behind and write limit. *)

val config_c : t
(** Old block I/O with only the write limit. *)

val config_d : t
(** Plain SunOS 4.1. *)

val all_figure9 : t list
(** A, B, C, D in paper order. *)

val of_name : string -> (t, string) result
(** A Figure 9 config by its letter, in either case. *)

val with_cluster_kb : t -> int -> t
(** Derive a config with a different cluster size (cluster-size sweep);
    8 KB means maxcontig 1. *)

val with_write_limit : t -> int option -> t
val with_free_behind : t -> bool -> t
val with_driver_clustering : t -> bool -> t
val with_vol : t -> ?layout:Disk.Blkdev.layout -> ?stripe_kb:int -> int -> t
(** [with_vol t disks] puts the file system on a volume of [disks]
    identical drives (default stripe, 128 KB unit).  [disks = 1] keeps
    the bare-disk fast path and the name unchanged. *)

val with_journal : ?frags:int -> t -> t
(** Reserve a write-ahead intent journal at mkfs ([frags] defaults to
    {!Ufs.Fs.journal_frags_default}, 1 MB) and append ["/jrnl"] to the
    name.  Metadata mutations then commit through the log; the machine
    becomes crash-recoverable via {!Ufs.Recover} / {!Topology.reboot_server}. *)

val with_rotdelay : t -> int -> t
val with_memory_mb : t -> int -> t
val with_features : t -> Ufs.Types.features -> t
val with_name : t -> string -> t
