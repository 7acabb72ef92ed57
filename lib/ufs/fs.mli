(** The mounted file system: mkfs, mount/unmount, and the path-level
    operations (the "system call" surface the workloads drive).

    All operations except {!mkfs} and {!mount} must run inside a
    simulation process ({!Sim.Engine.spawn}): they sleep on disk I/O,
    memory and CPU.  mkfs and mount work offline, directly on the
    backing store — the cost of mounting is not part of any experiment.

    Every path here is absolute ("/a/b/c"); symbolic links are not
    followed implicitly (use {!readlink}). *)

type mkfs_options = {
  rotdelay_ms : int;  (** 4 for the old layout, 0 for clustering *)
  maxcontig : int;  (** desired cluster size, in blocks *)
  maxbpg : int;  (** blocks per file per group before moving on *)
  minfree_pct : int;
  fpg : int;  (** fragments per cylinder group *)
  ipg : int;  (** inodes per group *)
  journal_frags : int;
      (** size of the intent-journal region in fragments; 0 disables
          journaling (the classic UFS) *)
}

val mkfs_defaults : mkfs_options
(** rotdelay 4 ms, maxcontig 1, maxbpg 256 blocks (2 MB), minfree 10%,
    16 MB groups, 2048 inodes per group, no journal — a SunOS 4.1
    layout. *)

val journal_frags_default : int
(** 1024 fragments (1 MB): the journal size [--journal] uses when no
    explicit size is given. *)

val mkfs : Disk.Blkdev.t -> ?opts:mkfs_options -> unit -> unit
(** Build an empty file system (with the root directory) on the device.
    Offline: writes the backing store directly. *)

val mount :
  Sim.Engine.t ->
  Sim.Cpu.t ->
  Vm.Pool.t ->
  Disk.Blkdev.t ->
  features:Types.features ->
  ?costs:Costs.t ->
  unit ->
  Types.fs
(** Read the superblock and cylinder groups into memory.
    Raises [EINVAL] on a bad or unclean file system. *)

val register_metrics : Types.fs -> Sim.Metrics.t -> instance:string -> unit
(** Register the mounted file system's counters, call-latency summaries
    and I/O-size histograms as a ["ufs"] source. *)

val tunefs : Types.fs -> ?rotdelay_ms:int -> ?maxcontig:int -> ?maxbpg:int -> unit -> unit
(** Adjust the layout knobs of a mounted file system (tunefs(8) — this
    is exactly how the paper reconfigures between runs without
    reformatting). *)

val unmount : Types.fs -> unit
(** Flush everything (delayed writes, inodes, metadata, group bitmaps,
    superblock) with timed I/O and mark the file system clean. *)

val sync : Types.fs -> unit
(** sync(2): flush all dirty state without unmounting. *)

(* ---------- namespace ---------- *)

val namei : Types.fs -> string -> Types.inode
(** Resolve a path to a referenced inode ({!Iops.iput} it when done). *)

val creat : Types.fs -> string -> Types.inode
(** Create (or truncate) a regular file; returns it referenced. *)

val mkdir : Types.fs -> string -> unit
val rmdir : Types.fs -> string -> unit
val unlink : Types.fs -> string -> unit
val link : Types.fs -> string -> string -> unit
(** [link fs existing new_path] — hard link. *)

val rename : Types.fs -> string -> string -> unit
(** Replaces an existing target ([EEXIST]-free, Unix semantics). *)

val symlink : Types.fs -> target:string -> path:string -> unit
val readlink : Types.fs -> string -> string

type stat = {
  st_ino : int;
  st_kind : Dinode.kind;
  st_size : int;
  st_blocks : int;  (** fragments allocated *)
  st_nlink : int;
}

val stat : Types.fs -> string -> stat

type statfs = {
  f_frags : int;  (** data capacity, fragments *)
  f_bfree : int;  (** free full blocks *)
  f_ffree : int;  (** free loose fragments *)
  f_ifree : int;
  f_reserved : int;  (** the minfree reserve, fragments *)
}

val statfs : Types.fs -> statfs

(* ---------- file I/O ---------- *)

val read : Types.fs -> Types.inode -> off:int -> buf:bytes -> len:int -> int
(** Returns bytes actually read (short at EOF). *)

val write : Types.fs -> Types.inode -> off:int -> buf:bytes -> len:int -> unit

val readv : Types.fs -> Types.inode -> off:int -> len:int -> Sim.Iov.t
(** nfsd's READ: a reply cut at block boundaries, in which every whole
    block is the cached page's own frame ({!Vm.Page.export}), held once
    for the reply, one segment a reader can adopt as its page
    ({!Sim.Iov.whole}).  Nobody writes into such a frame again.  Other
    pieces are copies.  Short at EOF. *)

val writev : Types.fs -> Types.inode -> off:int -> Sim.Iov.t -> unit
(** nfsd's WRITE of all of the iov at [off]: a whole-block segment that
    overwrites a whole block becomes that page's frame, with a hold of
    its own, instead of being copied ({!Vm.Page.adopt}), so the caller
    must never write into the iov's segments again. *)

val fsync : Types.fs -> Types.inode -> unit

val extent_map : Types.fs -> string -> (int * int * int) list
(** {!Bmap.extent_map} by path: [(lbn, frag, blocks)] physical extents. *)
