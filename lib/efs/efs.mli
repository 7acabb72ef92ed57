(** A minimal extent-based file system — the comparator the paper argues
    against.

    "Replace UFS with a new file system type, an extent based file
    system.  This is a popular answer to file system performance
    issues.  The basic idea is to allocate file data in large,
    physically contiguous chunks, called extents.  Most I/O is done in
    units of an extent...  Typically, the user can control the size of
    these extents on a per-file basis."

    This implementation exists to measure the paper's title claim —
    that clustered UFS delivers {e extent-like} performance — and its
    counter-argument, that a user-chosen extent size is a trap.  It is
    a {e performance} comparator on the same substrate (disk, page
    pool, CPU cost table), faithful in I/O behaviour:

    - files are runs of ⟨logical block, physical sector, length⟩
      extents, allocated contiguously at the user-declared extent size;
    - reads and writes are issued in whole extents: one file-system
      traversal, one disk request per extent (with one-extent-ahead
      read-ahead on sequential reads);
    - the mapping lookup is an O(#extents) walk of the in-memory extent
      list (the cost a bmap cache would avoid in UFS).

    Unlike the UFS implementation next door it does not persist its
    metadata (no mkfs/fsck story): the paper's comparison is about
    transfer rates and CPU, not durability — and the lack of an on-disk
    format is, after all, half the reason the authors rejected it. *)

type t

val register_metrics : t -> Sim.Metrics.t -> instance:string -> unit
(** Register the counters (plus file/free-list gauges) as an ["efs"]
    source. *)

val create :
  Sim.Engine.t -> Sim.Cpu.t -> Vm.Pool.t -> Disk.Blkdev.t ->
  extent_kb:int -> ?costs:Ufs.Costs.t -> unit -> t
(** An empty extent file system using the whole device.  [extent_kb] is
    the (fixed, "user-chosen") extent size; must be a multiple of 8 KB.
    Raises [Invalid_argument] otherwise. *)

type file

val creat : t -> string -> file
(** Create (or truncate) a file.  Raises [EISDIR]-free: EFS has a flat
    namespace, one more simplification the real contenders shared with
    raw partitions. *)

val lookup : t -> string -> file
(** Raises [ENOENT]. *)

val size : file -> int

val write : t -> file -> off:int -> buf:bytes -> len:int -> unit
(** Extends the file as needed, allocating whole extents.
    Raises [ENOSPC] when the device is exhausted. *)

val read : t -> file -> off:int -> buf:bytes -> len:int -> int
(** Returns bytes read (short at EOF). *)

val fsync : t -> file -> unit
(** Push the file's dirty pages (extent-sized requests) and wait. *)

val delete : t -> string -> unit
(** Remove the file and free its extents. *)

val reset_readahead : t -> file -> unit
(** Forget the sequential predictor and drop cached pages (cold-start a
    benchmark phase). *)

val extent_count : file -> int
