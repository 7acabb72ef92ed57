(** The logical block-device interface the file systems mount on.

    A [Blkdev.t] is anything that accepts sector requests and backs them
    with real bytes: a bare {!Device.t} ({!of_device}) or a volume
    composed of several drives ([Vol.blkdev] in the [vol] library).
    UFS, EFS and the machine builder are written against this record, so
    every experiment config runs unchanged whether the "disk" is one
    spindle or a stripe set.

    The record is a closure table rather than a functor or first-class
    module: implementations differ only in behaviour, not in type
    structure, and a record keeps call sites (`fs.dev.submit r`) as
    cheap and readable as the old direct [Device] calls. *)

type t = {
  name : string;
  engine : Sim.Engine.t;
  geom : Geom.t;
      (** layout-policy geometry: what the FFS allocator consults for
          rotational placement.  For a volume this is member 0's
          geometry — rotdelay is a per-spindle property.  Timing hints
          only: [Geom.capacity_bytes geom] describes one member, never
          the device — size everything from [capacity]. *)
  capacity : int;
      (** logical capacity in bytes — the authoritative size of the
          device; always use this (not [geom]) for bounds and mkfs *)
  submit : Request.t -> unit;
  quiesce : unit -> unit;
  busy : unit -> bool;
  queue_length : unit -> int;  (** total over member queues *)
  store : Store.t;
      (** the logical byte image: offline (un-timed) access for
          mkfs/fsck/tests, byte-coherent with timed I/O *)
  members : Device.t array;  (** underlying drives; length 1 for a disk *)
}

val of_device : Device.t -> t
(** Wrap a bare drive; behaviour-preserving (every closure is a direct
    [Device] call on the same queue). *)

(* ---- accessors mirroring the old [Device] call sites ---- *)

val engine : t -> Sim.Engine.t
val geom : t -> Geom.t
val sector_bytes : t -> int
val capacity_bytes : t -> int
val store : t -> Store.t
val members : t -> Device.t array

val submit : t -> Request.t -> unit
(** Enqueue; returns immediately.  Completion via
    {!Request.on_complete} or {!Request.wait}. *)

val read_sync : t -> sector:int -> count:int -> buf:bytes -> buf_off:int -> unit
(** Build, submit and wait.  Must run inside a process. *)

val write_sync : t -> sector:int -> count:int -> buf:bytes -> buf_off:int -> unit

val quiesce : t -> unit
(** Block until every member queue is empty and idle (fsync/unmount). *)

val busy : t -> bool
val queue_length : t -> int

val crash_cut : t -> unit
(** Power-cut every member: tally queued/in-flight requests as
    crash-dropped and latch the write cutoff (see {!Device.crash_cut}). *)

val completed_writes : t -> int
(** Completed write requests summed over members — the crash-point
    sweep range. *)

val set_write_cutoff : t -> int option -> unit
(** Arm (or clear) the crash-point latch on every member.  With a
    multi-member volume the count applies per member; single-disk
    configs are what the sweep harness uses. *)

val crash_dropped : t -> int * int
(** (requests, bytes) lost to crash cuts, summed over members. *)

(** Aggregate drive statistics summed over members (immutable snapshot;
    see {!Device.stats} for the per-member mutable records). *)
type stats = {
  reads : int;
  writes : int;
  sectors_read : int;
  sectors_written : int;
  busy_time : Sim.Time.t;  (** summed member busy time *)
  seek_time : Sim.Time.t;
  rot_wait : Sim.Time.t;
  transfer_time : Sim.Time.t;
  coalesced : int;
}

val stats : t -> stats
