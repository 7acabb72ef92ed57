(** The simulated disk drive: queue + head + platter + controller.

    A dedicated simulation process services the request queue.  For each
    request it charges, in virtual time: fixed controller command
    overhead, a seek when the cylinder changes, a head switch within a
    cylinder, rotational latency to reach the first sector, and the
    media transfer time of every sector — segment by segment across
    track boundaries, honouring track/cylinder skew.  Reads wholly
    inside the buffered track are instead served at SCSI bus speed
    ({!config.bus_bytes_per_sec}); a mechanical read leaves its last
    track in the buffer.  Writes are always mechanical (write-through),
    matching the paper's argument for keeping rotational delays on
    non-clustered writes.

    Data really moves, at the request's {!Request.store_sector}: a read
    copies from the {!Store.t} into the request's segments at
    completion time; a write gathers them into the store.

    All timing knobs live in {!config} so experiments can run the same
    file system against drives with and without track buffers, FIFO vs
    elevator queues, and with driver-level clustering (the paper's
    rejected alternative). *)

type config = {
  geom : Geom.t;
  seek : Seek.t;
  track_buffer : bool;
  bus_bytes_per_sec : int;  (** track-buffer hit transfer rate *)
  cmd_overhead : Sim.Time.t;  (** per-command controller overhead *)
  head_switch : Sim.Time.t;  (** head change within a cylinder *)
  policy : Disksort.policy;
  driver_clustering : bool;
      (** coalesce physically adjacent queued requests at service time *)
}

val default_config : config
(** The paper's testbed drive: {!Geom.sun0400}, elevator sort, track
    buffer on, 4 MB/s bus, 1 ms command overhead, 1 ms head switch, no
    driver clustering. *)

type stats = {
  mutable reads : int;
  mutable writes : int;
  mutable sectors_read : int;
  mutable sectors_written : int;
  mutable busy : Sim.Time.t;  (** time spent servicing requests *)
  mutable seek_time : Sim.Time.t;
  mutable rot_wait : Sim.Time.t;
  mutable transfer_time : Sim.Time.t;
  mutable coalesced : int;  (** requests absorbed by driver clustering *)
  mutable crash_dropped_reqs : int;
      (** requests lost to a power cut: queued/in-flight at
          {!crash_cut}, plus writes voided past the cutoff latch *)
  mutable crash_dropped_bytes : int;
  read_latency : Sim.Stats.Summary.t;
  write_latency : Sim.Stats.Summary.t;
  queue_depth : Sim.Stats.Summary.t;  (** sampled at each enqueue *)
  queue_wait : Sim.Stats.Summary.t;
      (** per request: enqueue to service start *)
  service : Sim.Stats.Summary.t;  (** per request: service start to done *)
  seek_per_io : Sim.Stats.Summary.t;  (** per serviced group *)
  rot_per_io : Sim.Stats.Summary.t;
  xfer_per_io : Sim.Stats.Summary.t;
}

(** One serviced group, as {!observe} reports it. *)
type event = {
  at : Sim.Time.t;  (** service start *)
  kind : Request.kind;
  sector : int;
  count : int;
  buffered_hit : bool;  (** fully served from the track buffer *)
}

type t

val create : ?store:Store.t -> Sim.Engine.t -> config -> t
(** Creates the drive and spawns its service process.  [store] supplies
    the backing bytes: a block device of several drives passes its one
    store to each, and a request moves its bytes at its
    {!Request.store_sector}, not at the member sector it addresses.  By
    default the drive owns a fresh zeroed store of its capacity. *)

val config : t -> config
val store : t -> Store.t
(** Direct access to the backing bytes — used by mkfs/fsck for offline
    (un-timed) access and by tests. *)

val engine : t -> Sim.Engine.t
val sector_bytes : t -> int
val capacity_bytes : t -> int

val submit : t -> Request.t -> unit
(** Enqueue; returns immediately.  Completion via
    {!Request.on_complete} or {!Request.wait}. *)

val read_sync : t -> sector:int -> count:int -> buf:bytes -> buf_off:int -> unit
(** Convenience: build, submit and wait.  Must run inside a process. *)

val write_sync : t -> sector:int -> count:int -> buf:bytes -> buf_off:int -> unit

val quiesce : t -> unit
(** Block until the queue is empty and the drive idle (fsync/unmount). *)

val queue_length : t -> int
val busy : t -> bool
val stats : t -> stats

(** {1 Crash-point injection}

    Data reaches the platter only when a write request {e completes}
    (see [do_data]), so the disk-write boundary is the natural crash
    granularity: freezing the store after the k-th completed write
    reproduces exactly the image a power cut at that boundary would
    leave, while the simulation above keeps running to completion. *)

val set_write_cutoff : t -> int option -> unit
(** [set_write_cutoff d (Some k)] lets the next [k] write completions
    reach the store; later writes complete normally for their callers
    but their bytes are discarded (and counted as crash-dropped).
    [None] clears the latch. *)

val completed_writes : t -> int
(** Write requests whose data was applied or voided so far — the sweep
    range for systematic crash-point injection. *)

val crash_cut : t -> unit
(** Power cut now: every queued and in-flight request is tallied into
    the crash-dropped counters and the write cutoff is latched to zero,
    so nothing further reaches the store. *)

val crash_dropped : t -> int * int
(** (requests, bytes) lost to crash cuts and the cutoff latch. *)

val iter_queued : t -> (Request.t -> unit) -> unit
(** Iterate every request the drive holds: queued, then in-flight — what
    a power cut at this instant would lose. *)

val observe : t -> (event -> unit) option -> unit
(** [observe d (Some f)] calls [f] once per serviced group — a request
    plus any it absorbed by driver clustering — at service start, so
    the [at] values a drive reports never decrease.  [f] runs inside the
    service loop and must not block.  [None] removes the observer; an
    unobserved drive allocates nothing for it. *)

val track_buffer_stats : t -> int * int
(** (hits, misses). *)

val register_metrics : t -> Sim.Metrics.t -> instance:string -> unit
(** Register this drive's counters and latency breakdown (queue wait vs
    service vs per-I/O seek/rotation/transfer) as a ["disk"] source. *)
