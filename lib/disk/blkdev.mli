(** The block device the file systems mount on: one or more simulated
    drives behind one submit path.

    A bare disk is the one-member concat ({!of_device}, or {!create}
    with one drive): it hands every request to its drive as is.
    {!create} composes several drives in one of three layouts, after
    SunOS Online: DiskSuite / SVR4 VxVM-era volume managers:

    - {b Concat}: members appended end to end.
    - {b Stripe} (RAID-0): logical space interleaved across members in
      fixed stripe units; a request spanning units is split and the
      fragments issued to the member queues concurrently.
    - {b Mirror} (RAID-1): every member holds a full copy; reads go to
      one live member in round-robin order, writes fan out to all live
      members and complete when the slowest lands.

    Data movement is real and single-copy: the device owns one flat
    {!Store.t}, and every member drive moves its bytes in it.  A request
    that lands on one member at its own sector is handed to that drive
    whole, and may share the store's chunks ({!Request.of_iov}'s
    [lend]).  Any other request is split into fragments
    ({!Request.fragment}) that address member sectors and carry the
    store sector their bytes belong to; fragments copy.  So
    mkfs/fsck/crash snapshots work on the one image exactly as on a bare
    disk, while timed member I/O moves the same bytes.

    Fault injection ({!fail_member}) models a dead spindle: mirror reads
    fall back to a survivor, mirror writes to the failed member are
    dropped (and counted); stripe/concat I/O touching a failed member
    raises — those layouts have no redundancy.  {!repair_member} brings
    a member back; because every member moves bytes in the one image, a
    repaired mirror member is instantly consistent (no resilver pass — a
    simulation convenience, noted so nobody mistakes it for a recovery
    model). *)

type layout = Concat | Stripe | Mirror

val layout_of_string : string -> layout
(** ["concat" | "stripe" | "mirror"]; raises [Invalid_argument]
    otherwise. *)

val layout_to_string : layout -> string

type t

val create :
  ?stripe_bytes:int -> Sim.Engine.t -> layout -> Device.config array -> t
(** [create engine layout member_cfgs] builds the member drives over
    one fresh store and the device above them.  One drive is a concat
    whatever [layout] says.  [stripe_bytes] (default 128 KB) must be a
    positive multiple of the sector size; it is ignored for
    concat/mirror.  All members must share a sector size.  Raises
    [Invalid_argument] on an empty member list or bad stripe unit.

    Capacity rules: concat sums the members; stripe rounds each member
    down to whole stripe units, truncates all to the smallest member,
    and interleaves; mirror is the smallest member. *)

val of_device : Device.t -> t
(** The one-member concat over an existing drive and its store. *)

val engine : t -> Sim.Engine.t

val geom : t -> Geom.t
(** Layout-policy geometry: what the FFS allocator consults for
    rotational placement.  It is member 0's — rotdelay is a per-spindle
    property — and a timing hint only: [Geom.capacity_bytes (geom t)]
    describes one member, never the device.  Size everything from
    {!capacity_bytes}. *)

val sector_bytes : t -> int

val capacity_bytes : t -> int
(** The logical size in bytes: the authoritative size of the device,
    what mkfs and the extent allocator size themselves from. *)

val store : t -> Store.t
(** The logical byte image: offline (un-timed) access for
    mkfs/fsck/tests, byte-coherent with timed I/O. *)

val members : t -> Device.t array
(** The member drives; one for a bare disk. *)

val submit : t -> Request.t -> unit
(** Enqueue; returns immediately.  Completion via
    {!Request.on_complete} or {!Request.wait}.  A split request
    completes when its last fragment lands. *)

val read_sync : t -> sector:int -> count:int -> buf:bytes -> buf_off:int -> unit
(** Build, submit and wait.  Must run inside a process. *)

val write_sync : t -> sector:int -> count:int -> buf:bytes -> buf_off:int -> unit

val quiesce : t -> unit
(** Block until every member queue is empty and idle (fsync/unmount). *)

val busy : t -> bool

val queue_length : t -> int
(** Total over member queues. *)

(** {1 Member faults} *)

val fail_member : t -> int -> unit
(** Mark member [i] dead.  Raises [Invalid_argument] on a bad index. *)

val repair_member : t -> int -> unit
val failed : t -> int -> bool

val dropped_writes : t -> int array
(** Per-member count of write fragments dropped while dead. *)

val splits : t -> int
(** Number of requests that were split into more than one fragment. *)

val register_metrics : t -> Sim.Metrics.t -> instance:string -> unit
(** Register each member drive as a ["disk"] source ([instance] for a
    bare disk, [instance.dN] for member [N] otherwise) and, with more
    than one member, the split/drop counters and queue gauge as a
    ["vol"] source. *)

(** {1 Crash points} *)

val crash_cut : t -> unit
(** Power-cut every member: tally queued/in-flight requests as
    crash-dropped and latch the write cutoff (see {!Device.crash_cut}). *)

val completed_writes : t -> int
(** Completed write requests summed over members — the crash-point
    sweep range. *)

val set_write_cutoff : t -> int option -> unit
(** Arm (or clear) the crash-point latch on every member.  With several
    members the count applies per member; single-disk configs are what
    the sweep harness uses. *)

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
