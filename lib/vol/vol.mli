(** Volume manager: compose several simulated drives into one logical
    block device.

    Three layouts, after SunOS Online: DiskSuite / SVR4 VxVM-era volume
    managers:

    - {b Concat}: members appended end to end.
    - {b Stripe} (RAID-0): logical space interleaved across members in
      fixed stripe units; a request spanning units is split and the
      fragments issued to the member queues concurrently.
    - {b Mirror} (RAID-1): every member holds a full copy; reads go to
      one live member in round-robin order, writes fan out to all live
      members and complete when the slowest lands.

    Data movement is real and single-copy: the volume owns one logical
    flat {!Disk.Store.t}, and each member drive is created over a
    {!Disk.Store.view} that remaps member-physical offsets into it.  So
    mkfs/fsck/crash-snapshots operate on the logical image exactly as
    they do on a bare disk, while timed member I/O moves the same bytes.

    Fault injection ({!fail_member}) models a dead spindle: mirror reads
    fall back to a survivor, mirror writes to the failed member are
    dropped (and counted); stripe/concat I/O touching a failed member
    raises — those layouts have no redundancy.  {!repair_member} brings
    a member back; because mirror members are views of the one logical
    image, a repaired member is instantly consistent (no resilver pass —
    a simulation convenience, noted so nobody mistakes it for a recovery
    model). *)

type layout = Concat | Stripe | Mirror

val layout_of_string : string -> layout
(** ["concat" | "stripe" | "mirror"]; raises [Invalid_argument]
    otherwise. *)

val layout_to_string : layout -> string

type t

val create :
  ?stripe_bytes:int ->
  Sim.Engine.t ->
  layout ->
  Disk.Device.config array ->
  t
(** [create engine layout member_cfgs] builds the member drives (each
    over a view of the volume's logical store) and the volume above
    them.  [stripe_bytes] (default 128 KB) must be a positive multiple
    of the sector size; it is ignored for concat/mirror.  All members
    must share a sector size.  Raises [Invalid_argument] on an empty
    member list or bad stripe unit.

    Capacity rules: concat sums the members; stripe rounds each member
    down to whole stripe units, truncates all to the smallest member,
    and interleaves; mirror is the smallest member. *)

val capacity_bytes : t -> int
val sector_bytes : t -> int
val layout : t -> layout
val stripe_bytes : t -> int
val devices : t -> Disk.Device.t array
val store : t -> Disk.Store.t
(** The logical volume image (offline access). *)

val submit : t -> Disk.Request.t -> unit
(** Split the request at member/stripe boundaries, issue the fragments
    concurrently, complete the parent when all fragments land.  A
    request that maps to exactly one whole member fragment at the same
    sector is passed through untouched, so a 1-member volume is
    byte-and-timing-identical to the bare drive. *)

val quiesce : t -> unit
val busy : t -> bool
val queue_length : t -> int

val fail_member : t -> int -> unit
(** Mark member [i] dead.  Raises [Invalid_argument] on a bad index. *)

val repair_member : t -> int -> unit

val failed : t -> int -> bool

val dropped_writes : t -> int array
(** Per-member count of write fragments dropped while dead. *)

val splits : t -> int
(** Number of parent requests that were split into >1 fragment. *)

val register_metrics : t -> Sim.Metrics.t -> instance:string -> unit
(** Register the volume's split/drop counters and queue gauge as a
    ["vol"] source. *)

val blkdev : t -> Disk.Blkdev.t
(** The volume as a mountable block device.

    Contract: [capacity] is the authoritative logical size — it is what
    mkfs and the extent allocator must size themselves from.  [geom] is
    member 0's geometry and is a {e timing hint only} (the FFS
    allocator's rotational-layout decisions are per-spindle properties;
    the paper's clustering decisions depend only on contiguity, which
    striping preserves within a stripe unit).  In particular
    [Geom.capacity_bytes blkdev.geom] describes one member, not the
    volume — never derive volume capacity from [geom]. *)
