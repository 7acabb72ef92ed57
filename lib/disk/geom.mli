(** Disk geometry and rotational-position arithmetic.

    The simulated drive is the circa-1990 400 MB SCSI disk of the
    paper's testbed: constant or zoned ("variable geometry") sectors per
    track, 3600 rpm, with track and cylinder {e skew} so that sequential
    transfers crossing a track or cylinder boundary do not lose a full
    revolution — exactly the property that makes contiguous allocation
    pay off at the media rate.

    Addresses are logical sector numbers (0-based, 512-byte sectors),
    mapped to ⟨cylinder, head, sector-within-track⟩ in zone order. *)

type zone = {
  cyls : int;  (** number of cylinders in this zone *)
  spt : int;  (** sectors per track in this zone *)
}

type t = private {
  sector_bytes : int;
  nheads : int;  (** tracks per cylinder *)
  zones : zone list;  (** outermost first *)
  rpm : int;
  track_skew : int;  (** sectors of offset added per head step *)
  cyl_skew : int;  (** sectors of offset added per cylinder step *)
  total_sectors : int;
  ncyls : int;
}

type chs = { cyl : int; head : int; sector : int; spt : int }
(** Decoded address; [spt] is the sectors-per-track of the containing
    zone, [sector] is within-track. *)

val create :
  ?sector_bytes:int ->
  ?rpm:int ->
  ?track_skew:int ->
  ?cyl_skew:int ->
  nheads:int ->
  zones:zone list ->
  unit ->
  t
(** Defaults: 512-byte sectors, 3600 rpm, track skew 4, cylinder
    skew 13. *)

val sun0400 : t
(** The default drive, modelled on the paper's 400 MB 3.5-inch IBM SCSI
    disk (IBM 0661): 1220 cylinders x 14 heads x 48 sectors = 410 MB at
    4316 rpm — media rate ~1.73 MB/s, 13.9 ms rotation. *)

val zoned_example : t
(** A variable-geometry drive (more sectors on outer tracks), used by
    the extent-size-varies ablation. *)

val rotation_time : t -> Sim.Time.t
(** Time for one revolution. *)

val sector_time : t -> spt:int -> Sim.Time.t
(** Time for one sector to pass under the head in a zone with [spt]
    sectors per track. *)

val to_chs : t -> int -> chs
(** Decode a logical sector number.  Raises [Invalid_argument] if out of
    range. *)

val capacity_bytes : t -> int

val sector_angle : t -> chs -> float
(** Angle at which the given sector begins. *)

val angle_at : t -> Sim.Time.t -> float
(** Platter angle at a virtual time. *)

val sectors_in_track_after : t -> chs -> int
(** Number of sectors from the given sector to the end of its track,
    inclusive of the sector itself. *)
