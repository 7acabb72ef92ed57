(** Disk I/O requests.

    A request names a contiguous run of sectors, carries the
    scatter/gather vector it reads into / writes from (one segment for a
    flat buffer, one per page for a cluster), and records its lifecycle
    timestamps for latency accounting.  Completion is observable two
    ways: by blocking ({!wait}) — the synchronous read path — or by
    callback ({!on_complete}) — the asynchronous write path, where the
    callback releases the inode's write-limit semaphore and marks pages
    clean.

    [ordered] is the paper's proposed [B_ORDER] flag: the queue must not
    reorder other requests across an ordered one.

    A volume fragment ({!fragment}) addresses a member drive's
    [sector] but carries the sector of the device's one store its bytes
    belong to ([store_sector]); every other request has the two equal.

    [lend] marks a request whose whole 8 KB segments may share the
    store's chunks: a write's are kept by reference instead of copied
    ({!Store.writev}), a read's are pointed at the chunks instead of
    filled ({!Store.readv}). *)

type kind = Read | Write

type t = private {
  kind : kind;
  sector : int;
  count : int;  (** sectors *)
  store_sector : int;
      (** where the bytes live in the store: [sector], or for a
          fragment its parent's store sector plus its offset *)
  iov : Sim.Iov.t;  (** exactly [count * 512] bytes *)
  ordered : bool;
  lend : bool;
  mutable enq_at : Sim.Time.t;
  mutable start_at : Sim.Time.t;
  mutable finish_at : Sim.Time.t;
  mutable seek_us : Sim.Time.t;
      (** service-time split stamped by the device; see {!set_split} *)
  mutable rot_us : Sim.Time.t;
  mutable xfer_us : Sim.Time.t;
  mutable completed : bool;
  mutable callbacks : (unit -> unit) list;
  mutable waiters : (unit -> unit) list;
  mutable absorbed_into : t option;
      (** set when driver-level clustering folded this request into a
          neighbouring one; completion then tracks the absorber *)
}

val of_iov :
  ?ordered:bool -> ?lend:bool -> kind:kind -> sector:int -> count:int ->
  Sim.Iov.t -> unit -> t
(** The vectored request.  The iov must hold exactly [count * 512]
    bytes; they are borrowed, not copied — a write's bytes are read when
    the request completes, a read's land then, so the caller must keep
    the segments stable (or untouched) until completion.  With [lend]
    (default [false]) a write also gives the store its whole 8 KB
    segments to keep, each with a hold of the store's own: the caller
    must not write into them afterwards.  A read with [lend] may find a
    whole segment pointed at the store's chunk at completion
    ({!Sim.Iov.frame} names it); the caller takes a hold on it if it
    keeps it, and must not write into it. *)

val make :
  ?ordered:bool -> kind:kind -> sector:int -> count:int -> buf:bytes ->
  buf_off:int -> unit -> t
(** One-segment {!of_iov}: [buf] must have at least [count * 512] bytes
    available at [buf_off]. *)

val fragment : t -> off:int -> sector:int -> count:int -> t
(** [fragment r ~off ~sector ~count] is the [count] sectors of [r] that
    start [off] sectors into it, addressed to member sector [sector].
    It keeps [r]'s kind and [ordered], and moves its bytes at [r]'s
    store sector plus [off].  A fragment copies, whatever [r]'s [lend]:
    its segments are fresh records ({!Sim.Iov.sub}), so a read's
    {!Sim.Iov.swap} would never reach [r]'s iov. *)

val on_complete : t -> (unit -> unit) -> unit
(** Register a completion callback; called immediately if already
    complete. *)

val wait : Sim.Engine.t -> t -> unit
(** Block the calling process until the request completes (no-op if it
    already has).  If the caller carries a {!Sim.Attrib} clock, the
    blocked time is charged to it as ["disk.queue"]/["disk.seek"]/
    ["disk.rot"]/["disk.xfer"] in proportion to the request's residence
    components (overflow and unsplit time as ["disk.wait"]). *)

val complete : t -> now:Sim.Time.t -> unit
(** Mark complete; fires callbacks then wakes waiters.  Internal to the
    disk layer. *)

val set_enq_at : t -> Sim.Time.t -> unit
(** Internal to the disk layer: stamp enqueue time. *)

val set_start_at : t -> Sim.Time.t -> unit
(** Internal to the disk layer: stamp service-start time. *)

val set_split : t -> seek:Sim.Time.t -> rot:Sim.Time.t -> xfer:Sim.Time.t -> unit
(** Internal to the disk layer: stamp this request's share of the
    mechanical service-time split (a coalesced group's split is
    apportioned to members by sector count). *)

val latency : t -> Sim.Time.t
(** [finish_at - enq_at]; only meaningful once completed. *)

val end_sector : t -> int
(** First sector past the request. *)
