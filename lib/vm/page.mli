(** Page frames.

    "There is no longer a distinction between process pages and I/O
    pages...  This unified naming scheme allows all of memory to be used
    for any purpose, based on demand."  Every frame is named, when in
    use, by a ⟨vnode id, file offset⟩ pair and carries the actual data
    bytes.

    Flag protocol (as in the SunOS/BSD page layer):
    - [busy]: I/O in flight or otherwise locked; waiters queue on the
      page and are woken by {!unbusy}.
    - [valid]: contents reflect the file (set after read or zero-fill).
    - [dirty]: modified since last written.
    - [referenced]: software reference bit, cleared by the clock's front
      hand, set by every lookup.
    - [prefetched]: brought in by read-ahead and not yet consumed; the
      consumer clears it on first access (counting the prefetch as
      used), the pool counts a still-set flag at free time as wasted
      prefetch.
    - [lent]: [data] was written to disk and the disk's store kept the
      frame itself, so the two share the bytes.  Whoever writes into a
      lent page first takes a private frame ({!own} or {!own_blank});
      {!Pool.free_page} drops a lent frame (see DESIGN.md, "Buffer
      ownership"). *)

type ident = { vid : int; off : int }
(** [off] is page-aligned. *)

type t = private {
  frameno : int;
  mutable data : bytes;
  mutable ident : ident option;  (** [None] = on the free list *)
  mutable valid : bool;
  mutable dirty : bool;
  mutable referenced : bool;
  mutable busy : bool;
  mutable prefetched : bool;
  mutable lent : bool;
  mutable waiters : (unit -> unit) list;
}

val make : frameno:int -> pagesize:int -> t

val set_ident : t -> ident option -> unit
val set_valid : t -> bool -> unit
val set_dirty : t -> bool -> unit
val set_referenced : t -> bool -> unit
val set_prefetched : t -> bool -> unit

val lend : t -> unit
(** Mark [data] as shared with the disk store. *)

val own : Sim.Frames.t -> t -> unit
(** Before a partial in-place write: if the page is lent, move its bytes
    into a private frame taken from the pool.  No-op otherwise. *)

val own_blank : Sim.Frames.t -> t -> unit
(** Before a write that covers the whole page: as {!own}, but the new
    frame's contents are left unspecified. *)

val lock : Sim.Engine.t -> t -> unit
(** Wait until not busy, then mark busy (the caller owns the page). *)

val wait_unbusy : Sim.Engine.t -> t -> unit
(** Wait until not busy without acquiring it. *)

val unbusy : t -> unit
(** Clear busy and wake all waiters. *)

val try_lock : t -> bool
