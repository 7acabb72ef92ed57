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
    - [lent]: someone other than this page may read [data]: the disk
      store kept it as a chunk (a push lent it, or a page-in borrowed
      the chunk), or another host holds it ([exported]).  Whoever
      writes into a lent page first takes a private frame ({!own} or
      {!own_blank}); {!Pool.free_page} drops a lent frame, and no lent
      frame goes back to the frame pool.
    - [exported]: [data] may be held beyond this host: a READ reply
      carried it, or it came in a WRITE payload.  The store must pin it
      wherever it keeps it as a chunk ({!Disk.Store.pin}).
    - [home]: the store byte offset whose chunk [data] may be, or -1
      (see DESIGN.md, "Buffer ownership"). *)

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
  mutable exported : bool;
  mutable home : int;
  mutable waiters : (unit -> unit) list;
}

val make : frameno:int -> pagesize:int -> t

val set_ident : t -> ident option -> unit
val set_valid : t -> bool -> unit
val set_dirty : t -> bool -> unit
val set_referenced : t -> bool -> unit
val set_prefetched : t -> bool -> unit

val lend : t -> home:int -> unit
(** Mark [data] as shared with the disk store, as its chunk at byte
    [home]. *)

val borrow : Sim.Frames.t -> t -> bytes -> home:int -> unit
(** A page-in found the store's chunk at byte [home] for the page: the
    chunk becomes the page's frame, shared with the store ({!lend}), and
    the page's own frame goes back to the pool.  Only for a page the
    page-in claimed, and a chunk that is not its frame already. *)

val adopt : Sim.Frames.t -> t -> bytes -> unit
(** A whole-page write payload from another host becomes the page's
    frame, which is then [exported].  The frame it replaces goes back
    to the pool when it was private.  Not for a busy page: a push may
    be reading its frame. *)

val export : t -> unit
(** [data] may be held beyond this host from now on. *)

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
