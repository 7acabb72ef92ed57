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
      the chunk), or another host holds it (a READ reply carried it,
      or it came in a WRITE payload).  Whoever writes into a lent page
      first takes a private frame ({!own} or {!own_blank});
      {!Pool.free_page} drops a lent frame the same way.

    [frame] is the page's hold on [data] ([data] is [frame.bytes]): the
    page is one of the frame's holders, and the frame goes back to the
    engine's pool when its last holder lets go (see DESIGN.md, "Buffer
    ownership"). *)

type ident = { vid : int; off : int }
(** [off] is page-aligned. *)

type t = private {
  frameno : int;
  mutable data : bytes;
  mutable frame : Sim.Frames.frame;
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
(** Mark [data] as shared with the disk store: a push lent it. *)

val borrow : Sim.Frames.t -> t -> Sim.Frames.frame -> unit
(** A page-in found the store's chunk for the page: the page takes a
    hold on the chunk, which becomes its frame ({!lend}), and drops its
    own frame.  Only for a page the page-in claimed, and a chunk that is
    not its frame already. *)

val adopt : Sim.Frames.t -> t -> Sim.Frames.frame -> unit
(** A whole-page write payload from another host becomes the page's
    frame: the page takes a hold on it and drops the frame it replaces.
    Not for a busy page: a push may be reading its frame. *)

val export : t -> Sim.Frames.frame
(** [data] goes to another host: the page's frame, with a hold for the
    message that carries it. *)

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
