(** The unified page pool: every frame in the machine, the ⟨vnode,
    offset⟩ name cache over the in-use ones, and the free list.

    Allocation takes a frame from the free list; when free memory is
    short the allocator kicks the pageout daemon (via {!need_pageout})
    and, if the list is empty, blocks the caller until somebody frees a
    frame — this is exactly the back-pressure through which a big writer
    "locks down all of memory" in the paper's fairness discussion.

    File systems register a {e flusher} per vnode so the pageout daemon
    can push dirty pages without knowing anything about file systems. *)

type flusher = Page.t -> free_after:bool -> int
(** Write a dirty page to backing store.  Called with the page lock
    (busy) held by the caller; the flusher owns the page until the I/O
    completes, then marks it clean, unbusies it and, when [free_after],
    frees it.  Returns the number of pages written: a file system may
    kluster physically contiguous dirty neighbours into the same I/O
    (locking them itself), and the count keeps the daemon's flush
    accounting honest. *)

type stats = {
  mutable lookups : int;
  mutable hits : int;
  mutable allocs : int;
  mutable alloc_waits : int;  (** allocations that had to sleep *)
  mutable frees : int;
  mutable prefetch_wasted : int;
      (** pages freed with the prefetched flag still set: read ahead
          but never consumed *)
}

type t

val create : Sim.Engine.t -> Param.t -> t
val engine : t -> Sim.Engine.t
val param : t -> Param.t

val lookup : t -> Page.ident -> Page.t option
(** Find a cached page; sets its reference bit.  The page may be busy —
    callers that need the contents must {!Page.wait_unbusy} and then
    re-check [valid]/[ident]. *)

val alloc : t -> Page.ident -> [ `Fresh of Page.t | `Existing of Page.t ]
(** Take a free frame and enter it in the cache under [ident].  A
    [`Fresh] page is busy (caller-owned), invalid, clean and not lent.
    Blocks when no frame is free; because that sleep can race with
    another process faulting the same page, the cache is re-checked
    afterwards and the already-entered page returned as [`Existing]
    (not locked by the caller). *)

val free_page : t -> Page.t -> unit
(** Return a frame to the free list.  The caller must hold the page
    busy; the page leaves the cache, loses its identity and is marked
    not busy.  A lent frame ({!Page.lend}, {!Page.export}) stays with
    the store or the other host that holds it, and is left to the GC
    when they let go: the page takes another from the engine's
    {!Sim.Frames}.  Wakes
    processes sleeping in {!alloc}. *)

val freecnt : t -> int

val shortage : t -> int
(** [lotsfree - freecnt], clamped at 0: how far below the pageout
    threshold we are. *)

val need_pageout : t -> Sim.Condition.t
(** Signalled by the allocator when free memory drops below
    [lotsfree]. *)

val frames : t -> Page.t array
(** All frames, for the clock hands. *)

val pages_of_vnode : t -> int -> Page.t list
(** Snapshot of cached pages of a vnode, ascending offset. *)

val invalidate_vnode : t -> int -> unit
(** Free every cached page of the vnode (waiting out busy ones).
    Used by unlink and truncate.  Must run in a process. *)

val invalidate_all : t -> unit
(** Free every cached page and drop every registered flusher — the
    page cache of a machine whose file system just went away (server
    reboot).  Must run in a process. *)

val register_flusher : t -> int -> flusher -> unit
val unregister_flusher : t -> int -> unit

val flusher_for : t -> int -> flusher option

val stats : t -> stats

val register_metrics : t -> Sim.Metrics.t -> instance:string -> unit
(** Register the pool's cache/allocation counters (including wasted
    prefetch and the free-list gauge) as a ["vm.pool"] source. *)
