(** Shared page-I/O machinery under ufs_getpage/ufs_putpage and the
    extent file system's reads and writes: building single disk
    requests that cover whole clusters of pages, and the completion
    bookkeeping (validate/clean pages, lend and borrow frames, release
    the write limit, wake fsync waiters).  {!page_in} and {!push_pages}
    name a file by its vnode id and its blocks by their first sector
    and byte length, so they serve any file system with a
    {!Types.pager}.

    CPU accounting convention: the {e initiating} process is charged
    [driver_submit + intr] per disk request at submission time — the
    completion interrupt cannot be charged from a callback without a
    process context, and attributing it to the requester matches how
    the paper reasons about per-request overhead. *)

val ident : Types.inode -> int -> Vm.Page.ident

val extent_bytes : Types.inode -> off:int -> blocks:int -> int
(** Bytes on disk of the [blocks] logical blocks at page-aligned byte
    [off]: whole blocks, but a fragment-allocated tail's fragments. *)

val consume_prefetch : Types.stats -> Vm.Page.t -> unit
(** If the page still carries the read-ahead flag, count it as a used
    prefetch in [ra_used_blocks] and clear the flag (first-consumer
    accounting; see {!Vm.Page.t.prefetched}). *)

val page_in : Types.pager -> vid:int -> off:int -> sector:int -> bytes:int ->
  sync:bool -> read_ahead:bool -> unit
(** Read [bytes] of vnode [vid] starting at page-aligned byte offset
    [off], located contiguously on disk from [sector], as one disk
    request.  Pages already cached inside the range keep their
    (possibly newer) contents; missing pages are allocated, filled from
    the request buffer at completion, validated and unbusied; a whole
    block whose chunk the store holds borrows that chunk as its frame
    ({!Vm.Page.borrow}) instead of a copy.  A short last block (a
    fragment-allocated tail) is zero-filled past [bytes].
    When [sync], blocks until the data is in.  [read_ahead] selects
    statistics/trace classification and marks the freshly-claimed pages
    {!Vm.Page.t.prefetched} for used/wasted accounting. *)

val grab_page : Types.pager -> vid:int -> off:int -> Vm.Page.t
(** The valid cache page of vnode [vid] at page-aligned byte [off],
    without any disk read: a cached page (after any I/O on it lands),
    or a fresh zero-filled one.  For full-block overwrites and blocks
    new to the file. *)

val zero_fill : Types.fs -> Types.inode -> off:int -> blocks:int -> unit
(** Enter valid zeroed pages for a hole (no I/O). *)

val push_pages :
  Types.pager -> Types.writes -> Vm.Page.t list -> sector:int -> bytes:int ->
  sync:bool -> free_after:bool -> throttle:bool -> locked:bool ->
  ?ordered:bool -> unit -> unit
(** Write the given (consecutive, dirty, unlocked) pages, [bytes] in
    all, as one disk request at [sector].  Marks them busy for the
    duration; on completion they are cleaned, unbusied (or freed when
    [free_after]), their whole blocks' frames lent to the store
    ({!Vm.Page.lend}), and the file's in-flight count drops; a page
    that a write moved off its lent frame during the push stays dirty
    and cached.  The request holds each frame it carries until then.  When [throttle], blocks on the file's
    write-limit semaphore first (the paper's fairness semaphore);
    pageout-initiated pushes pass [false].  When [sync], waits for the
    I/O. *)

val wait_writes : Types.pager -> Types.writes -> unit
(** Block until the file has no writes in flight (fsync tail). *)
