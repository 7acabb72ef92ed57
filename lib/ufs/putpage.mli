(** ufs_putpage: the write side of the paper.

    The delayed path ([P_DELAY], called by ufs_rdwr as each block is
    unmapped) implements Figures 7/8: "We handle writes by assuming
    sequential I/O and pretending that the I/O completed immediately (in
    other words, do nothing).  If the sequentiality assumption is found
    to be wrong at the next call, we write the previous page out and
    then start over with the current page.  If the assumption is
    correct, we keep stalling until a cluster is built up and then write
    out the whole cluster."  The run is the inode's {!Wrun.t} (the
    paper's [delayoff]/[delaylen]); a rewrite of a block already in the
    run leaves it alone, so writes smaller than a block cluster too.  A
    full cluster is pushed the moment the boundary is crossed, keeping
    the disk uniformly busy (the paper's argument against Peacock's
    flush-on-full-cache).

    Pushing honours the Figure 8 while-loop: the accumulated range is
    re-cut by what bmap says is actually contiguous, so fragmented files
    degrade to smaller I/Os rather than breaking.

    Without clustering the delayed path degenerates to an immediate
    asynchronous one-block write — SunOS 4.1 behaviour.

    The [flusher] is the hook the pageout daemon uses ({!Vm.Pool.flusher});
    it writes a single page and is exempt from the write limit. *)

val putpage :
  Types.fs -> Types.inode -> off:int -> len:int -> flags:Vfs.Vnode.putflag list ->
  unit
(** [len = 0] means "to end of file".  [P_DELAY] expects a single page
    at [off].  [P_SYNC]/[P_ASYNC] push every dirty page in the range
    (clustered when the feature is on); [P_SYNC] also waits for all of
    the inode's writes to drain.  [P_FREE] frees pages once clean (the
    free-behind and pageout paths). *)

val push_range :
  Types.fs ->
  Types.inode ->
  off:int ->
  len:int ->
  free_after:bool ->
  throttle:bool ->
  ?ordered:bool ->
  unit ->
  unit
(** Push every dirty page in [off, off+len), cut into physically
    contiguous chunks per bmap.  No-op while a journalled operation is
    mutating the inode (the Wal pushes deferred ranges at op end). *)

val push_delayed : Types.fs -> Types.inode -> sync:bool -> ?ordered:bool -> unit -> unit
(** Flush the delayed-write run (fsync, a range push, or file
    close), then, when [sync], wait for the inode's writes.  [ordered] issues the
    flush as unthrottled B_ORDER writes (metadata paths). *)

val flusher : Types.fs -> Types.inode -> Vm.Pool.flusher
(** Per-vnode flusher to register with the page pool. *)
