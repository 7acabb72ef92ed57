(** Metadata buffer cache.

    Superblock, cylinder-group headers, inode blocks and indirect blocks
    go through this small write-back cache of whole logical blocks —
    the residue of the old "buffer cache" that survives in a page-cache
    world.  Reads miss to the disk synchronously (the caller sleeps);
    dirty blocks are written back on {!sync}, on eviction, or
    synchronously on demand ({!flush_block}).

    A single lock serialises metadata I/O; this is coarser than the
    per-buffer locks of a real kernel but preserves what matters here:
    metadata I/O competes with data I/O in the same disk queue.

    Indirect-block reads through this cache are the "bmap gets more
    expensive for large files" cost the paper's bmap-cache future-work
    item attacks. *)

type stats = {
  mutable reads : int;  (** lookups *)
  mutable read_misses : int;  (** lookups that went to disk *)
  mutable writebacks : int;  (** blocks written to disk *)
}

type t

val create :
  ?capacity:int ->
  Sim.Engine.t ->
  Sim.Cpu.t ->
  Disk.Blkdev.t ->
  Costs.t ->
  t
(** [capacity] (default 64) is in blocks. *)

val set_write_gate : t -> (int -> (unit -> unit) -> bool) option -> unit
(** Interpose on every in-place write-back: [gate frag do_write] either
    runs [do_write] (after whatever ordering work it needs — the
    journalled mount commits its log first) and returns true, or returns
    false to refuse the write, leaving the block dirty in the cache.
    With a gate set, eviction prefers clean victims.  [None] (the
    default) writes back directly. *)

val read : t -> frag:int -> bytes
(** The cached block containing [frag] ([frag] must be block-aligned).
    The returned bytes are the live cache entry: mutate then call
    {!mark_dirty}.  Must run in a process (may sleep on disk I/O). *)

val zero : t -> frag:int -> bytes
(** Enter a zeroed block at [frag] without reading the disk (fresh
    indirect block or fresh inode block) and mark it dirty. *)

val mark_dirty : t -> frag:int -> unit
(** Raises [Invalid_argument] if the block is not resident. *)

val flush_block : t -> frag:int -> unit
(** Synchronously write the block back if resident and dirty. *)

val flush_block_ordered : t -> frag:int -> unit
(** Write the block back {e asynchronously} with the B_ORDER flag set:
    the caller continues immediately, but the disk queue may not reorder
    other requests across this one, so metadata ordering is preserved
    without a synchronous stall.  {!sync} waits for all such writes. *)

val invalidate : t -> frag:int -> unit
(** Drop the block without writing it back — for metadata blocks whose
    backing storage has been freed (a truncated file's indirect blocks).
    Writing such a block later would corrupt whoever reuses the
    fragments. *)

val sync : t -> unit
(** Write back every dirty block, waiting for completion. *)

val stats : t -> stats
