(** Logical-to-physical block mapping.

    This is the routine the paper modified: "bmap used to take a logical
    block number and return a physical block number.  We modified it to
    return a length as well...  The portion of the file starting at the
    logical block given to bmap is located at the physical block
    returned and continues for at least the length returned.  The length
    returned is at most maxcontig blocks long and is used as the
    effective cluster size by the caller."

    {!read} returns exactly that ⟨physical, length⟩ pair (with [None]
    for holes, whose length is the run of consecutive holes).  Contiguity
    scanning never crosses a pointer-structure boundary (direct array /
    indirect block), as in the real implementation.

    Indirect-block pointer blocks are fetched through {!Metabuf}, so a
    cold large-file bmap really costs a disk read; the optional per-inode
    last-run cache ({!Types.features.bmap_cache}) implements the paper's
    "bmap cache" future-work item.

    {!ensure} is the allocating flavour used by the write path.  It
    reproduces FFS fragment semantics: files small enough to live
    entirely in direct blocks keep their tail in fragments; growth tries
    to extend the fragment run in place and otherwise moves it (copying
    the data through the disk, as the real allocator's [realloccg]
    effectively does via the cache). *)

val block_frags : lbn:int -> size:int -> int
(** Fragments logical block [lbn] occupies in a file of [size] bytes
    (fewer than a full block only for an eligible fragged tail). *)

val read : Types.fs -> Types.inode -> lbn:int -> int option * int
(** [(Some frag, len)]: the block lives at [frag] and the file is
    physically contiguous for [len] logical blocks starting there
    (capped at [max 1 maxcontig]).  [(None, len)]: a hole [len] blocks
    long.  Must run in a process (may read an indirect block). *)

val ensure : Types.fs -> Types.inode -> lbn:int -> new_size:int -> int
(** Make sure the block is allocated with enough fragments for a file of
    [new_size] bytes (which must be >= the current size), allocating or
    growing as needed, and return its fragment address.  The caller must
    not have updated [ip.size] yet: the old size determines the current
    tail allocation. *)

val grow_old_tail : Types.fs -> Types.inode -> new_size:int -> unit
(** If the current tail block is fragment-allocated but would no longer
    be an eligible tail at [new_size], expand it to whatever [new_size]
    requires first.  Call before extending a file past its old tail. *)

type chunk =
  | Data of { lbn : int; frag : int; nfrags : int }
  | Indirect of { frag : int }

val iter_allocated : Types.fs -> Types.inode -> (chunk -> unit) -> unit
(** Every allocated fragment run of the file, data and indirect blocks
    both — the truncation path walks this to free them. *)

val extent_map : Types.fs -> Types.inode -> (int * int * int) list
(** Physical extents [(start_lbn, start_frag, blocks)] — maximal runs of
    physically contiguous logical blocks, ignoring maxcontig.  This is
    the measurement behind the paper's allocator-quality numbers
    ("in the best case, the average extent size was 1.5MB..."). *)
