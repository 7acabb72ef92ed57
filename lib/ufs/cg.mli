(** Cylinder groups.

    Each group owns a span of [sb.fpg] fragments and carries, in its
    header block: summary counts, the inode allocation bitmap and the
    fragment free bitmap (bit set = fragment free, FFS convention).
    A {e block} is free iff its eight aligned fragment bits are all set.
    Those eight bits are one byte of the bitmap (block [k] of the group
    is byte [k]), so whole-block tests, range updates and {!recount}
    work a byte at a time; the module refuses to load unless
    [Layout.fpb = 8].

    Group 0 additionally hosts the boot area and superblock at the very
    front of the disk; those fragments are marked allocated forever.

    The in-memory form is authoritative while mounted ([dirty] tracks
    divergence from disk); {!encode}/{!decode} move it to/from the
    header block. *)

type t = {
  cgx : int;
  fbitmap : bytes;  (** one bit per fragment of the group *)
  ibitmap : bytes;  (** one bit per inode; bit set = inode free *)
  mutable nbfree : int;
  mutable nffree : int;
  mutable nifree : int;
  mutable ndirs : int;
  mutable rotor : int;  (** last-allocated fragment (local), scan hint *)
  mutable dirty : bool;
}

val cg_begin : Superblock.t -> int -> int
(** First fragment of group [c]. *)

val cg_end : Superblock.t -> int -> int
(** One past the last fragment of group [c]. *)

val header_frag : Superblock.t -> int -> int
(** Fragment address of the group's header block. *)

val inode_area_frag : Superblock.t -> int -> int
val inode_area_frags : Superblock.t -> int

val data_begin : Superblock.t -> int -> int
(** First data fragment of the group. *)

val dinode_loc : Superblock.t -> int -> int * int
(** [dinode_loc sb inum] is [(frag, byte_offset_within_frag)] of the
    on-disk inode. *)

val create_empty : Superblock.t -> int -> t
(** A fresh group with {e everything} marked allocated; mkfs frees the
    data area explicitly so reserved fragments can never leak in. *)

val encode : t -> Superblock.t -> bytes
val decode : bytes -> Superblock.t -> int -> t

val frag_free : t -> Superblock.t -> int -> bool
(** [frag_free t sb frag] — [frag] is an absolute fragment address that
    must lie inside the group. *)

val set_frag : t -> Superblock.t -> int -> free:bool -> unit

val set_frags : t -> Superblock.t -> lo:int -> hi:int -> free:bool -> unit
(** [set_frags t sb ~lo ~hi ~free] sets every fragment of the absolute
    range [\[lo, hi)], which must lie inside the group; an empty range
    is a no-op.  Whole bitmap bytes are filled at once. *)

val block_free : t -> Superblock.t -> int -> bool
(** The whole (block-aligned) block starting at the given fragment:
    its bitmap byte is [0xff]. *)

val block_bits : t -> Superblock.t -> int -> int
(** The bitmap byte of the (block-aligned) block starting at the given
    fragment: bit [i] set iff fragment [i] of the block is free. *)

val free_frags_in_block : t -> Superblock.t -> int -> int
(** Free fragments of the (block-aligned) block starting at the given
    fragment. *)

val inode_free : t -> int -> bool
(** By local inode index within the group. *)

val set_inode : t -> int -> free:bool -> unit

val set_inodes : t -> lo:int -> hi:int -> free:bool -> unit
(** [set_inodes t ~lo ~hi ~free] sets local inodes [\[lo, hi)]; an
    empty range is a no-op. *)

val recount : t -> Superblock.t -> int * int * int
(** Recompute (nbfree, nffree, nifree) from the bitmaps — fsck and
    property tests use this to cross-check the incremental counts. *)
