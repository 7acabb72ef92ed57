(** On-disk layout constants and address arithmetic.

    The format follows BSD FFS structure (simplified field-wise, not
    semantically): 8 KB logical blocks composed of eight 1 KB fragments,
    fragment-granularity allocation bitmaps, cylinder groups each holding
    a header block, a run of inode blocks and a data area.  All disk
    addresses stored in inodes and indirect blocks are {e fragment
    numbers} absolute from the start of the disk (address 0 is the boot
    block and therefore doubles as the "hole" marker, as in FFS).

    Inode block-pointer geometry: [ndaddr] direct pointers, one single
    indirect, one double indirect. *)

val bsize : int
(** Logical block size: 8192 bytes. *)

val fsize : int
(** Fragment size: 1024 bytes. *)

val fpb : int
(** Fragments per block: 8. *)

val sector_bytes : int
(** 512. *)

val sectors_per_frag : int

val ndaddr : int
(** Direct pointers per inode: 12. *)

val nindir : int
(** Pointers per indirect block: bsize / 4 = 2048. *)

val dinode_bytes : int
(** 128. *)

val inodes_per_block : int

val max_lbn : int
(** Largest addressable logical block number + 1. *)

val sb_frag : int
(** Fragment address of the superblock (8, i.e. byte 8192). *)

val bootblocks_frags : int
(** Fragments reserved at the front of the disk (boot + superblock). *)

val frag_to_byte : int -> int
val frag_to_sector : int -> int

val lbn_of_off : int -> int
(** Logical block containing a byte offset. *)

val blk_off : int -> int
(** Offset within its logical block. *)

val blocks_of_size : int -> int
(** Number of logical blocks needed for a file of the given size. *)

val frags_of_bytes : int -> int
(** Fragments needed to hold the given byte count (rounded up). *)

type level = Direct of int | Single of int | Double of int * int
(** Where a logical block's pointer lives: in the inode's direct array,
    at index [i] of the single-indirect block, or at [(i, j)] through
    the double-indirect chain. *)

val classify : int -> level
(** Raises [Vfs.Errno.Error EFBIG] past the double-indirect range. *)
