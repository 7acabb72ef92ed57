(** Sparse backing store for simulated disks.

    Holds the actual bytes of the platter so that the file system above
    is real: what you write is what you later read, fsck walks real
    metadata, and data-integrity tests are meaningful.  Storage is a
    hash table of fixed-size chunks so a 400 MB disk that is mostly
    zeros costs almost nothing; unwritten regions read back as zeros
    (which is also what mkfs assumes). *)

type t

val create : size:int -> t
(** [create ~size] is a zeroed store of [size] bytes. *)

val size : t -> int

val read : t -> off:int -> len:int -> bytes -> int -> unit
(** [read t ~off ~len dst dst_off] copies [len] bytes starting at byte
    [off] of the store into [dst] at [dst_off].
    Raises [Invalid_argument] on out-of-range access. *)

val write : t -> off:int -> len:int -> bytes -> int -> unit
(** [write t ~off ~len src src_off] copies [len] bytes from [src] at
    [src_off] into the store at byte [off].  A chunk that has other
    holders is copied first, into a fresh frame. *)

val readv : ?lend:bool -> t -> off:int -> Sim.Iov.t -> unit
(** [readv t ~off iov] fills the iov's segments, in order, from the
    store bytes starting at [off].  With [lend] (default [false]), a
    segment that is a whole chunk-aligned 8 KB frame over a chunk that
    exists is pointed at the chunk's own frame ({!Sim.Iov.swap})
    instead of filled; the reader takes its own hold on it if it keeps
    it, and must copy it before writing.  A chunk never written is
    copied (as zeros). *)

val writev : ?lend:Sim.Frames.t -> t -> off:int -> Sim.Iov.t -> unit
(** [writev t ~off iov] gathers the iov's segments, in order, into the
    store starting at [off].  With [lend], a segment that is a whole
    chunk-aligned 8 KB frame becomes the chunk by reference instead of
    being copied: the store takes a hold on it, and the writer must not
    touch it again.  The chunk it displaces loses the store's hold, and
    goes back to [lend] if that was its last.  A write into a chunk
    that has other holders writes a copy instead, taken from [lend]
    (a fresh frame without it). *)

val chunks_allocated : t -> int
(** Number of materialised chunks (memory accounting for tests). *)

val chunks_adopted : t -> int
(** Segments {!writev} kept by reference, over the store's life. *)

val chunks_recycled : t -> int
(** Of those adoptions, the ones that displaced a chunk whose last
    holder was the store, so it went back to the frame pool. *)

val iter_chunks : (int -> bytes -> unit) -> t -> unit
(** [iter_chunks f t] calls [f off chunk] on every materialised 8 KB
    chunk of [t], in no particular order (memory accounting for
    tests). *)

val copy_into : t -> t -> unit
(** [copy_into src dst] replaces [dst]'s contents with [src]'s.  Sizes
    must match.  Used to clone disk images between simulated machines. *)

val save : t -> string -> unit
(** Write the store as a flat disk image file (sparse where the host
    file system allows: untouched chunks are seeked over). *)

val load : string -> t
(** Read a flat disk image file produced by {!save} (or any raw image);
    all-zero chunks are not materialised. *)
