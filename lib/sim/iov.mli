(** Scatter/gather byte vectors, after the kernel's [struct iovec]
    arrays.

    An iov is an ordered run of byte segments, each a window
    [(base, off, len)] onto some [bytes], read as one logical buffer of
    {!length} bytes.  Segments {e borrow} their bytes: building an iov
    copies nothing, and whoever writes through it writes into the
    underlying buffers.  That is the point — a disk request can read
    straight into a run of cache pages, and an NFS payload can carry the
    pages it covers, with no bounce buffer in between (see DESIGN.md,
    "Buffer ownership").

    Logical offsets below are offsets into the iov, [0 .. length). *)

type t

val of_bytes : ?off:int -> ?len:int -> bytes -> t
(** One segment: [len] bytes of [b] from [off] (default: all of [b]).
    Raises [Invalid_argument] if the window is out of range. *)

val of_list : (bytes * int * int) list -> t
(** Segments [(base, off, len)] in order; empty segments are dropped.
    Raises [Invalid_argument] if a window is out of range. *)

val length : t -> int

val sub : t -> off:int -> len:int -> t
(** The logical window [off, off+len), sharing the same bytes. *)

val blit_to_bytes : t -> int -> bytes -> int -> int -> unit
(** [blit_to_bytes src src_off dst dst_off len] copies [len] bytes out
    of the iov, like [Bytes.blit]. *)

val blit_from_bytes : bytes -> int -> t -> int -> int -> unit
(** [blit_from_bytes src src_off dst dst_off len] copies [len] bytes
    into the iov's segments. *)

val iter : (bytes -> int -> int -> unit) -> t -> unit
(** [iter f t] calls [f base off len] on each segment, in order. *)

val whole : t -> off:int -> len:int -> bytes option
(** [Some b] when the logical window [off, off+len) is exactly one
    segment spanning all of [b] ([Bytes.length b = len]), so a consumer
    can adopt [b] outright instead of copying it. *)

val base : t -> off:int -> bytes
(** The buffer under the segment holding logical offset [off] (no
    allocation: for completion paths that compare it with [==]).
    Raises [Invalid_argument] if [off] is out of range. *)

val swap : t -> off:int -> bytes -> unit
(** [swap t ~off b] points the segment that {!whole} finds at [off] for
    [Bytes.length b] bytes at [b] instead: the iov now reads and writes
    [b], and the bytes it referred to are left alone.  The disk store
    uses it to hand a read its own chunk instead of copying the chunk
    ({!Disk.Store.readv}).  Raises [Invalid_argument] if no whole
    segment of that length starts at [off]. *)

val to_bytes : t -> bytes
(** A fresh flat copy. *)
