(** Scatter/gather byte vectors, after the kernel's [struct iovec]
    arrays.

    An iov is an ordered run of byte segments, each a window
    [(base, off, len)] onto some [bytes], read as one logical buffer of
    {!length} bytes.  Segments {e borrow} their bytes: building an iov
    copies nothing, and whoever writes through it writes into the
    underlying buffers.  That is the point — a disk request can read
    straight into a run of cache pages, and an NFS payload can carry the
    pages it covers, with no bounce buffer in between (see DESIGN.md,
    "Buffer ownership").  Each segment names its buffer through a
    {!Frames.frame}, so whoever keeps a page frame that an iov carries
    can count itself as one of its holders.

    Logical offsets below are offsets into the iov, [0 .. length). *)

type t

val of_bytes : ?off:int -> ?len:int -> bytes -> t
(** One segment: [len] bytes of [b] from [off] (default: all of [b]).
    Raises [Invalid_argument] if the window is out of range. *)

val of_list : (bytes * int * int) list -> t
(** Segments [(base, off, len)] in order; empty segments are dropped.
    Each [base] is a {!Frames.plain} buffer.  Raises [Invalid_argument]
    if a window is out of range. *)

val of_frames : (Frames.frame * int * int) list -> t
(** As {!of_list}, over counted frames.  Building the iov takes no
    hold. *)

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

val iter_frames : (Frames.frame -> int -> int -> unit) -> t -> unit
(** [iter_frames f t] calls [f frame off len] on each segment, in
    order. *)

val hold : t -> unit
(** A hold on each segment's frame ({!Frames.hold}): one more holder
    of everything the iov carries, such as a message copy. *)

val release : Frames.t -> t -> unit
(** Drop one hold on each segment's frame ({!Frames.release}). *)

val whole : t -> off:int -> len:int -> bytes option
(** [Some b] when the logical window [off, off+len) is exactly one
    segment spanning all of [b] ([Bytes.length b = len]), so a consumer
    can adopt [b] outright instead of copying it. *)

val whole_frame : t -> off:int -> len:int -> Frames.frame option
(** {!whole}, naming the segment's frame. *)

val frame : t -> off:int -> Frames.frame
(** The frame under the segment holding logical offset [off] (no
    allocation: for completion paths that compare it with [==]).
    Raises [Invalid_argument] if [off] is out of range. *)

val swap : t -> off:int -> Frames.frame -> unit
(** [swap t ~off f] points the segment that {!whole} finds at [off] for
    the length of [f] at [f] instead: the iov now reads and writes [f],
    and the bytes it referred to are left alone.  The disk store uses it
    to hand a read its own chunk instead of copying the chunk
    ({!Disk.Store.readv}).  No hold changes hands.  Raises
    [Invalid_argument] if no whole segment of that length starts at
    [off]. *)

val to_bytes : t -> bytes
(** A fresh flat copy. *)
