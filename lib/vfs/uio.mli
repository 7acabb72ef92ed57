(** I/O request descriptors, after the kernel's [struct uio].

    A uio names a byte range of a file and the user memory it moves
    to/from: an iov, so one call can scatter a read over separate
    buffers.  The file system consumes it incrementally with {!move}
    (the analogue of [uiomove]), which advances [off]/[iov_off] and
    shrinks [resid].

    An NFS payload moves whole page frames by reference instead
    ([frames]): nfsd writes a WRITE's whole 8 KB segments in as page
    frames ({!take}), and builds a READ reply out of the cached pages'
    own frames ({!reply}, {!give}); see DESIGN.md, "Buffer
    ownership". *)

type rw = Read | Write

type t = {
  rw : rw;
  mutable off : int;  (** current file offset *)
  mutable resid : int;  (** bytes still to transfer *)
  iov : Sim.Iov.t;
  mutable iov_off : int;  (** logical offset of the next byte in [iov] *)
  frames : bool;  (** whole page frames change hands by reference *)
  mutable segs : (Sim.Frames.frame * int * int) list;
      (** a {!reply} uio's segments so far, newest first *)
}

val of_iov : ?frames:bool -> rw:rw -> off:int -> Sim.Iov.t -> t
(** A uio over all of the iov.  With [frames] (default [false]), a
    write may keep the iov's whole page-sized segments ({!take}): the
    caller must never write into them again.  Raises [Invalid_argument]
    if [off] is negative. *)

val make : rw:rw -> off:int -> len:int -> buf:bytes -> buf_off:int -> t
(** One-segment {!of_iov} over [len] bytes of [buf] from [buf_off].
    Raises [Invalid_argument] if the buffer window is out of range or
    [off]/[len] negative. *)

val reply : off:int -> len:int -> t
(** A [frames] read of [len] bytes at [off] with no memory of its own:
    it collects what it is given, a copy per {!move} and a frame itself
    per {!give}, into {!replied}. *)

val done_ : t -> bool

val move : t -> src_or_dst:bytes -> data_off:int -> n:int -> unit
(** Transfer [n] bytes between the uio's iov and [src_or_dst] at
    [data_off]: for a [Read] uio data flows user-ward (into the iov, or
    a copy appended to a {!reply}), for a [Write] uio it flows
    file-ward (into [src_or_dst]).  Advances the uio. *)

val give : t -> Sim.Frames.frame -> unit
(** Append the whole frame [f] to a {!reply} by reference, for its
    length, with the hold the caller took for the reply: its holders
    must never write into it again.  Raises [Invalid_argument] on any
    other uio. *)

val take : t -> int -> Sim.Frames.frame option
(** For a [frames] write: [Some f] when the next [n] bytes are one
    whole segment spanning all of [f] ({!Sim.Iov.whole}), consumed;
    the caller keeps [f] as a page frame, with a hold of its own,
    instead of copying it.  [None] (nothing consumed) otherwise. *)

val replied : t -> Sim.Iov.t
(** A {!reply}'s bytes so far, in file order. *)
