(** I/O request descriptors, after the kernel's [struct uio].

    A uio names a byte range of a file and the user memory it moves
    to/from: an iov, so one call can scatter a read over separate
    buffers (the NFS server reads a reply straight into page-sized
    segments).  The file system consumes it incrementally with {!move}
    (the analogue of [uiomove]), which advances [off]/[iov_off] and
    shrinks [resid]. *)

type rw = Read | Write

type t = {
  rw : rw;
  mutable off : int;  (** current file offset *)
  mutable resid : int;  (** bytes still to transfer *)
  iov : Sim.Iov.t;
  mutable iov_off : int;  (** logical offset of the next byte in [iov] *)
}

val of_iov : rw:rw -> off:int -> Sim.Iov.t -> t
(** A uio over all of the iov.  Raises [Invalid_argument] if [off] is
    negative. *)

val make : rw:rw -> off:int -> len:int -> buf:bytes -> buf_off:int -> t
(** One-segment {!of_iov} over [len] bytes of [buf] from [buf_off].
    Raises [Invalid_argument] if the buffer window is out of range or
    [off]/[len] negative. *)

val done_ : t -> bool

val move : t -> src_or_dst:bytes -> data_off:int -> n:int -> unit
(** Transfer [n] bytes between the uio's iov and [src_or_dst] at
    [data_off]: for a [Read] uio data flows user-ward (into the iov),
    for a [Write] uio it flows file-ward (into [src_or_dst]).  Advances
    the uio. *)
