(** A free list of page-sized byte frames, and a holder count per
    frame.

    The paper's SunOS never allocates a page frame: frames come off a
    free list and go back onto it.  [Vm.Pool] models that for UFS; this
    is the same discipline for the buffers the NFS layers pass around.
    The next taker reuses a frame given back instead of allocating (and
    first touching) a fresh one.  The list has no size limit: it only
    ever holds frames that were live a moment earlier.

    One 8 KB block may be named by several holders at once: a client
    cache page, a server page, a disk chunk, a queued WRITE payload, a
    message copy in the network.  Each names it through one shared
    {!frame} record, which counts them.  A holder takes a hold
    ({!hold}) before it keeps the frame and drops it ({!release}) when
    it lets go, and the last release gives the bytes back to the pool.
    A frame whose count is above 1 may be read by someone else, so it
    is never written in place ({!shared}).  Over-counting is safe: a
    hold never released leaves the frame to the GC.  Under-counting is
    not, so a holder takes its hold before it drops the one it replaces
    (see DESIGN.md, "Buffer ownership").

    One pool serves a whole engine ({!Engine.frames}), so a client and
    the server feeding it share it. *)

type t

val create : size:int -> t
(** An empty pool of [size]-byte frames. *)

val size : t -> int

val take : t -> bytes
(** A frame of {!size} bytes: the most recently given one, or a fresh
    one when the list is empty.  Its contents are unspecified, so the
    taker must overwrite or zero-fill all of it. *)

val give : t -> bytes -> unit
(** Put a frame back.  The caller guarantees nothing refers to it any
    more.  A buffer of any other length is not kept. *)

val free_list : t -> bytes list
(** The frames on the free list right now (for tests). *)

val taken : t -> int
(** Frames handed out by {!take} so far. *)

val reused : t -> int
(** Of those, the ones that came off the free list. *)

(** {2 Holder counts} *)

type frame = private {
  bytes : bytes;
  mutable holders : int;
      (** live holds; 0 once given back; negative for a {!plain}
          buffer, which nobody counts *)
}

val frame : t -> frame
(** {!take}, with one holder: the caller. *)

val wrap : bytes -> frame
(** A buffer that did not come off the list, with one holder: the
    caller.  {!release} gives it back like any other frame. *)

val plain : bytes -> frame
(** A buffer nobody counts: {!hold} and {!release} leave it alone, it
    never goes back to the pool, and it is always {!shared}.  Whoever
    made it may still hold it. *)

val hold : frame -> unit
(** One more holder.  Raises [Invalid_argument] on a frame already
    given back. *)

val release : t -> frame -> unit
(** One holder fewer; the last one gives the bytes back to [t].
    Raises [Invalid_argument] on a frame already given back. *)

val shared : frame -> bool
(** Someone besides the caller may read the frame: it has more than one
    holder, or it is {!plain}. *)
