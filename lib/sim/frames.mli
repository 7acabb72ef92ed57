(** A free list of page-sized byte frames.

    The paper's SunOS never allocates a page frame: frames come off a
    free list and go back onto it.  [Vm.Pool] models that for UFS; this
    is the same discipline for the buffers the NFS layers pass around.
    Whoever drops a frame that nothing can touch again gives it back,
    and the next taker reuses it instead of allocating (and first
    touching) a fresh one.  The list has no size limit: it only ever
    holds frames that were live a moment earlier.

    One pool serves a whole engine ({!Engine.frames}), so a client and
    the server feeding it share it.  A frame that another host may hold
    never comes back to the list (see DESIGN.md, "Buffer ownership"). *)

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
