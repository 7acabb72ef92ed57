(** The delayed-write run: the paper's [delayoff]/[delaylen] and the
    cluster push of Figures 7/8 ({!Putpage} quotes the rule).

    A {!t} is one file's run of contiguous dirty blocks, in bytes.  UFS
    inodes, extent-file-system files and NFS client files each own one;
    what pushing a run means, and its cap, is the owner's. *)

type t

val create : unit -> t
(** An empty run. *)

val off : t -> int
(** First byte of the run; 0 when empty. *)

val len : t -> int
(** Bytes in the run, a whole number of blocks; 0 when empty. *)

val is_empty : t -> bool

val reset : t -> unit
(** Forget the run without pushing it (truncation). *)

(** Both calls below push a run as [push a b ~off ~len]: the owner's
    push function and its two arguments travel apart, so a call
    allocates no closure. *)

val flush : t -> ('a -> 'b -> off:int -> len:int -> unit) -> 'a -> 'b -> unit
(** If the run is not empty, empty it, then push it.  The run is
    already empty while the push runs, so a push that sleeps leaves
    nothing for another flusher to push twice. *)

val add :
  t -> off:int -> cap:int -> ('a -> 'b -> off:int -> len:int -> unit) ->
  'a -> 'b -> unit
(** The block at byte [off] was just dirtied.
    - An empty run starts at [off].
    - The block right after the run, while the run is under [cap],
      extends it.
    - A block already inside the run leaves the run alone.
    - Any other block breaks the sequence: the old run is pushed and a
      new one starts at [off].
    Then a run of [cap] bytes or more is pushed. *)
