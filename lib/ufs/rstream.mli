(** Per-stream read windows (adaptive readahead v2).

    The paper's single nextr/nextrio pair per file collapses the moment
    two sequential readers interleave.  A {!t} is the small per-file LRU
    table of windows that replaces it, with rules arranged so a single
    reader — and the random workloads of figure 10 — behave exactly as
    the single pair did.  UFS inodes and NFS client files each own one;
    what a window's read-ahead frontier means is the owner's policy. *)

(** One sequential-access window. *)
type window = {
  mutable nextr : int;  (** predicted next read offset, bytes *)
  mutable ra_off : int;
      (** read-ahead frontier (the paper's nextrio); -1 = not yet
          established for a mid-file stream *)
  mutable hits : int;  (** prediction matches *)
  mutable born : int;  (** table miss count at creation/refresh *)
  mutable stamp : int;  (** LRU clock stamp *)
  mutable cbs : int;
      (** adaptive cluster-size cap in bytes; max_int = uncapped (use
          the file system's cluster size) *)
  mutable waste_mark : int;
      (** pool wasted-prefetch count at the last sizing decision;
          -1 = not yet sampled *)
}

type t
(** At most 8 windows, the LRU clock and the miss count. *)

(** What {!note_miss} did. *)
type miss =
  | Reaccess  (** a sub-block re-access; nothing counted *)
  | Repointed of window  (** the scratch window now predicts the access *)
  | Opened of window  (** a new window, frontier at -1 *)

val create : unit -> t
(** One window predicting offset 0 with its frontier at 0 ("when the
    inode is initialized, nextr is set to zero, predicting that the
    first read will be the first block of the file"). *)

val reset : t -> unit
(** Back to {!create}'s state: the per-stream equivalent of the old
    [nextr <- 0; nextrio <- 0]. *)

val find : t -> po:int -> off:int -> window option
(** The window predicting an access at byte [off] of the block at page
    offset [po] (the sequentiality test): it expects [po], or — when
    [off > po] — it already advanced past the block while its reader was
    inside it.  Prefers established, then recent windows.  Mutates
    nothing. *)

val find_ra : t -> po:int -> window option
(** The window whose read-ahead frontier sits at [po] — the per-stream
    form of the paper's [po = nextrio] trigger. *)

val mru : t -> window option
(** Most recently touched window (tests and benches introspect it). *)

val touch : t -> window -> po:int -> unit
(** Record a prediction match at [po]: advance the window, stamp it
    MRU, and on its second hit boot its read-ahead frontier to [po] if
    the frontier is behind. *)

val note_miss : t -> po:int -> miss
(** Record an access matching no window.  A re-access of a block some
    window already advanced past keeps that window alive and counts
    nothing.  Otherwise stale unestablished windows (4 misses old) are
    dropped, and the never-hit scratch window is repointed — its
    frontier left alone — or, when every window has hits, a new one is
    opened, evicting the LRU window at 8. *)
