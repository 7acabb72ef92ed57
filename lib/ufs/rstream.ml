(* Per-stream read-window table (adaptive readahead v2).

   The paper keeps one nextr/nextrio pair per file, so two interleaved
   sequential readers destroy each other's hint on every access.  Here
   each file carries a small LRU table of access windows instead; the
   rules are chosen so that a single reader (and the random-access
   workloads of figure 10) behaves byte-identically to the single-pair
   original:

   - the table starts as one window predicting offset 0 with its
     read-ahead frontier at 0, exactly the paper's initial state;
   - an access matching no window repoints the (unique) never-hit
     "scratch" window, mutating precisely the state the single pair
     would have mutated — its frontier is left alone, as the paper
     leaves nextrio alone on a miss;
   - only when the scratch has started matching (it is some stream's
     window now) does a miss open a NEW window, which is what preserves
     the established streams;
   - windows that never reach two hits are dropped after a few more
     misses, so accidental matches in random workloads cannot
     accumulate stale predictors.

   The table knows nothing of any file system: UFS's getpage/rdwr and
   the NFS client each keep one per file and apply their own frontier
   policy to the windows it returns. *)

let bsize = Layout.bsize
let max_windows = 8
let miss_ttl = 4

type window = {
  mutable nextr : int;
  mutable ra_off : int;
  mutable hits : int;
  mutable born : int;
  mutable stamp : int;
  mutable cbs : int;
  mutable waste_mark : int;
}

type t = {
  mutable windows : window list;
  mutable clock : int;
  mutable misses : int;
}

type miss = Reaccess | Repointed of window | Opened of window

let mk_window ~nextr ~ra_off ~born ~stamp =
  { nextr; ra_off; hits = 0; born; stamp; cbs = max_int; waste_mark = -1 }

let initial () = [ mk_window ~nextr:0 ~ra_off:0 ~born:0 ~stamp:0 ]
let create () = { windows = initial (); clock = 0; misses = 0 }

let reset t =
  t.clock <- 0;
  t.misses <- 0;
  t.windows <- initial ()

let bump t =
  t.clock <- t.clock + 1;
  t.clock

(* The window predicting an access at byte [off] inside the block at
   [po]: it expects the block's start, or it already advanced past the
   block while the reader was inside it.  Prefer established windows,
   then the most recently used. *)
let find t ~po ~off =
  List.fold_left
    (fun best w ->
      if not (w.nextr = po || (off > po && w.nextr = po + bsize)) then best
      else
        match best with
        | Some b when (b.hits, b.stamp) >= (w.hits, w.stamp) -> best
        | _ -> Some w)
    None t.windows

(* The window whose read-ahead frontier sits at [po] (the paper's
   [po = nextrio] test, per window). *)
let find_ra t ~po =
  List.fold_left
    (fun best w ->
      if w.ra_off <> po then best
      else
        match best with
        | Some b when b.stamp >= w.stamp -> best
        | _ -> Some w)
    None t.windows

let mru t =
  List.fold_left
    (fun best w ->
      match best with
      | Some b when b.stamp >= w.stamp -> best
      | _ -> Some w)
    None t.windows

(* The access at [po] matched window [w].  Establishment: on the second
   match of a mid-file stream, boot its read-ahead frontier at the
   current block so the asynchronous cluster chain can start.  Strictly
   [<]: a frontier at or ahead of [po] is live and must not be pulled
   back. *)
let touch t w ~po =
  w.hits <- w.hits + 1;
  w.stamp <- bump t;
  w.born <- t.misses;
  w.nextr <- po + bsize;
  if w.hits = 2 && w.ra_off < po then w.ra_off <- po

let evict_lru t =
  match
    List.fold_left
      (fun worst w ->
        match worst with
        | Some b when b.stamp <= w.stamp -> worst
        | _ -> Some w)
      None t.windows
  with
  | Some lru -> t.windows <- List.filter (fun w -> w != lru) t.windows
  | None -> ()

(* The access at [po] matched no window. *)
let note_miss t ~po =
  match List.find_opt (fun w -> w.nextr = po + bsize) t.windows with
  | Some w ->
      (* sub-block re-access: a stream reading in < bsize chunks touches
         the same block several times; its window already advanced.
         Keep the window alive, count nothing. *)
      w.born <- t.misses;
      Reaccess
  | None -> (
      t.misses <- t.misses + 1;
      (* drop stale unestablished windows *)
      t.windows <-
        List.filter
          (fun w -> w.hits >= 2 || t.misses - w.born <= miss_ttl)
          t.windows;
      let scratch =
        List.fold_left
          (fun best w ->
            if w.hits > 0 then best
            else
              match best with
              | Some b when b.stamp >= w.stamp -> best
              | _ -> Some w)
          None t.windows
      in
      match scratch with
      | Some w ->
          (* repoint, as the paper repoints its single nextr; the
             frontier stays, as the paper leaves nextrio *)
          w.nextr <- po + bsize;
          w.born <- t.misses;
          w.stamp <- bump t;
          Repointed w
      | None ->
          if List.length t.windows >= max_windows then evict_lru t;
          let w =
            mk_window ~nextr:(po + bsize) ~ra_off:(-1) ~born:t.misses
              ~stamp:(bump t)
          in
          t.windows <- w :: t.windows;
          Opened w)
