open Types

let frag_tail_eligible ~size = size <= Layout.ndaddr * Layout.bsize

let block_frags ~lbn ~size =
  if
    frag_tail_eligible ~size
    && size > 0
    && lbn = (size - 1) / Layout.bsize
    && size mod Layout.bsize <> 0
  then Layout.frags_of_bytes (size mod Layout.bsize)
  else Layout.fpb

(* ---------- pointer access ---------- *)

let ind_get fs frag i = Codec.get_u32 (Metabuf.read fs.metabuf ~frag) (4 * i)

let ind_set fs frag i v =
  Codec.put_u32 (Metabuf.read fs.metabuf ~frag) (4 * i) v;
  Metabuf.mark_dirty fs.metabuf ~frag;
  Wal.log_ind_set fs ~frag ~index:i ~value:v;
  Wal.mark_meta fs ~frag

(* A function giving the pointer of [lbn + k] within the structure
   holding [lbn] — used by the contiguity scan without re-walking the
   tree.  Pointers are unsigned, so [-1] marks "past the structure's
   boundary" and no pointer is boxed. *)
let lookup fs (ip : inode) lbn =
  match Layout.classify lbn with
  | Layout.Direct i -> fun k -> if i + k < Layout.ndaddr then ip.db.(i + k) else -1
  | Layout.Single i ->
      if ip.ib.(0) = 0 then fun k -> if i + k < Layout.nindir then 0 else -1
      else
        let frag = ip.ib.(0) in
        fun k -> if i + k < Layout.nindir then ind_get fs frag (i + k) else -1
  | Layout.Double (i, j) ->
      if ip.ib.(1) = 0 then fun k -> if j + k < Layout.nindir then 0 else -1
      else
        let l1 = ind_get fs ip.ib.(1) i in
        if l1 = 0 then fun k -> if j + k < Layout.nindir then 0 else -1
        else fun k -> if j + k < Layout.nindir then ind_get fs l1 (j + k) else -1

let maxcontig (fs : fs) = max 1 fs.sb.Superblock.maxcontig

let read (fs : fs) (ip : inode) ~lbn =
  fs.stats.bmap_calls <- fs.stats.bmap_calls + 1;
  let cap = maxcontig fs in
  let cached =
    if fs.feat.bmap_cache then
      match ip.bmap_cache with
      | Some (clbn, cfrag, clen) when lbn >= clbn && lbn < clbn + clen ->
          let d = lbn - clbn in
          Some (Some (cfrag + (d * Layout.fpb)), clen - d)
      | Some _ | None -> None
    else None
  in
  match cached with
  | Some r ->
      (* a cache hit skips the pointer walk: a few loads, not a lookup *)
      fs.stats.bmap_cache_hits <- fs.stats.bmap_cache_hits + 1;
      charge fs ~label:"bmap" (fs.costs.Costs.bmap / 8);
      r
  | None -> (
      charge fs ~label:"bmap" fs.costs.Costs.bmap;
      let get = lookup fs ip lbn in
      match get 0 with
      | -1 -> Vfs.Errno.raise_err Vfs.Errno.EFBIG "bmap: lbn out of range"
      | 0 ->
          (* hole: measure the run of consecutive holes *)
          let rec run k = if k < cap && get k = 0 then run (k + 1) else k in
          (None, run 1)
      | frag ->
          let rec run k =
            if k < cap && get k = frag + (k * Layout.fpb) then run (k + 1) else k
          in
          let len = run 1 in
          if fs.feat.bmap_cache then ip.bmap_cache <- Some (lbn, frag, len);
          (Some frag, len))

(* ---------- allocation ---------- *)

let invalidate_cache (ip : inode) = ip.bmap_cache <- None

(* Grow a fragment run in place or by moving it (copying live data
   through the disk, timed). *)
let grow_run fs (ip : inode) ~frag ~old_n ~want =
  if Alloc.extend_frags fs ip ~frag ~old_n ~new_n:want then frag
  else begin
    let newfrag =
      if want = Layout.fpb then
        Alloc.alloc_block fs ip ~pref:(Alloc.blkpref fs ip ~lbn:0 ~prev_frag:frag)
      else Alloc.alloc_frags fs ip ~pref:frag ~nfrags:want
    in
    (* move the old fragments' contents *)
    let buf = Bytes.create (old_n * Layout.fsize) in
    charge fs ~label:"realloc"
      (fs.costs.Costs.driver_submit + fs.costs.Costs.intr);
    Disk.Blkdev.read_sync fs.dev
      ~sector:(Layout.frag_to_sector frag)
      ~count:(old_n * Layout.sectors_per_frag)
      ~buf ~buf_off:0;
    Disk.Blkdev.write_sync fs.dev
      ~sector:(Layout.frag_to_sector newfrag)
      ~count:(old_n * Layout.sectors_per_frag)
      ~buf ~buf_off:0;
    Alloc.free_frags fs (Some ip) ~frag ~nfrags:old_n;
    newfrag
  end

(* Allocate the single- or double-indirect block(s) needed to address
   [lbn], returning the indirect block (frag) holding its pointer and
   the index within. *)
let ensure_indirect fs (ip : inode) lbn =
  match Layout.classify lbn with
  | Layout.Direct _ -> invalid_arg "ensure_indirect: direct block"
  | Layout.Single i ->
      if ip.ib.(0) = 0 then begin
        let f =
          Alloc.alloc_block fs ip ~pref:(Alloc.blkpref fs ip ~lbn ~prev_frag:0)
        in
        ignore (Metabuf.zero fs.metabuf ~frag:f);
        Wal.log_ind_zero fs ~frag:f;
        Wal.mark_meta fs ~frag:f;
        ip.ib.(0) <- f;
        ip.meta_dirty <- true
      end;
      (ip.ib.(0), i)
  | Layout.Double (i, j) ->
      if ip.ib.(1) = 0 then begin
        let f =
          Alloc.alloc_block fs ip ~pref:(Alloc.blkpref fs ip ~lbn ~prev_frag:0)
        in
        ignore (Metabuf.zero fs.metabuf ~frag:f);
        Wal.log_ind_zero fs ~frag:f;
        Wal.mark_meta fs ~frag:f;
        ip.ib.(1) <- f;
        ip.meta_dirty <- true
      end;
      let l1 = ind_get fs ip.ib.(1) i in
      let l1 =
        if l1 <> 0 then l1
        else begin
          let f =
            Alloc.alloc_block fs ip
              ~pref:(Alloc.blkpref fs ip ~lbn ~prev_frag:0)
          in
          ignore (Metabuf.zero fs.metabuf ~frag:f);
          Wal.log_ind_zero fs ~frag:f;
          Wal.mark_meta fs ~frag:f;
          ind_set fs ip.ib.(1) i f;
          f
        end
      in
      (l1, j)

let prev_frag_of fs ip lbn =
  if lbn = 0 then 0
  else
    match lookup fs ip (lbn - 1) 0 with -1 -> 0 | p -> p

(* Journalled mounts advance [ip.size] as soon as the allocation covers
   it: the inode image is encoded at op end, and an image claiming more
   fragments than its size justifies (or vice versa) is an fsck error.
   The data for the gap arrives immediately after (the caller is mid
   write); without a journal the size moves only after the copyin, as
   before. *)
let note_growth (fs : fs) (ip : inode) ~new_size =
  if Wal.journaled fs then begin
    Wal.note fs ip;
    if new_size > ip.size then begin
      ip.size <- new_size;
      ip.meta_dirty <- true
    end
  end

let ensure (fs : fs) (ip : inode) ~lbn ~new_size =
  if new_size < ip.size then invalid_arg "Bmap.ensure: shrinking";
  Wal.with_op fs ~commit:false @@ fun () ->
  charge fs ~label:"bmap" fs.costs.Costs.bmap;
  invalidate_cache ip;
  let want = block_frags ~lbn ~size:new_size in
  let finish f =
    note_growth fs ip ~new_size;
    f
  in
  match Layout.classify lbn with
  | Layout.Direct i ->
      let cur = ip.db.(i) in
      if cur = 0 then begin
        let pref =
          Alloc.blkpref fs ip ~lbn ~prev_frag:(prev_frag_of fs ip lbn)
        in
        let f =
          if want = Layout.fpb then Alloc.alloc_block fs ip ~pref
          else Alloc.alloc_frags fs ip ~pref ~nfrags:want
        in
        ip.db.(i) <- f;
        ip.meta_dirty <- true;
        finish f
      end
      else begin
        let old_n = block_frags ~lbn ~size:ip.size in
        if want > old_n then begin
          let f = grow_run fs ip ~frag:cur ~old_n ~want in
          ip.db.(i) <- f;
          ip.meta_dirty <- true;
          finish f
        end
        else finish cur
      end
  | Layout.Single _ | Layout.Double _ ->
      let ind, idx = ensure_indirect fs ip lbn in
      let cur = ind_get fs ind idx in
      if cur <> 0 then finish cur
      else begin
        let pref =
          Alloc.blkpref fs ip ~lbn ~prev_frag:(prev_frag_of fs ip lbn)
        in
        let f = Alloc.alloc_block fs ip ~pref in
        ind_set fs ind idx f;
        finish f
      end

let grow_old_tail (fs : fs) (ip : inode) ~new_size =
  if ip.size > 0 then begin
    let tail_lbn = (ip.size - 1) / Layout.bsize in
    let old_n = block_frags ~lbn:tail_lbn ~size:ip.size in
    if old_n < Layout.fpb then begin
      (* under new_size, how many frags does that same block need? *)
      let want = block_frags ~lbn:tail_lbn ~size:new_size in
      if want > old_n then
        Wal.with_op fs ~commit:false (fun () ->
            match Layout.classify tail_lbn with
            | Layout.Direct i ->
                let f = grow_run fs ip ~frag:ip.db.(i) ~old_n ~want in
                ip.db.(i) <- f;
                ip.meta_dirty <- true;
                invalidate_cache ip;
                note_growth fs ip ~new_size
            | Layout.Single _ | Layout.Double _ ->
                (* fragged tails only exist in the direct range *)
                assert false)
    end
  end

(* ---------- walking ---------- *)

type chunk =
  | Data of { lbn : int; frag : int; nfrags : int }
  | Indirect of { frag : int }

let iter_allocated (fs : fs) (ip : inode) f =
  let size = ip.size in
  let emit_data lbn frag =
    if frag <> 0 then
      f (Data { lbn; frag; nfrags = block_frags ~lbn ~size })
  in
  for i = 0 to Layout.ndaddr - 1 do
    emit_data i ip.db.(i)
  done;
  if ip.ib.(0) <> 0 then begin
    f (Indirect { frag = ip.ib.(0) });
    for i = 0 to Layout.nindir - 1 do
      emit_data (Layout.ndaddr + i) (ind_get fs ip.ib.(0) i)
    done
  end;
  if ip.ib.(1) <> 0 then begin
    f (Indirect { frag = ip.ib.(1) });
    for i = 0 to Layout.nindir - 1 do
      let l1 = ind_get fs ip.ib.(1) i in
      if l1 <> 0 then begin
        f (Indirect { frag = l1 });
        for j = 0 to Layout.nindir - 1 do
          emit_data
            (Layout.ndaddr + Layout.nindir + (i * Layout.nindir) + j)
            (ind_get fs l1 j)
        done
      end
    done
  end

let extent_map (fs : fs) (ip : inode) =
  let nblocks = Layout.blocks_of_size ip.size in
  let extents = ref [] in
  let cur = ref None in
  for lbn = 0 to nblocks - 1 do
    let p = match lookup fs ip lbn 0 with -1 -> 0 | p -> p in
    match (!cur, p) with
    | None, 0 -> ()
    | None, p -> cur := Some (lbn, p, 1)
    | Some (slbn, sfrag, n), p ->
        if p <> 0 && p = sfrag + (n * Layout.fpb) then
          cur := Some (slbn, sfrag, n + 1)
        else begin
          extents := (slbn, sfrag, n) :: !extents;
          cur := if p = 0 then None else Some (lbn, p, 1)
        end
  done;
  (match !cur with Some e -> extents := e :: !extents | None -> ());
  List.rev !extents
