open Types

let has_holes (ip : inode) =
  ip.blocks * Layout.fsize < ip.size
  && ip.blocks < Layout.frags_of_bytes ip.size

let file_blocks (ip : inode) = Layout.blocks_of_size ip.size

(* Cap a cluster so it never runs past EOF. *)
let cap_blocks ip ~lbn blocks = min blocks (max 0 (file_blocks ip - lbn))

(* This stream's cluster size in blocks, after the adaptive cap. *)
let cbs_blocks fs (w : Rstream.window) =
  max 1 (min w.Rstream.cbs (cluster_bytes fs) / Layout.bsize)

(* Feedback sizing, consulted when a window's frontier fires: shrink on
   fresh wasted prefetches, grow back toward the file system's cluster
   size on clean ones.  Inert while nothing is ever wasted. *)
let adapt fs (w : Rstream.window) =
  let wasted = (Vm.Pool.stats fs.pool).Vm.Pool.prefetch_wasted in
  if w.waste_mark < 0 then w.waste_mark <- wasted
  else if wasted > w.waste_mark then begin
    w.cbs <- max Layout.bsize (min w.cbs (cluster_bytes fs) / 2);
    w.waste_mark <- wasted;
    fs.stats.ra_shrinks <- fs.stats.ra_shrinks + 1
  end
  else if w.cbs < cluster_bytes fs then
    w.cbs <- min (cluster_bytes fs) (w.cbs * 2)

(* Page in [blocks] logical blocks at [lbn]; holes zero-fill.  The bmap
   result for [lbn] is supplied by the caller. *)
let read_extent fs ip ~lbn ~frag_opt ~blocks ~sync ~read_ahead =
  let off = lbn * Layout.bsize in
  match frag_opt with
  | None -> Io.zero_fill fs ip ~off ~blocks
  | Some frag ->
      Io.page_in fs.pager ~vid:ip.inum ~off
        ~sector:(Layout.frag_to_sector frag)
        ~bytes:(Io.extent_bytes ip ~off ~blocks)
        ~sync ~read_ahead

(* Prefetch the cluster starting at block [lbn] (clustered mode),
   bounded by the requesting stream's adaptive cluster size. *)
let prefetch_cluster fs ip ~lbn ~max_blocks =
  let blocks = cap_blocks ip ~lbn 1 in
  if blocks > 0 then begin
    let frag_opt, len = Bmap.read fs ip ~lbn in
    let blocks = cap_blocks ip ~lbn (min len max_blocks) in
    if blocks > 0 then
      read_extent fs ip ~lbn ~frag_opt ~blocks ~sync:false ~read_ahead:true;
    max blocks 1
  end
  else 0

(* One-block read-ahead (classic mode). *)
let prefetch_block fs ip ~lbn =
  if cap_blocks ip ~lbn 1 > 0 then begin
    let id = Io.ident ip (lbn * Layout.bsize) in
    if Vm.Pool.lookup fs.pool id = None then begin
      let frag_opt, _ = Bmap.read fs ip ~lbn in
      read_extent fs ip ~lbn ~frag_opt ~blocks:1 ~sync:false ~read_ahead:true
    end
  end

(* The per-page body: find or page in the page at byte offset [po], then
   run the read-ahead heuristic. *)
let rec handle_page fs (ip : inode) ~po ~hint =
  charge fs ~label:"getpage" fs.costs.Costs.pagecache_lookup;
  let lbn = po / Layout.bsize in
  let w = Rstream.find ip.rs ~po ~off:po in
  let sequential = w <> None in
  match Vm.Pool.lookup fs.pool (Io.ident ip po) with
  | Some p when p.Vm.Page.busy ->
      (* in transit (read-ahead or pageout): wait and retry *)
      Vm.Page.wait_unbusy fs.engine p;
      handle_page fs ip ~po ~hint
  | Some p when p.Vm.Page.valid ->
      fs.stats.getpage_hits <- fs.stats.getpage_hits + 1;
      Io.consume_prefetch fs.stats p;
      (* figure 2: bmap is consulted even on a hit, to learn whether the
         page has backing store — unless the UFS_HOLE fast path applies *)
      if not (fs.feat.skip_bmap_if_no_holes && not (has_holes ip)) then
        ignore (Bmap.read fs ip ~lbn);
      after_access fs ip ~po ~w;
      p
  | Some _ | None ->
      let frag_opt, len = Bmap.read fs ip ~lbn in
      let hint_blocks =
        if fs.feat.getpage_hint then hint / Layout.bsize else 0
      in
      let blocks =
        if fs.feat.clustering && sequential then
          let cap = match w with Some w -> cbs_blocks fs w | None -> len in
          cap_blocks ip ~lbn (min len cap)
        else if hint_blocks > 1 then
          (* "random clustering": a large request is its own evidence of
             locality — read min(bmap length, request size) at once *)
          cap_blocks ip ~lbn (min len hint_blocks)
        else cap_blocks ip ~lbn 1
      in
      let blocks = max blocks 1 in
      read_extent fs ip ~lbn ~frag_opt ~blocks ~sync:true ~read_ahead:false;
      after_access fs ip ~po ~w;
      (* the page is now valid (or another process raced us in) *)
      find_ready fs ip ~po ~hint

(* After a synchronous page-in: fetch the page without re-running the
   heuristics (they already ran for this access). *)
and find_ready fs ip ~po ~hint =
  match Vm.Pool.lookup fs.pool (Io.ident ip po) with
  | Some p when p.Vm.Page.busy ->
      Vm.Page.wait_unbusy fs.engine p;
      find_ready fs ip ~po ~hint
  | Some p when p.Vm.Page.valid ->
      Io.consume_prefetch fs.stats p;
      p
  | Some _ | None ->
      (* freed or never entered (raced); start over *)
      handle_page fs ip ~po ~hint

and after_access fs (ip : inode) ~po ~w =
  let sequential = w <> None in
  (* window bookkeeping first: a stream's second hit may boot its
     read-ahead frontier at [po], which the frontier test below then
     sees *)
  (match w with
  | Some w ->
      fs.stats.ra_stream_hits <- fs.stats.ra_stream_hits + 1;
      Rstream.touch ip.rs w ~po
  | None -> (
      match Rstream.note_miss ip.rs ~po with
      | Rstream.Opened _ -> fs.stats.ra_streams <- fs.stats.ra_streams + 1
      | Rstream.Reaccess | Rstream.Repointed _ -> ()));
  if fs.feat.clustering then begin
    (* figure 6: when the access reaches a stream's read-ahead frontier
       (the start of its last prefetched cluster), prefetch the cluster
       after it *)
    match Rstream.find_ra ip.rs ~po with
    | Some rw ->
        adapt fs rw;
        let lbn = po / Layout.bsize in
        let cur_len =
          let _, len = Bmap.read fs ip ~lbn in
          max 1 (cap_blocks ip ~lbn (min len (cbs_blocks fs rw)))
        in
        let next_lbn = lbn + cur_len in
        if cap_blocks ip ~lbn:next_lbn 1 > 0 then begin
          ignore
            (prefetch_cluster fs ip ~lbn:next_lbn
               ~max_blocks:(cbs_blocks fs rw));
          rw.ra_off <- next_lbn * Layout.bsize
        end
    | None -> ()
  end
  else if sequential then
    (* figure 3: one page ahead *)
    prefetch_block fs ip ~lbn:((po / Layout.bsize) + 1)

and getpage fs ip ~off ~len ~hint =
  if not (Sim.Span.enabled ()) then getpage_body fs ip ~off ~len ~hint
  else
    Sim.Span.span ~name:"ufs.getpage"
      ~attrs:[ ("off", Sim.Span.I off); ("len", Sim.Span.I len) ]
      (fun () -> getpage_body fs ip ~off ~len ~hint)

and getpage_body fs ip ~off ~len ~hint =
  if off mod Layout.bsize <> 0 then invalid_arg "Getpage: unaligned offset";
  fs.stats.getpage_calls <- fs.stats.getpage_calls + 1;
  charge fs ~label:"getpage" fs.costs.Costs.getpage;
  let npages = (len + Layout.bsize - 1) / Layout.bsize in
  let rec loop k acc =
    if k = npages then List.rev acc
    else
      let po = off + (k * Layout.bsize) in
      let p = handle_page fs ip ~po ~hint in
      loop (k + 1) (p :: acc)
  in
  loop 0 []
