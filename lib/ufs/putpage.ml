open Types

let lookup_page fs ip off = Vm.Pool.lookup fs.pool (Io.ident ip off)

let pushable (p : Vm.Page.t) =
  p.Vm.Page.valid && p.Vm.Page.dirty && not p.Vm.Page.busy

(* Push every dirty page in [off, off+len), cutting the range into
   physically contiguous chunks per bmap (the figure-8 while loop). *)
let push_range fs (ip : inode) ~off ~len ~free_after ~throttle ?(ordered = false) () =
  (* journalled: while an operation is mutating this inode its dirty
     pages must not reach the disk (their log records are not durable
     yet); op end pushes what it deferred *)
  if Wal.inode_active fs ip.inum then ()
  else
  let endoff = min (off + len) (((ip.size + Layout.bsize - 1) / Layout.bsize) * Layout.bsize) in
  let rec loop off =
    if off < endoff then begin
      match lookup_page fs ip off with
      | Some p when pushable p ->
          let lbn = off / Layout.bsize in
          let frag_opt, contig = Bmap.read fs ip ~lbn in
          (match frag_opt with
          | None ->
              (* a dirty page must have backing store: the write path
                 allocates before dirtying *)
              assert false
          | Some frag ->
              let max_blocks = min contig ((endoff - off) / Layout.bsize) in
              let max_blocks = max 1 max_blocks in
              (* re-collect after the (possibly sleeping) bmap call *)
              let rec collect k acc =
                if k = max_blocks then List.rev acc
                else
                  match lookup_page fs ip (off + (k * Layout.bsize)) with
                  | Some p when pushable p -> collect (k + 1) (p :: acc)
                  | Some _ | None -> List.rev acc
              in
              (match collect 0 [] with
              | [] -> loop (off + Layout.bsize)
              | pages ->
                  Io.push_pages fs.pager ip.writes pages
                    ~sector:(Layout.frag_to_sector frag)
                    ~bytes:(Io.extent_bytes ip ~off ~blocks:(List.length pages))
                    ~sync:false ~free_after ~throttle ~locked:false ~ordered ();
                  loop (off + (List.length pages * Layout.bsize))))
      | Some _ | None -> loop (off + Layout.bsize)
    end
  in
  loop off

(* Free clean, unreferenced-by-I/O pages in the range (free-behind on
   already-clean data). *)
let free_clean_range fs (ip : inode) ~off ~len =
  let endoff = off + len in
  let rec loop off =
    if off < endoff then begin
      (match lookup_page fs ip off with
      | Some p when p.Vm.Page.valid && (not p.Vm.Page.dirty) && not p.Vm.Page.busy
        ->
          if Vm.Page.try_lock p then Vm.Pool.free_page fs.pool p
      | Some _ | None -> ());
      loop (off + Layout.bsize)
    end
  in
  loop off

(* How UFS pushes its delayed-write run; an ordered push is unthrottled *)
let push_run fs ip ~off ~len =
  push_range fs ip ~off ~len ~free_after:false ~throttle:true ()

let push_run_ordered fs ip ~off ~len =
  push_range fs ip ~off ~len ~free_after:false ~throttle:false ~ordered:true ()

let push_delayed fs (ip : inode) ~sync ?(ordered = false) () =
  Wrun.flush ip.run (if ordered then push_run_ordered else push_run) fs ip;
  if sync then Io.wait_writes fs.pager ip.writes

(* The figure 7/8 delayed-write run. *)
let delay fs (ip : inode) ~off ~free_after =
  fs.stats.delayed_pages <- fs.stats.delayed_pages + 1;
  Wrun.add ip.run ~off ~cap:(cluster_bytes fs) push_run fs ip;
  if free_after then free_clean_range fs ip ~off ~len:Layout.bsize

let putpage_body fs (ip : inode) ~off ~len ~flags =
  fs.stats.putpage_calls <- fs.stats.putpage_calls + 1;
  charge fs ~label:"putpage" fs.costs.Costs.putpage;
  let has f = List.mem f flags in
  let free_after = has Vfs.Vnode.P_FREE in
  if has Vfs.Vnode.P_DELAY then begin
    if fs.feat.clustering then delay fs ip ~off ~free_after
    else begin
      (* SunOS 4.1: start the asynchronous block write immediately *)
      push_range fs ip ~off ~len:Layout.bsize ~free_after ~throttle:true ();
      if free_after then free_clean_range fs ip ~off ~len:Layout.bsize
    end
  end
  else begin
    let len =
      if len = 0 then
        max 0 ((Layout.blocks_of_size ip.size * Layout.bsize) - off)
      else len
    in
    let ordered = has Vfs.Vnode.P_ORDER in
    (* a range operation covers any pages sitting in the run *)
    push_delayed fs ip ~sync:false ~ordered ();
    (* ordered metadata writes are kernel-initiated: they bypass the
       per-file fairness limit (their volume is bounded by the number of
       metadata blocks, not by user data) *)
    push_range fs ip ~off ~len ~free_after ~throttle:(not ordered) ~ordered ();
    if free_after then free_clean_range fs ip ~off ~len;
    if has Vfs.Vnode.P_SYNC then Io.wait_writes fs.pager ip.writes
  end

let putpage fs (ip : inode) ~off ~len ~flags =
  if not (Sim.Span.enabled ()) then putpage_body fs ip ~off ~len ~flags
  else
    Sim.Span.span ~name:"ufs.putpage"
      ~attrs:[ ("off", Sim.Span.I off); ("len", Sim.Span.I len) ]
      (fun () -> putpage_body fs ip ~off ~len ~flags)

let flusher fs (ip : inode) : Vm.Pool.flusher =
 fun page ~free_after ->
  match page.Vm.Page.ident with
  | None -> invalid_arg "Ufs flusher: free page"
  | Some _ when Wal.inode_active fs ip.inum ->
      (* an open journalled op owns this inode; pageout must not write
         its pages before the op's records commit *)
      Vm.Page.unbusy page;
      0
  | Some id ->
      let off = id.Vm.Page.off in
      charge fs ~label:"pageout" fs.costs.Costs.putpage;
      let lbn = off / Layout.bsize in
      let frag_opt, contig = Bmap.read fs ip ~lbn in
      (match frag_opt with
      | None -> assert false (* dirty pages always have backing store *)
      | Some frag ->
          (* kluster: sweep the physically contiguous dirty run behind
             the target page into the same write, like the sync path's
             push_range does — one seek then serves the whole run.  Only
             idle (unreferenced) neighbours come along: the back hand
             would have flushed them one revolution later anyway, each
             with its own seek *)
          let max_blocks =
            min contig (max 1 (cluster_bytes fs / Layout.bsize))
          in
          let rec collect k acc =
            if k >= max_blocks then List.rev acc
            else
              match lookup_page fs ip (off + (k * Layout.bsize)) with
              | Some p
                when pushable p
                     && (not p.Vm.Page.referenced)
                     && Vm.Page.try_lock p ->
                  collect (k + 1) (p :: acc)
              | _ -> List.rev acc
          in
          let pages = page :: collect 1 [] in
          Io.push_pages fs.pager ip.writes pages
            ~sector:(Layout.frag_to_sector frag)
            ~bytes:(Io.extent_bytes ip ~off ~blocks:(List.length pages))
            ~sync:false ~free_after ~throttle:false ~locked:true ();
          List.length pages)
