type flusher = Page.t -> free_after:bool -> int

type stats = {
  mutable lookups : int;
  mutable hits : int;
  mutable allocs : int;
  mutable alloc_waits : int;
  mutable frees : int;
  mutable prefetch_wasted : int;
}

(* The name cache is one index, vnode -> offset -> page, of int-keyed
   tables.  [invalidate_all] walks the vnodes in table order, so that
   table keeps [Hashtbl.hash] and with it the bucket order of a generic
   table.  A vnode's pages are always walked sorted by offset, so their
   table may hash however is cheapest: a multiplicative mix, since page
   offsets share their low zero bits. *)
module Vids = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

module Offs = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash off = (off * 0x9E3779B97F4A7C1) lsr 32
end)

type t = {
  engine : Sim.Engine.t;
  param : Param.t;
  frames : Page.t array;
  by_vnode : Page.t Offs.t Vids.t;
  free : int Queue.t;  (** frame numbers *)
  memwait : Sim.Condition.t;
  need_pageout : Sim.Condition.t;
  flushers : (int, flusher) Hashtbl.t;
  stats : stats;
}

let create engine param =
  Param.validate param;
  let frames =
    Array.init param.Param.physmem_pages (fun i ->
        Page.make ~frameno:i ~pagesize:param.Param.pagesize)
  in
  let free = Queue.create () in
  Array.iter (fun (p : Page.t) -> Queue.push p.Page.frameno free) frames;
  {
    engine;
    param;
    frames;
    by_vnode = Vids.create 64;
    free;
    memwait = Sim.Condition.create engine "memwait";
    need_pageout = Sim.Condition.create engine "need-pageout";
    flushers = Hashtbl.create 64;
    stats =
      {
        lookups = 0;
        hits = 0;
        allocs = 0;
        alloc_waits = 0;
        frees = 0;
        prefetch_wasted = 0;
      };
  }

let engine t = t.engine
let param t = t.param
let freecnt t = Queue.length t.free
let shortage t = max 0 (t.param.Param.lotsfree - freecnt t)
let need_pageout t = t.need_pageout
let frames t = t.frames

let find t (ident : Page.ident) =
  match Vids.find t.by_vnode ident.vid with
  | tbl -> Offs.find_opt tbl ident.off
  | exception Not_found -> None

let mem t ident = match find t ident with Some _ -> true | None -> false

let lookup t ident =
  t.stats.lookups <- t.stats.lookups + 1;
  match find t ident with
  | Some p ->
      t.stats.hits <- t.stats.hits + 1;
      Page.set_referenced p true;
      Some p
  | None -> None

let vnode_tbl t vid =
  match Vids.find_opt t.by_vnode vid with
  | Some tbl -> tbl
  | None ->
      let tbl = Offs.create 64 in
      Vids.add t.by_vnode vid tbl;
      tbl

let alloc t ident =
  if mem t ident then invalid_arg "Pool.alloc: ident already cached";
  t.stats.allocs <- t.stats.allocs + 1;
  if freecnt t <= t.param.Param.lotsfree then
    Sim.Condition.signal t.need_pageout;
  let waited = ref false in
  while Queue.is_empty t.free && not (mem t ident) do
    waited := true;
    Sim.Condition.signal t.need_pageout;
    Sim.Condition.wait t.memwait
  done;
  if !waited then t.stats.alloc_waits <- t.stats.alloc_waits + 1;
  match find t ident with
  | Some p ->
      (* someone else entered it while we slept for memory *)
      Page.set_referenced p true;
      `Existing p
  | None ->
      let frameno = Queue.pop t.free in
      let p = t.frames.(frameno) in
      assert (p.Page.ident = None && not p.Page.lent);
      let ok = Page.try_lock p in
      assert ok;
      Page.set_ident p (Some ident);
      Page.set_valid p false;
      Page.set_dirty p false;
      Page.set_referenced p true;
      Offs.replace (vnode_tbl t ident.Page.vid) ident.Page.off p;
      `Fresh p

let free_page t (p : Page.t) =
  if not p.Page.busy then invalid_arg "Pool.free_page: caller must hold page";
  (match p.Page.ident with
  | Some ident -> (
      match Vids.find_opt t.by_vnode ident.Page.vid with
      | Some tbl -> Offs.remove tbl ident.Page.off
      | None -> ())
  | None -> invalid_arg "Pool.free_page: page already free");
  if p.Page.prefetched then
    t.stats.prefetch_wasted <- t.stats.prefetch_wasted + 1;
  Page.set_ident p None;
  Page.set_valid p false;
  Page.set_dirty p false;
  Page.set_referenced p false;
  Page.set_prefetched p false;
  (* the store or another host keeps a lent frame; a free page must not
     alias it *)
  Page.own_blank (Sim.Engine.frames t.engine) p;
  Queue.push p.Page.frameno t.free;
  t.stats.frees <- t.stats.frees + 1;
  Page.unbusy p;
  Sim.Condition.broadcast t.memwait

let pages_of_vnode t vid =
  match Vids.find_opt t.by_vnode vid with
  | None -> []
  | Some tbl ->
      Offs.fold (fun _ p acc -> p :: acc) tbl []
      |> List.sort (fun (a : Page.t) b ->
             match (a.Page.ident, b.Page.ident) with
             | Some ia, Some ib -> compare ia.Page.off ib.Page.off
             | _ -> 0)

let invalidate_vnode t vid =
  (* Free the pages in ascending-offset order, walking one sorted
     snapshot.  [Page.lock] yields only when the page is busy (it may be
     mid-I/O); until then no other process runs, so the snapshot stays
     exact.  After a wait, re-check that the page still belongs to the
     vnode (completion may already have freed it) and take a fresh
     snapshot, since the holder may have added or freed pages. *)
  let rec walk = function
    | [] -> ()
    | (p : Page.t) :: rest ->
        let waits = p.Page.busy in
        Page.lock t.engine p;
        (match p.Page.ident with
        | Some i when i.Page.vid = vid -> free_page t p
        | Some _ | None -> Page.unbusy p);
        walk (if waits then pages_of_vnode t vid else rest)
  in
  walk (pages_of_vnode t vid)

let invalidate_all t =
  (* server reboot: every cached page belongs to the pre-crash file
     system instance and must not survive into the recovered one *)
  let vids = Vids.fold (fun vid _ acc -> vid :: acc) t.by_vnode [] in
  List.iter (fun vid -> invalidate_vnode t vid) vids;
  Hashtbl.reset t.flushers

let register_flusher t vid f = Hashtbl.replace t.flushers vid f
let unregister_flusher t vid = Hashtbl.remove t.flushers vid
let flusher_for t vid = Hashtbl.find_opt t.flushers vid
let stats t = t.stats

let register_metrics t reg ~instance =
  Sim.Metrics.register reg ~layer:"vm.pool" ~instance (fun () ->
      let s = t.stats in
      Sim.Metrics.
        [
          ("lookups", Int s.lookups);
          ("hits", Int s.hits);
          ("allocs", Int s.allocs);
          ("alloc_waits", Int s.alloc_waits);
          ("frees", Int s.frees);
          ("prefetch_wasted_pages", Int s.prefetch_wasted);
          ("freecnt", Int (freecnt t));
          ("physmem_pages", Int t.param.Param.physmem_pages);
        ])
