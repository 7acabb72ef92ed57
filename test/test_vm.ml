(* Tests for the VM substrate: paging parameters, page flags, the
   unified page pool, and the two-handed-clock pageout daemon. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let small_param =
  {
    Vm.Param.physmem_pages = 32;
    pagesize = 8192;
    lotsfree = 8;
    desfree = 4;
    minfree = 2;
    handspread = 8;
    slowscan = 100;
    fastscan = 1000;
  }

let with_pool ?(param = small_param) f =
  let e = Sim.Engine.create () in
  let pool = Vm.Pool.create e param in
  let result = ref None in
  Sim.Engine.spawn e (fun () -> result := Some (f e pool));
  Sim.Engine.run e;
  match !result with Some r -> r | None -> Alcotest.fail "pool test hung"

(* ---------- Param ---------- *)

let test_param_validation () =
  Vm.Param.validate small_param;
  Vm.Param.validate (Vm.Param.default ());
  let bad field =
    Alcotest.check_raises "invalid params" (Invalid_argument field) (fun () ->
        Vm.Param.validate
          (match field with
          | "Param: pagesize must be a positive power of two" ->
              { small_param with Vm.Param.pagesize = 3000 }
          | "Param: need 0 < minfree <= desfree <= lotsfree" ->
              { small_param with Vm.Param.minfree = 100 }
          | "Param: handspread" -> { small_param with Vm.Param.handspread = 0 }
          | _ -> assert false))
  in
  bad "Param: pagesize must be a positive power of two";
  bad "Param: need 0 < minfree <= desfree <= lotsfree";
  bad "Param: handspread"

let test_param_default_scales () =
  let p8 = Vm.Param.default ~memory_mb:8 () in
  check_int "8MB = 1024 frames" 1024 p8.Vm.Param.physmem_pages;
  let p64 = Vm.Param.default ~memory_mb:64 () in
  check_bool "lotsfree scales" true
    (p64.Vm.Param.lotsfree > p8.Vm.Param.lotsfree)

(* ---------- Page ---------- *)

let test_page_lock_protocol () =
  let e = Sim.Engine.create () in
  let p = Vm.Page.make ~frameno:0 ~pagesize:512 in
  let order = ref [] in
  Sim.Engine.spawn e (fun () ->
      Vm.Page.lock e p;
      order := `A_locked :: !order;
      Sim.Engine.sleep e 10;
      Vm.Page.unbusy p;
      order := `A_released :: !order);
  Sim.Engine.spawn e (fun () ->
      Vm.Page.lock e p;
      order := `B_locked :: !order;
      Vm.Page.unbusy p);
  Sim.Engine.run e;
  check_bool "lock ordering" true
    (List.rev !order = [ `A_locked; `A_released; `B_locked ])

let test_page_wait_unbusy () =
  let e = Sim.Engine.create () in
  let p = Vm.Page.make ~frameno:0 ~pagesize:512 in
  assert (Vm.Page.try_lock p);
  let waited = ref false in
  Sim.Engine.spawn e (fun () ->
      Vm.Page.wait_unbusy e p;
      waited := true);
  Sim.Engine.run e;
  check_bool "still waiting" false !waited;
  Vm.Page.unbusy p;
  Sim.Engine.run e;
  check_bool "woken" true !waited;
  check_bool "wait does not acquire" false p.Vm.Page.busy

(* ---------- Pool ---------- *)

let ident vid off = { Vm.Page.vid; off }

let test_pool_alloc_lookup_free () =
  with_pool (fun _e pool ->
      check_int "all free" 32 (Vm.Pool.freecnt pool);
      let p =
        match Vm.Pool.alloc pool (ident 1 0) with
        | `Fresh p -> p
        | `Existing _ -> Alcotest.fail "should be fresh"
      in
      check_int "one taken" 31 (Vm.Pool.freecnt pool);
      check_bool "fresh page busy" true p.Vm.Page.busy;
      Vm.Page.unbusy p;
      (match Vm.Pool.lookup pool (ident 1 0) with
      | Some q -> check_int "same frame" p.Vm.Page.frameno q.Vm.Page.frameno
      | None -> Alcotest.fail "lookup failed");
      check_bool "lookup sets ref bit" true p.Vm.Page.referenced;
      Vm.Page.lock _e p;
      Vm.Pool.free_page pool p;
      check_int "back to free" 32 (Vm.Pool.freecnt pool);
      check_bool "gone from cache" true (Vm.Pool.lookup pool (ident 1 0) = None);
      let s = Vm.Pool.stats pool in
      check_int "alloc count" 1 s.Vm.Pool.allocs;
      check_int "free count" 1 s.Vm.Pool.frees)

let test_pool_double_alloc_rejected () =
  with_pool (fun _e pool ->
      (match Vm.Pool.alloc pool (ident 1 0) with
      | `Fresh p -> Vm.Page.unbusy p
      | `Existing _ -> Alcotest.fail "fresh");
      Alcotest.check_raises "already cached"
        (Invalid_argument "Pool.alloc: ident already cached") (fun () ->
          ignore (Vm.Pool.alloc pool (ident 1 0))))

let test_pool_vnode_index () =
  with_pool (fun _e pool ->
      List.iter
        (fun off ->
          match Vm.Pool.alloc pool (ident 7 off) with
          | `Fresh p -> Vm.Page.unbusy p
          | `Existing _ -> ())
        [ 16384; 0; 8192 ];
      (match Vm.Pool.alloc pool (ident 8 0) with
      | `Fresh p -> Vm.Page.unbusy p
      | `Existing _ -> ());
      let offs =
        List.filter_map
          (fun (p : Vm.Page.t) ->
            Option.map (fun (i : Vm.Page.ident) -> i.Vm.Page.off) p.Vm.Page.ident)
          (Vm.Pool.pages_of_vnode pool 7)
      in
      Alcotest.(check (list int)) "sorted by offset" [ 0; 8192; 16384 ] offs;
      Vm.Pool.invalidate_vnode pool 7;
      check_int "invalidated" 0 (List.length (Vm.Pool.pages_of_vnode pool 7));
      check_int "other vnode untouched" 1
        (List.length (Vm.Pool.pages_of_vnode pool 8)))

(* The pool against an association-list reference that also models the
   free-frame queue, so every frame number is predicted: alloc takes the
   queue head, a free appends, invalidate_vnode frees in ascending
   offset, and invalidate_all walks the vnodes in the order a generic
   [Hashtbl] of them (filled in first-allocation order) folds — the
   order the pool's vnode table must keep. *)
type pool_op =
  | Alloc of int * int
  | Lookup of int * int
  | Free of int * int
  | Pages_of of int
  | Inval of int
  | Inval_all

let gen_pool_op =
  let open QCheck.Gen in
  let vid = int_bound 5 in
  let off =
    (* page offsets, and now and then an unaligned one *)
    int_bound 9 >>= fun k ->
    frequency [ (5, return 0); (1, int_range 1 8191) ] >|= fun j -> (k * 8192) + j
  in
  frequency
    [
      (8, map2 (fun v o -> Alloc (v, o)) vid off);
      (4, map2 (fun v o -> Lookup (v, o)) vid off);
      (3, map2 (fun v o -> Free (v, o)) vid off);
      (2, map (fun v -> Pages_of v) vid);
      (1, map (fun v -> Inval v) vid);
      (1, return Inval_all);
    ]

let prop_pool_matches_reference =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 22 |])
    (QCheck.Test.make ~count:300 ~name:"pool vs assoc-list reference"
       (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_range 1 80) gen_pool_op))
       (fun ops ->
         with_pool (fun e pool ->
             let cached = ref [] (* ((vid, off), frameno) *) in
             let free = Queue.create () in
             for i = 0 to small_param.Vm.Param.physmem_pages - 1 do
               Queue.push i free
             done;
             let vids = Hashtbl.create 64 in
             let ok = ref true in
             let expect b = if not b then ok := false in
             let offs_of vid =
               List.filter_map
                 (fun ((v, o), _) -> if v = vid then Some o else None)
                 !cached
               |> List.sort compare
             in
             let drop vid off =
               let f = List.assoc (vid, off) !cached in
               cached := List.remove_assoc (vid, off) !cached;
               Queue.push f free
             in
             let pool_offs vid =
               List.map
                 (fun (p : Vm.Page.t) ->
                   match p.Vm.Page.ident with Some i -> i.Vm.Page.off | None -> -1)
                 (Vm.Pool.pages_of_vnode pool vid)
             in
             List.iter
               (function
                 | Alloc (vid, off) ->
                     if List.mem_assoc (vid, off) !cached then
                       expect
                         (match Vm.Pool.alloc pool (ident vid off) with
                         | _ -> false
                         | exception Invalid_argument _ -> true)
                     else if not (Queue.is_empty free) then begin
                       match Vm.Pool.alloc pool (ident vid off) with
                       | `Fresh p ->
                           let f = Queue.pop free in
                           expect (p.Vm.Page.frameno = f);
                           Vm.Page.unbusy p;
                           cached := ((vid, off), f) :: !cached;
                           if not (Hashtbl.mem vids vid) then Hashtbl.add vids vid ()
                       | `Existing _ -> expect false
                     end
                 | Lookup (vid, off) ->
                     expect
                       (Option.map
                          (fun (p : Vm.Page.t) -> p.Vm.Page.frameno)
                          (Vm.Pool.lookup pool (ident vid off))
                       = List.assoc_opt (vid, off) !cached)
                 | Free (vid, off) -> (
                     match Vm.Pool.lookup pool (ident vid off) with
                     | Some p ->
                         Vm.Page.lock e p;
                         Vm.Pool.free_page pool p;
                         drop vid off
                     | None -> expect (not (List.mem_assoc (vid, off) !cached)))
                 | Pages_of vid -> expect (pool_offs vid = offs_of vid)
                 | Inval vid ->
                     Vm.Pool.invalidate_vnode pool vid;
                     List.iter (drop vid) (offs_of vid)
                 | Inval_all ->
                     Vm.Pool.invalidate_all pool;
                     Hashtbl.fold (fun vid () acc -> vid :: acc) vids []
                     |> List.iter (fun vid -> List.iter (drop vid) (offs_of vid)))
               ops;
             (* the free queue's order pins every free order above *)
             let rest = List.of_seq (Queue.to_seq free) in
             let counted = Vm.Pool.freecnt pool = List.length rest in
             let drained =
               List.mapi
                 (fun i _ ->
                   match Vm.Pool.alloc pool (ident 99 (i * 8192)) with
                   | `Fresh p -> p.Vm.Page.frameno
                   | `Existing _ -> -1)
                 rest
             in
             !ok && counted && drained = rest)))

(* invalidate_vnode walks a sorted snapshot and takes a fresh one only
   after waiting on a busy page.  Here the holder of that page adds a
   page below the rest of the snapshot while the invalidation waits: it
   must still be freed, in its ascending-offset turn.  The free order is
   read back from the free-frame queue, which it fixes. *)
let test_pool_invalidate_waits_busy_page () =
  with_pool (fun e pool ->
      let fresh vid off =
        match Vm.Pool.alloc pool (ident vid off) with
        | `Fresh p -> p
        | `Existing _ -> Alcotest.fail "should be fresh"
      in
      let frame_of = Hashtbl.create 8 in
      let add off =
        let p = fresh 7 off in
        Hashtbl.replace frame_of off p.Vm.Page.frameno;
        p
      in
      (* offsets 0, 8192, 32768 of vnode 7; fill all but one frame *)
      let pages = List.map add [ 0; 8192; 32768 ] in
      List.iter Vm.Page.unbusy pages;
      let busy = List.nth pages 1 in
      for i = 0 to 27 do
        Vm.Page.unbusy (fresh 9 (i * 8192))
      done;
      check_int "one frame left" 1 (Vm.Pool.freecnt pool);
      Sim.Engine.spawn e (fun () ->
          Vm.Page.lock e busy;
          Sim.Engine.sleep e 10;
          Vm.Page.unbusy (add 16384);
          Vm.Page.unbusy busy);
      Sim.Engine.sleep e 1;
      Vm.Pool.invalidate_vnode pool 7;
      check_int "every page freed" 0 (List.length (Vm.Pool.pages_of_vnode pool 7));
      let freed = List.init 4 (fun i -> (fresh 8 (i * 8192)).Vm.Page.frameno) in
      Alcotest.(check (list int)) "freed in ascending-offset order"
        (List.map (Hashtbl.find frame_of) [ 0; 8192; 16384; 32768 ])
        freed)

let test_pool_alloc_blocks_until_free () =
  with_pool (fun e pool ->
      (* exhaust memory *)
      let pages = ref [] in
      for i = 0 to 31 do
        match Vm.Pool.alloc pool (ident 1 (i * 8192)) with
        | `Fresh p ->
            Vm.Page.unbusy p;
            pages := p :: !pages
        | `Existing _ -> ()
      done;
      check_int "exhausted" 0 (Vm.Pool.freecnt pool);
      let got = ref false in
      Sim.Engine.spawn e (fun () ->
          match Vm.Pool.alloc pool (ident 2 0) with
          | `Fresh p ->
              got := true;
              Vm.Page.unbusy p
          | `Existing _ -> ());
      Sim.Engine.sleep e 10;
      check_bool "allocator sleeping" false !got;
      (* free one page: the sleeper must get it *)
      let victim = List.hd !pages in
      Vm.Page.lock e victim;
      Vm.Pool.free_page pool victim;
      Sim.Engine.sleep e 10;
      check_bool "allocator woken" true !got;
      check_int "alloc_waits recorded" 1 (Vm.Pool.stats pool).Vm.Pool.alloc_waits)

(* ---------- Pageout ---------- *)

(* The daemon scans for as long as the shortage persists, so drive the
   engine for a bounded slice of virtual time instead of to quiescence
   (a machine with un-flushable dirty pages never goes quiescent —
   which is itself the behaviour one of these tests asserts). *)
let with_daemon f =
  let e = Sim.Engine.create () in
  let pool = Vm.Pool.create e small_param in
  let cpu = Sim.Cpu.create e in
  let daemon = Vm.Pageout.start pool cpu in
  let result = ref None in
  Sim.Engine.spawn e (fun () -> result := Some (f e pool daemon));
  Sim.Engine.run_for e (Sim.Time.sec 30);
  match !result with Some r -> r | None -> Alcotest.fail "daemon test hung"

let fill_unreferenced pool n =
  for i = 0 to n - 1 do
    match Vm.Pool.alloc pool (ident 1 (i * 8192)) with
    | `Fresh p ->
        Vm.Page.set_valid p true;
        Vm.Page.set_referenced p false;
        Vm.Page.unbusy p
    | `Existing _ -> ()
  done

let test_pageout_frees_clean_pages () =
  with_daemon (fun e pool daemon ->
      fill_unreferenced pool 30;
      check_bool "below lotsfree" true (Vm.Pool.shortage pool > 0);
      (* let the daemon run a while *)
      Sim.Engine.sleep e (Sim.Time.sec 2);
      check_bool "daemon freed pages" true
        ((Vm.Pageout.stats daemon).Vm.Pageout.freed > 0);
      check_bool "shortage relieved" true (Vm.Pool.shortage pool = 0))

let test_pageout_respects_reference_bits () =
  (* a wide handspread and moderate scan rate, so a page touched between
     the front hand's clear and the back hand's visit survives — the
     touch period (30 ms) is well inside the hands' gap (16 frames at
     ~4 frames per 20 ms tick = ~80 ms) *)
  let param =
    { small_param with Vm.Param.handspread = 16; slowscan = 50; fastscan = 200 }
  in
  let e = Sim.Engine.create () in
  let pool = Vm.Pool.create e param in
  let cpu = Sim.Cpu.create e in
  let daemon = Vm.Pageout.start pool cpu in
  Sim.Engine.spawn e (fun () ->
      fill_unreferenced pool 30;
      (* keep touching the first 6 pages: they must survive *)
      for round = 1 to 60 do
        ignore round;
        for i = 0 to 5 do
          ignore (Vm.Pool.lookup pool (ident 1 (i * 8192)))
        done;
        Sim.Engine.sleep e (Sim.Time.ms 30)
      done;
      check_bool "daemon freed the cold pages" true
        ((Vm.Pageout.stats daemon).Vm.Pageout.freed > 0);
      for i = 0 to 5 do
        check_bool "hot page survived" true
          (Vm.Pool.lookup pool (ident 1 (i * 8192)) <> None)
      done);
  Sim.Engine.run_for e (Sim.Time.sec 30)

let test_pageout_flushes_dirty_via_flusher () =
  with_daemon (fun e pool daemon ->
      let flushed = ref [] in
      Vm.Pool.register_flusher pool 1 (fun p ~free_after ->
          (match p.Vm.Page.ident with
          | Some i -> flushed := i.Vm.Page.off :: !flushed
          | None -> ());
          Vm.Page.set_dirty p false;
          if free_after then Vm.Pool.free_page pool p else Vm.Page.unbusy p;
          1);
      for i = 0 to 29 do
        match Vm.Pool.alloc pool (ident 1 (i * 8192)) with
        | `Fresh p ->
            Vm.Page.set_valid p true;
            Vm.Page.set_dirty p true;
            Vm.Page.set_referenced p false;
            Vm.Page.unbusy p
        | `Existing _ -> ()
      done;
      Sim.Engine.sleep e (Sim.Time.sec 2);
      check_bool "dirty pages flushed" true (List.length !flushed > 0);
      check_bool "flush stat counted" true
        ((Vm.Pageout.stats daemon).Vm.Pageout.flushed > 0);
      check_bool "memory recovered" true (Vm.Pool.shortage pool = 0))

let test_pageout_skips_dirty_without_flusher () =
  with_daemon (fun e pool daemon ->
      for i = 0 to 29 do
        match Vm.Pool.alloc pool (ident 99 (i * 8192)) with
        | `Fresh p ->
            Vm.Page.set_valid p true;
            Vm.Page.set_dirty p true;
            Vm.Page.set_referenced p false;
            Vm.Page.unbusy p
        | `Existing _ -> ()
      done;
      Sim.Engine.sleep e (Sim.Time.sec 1);
      check_bool "skip counted" true
        ((Vm.Pageout.stats daemon).Vm.Pageout.skipped_no_flusher > 0);
      check_int "nothing freed (all dirty, no flusher)" 30
        (List.length (Vm.Pool.pages_of_vnode pool 99)))

let suites =
  [
    ( "vm",
      [
        Alcotest.test_case "param validation" `Quick test_param_validation;
        Alcotest.test_case "param default scales" `Quick
          test_param_default_scales;
        Alcotest.test_case "page lock protocol" `Quick test_page_lock_protocol;
        Alcotest.test_case "page wait_unbusy" `Quick test_page_wait_unbusy;
        Alcotest.test_case "pool alloc/lookup/free" `Quick
          test_pool_alloc_lookup_free;
        Alcotest.test_case "pool double alloc" `Quick
          test_pool_double_alloc_rejected;
        Alcotest.test_case "pool vnode index" `Quick test_pool_vnode_index;
        prop_pool_matches_reference;
        Alcotest.test_case "pool invalidate waits busy page" `Quick
          test_pool_invalidate_waits_busy_page;
        Alcotest.test_case "pool alloc blocks" `Quick
          test_pool_alloc_blocks_until_free;
        Alcotest.test_case "pageout frees clean" `Quick
          test_pageout_frees_clean_pages;
        Alcotest.test_case "pageout reference bits" `Quick
          test_pageout_respects_reference_bits;
        Alcotest.test_case "pageout flushes dirty" `Quick
          test_pageout_flushes_dirty_via_flusher;
        Alcotest.test_case "pageout skips no-flusher" `Quick
          test_pageout_skips_dirty_without_flusher;
      ] );
  ]

(* ---------- Seg: address spaces (the paper's figure 1) ---------- *)

let mk_backed_mapping e pool asp ~vid ~len =
  Vm.Seg.map asp ~len ~pagesize:8192
    ~fault:(fun ~off ->
      match Vm.Pool.lookup pool (ident vid off) with
      | Some p -> p
      | None -> (
          match Vm.Pool.alloc pool (ident vid off) with
          | `Fresh p ->
              Vm.Page.set_valid p true;
              Vm.Page.unbusy p;
              p
          | `Existing p -> p))
    ()
  |> fun m ->
  ignore e;
  m

let test_seg_figure1 () =
  (* figure 1: an address space of two file mappings (a.out + libc.so) *)
  with_pool (fun e pool ->
      let asp = Vm.Seg.create e in
      let a_out = mk_backed_mapping e pool asp ~vid:10 ~len:(3 * 8192) in
      let libc = mk_backed_mapping e pool asp ~vid:11 ~len:(2 * 8192) in
      check_bool "mappings do not overlap" true
        (Vm.Seg.base libc >= Vm.Seg.base a_out + Vm.Seg.length a_out);
      check_int "two mappings" 2 (List.length (Vm.Seg.mappings asp));
      (* faults resolve to the right backing object *)
      let p = Vm.Seg.fault asp (Vm.Seg.base a_out + 8192) in
      (match p.Vm.Page.ident with
      | Some i ->
          check_int "a.out vnode" 10 i.Vm.Page.vid;
          check_int "offset within mapping" 8192 i.Vm.Page.off
      | None -> Alcotest.fail "page has no identity");
      let q = Vm.Seg.fault asp (Vm.Seg.base libc + 100) in
      (match q.Vm.Page.ident with
      | Some i -> check_int "libc vnode" 11 i.Vm.Page.vid
      | None -> Alcotest.fail "page has no identity");
      (* translations stick: a second touch is not a fault *)
      let f0 = Vm.Seg.faults asp in
      ignore (Vm.Seg.fault asp (Vm.Seg.base a_out + 8192));
      check_int "no second fault" f0 (Vm.Seg.faults asp);
      check_bool "translated" true (Vm.Seg.translated asp (Vm.Seg.base a_out + 8192));
      (* MMU flush forces a refault *)
      Vm.Seg.invalidate asp a_out;
      check_bool "flushed" false (Vm.Seg.translated asp (Vm.Seg.base a_out + 8192));
      ignore (Vm.Seg.fault asp (Vm.Seg.base a_out + 8192));
      check_int "refaulted" (f0 + 1) (Vm.Seg.faults asp))

let test_seg_errors () =
  with_pool (fun e pool ->
      let asp = Vm.Seg.create e in
      let m = mk_backed_mapping e pool asp ~vid:12 ~len:8192 in
      check_bool "segv on unmapped address" true
        (match Vm.Seg.fault asp 0 with
        | exception Not_found -> true
        | _ -> false);
      Alcotest.check_raises "overlap rejected"
        (Invalid_argument "Seg.map: overlapping mapping") (fun () ->
          ignore
            (Vm.Seg.map asp ~addr:(Vm.Seg.base m) ~len:8192 ~pagesize:8192
               ~fault:(fun ~off:_ -> assert false)
               ()));
      Vm.Seg.unmap asp m;
      check_bool "fault after unmap is segv" true
        (match Vm.Seg.fault asp (Vm.Seg.base m) with
        | exception Not_found -> true
        | _ -> false);
      Alcotest.check_raises "double unmap"
        (Invalid_argument "Seg.unmap: unknown mapping") (fun () ->
          Vm.Seg.unmap asp m))

let test_seg_freed_page_refaults () =
  (* the soft TLB must not return a page whose frame was reclaimed *)
  with_pool (fun e pool ->
      let asp = Vm.Seg.create e in
      let m = mk_backed_mapping e pool asp ~vid:13 ~len:8192 in
      let p = Vm.Seg.fault asp (Vm.Seg.base m) in
      Vm.Page.lock e p;
      Vm.Pool.free_page pool p;
      check_bool "translation dropped with the frame" false
        (Vm.Seg.translated asp (Vm.Seg.base m));
      let p2 = Vm.Seg.fault asp (Vm.Seg.base m) in
      check_bool "refault produced a live page" true
        (p2.Vm.Page.ident <> None))

let seg_suite =
  [
    Alcotest.test_case "seg figure 1" `Quick test_seg_figure1;
    Alcotest.test_case "seg errors" `Quick test_seg_errors;
    Alcotest.test_case "seg freed page refaults" `Quick
      test_seg_freed_page_refaults;
  ]

let suites =
  match suites with
  | [ (name, cases) ] -> [ (name, cases @ seg_suite) ]
  | other -> other
