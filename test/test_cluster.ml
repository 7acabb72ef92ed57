(* The paper's behaviour, replayed: read-ahead patterns of figures 3
   and 6, write clustering of figure 7, free-behind, write limits and
   the further-work features. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let bsize = Ufs.Layout.bsize

let mkfs_cluster3 =
  { Helpers.small_mkfs with Ufs.Fs.maxcontig = 3 }

let with_file ?(mkfs = mkfs_cluster3) ?features ?memory_mb ~blocks f =
  Helpers.in_machine ~mkfs ?features ?memory_mb (fun m ->
      let fs = m.Clusterfs.Machine.fs in
      let ip = Ufs.Fs.creat fs "/t" in
      let buf = Bytes.make bsize 'c' in
      for i = 0 to blocks - 1 do
        Ufs.Fs.write fs ip ~off:(i * bsize) ~buf ~len:bsize
      done;
      Ufs.Fs.fsync fs ip;
      (* cold cache, fresh predictor *)
      Vm.Pool.invalidate_vnode fs.Ufs.Types.pool ip.Ufs.Types.inum;
      Ufs.Types.reset_rstreams ip;
      Fun.protect
        ~finally:(fun () -> Ufs.Iops.iput fs ip)
        (fun () -> f m fs ip))

let read_blocks fs ip ~count =
  let buf = Bytes.create bsize in
  for i = 0 to count - 1 do
    ignore (Ufs.Fs.read fs ip ~off:(i * bsize) ~buf ~len:bsize)
  done

(* What the disk saw from now on: [reads ()] and [writes ()] are the
   requests that touched the data of "/t", in service order, each
   mapped back through the file's extent map to (first lbn, blocks).
   Requests outside the file (inodes, directories, bitmaps) are left
   out.  Whether a read was a blocking page-in or read-ahead, and how
   many pushes there were, the UFS counters tell: [counts ()] gives
   those that changed since the start, with their change. *)
let watch m fs =
  let log = Helpers.disk_log (Disk.Blkdev.members m.Clusterfs.Machine.dev) in
  let sectors_per_block = bsize / Ufs.Layout.sector_bytes in
  let ios kind () =
    let extents = Ufs.Fs.extent_map fs "/t" in
    List.filter_map
      (fun (_, (e : Disk.Device.event)) ->
        if e.Disk.Device.kind <> kind then None
        else
          let blocks =
            (e.Disk.Device.count + sectors_per_block - 1) / sectors_per_block
          in
          List.find_map
            (fun (lbn, frag, n) ->
              let first = Ufs.Layout.frag_to_sector frag in
              let k = (e.Disk.Device.sector - first) / sectors_per_block in
              if e.Disk.Device.sector >= first && k < n then
                Some (lbn + k, blocks)
              else None)
            extents)
      (log ())
  in
  let io_counts () =
    let s = fs.Ufs.Types.stats in
    Ufs.Types.
      [
        ("pgin_ios", s.pgin_ios);
        ("pgin_blocks", s.pgin_blocks);
        ("ra_ios", s.ra_ios);
        ("ra_blocks", s.ra_blocks);
        ("push_ios", s.push_ios);
        ("push_blocks", s.push_blocks);
      ]
  in
  let c0 = io_counts () in
  let counts () =
    List.filter
      (fun (_, n) -> n <> 0)
      (List.map2 (fun (k, a) (_, b) -> (k, b - a)) c0 (io_counts ()))
  in
  (ios Disk.Request.Read, ios Disk.Request.Write, counts)

let check_ios = Alcotest.(check (list (pair int int)))
let check_counts = Alcotest.(check (list (pair string int)))

(* ---------- figure 3: classic one-block read-ahead ---------- *)

let test_figure3_pattern () =
  with_file ~features:Ufs.Types.features_sunos41 ~blocks:6
    (fun m fs ip ->
      let reads, _, io_counts = watch m fs in
      read_blocks fs ip ~count:6;
      (* "the first fault will start an I/O read for page 0 and also
         start up an I/O read ahead on page 1.  The next fault will find
         page 1 in memory and will start up a read on page 2..." *)
      check_ios "figure 3 I/O pattern"
        [ (0, 1); (1, 1); (2, 1); (3, 1); (4, 1); (5, 1) ]
        (reads ());
      check_counts "one page-in, then read-ahead"
        [ ("pgin_ios", 1); ("pgin_blocks", 1); ("ra_ios", 5); ("ra_blocks", 5) ]
        (io_counts ()))

(* ---------- figure 6: clustered read-ahead ---------- *)

let test_figure6_pattern () =
  with_file ~blocks:12 (fun m fs ip ->
      let reads, _, io_counts = watch m fs in
      read_blocks fs ip ~count:12;
      (* maxcontig = 3: sync read of cluster [0,3), then async cluster
         reads of [3,6), [6,9), [9,12) each triggered at a cluster
         boundary fault *)
      check_ios "figure 6 I/O pattern"
        [ (0, 3); (3, 3); (6, 3); (9, 3) ]
        (reads ());
      check_counts "one cluster page-in, then cluster read-ahead"
        [ ("pgin_ios", 1); ("pgin_blocks", 3); ("ra_ios", 3); ("ra_blocks", 9) ]
        (io_counts ());
      (* the stream's read-ahead frontier advanced cluster by cluster *)
      let w = Option.get (Ufs.Rstream.mru ip.Ufs.Types.rs) in
      check_int "nextrio at last cluster" (9 * bsize) w.Ufs.Rstream.ra_off)

let test_figure6_respects_bmap_length () =
  (* a fragmented file: the allocator is forced to split the file, so
     clusters must shrink to what bmap returns — "the code that sets up
     the next read bases its calculations on the returned rather than
     desired cluster size" *)
  with_file ~blocks:0 (fun m fs ip ->
      let buf = Bytes.make bsize 'd' in
      (* allocate a blocker block right after each of the file's blocks
         so no two of them can be physically adjacent *)
      for i = 0 to 8 do
        Ufs.Fs.write fs ip ~off:(i * bsize) ~buf ~len:bsize;
        ignore (Ufs.Alloc.alloc_block fs ip ~pref:0)
      done;
      Ufs.Fs.fsync fs ip;
      Vm.Pool.invalidate_vnode fs.Ufs.Types.pool ip.Ufs.Types.inum;
      Ufs.Types.reset_rstreams ip;
      let reads, _, _ = watch m fs in
      read_blocks fs ip ~count:9;
      let reads = reads () in
      check_bool "single-block reads on a fragmented file" true
        (List.for_all (fun (_, blocks) -> blocks = 1) reads);
      check_bool "still reads everything" true
        (List.fold_left (fun a (_, b) -> a + b) 0 reads = 9))

(* ---------- figure 7: clustered writes ---------- *)

let test_figure7_pattern () =
  with_file ~blocks:0 (fun m fs ip ->
      let _, writes, io_counts = watch m fs in
      let delayed0 = fs.Ufs.Types.stats.Ufs.Types.delayed_pages in
      let buf = Bytes.make bsize 'w' in
      for i = 0 to 5 do
        Ufs.Fs.write fs ip ~off:(i * bsize) ~buf ~len:bsize
      done;
      Ufs.Fs.fsync fs ip;
      (* "lie, lie, push 0,1,2 | lie, lie, push 3,4,5" *)
      check_ios "figure 7 push pattern" [ (0, 3); (3, 3) ] (writes ());
      check_counts "two pushes" [ ("push_ios", 2); ("push_blocks", 6) ] (io_counts ());
      check_int "six delayed pages" 6
        (fs.Ufs.Types.stats.Ufs.Types.delayed_pages - delayed0));
  (* sub-block writes cluster too: a write to a block the run already
     holds leaves the run alone.  A 32-block file laid out
     in whole blocks is rewritten in 4 KB and then in 1 KB writes under
     8-block clusters; only a block whose first part filled a cluster is
     pushed twice, once with that cluster and once with the next *)
  let blocks = 32 in
  with_file ~mkfs:Helpers.small_mkfs ~blocks (fun m fs ip ->
      List.iter
        (fun chunk ->
          let _, writes, _ = watch m fs in
          let buf = Bytes.make chunk 's' in
          for i = 0 to (blocks * bsize / chunk) - 1 do
            Ufs.Fs.write fs ip ~off:(i * chunk) ~buf ~len:chunk
          done;
          Ufs.Fs.fsync fs ip;
          let ios = writes () in
          let times = Array.make blocks 0 in
          List.iter
            (fun (lbn, n) ->
              for b = lbn to lbn + n - 1 do
                times.(b) <- times.(b) + 1
              done)
            ios;
          let pushed = Array.fold_left ( + ) 0 times in
          let what = Printf.sprintf "%d-byte writes: " chunk in
          check_bool
            (Printf.sprintf "%sat least 4 blocks per push (%d in %d)" what
               pushed (List.length ios))
            true
            (pushed >= 4 * List.length ios);
          check_bool (what ^ "every block pushed") true
            (Array.for_all (fun k -> k >= 1) times);
          check_bool (what ^ "no block pushed more than twice") true
            (Array.for_all (fun k -> k <= 2) times))
        [ 4096; 1024 ])

let test_write_nonsequential_flushes () =
  with_file ~blocks:0 (fun m fs ip ->
      let _, writes, io_counts = watch m fs in
      let buf = Bytes.make bsize 'w' in
      (* one block at 0, then a jump: the accumulated page must be
         pushed before restarting with the new one *)
      Ufs.Fs.write fs ip ~off:0 ~buf ~len:bsize;
      Ufs.Fs.write fs ip ~off:(10 * bsize) ~buf ~len:bsize;
      check_counts "one push, already issued" [ ("push_ios", 1); ("push_blocks", 1) ]
        (io_counts ());
      Ufs.Io.wait_writes fs.Ufs.Types.pager ip.Ufs.Types.writes;
      check_ios "old page pushed on non-sequential write" [ (0, 1) ]
        (writes ());
      check_int "new page accumulating" (10 * bsize) (Ufs.Wrun.off ip.Ufs.Types.run))

let test_cluster_write_single_io () =
  (* the whole point: 3 blocks leave as ONE disk request *)
  with_file ~blocks:0 (fun _m fs ip ->
      let p0 = fs.Ufs.Types.stats.Ufs.Types.push_blocks in
      let pio0 = fs.Ufs.Types.stats.Ufs.Types.push_ios in
      let buf = Bytes.make bsize 'w' in
      for i = 0 to 2 do
        Ufs.Fs.write fs ip ~off:(i * bsize) ~buf ~len:bsize
      done;
      Ufs.Fs.fsync fs ip;
      check_int "one data write request" 1
        (fs.Ufs.Types.stats.Ufs.Types.push_ios - pio0);
      check_int "covering three blocks" 3
        (fs.Ufs.Types.stats.Ufs.Types.push_blocks - p0))

(* ---------- free-behind ---------- *)

let test_free_behind () =
  (* 2 MB machine (256 frames), 3 MB file: streaming read with
     free-behind keeps memory fresh without the daemon *)
  with_file ~memory_mb:2 ~blocks:384 (fun m fs ip ->
      read_blocks fs ip ~count:384;
      check_bool "free-behind fired" true
        (fs.Ufs.Types.stats.Ufs.Types.freebehind_pages > 0);
      check_bool "pageout daemon stayed idle" true
        ((Vm.Pageout.stats m.Clusterfs.Machine.pageout).Vm.Pageout.freed
        < fs.Ufs.Types.stats.Ufs.Types.freebehind_pages);
      (* data integrity unaffected *)
      let buf = Bytes.create bsize in
      ignore (Ufs.Fs.read fs ip ~off:(100 * bsize) ~buf ~len:bsize);
      check_bool "data still correct" true (Bytes.get buf 0 = 'c'))

let test_no_free_behind_when_disabled () =
  let features =
    { Ufs.Types.features_clustered with Ufs.Types.free_behind = false }
  in
  with_file ~memory_mb:2 ~features ~blocks:384 (fun _m fs ip ->
      read_blocks fs ip ~count:384;
      check_int "no free-behind" 0 fs.Ufs.Types.stats.Ufs.Types.freebehind_pages;
      ignore ip)

(* ---------- write limit ---------- *)

let test_write_limit_bounds_outstanding () =
  let features =
    { Ufs.Types.features_clustered with Ufs.Types.write_limit = Some (64 * 1024) }
  in
  with_file ~features ~memory_mb:8 ~blocks:0 (fun m fs ip ->
      (* watch outstanding write bytes while streaming out 2 MB *)
      let peak = ref 0 in
      let finished = ref false in
      let e = m.Clusterfs.Machine.engine in
      Sim.Engine.spawn e (fun () ->
          while not !finished do
            peak := max !peak ip.Ufs.Types.writes.Ufs.Types.pending;
            Sim.Engine.sleep e (Sim.Time.ms 1)
          done);
      let buf = Bytes.make bsize 'w' in
      for i = 0 to 255 do
        Ufs.Fs.write fs ip ~off:(i * bsize) ~buf ~len:bsize
      done;
      Ufs.Fs.fsync fs ip;
      finished := true;
      check_bool
        (Printf.sprintf "outstanding writes peaked at %d <= limit+cluster"
           !peak)
        true
        (!peak <= (64 * 1024) + Ufs.Types.cluster_bytes fs);
      check_bool "writer actually slept on the limit" true
        (fs.Ufs.Types.stats.Ufs.Types.wlimit_sleeps > 0))

let test_no_write_limit_unbounded () =
  let features =
    { Ufs.Types.features_clustered with Ufs.Types.write_limit = None }
  in
  with_file ~features ~blocks:0 (fun _m fs ip ->
      let buf = Bytes.make bsize 'w' in
      for i = 0 to 63 do
        Ufs.Fs.write fs ip ~off:(i * bsize) ~buf ~len:bsize
      done;
      check_int "never slept" 0 fs.Ufs.Types.stats.Ufs.Types.wlimit_sleeps;
      Ufs.Fs.fsync fs ip)

(* ---------- further-work features ---------- *)

let test_small_file_in_inode () =
  let features =
    { Ufs.Types.features_clustered with Ufs.Types.small_in_inode = true }
  in
  Helpers.in_machine ~features (fun m ->
      let fs = m.Clusterfs.Machine.fs in
      let ip = Ufs.Fs.creat fs "/small" in
      let data = Bytes.of_string "tiny file contents" in
      Ufs.Fs.write fs ip ~off:0 ~buf:data ~len:(Bytes.length data);
      Ufs.Fs.fsync fs ip;
      Vm.Pool.invalidate_vnode fs.Ufs.Types.pool ip.Ufs.Types.inum;
      let buf = Bytes.create 64 in
      let n = Ufs.Fs.read fs ip ~off:0 ~buf ~len:64 in
      check_int "short read at EOF" (Bytes.length data) n;
      check_bool "served from the inode" true
        (fs.Ufs.Types.stats.Ufs.Types.idata_reads > 0);
      Alcotest.(check string)
        "contents" "tiny file contents"
        (Bytes.sub_string buf 0 n);
      (* a write invalidates the inode copy and data stays coherent *)
      Ufs.Fs.write fs ip ~off:0 ~buf:(Bytes.of_string "TINY") ~len:4;
      let n2 = Ufs.Fs.read fs ip ~off:0 ~buf ~len:64 in
      Alcotest.(check string)
        "coherent after write" "TINY file contents"
        (Bytes.sub_string buf 0 n2);
      Ufs.Iops.iput fs ip)

let test_ufs_hole_skips_bmap () =
  let base_reads fs ip =
    let c0 = fs.Ufs.Types.stats.Ufs.Types.bmap_calls in
    read_blocks fs ip ~count:8;
    fs.Ufs.Types.stats.Ufs.Types.bmap_calls - c0
  in
  let with_feature skip =
    let features =
      { Ufs.Types.features_clustered with Ufs.Types.skip_bmap_if_no_holes = skip }
    in
    with_file ~features ~blocks:8 (fun _m fs ip ->
        (* warm the cache, then re-read: hits only *)
        read_blocks fs ip ~count:8;
        base_reads fs ip)
  in
  let with_skip = with_feature true and without = with_feature false in
  check_bool
    (Printf.sprintf "bmap calls on cached re-read: %d with skip < %d without"
       with_skip without)
    true (with_skip < without)

let test_getpage_hint_clusters_random_reads () =
  let features =
    { Ufs.Types.features_clustered with Ufs.Types.getpage_hint = true }
  in
  with_file ~features ~blocks:30 (fun m fs ip ->
      let r0 = (Disk.Blkdev.stats m.Clusterfs.Machine.dev).Disk.Blkdev.reads in
      (* a 24 KB read at a random (non-predicted) offset *)
      let buf = Bytes.create (3 * bsize) in
      ignore (Ufs.Fs.read fs ip ~off:(17 * bsize) ~buf ~len:(3 * bsize));
      let r1 = (Disk.Blkdev.stats m.Clusterfs.Machine.dev).Disk.Blkdev.reads in
      check_int "one clustered I/O for a 24KB random read" 1 (r1 - r0);
      ignore ip)

(* data integrity under clustering: random reads over a patterned file
   always return the right bytes *)
let prop_clustered_read_integrity =
  Helpers.qtest ~count:20 "clustered reads return correct data"
    QCheck.(list_of_size (Gen.int_range 1 15) (pair (int_bound 200) (int_bound 20000)))
    (fun reads ->
      Helpers.in_machine (fun m ->
          let fs = m.Clusterfs.Machine.fs in
          let ip = Ufs.Fs.creat fs "/q" in
          let size = 220 * 1024 in
          let chunk = 32 * 1024 in
          let rec fill off =
            if off < size then begin
              let len = min chunk (size - off) in
              let buf = Bytes.init len (fun i -> Helpers.pattern_byte ~seed:9 (off + i)) in
              Ufs.Fs.write fs ip ~off ~buf ~len;
              fill (off + len)
            end
          in
          fill 0;
          Ufs.Fs.fsync fs ip;
          Vm.Pool.invalidate_vnode fs.Ufs.Types.pool ip.Ufs.Types.inum;
          let ok = ref true in
          List.iter
            (fun (kb, raw_len) ->
              let off = kb * 1024 mod size in
              let len = max 1 (min raw_len (size - off)) in
              let buf = Bytes.create len in
              let n = Ufs.Fs.read fs ip ~off ~buf ~len in
              if n <> len then ok := false
              else
                for i = 0 to len - 1 do
                  if Bytes.get buf i <> Helpers.pattern_byte ~seed:9 (off + i)
                  then ok := false
                done)
            reads;
          Ufs.Iops.iput fs ip;
          !ok))

(* ---------- zero-copy page-in ---------- *)

(* A cluster page-in reads its whole extent straight into the claimed
   pages.  A block that is already cached is transferred too, but into
   a discard segment: a cached, dirty middle page must come out of the
   read untouched. *)
let test_page_in_skips_cached_dirty_page () =
  with_file ~blocks:3 (fun m fs ip ->
      let reads, _, io_counts = watch m fs in
      Ufs.Fs.write fs ip ~off:bsize ~buf:(Bytes.make bsize 'D') ~len:bsize;
      let page off =
        match Vm.Pool.lookup fs.Ufs.Types.pool (Ufs.Io.ident ip off) with
        | Some p -> p
        | None -> Alcotest.failf "no page at %d" off
      in
      check_bool "middle page dirty before the read" true
        (page bsize).Vm.Page.dirty;
      let frag =
        match Ufs.Bmap.read fs ip ~lbn:0 with
        | Some frag, len when len >= 3 -> frag
        | _ -> Alcotest.fail "expected one 3-block extent"
      in
      Ufs.Io.page_in fs.Ufs.Types.pager ~vid:ip.Ufs.Types.inum ~off:0
        ~sector:(Ufs.Layout.frag_to_sector frag) ~bytes:(3 * bsize) ~sync:true
        ~read_ahead:false;
      check_ios "one 3-block transfer" [ (0, 3) ] (reads ());
      check_counts "a blocking page-in" [ ("pgin_ios", 1); ("pgin_blocks", 3) ] (io_counts ());
      let all c p = Bytes.for_all (fun x -> x = c) p.Vm.Page.data in
      check_bool "middle page keeps its dirty bytes" true (all 'D' (page bsize));
      check_bool "middle page still dirty" true (page bsize).Vm.Page.dirty;
      check_bool "neighbours read from disk" true
        (all 'c' (page 0) && all 'c' (page (2 * bsize)));
      check_bool "neighbours valid" true
        ((page 0).Vm.Page.valid && (page (2 * bsize)).Vm.Page.valid))

let suites =
  [
    ( "ufs-cluster",
      [
        Alcotest.test_case "figure 3: block read-ahead" `Quick
          test_figure3_pattern;
        Alcotest.test_case "figure 6: clustered read-ahead" `Quick
          test_figure6_pattern;
        Alcotest.test_case "figure 6: bmap-sized clusters" `Quick
          test_figure6_respects_bmap_length;
        Alcotest.test_case "figure 7: clustered writes" `Quick
          test_figure7_pattern;
        Alcotest.test_case "non-sequential write flushes" `Quick
          test_write_nonsequential_flushes;
        Alcotest.test_case "page-in leaves a cached dirty page alone" `Quick
          test_page_in_skips_cached_dirty_page;
        Alcotest.test_case "cluster = one disk I/O" `Quick
          test_cluster_write_single_io;
        Alcotest.test_case "free-behind" `Quick test_free_behind;
        Alcotest.test_case "free-behind disabled" `Quick
          test_no_free_behind_when_disabled;
        Alcotest.test_case "write limit bounds queue" `Quick
          test_write_limit_bounds_outstanding;
        Alcotest.test_case "no write limit" `Quick test_no_write_limit_unbounded;
        Alcotest.test_case "small file in inode" `Quick test_small_file_in_inode;
        Alcotest.test_case "UFS_HOLE skips bmap" `Quick test_ufs_hole_skips_bmap;
        Alcotest.test_case "getpage hint clusters" `Quick
          test_getpage_hint_clusters_random_reads;
        prop_clustered_read_integrity;
      ] );
  ]
