(* Tests for bmap: translation, the contiguity length, holes, fragment
   tails, indirect blocks, the extent map, and the bmap cache. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let bsize = Ufs.Layout.bsize

let with_file ?features f =
  Helpers.in_machine ?features (fun m ->
      let fs = m.Clusterfs.Machine.fs in
      let ip = Ufs.Fs.creat fs "/f" in
      Fun.protect
        ~finally:(fun () -> Ufs.Iops.iput fs ip)
        (fun () -> f fs ip))

let write_blocks fs ip ~from ~count =
  let buf = Bytes.make bsize 'b' in
  for i = from to from + count - 1 do
    Ufs.Fs.write fs ip ~off:(i * bsize) ~buf ~len:bsize
  done

let test_bmap_contiguous_run () =
  with_file (fun fs ip ->
      write_blocks fs ip ~from:0 ~count:8;
      let frag0, len0 = Ufs.Bmap.read fs ip ~lbn:0 in
      check_bool "allocated" true (frag0 <> None);
      (* helpers mkfs: maxcontig 8, rotdelay 0 → fully contiguous *)
      check_int "full run from block 0" 8 len0;
      let _, len3 = Ufs.Bmap.read fs ip ~lbn:3 in
      check_int "run shrinks toward the end" 5 len3;
      (* physical contiguity *)
      let f0 = Option.get frag0 in
      let f1, _ = Ufs.Bmap.read fs ip ~lbn:1 in
      check_int "physically adjacent" (f0 + Ufs.Layout.fpb) (Option.get f1))

let test_bmap_len_capped_by_maxcontig () =
  with_file (fun fs ip ->
      write_blocks fs ip ~from:0 ~count:12;
      Ufs.Fs.tunefs fs ~maxcontig:4 ();
      let _, len = Ufs.Bmap.read fs ip ~lbn:0 in
      check_int "capped at maxcontig" 4 len)

let test_bmap_holes () =
  with_file (fun fs ip ->
      (* sparse file: block 0 and block 5 written, 1-4 are holes *)
      write_blocks fs ip ~from:0 ~count:1;
      write_blocks fs ip ~from:5 ~count:1;
      let h, hlen = Ufs.Bmap.read fs ip ~lbn:2 in
      check_bool "hole" true (h = None);
      check_int "hole run measured" 3 hlen;
      (* reading a hole yields zeros *)
      let buf = Bytes.make 100 'x' in
      let n = Ufs.Fs.read fs ip ~off:(2 * bsize) ~buf ~len:100 in
      check_int "read across hole" 100 n;
      check_bool "zero-filled" true (Bytes.for_all (fun c -> c = '\000') buf);
      check_bool "detector sees holes" true (Ufs.Getpage.has_holes ip))

let test_fragment_tail () =
  with_file (fun fs ip ->
      (* 2.5 KB file: 3 fragments, not a whole block *)
      let buf = Bytes.make 2560 't' in
      Ufs.Fs.write fs ip ~off:0 ~buf ~len:2560;
      check_int "3 fragments allocated" 3 ip.Ufs.Types.blocks;
      check_int "block_frags" 3 (Ufs.Bmap.block_frags ~lbn:0 ~size:2560);
      (* grow within the block: tail extends (or moves) to 5 frags *)
      Ufs.Fs.write fs ip ~off:2560 ~buf ~len:2560;
      check_int "5 fragments now" 5 ip.Ufs.Types.blocks;
      (* grow past the block: tail becomes a full block + new tail *)
      let big = Bytes.make bsize 'u' in
      Ufs.Fs.write fs ip ~off:5120 ~buf:big ~len:bsize;
      check_int "full block + 5-frag tail" (8 + 5) ip.Ufs.Types.blocks)

let test_fragment_tail_not_beyond_direct () =
  with_file (fun fs ip ->
      (* a file bigger than the direct range keeps NO fragged tail *)
      write_blocks fs ip ~from:0 ~count:13;
      let buf = Bytes.make 100 'z' in
      Ufs.Fs.write fs ip ~off:(13 * bsize) ~buf ~len:100;
      (* 14 blocks of data (last only 100 bytes) + 1 indirect block:
         everything full-block because size > ndaddr * bsize *)
      check_int "no fragged tail past direct range"
        ((14 + 1) * Ufs.Layout.fpb)
        ip.Ufs.Types.blocks)

let test_indirect_blocks () =
  with_file (fun fs ip ->
      (* one block in the single-indirect range *)
      let lbn = Ufs.Layout.ndaddr + 5 in
      let buf = Bytes.make bsize 'i' in
      Ufs.Fs.write fs ip ~off:(lbn * bsize) ~buf ~len:bsize;
      check_bool "single indirect allocated" true (ip.Ufs.Types.ib.(0) <> 0);
      let frag, _ = Ufs.Bmap.read fs ip ~lbn in
      check_bool "mapped" true (frag <> None);
      (* and one in the double-indirect range *)
      let lbn2 = Ufs.Layout.ndaddr + Ufs.Layout.nindir + 7 in
      Ufs.Fs.write fs ip ~off:(lbn2 * bsize) ~buf ~len:bsize;
      check_bool "double indirect allocated" true (ip.Ufs.Types.ib.(1) <> 0);
      let frag2, _ = Ufs.Bmap.read fs ip ~lbn:lbn2 in
      check_bool "mapped through two levels" true (frag2 <> None);
      (* data written through indirection reads back *)
      let r = Bytes.create bsize in
      let n = Ufs.Fs.read fs ip ~off:(lbn2 * bsize) ~buf:r ~len:bsize in
      check_int "read back" bsize n;
      check_bool "content" true (Bytes.equal r buf))

let test_bmap_run_stops_at_structure_boundary () =
  with_file (fun fs ip ->
      write_blocks fs ip ~from:0 ~count:16;
      Ufs.Fs.tunefs fs ~maxcontig:16 ();
      let _, len = Ufs.Bmap.read fs ip ~lbn:10 in
      (* blocks 10, 11 are direct; 12 lives in the indirect block: the
         run must stop at the boundary even if physically contiguous *)
      check_int "stops at direct/indirect boundary" 2 len)

let test_extent_map () =
  with_file (fun fs ip ->
      write_blocks fs ip ~from:0 ~count:8;
      let map = Ufs.Bmap.extent_map fs ip in
      check_int "one extent on fresh fs" 1 (List.length map);
      (match map with
      | [ (lbn, _, blocks) ] ->
          check_int "starts at 0" 0 lbn;
          check_int "covers file" 8 blocks
      | _ -> Alcotest.fail "unexpected map");
      (* total blocks across extents equals file blocks *)
      let total = List.fold_left (fun a (_, _, b) -> a + b) 0 map in
      check_int "covers all blocks" 8 total)

let test_bmap_cache () =
  let features = { Ufs.Types.features_clustered with Ufs.Types.bmap_cache = true } in
  with_file ~features (fun fs ip ->
      write_blocks fs ip ~from:0 ~count:8;
      let r1 = Ufs.Bmap.read fs ip ~lbn:0 in
      let hits0 = fs.Ufs.Types.stats.Ufs.Types.bmap_cache_hits in
      let r2 = Ufs.Bmap.read fs ip ~lbn:0 in
      check_bool "hit counted" true
        (fs.Ufs.Types.stats.Ufs.Types.bmap_cache_hits > hits0);
      check_bool "same answer" true (r1 = r2);
      (* a later block within the cached run also hits, with shorter len *)
      let f3, l3 = Ufs.Bmap.read fs ip ~lbn:3 in
      let f3', l3' =
        (* force a miss for comparison by invalidating *)
        ip.Ufs.Types.bmap_cache <- None;
        Ufs.Bmap.read fs ip ~lbn:3
      in
      check_bool "cached sub-run matches walk" true (f3 = f3' && l3 = l3'))

let test_ensure_is_stable () =
  with_file (fun fs ip ->
      let buf = Bytes.make bsize 'a' in
      Ufs.Fs.write fs ip ~off:0 ~buf ~len:bsize;
      let f1, _ = Ufs.Bmap.read fs ip ~lbn:0 in
      (* rewriting must not reallocate *)
      Ufs.Fs.write fs ip ~off:0 ~buf ~len:bsize;
      let f2, _ = Ufs.Bmap.read fs ip ~lbn:0 in
      check_bool "same physical block" true (f1 = f2))

(* property: after an arbitrary pattern of block writes, every written
   block maps somewhere, no two map to overlapping fragments, and
   extent_map covers exactly the mapped blocks *)
let prop_bmap_no_overlap =
  Helpers.qtest ~count:25 "no overlapping allocations, extents consistent"
    QCheck.(list_of_size (Gen.int_range 1 25) (int_bound 30))
    (fun lbns ->
      Helpers.in_machine (fun m ->
          let fs = m.Clusterfs.Machine.fs in
          let ip = Ufs.Fs.creat fs "/q" in
          let buf = Bytes.make bsize 'p' in
          List.iter
            (fun lbn -> Ufs.Fs.write fs ip ~off:(lbn * bsize) ~buf ~len:bsize)
            lbns;
          let written = List.sort_uniq compare lbns in
          let frags = Hashtbl.create 64 in
          let ok = ref true in
          List.iter
            (fun lbn ->
              match Ufs.Bmap.read fs ip ~lbn with
              | Some frag, _ ->
                  for i = 0 to Ufs.Layout.fpb - 1 do
                    if Hashtbl.mem frags (frag + i) then ok := false;
                    Hashtbl.replace frags (frag + i) ()
                  done
              | None, _ -> ok := false)
            written;
          let map = Ufs.Bmap.extent_map fs ip in
          let covered =
            List.concat_map
              (fun (lbn, _, blocks) -> List.init blocks (fun i -> lbn + i))
              map
          in
          Ufs.Iops.iput fs ip;
          !ok && List.sort compare covered = written))

let suites =
  [
    ( "ufs-bmap",
      [
        Alcotest.test_case "contiguous run" `Quick test_bmap_contiguous_run;
        Alcotest.test_case "len capped by maxcontig" `Quick
          test_bmap_len_capped_by_maxcontig;
        Alcotest.test_case "holes" `Quick test_bmap_holes;
        Alcotest.test_case "fragment tail" `Quick test_fragment_tail;
        Alcotest.test_case "no tail past direct range" `Quick
          test_fragment_tail_not_beyond_direct;
        Alcotest.test_case "indirect blocks" `Quick test_indirect_blocks;
        Alcotest.test_case "run stops at boundary" `Quick
          test_bmap_run_stops_at_structure_boundary;
        Alcotest.test_case "extent map" `Quick test_extent_map;
        Alcotest.test_case "bmap cache" `Quick test_bmap_cache;
        Alcotest.test_case "ensure stable" `Quick test_ensure_is_stable;
        prop_bmap_no_overlap;
      ] );
  ]
