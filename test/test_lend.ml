(* Frame lending between the UFS page cache and the disk store: a push
   lends its whole blocks' frames to the store, which keeps them instead
   of copying; a page copies before it is written again; a chunk the
   store displaces goes back to the engine's frame pool.  Each case pins
   one rule on a small machine. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let bsize = Ufs.Layout.bsize
let block c = Bytes.make bsize c
let fs_of (m : Clusterfs.Machine.t) = m.Clusterfs.Machine.fs
let store_of fs = Disk.Blkdev.store fs.Ufs.Types.dev
let frames_of fs = Sim.Engine.frames fs.Ufs.Types.engine
let adopted fs = Disk.Store.chunks_adopted (store_of fs)
let recycled fs = Disk.Store.chunks_recycled (store_of fs)

let page fs ip lbn =
  match Vm.Pool.lookup fs.Ufs.Types.pool (Ufs.Io.ident ip (lbn * bsize)) with
  | Some p -> p
  | None -> Alcotest.fail "page not cached"

(* Block [lbn] of [ip] as the store holds it. *)
let on_disk fs ip lbn =
  match Ufs.Bmap.read fs ip ~lbn with
  | Some frag, _ ->
      let b = Bytes.create bsize in
      Disk.Store.read (store_of fs) ~off:(frag * Ufs.Layout.fsize) ~len:bsize b
        0;
      Bytes.to_string b
  | None, _ -> Alcotest.fail "block not allocated"

let write fs ip ~off s =
  Ufs.Fs.write fs ip ~off ~buf:(Bytes.of_string s) ~len:(String.length s)

let patched c ~at s =
  let b = block c in
  Bytes.blit_string s 0 b at (String.length s);
  Bytes.to_string b

let test_rewrite_after_push () =
  Helpers.in_machine (fun m ->
      let fs = fs_of m in
      let ip = Ufs.Fs.creat fs "/f" in
      let before = adopted fs in
      Ufs.Fs.write fs ip ~off:0 ~buf:(block 'A') ~len:bsize;
      Ufs.Fs.fsync fs ip;
      check_int "the push's block was adopted" (before + 1) (adopted fs);
      check_bool "its page is lent" true (page fs ip 0).Vm.Page.lent;
      write fs ip ~off:100 "BBBB";
      let p = page fs ip 0 in
      check_bool "the rewrite took the frame back" false p.Vm.Page.lent;
      check_string "the page has the new bytes"
        (patched 'A' ~at:100 "BBBB")
        (Bytes.to_string p.Vm.Page.data);
      check_string "the store keeps the pushed bytes"
        (Bytes.to_string (block 'A'))
        (on_disk fs ip 0);
      Ufs.Fs.fsync fs ip;
      check_string "until the next push" (patched 'A' ~at:100 "BBBB")
        (on_disk fs ip 0);
      Ufs.Iops.iput fs ip)

let test_displaced_chunk_recycled () =
  Helpers.in_machine (fun m ->
      let fs = fs_of m in
      let frames = frames_of fs in
      let ip = Ufs.Fs.creat fs "/f" in
      Ufs.Fs.write fs ip ~off:0 ~buf:(Bytes.make (2 * bsize) 'A')
        ~len:(2 * bsize);
      Ufs.Fs.fsync fs ip;
      let first = (page fs ip 0).Vm.Page.data in
      let r0 = recycled fs in
      (* a whole-block rewrite of block 0: a blank frame, then a push
         that displaces block 0's first frame *)
      Ufs.Fs.write fs ip ~off:0 ~buf:(block 'B') ~len:bsize;
      Ufs.Fs.fsync fs ip;
      check_int "the displaced chunk went back" (r0 + 1) (recycled fs);
      (* a partial rewrite of block 1 copies into the recycled frame *)
      let reused = Sim.Frames.reused frames in
      write fs ip ~off:(bsize + 8) "CC";
      check_int "the copy reused a frame" (reused + 1) (Sim.Frames.reused frames);
      check_bool "the very frame block 0 gave up" true
        ((page fs ip 1).Vm.Page.data == first);
      check_string "block 0's page is intact"
        (Bytes.to_string (block 'B'))
        (Bytes.to_string (page fs ip 0).Vm.Page.data);
      check_string "block 1's page has the copy and the write"
        (patched 'A' ~at:8 "CC")
        (Bytes.to_string (page fs ip 1).Vm.Page.data);
      check_string "block 1's store chunk is untouched"
        (Bytes.to_string (block 'A'))
        (on_disk fs ip 1);
      Ufs.Fs.fsync fs ip;
      check_bool "every clean page matches the store" true
        (Helpers.pages_match_store fs);
      Ufs.Iops.iput fs ip)

let test_ordered_snapshot_adopted () =
  Helpers.in_machine (fun m ->
      let fs = fs_of m in
      let frames = frames_of fs in
      let ip = Ufs.Fs.creat fs "/f" in
      Ufs.Fs.write fs ip ~off:0 ~buf:(block 'A') ~len:bsize;
      let before = adopted fs in
      Ufs.Putpage.putpage fs ip ~off:0 ~len:bsize
        ~flags:[ Vfs.Vnode.P_ORDER; Vfs.Vnode.P_SYNC ];
      check_int "the snapshot was adopted" (before + 1) (adopted fs);
      let p = page fs ip 0 in
      check_bool "the page is clean" false p.Vm.Page.dirty;
      check_bool "and not lent" false p.Vm.Page.lent;
      let taken = Sim.Frames.taken frames in
      write fs ip ~off:0 "ZZ";
      check_int "so its next write copies nothing" taken
        (Sim.Frames.taken frames);
      check_string "the store keeps the snapshot"
        (Bytes.to_string (block 'A'))
        (on_disk fs ip 0);
      Ufs.Iops.iput fs ip)

let test_dropped_write () =
  Helpers.in_machine (fun m ->
      let fs = fs_of m in
      let frames = frames_of fs in
      let ip = Ufs.Fs.creat fs "/f" in
      Ufs.Fs.write fs ip ~off:0 ~buf:(block 'A') ~len:bsize;
      Ufs.Fs.fsync fs ip;
      let a = adopted fs and r = recycled fs in
      Disk.Blkdev.set_write_cutoff fs.Ufs.Types.dev (Some 0);
      Ufs.Fs.write fs ip ~off:0 ~buf:(block 'B') ~len:bsize;
      Ufs.Fs.fsync fs ip;
      check_int "nothing adopted past the cutoff" a (adopted fs);
      check_int "nothing recycled" r (recycled fs);
      check_string "the old chunk is in place"
        (Bytes.to_string (block 'A'))
        (on_disk fs ip 0);
      check_bool "the page still counts as lent" true (page fs ip 0).Vm.Page.lent;
      let taken = Sim.Frames.taken frames in
      write fs ip ~off:0 "C";
      check_int "so its next write copies first" (taken + 1)
        (Sim.Frames.taken frames);
      check_string "the page has both writes" (patched 'B' ~at:0 "C")
        (Bytes.to_string (page fs ip 0).Vm.Page.data);
      check_string "the store still has the old bytes"
        (Bytes.to_string (block 'A'))
        (on_disk fs ip 0);
      Disk.Blkdev.set_write_cutoff fs.Ufs.Types.dev None;
      Ufs.Iops.iput fs ip)

let test_fragment_tail_copied () =
  Helpers.in_machine (fun m ->
      let fs = fs_of m in
      let ip = Ufs.Fs.creat fs "/small" in
      let before = adopted fs in
      write fs ip ~off:0 (String.make 3000 'T');
      Ufs.Fs.fsync fs ip;
      check_int "a fragment tail is not adopted" before (adopted fs);
      check_bool "its page is not lent" false (page fs ip 0).Vm.Page.lent;
      check_string "its bytes are on disk" (String.make 3000 'T')
        (String.sub (on_disk fs ip 0) 0 3000);
      Ufs.Iops.iput fs ip)

let test_volume_member_copied () =
  let vol =
    { Clusterfs.Config.disks = 2; layout = Disk.Blkdev.Stripe; stripe_kb = 64 }
  in
  Helpers.in_machine ~vol (fun m ->
      let fs = fs_of m in
      let ip = Ufs.Fs.creat fs "/striped" in
      Ufs.Fs.write fs ip ~off:0 ~buf:(Bytes.make (4 * bsize) 'V')
        ~len:(4 * bsize);
      Ufs.Fs.fsync fs ip;
      check_int "member writes adopt nothing" 0 (adopted fs);
      (* the pages still copy before a rewrite, and the store has its own
         bytes *)
      write fs ip ~off:0 "W";
      check_string "the store's copy is unchanged"
        (Bytes.to_string (block 'V'))
        (on_disk fs ip 0);
      Ufs.Iops.iput fs ip)

(* The store chunks that are some cached page's frame of [ip]. *)
let borrowed fs ip =
  let pages = Vm.Pool.pages_of_vnode fs.Ufs.Types.pool ip.Ufs.Types.inum in
  let n = ref 0 in
  Disk.Store.iter_chunks
    (fun _ c ->
      if List.exists (fun (p : Vm.Page.t) -> p.Vm.Page.data == c) pages then
        incr n)
    (store_of fs);
  !n

(* FSW, a cold FSR and a rewrite of a 16-block file on one block
   device.  The page cache matches the store after each.  Where every
   FSR request lands on one member at its own sector (a bare disk, a
   mirror), its page-ins borrow the store's chunks; a stripe's split
   requests copy. *)
let fsw_fsr_rewrite ?vol ~borrows () =
  Helpers.in_machine ?vol (fun m ->
      let fs = fs_of m in
      let n = 16 in
      let ip = Ufs.Fs.creat fs "/seq" in
      Helpers.write_pattern fs ip ~seed:6 ~off:0 ~len:(n * bsize);
      Ufs.Fs.fsync fs ip;
      check_bool "FSW: every clean page matches the store" true
        (Helpers.pages_match_store fs);
      Vm.Pool.invalidate_vnode fs.Ufs.Types.pool ip.Ufs.Types.inum;
      Helpers.check_pattern fs ip ~seed:6 ~off:0 ~len:(n * bsize);
      check_bool "FSR: every clean page matches the store" true
        (Helpers.pages_match_store fs);
      if borrows then
        check_int "FSR: every page-in borrowed its chunk" n (borrowed fs ip);
      write fs ip ~off:(bsize + 8) "rewritten";
      Ufs.Fs.fsync fs ip;
      check_bool "rewrite: every clean page matches the store" true
        (Helpers.pages_match_store fs);
      check_string "rewrite: the store has the new bytes" "rewritten"
        (String.sub (on_disk fs ip 1) 8 9);
      Ufs.Iops.iput fs ip)

let test_one_block_device () =
  let two layout = { Clusterfs.Config.disks = 2; layout; stripe_kb = 64 } in
  fsw_fsr_rewrite ~borrows:true ();
  fsw_fsr_rewrite ~borrows:true ~vol:(two Disk.Blkdev.Mirror) ();
  fsw_fsr_rewrite ~borrows:false ~vol:(two Disk.Blkdev.Stripe) ()

let test_crash_image_private () =
  let m = Helpers.machine () in
  Clusterfs.Machine.run m (fun m ->
      let fs = fs_of m in
      let ip = Ufs.Fs.creat fs "/f" in
      Ufs.Fs.write fs ip ~off:0 ~buf:(Bytes.make (2 * bsize) 'A')
        ~len:(2 * bsize);
      Ufs.Fs.fsync fs ip;
      let image = Clusterfs.Machine.crash m in
      let frag =
        match Ufs.Bmap.read fs ip ~lbn:0 with
        | Some f, _ -> f
        | None, _ -> Alcotest.fail "block not allocated"
      in
      (* scribble on the live pages behind the file system's back *)
      List.iter
        (fun (p : Vm.Page.t) -> Bytes.fill p.Vm.Page.data 0 bsize 'X')
        (Vm.Pool.pages_of_vnode fs.Ufs.Types.pool ip.Ufs.Types.inum);
      check_string "the live store shared the pages' frames"
        (Bytes.to_string (block 'X'))
        (on_disk fs ip 0);
      let b = Bytes.create (2 * bsize) in
      Disk.Store.read image ~off:(frag * Ufs.Layout.fsize) ~len:(2 * bsize) b 0;
      check_string "the crash image did not"
        (String.make (2 * bsize) 'A')
        (Bytes.to_string b))

let suites =
  [
    ( "ufs.lend",
      [
        Alcotest.test_case "a rewrite after a push keeps both versions" `Quick
          test_rewrite_after_push;
        Alcotest.test_case "a displaced chunk is recycled" `Quick
          test_displaced_chunk_recycled;
        Alcotest.test_case "an ordered push lends its snapshot" `Quick
          test_ordered_snapshot_adopted;
        Alcotest.test_case "a write dropped at the cutoff adopts nothing"
          `Quick test_dropped_write;
        Alcotest.test_case "a fragment tail is copied" `Quick
          test_fragment_tail_copied;
        Alcotest.test_case "a volume member write is copied" `Quick
          test_volume_member_copied;
        Alcotest.test_case "a crash image shares no bytes with pages" `Quick
          test_crash_image_private;
        Alcotest.test_case "FSR page-ins borrow on a disk and a mirror" `Quick
          test_one_block_device;
      ] );
  ]
