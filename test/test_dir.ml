(* Directory internals: name validation, slot reuse, entry iteration,
   rewrite, emptiness, the update daemon, and store save/load. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let with_dir f =
  Helpers.in_machine (fun m ->
      let fs = m.Clusterfs.Machine.fs in
      Ufs.Fs.mkdir fs "/w";
      let dp = Ufs.Fs.namei fs "/w" in
      Fun.protect
        ~finally:(fun () -> Ufs.Iops.iput fs dp)
        (fun () -> f m fs dp))

let test_name_validation () =
  List.iter
    (fun bad ->
      check_bool
        (Printf.sprintf "%S rejected" bad)
        true
        (try
           Ufs.Dir.check_name bad;
           false
         with Vfs.Errno.Error (Vfs.Errno.EINVAL, _) -> true))
    [ ""; "a/b"; String.make 60 'x' ];
  Ufs.Dir.check_name (String.make Ufs.Dir.max_name 'y')

let test_enter_lookup_remove () =
  with_dir (fun _m fs dp ->
      Ufs.Dir.enter fs dp ~name:"alpha" ~inum:77;
      Ufs.Dir.enter fs dp ~name:"beta" ~inum:88;
      check_bool "lookup alpha" true (Ufs.Dir.lookup fs dp "alpha" = Some 77);
      check_bool "lookup missing" true (Ufs.Dir.lookup fs dp "gamma" = None);
      check_bool "duplicate rejected" true
        (try
           Ufs.Dir.enter fs dp ~name:"alpha" ~inum:99;
           false
         with Vfs.Errno.Error (Vfs.Errno.EEXIST, _) -> true);
      check_int "remove returns inum" 77 (Ufs.Dir.remove fs dp "alpha");
      check_bool "gone" true (Ufs.Dir.lookup fs dp "alpha" = None);
      check_bool "remove missing raises" true
        (try
           ignore (Ufs.Dir.remove fs dp "alpha");
           false
         with Vfs.Errno.Error (Vfs.Errno.ENOENT, _) -> true))

let test_slot_reuse () =
  with_dir (fun _m fs dp ->
      Ufs.Dir.enter fs dp ~name:"one" ~inum:11;
      Ufs.Dir.enter fs dp ~name:"two" ~inum:22;
      let size_before = dp.Ufs.Types.size in
      ignore (Ufs.Dir.remove fs dp "one");
      Ufs.Dir.enter fs dp ~name:"replacement" ~inum:33;
      check_int "freed slot reused, no growth" size_before dp.Ufs.Types.size;
      (* the free slot scan must not shadow a duplicate later in the dir *)
      check_bool "duplicate past free slot still caught" true
        (try
           ignore (Ufs.Dir.remove fs dp "two");
           Ufs.Dir.enter fs dp ~name:"replacement" ~inum:44;
           false
         with Vfs.Errno.Error (Vfs.Errno.EEXIST, _) -> true))

let test_rewrite_and_iter () =
  with_dir (fun _m fs dp ->
      Ufs.Dir.enter fs dp ~name:"x" ~inum:5;
      Ufs.Dir.rewrite fs dp ~name:"x" ~inum:6;
      check_bool "rewritten" true (Ufs.Dir.lookup fs dp "x" = Some 6);
      let seen = ref [] in
      Ufs.Dir.iter fs dp (fun name inum -> seen := (name, inum) :: !seen);
      check_bool "iter sees . .. x" true
        (List.length !seen = 3 && List.mem ("x", 6) !seen);
      check_bool "not empty" false (Ufs.Dir.is_empty fs dp);
      ignore (Ufs.Dir.remove fs dp "x");
      check_bool "empty again" true (Ufs.Dir.is_empty fs dp))

(* ---------- store save/load ---------- *)

let test_store_save_load () =
  let m = Helpers.machine () in
  Clusterfs.Machine.run m (fun m ->
      let fs = m.Clusterfs.Machine.fs in
      let ip = Ufs.Fs.creat fs "/persisted" in
      Helpers.write_pattern fs ip ~seed:8 ~off:0 ~len:30_000;
      Ufs.Iops.iput fs ip;
      Ufs.Fs.unmount fs);
  let path = Filename.temp_file "clusterfs" ".img" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Disk.Store.save (Clusterfs.Machine.snapshot_store m) path;
      let loaded = Disk.Store.load path in
      check_int "size preserved"
        (Disk.Store.size (Clusterfs.Machine.snapshot_store m))
        (Disk.Store.size loaded);
      (* fsck the loaded image BEFORE mounting (mounting marks the
         on-disk superblock unclean), then read the file back *)
      let e2 = Sim.Engine.create () in
      let fsck_dev = Disk.Blkdev.of_device (Disk.Device.create e2 Helpers.small_disk) in
      Disk.Store.copy_into loaded (Disk.Blkdev.store fsck_dev);
      let r = Ufs.Fsck.check fsck_dev in
      Alcotest.(check (list string)) "image consistent" [] r.Ufs.Fsck.problems;
      let config = Helpers.config () in
      let m2 = Clusterfs.Machine.create_no_format config loaded in
      Clusterfs.Machine.run m2 (fun m2 ->
          let fs = m2.Clusterfs.Machine.fs in
          let ip = Ufs.Fs.namei fs "/persisted" in
          Helpers.check_pattern fs ip ~seed:8 ~off:0 ~len:30_000;
          Ufs.Iops.iput fs ip))

let suites =
  [
    ( "ufs-dir",
      [
        Alcotest.test_case "name validation" `Quick test_name_validation;
        Alcotest.test_case "enter/lookup/remove" `Quick test_enter_lookup_remove;
        Alcotest.test_case "slot reuse" `Quick test_slot_reuse;
        Alcotest.test_case "rewrite + iter" `Quick test_rewrite_and_iter;
        Alcotest.test_case "store save/load" `Quick test_store_save_load;
      ] );
  ]
