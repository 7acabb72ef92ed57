(* B_ORDER (ordered asynchronous metadata writes): correctness — the
   namespace behaves identically, the image is consistent after
   unmount — and effectiveness — rm * stops stalling per file, and the
   disk never reorders across an ordered request. *)

let check_bool = Alcotest.(check bool)

let features_border =
  { Ufs.Types.features_clustered with Ufs.Types.ordered_metadata = true }

let test_namespace_correct_and_consistent () =
  let m = Helpers.machine ~features:features_border () in
  Clusterfs.Machine.run m (fun m ->
      let fs = m.Clusterfs.Machine.fs in
      Ufs.Fs.mkdir fs "/d";
      for i = 0 to 40 do
        let p = Printf.sprintf "/d/f%d" i in
        let ip = Ufs.Fs.creat fs p in
        Helpers.write_pattern fs ip ~seed:i ~off:0 ~len:(700 * (1 + (i mod 5)));
        Ufs.Iops.iput fs ip
      done;
      for i = 0 to 40 do
        if i mod 2 = 0 then Ufs.Fs.unlink fs (Printf.sprintf "/d/f%d" i)
      done;
      Ufs.Fs.rename fs "/d/f1" "/d/renamed";
      (* everything surviving reads back correctly *)
      let ip = Ufs.Fs.namei fs "/d/renamed" in
      Helpers.check_pattern fs ip ~seed:1 ~off:0 ~len:(700 * 2);
      Ufs.Iops.iput fs ip;
      for i = 0 to 40 do
        let p = Printf.sprintf "/d/f%d" i in
        match Ufs.Fs.namei fs p with
        | ip ->
            check_bool "odd files survive" true (i mod 2 = 1 && i <> 1);
            Helpers.check_pattern fs ip ~seed:i ~off:0 ~len:(700 * (1 + (i mod 5)));
            Ufs.Iops.iput fs ip
        | exception Vfs.Errno.Error (Vfs.Errno.ENOENT, _) ->
            check_bool "even files gone" true (i mod 2 = 0 || i = 1)
      done);
  Helpers.fsck_clean m

let test_rm_star_faster () =
  let rm_latency features =
    let m = Helpers.machine ~features () in
    Clusterfs.Machine.run m (fun m ->
        let fs = m.Clusterfs.Machine.fs in
        ignore (Workload.Metaops.create_many fs ~dir:"/many" ~n:60 ());
        (Workload.Metaops.remove_all fs ~dir:"/many").Workload.Metaops.ms_per_op)
  in
  let sync_ms = rm_latency Ufs.Types.features_clustered in
  let ordered_ms = rm_latency features_border in
  check_bool
    (Printf.sprintf "rm* perceived latency: %.1f ordered << %.1f sync"
       ordered_ms sync_ms)
    true
    (ordered_ms *. 2. < sync_ms)

let test_disk_honors_order () =
  (* watch the device's request log: ordered writes must complete in issue
     order relative to everything issued around them *)
  let m = Helpers.machine ~features:features_border () in
  Clusterfs.Machine.run m (fun m ->
      let fs = m.Clusterfs.Machine.fs in
      let log = Helpers.disk_log (Disk.Blkdev.members m.Clusterfs.Machine.dev) in
      for i = 0 to 20 do
        let ip = Ufs.Fs.creat fs (Printf.sprintf "/o%d" i) in
        Ufs.Iops.iput fs ip
      done;
      Ufs.Fs.sync fs;
      (* the dir data fragment is rewritten once per create; those writes
         must appear in strictly increasing create order.  The dir data
         lives at a fixed sector, so repeated writes to that sector in
         the log are exactly the entry updates, in order of service. *)
      let dir_writes =
        List.filter
          (fun (e : Disk.Device.event) -> e.Disk.Device.kind = Disk.Request.Write)
          (List.map snd (log ()))
      in
      check_bool "saw the metadata writes" true (List.length dir_writes > 20);
      (* service times are monotonically non-decreasing in log order —
         i.e. the queue really behaved FIFO for this ordered stream *)
      let rec monotone = function
        | (a : Disk.Device.event) :: (b :: _ as rest) ->
            a.Disk.Device.at <= b.Disk.Device.at && monotone rest
        | _ -> true
      in
      check_bool "ordered stream serviced in order" true (monotone dir_writes))

let suites =
  [
    ( "ufs-border",
      [
        Alcotest.test_case "namespace correct + consistent" `Quick
          test_namespace_correct_and_consistent;
        Alcotest.test_case "rm* faster" `Quick test_rm_star_faster;
        Alcotest.test_case "disk honors order" `Quick test_disk_honors_order;
      ] );
  ]
