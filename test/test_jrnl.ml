(* The crash-consistency subsystem: the raw intent log (framing,
   wrap-around, torn tails), journalled metadata operations, O(log size)
   replay, the crash-point injection sweep (cut the power at every
   disk-write boundary and recover), the freed-fragment pin, and the
   server crash-across-the-wire scenarios. *)

module C = Clusterfs
module T = Clusterfs.Topology

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let bsize = Ufs.Layout.bsize

let jcfg ?name () = C.Config.with_journal (Helpers.config ?name ())
let jmachine ?name () = C.Machine.create (jcfg ?name ())

let wal_of fs =
  match fs.Ufs.Types.wal with
  | Some w -> w
  | None -> Alcotest.fail "expected a journaled mount"

(* ---------- the raw log ---------- *)

let mk_dev () =
  let e = Sim.Engine.create () in
  (e, Disk.Blkdev.of_device (Disk.Device.create e Helpers.small_disk))

let region_off = 1 lsl 20

(* run [f] as a simulation process and hand back its result *)
let in_process e f =
  let r = ref None in
  Sim.Engine.spawn e (fun () -> r := Some (f ()));
  Sim.Engine.run e;
  Option.get !r

let scan_payloads store ~len_bytes =
  let recs = ref [] in
  let report =
    Jrnl.scan_store store ~off_bytes:region_off ~len_bytes ~on_record:(fun b ->
        recs := Bytes.to_string b :: !recs)
  in
  (report, List.rev !recs)

let test_log_roundtrip () =
  let e, dev = mk_dev () in
  let len_bytes = 256 * 1024 in
  Jrnl.format (Disk.Blkdev.store dev) ~off_bytes:region_off ~len_bytes;
  in_process e (fun () ->
      let j = Jrnl.attach dev ~off_bytes:region_off ~len_bytes in
      Jrnl.append j (Bytes.of_string "alpha");
      Jrnl.append j (Bytes.of_string "bravo");
      check_bool "records pending" true (Jrnl.pending j);
      Jrnl.commit j;
      Jrnl.append j (Bytes.of_string "charlie");
      Jrnl.commit j;
      check_bool "nothing pending after commit" false (Jrnl.pending j));
  let report, recs = scan_payloads (Disk.Blkdev.store dev) ~len_bytes in
  check_int "entries" 2 report.Jrnl.entries;
  check_int "records" 3 report.Jrnl.records;
  check_bool "no torn tail" false report.Jrnl.torn;
  Alcotest.(check (list string))
    "payloads in commit order" [ "alpha"; "bravo"; "charlie" ] recs

let test_log_wrap () =
  let e, dev = mk_dev () in
  (* tiny region so a few dozen commits lap it several times *)
  let len_bytes = 64 * 1024 in
  Jrnl.format (Disk.Blkdev.store dev) ~off_bytes:region_off ~len_bytes;
  let wraps =
    in_process e (fun () ->
        let j = Jrnl.attach dev ~off_bytes:region_off ~len_bytes in
        for i = 0 to 39 do
          Jrnl.append j (Bytes.make 3000 (Char.chr (Char.code 'a' + (i mod 26))));
          Jrnl.commit j;
          Jrnl.checkpoint j
        done;
        (* three live entries left behind the durable head *)
        for i = 0 to 2 do
          Jrnl.append j (Bytes.make 100 (Char.chr (Char.code '0' + i)));
          Jrnl.commit j
        done;
        (Jrnl.stats j).Jrnl.wraps)
  in
  check_bool "the writer lapped the region" true (wraps > 0);
  let report, recs = scan_payloads (Disk.Blkdev.store dev) ~len_bytes in
  check_int "only the un-checkpointed entries are live" 3 report.Jrnl.entries;
  check_bool "no torn tail" false report.Jrnl.torn;
  Alcotest.(check (list string))
    "live payloads"
    [ String.make 100 '0'; String.make 100 '1'; String.make 100 '2' ]
    recs

let test_log_torn_tail () =
  let e, dev = mk_dev () in
  let len_bytes = 256 * 1024 in
  let store = Disk.Blkdev.store dev in
  Jrnl.format store ~off_bytes:region_off ~len_bytes;
  in_process e (fun () ->
      let j = Jrnl.attach dev ~off_bytes:region_off ~len_bytes in
      Jrnl.append j (Bytes.of_string "survivor");
      Jrnl.commit j;
      Jrnl.append j (Bytes.of_string "torn-away");
      Jrnl.commit j);
  (* flip a byte inside the second entry's payload (entries are
     sector-padded, so entry 2 starts one sector into the data area) *)
  let victim = region_off + Jrnl.header_reserved + 512 + 40 in
  let b = Bytes.create 1 in
  Disk.Store.read store ~off:victim ~len:1 b 0;
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xff));
  Disk.Store.write store ~off:victim ~len:1 b 0;
  let report, recs = scan_payloads store ~len_bytes in
  check_bool "corruption detected" true report.Jrnl.torn;
  check_int "scan stops at the torn entry" 1 report.Jrnl.entries;
  Alcotest.(check (list string)) "prefix survives" [ "survivor" ] recs

(* ---------- journalled operation ---------- *)

let test_journaled_namespace () =
  let m = jmachine ~name:"jfs" () in
  C.Machine.run m (fun m ->
      let fs = m.C.Machine.fs in
      Ufs.Fs.mkdir fs "/d";
      let ip = Ufs.Fs.creat fs "/d/a" in
      Helpers.write_pattern fs ip ~seed:1 ~off:0 ~len:30_000;
      Ufs.Iops.iput fs ip;
      Ufs.Fs.link fs "/d/a" "/d/hard";
      Ufs.Fs.symlink fs ~target:"/d/a" ~path:"/d/soft";
      Ufs.Fs.rename fs "/d/a" "/d/b";
      Ufs.Fs.mkdir fs "/gone";
      Ufs.Fs.rmdir fs "/gone";
      let ip = Ufs.Fs.creat fs "/d/dead" in
      Ufs.Iops.iput fs ip;
      Ufs.Fs.unlink fs "/d/dead";
      let ip = Ufs.Fs.namei fs "/d/b" in
      Helpers.check_pattern fs ip ~seed:1 ~off:0 ~len:30_000;
      Ufs.Iops.iput fs ip;
      Alcotest.(check string)
        "symlink target" "/d/a"
        (Ufs.Fs.readlink fs "/d/soft");
      let w = wal_of fs in
      check_bool "operations committed through the log" true
        (w.Ufs.Types.w_txns > 0);
      check_bool "log saw commits" true
        ((Jrnl.stats w.Ufs.Types.wj).Jrnl.commits > 0));
  (* unmount checkpoints the log and marks the image clean *)
  Helpers.fsck_clean m

let test_read_path_unchanged () =
  (* the journal must change nothing on the read path: a cold-cache
     sequential reread does the same I/O with and without it *)
  let run journaled =
    let cfg =
      if journaled then jcfg ~name:"jread" () else Helpers.config ~name:"jread" ()
    in
    let m = C.Machine.create cfg in
    C.Machine.run m (fun m ->
        let fs = m.C.Machine.fs in
        let ip = Ufs.Fs.creat fs "/seq" in
        Helpers.write_pattern fs ip ~seed:2 ~off:0 ~len:(64 * bsize);
        Ufs.Iops.iput fs ip;
        Ufs.Fs.unmount fs);
    let m2 = C.Machine.create_no_format cfg (C.Machine.snapshot_store m) in
    C.Machine.run m2 (fun m ->
        let fs = m.C.Machine.fs in
        let ip = Ufs.Fs.namei fs "/seq" in
        Helpers.check_pattern fs ip ~seed:2 ~off:0 ~len:(64 * bsize);
        Ufs.Iops.iput fs ip;
        let st = fs.Ufs.Types.stats in
        ( st.Ufs.Types.getpage_calls,
          st.Ufs.Types.pgin_ios,
          st.Ufs.Types.pgin_blocks,
          st.Ufs.Types.ra_ios,
          st.Ufs.Types.ra_blocks ))
  in
  check_bool "identical read-path I/O with and without the journal" true
    (run false = run true)

let test_pinned_frag_reuse () =
  (* truncate a file that fills most of the disk: truncates commit
     lazily, so the old blocks' free records sit in the open transaction
     and pin their fragments.  Rewriting the file forces the allocator
     into the pinned runs — it must commit to release them, never hand
     them out early (a crash could resurrect committed metadata pointing
     at overwritten bytes), never report ENOSPC *)
  let m = jmachine ~name:"pins" () in
  C.Machine.run m (fun m ->
      let fs = m.C.Machine.fs in
      let len = 10 * 1024 * 1024 in
      let ip = Ufs.Fs.creat fs "/big" in
      Helpers.write_pattern fs ip ~seed:11 ~off:0 ~len;
      Ufs.Iops.iput fs ip;
      Ufs.Fs.sync fs;
      let frag0 =
        match Ufs.Fs.extent_map fs "/big" with
        | (_, frag, _) :: _ -> frag
        | [] -> Alcotest.fail "no extents"
      in
      let ip = Ufs.Fs.namei fs "/big" in
      Ufs.Iops.itrunc fs ip;
      check_bool "freed fragments pinned while the free is uncommitted" true
        (Ufs.Wal.pinned fs frag0);
      Helpers.write_pattern fs ip ~seed:12 ~off:0 ~len;
      check_bool "reallocation committed the free before reuse" false
        (Ufs.Wal.pinned fs frag0);
      Helpers.check_pattern fs ip ~seed:12 ~off:0 ~len;
      Ufs.Iops.iput fs ip);
  Helpers.fsck_clean m

(* ---------- crash-point injection ---------- *)

(* A mixed metadata + data workload with three durability barriers; the
   sweep cuts the power at every write-completion boundary inside it. *)
let crash_workload fs =
  Ufs.Fs.mkdir fs "/d";
  let ip = Ufs.Fs.creat fs "/d/a" in
  Helpers.write_pattern fs ip ~seed:3 ~off:0 ~len:20_000;
  Ufs.Iops.iput fs ip;
  let ip = Ufs.Fs.creat fs "/d/b" in
  Helpers.write_pattern fs ip ~seed:4 ~off:0 ~len:9_000;
  Ufs.Iops.iput fs ip;
  Ufs.Fs.link fs "/d/b" "/d/b2";
  Ufs.Fs.sync fs;
  Ufs.Fs.rename fs "/d/a" "/d/c";
  Ufs.Fs.unlink fs "/d/b";
  Ufs.Fs.sync fs;
  let ip = Ufs.Fs.creat fs "/late" in
  Helpers.write_pattern fs ip ~seed:5 ~off:0 ~len:5_000;
  Ufs.Iops.iput fs ip;
  Ufs.Fs.sync fs

(* Run the workload on a fresh journaled machine, letting only the
   first [cutoff] write completions reach the platter (None = all). *)
let run_cut cutoff =
  let m = C.Machine.create (jcfg ~name:"sweep" ()) in
  C.Machine.run m (fun m ->
      Disk.Blkdev.set_write_cutoff m.C.Machine.dev cutoff;
      crash_workload m.C.Machine.fs);
  m

let recover_copy store =
  let e = Sim.Engine.create () in
  let dev = Disk.Blkdev.of_device (Disk.Device.create e Helpers.small_disk) in
  Disk.Store.copy_into store (Disk.Blkdev.store dev);
  let report = Ufs.Recover.run_store dev in
  (dev, report)

(* log-region size in 8 KB scan blocks: the O(log size) replay bound *)
let log_region_blocks =
  let bytes = Ufs.Fs.journal_frags_default * Ufs.Layout.fsize in
  ((bytes + 8191) / 8192) + 1

let exists fs path =
  match Ufs.Fs.namei fs path with
  | ip ->
      Ufs.Iops.iput fs ip;
      true
  | exception Vfs.Errno.Error (Vfs.Errno.ENOENT, _) -> false

(* Recover a crash image and check every crash-point invariant:
   fsck-zero-errors, O(log) replay, mountable, and prefix consistency —
   a committed operation implies every earlier operation committed. *)
let check_crash_point ~label ?(full = false) store =
  let dev, report = recover_copy store in
  check_bool
    (label ^ ": replay read only the log region")
    true
    (report.Ufs.Recover.scan.Jrnl.blocks_read <= log_region_blocks);
  let fr = Ufs.Fsck.check dev in
  Alcotest.(check (list string)) (label ^ ": fsck clean") [] fr.Ufs.Fsck.problems;
  let m =
    C.Machine.create_no_format (jcfg ~name:"sweep" ()) (Disk.Blkdev.store dev)
  in
  C.Machine.run m (fun m ->
      let fs = m.C.Machine.fs in
      if exists fs "/late" then begin
        (* commits are ordered: /late implies everything before it *)
        check_bool (label ^ ": rename before /late") true
          (exists fs "/d/c" && not (exists fs "/d/a"));
        check_bool (label ^ ": unlink before /late") false (exists fs "/d/b");
        check_bool (label ^ ": hard link survives its twin's unlink") true
          (exists fs "/d/b2")
      end;
      if full then begin
        let ip = Ufs.Fs.namei fs "/d/c" in
        Helpers.check_pattern fs ip ~seed:3 ~off:0 ~len:20_000;
        Ufs.Iops.iput fs ip;
        let ip = Ufs.Fs.namei fs "/late" in
        Helpers.check_pattern fs ip ~seed:5 ~off:0 ~len:5_000;
        Ufs.Iops.iput fs ip
      end)

let test_crash_sweep () =
  (* baseline: no cutoff; its write count defines the sweep range, and
     a second baseline pins the simulation as deterministic *)
  let m = run_cut None in
  let n = Disk.Blkdev.completed_writes m.C.Machine.dev in
  check_bool "the workload writes" true (n > 10);
  let m2 = run_cut None in
  check_int "write schedule is deterministic" n
    (Disk.Blkdev.completed_writes m2.C.Machine.dev);
  check_crash_point ~label:"no-cut" ~full:true (C.Machine.snapshot_store m);
  for k = 0 to n - 1 do
    let mk = run_cut (Some k) in
    check_crash_point
      ~label:(Printf.sprintf "cut@%d" k)
      (C.Machine.snapshot_store mk)
  done

let test_crash_point_random () =
  (* qcheck leg of the harness: random crash points over the same
     systematic invariants (redundant with the sweep for this workload,
     load-bearing the day the workload grows) *)
  let n = Disk.Blkdev.completed_writes (run_cut None).C.Machine.dev in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:25 ~name:"random crash point recovers"
       QCheck.(int_bound (n - 1))
       (fun k ->
         let mk = run_cut (Some k) in
         let dev, report = recover_copy (C.Machine.snapshot_store mk) in
         report.Ufs.Recover.scan.Jrnl.blocks_read <= log_region_blocks
         && Ufs.Fsck.ok (Ufs.Fsck.check dev)))

let test_orphan_reap () =
  (* unlink-while-open, then the plug: the inode's free never ran, so
     replay's orphan pass must reap it *)
  let m = jmachine ~name:"orphan" () in
  let store =
    C.Machine.run m (fun m ->
        let fs = m.C.Machine.fs in
        let ip = Ufs.Fs.creat fs "/doomed" in
        Helpers.write_pattern fs ip ~seed:8 ~off:0 ~len:40_000;
        Ufs.Fs.fsync fs ip;
        Ufs.Fs.sync fs;
        Ufs.Fs.unlink fs "/doomed";
        (* ip still referenced: no iput, no free — power off *)
        C.Machine.crash m)
  in
  let dev, report = recover_copy store in
  check_int "orphan reaped" 1 report.Ufs.Recover.orphans;
  check_bool "its fragments reclaimed" true (report.Ufs.Recover.orphan_frags > 0);
  let fr = Ufs.Fsck.check dev in
  Alcotest.(check (list string)) "fsck clean" [] fr.Ufs.Fsck.problems;
  let m2 =
    C.Machine.create_no_format (jcfg ~name:"orphan" ()) (Disk.Blkdev.store dev)
  in
  C.Machine.run m2 (fun m2 ->
      check_bool "name gone" false (exists m2.C.Machine.fs "/doomed"))

(* ---------- server crash across the wire ---------- *)

let test_server_crash_ride_through () =
  let t =
    T.create ~clients:1 ~rpc_timeout:(Sim.Time.ms 50) (jcfg ~name:"nfsj" ())
  in
  let blocks = 24 in
  let len = blocks * bsize in
  let report = ref None in
  T.run t (fun t ->
      let engine = T.engine t in
      let c = t.T.clients.(0) in
      let f = Nfs.Client.create c.T.mount "stream" in
      let buf = Bytes.init len (fun i -> Helpers.pattern_byte ~seed:7 i) in
      Nfs.Client.write f ~off:0 ~buf ~len;
      Nfs.Client.fsync f;
      (* make the data durable server-side: the crash tests the journal
         and the wire, not (unlogged) lost file data *)
      Ufs.Fs.sync t.T.server.C.Machine.fs;
      Nfs.Client.invalidate f;
      let got = Bytes.create len in
      let finished = ref false in
      Sim.Engine.spawn engine ~name:"reader" (fun () ->
          let chunk = Bytes.create bsize in
          for b = 0 to blocks - 1 do
            let n = Nfs.Client.read f ~off:(b * bsize) ~buf:chunk ~len:bsize in
            Bytes.blit chunk 0 got (b * bsize) n
          done;
          finished := true);
      (* cut the power mid-stream *)
      Sim.Engine.sleep engine (Sim.Time.ms 5);
      check_bool "reader still running at the crash" false !finished;
      ignore (T.crash_server t);
      check_bool "service down" true (Nfs.Server.is_down t.T.service);
      Sim.Engine.sleep engine (Sim.Time.ms 300);
      report := Some (T.reboot_server t);
      while not !finished do
        Sim.Engine.sleep engine (Sim.Time.ms 10)
      done;
      (* the hard mount rode through: no error surfaced, and the bytes
         are exactly what was written before the crash *)
      check_bool "byte-identical across the crash" true (Bytes.equal got buf);
      check_int "one crash/reboot cycle" 1 (Nfs.Server.restarts t.T.service));
  match !report with
  | None -> Alcotest.fail "no recovery report"
  | Some r ->
      check_bool "replay read only the log region" true
        (r.Ufs.Recover.scan.Jrnl.blocks_read <= log_region_blocks)

let test_dup_cache_window () =
  (* pin NFSv2's non-idempotent replay window: with the server up, a
     retransmitted CREATE is answered from the dup cache without
     re-applying; across a crash/restart the (volatile) cache is empty
     and the same retransmit re-executes — truncating the file *)
  let m = jmachine ~name:"dupw" () in
  let e = m.C.Machine.engine in
  let client_cpu = Sim.Cpu.create e in
  let link =
    Net.create e Net.default_config ~a_cpu:client_cpu ~b_cpu:m.C.Machine.cpu
  in
  let srv =
    Nfs.Server.create e ~cpu:m.C.Machine.cpu ~fs:m.C.Machine.fs
      ~endpoints:[ Net.b_end link ] ()
  in
  C.Machine.run m (fun m ->
      let ep = Net.a_end link in
      let send xid call =
        let msg =
          Nfs.Proto.Call
            { xid; client = 0; call; sent = Sim.Engine.now e; span = None }
        in
        Net.send ep ~size:(Nfs.Proto.msg_size msg) msg
      in
      let recv () =
        match Net.recv ep with
        | Nfs.Proto.Reply { reply; _ } -> reply
        | Nfs.Proto.Call _ -> assert false
      in
      let create = Nfs.Proto.Create { dir = Nfs.Server.root_fh; name = "v" } in
      send 1 create;
      let fh =
        match recv () with
        | Nfs.Proto.R_fh { fh; _ } -> fh
        | _ -> Alcotest.fail "create failed"
      in
      send 2
        (Nfs.Proto.Write
           { fh; off = 0; data = Sim.Iov.of_bytes (Bytes.make 2000 'x') });
      ignore (recv ());
      (* retransmit with the server up: cached reply, no re-apply *)
      send 1 create;
      (match recv () with
      | Nfs.Proto.R_fh { fh = fh'; _ } -> check_int "same handle" fh fh'
      | _ -> Alcotest.fail "dup replay failed");
      check_int "applied once while cached" 1 (Nfs.Server.applied srv "create");
      check_int "dup cache hit" 1 (Nfs.Server.stats srv).Nfs.Server.dup_hits;
      send 3 (Nfs.Proto.Getattr { fh });
      (match recv () with
      | Nfs.Proto.R_attr a -> check_int "data intact" 2000 a.Nfs.Proto.size
      | _ -> Alcotest.fail "getattr failed");
      (* server process dies and restarts; the disk survives, the dup
         cache does not *)
      Nfs.Server.crash srv;
      Nfs.Server.restart srv ~fs:m.C.Machine.fs;
      send 1 create;
      (match recv () with
      | Nfs.Proto.R_fh _ -> ()
      | _ -> Alcotest.fail "post-restart create failed");
      check_int "the retransmit re-executed" 2 (Nfs.Server.applied srv "create");
      send 4 (Nfs.Proto.Getattr { fh });
      match recv () with
      | Nfs.Proto.R_attr a ->
          check_int "re-applied CREATE truncated the file" 0 a.Nfs.Proto.size
      | _ -> Alcotest.fail "getattr failed")

let suites =
  [
    ( "jrnl",
      [
        Alcotest.test_case "log roundtrip" `Quick test_log_roundtrip;
        Alcotest.test_case "log wrap-around" `Quick test_log_wrap;
        Alcotest.test_case "torn tail detected" `Quick test_log_torn_tail;
        Alcotest.test_case "journaled namespace ops" `Quick
          test_journaled_namespace;
        Alcotest.test_case "read path unchanged" `Quick test_read_path_unchanged;
        Alcotest.test_case "pinned fragments reused safely" `Quick
          test_pinned_frag_reuse;
      ] );
    ( "crashpoints",
      [
        Alcotest.test_case "systematic crash sweep" `Slow test_crash_sweep;
        Alcotest.test_case "random crash points" `Slow test_crash_point_random;
        Alcotest.test_case "orphan reaped at replay" `Quick test_orphan_reap;
        Alcotest.test_case "server crash ride-through" `Quick
          test_server_crash_ride_through;
        Alcotest.test_case "dup-cache replay window" `Quick
          test_dup_cache_window;
      ] );
  ]
