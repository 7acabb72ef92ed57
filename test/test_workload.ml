(* Tests for the workload generators: IObench, the mmap CPU benchmark,
   MusBus, extent measurement, the ager — and their determinism. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let small_iobench =
  {
    Workload.Iobench.default_config with
    Workload.Iobench.file_mb = 2;
    random_ops = 64;
  }

let test_iobench_runs_all_phases () =
  Helpers.in_machine ~memory_mb:4 (fun m ->
      let rs = Workload.Iobench.run_all m.Clusterfs.Machine.fs small_iobench in
      check_int "five phases" 5 (List.length rs);
      List.iter
        (fun (r : Workload.Iobench.result) ->
          check_bool
            (Printf.sprintf "%s rate positive"
               (Workload.Iobench.kind_to_string r.Workload.Iobench.kind))
            true
            (r.Workload.Iobench.kb_per_sec > 0.);
          check_bool "time advanced" true (r.Workload.Iobench.elapsed > 0);
          check_bool "CPU charged" true (r.Workload.Iobench.sys_cpu > 0))
        rs;
      let rate k =
        (List.find (fun (r : Workload.Iobench.result) -> r.Workload.Iobench.kind = k) rs)
          .Workload.Iobench.kb_per_sec
      in
      check_bool "sequential read beats random read" true
        (rate Workload.Iobench.FSR > rate Workload.Iobench.FRR))

(* Run [f] on an IObench target inside a simulation process: a 4 MB
   machine's own UFS, or client 0 of a one-client point-to-point
   topology serving the same machine over NFS. *)
let on_local f =
  Helpers.in_machine ~memory_mb:4 (fun m ->
      f (Workload.Iobench.local m.Clusterfs.Machine.fs))

let on_remote f =
  let t = Clusterfs.Topology.create ~clients:1 (Helpers.config ()) in
  let out = ref None in
  Clusterfs.Topology.run_clients t (fun c ->
      out := Some (f (Workload.Iobench.remote c.Clusterfs.Topology.mount)));
  Option.get !out

let targets = [ ("local", on_local); ("remote", on_remote) ]

let all_phases io =
  List.map
    (Workload.Iobench.run_phase io small_iobench)
    Workload.Iobench.all_kinds

let test_iobench_bytes_accounted () =
  List.iter
    (fun (name, on) ->
      on (fun io ->
          let r =
            Workload.Iobench.run_phase io small_iobench Workload.Iobench.FSW
          in
          check_int (name ^ ": FSW moves the whole file") (2 * 1024 * 1024)
            r.Workload.Iobench.bytes_moved;
          let r =
            Workload.Iobench.run_phase io small_iobench Workload.Iobench.FRR
          in
          check_int (name ^ ": FRR moves ops * request") (64 * 8192)
            r.Workload.Iobench.bytes_moved))
    targets

let test_iobench_deterministic () =
  List.iter
    (fun (name, on) ->
      let run () =
        on (fun io ->
            List.map
              (fun (r : Workload.Iobench.result) -> r.Workload.Iobench.elapsed)
              (all_phases io))
      in
      Alcotest.(check (list int))
        (name ^ ": bit-for-bit repeatable simulated times")
        (run ()) (run ()))
    targets

(* (phase, bytes moved, elapsed us, system CPU us) of every phase on
   both targets.  Exact: any change to a phase's request stream or
   timing moves them. *)
let pinned_local =
  [
    ("FSW", 2097152, 2043447, 841700);
    ("FSU", 2097152, 2042137, 777450);
    ("FSR", 2097152, 1295953, 790450);
    ("FRR", 524288, 1011862, 207000);
    ("FRU", 524288, 954990, 210920);
  ]

let pinned_remote =
  [
    ("FSW", 2097152, 1873419, 580180);
    ("FSU", 2097152, 1987783, 580180);
    ("FSR", 2097152, 761338, 559790);
    ("FRR", 524288, 407058, 144740);
    ("FRU", 524288, 899612, 150230);
  ]

let test_iobench_pinned () =
  let row (r : Workload.Iobench.result) =
    ( Workload.Iobench.kind_to_string r.Workload.Iobench.kind,
      r.Workload.Iobench.bytes_moved,
      r.Workload.Iobench.elapsed,
      r.Workload.Iobench.sys_cpu )
  in
  let pinned = Alcotest.(list (pair string (triple int int int))) in
  let flat = List.map (fun (k, b, e, c) -> (k, (b, e, c))) in
  List.iter2
    (fun (name, on) want ->
      Alcotest.check pinned (name ^ " phases") (flat want)
        (flat (on (fun io -> List.map row (all_phases io)))))
    targets
    [ pinned_local; pinned_remote ]

let test_mmap_bench () =
  Helpers.in_machine ~memory_mb:4 (fun m ->
      let fs = m.Clusterfs.Machine.fs in
      Workload.Iobench.prepare (Workload.Iobench.local fs) small_iobench;
      let r = Workload.Mmap_bench.run fs ~path:"/iobench" ~file_mb:2 in
      check_bool "CPU charged" true (r.Workload.Mmap_bench.sys_cpu > 0);
      check_bool "rate positive" true (r.Workload.Mmap_bench.kb_per_sec > 0.);
      check_int "file size" 2 r.Workload.Mmap_bench.file_mb)

let test_musbus () =
  Helpers.in_machine ~memory_mb:4 (fun m ->
      let cfg =
        { Workload.Musbus.default_config with Workload.Musbus.users = 3; iterations = 5 }
      in
      let r = Workload.Musbus.run m.Clusterfs.Machine.fs cfg in
      check_int "all work units" 15 r.Workload.Musbus.work_units;
      check_bool "throughput positive" true (r.Workload.Musbus.units_per_sec > 0.))

let test_extents_measurement () =
  Helpers.in_machine (fun m ->
      let fs = m.Clusterfs.Machine.fs in
      let meas = Workload.Extents.write_and_measure fs ~path:"/e" ~mb:2 in
      check_int "wrote it all" (2 * 1024 * 1024) meas.Workload.Extents.file_bytes;
      check_bool "few extents on a fresh fs" true
        (meas.Workload.Extents.extents <= 3);
      check_bool "avg consistent with count" true
        (meas.Workload.Extents.avg_extent_kb
         *. float_of_int meas.Workload.Extents.extents
        >= 2040.);
      let again = Workload.Extents.measure_path fs "/e" in
      check_int "measure_path agrees" meas.Workload.Extents.extents
        again.Workload.Extents.extents)

let test_ager_fragments () =
  Helpers.in_machine (fun m ->
      let fs = m.Clusterfs.Machine.fs in
      let rng = Sim.Rng.create ~seed:5 in
      let opts =
        {
          Ufs.Ager.defaults with
          Ufs.Ager.target_util = 0.6;
          churn_rounds = 2;
          large_max_kb = 128;
        }
      in
      let live = Ufs.Ager.age fs ~rng ~opts () in
      check_bool "files survive" true (live > 10);
      (* utilisation in the right ballpark *)
      let s = Ufs.Fs.statfs fs in
      let used =
        s.Ufs.Fs.f_frags - ((s.Ufs.Fs.f_bfree * Ufs.Layout.fpb) + s.Ufs.Fs.f_ffree)
      in
      let util = float_of_int used /. float_of_int s.Ufs.Fs.f_frags in
      check_bool
        (Printf.sprintf "utilisation ~0.6 (got %.2f)" util)
        true
        (util > 0.5 && util < 0.75);
      (* a file squeezed into the churned space fragments more than on a
         fresh fs *)
      let meas = Workload.Extents.write_and_measure fs ~path:"/squeezed" ~mb:4 in
      check_bool
        (Printf.sprintf "aged fs fragments files (%d extents)"
           meas.Workload.Extents.extents)
        true
        (meas.Workload.Extents.extents > 3))

(* The drive's observer against its own counters: over an FSW+FSR run
   every serviced group is reported once, at service start, so the
   events number the requests less those absorbed into a group, their
   sector counts add up to the drive's, and their times, in the order
   reported, never go back.
   With driver clustering some groups are merged requests. *)
let test_observer_matches_counters () =
  List.iter
    (fun (name, config) ->
      let m = Clusterfs.Machine.create config in
      let disks = Disk.Blkdev.members m.Clusterfs.Machine.dev in
      let log = Helpers.disk_log disks in
      Clusterfs.Machine.run m (fun m ->
          let io = Workload.Iobench.local m.Clusterfs.Machine.fs in
          List.iter
            (fun k -> ignore (Workload.Iobench.run_phase io small_iobench k))
            [ Workload.Iobench.FSW; Workload.Iobench.FSR ]);
      let s = Disk.Device.stats disks.(0) in
      let evs = List.map snd (log ()) in
      let sectors kind =
        List.fold_left
          (fun acc (e : Disk.Device.event) ->
            if e.Disk.Device.kind = kind then acc + e.Disk.Device.count else acc)
          0 evs
      in
      let label what = Printf.sprintf "%s: %s" name what in
      check_int (label "one event per serviced group")
        (s.Disk.Device.reads + s.Disk.Device.writes - s.Disk.Device.coalesced)
        (List.length evs);
      check_int (label "read sectors") s.Disk.Device.sectors_read
        (sectors Disk.Request.Read);
      check_int (label "written sectors") s.Disk.Device.sectors_written
        (sectors Disk.Request.Write);
      let rec monotone = function
        | (a : Disk.Device.event) :: (b :: _ as rest) ->
            a.Disk.Device.at <= b.Disk.Device.at && monotone rest
        | _ -> true
      in
      check_bool (label "times never decrease") true (monotone evs);
      check_bool (label "both kinds seen") true
        (s.Disk.Device.reads > 0 && s.Disk.Device.writes > 0);
      if config.Clusterfs.Config.disk.Disk.Device.driver_clustering then
        check_bool (label "groups were merged") true (s.Disk.Device.coalesced > 0))
    [
      ("A", Clusterfs.Config.config_a);
      ( "A + driver clustering",
        Clusterfs.Config.with_driver_clustering Clusterfs.Config.config_a true );
    ]

let suites =
  [
    ( "workload",
      [
        Alcotest.test_case "iobench all phases" `Quick
          test_iobench_runs_all_phases;
        Alcotest.test_case "iobench byte accounting" `Quick
          test_iobench_bytes_accounted;
        Alcotest.test_case "iobench deterministic" `Quick
          test_iobench_deterministic;
        Alcotest.test_case "iobench pinned phases" `Quick test_iobench_pinned;
        Alcotest.test_case "disk observer matches drive counters" `Quick
          test_observer_matches_counters;
        Alcotest.test_case "mmap bench" `Quick test_mmap_bench;
        Alcotest.test_case "musbus" `Quick test_musbus;
        Alcotest.test_case "extents" `Quick test_extents_measurement;
        Alcotest.test_case "ager fragments" `Slow test_ager_fragments;
      ] );
  ]
