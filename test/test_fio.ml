(* The fio-style workload engine: spec grammar round-trips, runs are
   deterministic under a seed, iodepth lanes complete every op, local
   and remote execution of one spec write the same bytes, and the
   cost-attribution table accounts for exactly 100% of op time. *)

module Spec = Fio.Spec

let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

let spec_of s =
  match Spec.parse s with
  | Ok spec -> spec
  | Error e -> Alcotest.failf "spec %S did not parse: %s" s e

(* ---------- grammar ---------- *)

let gen_spec =
  QCheck.Gen.(
    let* name_n = int_bound 999 in
    let* file_n = int_bound 999 in
    let* dir =
      oneof
        [
          return Spec.Read;
          return Spec.Write;
          map (fun p -> Spec.Mix p) (int_bound 100);
        ]
    in
    let* pattern = oneofl [ Spec.Seq; Spec.Rand ] in
    let* bs = oneofl [ 512; 1024; 4096; 8192; 12345 ] in
    let* blocks = int_range 1 16 in
    let* stride_mult = int_bound 3 in
    let* iodepth = int_range 1 8 in
    let* numjobs = int_range 1 4 in
    let* share = bool in
    let* oi_mult = int_bound 2 in
    let* think_us = int_bound 500 in
    let* seed = int_bound 10_000 in
    return
      {
        Spec.name = Printf.sprintf "n%d" name_n;
        file = Printf.sprintf "f%d" file_n;
        dir;
        pattern;
        stride = bs * stride_mult;
        bs;
        size = bs * blocks;
        iodepth;
        numjobs;
        share;
        offset_increment = (if share then bs * blocks * oi_mult else 0);
        think_us;
        seed;
      })

let arb_spec = QCheck.make ~print:Spec.to_string gen_spec

let test_roundtrip =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"spec round-trips through to_string"
       arb_spec (fun s -> Spec.parse (Spec.to_string s) = Ok s))

let test_parse_errors () =
  let bad s =
    match Spec.parse s with
    | Ok _ -> Alcotest.failf "spec %S should not parse" s
    | Error _ -> ()
  in
  bad "rw=sideways";
  bad "bs=0";
  bad "bs=8k size=4k";
  bad "iodepth=0";
  bad "numjobs=-1";
  bad "rw=read rwmixread=70";
  bad "rw=rw rwmixread=101";
  bad "frobnicate=1";
  bad "name=";
  bad "noequals"

let test_parse_forms () =
  let s = spec_of "  rw=randrw \t rwmixread=30 # trailing comment\n bs=4k " in
  check_bool "mix parsed" true (s.Spec.dir = Spec.Mix 30);
  check_bool "pattern parsed" true (s.Spec.pattern = Spec.Rand);
  check_int "bs suffix" 4096 s.Spec.bs;
  (* rwmixread before rw must work too *)
  let s = spec_of "rwmixread=30 rw=rw" in
  check_bool "mix parsed either order" true (s.Spec.dir = Spec.Mix 30);
  check_int "ops_per_job floors at one" 1
    (Spec.ops_per_job (spec_of "bs=8k size=8k"))

(* ---------- execution ---------- *)

let run_local spec =
  let m = Helpers.machine ~memory_mb:8 () in
  (m, Clusterfs.Machine.run m (fun m -> Fio.Run.execute (Fio.Target.local m) spec))

let run_remote ?(clients = 1) spec =
  let t = Clusterfs.Topology.create ~clients (Helpers.config ()) in
  ( t,
    Clusterfs.Topology.run t (fun t ->
        Fio.Run.execute (Fio.Target.remote t) spec) )

let small = "name=s file=s rw=randrw rwmixread=60 bs=4k size=64k seed=9"

let test_deterministic () =
  let report () =
    let spec = spec_of (small ^ " iodepth=2 numjobs=2") in
    let _, jobs = run_local spec in
    Fio.Report.to_json (Fio.Report.make spec ~target:"local" jobs)
  in
  check_string "same spec, same seed, byte-identical report" (report ())
    (report ())

let test_iodepth_completes () =
  let spec = spec_of (small ^ " iodepth=4 numjobs=2") in
  let nops = Spec.ops_per_job spec in
  let _, jobs = run_local spec in
  check_int "all jobs report" 2 (List.length jobs);
  List.iter
    (fun (j : Fio.Run.job_result) ->
      check_int "every op completed" nops (j.Fio.Run.read_ops + j.Fio.Run.write_ops);
      check_int "one latency per op" nops (Array.length j.Fio.Run.lat_us);
      Array.iter
        (fun l -> check_bool "latency non-negative" true (l >= 0))
        j.Fio.Run.lat_us;
      check_bool "job took time" true (j.Fio.Run.wall_us > 0);
      (* reads on a fully prewritten file never come up short *)
      check_int "all bytes moved" (nops * spec.Spec.bs) j.Fio.Run.bytes)
    jobs

(* One mixed sequential spec, iodepth 1 so both targets apply the same
   writes in the same order: the local UFS file and the file as the NFS
   server's UFS has it after the closing fsync must be byte-identical. *)
let test_local_remote_same_bytes () =
  let spec =
    spec_of "name=eq file=eq rw=rw rwmixread=50 bs=4k size=32k seed=3"
  in
  let read_fs fs path =
    let ip = Ufs.Fs.namei fs path in
    let size = ip.Ufs.Types.size in
    let buf = Bytes.create size in
    let n = Ufs.Fs.read fs ip ~off:0 ~buf ~len:size in
    Ufs.Iops.iput fs ip;
    Bytes.sub_string buf 0 n
  in
  let m, _ = run_local spec in
  let local =
    Clusterfs.Machine.run m (fun m ->
        read_fs m.Clusterfs.Machine.fs "/eq.0")
  in
  let t, _ = run_remote spec in
  let remote =
    Clusterfs.Topology.run t (fun t ->
        read_fs t.Clusterfs.Topology.server.Clusterfs.Machine.fs "/eq.0")
  in
  check_int "same size" (String.length local) (String.length remote);
  check_bool "same bytes" true (String.equal local remote)

let check_cost_rows what report =
  let rows = Fio.Report.cost_rows report in
  let sum = List.fold_left (fun acc (_, _, pct) -> acc +. pct) 0. rows in
  Alcotest.(check (float 0.001)) (what ^ ": cost rows sum to 100%") 100. sum;
  List.iter
    (fun (phase, us, pct) ->
      check_bool (what ^ ": no negative charge in " ^ phase) true
        (us >= 0 && pct >= 0.))
    rows

let test_cost_sums () =
  let spec = spec_of (small ^ " iodepth=2 numjobs=2") in
  let _, jobs = run_local spec in
  check_cost_rows "local" (Fio.Report.make spec ~target:"local" jobs);
  let _, rjobs = run_remote ~clients:2 spec in
  let remote = Fio.Report.make spec ~target:"remote" rjobs in
  check_cost_rows "remote" remote;
  (* remote ops crossed the wire: RPC phases must show up *)
  check_bool "remote run charged rpc time" true
    (List.exists
       (fun (phase, us, _) -> phase = "rpc.wait" && us > 0)
       (Fio.Report.cost_rows remote))

let suites =
  [
    ( "fio",
      [
        test_roundtrip;
        Alcotest.test_case "parse rejects invalid specs" `Quick
          test_parse_errors;
        Alcotest.test_case "parse accepts comments, order, suffixes" `Quick
          test_parse_forms;
        Alcotest.test_case "seeded runs are byte-identical" `Quick
          test_deterministic;
        Alcotest.test_case "iodepth lanes complete every op" `Quick
          test_iodepth_completes;
        Alcotest.test_case "local and remote write identical bytes" `Quick
          test_local_remote_same_bytes;
        Alcotest.test_case "cost attribution sums to 100%" `Quick
          test_cost_sums;
      ] );
  ]
