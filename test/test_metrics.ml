(* The observability layer: registry semantics, export formats, the
   free-behind regression it exists to catch (random reads under memory
   pressure must not trigger free-behind), and run-to-run determinism
   of the exported numbers. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let bsize = Ufs.Layout.bsize

(* ---------- registry ---------- *)

let test_registry_basics () =
  let reg = Sim.Metrics.create () in
  let hits = ref 0 in
  Sim.Metrics.register reg ~layer:"disk" ~instance:"a" (fun () ->
      [ ("reads", Sim.Metrics.Int !hits) ]);
  Sim.Metrics.register reg ~layer:"ufs" ~instance:"a" (fun () ->
      [ ("calls", Sim.Metrics.Int 7) ]);
  hits := 3;
  (* closures read live state: the snapshot sees the update *)
  (match Sim.Metrics.get reg ~layer:"disk" ~instance:"a" "reads" with
  | Some (Sim.Metrics.Int n) -> check_int "live value" 3 n
  | _ -> Alcotest.fail "metric missing");
  match Sim.Metrics.snapshot reg with
  | [ ("disk", "a", _); ("ufs", "a", _) ] -> ()
  | _ -> Alcotest.fail "snapshot order should be registration order"

let test_registry_duplicate_instances () =
  (* experiments build several machines with the same config name: the
     registry must keep both, deterministically renamed *)
  let reg = Sim.Metrics.create () in
  for i = 1 to 3 do
    Sim.Metrics.register reg ~layer:"ufs" ~instance:"A" (fun () ->
        [ ("run", Sim.Metrics.Int i) ])
  done;
  let names =
    List.map (fun (_, inst, _) -> inst) (Sim.Metrics.snapshot reg)
  in
  Alcotest.(check (list string))
    "disambiguated in order" [ "A"; "A#2"; "A#3" ] names;
  match Sim.Metrics.get reg ~layer:"ufs" ~instance:"A#3" "run" with
  | Some (Sim.Metrics.Int 3) -> ()
  | _ -> Alcotest.fail "lookup by disambiguated name"

let test_json_export () =
  let reg = Sim.Metrics.create () in
  let summ = Sim.Stats.Summary.create () in
  let empty = Sim.Stats.Summary.create () in
  let hist = Sim.Stats.Hist.create () in
  Sim.Stats.Summary.add summ 2.;
  Sim.Stats.Summary.add summ 4.;
  Sim.Stats.Hist.add hist 3;
  Sim.Metrics.register reg ~layer:"disk" ~instance:"q\"x" (fun () ->
      [
        ("n", Sim.Metrics.Int 42);
        ("ratio", Sim.Metrics.Float 0.5);
        ("lat", Sim.Metrics.Summary summ);
        ("idle", Sim.Metrics.Summary empty);
        ("sizes", Sim.Metrics.Hist hist);
        ("bad", Sim.Metrics.Float Float.nan);
      ]);
  let json = Sim.Metrics.to_json reg ~meta:[ ("section", "test") ] in
  let module J = Sim.Json in
  let doc =
    match J.parse json with
    | Ok d -> d
    | Error e -> Alcotest.failf "export does not parse: %s" e
  in
  check_bool "meta present" true (J.member "section" doc = Some (J.Str "test"));
  let src =
    match Option.map J.to_list (J.member "sources" doc) with
    | Some [ src ] -> src
    | _ -> Alcotest.fail "one source expected"
  in
  check_bool "quote escaped in instance" true
    (J.member "instance" src = Some (J.Str "q\"x"));
  let metric name =
    Option.bind (J.member "metrics" src) (J.member name)
  in
  check_bool "int metric" true (metric "n" = Some (J.Num 42.));
  check_bool "summary mean" true
    (Option.bind (metric "lat") (J.member "mean") = Some (J.Num 3.));
  check_bool "empty summary renders zeros, not nan" true
    (metric "idle"
    = Some
        (J.Obj
           (("count", J.Num 0.)
           :: List.map
                (fun k -> (k, J.Num 0.))
                [ "mean"; "stddev"; "min"; "max"; "total"; "p50"; "p95"; "p99" ])));
  check_bool "nan renders as null" true (metric "bad" = Some J.Null);
  let contains needle =
    let nl = String.length needle and hl = String.length json in
    let rec go i = i + nl <= hl && (String.sub json i nl = needle || go (i + 1)) in
    go 0
  in
  check_bool "no bare nan anywhere" false (contains "nan")

(* ---------- the free-behind regression ---------- *)

(* A machine under genuine memory pressure: 2 MB of RAM (256 frames),
   a 3 MB file.  [read_order i] gives the block to read at step [i]. *)
let freebehind_run ~read_order =
  let blocks = 384 in
  Helpers.in_machine ~memory_mb:2 ~mkfs:Helpers.small_mkfs (fun m ->
      let fs = m.Clusterfs.Machine.fs in
      let ip = Ufs.Fs.creat fs "/fb" in
      let buf = Bytes.make bsize 'f' in
      for i = 0 to blocks - 1 do
        Ufs.Fs.write fs ip ~off:(i * bsize) ~buf ~len:bsize
      done;
      Ufs.Fs.fsync fs ip;
      Vm.Pool.invalidate_vnode fs.Ufs.Types.pool ip.Ufs.Types.inum;
      Ufs.Types.reset_rstreams ip;
      for i = 0 to blocks - 1 do
        ignore (Ufs.Fs.read fs ip ~off:(read_order i * bsize) ~buf ~len:bsize)
      done;
      Ufs.Iops.iput fs ip;
      fs.Ufs.Types.stats)

let test_freebehind_fires_on_sequential () =
  let s = freebehind_run ~read_order:(fun i -> i) in
  check_bool "sequential read under pressure free-behinds" true
    (s.Ufs.Types.freebehind_pages > 0)

let test_freebehind_not_on_random () =
  (* stride 191 is coprime to 384: every read lands far from the last,
     so the stream is never sequential.  Before the fix, getpage had
     already advanced nextr by the time free-behind checked it, making
     every access look sequential — this workload free-behind'd
     hundreds of pages and threw its own cache away. *)
  let s = freebehind_run ~read_order:(fun i -> i * 191 mod 384) in
  check_int "random read never free-behinds" 0 s.Ufs.Types.freebehind_pages;
  check_bool "suppression was exercised (pressure + offset held)" true
    (s.Ufs.Types.freebehind_suppressed > 0)

(* ---------- determinism of the export ---------- *)

let golden_run () =
  let reg = Sim.Metrics.create () in
  let rows =
    Clusterfs.Machine.with_metrics_sink reg (fun () ->
        Clusterfs.Experiments.figure10 ~file_mb:1 ~random_ops:32 ())
  in
  (rows, Sim.Metrics.to_json reg)

let test_golden_determinism () =
  let rows1, json1 = golden_run () in
  let rows2, json2 = golden_run () in
  check_bool "fig10 rows identical across runs" true (rows1 = rows2);
  check_string "metrics JSON byte-identical" json1 json2;
  check_bool "registry non-trivial" true (String.length json1 > 500)

(* ---------- per-layer registration through the machine ---------- *)

let test_machine_registers_all_layers () =
  let reg = Sim.Metrics.create () in
  Clusterfs.Machine.with_metrics_sink reg (fun () ->
      Helpers.in_machine ~name:"layers" (fun m ->
          let fs = m.Clusterfs.Machine.fs in
          let ip = Ufs.Fs.creat fs "/x" in
          let buf = Bytes.make bsize 'x' in
          Ufs.Fs.write fs ip ~off:0 ~buf ~len:bsize;
          Ufs.Fs.fsync fs ip;
          Ufs.Iops.iput fs ip));
  let layers =
    List.sort_uniq compare
      (List.map (fun (l, _, _) -> l) (Sim.Metrics.snapshot reg))
  in
  Alcotest.(check (list string))
    "every layer present"
    [ "disk"; "sim.engine"; "ufs"; "vm.pageout"; "vm.pool" ]
    layers;
  match Sim.Metrics.get reg ~layer:"ufs" ~instance:"layers" "push_ios" with
  | Some (Sim.Metrics.Int n) -> check_bool "ufs pushed data" true (n > 0)
  | _ -> Alcotest.fail "ufs source missing"

let suites =
  [
    ( "metrics",
      [
        Alcotest.test_case "registry basics" `Quick test_registry_basics;
        Alcotest.test_case "duplicate instances" `Quick
          test_registry_duplicate_instances;
        Alcotest.test_case "JSON export" `Quick test_json_export;
        Alcotest.test_case "free-behind fires on sequential" `Quick
          test_freebehind_fires_on_sequential;
        Alcotest.test_case "free-behind NOT on random (the bug)" `Quick
          test_freebehind_not_on_random;
        Alcotest.test_case "golden determinism" `Quick test_golden_determinism;
        Alcotest.test_case "machine registers all layers" `Quick
          test_machine_registers_all_layers;
      ] );
  ]
