(* Per-stream read-ahead and flush batching: the figure 10/11 goldens
   are frozen byte-for-byte, interleaved sequential readers each keep
   cluster read-ahead (locally and over NFS), the server still gathers
   eight interleaving client write streams into multi-block disk
   writes, and the NFS client's predictor survives backward seeks
   instead of inheriting a read-ahead frontier it can never catch. *)

module Exp = Clusterfs.Experiments

let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ---------- figure 10/11 goldens ---------- *)

(* Captured from the seed before the per-stream window and flush
   batching work: single-stream behaviour must not move at all. *)
let golden_fig10 =
  [
    "A 1588.228805 1286.968128 1281.108960 484.549542 541.080722";
    "B 789.651859 787.941722 787.847756 480.714782 535.260200";
    "C 778.181804 787.941722 787.847756 480.748635 535.260200";
    "D 778.323464 787.044888 787.847756 480.748635 537.211962";
    "A/B 2.011303 1.633329 1.626087 1.007977 1.010874";
    "A/C 2.040948 1.633329 1.626087 1.007906 1.010874";
    "A/D 2.040577 1.635190 1.626087 1.007906 1.007202";
  ]

let fmt label (r : Exp.iobench_row) =
  Printf.sprintf "%s %.6f %.6f %.6f %.6f %.6f" label r.Exp.fsr r.Exp.fsu
    r.Exp.fsw r.Exp.frr r.Exp.fru

let test_fig10_golden () =
  let rows = Exp.figure10 ~file_mb:8 () in
  let lines =
    List.map (fun r -> fmt r.Exp.config r) rows
    @ List.map
        (fun (l, r) -> fmt l r)
        (Exp.ratios rows ~base:"A" ~others:[ "B"; "C"; "D" ])
  in
  check_string "figure 10/11 rows byte-identical to the seed"
    (String.concat "\n" golden_fig10)
    (String.concat "\n" lines)

(* ---------- interleaved sequential readers ---------- *)

let spec_of s =
  match Fio.Spec.parse s with
  | Ok spec -> spec
  | Error e -> Alcotest.failf "spec %S did not parse: %s" s e

(* 20 ms mean think time makes each stream latency-bound, so a healthy
   per-stream predictor lets two readers overlap their stalls; the
   collapse this PR fixes showed the pair *slower* than one stream. *)
let ilv_single =
  spec_of "name=s file=ilv rw=read bs=8k size=2m think=20000 seed=21"

let ilv_pair =
  spec_of
    "name=p file=ilv rw=read bs=8k size=2m numjobs=2 share=1 \
     offset_increment=2m think=20000 seed=21"

let run_local spec =
  let m = Clusterfs.Machine.create Clusterfs.Config.config_a in
  let jobs =
    Clusterfs.Machine.run m (fun m ->
        Fio.Run.execute (Fio.Target.local m) spec)
  in
  (m, Fio.Report.make spec ~target:"local" jobs)

let test_interleaved_local () =
  let _, rs = run_local ilv_single in
  let m, rp = run_local ilv_pair in
  let bs = Fio.Report.bandwidth_kbps rs in
  let bp = Fio.Report.bandwidth_kbps rp in
  check_bool
    (Printf.sprintf "pair aggregate within 25%% of 2x single (%.0f vs %.0f)"
       bp bs)
    true
    (bp >= 1.5 *. bs);
  let st = m.Clusterfs.Machine.fs.Ufs.Types.stats in
  check_bool "second reader got its own window" true
    (st.Ufs.Types.ra_streams >= 1);
  (* both halves were read ahead in cluster-sized chunks: enough
     read-ahead I/Os to cover the whole file, each nearly a full
     cluster (15 blocks under config A) *)
  check_bool "read-ahead covered both streams" true
    (st.Ufs.Types.ra_ios >= 28);
  check_bool "read-ahead I/Os stayed cluster-sized" true
    (float_of_int st.Ufs.Types.ra_blocks
     /. float_of_int (max 1 st.Ufs.Types.ra_ios)
    >= 10.)

let test_interleaved_remote () =
  let run spec =
    let t = Clusterfs.Topology.create ~clients:1 Clusterfs.Config.config_a in
    let jobs =
      Clusterfs.Topology.run t (fun t ->
          Fio.Run.execute (Fio.Target.remote t) spec)
    in
    (t, Fio.Report.make spec ~target:"remote" jobs)
  in
  let _, rs = run ilv_single in
  let t, rp = run ilv_pair in
  let bs = Fio.Report.bandwidth_kbps rs in
  let bp = Fio.Report.bandwidth_kbps rp in
  check_bool
    (Printf.sprintf
       "remote pair aggregate within 25%% of 2x single (%.0f vs %.0f)" bp bs)
    true
    (bp >= 1.5 *. bs);
  let st =
    Nfs.Client.stats t.Clusterfs.Topology.clients.(0).Clusterfs.Topology.mount
  in
  check_bool "client made a window for the second reader" true
    (st.Nfs.Client.ra_streams >= 1);
  check_bool "client read ahead over both halves" true
    (st.Nfs.Client.ra_issued >= 28)

(* ---------- server write gathering under interleaved writers ---------- *)

let test_write_gather_8_clients () =
  let g = Fio.Scenarios.write_gather ~clients:8 () in
  check_bool "clients wrote through RPCs" true (g.Fio.Scenarios.write_rpcs > 0);
  check_bool
    (Printf.sprintf "disk writes stay clustered at 8 clients (%.1f blocks)"
       g.Fio.Scenarios.blocks_per_disk_write)
    true
    (g.Fio.Scenarios.blocks_per_disk_write >= 8.)

(* ---------- client backward seek ---------- *)

(* A 10 MB file against the mount's 8 MB cache: pass one reads it all
   (early pages evicted), then the reader seeks back to 0.  The old
   shared [nextrio] frontier only grew, so the re-read got no
   read-ahead at all; the repointed window must start a fresh
   frontier.  Separately, prefetched pages dropped without a use must
   show up in the wasted counter — that is the signal the adaptive
   window shrinks on. *)
let test_backward_seek () =
  let t = Clusterfs.Topology.create ~clients:1 Clusterfs.Config.config_a in
  Clusterfs.Topology.run t (fun t ->
      let m = t.Clusterfs.Topology.clients.(0).Clusterfs.Topology.mount in
      let st = Nfs.Client.stats m in
      let f = Nfs.Client.create m "big" in
      let mb = 1024 * 1024 in
      let chunk = Bytes.create 65536 in
      for i = 0 to (10 * mb / 65536) - 1 do
        Nfs.Client.write f ~off:(i * 65536) ~buf:chunk ~len:65536
      done;
      Nfs.Client.fsync f;
      Nfs.Client.invalidate f;
      let buf = Bytes.create 8192 in
      let readseq n =
        for i = 0 to n - 1 do
          ignore (Nfs.Client.read f ~off:(i * 8192) ~buf ~len:8192)
        done
      in
      readseq (10 * mb / 8192);
      let r1 = st.Nfs.Client.ra_issued in
      check_bool "first pass read ahead" true (r1 > 0);
      (* seek back to 0 and re-read the (evicted) first 2 MB *)
      readseq (2 * mb / 8192);
      check_bool
        (Printf.sprintf "read-ahead resumed after the backward seek (%d -> %d)"
           r1 st.Nfs.Client.ra_issued)
        true
        (st.Nfs.Client.ra_issued >= r1 + 8);
      (* wasted prefetch: a short sequential burst triggers cluster
         read-ahead, then the file is dropped before the pages are
         touched *)
      let g = Nfs.Client.create m "short" in
      let b = Bytes.create 65536 in
      for i = 0 to 2 do
        Nfs.Client.write g ~off:(i * 65536) ~buf:b ~len:65536
      done;
      Nfs.Client.fsync g;
      Nfs.Client.invalidate g;
      let w0 = st.Nfs.Client.ra_wasted in
      ignore (Nfs.Client.read g ~off:0 ~buf ~len:8192);
      ignore (Nfs.Client.read g ~off:8192 ~buf ~len:8192);
      (* let the biod's prefetch land before dropping the pages *)
      Sim.Engine.sleep (Clusterfs.Topology.engine t) 1_000_000;
      Nfs.Client.invalidate g;
      check_bool "unused prefetched pages counted as wasted" true
        (st.Nfs.Client.ra_wasted > w0))

(* ---------- the shared window table ---------- *)

module Rs = Ufs.Rstream

let bsize = Ufs.Layout.bsize

let found t ~po ~off w =
  match Rs.find t ~po ~off with Some x -> x == w | None -> false

(* A reader that touched block 0 and read on inside it still matches
   the window it moved on; an aligned re-read of block 0 matches no
   window and counts no miss. *)
let test_table_sub_block () =
  let t = Rs.create () in
  let w = Option.get (Rs.find t ~po:0 ~off:0) in
  Rs.touch t w ~po:0;
  check_bool "a continuation inside the block matches" true
    (found t ~po:0 ~off:4096 w);
  check_bool "an aligned re-read matches nothing" true
    (Rs.find t ~po:0 ~off:0 = None);
  check_bool "and counts nothing" true (Rs.note_miss t ~po:0 = Rs.Reaccess);
  check_bool "the window still predicts block 1" true
    (found t ~po:bsize ~off:bsize w)

(* A miss repoints the never-hit scratch window and hands it back, its
   frontier left where it was; the caller may then reset it. *)
let test_table_repoint () =
  let t = Rs.create () in
  let w0 = Option.get (Rs.mru t) in
  match Rs.note_miss t ~po:(5 * bsize) with
  | Rs.Repointed w ->
      check_bool "the scratch window" true (w == w0);
      Alcotest.(check int) "now predicting block 6" (6 * bsize) w.Rs.nextr;
      Alcotest.(check int) "frontier untouched" 0 w.Rs.ra_off
  | Rs.Reaccess | Rs.Opened _ -> Alcotest.fail "expected a repoint"

(* Stream [i] starts at block [1000 * i] and reads two more blocks, so
   its window is established. *)
let start_stream t i =
  let base = 1000 * i * bsize in
  let w =
    if i = 0 then Option.get (Rs.mru t)
    else
      match Rs.note_miss t ~po:base with
      | Rs.Opened w -> w
      | Rs.Reaccess | Rs.Repointed _ ->
          Alcotest.failf "stream %d: no new window" i
  in
  Rs.touch t w ~po:base;
  Rs.touch t w ~po:(base + bsize);
  w

let test_table_evicts_lru () =
  let t = Rs.create () in
  let ws = List.init 8 (start_stream t) in
  let w8 = start_stream t 8 in
  let next i = (1000 * i * bsize) + (2 * bsize) in
  check_bool "the 9th stream has a window" true
    (found t ~po:(next 8) ~off:(next 8) w8);
  check_bool "the least recent stream lost its window" true
    (Rs.find t ~po:(next 0) ~off:(next 0) = None);
  List.iteri
    (fun i w ->
      if i > 0 then
        check_bool
          (Printf.sprintf "stream %d kept its window" i)
          true
          (found t ~po:(next i) ~off:(next i) w))
    ws

(* A window with one hit is no scratch and not established: it outlives
   4 misses and goes on the 5th. *)
let test_table_expiry () =
  let t = Rs.create () in
  ignore (start_stream t 0);
  let w =
    match Rs.note_miss t ~po:(500 * bsize) with
    | Rs.Opened w -> w
    | Rs.Reaccess | Rs.Repointed _ -> Alcotest.fail "no new window"
  in
  Rs.touch t w ~po:(501 * bsize);
  let miss k = ignore (Rs.note_miss t ~po:((2000 + (10 * k)) * bsize)) in
  let alive () = found t ~po:(502 * bsize) ~off:(502 * bsize) w in
  for k = 1 to 4 do
    miss k
  done;
  check_bool "alive after 4 misses" true (alive ());
  miss 5;
  check_bool "gone after the 5th" false (alive ())

(* ---------- the shared delayed-write run ---------- *)

module Wr = Ufs.Wrun

(* One run, driven row by row: each row adds block [blk] under a cap of
   [cap] blocks and names the runs it pushes and the run it leaves, as
   (first block, blocks); an empty run reads (0, 0). *)
let run_rules =
  [
    ("an empty run starts at the block", 4, 3, [], (4, 1));
    ("the next block extends it", 5, 3, [], (4, 2));
    ("a rewrite of its first block leaves it alone", 4, 3, [], (4, 2));
    ("a rewrite of its last block too", 5, 3, [], (4, 2));
    ("a jump pushes it and starts over", 9, 3, [ (4, 2) ], (9, 1));
    ("a jump back pushes it too", 8, 3, [ (9, 1) ], (8, 1));
    ("the next block extends it", 9, 3, [], (8, 2));
    ("reaching the cap pushes it", 10, 3, [ (8, 3) ], (0, 0));
    ("a pushed block starts a new run", 10, 3, [], (10, 1));
    ( "under a one-block cap the next block pushes both",
      11, 1, [ (10, 1); (11, 1) ], (0, 0) );
    ("a one-block cap pushes every block", 12, 1, [ (12, 1) ], (0, 0));
    ("even a rewrite", 12, 1, [ (12, 1) ], (0, 0));
  ]

let test_run_rules () =
  let t = Wr.create () in
  let pushed = ref [] in
  let push () () ~off ~len =
    check_bool "the run is empty while it is pushed" true (Wr.is_empty t);
    pushed := (off / bsize, len / bsize) :: !pushed
  in
  let run () = (Wr.off t / bsize, Wr.len t / bsize) in
  List.iter
    (fun (what, blk, cap, pushes, after) ->
      pushed := [];
      Wr.add t ~off:(blk * bsize) ~cap:(cap * bsize) push () ();
      Alcotest.(check (list (pair int int))) (what ^ ": pushes") pushes
        (List.rev !pushed);
      Alcotest.(check (pair int int)) (what ^ ": run") after (run ()))
    run_rules;
  Wr.add t ~off:(20 * bsize) ~cap:(3 * bsize) push () ();
  pushed := [];
  Wr.flush t push () ();
  Alcotest.(check (list (pair int int))) "flush pushes the run" [ (20, 1) ]
    !pushed;
  Wr.flush t push () ();
  Alcotest.(check (list (pair int int))) "an empty run pushes nothing"
    [ (20, 1) ] !pushed;
  Wr.add t ~off:(30 * bsize) ~cap:(3 * bsize) push () ();
  Wr.reset t;
  Alcotest.(check (pair int int)) "reset drops the run" (0, 0) (run ());
  Alcotest.(check (list (pair int int))) "without a push" [ (20, 1) ]
    !pushed

let suites =
  [
    ( "streams",
      [
        Alcotest.test_case "figure 10/11 goldens unchanged" `Slow
          test_fig10_golden;
        Alcotest.test_case "interleaved pair ~2x single, local" `Slow
          test_interleaved_local;
        Alcotest.test_case "interleaved pair ~2x single, remote" `Slow
          test_interleaved_remote;
        Alcotest.test_case "write gathering holds at 8 clients" `Slow
          test_write_gather_8_clients;
        Alcotest.test_case "client read-ahead survives backward seek" `Slow
          test_backward_seek;
        Alcotest.test_case "window table: sub-block continuation" `Quick
          test_table_sub_block;
        Alcotest.test_case "window table: scratch repoint" `Quick
          test_table_repoint;
        Alcotest.test_case "window table: 9th stream evicts the LRU" `Quick
          test_table_evicts_lru;
        Alcotest.test_case "window table: expiry after 4 misses" `Quick
          test_table_expiry;
        Alcotest.test_case "write run: the rules, step by step" `Quick
          test_run_rules;
      ] );
  ]
