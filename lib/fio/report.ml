type t = {
  spec : Spec.t;
  target : string;
  jobs : Run.job_result list;
}

let make spec ~target jobs = { spec; target; jobs }

let floats_of (j : Run.job_result) =
  Array.map float_of_int j.Run.lat_us

let job_percentile (j : Run.job_result) p =
  if Array.length j.Run.lat_us = 0 then 0.
  else Sim.Stats.percentile (floats_of j) p

let pooled t =
  Array.concat (List.map floats_of t.jobs)

let aggregate_percentile t p =
  let all = pooled t in
  if Array.length all = 0 then 0. else Sim.Stats.percentile all p

let total_ops t =
  List.fold_left
    (fun acc (j : Run.job_result) -> acc + j.Run.read_ops + j.Run.write_ops)
    0 t.jobs

let total_bytes t =
  List.fold_left (fun acc (j : Run.job_result) -> acc + j.Run.bytes) 0 t.jobs

(* jobs start together, so the slowest job's wall time is the run's *)
let wall_us t =
  List.fold_left
    (fun acc (j : Run.job_result) -> max acc j.Run.wall_us)
    0 t.jobs

let iops t =
  let w = wall_us t in
  if w = 0 then 0.
  else float_of_int (total_ops t) /. Sim.Time.to_sec_float w

let bandwidth_kbps t =
  let w = wall_us t in
  if w = 0 then 0.
  else float_of_int (total_bytes t) /. 1024. /. Sim.Time.to_sec_float w

let cost_rows t =
  let tbl = Hashtbl.create 16 in
  let denom = ref 0 in
  List.iter
    (fun (j : Run.job_result) ->
      denom := !denom + j.Run.lat_total_us;
      List.iter
        (fun (phase, us) ->
          let cur =
            match Hashtbl.find_opt tbl phase with Some r -> r | None ->
              let r = ref 0 in
              Hashtbl.replace tbl phase r;
              r
          in
          cur := !cur + us)
        j.Run.cost)
    t.jobs;
  let charged = Hashtbl.fold (fun _ r acc -> acc + !r) tbl 0 in
  let rows =
    Hashtbl.fold (fun phase r acc -> (phase, !r) :: acc) tbl []
  in
  (* the remainder is time the op was not blocked anywhere we meter:
     its own CPU charges, page-cache copies and lock waits *)
  let rows = ("unattributed", max 0 (!denom - charged)) :: rows in
  let pct us =
    if !denom = 0 then 0. else 100. *. float_of_int us /. float_of_int !denom
  in
  List.map (fun (phase, us) -> (phase, us, pct us))
    (List.sort
       (fun (pa, a) (pb, b) ->
         let c = compare b a in
         if c <> 0 then c else compare pa pb)
       rows)

(* ---------- text ---------- *)

let to_text t =
  let b = Buffer.create 1024 in
  let p fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  p "fio %s [%s]: %s\n" t.spec.Spec.name t.target (Spec.to_string t.spec);
  List.iter
    (fun (j : Run.job_result) ->
      let ops = j.Run.read_ops + j.Run.write_ops in
      let secs = Sim.Time.to_sec_float j.Run.wall_us in
      p
        "  job %d: %d ops (%dr/%dw), %.1f KB/s, %.0f iops, lat p50=%.0fus \
         p95=%.0fus p99=%.0fus, fsync=%dus\n"
        j.Run.job ops j.Run.read_ops j.Run.write_ops
        (if secs = 0. then 0. else float_of_int j.Run.bytes /. 1024. /. secs)
        (if secs = 0. then 0. else float_of_int ops /. secs)
        (job_percentile j 50.) (job_percentile j 95.) (job_percentile j 99.)
        j.Run.fsync_us)
    t.jobs;
  p "  aggregate: %d ops, %.1f KB/s, %.0f iops, lat p50=%.0fus p95=%.0fus \
     p99=%.0fus\n"
    (total_ops t) (bandwidth_kbps t) (iops t) (aggregate_percentile t 50.)
    (aggregate_percentile t 95.) (aggregate_percentile t 99.);
  p "  cost breakdown (%% of op time):\n";
  List.iter
    (fun (phase, us, pct) ->
      if us > 0 then p "    %-16s %8dus  %5.1f%%\n" phase us pct)
    (cost_rows t);
  Buffer.contents b

(* ---------- json ---------- *)

(* 3 decimals, nan as 0 *)
let num f =
  Sim.Json.Num
    (if Float.is_nan f then 0. else float_of_string (Printf.sprintf "%.3f" f))

let int n = Sim.Json.Num (float_of_int n)

let lat_us pct =
  Sim.Json.Obj [ ("p50", num (pct 50.)); ("p95", num (pct 95.)); ("p99", num (pct 99.)) ]

let json t =
  let job (j : Run.job_result) =
    Sim.Json.Obj
      [
        ("job", int j.Run.job);
        ("read_ops", int j.Run.read_ops);
        ("write_ops", int j.Run.write_ops);
        ("bytes", int j.Run.bytes);
        ("wall_us", int j.Run.wall_us);
        ("fsync_us", int j.Run.fsync_us);
        ("lat_us", lat_us (job_percentile j));
      ]
  in
  Sim.Json.Obj
    [
      ("name", Sim.Json.Str t.spec.Spec.name);
      ("target", Sim.Json.Str t.target);
      ("spec", Sim.Json.Str (Spec.to_string t.spec));
      ( "aggregate",
        Sim.Json.Obj
          [
            ("ops", int (total_ops t));
            ("bytes", int (total_bytes t));
            ("wall_us", int (wall_us t));
            ("iops", num (iops t));
            ("bw_kbps", num (bandwidth_kbps t));
            ("lat_us", lat_us (aggregate_percentile t));
          ] );
      ("jobs", Sim.Json.List (List.map job t.jobs));
      ( "cost_pct",
        Sim.Json.Obj (List.map (fun (phase, _us, pct) -> (phase, num pct)) (cost_rows t)) );
    ]

let to_json t = Sim.Json.to_string (json t) ^ "\n"

let register_metrics t reg ~instance =
  Sim.Metrics.register reg ~layer:"fio" ~instance (fun () ->
      let job_summaries =
        List.map
          (fun (j : Run.job_result) ->
            let s = Sim.Stats.Summary.create () in
            Array.iter
              (fun l -> Sim.Stats.Summary.add_int s l)
              j.Run.lat_us;
            ( Printf.sprintf "job%d_lat_us" j.Run.job,
              Sim.Metrics.Summary s ))
          t.jobs
      in
      let cost =
        List.filter_map
          (fun (phase, us, pct) ->
            if us = 0 then None
            else Some ("cost_" ^ phase ^ "_pct", Sim.Metrics.Float pct))
          (cost_rows t)
      in
      [
        ("ops", Sim.Metrics.Int (total_ops t));
        ("bytes", Sim.Metrics.Int (total_bytes t));
        ("wall_us", Sim.Metrics.Int (wall_us t));
        ("iops", Sim.Metrics.Float (iops t));
        ("bw_kbps", Sim.Metrics.Float (bandwidth_kbps t));
      ]
      @ job_summaries @ cost)
