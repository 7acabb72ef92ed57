(* benchdiff — the bench regression gate.

   The simulator is deterministic, so every number in a BENCH_*.json
   metrics snapshot is reproducible bit-for-bit; what changes them is a
   code change.  This tool pins a snapshot as a committed baseline and
   compares later runs against it, metric by metric, with per-metric
   tolerances — CI runs the check and goes red when a change moves a
   gated number beyond its tolerance.  Intentional changes re-record.

     benchdiff record BENCH_fio.json -o bench/baselines/fio.json
     benchdiff check  BENCH_fio.json -b bench/baselines/fio.json

   Baselines are plain JSON and hand-editable: loosen one metric's
   rel_tol / abs_tol, or delete an entry to stop gating it. *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_file path =
  match Sim.Json.parse (read_file path) with
  | Ok j -> j
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)

(* ---------- flattening a metrics snapshot ---------- *)

(* One gatable scalar: a metric value, or one scalar field of a summary
   ("queue_wait_us.p99"); histograms contribute their count. *)
type entry = { layer : string; instance : string; metric : string; v : float }

let summary_fields =
  [ "count"; "mean"; "min"; "max"; "total"; "p50"; "p95"; "p99" ]

let flatten (j : Sim.Json.t) =
  let entries = ref [] in
  let push layer instance metric v =
    entries := { layer; instance; metric; v } :: !entries
  in
  List.iter
    (fun src ->
      let field name = Option.bind (Sim.Json.member name src) Sim.Json.str in
      match (field "layer", field "instance", Sim.Json.member "metrics" src) with
      | Some layer, Some instance, Some (Sim.Json.Obj metrics) ->
          List.iter
            (fun (name, v) ->
              match v with
              | Sim.Json.Num f -> push layer instance name f
              | Sim.Json.Obj _ when Sim.Json.member "buckets" v <> None -> (
                  (* histogram: gate on the count *)
                  match Option.bind (Sim.Json.member "count" v) Sim.Json.num with
                  | Some c -> push layer instance (name ^ ".count") c
                  | None -> ())
              | Sim.Json.Obj _ ->
                  List.iter
                    (fun fld ->
                      match
                        Option.bind (Sim.Json.member fld v) Sim.Json.num
                      with
                      | Some f -> push layer instance (name ^ "." ^ fld) f
                      | None -> () (* null: nan/inf — not gatable *))
                    summary_fields
              | _ -> ())
            metrics
      | _ -> ())
    (match Sim.Json.member "sources" j with
    | Some l -> Sim.Json.to_list l
    | None -> failwith "not a metrics snapshot (no \"sources\")");
  (* a snapshot with duplicate keys (same layer/instance/metric twice)
     must still gate deterministically: disambiguate repeats in document
     order, identically at record and check time *)
  let seen = Hashtbl.create 256 in
  List.rev !entries
  |> List.map (fun e ->
         let k = (e.layer, e.instance, e.metric) in
         match Hashtbl.find_opt seen k with
         | None ->
             Hashtbl.replace seen k 1;
             e
         | Some n ->
             Hashtbl.replace seen k (n + 1);
             { e with metric = Printf.sprintf "%s#%d" e.metric (n + 1) })

(* ---------- record ---------- *)

let record bench_path out rel_tol abs_tol =
  let j = parse_file bench_path in
  let section =
    match Option.bind (Sim.Json.member "section" j) Sim.Json.str with
    | Some s -> s
    | None -> Filename.remove_extension (Filename.basename bench_path)
  in
  let entries = flatten j in
  (* values keep all 17 digits; tolerances are recorded to 6 *)
  let tol f = Sim.Json.Num (float_of_string (Printf.sprintf "%g" f)) in
  let entry e =
    Sim.Json.Obj
      [
        ("layer", Sim.Json.Str e.layer);
        ("instance", Sim.Json.Str e.instance);
        ("metric", Sim.Json.Str e.metric);
        ("value", Sim.Json.Num e.v);
      ]
  in
  let doc =
    Sim.Json.to_string
      (Sim.Json.Obj
         [
           ("section", Sim.Json.Str section);
           ("rel_tol", tol rel_tol);
           ("abs_tol", tol abs_tol);
           ("entries", Sim.Json.List (List.map entry entries));
         ])
    ^ "\n"
  in
  (match out with
  | Some path ->
      let oc = open_out path in
      output_string oc doc;
      close_out oc;
      Printf.printf "recorded %d metrics from %s -> %s\n" (List.length entries)
        bench_path path
  | None -> print_string doc);
  0

(* ---------- check ---------- *)

let check bench_path baseline_path =
  let cur = flatten (parse_file bench_path) in
  let base = parse_file baseline_path in
  let def name d =
    Option.value ~default:d (Option.bind (Sim.Json.member name base) Sim.Json.num)
  in
  let default_rel = def "rel_tol" 0. and default_abs = def "abs_tol" 0. in
  let lookup e =
    List.find_opt
      (fun c ->
        c.layer = e.layer && c.instance = e.instance && c.metric = e.metric)
      cur
  in
  let checked = ref 0 and breaches = ref [] in
  List.iter
    (fun bj ->
      let field name = Option.bind (Sim.Json.member name bj) Sim.Json.str in
      let numf name = Option.bind (Sim.Json.member name bj) Sim.Json.num in
      match (field "layer", field "instance", field "metric", numf "value") with
      | Some layer, Some instance, Some metric, Some expect ->
          incr checked;
          let rel = Option.value ~default:default_rel (numf "rel_tol") in
          let abs = Option.value ~default:default_abs (numf "abs_tol") in
          let e = { layer; instance; metric; v = expect } in
          let tol = Float.max abs (rel *. Float.abs expect) in
          (match lookup e with
          | None -> breaches := (e, None, tol) :: !breaches
          | Some c ->
              if Float.abs (c.v -. expect) > tol then
                breaches := (e, Some c.v, tol) :: !breaches)
      | _ -> failwith (Printf.sprintf "%s: malformed entry" baseline_path))
    (match Sim.Json.member "entries" base with
    | Some l -> Sim.Json.to_list l
    | None -> failwith (Printf.sprintf "%s: no \"entries\"" baseline_path));
  let breaches = List.rev !breaches in
  Printf.printf "benchdiff: %s vs %s: %d gated, %d breached\n" bench_path
    baseline_path !checked (List.length breaches);
  if breaches <> [] then begin
    Printf.printf "  %-10s %-14s %-26s %14s %14s %10s\n" "layer" "instance"
      "metric" "baseline" "current" "tol";
    List.iter
      (fun (e, cv, tol) ->
        Printf.printf "  %-10s %-14s %-26s %14.6g %14s %10.4g\n" e.layer
          e.instance e.metric e.v
          (match cv with Some v -> Printf.sprintf "%.6g" v | None -> "MISSING")
          tol)
      breaches;
    Printf.printf
      "  (intentional change?  re-record: benchdiff record %s -o %s)\n"
      bench_path baseline_path;
    1
  end
  else 0

(* ---------- CLI ---------- *)

let bench_t =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"BENCH.json" ~doc:"Metrics snapshot from a bench run.")

let record_cmd =
  let out_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Baseline destination (default: stdout).")
  in
  let rel_t =
    Arg.(
      value & opt float 0.01
      & info [ "rel-tol" ] ~doc:"Default relative tolerance baked in.")
  in
  let abs_t =
    Arg.(
      value & opt float 0.
      & info [ "abs-tol" ] ~doc:"Default absolute tolerance baked in.")
  in
  Cmd.v
    (Cmd.info "record" ~doc:"pin a bench snapshot as a baseline")
    Term.(const record $ bench_t $ out_t $ rel_t $ abs_t)

let check_cmd =
  let baseline_t =
    Arg.(
      required
      & opt (some file) None
      & info [ "b"; "baseline" ] ~docv:"FILE" ~doc:"Committed baseline.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"compare a bench snapshot against a baseline; exit 1 on breach")
    Term.(const check $ bench_t $ baseline_t)

let cmd =
  Cmd.group
    (Cmd.info "benchdiff" ~doc:"bench metrics regression gate")
    [ record_cmd; check_cmd ]

let () =
  match Cmd.eval_value' cmd with
  | `Exit c -> exit c
  | `Ok c -> exit c
