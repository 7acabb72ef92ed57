(* fiobench — run declarative fio-style workload specs against the
   simulated file system, locally or over NFS, with a per-layer cost
   breakdown of where the simulated op time went.

   Examples:
     dune exec bin/fiobench.exe                      # canned scenarios, both targets
     dune exec bin/fiobench.exe -- db-oltp --target local
     dune exec bin/fiobench.exe -- 'name=x file=x rw=randread bs=4k size=2m'
     dune exec bin/fiobench.exe -- job.fio --clients 4 --json out.json *)

open Cmdliner

let scenario_of_name name =
  List.find_opt
    (fun s -> s.Fio.Spec.name = name)
    Fio.Scenarios.all

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let resolve_specs = function
  | [] -> Ok Fio.Scenarios.all
  | args ->
      List.fold_right
        (fun arg acc ->
          match acc with
          | Error _ as e -> e
          | Ok specs -> (
              match scenario_of_name arg with
              | Some s -> Ok (s :: specs)
              | None -> (
                  let text = if Sys.file_exists arg then read_file arg else arg in
                  match Fio.Spec.parse text with
                  | Ok s -> Ok (s :: specs)
                  | Error e ->
                      Error (Printf.sprintf "spec %S: %s" arg e))))
        args (Ok [])

let run_target config clients servers topology ports_buffer spec = function
  | `Local -> [ Fio.Scenarios.run_local ~config spec ]
  | `Remote ->
      [
        Fio.Scenarios.run_remote ~config ~clients ~servers ?topology
          ?ports_buffer spec;
      ]
  | `Both ->
      [
        Fio.Scenarios.run_local ~config spec;
        Fio.Scenarios.run_remote ~config ~clients ~servers ?topology
          ?ports_buffer spec;
      ]

let topology_of_string = function
  | "p2p" -> Ok (Some Clusterfs.Topology.Point_to_point)
  | "shared" -> Ok (Some Clusterfs.Topology.Shared_medium)
  | "switched" -> Ok (Some Clusterfs.Topology.Switched)
  | other ->
      Error (Printf.sprintf "unknown topology %S (want p2p|shared|switched)" other)

let run specs config_name clients servers topology ports_buffer target json
    trace =
  match
    ( resolve_specs specs,
      Clusterfs.Config.of_name config_name,
      (match String.lowercase_ascii target with
      | "local" -> Ok `Local
      | "remote" -> Ok `Remote
      | "both" -> Ok `Both
      | other ->
          Error (Printf.sprintf "unknown target %S (want local|remote|both)" other)),
      topology_of_string (String.lowercase_ascii topology) )
  with
  | Error e, _, _, _ | _, Error e, _, _ | _, _, Error e, _ | _, _, _, Error e
    ->
      prerr_endline e;
      1
  | Ok specs, Ok config, Ok target, Ok topology ->
      let recorder =
        Option.map (fun _ -> Sim.Span.create_recorder ()) trace
      in
      let go () =
        List.concat_map
          (fun s ->
            run_target config clients servers topology ports_buffer s target)
          specs
      in
      let reports =
        match recorder with
        | Some r -> Sim.Span.with_recorder r go
        | None -> go ()
      in
      List.iter (fun r -> print_string (Fio.Report.to_text r)) reports;
      (match (trace, recorder) with
      | Some path, Some r ->
          let oc = open_out path in
          output_string oc (Sim.Span.to_chrome r);
          close_out oc;
          Printf.printf "wrote %s (%d traces)\n" path
            (List.length (Sim.Span.export_roots r));
          print_string (Sim.Span.render_slowest r)
      | _ -> ());
      (match json with
      | None -> ()
      | Some path ->
          let oc = open_out path in
          output_string oc
            (Sim.Json.to_string (Sim.Json.List (List.map Fio.Report.json reports)));
          output_char oc '\n';
          close_out oc;
          Printf.printf "wrote %s\n" path);
      0

let specs_t =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"SPEC"
        ~doc:
          "Workload: a canned scenario name (db-oltp, backup, mixed, \
           ilv-single, ilv-pair, strided), a spec file, or an inline \
           'key=value ...' spec.  Default: all canned scenarios.")

let config_t =
  Arg.(
    value & opt string "a"
    & info [ "config"; "c" ] ~doc:"Paper config: a, b, c or d.")

let clients_t =
  Arg.(
    value & opt int 2
    & info [ "clients" ] ~doc:"Client nodes for the remote target.")

let servers_t =
  Arg.(
    value & opt int 1
    & info [ "servers" ]
        ~doc:
          "Server machines for the remote target; private-file jobs \
           round-robin over them, shared files land where the namespace \
           hash says.")

let topology_fio_t =
  Arg.(
    value & opt string "p2p"
    & info [ "topology" ]
        ~doc:"Remote wiring: p2p, shared or switched.")

let ports_buffer_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "ports-buffer" ]
        ~doc:"Switch output-port buffer in frames (switched topology).")

let target_t =
  Arg.(
    value & opt string "both"
    & info [ "target"; "t" ] ~doc:"Where to run: local, remote or both.")

let json_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE" ~doc:"Also write reports as JSON.")

let trace_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record span trees for every op and write a Chrome trace-event \
           JSON file (load it in Perfetto / chrome://tracing); also prints \
           the slowest captured op trees.  Simulated results are identical \
           with or without tracing.")

let cmd =
  let doc = "declarative fio-style workloads with per-layer cost attribution" in
  Cmd.v
    (Cmd.info "fiobench" ~doc)
    Term.(
      const run $ specs_t $ config_t $ clients_t $ servers_t $ topology_fio_t
      $ ports_buffer_t $ target_t $ json_t $ trace_t)

let () = exit (Cmd.eval' cmd)
