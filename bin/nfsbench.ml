(* nfsbench — run the paper's I/O benchmark over the simulated network:
   N clients against one NFS server machine.

   Examples:
     dune exec bin/nfsbench.exe -- --config a
     dune exec bin/nfsbench.exe -- --clients 4 --nfsd 8 --phases fsw,fsr
     dune exec bin/nfsbench.exe -- --bandwidth-kb 600 --loss 0.01 -v *)

open Cmdliner

let ( let* ) = Result.bind

let client_path id = Printf.sprintf "/bench%d" id

let transport_of_string = function
  | "fixed" -> Ok Nfs.Rpc.Fixed
  | "adaptive" -> Ok Nfs.Rpc.Adaptive
  | other -> Error (Printf.sprintf "unknown transport %S (want fixed|adaptive)" other)

let topology_of_string = function
  | "p2p" -> Ok Clusterfs.Topology.Point_to_point
  | "shared" -> Ok Clusterfs.Topology.Shared_medium
  | "switched" -> Ok Clusterfs.Topology.Switched
  | other ->
      Error (Printf.sprintf "unknown topology %S (want p2p|shared|switched)" other)

let run config_name clients servers nfsd biods ra_depth file_mb bandwidth_kb
    latency_us loss seed transport topology ports_buffer phases verbose =
  match
    let* config = Clusterfs.Config.of_name config_name in
    let* transport = transport_of_string transport in
    let* topology = topology_of_string topology in
    Ok (config, transport, topology)
  with
  | Error e ->
      prerr_endline e;
      1
  | Ok (config, transport, topology) -> (
      let phases =
        match phases with
        | [] -> Ok [ Workload.Iobench.FSW; Workload.Iobench.FSR ]
        | ps ->
            List.fold_right
              (fun p acc ->
                match (Workload.Iobench.kind_of_string p, acc) with
                | Ok p, Ok acc -> Ok (p :: acc)
                | Error e, _ -> Error e
                | _, (Error _ as e) -> e)
              ps (Ok [])
      in
      match phases with
      | Error e ->
          prerr_endline e;
          1
      | Ok phases ->
          let net =
            {
              Net.default_config with
              Net.bandwidth = bandwidth_kb * 1000;
              latency = Sim.Time.us latency_us;
              loss;
            }
          in
          Printf.printf
            "server%s: config %s, %d nfsd; %d client%s, %d KB/s %s, %d us \
             latency, %.2f%% loss, %s transport\n"
            (if servers = 1 then "" else Printf.sprintf "s x%d" servers)
            (String.uppercase_ascii config_name)
            nfsd clients
            (if clients = 1 then "" else "s")
            bandwidth_kb
            (match topology with
            | Clusterfs.Topology.Point_to_point -> "links"
            | Clusterfs.Topology.Shared_medium -> "shared wire"
            | Clusterfs.Topology.Switched -> "switched fabric")
            latency_us (loss *. 100.)
            (match transport with
            | Nfs.Rpc.Fixed -> "fixed-timeout"
            | Nfs.Rpc.Adaptive -> "adaptive");
          let t =
            Clusterfs.Topology.create ~net ~seed ~topology ~transport ~nfsd
              ?biods ?ra_depth ~servers ?ports_buffer ~clients config
          in
          let cfg id =
            {
              Workload.Iobench.default_config with
              Workload.Iobench.file_mb;
              path = client_path id;
            }
          in
          (* non-FSW-first phase lists need the files to exist *)
          (match phases with
          | Workload.Iobench.FSW :: _ -> ()
          | _ -> Clusterfs.Experiments.prepare_cold t cfg);
          Printf.printf "\n%-6s %12s %12s %12s %12s\n" "phase" "agg KB/s"
            "KB/s min" "KB/s mean" "KB/s max";
          List.iter
            (fun phase ->
              let results =
                Array.make clients
                  {
                    Workload.Iobench.kind = phase;
                    bytes_moved = 0;
                    elapsed = Sim.Time.zero;
                    kb_per_sec = 0.;
                    sys_cpu = Sim.Time.zero;
                  }
              in
              Clusterfs.Topology.run_clients t (fun c ->
                  let id = c.Clusterfs.Topology.id in
                  let mount = Clusterfs.Topology.shard t c (client_path id) in
                  results.(id) <-
                    Workload.Iobench.run_phase
                      (Workload.Iobench.remote mount)
                      (cfg id) phase);
              (* drop every file from its server's page cache so the
                 next phase pays the disk reads a local cold start does *)
              for id = 0 to clients - 1 do
                Clusterfs.Experiments.cool_server_file t (client_path id)
              done;
              let bytes =
                Array.fold_left
                  (fun a r -> a + r.Workload.Iobench.bytes_moved)
                  0 results
              in
              let window =
                Array.fold_left
                  (fun a r -> max a r.Workload.Iobench.elapsed)
                  Sim.Time.zero results
              in
              let rates =
                Array.map (fun r -> r.Workload.Iobench.kb_per_sec) results
              in
              let agg =
                if window = Sim.Time.zero then 0.
                else float_of_int bytes /. 1024. /. Sim.Time.to_sec_float window
              in
              Printf.printf "%-6s %12.0f %12.0f %12.0f %12.0f\n"
                (Workload.Iobench.kind_to_string phase)
                agg
                (Array.fold_left min rates.(0) rates)
                (Array.fold_left ( +. ) 0. rates /. float_of_int clients)
                (Array.fold_left max rates.(0) rates))
            phases;
          if verbose then begin
            Array.iter
              (fun c ->
                let id = c.Clusterfs.Topology.id in
                let calls, retrans, late =
                  Array.fold_left
                    (fun (cl, rt, lt) m ->
                      let r = Nfs.Rpc.stats m.Clusterfs.Topology.m_rpc in
                      ( cl + r.Nfs.Rpc.calls,
                        rt + r.Nfs.Rpc.retransmits,
                        lt + r.Nfs.Rpc.late_replies ))
                    (0, 0, 0) c.Clusterfs.Topology.mounts
                in
                let hits, misses, rai, rau, gath, dsl =
                  Array.fold_left
                    (fun (h, m, ri, ru, g, d) mp ->
                      let s = Nfs.Client.stats mp.Clusterfs.Topology.m_mount in
                      ( h + s.Nfs.Client.cache_hits,
                        m + s.Nfs.Client.cache_misses,
                        ri + s.Nfs.Client.ra_issued,
                        ru + s.Nfs.Client.ra_used,
                        g + s.Nfs.Client.write_gathers,
                        d + s.Nfs.Client.dirty_sleeps ))
                    (0, 0, 0, 0, 0, 0) c.Clusterfs.Topology.mounts
                in
                (match Clusterfs.Topology.client_link c with
                | Some link ->
                    let l = Net.stats link in
                    Printf.printf
                      "\nclient %d: %d calls (%d retrans, %d late), link %d \
                       msgs / %d KB, %d drops\n"
                      id calls retrans late l.Net.msgs_sent
                      (l.Net.bytes_sent / 1024) l.Net.drops
                | None ->
                    Printf.printf "\nclient %d: %d calls (%d retrans, %d late)\n"
                      id calls retrans late);
                Printf.printf
                  "  cache: %d hits / %d misses, ra %d issued (%d used), %d \
                   gathers, %d dirty sleeps\n"
                  hits misses rai rau gath dsl)
              t.Clusterfs.Topology.clients;
            Array.iteri
              (fun j svc ->
                let sv = Nfs.Server.stats svc in
                Printf.printf
                  "\nserver %d: %d calls received, %d dup hits, %d busy drops, \
                   queue wait %.2f ms mean\n"
                  j sv.Nfs.Server.received sv.Nfs.Server.dup_hits
                  sv.Nfs.Server.dup_busy_drops
                  (Sim.Stats.Summary.mean sv.Nfs.Server.queue_wait_us /. 1000.);
                List.iter
                  (fun op ->
                    let n = Nfs.Server.applied svc op in
                    if n > 0 then Printf.printf "  %-8s applied %6d\n" op n)
                  Nfs.Proto.op_names)
              t.Clusterfs.Topology.services;
            match Clusterfs.Topology.switch t with
            | Some sw ->
                let st = Net.Switch.stats sw in
                Printf.printf
                  "\nswitch: %d frames, %d overflow drops, occupancy high-water \
                   %d, max port util %.1f%%\n"
                  st.Net.Switch.frames_sent st.Net.Switch.overflows
                  st.Net.Switch.occ_hwm
                  (Net.Switch.max_port_utilization sw *. 100.)
            | None -> ()
          end;
          0)

let config_t =
  Arg.(
    value & opt string "a" & info [ "config"; "c" ] ~doc:"Paper config: a, b, c or d.")

let clients_t =
  Arg.(value & opt int 1 & info [ "clients" ] ~doc:"Number of client nodes.")

let servers_t =
  Arg.(
    value & opt int 1
    & info [ "servers" ]
        ~doc:
          "Number of server machines; the namespace is spread across them \
           by a hash of the path.")

let nfsd_t =
  Arg.(value & opt int 4 & info [ "nfsd" ] ~doc:"Server worker pool size.")

let biods_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "biods" ] ~doc:"Client I/O daemons (default 4).")

let ra_depth_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "ra-depth" ] ~doc:"Client read-ahead depth in clusters (default 2).")

let file_mb_t =
  Arg.(value & opt int 4 & info [ "file-mb" ] ~doc:"Per-client file size in MB.")

let bandwidth_t =
  Arg.(
    value
    & opt int 12_500
    & info [ "bandwidth-kb" ] ~doc:"Link bandwidth in KB/s per client.")

let latency_t =
  Arg.(value & opt int 500 & info [ "latency-us" ] ~doc:"Link latency in us.")

let loss_t =
  Arg.(
    value
    & opt float 0.
    & info [ "loss" ] ~doc:"Per-message drop probability, 0 <= p < 1.")

let seed_t =
  Arg.(value & opt int 0 & info [ "seed" ] ~doc:"Fault-injection seed.")

let transport_t =
  Arg.(
    value
    & opt string "fixed"
    & info [ "transport" ]
        ~doc:
          "RPC retransmission strategy: fixed (NFSv2 timers) or adaptive \
           (srtt/rttvar RTO + AIMD congestion window).")

let topology_t =
  Arg.(
    value
    & opt string "p2p"
    & info [ "topology" ]
        ~doc:
          "Network wiring: p2p (a private link per client), shared (one \
           Ethernet-class medium all stations contend for) or switched (a \
           store-and-forward switch with a full-duplex port per machine).")

let ports_buffer_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "ports-buffer" ]
        ~doc:
          "Switch output-port buffer in frames (default 64); overflowing \
           frames are tail-dropped.")

let phases_t =
  Arg.(
    value
    & opt (list string) []
    & info [ "phases" ]
        ~doc:"Comma-separated subset of fsw,fsu,fsr,frr,fru (default fsw,fsr).")

let verbose_t =
  Arg.(
    value & flag
    & info [ "verbose"; "v" ] ~doc:"Print per-client, server and link statistics.")

let cmd =
  let doc = "IObench over simulated NFS: clustered UFS served to many clients" in
  Cmd.v
    (Cmd.info "nfsbench" ~doc)
    Term.(
      const run $ config_t $ clients_t $ servers_t $ nfsd_t $ biods_t
      $ ra_depth_t $ file_mb_t $ bandwidth_t $ latency_t $ loss_t $ seed_t
      $ transport_t $ topology_t $ ports_buffer_t $ phases_t $ verbose_t)

let () = exit (Cmd.eval' cmd)
