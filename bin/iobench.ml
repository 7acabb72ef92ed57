(* iobench — run the paper's I/O benchmark on a simulated machine.

   Examples:
     dune exec bin/iobench.exe -- --config a
     dune exec bin/iobench.exe -- --config d --file-mb 8 --phases fsw,fsr
     dune exec bin/iobench.exe -- --cluster-kb 56 --rotdelay 0 --memory-mb 16 *)

open Cmdliner

let run config_name file_mb random_ops cluster_kb rotdelay memory_mb
    no_free_behind write_limit_kb phases verbose =
  match Clusterfs.Config.of_name config_name with
  | Error e ->
      prerr_endline e;
      1
  | Ok config -> (
      let config =
        Option.fold ~none:config
          ~some:(Clusterfs.Config.with_cluster_kb config)
          cluster_kb
      in
      let config =
        Option.fold ~none:config
          ~some:(Clusterfs.Config.with_rotdelay config)
          rotdelay
      in
      let config = Clusterfs.Config.with_memory_mb config memory_mb in
      let config =
        if no_free_behind then Clusterfs.Config.with_free_behind config false
        else config
      in
      let config =
        match write_limit_kb with
        | None -> config
        | Some 0 -> Clusterfs.Config.with_write_limit config None
        | Some kb -> Clusterfs.Config.with_write_limit config (Some (kb * 1024))
      in
      let phases =
        match phases with
        | [] -> Ok Workload.Iobench.all_kinds
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
          let bench_cfg =
            { Workload.Iobench.default_config with Workload.Iobench.file_mb; random_ops }
          in
          Printf.printf
            "machine: %dMB RAM, %s disk; fs: cluster %dKB, rotdelay %dms, \
             free-behind %b, write limit %s\n"
            config.Clusterfs.Config.memory_mb
            (Printf.sprintf "%dMB"
               (Disk.Geom.capacity_bytes config.Clusterfs.Config.disk.Disk.Device.geom
               / 1_000_000))
            (config.Clusterfs.Config.mkfs.Ufs.Fs.maxcontig * Ufs.Layout.bsize / 1024)
            config.Clusterfs.Config.mkfs.Ufs.Fs.rotdelay_ms
            config.Clusterfs.Config.features.Ufs.Types.free_behind
            (match config.Clusterfs.Config.features.Ufs.Types.write_limit with
            | None -> "none"
            | Some n -> Printf.sprintf "%dKB" (n / 1024));
          let m = Clusterfs.Machine.create config in
          let results =
            Clusterfs.Machine.run m (fun m ->
                let io = Workload.Iobench.local m.Clusterfs.Machine.fs in
                (* non-FSW phases need the file to exist *)
                if not (List.mem Workload.Iobench.FSW phases) then
                  Workload.Iobench.prepare io bench_cfg;
                List.map (Workload.Iobench.run_phase io bench_cfg) phases)
          in
          Printf.printf "\n%-6s %12s %12s %12s\n" "phase" "KB/s" "elapsed"
            "sys CPU";
          List.iter
            (fun (r : Workload.Iobench.result) ->
              Printf.printf "%-6s %12.0f %12s %12s\n"
                (Workload.Iobench.kind_to_string r.Workload.Iobench.kind)
                r.Workload.Iobench.kb_per_sec
                (Sim.Time.to_string r.Workload.Iobench.elapsed)
                (Sim.Time.to_string r.Workload.Iobench.sys_cpu))
            results;
          if verbose then begin
            let s = m.Clusterfs.Machine.fs.Ufs.Types.stats in
            Printf.printf
              "\nfs: pgin %d I/Os (%d blocks), ra %d (%d), push %d (%d), \
               free-behind %d, wlimit sleeps %d\n"
              s.Ufs.Types.pgin_ios s.Ufs.Types.pgin_blocks s.Ufs.Types.ra_ios
              s.Ufs.Types.ra_blocks s.Ufs.Types.push_ios s.Ufs.Types.push_blocks
              s.Ufs.Types.freebehind_pages s.Ufs.Types.wlimit_sleeps;
            let d = Disk.Blkdev.stats m.Clusterfs.Machine.dev in
            Printf.printf
              "disk: %d reads, %d writes, busy %s (seek %s, rot %s, xfer %s)\n"
              d.Disk.Blkdev.reads d.Disk.Blkdev.writes
              (Sim.Time.to_string d.Disk.Blkdev.busy_time)
              (Sim.Time.to_string d.Disk.Blkdev.seek_time)
              (Sim.Time.to_string d.Disk.Blkdev.rot_wait)
              (Sim.Time.to_string d.Disk.Blkdev.transfer_time)
          end;
          0)

let config_t =
  Arg.(value & opt string "a" & info [ "config"; "c" ] ~doc:"Paper config: a, b, c or d.")

let file_mb_t =
  Arg.(value & opt int 16 & info [ "file-mb" ] ~doc:"Benchmark file size in MB.")

let random_ops_t =
  Arg.(value & opt int 2048 & info [ "random-ops" ] ~doc:"Requests per random phase.")

let cluster_kb_t =
  Arg.(value & opt (some int) None & info [ "cluster-kb" ] ~doc:"Override cluster size (KB).")

let rotdelay_t =
  Arg.(value & opt (some int) None & info [ "rotdelay" ] ~doc:"Override rotdelay (ms).")

let memory_mb_t =
  Arg.(value & opt int 8 & info [ "memory-mb" ] ~doc:"Machine memory in MB.")

let no_free_behind_t =
  Arg.(value & flag & info [ "no-free-behind" ] ~doc:"Disable free-behind.")

let write_limit_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "write-limit-kb" ] ~doc:"Per-file write limit in KB (0 = none).")

let phases_t =
  Arg.(
    value
    & opt (list string) []
    & info [ "phases" ] ~doc:"Comma-separated subset of fsw,fsu,fsr,frr,fru.")

let verbose_t = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print I/O statistics.")

let cmd =
  let doc = "IObench on a simulated SunOS machine (McVoy & Kleiman, USENIX 1991)" in
  Cmd.v
    (Cmd.info "iobench" ~doc)
    Term.(
      const run $ config_t $ file_mb_t $ random_ops_t $ cluster_kb_t
      $ rotdelay_t $ memory_mb_t $ no_free_behind_t $ write_limit_t $ phases_t
      $ verbose_t)

let () = exit (Cmd.eval' cmd)
