(* blktrace — run a workload on a simulated machine and dump the disk
   request trace as CSV (virtual time, member disk, kind, sector, count,
   track-buffer hit), for studying the I/O patterns the paper draws as
   figures.  With --disks > 1 the machine mounts on a volume and the
   member column shows which spindle served each request — e.g. how an
   8 KB stripe unit shatters 120 KB clusters into per-member fragments.

   Examples:
     dune exec bin/blktrace.exe -- --config a --workload fsw | head
     dune exec bin/blktrace.exe -- --config d --workload fsr --file-mb 2
     dune exec bin/blktrace.exe -- --config a --workload fsr --disks 4 --layout stripe --stripe-kb 8 *)

open Cmdliner

let full_config config_name disks layout stripe_kb =
  match Clusterfs.Config.of_name config_name with
  | Error _ as e -> e
  | Ok base -> (
      match Disk.Blkdev.layout_of_string (String.lowercase_ascii layout) with
      | exception Invalid_argument _ ->
          Error
            (Printf.sprintf "unknown layout %S (want concat|stripe|mirror)"
               layout)
      | l ->
          if disks < 1 then Error "--disks must be >= 1"
          else if stripe_kb < 1 then Error "--stripe-kb must be >= 1"
          else Ok (Clusterfs.Config.with_vol base ~layout:l ~stripe_kb disks))

let run config_name workload file_mb disks layout stripe_kb metrics_path =
  match full_config config_name disks layout stripe_kb with
  | Error e ->
      prerr_endline e;
      1
  | Ok config ->
      let m = Clusterfs.Machine.create config in
      let reg = Sim.Metrics.create () in
      Clusterfs.Machine.register_metrics m reg;
      let dev = m.Clusterfs.Machine.dev in
      (* one observer per member drive; drives report in service order,
         so sorting by (time, member) only orders same-instant requests
         across members *)
      let log = ref [] in
      let trace_on () =
        Array.iteri
          (fun i d ->
            Disk.Device.observe d (Some (fun e -> log := (i, e) :: !log)))
          (Disk.Blkdev.members dev)
      in
      let cfg =
        { Workload.Iobench.default_config with Workload.Iobench.file_mb }
      in
      let body (m : Clusterfs.Machine.t) =
        let fs = m.Clusterfs.Machine.fs in
        let io = Workload.Iobench.local fs in
        match String.lowercase_ascii workload with
        | "fsw" ->
            trace_on ();
            ignore (Workload.Iobench.run_phase io cfg Workload.Iobench.FSW)
        | "fsr" ->
            Workload.Iobench.prepare io cfg;
            trace_on ();
            ignore (Workload.Iobench.run_phase io cfg Workload.Iobench.FSR)
        | "fru" ->
            Workload.Iobench.prepare io cfg;
            trace_on ();
            ignore (Workload.Iobench.run_phase io cfg Workload.Iobench.FRU)
        | "rm" ->
            ignore (Workload.Metaops.create_many fs ~dir:"/many" ~n:100 ());
            trace_on ();
            ignore (Workload.Metaops.remove_all fs ~dir:"/many")
        | other -> failwith (Printf.sprintf "unknown workload %S" other)
      in
      (match Clusterfs.Machine.run m body with
      | () ->
          print_endline "time_us,disk,kind,sector,count,track_buffer_hit";
          List.iter
            (fun (member, (e : Disk.Device.event)) ->
              Printf.printf "%d,%d,%s,%d,%d,%b\n" e.Disk.Device.at member
                (match e.Disk.Device.kind with
                | Disk.Request.Read -> "R"
                | Disk.Request.Write -> "W")
                e.Disk.Device.sector e.Disk.Device.count
                e.Disk.Device.buffered_hit)
            (List.stable_sort
               (fun (i, (a : Disk.Device.event)) (j, (b : Disk.Device.event)) ->
                 match compare a.Disk.Device.at b.Disk.Device.at with
                 | 0 -> compare i j
                 | c -> c)
               (List.rev !log))
      | exception Failure msg ->
          prerr_endline msg;
          exit 1);
      (match metrics_path with
      | None -> ()
      | Some path ->
          let json =
            Sim.Metrics.to_json reg
              ~meta:
                [
                  ("tool", "blktrace");
                  ("config", config_name);
                  ("workload", workload);
                ]
          in
          let oc = open_out path in
          output_string oc json;
          output_char oc '\n';
          close_out oc;
          Printf.eprintf "metrics -> %s\n%!" path);
      0

let config_t =
  Arg.(value & opt string "a" & info [ "config"; "c" ] ~doc:"Paper config: a, b, c or d.")

let workload_t =
  Arg.(
    value & opt string "fsw"
    & info [ "workload"; "w" ] ~doc:"One of fsw, fsr, fru, rm.")

let file_mb_t =
  Arg.(value & opt int 4 & info [ "file-mb" ] ~doc:"Benchmark file size in MB.")

let disks_t =
  Arg.(value & opt int 1 & info [ "disks" ] ~doc:"Number of member disks.")

let layout_t =
  Arg.(
    value & opt string "stripe"
    & info [ "layout" ] ~doc:"Volume layout: concat, stripe or mirror.")

let stripe_kb_t =
  Arg.(value & opt int 128 & info [ "stripe-kb" ] ~doc:"Stripe unit in KB.")

let metrics_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ]
        ~doc:
          "Write the machine's per-layer metrics (disk, vm, ufs) as JSON to \
           $(docv) after the run."
        ~docv:"FILE")

let cmd =
  Cmd.v
    (Cmd.info "blktrace" ~doc:"Dump a simulated disk's request trace as CSV")
    Term.(
      const run $ config_t $ workload_t $ file_mb_t $ disks_t $ layout_t
      $ stripe_kb_t $ metrics_t)

let () = exit (Cmd.eval' cmd)
