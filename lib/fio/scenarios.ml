let mk s =
  match Spec.parse s with
  | Ok spec -> spec
  | Error e -> invalid_arg ("fio scenario: " ^ e)

let db_oltp =
  mk
    "name=db-oltp file=oltp rw=randrw rwmixread=70 bs=4k size=4m iodepth=4 \
     numjobs=2 seed=11"

let backup = mk "name=backup file=backup rw=read bs=1m size=16m seed=12"

let mixed =
  mk
    "name=mixed file=mixed rw=rw rwmixread=70 bs=8k size=8m iodepth=2 \
     numjobs=2 seed=13"

(* The interleaved pair and its one-stream baseline: same file size per
   stream, same think time (think makes each stream latency-bound, so a
   healthy per-stream predictor lets two streams overlap their stalls
   and the pair's aggregate bandwidth approaches twice the single's). *)
let ilv_single = mk "name=ilv-single file=ilv rw=read bs=8k size=4m think=20000 seed=21"

let ilv_pair =
  mk
    "name=ilv-pair file=ilv rw=read bs=8k size=4m numjobs=2 share=1 \
     offset_increment=4m think=20000 seed=21"

(* 64 KB stride: touches one block in eight, so cluster read-ahead is
   pure waste — the adaptive window should shrink rather than keep
   prefetching blocks the reader skips *)
let strided = mk "name=strided file=str rw=read bs=8k size=4m stride=64k seed=22"

let all = [ db_oltp; backup; mixed; ilv_single; ilv_pair; strided ]

let register report =
  match Clusterfs.Machine.current_metrics_sink () with
  | Some reg ->
      Report.register_metrics report reg
        ~instance:(report.Report.spec.Spec.name ^ "." ^ report.Report.target)
  | None -> ()

let run_local ?(config = Clusterfs.Config.config_a) spec =
  let m = Clusterfs.Machine.create config in
  let jobs =
    Clusterfs.Machine.run m (fun m -> Run.execute (Target.local m) spec)
  in
  let report = Report.make spec ~target:"local" jobs in
  register report;
  report

let run_remote ?(config = Clusterfs.Config.config_a) ?(clients = 2)
    ?(servers = 1) ?topology ?ports_buffer spec =
  let topo =
    Clusterfs.Topology.create ?topology ?ports_buffer ~servers ~clients config
  in
  let jobs =
    Clusterfs.Topology.run topo (fun topo ->
        Run.execute (Target.remote topo) spec)
  in
  let report = Report.make spec ~target:"remote" jobs in
  register report;
  report

(* ---------- server-side write-gathering ablation ---------- *)

type gather_point = {
  clients : int;
  write_rpcs : int;
  disk_writes : int;
  blocks_per_disk_write : float;
  gather_kb_mean : float;
  elapsed : Sim.Time.t;
}

let register_gather (g : gather_point) =
  match Clusterfs.Machine.current_metrics_sink () with
  | Some reg ->
      Sim.Metrics.register reg ~layer:"fio"
        ~instance:(Printf.sprintf "write-gather.%dc" g.clients)
        (fun () ->
          Sim.Metrics.
            [
              ("clients", Int g.clients);
              ("write_rpcs", Int g.write_rpcs);
              ("disk_writes", Int g.disk_writes);
              ("blocks_per_disk_write", Float g.blocks_per_disk_write);
              ("gather_kb_mean", Float g.gather_kb_mean);
              ("elapsed_us", Int g.elapsed);
            ])
  | None -> ()

let write_gather ?(config = Clusterfs.Config.config_a) ~clients () =
  let spec =
    mk
      (Printf.sprintf
         "name=write-gather file=wg rw=write bs=8k size=2m numjobs=%d seed=17"
         clients)
  in
  let topo = Clusterfs.Topology.create ~clients config in
  let jobs =
    Clusterfs.Topology.run topo (fun topo ->
        Run.execute (Target.remote topo) spec)
  in
  let report = Report.make spec ~target:"remote" jobs in
  let service = topo.Clusterfs.Topology.service in
  let write_rpcs = Nfs.Server.applied service "write" in
  let server = topo.Clusterfs.Topology.server in
  let dst =
    Disk.Device.stats (Disk.Blkdev.members server.Clusterfs.Machine.dev).(0)
  in
  let disk_writes = dst.Disk.Device.writes in
  let sectors = dst.Disk.Device.sectors_written in
  let bsize_sectors = Ufs.Layout.bsize / 512 in
  let g =
    {
      clients;
      write_rpcs;
      disk_writes;
      blocks_per_disk_write =
        (if disk_writes = 0 then 0.
         else
           float_of_int sectors
           /. float_of_int bsize_sectors
           /. float_of_int disk_writes);
      gather_kb_mean =
        (if write_rpcs = 0 then 0.
         else
           float_of_int (clients * spec.Spec.size)
           /. 1024. /. float_of_int write_rpcs);
      elapsed = Report.wall_us report;
    }
  in
  register_gather g;
  g
