(* The reproduction harness: regenerates every table and figure of the
   paper's evaluation (plus the ablations DESIGN.md calls out), printing
   paper-reported values next to simulated ones, then runs Bechamel
   micro-benchmarks over the simulator's hot paths.

   Usage:
     dune exec bench/main.exe                 -- everything
     dune exec bench/main.exe -- --quick      -- smaller files/sweeps
     dune exec bench/main.exe -- fig10 alloc  -- named sections only *)

let quick = ref false
let trace = ref false
let only : string list ref = ref []

let want name = !only = [] || List.mem name !only

(* Every section runs under a fresh metrics registry: each machine (or
   bare EFS stack) the section builds registers its layers into it, and
   the accumulated snapshot is written as BENCH_<section>.json next to
   the run.  That file is the observability artifact — the free-behind
   bug this layer exists to catch is a one-line jq over it.

   With --trace, each section also runs under a span recorder; sections
   whose workloads open root spans (the fio paths) leave a Perfetto-
   loadable TRACE_<section>.json behind.  Tracing never changes the
   simulated numbers, so BENCH_*.json is identical either way. *)
let section name title f =
  if want name then begin
    Printf.printf "\n=== [%s] %s ===\n%!" name title;
    let t0 = Sys.time () in
    let reg = Sim.Metrics.create () in
    let recorder = if !trace then Some (Sim.Span.create_recorder ()) else None in
    let f =
      match recorder with
      | Some r ->
          Sim.Span.register_metrics r reg ~instance:name;
          fun () -> Sim.Span.with_recorder r f
      | None -> f
    in
    Clusterfs.Machine.with_metrics_sink reg f;
    let path = Printf.sprintf "BENCH_%s.json" name in
    let oc = open_out path in
    output_string oc
      (Sim.Metrics.to_json reg ~meta:[ ("section", name); ("title", title) ]);
    close_out oc;
    (match recorder with
    | Some r when Sim.Span.export_roots r <> [] ->
        let tpath = Printf.sprintf "TRACE_%s.json" name in
        let oc = open_out tpath in
        output_string oc (Sim.Span.to_chrome r);
        close_out oc;
        Printf.printf "    (span trees -> %s)\n%!" tpath
    | _ -> ());
    Printf.printf "    (section took %.1fs of host CPU; metrics -> %s)\n%!"
      (Sys.time () -. t0) path
  end

(* ---------- figures 9/10/11 ---------- *)

let print_iobench_header () =
  Printf.printf "  %-6s %8s %8s %8s %8s %8s\n" "config" "FSR" "FSU" "FSW" "FRR"
    "FRU"

let print_iobench_row fmt (r : Clusterfs.Experiments.iobench_row) =
  Printf.printf "  %-6s " r.Clusterfs.Experiments.config;
  List.iter
    (fun v -> Printf.printf fmt v)
    [
      r.Clusterfs.Experiments.fsr;
      r.Clusterfs.Experiments.fsu;
      r.Clusterfs.Experiments.fsw;
      r.Clusterfs.Experiments.frr;
      r.Clusterfs.Experiments.fru;
    ];
  print_newline ()

let fig9 () =
  print_endline
    "  (run descriptions; cluster size / rotdelay are mkfs+tunefs state,";
  print_endline "   the rest are kernel feature switches)";
  Printf.printf "  %-4s %-10s %-9s %-12s %-12s %-12s\n" "cfg" "cluster"
    "rotdelay" "clustering" "free-behind" "write-limit";
  List.iter
    (fun (c : Clusterfs.Config.t) ->
      Printf.printf "  %-4s %-10s %-9s %-12b %-12b %-12s\n"
        c.Clusterfs.Config.name
        (Printf.sprintf "%dKB"
           (c.Clusterfs.Config.mkfs.Ufs.Fs.maxcontig * Ufs.Layout.bsize / 1024))
        (Printf.sprintf "%dms" c.Clusterfs.Config.mkfs.Ufs.Fs.rotdelay_ms)
        c.Clusterfs.Config.features.Ufs.Types.clustering
        c.Clusterfs.Config.features.Ufs.Types.free_behind
        (match c.Clusterfs.Config.features.Ufs.Types.write_limit with
        | None -> "none"
        | Some n -> Printf.sprintf "%dKB" (n / 1024)))
    Clusterfs.Config.all_figure9

let fig10_rows : Clusterfs.Experiments.iobench_row list ref = ref []

let fig10 () =
  let file_mb = if !quick then 8 else 16 in
  let rows = Clusterfs.Experiments.figure10 ~file_mb () in
  fig10_rows := rows;
  print_endline "  simulated (KB/s):";
  print_iobench_header ();
  List.iter (print_iobench_row "%8.0f ") rows;
  print_endline "  paper (KB/s):";
  print_iobench_header ();
  List.iter (print_iobench_row "%8.0f ") Clusterfs.Experiments.paper_figure10

let utilization_table () =
  let rows =
    Clusterfs.Experiments.cpu_utilization ~file_mb:(if !quick then 8 else 16) ()
  in
  Printf.printf "  %-8s %12s %12s %14s\n" "config" "FSR KB/s" "CPU busy"
    "CPU s per MB";
  List.iter
    (fun (l, r, u) ->
      Printf.printf "  %-8s %12.0f %11.0f%% %14.2f\n" l r (u *. 100.)
        (u /. (r /. 1024.)))
    rows;
  print_endline
    "  (paper: the old system used about half the CPU to move half the disk";
  print_endline
    "   bandwidth.  Note the near-equal CPU-per-MB: the IObench CPU times";
  print_endline
    "   are dominated by the copy time and hence are approximately the";
  print_endline
    "   same — which is exactly why figure 12 uses the mmap interface)"

let fig11 () =
  let rows =
    if !fig10_rows <> [] then !fig10_rows
    else Clusterfs.Experiments.figure10 ~file_mb:(if !quick then 8 else 16) ()
  in
  let print_ratios what rs =
    Printf.printf "  %s:\n" what;
    print_iobench_header ();
    List.iter
      (fun (_, row) -> print_iobench_row "%8.2f " row)
      (Clusterfs.Experiments.ratios rs ~base:"A" ~others:[ "B"; "C"; "D" ])
  in
  print_ratios "simulated ratios" rows;
  print_ratios "paper ratios" Clusterfs.Experiments.paper_figure10

let fig12 () =
  let rows =
    Clusterfs.Experiments.figure12 ~file_mb:(if !quick then 8 else 16) ()
  in
  Printf.printf "  %-45s %10s %12s\n" "run" "sys CPU s" "I/O KB/s";
  List.iter
    (fun (r : Clusterfs.Experiments.cpu_row) ->
      Printf.printf "  %-45s %10.2f %12.0f\n" r.Clusterfs.Experiments.label
        r.Clusterfs.Experiments.sys_cpu_s r.Clusterfs.Experiments.io_kb_per_sec)
    rows;
  print_endline "  paper:";
  List.iter
    (fun (r : Clusterfs.Experiments.cpu_row) ->
      Printf.printf "  %-45s %10.2f\n" r.Clusterfs.Experiments.label
        r.Clusterfs.Experiments.sys_cpu_s)
    Clusterfs.Experiments.paper_figure12;
  match rows with
  | [ a; d ] ->
      Printf.printf
        "  new/old CPU ratio: %.2f simulated vs %.2f paper (2.6/3.4)\n"
        (a.Clusterfs.Experiments.sys_cpu_s /. d.Clusterfs.Experiments.sys_cpu_s)
        (2.6 /. 3.4)
  | _ -> ()

let alloc_table () =
  let best = Clusterfs.Experiments.allocator_best_case ~mb:13 () in
  Printf.printf
    "  best case  (fresh fs, 13MB file):    %4d extents, avg %7.0f KB  (paper: avg ~1536 KB)\n"
    best.Workload.Extents.extents best.Workload.Extents.avg_extent_kb;
  if not !quick then begin
    let worst = Clusterfs.Experiments.allocator_worst_case () in
    Printf.printf
      "  worst case (aged fs, squeezed file): %4d extents, avg %7.0f KB  (paper: avg ~62 KB in 16MB)\n"
      worst.Workload.Extents.extents worst.Workload.Extents.avg_extent_kb
  end

let readahead_table () =
  let rows =
    Clusterfs.Experiments.io_patterns ~file_mb:(if !quick then 8 else 16) ()
  in
  Printf.printf "  %-6s %12s %12s %14s %14s\n" "config" "disk reads"
    "disk writes" "blocks/read" "blocks/write";
  List.iter
    (fun (r : Clusterfs.Experiments.io_pattern) ->
      Printf.printf "  %-6s %12d %12d %14.1f %14.1f\n"
        r.Clusterfs.Experiments.label r.Clusterfs.Experiments.disk_reads
        r.Clusterfs.Experiments.disk_writes
        r.Clusterfs.Experiments.blocks_per_read
        r.Clusterfs.Experiments.blocks_per_write)
    rows;
  print_endline
    "  (paper figs 3/6/7: old system does ~1 block per I/O; clustered system";
  print_endline
    "   moves maxcontig=15 blocks per I/O — one I/O per cluster boundary)"

let cluster_sweep () =
  let sizes = if !quick then [ 8; 56; 120 ] else [ 8; 16; 32; 56; 120; 240 ] in
  let rows = Clusterfs.Experiments.cluster_size_sweep ~sizes_kb:sizes () in
  Printf.printf "  %-10s %10s %10s\n" "cluster" "FSR KB/s" "FSW KB/s";
  List.iter
    (fun (kb, r, w) -> Printf.printf "  %8dKB %10.0f %10.0f\n" kb r w)
    rows;
  print_endline
    "  (paper: 56KB chosen for 16-bit drivers, 120KB used in config A;";
  print_endline "   returns should flatten once clusters span several tracks)"

let wlimit_sweep () =
  let rows = Clusterfs.Experiments.write_limit_sweep () in
  Printf.printf "  %-12s %10s %10s\n" "limit" "FRU KB/s" "FSW KB/s";
  List.iter
    (fun (l, u, w) -> Printf.printf "  %-12s %10.0f %10.0f\n" l u w)
    rows;
  print_endline
    "  (64MB machine so the limit, not memory, sets the queue depth.";
  print_endline
    "   paper: tiny limits leave pipeline bubbles; unlimited lets disksort";
  print_endline
    "   sort a huge queue — fast, but one process locks down all of memory)"

let freebehind_table () =
  let rows = Clusterfs.Experiments.free_behind_ablation () in
  Printf.printf "  %-18s %10s %14s %12s\n" "config" "FSR KB/s" "daemon scans"
    "daemon frees";
  List.iter
    (fun (l, r, scans, freed) ->
      Printf.printf "  %-18s %10.0f %14d %12d\n" l r scans freed)
    rows;
  print_endline
    "  (free-behind keeps throughput while idling the pageout daemon:";
  print_endline
    "   the process causing the problem is the process finding the solution)"

let rotdelay_table () =
  let rows = Clusterfs.Experiments.rotdelay_tuning () in
  Printf.printf "  %-36s %10s %10s\n" "tuning" "FSR KB/s" "FSW KB/s";
  List.iter
    (fun (l, r, w) -> Printf.printf "  %-36s %10.0f %10.0f\n" l r w)
    rows;
  print_endline
    "  (the rejected quick fix: rotdelay 0 without clustering helps reads on";
  print_endline
    "   a track-buffer drive but writes suffer horribly — each block write";
  print_endline "   waits most of a rotation)"

let driver_table () =
  let rows = Clusterfs.Experiments.driver_clustering_ablation () in
  Printf.printf "  %-46s %9s %9s %10s\n" "scheme" "FSR KB/s" "FSW KB/s"
    "coalesced";
  List.iter
    (fun (l, r, w, c) -> Printf.printf "  %-46s %9.0f %9.0f %10d\n" l r w c)
    rows;
  print_endline
    "  (paper: driver clustering helps only writes — reads are synchronous so";
  print_endline
    "   at most two are ever queued; and the FS code still runs per block)"

let musbus_table () =
  let rows = Clusterfs.Experiments.musbus_comparison () in
  Printf.printf "  %-6s %16s %12s\n" "config" "work-units/s" "sys CPU s";
  List.iter
    (fun (l, ups, cpu) -> Printf.printf "  %-6s %16.2f %12.2f\n" l ups cpu)
    rows;
  print_endline
    "  (paper: time-sharing improved only slightly — MusBus moves no";
  print_endline "   substantial data, so clustering has nothing to bite on)"

let efs_table () =
  let rows =
    Clusterfs.Experiments.extent_fs_comparison
      ~file_mb:(if !quick then 8 else 16)
      ~extent_sizes_kb:(if !quick then [ 8; 120 ] else [ 8; 56; 120; 1024 ])
      ()
  in
  Printf.printf "  %-36s %10s %10s\n" "file system" "FSR KB/s" "FSW KB/s";
  List.iter
    (fun (l, r, w) -> Printf.printf "  %-36s %10.0f %10.0f\n" l r w)
    rows;
  print_endline
    "  (the title claim: clustered UFS matches a well-tuned extent-based";
  print_endline
    "   file system, without exposing the extent-size knob — which, chosen";
  print_endline "   badly (8KB), forfeits the entire benefit)"

let reqsize_table () =
  let rows =
    Clusterfs.Experiments.request_size_sweep
      ~sizes_kb:(if !quick then [ 1; 8; 64 ] else [ 1; 2; 4; 8; 16; 32; 64 ])
      ()
  in
  Printf.printf "  %-12s %10s %14s\n" "read(2) size" "FSR KB/s" "CPU s per MB";
  List.iter
    (fun (kb, r, c) -> Printf.printf "  %10dKB %10.0f %14.3f\n" kb r c)
    rows;
  print_endline
    "  (per-call overhead amortises with the request size; past the block";
  print_endline
    "   size the clustered read-ahead hides the disk either way)"

let zoned_table () =
  let rows = Clusterfs.Experiments.zoned_disk ~file_mb:(if !quick then 4 else 8) () in
  List.iter (fun (l, v) -> Printf.printf "  %-42s %10.0f KB/s\n" l v) rows;
  print_endline
    "  (the paper's case against user-chosen extents: on a variable-geometry";
  print_endline
    "   drive the optimal extent/cluster size differs by disk location, so";
  print_endline "   no one number is ever right — let the file system adapt)"

let border_table () =
  let rows = Clusterfs.Experiments.border_ablation ~nfiles:(if !quick then 60 else 200) () in
  Printf.printf "  %-38s %20s %20s\n" "metadata scheme" "create ms/op(drain)"
    "rm ms/op(drain)";
  List.iter
    (fun (l, (c, cd), (r, rd)) ->
      Printf.printf "  %-38s %12.2f (%5.1f) %12.2f (%5.1f)\n" l c cd r rd)
    rows;
  print_endline
    "  (paper: with an ordered-write flag, directory updates need not be";
  print_endline
    "   synchronous — \"the performance of commands like rm * would improve";
  print_endline "   substantially\")"

let volstripe_table () =
  let rows =
    Clusterfs.Experiments.vol_stripe_sweep
      ~file_mb:(if !quick then 4 else 8)
      ~stripe_kbs:(if !quick then [ 8; 128 ] else [ 8; 32; 128 ])
      ()
  in
  Printf.printf "  %-6s %6s %10s %10s %10s\n" "config" "disks" "stripe"
    "FSR KB/s" "FSW KB/s";
  List.iter
    (fun (c, disks, kb, r, w) ->
      Printf.printf "  %-6s %6d %8dKB %10.0f %10.0f\n" c disks kb r w)
    rows;
  print_endline
    "  (a stripe unit >= the cluster size keeps each 120KB cluster a single";
  print_endline
    "   member I/O: writes stream at near-aggregate rate, reads overlap the";
  print_endline
    "   members via read-ahead.  An 8KB unit shatters each cluster into 15";
  print_endline
    "   member fragments — parallel enough to help cold reads, but the write";
  print_endline
    "   stream degenerates into small scattered member I/Os and collapses.";
  print_endline
    "   Config D on a 128KB stripe barely moves: without clustering there is";
  print_endline "   no big request for the stripe to split)"

let volmirror_table () =
  let rows =
    Clusterfs.Experiments.vol_mirror
      ~file_mb:(if !quick then 2 else 4)
      ~readers:4 ()
  in
  Printf.printf "  %-20s %16s %10s %10s\n" "volume"
    "4-rdr FSR KB/s" "FSW KB/s" "dropped";
  List.iter
    (fun (l, r, w, d) ->
      Printf.printf "  %-20s %16.0f %10.0f %10d\n" l r w d)
    rows;
  print_endline
    "  (reads scale with mirror width under concurrency; writes pay for the";
  print_endline
    "   slowest copy; a degraded mirror reads like one disk and counts the";
  print_endline "   writes its dead member never saw)"

let future_table () =
  let rows =
    Clusterfs.Experiments.future_work_ablation
      ~file_mb:(if !quick then 8 else 16) ()
  in
  List.iter (fun (l, v) -> Printf.printf "  %-45s %10.2f\n" l v) rows

(* ---------- crash recovery: journal replay vs fsck-style scan ---------- *)

(* The journal's pitch is O(log region) recovery instead of fsck's
   O(disk) walk.  Cut the power halfway through a metadata-heavy stream
   on a journaled machine, then measure both on the same crashed image:
   (a) Recover.run in simulated time — it reads only the reserved log
   region — and (b) the block reads a paper-era fsck would issue
   (superblock, every group header, every inode block; a floor, since
   real fsck also walks directories and indirect blocks).  A second
   pair of runs prices the log itself: total sectors written for the
   same workload with the journal on and off. *)
let recovery_table () =
  let nfiles = if !quick then 12 else 48 in
  let base = Clusterfs.Config.config_a in
  let named cfg name = Clusterfs.Config.with_name cfg name in
  let workload m =
    let fs = m.Clusterfs.Machine.fs in
    let buf = Bytes.make 12_288 'j' in
    Ufs.Fs.mkdir fs "/spool";
    for i = 0 to nfiles - 1 do
      let path = Printf.sprintf "/spool/f%02d" i in
      let ip = Ufs.Fs.creat fs path in
      Ufs.Fs.write fs ip ~off:0 ~buf ~len:(Bytes.length buf);
      Ufs.Iops.iput fs ip
    done;
    Ufs.Fs.sync fs;
    (* churn: unlinks, renames and links so the log holds a little of
       everything when the power goes *)
    for i = 0 to nfiles - 1 do
      let path = Printf.sprintf "/spool/f%02d" i in
      if i mod 4 = 3 then Ufs.Fs.unlink fs path
      else if i mod 3 = 0 then Ufs.Fs.rename fs path (path ^ ".r")
      else if i mod 5 = 1 then Ufs.Fs.link fs path (path ^ ".l")
    done;
    Ufs.Fs.sync fs
  in
  let total_writes cfg =
    let m = Clusterfs.Machine.create cfg in
    Clusterfs.Machine.run m workload;
    (Disk.Blkdev.stats m.Clusterfs.Machine.dev).Disk.Blkdev.sectors_written
  in
  let run_cut ~name cutoff =
    let m =
      Clusterfs.Machine.create (named (Clusterfs.Config.with_journal base) name)
    in
    Clusterfs.Machine.run m (fun m ->
        Disk.Blkdev.set_write_cutoff m.Clusterfs.Machine.dev cutoff;
        workload m);
    m
  in
  let fresh_copy store =
    let e = Sim.Engine.create () in
    let dev = Disk.Blkdev.of_device (Disk.Device.create e base.Clusterfs.Config.disk) in
    Disk.Store.copy_into store (Disk.Blkdev.store dev);
    (e, dev)
  in
  let in_process e f =
    let r = ref None in
    Sim.Engine.spawn e (fun () -> r := Some (f ()));
    Sim.Engine.run e;
    Option.get !r
  in
  let sw_plain = total_writes (named base "rcvr-plain") in
  let sw_j = total_writes (named (Clusterfs.Config.with_journal base) "rcvr-jrnl") in
  let n =
    Disk.Blkdev.completed_writes (run_cut ~name:"rcvr-probe" None).Clusterfs.Machine.dev
  in
  let store = Clusterfs.Machine.crash (run_cut ~name:"rcvr-crash" (Some (n / 2))) in
  (* timed replay on a copy of the crashed image *)
  let e, rdev = fresh_copy store in
  let replay_us, rep =
    in_process e (fun () ->
        let t0 = Sim.Engine.now e in
        let rep = Ufs.Recover.run rdev in
        (Sim.Engine.now e - t0, rep))
  in
  let fsck_report = Ufs.Fsck.check rdev in
  (* timed fsck-style metadata scan of the same crashed image *)
  let e2, sdev = fresh_copy store in
  let fsck_us, fsck_blocks =
    in_process e2 (fun () ->
        let t0 = Sim.Engine.now e2 in
        let nblocks = ref 0 in
        let buf = Bytes.create Ufs.Layout.bsize in
        let read_frag frag =
          Disk.Blkdev.read_sync sdev
            ~sector:(Ufs.Layout.frag_to_sector frag)
            ~count:(Ufs.Layout.bsize / Ufs.Layout.sector_bytes)
            ~buf ~buf_off:0;
          incr nblocks
        in
        read_frag Ufs.Layout.sb_frag;
        let sb = Ufs.Superblock.decode (Bytes.copy buf) in
        for cg = 0 to sb.Ufs.Superblock.ncg - 1 do
          read_frag (Ufs.Cg.header_frag sb cg);
          let i0 = Ufs.Cg.inode_area_frag sb cg in
          let nfr = Ufs.Cg.inode_area_frags sb in
          let f = ref i0 in
          while !f < i0 + nfr do
            read_frag !f;
            f := !f + Ufs.Layout.fpb
          done
        done;
        (Sim.Engine.now e2 - t0, !nblocks))
  in
  Printf.printf "  crashed image: %d of %d write completions reached the disk\n"
    (n / 2) n;
  Printf.printf
    "  journal replay:  %8.2f ms simulated  (%d log blocks read, %d entries, %d records)\n"
    (float_of_int replay_us /. 1000.)
    rep.Ufs.Recover.scan.Jrnl.blocks_read rep.Ufs.Recover.scan.Jrnl.entries
    rep.Ufs.Recover.scan.Jrnl.records;
  Printf.printf
    "  fsck-style scan: %8.2f ms simulated  (%d metadata blocks; floor — dirs/indirects uncounted)\n"
    (float_of_int fsck_us /. 1000.)
    fsck_blocks;
  Printf.printf "  replay advantage: %.1fx\n"
    (float_of_int fsck_us /. Float.max 1. (float_of_int replay_us));
  Printf.printf
    "  write volume, same workload: %d sectors plain, %d journaled (%+.1f%%)\n"
    sw_plain sw_j
    (100. *. float_of_int (sw_j - sw_plain) /. float_of_int sw_plain);
  print_endline
    "  (the log is not pure overhead: plain UFS writes each touched inode,";
  print_endline
    "   directory and group block synchronously per operation, while the";
  print_endline
    "   journaled path appends compact records and writes each dirty";
  print_endline "   metadata block in place once, at the sync)";
  Printf.printf "  post-replay fsck: %s (%d files, %d dirs)\n"
    (if Ufs.Fsck.ok fsck_report then "clean"
     else Printf.sprintf "%d PROBLEMS" (List.length fsck_report.Ufs.Fsck.problems))
    fsck_report.Ufs.Fsck.nfiles fsck_report.Ufs.Fsck.ndirs;
  let oc = open_out "FSCK_recovery.txt" in
  let fmt = Format.formatter_of_out_channel oc in
  Format.fprintf fmt "fsck after journal replay of the crashed image:@.%a@."
    Ufs.Fsck.pp fsck_report;
  close_out oc;
  print_endline "    (fsck report -> FSCK_recovery.txt)";
  match Clusterfs.Machine.current_metrics_sink () with
  | None -> ()
  | Some reg ->
      Sim.Metrics.register reg ~layer:"recovery" ~instance:"crash-midway"
        (fun () ->
          Sim.Metrics.
            [
              ("replay_us", Int replay_us);
              ("fsck_scan_us", Int fsck_us);
              ("fsck_scan_blocks", Int fsck_blocks);
              ("log_blocks_read", Int rep.Ufs.Recover.scan.Jrnl.blocks_read);
              ("log_entries", Int rep.Ufs.Recover.scan.Jrnl.entries);
              ("log_records", Int rep.Ufs.Recover.scan.Jrnl.records);
              ("images", Int rep.Ufs.Recover.images);
              ("frag_runs", Int rep.Ufs.Recover.frag_runs);
              ("dir_patches", Int rep.Ufs.Recover.dir_patches);
              ("orphans", Int rep.Ufs.Recover.orphans);
              ("fsck_problems", Int (List.length fsck_report.Ufs.Fsck.problems));
              ("sectors_written_plain", Int sw_plain);
              ("sectors_written_journaled", Int sw_j);
            ])

(* ---------- NFS over the simulated network ---------- *)

let nfs_table () =
  let rows =
    Clusterfs.Experiments.nfs_local_vs_remote
      ~file_mb:(if !quick then 4 else 8)
      ()
  in
  Printf.printf "  %-6s %10s %10s %7s %10s %10s %7s %9s %6s\n" "config"
    "loc FSR" "rem FSR" "rem%" "loc FSW" "rem FSW" "rem%" "READ RPC" "ra";
  List.iter
    (fun (r : Clusterfs.Experiments.nfs_row) ->
      Printf.printf "  %-6s %10.0f %10.0f %6.0f%% %10.0f %10.0f %6.0f%% %9d %6d\n"
        r.Clusterfs.Experiments.nfs_config r.Clusterfs.Experiments.local_fsr
        r.Clusterfs.Experiments.remote_fsr
        (100. *. r.Clusterfs.Experiments.remote_fsr
        /. r.Clusterfs.Experiments.local_fsr)
        r.Clusterfs.Experiments.local_fsw r.Clusterfs.Experiments.remote_fsw
        (100. *. r.Clusterfs.Experiments.remote_fsw
        /. r.Clusterfs.Experiments.local_fsw)
        r.Clusterfs.Experiments.read_rpcs
        r.Clusterfs.Experiments.remote_ra_issued)
    rows;
  print_endline
    "  (the clustering machinery crosses the wire: the client's biods turn a";
  print_endline
    "   sequential stream into cluster-sized READ/WRITE RPCs with read-ahead";
  print_endline
    "   in flight, so remote streaming holds most of the local rate — the";
  print_endline
    "   READ RPC column counts cluster-sized calls, not 8KB blocks)"

let nfsscale_table () =
  let run ~clients ~nfsd ?net () =
    Clusterfs.Experiments.nfs_scaling
      ~file_mb:(if !quick then 1 else 2)
      ~nfsd ?net ~clients ()
  in
  let print_rows label rows =
    Printf.printf "  %s:\n" label;
    Printf.printf "  %8s %6s %8s %12s %12s %9s %10s\n" "clients" "nfsd"
      "link" "agg KB/s" "KB/s each" "retrans" "queue ms";
    List.iter
      (fun (r : Clusterfs.Experiments.nfs_scale_row) ->
        Printf.printf "  %8d %6d %6.1fMB %12.0f %12.0f %9d %10.2f\n"
          r.Clusterfs.Experiments.sc_clients r.Clusterfs.Experiments.sc_nfsd
          r.Clusterfs.Experiments.sc_bandwidth_mb
          r.Clusterfs.Experiments.aggregate_kb_per_sec
          r.Clusterfs.Experiments.per_client_kb_per_sec
          r.Clusterfs.Experiments.sc_retransmits
          r.Clusterfs.Experiments.server_queue_wait_ms;
        if r.Clusterfs.Experiments.sc_dup_evictions > 0 then
          Printf.printf
            "  WARNING: %d dup-cache evictions at %d clients — a delayed \
             retransmit could re-apply a CREATE/WRITE; raise dup_cache_size\n"
            r.Clusterfs.Experiments.sc_dup_evictions
            r.Clusterfs.Experiments.sc_clients)
      rows
  in
  let counts = if !quick then [ 1; 2; 4 ] else [ 1; 2; 4; 8; 16 ] in
  print_rows "client sweep (4 nfsd, Ethernet-class 0.6MB/s links)"
    (List.map (fun c -> run ~clients:c ~nfsd:4 ()) counts);
  let pool = if !quick then [ 1; 4 ] else [ 1; 2; 4; 8 ] in
  print_rows "nfsd-pool sweep (4 clients)"
    (List.map (fun d -> run ~clients:4 ~nfsd:d ()) pool);
  let bws = if !quick then [ 300; 12_500 ] else [ 300; 600; 1200; 12_500 ] in
  print_rows "link-bandwidth sweep (4 clients, 4 nfsd)"
    (List.map
       (fun kb ->
         run ~clients:4 ~nfsd:4
           ~net:{ Net.default_config with Net.bandwidth = kb * 1000 }
           ())
       bws);
  print_endline
    "  (on links slower than the disk, aggregate grows with the client count";
  print_endline
    "   until the server disk saturates; on fast links one streaming client";
  print_endline
    "   already saturates the disk and more clients only add seek interference)";
  (* fleet ladder: N clients hash-sharded over 4 servers behind the
     switched fabric; each rung names the resource that binds there *)
  let fleet_counts = if !quick then [ 16; 64; 256 ] else [ 64; 256; 512; 1024 ] in
  Printf.printf
    "\n  fleet ladder (switched fabric, 4 servers, adaptive, 1MB/client):\n";
  Printf.printf "  %8s %12s %10s %8s %9s %6s %6s %6s %6s %-24s\n" "clients"
    "agg KB/s" "KB/s each" "retrans" "queue ms" "cpu" "disk" "port" "drops"
    "bottleneck";
  List.iter
    (fun c ->
      let r = Clusterfs.Experiments.nfs_fleet ~servers:4 ~clients:c () in
      Printf.printf
        "  %8d %12.0f %10.1f %8d %9.1f %5.0f%% %5.0f%% %5.0f%% %6d %-24s\n"
        r.Clusterfs.Experiments.fl_clients
        r.Clusterfs.Experiments.fl_aggregate_kb_per_sec
        r.Clusterfs.Experiments.fl_per_client_kb_per_sec
        r.Clusterfs.Experiments.fl_retransmits
        r.Clusterfs.Experiments.fl_server_queue_ms
        (100. *. r.Clusterfs.Experiments.fl_server_cpu_util)
        (100. *. r.Clusterfs.Experiments.fl_disk_util)
        (100. *. r.Clusterfs.Experiments.fl_port_util)
        r.Clusterfs.Experiments.fl_switch_drops
        r.Clusterfs.Experiments.fl_bottleneck)
    fleet_counts;
  print_endline
    "  (aggregate goodput climbs until the worst server's disk pins at ~100%;";
  print_endline
    "   past the knee extra clients only deepen the nfsd queue.  The";
  print_endline
    "   utilization columns are the ladder: whichever resource saturates";
  print_endline "   first at a rung is what to buy next)"

let nfsloss_table () =
  let rows =
    Clusterfs.Experiments.nfs_loss
      ~file_mb:(if !quick then 2 else 8)
      ~losses:[ 0.; 0.001; 0.01; 0.05 ] ()
  in
  Printf.printf "  %8s %14s %9s %7s %9s %14s %14s\n" "loss" "goodput KB/s"
    "retrans" "drops" "dup hits" "CREATE ap/iss" "WRITE ap/iss";
  List.iter
    (fun (r : Clusterfs.Experiments.nfs_loss_row) ->
      Printf.printf "  %7.1f%% %14.0f %9d %7d %9d %7d/%-6d %7d/%-6d\n"
        r.Clusterfs.Experiments.loss_pct
        r.Clusterfs.Experiments.goodput_kb_per_sec
        r.Clusterfs.Experiments.zl_retransmits r.Clusterfs.Experiments.zl_drops
        r.Clusterfs.Experiments.zl_dup_hits
        r.Clusterfs.Experiments.creates_applied
        r.Clusterfs.Experiments.creates_issued
        r.Clusterfs.Experiments.writes_applied
        r.Clusterfs.Experiments.writes_issued)
    rows;
  print_endline
    "  (hard-mount retry keeps goodput nonzero at any loss rate below 1;";
  print_endline
    "   the duplicate-request cache keeps applied = issued for CREATE/WRITE";
  print_endline "   no matter how many copies of each call the server hears)"

let nfscc_table () =
  let counts = if !quick then [ 1; 4 ] else [ 1; 4; 16 ] in
  let rows =
    Clusterfs.Experiments.nfs_congestion ~file_mb:1 ~client_counts:counts ()
  in
  Printf.printf
    "  %8s %-9s %-7s %12s %9s %8s %9s %7s %8s %8s %6s %9s %6s\n" "clients"
    "transport" "wire" "agg KB/s" "retrans" "steady" "backoffs" "dup ev"
    "srtt ms" "rto ms" "cwnd" "queue ms" "util";
  List.iter
    (fun (r : Clusterfs.Experiments.nfs_cc_row) ->
      Printf.printf
        "  %8d %-9s %-7s %12.0f %9d %8d %9d %7d %8.1f %8.1f %6.1f %9.1f %5.0f%%\n"
        r.Clusterfs.Experiments.cc_clients r.Clusterfs.Experiments.cc_transport
        r.Clusterfs.Experiments.cc_topology
        r.Clusterfs.Experiments.cc_goodput_kb_per_sec
        r.Clusterfs.Experiments.cc_retransmits
        r.Clusterfs.Experiments.cc_steady_retransmits
        r.Clusterfs.Experiments.cc_backoffs
        r.Clusterfs.Experiments.cc_dup_evictions
        r.Clusterfs.Experiments.cc_srtt_ms r.Clusterfs.Experiments.cc_rto_ms
        r.Clusterfs.Experiments.cc_cwnd
        r.Clusterfs.Experiments.cc_server_queue_ms
        (100. *. r.Clusterfs.Experiments.cc_medium_util))
    rows;
  print_endline
    "  (fixed 1.1 s timers mistake saturation queueing for loss: every client";
  print_endline
    "   re-injects duplicates on the same clock and goodput collapses as";
  print_endline
    "   clients grow.  The adaptive transport learns the delay — srtt/rttvar";
  print_endline
    "   with Karn's rule — and bounds outstanding calls with an AIMD window,";
  print_endline
    "   so steady-state retransmits go to ~0 and goodput holds, on private";
  print_endline "   links and on the shared wire alike)"

(* ---------- fio: declarative workloads, cost attribution ---------- *)

let fio_table () =
  let shrink (s : Fio.Spec.t) =
    (* quick mode: quarter the data each job moves, floor one op; the
       per-job shift shrinks with it so shared regions stay adjacent *)
    if !quick then
      {
        s with
        Fio.Spec.size = max s.Fio.Spec.bs (s.Fio.Spec.size / 4);
        Fio.Spec.offset_increment = s.Fio.Spec.offset_increment / 4;
      }
    else s
  in
  List.iter
    (fun spec ->
      let spec = shrink spec in
      print_string (Fio.Report.to_text (Fio.Scenarios.run_local spec));
      print_string (Fio.Report.to_text (Fio.Scenarios.run_remote spec)))
    Fio.Scenarios.all;
  print_endline
    "  write-gathering ablation (each client streams rw=write bs=8k size=2m):";
  Printf.printf "  %8s %11s %12s %16s %11s %10s\n" "clients" "WRITE RPCs"
    "disk writes" "blks/disk-write" "gather KB" "elapsed s";
  List.iter
    (fun c ->
      let g = Fio.Scenarios.write_gather ~clients:c () in
      Printf.printf "  %8d %11d %12d %16.1f %11.1f %10.2f\n"
        g.Fio.Scenarios.clients g.Fio.Scenarios.write_rpcs
        g.Fio.Scenarios.disk_writes g.Fio.Scenarios.blocks_per_disk_write
        g.Fio.Scenarios.gather_kb_mean
        (Sim.Time.to_sec_float g.Fio.Scenarios.elapsed))
    (if !quick then [ 1; 4 ] else [ 1; 4; 8 ]);
  print_endline
    "  (same spec against the local UFS and through an NFS mount; the cost";
  print_endline
    "   table attributes each op's latency to the layer it blocked in, the";
  print_endline
    "   unattributed row being time no layer meters (CPU, copies).  The";
  print_endline
    "   remote runs read faster than local: the prewritten file is cold on";
  print_endline
    "   the client but still warm in the server's page cache, which is";
  print_endline "   exactly what a second-level cache is for)"

(* ---------- engine self-observability ---------- *)

(* How fast does the event loop itself go?  Synthetic loads exercise the
   three hot paths the engine counters watch: pure dispatch (many
   processes trading sleeps), heap depth (everyone asleep at once), and
   timer churn (schedule_cancellable handles cancelled before firing —
   the RPC retransmission pattern).  Host-time rates are hardware-bound
   and printed for eyeballing only; the counters themselves land in
   BENCH_engine.json and are what benchdiff gates on. *)
let engine_table () =
  let register label engine =
    match Clusterfs.Machine.current_metrics_sink () with
    | Some reg -> Sim.Engine.register_metrics engine reg ~instance:label
    | None -> ()
  in
  let sleeper_load ~procs ~ticks =
    let engine = Sim.Engine.create () in
    let t0 = Sys.time () in
    for p = 0 to procs - 1 do
      Sim.Engine.spawn engine
        ~name:(Printf.sprintf "load.%d" p)
        (fun () ->
          for t = 1 to ticks do
            Sim.Engine.sleep engine (1 + ((p + t) mod 13))
          done)
    done;
    Sim.Engine.run engine;
    (engine, Sys.time () -. t0)
  in
  let cancel_load ~timers =
    let engine = Sim.Engine.create () in
    let t0 = Sys.time () in
    Sim.Engine.spawn engine ~name:"canceller" (fun () ->
        for i = 1 to timers do
          let h =
            Sim.Engine.schedule_cancellable engine ~delay:1000 (fun () -> ())
          in
          if i mod 8 <> 0 then Sim.Engine.cancel h;
          Sim.Engine.sleep engine 1
        done);
    Sim.Engine.run engine;
    (engine, Sys.time () -. t0)
  in
  Printf.printf "  %-24s %10s %10s %10s %9s %14s\n" "load" "events"
    "heap max" "cancels" "host s" "events/sec";
  let row label (engine, host_s) =
    let ev = Sim.Engine.events_dispatched engine in
    Printf.printf "  %-24s %10d %10d %10d %9.3f %14.0f\n" label ev
      (Sim.Engine.heap_max_depth engine)
      (Sim.Engine.cancellations engine)
      host_s
      (float_of_int ev /. Float.max host_s epsilon_float);
    register label engine
  in
  List.iter
    (fun (procs, ticks) ->
      row
        (Printf.sprintf "sleepers p=%d t=%d" procs ticks)
        (sleeper_load ~procs ~ticks))
    (if !quick then [ (100, 50); (1000, 50) ]
     else [ (100, 100); (1000, 100); (10_000, 100) ]);
  let timers = if !quick then 20_000 else 200_000 in
  row (Printf.sprintf "timer churn n=%d" timers) (cancel_load ~timers);
  print_endline
    "  (7 of 8 timers are cancelled before firing, as answered RPCs do;";
  print_endline
    "   cancellation releases the closure immediately, so heap max stays";
  print_endline "   bounded by the in-flight window, not the churn count)"

(* ---------- bechamel micro-benchmarks of simulator hot paths ---------- *)

let microbench () =
  let open Bechamel in
  let rng = Sim.Rng.create ~seed:1 in
  let rng_test =
    Test.make ~name:"sim.rng 1k draws"
      (Staged.stage (fun () ->
           for _ = 1 to 1000 do
             ignore (Sim.Rng.int rng 4096)
           done))
  in
  let geom = Disk.Geom.sun0400 in
  let chs_test =
    Test.make ~name:"disk.geom to_chs 1k"
      (Staged.stage (fun () ->
           for i = 0 to 999 do
             ignore (Disk.Geom.to_chs geom (i * 797))
           done))
  in
  let store = Disk.Store.create ~size:(64 * 1024 * 1024) in
  let buf = Bytes.create 8192 in
  let store_test =
    Test.make ~name:"disk.store 8KB write+read"
      (Staged.stage (fun () ->
           Disk.Store.write store ~off:123456 ~len:8192 buf 0;
           Disk.Store.read store ~off:123456 ~len:8192 buf 0))
  in
  (* the same block written from a page frame the store keeps: the
     writer lets go of it, and the chunk it displaces goes back to the
     frame pool for the next write *)
  let lend_frames = Sim.Frames.create ~size:8192 in
  let lent_test =
    Test.make ~name:"disk.store 8KB lent write"
      (Staged.stage (fun () ->
           let f = Sim.Frames.frame lend_frames in
           Disk.Store.writev ~lend:lend_frames store ~off:131072
             (Sim.Iov.of_frames [ (f, 0, 8192) ]);
           Sim.Frames.release lend_frames f))
  in
  (* one 120 KB cluster moved as a flat buffer vs as 15 borrowed pages:
     the per-segment cost of the zero-copy disk path *)
  let cluster = 120 * 1024 and page = 8192 in
  let flat = Sim.Iov.of_bytes (Bytes.create cluster) in
  let paged =
    Sim.Iov.of_list
      (List.init (cluster / page) (fun _ -> (Bytes.create page, 0, page)))
  in
  let cluster_test name iov =
    Test.make ~name
      (Staged.stage (fun () ->
           Disk.Store.writev store ~off:1_048_576 iov;
           Disk.Store.readv store ~off:1_048_576 iov))
  in
  (* the engine's two queues: delay-0 events (every resume and wake-up)
     go through the ready ring; delayed ones sift through a heap that
     here holds 4k far-future timers *)
  let ready_engine = Sim.Engine.create () in
  let ready_test =
    Test.make ~name:"sim.engine 1k delay-0 sched+run"
      (Staged.stage (fun () ->
           for _ = 1 to 1000 do
             Sim.Engine.schedule ready_engine ignore
           done;
           Sim.Engine.run ready_engine))
  in
  let heap_engine = Sim.Engine.create () in
  for i = 1 to 4096 do
    Sim.Engine.schedule heap_engine ~delay:((1 lsl 60) + i) ignore
  done;
  let heap_test =
    Test.make ~name:"sim.engine 1k delayed, 4k-deep heap"
      (Staged.stage (fun () ->
           for i = 1 to 1000 do
             Sim.Engine.schedule heap_engine ~delay:i ignore
           done;
           Sim.Engine.run_for heap_engine 1000))
  in
  (* a process sleeping: alone, every sleep is the next event and
     advances the clock in place; with a second process due at the same
     instants, every sleep parks through the heap and the ready ring *)
  let sleepers_test name procs =
    let e = Sim.Engine.create () in
    Test.make ~name
      (Staged.stage (fun () ->
           for _ = 1 to procs do
             Sim.Engine.spawn e (fun () ->
                 for _ = 1 to 1000 / procs do
                   Sim.Engine.sleep e 1
                 done)
           done;
           Sim.Engine.run e))
  in
  (* the cold start of every IObench phase: drop a 1024-page file *)
  let pool = Vm.Pool.create (Sim.Engine.create ()) (Vm.Param.default ~memory_mb:16 ()) in
  let invalidate_test =
    Test.make ~name:"vm.pool alloc+invalidate 1024 pages"
      (Staged.stage (fun () ->
           for i = 0 to 1023 do
             match Vm.Pool.alloc pool { Vm.Page.vid = 1; off = i * 8192 } with
             | `Fresh p | `Existing p -> Vm.Page.unbusy p
           done;
           Vm.Pool.invalidate_vnode pool 1))
  in
  (* per-op bookkeeping: CPU charges under six literal labels (a lone
     process, so every charge's sleep advances the clock in place),
     latency summaries, and page-cache lookups that all hit *)
  let cpu_test =
    let e = Sim.Engine.create () in
    let cpu = Sim.Cpu.create e in
    Test.make ~name:"sim.cpu 1k charges, 6 labels"
      (Staged.stage (fun () ->
           Sim.Engine.spawn e (fun () ->
               for i = 0 to 999 do
                 match i mod 6 with
                 | 0 -> Sim.Cpu.charge cpu ~label:"copy" 1
                 | 1 -> Sim.Cpu.charge cpu ~label:"bmap" 1
                 | 2 -> Sim.Cpu.charge cpu ~label:"driver" 1
                 | 3 -> Sim.Cpu.charge cpu ~label:"getpage" 1
                 | 4 -> Sim.Cpu.charge cpu ~label:"rdwr" 1
                 | _ -> Sim.Cpu.charge cpu ~label:"syscall" 1
               done);
           Sim.Engine.run e))
  in
  let summary = Sim.Stats.Summary.create () in
  let summary_test =
    Test.make ~name:"sim.stats summary 1k adds"
      (Staged.stage (fun () ->
           for i = 0 to 999 do
             Sim.Stats.Summary.add summary (float_of_int i)
           done))
  in
  let lookup_pool = Vm.Pool.create (Sim.Engine.create ()) (Vm.Param.default ~memory_mb:16 ()) in
  let idents = Array.init 1000 (fun i -> { Vm.Page.vid = 1 + (i mod 4); off = i / 4 * 8192 }) in
  Array.iter
    (fun id ->
      match Vm.Pool.alloc lookup_pool id with
      | `Fresh p | `Existing p -> Vm.Page.unbusy p)
    idents;
  let lookup_test =
    Test.make ~name:"vm.pool 1k lookups"
      (Staged.stage (fun () ->
           Array.iter (fun id -> ignore (Vm.Pool.lookup lookup_pool id)) idents))
  in
  (* 1k page frames taken off the free list and given back, against 1k
     fresh buffers.  Both touch every 4 KB of each frame once; for a
     fresh buffer that first touch is where the kernel maps the page. *)
  let held = Array.make 1000 Bytes.empty in
  let touch b =
    for o = 0 to (Bytes.length b / 4096) - 1 do
      Bytes.unsafe_set b (o * 4096) 'x'
    done
  in
  let frames = Sim.Frames.create ~size:page in
  let frames_test =
    Test.make ~name:"sim.frames 1k 8KB take+give"
      (Staged.stage (fun () ->
           for i = 0 to 999 do
             let b = Sim.Frames.take frames in
             touch b;
             held.(i) <- b
           done;
           Array.iter (Sim.Frames.give frames) held))
  in
  let fresh_test =
    Test.make ~name:"Bytes.create 1k 8KB + first touch"
      (Staged.stage (fun () ->
           for i = 0 to 999 do
             let b = Bytes.create page in
             touch b;
             held.(i) <- b
           done))
  in
  (* machine build: every simulated machine runs mkfs on its disk, and
     crash tests fsck the result *)
  let sun0400 () =
    Disk.Blkdev.of_device
      (Disk.Device.create (Sim.Engine.create ()) Disk.Device.default_config)
  in
  let mkfs_dev = sun0400 () and fsck_dev = sun0400 () in
  Ufs.Fs.mkfs fsck_dev ();
  let mkfs_test =
    Test.make ~name:"ufs.mkfs sun0400"
      (Staged.stage (fun () -> Ufs.Fs.mkfs mkfs_dev ()))
  in
  let fsck_test =
    Test.make ~name:"ufs.fsck fresh sun0400"
      (Staged.stage (fun () -> ignore (Ufs.Fsck.check fsck_dev)))
  in
  let tests =
    Test.make_grouped ~name:"simulator"
      [
        rng_test;
        chs_test;
        store_test;
        lent_test;
        cluster_test "disk.store 120KB 1 segment w+r" flat;
        cluster_test "disk.store 120KB 15 segments w+r" paged;
        ready_test;
        heap_test;
        sleepers_test "sim.engine 1k sleeps, lone process" 1;
        sleepers_test "sim.engine 1k sleeps, 2 interleaved processes" 2;
        invalidate_test;
        cpu_test;
        summary_test;
        lookup_test;
        frames_test;
        fresh_test;
        mkfs_test;
        fsck_test;
      ]
  in
  let benchmark () =
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) () in
    Benchmark.all cfg instances tests
  in
  let results =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      Toolkit.Instance.monotonic_clock (benchmark ())
  in
  let estimates =
    List.sort compare
      (Hashtbl.fold
         (fun name result acc ->
           match Analyze.OLS.estimates result with
           | Some [ est ] -> (name, Some est) :: acc
           | Some _ | None -> (name, None) :: acc)
         results [])
  in
  List.iter
    (function
      | name, Some est -> Printf.printf "  %-36s %12.1f ns/run\n" name est
      | name, None -> Printf.printf "  %-36s (no estimate)\n" name)
    estimates;
  match Clusterfs.Machine.current_metrics_sink () with
  | None -> ()
  | Some reg ->
      Sim.Metrics.register reg ~layer:"micro" ~instance:"simulator" (fun () ->
          List.filter_map
            (fun (name, est) ->
              Option.map (fun ns -> (name ^ " ns/run", Sim.Metrics.Float ns)) est)
            estimates)

(* ---------- the section registry ---------- *)

let registry : (string * string * (unit -> unit)) list =
  [
    ("fig9", "Figure 9: IObench run descriptions", fig9);
    ("fig10", "Figure 10: IObench transfer rates (KB/s)", fig10);
    ("fig11", "Figure 11: IObench transfer rate ratios", fig11);
    ("cpu", "CPU utilisation during sequential reads", utilization_table);
    ("fig12", "Figure 12: system CPU, 16MB mmap read", fig12);
    ("alloc", "Allocator extents (paper sec. 'Allocator details')", alloc_table);
    ("readahead", "Figs 3/6/7: I/O request patterns", readahead_table);
    ("clustersize", "Ablation E11: cluster size sweep", cluster_sweep);
    ("wlimit", "Ablation E9: write limit sweep", wlimit_sweep);
    ( "freebehind",
      "Ablation E10: free-behind / page thrashing",
      freebehind_table );
    ( "rotdelay0",
      "Ablation E12: rotdelay tuning without clustering",
      rotdelay_table );
    ("driver", "Ablation E8: driver clustering vs FS clustering", driver_table);
    ("musbus", "E13: MusBus timesharing", musbus_table);
    ("efs", "Title claim: clustered UFS vs an extent-based FS", efs_table);
    ("reqsize", "Ablation: read(2) request size", reqsize_table);
    ("zoned", "Variable geometry: media rate across zones", zoned_table);
    ("border", "Further work: B_ORDER ordered metadata writes", border_table);
    ("volstripe", "Volume manager: striping vs FS clustering", volstripe_table);
    ("volmirror", "Volume manager: mirroring", volmirror_table);
    ( "future",
      "Further-work features (bmap cache, UFS_HOLE, hints)",
      future_table );
    ( "recovery",
      "Crash recovery: journal replay vs fsck-style scan",
      recovery_table );
    ( "nfs",
      "NFS: local vs remote IObench over the simulated network",
      nfs_table );
    ( "nfsscale",
      "NFS: client / nfsd-pool / link-bandwidth scaling",
      nfsscale_table );
    ( "nfsloss",
      "NFS: goodput and duplicate suppression under loss",
      nfsloss_table );
    ("nfscc", "NFS: congestion collapse vs adaptive transport", nfscc_table);
    ("fio", "fio: declarative workloads, per-layer cost attribution", fio_table);
    ("engine", "Engine self-observability: event-loop throughput", engine_table);
    ("micro", "Bechamel micro-benchmarks (simulator hot paths)", microbench);
  ]

let section_names () = List.map (fun (n, _, _) -> n) registry

let split_commas s =
  List.filter (fun x -> x <> "") (String.split_on_char ',' s)

let usage () =
  Printf.eprintf
    "usage: bench/main.exe [--quick] [--trace] [--list] [--sections a,b,...] \
     [SECTION...]\n\
     sections: %s\n"
    (String.concat " " (section_names ()))

let () =
  let argv = Sys.argv in
  let i = ref 1 in
  while !i < Array.length argv do
    (match argv.(!i) with
    | "--quick" -> quick := true
    | "--trace" -> trace := true
    | "--list" ->
        List.iter (fun n -> print_endline n) (section_names ());
        exit 0
    | "--sections" when !i + 1 < Array.length argv ->
        incr i;
        only := !only @ split_commas argv.(!i)
    | s when String.length s > 11 && String.sub s 0 11 = "--sections=" ->
        only := !only @ split_commas (String.sub s 11 (String.length s - 11))
    | s when String.length s > 0 && s.[0] <> '-' -> only := !only @ [ s ]
    | s ->
        Printf.eprintf "unknown flag %s\n" s;
        usage ();
        exit 2);
    incr i
  done;
  List.iter
    (fun name ->
      if not (List.mem name (section_names ())) then begin
        Printf.eprintf "unknown section %S\n" name;
        usage ();
        exit 2
      end)
    !only;
  print_endline "UFS clustering reproduction — McVoy & Kleiman, USENIX 1991";
  print_endline "===========================================================";
  List.iter (fun (name, title, f) -> section name title f) registry
