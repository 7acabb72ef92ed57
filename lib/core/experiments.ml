type iobench_row = {
  config : string;
  fsr : float;
  fsu : float;
  fsw : float;
  frr : float;
  fru : float;
}

let paper_figure10 =
  [
    { config = "A"; fsr = 1610.; fsu = 1364.; fsw = 1359.; frr = 383.; fru = 452. };
    { config = "B"; fsr = 805.; fsu = 799.; fsw = 790.; frr = 369.; fru = 431. };
    { config = "C"; fsr = 749.; fsu = 783.; fsw = 784.; frr = 366.; fru = 428. };
    { config = "D"; fsr = 749.; fsu = 722.; fsw = 718.; frr = 370.; fru = 545. };
  ]

let run_iobench (config : Config.t) ~file_mb ~random_ops =
  let m = Machine.create config in
  let cfg =
    { Workload.Iobench.default_config with Workload.Iobench.file_mb; random_ops }
  in
  let results = Machine.run m (fun m -> Workload.Iobench.run_all m.Machine.fs cfg) in
  let rate k =
    match
      List.find_opt (fun r -> r.Workload.Iobench.kind = k) results
    with
    | Some r -> r.Workload.Iobench.kb_per_sec
    | None -> nan
  in
  {
    config = config.Config.name;
    fsr = rate Workload.Iobench.FSR;
    fsu = rate Workload.Iobench.FSU;
    fsw = rate Workload.Iobench.FSW;
    frr = rate Workload.Iobench.FRR;
    fru = rate Workload.Iobench.FRU;
  }

let figure10 ?(file_mb = 16) ?(random_ops = 512) () =
  List.map
    (fun c -> run_iobench c ~file_mb ~random_ops)
    Config.all_figure9

let ratio_row ~label (a : iobench_row) (b : iobench_row) =
  {
    config = label;
    fsr = a.fsr /. b.fsr;
    fsu = a.fsu /. b.fsu;
    fsw = a.fsw /. b.fsw;
    frr = a.frr /. b.frr;
    fru = a.fru /. b.fru;
  }

let ratios rows ~base ~others =
  let find name = List.find (fun r -> r.config = name) rows in
  let a = find base in
  List.map
    (fun o -> (base ^ "/" ^ o, ratio_row ~label:(base ^ "/" ^ o) a (find o)))
    others

let cpu_utilization ?(file_mb = 16) () =
  List.map
    (fun (config : Config.t) ->
      let m = Machine.create config in
      Machine.run m (fun m ->
          let io = Workload.Iobench.local m.Machine.fs in
          let cfg =
            { Workload.Iobench.default_config with Workload.Iobench.file_mb }
          in
          Workload.Iobench.prepare io cfg;
          let r = Workload.Iobench.run_phase io cfg Workload.Iobench.FSR in
          ( config.Config.name,
            r.Workload.Iobench.kb_per_sec,
            float_of_int r.Workload.Iobench.sys_cpu
            /. float_of_int r.Workload.Iobench.elapsed )))
    [ Config.config_a; Config.config_d ]

(* ---------- Figure 12 ---------- *)

type cpu_row = { label : string; sys_cpu_s : float; io_kb_per_sec : float }

let paper_figure12 =
  [
    { label = "4.1.1 UFS, no rotdelays, 16MB mmap read"; sys_cpu_s = 2.6; io_kb_per_sec = nan };
    { label = "4.1 UFS, rotdelays, 16MB mmap read"; sys_cpu_s = 3.4; io_kb_per_sec = nan };
  ]

let mmap_cpu (config : Config.t) ~file_mb =
  let m = Machine.create config in
  Machine.run m (fun m ->
      let fs = m.Machine.fs in
      let cfg =
        { Workload.Iobench.default_config with Workload.Iobench.file_mb }
      in
      Workload.Iobench.prepare (Workload.Iobench.local fs) cfg;
      Workload.Mmap_bench.run fs ~path:cfg.Workload.Iobench.path ~file_mb)

let figure12 ?(file_mb = 16) () =
  let new_ufs = mmap_cpu Config.config_a ~file_mb in
  let old_ufs = mmap_cpu Config.config_d ~file_mb in
  let row label (r : Workload.Mmap_bench.result) =
    {
      label;
      sys_cpu_s = Sim.Time.to_sec_float r.Workload.Mmap_bench.sys_cpu;
      io_kb_per_sec = r.Workload.Mmap_bench.kb_per_sec;
    }
  in
  [
    row "new UFS (A layout), 16MB mmap read" new_ufs;
    row "old UFS (D layout), 16MB mmap read" old_ufs;
  ]

(* ---------- Allocator extents ---------- *)

let allocator_best_case ?(mb = 13) () =
  let m = Machine.create Config.config_a in
  Machine.run m (fun m ->
      Workload.Extents.write_and_measure m.Machine.fs ~path:"/big" ~mb)

(* A small (100 MB) drive so the ageing churn stays cheap. *)
let small_disk_config =
  {
    Config.config_a with
    Config.name = "A/small-disk";
    disk =
      {
        Disk.Device.default_config with
        Disk.Device.geom =
          Disk.Geom.create ~nheads:9 ~zones:[ { Disk.Geom.cyls = 400; spt = 54 } ] ();
      };
  }

let allocator_worst_case () =
  let m = Machine.create small_disk_config in
  Machine.run m (fun m ->
      let fs = m.Machine.fs in
      let rng = Sim.Rng.create ~seed:1991 in
      let opts =
        { Ufs.Ager.defaults with Ufs.Ager.target_util = 0.82; churn_rounds = 3 }
      in
      ignore (Ufs.Ager.age fs ~rng ~opts ());
      (* now squeeze one more large file into what's left *)
      Workload.Extents.write_and_measure fs ~path:"/aged-big" ~mb:16)

(* ---------- I/O patterns ---------- *)

type io_pattern = {
  label : string;
  disk_reads : int;
  disk_writes : int;
  blocks_per_read : float;
  blocks_per_write : float;
}

let io_pattern_of (config : Config.t) ~file_mb =
  let m = Machine.create config in
  Machine.run m (fun m ->
      let fs = m.Machine.fs in
      let cfg =
        { Workload.Iobench.default_config with Workload.Iobench.file_mb }
      in
      let io = Workload.Iobench.local fs in
      ignore (Workload.Iobench.run_phase io cfg Workload.Iobench.FSW);
      ignore (Workload.Iobench.run_phase io cfg Workload.Iobench.FSR);
      let s = fs.Ufs.Types.stats in
      let reads = s.Ufs.Types.pgin_ios + s.Ufs.Types.ra_ios in
      let read_blocks = s.Ufs.Types.pgin_blocks + s.Ufs.Types.ra_blocks in
      {
        label = config.Config.name;
        disk_reads = reads;
        disk_writes = s.Ufs.Types.push_ios;
        blocks_per_read =
          (if reads = 0 then 0. else float_of_int read_blocks /. float_of_int reads);
        blocks_per_write =
          (if s.Ufs.Types.push_ios = 0 then 0.
           else
             float_of_int s.Ufs.Types.push_blocks
             /. float_of_int s.Ufs.Types.push_ios);
      })

let io_patterns ?(file_mb = 16) () =
  [
    io_pattern_of Config.config_a ~file_mb;
    io_pattern_of Config.config_d ~file_mb;
  ]

(* ---------- ablations ---------- *)

let seq_rates (config : Config.t) ~file_mb =
  let m = Machine.create config in
  Machine.run m (fun m ->
      let io = Workload.Iobench.local m.Machine.fs in
      let cfg =
        { Workload.Iobench.default_config with Workload.Iobench.file_mb }
      in
      let w = Workload.Iobench.run_phase io cfg Workload.Iobench.FSW in
      let r = Workload.Iobench.run_phase io cfg Workload.Iobench.FSR in
      (r.Workload.Iobench.kb_per_sec, w.Workload.Iobench.kb_per_sec))

let cluster_size_sweep ?(sizes_kb = [ 8; 16; 32; 56; 120; 240 ]) () =
  List.map
    (fun kb ->
      let r, w =
        seq_rates (Config.with_cluster_kb Config.config_a kb) ~file_mb:16
      in
      (kb, r, w))
    sizes_kb

let write_limit_sweep () =
  List.map
    (fun limit ->
      (* a large-memory machine, so queue depth is set by the limit
         alone rather than capped by dirty-page back-pressure — this
         isolates the paper's disksort-window argument *)
      let config =
        Config.with_memory_mb (Config.with_write_limit Config.config_a limit) 64
      in
      let label =
        match limit with
        | None -> "unlimited"
        | Some n -> Printf.sprintf "%dKB" (n / 1024)
      in
      let m = Machine.create config in
      let fru, fsw =
        Machine.run m (fun m ->
            let io = Workload.Iobench.local m.Machine.fs in
            let cfg = Workload.Iobench.default_config in
            let w = Workload.Iobench.run_phase io cfg Workload.Iobench.FSW in
            let u = Workload.Iobench.run_phase io cfg Workload.Iobench.FRU in
            (u.Workload.Iobench.kb_per_sec, w.Workload.Iobench.kb_per_sec))
      in
      (label, fru, fsw))
    [ Some 16384; Some 65536; Some 245760; Some 983040; None ]

let free_behind_ablation () =
  List.map
    (fun fb ->
      let config =
        Config.with_name
          (Config.with_free_behind Config.config_a fb)
          (if fb then "free-behind on" else "free-behind off")
      in
      let m = Machine.create config in
      let fsr, scans, freed =
        Machine.run m (fun m ->
            let io = Workload.Iobench.local m.Machine.fs in
            let cfg = Workload.Iobench.default_config in
            Workload.Iobench.prepare io cfg;
            let r = Workload.Iobench.run_phase io cfg Workload.Iobench.FSR in
            let ps = Vm.Pageout.stats m.Machine.pageout in
            ( r.Workload.Iobench.kb_per_sec,
              ps.Vm.Pageout.scans,
              ps.Vm.Pageout.freed ))
      in
      (config.Config.name, fsr, scans, freed))
    [ true; false ]

let rotdelay_tuning () =
  List.map
    (fun (label, rd) ->
      let config =
        Config.with_name
          (Config.with_rotdelay Config.config_d rd)
          label
      in
      let r, w = seq_rates config ~file_mb:16 in
      (label, r, w))
    [ ("rotdelay 4ms (stock 4.1)", 4); ("rotdelay 0 (tuned, no clustering)", 0) ]

let driver_clustering_ablation () =
  let run (label, config) =
    let m = Machine.create config in
    Machine.run m (fun m ->
        let io = Workload.Iobench.local m.Machine.fs in
        let cfg = Workload.Iobench.default_config in
        let w = Workload.Iobench.run_phase io cfg Workload.Iobench.FSW in
        let r = Workload.Iobench.run_phase io cfg Workload.Iobench.FSR in
        let coalesced = (Disk.Blkdev.stats m.Machine.dev).Disk.Blkdev.coalesced in
        ( label,
          r.Workload.Iobench.kb_per_sec,
          w.Workload.Iobench.kb_per_sec,
          coalesced ))
  in
  List.map run
    [
      ("no clustering (D)", Config.config_d);
      ( "driver clustering (D + rotdelay 0 + coalescing)",
        Config.with_driver_clustering
          (Config.with_rotdelay Config.config_d 0)
          true );
      ("file system clustering (A)", Config.config_a);
    ]

let musbus_comparison () =
  let run (config : Config.t) =
    let m = Machine.create config in
    Machine.run m (fun m ->
        let r = Workload.Musbus.run m.Machine.fs Workload.Musbus.default_config in
        ( config.Config.name,
          r.Workload.Musbus.units_per_sec,
          Sim.Time.to_sec_float r.Workload.Musbus.sys_cpu ))
  in
  [ run Config.config_a; run Config.config_d ]

let border_ablation ?(nfiles = 200) () =
  let run label features =
    let config =
      Config.with_name (Config.with_features Config.config_a features) label
    in
    let m = Machine.create config in
    Machine.run m (fun m ->
        let fs = m.Machine.fs in
        let c = Workload.Metaops.create_many fs ~dir:"/many" ~n:nfiles () in
        let r = Workload.Metaops.remove_all fs ~dir:"/many" in
        ( label,
          (c.Workload.Metaops.ms_per_op, c.Workload.Metaops.ms_per_op_synced),
          (r.Workload.Metaops.ms_per_op, r.Workload.Metaops.ms_per_op_synced) ))
  in
  [
    run "synchronous metadata (stock UFS)" Ufs.Types.features_clustered;
    run "B_ORDER: async ordered metadata"
      { Ufs.Types.features_clustered with Ufs.Types.ordered_metadata = true };
  ]

let extent_fs_comparison ?(file_mb = 16) ?(extent_sizes_kb = [ 8; 56; 120; 1024 ])
    () =
  let efs_run extent_kb =
    let engine = Sim.Engine.create () in
    let cpu = Sim.Cpu.create engine in
    let pool = Vm.Pool.create engine (Vm.Param.default ~memory_mb:8 ()) in
    let _daemon = Vm.Pageout.start pool cpu in
    let dev =
      Disk.Blkdev.of_device
        (Disk.Device.create engine Disk.Device.default_config)
    in
    let efs = Efs.create engine cpu pool dev ~extent_kb () in
    (match Machine.current_metrics_sink () with
    | Some reg ->
        let instance = Printf.sprintf "efs-%dk" extent_kb in
        Efs.register_metrics efs reg ~instance;
        Vm.Pool.register_metrics pool reg ~instance
    | None -> ());
    let result = ref None in
    Sim.Engine.spawn engine (fun () ->
        let f = Efs.creat efs "bench" in
        let total = file_mb * 1024 * 1024 in
        let buf = Bytes.make Ufs.Layout.bsize 'e' in
        let t0 = Sim.Engine.now engine in
        let rec wloop off =
          if off < total then begin
            Efs.write efs f ~off ~buf ~len:Ufs.Layout.bsize;
            wloop (off + Ufs.Layout.bsize)
          end
        in
        wloop 0;
        Efs.fsync efs f;
        let wtime = Sim.Engine.now engine - t0 in
        Efs.reset_readahead efs f;
        let t1 = Sim.Engine.now engine in
        let rec rloop off =
          if off < total then begin
            ignore (Efs.read efs f ~off ~buf ~len:Ufs.Layout.bsize);
            rloop (off + Ufs.Layout.bsize)
          end
        in
        rloop 0;
        let rtime = Sim.Engine.now engine - t1 in
        let kb = float_of_int (total / 1024) in
        result :=
          Some
            ( kb /. Sim.Time.to_sec_float rtime,
              kb /. Sim.Time.to_sec_float wtime ));
    Sim.Engine.run engine;
    Option.get !result
  in
  let efs_rows =
    List.map
      (fun kb ->
        let r, w = efs_run kb in
        (Printf.sprintf "extent FS, %dKB extents" kb, r, w))
      extent_sizes_kb
  in
  let ufs_row (config : Config.t) label =
    let r, w = seq_rates config ~file_mb in
    (label, r, w)
  in
  efs_rows
  @ [
      ufs_row Config.config_a "clustered UFS (A, 120KB clusters)";
      ufs_row Config.config_d "old UFS (D)";
    ]

let request_size_sweep ?(file_mb = 8) ?(sizes_kb = [ 1; 2; 4; 8; 16; 32; 64 ])
    () =
  List.map
    (fun kb ->
      let m = Machine.create Config.config_a in
      Machine.run m (fun m ->
          let io = Workload.Iobench.local m.Machine.fs in
          let cfg =
            { Workload.Iobench.default_config with Workload.Iobench.file_mb }
          in
          Workload.Iobench.prepare io cfg;
          let r =
            Workload.Iobench.run_phase io
              { cfg with Workload.Iobench.request_bytes = kb * 1024 }
              Workload.Iobench.FSR
          in
          ( kb,
            r.Workload.Iobench.kb_per_sec,
            Sim.Time.to_sec_float r.Workload.Iobench.sys_cpu
            /. float_of_int file_mb )))
    sizes_kb

(* a small three-zone drive: 72/54/40 sectors per track *)
let zoned_geom =
  (* a wider track skew, sized for the fastest (outer) zone's switch
     time: 1 ms at 72 sectors/track is ~5.2 sectors *)
  Disk.Geom.create ~rpm:4316 ~nheads:6 ~track_skew:6 ~cyl_skew:16
    ~zones:
      [
        { Disk.Geom.cyls = 120; spt = 72 };
        { Disk.Geom.cyls = 140; spt = 54 };
        { Disk.Geom.cyls = 120; spt = 40 };
      ]
    ()

let zoned_disk ?(file_mb = 8) () =
  let config =
    {
      Config.config_a with
      Config.name = "A/zoned";
      disk = { Disk.Device.default_config with Disk.Device.geom = zoned_geom };
      mkfs =
        {
          Config.config_a.Config.mkfs with
          Ufs.Fs.fpg = 4096;
          ipg = 512;
          (* a small reserve, so the filler can push the test file all
             the way into the innermost zone *)
          minfree_pct = 2;
        };
    }
  in
  let m = Machine.create config in
  Machine.run m (fun m ->
      let fs = m.Machine.fs in
      let dev = m.Machine.dev in
      let engine = m.Machine.engine in
      (* raw media rate per zone: stream 2 MB off the device at each
         zone's start *)
      let raw_rate sector =
        let count = 4096 (* 2 MB in sectors *) in
        let buf = Bytes.create (count * 512) in
        let t0 = Sim.Engine.now engine in
        Disk.Blkdev.read_sync dev ~sector ~count ~buf ~buf_off:0;
        float_of_int (count * 512 / 1024) /. Sim.Time.to_sec_float (Sim.Engine.now engine - t0)
      in
      let z0 = raw_rate 0 in
      let z1 = raw_rate (120 * 6 * 72) in
      let z2 = raw_rate ((120 * 6 * 72) + (140 * 6 * 54)) in
      (* FSR of a file in the outer zone (fresh fs allocates low) *)
      let bench file =
        let io = Workload.Iobench.local fs in
        let cfg =
          { Workload.Iobench.default_config with Workload.Iobench.file_mb;
            path = file }
        in
        Workload.Iobench.prepare io cfg;
        (Workload.Iobench.run_phase io cfg Workload.Iobench.FSR)
          .Workload.Iobench.kb_per_sec
      in
      let outer = bench "/outer" in
      (* consume the outer zones so the next file lands in the inner one *)
      let filler = Ufs.Fs.creat fs "/filler" in
      let buf = Bytes.make Ufs.Layout.bsize 'f' in
      (* leave room for the inner-zone test file (plus slack) above the
         minfree reserve *)
      let keep_frags = (file_mb + 1) * 1024 in
      (try
         let i = ref 0 in
         while
           Ufs.Alloc.total_free_frags fs
           - Ufs.Superblock.minfree_frags fs.Ufs.Types.sb
           > keep_frags
         do
           Ufs.Fs.write fs filler ~off:(!i * Ufs.Layout.bsize) ~buf
             ~len:Ufs.Layout.bsize;
           incr i
         done
       with Vfs.Errno.Error (Vfs.Errno.ENOSPC, _) -> ());
      Ufs.Fs.fsync fs filler;
      Ufs.Iops.iput fs filler;
      let inner = bench "/inner" in
      [
        ("raw media rate, outer zone (72 spt)", z0);
        ("raw media rate, middle zone (54 spt)", z1);
        ("raw media rate, inner zone (40 spt)", z2);
        ("FSR, file in outer zone", outer);
        ("FSR, file in inner zone", inner);
      ])

let future_work_ablation ?(file_mb = 16) () =
  let mmap_cpu_with label features =
    let config =
      Config.with_name (Config.with_features Config.config_a features) label
    in
    let r = mmap_cpu config ~file_mb in
    (label, Sim.Time.to_sec_float r.Workload.Mmap_bench.sys_cpu)
  in
  let base = Ufs.Types.features_clustered in
  let random_big_reads label features =
    (* 24 KB random reads: the paper's "random clustering" example *)
    let config =
      Config.with_name (Config.with_features Config.config_a features) label
    in
    let m = Machine.create config in
    let kbps =
      Machine.run m (fun m ->
          let fs = m.Machine.fs in
          let cfg =
            { Workload.Iobench.default_config with Workload.Iobench.file_mb }
          in
          Workload.Iobench.prepare (Workload.Iobench.local fs) cfg;
          let ip = Ufs.Fs.namei fs "/iobench" in
          let rng = Sim.Rng.create ~seed:3 in
          let req = 24 * 1024 in
          let buf = Bytes.create req in
          let span = (file_mb * 1024 * 1024 / req) - 1 in
          let t0 = Sim.Engine.now m.Machine.engine in
          let ops = 256 in
          for _ = 1 to ops do
            let off = Sim.Rng.int rng span * req in
            ignore (Ufs.Fs.read fs ip ~off ~buf ~len:req)
          done;
          Ufs.Iops.iput fs ip;
          let dt = Sim.Engine.now m.Machine.engine - t0 in
          float_of_int (ops * req) /. 1024. /. Sim.Time.to_sec_float dt)
    in
    (label, kbps)
  in
  [
    mmap_cpu_with "mmap CPU s: baseline clustered" base;
    mmap_cpu_with "mmap CPU s: + bmap cache"
      { base with Ufs.Types.bmap_cache = true };
    mmap_cpu_with "mmap CPU s: + UFS_HOLE bmap skip"
      { base with Ufs.Types.skip_bmap_if_no_holes = true };
    random_big_reads "24KB random read KB/s: no hint" base;
    random_big_reads "24KB random read KB/s: + getpage hint"
      { base with Ufs.Types.getpage_hint = true };
  ]

(* ---- volume manager (striping / mirroring) ---- *)

let vol_stripe_sweep ?(file_mb = 8) ?(stripe_kbs = [ 8; 32; 128 ]) () =
  let row base disks stripe_kb =
    let config =
      Config.with_vol base ~layout:Disk.Blkdev.Stripe ~stripe_kb disks
    in
    let r, w = seq_rates config ~file_mb in
    (base.Config.name, disks, stripe_kb, r, w)
  in
  List.concat_map
    (fun base ->
      List.concat_map
        (fun disks ->
          if disks = 1 then
            (* stripe unit is moot on one disk: a single baseline row *)
            [ row base 1 (List.hd stripe_kbs) ]
          else List.map (row base disks) stripe_kbs)
        [ 1; 2; 4 ])
    [ Config.config_a; Config.config_d ]

(* [readers] simulated processes each streaming a private file; the
   aggregate rate is what mirror read balancing (and its degraded-mode
   collapse) shows that a single-threaded FSR cannot: with one
   outstanding read there is nothing to send to the second copy. *)
let concurrent_read_kbps (m : Machine.t) ~readers ~file_mb =
  let io = Workload.Iobench.local m.Machine.fs in
  let engine = m.Machine.engine in
  let cfgs =
    List.init readers (fun i ->
        {
          Workload.Iobench.default_config with
          Workload.Iobench.file_mb;
          path = Printf.sprintf "/reader%d" i;
        })
  in
  List.iter (Workload.Iobench.prepare io) cfgs;
  let done_cond = Sim.Condition.create engine "readers-done" in
  let remaining = ref readers in
  let t0 = Sim.Engine.now engine in
  List.iter
    (fun cfg ->
      Sim.Engine.spawn engine ~name:cfg.Workload.Iobench.path (fun () ->
          ignore (Workload.Iobench.run_phase io cfg Workload.Iobench.FSR);
          decr remaining;
          if !remaining = 0 then Sim.Condition.broadcast done_cond))
    cfgs;
  while !remaining > 0 do
    Sim.Condition.wait done_cond
  done;
  let dt = Sim.Engine.now engine - t0 in
  float_of_int (readers * file_mb * 1024) /. Sim.Time.to_sec_float dt

let seq_write_kbps (m : Machine.t) ~path ~file_mb =
  let cfg =
    { Workload.Iobench.default_config with Workload.Iobench.file_mb; path }
  in
  (Workload.Iobench.run_phase (Workload.Iobench.local m.Machine.fs) cfg
     Workload.Iobench.FSW)
    .Workload.Iobench.kb_per_sec

let vol_mirror ?(file_mb = 4) ?(readers = 4) () =
  let scenario label config ~degrade =
    let m = Machine.create config in
    Machine.run m (fun m ->
        let w_healthy = seq_write_kbps m ~path:"/wr" ~file_mb in
        if degrade then Disk.Blkdev.fail_member m.Machine.dev 1;
        let r = concurrent_read_kbps m ~readers ~file_mb in
        let w, dropped =
          if degrade then
            let w = seq_write_kbps m ~path:"/wr2" ~file_mb in
            let d =
              Array.fold_left ( + ) 0 (Disk.Blkdev.dropped_writes m.Machine.dev)
            in
            (w, d)
          else (w_healthy, 0)
        in
        (label, r, w, dropped))
  in
  let mirror n =
    Config.with_vol Config.config_a ~layout:Disk.Blkdev.Mirror n
  in
  [
    scenario "1 disk" Config.config_a ~degrade:false;
    scenario "mirror×2" (mirror 2) ~degrade:false;
    scenario "mirror×3" (mirror 3) ~degrade:false;
    scenario "mirror×2 degraded" (mirror 2) ~degrade:true;
  ]

(* ---------- NFS: the clustered UFS served over the wire ---------- *)

type nfs_row = {
  nfs_config : string;
  local_fsr : float;
  remote_fsr : float;
  local_fsw : float;
  remote_fsw : float;
  remote_ra_issued : int;
  read_rpcs : int;
  write_rpcs : int;
}

(* Drop a file from its owning server's page cache: push its delayed
   writes, invalidate its pages, reset its read-ahead state.  A remote
   write phase leaves the whole file in server RAM; without this a
   following remote read streams from server memory while the local
   baseline reads cold from disk, and "remote vs local" measures cache
   warmth instead of wire cost. *)
let cool_server_file t path =
  Topology.run t (fun t ->
      let server = Topology.server_of_path t path in
      let fs = t.Topology.servers.(server).Machine.fs in
      let ip = Ufs.Fs.namei fs path in
      Workload.Iobench.reset_file_state fs ip;
      Ufs.Iops.iput fs ip)

(* IObench on client [c], through the mount that owns [cfg]'s file *)
let remote_phase t c cfg kind =
  Workload.Iobench.run_phase
    (Workload.Iobench.remote (Topology.shard t c cfg.Workload.Iobench.path))
    cfg kind

(* client [id]'s benchmark file in the concurrent-read experiments *)
let client_cfg ~file_mb prefix id =
  {
    Workload.Iobench.default_config with
    Workload.Iobench.file_mb;
    path = prefix ^ string_of_int id;
  }

let prepare_cold t cfg =
  Topology.run_clients t (fun c ->
      let cfg = cfg c.Topology.id in
      Workload.Iobench.prepare
        (Workload.Iobench.remote (Topology.shard t c cfg.Workload.Iobench.path))
        cfg);
  Array.iter
    (fun c -> cool_server_file t (cfg c.Topology.id).Workload.Iobench.path)
    t.Topology.clients

(* Every client streams its own file at once.  All streams spawn at the
   same instant, so the window holds exactly [clients] concurrent
   readers against cold servers; it ends at the last finish.  Returns
   the bytes moved and the window. *)
let concurrent_fsr t cfg =
  let engine = Topology.engine t in
  let t_start = Sim.Engine.now engine in
  let last = ref t_start in
  let bytes = ref 0 in
  Topology.run_clients t (fun c ->
      let r = remote_phase t c (cfg c.Topology.id) Workload.Iobench.FSR in
      bytes := !bytes + r.Workload.Iobench.bytes_moved;
      last := max !last (Sim.Engine.now engine));
  (!bytes, !last - t_start)

let kb_per_sec bytes window =
  if window = 0 then 0.
  else float_of_int bytes /. 1024. /. Sim.Time.to_sec_float window

let nfs_remote_pair (config : Config.t) ~file_mb =
  let t = Topology.create ~clients:1 config in
  let cfg = { Workload.Iobench.default_config with Workload.Iobench.file_mb } in
  let w_out = ref 0. in
  Topology.run_clients t (fun c ->
      let w = remote_phase t c cfg Workload.Iobench.FSW in
      w_out := w.Workload.Iobench.kb_per_sec);
  cool_server_file t cfg.Workload.Iobench.path;
  let out = ref (0., 0., 0, 0, 0) in
  Topology.run_clients t (fun c ->
      let r = remote_phase t c cfg Workload.Iobench.FSR in
      let st = Nfs.Client.stats c.Topology.mount in
      out :=
        ( r.Workload.Iobench.kb_per_sec,
          !w_out,
          st.Nfs.Client.ra_issued,
          Nfs.Rpc.op_calls c.Topology.rpc "read",
          Nfs.Rpc.op_calls c.Topology.rpc "write" ));
  !out

let nfs_local_vs_remote ?(file_mb = 8) () =
  List.map
    (fun (config : Config.t) ->
      let lr, lw = seq_rates config ~file_mb in
      let rr, rw, ra, reads, writes =
        nfs_remote_pair
          (Config.with_name config (config.Config.name ^ ".nfs"))
          ~file_mb
      in
      {
        nfs_config = config.Config.name;
        local_fsr = lr;
        remote_fsr = rr;
        local_fsw = lw;
        remote_fsw = rw;
        remote_ra_issued = ra;
        read_rpcs = reads;
        write_rpcs = writes;
      })
    Config.all_figure9

type nfs_scale_row = {
  sc_clients : int;
  sc_nfsd : int;
  sc_bandwidth_mb : float;
  aggregate_kb_per_sec : float;
  per_client_kb_per_sec : float;
  sc_retransmits : int;
  server_queue_wait_ms : float;
  sc_dup_evictions : int;
}

(* A shared-Ethernet-class client link (1991: 10 Mbit/s Ethernet shared
   among the machine room) — slower than the server's disk, so a single
   client is link-limited and aggregate throughput climbs with the
   client count until the disk saturates.  On the default fast link one
   streaming client already saturates the disk and more clients only
   add seek interference. *)
let nfs_scale_net = { Net.default_config with Net.bandwidth = 600_000 }

let nfs_scaling ?(file_mb = 2) ?(nfsd = 4) ?(net = nfs_scale_net) ~clients
    () =
  let config =
    Config.with_name Config.config_a
      (Printf.sprintf "%s.n%d.d%d.bw%dk" Config.config_a.Config.name clients
         nfsd (net.Net.bandwidth / 1024))
  in
  (* under saturation the server queue can exceed the default 1.1 s
     retransmission timeout; a congested-server mount runs with timeo
     raised so queueing is not mistaken for loss *)
  let t =
    Topology.create ~net ~nfsd ~rpc_timeout:(Sim.Time.ms 4000) ~clients config
  in
  let scale_cfg = client_cfg ~file_mb "/scale" in
  prepare_cold t scale_cfg;
  let total_bytes, wall = concurrent_fsr t scale_cfg in
  let aggregate = kb_per_sec total_bytes wall in
  let retrans =
    Array.fold_left
      (fun acc c -> acc + (Nfs.Rpc.stats c.Topology.rpc).Nfs.Rpc.retransmits)
      0 t.Topology.clients
  in
  {
    sc_clients = clients;
    sc_nfsd = nfsd;
    sc_bandwidth_mb = float_of_int net.Net.bandwidth /. 1024. /. 1024.;
    aggregate_kb_per_sec = aggregate;
    per_client_kb_per_sec = aggregate /. float_of_int clients;
    sc_retransmits = retrans;
    server_queue_wait_ms =
      Sim.Stats.Summary.mean
        (Nfs.Server.stats t.Topology.service).Nfs.Server.queue_wait_us
      /. 1000.;
    sc_dup_evictions =
      (Nfs.Server.stats t.Topology.service).Nfs.Server.dup_evictions;
  }


(* ---------- fleet scale: M servers x N clients ---------- *)

let transport_name = function
  | Nfs.Rpc.Fixed -> "fixed"
  | Nfs.Rpc.Adaptive -> "adaptive"

let topology_name = function
  | Topology.Point_to_point -> "p2p"
  | Topology.Shared_medium -> "shared"
  | Topology.Switched -> "switched"

type fleet_row = {
  fl_clients : int;
  fl_servers : int;
  fl_topology : string;
  fl_aggregate_kb_per_sec : float;
  fl_per_client_kb_per_sec : float;
  fl_retransmits : int;
  fl_server_queue_ms : float;  (* worst server: mean nfsd queue wait *)
  fl_server_cpu_util : float;  (* worst server: CPU busy / window *)
  fl_disk_util : float;  (* worst server: disk busy / window *)
  fl_port_util : float;  (* worst server port utilization *)
  fl_switch_drops : int;  (* output-buffer tail drops *)
  fl_occ_hwm : int;  (* worst output-buffer occupancy seen *)
  fl_dup_evictions : int;
  fl_bottleneck : string;  (* the binding resource at this scale *)
}

(* One rung of the bottleneck ladder: [clients] streaming readers over
   [servers] servers, files spread by {!Topology.server_of_path}.  The
   per-client file is deliberately small (1 MB): the point is where
   {e aggregate} goodput stops scaling, not per-stream behaviour, and a
   1024-client rung has to fit in CI.  Utilizations are measured over
   the concurrent-read window only (prepare traffic excluded), each as
   busy-time delta over window wall time; the bottleneck label names the
   most-utilized resource, or the switch when it dropped frames. *)
let nfs_fleet ?(file_mb = 1) ~servers ~clients () =
  let topology = Topology.Switched in
  let config =
    Config.with_name Config.config_a
      (Printf.sprintf "%s.fleet.%s.n%d.m%d" Config.config_a.Config.name
         (topology_name topology) clients servers)
  in
  let t =
    Topology.create ~topology ~transport:Nfs.Rpc.Adaptive
      ~rpc_timeout:(Sim.Time.ms 4000) ~servers ~register_clients:false ~clients
      config
  in
  let fleet_cfg = client_cfg ~file_mb "/fleet" in
  prepare_cold t fleet_cfg;
  (* snapshot the busy counters, then hold [clients] concurrent readers
     against cold servers and measure over the max-finish window *)
  let cpu0 =
    Array.map (fun m -> Sim.Cpu.sys_time m.Machine.cpu) t.Topology.servers
  in
  let disk_busy m =
    Array.fold_left
      (fun acc d -> acc + (Disk.Device.stats d).Disk.Device.busy)
      0 (Disk.Blkdev.members m.Machine.dev)
  in
  let disk0 = Array.map disk_busy t.Topology.servers in
  let port_busy p =
    let st = Net.Switch.port_stats p in
    max st.Net.Switch.up_busy_us st.Net.Switch.down_busy_us
  in
  let port0 =
    match t.Topology.srv_ports with
    | Some ports -> Array.map port_busy ports
    | None -> [||]
  in
  let total_bytes, wall = concurrent_fsr t fleet_cfg in
  let aggregate = kb_per_sec total_bytes wall in
  let fwall = float_of_int (max 1 wall) in
  let util_over f base =
    Array.mapi (fun i m -> float_of_int (f m - base.(i)) /. fwall)
      t.Topology.servers
    |> Array.fold_left max 0.
  in
  let cpu_util =
    util_over (fun m -> Sim.Cpu.sys_time m.Machine.cpu) cpu0
  in
  let disk_util = util_over disk_busy disk0 in
  let port_util =
    match t.Topology.srv_ports with
    | Some ports ->
        Array.mapi
          (fun i p -> float_of_int (port_busy p - port0.(i)) /. fwall)
          ports
        |> Array.fold_left max 0.
    | None -> 0.
  in
  let retrans =
    Array.fold_left
      (fun acc c ->
        Array.fold_left
          (fun acc m ->
            acc + (Nfs.Rpc.stats m.Topology.m_rpc).Nfs.Rpc.retransmits)
          acc c.Topology.mounts)
      0 t.Topology.clients
  in
  let worst_queue_ms =
    Array.fold_left
      (fun acc svc ->
        max acc
          (Sim.Stats.Summary.mean
             (Nfs.Server.stats svc).Nfs.Server.queue_wait_us
          /. 1000.))
      0. t.Topology.services
  in
  let dup_evictions =
    Array.fold_left
      (fun acc svc -> acc + (Nfs.Server.stats svc).Nfs.Server.dup_evictions)
      0 t.Topology.services
  in
  let switch_drops, occ_hwm =
    match Topology.switch t with
    | Some sw ->
        let st = Net.Switch.stats sw in
        (st.Net.Switch.overflows, st.Net.Switch.occ_hwm)
    | None -> (0, 0)
  in
  let bottleneck =
    (* drops trump utilization: a dropping switch is shedding the load
       the utilizations never see *)
    if switch_drops > 0 then "switch buffers"
    else
      let candidates =
        [
          (disk_util, "server disk");
          (cpu_util, "server cpu");
          (port_util, "server port");
        ]
      in
      let u, name =
        List.fold_left
          (fun (bu, bn) (u, n) -> if u > bu then (u, n) else (bu, bn))
          (0., "none") candidates
      in
      if u < 0.5 then "client links (offered load)" else name
  in
  {
    fl_clients = clients;
    fl_servers = servers;
    fl_topology = topology_name topology;
    fl_aggregate_kb_per_sec = aggregate;
    fl_per_client_kb_per_sec = aggregate /. float_of_int clients;
    fl_retransmits = retrans;
    fl_server_queue_ms = worst_queue_ms;
    fl_server_cpu_util = cpu_util;
    fl_disk_util = disk_util;
    fl_port_util = port_util;
    fl_switch_drops = switch_drops;
    fl_occ_hwm = occ_hwm;
    fl_dup_evictions = dup_evictions;
    fl_bottleneck = bottleneck;
  }

type nfs_cc_row = {
  cc_clients : int;
  cc_transport : string;
  cc_topology : string;
  cc_goodput_kb_per_sec : float;
  cc_retransmits : int;
  cc_steady_retransmits : int;
  cc_backoffs : int;
  cc_dup_hits : int;
  cc_dup_evictions : int;
  cc_srtt_ms : float;
  cc_rto_ms : float;
  cc_cwnd : float;
  cc_server_queue_ms : float;
  cc_medium_util : float;
}

(* One cell of the congestion sweep: [clients] concurrent streaming
   readers against a cold server on Ethernet-class links.  The fixed
   transport runs with the true NFSv2 default timeout (1.1 s) — at
   saturation the server queue exceeds it and every client re-injects
   duplicates on a fixed clock, which is the collapse; the adaptive
   transport must discover the same queueing delay through its
   estimator instead of being handed a safe [rpc_timeout].
   Steady-state retransmits are counted over the second half of the
   measured window, after the estimator has had time to converge. *)
let nfs_congestion_point ?(file_mb = 1) ?(net = nfs_scale_net) ~clients
    ~transport ~topology () =
  let config =
    Config.with_name Config.config_a
      (Printf.sprintf "A.cc.%s.%s.n%d" (transport_name transport)
         (topology_name topology) clients)
  in
  let t = Topology.create ~net ~topology ~transport ~clients config in
  let cc_cfg = client_cfg ~file_mb "/cc" in
  prepare_cold t cc_cfg;
  let t_start = Sim.Engine.now (Topology.engine t) in
  let total_bytes, wall = concurrent_fsr t cc_cfg in
  let mid = t_start + (wall / 2) in
  let sum f = Array.fold_left (fun a c -> a + f c) 0 t.Topology.clients in
  let sv = Nfs.Server.stats t.Topology.service in
  let rpc0 = t.Topology.clients.(0).Topology.rpc in
  {
    cc_clients = clients;
    cc_transport = transport_name transport;
    cc_topology = topology_name topology;
    cc_goodput_kb_per_sec = kb_per_sec total_bytes wall;
    cc_retransmits =
      sum (fun c -> (Nfs.Rpc.stats c.Topology.rpc).Nfs.Rpc.retransmits);
    cc_steady_retransmits =
      sum (fun c -> Nfs.Rpc.retransmits_since c.Topology.rpc mid);
    cc_backoffs = sum (fun c -> Nfs.Rpc.backoffs c.Topology.rpc);
    cc_dup_hits = sv.Nfs.Server.dup_hits;
    cc_dup_evictions = sv.Nfs.Server.dup_evictions;
    cc_srtt_ms = Nfs.Rpc.srtt_us rpc0 /. 1000.;
    cc_rto_ms = Nfs.Rpc.rto_us rpc0 /. 1000.;
    cc_cwnd = Nfs.Rpc.cwnd rpc0;
    cc_server_queue_ms =
      Sim.Stats.Summary.mean sv.Nfs.Server.queue_wait_us /. 1000.;
    cc_medium_util =
      (match Topology.medium t with
      | Some m -> Net.Medium.utilization m
      | None -> 0.);
  }

let nfs_congestion ?file_mb ?(client_counts = [ 1; 4; 16 ]) () =
  List.concat_map
    (fun clients ->
      List.concat_map
        (fun topology ->
          List.map
            (fun transport ->
              nfs_congestion_point ?file_mb ~clients ~transport ~topology ())
            [ Nfs.Rpc.Fixed; Nfs.Rpc.Adaptive ])
        [ Topology.Point_to_point; Topology.Shared_medium ])
    client_counts

type nfs_loss_row = {
  loss_pct : float;
  goodput_kb_per_sec : float;
  zl_retransmits : int;
  zl_drops : int;
  zl_dup_hits : int;
  creates_applied : int;
  creates_issued : int;
  writes_applied : int;
  writes_issued : int;
}

let nfs_loss ?(file_mb = 1) ?(losses = [ 0.; 0.001; 0.01; 0.05 ]) () =
  List.map
    (fun loss ->
      let config =
        Config.with_name Config.config_a
          (Printf.sprintf "A.loss%g" (loss *. 100.))
      in
      let t =
        Topology.create
          ~net:(Net.lossy Net.default_config loss)
          ~clients:1 config
      in
      let cfg =
        {
          Workload.Iobench.default_config with
          Workload.Iobench.file_mb;
          path = "/lossy";
        }
      in
      let moved = ref 0 in
      let spent = ref Sim.Time.zero in
      let run c k = remote_phase t c cfg k in
      Topology.run_clients t (fun c ->
          let w = run c Workload.Iobench.FSW in
          moved := w.Workload.Iobench.bytes_moved;
          spent := w.Workload.Iobench.elapsed);
      cool_server_file t cfg.Workload.Iobench.path;
      Topology.run_clients t (fun c ->
          let r = run c Workload.Iobench.FSR in
          moved := !moved + r.Workload.Iobench.bytes_moved;
          spent := !spent + r.Workload.Iobench.elapsed);
      let c = t.Topology.clients.(0) in
      {
        loss_pct = loss *. 100.;
        goodput_kb_per_sec = kb_per_sec !moved !spent;
        zl_retransmits = (Nfs.Rpc.stats c.Topology.rpc).Nfs.Rpc.retransmits;
        zl_drops = Topology.client_drops t c;
        zl_dup_hits = (Nfs.Server.stats t.Topology.service).Nfs.Server.dup_hits;
        creates_applied = Nfs.Server.applied t.Topology.service "create";
        creates_issued = Nfs.Rpc.op_calls c.Topology.rpc "create";
        writes_applied = Nfs.Server.applied t.Topology.service "write";
        writes_issued = Nfs.Rpc.op_calls c.Topology.rpc "write";
      })
    losses
