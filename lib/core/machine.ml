type t = {
  config : Config.t;
  engine : Sim.Engine.t;
  cpu : Sim.Cpu.t;
  pool : Vm.Pool.t;
  pageout : Vm.Pageout.t;
  dev : Disk.Blkdev.t;
  mutable fs : Ufs.Types.fs;  (* remounted in place by a server reboot *)
}

(* Ambient sink: experiments build machines internally, so the caller
   that wants their metrics installs a registry here for the duration
   of the run rather than threading it through every build site. *)
let metrics_sink : Sim.Metrics.t option ref = ref None

let current_metrics_sink () = !metrics_sink

let with_metrics_sink reg f =
  let saved = !metrics_sink in
  metrics_sink := Some reg;
  Fun.protect ~finally:(fun () -> metrics_sink := saved) f

let register_metrics t reg =
  let instance = t.config.Config.name in
  Disk.Blkdev.register_metrics t.dev reg ~instance;
  Vm.Pool.register_metrics t.pool reg ~instance;
  Vm.Pageout.register_metrics t.pageout reg ~instance;
  Ufs.Fs.register_metrics t.fs reg ~instance;
  Sim.Engine.register_metrics t.engine reg ~instance

let build ?engine (config : Config.t) ~format ~image =
  let engine = match engine with Some e -> e | None -> Sim.Engine.create () in
  (* an installed span recorder stamps spans off this machine's virtual
     clock (experiments build one machine per engine; multi-machine
     topologies share one engine, so the last bind wins harmlessly) *)
  (match Sim.Span.installed () with
  | Some r -> Sim.Span.set_clock r (fun () -> Sim.Engine.now engine)
  | None -> ());
  let cpu = Sim.Cpu.create engine in
  let pool =
    Vm.Pool.create engine (Vm.Param.default ~memory_mb:config.Config.memory_mb ())
  in
  let pageout = Vm.Pageout.start pool cpu in
  let spec = config.Config.vol in
  let dev =
    Disk.Blkdev.create engine spec.Config.layout
      (Array.make spec.Config.disks config.Config.disk)
      ~stripe_bytes:(spec.Config.stripe_kb * 1024)
  in
  (match image with
  | Some src -> Disk.Store.copy_into src (Disk.Blkdev.store dev)
  | None -> ());
  if format then Ufs.Fs.mkfs dev ~opts:config.Config.mkfs ();
  let fs =
    Ufs.Fs.mount engine cpu pool dev ~features:config.Config.features
      ~costs:config.Config.costs ()
  in
  let t = { config; engine; cpu; pool; pageout; dev; fs } in
  (match !metrics_sink with
  | Some reg -> register_metrics t reg
  | None -> ());
  t

let create ?engine config = build ?engine config ~format:true ~image:None

let create_no_format ?engine config store =
  build ?engine config ~format:false ~image:(Some store)

let run t f =
  let result = ref None in
  Sim.Engine.spawn t.engine ~name:"experiment" (fun () ->
      match f t with
      | v -> result := Some (Ok v)
      | exception e ->
          result := Some (Error (e, Printexc.get_raw_backtrace ())));
  Sim.Engine.run t.engine;
  match !result with
  | Some (Ok v) -> v
  | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
  | None ->
      raise
        (Sim.Engine.Deadlock
           "experiment process never completed (blocked forever)")

let snapshot_store t = Disk.Blkdev.store t.dev

let crash t =
  (* tally what the power cut loses (queued + in-flight requests) into
     the per-drive crash_dropped counters; the snapshot below never
     contained them, so the copy is unchanged — only now it's counted *)
  Array.iter
    (fun d ->
      let sb = Disk.Device.sector_bytes d in
      let s = Disk.Device.stats d in
      let drop (r : Disk.Request.t) =
        s.Disk.Device.crash_dropped_reqs <- s.Disk.Device.crash_dropped_reqs + 1;
        s.Disk.Device.crash_dropped_bytes <-
          s.Disk.Device.crash_dropped_bytes + (r.Disk.Request.count * sb)
      in
      Disk.Device.iter_queued d drop)
    (Disk.Blkdev.members t.dev);
  let src = Disk.Blkdev.store t.dev in
  let copy = Disk.Store.create ~size:(Disk.Store.size src) in
  Disk.Store.copy_into src copy;
  copy

let crash_dropped t = Disk.Blkdev.crash_dropped t.dev
