(* The repository benchmark's driver: builds one workload of the
   simulated stack, runs it once, times every read(2)/write(2) call from
   outside in simulated microseconds and every phase in host seconds,
   checks every output, and prints one JSON object on stdout.

     driver.exe --workload iobench-local|nfs-randrw|fleet-stream
                [--seed N] [--traced] [--trace-out FILE] [--check]
     driver.exe --workload NAME [--seed N] --setup-only
     driver.exe --calibrate

   [--traced] wraps every op in a Sim.Span root and a Sim.Attrib clock
   and adds the attribution and span self-time figures; the modeled
   output (and its digest) must not change.  [--check] also re-runs the
   reference implementation of the workload where one exists (the
   Figure-10 grid).  [--setup-only] times the set-up alone; [--calibrate]
   times the host-speed loop alone.  Host times are raw wall seconds:
   run.py repeats the driver, scales and aggregates; see README.md for
   the workloads, metrics and seeds. *)

open Clusterfs

let default_seed = 42

(* ---------- host ledger ---------- *)

let host_now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* VmHWM: the peak resident set of this process so far, in MB. *)
let vm_hwm_mb () =
  let prefix = "VmHWM:" in
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.
        | line when String.starts_with ~prefix line ->
            let rest =
              String.sub line (String.length prefix)
                (String.length line - String.length prefix)
            in
            Scanf.sscanf rest " %d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> scan ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

(* Host speed, measured with the standard library only: major-heap
   payload churn, fresh pages and a hash table, like the simulator's own
   host work.  [--calibrate] runs it in a process of its own, with an
   empty heap, so no change to the simulator can move it; run.py scales
   host seconds by it to cancel a shared machine's drift in speed. *)
let calibrate () =
  let t0 = host_now () in
  let ring = Array.make 512 Bytes.empty in
  let h = Hashtbl.create 4096 in
  for i = 0 to 24_999 do
    let b = Bytes.create 8192 in
    Bytes.fill b 0 8192 (Char.unsafe_chr (i land 0xff));
    ring.(i land 511) <- b;
    Hashtbl.replace h (i land 4095) (i, [ i ])
  done;
  for _ = 1 to 4 do
    let big = Bytes.create (16 lsl 20) in
    Bytes.fill big 0 (Bytes.length big) 'c';
    ignore (Sys.opaque_identity big)
  done;
  ignore (Sys.opaque_identity (ring, h));
  host_now () -. t0

let gc_delta (a : Gc.stat) (b : Gc.stat) ~ops =
  let minor = b.Gc.minor_words -. a.Gc.minor_words in
  let major = b.Gc.major_words -. a.Gc.major_words in
  let promoted = b.Gc.promoted_words -. a.Gc.promoted_words in
  [
    ("host.minor_mwords", minor /. 1e6);
    ("host.major_mwords", major /. 1e6);
    ( "host.major_collections",
      float_of_int (b.Gc.major_collections - a.Gc.major_collections) );
    ( "host.top_heap_mb",
      float_of_int b.Gc.top_heap_words *. float_of_int (Sys.word_size / 8)
      /. 1048576. );
    ("host.alloc_words_per_op", (minor +. major -. promoted) /. float_of_int (max 1 ops));
  ]

(* ---------- per-op recording ---------- *)

module Vec = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 4096 0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let b = Array.make (2 * v.n) 0 in
      Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let to_array v = Array.sub v.a 0 v.n
end

type dir = Read | Write

type ctx = {
  mutable engine : Sim.Engine.t;
  traced : bool;
  clock : Sim.Attrib.clock;  (** every traced op's charges, merged *)
  mutable reads : Vec.t;
  mutable writes : Vec.t;
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;  (** the first few, newest first *)
}

let fail c msg =
  c.failed <- c.failed + 1;
  if List.length c.failures < 10 then c.failures <- msg :: c.failures

let expect c ok msg = if not ok then fail c (Lazy.force msg)

(* One read(2)/write(2) call, timed from outside in simulated time.  An
   exception is a failed op; the latency is recorded either way. *)
let timed c dir ~track f =
  c.attempted <- c.attempted + 1;
  let t0 = Sim.Engine.now c.engine in
  let res =
    try
      Some
        (if c.traced then begin
           let clk = Sim.Attrib.create () in
           let name =
             match dir with Read -> "bench.read" | Write -> "bench.write"
           in
           (* ~sample:false: the ring keeps every root; the slow-op
              sampler would re-sort up to 4096 durations per root *)
           let v =
             Sim.Span.root ~name ~track ~sample:false (fun () ->
                 Sim.Attrib.with_clock clk f)
           in
           Sim.Attrib.merge_into ~dst:c.clock clk;
           v
         end
         else f ())
    with e ->
      fail c (Printexc.to_string e);
      None
  in
  Vec.push
    (match dir with Read -> c.reads | Write -> c.writes)
    (Sim.Engine.now c.engine - t0);
  res

(* Closed-loop lanes: [lanes] processes pull ops off one cursor; the
   caller waits for all of them. *)
let run_lanes engine ~name ~lanes ~nops body =
  let cursor = ref 0 and finished = ref 0 in
  let join = Sim.Condition.create engine name in
  for l = 0 to lanes - 1 do
    Sim.Engine.spawn engine ~name:(Printf.sprintf "%s.l%d" name l) (fun () ->
        while !cursor < nops do
          let i = !cursor in
          incr cursor;
          body ~lane:l i
        done;
        incr finished;
        Sim.Condition.broadcast join)
  done;
  while !finished < lanes do
    Sim.Condition.wait join
  done

(* Seeded payload: block [blk] of client [client]'s file at write
   version [ver] (0 = the prewrite). *)
let fill_block ~seed ~client ~blk ~ver buf ~pos ~len =
  let base = Hashtbl.hash (seed, client, blk, ver) in
  for i = 0 to len - 1 do
    Bytes.unsafe_set buf (pos + i) (Char.unsafe_chr ((base + (i * 7) + (i lsr 8)) land 0xff))
  done

let mix seed tag k = Hashtbl.hash (seed, tag, k)

let ctx_latencies c = [ (Vec.to_array c.reads, Vec.to_array c.writes) ]

(* ---------- workloads ---------- *)

type measured = {
  bytes : int;  (** moved by the timed ops *)
  written : int;  (** of which written *)
  window_us : Sim.Time.t;  (** simulated time they took, closing fsyncs included *)
  windows : int list;  (** per phase, for the digest *)
  fig10_err_pct : float;  (** iobench-local only; 0 elsewhere *)
}

type workload = {
  engines : Sim.Engine.t list;
  servers : Machine.t list;  (** the machines whose layers are measured *)
  in_scope : string -> bool;  (** machine-layer instances to report *)
  run : ctx -> measured;
  verify : ctx -> unit;  (** read back, applied-once, fsck *)
  reference : ctx -> unit;  (** the [--check] comparison, if any *)
  latencies : ctx -> (int array * int array) list;
      (** (reads, writes) per-op arrays in run order (iobench-local: one
          pair per config); pooled, they feed the per-call metrics *)
}

let fsck c name dev =
  let r = Ufs.Fsck.check dev in
  expect c (Ufs.Fsck.ok r)
    (lazy (Printf.sprintf "fsck %s: %s" name (String.concat "; " r.Ufs.Fsck.problems)))

(* iobench-local: the paper's own measurement.  IObench's five phases on
   configs A-D, 16 MB file on the 8 MB machine, each phase cold, every
   call issued through Ufs.Fs exactly as Workload.Iobench issues it, so
   the KB/s must equal Experiments.figure10 bit for bit.  The seed draws
   the FRR/FRU offsets; the default seed is IObench's own. *)
let iob_file_mb = 16
let iob_req = 8192
let iob_random_ops = 512
let iob_path = "/iobench"
let phase_names = [ "FSW"; "FSU"; "FSR"; "FRR"; "FRU" ]

let iobench_phases c (m : Machine.t) ~seed ~model =
  let fs = m.Machine.fs and engine = m.Machine.engine in
  let nblocks = Bytes.length model in
  let track = "bench/" ^ m.Machine.config.Config.name in
  let refs = Hashtbl.create 4 in
  let ref_block ch =
    match Hashtbl.find_opt refs ch with
    | Some b -> b
    | None ->
        let b = Bytes.make iob_req ch in
        Hashtbl.add refs ch b;
        b
  in
  let measure f =
    let t0 = Sim.Engine.now engine in
    let bytes = f () in
    (bytes, Sim.Engine.now engine - t0)
  in
  let with_file ~create f =
    let ip = if create then Ufs.Fs.creat fs iob_path else Ufs.Fs.namei fs iob_path in
    Fun.protect ~finally:(fun () -> Ufs.Iops.iput fs ip) (fun () -> f ip)
  in
  let write ip ~buf b =
    ignore
      (timed c Write ~track (fun () ->
           Ufs.Fs.write fs ip ~off:(b * iob_req) ~buf ~len:iob_req));
    Bytes.set model b (Bytes.get buf 0)
  in
  let read ip ~buf b =
    match
      timed c Read ~track (fun () ->
          Ufs.Fs.read fs ip ~off:(b * iob_req) ~buf ~len:iob_req)
    with
    | Some n ->
        expect c
          (n = iob_req && Bytes.equal buf (ref_block (Bytes.get model b)))
          (lazy (Printf.sprintf "iobench %s: block %d mismatch" track b));
        n
    | None -> 0
  in
  let seq_write ip fill =
    let buf = Bytes.make iob_req fill in
    for b = 0 to nblocks - 1 do
      write ip ~buf b
    done;
    Ufs.Fs.fsync fs ip;
    nblocks * iob_req
  in
  let seq_read ip =
    let buf = Bytes.create iob_req in
    let acc = ref 0 in
    for b = 0 to nblocks - 1 do
      acc := !acc + read ip ~buf b
    done;
    !acc
  in
  let offsets () =
    let rng = Sim.Rng.create ~seed in
    Array.init iob_random_ops (fun _ -> Sim.Rng.int rng nblocks)
  in
  let cold f ip =
    Workload.Iobench.reset_file_state fs ip;
    measure (fun () -> f ip)
  in
  let fsw = with_file ~create:true (fun ip -> measure (fun () -> seq_write ip 'w')) in
  let fsu = with_file ~create:false (cold (fun ip -> seq_write ip 'u')) in
  let fsr = with_file ~create:false (cold seq_read) in
  let frr =
    with_file ~create:false
      (cold (fun ip ->
           let buf = Bytes.create iob_req in
           Array.fold_left (fun acc b -> acc + read ip ~buf b) 0 (offsets ())))
  in
  let fru =
    with_file ~create:false
      (cold (fun ip ->
           let buf = Bytes.make iob_req 'u' in
           Array.iter (write ip ~buf) (offsets ());
           Ufs.Fs.fsync fs ip;
           iob_random_ops * iob_req))
  in
  [ fsw; fsu; fsr; frr; fru ]

let kb_per_s (bytes, elapsed) =
  if elapsed = 0 then 0.
  else float_of_int bytes /. 1024. /. Sim.Time.to_sec_float elapsed

let iobench ~seed =
  let machines = List.map (fun cfg -> Machine.create cfg) Config.all_figure9 in
  let nblocks = iob_file_mb * 1024 * 1024 / iob_req in
  let models = List.map (fun _ -> Bytes.make nblocks '\000') machines in
  let results = ref [] and lats = ref [] in
  let run c =
    let phases =
      List.map2
        (fun (m : Machine.t) model ->
          c.engine <- m.Machine.engine;
          (* one recorder observes the four machines in turn *)
          Option.iter
            (fun r -> Sim.Span.set_clock r (fun () -> Sim.Engine.now m.Machine.engine))
            (Sim.Span.installed ());
          c.reads <- Vec.create ();
          c.writes <- Vec.create ();
          let ph = Machine.run m (fun m -> iobench_phases c m ~seed ~model) in
          lats := (Vec.to_array c.reads, Vec.to_array c.writes) :: !lats;
          (m.Machine.config.Config.name, ph))
        machines models
    in
    results := phases;
    lats := List.rev !lats;
    let err =
      List.concat_map
        (fun (p : Experiments.iobench_row) ->
          let sim = List.map kb_per_s (List.assoc p.Experiments.config phases) in
          let paper =
            Experiments.[ p.fsw; p.fsu; p.fsr; p.frr; p.fru ]
          in
          List.map2 (fun s p -> Float.abs (s -. p) /. p) sim paper)
        Experiments.paper_figure10
    in
    let a = List.assoc "A" phases in
    {
      bytes = List.fold_left (fun acc (b, _) -> acc + b) 0 a;
      written = 0;
      window_us = List.fold_left (fun acc (_, e) -> acc + e) 0 a;
      windows = List.concat_map (fun (_, ph) -> List.map snd ph) phases;
      fig10_err_pct = 100. *. List.fold_left ( +. ) 0. err /. float_of_int (List.length err);
    }
  in
  let verify c =
    List.iter2
      (fun (m : Machine.t) model ->
        let name = m.Machine.config.Config.name in
        Machine.run m (fun m ->
            let fs = m.Machine.fs in
            let ip = Ufs.Fs.namei fs iob_path in
            let buf = Bytes.create iob_req in
            Bytes.iteri
              (fun b ch ->
                let n = Ufs.Fs.read fs ip ~off:(b * iob_req) ~buf ~len:iob_req in
                expect c
                  (n = iob_req && Bytes.equal buf (Bytes.make iob_req ch))
                  (lazy (Printf.sprintf "iobench %s: read-back block %d" name b)))
              model;
            Ufs.Iops.iput fs ip;
            Ufs.Fs.unmount fs);
        fsck c name m.Machine.dev)
      machines models
  in
  (* What Experiments.figure10 ~file_mb:16 runs for each config, with the
     run's seed: at the default seed the two are the same computation. *)
  let reference c =
    let icfg =
      {
        Workload.Iobench.default_config with
        Workload.Iobench.file_mb = iob_file_mb;
        random_ops = iob_random_ops;
        seed;
      }
    in
    List.iter
      (fun (cfg : Config.t) ->
        let name = cfg.Config.name in
        let rs =
          Machine.run (Machine.create cfg) (fun m -> Workload.Iobench.run_all m.Machine.fs icfg)
        in
        List.iter2
          (fun (ph, ours) (r : Workload.Iobench.result) ->
            let theirs = r.Workload.Iobench.kb_per_sec in
            expect c (Int64.equal (Int64.bits_of_float ours) (Int64.bits_of_float theirs))
              (lazy
                (Printf.sprintf "iobench %s %s: driver %.17g KB/s, reference %.17g" name ph
                   ours theirs)))
          (List.combine phase_names (List.map kb_per_s (List.assoc name !results)))
          rs)
      Config.all_figure9
  in
  {
    engines = List.map (fun (m : Machine.t) -> m.Machine.engine) machines;
    servers = [ List.hd machines ];
    in_scope = (fun inst -> inst = "A");
    run;
    verify;
    reference;
    latencies = (fun _ -> !lats);
  }

(* Read back every client file through a cold client cache. *)
let read_back c (t : Topology.t) ~files ~expected =
  Topology.run t (fun _ ->
      Array.iteri
        (fun id (f, nblk, bs) ->
          Nfs.Client.invalidate f;
          let buf = Bytes.create bs and exp = Bytes.create bs in
          for b = 0 to nblk - 1 do
            let n = Nfs.Client.read f ~off:(b * bs) ~buf ~len:bs in
            expected ~client:id ~blk:b exp;
            expect c (n = bs && Bytes.equal buf exp)
              (lazy (Printf.sprintf "client %d: read-back block %d" id b))
          done)
        files)

(* Check that every WRITE was applied exactly once, then unmount and
   fsck every server. *)
let check_servers c (t : Topology.t) =
  let issued =
    Array.fold_left
      (fun acc (cl : Topology.client) ->
        Array.fold_left
          (fun acc (m : Topology.mountpoint) -> acc + Nfs.Rpc.op_calls m.Topology.m_rpc "write")
          acc cl.Topology.mounts)
      0 t.Topology.clients
  in
  let applied =
    Array.fold_left (fun acc s -> acc + Nfs.Server.applied s "write") 0 t.Topology.services
  in
  expect c (applied = issued)
    (lazy (Printf.sprintf "WRITE applied %d times for %d issued" applied issued));
  Topology.run t (fun t ->
      Array.iter (fun (m : Machine.t) -> Ufs.Fs.unmount m.Machine.fs) t.Topology.servers);
  Array.iter
    (fun (m : Machine.t) -> fsck c m.Machine.config.Config.name m.Machine.dev)
    t.Topology.servers

(* nfs-randrw: four clients each run 6144 calls of a 4 KB random 70/30
   read/write mix with two lanes over a private 16 MB file.  Each file is twice the
   8 MB client cache, all four (64 MB) fit the 96 MB server's page
   cache: the RPC, wire, nfsd and client-cache layers do the work, the
   server disk serves only the synchronous WRITEs, and clustering
   read-ahead is bypassed.  The op stream is the driver's own (fixed
   count, independent of file size).  Reads are uniform; each write
   goes to one 4 KB half of the next 8 KB client page of a seeded
   permutation (~1840 of the 2048 pages get written), so no page is
   written twice in a run: two writes to one
   page expose the client's push-reordering bug (an older WRITE of the
   page lands last) as stale data on read-back. *)
let rw_clients = 4
let rw_file = 16 lsl 20
let rw_bs = 4096
let rw_ops = 6144
let rw_lanes = 2
let rw_read_pct = 70

let nfs_randrw ~seed =
  let config = Config.with_name (Config.with_memory_mb Config.config_a 96) "R" in
  let t = Topology.create ~transport:Nfs.Rpc.Adaptive ~clients:rw_clients config in
  let engine = Topology.engine t in
  let nblk = rw_file / rw_bs in
  let files = Array.make rw_clients None in
  let version = Array.init rw_clients (fun _ -> Array.make nblk 0) in
  let fill ~client ~blk buf ~pos =
    fill_block ~seed ~client ~blk ~ver:version.(client).(blk) buf ~pos ~len:rw_bs
  in
  Topology.run_clients t (fun cl ->
      let id = cl.Topology.id in
      let f = Nfs.Client.create cl.Topology.mount (Printf.sprintf "rw%d" id) in
      let per_chunk = 16 in
      let chunk = per_chunk * rw_bs in
      let buf = Bytes.create chunk in
      for k = 0 to (rw_file / chunk) - 1 do
        for j = 0 to per_chunk - 1 do
          fill ~client:id ~blk:((k * per_chunk) + j) buf ~pos:(j * rw_bs)
        done;
        Nfs.Client.write f ~off:(k * chunk) ~buf ~len:chunk
      done;
      Nfs.Client.fsync f;
      Nfs.Client.invalidate f;
      files.(id) <- Some f);
  let files = Array.map Option.get files in
  let run c =
    let t0 = Sim.Engine.now engine in
    let finish = Array.make rw_clients t0 in
    Topology.run_clients t (fun cl ->
        let id = cl.Topology.id and f = files.(cl.Topology.id) in
        let track = Printf.sprintf "bench/c%d" id in
        let off_rng = Sim.Rng.create ~seed:(mix seed 1 id) in
        let dir_rng = Sim.Rng.create ~seed:(mix seed 2 id) in
        let per_page = Ufs.Layout.bsize / rw_bs in
        let pages = Array.init (nblk / per_page) Fun.id in
        Sim.Rng.shuffle off_rng pages;
        let nwrites = ref 0 in
        let ops =
          Array.init rw_ops (fun _ ->
              if Sim.Rng.int dir_rng 100 < rw_read_pct then
                (true, Sim.Rng.int off_rng nblk)
              else begin
                incr nwrites;
                (false, (pages.(!nwrites - 1) * per_page) + Sim.Rng.int off_rng per_page)
              end)
        in
        (* two lanes touching one block at once would make its expected
           contents ambiguous: the later one waits (rare: 2 lanes over
           4096 blocks) *)
        let busy = Array.make nblk false in
        let freed = Sim.Condition.create engine (track ^ ".blk") in
        let vers = version.(id) in
        let bufs = Array.init rw_lanes (fun _ -> (Bytes.create rw_bs, Bytes.create rw_bs)) in
        run_lanes engine ~name:track ~lanes:rw_lanes ~nops:rw_ops (fun ~lane i ->
            let is_read, b = ops.(i) in
            while busy.(b) do
              Sim.Condition.wait freed
            done;
            busy.(b) <- true;
            let buf, exp = bufs.(lane) in
            let off = b * rw_bs in
            if is_read then begin
              match timed c Read ~track (fun () -> Nfs.Client.read f ~off ~buf ~len:rw_bs) with
              | Some n ->
                  fill ~client:id ~blk:b exp ~pos:0;
                  expect c (n = rw_bs && Bytes.equal buf exp)
                    (lazy (Printf.sprintf "client %d: block %d mismatch" id b))
              | None -> ()
            end
            else begin
              vers.(b) <- i + 1;
              fill ~client:id ~blk:b buf ~pos:0;
              ignore (timed c Write ~track (fun () -> Nfs.Client.write f ~off ~buf ~len:rw_bs))
            end;
            busy.(b) <- false;
            Sim.Condition.broadcast freed);
        Nfs.Client.fsync f;
        finish.(id) <- Sim.Engine.now engine);
    let window = Array.fold_left max t0 finish - t0 in
    {
      bytes = rw_clients * rw_ops * rw_bs;
      written = c.writes.Vec.n * rw_bs;
      window_us = window;
      windows = Array.to_list (Array.map (fun x -> x - t0) finish);
      fig10_err_pct = 0.;
    }
  in
  let verify c =
    read_back c t
      ~files:(Array.map (fun f -> (f, nblk, rw_bs)) files)
      ~expected:(fun ~client ~blk exp -> fill ~client ~blk exp ~pos:0);
    check_servers c t
  in
  {
    engines = [ engine ];
    servers = Array.to_list t.Topology.servers;
    in_scope = (fun _ -> true);
    run;
    verify;
    reference = (fun _ -> ());
    latencies = ctx_latencies;
  }

(* fleet-stream: 128 clients x 4 servers on one switch, adaptive
   transport, a 1 MB private file per client (client i on server
   i mod 4, 32 each), FSW then FSR against cold caches.  The scale
   workload: engine heap, process count, per-client payload memory,
   RPC congestion state and server-disk saturation all show here.  The
   seed staggers each client's start within 2 ms per phase. *)
let fl_clients = 128
let fl_servers = 4
let fl_file = 1 lsl 20
let fl_bs = 8192
let fl_stagger_us = 2000

let fleet_stream ~seed =
  let config = Config.with_name Config.config_a "F" in
  let t =
    Topology.create ~topology:Topology.Switched ~transport:Nfs.Rpc.Adaptive
      ~rpc_timeout:(Sim.Time.ms 4000) ~servers:fl_servers ~clients:fl_clients
      config
  in
  let engine = Topology.engine t in
  let nblk = fl_file / fl_bs in
  let path id = Printf.sprintf "fleet%d" id in
  let files = Array.make fl_clients None in
  Topology.run_clients t (fun cl ->
      let id = cl.Topology.id in
      files.(id) <-
        Some
          (Nfs.Client.create
             (Topology.mount_of cl ~server:(id mod fl_servers))
             (path id)));
  let files = Array.map Option.get files in
  let fill ~client ~blk buf = fill_block ~seed ~client ~blk ~ver:1 buf ~pos:0 ~len:fl_bs in
  let phase c ~tag body =
    let t0 = Sim.Engine.now engine in
    let finish = Array.make fl_clients t0 in
    Topology.run_clients t (fun cl ->
        let id = cl.Topology.id in
        let rng = Sim.Rng.create ~seed:(mix seed tag id) in
        Sim.Engine.sleep engine (Sim.Rng.int rng fl_stagger_us);
        body c ~id ~f:files.(id) ~track:(Printf.sprintf "bench/c%d" id);
        finish.(id) <- Sim.Engine.now engine);
    Array.fold_left max t0 finish - t0
  in
  let fsw c ~id ~f ~track =
    let buf = Bytes.create fl_bs in
    for b = 0 to nblk - 1 do
      fill ~client:id ~blk:b buf;
      ignore
        (timed c Write ~track (fun () ->
             Nfs.Client.write f ~off:(b * fl_bs) ~buf ~len:fl_bs))
    done;
    Nfs.Client.fsync f
  in
  let fsr c ~id ~f ~track =
    let buf = Bytes.create fl_bs and exp = Bytes.create fl_bs in
    for b = 0 to nblk - 1 do
      match
        timed c Read ~track (fun () ->
            Nfs.Client.read f ~off:(b * fl_bs) ~buf ~len:fl_bs)
      with
      | Some n ->
          fill ~client:id ~blk:b exp;
          expect c (n = fl_bs && Bytes.equal buf exp)
            (lazy (Printf.sprintf "client %d: block %d mismatch" id b))
      | None -> ()
    done
  in
  (* between the phases both cache levels go cold, as in the paper's
     phases: the client drops the file, its server drops its pages *)
  let cool () =
    Topology.run t (fun t ->
        Array.iteri
          (fun id f ->
            Nfs.Client.invalidate f;
            let fs = t.Topology.servers.(id mod fl_servers).Machine.fs in
            let ip = Ufs.Fs.namei fs ("/" ^ path id) in
            Workload.Iobench.reset_file_state fs ip;
            Ufs.Iops.iput fs ip)
          files)
  in
  let run c =
    let w = phase c ~tag:1 fsw in
    cool ();
    let r = phase c ~tag:2 fsr in
    {
      bytes = 2 * fl_clients * fl_file;
      written = fl_clients * fl_file;
      window_us = w + r;
      windows = [ w; r ];
      fig10_err_pct = 0.;
    }
  in
  (* FSR already reads every file back, through cold caches, after
     FSW's final fsync *)
  let verify c = check_servers c t in
  {
    engines = [ engine ];
    servers = Array.to_list t.Topology.servers;
    in_scope = (fun _ -> true);
    run;
    verify;
    reference = (fun _ -> ());
    latencies = ctx_latencies;
  }

let workloads =
  [ ("iobench-local", iobench); ("nfs-randrw", nfs_randrw); ("fleet-stream", fleet_stream) ]

(* ---------- per-layer figures from the Sim.Metrics snapshot ---------- *)

type snap = (string * string * (string * Sim.Metrics.value) list) list

let ends_with ~suffix s = String.ends_with ~suffix s

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let sum_int (snap : snap) ~layer ~keep name =
  List.fold_left
    (fun acc (l, inst, ms) ->
      if l = layer && keep inst then
        match List.assoc_opt name ms with
        | Some (Sim.Metrics.Int n) -> acc + n
        | _ -> acc
      else acc)
    0 snap

let fold_values (snap : snap) ~layer ~keep name f init =
  List.fold_left
    (fun acc (l, inst, ms) ->
      if l = layer && keep inst then
        match List.assoc_opt name ms with Some v -> f acc v | None -> acc
      else acc)
    init snap

(* worst instance's percentile of a summary *)
let max_pct snap ~layer ~keep name p =
  fold_values snap ~layer ~keep name
    (fun acc -> function
      | Sim.Metrics.Summary s when Sim.Stats.Summary.count s > 0 ->
          Float.max acc (Sim.Stats.Summary.percentile_of s p)
      | _ -> acc)
    0.

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let layer_metrics (w : workload) ~(before : snap) ~(after : snap) ~ops
    ~(m : measured) ~elapsed_us ~cpu_busy =
  let d ~layer ~keep name =
    sum_int after ~layer ~keep name - sum_int before ~layer ~keep name
  in
  let fops = float_of_int (max 1 ops) in
  (* busy fractions of the measured phase's simulated time, including
     untimed steps inside it (fleet-stream's cache drop) *)
  let window = float_of_int (max 1 elapsed_us) in
  let mach = w.in_scope in
  (* disk *)
  let dd = d ~layer:"disk" ~keep:mach in
  let ios = dd "reads" + dd "writes" in
  let sectors = dd "sectors_read" + dd "sectors_written" in
  let disk_util =
    List.fold_left
      (fun acc (l, inst, _) ->
        if l = "disk" && mach inst then
          let keep i = i = inst in
          Float.max acc (float_of_int (d ~layer:"disk" ~keep "busy_us") /. window)
        else acc)
      0. after
  in
  let tb_hits = dd "track_buffer_hits" and tb_miss = dd "track_buffer_misses" in
  (* vm + ufs *)
  let vp = d ~layer:"vm.pool" ~keep:mach and po = d ~layer:"vm.pageout" ~keep:mach in
  let uf = d ~layer:"ufs" ~keep:mach in
  (* net: private links, the switch, server ports *)
  let link i = contains ~sub:".link" i and sw i = ends_with ~suffix:".switch" i in
  let port i = ends_with ~suffix:".port" i in
  let msgs = d ~layer:"net" ~keep:link "msgs_sent" + d ~layer:"net" ~keep:sw "frames_sent" in
  let nbytes = d ~layer:"net" ~keep:link "bytes_sent" + d ~layer:"net" ~keep:sw "bytes_sent" in
  let port_util =
    List.fold_left
      (fun acc (l, inst, _) ->
        if l = "net" && port inst then
          let keep i = i = inst in
          let busy =
            max (d ~layer:"net" ~keep "up_busy_us") (d ~layer:"net" ~keep "down_busy_us")
          in
          Float.max acc (float_of_int busy /. window)
        else acc)
      0. after
  in
  let occ_hwm =
    fold_values after ~layer:"net" ~keep:sw "occupancy_hwm"
      (fun acc -> function Sim.Metrics.Int n -> max acc n | _ -> acc)
      0
  in
  (* nfs: client mounts and server services share the "nfs" layer *)
  let srv i = ends_with ~suffix:".server" i in
  let cli i = not (srv i) in
  let cd = d ~layer:"nfs" ~keep:cli and sd = d ~layer:"nfs" ~keep:srv in
  let rpc_calls =
    List.fold_left (fun acc op -> acc + cd ("rpc_" ^ op ^ "_calls")) 0 Nfs.Proto.op_names
  in
  let retrans = cd "rpc_retransmits" in
  let srtt =
    let sum, n =
      fold_values after ~layer:"nfs" ~keep:cli "rpc_srtt_us"
        (fun (s, n) -> function Sim.Metrics.Float f -> (s +. f, n + 1) | _ -> (s, n))
        (0., 0)
    in
    if n = 0 then 0. else sum /. float_of_int n
  in
  let write_rpcs = cd "rpc_write_calls" in
  [
    ("disk.ios", float_of_int ios);
    ("disk.blocks_per_io", ratio sectors ios *. 512. /. 8192.);
    ("disk.util", disk_util);
    ("disk.queue_wait_us.p50", max_pct after ~layer:"disk" ~keep:mach "queue_wait_us" 50.);
    ("disk.queue_wait_us.p99", max_pct after ~layer:"disk" ~keep:mach "queue_wait_us" 99.);
    ("disk.seek_us", ratio (dd "seek_us") ios);
    ("disk.rot_wait_us", ratio (dd "rot_wait_us") ios);
    ("disk.xfer_us", ratio (dd "transfer_us") ios);
    ("disk.track_buffer_hit_ratio", ratio tb_hits (tb_hits + tb_miss));
    ("vm.pool_hit_ratio", ratio (vp "hits") (vp "lookups"));
    ("vm.prefetch_wasted_pages", float_of_int (vp "prefetch_wasted_pages"));
    ("vm.alloc_waits", float_of_int (vp "alloc_waits"));
    ("vm.pageout_scans", float_of_int (po "scans"));
    ("vm.pageout_freed", float_of_int (po "freed"));
    ("ufs.ra_useful_ratio", ratio (uf "ra_used_blocks") (uf "ra_blocks"));
    ("ufs.pgin_ios", float_of_int (uf "pgin_ios"));
    ("ufs.blocks_per_push", ratio (uf "push_blocks") (uf "push_ios"));
    ("ufs.flush_runs", float_of_int (uf "flush_runs"));
    ("ufs.wlimit_sleeps", float_of_int (uf "wlimit_sleeps"));
    ("ufs.freebehind_pages", float_of_int (uf "freebehind_pages"));
    ("ufs.bmap_calls", float_of_int (uf "bmap_calls"));
    ("net.msgs_per_op", float_of_int msgs /. fops);
    ("net.bytes_per_op", float_of_int nbytes /. fops);
    ( "net.wire_wait_us.p99",
      Float.max
        (max_pct after ~layer:"net" ~keep:link "wire_wait_us" 99.)
        (max_pct after ~layer:"net" ~keep:sw "queue_wait_us" 99.) );
    ("net.switch_overflow_drops", float_of_int (d ~layer:"net" ~keep:sw "overflow_drops"));
    ("net.switch_occupancy_hwm", float_of_int occ_hwm);
    ("net.port_util_max", port_util);
    ("nfs.client.cache_hit_ratio", ratio (cd "cache_hits") (cd "cache_hits" + cd "cache_misses"));
    ("nfs.client.attr_miss_ratio", ratio (cd "attr_misses") (cd "attr_hits" + cd "attr_misses"));
    ("nfs.client.ra_useful_ratio", ratio (cd "ra_used") (cd "ra_used" + cd "ra_wasted"));
    ( "nfs.client.kb_per_write_rpc",
      if write_rpcs = 0 then 0. else float_of_int m.written /. 1024. /. float_of_int write_rpcs );
    ("nfs.client.dirty_sleeps", float_of_int (cd "dirty_sleeps"));
    ("nfs.rpc.calls", float_of_int rpc_calls);
    ("nfs.rpc.retransmits", float_of_int retrans);
    ("nfs.rpc.useful_ratio", ratio rpc_calls (rpc_calls + retrans));
    ("nfs.rpc.backoffs", float_of_int (cd "rpc_backoffs"));
    ("nfs.rpc.window_wait_us.p99", max_pct after ~layer:"nfs" ~keep:cli "rpc_window_wait_us" 99.);
    ("nfs.rpc.srtt_us", srtt);
    ("nfs.server.queue_wait_us.p50", max_pct after ~layer:"nfs" ~keep:srv "queue_wait_us" 50.);
    ("nfs.server.queue_wait_us.p99", max_pct after ~layer:"nfs" ~keep:srv "queue_wait_us" 99.);
    ("nfs.server.read_service_us.p50", max_pct after ~layer:"nfs" ~keep:srv "read_service_us" 50.);
    ("nfs.server.write_service_us.p50", max_pct after ~layer:"nfs" ~keep:srv "write_service_us" 50.);
    ("nfs.server.cpu_util", (if rpc_calls = 0 then 0. else cpu_busy /. window));
    ("nfs.server.dup_hits", float_of_int (sd "dup_cache_hits"));
    ("nfs.server.dup_evictions", float_of_int (sd "dup_evictions"));
    (* read-side isolation check for nfs-randrw: server disk reads per READ RPC *)
    ("nfs.server.disk_reads_per_read_rpc", ratio (dd "reads") (cd "rpc_read_calls"));
  ]

(* Every simulated-unit value of the run: the metrics snapshot (minus
   the tracing machinery's own counters, which differ by design between
   traced and untraced runs), the per-op latency arrays and the phase
   windows. *)
let digest (snap : snap) ~lats ~windows =
  let b = Buffer.create (1 lsl 16) in
  List.iter
    (fun (layer, inst, ms) ->
      if layer <> "sim.span" then
        List.iter
          (fun (k, v) ->
            if not (String.starts_with ~prefix:"eff_" k) then begin
              Printf.bprintf b "%s/%s/%s=" layer inst k;
              (match v with
              | Sim.Metrics.Int n -> Printf.bprintf b "%d" n
              | Sim.Metrics.Float f -> Printf.bprintf b "%h" f
              | Sim.Metrics.Summary s ->
                  let open Sim.Stats.Summary in
                  Printf.bprintf b "%d,%h,%h,%h,%h,%h" (count s) (mean s) (min s) (max s)
                    (percentile_of s 50.) (percentile_of s 99.)
              | Sim.Metrics.Hist h ->
                  List.iter
                    (fun (lo, hi, n) -> Printf.bprintf b "%d-%d:%d," lo hi n)
                    (Sim.Stats.Hist.buckets h));
              Buffer.add_char b ';'
            end)
          ms)
    snap;
  List.iter
    (fun (r, w) ->
      Array.iter (Printf.bprintf b "r%d,") r;
      Array.iter (Printf.bprintf b "w%d,") w)
    lats;
  List.iter (Printf.bprintf b "p%d,") windows;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ---------- traced run: attribution rows and span self time ---------- *)

let attrib_rows =
  [
    "disk.queue"; "disk.seek"; "disk.rot"; "disk.xfer"; "disk.wait"; "rpc.wait";
    "wire"; "nfsd.queue"; "nfsd.cpu"; "client.throttle";
  ]

let span_prefixes = [ "ufs"; "vm"; "disk"; "nfs"; "rpc"; "wire"; "nfsd"; "srv" ]

let attrib_metrics clock ~lat_total =
  let rows = Sim.Attrib.read clock in
  let denom = float_of_int (max 1 lat_total) in
  let pct us = 100. *. float_of_int us /. denom in
  let known = List.map (fun r -> (r, Sim.Attrib.find clock r)) attrib_rows in
  let other =
    List.fold_left
      (fun acc (r, us) -> if List.mem r attrib_rows then acc else acc + us)
      0 rows
  in
  let charged = Sim.Attrib.total clock in
  List.map (fun (r, us) -> ("attrib." ^ r ^ "_pct", pct us)) known
  @ [
      ("attrib.other_pct", pct other);
      ("attrib.unattributed_pct", pct (max 0 (lat_total - charged)));
    ]

(* Self time: a span's duration minus the part of it its children
   cover, summed per name prefix over every benchmark op's tree. *)
let span_metrics recorder ~ops =
  let tbl = Hashtbl.create 16 in
  let prefix name =
    match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name
  in
  let rec walk (s : Sim.Span.t) =
    let kids = Sim.Span.children s in
    let ivs =
      List.sort compare
        (List.filter_map
           (fun (k : Sim.Span.t) ->
             let a = max k.Sim.Span.start_us s.Sim.Span.start_us in
             let z = min k.Sim.Span.stop_us s.Sim.Span.stop_us in
             if z > a then Some (a, z) else None)
           kids)
    in
    let covered, _ =
      List.fold_left
        (fun (acc, reach) (a, z) ->
          let a = max a reach in
          if z > a then (acc + (z - a), z) else (acc, reach))
        (0, min_int) ivs
    in
    let self = max 0 (Sim.Span.duration s - covered) in
    let p = prefix s.Sim.Span.name in
    Hashtbl.replace tbl p (self + Option.value ~default:0 (Hashtbl.find_opt tbl p));
    List.iter walk kids
  in
  let roots =
    List.filter
      (fun (r : Sim.Span.t) -> String.starts_with ~prefix:"bench." r.Sim.Span.name)
      (Sim.Span.roots recorder)
  in
  List.iter walk roots;
  let fops = float_of_int (max 1 ops) in
  List.map
    (fun p ->
      ( "span." ^ p ^ ".self_us_per_op",
        float_of_int (Option.value ~default:0 (Hashtbl.find_opt tbl p)) /. fops ))
    span_prefixes

(* ---------- main ---------- *)

let json_num f = if Float.is_finite f then Printf.sprintf "%.17g" f else "0"

let json_obj kvs =
  "{"
  ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) kvs)
  ^ "}"

let json_str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let nums kvs = json_obj (List.map (fun (k, v) -> (k, json_num v)) kvs)

let pct arr p =
  if Array.length arr = 0 then 0.
  else Sim.Stats.percentile (Array.map float_of_int arr) p

let mean arr =
  if Array.length arr = 0 then 0.
  else float_of_int (Array.fold_left ( + ) 0 arr) /. float_of_int (Array.length arr)

(* The p99 tail mean: the mean of the slowest 1 % of the calls.  Unlike
   the p99 itself it moves with every call in the tail, so it is not
   pinned to one repeated value (iobench-local's cluster waits). *)
let tail_mean arr =
  let a = Array.copy arr in
  Array.sort compare a;
  let n = Array.length a in
  let k = max 1 (n / 100) in
  mean (Array.sub a (n - k) k)

let () =
  let workload = ref "" and seed = ref default_seed in
  let traced = ref false and trace_out = ref "" and check = ref false in
  let calib = ref false and setup_only = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME iobench-local | nfs-randrw | fleet-stream");
      ("--seed", Arg.Set_int seed, "N input seed (default 42)");
      ("--traced", Arg.Set traced, " wrap every op in a span root and an attribution clock");
      ("--trace-out", Arg.Set_string trace_out, "FILE write the Perfetto trace of a traced run");
      ("--check", Arg.Set check, " also compare against the workload's reference implementation");
      ("--setup-only", Arg.Set setup_only, " set the workload up, print its host seconds, stop");
      ("--calibrate", Arg.Set calib, " time the host-speed loop alone and print its seconds");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "driver.exe --workload NAME [--seed N] [--traced] [--trace-out FILE] [--check]\n\
     driver.exe --workload NAME [--seed N] --setup-only\n\
     driver.exe --calibrate";
  if !calib then begin
    print_endline (nums [ ("calib_s", calibrate ()) ]);
    exit 0
  end;
  let build =
    match List.assoc_opt !workload workloads with
    | Some b -> b
    | None ->
        prerr_endline ("unknown workload: " ^ !workload);
        exit 2
  in
  let recorder =
    if !traced then begin
      let r = Sim.Span.create_recorder ~log_capacity:(1 lsl 18) () in
      Sim.Span.install (Some r);
      Sim.Span.enable r false;
      Some r
    end
    else None
  in
  let reg = Sim.Metrics.create () in
  let h0 = host_now () in
  let w = Machine.with_metrics_sink reg (fun () -> build ~seed:!seed) in
  let h1 = host_now () in
  if !setup_only then begin
    print_endline (nums [ ("wall_setup_s", h1 -. h0) ]);
    exit 0
  end;
  let g1 = Gc.quick_stat () in
  let c =
    {
      engine = List.hd w.engines;
      traced = !traced;
      clock = Sim.Attrib.create ();
      reads = Vec.create ();
      writes = Vec.create ();
      attempted = 0;
      failed = 0;
      failures = [];
    }
  in
  let before = Sim.Metrics.snapshot reg in
  let ev0 = List.map Sim.Engine.events_dispatched w.engines in
  let su0 = List.map Sim.Engine.effect_suspends w.engines in
  let pr0 = List.map Sim.Engine.processes_spawned w.engines in
  let now0 = Sim.Engine.now (List.hd w.engines) in
  let cpu_of (m : Machine.t) = Sim.Cpu.sys_time m.Machine.cpu + Sim.Cpu.user_time m.Machine.cpu in
  let cpu0 = List.map cpu_of w.servers in
  Option.iter (fun r -> Sim.Span.enable r true) recorder;
  let m = w.run c in
  Option.iter (fun r -> Sim.Span.enable r false) recorder;
  let h2 = host_now () in
  let g2 = Gc.quick_stat () in
  let hwm = vm_hwm_mb () in
  let after = Sim.Metrics.snapshot reg in
  let sum_delta f l0 = List.fold_left2 (fun acc e x -> acc + f e - x) 0 w.engines l0 in
  let events = sum_delta Sim.Engine.events_dispatched ev0 in
  let lats = w.latencies c in
  (* every timed call of the run (iobench-local: all four configs) *)
  let reads = Array.concat (List.map fst lats) and writes = Array.concat (List.map snd lats) in
  let ops = Array.length reads + Array.length writes in
  let cpu_busy =
    List.fold_left2 (fun acc s c0 -> Float.max acc (float_of_int (cpu_of s - c0))) 0. w.servers cpu0
  in
  let layers =
    gc_delta g1 g2 ~ops
    @ [
        ("sim.events", float_of_int events);
        ("sim.suspends", float_of_int (sum_delta Sim.Engine.effect_suspends su0));
        ( "sim.heap_max_depth",
          float_of_int (List.fold_left (fun a e -> max a (Sim.Engine.heap_max_depth e)) 0 w.engines) );
        ("sim.processes", float_of_int (sum_delta Sim.Engine.processes_spawned pr0));
      ]
    @ layer_metrics w ~before ~after ~ops ~m
        ~elapsed_us:(Sim.Engine.now (List.hd w.engines) - now0)
        ~cpu_busy
  in
  let dig = digest after ~lats ~windows:m.windows in
  let sim =
    [
      ("sim_kb_per_s", kb_per_s (m.bytes, m.window_us));
      ("sim_read_mean_us", mean reads);
      ("sim_write_mean_us", mean writes);
      ("sim_read_tail_us", tail_mean reads);
      ("sim_write_tail_us", tail_mean writes);
    ]
  in
  let layers =
    layers
    @ [
        ("op.read_p50_us", pct reads 50.);
        ("op.read_p99_us", pct reads 99.);
        ("op.write_p50_us", pct writes 50.);
        ("op.write_p99_us", pct writes 99.);
        ("op.read_samples", float_of_int (Array.length reads));
        ("op.write_samples", float_of_int (Array.length writes));
        ("iobench.fig10_err_pct", m.fig10_err_pct);
      ]
  in
  let traced_layers =
    match recorder with
    | None -> []
    | Some r ->
        let sum = Array.fold_left ( + ) 0 in
        let lat_total = List.fold_left (fun acc (r, w) -> acc + sum r + sum w) 0 lats in
        let ls = attrib_metrics c.clock ~lat_total @ span_metrics r ~ops in
        if !trace_out <> "" then
          Out_channel.with_open_bin !trace_out (fun oc ->
              output_string oc (Sim.Span.to_chrome r));
        ls
  in
  (* checks after the measurement, so they cost neither host_s nor the
     snapshot *)
  (try w.verify c with e -> fail c ("verify: " ^ Printexc.to_string e));
  if !check then (try w.reference c with e -> fail c ("reference: " ^ Printexc.to_string e));
  print_endline
    (json_obj
       [
         ("workload", json_str !workload);
         ("seed", string_of_int !seed);
         ("traced", string_of_bool !traced);
         ("correct", string_of_bool (c.failed = 0));
         ("attempted", string_of_int c.attempted);
         ("failed", string_of_int c.failed);
         ("failures", "[" ^ String.concat ", " (List.rev_map json_str c.failures) ^ "]");
         ("digest", json_str dig);
         ( "host",
           nums
             [ ("wall_setup_s", h1 -. h0); ("wall_host_s", h2 -. h1); ("peak_rss_mb", hwm) ] );
         ("sim", nums sim);
         ("layers", nums (layers @ traced_layers));
       ])

