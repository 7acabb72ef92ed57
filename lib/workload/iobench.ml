type kind = FSR | FSU | FSW | FRR | FRU

let kind_to_string = function
  | FSR -> "FSR"
  | FSU -> "FSU"
  | FSW -> "FSW"
  | FRR -> "FRR"
  | FRU -> "FRU"

let kind_of_string s =
  match String.uppercase_ascii s with
  | "FSR" -> Ok FSR
  | "FSU" -> Ok FSU
  | "FSW" -> Ok FSW
  | "FRR" -> Ok FRR
  | "FRU" -> Ok FRU
  | other -> Error (Printf.sprintf "unknown phase %S" other)

let all_kinds = [ FSW; FSU; FSR; FRR; FRU ]

type config = {
  path : string;
  file_mb : int;
  request_bytes : int;
  random_ops : int;
  seed : int;
}

let default_config =
  { path = "/iobench"; file_mb = 16; request_bytes = 8192; random_ops = 2048; seed = 42 }

type result = {
  kind : kind;
  bytes_moved : int;
  elapsed : Sim.Time.t;
  kb_per_sec : float;
  sys_cpu : Sim.Time.t;
}

type file = {
  read : off:int -> buf:bytes -> len:int -> int;
  write : off:int -> buf:bytes -> len:int -> unit;
  fsync : unit -> unit;
  cold : unit -> unit;
  close : unit -> unit;
}

type target = {
  engine : Sim.Engine.t;
  cpu : Sim.Cpu.t;
  open_file : create:bool -> string -> file;
}

(* Start a phase cold: drop the file's cached pages and predictor state,
   as if this were a fresh benchmark run on a warm system. *)
let reset_file_state (fs : Ufs.Types.fs) (ip : Ufs.Types.inode) =
  Ufs.Putpage.push_delayed fs ip ~sync:true ();
  Vm.Pool.invalidate_vnode fs.Ufs.Types.pool ip.Ufs.Types.inum;
  Ufs.Types.reset_rstreams ip;
  ip.Ufs.Types.bmap_cache <- None

let local (fs : Ufs.Types.fs) =
  let open_file ~create path =
    let ip = if create then Ufs.Fs.creat fs path else Ufs.Fs.namei fs path in
    {
      read = (fun ~off ~buf ~len -> Ufs.Fs.read fs ip ~off ~buf ~len);
      write = (fun ~off ~buf ~len -> Ufs.Fs.write fs ip ~off ~buf ~len);
      fsync = (fun () -> Ufs.Fs.fsync fs ip);
      cold = (fun () -> reset_file_state fs ip);
      close = (fun () -> Ufs.Iops.iput fs ip);
    }
  in
  { engine = fs.Ufs.Types.engine; cpu = fs.Ufs.Types.cpu; open_file }

let remote mount =
  let open_file ~create path =
    let f =
      if create then Nfs.Client.create mount path
      else
        match Nfs.Client.lookup mount path with
        | Some f -> f
        | None -> failwith ("iobench: no such remote file " ^ path)
    in
    {
      read = Nfs.Client.read f;
      write = Nfs.Client.write f;
      fsync = (fun () -> Nfs.Client.fsync f);
      cold = (fun () -> Nfs.Client.invalidate f);
      close = ignore;
    }
  in
  { engine = Nfs.Client.engine mount; cpu = Nfs.Client.cpu mount; open_file }

let measure tgt kind f =
  let t0 = Sim.Engine.now tgt.engine in
  let c0 = Sim.Cpu.sys_time tgt.cpu in
  let bytes = f () in
  let elapsed = Sim.Engine.now tgt.engine - t0 in
  let sys_cpu = Sim.Cpu.sys_time tgt.cpu - c0 in
  {
    kind;
    bytes_moved = bytes;
    elapsed;
    kb_per_sec =
      (if elapsed = 0 then 0.
       else float_of_int bytes /. 1024. /. Sim.Time.to_sec_float elapsed);
    sys_cpu;
  }

(* Write phases time the write(2) loop through a final fsync, so the
   asynchronous queue drains inside the measured window; the queue-depth
   effects the paper discusses (the elevator sorting an unthrottled
   random-update stream into near-sequential order) happen during the
   drain. *)
let seq_write file cfg ~fill =
  let total = cfg.file_mb * 1024 * 1024 in
  let buf = Bytes.make cfg.request_bytes fill in
  let rec loop off =
    if off < total then begin
      file.write ~off ~buf ~len:cfg.request_bytes;
      loop (off + cfg.request_bytes)
    end
  in
  loop 0;
  file.fsync ();
  total

let seq_read file cfg =
  let total = cfg.file_mb * 1024 * 1024 in
  let buf = Bytes.create cfg.request_bytes in
  let rec loop off acc =
    if off < total then begin
      let n = file.read ~off ~buf ~len:cfg.request_bytes in
      loop (off + cfg.request_bytes) (acc + n)
    end
    else acc
  in
  loop 0 0

let random_offsets cfg =
  let rng = Sim.Rng.create ~seed:cfg.seed in
  let nblocks = cfg.file_mb * 1024 * 1024 / cfg.request_bytes in
  Array.init cfg.random_ops (fun _ ->
      Sim.Rng.int rng nblocks * cfg.request_bytes)

let random_read file cfg =
  let buf = Bytes.create cfg.request_bytes in
  Array.fold_left
    (fun acc off -> acc + file.read ~off ~buf ~len:cfg.request_bytes)
    0 (random_offsets cfg)

let random_update file cfg =
  let buf = Bytes.make cfg.request_bytes 'u' in
  Array.iter
    (fun off -> file.write ~off ~buf ~len:cfg.request_bytes)
    (random_offsets cfg);
  file.fsync ();
  cfg.random_ops * cfg.request_bytes

let with_file tgt cfg ~create f =
  let file = tgt.open_file ~create cfg.path in
  Fun.protect ~finally:file.close (fun () -> f file)

let prepare tgt cfg =
  with_file tgt cfg ~create:true (fun file ->
      ignore (seq_write file cfg ~fill:'p');
      file.cold ())

let run_phase tgt cfg kind =
  (* FSW is a fresh allocation: it recreates the file *)
  with_file tgt cfg ~create:(kind = FSW) (fun file ->
      if kind <> FSW then file.cold ();
      measure tgt kind (fun () ->
          match kind with
          | FSW -> seq_write file cfg ~fill:'w'
          | FSU -> seq_write file cfg ~fill:'u'
          | FSR -> seq_read file cfg
          | FRR -> random_read file cfg
          | FRU -> random_update file cfg))

let run_all fs cfg = List.map (run_phase (local fs) cfg) all_kinds
