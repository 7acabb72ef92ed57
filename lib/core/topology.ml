type kind = Point_to_point | Shared_medium | Switched

type attach =
  | Links of Nfs.Proto.msg Net.t array
  | Host of Nfs.Proto.msg Net.host

type mountpoint = {
  m_server : int;
  m_rpc : Nfs.Rpc.t;
  m_mount : Nfs.Client.t;
}

type client = {
  id : int;
  cpu : Sim.Cpu.t;
  attach : attach;
  rpc : Nfs.Rpc.t;
  mount : Nfs.Client.t;
  mounts : mountpoint array;  (* one per server; element 0 = rpc/mount *)
}

type t = {
  server : Machine.t;  (* = servers.(0): the 1-server API keeps working *)
  service : Nfs.Server.t;  (* = services.(0) *)
  servers : Machine.t array;
  services : Nfs.Server.t array;
  clients : client array;
  medium : Nfs.Proto.msg Net.Medium.t option;
  switch : Nfs.Proto.msg Net.Switch.t option;
  srv_ports : Nfs.Proto.msg Net.Switch.port array option;
  crashed : Disk.Store.t option array;
      (* platter images latched at crash_server, consumed by reboot *)
}

let client_link c =
  match c.attach with
  | Links ls -> Some ls.(0)
  | Host _ -> None

let medium t = t.medium
let switch t = t.switch

let client_drops t c =
  match (c.attach, t.switch) with
  | Links ls, _ ->
      Array.fold_left (fun acc l -> acc + (Net.stats l).Net.drops) 0 ls
  | Host h, Some sw ->
      (Net.Switch.port_stats (Net.Switch.port sw h)).Net.Switch.p_drops
  | Host _, None -> 0

(* One more machine on the shared fabric: a medium station or a switch
   port.  Ids follow attach order, so server [s] is id [s] and client [i]
   is id [servers + i]; at one server this is the historical "server =
   0, client i = i + 1". *)
let attach_host ~medium ~switch cpu =
  match (medium, switch) with
  | Some m, _ -> Net.Medium.attach m ~cpu
  | None, Some sw -> Net.Switch.attach sw ~cpu
  | None, None -> invalid_arg "Topology: no shared fabric"

let create ?(net = Net.default_config) ?(seed = 0)
    ?(topology = Point_to_point) ?transport ?(nfsd = 4) ?biods ?ra_depth
    ?dirty_limit ?cache_pages ?dup_cache_size ?rpc_timeout ?(servers = 1)
    ?ports_buffer ?(register_clients = true) ~clients config =
  if servers < 1 then invalid_arg "Topology.create: servers must be >= 1";
  let server0 = Machine.create config in
  let engine = server0.Machine.engine in
  let machines =
    Array.init servers (fun s ->
        if s = 0 then server0
        else
          Machine.create ~engine
            (Config.with_name config
               (Printf.sprintf "%s.s%d" config.Config.name s)))
  in
  let medium =
    if topology = Shared_medium then
      Some (Net.Medium.create ~seed ~name:"ether" engine net)
    else None
  in
  let switch =
    if topology = Switched then
      Some
        (Net.Switch.create ~seed ~name:"switch" ?buffer:ports_buffer engine net)
    else None
  in
  let srv_hosts =
    if topology = Point_to_point then [||]
    else
      Array.map (fun sv -> attach_host ~medium ~switch sv.Machine.cpu) machines
  in
  let nodes =
    Array.init clients (fun id ->
        let cpu = Sim.Cpu.create engine in
        let attach =
          if topology = Point_to_point then
            Links
              (Array.init servers (fun s ->
                   let name =
                     if servers = 1 then Printf.sprintf "link.%d" id
                     else Printf.sprintf "link.%d.s%d" id s
                   in
                   Net.create
                     ~seed:(seed + (id * servers) + s)
                     ~name engine net ~a_cpu:cpu
                     ~b_cpu:machines.(s).Machine.cpu))
          else Host (attach_host ~medium ~switch cpu)
        in
        (id, cpu, attach))
  in
  (* the server-side endpoint of server [s]'s channel to one client *)
  let server_ep s (_, _, attach) =
    match attach with
    | Links ls -> Net.b_end ls.(s)
    | Host h -> Net.endpoint srv_hosts.(s) ~peer:(Net.host_id h)
  in
  let services =
    Array.init servers (fun s ->
        Nfs.Server.create engine ~cpu:machines.(s).Machine.cpu
          ~fs:machines.(s).Machine.fs ~nfsd ?dup_cache_size
          ~endpoints:(Array.to_list (Array.map (server_ep s) nodes))
          ())
  in
  let clients =
    Array.map
      (fun (id, cpu, attach) ->
        let client_ep s =
          match attach with
          | Links ls -> Net.a_end ls.(s)
          | Host h -> Net.endpoint h ~peer:(Net.host_id srv_hosts.(s))
        in
        let mounts =
          Array.init servers (fun s ->
              (* one channel, and so one congestion state, per server *)
              let rpc =
                Nfs.Rpc.create engine ~cpu ~ep:(client_ep s) ~client_id:id
                  ?transport ?timeout:rpc_timeout ()
              in
              let m_mount =
                Nfs.Client.mount engine ~cpu ~rpc ?biods ?ra_depth
                  ?dirty_limit ?cache_pages ()
              in
              { m_server = s; m_rpc = rpc; m_mount })
        in
        {
          id;
          cpu;
          attach;
          rpc = mounts.(0).m_rpc;
          mount = mounts.(0).m_mount;
          mounts;
        })
      nodes
  in
  let t =
    {
      server = machines.(0);
      service = services.(0);
      servers = machines;
      services;
      clients;
      medium;
      switch;
      srv_ports =
        Option.map (fun sw -> Array.map (Net.Switch.port sw) srv_hosts) switch;
      crashed = Array.make servers None;
    }
  in
  (match Machine.current_metrics_sink () with
  | Some reg ->
      let name = config.Config.name in
      let sname s =
        if s = 0 then name else Printf.sprintf "%s.s%d" name s
      in
      Array.iteri
        (fun s svc ->
          Nfs.Server.register_metrics svc reg ~instance:(sname s ^ ".server"))
        services;
      (match t.medium with
      | Some m -> Net.Medium.register_metrics m reg ~instance:(name ^ ".net")
      | None -> ());
      (match (t.switch, t.srv_ports) with
      | Some sw, Some ports ->
          Net.Switch.register_metrics sw reg ~instance:(name ^ ".switch");
          Array.iteri
            (fun s p ->
              Net.Switch.register_port_metrics p reg
                ~instance:(sname s ^ ".port"))
            ports
      | _ -> ());
      if register_clients then
        Array.iter
          (fun c ->
            (match c.attach with
            | Links ls ->
                Array.iteri
                  (fun s l ->
                    let instance =
                      if servers = 1 then
                        Printf.sprintf "%s.c%d.link" name c.id
                      else Printf.sprintf "%s.c%d.link.s%d" name c.id s
                    in
                    Net.register_metrics l reg ~instance)
                  ls
            | Host _ -> ());
            if servers = 1 then
              Nfs.Client.register_metrics c.mount reg
                ~instance:(Printf.sprintf "%s.c%d" name c.id)
            else
              Array.iter
                (fun m ->
                  Nfs.Client.register_metrics m.m_mount reg
                    ~instance:
                      (Printf.sprintf "%s.c%d.s%d" name c.id m.m_server))
                c.mounts)
          clients
  | None -> ());
  t

let engine t = t.server.Machine.engine
let nservers t = Array.length t.servers

(* ---------- namespace sharding ---------- *)

(* FNV-1a over the path: stable, seed-independent, cheap.  Which server
   owns a file is a pure function of its name, so every client (and the
   bench code preparing files) agrees without coordination. *)
let server_of_path t path =
  let n = Array.length t.servers in
  if n = 1 then 0
  else begin
    let h = ref 0x811c9dc5 in
    String.iter
      (fun c ->
        h := (!h lxor Char.code c) * 0x01000193 land 0x3FFFFFFF)
      path;
    !h mod n
  end

let shard t c path = c.mounts.(server_of_path t path).m_mount
let mount_of c ~server = c.mounts.(server).m_mount

(* ---------- server crash / reboot ---------- *)

let crash_server ?(server = 0) t =
  let m = t.servers.(server) in
  Nfs.Server.crash t.services.(server);
  (* power-cut the drives: queued and in-flight requests are tallied as
     crash-dropped and the write cutoff latches, so nothing issued by
     the dead instance can reach the platter from here on *)
  Disk.Blkdev.crash_cut m.Machine.dev;
  let src = Disk.Blkdev.store m.Machine.dev in
  let snap = Disk.Store.create ~size:(Disk.Store.size src) in
  Disk.Store.copy_into src snap;
  t.crashed.(server) <- Some snap;
  snap

let reboot_server ?(server = 0) t =
  let m = t.servers.(server) in
  let dev = m.Machine.dev in
  let snap =
    match t.crashed.(server) with
    | Some s -> s
    | None -> invalid_arg "Topology.reboot_server: server has not crashed"
  in
  (* let requests the dead instance still had in flight drain (their
     writes were latched off), then restore the exact crash image and
     clear the latch: the disk is now what a rebooted kernel would see *)
  Disk.Blkdev.quiesce dev;
  Disk.Store.copy_into snap (Disk.Blkdev.store dev);
  Disk.Blkdev.set_write_cutoff dev None;
  t.crashed.(server) <- None;
  (* the page cache died with the machine *)
  Vm.Pool.invalidate_all m.Machine.pool;
  (* timed journal replay, then a clean mount *)
  let report = Ufs.Recover.run dev in
  let fs =
    Ufs.Fs.mount m.Machine.engine m.Machine.cpu m.Machine.pool dev
      ~features:m.Machine.config.Config.features
      ~costs:m.Machine.config.Config.costs ()
  in
  m.Machine.fs <- fs;
  Nfs.Server.restart t.services.(server) ~fs;
  report

let run_clients t f =
  let n = Array.length t.clients in
  let completed = ref 0 in
  let err = ref None in
  Array.iter
    (fun c ->
      Sim.Engine.spawn (engine t)
        ~name:(Printf.sprintf "client.%d" c.id)
        (fun () ->
          (try f c
           with e ->
             if !err = None then
               err := Some (e, Printexc.get_raw_backtrace ()));
          incr completed))
    t.clients;
  Sim.Engine.run (engine t);
  (match !err with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ());
  if !completed < n then
    raise
      (Sim.Engine.Deadlock
         (Printf.sprintf "%d of %d client processes never completed"
            (n - !completed) n))

let run t f =
  let result = ref None in
  Sim.Engine.spawn (engine t) ~name:"experiment" (fun () ->
      match f t with
      | v -> result := Some (Ok v)
      | exception e ->
          result := Some (Error (e, Printexc.get_raw_backtrace ())));
  Sim.Engine.run (engine t);
  match !result with
  | Some (Ok v) -> v
  | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
  | None ->
      raise
        (Sim.Engine.Deadlock
           "experiment process never completed (blocked forever)")
