(* Pinned transport schedules.  The other net and RPC tests check
   properties (FIFO, seeding, recovery); these pin exact behaviour:
   every delivery of seeded lossy traffic over each fabric, and every
   completion time, retransmit and estimator value of a fixed RPC call
   sequence over a lossy link.  The expected values were computed once
   and must not move unless a change means to alter the model. *)

let check_string = Alcotest.(check string)

(* loss and spikes both fire often enough to shape every schedule *)
let lossy_cfg =
  {
    Net.default_config with
    Net.bandwidth = 200_000;
    loss = 0.2;
    spike_prob = 0.1;
  }

(* ---------- fabrics ---------- *)

(* [hosts] machines on one fabric; [ep src dst] is [src]'s channel to
   [dst].  Every host sends 30 seeded messages (random peer, size and
   gap) and drains every peer; each delivery is logged as (time, src,
   dst, payload) and the whole log, with the fabric's loss and spike
   counts, is hashed. *)
let fabric_digest engine ~hosts ~ep ~counts =
  let eps =
    Array.init hosts (fun s ->
        Array.init hosts (fun d -> if s = d then None else Some (ep s d)))
  in
  let log = Buffer.create 4096 in
  for s = 0 to hosts - 1 do
    let rng = Sim.Rng.create ~seed:(100 + s) in
    Sim.Engine.spawn engine (fun () ->
        for seq = 1 to 30 do
          let d = (s + 1 + Sim.Rng.int rng (hosts - 1)) mod hosts in
          let size = 64 + Sim.Rng.int rng 6000 in
          Net.send (Option.get eps.(s).(d)) ~size ((s * 1000) + seq);
          Sim.Engine.sleep engine (Sim.Rng.int rng 30_000)
        done);
    for d = 0 to hosts - 1 do
      match eps.(d).(s) with
      | None -> ()
      | Some e ->
          Sim.Engine.spawn engine (fun () ->
              while true do
                let v = Net.recv e in
                Printf.bprintf log "%d,%d,%d,%d;" (Sim.Engine.now engine) s d
                  v
              done)
    done
  done;
  Sim.Engine.run engine;
  let drops, spikes = counts () in
  Printf.bprintf log "drops=%d spikes=%d" drops spikes;
  Digest.to_hex (Digest.string (Buffer.contents log))

let test_p2p_schedule () =
  let engine = Sim.Engine.create () in
  let l =
    Net.create ~seed:5 engine lossy_cfg ~a_cpu:(Sim.Cpu.create engine)
      ~b_cpu:(Sim.Cpu.create engine)
  in
  let d =
    fabric_digest engine ~hosts:2
      ~ep:(fun s _ -> if s = 0 then Net.a_end l else Net.b_end l)
      ~counts:(fun () -> ((Net.stats l).Net.drops, (Net.stats l).Net.spikes))
  in
  check_string "p2p delivery schedule" "da79a284d94367784db85a0b123e1c83"
    d

let test_medium_schedule () =
  let engine = Sim.Engine.create () in
  let m = Net.Medium.create ~seed:5 engine lossy_cfg in
  let hs =
    Array.init 4 (fun _ -> Net.Medium.attach m ~cpu:(Sim.Cpu.create engine))
  in
  let d =
    fabric_digest engine ~hosts:4
      ~ep:(fun s d -> Net.endpoint hs.(s) ~peer:d)
      ~counts:(fun () ->
        let st = Net.Medium.stats m in
        (st.Net.Medium.m_drops, st.Net.Medium.m_spikes))
  in
  check_string "medium delivery schedule" "1494b7b9ca70cf57c6b5a3920c963009"
    d

let test_switch_schedule () =
  let engine = Sim.Engine.create () in
  let sw = Net.Switch.create ~seed:5 ~buffer:2 engine lossy_cfg in
  let hs =
    Array.init 4 (fun _ -> Net.Switch.attach sw ~cpu:(Sim.Cpu.create engine))
  in
  let d =
    fabric_digest engine ~hosts:4
      ~ep:(fun s d -> Net.endpoint hs.(s) ~peer:d)
      ~counts:(fun () ->
        let st = Net.Switch.stats sw in
        ( st.Net.Switch.sw_drops + st.Net.Switch.overflows,
          st.Net.Switch.sw_spikes ))
  in
  check_string "switch delivery schedule" "f1ac265288a221d5ecc9c3c9b1e260c9"
    d

(* ---------- RPC transports ---------- *)

(* A stand-in server on the far end of [l]: every call copy it hears is
   answered after 3 ms, duplicates included. *)
let echo_server engine l =
  let ep = Net.b_end l in
  Sim.Engine.spawn engine (fun () ->
      while true do
        match Net.recv ep with
        | Nfs.Proto.Call { xid; client; _ } ->
            Sim.Engine.spawn engine (fun () ->
                Sim.Engine.sleep engine (Sim.Time.ms 3);
                let reply = Nfs.Proto.R_attr { size = xid; is_dir = false } in
                let meta =
                  { Nfs.Proto.sent_at = Sim.Engine.now engine; cost = []; spans = None }
                in
                let msg = Nfs.Proto.Reply { xid; client; reply; meta } in
                Net.send ep ~size:(Nfs.Proto.msg_size msg) msg)
        | Nfs.Proto.Reply _ -> assert false
      done)

let channel engine ~seed ~id ?transport () =
  let cpu = Sim.Cpu.create engine in
  let l =
    Net.create ~seed engine lossy_cfg ~a_cpu:cpu ~b_cpu:(Sim.Cpu.create engine)
  in
  echo_server engine l;
  Nfs.Rpc.create engine ~cpu ~ep:(Net.a_end l) ~client_id:id ?transport ()

(* Three callers, eight GETATTRs each with seeded think times; returns
   every call's completion time, in call order per caller. *)
let drive engine rpc ~seed =
  let done_at = Array.make 24 0 in
  for c = 0 to 2 do
    let rng = Sim.Rng.create ~seed:(seed + c) in
    Sim.Engine.spawn engine (fun () ->
        for i = 0 to 7 do
          Sim.Engine.sleep engine (Sim.Rng.int rng 20_000);
          ignore (Nfs.Rpc.call rpc (Nfs.Proto.Getattr { fh = (c * 8) + i }));
          done_at.((c * 8) + i) <- Sim.Engine.now engine
        done)
  done;
  done_at

(* The channel's counters and estimator, then each call's completion
   time. *)
let check_pinned rpc done_at ~scalars ~times =
  let st = Nfs.Rpc.stats rpc in
  check_string "counters and estimator" scalars
    (Printf.sprintf "calls=%d retransmits=%d late=%d backoffs=%d rto=%.0f \
                     srtt=%.3f cwnd=%.4f"
       st.Nfs.Rpc.calls st.Nfs.Rpc.retransmits st.Nfs.Rpc.late_replies
       (Nfs.Rpc.backoffs rpc) (Nfs.Rpc.rto_us rpc) (Nfs.Rpc.srtt_us rpc)
       (Nfs.Rpc.cwnd rpc));
  Alcotest.(check (list int)) "completion times (us)" times
    (Array.to_list done_at)

let adaptive_scalars =
  "calls=24 retransmits=8 late=0 backoffs=8 rto=200000 srtt=7668.834 \
   cwnd=5.9287"

let adaptive_times =
  [ 1112701; 3329651; 3382301; 3392250; 3400543; 3607381; 4021418; 4044862;
    8015; 3318391; 3537184; 3549678; 3564678; 3582535; 3793442; 3802516;
    621336; 3324021; 3356671; 3387931; 3408398; 3433543; 3469204; 3483989 ]

let test_rpc_fixed () =
  let engine = Sim.Engine.create () in
  let rpc = channel engine ~seed:11 ~id:0 ~transport:Nfs.Rpc.Fixed () in
  let done_at = drive engine rpc ~seed:20 in
  Sim.Engine.run engine;
  check_pinned rpc done_at
    ~scalars:
      "calls=24 retransmits=8 late=0 backoffs=0 rto=1100000 srtt=0.000 \
       cwnd=0.0000"
    ~times:
      [ 1112701; 1125820; 1138327; 2248336; 2256629; 2283407; 2297384;
        2320828; 8015; 1123384; 1142117; 1194611; 1209611; 1227468; 1238315;
        2347449; 3321336; 3336137; 4448847; 5569657; 5590124; 5615269;
        5630930; 5665715 ]

let test_rpc_adaptive () =
  let engine = Sim.Engine.create () in
  let rpc = channel engine ~seed:11 ~id:0 ~transport:Nfs.Rpc.Adaptive () in
  let done_at = drive engine rpc ~seed:20 in
  Sim.Engine.run engine;
  check_pinned rpc done_at ~scalars:adaptive_scalars ~times:adaptive_times

let suites =
  [
    ( "transport",
      [
        Alcotest.test_case "p2p lossy schedule" `Quick test_p2p_schedule;
        Alcotest.test_case "medium lossy schedule" `Quick test_medium_schedule;
        Alcotest.test_case "switch lossy schedule" `Quick test_switch_schedule;
        Alcotest.test_case "rpc fixed over a lossy link" `Quick test_rpc_fixed;
        Alcotest.test_case "rpc adaptive over a lossy link" `Quick
          test_rpc_adaptive;
      ] );
  ]
