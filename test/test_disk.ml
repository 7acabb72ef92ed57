(* Tests for the disk substrate: store, geometry, seek model, requests,
   disksort, and the device's timing/data behaviour. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------- Store ---------- *)

let test_store_roundtrip () =
  let st = Disk.Store.create ~size:(1 lsl 20) in
  check_int "size" (1 lsl 20) (Disk.Store.size st);
  let src = Bytes.init 1000 (fun i -> Char.chr (i land 0xff)) in
  (* straddle a chunk boundary on purpose *)
  Disk.Store.write st ~off:8000 ~len:1000 src 0;
  let dst = Bytes.create 1000 in
  Disk.Store.read st ~off:8000 ~len:1000 dst 0;
  check_bool "roundtrip" true (Bytes.equal src dst)

let test_store_zero_default () =
  let st = Disk.Store.create ~size:4096 in
  let b = Bytes.make 16 'x' in
  Disk.Store.read st ~off:100 ~len:16 b 0;
  check_bool "reads zeros" true (Bytes.for_all (fun c -> c = '\000') b)

let test_store_bounds () =
  let st = Disk.Store.create ~size:4096 in
  let b = Bytes.create 16 in
  Alcotest.check_raises "past end"
    (Invalid_argument "Store: access [4090,4106) outside [0,4096)") (fun () ->
      Disk.Store.read st ~off:4090 ~len:16 b 0)

let test_store_sparse_and_copy () =
  let st = Disk.Store.create ~size:(1 lsl 24) in
  check_int "no chunks yet" 0 (Disk.Store.chunks_allocated st);
  let b = Bytes.make 1 'z' in
  Disk.Store.write st ~off:1_000_000 ~len:1 b 0;
  check_int "one chunk" 1 (Disk.Store.chunks_allocated st);
  let st2 = Disk.Store.create ~size:(1 lsl 24) in
  Disk.Store.copy_into st st2;
  let r = Bytes.create 1 in
  Disk.Store.read st2 ~off:1_000_000 ~len:1 r 0;
  check_bool "copied" true (Bytes.get r 0 = 'z');
  (* the copy is deep *)
  Disk.Store.write st ~off:1_000_000 ~len:1 (Bytes.make 1 'q') 0;
  Disk.Store.read st2 ~off:1_000_000 ~len:1 r 0;
  check_bool "deep copy" true (Bytes.get r 0 = 'z')

(* The chunked store against one flat [Bytes] image: random writes and
   reads, plain and scattered, many of them straddling or exactly
   covering chunks, then save/load and copy_into.  A chunk exists
   exactly when some write touched it (or, after a load, when it holds
   a non-zero byte). *)
type store_op =
  | W of int * int * int  (** off, len, pattern seed *)
  | Wv of int * int * int * int list  (** off, len, seed, cuts *)
  | R of int * int
  | Rv of int * int * int list

let store_chunk = 8192
let store_size = (3 * store_chunk) + 1000

let gen_store_op =
  let open QCheck.Gen in
  let span =
    oneof
      [
        (* anywhere, any length *)
        ( int_bound (store_size - 1) >>= fun off ->
          int_bound (min 20_000 (store_size - off)) >|= fun len -> (off, len) );
        (* whole chunks *)
        ( int_bound 2 >>= fun c ->
          int_range 1 (3 - c) >|= fun n -> (c * store_chunk, n * store_chunk) );
        (* around a chunk edge *)
        ( int_range 1 3 >>= fun c ->
          int_range 1 300 >>= fun back ->
          int_bound 300 >|= fun fwd ->
          let off = (c * store_chunk) - back in
          (off, min (back + fwd) (store_size - off)) );
      ]
  in
  let cuts = small_list small_nat in
  frequency
    [
      (3, span >>= fun (o, l) -> int_bound 250 >|= fun s -> W (o, l, s));
      (2, span >>= fun (o, l) -> int_bound 250 >>= fun s -> cuts >|= fun c -> Wv (o, l, s, c));
      (2, span >|= fun (o, l) -> R (o, l));
      (2, span >>= fun (o, l) -> cuts >|= fun c -> Rv (o, l, c));
    ]

let pattern len seed = Bytes.init len (fun i -> Char.chr ((seed + (i * 7)) land 0xff))

let nonzero_chunks flat =
  let n = ref 0 in
  for c = 0 to ((Bytes.length flat + store_chunk - 1) / store_chunk) - 1 do
    let len = min store_chunk (Bytes.length flat - (c * store_chunk)) in
    if not (Bytes.for_all (fun ch -> ch = '\000') (Bytes.sub flat (c * store_chunk) len))
    then incr n
  done;
  !n

let prop_store_matches_flat =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 22 |])
    (QCheck.Test.make ~count:200 ~name:"store vs flat bytes reference"
       (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_range 1 25) gen_store_op))
       (fun ops ->
         let st = Disk.Store.create ~size:store_size in
         let flat = Bytes.make store_size '\000' in
         let touched = Hashtbl.create 8 in
         let touch off len =
           for c = off / store_chunk to (off + len - 1) / store_chunk do
             Hashtbl.replace touched c ()
           done
         in
         let ok = ref true in
         List.iter
           (function
             | W (off, len, seed) ->
                 let src = pattern len seed in
                 Disk.Store.write st ~off ~len src 0;
                 Bytes.blit src 0 flat off len;
                 touch off len
             | Wv (off, len, seed, cuts) ->
                 let src = pattern len seed in
                 Disk.Store.writev st ~off (Helpers.segmented src cuts);
                 Bytes.blit src 0 flat off len;
                 touch off len
             | R (off, len) ->
                 let dst = Bytes.make len '?' in
                 Disk.Store.read st ~off ~len dst 0;
                 if not (Bytes.equal dst (Bytes.sub flat off len)) then ok := false
             | Rv (off, len, cuts) ->
                 let iov = Helpers.segmented (Bytes.make len '?') cuts in
                 Disk.Store.readv st ~off iov;
                 if not (Bytes.equal (Sim.Iov.to_bytes iov) (Bytes.sub flat off len))
                 then ok := false)
           ops;
         let whole s =
           let b = Bytes.create store_size in
           Disk.Store.read s ~off:0 ~len:store_size b 0;
           b
         in
         let path = Filename.temp_file "clusterfs-store" ".img" in
         let loaded =
           Fun.protect
             ~finally:(fun () -> Sys.remove path)
             (fun () ->
               Disk.Store.save st path;
               Disk.Store.load path)
         in
         let copy = Disk.Store.create ~size:store_size in
         Disk.Store.write copy ~off:0 ~len:10 (Bytes.make 10 'x') 0;
         Disk.Store.copy_into st copy;
         !ok
         && Bytes.equal (whole st) flat
         && Disk.Store.chunks_allocated st = Hashtbl.length touched
         && Bytes.equal (whole loaded) flat
         && Disk.Store.chunks_allocated loaded = nonzero_chunks flat
         && Bytes.equal (whole copy) flat
         && Disk.Store.chunks_allocated copy = Hashtbl.length touched))

(* ---------- Geom ---------- *)

let test_geom_chs () =
  let g = Disk.Geom.sun0400 in
  let c0 = Disk.Geom.to_chs g 0 in
  check_int "sector 0 cyl" 0 c0.Disk.Geom.cyl;
  check_int "sector 0 head" 0 c0.Disk.Geom.head;
  let spt = c0.Disk.Geom.spt in
  let c1 = Disk.Geom.to_chs g spt in
  check_int "next track head" 1 c1.Disk.Geom.head;
  let per_cyl = g.Disk.Geom.nheads * spt in
  let c2 = Disk.Geom.to_chs g per_cyl in
  check_int "next cylinder" 1 c2.Disk.Geom.cyl;
  check_int "head wraps" 0 c2.Disk.Geom.head;
  Alcotest.check_raises "out of range"
    (Invalid_argument
       (Printf.sprintf "Geom.to_chs: sector %d out of range"
          g.Disk.Geom.total_sectors)) (fun () ->
      ignore (Disk.Geom.to_chs g g.Disk.Geom.total_sectors))

let test_geom_zoned () =
  let g = Disk.Geom.zoned_example in
  (* first zone has 72 sectors/track, last 40 *)
  let first = Disk.Geom.to_chs g 0 in
  check_int "outer zone spt" 72 first.Disk.Geom.spt;
  let last = Disk.Geom.to_chs g (g.Disk.Geom.total_sectors - 1) in
  check_int "inner zone spt" 40 last.Disk.Geom.spt;
  check_int "last cylinder" (g.Disk.Geom.ncyls - 1) last.Disk.Geom.cyl

let test_geom_angles () =
  let g = Disk.Geom.sun0400 in
  for s = 0 to 200 do
    let a = Disk.Geom.sector_angle g (Disk.Geom.to_chs g (s * 37)) in
    check_bool "angle in [0,1)" true (a >= 0. && a < 1.)
  done;
  let rot = Disk.Geom.rotation_time g in
  Alcotest.(check (float 1e-9)) "angle wraps with rotation"
    (Disk.Geom.angle_at g 100)
    (Disk.Geom.angle_at g (100 + rot))

let test_geom_capacity () =
  check_bool "~400MB drive" true
    (Disk.Geom.capacity_bytes Disk.Geom.sun0400 > 400_000_000
    && Disk.Geom.capacity_bytes Disk.Geom.sun0400 < 440_000_000)

(* ---------- Seek ---------- *)

let test_seek_model () =
  let s = Disk.Seek.default in
  check_int "no movement" 0 (Disk.Seek.time s ~from_cyl:5 ~to_cyl:5);
  let near = Disk.Seek.time s ~from_cyl:0 ~to_cyl:1 in
  let far = Disk.Seek.time s ~from_cyl:0 ~to_cyl:1000 in
  check_bool "monotonic" true (near < far);
  check_bool "near seek is settle-dominated" true (near >= 2000 && near < 4000);
  let capped = Disk.Seek.time (Disk.Seek.create ~max_us:10_000 ()) ~from_cyl:0 ~to_cyl:100_000 in
  check_int "capped" 10_000 capped

(* ---------- Request ---------- *)

let test_request_validation () =
  let buf = Bytes.create 512 in
  Alcotest.check_raises "short buffer"
    (Invalid_argument "Request.make: buffer too small") (fun () ->
      ignore
        (Disk.Request.make ~kind:Disk.Request.Read ~sector:0 ~count:2 ~buf
           ~buf_off:0 ()));
  Alcotest.check_raises "bad extent"
    (Invalid_argument "Request.make: bad extent") (fun () ->
      ignore
        (Disk.Request.make ~kind:Disk.Request.Read ~sector:(-1) ~count:1 ~buf
           ~buf_off:0 ()))

let test_request_completion () =
  let buf = Bytes.create 512 in
  let r = Disk.Request.make ~kind:Disk.Request.Read ~sector:0 ~count:1 ~buf ~buf_off:0 () in
  let fired = ref 0 in
  Disk.Request.on_complete r (fun () -> incr fired);
  Disk.Request.complete r ~now:42;
  check_int "callback fired" 1 !fired;
  Disk.Request.on_complete r (fun () -> incr fired);
  check_int "late callback fires immediately" 2 !fired;
  check_int "end_sector" 1 (Disk.Request.end_sector r)

(* ---------- Disksort ---------- *)

let mk_req ?(ordered = false) ?(kind = Disk.Request.Write) sector count =
  Disk.Request.make ~ordered ~kind ~sector ~count
    ~buf:(Bytes.create (count * 512))
    ~buf_off:0 ()

let drain_q q ~head =
  let rec loop acc =
    match Disk.Disksort.next q ~head_sector:head with
    | Some r -> loop (r.Disk.Request.sector :: acc)
    | None -> List.rev acc
  in
  loop []

let test_disksort_fifo () =
  let q = Disk.Disksort.create Disk.Disksort.Fifo in
  List.iter (fun s -> Disk.Disksort.enqueue q (mk_req s 1)) [ 30; 10; 20 ];
  Alcotest.(check (list int)) "arrival order" [ 30; 10; 20 ] (drain_q q ~head:0)

let test_disksort_elevator () =
  let q = Disk.Disksort.create Disk.Disksort.Elevator in
  List.iter (fun s -> Disk.Disksort.enqueue q (mk_req s 1)) [ 30; 10; 50; 20 ];
  (* head at 15: ascending sweep from there, then wrap *)
  let r1 = Disk.Disksort.next q ~head_sector:15 in
  check_int "first >= head" 20 (Option.get r1).Disk.Request.sector;
  let r2 = Disk.Disksort.next q ~head_sector:21 in
  check_int "sweep continues" 30 (Option.get r2).Disk.Request.sector;
  let r3 = Disk.Disksort.next q ~head_sector:31 in
  check_int "sweep continues" 50 (Option.get r3).Disk.Request.sector;
  let r4 = Disk.Disksort.next q ~head_sector:51 in
  check_int "wraps to lowest" 10 (Option.get r4).Disk.Request.sector

let test_disksort_barrier () =
  let q = Disk.Disksort.create Disk.Disksort.Elevator in
  Disk.Disksort.enqueue q (mk_req 50 1);
  Disk.Disksort.enqueue q (mk_req 40 1);
  Disk.Disksort.enqueue q (mk_req ~ordered:true 10 1);
  Disk.Disksort.enqueue q (mk_req 5 1);
  (* the two pre-barrier requests must go first (in elevator order),
     then the barrier, then the rest *)
  Alcotest.(check (list int))
    "barrier respected" [ 40; 50; 10; 5 ] (drain_q q ~head:0)

let test_disksort_absorb () =
  let q = Disk.Disksort.create Disk.Disksort.Elevator in
  let r = mk_req 100 2 in
  (* contiguous after, contiguous before, not contiguous, wrong kind *)
  Disk.Disksort.enqueue q (mk_req 102 2);
  Disk.Disksort.enqueue q (mk_req 98 2);
  Disk.Disksort.enqueue q (mk_req 200 2);
  Disk.Disksort.enqueue q (mk_req ~kind:Disk.Request.Read 104 2);
  let absorbed = Disk.Disksort.absorb_contiguous q r in
  Alcotest.(check (list int))
    "absorbed both neighbours" [ 98; 102 ]
    (List.map (fun (x : Disk.Request.t) -> x.Disk.Request.sector) absorbed);
  check_int "two left" 2 (Disk.Disksort.length q)

(* ---------- Device ---------- *)

let with_device ?(cfg = Helpers.small_disk) f =
  let e = Sim.Engine.create () in
  let d = Disk.Device.create e cfg in
  let result = ref None in
  Sim.Engine.spawn e (fun () -> result := Some (f e d));
  Sim.Engine.run e;
  match !result with Some r -> r | None -> Alcotest.fail "device test hung"

let test_device_data_roundtrip () =
  with_device (fun _e d ->
      let w = Bytes.init 4096 (fun i -> Char.chr (i land 0xff)) in
      Disk.Device.write_sync d ~sector:100 ~count:8 ~buf:w ~buf_off:0;
      let r = Bytes.create 4096 in
      Disk.Device.read_sync d ~sector:100 ~count:8 ~buf:r ~buf_off:0;
      check_bool "data survives" true (Bytes.equal w r))

let test_device_time_advances () =
  with_device (fun e d ->
      let t0 = Sim.Engine.now e in
      let b = Bytes.create 512 in
      Disk.Device.read_sync d ~sector:0 ~count:1 ~buf:b ~buf_off:0;
      check_bool "takes time" true (Sim.Engine.now e > t0);
      let s = Disk.Device.stats d in
      check_int "one read" 1 s.Disk.Device.reads;
      check_int "one sector" 1 s.Disk.Device.sectors_read)

let test_device_sequential_beats_random () =
  let seq =
    with_device (fun e d ->
        let b = Bytes.create 8192 in
        let t0 = Sim.Engine.now e in
        for i = 0 to 63 do
          Disk.Device.read_sync d ~sector:(i * 16) ~count:16 ~buf:b ~buf_off:0
        done;
        Sim.Engine.now e - t0)
  in
  let rand =
    with_device (fun e d ->
        let b = Bytes.create 8192 in
        let rng = Sim.Rng.create ~seed:5 in
        let nblocks = (Disk.Device.capacity_bytes d / 512 / 16) - 1 in
        let t0 = Sim.Engine.now e in
        for _ = 0 to 63 do
          Disk.Device.read_sync d
            ~sector:(Sim.Rng.int rng nblocks * 16)
            ~count:16 ~buf:b ~buf_off:0
        done;
        Sim.Engine.now e - t0)
  in
  check_bool
    (Printf.sprintf "sequential (%dus) at least 3x faster than random (%dus)"
       seq rand)
    true
    (seq * 3 < rand)

let test_device_track_buffer_hits () =
  with_device (fun _e d ->
      let b = Bytes.create 512 in
      (* read a sector mid-track, then re-read neighbours on that track *)
      Disk.Device.read_sync d ~sector:10 ~count:1 ~buf:b ~buf_off:0;
      Disk.Device.read_sync d ~sector:5 ~count:1 ~buf:b ~buf_off:0;
      Disk.Device.read_sync d ~sector:12 ~count:1 ~buf:b ~buf_off:0;
      let hits, _misses = Disk.Device.track_buffer_stats d in
      check_bool "track buffer hits" true (hits >= 2))

let test_device_stream_read_fast () =
  (* back-to-back sequential reads should approach media rate: time for
     the second of two adjacent big reads must be far below one
     rotation + transfer *)
  with_device (fun e d ->
      let b = Bytes.create (48 * 512) in
      Disk.Device.read_sync d ~sector:0 ~count:48 ~buf:b ~buf_off:0;
      let t1 = Sim.Engine.now e in
      Disk.Device.read_sync d ~sector:48 ~count:48 ~buf:b ~buf_off:0;
      let dt = Sim.Engine.now e - t1 in
      let rot = Disk.Geom.rotation_time Helpers.small_geom in
      check_bool
        (Printf.sprintf "streamed continuation (%dus < ~1.5 rotations)" dt)
        true (dt < rot * 3 / 2))

let test_device_quiesce_and_async () =
  with_device (fun e d ->
      let b = Bytes.create 512 in
      let r =
        Disk.Request.make ~kind:Disk.Request.Write ~sector:7 ~count:1 ~buf:b
          ~buf_off:0 ()
      in
      let done_at = ref 0 in
      Disk.Request.on_complete r (fun () -> done_at := Sim.Engine.now e);
      Disk.Device.submit d r;
      check_bool "busy after submit" true (Disk.Device.busy d);
      Disk.Device.quiesce d;
      check_bool "completed by quiesce" true (!done_at > 0);
      check_bool "idle after quiesce" false (Disk.Device.busy d))

let test_device_driver_clustering () =
  let cfg =
    { Helpers.small_disk with Disk.Device.driver_clustering = true }
  in
  with_device ~cfg (fun e d ->
      (* submit 4 adjacent writes while the disk is busy with a far-away
         read, so they are all queued when the disk gets to them *)
      let blocker = Bytes.create 512 in
      let far = (Disk.Device.capacity_bytes d / 512) - 1 in
      let first =
        Disk.Request.make ~kind:Disk.Request.Read ~sector:far ~count:1
          ~buf:blocker ~buf_off:0 ()
      in
      Disk.Device.submit d first;
      let reqs =
        List.init 4 (fun i ->
            let b = Bytes.make 512 (Char.chr (65 + i)) in
            Disk.Request.make ~kind:Disk.Request.Write ~sector:(200 + i)
              ~count:1 ~buf:b ~buf_off:0 ())
      in
      List.iter (Disk.Device.submit d) reqs;
      Disk.Device.quiesce d;
      ignore e;
      let s = Disk.Device.stats d in
      check_bool "requests were coalesced" true (s.Disk.Device.coalesced >= 3);
      (* data of each coalesced request must still land correctly *)
      let b = Bytes.create (4 * 512) in
      Disk.Device.read_sync d ~sector:200 ~count:4 ~buf:b ~buf_off:0;
      List.iteri
        (fun i c -> check_bool "coalesced data intact" true (Bytes.get b (i * 512) = c))
        [ 'A'; 'B'; 'C'; 'D' ])

let test_device_bounds () =
  with_device (fun _e d ->
      let b = Bytes.create 512 in
      let total = Disk.Device.capacity_bytes d / 512 in
      Alcotest.check_raises "past end of disk"
        (Invalid_argument "Device.submit: request past end of disk") (fun () ->
          Disk.Device.read_sync d ~sector:total ~count:1 ~buf:b ~buf_off:0))

let suites =
  [
    ( "disk",
      [
        Alcotest.test_case "store roundtrip" `Quick test_store_roundtrip;
        Alcotest.test_case "store zero default" `Quick test_store_zero_default;
        Alcotest.test_case "store bounds" `Quick test_store_bounds;
        Alcotest.test_case "store sparse+copy" `Quick test_store_sparse_and_copy;
        prop_store_matches_flat;
        Alcotest.test_case "geom chs" `Quick test_geom_chs;
        Alcotest.test_case "geom zoned" `Quick test_geom_zoned;
        Alcotest.test_case "geom angles" `Quick test_geom_angles;
        Alcotest.test_case "geom capacity" `Quick test_geom_capacity;
        Alcotest.test_case "seek model" `Quick test_seek_model;
        Alcotest.test_case "request validation" `Quick test_request_validation;
        Alcotest.test_case "request completion" `Quick test_request_completion;
        Alcotest.test_case "disksort fifo" `Quick test_disksort_fifo;
        Alcotest.test_case "disksort elevator" `Quick test_disksort_elevator;
        Alcotest.test_case "disksort B_ORDER barrier" `Quick
          test_disksort_barrier;
        Alcotest.test_case "disksort absorb" `Quick test_disksort_absorb;
        Alcotest.test_case "device data roundtrip" `Quick
          test_device_data_roundtrip;
        Alcotest.test_case "device time advances" `Quick
          test_device_time_advances;
        Alcotest.test_case "device seq beats random" `Quick
          test_device_sequential_beats_random;
        Alcotest.test_case "device track buffer" `Quick
          test_device_track_buffer_hits;
        Alcotest.test_case "device stream read" `Quick
          test_device_stream_read_fast;
        Alcotest.test_case "device quiesce/async" `Quick
          test_device_quiesce_and_async;
        Alcotest.test_case "device driver clustering" `Quick
          test_device_driver_clustering;
        Alcotest.test_case "device bounds" `Quick test_device_bounds;
      ] );
  ]
