(* Page-frame recycling between the NFS client cache and the READ path:
   a frame dropped from the client cache goes back to the engine's pool
   only when nothing can touch it again, and a frame a WRITE payload
   borrows is copied once before it is rewritten.  Each deterministic
   case below pins one of those rules with a stand-in server whose
   timing the test scripts. *)

module T = Clusterfs.Topology

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let bsize = Ufs.Layout.bsize
let block c = Bytes.make bsize c
let ms = Sim.Time.ms

(* ---------- a scripted stand-in server ---------- *)

type tap = {
  arrivals : int ref;  (** call copies received *)
  writes : (int * int * string) list ref;
      (** WRITEs applied, newest first: (xid, block, payload) *)
}

(* One file's worth of NFS server on [ep]: CREATE (truncates), GETATTR,
   READ and WRITE over a private byte image.  Each copy of each call is
   served by a process of its own after [hold call ~copy] ([copy] 0 is
   the first copy of its xid to arrive), or ignored when that is
   [None].  A call's effect happens when it is served: a WRITE reads its
   payload then, the way nfsd copies from a call it has dequeued, and a
   held READ sees any truncation that overtook it.  READ replies read
   into frames from the engine's pool, as [Ufs.Fs.readv] does. *)
let tap_server e ep ~hold =
  let image = ref Bytes.empty in
  let tap = { arrivals = ref 0; writes = ref [] } in
  let copies = Hashtbl.create 16 in
  let attr () = { Nfs.Proto.size = Bytes.length !image; is_dir = false } in
  let serve xid (call : Nfs.Proto.call) : Nfs.Proto.reply =
    match call with
    | Nfs.Proto.Create _ ->
        image := Bytes.empty;
        Nfs.Proto.R_fh { fh = 7; attr = attr () }
    | Nfs.Proto.Getattr _ -> Nfs.Proto.R_attr (attr ())
    | Nfs.Proto.Read { off; len; _ } ->
        let n = max 0 (min len (Bytes.length !image - off)) in
        let segs =
          List.init ((n + bsize - 1) / bsize) (fun i ->
              let k = min bsize (n - (i * bsize)) in
              let b =
                if k = bsize then Sim.Frames.take (Sim.Engine.frames e)
                else Bytes.create k
              in
              Bytes.blit !image (off + (i * bsize)) b 0 k;
              (b, 0, k))
        in
        Nfs.Proto.R_read
          { data = Sim.Iov.of_list segs; eof = off + n >= Bytes.length !image }
    | Nfs.Proto.Write { off; data; _ } ->
        let payload = Sim.Iov.to_bytes data in
        let len = Bytes.length payload in
        if off + len > Bytes.length !image then begin
          let bigger = Bytes.make (off + len) '\000' in
          Bytes.blit !image 0 bigger 0 (Bytes.length !image);
          image := bigger
        end;
        Bytes.blit payload 0 !image off len;
        tap.writes :=
          (xid, off / bsize, Bytes.to_string payload) :: !(tap.writes);
        Nfs.Proto.R_attr (attr ())
    | _ -> Nfs.Proto.R_err "ENOSYS"
  in
  Sim.Engine.spawn e ~name:"tap-server" (fun () ->
      while true do
        match Net.recv ep with
        | Nfs.Proto.Reply _ -> assert false
        | Nfs.Proto.Call { xid; client; call; _ } -> (
            incr tap.arrivals;
            let copy = Option.value ~default:0 (Hashtbl.find_opt copies xid) in
            Hashtbl.replace copies xid (copy + 1);
            match hold call ~copy with
            | None -> ()
            | Some d ->
                Sim.Engine.spawn e ~name:"tap-call" (fun () ->
                    Sim.Engine.sleep e d;
                    let reply = serve xid call in
                    let meta =
                      { Nfs.Proto.sent_at = Sim.Engine.now e; cost = []; spans = None }
                    in
                    let msg = Nfs.Proto.Reply { xid; client; reply; meta } in
                    Net.send ep ~size:(Nfs.Proto.msg_size msg) msg))
      done);
  tap

(* A client mount over a private link to a tap server.  The RPC
   timeout is 100 ms unless given. *)
let tap_mount ?cache_pages ?costs ?(timeout = ms 100) ~hold () =
  let e = Sim.Engine.create () in
  let ccpu = Sim.Cpu.create e and scpu = Sim.Cpu.create e in
  let link = Net.create e Net.default_config ~a_cpu:ccpu ~b_cpu:scpu in
  let tap = tap_server e (Net.b_end link) ~hold in
  let rpc =
    Nfs.Rpc.create e ~cpu:ccpu ~ep:(Net.a_end link) ~client_id:0 ~timeout ()
  in
  (e, Nfs.Client.mount e ~cpu:ccpu ~rpc ?cache_pages ?costs (), tap)

let applied tap = List.rev_map (fun (_, b, data) -> (b, data)) !(tap.writes)
let page_of c = String.make bsize c

(* ---------- copy-on-write ---------- *)

let test_rewrites_copy_once () =
  (* every WRITE is served 20 ms after it arrives *)
  let hold (call : Nfs.Proto.call) ~copy:_ =
    match call with Nfs.Proto.Write _ -> Some (ms 20) | _ -> Some 0
  in
  let e, mount, tap = tap_mount ~hold () in
  let copies = ref (-1) in
  Sim.Engine.spawn e (fun () ->
      let f = Nfs.Client.create mount "cow" in
      Nfs.Client.write f ~off:0 ~buf:(block 'A') ~len:bsize;
      (* a write to block 5 breaks the run: block 0's WRITE goes out *)
      Nfs.Client.write f ~off:(5 * bsize) ~buf:(block 'Z') ~len:bsize;
      while !(tap.arrivals) < 2 do
        Sim.Engine.sleep e (Sim.Time.us 100)
      done;
      let frames = Sim.Engine.frames e in
      let before = Sim.Frames.taken frames in
      List.iter
        (fun c -> Nfs.Client.write f ~off:0 ~buf:(block c) ~len:bsize)
        [ 'B'; 'C'; 'D' ];
      copies := Sim.Frames.taken frames - before;
      Nfs.Client.fsync f);
  Sim.Engine.run e;
  check_int "three rewrites during one WRITE take one copy" 1 !copies;
  Alcotest.(check (list (pair int string)))
    "the in-flight WRITE keeps its bytes, the next carries the last"
    [ (0, page_of 'A'); (5, page_of 'Z'); (0, page_of 'D') ]
    (applied tap)

(* Write block 0 with 'A' and fsync it.  The first copy of every WRITE
   is served 300 ms late, so the 100 ms timeout retransmits it, the
   second copy is answered, and the first is applied after that reply.
   [after] runs as soon as fsync returns, while that stale copy is
   still queued.  Returns every payload applied for block 0's first
   WRITE. *)
let late_duplicate ~after =
  let hold (call : Nfs.Proto.call) ~copy =
    match call with
    | Nfs.Proto.Write _ when copy = 0 -> Some (ms 300)
    | _ -> Some 0
  in
  let e, mount, tap = tap_mount ~cache_pages:1 ~hold () in
  Sim.Engine.spawn e (fun () ->
      let f = Nfs.Client.create mount "dup" in
      Nfs.Client.write f ~off:0 ~buf:(block 'A') ~len:bsize;
      Nfs.Client.fsync f;
      check_int "the reply came from the retransmission" 1
        (List.length !(tap.writes));
      after f;
      Sim.Engine.sleep e (ms 500));
  Sim.Engine.run e;
  let first = List.fold_left (fun _ (xid, _, _) -> xid) 0 !(tap.writes) in
  List.filter_map
    (fun (xid, _, data) -> if xid = first then Some data else None)
    !(tap.writes)

let test_resent_frame_not_rewritten () =
  let payloads =
    late_duplicate ~after:(fun f ->
        Nfs.Client.write f ~off:0 ~buf:(block 'B') ~len:bsize;
        Nfs.Client.fsync f)
  in
  Alcotest.(check (list string))
    "both copies carry the bytes the call was gathered with"
    [ page_of 'A'; page_of 'A' ] payloads

let test_resent_frame_not_recycled () =
  (* a one-page cache: writing block 1 evicts block 0, and the new
     page's frame must not be block 0's *)
  let payloads =
    late_duplicate ~after:(fun f ->
        Nfs.Client.write f ~off:bsize ~buf:(block 'C') ~len:bsize;
        Nfs.Client.fsync f)
  in
  Alcotest.(check (list string))
    "the stale copy still reads the gathered bytes"
    [ page_of 'A'; page_of 'A' ]
    payloads

(* ---------- recycling ---------- *)

let test_lent_frame_not_recycled () =
  (* Re-creating a file drops its pages while a WRITE of block 0, pushed
     during the CREATE, still borrows block 0's frame.  The pages
     written next must not get that frame. *)
  let hold (call : Nfs.Proto.call) ~copy:_ =
    match call with
    | Nfs.Proto.Create _ -> Some (ms 10)
    | Nfs.Proto.Write _ -> Some (ms 50)
    | _ -> Some 0
  in
  let e, mount, tap = tap_mount ~timeout:(Sim.Time.sec 1) ~hold () in
  let file = ref None and recreated = ref false in
  Sim.Engine.spawn e (fun () ->
      file := Some (Nfs.Client.create mount "re");
      ignore (Nfs.Client.create mount "re");
      recreated := true);
  Sim.Engine.spawn e (fun () ->
      while !file = None do
        Sim.Engine.sleep e (ms 1)
      done;
      let f = Option.get !file in
      Sim.Engine.sleep e (ms 2);
      Nfs.Client.write f ~off:0 ~buf:(block 'A') ~len:bsize;
      Nfs.Client.write f ~off:(5 * bsize) ~buf:(block 'Z') ~len:bsize;
      check_bool "block 0 was pushed during the CREATE" false !recreated;
      while not !recreated do
        Sim.Engine.sleep e (ms 1)
      done;
      Nfs.Client.write f ~off:(7 * bsize) ~buf:(Bytes.make (2 * bsize) 'Q')
        ~len:(2 * bsize);
      Nfs.Client.fsync f);
  Sim.Engine.run e;
  Alcotest.(check (list (pair int string)))
    "the in-flight WRITE carried the bytes it was gathered with"
    [ (0, page_of 'A'); (7, page_of 'Q' ^ page_of 'Q') ]
    (applied tap)

let test_reader_holds_evicted_page () =
  (* A reader is suspended in the CPU charge for its copy out of block
     0 when a writer on another lane inserts block 1 into the one-page
     cache and evicts block 0.  The writer's new page takes a zeroed
     frame; it must not be the one the reader is about to copy from.
     The copy cost is made large so the two lanes interleave on the
     client CPU: the writer's syscall charge runs between the reader's
     lookup and its copy. *)
  let costs = { Ufs.Costs.default with Ufs.Costs.copy_per_kb = ms 1 } in
  let hold _ ~copy:_ = Some 0 in
  let e, mount, _tap = tap_mount ~cache_pages:1 ~costs ~hold () in
  let got = Bytes.create bsize in
  Sim.Engine.spawn e (fun () ->
      let f = Nfs.Client.create mount "rd" in
      Nfs.Client.write f ~off:0 ~buf:(block 'A') ~len:bsize;
      Nfs.Client.fsync f;
      let st = Nfs.Client.stats mount in
      let hits = st.Nfs.Client.cache_hits
      and evictions = st.Nfs.Client.evictions in
      Sim.Engine.spawn e (fun () ->
          Sim.Engine.sleep e (Sim.Time.us 100);
          Nfs.Client.write f ~off:bsize ~buf:(block 'W') ~len:bsize);
      check_int "read length" bsize
        (Nfs.Client.read f ~off:0 ~buf:got ~len:bsize);
      check_int "the read was a cache hit" (hits + 1) st.Nfs.Client.cache_hits;
      check_int "its page was evicted before it returned" (evictions + 1)
        st.Nfs.Client.evictions);
  Sim.Engine.run e;
  check_bool "the reader copied the page's bytes" true
    (Bytes.equal got (block 'A'))

(* ---------- the late read-ahead bug ---------- *)

let test_late_readahead_after_recreate () =
  (* READs are served 30 ms late.  A sequential read of a 20-block file
     leaves a read-ahead of blocks 15-19 in flight; the file is then
     re-created and block 15 written.  The read-ahead lands after the
     truncation, past the new EOF: it must drop only its own
     placeholders, not the freshly written page. *)
  let hold (call : Nfs.Proto.call) ~copy:_ =
    match call with Nfs.Proto.Read _ -> Some (ms 30) | _ -> Some 0
  in
  let e, mount, tap = tap_mount ~timeout:(Sim.Time.sec 1) ~hold () in
  let got = Bytes.create bsize in
  Sim.Engine.spawn e (fun () ->
      let f = Nfs.Client.create mount "ra" in
      let len = 20 * bsize in
      Nfs.Client.write f ~off:0 ~buf:(Bytes.make len 'A') ~len;
      Nfs.Client.fsync f;
      Nfs.Client.invalidate f;
      ignore (Nfs.Client.read f ~off:0 ~buf:got ~len:bsize);
      let f = Nfs.Client.create mount "ra" in
      Nfs.Client.write f ~off:(15 * bsize) ~buf:(block 'B') ~len:bsize;
      Sim.Engine.sleep e (ms 100);
      Nfs.Client.fsync f;
      check_int "read back" bsize
        (Nfs.Client.read f ~off:(15 * bsize) ~buf:got ~len:bsize));
  Sim.Engine.run e;
  check_bool "the page written after the truncation survived" true
    (Bytes.equal got (block 'B'));
  check_bool "and was pushed" true (List.mem (15, page_of 'B') (applied tap))

(* ---------- property: two clients, lossy, evicting ---------- *)

type op = Write of int * int * int | Read of int * int

(* Per client: a seeded mix over two files of 16 blocks.  A write
   covers 1-3 blocks never written before (so no two WRITEs overlap and
   the push reorder cannot show); a read names a block already
   written. *)
let gen_ops ~seed ~client =
  let rng = Sim.Rng.create ~seed:((seed * 7) + client) in
  let written = Array.make_matrix 2 16 false in
  let ops = ref [] in
  for _ = 1 to 24 do
    let file = Sim.Rng.int rng 2 in
    let blk = Sim.Rng.int rng 16 in
    if written.(file).(blk) then ops := Read (file, blk) :: !ops
    else begin
      let n = ref 1 in
      while !n < 3 && blk + !n < 16 && not written.(file).(blk + !n) do
        incr n
      done;
      let n = 1 + Sim.Rng.int rng !n in
      for b = blk to blk + n - 1 do
        written.(file).(b) <- true
      done;
      ops := Write (file, blk, n) :: !ops
    end
  done;
  List.rev !ops

let fill ~client ~k off = Helpers.pattern_byte ~seed:((client * 100) + k) off

let run_evicting_mix ~seed ~loss ~spike_prob =
  let net =
    {
      (Net.lossy Net.default_config loss) with
      Net.spike_prob;
      spike = ms 150;
    }
  in
  let t =
    T.create ~net ~seed ~clients:2 ~cache_pages:4 ~dup_cache_size:1
      ~rpc_timeout:(ms 100) (Helpers.config ())
  in
  let name client i = Printf.sprintf "c%d.%d" client i in
  (* The files are made on the server, not by CREATE: past a one-entry
     dup cache a replayed CREATE re-truncates its file, the volatile dup
     cache hole (ROADMAP), which this property is not about. *)
  T.run t (fun t ->
      let fs = t.T.server.Clusterfs.Machine.fs in
      for client = 0 to 1 do
        for i = 0 to 1 do
          Ufs.Iops.iput fs (Ufs.Fs.creat fs ("/" ^ name client i))
        done
      done);
  let ok = ref true in
  let expect = Hashtbl.create 64 in
  T.run_clients t (fun c ->
      let client = c.T.id in
      let files =
        Array.init 2 (fun i ->
            Option.get (Nfs.Client.lookup c.T.mount (name client i)))
      in
      List.iteri
        (fun k op ->
          match op with
          | Write (i, blk, n) ->
              let off = blk * bsize and len = n * bsize in
              let buf = Bytes.init len (fun j -> fill ~client ~k (off + j)) in
              Nfs.Client.write files.(i) ~off ~buf ~len;
              for b = blk to blk + n - 1 do
                Hashtbl.replace expect (client, i, b) k
              done
          | Read (i, blk) ->
              let k = Hashtbl.find expect (client, i, blk) in
              let buf = Bytes.create bsize in
              let off = blk * bsize in
              let n = Nfs.Client.read files.(i) ~off ~buf ~len:bsize in
              if n <> bsize then ok := false;
              Bytes.iteri
                (fun j ch ->
                  if ch <> fill ~client ~k (off + j) then ok := false)
                buf)
        (gen_ops ~seed ~client);
      Array.iter Nfs.Client.fsync files);
  (* the final read-back: the server's bytes are the model's *)
  for client = 0 to 1 do
    for i = 0 to 1 do
      let got =
        T.run t (fun t ->
            let fs = t.T.server.Clusterfs.Machine.fs in
            let ip = Ufs.Fs.namei fs ("/" ^ name client i) in
            let buf = Bytes.create ip.Ufs.Types.size in
            let n = Ufs.Fs.read fs ip ~off:0 ~buf ~len:ip.Ufs.Types.size in
            Ufs.Iops.iput fs ip;
            Bytes.sub buf 0 n)
      in
      Bytes.iteri
        (fun o ch ->
          let want =
            match Hashtbl.find_opt expect (client, i, o / bsize) with
            | Some k -> fill ~client ~k o
            | None -> '\000'
          in
          if ch <> want then ok := false)
        got;
      let blocks =
        Hashtbl.fold
          (fun (c, f, b) _ acc ->
            if c = client && f = i then max acc (b + 1) else acc)
          expect 0
      in
      if Bytes.length got <> blocks * bsize then ok := false
    done
  done;
  (* and the server's clean pages are its disk's bytes *)
  !ok
  && T.run t (fun t -> Helpers.pages_match_store t.T.server.Clusterfs.Machine.fs)

let prop_evicting_clients_match_model =
  Helpers.qtest ~count:10
    "two evicting clients, loss and spikes, dup cache of 1: reads match"
    QCheck.(triple (int_bound 10_000) (int_bound 30) (int_bound 10))
    (fun (seed, loss_pct, spike_pct) ->
      run_evicting_mix ~seed
        ~loss:(float_of_int loss_pct /. 100.)
        ~spike_prob:(float_of_int spike_pct /. 100.))

let suites =
  [
    ( "nfs.frames",
      [
        Alcotest.test_case "three rewrites during a WRITE: one copy" `Quick
          test_rewrites_copy_once;
        Alcotest.test_case "a resent frame is copied before a rewrite" `Quick
          test_resent_frame_not_rewritten;
        Alcotest.test_case "a resent frame is never recycled" `Quick
          test_resent_frame_not_recycled;
        Alcotest.test_case "a lent frame is not recycled on re-create" `Quick
          test_lent_frame_not_recycled;
        Alcotest.test_case "a reader keeps its evicted page's frame" `Quick
          test_reader_holds_evicted_page;
        Alcotest.test_case "a late read-ahead drops only its placeholders"
          `Quick test_late_readahead_after_recreate;
        prop_evicting_clients_match_model;
      ] );
  ]
