(* Page frames shared along the NFS data path: a client page, a server
   page and a disk chunk may all be one frame.  A frame dropped from
   the client cache goes back to the engine's pool only when nothing
   can touch it again, a frame another host may hold is copied before
   it is rewritten, and the disk never recycles or rewrites a chunk
   another host may hold.  The first cases pin the client's rules with
   a stand-in server whose timing the test scripts; the rest run
   against a real server. *)

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
   READ and WRITE over a private image of 8 KB block frames.  Each copy
   of each call is served by a process of its own after [hold call
   ~copy] ([copy] 0 is the first copy of its xid to arrive), or ignored
   when that is [None].  A call's effect happens when it is served: a
   WRITE reads its payload then, the way nfsd copies from a call it has
   dequeued, and drops the copy's holds on its frames once it has
   used it.  A held READ sees any truncation that overtook it.  A
   READ reply carries each whole block's frame itself, as
   [Ufs.Fs.readv] exports a page's frame, so a WRITE never changes a
   frame in place: it writes a copy. *)
let tap_server e ep ~hold =
  let blocks = Hashtbl.create 16 and size = ref 0 in
  let tap = { arrivals = ref 0; writes = ref [] } in
  let copies = Hashtbl.create 16 in
  let attr () = { Nfs.Proto.size = !size; is_dir = false } in
  let frame i =
    match Hashtbl.find_opt blocks i with
    | Some b -> b
    | None -> Bytes.make bsize '\000'
  in
  let serve xid (call : Nfs.Proto.call) : Nfs.Proto.reply =
    match call with
    | Nfs.Proto.Create _ ->
        Hashtbl.reset blocks;
        size := 0;
        Nfs.Proto.R_fh { fh = 7; attr = attr () }
    | Nfs.Proto.Getattr _ -> Nfs.Proto.R_attr (attr ())
    | Nfs.Proto.Read { off; len; _ } ->
        let n = max 0 (min len (!size - off)) in
        let segs =
          List.init ((n + bsize - 1) / bsize) (fun i ->
              let k = min bsize (n - (i * bsize)) in
              let b = frame ((off / bsize) + i) in
              ((if k = bsize then b else Bytes.sub b 0 k), 0, k))
        in
        Nfs.Proto.R_read { data = Sim.Iov.of_list segs; eof = off + n >= !size }
    | Nfs.Proto.Write { off; data; _ } ->
        let payload = Sim.Iov.to_bytes data in
        let len = Bytes.length payload in
        for i = off / bsize to (off + len - 1) / bsize do
          let b = Bytes.copy (frame i) in
          let lo = max off (i * bsize) and hi = min (off + len) ((i + 1) * bsize) in
          Bytes.blit payload (lo - off) b (lo - (i * bsize)) (hi - lo);
          Hashtbl.replace blocks i b
        done;
        size := max !size (off + len);
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
                    Sim.Iov.release (Sim.Engine.frames e)
                      (Nfs.Proto.call_frames call);
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
   still queued.  Returns the engine and every payload applied for
   block 0's first WRITE. *)
let late_duplicate_in ~after =
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
      after mount f;
      Sim.Engine.sleep e (ms 500));
  Sim.Engine.run e;
  let first = List.fold_left (fun _ (xid, _, _) -> xid) 0 !(tap.writes) in
  ( e,
    List.filter_map
      (fun (xid, _, data) -> if xid = first then Some data else None)
      !(tap.writes) )

let late_duplicate ~after = snd (late_duplicate_in ~after:(fun _ f -> after f))

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
     cache and evicts block 0.  Block 0 is a half block at EOF, so its
     page holds a private copy of the reply, a frame eviction could
     give back.  The writer's new page takes a zeroed frame; it must not
     be the one the reader is about to copy from.  The copy cost is made
     large so the two lanes interleave on the client CPU: the writer's
     syscall charge runs between the reader's lookup and its copy. *)
  let costs = { Ufs.Costs.default with Ufs.Costs.copy_per_kb = ms 1 } in
  let hold _ ~copy:_ = Some 0 in
  let e, mount, _tap = tap_mount ~cache_pages:1 ~costs ~hold () in
  let half = bsize / 2 in
  let got = Bytes.create half in
  Sim.Engine.spawn e (fun () ->
      let f = Nfs.Client.create mount "rd" in
      Nfs.Client.write f ~off:0 ~buf:(Bytes.make half 'A') ~len:half;
      Nfs.Client.fsync f;
      Nfs.Client.invalidate f;
      check_int "the fetch read the half block" half
        (Nfs.Client.read f ~off:0 ~buf:got ~len:half);
      let st = Nfs.Client.stats mount in
      let hits = st.Nfs.Client.cache_hits
      and evictions = st.Nfs.Client.evictions in
      Sim.Engine.spawn e (fun () ->
          Sim.Engine.sleep e (Sim.Time.us 100);
          Nfs.Client.write f ~off:bsize ~buf:(block 'W') ~len:bsize);
      Bytes.fill got 0 half '?';
      check_int "read length" half
        (Nfs.Client.read f ~off:0 ~buf:got ~len:half);
      check_int "the read was a cache hit" (hits + 1) st.Nfs.Client.cache_hits;
      check_int "its page was evicted before it returned" (evictions + 1)
        st.Nfs.Client.evictions);
  Sim.Engine.run e;
  check_bool "the reader copied the page's bytes" true
    (Bytes.equal got (Bytes.make half 'A'))

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
  let server_bytes = Hashtbl.create 4 in
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
      Hashtbl.replace server_bytes (name client i) got;
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
  (* every client page, all clean and idle by now, holds the server's
     bytes: a frame that one side recycled while the other still held
     it shows here *)
  Array.iter
    (fun (c : T.client) ->
      Nfs.Client.iter_pages c.T.mount (fun name off frame ->
          let got = Hashtbl.find server_bytes name in
          let n = min bsize (Bytes.length got - off) in
          if n > 0 && Bytes.sub frame 0 n <> Bytes.sub got off n then
            ok := false))
    t.T.clients;
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

(* ---------- frames shared across hosts ---------- *)

let server_fs (t : T.t) = t.T.server.Clusterfs.Machine.fs

(* Block [off] of [name] on the server's disk. *)
let disk_block (t : T.t) name ~off =
  T.run t (fun t ->
      let fs = server_fs t in
      let ip = Ufs.Fs.namei fs ("/" ^ name) in
      let b = Bytes.create bsize in
      ignore (Ufs.Fs.read fs ip ~off ~buf:b ~len:bsize);
      Ufs.Iops.iput fs ip;
      Bytes.to_string b)

(* The frame of the page at [off] of [name] in [mount]'s cache. *)
let cached_frame mount name ~off =
  let found = ref None in
  Nfs.Client.iter_pages mount (fun n o frame ->
      if n = name && o = off then found := Some frame);
  match !found with
  | Some frame -> frame
  | None -> Alcotest.fail "page not cached"

(* Push the server's cached pages of [name] to disk and drop them. *)
let cool_server (t : T.t) name =
  T.run t (fun t ->
      let fs = server_fs t in
      let ip = Ufs.Fs.namei fs ("/" ^ name) in
      Workload.Iobench.reset_file_state fs ip;
      Ufs.Iops.iput fs ip)

let test_removed_file_chunk_rewritten () =
  (* The server writes "x" locally; a client then reads block 0 cold:
     the server's page borrows the disk chunk and the reply carries it,
     so the client caches the chunk itself, which the export pins.  Then
     "x" is removed and a 1 KB metadata write lands in place on that
     block.  The chunk is pinned, so the write goes to a copy: the
     client keeps x's bytes, the disk has the new ones. *)
  let t = T.create ~clients:1 (Helpers.config ()) in
  let c = t.T.clients.(0) in
  T.run t (fun t ->
      let fs = server_fs t in
      let ip = Ufs.Fs.creat fs "/x" in
      Ufs.Fs.write fs ip ~off:0 ~buf:(block 'X') ~len:bsize;
      Ufs.Iops.iput fs ip);
  cool_server t "x";
  T.run_clients t (fun c ->
      let f = Option.get (Nfs.Client.lookup c.T.mount "x") in
      ignore (Nfs.Client.read f ~off:0 ~buf:(Bytes.create bsize) ~len:bsize));
  let frame = cached_frame c.T.mount "x" ~off:0 in
  let store = Disk.Blkdev.store (server_fs t).Ufs.Types.dev in
  let off =
    T.run t (fun t ->
        match Ufs.Fs.extent_map (server_fs t) "/x" with
        | (0, frag, _) :: _ -> Ufs.Layout.frag_to_byte frag
        | _ -> Alcotest.fail "block 0 not allocated")
  in
  let chunk = ref Bytes.empty in
  Disk.Store.iter_chunks (fun o c -> if o = off then chunk := c) store;
  check_bool "the client cached the disk chunk itself" true (!chunk == frame);
  let meta = String.make 1024 'M' in
  T.run t (fun t ->
      let fs = server_fs t in
      Ufs.Fs.unlink fs "/x";
      Disk.Blkdev.write_sync fs.Ufs.Types.dev ~sector:(off / 512)
        ~count:(1024 / 512) ~buf:(Bytes.of_string meta) ~buf_off:0);
  Alcotest.(check string) "the client's cached bytes are still x's"
    (page_of 'X') (Bytes.to_string frame);
  let got = Bytes.create bsize in
  Disk.Store.read store ~off ~len:bsize got 0;
  Alcotest.(check string) "the disk reads back the new bytes"
    (meta ^ String.make (bsize - 1024) 'X')
    (Bytes.to_string got)

let test_exported_page_rewritten () =
  (* Client 0 reads block 0 of "y", which the server wrote locally: the
     reply carries the server page's own frame.  An NFS WRITE from
     client 1, then a local write on the server, both change the block;
     client 0's frame keeps the bytes it was sent. *)
  let t = T.create ~clients:2 (Helpers.config ()) in
  T.run t (fun t ->
      let fs = server_fs t in
      let ip = Ufs.Fs.creat fs "/y" in
      Ufs.Fs.write fs ip ~off:0 ~buf:(Bytes.make (2 * bsize) 'A')
        ~len:(2 * bsize);
      Ufs.Fs.fsync fs ip;
      Ufs.Iops.iput fs ip);
  let c0 = t.T.clients.(0) and c1 = t.T.clients.(1) in
  T.run t (fun _ ->
      let f = Option.get (Nfs.Client.lookup c0.T.mount "y") in
      ignore (Nfs.Client.read f ~off:0 ~buf:(Bytes.create bsize) ~len:bsize));
  let frame = cached_frame c0.T.mount "y" ~off:0 in
  let server_page () =
    T.run t (fun t ->
        let fs = server_fs t in
        let ip = Ufs.Fs.namei fs "/y" in
        let p = Vm.Pool.lookup fs.Ufs.Types.pool (Ufs.Io.ident ip 0) in
        Ufs.Iops.iput fs ip;
        Option.map (fun (p : Vm.Page.t) -> p.Vm.Page.data) p)
  in
  check_bool "the reply carried the server page's frame" true
    (match server_page () with Some d -> d == frame | None -> false);
  T.run t (fun _ ->
      let f = Option.get (Nfs.Client.lookup c1.T.mount "y") in
      Nfs.Client.write f ~off:0 ~buf:(block 'N') ~len:bsize;
      Nfs.Client.fsync f);
  Alcotest.(check string) "an NFS WRITE leaves the exported frame alone"
    (page_of 'A') (Bytes.to_string frame);
  Alcotest.(check string) "and changes the server's copy" (page_of 'N')
    (disk_block t "y" ~off:0);
  T.run t (fun t ->
      let fs = server_fs t in
      let ip = Ufs.Fs.namei fs "/y" in
      Ufs.Fs.write fs ip ~off:100 ~buf:(Bytes.of_string "LOCAL") ~len:5;
      Ufs.Iops.iput fs ip);
  cool_server t "y";
  Alcotest.(check string) "a local write leaves it alone too" (page_of 'A')
    (Bytes.to_string frame);
  Alcotest.(check string) "and reaches the disk" "NLOCALN"
    (String.sub (disk_block t "y" ~off:0) 99 7)

(* A client mount whose calls reach a real server through a relay.  The
   relay passes each copy of each call on after [hold call ~copy]
   ([copy] 0 is the first copy of its xid), records every WRITE copy's
   payload bytes as it passes it on, newest first, and returns replies
   at once.  The RPC timeout is 100 ms. *)
let relay_mount ~hold =
  let server = Helpers.machine () in
  let e = server.Clusterfs.Machine.engine in
  let ccpu = Sim.Cpu.create e and rcpu = Sim.Cpu.create e in
  let front = Net.create e Net.default_config ~a_cpu:ccpu ~b_cpu:rcpu in
  let back =
    Net.create e Net.default_config ~a_cpu:rcpu
      ~b_cpu:server.Clusterfs.Machine.cpu
  in
  ignore
    (Nfs.Server.create e ~cpu:server.Clusterfs.Machine.cpu
       ~fs:server.Clusterfs.Machine.fs ~endpoints:[ Net.b_end back ] ());
  let passed = ref [] and copies = Hashtbl.create 16 in
  let forward ep msg = Net.send ep ~size:(Nfs.Proto.msg_size msg) msg in
  Sim.Engine.spawn e ~name:"relay.calls" (fun () ->
      while true do
        match Net.recv (Net.b_end front) with
        | Nfs.Proto.Call { xid; call; _ } as msg -> (
            let copy = Option.value ~default:0 (Hashtbl.find_opt copies xid) in
            Hashtbl.replace copies xid (copy + 1);
            match hold call ~copy with
            | None -> ()
            | Some d ->
                Sim.Engine.spawn e ~name:"relay.call" (fun () ->
                    Sim.Engine.sleep e d;
                    (match call with
                    | Nfs.Proto.Write { data; _ } ->
                        passed :=
                          (xid, Bytes.to_string (Sim.Iov.to_bytes data))
                          :: !passed
                    | _ -> ());
                    forward (Net.a_end back) msg))
        | Nfs.Proto.Reply _ -> assert false
      done);
  Sim.Engine.spawn e ~name:"relay.replies" (fun () ->
      while true do
        forward (Net.b_end front) (Net.recv (Net.a_end back))
      done);
  let rpc =
    Nfs.Rpc.create e ~cpu:ccpu ~ep:(Net.a_end front) ~client_id:0
      ~timeout:(ms 100) ()
  in
  (e, server, Nfs.Client.mount e ~cpu:ccpu ~rpc (), passed)

let test_late_duplicate_of_adopted_write () =
  (* The first copy of the first WRITE is held 1 s, so the client
     retransmits and the second copy is applied: the server adopts its
     frame as block 0's page and pushes it to disk.  The client
     rewrites block 0 (the server adopts that frame too and displaces
     the first from its page and its disk) and writes three new blocks,
     taking frames from the pool.  Only then does the held copy reach
     the server. *)
  let held = ref false in
  let hold (call : Nfs.Proto.call) ~copy =
    match call with
    | Nfs.Proto.Write _ when copy = 0 && not !held ->
        held := true;
        Some (Sim.Time.sec 1)
    | _ -> Some 0
  in
  let e, server, mount, passed = relay_mount ~hold in
  let fs = server.Clusterfs.Machine.fs in
  let push () =
    let ip = Ufs.Fs.namei fs "/dup" in
    Ufs.Fs.fsync fs ip;
    Ufs.Iops.iput fs ip
  in
  let rewritten_at = ref 0 in
  Sim.Engine.spawn e (fun () ->
      let f = Nfs.Client.create mount "dup" in
      Nfs.Client.write f ~off:0 ~buf:(block 'A') ~len:bsize;
      Nfs.Client.fsync f;
      push ();
      Nfs.Client.write f ~off:0 ~buf:(block 'B') ~len:bsize;
      Nfs.Client.fsync f;
      push ();
      Nfs.Client.write f ~off:bsize ~buf:(Bytes.make (3 * bsize) 'C')
        ~len:(3 * bsize);
      Nfs.Client.fsync f;
      rewritten_at := Sim.Engine.now e);
  Sim.Engine.run e;
  let xid = List.fold_left (fun _ (x, _) -> x) 0 !passed in
  let copies =
    List.filter_map (fun (x, data) -> if x = xid then Some data else None)
      !passed
  in
  check_bool "the rewrite finished before the held copy went on" true
    (!rewritten_at > 0 && !rewritten_at < Sim.Time.sec 1);
  Alcotest.(check (list string))
    "both copies carried the bytes the call was gathered with"
    [ page_of 'A'; page_of 'A' ] copies

(* ---------- the one-copy census ---------- *)

(* Every distinct frame in [frames], by physical identity. *)
let distinct frames =
  let by_content = Hashtbl.create 256 in
  List.iter
    (fun b ->
      let k = Bytes.to_string b in
      let same = Option.value ~default:[] (Hashtbl.find_opt by_content k) in
      if not (List.exists (fun x -> x == b) same) then
        Hashtbl.replace by_content k (b :: same))
    frames;
  Hashtbl.fold (fun _ l acc -> l @ acc) by_content []

let census_clients = 8
let census_servers = 2
let census_blocks = 32 (* 256 KB files *)

(* The 8 KB frames the fleet holds: client cache pages, server pages
   and disk chunks. *)
let held (t : T.t) =
  let acc = ref [] in
  Array.iter
    (fun (c : T.client) ->
      Array.iter
        (fun (m : T.mountpoint) ->
          Nfs.Client.iter_pages m.T.m_mount (fun _ _ frame ->
              acc := frame :: !acc))
        c.T.mounts)
    t.T.clients;
  Array.iter
    (fun (m : Clusterfs.Machine.t) ->
      Array.iter
        (fun (p : Vm.Page.t) -> acc := p.Vm.Page.data :: !acc)
        (Vm.Pool.frames m.Clusterfs.Machine.pool);
      Disk.Store.iter_chunks
        (fun _ chunk -> acc := chunk :: !acc)
        (Disk.Blkdev.store m.Clusterfs.Machine.dev))
    t.T.servers;
  !acc

(* At most one frame per data block beyond the servers' page frames,
   and none of them on the frame pool's free list. *)
let check_census (t : T.t) ~phase ~bound =
  let held = held t in
  let d = List.length (distinct held) in
  let pool_frames =
    Array.fold_left
      (fun acc (m : Clusterfs.Machine.t) ->
        acc + Array.length (Vm.Pool.frames m.Clusterfs.Machine.pool))
      0 t.T.servers
  in
  let limit = (census_clients * census_blocks) + pool_frames in
  if bound then
    check_bool
      (Printf.sprintf "%s: %d distinct frames, at most %d" phase d limit)
      true (d <= limit);
  let free = Sim.Frames.free_list (Sim.Engine.frames (T.engine t)) in
  check_bool
    (Printf.sprintf "%s: no held frame is on the free list" phase)
    false
    (List.exists (fun b -> List.exists (fun h -> h == b) held) free)

let census_file id = Printf.sprintf "census%d" id
let census_fill ~id ~ver blk = Char.chr (((id * 37) + (blk * 5) + ver) land 0xff)

let test_one_copy_census () =
  (* 8 clients x 2 servers on one switch, a 256 KB private file each:
     FSW, cool, FSR, then the servers overwrite every file locally
     while the clients still cache it. *)
  let t =
    T.create ~topology:T.Switched ~transport:Nfs.Rpc.Adaptive
      ~servers:census_servers ~clients:census_clients (Helpers.config ())
  in
  let mount (c : T.client) = c.T.mounts.(c.T.id mod census_servers).T.m_mount in
  let files = Array.make census_clients None in
  T.run_clients t (fun c ->
      let f = Nfs.Client.create (mount c) (census_file c.T.id) in
      files.(c.T.id) <- Some f;
      for b = 0 to census_blocks - 1 do
        Nfs.Client.write f ~off:(b * bsize)
          ~buf:(Bytes.make bsize (census_fill ~id:c.T.id ~ver:0 b))
          ~len:bsize
      done;
      Nfs.Client.fsync f);
  check_census t ~phase:"FSW" ~bound:true;
  let on_server id f =
    T.run t (fun t ->
        let fs = t.T.servers.(id mod census_servers).Clusterfs.Machine.fs in
        let ip = Ufs.Fs.namei fs ("/" ^ census_file id) in
        f fs ip;
        Ufs.Iops.iput fs ip)
  in
  Array.iteri
    (fun id f ->
      T.run t (fun _ -> Nfs.Client.invalidate (Option.get f));
      on_server id Workload.Iobench.reset_file_state)
    files;
  let ok = ref true in
  T.run_clients t (fun c ->
      let f = Option.get files.(c.T.id) in
      let buf = Bytes.create bsize in
      for b = 0 to census_blocks - 1 do
        ignore (Nfs.Client.read f ~off:(b * bsize) ~buf ~len:bsize);
        if buf <> Bytes.make bsize (census_fill ~id:c.T.id ~ver:0 b) then
          ok := false
      done);
  check_bool "FSR read back every block" true !ok;
  check_census t ~phase:"FSR" ~bound:true;
  Array.iteri
    (fun id _ ->
      on_server id (fun fs ip ->
          for b = 0 to census_blocks - 1 do
            Ufs.Fs.write fs ip ~off:(b * bsize)
              ~buf:(Bytes.make bsize (census_fill ~id ~ver:1 b))
              ~len:bsize
          done;
          Ufs.Fs.fsync fs ip))
    files;
  check_census t ~phase:"server overwrite" ~bound:false;
  Array.iter
    (fun (c : T.client) ->
      Nfs.Client.iter_pages (mount c) (fun _ off frame ->
          if frame <> Bytes.make bsize (census_fill ~id:c.T.id ~ver:0 (off / bsize))
          then ok := false))
    t.T.clients;
  check_bool "the clients' cached pages kept the bytes they read" true !ok

(* ---------- the rewrite phase ---------- *)

let rw_clients = 4
let rw_blocks = 64 (* 8 KB blocks per file, twice the client cache *)
let rw_ops = 240 (* 4 KB calls per client *)
let rw_fill ~client ~blk ~ver =
  Char.chr (((client * 53) + (blk * 7) + ver) land 0xff)

(* Fresh frames taken from the engine's pool while [f] runs. *)
let fresh_frames (t : T.t) f =
  let frames = Sim.Engine.frames (T.engine t) in
  let fresh () = Sim.Frames.taken frames - Sim.Frames.reused frames in
  let before = fresh () in
  f ();
  fresh () - before

let test_rewrite_census () =
  (* 4 clients over lossy adaptive links, a dup cache that evicts.  Each
     prewrites a 512 KB file, drops it from its cache, then runs a
     70/30 mix of 4 KB reads and 4 KB rewrites, each rewrite half of a
     page not written before, as the nfs-randrw benchmark does.  The old
     version of a rewritten block goes back to the pool once its last
     holder lets go, so the phase takes few fresh frames: frames that
     lost messages still hold, and the warm-up of the clients' caches. *)
  let net = Net.lossy Net.default_config 0.03 in
  let t =
    T.create ~net ~seed:5 ~transport:Nfs.Rpc.Adaptive ~dup_cache_size:4
      ~cache_pages:(rw_blocks / 2) ~clients:rw_clients (Helpers.config ())
  in
  let half = bsize / 2 in
  let nhalves = 2 * rw_blocks in
  let version = Array.make_matrix rw_clients nhalves 0 in
  let expect ~client h =
    Bytes.make half (rw_fill ~client ~blk:h ~ver:version.(client).(h))
  in
  let files = Array.make rw_clients None in
  let ok = ref true in
  let read_all () =
    T.run_clients t (fun c ->
        let f = Option.get files.(c.T.id) in
        Nfs.Client.invalidate f;
        let buf = Bytes.create half in
        for h = 0 to nhalves - 1 do
          ignore (Nfs.Client.read f ~off:(h * half) ~buf ~len:half);
          if buf <> expect ~client:c.T.id h then ok := false
        done)
  in
  T.run_clients t (fun c ->
      let f = Nfs.Client.create c.T.mount (Printf.sprintf "rw%d" c.T.id) in
      files.(c.T.id) <- Some f;
      for h = 0 to nhalves - 1 do
        Nfs.Client.write f ~off:(h * half) ~buf:(expect ~client:c.T.id h)
          ~len:half
      done;
      Nfs.Client.fsync f);
  read_all ();
  check_bool "prewrite: every block reads back" true !ok;
  check_census t ~phase:"prewrite" ~bound:false;
  let rewrites = ref 0 in
  let fresh =
    fresh_frames t (fun () ->
        T.run_clients t (fun c ->
            let id = c.T.id and f = Option.get files.(c.T.id) in
            let rng = Sim.Rng.create ~seed:(100 + id) in
            let pages = Array.init rw_blocks Fun.id in
            Sim.Rng.shuffle rng pages;
            let next = ref 0 in
            let buf = Bytes.create half in
            for i = 1 to rw_ops do
              if Sim.Rng.int rng 100 < 70 || !next = rw_blocks then begin
                let h = Sim.Rng.int rng nhalves in
                ignore (Nfs.Client.read f ~off:(h * half) ~buf ~len:half);
                if buf <> expect ~client:id h then ok := false
              end
              else begin
                let h = (2 * pages.(!next)) + Sim.Rng.int rng 2 in
                incr next;
                incr rewrites;
                version.(id).(h) <- i;
                Nfs.Client.write f ~off:(h * half) ~buf:(expect ~client:id h)
                  ~len:half
              end
            done;
            Nfs.Client.fsync f))
  in
  check_bool "rewrite: every read saw the model's bytes" true !ok;
  check_census t ~phase:"rewrite" ~bound:false;
  read_all ();
  check_bool "rewrite: every block reads back" true !ok;
  check_census t ~phase:"read-back" ~bound:false;
  check_bool
    (Printf.sprintf "%d rewrites took %d fresh frames, under one per four"
       !rewrites fresh)
    true
    (fresh < !rewrites / 4)

(* ---------- a message copy is a holder ---------- *)

let on_free_list e b =
  List.exists (fun x -> x == b) (Sim.Frames.free_list (Sim.Engine.frames e))

let test_message_copy_holds_frame () =
  (* Block 0's first WRITE copy is held past the reply to its
     retransmission; meanwhile writing block 1 evicts block 0 from the
     one-page cache.  The held copy keeps the frame off the free list
     until it is served; then nothing holds it. *)
  let frame = ref Bytes.empty and freed_early = ref true in
  let e, payloads =
    late_duplicate_in ~after:(fun mount f ->
        frame := cached_frame mount "dup" ~off:0;
        Nfs.Client.write f ~off:bsize ~buf:(block 'C') ~len:bsize;
        Nfs.Client.fsync f;
        freed_early := on_free_list (Nfs.Client.engine mount) !frame)
  in
  Alcotest.(check (list string))
    "both copies carry the bytes the call was gathered with"
    [ page_of 'A'; page_of 'A' ] payloads;
  check_bool "while the held copy is in flight, its frame is not free" false
    !freed_early;
  check_bool "once it is served and the page evicted, the frame is free" true
    (on_free_list e !frame)

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
        Alcotest.test_case "a removed file's pinned chunk is copied on write"
          `Quick test_removed_file_chunk_rewritten;
        Alcotest.test_case "an exported page is copied on write" `Quick
          test_exported_page_rewritten;
        Alcotest.test_case "a late duplicate of an adopted WRITE" `Quick
          test_late_duplicate_of_adopted_write;
        Alcotest.test_case "one host copy of each block, FSW and FSR" `Quick
          test_one_copy_census;
        Alcotest.test_case "rewrites give the old version back" `Quick
          test_rewrite_census;
        Alcotest.test_case "a message copy holds its frame" `Quick
          test_message_copy_holds_frame;
      ] );
  ]
