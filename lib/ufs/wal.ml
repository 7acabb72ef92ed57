open Types

let journaled (fs : fs) = fs.wal <> None

(* ---------- record codec ---------- *)

type record =
  | Frag_alloc of { frag : int; n : int }
  | Frag_free of { frag : int; n : int }
  | Inode_alloc of { inum : int; dir : bool }
  | Inode_free of { inum : int }
  | Inode_update of { inum : int; image : bytes }
  | Ind_set of { frag : int; index : int; value : int }
  | Ind_zero of { frag : int }
  | Dir_entry of { dinum : int; off : int; slot : bytes }
  | Cg_ndirs of { cgx : int; value : int }

let dir_entry_size = 64 (* = Dir.entry_size; Dir sits above this module *)

let tag_frag_alloc = 1
let tag_frag_free = 2
let tag_inode_alloc = 3
let tag_inode_free = 4
let tag_inode_update = 5
let tag_ind_set = 6
let tag_ind_zero = 7
let tag_dir_entry = 8
let tag_cg_ndirs = 9

let enc_frag_run tag ~frag ~n =
  let b = Bytes.make 6 '\000' in
  Codec.put_u8 b 0 tag;
  Codec.put_u32 b 1 frag;
  Codec.put_u8 b 5 n;
  b

let enc_inode_alloc ~inum ~dir =
  let b = Bytes.make 6 '\000' in
  Codec.put_u8 b 0 tag_inode_alloc;
  Codec.put_u32 b 1 inum;
  Codec.put_u8 b 5 (if dir then 1 else 0);
  b

let enc_inode_free ~inum =
  let b = Bytes.make 5 '\000' in
  Codec.put_u8 b 0 tag_inode_free;
  Codec.put_u32 b 1 inum;
  b

let enc_inode_update ~inum ~image =
  if Bytes.length image <> Layout.dinode_bytes then
    invalid_arg "Wal: bad inode image";
  let b = Bytes.make (5 + Layout.dinode_bytes) '\000' in
  Codec.put_u8 b 0 tag_inode_update;
  Codec.put_u32 b 1 inum;
  Bytes.blit image 0 b 5 Layout.dinode_bytes;
  b

let enc_ind_set ~frag ~index ~value =
  let b = Bytes.make 13 '\000' in
  Codec.put_u8 b 0 tag_ind_set;
  Codec.put_u32 b 1 frag;
  Codec.put_u32 b 5 index;
  Codec.put_u32 b 9 value;
  b

let enc_ind_zero ~frag =
  let b = Bytes.make 5 '\000' in
  Codec.put_u8 b 0 tag_ind_zero;
  Codec.put_u32 b 1 frag;
  b

let enc_dir_entry ~dinum ~off ~slot =
  if Bytes.length slot <> dir_entry_size then
    invalid_arg "Wal: bad directory slot";
  let b = Bytes.make (13 + dir_entry_size) '\000' in
  Codec.put_u8 b 0 tag_dir_entry;
  Codec.put_u32 b 1 dinum;
  Codec.put_u64 b 5 off;
  Bytes.blit slot 0 b 13 dir_entry_size;
  b

let enc_cg_ndirs ~cgx ~value =
  let b = Bytes.make 9 '\000' in
  Codec.put_u8 b 0 tag_cg_ndirs;
  Codec.put_u32 b 1 cgx;
  Codec.put_u32 b 5 value;
  b

let decode_record b =
  let tag = Codec.get_u8 b 0 in
  if tag = tag_frag_alloc then
    Frag_alloc { frag = Codec.get_u32 b 1; n = Codec.get_u8 b 5 }
  else if tag = tag_frag_free then
    Frag_free { frag = Codec.get_u32 b 1; n = Codec.get_u8 b 5 }
  else if tag = tag_inode_alloc then
    Inode_alloc { inum = Codec.get_u32 b 1; dir = Codec.get_u8 b 5 = 1 }
  else if tag = tag_inode_free then Inode_free { inum = Codec.get_u32 b 1 }
  else if tag = tag_inode_update then
    Inode_update
      { inum = Codec.get_u32 b 1; image = Bytes.sub b 5 Layout.dinode_bytes }
  else if tag = tag_ind_set then
    Ind_set
      {
        frag = Codec.get_u32 b 1;
        index = Codec.get_u32 b 5;
        value = Codec.get_u32 b 9;
      }
  else if tag = tag_ind_zero then Ind_zero { frag = Codec.get_u32 b 1 }
  else if tag = tag_dir_entry then
    Dir_entry
      {
        dinum = Codec.get_u32 b 1;
        off = Codec.get_u64 b 5;
        slot = Bytes.sub b 13 dir_entry_size;
      }
  else if tag = tag_cg_ndirs then
    Cg_ndirs { cgx = Codec.get_u32 b 1; value = Codec.get_u32 b 5 }
  else failwith (Printf.sprintf "Wal: unknown record tag %d" tag)

(* ---------- state helpers ---------- *)

let ref_tbl tbl key =
  Hashtbl.replace tbl key
    (1 + Option.value (Hashtbl.find_opt tbl key) ~default:0)

let unref_tbl tbl key =
  match Hashtbl.find_opt tbl key with
  | Some 1 -> Hashtbl.remove tbl key
  | Some n -> Hashtbl.replace tbl key (n - 1)
  | None -> ()

let mk engine j =
  {
    wj = j;
    w_lock = Sim.Mutex.create engine "wal-commit";
    w_ckpt_lock = Sim.Mutex.create engine "wal-ckpt";
    w_ops = Hashtbl.create 8;
    w_next_op = 1;
    w_pinned = Hashtbl.create 16;
    w_txn_pins = [];
    w_unstable = Hashtbl.create 16;
    w_active = Hashtbl.create 16;
    w_idle = Sim.Condition.create engine "wal-idle";
    w_stalled = false;
    w_resume = Sim.Condition.create engine "wal-resume";
    w_kick = (fun () -> ());
    w_push = (fun _ _ -> ());
    w_txns = 0;
    w_barrier_commits = 0;
    w_pin_commits = 0;
    w_ckpt_waits = 0;
    w_stall_commits = 0;
  }

let current_op (w : wal) =
  match Sim.Local.slot () with
  | Some id -> Hashtbl.find_opt w.w_ops id
  | None -> None

let in_op (fs : fs) =
  match fs.wal with None -> false | Some w -> current_op w <> None

(* ---------- commit ---------- *)

(* When the log runs low, ask the mount layer for an asynchronous
   checkpoint; committing threads cannot run one inline (they may hold
   locks the checkpoint's flush phase needs). *)
let maybe_kick (w : wal) =
  if Jrnl.free_bytes w.wj < Jrnl.capacity_bytes w.wj / 4 then w.w_kick ()

(* The commit core, not subject to the checkpoint quiesce: used by
   operation ends (the quiesce is *waiting* for those) and internal
   paths.  Pin release pairs with the record snapshot: records appended
   while the commit write is in flight belong to the next transaction,
   and so do their pins. *)
let commit_locked (w : wal) =
  let pins = w.w_txn_pins in
  w.w_txn_pins <- [];
  if Jrnl.pending w.wj then begin
    Jrnl.commit w.wj;
    w.w_txns <- w.w_txns + 1
  end;
  List.iter (fun f -> unref_tbl w.w_pinned f) pins

let commit_internal (w : wal) =
  if Jrnl.pending w.wj || w.w_txn_pins <> [] then begin
    Sim.Mutex.with_lock w.w_lock (fun () -> commit_locked w);
    maybe_kick w
  end

(* Public commit (fsync, sync): waits out a checkpoint quiesce first —
   committing between the checkpoint's cache flush and its head advance
   would let the head pass an entry whose in-place effects are only in
   memory. *)
let commit (fs : fs) =
  match fs.wal with
  | None -> ()
  | Some w ->
      if w.w_stalled then begin
        w.w_stall_commits <- w.w_stall_commits + 1;
        while w.w_stalled do
          Sim.Condition.wait w.w_resume
        done
      end;
      commit_internal w

(* ---------- operations ---------- *)

let op_end (w : wal) (op : wal_op) ~commit:do_commit =
  (* Move the op's records and the final images of its inodes into the
     open transaction.  Pure memory: the engine cannot preempt, so no
     commit can observe half of this operation. *)
  List.iter (fun r -> Jrnl.append w.wj r) (List.rev op.op_recs);
  List.iter
    (fun (inum, ip) ->
      let img = Bytes.create Layout.dinode_bytes in
      Dinode.encode (to_dinode ip) img 0;
      Jrnl.append w.wj (enc_inode_update ~inum ~image:img))
    (List.rev op.op_inodes);
  w.w_txn_pins <- op.op_pins @ w.w_txn_pins;
  (* Commit while the op still counts as open: a concurrent checkpoint
     must not advance the head past this entry before the flush phase
     that would write its in-place effects. *)
  if do_commit then commit_internal w;
  Hashtbl.remove w.w_ops op.op_id;
  List.iter (fun f -> unref_tbl w.w_unstable f) op.op_meta;
  List.iter (fun (inum, _) -> unref_tbl w.w_active inum) op.op_inodes;
  if Hashtbl.length w.w_ops = 0 then Sim.Condition.broadcast w.w_idle;
  (* records durable: the op's directory pages may now hit the disk *)
  if do_commit then
    List.iter (fun (ip, off) -> w.w_push ip off) (List.rev op.op_pushes)

let with_op (fs : fs) ?(commit = true) f =
  match fs.wal with
  | None -> f ()
  | Some w -> (
      match current_op w with
      | Some _ -> f () (* nested: the outer operation owns the commit *)
      | None ->
          if w.w_stalled then begin
            w.w_ckpt_waits <- w.w_ckpt_waits + 1;
            while w.w_stalled do
              Sim.Condition.wait w.w_resume
            done
          end;
          let id = w.w_next_op in
          w.w_next_op <- id + 1;
          let op =
            {
              op_id = id;
              op_recs = [];
              op_inodes = [];
              op_pins = [];
              op_meta = [];
              op_pushes = [];
            }
          in
          Hashtbl.replace w.w_ops id op;
          Sim.Local.with_slot id (fun () ->
              match f () with
              | v ->
                  op_end w op ~commit;
                  v
              | exception e ->
                  (* the op may have mutated metadata before failing
                     (ENOSPC mid-write): log what actually happened so
                     the journal stays consistent with memory *)
                  op_end w op ~commit;
                  raise e))

(* ---------- logging ---------- *)

let log (fs : fs) r =
  match fs.wal with
  | None -> ()
  | Some w -> (
      match current_op w with
      | Some op -> op.op_recs <- r :: op.op_recs
      | None -> Jrnl.append w.wj r)

let log_frag_alloc fs ~frag ~n =
  if journaled fs then log fs (enc_frag_run tag_frag_alloc ~frag ~n)

let log_frag_free (fs : fs) ~frag ~n =
  match fs.wal with
  | None -> ()
  | Some w ->
      let r = enc_frag_run tag_frag_free ~frag ~n in
      for i = 0 to n - 1 do
        ref_tbl w.w_pinned (frag + i)
      done;
      (match current_op w with
      | Some op ->
          op.op_recs <- r :: op.op_recs;
          for i = 0 to n - 1 do
            op.op_pins <- (frag + i) :: op.op_pins
          done
      | None ->
          Jrnl.append w.wj r;
          for i = 0 to n - 1 do
            w.w_txn_pins <- (frag + i) :: w.w_txn_pins
          done)

let log_inode_alloc fs ~inum ~dir =
  if journaled fs then log fs (enc_inode_alloc ~inum ~dir)

let log_inode_free fs ~inum =
  if journaled fs then log fs (enc_inode_free ~inum)

let log_ind_set fs ~frag ~index ~value =
  if journaled fs then log fs (enc_ind_set ~frag ~index ~value)

let log_ind_zero fs ~frag =
  if journaled fs then log fs (enc_ind_zero ~frag)

let log_dir_entry fs ~dinum ~off ~slot =
  if journaled fs then log fs (enc_dir_entry ~dinum ~off ~slot:(Bytes.copy slot))

let log_cg_ndirs fs ~cgx ~value =
  if journaled fs then log fs (enc_cg_ndirs ~cgx ~value)

let note (fs : fs) (ip : inode) =
  match fs.wal with
  | None -> ()
  | Some w -> (
      match current_op w with
      | Some op ->
          if not (List.mem_assoc ip.inum op.op_inodes) then begin
            op.op_inodes <- (ip.inum, ip) :: op.op_inodes;
            ref_tbl w.w_active ip.inum
          end
      | None ->
          (* no operation open: the caller's mutation stands alone, log
             the image immediately into the open transaction *)
          let img = Bytes.create Layout.dinode_bytes in
          Dinode.encode (to_dinode ip) img 0;
          Jrnl.append w.wj (enc_inode_update ~inum:ip.inum ~image:img))

let mark_meta (fs : fs) ~frag =
  match fs.wal with
  | None -> ()
  | Some w -> (
      match current_op w with
      | Some op ->
          if not (List.mem frag op.op_meta) then begin
            op.op_meta <- frag :: op.op_meta;
            ref_tbl w.w_unstable frag
          end
      | None -> ())

let defer_push (fs : fs) (ip : inode) ~off =
  match fs.wal with
  | None -> ()
  | Some w -> (
      match current_op w with
      | Some op -> op.op_pushes <- (ip, off) :: op.op_pushes
      | None -> w.w_push ip off)

(* ---------- queries used by the allocator and pageout ---------- *)

let pinned (fs : fs) frag =
  match fs.wal with None -> false | Some w -> Hashtbl.mem w.w_pinned frag

let span_pinned (fs : fs) ~frag ~n =
  match fs.wal with
  | None -> false
  | Some w ->
      if Hashtbl.length w.w_pinned = 0 then false
      else begin
        let hit = ref false in
        for i = 0 to n - 1 do
          if Hashtbl.mem w.w_pinned (frag + i) then hit := true
        done;
        !hit
      end

let unpin_commit (fs : fs) =
  match fs.wal with
  | None -> false
  | Some w ->
      if w.w_txn_pins = [] then false
      else begin
        w.w_pin_commits <- w.w_pin_commits + 1;
        commit_internal w;
        true
      end

let inode_active (fs : fs) inum =
  match fs.wal with None -> false | Some w -> Hashtbl.mem w.w_active inum

(* ---------- the metabuf write gate (invariant W1) ---------- *)

let write_gate (fs : fs) frag do_write =
  match fs.wal with
  | None ->
      do_write ();
      true
  | Some w ->
      if Hashtbl.mem w.w_unstable frag then false
      else begin
        (* Commit first (write-ahead), then write in place while still
           holding the commit lock: a checkpoint advancing the head
           between the two would orphan this block's log records. *)
        Sim.Mutex.with_lock w.w_lock (fun () ->
            if Jrnl.pending w.wj then begin
              w.w_barrier_commits <- w.w_barrier_commits + 1;
              commit_locked w
            end;
            do_write ());
        maybe_kick w;
        true
      end

(* ---------- checkpoint (invariant W2) ---------- *)

let checkpoint (fs : fs) ~flush ~write_meta =
  match fs.wal with
  | None -> ()
  | Some w ->
      Sim.Mutex.with_lock w.w_ckpt_lock (fun () ->
          w.w_stalled <- true;
          Fun.protect
            ~finally:(fun () ->
              w.w_stalled <- false;
              Sim.Condition.broadcast w.w_resume)
            (fun () ->
              (* quiesce: wait out every open operation, so the flush
                 below sees only stable blocks and complete pages *)
              while Hashtbl.length w.w_ops > 0 do
                Sim.Condition.wait w.w_idle
              done;
              flush ();
              Sim.Mutex.with_lock w.w_lock (fun () ->
                  commit_locked w;
                  write_meta ();
                  Jrnl.checkpoint w.wj)))

(* ---------- observability ---------- *)

let register_metrics (fs : fs) reg ~instance =
  match fs.wal with
  | None -> ()
  | Some w ->
      Jrnl.register_metrics w.wj reg ~instance;
      Sim.Metrics.register reg ~layer:"wal" ~instance (fun () ->
          [
            ("txns", Sim.Metrics.Int w.w_txns);
            ("barrier_commits", Sim.Metrics.Int w.w_barrier_commits);
            ("pin_commits", Sim.Metrics.Int w.w_pin_commits);
            ("ckpt_waits", Sim.Metrics.Int w.w_ckpt_waits);
            ("stall_commits", Sim.Metrics.Int w.w_stall_commits);
            ("open_ops", Sim.Metrics.Int (Hashtbl.length w.w_ops));
            ("pinned_frags", Sim.Metrics.Int (Hashtbl.length w.w_pinned));
          ])
