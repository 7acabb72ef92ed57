(* Model-based property testing: a random sequence of file system
   operations is applied both to the simulated UFS and to a trivially
   correct in-memory reference model; every read must agree, the final
   directory tree must agree, fsck must pass afterwards, and a fresh
   mount of the image must read every file back.

   This is the strongest correctness statement in the suite: whatever
   the clustering machinery, free-behind, write limits, reallocation
   and pageout do, the file system must remain indistinguishable from
   a map of strings. *)

(* ---------- the reference model ---------- *)

module Model = struct
  type t = {
    files : (string, Bytes.t) Hashtbl.t;
    mutable dirs : string list; (* besides "/" *)
  }

  let create () = { files = Hashtbl.create 32; dirs = [] }

  let write t path ~off ~data =
    let old = try Hashtbl.find t.files path with Not_found -> Bytes.empty in
    let newlen = max (Bytes.length old) (off + String.length data) in
    let b = Bytes.make newlen '\000' in
    Bytes.blit old 0 b 0 (Bytes.length old);
    Bytes.blit_string data 0 b off (String.length data);
    Hashtbl.replace t.files path b

  let read t path ~off ~len =
    match Hashtbl.find_opt t.files path with
    | None -> None
    | Some b ->
        if off >= Bytes.length b then Some ""
        else
          let n = max 0 (min len (Bytes.length b - off)) in
          Some (Bytes.sub_string b off n)

  let size t path =
    Option.map Bytes.length (Hashtbl.find_opt t.files path)

  let unlink t path = Hashtbl.remove t.files path

  let rename t src dst =
    match Hashtbl.find_opt t.files src with
    | Some b ->
        Hashtbl.remove t.files src;
        Hashtbl.replace t.files dst b
    | None -> ()
end

(* ---------- operation generation ---------- *)

type op =
  | Write of { file : int; off_kb : int; len : int; fill : char }
  | Read of { file : int; off_kb : int; len : int }
  | Truncate of { file : int }  (* creat over an existing name *)
  | Unlink of { file : int }
  | Rename of { file : int; target : int }
  | Fsync of { file : int }
  | SyncAll

let nfiles = 6

let gen_op =
  QCheck.Gen.(
    frequency
      [
        ( 5,
          map4
            (fun file off_kb len fill ->
              Write { file; off_kb; len; fill = Char.chr (97 + fill) })
            (int_bound (nfiles - 1))
            (int_bound 100) (int_range 1 30000) (int_bound 25) );
        ( 4,
          map3
            (fun file off_kb len -> Read { file; off_kb; len })
            (int_bound (nfiles - 1))
            (int_bound 110) (int_range 1 30000) );
        (1, map (fun file -> Truncate { file }) (int_bound (nfiles - 1)));
        (1, map (fun file -> Unlink { file }) (int_bound (nfiles - 1)));
        ( 1,
          map2
            (fun file target -> Rename { file; target })
            (int_bound (nfiles - 1))
            (int_bound (nfiles - 1)) );
        (1, map (fun file -> Fsync { file }) (int_bound (nfiles - 1)));
        (1, return SyncAll);
      ])

let arb_ops = QCheck.make ~print:(fun l -> Printf.sprintf "<%d ops>" (List.length l))
    QCheck.Gen.(list_size (int_range 5 60) gen_op)

(* ---------- execution against both systems ---------- *)

let path_of file = Printf.sprintf "/model/f%d" file

let apply_op fs (model : Model.t) op =
  match op with
  | Write { file; off_kb; len; fill } ->
      let path = path_of file in
      let off = off_kb * 1024 in
      let data = String.make len fill in
      let ip =
        match Ufs.Fs.namei fs path with
        | ip -> ip
        | exception Vfs.Errno.Error (Vfs.Errno.ENOENT, _) -> Ufs.Fs.creat fs path
      in
      Ufs.Fs.write fs ip ~off ~buf:(Bytes.of_string data) ~len;
      Ufs.Iops.iput fs ip;
      Model.write model path ~off ~data;
      true
  | Read { file; off_kb; len } -> (
      let path = path_of file in
      let off = off_kb * 1024 in
      match Model.read model path ~off ~len with
      | None -> (
          match Ufs.Fs.namei fs path with
          | ip ->
              Ufs.Iops.iput fs ip;
              false (* exists in fs but not in model *)
          | exception Vfs.Errno.Error (Vfs.Errno.ENOENT, _) -> true)
      | Some expected -> (
          match Ufs.Fs.namei fs path with
          | exception Vfs.Errno.Error (Vfs.Errno.ENOENT, _) -> false
          | ip ->
              let buf = Bytes.create len in
              let n = Ufs.Fs.read fs ip ~off ~buf ~len in
              Ufs.Iops.iput fs ip;
              n = String.length expected
              && Bytes.sub_string buf 0 n = expected))
  | Truncate { file } ->
      let path = path_of file in
      if Hashtbl.mem model.Model.files path then begin
        let ip = Ufs.Fs.creat fs path in
        Ufs.Iops.iput fs ip;
        Model.write model path ~off:0 ~data:"";
        Hashtbl.replace model.Model.files path Bytes.empty
      end;
      true
  | Unlink { file } -> (
      let path = path_of file in
      let in_model = Hashtbl.mem model.Model.files path in
      match Ufs.Fs.unlink fs path with
      | () ->
          Model.unlink model path;
          in_model
      | exception Vfs.Errno.Error (Vfs.Errno.ENOENT, _) -> not in_model)
  | Rename { file; target } ->
      let src = path_of file and dst = path_of target in
      if file <> target && Hashtbl.mem model.Model.files src then begin
        Ufs.Fs.rename fs src dst;
        Model.rename model src dst
      end;
      true
  | Fsync { file } -> (
      let path = path_of file in
      match Ufs.Fs.namei fs path with
      | ip ->
          Ufs.Fs.fsync fs ip;
          Ufs.Iops.iput fs ip;
          true
      | exception Vfs.Errno.Error (Vfs.Errno.ENOENT, _) -> true)
  | SyncAll ->
      Ufs.Fs.sync fs;
      true

let final_state_agrees fs (model : Model.t) =
  (* every model file exists with the right size and content *)
  Hashtbl.fold
    (fun path data acc ->
      acc
      &&
      match Ufs.Fs.namei fs path with
      | exception Vfs.Errno.Error (Vfs.Errno.ENOENT, _) -> false
      | ip ->
          let ok =
            ip.Ufs.Types.size = Bytes.length data
            &&
            let len = Bytes.length data in
            len = 0
            ||
            let buf = Bytes.create len in
            let n = Ufs.Fs.read fs ip ~off:0 ~buf ~len in
            n = len && Bytes.equal buf data
          in
          Ufs.Iops.iput fs ip;
          ok)
    model.Model.files true

(* One scenario on a fresh 2 MB machine: every read agrees with the
   model, the final files agree, every clean cached page equals the
   store, fsck passes on the unmounted image, and a fresh mount of that
   image reads every file back with the model's bytes — so a block
   absorbed into a delayed-write run still reached the platter. *)
let run_scenario ?features ops =
  let m = Helpers.machine ~memory_mb:2 ?features () in
  let model = Model.create () in
  let ok =
    Clusterfs.Machine.run m (fun m ->
        let fs = m.Clusterfs.Machine.fs in
        Ufs.Fs.mkdir fs "/model";
        let all_ops_ok = List.for_all (apply_op fs model) ops in
        let final_ok =
          all_ops_ok && final_state_agrees fs model
          && Helpers.pages_match_store fs
        in
        Ufs.Fs.unmount fs;
        final_ok)
  in
  ok
  && Ufs.Fsck.ok (Ufs.Fsck.check m.Clusterfs.Machine.dev)
  &&
  let m2 =
    Clusterfs.Machine.create_no_format m.Clusterfs.Machine.config
      (Clusterfs.Machine.snapshot_store m)
  in
  Clusterfs.Machine.run m2 (fun m2 ->
      final_state_agrees m2.Clusterfs.Machine.fs model)

let prop_model =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:40 ~name:"UFS behaves like a map of strings"
       arb_ops run_scenario)

(* the same property under the OLD (unclustered) configuration — the
   correctness of the fallback paths matters too *)
let prop_model_sunos41 =
  Helpers.to_alcotest
    (QCheck.Test.make ~count:20 ~name:"old UFS behaves like a map of strings"
       arb_ops
       (run_scenario ~features:Ufs.Types.features_sunos41))

(* and with every further-work feature switched on at once *)
let prop_model_all_features =
  let features =
    {
      Ufs.Types.features_clustered with
      Ufs.Types.bmap_cache = true;
      small_in_inode = true;
      getpage_hint = true;
      skip_bmap_if_no_holes = true;
    }
  in
  Helpers.to_alcotest
    (QCheck.Test.make ~count:20
       ~name:"UFS with all further-work features behaves like a map" arb_ops
       (run_scenario ~features))

let suites =
  [ ("model", [ prop_model; prop_model_sunos41; prop_model_all_features ]) ]
