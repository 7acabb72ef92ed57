type value =
  | Int of int
  | Float of float
  | Summary of Stats.Summary.t
  | Hist of Stats.Hist.t

type source = {
  layer : string;
  instance : string;
  read : unit -> (string * value) list;
}

type t = {
  mutable sources : source list;  (* newest first *)
  keys : (string * string, int) Hashtbl.t;  (* (layer, instance) uses *)
}

let create () = { sources = []; keys = Hashtbl.create 16 }

let register t ~layer ?(instance = "-") read =
  (* several machines in one run may carry the same config name; keep
     every source, deterministically disambiguated in creation order *)
  let instance =
    match Hashtbl.find_opt t.keys (layer, instance) with
    | None ->
        Hashtbl.replace t.keys (layer, instance) 1;
        instance
    | Some n ->
        Hashtbl.replace t.keys (layer, instance) (n + 1);
        Printf.sprintf "%s#%d" instance (n + 1)
  in
  t.sources <- { layer; instance; read } :: t.sources

let snapshot t =
  List.rev_map (fun s -> (s.layer, s.instance, s.read ())) t.sources

let get t ~layer ?(instance = "-") name =
  let matches s = s.layer = layer && s.instance = instance in
  match List.find_opt matches (List.rev t.sources) with
  | None -> None
  | Some s -> List.assoc_opt name (s.read ())

(* ---------- export ---------- *)

(* 6 significant digits; nan/inf are not JSON, and no metric should
   produce them, but a corrupt value must not corrupt the whole file *)
let num f =
  if Float.is_finite f then Json.Num (float_of_string (Printf.sprintf "%.6g" f))
  else Json.Null

let int n = Json.Num (float_of_int n)

let value = function
  | Int n -> int n
  | Float f -> num f
  | Summary s ->
      let open Stats.Summary in
      Json.Obj
        [
          ("count", int (count s));
          ("mean", num (mean s));
          ("stddev", num (stddev s));
          ("min", num (min s));
          ("max", num (max s));
          ("total", num (total s));
          ("p50", num (percentile_of s 50.));
          ("p95", num (percentile_of s 95.));
          ("p99", num (percentile_of s 99.));
        ]
  | Hist h ->
      Json.Obj
        [
          ("count", int (Stats.Hist.count h));
          ( "buckets",
            Json.List
              (List.map
                 (fun (lo, hi, n) -> Json.List [ int lo; int hi; int n ])
                 (Stats.Hist.buckets h)) );
        ]

let to_json ?(meta = []) t =
  let source (layer, instance, kvs) =
    Json.Obj
      [
        ("layer", Json.Str layer);
        ("instance", Json.Str instance);
        ("metrics", Json.Obj (List.map (fun (k, v) -> (k, value v)) kvs));
      ]
  in
  Json.to_string
    (Json.Obj
       (List.map (fun (k, v) -> (k, Json.Str v)) meta
       @ [ ("sources", Json.List (List.map source (snapshot t))) ]))
  ^ "\n"
