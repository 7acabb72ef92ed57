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

let buf_add_json_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let json_float f =
  (* nan/inf are not JSON; no metric should produce them, but a corrupt
     value must not corrupt the whole file *)
  if f <> f || f = infinity || f = neg_infinity then "null"
  else Printf.sprintf "%.6g" f

let buf_add_summary b s =
  Buffer.add_string b
    (Printf.sprintf
       "{\"count\":%d,\"mean\":%s,\"stddev\":%s,\"min\":%s,\"max\":%s,\"total\":%s,\"p50\":%s,\"p95\":%s,\"p99\":%s}"
       (Stats.Summary.count s)
       (json_float (Stats.Summary.mean s))
       (json_float (Stats.Summary.stddev s))
       (json_float (Stats.Summary.min s))
       (json_float (Stats.Summary.max s))
       (json_float (Stats.Summary.total s))
       (json_float (Stats.Summary.percentile_of s 50.))
       (json_float (Stats.Summary.percentile_of s 95.))
       (json_float (Stats.Summary.percentile_of s 99.)))

let buf_add_hist b h =
  Buffer.add_string b
    (Printf.sprintf "{\"count\":%d,\"buckets\":[" (Stats.Hist.count h));
  List.iteri
    (fun i (lo, hi, n) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "[%d,%d,%d]" lo hi n))
    (Stats.Hist.buckets h);
  Buffer.add_string b "]}"

let buf_add_value b = function
  | Int n -> Buffer.add_string b (string_of_int n)
  | Float f -> Buffer.add_string b (json_float f)
  | Summary s -> buf_add_summary b s
  | Hist h -> buf_add_hist b h

let to_json ?(meta = []) t =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n";
  List.iter
    (fun (k, v) ->
      buf_add_json_string b k;
      Buffer.add_string b ": ";
      buf_add_json_string b v;
      Buffer.add_string b ",\n")
    meta;
  Buffer.add_string b "\"sources\": [";
  List.iteri
    (fun i (layer, instance, kvs) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "\n  {\"layer\": ";
      buf_add_json_string b layer;
      Buffer.add_string b ", \"instance\": ";
      buf_add_json_string b instance;
      Buffer.add_string b ", \"metrics\": {";
      List.iteri
        (fun j (name, v) ->
          if j > 0 then Buffer.add_string b ", ";
          buf_add_json_string b name;
          Buffer.add_string b ": ";
          buf_add_value b v)
        kvs;
      Buffer.add_string b "}}")
    (snapshot t);
  Buffer.add_string b "\n]}\n";
  Buffer.contents b
