type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Bad of int * string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail ("expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some '"' -> Buffer.add_char b '"'; advance (); go ()
          | Some '\\' -> Buffer.add_char b '\\'; advance (); go ()
          | Some '/' -> Buffer.add_char b '/'; advance (); go ()
          | Some 'n' -> Buffer.add_char b '\n'; advance (); go ()
          | Some 't' -> Buffer.add_char b '\t'; advance (); go ()
          | Some 'r' -> Buffer.add_char b '\r'; advance (); go ()
          | Some 'b' -> Buffer.add_char b '\b'; advance (); go ()
          | Some 'f' -> Buffer.add_char b '\012'; advance (); go ()
          | Some 'u' ->
              advance ();
              if !pos + 4 > n then fail "bad \\u escape";
              let hex = String.sub s !pos 4 in
              let code =
                try int_of_string ("0x" ^ hex)
                with _ -> fail "bad \\u escape"
              in
              pos := !pos + 4;
              (* exports only escape control characters; encode the
                 code point as UTF-8 without surrogate handling *)
              if code < 0x80 then Buffer.add_char b (Char.chr code)
              else if code < 0x800 then begin
                Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
                Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
              end
              else begin
                Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
                Buffer.add_char b
                  (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
              end;
              go ()
          | _ -> fail "bad escape")
      | Some c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c when num_char c -> true | _ -> false) do
      advance ()
    done;
    if !pos = start then fail "expected number";
    let tok = String.sub s start (!pos - start) in
    (* OCaml's float parser is laxer than JSON: it accepts "01", "+1",
       "1." and ".5".  Enforce the JSON number grammar on the token. *)
    let grammar_ok =
      let len = String.length tok in
      let i = ref (if len > 0 && tok.[0] = '-' then 1 else 0) in
      let digit c = c >= '0' && c <= '9' in
      let digits () =
        let st = !i in
        while !i < len && digit tok.[!i] do
          incr i
        done;
        !i > st
      in
      let int_ok =
        if !i < len && tok.[!i] = '0' then begin
          incr i;
          true
        end
        else digits ()
      in
      let frac_ok =
        if !i < len && tok.[!i] = '.' then begin
          incr i;
          digits ()
        end
        else true
      in
      let exp_ok =
        if !i < len && (tok.[!i] = 'e' || tok.[!i] = 'E') then begin
          incr i;
          if !i < len && (tok.[!i] = '+' || tok.[!i] = '-') then incr i;
          digits ()
        end
        else true
      in
      int_ok && frac_ok && exp_ok && !i = len
    in
    if not grammar_ok then fail "bad number";
    match float_of_string_opt tok with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let members = ref [] in
          let rec go () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            members := (k, v) :: !members;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                go ()
            | Some '}' -> advance ()
            | _ -> fail "expected , or }"
          in
          go ();
          Obj (List.rev !members)
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let elems = ref [] in
          let rec go () =
            let v = parse_value () in
            elems := v :: !elems;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                go ()
            | Some ']' -> advance ()
            | _ -> fail "expected , or ]"
          in
          go ();
          List (List.rev !elems)
        end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad (at, msg) ->
      Error (Printf.sprintf "at offset %d: %s" at msg)

let member k = function
  | Obj kvs -> List.assoc_opt k kvs
  | _ -> None

let to_list = function List l -> l | _ -> []
let num = function Num f -> Some f | _ -> None
let str = function Str s -> Some s | _ -> None

(* ---------- writer ---------- *)

let number f =
  if not (Float.is_finite f) then invalid_arg "Json.to_string: non-finite Num"
  else if Float.is_integer f then Printf.sprintf "%.0f" f
  else
    (* every decimal of at most 15 significant digits survives a round
       trip through a double, so %.15g is the shortest when any such
       decimal is; otherwise 16 or 17 digits *)
    let rec go p =
      let s = Printf.sprintf "%.*g" p f in
      if p = 17 || float_of_string s = f then s else go (p + 1)
    in
    go 15

let add_string b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let is_obj = function Obj _ -> true | _ -> false

let to_string j =
  let b = Buffer.create 4096 in
  let iter_sep sep f l =
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_string b sep;
        f x)
      l
  in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool v -> Buffer.add_string b (string_of_bool v)
    | Num f -> Buffer.add_string b (number f)
    | Str s -> add_string b s
    | List (_ :: _ as l) when List.for_all is_obj l ->
        Buffer.add_string b "[\n";
        iter_sep ",\n" go l;
        Buffer.add_string b "\n]"
    | List l ->
        Buffer.add_char b '[';
        iter_sep ", " go l;
        Buffer.add_char b ']'
    | Obj kvs ->
        Buffer.add_char b '{';
        iter_sep ", "
          (fun (k, v) ->
            add_string b k;
            Buffer.add_string b ": ";
            go v)
          kvs;
        Buffer.add_char b '}'
  in
  go j;
  Buffer.contents b
