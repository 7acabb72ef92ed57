(* The minimal JSON reader: it must faithfully read back the documents
   this codebase writes (metrics snapshots, Chrome traces) and reject
   malformed input with a located error rather than misparse. *)

module J = Sim.Json

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let ok s =
  match J.parse s with
  | Ok j -> j
  | Error e -> Alcotest.failf "%S should parse: %s" s e

let bad s =
  match J.parse s with
  | Ok _ -> Alcotest.failf "%S should not parse" s
  | Error _ -> ()

let test_scalars () =
  check_bool "null" true (ok "null" = J.Null);
  check_bool "true" true (ok "true" = J.Bool true);
  check_bool "false" true (ok " false " = J.Bool false);
  check_bool "int" true (ok "42" = J.Num 42.);
  check_bool "negative" true (ok "-17" = J.Num (-17.));
  check_bool "float" true (ok "1.5" = J.Num 1.5);
  check_bool "exponent" true (ok "1.1e6" = J.Num 1.1e6);
  check_bool "neg exponent" true (ok "25e-2" = J.Num 0.25);
  check_bool "string" true (ok "\"hi\"" = J.Str "hi");
  check_bool "empty list" true (ok "[]" = J.List []);
  check_bool "empty obj" true (ok "{}" = J.Obj [])

let test_escapes () =
  check_bool "quote+backslash" true
    (ok {|"a\"b\\c"|} = J.Str {|a"b\c|});
  check_bool "controls" true (ok {|"x\n\t\r\b\f"|} = J.Str "x\n\t\r\b\012");
  check_bool "slash" true (ok {|"a\/b"|} = J.Str "a/b");
  (* \u sequences decode to UTF-8 *)
  check_bool "ascii u" true (ok "\"\\u0041\"" = J.Str "A");
  check_bool "two-byte u" true (ok "\"\\u00e9\"" = J.Str "\xc3\xa9");
  check_bool "three-byte u" true (ok "\"\\u20ac\"" = J.Str "\xe2\x82\xac")

let test_structures () =
  let j = ok {|{"a": 1, "b": [true, null, "x"], "a": 2}|} in
  (* member returns the first of a duplicate name; document order kept *)
  check_bool "member a" true (J.member "a" j = Some (J.Num 1.));
  check_bool "member missing" true (J.member "zz" j = None);
  (match J.member "b" j with
  | Some l ->
      check_int "list len" 3 (List.length (J.to_list l));
      check_bool "list elems" true
        (J.to_list l = [ J.Bool true; J.Null; J.Str "x" ])
  | None -> Alcotest.fail "b missing");
  check_bool "num accessor" true (J.num (J.Num 3.) = Some 3.);
  check_bool "num of str" true (J.num (J.Str "3") = None);
  check_bool "str accessor" true (J.str (J.Str "s") = Some "s");
  check_bool "to_list of non-list" true (J.to_list J.Null = [])

let test_rejects () =
  bad "";
  bad "nul";
  bad "{";
  bad "[1,]";
  bad "{\"a\":}";
  bad "{\"a\" 1}";
  bad "\"unterminated";
  bad "\"bad \\q escape\"";
  bad "01";
  bad "1 2";
  (* trailing garbage *)
  bad "--3"

let test_error_offsets () =
  match J.parse "[1, 2, oops]" with
  | Ok _ -> Alcotest.fail "should not parse"
  | Error e ->
      check_bool "error mentions an offset" true
        (String.exists (fun c -> c >= '0' && c <= '9') e)

(* The reader exists to read what the repo writes: a metrics snapshot
   must round-trip values exactly. *)
let test_reads_metrics_export () =
  let reg = Sim.Metrics.create () in
  Sim.Metrics.register reg ~layer:"l1" ~instance:"i \"quoted\"" (fun () ->
      [ ("a", Sim.Metrics.Int 7); ("b", Sim.Metrics.Float 2.5) ]);
  let j = ok (Sim.Metrics.to_json reg ~meta:[ ("section", "t") ]) in
  check_bool "meta" true (J.member "section" j = Some (J.Str "t"));
  match J.member "sources" j with
  | Some (J.List [ src ]) ->
      check_bool "escaped instance" true
        (J.member "instance" src = Some (J.Str "i \"quoted\""));
      let m = Option.get (J.member "metrics" src) in
      check_bool "int metric" true (J.member "a" m = Some (J.Num 7.));
      check_bool "float metric" true (J.member "b" m = Some (J.Num 2.5))
  | _ -> Alcotest.fail "sources shape"

(* ---------- writer ---------- *)

(* Trees the writer must print so that the reader gets them back:
   strings full of what needs escaping (quotes, backslashes, control
   bytes) and what must pass through (bytes >= 0x80), numbers integral,
   tiny, huge and negative, nested lists and objects. *)
let gen_tree =
  let open QCheck.Gen in
  let char =
    frequency
      [
        (4, char_range 'a' 'z');
        (1, oneofl [ '"'; '\\'; '/'; ' ' ]);
        (1, map Char.chr (int_range 0 0x1f));
        (1, map Char.chr (int_range 0x80 0xff));
      ]
  in
  let str = string_size ~gen:char (int_range 0 12) in
  let finite =
    frequency
      [
        (2, map float_of_int (int_range (-1_000_000) 1_000_000));
        (1, map (fun e -> Float.ldexp 1. e) (int_range 53 62));
        (1, map (fun f -> f *. 1e-300) (float_range (-10.) 10.));
        (1, map (fun f -> f *. 1e300) (float_range (-10.) 10.));
        (2, float_range (-1e6) 1e6);
        (2, map Float.of_string (oneofl [ "0.1"; "-2.5e-7"; "1e22"; "5e-324" ]));
        (2, float >|= fun f -> if Float.is_finite f then f else 0.);
      ]
  in
  let scalar =
    frequency
      [
        (1, return J.Null);
        (1, map (fun b -> J.Bool b) bool);
        (3, map (fun f -> J.Num f) finite);
        (3, map (fun s -> J.Str s) str);
      ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 0 then scalar
         else
           frequency
             [
               (2, scalar);
               (1, map (fun l -> J.List l) (list_size (int_range 0 4) (self (n / 3))));
               ( 1,
                 map
                   (fun kvs -> J.Obj kvs)
                   (list_size (int_range 0 4) (pair str (self (n / 3)))) );
             ])

let prop_round_trip =
  Helpers.qtest ~count:500 "to_string reads back as the same tree"
    (QCheck.make ~print:J.to_string gen_tree)
    (fun j ->
      let text = J.to_string j in
      (* the reader takes raw control bytes; JSON does not *)
      String.for_all (fun c -> c = '\n' || Char.code c >= 0x20) text
      && J.parse text = Ok j)

let test_writer_layout () =
  let obj n = J.Obj [ ("n", J.Num n); ("s", J.Str "a\"b\n") ] in
  Alcotest.(check string)
    "array of objects: one per line"
    {|{"x": [
{"n": 1, "s": "a\"b\n"},
{"n": 2.5, "s": "a\"b\n"}
]}|}
    (J.to_string (J.Obj [ ("x", J.List [ obj 1.; obj 2.5 ]) ]));
  Alcotest.(check string)
    "other arrays inline" "[[1, 2], {}, null, true]"
    (J.to_string (J.List [ J.List [ J.Num 1.; J.Num 2. ]; J.Obj []; J.Null; J.Bool true ]));
  List.iter
    (fun (f, text) -> Alcotest.(check string) text text (J.to_string (J.Num f)))
    [ (42., "42"); (-3., "-3"); (1e20, "100000000000000000000"); (0.1, "0.1");
      (1. /. 3., "0.3333333333333333"); (2.5e-7, "2.5e-07") ];
  Alcotest.(check string) "control byte" {|"\u0001"|} (J.to_string (J.Str "\001"))

let test_writer_rejects_non_finite () =
  List.iter
    (fun f ->
      match J.to_string (J.List [ J.Num f ]) with
      | s -> Alcotest.failf "%h printed as %s" f s
      | exception Invalid_argument _ -> ())
    [ Float.nan; Float.infinity; Float.neg_infinity ]

let suites =
  [
    ( "json",
      [
        Alcotest.test_case "scalars" `Quick test_scalars;
        Alcotest.test_case "string escapes" `Quick test_escapes;
        Alcotest.test_case "objects and lists" `Quick test_structures;
        Alcotest.test_case "malformed input rejected" `Quick test_rejects;
        Alcotest.test_case "errors carry offsets" `Quick test_error_offsets;
        Alcotest.test_case "reads the metrics export" `Quick
          test_reads_metrics_export;
        prop_round_trip;
        Alcotest.test_case "writer layout and numbers" `Quick test_writer_layout;
        Alcotest.test_case "writer rejects nan and inf" `Quick
          test_writer_rejects_non_finite;
      ] );
  ]
