type clock = { mutable entries : (string * Time.t) list }

type attr = I of int | S of string | B of bool

type span = {
  trace_id : int;
  span_id : int;
  parent_id : int;
  name : string;
  track : string;
  start_us : Time.t;
  mutable stop_us : Time.t;
  mutable attrs : (string * attr) list;
  mutable kids : span list;
}

type t = {
  mutable clock : clock option;
  mutable span : span option;
  mutable slot : int option;
}

type _ Effect.t += Self : t Effect.t

let create () = { clock = None; span = None; slot = None }

(* Outside a spawned process nothing handles [Self]: there is then no
   record, and every reader treats that as "nothing installed". *)
let self () = try Some (Effect.perform Self) with Effect.Unhandled _ -> None

let slot () = match self () with Some l -> l.slot | None -> None

let with_slot v f =
  match self () with
  | None -> f ()
  | Some l ->
      let prev = l.slot in
      l.slot <- Some v;
      Fun.protect ~finally:(fun () -> l.slot <- prev) f
