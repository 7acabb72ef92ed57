type category = Sys | User

type label = { name : string; mutable total : Time.t }

type t = {
  engine : Engine.t;
  lock : Mutex.t;
  mutable sys : Time.t;
  mutable user : Time.t;
  mutable labels : label list;  (** one per distinct name, first seen first *)
  mutable keys : (string * label) list;
      (** every label string seen, matched by physical equality *)
}

let create engine =
  { engine; lock = Mutex.create engine "cpu"; sys = 0; user = 0; labels = []; keys = [] }

(* Callers pass string literals, so a label is nearly always the very
   string seen before: match it physically.  A string not seen before
   is compared by content once, then remembered under its own address. *)
let label_of t name =
  match List.assq name t.keys with
  | l -> l
  | exception Not_found ->
      let l =
        match List.find_opt (fun l -> String.equal l.name name) t.labels with
        | Some l -> l
        | None ->
            let l = { name; total = 0 } in
            t.labels <- t.labels @ [ l ];
            l
      in
      t.keys <- t.keys @ [ (name, l) ];
      l

let charge t ?(cat = Sys) ?(label = "other") d =
  if d < 0 then invalid_arg "Cpu.charge: negative duration";
  if d > 0 then begin
    Mutex.lock t.lock;
    (match Engine.sleep t.engine d with
    | () -> ()
    | exception e ->
        Mutex.unlock t.lock;
        raise e);
    (match cat with Sys -> t.sys <- t.sys + d | User -> t.user <- t.user + d);
    let l = label_of t label in
    l.total <- l.total + d;
    Mutex.unlock t.lock
  end

let sys_time t = t.sys
let user_time t = t.user

let by_label t =
  List.map (fun l -> (l.name, l.total)) t.labels
  |> List.sort (fun (a, x) (b, y) ->
         match Int.compare y x with 0 -> String.compare a b | c -> c)

let reset t =
  t.sys <- 0;
  t.user <- 0;
  t.labels <- [];
  t.keys <- []
