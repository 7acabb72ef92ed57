type clock = Local.clock = { mutable entries : (string * Time.t) list }
(* a handful of phases per operation: an assoc list beats a table *)

let create () = { entries = [] }

let charge c phase d =
  if d > 0 then
    let rec bump = function
      | [] -> [ (phase, d) ]
      | (p, t) :: rest when p = phase -> (p, t + d) :: rest
      | kv :: rest -> kv :: bump rest
    in
    c.entries <- bump c.entries

let read c = List.sort (fun (a, _) (b, _) -> compare a b) c.entries
let find c phase = match List.assoc_opt phase c.entries with Some t -> t | None -> 0
let total c = List.fold_left (fun acc (_, t) -> acc + t) 0 c.entries
let merge_into ~dst src = List.iter (fun (p, t) -> charge dst p t) src.entries

let with_clock c f =
  match Local.self () with
  | None -> f ()
  | Some l ->
      let prev = l.clock in
      l.clock <- Some c;
      Fun.protect ~finally:(fun () -> l.clock <- prev) f

let charge_parts c ~rest ~parts total =
  let left =
    List.fold_left
      (fun left (phase, d) ->
        let d = min (max 0 d) left in
        charge c phase d;
        left - d)
      total parts
  in
  charge c rest left

let blocked ~rest ?(parts = []) ?name ?attrs ~start_us ~stop_us () =
  let d = stop_us - start_us in
  if d > 0 then
    match Local.self () with
    | None -> ()
    | Some l -> (
        Option.iter (fun c -> charge_parts c ~rest ~parts d) l.clock;
        match (name, l.span) with
        | Some name, Some parent ->
            Span.interval_under parent ~name ?attrs ~start_us ~stop_us ()
        | _ -> ())
