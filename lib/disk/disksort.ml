type policy = Fifo | Elevator

(* The queue in arrival order: live requests are [q.(head)] to
   [q.(head + len - 1)].  Vacated slots are [None], so a served request
   and its payload are not kept reachable by the queue. *)
type t = {
  policy : policy;
  mutable q : Request.t option array;
  mutable head : int;
  mutable len : int;
}

let create policy = { policy; q = Array.make 16 None; head = 0; len = 0 }
let length t = t.len
let is_empty t = t.len = 0

let[@inline] get t i =
  match Array.unsafe_get t.q i with Some r -> r | None -> assert false

let enqueue t r =
  let cap = Array.length t.q in
  if t.head + t.len = cap then begin
    (* out of room at the tail: slide to the front, doubling when more
       than half full *)
    let q = if 2 * t.len > cap then Array.make (2 * cap) None else t.q in
    Array.blit t.q t.head q 0 t.len;
    if q == t.q then Array.fill q t.len (cap - t.len) None;
    t.q <- q;
    t.head <- 0
  end;
  t.q.(t.head + t.len) <- Some r;
  t.len <- t.len + 1

(* Remove and return the request at slot [i], shifting whichever side of
   it is shorter so arrival order is kept. *)
let remove_at t i =
  let r = get t i in
  let last = t.head + t.len - 1 in
  if i - t.head < last - i then begin
    Array.blit t.q t.head t.q (t.head + 1) (i - t.head);
    t.q.(t.head) <- None;
    t.head <- t.head + 1
  end
  else begin
    Array.blit t.q (i + 1) t.q i (last - i);
    t.q.(last) <- None
  end;
  t.len <- t.len - 1;
  r

(* Requests that may legally be served now are the arrival-order prefix
   up to (excluding) the first B_ORDER request — or just that ordered
   request when it is at the head of the queue.  The elevator scans that
   prefix once for the lowest sector at or ahead of the head and the
   lowest overall; ties go to the earlier arrival. *)
let next t ~head_sector =
  if t.len = 0 then None
  else begin
    let first = get t t.head in
    let pick =
      if first.Request.ordered || t.policy = Fifo then t.head
      else begin
        let stop = t.head + t.len in
        let ahead = ref (-1) and ahead_sector = ref max_int in
        let low = ref t.head and low_sector = ref first.Request.sector in
        let i = ref t.head in
        while !i < stop && not (get t !i).Request.ordered do
          let s = (get t !i).Request.sector in
          if s >= head_sector && s < !ahead_sector then begin
            ahead := !i;
            ahead_sector := s
          end;
          if s < !low_sector then begin
            low := !i;
            low_sector := s
          end;
          incr i
        done;
        if !ahead >= 0 then !ahead else !low
      end
    in
    Some (remove_at t pick)
  end

let eligible t =
  let stop = t.head + t.len in
  let rec prefix i =
    if i >= stop then []
    else
      let r = get t i in
      if r.Request.ordered then if i = t.head then [ r ] else []
      else r :: prefix (i + 1)
  in
  prefix t.head

let remove t r =
  let i = ref t.head in
  while get t !i != r do
    incr i
  done;
  ignore (remove_at t !i)

let absorb_contiguous t (r : Request.t) =
  let chain_lo = ref r.Request.sector
  and chain_hi = ref (Request.end_sector r) in
  let absorbed = ref [] in
  let progress = ref true in
  while !progress do
    progress := false;
    let cands = eligible t in
    let extend c =
      if c.Request.kind = r.Request.kind then
        if c.Request.sector = !chain_hi then begin
          chain_hi := Request.end_sector c;
          absorbed := c :: !absorbed;
          remove t c;
          progress := true
        end
        else if Request.end_sector c = !chain_lo then begin
          chain_lo := c.Request.sector;
          absorbed := c :: !absorbed;
          remove t c;
          progress := true
        end
    in
    List.iter extend cands
  done;
  List.sort (fun a b -> compare a.Request.sector b.Request.sector) !absorbed

let iter t f =
  for i = t.head to t.head + t.len - 1 do
    f (get t i)
  done
