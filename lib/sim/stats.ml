(* The percentile of [values.(0 .. len-1)] over one sorted copy.
   [Float.compare] is the total order of polymorphic [compare] on floats
   (nan first), without its generic dispatch. *)
let percentile_of_prefix values len p =
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: p out of range";
  let values = Array.sub values 0 len in
  Array.sort Float.compare values;
  let rank = p /. 100. *. float_of_int (len - 1) in
  let lo = int_of_float (floor rank) and hi = int_of_float (ceil rank) in
  if lo = hi then values.(lo)
  else
    let frac = rank -. float_of_int lo in
    values.(lo) +. (frac *. (values.(hi) -. values.(lo)))

let percentile values p =
  if Array.length values = 0 then invalid_arg "Stats.percentile: empty";
  percentile_of_prefix values (Array.length values) p

module Summary = struct
  (* Percentiles need samples, not moments; [reservoir_cap] bounds the
     memory.  Decimation is deterministic: once the reservoir fills,
     keep every 2nd retained sample and double the stride — a uniformly
     spaced subsample of the stream, so long-run percentiles stay
     representative without any RNG. *)
  let reservoir_cap = 4096

  (* all floats, so OCaml stores them flat: updating a moment writes
     the float in place instead of boxing a fresh one *)
  type moments = {
    mutable mean : float;
    mutable m2 : float;
    mutable mn : float;
    mutable mx : float;
    mutable total : float;
  }

  type t = {
    mutable n : int;
    m : moments;
    mutable samples : float array;
    mutable slen : int;
    mutable stride : int;
    mutable skip : int;  (** stream samples to pass over before keeping one *)
  }

  let create () =
    {
      n = 0;
      m = { mean = 0.; m2 = 0.; mn = nan; mx = nan; total = 0. };
      samples = [||];
      slen = 0;
      stride = 1;
      skip = 0;
    }

  let[@inline] keep_sample t x =
    if t.skip > 0 then t.skip <- t.skip - 1
    else begin
      let cap = Array.length t.samples in
      if t.slen = cap then
        if cap < reservoir_cap then begin
          let bigger = Array.make (max 64 (min reservoir_cap (cap * 2))) 0. in
          Array.blit t.samples 0 bigger 0 t.slen;
          t.samples <- bigger
        end
        else begin
          let half = cap / 2 in
          for i = 0 to half - 1 do
            t.samples.(i) <- t.samples.(2 * i)
          done;
          t.slen <- half;
          t.stride <- t.stride * 2
        end;
      t.samples.(t.slen) <- x;
      t.slen <- t.slen + 1;
      t.skip <- t.stride - 1
    end

  (* inlined into both entries, so [x] stays an unboxed float: an int
     observation is converted here instead of boxed by every caller *)
  let[@inline] observe t x =
    let m = t.m in
    t.n <- t.n + 1;
    m.total <- m.total +. x;
    let delta = x -. m.mean in
    m.mean <- m.mean +. (delta /. float_of_int t.n);
    m.m2 <- m.m2 +. (delta *. (x -. m.mean));
    keep_sample t x;
    if t.n = 1 then begin
      m.mn <- x;
      m.mx <- x
    end
    else begin
      if x < m.mn then m.mn <- x;
      if x > m.mx then m.mx <- x
    end

  let add t x = observe t x
  let add_int t i = observe t (float_of_int i)
  let count t = t.n
  let mean t = if t.n = 0 then 0. else t.m.mean
  let variance t = if t.n < 2 then 0. else t.m.m2 /. float_of_int (t.n - 1)
  let stddev t = sqrt (variance t)

  (* like [mean], an empty summary reads 0., not nan: these values feed
     printed tables and the metrics JSON export, where nan is invalid *)
  let min t = if t.n = 0 then 0. else t.m.mn
  let max t = if t.n = 0 then 0. else t.m.mx
  let total t = t.m.total

  let percentile_of t p = if t.slen = 0 then 0. else percentile_of_prefix t.samples t.slen p
end

module Hist = struct
  (* bucket i holds values v with 2^(i-1) < v <= 2^i; bucket 0 holds 0
     and 1; the top bucket (62) holds everything above 2^61, up to
     [max_int] (2^62 itself overflows) *)
  type t = { counts : int array; mutable n : int }

  let nbuckets = 63

  let create () = { counts = Array.make nbuckets 0; n = 0 }

  let bucket_of v =
    if v <= 1 then 0
    else
      let rec loop i acc =
        if acc >= v || i = nbuckets - 1 then i else loop (i + 1) (acc * 2)
      in
      loop 1 2

  let add t v =
    if v < 0 then invalid_arg "Hist.add: negative value";
    let b = bucket_of v in
    t.counts.(b) <- t.counts.(b) + 1;
    t.n <- t.n + 1

  let count t = t.n

  let bounds i =
    if i = 0 then (0, 1)
    else if i = nbuckets - 1 then ((1 lsl (i - 1)) + 1, max_int)
    else ((1 lsl (i - 1)) + 1, 1 lsl i)

  let buckets t =
    let acc = ref [] in
    for i = nbuckets - 1 downto 0 do
      if t.counts.(i) > 0 then
        let lo, hi = bounds i in
        acc := (lo, hi, t.counts.(i)) :: !acc
    done;
    !acc

  let pp ppf t =
    List.iter
      (fun (lo, hi, n) -> Format.fprintf ppf "[%d..%d]: %d@." lo hi n)
      (buckets t)
end
