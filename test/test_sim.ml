(* Tests for the simulation substrate: time, iov, rng, stats, engine,
   condition variables, semaphores, mutexes, CPU, traces. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------- Time ---------- *)

let test_time_conversions () =
  check_int "ms" 2_000 (Sim.Time.ms 2);
  check_int "sec" 3_000_000 (Sim.Time.sec 3);
  check_int "of_ms_float rounds" 1_500 (Sim.Time.of_ms_float 1.5);
  check_int "of_sec_float" 250_000 (Sim.Time.of_sec_float 0.25);
  Alcotest.(check (float 1e-9)) "to_ms_float" 1.5 (Sim.Time.to_ms_float 1_500);
  Alcotest.(check string) "pp us" "999us" (Sim.Time.to_string 999);
  Alcotest.(check string) "pp ms" "1.000ms" (Sim.Time.to_string 1_000);
  Alcotest.(check string) "pp s" "2.500s" (Sim.Time.to_string 2_500_000)

(* ---------- Iov ---------- *)

let prop_iov_matches_flat =
  Helpers.qtest ~count:300 "iov: any segmentation blits like a flat buffer"
    QCheck.(
      triple
        (string_of_size (Gen.int_range 1 600))
        (small_list small_nat) (pair small_nat small_nat))
    (fun (s, cuts, (a, b)) ->
      let flat = Bytes.of_string s in
      let len = Bytes.length flat in
      let iov = Helpers.segmented flat cuts in
      let off = a mod (len + 1) in
      let n = b mod (len - off + 1) in
      let out = Bytes.make n '?' in
      Sim.Iov.blit_to_bytes iov off out 0 n;
      let src = Bytes.init n (fun i -> Char.chr (((i * 31) + 7) land 0xff)) in
      Sim.Iov.blit_from_bytes src 0 iov off n;
      let expect = Bytes.copy flat in
      Bytes.blit src 0 expect off n;
      Sim.Iov.length iov = len
      && Bytes.equal out (Bytes.sub flat off n)
      && Bytes.equal (Sim.Iov.to_bytes iov) expect
      && Bytes.equal
           (Sim.Iov.to_bytes (Sim.Iov.sub iov ~off ~len:n))
           (Bytes.sub expect off n))

let test_iov_sub_whole () =
  let a = Bytes.make 8 'a' and b = Bytes.make 8 'b' in
  let iov = Sim.Iov.of_list [ (a, 0, 8); (b, 0, 8) ] in
  check_int "length" 16 (Sim.Iov.length iov);
  check_bool "whole segment is its base" true
    (match Sim.Iov.whole iov ~off:8 ~len:8 with
    | Some x -> x == b
    | None -> false);
  check_bool "straddling window is not whole" true
    (Sim.Iov.whole iov ~off:4 ~len:8 = None);
  check_bool "window past the end is not whole" true
    (Sim.Iov.whole iov ~off:8 ~len:16 = None);
  let s = Sim.Iov.sub iov ~off:6 ~len:4 in
  Alcotest.(check string) "sub shares bytes" "aabb"
    (Bytes.to_string (Sim.Iov.to_bytes s));
  Sim.Iov.blit_from_bytes (Bytes.of_string "XY") 0 s 1 2;
  Alcotest.(check string) "write through sub lands in the bases" "aaaaaaaX"
    (Bytes.to_string a);
  Alcotest.(check string) "second base" "Ybbbbbbb" (Bytes.to_string b);
  Alcotest.check_raises "range checked"
    (Invalid_argument "Iov.sub: range out of bounds") (fun () ->
      ignore (Sim.Iov.sub iov ~off:10 ~len:7))

(* ---------- Rng ---------- *)

let test_rng_determinism () =
  let a = Sim.Rng.create ~seed:7 and b = Sim.Rng.create ~seed:7 in
  for _ = 1 to 100 do
    check_int "same stream" (Sim.Rng.int a 1000) (Sim.Rng.int b 1000)
  done;
  let c = Sim.Rng.create ~seed:8 in
  let diff = ref false in
  for _ = 1 to 20 do
    if Sim.Rng.int a 1000 <> Sim.Rng.int c 1000 then diff := true
  done;
  check_bool "different seeds differ" true !diff

let test_rng_shuffle () =
  let rng = Sim.Rng.create ~seed:3 in
  let a = Array.init 50 Fun.id in
  Sim.Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "multiset preserved" (Array.init 50 Fun.id) sorted

let test_rng_exponential () =
  let rng = Sim.Rng.create ~seed:4 in
  let sum = ref 0. in
  let n = 5000 in
  for _ = 1 to n do
    let v = Sim.Rng.exponential rng ~mean:10. in
    check_bool "positive" true (v > 0.);
    sum := !sum +. v
  done;
  let mean = !sum /. float_of_int n in
  check_bool
    (Printf.sprintf "mean ~10 (got %.2f)" mean)
    true
    (mean > 9. && mean < 11.)

(* ---------- Stats ---------- *)

let test_summary () =
  let s = Sim.Stats.Summary.create () in
  check_int "empty count" 0 (Sim.Stats.Summary.count s);
  Alcotest.(check (float 0.)) "empty mean" 0. (Sim.Stats.Summary.mean s);
  List.iter (Sim.Stats.Summary.add s) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  Alcotest.(check (float 1e-9)) "mean" 5. (Sim.Stats.Summary.mean s);
  Alcotest.(check (float 1e-6)) "stddev (sample)" 2.13809
    (Sim.Stats.Summary.stddev s);
  Alcotest.(check (float 0.)) "min" 2. (Sim.Stats.Summary.min s);
  Alcotest.(check (float 0.)) "max" 9. (Sim.Stats.Summary.max s);
  Alcotest.(check (float 0.)) "total" 40. (Sim.Stats.Summary.total s)

(* The moments as the summary computed them when they lived in a mixed
   record, each float boxed: the flat float record must give the same
   bits. *)
type boxed = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float;
  mutable mn : float;
  mutable mx : float;
  mutable total : float;
}

let boxed_moments xs =
  let b = { n = 0; mean = 0.; m2 = 0.; mn = nan; mx = nan; total = 0. } in
  List.iter
    (fun x ->
      b.n <- b.n + 1;
      b.total <- b.total +. x;
      let delta = x -. b.mean in
      b.mean <- b.mean +. (delta /. float_of_int b.n);
      b.m2 <- b.m2 +. (delta *. (x -. b.mean));
      if b.n = 1 then begin
        b.mn <- x;
        b.mx <- x
      end
      else begin
        if x < b.mn then b.mn <- x;
        if x > b.mx then b.mx <- x
      end)
    xs;
  b

let prop_summary_moments_bit_identical =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 22 |])
    (QCheck.Test.make ~count:300 ~name:"stats summary moments bit-identical"
       QCheck.(list_of_size (Gen.int_range 1 300) (float_range (-1e9) 1e9))
       (fun xs ->
         let s = Sim.Stats.Summary.create () in
         List.iter (Sim.Stats.Summary.add s) xs;
         let b = boxed_moments xs in
         let same x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
         let var = if b.n < 2 then 0. else b.m2 /. float_of_int (b.n - 1) in
         Sim.Stats.Summary.count s = b.n
         && same (Sim.Stats.Summary.mean s) b.mean
         && same (Sim.Stats.Summary.variance s) var
         && same (Sim.Stats.Summary.min s) b.mn
         && same (Sim.Stats.Summary.max s) b.mx
         && same (Sim.Stats.Summary.total s) b.total))

let test_percentile () =
  let values () = [| 15.; 20.; 35.; 40.; 50. |] in
  Alcotest.(check (float 1e-9)) "p0" 15. (Sim.Stats.percentile (values ()) 0.);
  Alcotest.(check (float 1e-9)) "p100" 50. (Sim.Stats.percentile (values ()) 100.);
  Alcotest.(check (float 1e-9)) "p50" 35. (Sim.Stats.percentile (values ()) 50.);
  Alcotest.check_raises "empty raises"
    (Invalid_argument "Stats.percentile: empty") (fun () ->
      ignore (Sim.Stats.percentile [||] 50.))

let test_percentile_does_not_mutate () =
  let values = [| 50.; 15.; 40.; 20.; 35. |] in
  ignore (Sim.Stats.percentile values 90.);
  Alcotest.(check (array (float 0.)))
    "caller's array untouched"
    [| 50.; 15.; 40.; 20.; 35. |]
    values

let test_summary_empty_min_max () =
  (* empty summaries land in tables and the metrics JSON: they must
     yield 0 like mean, never the nan of a fold over no samples *)
  let s = Sim.Stats.Summary.create () in
  Alcotest.(check (float 0.)) "empty min" 0. (Sim.Stats.Summary.min s);
  Alcotest.(check (float 0.)) "empty max" 0. (Sim.Stats.Summary.max s);
  check_bool "min not nan" false (Float.is_nan (Sim.Stats.Summary.min s));
  check_bool "max not nan" false (Float.is_nan (Sim.Stats.Summary.max s));
  Sim.Stats.Summary.add s (-3.);
  Alcotest.(check (float 0.)) "min after add" (-3.) (Sim.Stats.Summary.min s);
  Alcotest.(check (float 0.)) "max after add" (-3.) (Sim.Stats.Summary.max s)

let test_hist () =
  let h = Sim.Stats.Hist.create () in
  List.iter (Sim.Stats.Hist.add h) [ 0; 1; 2; 3; 900 ];
  check_int "count" 5 (Sim.Stats.Hist.count h);
  let buckets = Sim.Stats.Hist.buckets h in
  check_bool "0..1 bucket holds two" true
    (List.exists (fun (lo, hi, n) -> lo = 0 && hi = 1 && n = 2) buckets);
  check_bool "900 lands in 513..1024" true
    (List.exists (fun (lo, hi, n) -> lo = 513 && hi = 1024 && n = 1) buckets)

(* values past 2^61 have no power-of-two upper bound below max_int: they
   all land in the top bucket *)
let test_hist_top_bucket () =
  let h = Sim.Stats.Hist.create () in
  List.iter (Sim.Stats.Hist.add h) [ 1 lsl 61; (1 lsl 61) + 1; max_int ];
  Alcotest.(check (list (triple int int int)))
    "2^61 below, the rest in the top bucket"
    [ ((1 lsl 60) + 1, 1 lsl 61, 1); ((1 lsl 61) + 1, max_int, 2) ]
    (Sim.Stats.Hist.buckets h)

(* ---------- Engine ---------- *)

let test_engine_ordering () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  Sim.Engine.schedule e ~delay:30 (fun () -> log := 3 :: !log);
  Sim.Engine.schedule e ~delay:10 (fun () -> log := 1 :: !log);
  Sim.Engine.schedule e ~delay:20 (fun () -> log := 2 :: !log);
  Sim.Engine.run e;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log);
  check_int "clock at last event" 30 (Sim.Engine.now e)

let test_engine_fifo_same_time () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Sim.Engine.schedule e ~delay:10 (fun () -> log := i :: !log)
  done;
  Sim.Engine.run e;
  Alcotest.(check (list int)) "FIFO tie-break" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_sleep () =
  let e = Sim.Engine.create () in
  let t_mid = ref 0 and t_end = ref 0 in
  Sim.Engine.spawn e (fun () ->
      Sim.Engine.sleep e 100;
      t_mid := Sim.Engine.now e;
      Sim.Engine.sleep e 50;
      t_end := Sim.Engine.now e);
  Sim.Engine.run e;
  check_int "first sleep" 100 !t_mid;
  check_int "second sleep" 150 !t_end

let test_engine_run_for () =
  let e = Sim.Engine.create () in
  let fired = ref false in
  Sim.Engine.schedule e ~delay:100 (fun () -> fired := true);
  Sim.Engine.run_for e 50;
  check_bool "not yet" false !fired;
  check_int "clock advanced to stop" 50 (Sim.Engine.now e);
  Sim.Engine.run_for e 50;
  check_bool "fired at 100" true !fired

let test_engine_suspend_resume () =
  let e = Sim.Engine.create () in
  let resume = ref (fun () -> ()) in
  let state = ref "init" in
  Sim.Engine.spawn e (fun () ->
      Sim.Engine.suspend e ~register:(fun r -> resume := r);
      state := "resumed");
  Sim.Engine.run e;
  Alcotest.(check string) "parked" "init" !state;
  check_int "one blocked" 1 (Sim.Engine.live_processes e);
  !resume ();
  Sim.Engine.run e;
  Alcotest.(check string) "resumed" "resumed" !state;
  check_int "none blocked" 0 (Sim.Engine.live_processes e)

let test_engine_double_resume_raises () =
  let e = Sim.Engine.create () in
  let resume = ref (fun () -> ()) in
  Sim.Engine.spawn e (fun () ->
      Sim.Engine.suspend e ~register:(fun r -> resume := r));
  Sim.Engine.run e;
  !resume ();
  Sim.Engine.run e;
  Alcotest.check_raises "second resume"
    (Invalid_argument "Engine: process resumed twice") (fun () -> !resume ())

(* A process reuses one continuation cell across suspensions, so a
   handle kept from an earlier suspension must still be refused — also
   while the process is parked again and a fresh handle is live. *)
let test_engine_stale_resume_while_parked () =
  let e = Sim.Engine.create () in
  let first = ref ignore and second = ref ignore in
  let steps = ref [] in
  Sim.Engine.spawn e (fun () ->
      Sim.Engine.suspend e ~register:(fun r -> first := r);
      steps := "one" :: !steps;
      Sim.Engine.suspend e ~register:(fun r -> second := r);
      steps := "two" :: !steps);
  Sim.Engine.run e;
  !first ();
  Sim.Engine.run e;
  check_int "parked again" 1 (Sim.Engine.live_processes e);
  Alcotest.check_raises "stale handle"
    (Invalid_argument "Engine: process resumed twice") (fun () -> !first ());
  Sim.Engine.run e;
  Alcotest.(check (list string)) "stale handle moved nothing" [ "one" ] !steps;
  check_int "still parked" 1 (Sim.Engine.live_processes e);
  !second ();
  Sim.Engine.run e;
  Alcotest.(check (list string)) "fresh handle resumes" [ "two"; "one" ] !steps;
  check_int "done" 0 (Sim.Engine.live_processes e)

let test_engine_check_quiescent () =
  let e = Sim.Engine.create () in
  Sim.Engine.spawn e (fun () ->
      Sim.Engine.suspend e ~register:(fun _ -> ()));
  Sim.Engine.run e;
  check_bool "raises Deadlock" true
    (try
       Sim.Engine.check_quiescent e;
       false
     with Sim.Engine.Deadlock _ -> true)

let test_engine_process_exception () =
  let e = Sim.Engine.create () in
  Sim.Engine.spawn e ~name:"boom" (fun () -> failwith "kaboom");
  check_bool "propagates as Failure" true
    (try
       Sim.Engine.run e;
       false
     with Failure msg ->
       (* the message names the process *)
       String.length msg > 0 && String.sub msg 0 12 = "process boom")

let test_engine_cancellable_timer () =
  let e = Sim.Engine.create () in
  let fired = ref [] in
  let note i () = fired := i :: !fired in
  let t1 = Sim.Engine.schedule_cancellable e ~delay:10 (note 1) in
  let t2 = Sim.Engine.schedule_cancellable e ~delay:20 (note 2) in
  Alcotest.(check bool) "live before cancel" false (Sim.Engine.cancelled t1);
  Sim.Engine.cancel t1;
  Sim.Engine.cancel t1 (* idempotent *);
  Alcotest.(check bool) "cancelled" true (Sim.Engine.cancelled t1);
  Sim.Engine.run e;
  Alcotest.(check (list int)) "only the live timer fired" [ 2 ] !fired;
  Alcotest.(check bool) "fired reads as cancelled" true
    (Sim.Engine.cancelled t2);
  Sim.Engine.cancel t2 (* cancelling after firing is a no-op *);
  (* cancelling mid-run must release the slot without disturbing later
     events at the same instant *)
  let t3 = Sim.Engine.schedule_cancellable e ~delay:5 (note 3) in
  Sim.Engine.schedule e ~delay:5 (fun () -> Sim.Engine.cancel t3);
  Sim.Engine.schedule e ~delay:5 (note 4);
  Sim.Engine.run e;
  Alcotest.(check (list int)) "t3 fired before its canceller" [ 4; 3; 2 ]
    !fired

(* Random event programs against a reference model.  Each event has a
   delay (often 0) and children it schedules when it runs.  Each process
   sleeps a list of delays (often 0 or 1, sometimes long) and logs after
   every sleep.  A program is a list of slices: schedule the slice's
   roots, spawn its processes, then [run_for] its length; then [run]
   drains the rest.  The reference keeps one list sorted by (time, seq),
   with a seq drawn by every [schedule]; a spawn is a delay-0 event, and
   a sleep is a delayed wake-up that re-schedules the process at delay
   0.  The engine must dispatch the same events at the same instants —
   whether or not it elides a sleep's round trip — and its counters
   must count every pending and dispatched event of the model. *)
type ev = { id : int; delay : int; kids : ev list }
type proc = { pid : int; sleeps : int list }

let gen_program =
  let open QCheck.Gen in
  let next = ref 0 in
  let fresh () =
    incr next;
    !next
  in
  let delay = frequency [ (3, return 0); (2, int_range 1 6) ] in
  let tree =
    sized_size (int_bound 24)
    @@ fix (fun self n ->
           map2
             (fun delay kids -> { id = fresh (); delay; kids })
             delay
             (if n = 0 then return []
              else list_size (int_bound 3) (self (n / 3))))
  in
  let nap =
    frequency
      [ (3, return 0); (3, return 1); (2, int_range 2 6); (1, int_range 10 40) ]
  in
  let proc = map (fun sleeps -> { pid = fresh (); sleeps }) (list_size (int_bound 6) nap) in
  list_size (int_range 1 4)
    (triple (int_bound 8) (list_size (int_bound 4) tree) (list_size (int_bound 3) proc))

let print_program slices =
  let rec ev e =
    Printf.sprintf "%d@+%d[%s]" e.id e.delay (String.concat " " (List.map ev e.kids))
  in
  let proc p =
    Printf.sprintf "p%d sleeps [%s]" p.pid
      (String.concat ";" (List.map string_of_int p.sleeps))
  in
  String.concat " | "
    (List.map
       (fun (len, roots, procs) ->
         Printf.sprintf "run_for %d: %s" len
           (String.concat " " (List.map ev roots @ List.map proc procs)))
       slices)

let reference_dispatch slices =
  let now = ref 0 and seq = ref 0 and q = ref [] and log = ref [] in
  let hwm = ref 0 and dispatched = ref 0 in
  let schedule delay act =
    incr seq;
    q := List.merge (fun (a, _) (b, _) -> compare a b) !q [ ((!now + delay, !seq), act) ];
    hwm := max !hwm (List.length !q)
  in
  let rec event ev () =
    log := (ev.id, !now) :: !log;
    List.iter (fun k -> schedule k.delay (event k)) ev.kids
  in
  let rec proc pid = function
    | [] -> ()
    | 0 :: rest ->
        log := (pid, !now) :: !log;
        proc pid rest
    | d :: rest ->
        schedule d (fun () ->
            schedule 0 (fun () ->
                log := (pid, !now) :: !log;
                proc pid rest))
  in
  let rec drain stop =
    match !q with
    | ((at, _), act) :: rest when at <= stop ->
        q := rest;
        now := at;
        incr dispatched;
        act ();
        drain stop
    | _ -> ()
  in
  List.iter
    (fun (len, roots, procs) ->
      List.iter (fun ev -> schedule ev.delay (event ev)) roots;
      List.iter (fun p -> schedule 0 (fun () -> proc p.pid p.sleeps)) procs;
      let stop = !now + len in
      drain stop;
      now := stop)
    slices;
  drain max_int;
  (List.rev !log, !hwm, !dispatched)

let engine_dispatch slices =
  let e = Sim.Engine.create () and log = ref [] in
  let rec schedule ev =
    Sim.Engine.schedule e ~delay:ev.delay (fun () ->
        log := (ev.id, Sim.Engine.now e) :: !log;
        List.iter schedule ev.kids)
  in
  let spawn p =
    Sim.Engine.spawn e (fun () ->
        List.iter
          (fun d ->
            Sim.Engine.sleep e d;
            log := (p.pid, Sim.Engine.now e) :: !log)
          p.sleeps)
  in
  List.iter
    (fun (len, roots, procs) ->
      List.iter schedule roots;
      List.iter spawn procs;
      Sim.Engine.run_for e len)
    slices;
  Sim.Engine.run e;
  (List.rev !log, Sim.Engine.heap_max_depth e, Sim.Engine.events_dispatched e)

let prop_engine_matches_sorted_reference =
  Helpers.qtest ~count:300 "engine: dispatch is (time, seq) order"
    (QCheck.make ~print:print_program gen_program)
    (fun slices -> engine_dispatch slices = reference_dispatch slices)

(* A sleep outside a process has no handler to suspend to, whether it
   is made from a plain callback or from a suspend's [register]; the
   lookahead path must not turn either into a silent clock jump. *)
let test_engine_sleep_outside_process () =
  let raises_unhandled name f =
    let e = Sim.Engine.create () in
    f e;
    match Sim.Engine.run e with
    | () -> Alcotest.failf "%s: sleep returned" name
    | exception Effect.Unhandled _ -> check_int (name ^ ": clock kept") 0 (Sim.Engine.now e)
  in
  raises_unhandled "plain callback" (fun e ->
      Sim.Engine.schedule e (fun () -> Sim.Engine.sleep e 5));
  raises_unhandled "register" (fun e ->
      Sim.Engine.spawn e (fun () ->
          Sim.Engine.suspend e ~register:(fun _ -> Sim.Engine.sleep e 5)))

(* The first sleep is the next event and is elided; the second would
   end past the [run_for] horizon, so it parks until the next run. *)
let test_engine_sleep_horizon () =
  let e = Sim.Engine.create () in
  let woke = ref [] in
  Sim.Engine.spawn e (fun () ->
      Sim.Engine.sleep e 7;
      woke := Sim.Engine.now e :: !woke;
      Sim.Engine.sleep e 7;
      woke := Sim.Engine.now e :: !woke);
  Sim.Engine.run_for e 10;
  check_int "slice stops at its end" 10 (Sim.Engine.now e);
  Alcotest.(check (list int)) "first wake only" [ 7 ] !woke;
  check_int "parked across the slice end" 1 (Sim.Engine.live_processes e);
  Sim.Engine.run e;
  Alcotest.(check (list int)) "second wake at 14" [ 14; 7 ] !woke;
  check_int "one sleep elided" 1 (Sim.Engine.sleeps_elided e);
  check_int "both sleeps counted as suspends" 2 (Sim.Engine.effect_suspends e);
  check_int "start + two sleeps of two events" 5 (Sim.Engine.events_dispatched e)

(* ---------- Condition ---------- *)

let test_condition_signal_fifo () =
  let e = Sim.Engine.create () in
  let cv = Sim.Condition.create e "t" in
  let woke = ref [] in
  for i = 1 to 3 do
    Sim.Engine.spawn e (fun () ->
        Sim.Condition.wait cv;
        woke := i :: !woke)
  done;
  Sim.Engine.run e;
  check_int "three waiting" 3 (Sim.Condition.waiters cv);
  Sim.Condition.signal cv;
  Sim.Engine.run e;
  Alcotest.(check (list int)) "first in woke" [ 1 ] (List.rev !woke);
  Sim.Condition.broadcast cv;
  Sim.Engine.run e;
  Alcotest.(check (list int)) "rest woke in order" [ 1; 2; 3 ] (List.rev !woke)

let test_condition_rewait_not_woken_by_same_broadcast () =
  let e = Sim.Engine.create () in
  let cv = Sim.Condition.create e "t" in
  let wakeups = ref 0 in
  Sim.Engine.spawn e (fun () ->
      Sim.Condition.wait cv;
      incr wakeups;
      Sim.Condition.wait cv;
      incr wakeups);
  Sim.Engine.run e;
  Sim.Condition.broadcast cv;
  Sim.Engine.run e;
  check_int "woken once" 1 !wakeups;
  Sim.Condition.broadcast cv;
  Sim.Engine.run e;
  check_int "woken twice" 2 !wakeups

(* ---------- Semaphore ---------- *)

let test_semaphore_blocking () =
  let e = Sim.Engine.create () in
  let sem = Sim.Semaphore.create e "t" 2 in
  let got = ref [] in
  for i = 1 to 3 do
    Sim.Engine.spawn e (fun () ->
        Sim.Semaphore.acquire sem ();
        got := i :: !got)
  done;
  Sim.Engine.run e;
  Alcotest.(check (list int)) "two got in" [ 1; 2 ] (List.rev !got);
  Sim.Semaphore.release sem ();
  Sim.Engine.run e;
  Alcotest.(check (list int)) "third after release" [ 1; 2; 3 ] (List.rev !got)

let test_semaphore_fifo_fairness () =
  let e = Sim.Engine.create () in
  let sem = Sim.Semaphore.create e "t" 0 in
  let got = ref [] in
  (* big waiter first, then small: small must NOT jump the queue *)
  Sim.Engine.spawn e (fun () ->
      Sim.Semaphore.acquire sem ~n:5 ();
      got := `Big :: !got);
  Sim.Engine.spawn e (fun () ->
      Sim.Semaphore.acquire sem ~n:1 ();
      got := `Small :: !got);
  Sim.Engine.run e;
  Sim.Semaphore.release sem ~n:1 ();
  Sim.Engine.run e;
  check_int "nobody in with 1 unit" 0 (List.length !got);
  Sim.Semaphore.release sem ~n:5 ();
  Sim.Engine.run e;
  check_bool "big first" true (List.rev !got = [ `Big; `Small ]);
  check_int "leftover" 0 (Sim.Semaphore.value sem)

let test_semaphore_try () =
  let e = Sim.Engine.create () in
  let sem = Sim.Semaphore.create e "t" 1 in
  check_bool "try ok" true (Sim.Semaphore.try_acquire sem ());
  check_bool "try fails at zero" false (Sim.Semaphore.try_acquire sem ());
  Sim.Semaphore.release sem ();
  check_int "back to one" 1 (Sim.Semaphore.value sem)

(* ---------- Mutex ---------- *)

let test_mutex_exclusion () =
  let e = Sim.Engine.create () in
  let m = Sim.Mutex.create e "t" in
  let trace = ref [] in
  Sim.Engine.spawn e (fun () ->
      Sim.Mutex.with_lock m (fun () ->
          trace := `A_in :: !trace;
          Sim.Engine.sleep e 100;
          trace := `A_out :: !trace));
  Sim.Engine.spawn e (fun () ->
      Sim.Mutex.with_lock m (fun () -> trace := `B_in :: !trace));
  Sim.Engine.run e;
  check_bool "no interleaving" true
    (List.rev !trace = [ `A_in; `A_out; `B_in ])

let test_mutex_exception_unlocks () =
  let e = Sim.Engine.create () in
  let m = Sim.Mutex.create e "t" in
  (try Sim.Mutex.with_lock m (fun () -> failwith "x") with Failure _ -> ());
  check_bool "released after exception" false (Sim.Mutex.locked m)

let test_mutex_unlock_unlocked_raises () =
  let e = Sim.Engine.create () in
  let m = Sim.Mutex.create e "t" in
  Alcotest.check_raises "unlock unheld"
    (Invalid_argument "Mutex.unlock: not locked") (fun () -> Sim.Mutex.unlock m)

(* ---------- Cpu ---------- *)

let test_cpu_accounting () =
  let e = Sim.Engine.create () in
  let cpu = Sim.Cpu.create e in
  Sim.Engine.spawn e (fun () ->
      Sim.Cpu.charge cpu ~cat:Sim.Cpu.Sys ~label:"a" 100;
      Sim.Cpu.charge cpu ~cat:Sim.Cpu.User ~label:"b" 50);
  Sim.Engine.run e;
  check_int "sys" 100 (Sim.Cpu.sys_time cpu);
  check_int "user" 50 (Sim.Cpu.user_time cpu);
  check_int "clock = total" 150 (Sim.Engine.now e);
  let labels = Sim.Cpu.by_label cpu in
  check_bool "labels recorded" true
    (List.mem ("a", 100) labels && List.mem ("b", 50) labels);
  Sim.Cpu.reset cpu;
  check_int "reset" 0 (Sim.Cpu.sys_time cpu)

(* Labels are matched by address first; a string with the same text at
   another address must land on the same total.  Equal totals are
   listed in label order. *)
let prop_cpu_by_label =
  let names = [| "copy"; "bmap"; "driver"; "getpage"; "rdwr"; "alloc" |] in
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 22 |])
    (QCheck.Test.make ~count:200 ~name:"cpu by_label totals and tie order"
       QCheck.(small_list (triple (int_bound 5) (int_bound 4) bool))
       (fun charges ->
         let e = Sim.Engine.create () in
         let cpu = Sim.Cpu.create e in
         Sim.Engine.spawn e (fun () ->
             List.iter
               (fun (i, d, fresh) ->
                 (* a fresh copy: same text, another address *)
                 let label =
                   if fresh then Bytes.to_string (Bytes.of_string names.(i))
                   else names.(i)
                 in
                 Sim.Cpu.charge cpu ~label (d * 10))
               charges);
         Sim.Engine.run e;
         let totals = Hashtbl.create 8 in
         List.iter
           (fun (i, d, _) ->
             if d > 0 then
               let sofar = Option.value ~default:0 (Hashtbl.find_opt totals names.(i)) in
               Hashtbl.replace totals names.(i) (sofar + (d * 10)))
           charges;
         let expect =
           Hashtbl.fold (fun k v acc -> (k, v) :: acc) totals []
           |> List.sort (fun (a, x) (b, y) ->
                  if x <> y then compare y x else compare a b)
         in
         Sim.Cpu.by_label cpu = expect))

let test_cpu_contention_serializes () =
  let e = Sim.Engine.create () in
  let cpu = Sim.Cpu.create e in
  let finish = ref [] in
  for i = 1 to 3 do
    Sim.Engine.spawn e (fun () ->
        Sim.Cpu.charge cpu 100;
        finish := (i, Sim.Engine.now e) :: !finish)
  done;
  Sim.Engine.run e;
  Alcotest.(check (list (pair int int)))
    "serialized completions"
    [ (1, 100); (2, 200); (3, 300) ]
    (List.rev !finish)

(* ---------- Frames ---------- *)

let test_frames_recycle () =
  let fr = Sim.Frames.create ~size:8192 in
  let a = Sim.Frames.take fr in
  check_int "frame size" 8192 (Bytes.length a);
  Sim.Frames.give fr a;
  check_bool "take returns the frame given" true (Sim.Frames.take fr == a);
  check_bool "empty list: a fresh frame" true (Sim.Frames.take fr != a);
  Sim.Frames.give fr (Bytes.create 4096);
  Sim.Frames.give fr (Bytes.create 8193);
  Sim.Frames.give fr Bytes.empty;
  let c = Sim.Frames.take fr in
  check_int "other sizes are never kept" 8192 (Bytes.length c);
  check_int "taken" 4 (Sim.Frames.taken fr);
  check_int "reused" 1 (Sim.Frames.reused fr);
  let e = Sim.Engine.create () in
  check_bool "one pool per engine" true
    (Sim.Engine.frames e == Sim.Engine.frames e);
  check_int "engine frames are 8 KB pages" 8192
    (Sim.Frames.size (Sim.Engine.frames e))

let suites =
  [
    ( "sim",
      [
        Alcotest.test_case "time conversions" `Quick test_time_conversions;
        Alcotest.test_case "iov sub and whole" `Quick test_iov_sub_whole;
        prop_iov_matches_flat;
        Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
        Alcotest.test_case "rng shuffle" `Quick test_rng_shuffle;
        Alcotest.test_case "rng exponential" `Quick test_rng_exponential;
        Alcotest.test_case "stats summary" `Quick test_summary;
        prop_summary_moments_bit_identical;
        Alcotest.test_case "stats percentile" `Quick test_percentile;
        Alcotest.test_case "stats percentile no mutate" `Quick
          test_percentile_does_not_mutate;
        Alcotest.test_case "stats empty summary min/max" `Quick
          test_summary_empty_min_max;
        Alcotest.test_case "stats hist" `Quick test_hist;
        Alcotest.test_case "stats hist top bucket" `Quick test_hist_top_bucket;
        Alcotest.test_case "engine time order" `Quick test_engine_ordering;
        Alcotest.test_case "engine same-time FIFO" `Quick
          test_engine_fifo_same_time;
        Alcotest.test_case "engine sleep" `Quick test_engine_sleep;
        Alcotest.test_case "engine run_for" `Quick test_engine_run_for;
        Alcotest.test_case "engine suspend/resume" `Quick
          test_engine_suspend_resume;
        Alcotest.test_case "engine double resume" `Quick
          test_engine_double_resume_raises;
        Alcotest.test_case "engine stale resume while parked" `Quick
          test_engine_stale_resume_while_parked;
        Alcotest.test_case "engine deadlock detect" `Quick
          test_engine_check_quiescent;
        Alcotest.test_case "engine process exception" `Quick
          test_engine_process_exception;
        prop_engine_matches_sorted_reference;
        Alcotest.test_case "engine sleep outside a process" `Quick
          test_engine_sleep_outside_process;
        Alcotest.test_case "engine sleep horizon" `Quick
          test_engine_sleep_horizon;
        Alcotest.test_case "engine cancellable timer" `Quick
          test_engine_cancellable_timer;
        Alcotest.test_case "condition FIFO" `Quick test_condition_signal_fifo;
        Alcotest.test_case "condition broadcast once" `Quick
          test_condition_rewait_not_woken_by_same_broadcast;
        Alcotest.test_case "semaphore blocking" `Quick test_semaphore_blocking;
        Alcotest.test_case "semaphore FIFO fairness" `Quick
          test_semaphore_fifo_fairness;
        Alcotest.test_case "semaphore try" `Quick test_semaphore_try;
        Alcotest.test_case "mutex exclusion" `Quick test_mutex_exclusion;
        Alcotest.test_case "mutex exception safety" `Quick
          test_mutex_exception_unlocks;
        Alcotest.test_case "mutex unlock unheld" `Quick
          test_mutex_unlock_unlocked_raises;
        Alcotest.test_case "cpu accounting" `Quick test_cpu_accounting;
        prop_cpu_by_label;
        Alcotest.test_case "cpu contention" `Quick
          test_cpu_contention_serializes;
        Alcotest.test_case "frames: recycle, one size" `Quick
          test_frames_recycle;
      ] );
  ]
