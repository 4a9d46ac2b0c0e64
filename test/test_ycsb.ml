(* YCSB workload suite tests: distribution shape against closed-form
   targets, mix proportion convergence, and the open-loop queueing
   semantics of [Arrival] (latency measured from arrival, so an
   overloaded schedule must show p99 far above the service time), and
   its size-or-timeout batched dispatch against a reference model. *)

open Fpb_workload

let p h q = Fpb_obs.Histogram.percentile h q

(* Prng.float in [0, 1); Prng.exponential positive with the right mean. *)
let test_float_exponential () =
  let rng = Prng.create 17 in
  for _ = 1 to 10_000 do
    let f = Prng.float rng in
    if f < 0. || f >= 1. then Alcotest.failf "float out of [0,1): %f" f
  done;
  let mean = 5.0 and n = 50_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    let x = Prng.exponential rng ~mean in
    if x < 0. then Alcotest.failf "negative exponential draw %f" x;
    sum := !sum +. x
  done;
  let emp = !sum /. float_of_int n in
  if abs_float (emp -. mean) > 0.05 *. mean then
    Alcotest.failf "exponential mean %f, want ~%f" emp mean

(* The power-law sampler has the closed-form CDF
   P(rank < r) = (r/n)^(1-theta); check the empirical CDF against it,
   and that head frequencies are monotone non-increasing. *)
let test_zipf_shape () =
  let n = 1000 and theta = 0.99 and draws = 200_000 in
  let rng = Prng.create 23 in
  let counts = Array.make n 0 in
  for _ = 1 to draws do
    let r = Keygen.zipf_rank rng ~n ~theta in
    counts.(r) <- counts.(r) + 1
  done;
  for r = 1 to 4 do
    if counts.(r) > counts.(r - 1) then
      Alcotest.failf "head not monotone: count(%d)=%d > count(%d)=%d" r
        counts.(r) (r - 1) counts.(r - 1)
  done;
  List.iter
    (fun r ->
      let below = ref 0 in
      for i = 0 to r - 1 do below := !below + counts.(i) done;
      let emp = float_of_int !below /. float_of_int draws in
      let target = (float_of_int r /. float_of_int n) ** (1. -. theta) in
      if abs_float (emp -. target) > 0.01 then
        Alcotest.failf "CDF at rank %d: empirical %.4f, target %.4f" r emp
          target)
    [ 1; 10; 100; 1000 ]

(* Higher theta concentrates more mass on the hottest 1% of ranks. *)
let test_zipf_theta_orders_skew () =
  let n = 10_000 and draws = 50_000 in
  let top1 theta =
    let rng = Prng.create 29 in
    let hot = ref 0 in
    for _ = 1 to draws do
      if Keygen.zipf_rank rng ~n ~theta < n / 100 then incr hot
    done;
    float_of_int !hot /. float_of_int draws
  in
  let low = top1 0.5 and mid = top1 0.8 and high = top1 0.99 in
  if not (low < mid && mid < high) then
    Alcotest.failf "top-1%% mass not ordered by theta: %.3f %.3f %.3f" low mid
      high;
  (* Closed form: (0.01)^(1-theta) = 0.955 at theta = 0.99. *)
  if high < 0.9 then Alcotest.failf "theta 0.99 head mass %.3f, want > 0.9" high

(* The FNV scramble is deterministic, lands in [0, n), and spreads the
   hot head ranks across the whole position space. *)
let test_scramble () =
  let n = 1000 in
  let images = Array.init 100 (fun r -> Keygen.scramble ~n r) in
  Array.iteri
    (fun r img ->
      if img < 0 || img >= n then Alcotest.failf "scramble(%d) = %d" r img;
      if img <> Keygen.scramble ~n r then Alcotest.failf "not deterministic")
    images;
  let distinct = List.sort_uniq compare (Array.to_list images) in
  if List.length distinct < 90 then
    Alcotest.failf "only %d distinct images of 100 ranks"
      (List.length distinct);
  let lo = Array.fold_left min max_int images
  and hi = Array.fold_left max 0 images in
  if hi - lo < n / 2 then
    Alcotest.failf "hot ranks not spread: images span [%d, %d] of %d" lo hi n

(* [Latest] anchors at the newest position: almost all draws land in
   the top 1% of the key-age array. *)
let test_latest_head () =
  let n = 1000 and draws = 10_000 in
  let rng = Prng.create 31 in
  let dist = Keygen.Latest { theta = Keygen.default_theta } in
  let hot = ref 0 in
  for _ = 1 to draws do
    if Keygen.draw_pos dist rng ~n >= n - (n / 100) then incr hot
  done;
  let frac = float_of_int !hot /. float_of_int draws in
  if frac < 0.9 then Alcotest.failf "latest head mass %.3f, want > 0.9" frac

(* Under mix D the read side keeps up with the insert frontier: late in
   the run, most reads target keys that were inserted during the run
   rather than bulk-loaded. *)
let test_latest_tracks_frontier () =
  let rng = Prng.create 37 in
  let pairs = Keygen.bulk_pairs rng 2_000 in
  let loaded = Hashtbl.create 4096 in
  Array.iter (fun (k, _) -> Hashtbl.replace loaded k ()) pairs;
  let gen = Mix.generator ~seed:41 Mix.d pairs in
  let fresh_reads = ref 0 and late_reads = ref 0 in
  for i = 1 to 4_000 do
    match Mix.next gen with
    | Mix.Read k when i > 2_000 ->
        incr late_reads;
        if not (Hashtbl.mem loaded k) then incr fresh_reads
    | _ -> ()
  done;
  Alcotest.(check bool) "inserts grew the key set" true
    (Mix.live_keys gen > 2_000);
  let frac = float_of_int !fresh_reads /. float_of_int (max 1 !late_reads) in
  if frac < 0.5 then
    Alcotest.failf "only %.2f of late reads hit run-inserted keys" frac

(* Drawn proportions converge to the mix percentages. *)
let test_mix_proportions () =
  let rng = Prng.create 43 in
  let pairs = Keygen.bulk_pairs rng 5_000 in
  let check mix =
    let gen = Mix.generator ~seed:47 mix pairs in
    let n = 20_000 in
    for _ = 1 to n do ignore (Mix.next gen) done;
    let r, u, i, s, m = Mix.drawn_counts gen in
    let pct c = 100. *. float_of_int c /. float_of_int n in
    List.iter
      (fun (kind, got, want) ->
        if abs_float (got -. float_of_int want) > 2. then
          Alcotest.failf "%s: %s drawn %.1f%%, mix says %d%%" mix.Mix.name kind
            got want)
      [
        ("read", pct r, mix.Mix.read);
        ("update", pct u, mix.Mix.update);
        ("insert", pct i, mix.Mix.insert);
        ("scan", pct s, mix.Mix.scan);
        ("rmw", pct m, mix.Mix.rmw);
      ]
  in
  List.iter check Mix.all

(* Open-loop semantics against a synthetic fixed-service-time op
   (1 ms), 4 clients, so capacity is exactly 4000 ops/s.

   Below saturation with fixed arrivals there is no queueing at all:
   recorded latency is exactly the service time.  At twice capacity the
   backlog grows linearly and recorded latency — measured from
   *arrival* — must dwarf the service time.  A closed-loop driver
   cannot show this difference; see docs/WORKLOADS.md. *)
let test_open_loop_queueing () =
  let service_ns = 1_000_000 in
  let run rate =
    let sim = Fpb_simmem.Sim.create () in
    Arrival.run ~sim ~n_clients:4 ~n_ops:2_000 ~rate_ops_per_s:rate
      ~discipline:Arrival.Fixed ~seed:7
      (fun ~client:_ ~seq:_ ->
        Fpb_simmem.Clock.advance sim.Fpb_simmem.Sim.clock service_ns)
  in
  let calm = run 1_000. in
  Alcotest.(check int) "no queueing below saturation" 0
    (Fpb_obs.Histogram.max_value calm.Arrival.queue_ns);
  Alcotest.(check int) "calm p99 = service time"
    (p calm.Arrival.service_ns 99.)
    (p calm.Arrival.latency 99.);
  let hot = run 8_000. in
  if p hot.Arrival.latency 99. < 50 * p hot.Arrival.service_ns 99. then
    Alcotest.failf "overloaded p99 %d ns not >> service p99 %d ns"
      (p hot.Arrival.latency 99.)
      (p hot.Arrival.service_ns 99.);
  if hot.Arrival.max_backlog < 100 then
    Alcotest.failf "overloaded backlog %d, want growth" hot.Arrival.max_backlog;
  (* Overloaded makespan is set by capacity, not the offered rate. *)
  let want = 2_000 * service_ns / 4 in
  if abs (hot.Arrival.makespan_ns - want) > want / 10 then
    Alcotest.failf "makespan %d ns, want ~%d ns" hot.Arrival.makespan_ns want

(* Every op is dispatched exactly once, on client [seq mod n_clients],
   in per-client FIFO order — one op at a time, and in groups. *)
let test_open_loop_dispatches_all () =
  let n_ops = 500 in
  let check_fifo last ~client seq =
    Alcotest.(check int) "round-robin client" (seq mod 3) client;
    if seq <= last.(client) then
      Alcotest.failf "client %d: seq %d after %d, not FIFO" client seq
        last.(client);
    last.(client) <- seq
  in
  let check_once seen =
    Array.iteri
      (fun j c -> if c <> 1 then Alcotest.failf "op %d dispatched %d times" j c)
      seen
  in
  let sim = Fpb_simmem.Sim.create () in
  let seen = Array.make n_ops 0 and last = Array.make 3 (-1) in
  let stats =
    Arrival.run ~sim ~n_clients:3 ~n_ops ~rate_ops_per_s:100_000. ~seed:11
      (fun ~client ~seq ->
        check_fifo last ~client seq;
        seen.(seq) <- seen.(seq) + 1)
  in
  check_once seen;
  Alcotest.(check int) "ops counted" n_ops stats.Arrival.ops;
  let sim = Fpb_simmem.Sim.create () in
  let seen = Array.make n_ops 0 and last = Array.make 3 (-1) in
  let stats =
    Arrival.run_batched ~sim ~n_clients:3 ~n_ops ~rate_ops_per_s:100_000.
      ~seed:11 ~batch:4 ~batch_wait_ns:50_000 (fun ~client seqs ->
        if Array.length seqs < 1 || Array.length seqs > 4 then
          Alcotest.failf "group of %d" (Array.length seqs);
        Array.iter
          (fun seq ->
            check_fifo last ~client seq;
            seen.(seq) <- seen.(seq) + 1)
          seqs;
        Fpb_simmem.Clock.advance sim.Fpb_simmem.Sim.clock 20_000)
  in
  check_once seen;
  Alcotest.(check int) "batched ops completed" n_ops stats.Arrival.completed;
  if stats.Arrival.batches >= n_ops then
    Alcotest.failf "%d dispatches for %d ops: nothing batched"
      stats.Arrival.batches n_ops

(* Reference model of size-or-timeout dispatch: the single-server batch
   loop as first written, kept as an oracle for [Arrival.run_batched].
   It redraws the arrival schedule from [seed] as the driver does and
   returns each dispatch as (start time, ops), with [service ops] the
   dispatch's service time. *)
let batch_model ~n_ops ~rate ~discipline ~seed ~batch ~batch_wait_ns ~service
    =
  let rng = Prng.create seed in
  let arrivals = Array.make (max 1 n_ops) 0 in
  let t = ref 0. in
  let mean_gap_ns = 1e9 /. rate in
  for j = 0 to n_ops - 1 do
    let gap =
      match discipline with
      | Arrival.Poisson -> Prng.exponential rng ~mean:mean_gap_ns
      | Arrival.Fixed -> mean_gap_ns
    in
    t := !t +. gap;
    arrivals.(j) <- int_of_float !t
  done;
  let q = Queue.create () in
  let next = ref 0 and s = ref 0 and out = ref [] in
  let absorb_until time =
    while !next < n_ops && arrivals.(!next) <= time do
      Queue.add (!next, arrivals.(!next)) q;
      incr next
    done
  in
  let dispatch at =
    let seqs = Array.init (min batch (Queue.length q)) (fun _ -> fst (Queue.pop q)) in
    out := (at, seqs) :: !out;
    s := at + service seqs;
    absorb_until !s
  in
  let running = ref true in
  while !running do
    if Queue.is_empty q then
      if !next >= n_ops then running := false
      else begin
        s := max !s arrivals.(!next);
        absorb_until !s
      end
    else if Queue.length q >= batch then dispatch !s
    else begin
      let timeout = snd (Queue.peek q) + batch_wait_ns in
      if timeout <= !s then dispatch !s
      else
        let na = if !next < n_ops then arrivals.(!next) else max_int in
        if na <= timeout then begin
          s := na;
          absorb_until !s
        end
        else dispatch timeout
    end
  done;
  List.rev !out

(* One batch server ([n_clients = 1]) dispatches exactly as the model:
   same start times, same groups, op for op.  Half the cases are
   aligned: fixed arrivals at a round gap, a wait that is a multiple of
   it and a fixed 50 us service, so arrivals tie with dispatches and the
   tie rule (arrivals first) is exercised. *)
let test_batched_matches_model =
  Util.qtest ~count:100 "run_batched with one client matches the model"
    QCheck2.Gen.(
      tup7 bool (int_range 100 200_000) bool (int_range 1 64)
        (int_range 0 10_000_000) bool (int_range 0 1000))
    (fun (aligned, rate, fixed, batch, wait, varying, seed) ->
      let rate, fixed, batch_wait_ns, varying =
        if aligned then
          let gap = [| 10_000; 25_000; 50_000; 100_000 |].(rate mod 4) in
          (1_000_000_000 / gap, true, wait / gap * gap, false)
        else (rate, fixed, wait, varying)
      in
      let discipline = if fixed then Arrival.Fixed else Arrival.Poisson in
      let rate = float_of_int rate and n_ops = 300 in
      (* Fixed 50 us per dispatch, or a per-group time that varies with
         the group's size and first op. *)
      let service seqs =
        if varying then 10_000 + (7_000 * Array.length seqs) + (seqs.(0) mod 13 * 3_000)
        else 50_000
      in
      let want =
        batch_model ~n_ops ~rate ~discipline ~seed ~batch ~batch_wait_ns
          ~service
      in
      let sim = Fpb_simmem.Sim.create () in
      let clock = sim.Fpb_simmem.Sim.clock in
      let got = ref [] in
      let st =
        Arrival.run_batched ~sim ~n_clients:1 ~n_ops ~rate_ops_per_s:rate
          ~discipline ~seed ~batch ~batch_wait_ns (fun ~client:_ seqs ->
            got := (Fpb_simmem.Clock.now clock, seqs) :: !got;
            Fpb_simmem.Clock.advance clock (service seqs))
      in
      List.rev !got = want
      && st.Arrival.batches = List.length want
      && st.Arrival.completed = n_ops)

(* Batch server against the same synthetic oracle: ONE server whose
   per-dispatch service time is a fixed 1 ms however many ops the batch
   holds, so capacity is exactly [batch * 1000] ops/s and every queueing
   figure has a closed form under fixed arrivals. *)
let batch_oracle ~rate ~batch ~batch_wait_ns ?(n_ops = 2_000) ?on_batch () =
  let service_ns = 1_000_000 in
  let sim = Fpb_simmem.Sim.create () in
  Arrival.run_batched ~sim ~n_clients:1 ~n_ops ~rate_ops_per_s:rate
    ~discipline:Arrival.Fixed ~seed:7 ~batch ~batch_wait_ns
    (fun ~client:_ seqs ->
      (match on_batch with Some f -> f seqs | None -> ());
      Fpb_simmem.Clock.advance sim.Fpb_simmem.Sim.clock service_ns)

(* Below saturation, size-triggered: at 500 ops/s (2 ms gaps) a batch of
   4 fills in exactly 3 gaps, so the head waits exactly 6 ms and every
   dispatch is full. *)
let test_batch_size_trigger () =
  let s =
    batch_oracle ~rate:500. ~batch:4 ~batch_wait_ns:10_000_000 ()
  in
  Alcotest.(check int) "all ops served" 2_000 s.Arrival.completed;
  Alcotest.(check int) "full batches" 500 s.Arrival.batches;
  Alcotest.(check int)
    "head waits exactly 3 arrival gaps" 6_000_000
    (Fpb_obs.Histogram.max_value s.Arrival.queue_ns);
  Alcotest.(check int)
    "freshest op never waits" 0
    (Fpb_obs.Histogram.min_value s.Arrival.queue_ns)

(* Below saturation, timeout-triggered: with the size trigger out of
   reach the oldest op waits exactly [batch_wait_ns], and the batch
   holds just the ops that arrived inside the window. *)
let test_batch_timeout_trigger () =
  let s =
    batch_oracle ~rate:500. ~batch:64 ~batch_wait_ns:3_000_000 ()
  in
  Alcotest.(check int) "all ops served" 2_000 s.Arrival.completed;
  Alcotest.(check int) "two ops arrive per 3 ms window" 1_000 s.Arrival.batches;
  Alcotest.(check int)
    "head waits exactly the timeout" 3_000_000
    (Fpb_obs.Histogram.max_value s.Arrival.queue_ns)

(* Around capacity: at 8000 ops/s a batch-8 server (capacity 8000)
   keeps the backlog bounded and finishes with the arrival schedule,
   while batch 4 (capacity 4000) queues for the whole run and its
   makespan is set by service capacity, not the offered rate. *)
let test_batch_capacity () =
  let keeps_up = batch_oracle ~rate:8_000. ~batch:8 ~batch_wait_ns:10_000_000 () in
  if keeps_up.Arrival.max_backlog > 32 then
    Alcotest.failf "backlog %d at capacity, want bounded"
      keeps_up.Arrival.max_backlog;
  let hot = batch_oracle ~rate:8_000. ~batch:4 ~batch_wait_ns:10_000_000 () in
  if hot.Arrival.max_backlog < 100 then
    Alcotest.failf "overloaded backlog %d, want growth" hot.Arrival.max_backlog;
  let want = 2_000 / 4 * 1_000_000 in
  if abs (hot.Arrival.makespan_ns - want) > want / 10 then
    Alcotest.failf "overloaded makespan %d ns, want ~%d ns"
      hot.Arrival.makespan_ns want;
  if p hot.Arrival.latency 99. < 50 * p hot.Arrival.service_ns 99. then
    Alcotest.failf "overloaded p99 %d ns not >> service p99 %d ns"
      (p hot.Arrival.latency 99.)
      (p hot.Arrival.service_ns 99.)

(* Every op is dispatched exactly once, batches in arrival order. *)
let test_batch_dispatches_all () =
  let seen = Array.make 500 0 in
  let last = ref (-1) in
  let s =
    batch_oracle ~rate:100_000. ~batch:8 ~batch_wait_ns:1_000_000 ~n_ops:500
      ~on_batch:(fun seqs ->
        Array.iter
          (fun seq ->
            if seq <= !last then
              Alcotest.failf "seq %d after %d: not arrival order" seq !last;
            last := seq;
            seen.(seq) <- seen.(seq) + 1)
          seqs)
      ()
  in
  Array.iteri
    (fun j c -> if c <> 1 then Alcotest.failf "op %d dispatched %d times" j c)
    seen;
  Alcotest.(check int) "ops counted" 500 s.Arrival.completed

let suite =
  [
    Alcotest.test_case "prng float and exponential" `Quick
      test_float_exponential;
    Alcotest.test_case "zipf matches closed-form CDF" `Quick test_zipf_shape;
    Alcotest.test_case "zipf theta orders skew" `Quick
      test_zipf_theta_orders_skew;
    Alcotest.test_case "scramble deterministic and spreading" `Quick
      test_scramble;
    Alcotest.test_case "latest is frontier-anchored" `Quick test_latest_head;
    Alcotest.test_case "latest tracks insert frontier" `Quick
      test_latest_tracks_frontier;
    Alcotest.test_case "mix proportions converge" `Quick test_mix_proportions;
    Alcotest.test_case "open loop records queueing delay" `Quick
      test_open_loop_queueing;
    Alcotest.test_case "open loop dispatches every op once" `Quick
      test_open_loop_dispatches_all;
    Alcotest.test_case "batch server: size trigger fills batches" `Quick
      test_batch_size_trigger;
    Alcotest.test_case "batch server: timeout caps the head wait" `Quick
      test_batch_timeout_trigger;
    Alcotest.test_case "batch server: capacity scales with the batch" `Quick
      test_batch_capacity;
    Alcotest.test_case "batch server dispatches every op once" `Quick
      test_batch_dispatches_all;
    test_batched_matches_model;
  ]
