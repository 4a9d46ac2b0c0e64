(* Open-loop arrival driver over the discrete-event clock, with
   overload control and size-or-timeout batched dispatch.

   Where [Clients.run] is closed-loop — each client issues its next
   operation the moment the previous one completes, so offered load
   adapts itself to the system's capacity and overload shows up only as
   a throughput plateau — this driver is open-loop: operations arrive
   on a fixed simulated-time schedule (Poisson or fixed-rate) that does
   not care how the system is doing, exactly like requests from a large
   population of independent users.  Each arrival is appended
   round-robin to one of [n_clients] per-client FIFO queues.

   A client dispatches up to [batch] ops from its queue at a time under
   the size-or-timeout rule (the same shape as the WAL's group commit):
   as soon as [batch] ops are queued, or once the oldest queued op has
   waited [batch_wait_ns], whichever comes first.  [batch = 1] is the
   one-op-at-a-time server; a batched dispatch hands the group to one
   level-wise descent wave ([search_batch]), which amortises shared
   upper levels and pipelines leaf misses across probes, while below
   saturation an op waits up to [batch_wait_ns] for company.

   Past saturation an undefended open-loop system has unbounded queues
   and an exploding tail, so the driver carries the standard defenses,
   whatever the batch size:

   - every op may carry a *deadline* ([~deadline_ns], absolute from its
     first arrival); completions within it are *goodput*, completions
     past it are answers nobody is waiting for any more;
   - an *admission policy* ([Admission.t]) decides at arrival whether
     to queue the op or shed it ([arrival.shed]); the deadline-aware
     policy projects the queueing delay from an EWMA of observed
     dispatch service times and refuses ops that would expire in the
     queue, and additionally drops an admitted op at dispatch if its
     deadline has already passed ([arrival.expired]) rather than waste
     service time (the rest of its group is served; the group is not
     refilled);
   - a *client retry policy* ([Retry.t]) optionally re-enters shed or
     expired ops after a delay ([arrival.retries]), with a bounded
     per-op budget — this is the knob that reproduces (and cures) the
     classic retry-storm metastable failure;
   - [~rate_change:(j, r)] switches the arrival rate to [r] from the
     [j]-th op on, and reports that second phase's goodput separately
     ([stats.recovery]), so "offered load dropped below capacity but
     the system stayed saturated" is directly measurable.

   Per-operation latency is recorded from *first arrival*, not
   dispatch: latency = queueing (and retry) delay + service time.

   Scheduling is the same conservative discrete-event discipline as
   [Clients.run]: a client's next dispatch time is
   max(its previous completion, enqueue time of its [batch]-th queued
   op) when [batch] ops are queued, and
   max(its previous completion, its head's enqueue time + [batch_wait_ns])
   otherwise; the driver always executes the globally earliest pending
   event — the next arrival (fresh or retry re-entry, winning ties) or
   the earliest dispatch — rewinding the shared clock there
   ([Clock.set]).  Decision times are non-decreasing, so the
   backlog-over-time accounting (peak instant, time above the
   watermark) is exact. *)

open Fpb_simmem

type discipline = Poisson | Fixed

let discipline_name = function Poisson -> "poisson" | Fixed -> "fixed"

type window = {
  w_offered : int;
  w_completed : int;
  w_good : int;
  w_shed : int;
  w_dropped : int;
  w_span_ns : int;
  w_goodput_ops_per_s : float;
}

type stats = {
  clients : int;
  ops : int;
  discipline : discipline;
  offered_ops_per_s : float;
  makespan_ns : int;
  latency : Fpb_obs.Histogram.t;
  queue_ns : Fpb_obs.Histogram.t;
  service_ns : Fpb_obs.Histogram.t;
  throughput_ops_per_s : float;
  max_backlog : int;
  backlog_peak_at_ns : int;
  time_above_watermark_ns : int;
  backlog_watermark : int;
  completed : int;
  batches : int;
  good : int;
  shed : int;
  expired : int;
  retries : int;
  dropped : int;
  goodput_ops_per_s : float;
  deadline_ns : int option;
  recovery : window option;
}

(* Retry re-entries, ordered by (time, seq).  A [Set] works as a priority
   queue here because an op has at most one pending re-entry, so the
   (time, seq, failures) triples are unique. *)
module Reentry = Set.Make (struct
  type t = int * int * int (* time, seq, failures so far *)

  let compare = compare
end)

(* A client's FIFO of admitted ops: parallel rings of sequence numbers
   and enqueue times, power-of-two capacity, grown by doubling. *)
type ring = {
  mutable seqs : int array;
  mutable enqs : int array;
  mutable head : int;
  mutable len : int;
}

let ring_create () =
  { seqs = Array.make 16 0; enqs = Array.make 16 0; head = 0; len = 0 }

(* Slot of the [k]-th queued op (0 = head). *)
let ring_slot r k = (r.head + k) land (Array.length r.seqs - 1)

let ring_push r seq enq =
  let cap = Array.length r.seqs in
  if r.len = cap then begin
    let grow a =
      Array.init (2 * cap) (fun k -> if k < cap then a.(ring_slot r k) else 0)
    in
    let seqs = grow r.seqs and enqs = grow r.enqs in
    r.seqs <- seqs;
    r.enqs <- enqs;
    r.head <- 0
  end;
  let s = ring_slot r r.len in
  r.seqs.(s) <- seq;
  r.enqs.(s) <- enq;
  r.len <- r.len + 1

let serve ~who ~sim ~n_clients ~n_ops ~rate_ops_per_s ~discipline ~seed
    ~deadline_ns ~admission ~retry ~rate_change ~backlog_watermark
    ~live_backlog ~batch ~batch_wait_ns exec =
  let bad what = invalid_arg (Printf.sprintf "Arrival.%s: %s" who what) in
  if n_clients < 1 then bad "n_clients < 1";
  if n_ops < 0 then bad "n_ops < 0";
  if rate_ops_per_s <= 0. then bad "rate <= 0";
  if batch < 1 then bad "batch < 1";
  if batch_wait_ns < 0 then bad "batch_wait_ns < 0";
  (match deadline_ns with Some d when d <= 0 -> bad "deadline <= 0" | _ -> ());
  (match rate_change with
  | Some (j, r) when j < 0 || j > n_ops || r <= 0. -> bad "bad rate_change"
  | _ -> ());
  let clock = sim.Sim.clock in
  let t0 = Clock.now clock in
  (* The arrival schedule is fixed up front: it is the load, independent
     of how the system keeps up. *)
  let rng = Prng.create seed in
  let arrivals = Array.make (max 1 n_ops) t0 in
  let t = ref (float_of_int t0) in
  for j = 0 to n_ops - 1 do
    let rate =
      match rate_change with
      | Some (j0, r2) when j >= j0 -> r2
      | _ -> rate_ops_per_s
    in
    let mean_gap_ns = 1e9 /. rate in
    let gap =
      match discipline with
      | Poisson -> Prng.exponential rng ~mean:mean_gap_ns
      | Fixed -> mean_gap_ns
    in
    t := !t +. gap;
    arrivals.(j) <- int_of_float !t
  done;
  let deadline_of j =
    match deadline_ns with None -> max_int | Some d -> arrivals.(j) + d
  in
  let latency = Fpb_obs.Histogram.make "arrival.latency_ns" in
  let queue_ns = Fpb_obs.Histogram.make "arrival.queue_ns" in
  let service_ns = Fpb_obs.Histogram.make "arrival.service_ns" in
  let queues = Array.init n_clients (fun _ -> ring_create ()) in
  let free = Array.make n_clients t0 in
  (* The group being dispatched: reused by every dispatch. *)
  let buf = Array.make batch 0 in
  let fails = Array.make (max 1 n_ops) 0 in
  let reentries = ref Reentry.empty in
  let next_fresh = ref 0 in
  (* Counters. *)
  let completed = ref 0 and batches = ref 0 and good = ref 0 in
  let shed = ref 0 and expired = ref 0 in
  let retries = ref 0 and dropped = ref 0 in
  (* Phase-2 (recovery window) accounting, by original seq. *)
  let p2_from = match rate_change with Some (j, _) -> j | None -> max_int in
  let p2_completed = ref 0 and p2_good = ref 0 in
  let p2_shed = ref 0 and p2_dropped = ref 0 in
  (* Backlog = ops admitted and waiting (not yet dispatched).  Decision
     times are non-decreasing, so piecewise-constant accounting between
     them is exact. *)
  let wm = match backlog_watermark with Some w -> w | None -> 4 * n_clients in
  let backlog = ref 0 in
  let max_backlog = ref 0 and backlog_peak_at = ref 0 in
  let above_ns = ref 0 in
  let last_t = ref t0 in
  let note_time now =
    if now > !last_t then begin
      if !backlog > wm then above_ns := !above_ns + (now - !last_t);
      last_t := now
    end
  in
  let set_backlog now b =
    note_time now;
    backlog := b;
    (match live_backlog with Some r -> r := b | None -> ());
    if b > !max_backlog then begin
      max_backlog := b;
      backlog_peak_at := now - t0
    end
  in
  (* Per-dispatch service-time EWMA feeding the deadline-aware projected
     wait. *)
  let est_service = ref 0 in
  let observe_service s =
    est_service := if !est_service = 0 then s else ((7 * !est_service) + s) / 8
  in
  let deadline_aware = admission = Admission.Deadline_aware in
  let last_finish = ref t0 in
  (* A shed or expired op consults the client retry policy: re-enter
     after a delay, or drop for good once the budget is spent. *)
  let fail_op now seq =
    fails.(seq) <- fails.(seq) + 1;
    match Retry.delay_ns retry rng ~failures:fails.(seq) with
    | Some d ->
        incr retries;
        reentries := Reentry.add (now + d, seq, fails.(seq)) !reentries
    | None ->
        incr dropped;
        if seq >= p2_from then incr p2_dropped
  in
  let process_arrival now seq =
    let c = seq mod n_clients in
    let q = queues.(c) in
    let depth = q.len in
    (* The new op waits for the client to free up, then for the
       dispatches that serve the ops already queued ahead of it. *)
    let projected_wait_ns =
      max 0 (free.(c) - now) + ((depth + batch - 1) / batch * !est_service)
    in
    let slack_ns =
      match deadline_ns with
      | None -> None
      | Some _ -> Some (deadline_of seq - now)
    in
    if Admission.admit admission ~queue_depth:depth ~projected_wait_ns
         ~slack_ns
    then begin
      ring_push q seq now;
      set_backlog now (!backlog + 1)
    end
    else begin
      incr shed;
      if seq >= p2_from then incr p2_shed;
      note_time now;
      fail_op now seq
    end
  in
  (* Earliest pending arrival, [max_int] when none: the fresh schedule
     is already sorted, the retry re-entries live in the ordered set. *)
  let next_arrival_at () =
    let tf = if !next_fresh < n_ops then arrivals.(!next_fresh) else max_int in
    if Reentry.is_empty !reentries then tf
    else
      let tr, _, _ = Reentry.min_elt !reentries in
      min tf tr
  in
  (* A fresh arrival wins a tie with a re-entry. *)
  let take_arrival now =
    if !next_fresh < n_ops && arrivals.(!next_fresh) = now then begin
      let seq = !next_fresh in
      incr next_fresh;
      process_arrival now seq
    end
    else begin
      let ((_, seq, _) as e) = Reentry.min_elt !reentries in
      reentries := Reentry.remove e !reentries;
      process_arrival now seq
    end
  in
  (* Earliest dispatch over clients with non-empty queues, under the
     size-or-timeout rule; the start time is left in [dispatch_at]. *)
  let dispatch_at = ref max_int in
  let next_dispatch () =
    let c = ref (-1) in
    dispatch_at := max_int;
    for i = 0 to n_clients - 1 do
      let q = queues.(i) in
      if q.len > 0 then begin
        let ready =
          if q.len >= batch then q.enqs.(ring_slot q (batch - 1))
          else q.enqs.(q.head) + batch_wait_ns
        in
        let start = max free.(i) ready in
        if start < !dispatch_at then begin
          c := i;
          dispatch_at := start
        end
      end
    done;
    !c
  in
  let dispatch start i =
    let q = queues.(i) in
    let k = min batch q.len in
    set_backlog start (!backlog - k);
    (* Deadline-aware shedding extends to dispatch: an op whose deadline
       already passed is dropped from the group, not served — the other
       policies model a server that cannot see client deadlines and
       serves it late. *)
    let n = ref 0 in
    for _ = 1 to k do
      let seq = q.seqs.(q.head) and enq = q.enqs.(q.head) in
      q.head <- ring_slot q 1;
      q.len <- q.len - 1;
      if deadline_aware && start > deadline_of seq then begin
        incr expired;
        fail_op start seq
      end
      else begin
        Fpb_obs.Histogram.record queue_ns (start - enq);
        buf.(!n) <- seq;
        incr n
      end
    done;
    let n = !n in
    if n > 0 then begin
      Clock.set clock start;
      exec ~client:i buf n;
      let finish = Clock.now clock in
      Fpb_obs.Histogram.record service_ns (finish - start);
      observe_service (finish - start);
      free.(i) <- finish;
      if finish > !last_finish then last_finish := finish;
      incr batches;
      for j = 0 to n - 1 do
        let seq = buf.(j) in
        let deadline = deadline_of seq in
        Fpb_obs.Histogram.record latency (finish - arrivals.(seq));
        incr completed;
        let in_deadline = finish <= deadline in
        if in_deadline then incr good
        else if deadline < max_int then incr expired;
        if seq >= p2_from then begin
          incr p2_completed;
          if in_deadline then incr p2_good
        end
      done
    end
  in
  let running = ref true in
  while !running do
    let ta = next_arrival_at () in
    let c = next_dispatch () in
    if c >= 0 && !dispatch_at < ta then dispatch !dispatch_at c
    else if ta < max_int then take_arrival ta
    else running := false
  done;
  Clock.set clock !last_finish;
  note_time !last_finish;
  let makespan_ns = !last_finish - t0 in
  let per_s n span = if span = 0 then 0. else float_of_int n *. 1e9 /. float_of_int span in
  let recovery =
    match rate_change with
    | None -> None
    | Some (j0, _) ->
        let span =
          if j0 < n_ops then max 0 (!last_finish - arrivals.(j0)) else 0
        in
        Some
          {
            w_offered = n_ops - j0;
            w_completed = !p2_completed;
            w_good = !p2_good;
            w_shed = !p2_shed;
            w_dropped = !p2_dropped;
            w_span_ns = span;
            w_goodput_ops_per_s = per_s !p2_good span;
          }
  in
  {
    clients = n_clients;
    ops = n_ops;
    discipline;
    offered_ops_per_s = rate_ops_per_s;
    makespan_ns;
    latency;
    queue_ns;
    service_ns;
    throughput_ops_per_s = per_s !completed makespan_ns;
    max_backlog = !max_backlog;
    backlog_peak_at_ns = !backlog_peak_at;
    time_above_watermark_ns = !above_ns;
    backlog_watermark = wm;
    completed = !completed;
    batches = !batches;
    good = !good;
    shed = !shed;
    expired = !expired;
    retries = !retries;
    dropped = !dropped;
    goodput_ops_per_s = per_s !good makespan_ns;
    deadline_ns;
    recovery;
  }

let run ~sim ~n_clients ~n_ops ~rate_ops_per_s ?(discipline = Poisson)
    ?(seed = 4242) ?deadline_ns ?(admission = Admission.Admit_all)
    ?(retry = Retry.none) ?rate_change ?backlog_watermark ?live_backlog op =
  serve ~who:"run" ~sim ~n_clients ~n_ops ~rate_ops_per_s ~discipline ~seed
    ~deadline_ns ~admission ~retry ~rate_change ~backlog_watermark
    ~live_backlog ~batch:1 ~batch_wait_ns:0 (fun ~client buf _ ->
      op ~client ~seq:buf.(0))

let run_batched ~sim ~n_clients ~n_ops ~rate_ops_per_s ?(discipline = Poisson)
    ?(seed = 4242) ?deadline_ns ?(admission = Admission.Admit_all)
    ?(retry = Retry.none) ?rate_change ?backlog_watermark ?live_backlog ~batch
    ~batch_wait_ns exec =
  serve ~who:"run_batched" ~sim ~n_clients ~n_ops ~rate_ops_per_s ~discipline
    ~seed ~deadline_ns ~admission ~retry ~rate_change ~backlog_watermark
    ~live_backlog ~batch ~batch_wait_ns (fun ~client buf n ->
      exec ~client (Array.sub buf 0 n))
