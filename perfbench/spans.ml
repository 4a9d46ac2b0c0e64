(* Host-side spans for the traced run.

   The benchmark wraps each public call it makes into the engine in a
   span: the op itself (id = its arrival [seq]), [Mix.next], the
   [Index_sig] call, the commit closure around [Wal.commit] and the
   [Shadow] checkpoint calls.  A span records host monotonic ns and
   simulated ns at both ends, plus the simmem busy/stall cycles and
   buffer-pool misses charged inside it.  Self time is the span minus
   the host time its children cover.

   Recording is uncharged: nothing here touches the simulated clock or
   any engine counter, so a traced run reproduces the untraced run's
   simulated metrics exactly.  Every span feeds the per-kind aggregates;
   only the first [cap] are kept for the trace file.  A recorder starts
   disabled, and while disabled [enter]/[leave] are a single branch. *)

open Fpb_simmem

type kind =
  | Op
  | Next
  | Search
  | Update
  | Insert
  | Scan
  | Commit
  | Ckpt_begin
  | Ckpt_tick

let n_kinds = 9

let index = function
  | Op -> 0
  | Next -> 1
  | Search -> 2
  | Update -> 3
  | Insert -> 4
  | Scan -> 5
  | Commit -> 6
  | Ckpt_begin -> 7
  | Ckpt_tick -> 8

let names =
  [|
    "op";
    "Mix.next";
    "Index_sig.search";
    "Index_sig.insert(update)";
    "Index_sig.insert";
    "Index_sig.range_scan";
    "Wal.commit";
    "Shadow.checkpoint_begin";
    "Shadow.checkpoint_tick";
  |]

let host_ns () = Int64.to_int (Monotonic_clock.now ())
let max_depth = 4

type t = {
  mutable enabled : bool;
  sim : Sim.t;
  pool_misses : Fpb_obs.Counter.t;
  (* open spans, innermost at [depth - 1] *)
  mutable depth : int;
  o_kind : int array;
  o_id : int array;
  o_host : int array;
  o_sim : int array;
  o_busy : int array;
  o_stall : int array;
  o_miss : int array;
  o_child : int array;  (** host ns covered by closed children *)
  (* per-kind aggregates over every closed span *)
  count : int array;
  host_total : int array;
  host_self : int array;
  sim_total : int array;
  (* the first [cap] closed spans *)
  cap : int;
  mutable kept : int;
  k_kind : int array;
  k_id : int array;
  k_depth : int array;
  k_host0 : int array;
  k_host1 : int array;
  k_sim0 : int array;
  k_sim1 : int array;
  k_busy : int array;
  k_stall : int array;
  k_miss : int array;
}

let create ~cap sim pool =
  let o () = Array.make max_depth 0 and a n = Array.make n 0 in
  {
    enabled = false;
    sim;
    pool_misses = (Fpb_storage.Buffer_pool.stats pool).Fpb_storage.Buffer_pool.misses;
    depth = 0;
    o_kind = o ();
    o_id = o ();
    o_host = o ();
    o_sim = o ();
    o_busy = o ();
    o_stall = o ();
    o_miss = o ();
    o_child = o ();
    count = a n_kinds;
    host_total = a n_kinds;
    host_self = a n_kinds;
    sim_total = a n_kinds;
    cap;
    kept = 0;
    k_kind = a cap;
    k_id = a cap;
    k_depth = a cap;
    k_host0 = a cap;
    k_host1 = a cap;
    k_sim0 = a cap;
    k_sim1 = a cap;
    k_busy = a cap;
    k_stall = a cap;
    k_miss = a cap;
  }

(* Switch recording on or off; only between ops. *)
let set_enabled t on = t.enabled <- on

let busy t = Fpb_obs.Counter.value t.sim.Sim.stats.Stats.busy
let stall t = Fpb_obs.Counter.value t.sim.Sim.stats.Stats.stall

let enter t kind id =
  if t.enabled then begin
    let d = t.depth in
    t.o_kind.(d) <- index kind;
    t.o_id.(d) <- id;
    t.o_sim.(d) <- Sim.now t.sim;
    t.o_busy.(d) <- busy t;
    t.o_stall.(d) <- stall t;
    t.o_miss.(d) <- Fpb_obs.Counter.value t.pool_misses;
    t.o_child.(d) <- 0;
    t.depth <- d + 1;
    t.o_host.(d) <- host_ns ()
  end

let leave t =
  if t.enabled then begin
    let h1 = host_ns () in
    let d = t.depth - 1 in
    t.depth <- d;
    let k = t.o_kind.(d) in
    let dur = h1 - t.o_host.(d) in
    let s1 = Sim.now t.sim in
    t.count.(k) <- t.count.(k) + 1;
    t.host_total.(k) <- t.host_total.(k) + dur;
    t.host_self.(k) <- t.host_self.(k) + dur - t.o_child.(d);
    t.sim_total.(k) <- t.sim_total.(k) + (s1 - t.o_sim.(d));
    if d > 0 then t.o_child.(d - 1) <- t.o_child.(d - 1) + dur;
    if t.kept < t.cap then begin
      let i = t.kept in
      t.kept <- i + 1;
      t.k_kind.(i) <- k;
      t.k_id.(i) <- t.o_id.(d);
      t.k_depth.(i) <- d;
      t.k_host0.(i) <- t.o_host.(d);
      t.k_host1.(i) <- h1;
      t.k_sim0.(i) <- t.o_sim.(d);
      t.k_sim1.(i) <- s1;
      t.k_busy.(i) <- busy t - t.o_busy.(d);
      t.k_stall.(i) <- stall t - t.o_stall.(d);
      t.k_miss.(i) <- Fpb_obs.Counter.value t.pool_misses - t.o_miss.(d)
    end
  end

(* Close every span opened below depth [d] (an engine call raised). *)
let unwind t d = while t.depth > d do leave t done
let depth t = t.depth

type totals = { n : int; host_ns : int; self_ns : int; sim_ns : int }

let totals t kind =
  let k = index kind in
  {
    n = t.count.(k);
    host_ns = t.host_total.(k);
    self_ns = t.host_self.(k);
    sim_ns = t.sim_total.(k);
  }

(* Kept spans as Chrome trace-event JSON (complete events, host µs;
   nesting follows from the intervals). *)
let to_chrome t =
  let module J = Fpb_obs.Json in
  let us ns = J.Float (float_of_int ns /. 1e3) in
  let origin = ref max_int in
  for i = 0 to t.kept - 1 do
    origin := min !origin t.k_host0.(i)
  done;
  let origin = !origin in
  let event i =
    J.Obj
      [
        ("name", J.Str names.(t.k_kind.(i)));
        ("ph", J.Str "X");
        ("pid", J.Int 1);
        ("tid", J.Int 1);
        ("ts", us (t.k_host0.(i) - origin));
        ("dur", us (t.k_host1.(i) - t.k_host0.(i)));
        ( "args",
          J.Obj
            [
              ("seq", J.Int t.k_id.(i));
              ("depth", J.Int t.k_depth.(i));
              ("sim_start_ns", J.Int t.k_sim0.(i));
              ("sim_end_ns", J.Int t.k_sim1.(i));
              ("busy_cycles", J.Int t.k_busy.(i));
              ("stall_cycles", J.Int t.k_stall.(i));
              ("pool_misses", J.Int t.k_miss.(i));
            ] );
      ]
  in
  J.Obj
    [
      ("displayTimeUnit", J.Str "ns");
      ("traceEvents", J.List (List.init t.kept event));
    ]
