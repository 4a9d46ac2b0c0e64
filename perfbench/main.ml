(* perfbench: the repository's benchmark.

   One process runs one named workload against the engine's public API
   and prints every metric by name with its unit; the last line of
   standard output is one JSON object
   [{"correct", "attempted", "failed", "metrics"}].

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--size full|small]
     main.exe capacity --workload NAME [--seed N] [--size full|small]
     main.exe catalogue

   Requests are driven open loop on the simulated clock by
   [Arrival.run]: Poisson arrivals at a fixed offered rate (60% of the
   closed-loop capacity recorded in [spec]) over 4 logical clients, in
   rounds of [round_ops] arrivals.  A run measures one window of
   [ops_per_second * --seconds] ops, so a seed and a length reproduce
   every simulated and counter metric exactly; host throughput is the
   window's completed ops per calibrated second (see [reference]).

   [--trace 0] sets the system up [setups] times (setup_s is the
   median), runs the window on the last one and reports the end-to-end
   metrics.  [--trace 1] runs the window untraced, then again on a
   second system from the same seed with every other round traced;
   the two must agree on every simulated number, and it reports the
   per-layer metrics.  [capacity] measures the closed-loop capacity an
   offered rate is derived from; [catalogue] prints the workloads and
   metrics.

   Every result is checked by [Oracle] after the timed phase; any
   failure makes the exit code 1. *)

open Fpb_simmem
open Fpb_storage
open Fpb_btree_common
open Fpb_wal
open Fpb_snapshot
open Fpb_replica
module W = Fpb_workload
module H = Fpb_obs.Histogram
module J = Fpb_obs.Json

let n_clients = 4

(* Every tree is bulk-loaded full, as in the paper's search
   experiments, and every pool runs the experiments' 8 prefetchers. *)
let fill = 1.0
let n_prefetchers = 8

(* Kept spans per traced run (all spans feed the aggregates). *)
let trace_cap = 20_000

type layout = Cache_first | Disk_first

type spec = {
  name : string;
  why : string;
  layout : layout;
  keys : int;  (** bulk-loaded keys *)
  page_size : int;
  pool_pages : int;
  n_disks : int;
  mix : W.Mix.t;
  dist : W.Keygen.dist;
  max_scan_span : int;
  durable : bool;  (** WAL + fuzzy shadow checkpoints + semi-sync replica *)
  capacity_ops_per_s : float;
      (** closed-loop capacity (simulated ops/s) the offered rate is
          60% of, measured with [capacity] at full size *)
  round_ops : int;
  ops_per_second : int;
      (** window ops per [--seconds] second: sized so a window lasts
          about that long on a 2-vCPU host, within the memory a
          run may take *)
  warmup_ops : int;
}

let lookup_cached =
  {
    name = "lookup-cached";
    why =
      "Uniform point reads on a cache-first tree the pool holds whole: simmem \
       charging and core descent do the work; the disks are idle and no WAL \
       runs.";
    layout = Cache_first;
    keys = 1_000_000;
    page_size = 16384;
    pool_pages = 1024;
    n_disks = 10;
    mix = W.Mix.c;
    dist = W.Keygen.Uniform;
    max_scan_span = 1;
    durable = false;
    capacity_ops_per_s = 1_235_815.1;
    round_ops = 20_000;
    ops_per_second = 80_000;
    warmup_ops = 20_000;
  }

let scan_cold =
  {
    name = "scan-cold";
    why =
      "YCSB-E range scans on a disk-first tree 13-20x its pool: pool misses, \
       jump-pointer prefetch and per-disk queueing dominate, a path \
       lookup-cached bypasses.";
    layout = Disk_first;
    keys = 1_000_000;
    page_size = 16384;
    pool_pages = 48;
    n_disks = 10;
    mix = W.Mix.e;
    dist = W.Keygen.Uniform;
    max_scan_span = 2000;
    durable = false;
    capacity_ops_per_s = 113.4;
    round_ops = 500;
    ops_per_second = 3_600;
    warmup_ops = 200;
  }

let update_durable =
  {
    name = "update-durable";
    why =
      "Zipfian writes beside reads, each committed through the WAL to a \
       semi-sync replica with fuzzy checkpoints: splits, log forces, \
       write-back and acks happen only here.";
    layout = Disk_first;
    keys = 200_000;
    page_size = 4096;
    pool_pages = 427;
    n_disks = 4;
    mix = W.Mix.make ~name:"read50-update25-insert25" ~read:50 ~update:25 ~insert:25 ~scan:0 ~rmw:0;
    dist = W.Keygen.Zipfian { theta = W.Keygen.default_theta; scrambled = true };
    max_scan_span = 1;
    durable = true;
    capacity_ops_per_s = 235.2;
    round_ops = 4_000;
    ops_per_second = 9_600;
    warmup_ops = 2_000;
  }

let specs = [ lookup_cached; scan_cold; update_durable ]

let fi = float_of_int

(* The self-test size: a tenth of the keys and pool, a fifth of the
   ops. *)
let small spec =
  {
    spec with
    keys = spec.keys / 10;
    pool_pages = max 32 (spec.pool_pages / 10);
    round_ops = max 100 (spec.round_ops / 5);
    ops_per_second = spec.ops_per_second / 5;
    warmup_ops = max 100 (spec.warmup_ops / 5);
  }

(* Rounds in the window of a [seconds]-long run (at least two). *)
let rounds spec ~seconds =
  max 2
    (int_of_float (Float.ceil (seconds *. fi spec.ops_per_second /. fi spec.round_ops)))

let rate spec = 0.6 *. spec.capacity_ops_per_s
let user_bytes_per_key = 8

(* Host speed moves with the machine: on a shared virtual machine the
   same loop runs up to 1.7x faster or slower from one ten-second
   stretch to the next.  A fixed reference loop (integer mixing and an
   L1-resident table, independent of the engine) is timed after every
   round and every set-up, and host rates and times are reported in
   calibrated seconds: wall time scaled to a machine on which the loop
   takes [reference_nominal_ns]. *)
let reference_table = Array.init 1024 (fun i -> i * 31)
let reference_nominal_ns = 60_000_000

let reference () =
  let h0 = Spans.host_ns () in
  let x = ref 12345 and acc = ref 0 in
  for _ = 1 to 20_000_000 do
    x := ((!x * 0x5851F42D4C957F2D) + 0x14057B7EF767814F) lxor (!x lsr 29);
    acc := !acc + reference_table.(!x land 1023)
  done;
  ignore (Sys.opaque_identity !acc : int);
  Spans.host_ns () - h0

let calibrated ns ~reference_ns = fi ns *. fi reference_nominal_ns /. fi reference_ns

(* ------------------------------------------------------------------ *)
(* System set-up *)

type durable = {
  wal : Wal.t;
  shadow : Shadow.t;
  group : Replica.t;
  mutable committed : int;
  ckpt_every : int;  (** ops between fuzzy checkpoint begins *)
}

type system = {
  spec : spec;
  pairs : (int * int) array;
  sim : Sim.t;
  disks : Disk_model.t;
  pool : Buffer_pool.t;
  idx : Index_sig.instance;
  gen : W.Mix.gen;
  dur : durable option;
  live_backlog : int ref;
  arrival_seed : int;
}

let make_index layout pool : Index_sig.instance =
  match layout with
  | Cache_first ->
      Index_sig.Instance ((module Fpb_core.Cache_first), Fpb_core.Cache_first.create pool)
  | Disk_first ->
      Index_sig.Instance ((module Fpb_core.Disk_first), Fpb_core.Disk_first.create pool)

(* Key generation, bulkload, WAL/shadow/replica attachment and a
   read-only warm-up under the workload's own key distribution (scans
   for a scan mix), so the pool and simulated caches start warm.  All
   randomness derives from [seed]; fuzzy checkpoints begin 8 times per
   [window_ops]. *)
let setup spec ~seed ~window_ops =
  let master = W.Prng.create seed in
  let keys_rng = W.Prng.split master in
  let net_rng = W.Prng.split master in
  let draw () = W.Prng.int master 0x3fff_ffff in
  let pairs = W.Keygen.bulk_pairs keys_rng spec.keys in
  let sim = Sim.create () in
  let store = Page_store.create ~page_size:spec.page_size ~n_disks:spec.n_disks in
  let disks =
    Disk_model.create
      ~transfer_ns:(Disk_model.transfer_ns_of_page_size spec.page_size)
      ~n_disks:spec.n_disks sim.Sim.clock
  in
  let pool =
    Buffer_pool.create ~n_prefetchers ~capacity:spec.pool_pages
      sim store disks
  in
  let idx = make_index spec.layout pool in
  Index_sig.bulkload idx pairs ~fill;
  let live_backlog = ref 0 in
  let dur =
    if not spec.durable then None
    else begin
      let meta = Index_sig.meta idx in
      let wal = Wal.attach ~group_commit_bytes:(1 lsl 16) ~meta pool in
      let shadow = Shadow.attach ~meta wal pool in
      Shadow.set_backpressure shadow
        (Some (fun () -> !live_backlog > 2 * n_clients));
      let group =
        Replica.create ~config:Replica.default_config ~prng:net_rng
          ~profiles:[ Net.default_profile ] (wal, pool)
      in
      Some
        {
          wal;
          shadow;
          group;
          committed = 0;
          ckpt_every = max 1 (window_ops / 8);
        }
    end
  in
  let warm_mix =
    if spec.mix.W.Mix.scan > 0 then
      W.Mix.make ~name:"warm" ~read:0 ~update:0 ~insert:0 ~scan:100 ~rmw:0
    else W.Mix.make ~name:"warm" ~read:100 ~update:0 ~insert:0 ~scan:0 ~rmw:0
  in
  let warm =
    W.Mix.generator ~max_scan_span:spec.max_scan_span ~dist:spec.dist
      ~seed:(draw ()) warm_mix pairs
  in
  for _ = 1 to spec.warmup_ops do
    W.Mix.execute idx (W.Mix.next warm)
  done;
  let gen =
    W.Mix.generator ~max_scan_span:spec.max_scan_span ~dist:spec.dist
      ~seed:(draw ()) spec.mix pairs
  in
  { spec; pairs; sim; disks; pool; idx; gen; dur; live_backlog; arrival_seed = draw () }

(* [f ()] and the calibrated seconds it took. *)
let timed f =
  let h0 = Spans.host_ns () in
  let r = f () in
  let ns = Spans.host_ns () - h0 in
  (r, calibrated ns ~reference_ns:(reference ()) /. 1e9)

(* ------------------------------------------------------------------ *)
(* The op: draw, dispatch through Index_sig, commit, log *)

type run = {
  sys : system;
  tracer : Spans.t;
  log : Oracle.log;
  mutable finish : int array;  (** per seq of the current round *)
  mutable service : int array;
  mutable dispatched : int;
}

let scan_sink (_ : int) (_ : int) = ()

let commit r seq =
  match r.sys.dur with
  | None -> ()
  | Some d ->
      Spans.enter r.tracer Spans.Commit seq;
      d.committed <- d.committed + 1;
      Wal.commit d.wal ~op:d.committed ~meta:(Index_sig.meta r.sys.idx);
      Spans.leave r.tracer

(* Fuzzy checkpoints ride along the ops: a pass begins every
   [ckpt_every] ops and hardens two pages per op until it flips. *)
let checkpoint_step r seq =
  match r.sys.dur with
  | None -> ()
  | Some d ->
      if Shadow.checkpoint_in_progress d.shadow then begin
        Spans.enter r.tracer Spans.Ckpt_tick seq;
        (* a flip advances the WAL's retention floor; the shipping
           archive releases the same records *)
        if Shadow.checkpoint_tick ~pages:2 d.shadow ~meta:(Index_sig.meta r.sys.idx)
        then
          ignore
            (Replica.trim_archive d.group ~below_lsn:(Shadow.retention_lsn d.shadow) : int);
        Spans.leave r.tracer
      end
      else if (r.dispatched + 1) mod d.ckpt_every = 0 then begin
        Spans.enter r.tracer Spans.Ckpt_begin seq;
        Shadow.checkpoint_begin d.shadow;
        Spans.leave r.tracer
      end

let write r seq kind code k v =
  Spans.enter r.tracer kind seq;
  let res = Index_sig.insert r.sys.idx k v in
  Spans.leave r.tracer;
  commit r seq;
  Oracle.record r.log code k v
    (match res with `Inserted -> Oracle.inserted | `Updated -> Oracle.updated)

let action_key = function
  | W.Mix.Read k | W.Mix.Update (k, _) | W.Mix.Insert (k, _)
  | W.Mix.Scan (k, _) | W.Mix.Rmw (k, _) ->
      k

let op r ~client:(_ : int) ~seq =
  let s = r.sys and tr = r.tracer in
  let start = Sim.now s.sim in
  Spans.enter tr Spans.Op seq;
  let depth = Spans.depth tr and logged = r.log.Oracle.n in
  Spans.enter tr Spans.Next seq;
  let action = W.Mix.next s.gen in
  Spans.leave tr;
  (try
     match action with
     | W.Mix.Read k ->
         Spans.enter tr Spans.Search seq;
         let v = Index_sig.search s.idx k in
         Spans.leave tr;
         Oracle.record r.log Oracle.read k 0
           (match v with Some v -> v | None -> Oracle.absent)
     | W.Mix.Update (k, v) -> write r seq Spans.Update Oracle.update k v
     | W.Mix.Insert (k, v) -> write r seq Spans.Insert Oracle.insert k v
     | W.Mix.Scan (lo, hi) ->
         Spans.enter tr Spans.Scan seq;
         let n = Index_sig.range_scan s.idx ~start_key:lo ~end_key:hi scan_sink in
         Spans.leave tr;
         Oracle.record r.log Oracle.scan lo hi n
     | W.Mix.Rmw _ -> invalid_arg "perfbench: no workload draws read-modify-write"
   with Buffer_pool.Overloaded _ | Buffer_pool.Io_error _ ->
     Spans.unwind tr depth;
     r.log.Oracle.n <- logged;
     Oracle.record r.log Oracle.failed (action_key action) 0 0);
  checkpoint_step r seq;
  Spans.leave tr;
  r.dispatched <- r.dispatched + 1;
  let now = Sim.now s.sim in
  r.service.(seq) <- now - start;
  r.finish.(seq) <- now

(* ------------------------------------------------------------------ *)
(* Rounds *)

type round = {
  ops : int;  (** completed *)
  lost : int;  (** shed, dropped or never completed *)
  wall_ns : int;
  reference_ns : int;  (** the reference loop, timed after the round *)
  minor_words : float;
  gc_minor : int;  (** minor collections *)
  gc_major : int;  (** major cycles completed *)
  gc_promoted : float;  (** words promoted *)
  traced : bool;
  latency : int array;  (** arrival -> completion, completed ops *)
  service : int array;
  queue : int array;
  max_backlog : int;
}

(* The arrival schedule [Arrival.run] draws for [seed]: it does not
   expose per-op arrival times, so they are redrawn here and the
   resulting latencies are checked against its own latency histogram
   (count, sum and max must agree exactly). *)
let schedule ~t0 ~seed ~rate n =
  let rng = W.Prng.create seed in
  let t = ref (float_of_int t0) in
  Array.init n (fun _ ->
      t := !t +. W.Prng.exponential rng ~mean:(1e9 /. rate);
      int_of_float !t)

exception Harness of string

let run_round r i =
  let s = r.sys in
  let n = s.spec.round_ops and rate = rate s.spec in
  let seed = s.arrival_seed + i in
  let arrivals = schedule ~t0:(Sim.now s.sim) ~seed ~rate n in
  r.finish <- Array.make n (-1);
  r.service <- Array.make n 0;
  Oracle.reserve r.log n;
  let op = op r in
  let g0 = Gc.quick_stat () in
  let w0 = Gc.minor_words () in
  let h0 = Spans.host_ns () in
  let st =
    W.Arrival.run ~sim:s.sim ~n_clients ~n_ops:n ~rate_ops_per_s:rate ~seed
      ~live_backlog:s.live_backlog op
  in
  let h1 = Spans.host_ns () in
  let w1 = Gc.minor_words () in
  let g1 = Gc.quick_stat () in
  let reference_ns = reference () in
  let done_ = List.filter (fun j -> r.finish.(j) >= 0) (List.init n Fun.id) in
  let pick f = Array.of_list (List.map f done_) in
  let latency = pick (fun j -> r.finish.(j) - arrivals.(j)) in
  let service = pick (fun j -> r.service.(j)) in
  let sum = Array.fold_left ( + ) 0 latency in
  if
    Array.length latency <> st.W.Arrival.completed
    || sum <> H.sum st.W.Arrival.latency
    || Array.fold_left max 0 latency <> H.max_value st.W.Arrival.latency
  then raise (Harness "arrival schedule does not match Arrival.run's latency histogram");
  {
    ops = st.W.Arrival.completed;
    lost = n - st.W.Arrival.completed;
    wall_ns = h1 - h0;
    reference_ns;
    minor_words = w1 -. w0;
    traced = r.tracer.Spans.enabled;
    gc_minor = g1.Gc.minor_collections - g0.Gc.minor_collections;
    gc_major = g1.Gc.major_collections - g0.Gc.major_collections;
    gc_promoted = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    latency;
    service;
    queue = Array.map2 ( - ) latency service;
    max_backlog = st.W.Arrival.max_backlog;
  }

(* ------------------------------------------------------------------ *)
(* Measured phase *)

let counters sys =
  let base =
    Stats.kv sys.sim.Sim.stats @ Buffer_pool.kv sys.pool @ Disk_model.kv sys.disks
  in
  match sys.dur with
  | None -> base
  | Some d -> base @ Wal.kv d.wal @ Shadow.kv d.shadow @ Replica.kv d.group

let delta c1 c0 =
  List.map (fun (k, v) -> (k, v - Option.value (List.assoc_opt k c0) ~default:0)) c1

(* Histograms the window reads directly (reset at its start). *)
let window_histograms sys =
  match sys.dur with
  | None -> []
  | Some d ->
      [
        ("commit", Wal.commit_latency d.wal);
        ("ack", Replica.ack_wait d.group);
        ("flip", Shadow.flip_stall d.shadow);
      ]

type window = {
  rounds : round list;
  sim_ns : int;  (** simulated makespan of the window *)
  counts : (string * int) list;  (** counter deltas *)
  levels : int array;  (** page accesses per level *)
  hists : (string * H.t) list;
  height : int;
  pages : int;
  live_keys : int;
  top_heap_words : int;
  tracer : Spans.t;
  verdict : Oracle.verdict;
}

(* One measured window of [rounds] rounds on a system: counters are
   read as deltas around it, the rounds for which [traced] holds record
   spans, and every result is checked after the last round. *)
let phase sys ~rounds ~traced =
  let tracer = Spans.create ~cap:trace_cap sys.sim sys.pool in
  let run =
    { sys; tracer; log = Oracle.create_log (); finish = [||]; service = [||]; dispatched = 0 }
  in
  let hists = window_histograms sys in
  List.iter (fun (_, h) -> H.reset h) hists;
  let c0 = counters sys and l0 = Array.copy (Index_sig.level_accesses sys.idx) in
  let t0 = Sim.now sys.sim in
  let rounds =
    List.init rounds (fun i ->
        Spans.set_enabled tracer (traced i);
        run_round run i)
  in
  let l1 = Index_sig.level_accesses sys.idx in
  {
    rounds;
    sim_ns = Sim.now sys.sim - t0;
    counts = delta (counters sys) c0;
    levels = Array.mapi (fun i v -> v - if i < Array.length l0 then l0.(i) else 0) l1;
    hists;
    height = Index_sig.height sys.idx;
    pages = Index_sig.page_count sys.idx;
    live_keys = W.Mix.live_keys sys.gen;
    top_heap_words = (Gc.stat ()).Gc.top_heap_words;
    tracer;
    verdict = Oracle.check ~pairs:sys.pairs run.log sys.idx;
  }

(* ------------------------------------------------------------------ *)
(* Metrics *)

let concat f rounds = Array.concat (List.map f rounds)

(* Nearest-rank percentile of an unsorted sample. *)
let percentile a p =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else float_of_int a.(max 0 (int_of_float (ceil (p /. 100. *. float_of_int n)) - 1))

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0. else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let ratio a b = if b = 0. then 0. else a /. b
let ops w = List.fold_left (fun acc r -> acc + r.ops) 0 w.rounds
let lost w = List.fold_left (fun acc r -> acc + r.lost) 0 w.rounds
let count w k = fi (Option.value (List.assoc_opt k w.counts) ~default:0)
let per_op w k = ratio (count w k) (fi (ops w))
let hist_stat w k f =
  match List.assoc_opt k w.hists with Some h -> f h | None -> 0.

let round_rate r = fi r.ops *. 1e9 /. fi r.wall_ns
let total f rounds = List.fold_left (fun acc r -> acc +. f r) 0. rounds
let wall_ops_per_s rounds = total (fun r -> fi r.ops) rounds *. 1e9 /. total (fun r -> fi r.wall_ns) rounds

(* Completed ops per calibrated second over the rounds. *)
let host_ops_per_s rounds =
  total (fun r -> fi r.ops) rounds *. 1e9
  /. total (fun r -> calibrated r.wall_ns ~reference_ns:r.reference_ns) rounds

let latencies w = concat (fun r -> r.latency) w.rounds

(* The metrics, by name: unit, which direction is better, and (for the
   per-layer ones) the end-to-end metric each should move and on which
   workloads.  [perfbench/catalogue.json] is printed from these lists
   and BENCHMARK.json lists the same names. *)
type entry = { metric : string; unit : string; better : string; moves : string }

let e metric unit better moves = { metric; unit; better; moves }
let all = "lookup-cached, scan-cold, update-durable"
let io = "scan-cold, update-durable"

let end_to_end_catalogue =
  [
    e "sim_p50_ns" "ns" "lower" "";
    e "sim_p99_ns" "ns" "lower" "";
    e "host_ops_per_s" "ops/s" "higher" "";
    e "host_alloc_words_per_op" "words" "lower" "";
    e "host_peak_heap_mb" "MB" "lower" "";
    e "setup_s" "s" "lower" "";
    e "space_bytes_per_user_byte" "ratio" "lower" "";
  ]

let layer_catalogue =
  let p50 = "sim_p50_ns @ " and p99 = "sim_p99_ns @ " and host = "host_ops_per_s @ " in
  [
    e "workload.latency_samples" "count" "higher" ("sample count of sim_p50_ns, sim_p99_ns @ " ^ all);
    e "workload.queue_p50_ns" "ns" "lower" (p99 ^ io);
    e "workload.queue_p99_ns" "ns" "lower" (p99 ^ io);
    e "workload.backlog_max" "count" "lower" (p99 ^ io);
    e "workload.service_p50_ns" "ns" "lower" (p50 ^ all);
    e "workload.service_p99_ns" "ns" "lower" (p50 ^ all);
    e "workload.host_ns_per_op" "ns" "lower" (host ^ "lookup-cached");
    e "core.pages_per_op" "count" "lower" (p50 ^ "lookup-cached; storage.pool_misses_per_op @ scan-cold");
    e "core.level0_pages_per_op" "count" "lower" (p50 ^ "lookup-cached; storage.pool_misses_per_op @ scan-cold");
    e "core.level1_pages_per_op" "count" "lower" (p50 ^ "lookup-cached; storage.pool_misses_per_op @ scan-cold");
    e "core.level2_pages_per_op" "count" "lower" (p50 ^ "lookup-cached; storage.pool_misses_per_op @ scan-cold");
    e "core.level3_pages_per_op" "count" "lower" (p50 ^ "lookup-cached; storage.pool_misses_per_op @ scan-cold");
    e "core.height" "count" "lower" "space_bytes_per_user_byte @ update-durable";
    e "core.pages" "count" "lower" "space_bytes_per_user_byte @ update-durable";
    e "core.host_ns_per_read" "ns" "lower" (host ^ "lookup-cached, update-durable");
    e "core.host_ns_per_update" "ns" "lower" (host ^ "update-durable");
    e "core.host_ns_per_insert" "ns" "lower" (host ^ "update-durable, scan-cold");
    e "core.host_ns_per_scan" "ns" "lower" (host ^ "scan-cold");
    e "core.sim_ns_per_read" "ns" "lower" (p50 ^ "lookup-cached, update-durable");
    e "core.sim_ns_per_update" "ns" "lower" (p50 ^ "update-durable");
    e "core.sim_ns_per_insert" "ns" "lower" (p50 ^ "update-durable, scan-cold");
    e "core.sim_ns_per_scan" "ns" "lower" (p50 ^ "scan-cold");
    e "simmem.busy_cycles_per_op" "cycles" "lower" (p50 ^ "lookup-cached");
    e "simmem.stall_cycles_per_op" "cycles" "lower" (p50 ^ "lookup-cached");
    e "simmem.l1_hits_per_op" "count" "higher" (p50 ^ "lookup-cached");
    e "simmem.l2_hits_per_op" "count" "higher" (p50 ^ "lookup-cached");
    e "simmem.mem_misses_per_op" "count" "lower" (p50 ^ "lookup-cached");
    e "simmem.prefetch_useful_ratio" "ratio" "higher" (p50 ^ "lookup-cached");
    e "simmem.prefetch_waits_per_op" "count" "lower" (p50 ^ "lookup-cached");
    e "storage.pool_hit_ratio" "ratio" "higher" (p50 ^ io ^ "; sim_p99_ns @ " ^ io);
    e "storage.pool_misses_per_op" "count" "lower" (p50 ^ io ^ "; sim_p99_ns @ " ^ io);
    e "storage.pool_evictions_per_op" "count" "lower" (p50 ^ io ^ "; sim_p99_ns @ " ^ io);
    e "storage.pool_io_wait_ns_per_op" "ns" "lower" (p50 ^ io ^ "; sim_p99_ns @ " ^ io);
    e "storage.pool_prefetch_useful_ratio" "ratio" "higher" (p50 ^ io ^ "; sim_p99_ns @ " ^ io);
    e "storage.pool_prefetch_dropped" "count" "lower" (p50 ^ io ^ "; sim_p99_ns @ " ^ io);
    e "storage.pool_overloaded" "count" "lower" ("oracle.failed_op_share @ " ^ all);
    e "storage.disk_reads_per_op" "count" "lower" (p50 ^ io ^ "; sim_p99_ns @ " ^ io);
    e "storage.disk_writes_per_op" "count" "lower" (p50 ^ io ^ "; sim_p99_ns @ " ^ io);
    e "storage.disk_utilization" "ratio" "lower" (p50 ^ io ^ "; sim_p99_ns @ " ^ io);
    e "wal.flushes_per_commit" "count" "lower" (p99 ^ "update-durable");
    e "wal.log_bytes_per_user_byte" "ratio" "lower" (p99 ^ "update-durable");
    e "wal.commit_p99_ns" "ns" "lower" (p99 ^ "update-durable");
    e "wal.flush_wait_ns_per_op" "ns" "lower" (p99 ^ "update-durable");
    e "wal.deferred_writebacks" "count" "lower" (p99 ^ "update-durable");
    e "wal.host_ns_per_commit" "ns" "lower" (host ^ "update-durable");
    e "snapshot.checkpoints" "count" "higher" (p99 ^ "update-durable");
    e "snapshot.flip_stall_max_ns" "ns" "lower" (p99 ^ "update-durable");
    e "snapshot.yields" "count" "lower" (p99 ^ "update-durable");
    e "snapshot.host_ns_per_tick" "ns" "lower" (p99 ^ "update-durable");
    e "replica.ack_wait_p50_ns" "ns" "lower" (p50 ^ "update-durable; sim_p99_ns @ update-durable");
    e "replica.ack_wait_p99_ns" "ns" "lower" (p50 ^ "update-durable; sim_p99_ns @ update-durable");
    e "replica.net_bytes_per_commit" "bytes" "lower" (p50 ^ "update-durable; sim_p99_ns @ update-durable");
    e "replica.retransmits" "count" "lower" (p50 ^ "update-durable; sim_p99_ns @ update-durable");
    e "host.wall_ops_per_s" "ops/s" "higher" ("host_ops_per_s, before calibration @ " ^ all);
    e "host.reference_ns" "ns" "lower" ("calibration of host_ops_per_s @ " ^ all);
    e "gc.minor_collections_per_kop" "count" "lower" (host ^ all);
    e "gc.major_collections" "count" "lower" (host ^ all);
    e "gc.promoted_words_per_op" "words" "lower" (host ^ all);
    e "sim.service_ns_per_op" "ns" "lower" (p50 ^ all);
    e "sim.busy_ns_per_op" "ns" "lower" (p50 ^ all);
    e "sim.stall_ns_per_op" "ns" "lower" (p50 ^ all);
    e "sim.pool_wait_ns_per_op" "ns" "lower" (p50 ^ all);
    e "sim.wal_flush_wait_ns_per_op" "ns" "lower" (p50 ^ all);
    e "sim.ack_wait_ns_per_op" "ns" "lower" (p50 ^ all);
    e "sim.flip_stall_ns_per_op" "ns" "lower" (p50 ^ all);
    e "sim.unattributed_ns_per_op" "ns" "lower" (p50 ^ all);
    e "trace.overhead_share" "share" "lower" ("traced host_ops_per_s @ " ^ all);
    e "trace.spans" "count" "higher" ("per-layer host_ns_* @ " ^ all);
    e "oracle.failed_op_share" "share" "lower" ("failed @ " ^ all);
  ]

let space w spec =
  ratio (fi (w.pages * spec.page_size)) (fi (w.live_keys * user_bytes_per_key))

let end_to_end spec w ~setup_s =
  let lat = latencies w in
  [
    ("sim_p50_ns", percentile lat 50.);
    ("sim_p99_ns", percentile lat 99.);
    ("host_ops_per_s", host_ops_per_s w.rounds);
    ( "host_alloc_words_per_op",
      ratio (List.fold_left (fun acc r -> acc +. r.minor_words) 0. w.rounds) (fi (ops w)) );
    ("host_peak_heap_mb", fi (w.top_heap_words * (Sys.word_size / 8)) /. 1e6);
    ("setup_s", setup_s);
    ("space_bytes_per_user_byte", space w spec);
  ]

(* Counter metrics come from the untraced window [w], host-time ones
   from the traced rounds of [traced]. *)
let per_layer spec w ~traced ~overhead =
  let n = fi (ops w) in
  let c = count w in
  let queue = concat (fun r -> r.queue) w.rounds in
  let service = concat (fun r -> r.service) w.rounds in
  let tot k = Spans.totals traced.tracer k in
  let host_per k = let t = tot k in ratio (fi t.Spans.host_ns) (fi t.Spans.n) in
  let sim_per k = let t = tot k in ratio (fi t.Spans.sim_ns) (fi t.Spans.n) in
  let level i = ratio (fi (if i < Array.length w.levels then w.levels.(i) else 0)) n in
  let writes = c "wal.commits" in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 w.rounds in
  (* workload-layer time: the traced rounds' wall time outside the
     engine calls (Arrival.run's own work, Mix.next and the op's self
     time) *)
  let on = List.filter (fun r -> r.traced) traced.rounds in
  let traced_ops = List.fold_left (fun acc r -> acc + r.ops) 0 on in
  let op = tot Spans.Op in
  let engine_ns = op.Spans.host_ns - op.Spans.self_ns - (tot Spans.Next).Spans.host_ns in
  let workload_ns = List.fold_left (fun acc r -> acc + r.wall_ns) 0 on - engine_ns in
  let spans =
    List.fold_left (fun acc k -> acc + (tot k).Spans.n) 0
      Spans.[ Op; Next; Search; Update; Insert; Scan; Commit; Ckpt_begin; Ckpt_tick ]
  in
  let io_pool = [ "pool.io_wait_ns"; "pool.shard.waits_ns"; "pool.overload_wait_ns" ] in
  let hsum k = hist_stat w k (fun h -> fi (H.sum h)) in
  let budget =
    [
      ("sim.busy_ns_per_op", c "sim.busy_cycles");
      ("sim.stall_ns_per_op", c "sim.stall_cycles");
      ("sim.pool_wait_ns_per_op", List.fold_left (fun acc k -> acc +. c k) 0. io_pool);
      ("sim.wal_flush_wait_ns_per_op", c "wal.flush_wait_ns");
      ("sim.ack_wait_ns_per_op", hsum "ack");
      ("sim.flip_stall_ns_per_op", hsum "flip");
    ]
  in
  (* what an op was charged, part by part; the rest of its service time
     is unattributed (negative when two counters overlap) *)
  let service_ns = fi (Array.fold_left ( + ) 0 service) in
  let attributed = List.fold_left (fun acc (_, v) -> acc +. v) 0. budget in
  [
    ("workload.latency_samples", fi (Array.length (latencies w)));
    ("workload.queue_p50_ns", percentile queue 50.);
    ("workload.queue_p99_ns", percentile queue 99.);
    ("workload.backlog_max", fi (List.fold_left (fun acc r -> max acc r.max_backlog) 0 w.rounds));
    ("workload.service_p50_ns", percentile service 50.);
    ("workload.service_p99_ns", percentile service 99.);
    ("workload.host_ns_per_op", ratio (fi workload_ns) (fi traced_ops));
    ("core.pages_per_op", ratio (fi (Array.fold_left ( + ) 0 w.levels)) n);
    ("core.level0_pages_per_op", level 0);
    ("core.level1_pages_per_op", level 1);
    ("core.level2_pages_per_op", level 2);
    ("core.level3_pages_per_op", level 3);
    ("core.height", fi w.height);
    ("core.pages", fi w.pages);
    ("core.host_ns_per_read", host_per Spans.Search);
    ("core.host_ns_per_update", host_per Spans.Update);
    ("core.host_ns_per_insert", host_per Spans.Insert);
    ("core.host_ns_per_scan", host_per Spans.Scan);
    ("core.sim_ns_per_read", sim_per Spans.Search);
    ("core.sim_ns_per_update", sim_per Spans.Update);
    ("core.sim_ns_per_insert", sim_per Spans.Insert);
    ("core.sim_ns_per_scan", sim_per Spans.Scan);
    ("simmem.busy_cycles_per_op", per_op w "sim.busy_cycles");
    ("simmem.stall_cycles_per_op", per_op w "sim.stall_cycles");
    ("simmem.l1_hits_per_op", per_op w "sim.l1_hits");
    ("simmem.l2_hits_per_op", per_op w "sim.l2_hits");
    ("simmem.mem_misses_per_op", per_op w "sim.mem_misses");
    ("simmem.prefetch_useful_ratio", ratio (c "sim.prefetch_useful") (c "sim.prefetch_issued"));
    ("simmem.prefetch_waits_per_op", per_op w "sim.prefetch_waits");
    ("storage.pool_hit_ratio", ratio (c "pool.hits") (c "pool.hits" +. c "pool.misses"));
    ("storage.pool_misses_per_op", per_op w "pool.misses");
    ("storage.pool_evictions_per_op", per_op w "pool.evictions");
    ("storage.pool_io_wait_ns_per_op", per_op w "pool.io_wait_ns");
    ("storage.pool_prefetch_useful_ratio", ratio (c "pool.prefetch_hits") (c "pool.prefetch_issued"));
    ("storage.pool_prefetch_dropped", c "pool.prefetch_dropped");
    ("storage.pool_overloaded", c "pool.overloaded");
    ("storage.disk_reads_per_op", per_op w "disk.reads");
    ("storage.disk_writes_per_op", per_op w "disk.writes");
    ("storage.disk_utilization", ratio (c "disk.busy_ns") (fi (spec.n_disks * w.sim_ns)));
    ("wal.flushes_per_commit", ratio (c "wal.flushes") writes);
    ("wal.log_bytes_per_user_byte", ratio (c "wal.log_bytes") (writes *. fi user_bytes_per_key));
    ("wal.commit_p99_ns", hist_stat w "commit" (fun h -> fi (H.percentile h 99.)));
    ("wal.flush_wait_ns_per_op", per_op w "wal.flush_wait_ns");
    ("wal.deferred_writebacks", c "wal.deferred_writebacks");
    ("wal.host_ns_per_commit", host_per Spans.Commit);
    ("snapshot.checkpoints", c "ckpt.flips");
    ("snapshot.flip_stall_max_ns", hist_stat w "flip" (fun h -> fi (H.max_value h)));
    ("snapshot.yields", c "ckpt.yields");
    ("snapshot.host_ns_per_tick", host_per Spans.Ckpt_tick);
    ("replica.ack_wait_p50_ns", hist_stat w "ack" (fun h -> fi (H.percentile h 50.)));
    ("replica.ack_wait_p99_ns", hist_stat w "ack" (fun h -> fi (H.percentile h 99.)));
    ("replica.net_bytes_per_commit", ratio (c "net.bytes") writes);
    ("replica.retransmits", c "net.retransmits");
    ("host.wall_ops_per_s", wall_ops_per_s w.rounds);
    ("host.reference_ns", median (List.map (fun r -> fi r.reference_ns) w.rounds));
    ("gc.minor_collections_per_kop", ratio (fi (sum (fun r -> r.gc_minor)) *. 1e3) n);
    ("gc.major_collections", fi (sum (fun r -> r.gc_major)));
    ( "gc.promoted_words_per_op",
      ratio (List.fold_left (fun acc r -> acc +. r.gc_promoted) 0. w.rounds) n );
    ("sim.service_ns_per_op", ratio service_ns n);
  ]
  @ List.map (fun (k, v) -> (k, ratio v n)) budget
  @ [
      ("sim.unattributed_ns_per_op", ratio (service_ns -. attributed) n);
      ("trace.overhead_share", overhead);
      ("trace.spans", fi spans);
      ( "oracle.failed_op_share",
        ratio (fi (Oracle.failures w.verdict + lost w)) (fi (w.verdict.Oracle.ops + lost w)) );
    ]

(* ------------------------------------------------------------------ *)
(* Commands *)

let say fmt = Printf.ksprintf print_endline fmt

let report_verdict name w =
  let v = w.verdict in
  say "%s: oracle checked %d ops: %d failed, %d entry mismatches%s, %d lost" name
    v.Oracle.ops v.Oracle.failed_ops v.Oracle.entry_mismatches
    (match v.Oracle.check_error with Some e -> ", check: " ^ e | None -> "")
    (lost w);
  List.iter (fun m -> say "  %s" m) v.Oracle.messages

(* Everything a traced run must reproduce from its untraced twin. *)
let fingerprint w =
  (List.map (fun r -> (r.latency, r.service)) w.rounds, w.counts, w.levels, w.sim_ns)

let write_trace spec ~seed tracer =
  let dir = "_perfbench" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (Printf.sprintf "trace-%s-seed%d.json" spec.name seed) in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (J.to_string ~minify:true (Spans.to_chrome tracer)));
  path

let result ~correct ~attempted ~failed catalogue values =
  let metric m =
    match List.assoc_opt m.metric values with
    | Some v -> (m.metric, J.Obj [ ("value", J.Float v); ("unit", J.Str m.unit) ])
    | None -> raise (Harness ("no value for metric " ^ m.metric))
  in
  J.to_string ~minify:true
    (J.Obj
       [
         ("correct", J.Bool correct);
         ("attempted", J.Int attempted);
         ("failed", J.Int failed);
         ("metrics", J.Obj (List.map metric catalogue));
       ])

let failed_of w = Oracle.failures w.verdict + lost w
let attempted_of w = w.verdict.Oracle.ops + lost w

let setups = 5

let bench spec ~seed ~seconds ~trace =
  let rounds = rounds spec ~seconds in
  let window_ops = rounds * spec.round_ops in
  say "%s: %d keys, %d B pages, %d-page pool, %d disks; %d rounds of %d ops offered at \
       %.1f ops/s (60%% of %.1f); seed %d"
    spec.name spec.keys spec.page_size spec.pool_pages spec.n_disks rounds spec.round_ops
    (rate spec) spec.capacity_ops_per_s seed;
  let fresh () =
    Gc.compact ();
    timed (fun () -> setup spec ~seed ~window_ops)
  in
  if not trace then begin
    let times = List.init (setups - 1) (fun _ -> snd (fresh ())) in
    let sys, last = fresh () in
    let w = phase sys ~rounds ~traced:(fun _ -> false) in
    report_verdict spec.name w;
    say "%s: %d latency samples; per round, host ops/s @ reference loop ms: %s" spec.name
      (Array.length (latencies w))
      (String.concat " "
         (List.map
            (fun r -> Printf.sprintf "%.0f@%.1f" (round_rate r) (fi r.reference_ns /. 1e6))
            w.rounds));
    let values = end_to_end spec w ~setup_s:(median (last :: times)) in
    let failed = failed_of w in
    (failed = 0, attempted_of w, failed, end_to_end_catalogue, values)
  end
  else begin
    (* The untraced window, then the same window on a second system
       from the same seed with every other round traced: the two must
       agree on every simulated number, and the alternation exposes
       traced and untraced rounds to the same host drift. *)
    let plain = phase (fst (fresh ())) ~rounds ~traced:(fun _ -> false) in
    let traced = phase (fst (fresh ())) ~rounds ~traced:(fun i -> i mod 2 = 1) in
    report_verdict (spec.name ^ " untraced") plain;
    report_verdict (spec.name ^ " traced") traced;
    let same = fingerprint plain = fingerprint traced in
    say "%s: traced run reproduces the untraced simulated metrics: %b" spec.name same;
    say "%s: trace written to %s (%d spans kept)" spec.name
      (write_trace spec ~seed traced.tracer) traced.tracer.Spans.kept;
    let on, off = List.partition (fun r -> r.traced) traced.rounds in
    let overhead = 1. -. ratio (host_ops_per_s on) (host_ops_per_s off) in
    let values = per_layer spec plain ~traced ~overhead in
    let failed = failed_of plain + failed_of traced in
    (same && failed = 0, attempted_of plain + attempted_of traced, failed, layer_catalogue, values)
  end

(* Closed-loop capacity over one 10-second window's ops. *)
let capacity spec ~seed =
  let n = rounds spec ~seconds:10. * spec.round_ops in
  let sys = setup spec ~seed ~window_ops:n in
  let r =
    {
      sys;
      tracer = Spans.create ~cap:0 sys.sim sys.pool;
      log = Oracle.create_log ();
      finish = Array.make n 0;
      service = Array.make n 0;
      dispatched = 0;
    }
  in
  Oracle.reserve r.log n;
  let next = ref 0 in
  let st =
    W.Clients.run ~sim:sys.sim ~n_clients ~ops_per_client:(n / n_clients)
      (fun ~client ~seq:_ ->
        let seq = !next in
        incr next;
        op r ~client ~seq)
  in
  let v = Oracle.check ~pairs:sys.pairs r.log sys.idx in
  say "%s: %d pages, height %d; closed loop, %d clients, %d ops: %.1f ops/s (%d failed)"
    spec.name (Index_sig.page_count sys.idx) (Index_sig.height sys.idx) n_clients
    st.W.Clients.ops st.W.Clients.throughput_ops_per_s (Oracle.failures v);
  Oracle.failures v = 0

(* Workload rationale, fixed sizes and offered rates, and every metric
   with what it should move: the record later changes cite by name. *)
let catalogue () =
  let spec_json s =
    let m = s.mix in
    J.Obj
      [
        ("name", J.Str s.name);
        ("why", J.Str s.why);
        ( "index",
          J.Str (match s.layout with Cache_first -> "cache-first" | Disk_first -> "disk-first") );
        ("keys", J.Int s.keys);
        ("page_size", J.Int s.page_size);
        ("fill", J.Float fill);
        ("pool_pages", J.Int s.pool_pages);
        ("disks", J.Int s.n_disks);
        ("prefetchers", J.Int n_prefetchers);
        ( "mix",
          J.Obj
            [
              ("read", J.Int m.W.Mix.read);
              ("update", J.Int m.W.Mix.update);
              ("insert", J.Int m.W.Mix.insert);
              ("scan", J.Int m.W.Mix.scan);
            ] );
        ("key_distribution", J.Str (W.Keygen.dist_name s.dist));
        ("max_scan_span", J.Int s.max_scan_span);
        ( "durability",
          J.Str
            (if s.durable then
               "WAL with 64 KB group commit; fuzzy Shadow checkpoints 8 per window; one \
                Semi_sync 1 replica (Replica.default_config, Net.default_profile)"
             else "none") );
        ("clients", J.Int n_clients);
        ("arrivals", J.Str "poisson, open loop on the simulated clock");
        ("closed_loop_capacity_ops_per_s", J.Float s.capacity_ops_per_s);
        ("offered_ops_per_s", J.Float (rate s));
        ("round_ops", J.Int s.round_ops);
        ("window_ops_per_second_of_run", J.Int s.ops_per_second);
        ("warmup_ops", J.Int s.warmup_ops);
      ]
  in
  let entry m =
    J.Obj
      ([ ("name", J.Str m.metric); ("unit", J.Str m.unit); ("better", J.Str m.better) ]
      @ if m.moves = "" then [] else [ ("moves", J.Str m.moves) ])
  in
  print_string
    (J.to_string
       (J.Obj
          [
            ("workloads", J.List (List.map spec_json specs));
            ("host_reference_nominal_ns", J.Int reference_nominal_ns);
            ("end_to_end", J.List (List.map entry end_to_end_catalogue));
            ("per_layer", J.List (List.map entry layer_catalogue));
          ]))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let size = ref "full" and cmd = ref "bench" in
  let usage =
    "main.exe [capacity] --workload NAME --seed N --seconds S --trace 0|1 [--size full|small]\n\
     main.exe catalogue"
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME lookup-cached | scan-cold | update-durable");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S window length, in seconds of work");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run, or traced per-layer run");
      ("--size", Arg.Set_string size, "full|small (small: the self-test size)");
    ]
    (fun a ->
      if a = "capacity" || a = "catalogue" then cmd := a
      else raise (Arg.Bad ("unexpected " ^ a)))
    usage;
  if !cmd = "catalogue" then (catalogue (); exit 0);
  let spec =
    match List.find_opt (fun s -> s.name = !workload) specs with
    | Some s -> if !size = "small" then small s else s
    | None ->
        prerr_endline ("perfbench: unknown workload " ^ !workload ^ "\n" ^ usage);
        exit 2
  in
  if !cmd = "capacity" then exit (if capacity spec ~seed:!seed then 0 else 1);
  match bench spec ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) with
  | correct, attempted, failed, catalogue, values ->
      print_endline (result ~correct ~attempted ~failed catalogue values);
      exit (if correct then 0 else 1)
  | exception Harness m ->
      prerr_endline ("perfbench: " ^ m);
      exit 2
