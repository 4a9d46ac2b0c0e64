(* Two-level data-cache simulator with software prefetch.

   Timing model (paper, Section 3.1.1): a demand miss to memory completes at
   [max (now + T1) (last_completion + Tnext)], so a batch of prefetches
   issued back-to-back for a w-line node costs T1 + (w-1)*Tnext once the
   node is accessed — the pB+-Tree cost model.

   L1 is set-associative with LRU replacement; L2 is direct-mapped
   (Table 1).  Stores are modeled like loads (write-allocate, no write-back
   cost).  Software prefetches occupy one of a bounded number of miss
   handlers; issuing a prefetch when all handlers are busy stalls until the
   oldest one retires.

   The miss handlers are a fixed ring of [miss_handlers] slots in issue
   order.  Completion times strictly increase in issue order, so the ring
   is sorted and the oldest slot always retires first.  A slot is live
   while its line is in flight; a demand access to the line or an
   invalidation of it clears the flag, but the slot keeps its handler
   until its completion time retires it.  A retiring slot installs its
   line only if the slot itself is still live.

   Finding the live slot for a line would mean scanning the whole ring,
   which stays full while a page is being prefetched.  A filter keeps the
   number of live slots per bucket ([line land mh_mask]); a line whose
   bucket count is zero is not in flight, and only a nonzero bucket pays
   for the scan.  The bucket count is derived from [miss_handlers], so the
   filter is not a knob and changes nothing but host time.

   Cache geometry is restricted to powers of two (line size, L1 set
   count, L2 line count), so set and index selection are masks.

   Every operation here runs on each simulated key and pointer read, so it
   is written as plain loops over preallocated arrays: nothing on these
   paths allocates on the host heap. *)

type t = {
  cfg : Config.t;
  clock : Clock.t;
  stats : Stats.t;
  shift : int;
  l1_set_mask : int;  (* L1 sets - 1 *)
  l1_assoc : int;
  l1_tags : int array;  (* sets * assoc entries; -1 = invalid *)
  l1_stamp : int array;  (* LRU timestamps, parallel to l1_tags *)
  l2_mask : int;  (* L2 lines - 1 *)
  l2_tags : int array;  (* direct-mapped; -1 = invalid *)
  mh_line : int array;  (* per miss-handler slot: line fetched *)
  mh_completion : int array;  (* per slot: completion time *)
  mh_live : bool array;  (* per slot: line still in flight *)
  mh_mask : int;  (* filter buckets - 1 *)
  mh_bucket : int array;  (* per bucket: live slots whose line maps to it *)
  mutable mh_head : int;  (* oldest occupied slot *)
  mutable mh_len : int;  (* occupied slots, live or not *)
  mutable last_completion : int;
  mutable stamp : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

(* The smallest power of two >= [n]. *)
let pow2_at_least n =
  let rec go p = if p >= n then p else go (2 * p) in
  go 1

let create cfg clock stats =
  let bad field = invalid_arg ("Cache.create: " ^ field) in
  if cfg.Config.miss_handlers < 1 then bad "miss_handlers must be positive";
  if not (is_pow2 cfg.line_size) then bad "line_size must be a power of two";
  if cfg.l1_assoc < 1 then bad "l1_assoc must be positive";
  let l1_sets = cfg.l1_size / (cfg.line_size * cfg.l1_assoc) in
  if not (is_pow2 l1_sets) then
    bad "l1_size / (line_size * l1_assoc), the L1 set count, must be a power of two";
  let l2_lines = cfg.l2_size / cfg.line_size in
  if not (is_pow2 l2_lines) then
    bad "l2_size / line_size, the L2 line count, must be a power of two";
  let buckets = pow2_at_least (8 * cfg.miss_handlers) in
  {
    cfg;
    clock;
    stats;
    shift = Config.line_shift cfg;
    l1_set_mask = l1_sets - 1;
    l1_assoc = cfg.l1_assoc;
    l1_tags = Array.make (l1_sets * cfg.l1_assoc) (-1);
    l1_stamp = Array.make (l1_sets * cfg.l1_assoc) 0;
    l2_mask = l2_lines - 1;
    l2_tags = Array.make l2_lines (-1);
    mh_line = Array.make cfg.miss_handlers 0;
    mh_completion = Array.make cfg.miss_handlers 0;
    mh_live = Array.make cfg.miss_handlers false;
    mh_mask = buckets - 1;
    mh_bucket = Array.make buckets 0;
    mh_head = 0;
    mh_len = 0;
    last_completion = min_int / 2;
    stamp = 0;
  }

let flush t =
  Array.fill t.l1_tags 0 (Array.length t.l1_tags) (-1);
  Array.fill t.l2_tags 0 (Array.length t.l2_tags) (-1);
  Array.fill t.mh_bucket 0 (Array.length t.mh_bucket) 0;
  t.mh_head <- 0;
  t.mh_len <- 0;
  t.last_completion <- min_int / 2

(* Ring index of the [k]-th oldest occupied slot. *)
let slot t k =
  let s = t.mh_head + k in
  if s >= t.cfg.Config.miss_handlers then s - t.cfg.Config.miss_handlers else s

(* Slot [s] stops being live: its line is consumed, retired or killed. *)
let kill_slot t s =
  t.mh_live.(s) <- false;
  let b = t.mh_line.(s) land t.mh_mask in
  t.mh_bucket.(b) <- t.mh_bucket.(b) - 1

(* The live slot fetching [line], or -1.  Scans the ring only when the
   line's filter bucket holds a live slot. *)
let inflight_slot t line =
  if t.mh_bucket.(line land t.mh_mask) = 0 then -1
  else begin
    let found = ref (-1) and k = ref 0 in
    while !found < 0 && !k < t.mh_len do
      let s = slot t !k in
      if t.mh_live.(s) && t.mh_line.(s) = line then found := s;
      incr k
    done;
    !found
  end

let install_l2 t line = t.l2_tags.(line land t.l2_mask) <- line

(* Fill [line] into its L1 set: the first invalid way, else the least
   recently used one. *)
let install_l1 t line =
  let base = (line land t.l1_set_mask) * t.l1_assoc in
  let last = base + t.l1_assoc in
  let victim = ref base and best = ref max_int and i = ref base in
  while !i < last do
    if t.l1_tags.(!i) = -1 then begin
      victim := !i;
      i := last
    end
    else begin
      if t.l1_stamp.(!i) < !best then begin
        best := t.l1_stamp.(!i);
        victim := !i
      end;
      incr i
    end
  done;
  t.l1_tags.(!victim) <- line;
  t.stamp <- t.stamp + 1;
  t.l1_stamp.(!victim) <- t.stamp

let l1_lookup t line =
  let base = (line land t.l1_set_mask) * t.l1_assoc in
  let last = base + t.l1_assoc in
  let i = ref base in
  while !i < last && t.l1_tags.(!i) <> line do
    incr i
  done;
  if !i < last then begin
    t.stamp <- t.stamp + 1;
    t.l1_stamp.(!i) <- t.stamp;
    true
  end
  else false

let l2_lookup t line = t.l2_tags.(line land t.l2_mask) = line

(* Retire completed prefetches (completion <= now), oldest first; a live
   slot installs its line into the caches. *)
let drain t =
  let now = Clock.now t.clock in
  while t.mh_len > 0 && t.mh_completion.(t.mh_head) <= now do
    let s = t.mh_head in
    if t.mh_live.(s) then begin
      kill_slot t s;
      install_l2 t t.mh_line.(s);
      install_l1 t t.mh_line.(s)
    end;
    t.mh_head <- slot t 1;
    t.mh_len <- t.mh_len - 1
  done

let stall t cycles =
  if cycles > 0 then begin
    Fpb_obs.Counter.add t.stats.Stats.stall cycles;
    Clock.advance t.clock cycles
  end

(* Schedule one memory access starting no earlier than [now]; returns its
   completion time and occupies the shared memory pipeline. *)
let schedule_mem t =
  let now = Clock.now t.clock in
  let completion =
    max (now + t.cfg.Config.mem_latency) (t.last_completion + t.cfg.Config.mem_gap)
  in
  t.last_completion <- completion;
  completion

(* Demand access (load or store) to a byte address.  A line in flight is
   never resident in L1 or L2 (it is installed only when its live slot is
   consumed or retires), so checking L1 before the miss handlers changes
   nothing but spares L1 hits the scan of the ring. *)
let access t addr =
  let line = addr asr t.shift in
  drain t;
  if l1_lookup t line then Fpb_obs.Counter.incr t.stats.Stats.l1_hits
  else
    let s = inflight_slot t line in
    if s >= 0 then begin
      (* Prefetch in flight: wait only for the remaining latency. *)
      kill_slot t s;
      Fpb_obs.Counter.incr t.stats.Stats.prefetch_useful;
      stall t (t.mh_completion.(s) - Clock.now t.clock);
      install_l2 t line;
      install_l1 t line
    end
    else if l2_lookup t line then begin
      Fpb_obs.Counter.incr t.stats.Stats.l2_hits;
      stall t t.cfg.Config.l2_latency;
      install_l1 t line
    end
    else begin
      Fpb_obs.Counter.incr t.stats.Stats.mem_misses;
      let c = schedule_mem t in
      stall t (c - Clock.now t.clock);
      install_l2 t line;
      install_l1 t line
    end

(* Software prefetch of one line: non-blocking unless all miss handlers are
   busy.  Hits in cache or on an in-flight line are no-ops. *)
let prefetch t addr =
  let line = addr asr t.shift in
  drain t;
  if
    (not (l1_lookup t line))
    && (not (l2_lookup t line))
    && inflight_slot t line < 0
  then begin
    if t.mh_len >= t.cfg.Config.miss_handlers then begin
      (* All handlers busy: stall until the oldest outstanding completes. *)
      Fpb_obs.Counter.incr t.stats.Stats.prefetch_waits;
      stall t (t.mh_completion.(t.mh_head) - Clock.now t.clock);
      drain t
    end;
    let s = slot t t.mh_len in
    t.mh_line.(s) <- line;
    t.mh_completion.(s) <- schedule_mem t;
    t.mh_live.(s) <- true;
    let b = line land t.mh_mask in
    t.mh_bucket.(b) <- t.mh_bucket.(b) + 1;
    t.mh_len <- t.mh_len + 1;
    Fpb_obs.Counter.incr t.stats.Stats.prefetch_issued
  end

let access_range t addr len =
  if len > 0 then begin
    let first = addr asr t.shift and last = (addr + len - 1) asr t.shift in
    for line = first to last do
      access t (line lsl t.shift)
    done
  end

let prefetch_range t addr len =
  if len > 0 then begin
    let first = addr asr t.shift and last = (addr + len - 1) asr t.shift in
    for line = first to last do
      prefetch t (line lsl t.shift)
    done
  end

(* Drop any cached or in-flight copies of the given byte range.  Used when a
   buffer frame is reassigned to a different disk page: the new contents
   arrive by DMA, so stale CPU-cache lines for those addresses must not
   produce false hits.  Killed in-flight slots keep their handlers until
   they retire. *)
let invalidate_range t addr len =
  if len > 0 then begin
    let first = addr asr t.shift and last = (addr + len - 1) asr t.shift in
    for line = first to last do
      let base = (line land t.l1_set_mask) * t.l1_assoc in
      for w = 0 to t.l1_assoc - 1 do
        if t.l1_tags.(base + w) = line then t.l1_tags.(base + w) <- -1
      done;
      let idx = line land t.l2_mask in
      if t.l2_tags.(idx) = line then t.l2_tags.(idx) <- -1
    done;
    for k = 0 to t.mh_len - 1 do
      let s = slot t k in
      if t.mh_live.(s) && t.mh_line.(s) >= first && t.mh_line.(s) <= last then
        kill_slot t s
    done
  end

let lines_in t addr len =
  if len <= 0 then 0 else ((addr + len - 1) asr t.shift) - (addr asr t.shift) + 1
