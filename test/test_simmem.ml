(* Unit tests for the simulated memory hierarchy: analytic prefetch costs,
   cache hit/miss behaviour, invalidation, miss-handler bounds. *)

open Fpb_simmem

let cfg = Config.default

let fresh () =
  let clock = Clock.create () in
  let stats = Stats.create () in
  (clock, stats, Cache.create cfg clock stats)

let check_int = Alcotest.(check int)
let cv = Fpb_obs.Counter.value

let test_clock () =
  let c = Clock.create () in
  Clock.advance c 10;
  check_int "advance" 10 (Clock.now c);
  Clock.advance_to c 5;
  check_int "no backwards" 10 (Clock.now c);
  Clock.advance_to c 50;
  check_int "advance_to" 50 (Clock.now c)

let test_cold_miss_latency () =
  let clock, stats, cache = fresh () in
  Cache.access cache 0;
  check_int "first miss costs T1" cfg.Config.mem_latency (Clock.now clock);
  check_int "one memory miss" 1 (cv stats.Stats.mem_misses);
  Cache.access cache 0;
  check_int "hit is free" cfg.Config.mem_latency (Clock.now clock);
  check_int "one L1 hit" 1 (cv stats.Stats.l1_hits)

let test_prefetched_node_cost () =
  (* The pB+-Tree cost model: a w-line node prefetched in full costs
     T1 + (w-1)*Tnext once accessed. *)
  List.iter
    (fun w ->
      let clock, _stats, cache = fresh () in
      for l = 0 to w - 1 do
        Cache.prefetch cache (l * cfg.Config.line_size)
      done;
      (* touch every line of the node *)
      for l = 0 to w - 1 do
        Cache.access cache (l * cfg.Config.line_size)
      done;
      let expected = cfg.Config.mem_latency + ((w - 1) * cfg.Config.mem_gap) in
      check_int (Printf.sprintf "w=%d" w) expected (Clock.now clock))
    [ 1; 2; 3; 8; 16 ]

let test_unprefetched_node_cost () =
  (* Without prefetch, each line is a dependent full miss. *)
  let clock, _stats, cache = fresh () in
  let w = 4 in
  for l = 0 to w - 1 do
    Cache.access cache (l * cfg.Config.line_size)
  done;
  (* misses pipeline through the memory system only if issued while an
     earlier one is outstanding; demand misses here are serial, so each
     costs T1. *)
  check_int "serial misses" (w * cfg.Config.mem_latency) (Clock.now clock)

let test_l2_hit () =
  let clock, stats, cache = fresh () in
  Cache.access cache 0;
  let t0 = Clock.now clock in
  (* evict from L1 by filling its set: addresses that map to the same L1
     set are line_size * l1_sets apart *)
  let l1_sets = cfg.Config.l1_size / (cfg.Config.line_size * cfg.Config.l1_assoc) in
  let stride = cfg.Config.line_size * l1_sets in
  (* choose conflicting addresses that do NOT conflict in L2 *)
  Cache.access cache stride;
  Cache.access cache (2 * stride);
  ignore t0;
  Cache.access cache 0;
  (* 0 was evicted from L1 (2-way set, 2 newer residents) but lives in L2 *)
  Alcotest.(check bool) "l2 hit recorded" true (cv stats.Stats.l2_hits >= 1)

let test_invalidate () =
  let _clock, stats, cache = fresh () in
  Cache.access cache 0;
  Cache.invalidate_range cache 0 cfg.Config.line_size;
  Cache.access cache 0;
  check_int "miss again after invalidate" 2 (cv stats.Stats.mem_misses)

let test_miss_handler_bound () =
  let _clock, stats, cache = fresh () in
  (* more outstanding prefetches than handlers forces issue stalls *)
  for l = 0 to (2 * cfg.Config.miss_handlers) - 1 do
    Cache.prefetch cache (l * cfg.Config.line_size)
  done;
  Alcotest.(check bool) "prefetch waits happened" true
    (cv stats.Stats.prefetch_waits > 0)

let test_flush () =
  let _clock, stats, cache = fresh () in
  Cache.access cache 0;
  Cache.flush cache;
  Cache.access cache 0;
  check_int "miss after flush" 2 (cv stats.Stats.mem_misses)

let test_mem_accessors () =
  let sim = Sim.create () in
  let r = Mem.make ~bytes:(Bytes.create 4096) ~base:0 in
  Mem.write_i32 sim r 0 (-123456);
  Mem.write_u16 sim r 100 65535;
  Mem.write_u8 sim r 200 255;
  Alcotest.(check int) "i32 roundtrip" (-123456) (Mem.read_i32 sim r 0);
  Alcotest.(check int) "u16 roundtrip" 65535 (Mem.read_u16 sim r 100);
  Alcotest.(check int) "u8 roundtrip" 255 (Mem.read_u8 sim r 200);
  Mem.write_i32 sim r 0 77;
  Mem.blit sim r 0 r 500 4;
  Alcotest.(check int) "blit copies" 77 (Mem.read_i32 sim r 500);
  Mem.fill_zero sim r 500 4;
  Alcotest.(check int) "fill zero" 0 (Mem.read_i32 sim r 500);
  Alcotest.(check int) "peek matches" 77 (Mem.peek_i32 r 0)

let test_busy_accounting () =
  let sim = Sim.create () in
  Sim.charge_busy sim 42;
  Alcotest.(check int) "busy charged" 42 (cv sim.Sim.stats.Stats.busy);
  Alcotest.(check int) "clock advanced" 42 (Sim.now sim);
  let s0 = Stats.snapshot sim.Sim.stats in
  Sim.charge_busy sim 8;
  let b, st, _ = Stats.since sim.Sim.stats s0 in
  Alcotest.(check (pair int int)) "delta" (8, 0) (b, st)

let prop_prefetch_batch_cost =
  Util.qtest "prefetched batch never dearer than serial misses"
    QCheck2.Gen.(1 -- 30)
    (fun w ->
      let clock1, _, cache1 = fresh () in
      for l = 0 to w - 1 do
        Cache.prefetch cache1 (l * 64)
      done;
      for l = 0 to w - 1 do
        Cache.access cache1 (l * 64)
      done;
      let clock2, _, cache2 = fresh () in
      for l = 0 to w - 1 do
        Cache.access cache2 (l * 64)
      done;
      Clock.now clock1 <= Clock.now clock2)

let test_reprefetch_after_invalidate () =
  (* A handler whose line was invalidated retires without installing
     anything, even when a later prefetch of the same line is in flight:
     that line arrives only at its own completion time. *)
  let clock, stats, cache = fresh () in
  Cache.prefetch cache 0;
  let first = cfg.Config.mem_latency in
  Cache.invalidate_range cache 0 cfg.Config.line_size;
  Cache.prefetch cache 0;
  let second = first + cfg.Config.mem_gap in
  check_int "re-prefetch issued" 2 (cv stats.Stats.prefetch_issued);
  Clock.advance_to clock first;
  Cache.access cache 0;
  check_int "no L1 hit" 0 (cv stats.Stats.l1_hits);
  check_int "prefetch useful" 1 (cv stats.Stats.prefetch_useful);
  check_int "stalls until the second completion" second (Clock.now clock);
  check_int "stall charged" (second - first) (cv stats.Stats.stall)

let test_filter_shared_bucket () =
  (* Lines 2^20 apart share a miss-handler filter bucket for any handler
     count the simulator could be given, so the filter must fall back to
     the ring to tell them apart. *)
  let a = 0 and b = (1 lsl 20) * cfg.Config.line_size in
  let both () =
    let clock, stats, cache = fresh () in
    Cache.prefetch cache a;
    Cache.prefetch cache b;
    check_int "both issued" 2 (cv stats.Stats.prefetch_issued);
    (clock, stats, cache)
  in
  (* consuming one leaves the other in flight *)
  let _clock, stats, cache = both () in
  Cache.access cache a;
  check_int "a consumed" 1 (cv stats.Stats.prefetch_useful);
  Cache.prefetch cache b;
  check_int "b still in flight: no re-issue" 2 (cv stats.Stats.prefetch_issued);
  Cache.access cache b;
  check_int "b consumed" 2 (cv stats.Stats.prefetch_useful);
  check_int "no memory misses" 0 (cv stats.Stats.mem_misses);
  (* invalidating one kills only that one *)
  let _clock, stats, cache = both () in
  Cache.invalidate_range cache a cfg.Config.line_size;
  Cache.access cache b;
  check_int "b survives a's invalidation" 1 (cv stats.Stats.prefetch_useful);
  Cache.access cache a;
  check_int "a no longer in flight" 1 (cv stats.Stats.prefetch_useful);
  check_int "a misses to memory" 1 (cv stats.Stats.mem_misses);
  (* a flush leaves neither in flight *)
  let _clock, stats, cache = both () in
  Cache.flush cache;
  Cache.access cache a;
  Cache.access cache b;
  check_int "nothing prefetched after flush" 0 (cv stats.Stats.prefetch_useful);
  check_int "both miss to memory" 2 (cv stats.Stats.mem_misses)

let test_create_rejects_bad_geometry () =
  let rejects field c =
    match Cache.create c (Clock.create ()) (Stats.create ()) with
    | _ -> Alcotest.failf "accepted a config with a bad %s" field
    | exception Invalid_argument msg ->
        if not (String.starts_with ~prefix:("Cache.create: " ^ field) msg) then
          Alcotest.failf "error %S does not name %s" msg field
  in
  rejects "l1_size" { cfg with Config.l1_size = 0 };
  rejects "l2_size" { cfg with Config.l2_size = 0 };
  rejects "line_size" { cfg with Config.line_size = 48 };
  rejects "line_size" { cfg with Config.line_size = 0 };
  rejects "l1_assoc" { cfg with Config.l1_assoc = 0 };
  (* three sets of a two-way L1 *)
  rejects "l1_size" { cfg with Config.l1_size = 3 * 2 * 64 };
  rejects "l2_size" { cfg with Config.l2_size = 3 * 64 };
  rejects "miss_handlers" { cfg with Config.miss_handlers = 0 };
  (* a non-power-of-two associativity is fine as long as the set count
     is a power of two *)
  ignore
    (Cache.create
       { cfg with Config.l1_assoc = 3; l1_size = 3 * 64 * 64 }
       (Clock.create ()) (Stats.create ()))

(* --- Differential test against a list-based reference model --------------

   The model restates the documented semantics as directly as possible:
   L1 sets are lists of lines, most recently used first; L2 is an
   association list from index to line; the miss handlers are a list of
   (line, completion, live) in issue order. *)

type model = {
  mcfg : Config.t;
  mutable now : int;
  l1 : int list array;
  mutable l2 : (int * int) list;
  mutable handlers : (int * int * bool) list;
  mutable last : int;
  counts : int array;  (* busy, stall, l1, l2, mem, issued, useful, waits *)
}

let c_stall = 1
and c_l1 = 2
and c_l2 = 3
and c_mem = 4
and c_issued = 5
and c_useful = 6
and c_waits = 7

let model_create mcfg =
  let sets = mcfg.Config.l1_size / (mcfg.line_size * mcfg.l1_assoc) in
  {
    mcfg;
    now = 0;
    l1 = Array.make sets [];
    l2 = [];
    handlers = [];
    last = min_int / 2;
    counts = Array.make 8 0;
  }

let m_bump m i n = m.counts.(i) <- m.counts.(i) + n
let m_l2_lines m = m.mcfg.Config.l2_size / m.mcfg.line_size
let m_set m line = line mod Array.length m.l1

let m_stall m n =
  if n > 0 then begin
    m_bump m c_stall n;
    m.now <- m.now + n
  end

let m_in_l1 m line = List.mem line m.l1.(m_set m line)
let m_in_l2 m line = List.assoc_opt (line mod m_l2_lines m) m.l2 = Some line

let m_touch_l1 m line =
  let s = m_set m line in
  m.l1.(s) <- line :: List.filter (( <> ) line) m.l1.(s)

let m_install_l1 m line =
  let s = m_set m line in
  let ways = m.l1.(s) in
  let ways =
    if List.length ways < m.mcfg.l1_assoc then ways
    else List.filteri (fun i _ -> i < m.mcfg.l1_assoc - 1) ways
  in
  m.l1.(s) <- line :: ways

let m_install m line =
  let i = line mod m_l2_lines m in
  m.l2 <- (i, line) :: List.remove_assoc i m.l2;
  m_install_l1 m line

let rec m_drain m =
  match m.handlers with
  | (line, c, live) :: rest when c <= m.now ->
      m.handlers <- rest;
      if live then m_install m line;
      m_drain m
  | _ -> ()

let m_schedule m =
  let c = max (m.now + m.mcfg.mem_latency) (m.last + m.mcfg.mem_gap) in
  m.last <- c;
  c

let m_live m line =
  List.find_map
    (fun (l, c, live) -> if live && l = line then Some c else None)
    m.handlers

let m_kill m first last =
  m.handlers <-
    List.map
      (fun (l, c, live) -> (l, c, live && not (l >= first && l <= last)))
      m.handlers

let m_access m line =
  m_drain m;
  match m_live m line with
  | Some c ->
      m_kill m line line;
      m_bump m c_useful 1;
      m_stall m (c - m.now);
      m_install m line
  | None ->
      if m_in_l1 m line then begin
        m_bump m c_l1 1;
        m_touch_l1 m line
      end
      else if m_in_l2 m line then begin
        m_bump m c_l2 1;
        m_stall m m.mcfg.l2_latency;
        m_install_l1 m line
      end
      else begin
        m_bump m c_mem 1;
        let c = m_schedule m in
        m_stall m (c - m.now);
        m_install m line
      end

let m_prefetch m line =
  m_drain m;
  if m_live m line = None then
    if m_in_l1 m line then m_touch_l1 m line
    else if not (m_in_l2 m line) then begin
      if List.length m.handlers >= m.mcfg.miss_handlers then begin
        m_bump m c_waits 1;
        let _, c, _ = List.hd m.handlers in
        m_stall m (c - m.now);
        m_drain m
      end;
      let c = m_schedule m in
      m.handlers <- m.handlers @ [ (line, c, true) ];
      m_bump m c_issued 1
    end

let m_lines m addr len f =
  let shift = Config.line_shift m.mcfg in
  if len > 0 then
    for line = addr asr shift to (addr + len - 1) asr shift do
      f line
    done

let m_invalidate m addr len =
  m_lines m addr len (fun line ->
      let s = m_set m line in
      m.l1.(s) <- List.filter (( <> ) line) m.l1.(s);
      if m_in_l2 m line then m.l2 <- List.remove_assoc (line mod m_l2_lines m) m.l2;
      m_kill m line line)

let m_flush m =
  Array.fill m.l1 0 (Array.length m.l1) [];
  m.l2 <- [];
  m.handlers <- [];
  m.last <- min_int / 2

type op =
  | Access of int
  | Prefetch of int
  | Access_range of int * int
  | Prefetch_range of int * int
  | Invalidate of int * int
  | Flush
  | Advance of int
  | Rewind of int

let show_op = function
  | Access a -> Printf.sprintf "access %d" a
  | Prefetch a -> Printf.sprintf "prefetch %d" a
  | Access_range (a, n) -> Printf.sprintf "access_range %d %d" a n
  | Prefetch_range (a, n) -> Printf.sprintf "prefetch_range %d %d" a n
  | Invalidate (a, n) -> Printf.sprintf "invalidate_range %d %d" a n
  | Flush -> "flush"
  | Advance n -> Printf.sprintf "advance %d" n
  | Rewind n -> Printf.sprintf "rewind %d" n

let tiny_cfg handlers =
  {
    Config.line_size = 64;
    l1_size = 2 * 2 * 64;
    l1_assoc = 2;
    l2_size = 8 * 64;
    l2_latency = 5;
    mem_latency = 30;
    mem_gap = 7;
    miss_handlers = handlers;
  }

let gen_ops =
  let open QCheck2.Gen in
  let addr = 0 -- ((12 * 64) - 1) and len = 0 -- 200 in
  let op =
    frequency
      [
        (5, map (fun a -> Access a) addr);
        (5, map (fun a -> Prefetch a) addr);
        (2, map2 (fun a n -> Access_range (a, n)) addr len);
        (2, map2 (fun a n -> Prefetch_range (a, n)) addr len);
        (2, map2 (fun a n -> Invalidate (a, n)) addr len);
        (1, pure Flush);
        (3, map (fun n -> Advance n) (0 -- 60));
        (1, map (fun n -> Rewind n) (0 -- 60));
      ]
  in
  pair (1 -- 4) (list_size (0 -- 80) op)

let prop_cache_matches_model =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:5000 ~name:"cache matches list-based model"
       ~print:(fun (h, ops) ->
         Printf.sprintf "handlers=%d: %s" h
           (String.concat "; " (List.map show_op ops)))
       gen_ops
       (fun (handlers, ops) ->
         let c = tiny_cfg handlers in
         let clock = Clock.create () and stats = Stats.create () in
         let cache = Cache.create c clock stats in
         let m = model_create c in
         let shift = Config.line_shift c in
         List.iteri
           (fun step op ->
             (match op with
             | Access a ->
                 Cache.access cache a;
                 m_access m (a asr shift)
             | Prefetch a ->
                 Cache.prefetch cache a;
                 m_prefetch m (a asr shift)
             | Access_range (a, n) ->
                 Cache.access_range cache a n;
                 m_lines m a n (m_access m)
             | Prefetch_range (a, n) ->
                 Cache.prefetch_range cache a n;
                 m_lines m a n (m_prefetch m)
             | Invalidate (a, n) ->
                 Cache.invalidate_range cache a n;
                 m_invalidate m a n
             | Flush ->
                 Cache.flush cache;
                 m_flush m
             | Advance n ->
                 Clock.advance clock n;
                 m.now <- m.now + n
             | Rewind n ->
                 let t = max 0 (Clock.now clock - n) in
                 Clock.set clock t;
                 m.now <- t);
             let actual = List.map snd (Stats.kv stats) in
             if actual <> Array.to_list m.counts || Clock.now clock <> m.now
             then
               QCheck2.Test.fail_reportf
                 "step %d (%s): cache %s @%d, model %s @%d" step (show_op op)
                 (String.concat "," (List.map string_of_int actual))
                 (Clock.now clock)
                 (String.concat "," (Array.to_list (Array.map string_of_int m.counts)))
                 m.now;
             List.iter
               (fun (l, _, live) ->
                 if live && (m_in_l1 m l || m_in_l2 m l) then
                   QCheck2.Test.fail_reportf
                     "step %d: live in-flight line %d is resident" step l)
               m.handlers)
           ops;
         true))

(* --- Host allocation on the charge path ---------------------------------- *)

let words_per_call f =
  let n = 10_000 in
  f ();
  let before = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int n

let check_no_alloc name f =
  let w = words_per_call f in
  if w >= 1.0 then Alcotest.failf "%s allocates %.2f words per call" name w

let test_cache_no_alloc () =
  let line = cfg.Config.line_size in
  let l1_sets = cfg.Config.l1_size / (line * cfg.Config.l1_assoc) in
  let _clock, stats, cache = fresh () in
  check_no_alloc "access (L1 hit)" (fun () -> Cache.access cache 0);
  (* three lines in one two-way L1 set but distinct L2 lines, cycled:
     every access misses L1 and hits L2 *)
  Cache.access cache (l1_sets * line);
  Cache.access cache (2 * l1_sets * line);
  let i = ref 2 in
  let l2_before = cv stats.Stats.l2_hits in
  check_no_alloc "access (L2 hit)" (fun () ->
      i := (!i + 1) mod 3;
      Cache.access cache (!i * l1_sets * line));
  check_int "every access an L2 hit" 10_001 (cv stats.Stats.l2_hits - l2_before);
  let next = ref 1_000_000 in
  let fresh_line () =
    incr next;
    !next * line
  in
  let mem_before = cv stats.Stats.mem_misses in
  check_no_alloc "access (memory miss)" (fun () -> Cache.access cache (fresh_line ()));
  check_int "every access a memory miss" 10_001 (cv stats.Stats.mem_misses - mem_before);
  let useful_before = cv stats.Stats.prefetch_useful in
  check_no_alloc "prefetch + access (prefetched line)" (fun () ->
      let a = fresh_line () in
      Cache.prefetch cache a;
      Cache.access cache a);
  check_int "every access prefetched" 10_001
    (cv stats.Stats.prefetch_useful - useful_before);
  check_no_alloc "prefetch" (fun () -> Cache.prefetch cache (fresh_line ()));
  Alcotest.(check bool) "handlers filled up" true (cv stats.Stats.prefetch_waits > 0)

let test_mem_no_alloc () =
  let sim = Sim.create () in
  let r = Mem.make ~bytes:(Bytes.make 4096 '\000') ~base:0 in
  for i = 0 to 1023 do
    Mem.poke_i32 r (4 * i) (2 * i)
  done;
  let sink = ref 0 in
  check_no_alloc "Mem.read_i32" (fun () -> sink := !sink + Mem.read_i32 sim r 8);
  check_no_alloc "Mem.read_u16" (fun () -> sink := !sink + Mem.read_u16 sim r 8);
  check_no_alloc "Mem.write_i32" (fun () -> Mem.write_i32 sim r 4000 (-7));
  check_no_alloc "Mem.prefetch" (fun () -> Mem.prefetch sim r ~off:0 ~len:256);
  check_no_alloc "Array_search.lower_bound" (fun () ->
      sink :=
        !sink
        + Fpb_btree_common.Array_search.lower_bound sim r ~off:0 ~n:1024
            ~key:(!sink land 2047));
  ignore (Sys.opaque_identity !sink)

let test_pool_pin_no_alloc () =
  let _, _, _, pool = Util.make_system ~capacity:4 () in
  let page, _ = Fpb_storage.Buffer_pool.create_page pool in
  Fpb_storage.Buffer_pool.unpin pool page;
  check_no_alloc "Buffer_pool.get + unpin (resident)" (fun () ->
      ignore (Fpb_storage.Buffer_pool.get pool page);
      Fpb_storage.Buffer_pool.unpin pool page);
  check_no_alloc "Buffer_pool.frame_of_page" (fun () ->
      ignore (Fpb_storage.Buffer_pool.frame_of_page pool page));
  check_no_alloc "Buffer_pool.is_resident" (fun () ->
      ignore (Fpb_storage.Buffer_pool.is_resident pool page))

(* The durability path's host work: a page checksum allocates nothing,
   and a record encode allocates only its result string.  A frame over
   [Max_young_wosize] (256 words) goes straight to the major heap, so
   encoding a 4 KB image must allocate no minor words at all. *)
let test_durability_alloc () =
  let page = Bytes.init 16384 (fun i -> Char.chr (i * 131 land 0xff)) in
  let sink = ref 0 in
  check_no_alloc "Checksum.update (16 KB page)" (fun () ->
      sink := !sink lxor Fpb_storage.Checksum.update 0 page 0 16384);
  ignore (Sys.opaque_identity !sink);
  let module Wal = Fpb_wal.Wal in
  List.iter
    (fun (name, r) ->
      (* the string's words, padding byte included, plus its header *)
      let frame_words = (String.length (Wal.Codec.encode r) / 8) + 1 in
      let minor = if frame_words > 256 then 0 else frame_words + 1 in
      let w =
        words_per_call (fun () ->
            ignore (Sys.opaque_identity (Wal.Codec.encode r)))
      in
      if w > float_of_int (minor + 2) then
        Alcotest.failf "Codec.encode %s allocates %.1f minor words (frame: %d)"
          name w minor)
    (let image n = Wal.Image { lsn = 9; page = 3; img = Bytes.make n 'i' } in
     [
       ("commit", Wal.Commit { lsn = 9; op = 4; meta = [ 1; 2; 3; 4; 5 ] });
       ("delta", Wal.Delta { lsn = 9; page = 3; off = 40; bytes = Bytes.make 100 'd' });
       ("1 KB image", image 1024);
       ("4 KB image", image 4096);
     ])

(* A pB+-Tree point search resolves each node through [Arena.region] /
   [Arena.offset] and returns its leaf as a bare address, so a hit
   allocates only its [Some] (2 words), whatever the tree height. *)
let test_pbtree_search_alloc () =
  let module P = Fpb_pbtree.Pbtree in
  let p = P.create (Sim.create ()) in
  P.bulkload p (Array.init 20_000 (fun i -> (2 * i, i))) ~fill:1.0;
  check_int "height" 3 (P.height p);
  let i = ref 0 in
  let w =
    words_per_call (fun () ->
        i := (!i + 7919) mod 20_000;
        ignore (Sys.opaque_identity (P.search p (2 * !i))))
  in
  if w > 2.0 then Alcotest.failf "Pbtree.search allocates %.2f words per call" w

(* Jump-pointer range scans step their prefetch cursor once per leaf, so
   a long scan over a resident tree may allocate a fixed amount per call
   (its closures and cursor) but nothing per leaf: fewer minor words in
   all than leaves visited.  [scan ()] returns the leaves it visited; a
   first call warms the pool. *)
let check_scan_alloc name scan =
  ignore (scan ());
  let before = Gc.minor_words () in
  let leaves = scan () in
  let words = Gc.minor_words () -. before in
  if leaves < 50 then Alcotest.failf "%s visits only %d leaves" name leaves;
  if words >= float_of_int leaves then
    Alcotest.failf "%s allocates %.0f minor words over %d leaves" name words
      leaves

let test_scan_no_alloc_per_leaf () =
  let module D = Fpb_disk_btree.Disk_btree in
  let pool = Util.make_pool ~page_size:4096 ~capacity:4096 () in
  let t = D.create pool in
  D.bulkload t (Array.init 200_000 (fun i -> (2 * i, i))) ~fill:1.0;
  let sink = ref 0 in
  let f k v = sink := !sink + k + v in
  let leaf_visits scan () =
    D.reset_level_accesses t;
    ignore (scan ~start_key:1001 ~end_key:300_001 f);
    let acc = D.level_accesses t in
    acc.(Array.length acc - 1)
  in
  check_scan_alloc "Disk_btree.range_scan"
    (leaf_visits (D.range_scan t ~prefetch:true));
  check_scan_alloc "Disk_btree.range_scan_rev"
    (leaf_visits (D.range_scan_rev t ~prefetch:true));
  let module F = Fpb_core.Disk_first in
  let df = F.create (Util.make_pool ~page_size:4096 ~capacity:4096 ()) in
  F.bulkload df (Array.init 200_000 (fun i -> (2 * i, i))) ~fill:1.0;
  let df_leaf_visits scan () =
    F.reset_level_accesses df;
    ignore (scan ~start_key:1001 ~end_key:300_001 f);
    let acc = F.level_accesses df in
    acc.(Array.length acc - 1)
  in
  check_scan_alloc "Disk_first.range_scan"
    (df_leaf_visits (F.range_scan df ~prefetch:true));
  check_scan_alloc "Disk_first.range_scan_rev"
    (df_leaf_visits (F.range_scan_rev df ~prefetch:true));
  let module C = Fpb_core.Cache_first in
  let cf = C.create (Util.make_pool ~page_size:4096 ~capacity:4096 ()) in
  C.bulkload cf (Array.init 200_000 (fun i -> (2 * i, i))) ~fill:1.0;
  (* cache-first counts leaf-node visits; a leaf page holds at most
     [slots] nodes, so this quotient is at most the leaf pages visited,
     the unit its jump-pointer cursor steps in *)
  check_scan_alloc "Cache_first.range_scan" (fun () ->
      C.reset_level_accesses cf;
      ignore (C.range_scan cf ~prefetch:true ~start_key:1001 ~end_key:300_001 f);
      let acc = C.level_accesses cf in
      acc.(Array.length acc - 1) / (C.cfg cf).C.slots);
  let module P = Fpb_pbtree.Pbtree in
  let p = P.create (Sim.create ()) in
  P.bulkload p (Array.init 20_000 (fun i -> (2 * i, i))) ~fill:1.0;
  check_scan_alloc "Pbtree.range_scan" (fun () ->
      let n = P.range_scan p ~prefetch:true ~start_key:1001 ~end_key:30_001 f in
      n / P.capacity p);
  ignore (Sys.opaque_identity !sink)

(* --- Simulated-counter pins ----------------------------------------------

   A fixed-seed mixed workload (search, insert, range scan, batched search)
   on each index, with a buffer pool smaller than the tree so pool misses,
   evictions and CPU-cache invalidation all take part.  Every nonzero
   simulated counter and the final clock are compared with recorded
   constants; the counters left out must be zero.  Host-side work on the
   charge path must leave the simulated machine byte-identical, so these
   constants change only with a deliberate change to the simulated
   model. *)

let pin_workload kind =
  let sim, _store, disks, pool =
    Util.make_system ~page_size:4096 ~capacity:24 ()
  in
  let idx = Fpb_experiments.Setup.make_index kind pool in
  Fpb_btree_common.Index_sig.bulkload idx
    (Array.init 20_000 (fun i -> (2 * i, i)))
    ~fill:0.7;
  let rng = Fpb_workload.Prng.create 7 in
  let key () = Fpb_workload.Prng.int rng 44_000 in
  for _ = 1 to 400 do
    match Fpb_workload.Prng.int rng 10 with
    | 0 | 1 | 2 | 3 -> ignore (Fpb_btree_common.Index_sig.search idx (key ()))
    | 4 | 5 | 6 ->
        let k = key () in
        ignore (Fpb_btree_common.Index_sig.insert idx k (k + 1))
    | 7 | 8 ->
        let s = key () in
        ignore
          (Fpb_btree_common.Index_sig.range_scan idx ~start_key:s
             ~end_key:(s + 200) (fun _ _ -> ()))
    | _ ->
        ignore
          (Fpb_btree_common.Index_sig.search_batch idx (Array.init 8 (fun _ -> key ())))
  done;
  Fpb_btree_common.Index_sig.check idx;
  ( List.filter
      (fun (_, v) -> v <> 0)
      (Stats.kv sim.Sim.stats
      @ Fpb_storage.Buffer_pool.kv pool
      @ Fpb_storage.Disk_model.kv disks),
    Sim.now sim )

let pinned_counters =
  [
    ( "disk_opt",
      ( [
          ("sim.busy_cycles", 1278035);
          ("sim.stall_cycles", 989854);
          ("sim.l1_hits", 66151);
          ("sim.l2_hits", 333);
          ("sim.mem_misses", 6244);
          ("sim.prefetch_issued", 6791);
          ("sim.prefetch_useful", 30);
          ("sim.prefetch_waits", 1726);
          ("pool.hits", 756);
          ("pool.misses", 325);
          ("pool.evictions", 550);
          ("pool.prefetch_issued", 191);
          ("pool.prefetch_hits", 191);
          ("pool.io_wait_ns", 2871588190);
          ("disk.reads", 516);
          ("disk.writes", 164);
          ("disk.busy_ns", 4197632000);
        ],
        2873856079 ) );
    ( "micro",
      ( [
          ("sim.busy_cycles", 1321060);
          ("sim.stall_cycles", 881218);
          ("sim.l1_hits", 69389);
          ("sim.l2_hits", 184);
          ("sim.mem_misses", 5162);
          ("sim.prefetch_issued", 7789);
          ("sim.prefetch_useful", 386);
          ("sim.prefetch_waits", 1688);
          ("pool.hits", 738);
          ("pool.misses", 328);
          ("pool.evictions", 574);
          ("pool.prefetch_issued", 211);
          ("pool.prefetch_hits", 211);
          ("pool.io_wait_ns", 2943637426);
          ("disk.reads", 539);
          ("disk.writes", 167);
          ("disk.busy_ns", 4432294400);
        ],
        2945839704 ) );
    ( "disk_first",
      ( [
          ("sim.busy_cycles", 1373625);
          ("sim.stall_cycles", 761713);
          ("sim.l1_hits", 79384);
          ("sim.l2_hits", 180);
          ("sim.mem_misses", 4082);
          ("sim.prefetch_issued", 8690);
          ("sim.prefetch_useful", 1595);
          ("sim.prefetch_waits", 2292);
          ("pool.hits", 866);
          ("pool.misses", 309);
          ("pool.evictions", 559);
          ("pool.prefetch_issued", 212);
          ("pool.prefetch_hits", 212);
          ("pool.io_wait_ns", 2830337433);
          ("disk.reads", 521);
          ("disk.writes", 169);
          ("disk.busy_ns", 4310656000);
        ],
        2832472771 ) );
    ( "cache_first",
      ( [
          ("sim.busy_cycles", 2203319);
          ("sim.stall_cycles", 635035);
          ("sim.l1_hits", 74788);
          ("sim.l2_hits", 171);
          ("sim.mem_misses", 3671);
          ("sim.prefetch_issued", 10251);
          ("sim.prefetch_useful", 1596);
          ("sim.prefetch_waits", 1287);
          ("pool.hits", 2175);
          ("pool.misses", 588);
          ("pool.evictions", 851);
          ("pool.prefetch_issued", 225);
          ("pool.prefetch_hits", 225);
          ("pool.io_wait_ns", 5212821363);
          ("disk.reads", 813);
          ("disk.writes", 352);
          ("disk.busy_ns", 7423296000);
        ],
        5215659717 ) );
  ]

let test_pinned_counters name () =
  let kind = List.assoc name Test_indexes.kinds in
  let expected_kv, expected_now = List.assoc name pinned_counters in
  let kv, now = pin_workload kind in
  Alcotest.(check (list (pair string int))) "counters" expected_kv kv;
  check_int "simulated clock" expected_now now

let suite =
  [
    Alcotest.test_case "clock" `Quick test_clock;
    Alcotest.test_case "cold miss latency" `Quick test_cold_miss_latency;
    Alcotest.test_case "prefetched node T1+(w-1)Tnext" `Quick test_prefetched_node_cost;
    Alcotest.test_case "unprefetched node serial misses" `Quick test_unprefetched_node_cost;
    Alcotest.test_case "L2 hit after L1 eviction" `Quick test_l2_hit;
    Alcotest.test_case "invalidate range" `Quick test_invalidate;
    Alcotest.test_case "miss handler bound" `Quick test_miss_handler_bound;
    Alcotest.test_case "flush" `Quick test_flush;
    Alcotest.test_case "mem accessors" `Quick test_mem_accessors;
    Alcotest.test_case "busy accounting" `Quick test_busy_accounting;
    Alcotest.test_case "re-prefetch after invalidate" `Quick
      test_reprefetch_after_invalidate;
    Alcotest.test_case "two in-flight lines in one filter bucket" `Quick
      test_filter_shared_bucket;
    Alcotest.test_case "create rejects geometry it cannot model" `Quick
      test_create_rejects_bad_geometry;
    prop_prefetch_batch_cost;
    prop_cache_matches_model;
    Alcotest.test_case "cache charge path allocates nothing" `Quick
      test_cache_no_alloc;
    Alcotest.test_case "mem accessors allocate nothing" `Quick test_mem_no_alloc;
    Alcotest.test_case "pool pin of a resident page allocates nothing" `Quick
      test_pool_pin_no_alloc;
    Alcotest.test_case "page checksum and record encode allocate only the frame"
      `Quick test_durability_alloc;
    Alcotest.test_case "pB+-Tree search allocates only its result" `Quick
      test_pbtree_search_alloc;
    Alcotest.test_case "jump-pointer range scans allocate nothing per leaf"
      `Quick test_scan_no_alloc_per_leaf;
  ]
  @ List.map
      (fun (name, _) ->
        Alcotest.test_case ("pinned counters " ^ name) `Quick
          (test_pinned_counters name))
      pinned_counters
