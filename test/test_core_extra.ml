(* fpB+-Tree-specific tests: jump-pointer array mechanics, in-page
   structure behaviour, tuned configuration sanity, split pressure. *)

open Fpb_storage
open Fpb_simmem
open Fpb_core

let check_int = Alcotest.(check int)

(* --- Jump-pointer array ---------------------------------------------------- *)

let with_jp f =
  let pool = Util.make_pool ~page_size:4096 () in
  let jp = Jump_array.create pool in
  f pool jp

let test_jp_build_and_cursor () =
  with_jp (fun pool jp ->
      let store = Buffer_pool.store pool in
      let pages = Array.init 50 (fun _ -> Page_store.alloc store) in
      let assigned = Hashtbl.create 64 in
      Jump_array.build jp pages ~fill:0.5 ~on_assign:(fun pg ~chunk ->
          Hashtbl.replace assigned pg chunk);
      Alcotest.(check (list int)) "all ids in order" (Array.to_list pages)
        (Jump_array.peek_all jp);
      check_int "every page assigned" 50 (Hashtbl.length assigned);
      (* cursor from the middle *)
      let mid = pages.(20) in
      let cur =
        Jump_array.cursor_at jp ~chunk:(Hashtbl.find assigned mid) ~page:mid
      in
      let rest = ref [] in
      let rec drain () =
        let id = Jump_array.next cur in
        if id <> Page_store.nil then begin
          rest := id :: !rest;
          drain ()
        end
      in
      drain ();
      Alcotest.(check (list int)) "cursor suffix"
        (Array.to_list (Array.sub pages 20 30))
        (List.rev !rest))

let test_jp_insert_and_split () =
  with_jp (fun pool jp ->
      let store = Buffer_pool.store pool in
      let pages = Array.init 10 (fun _ -> Page_store.alloc store) in
      let assigned = Hashtbl.create 64 in
      let on_assign pg ~chunk = Hashtbl.replace assigned pg chunk in
      Jump_array.build jp pages ~fill:1.0 ~on_assign;
      (* insert a new page after each existing one; chunk fill 1.0 means the
         first insert forces a chunk split *)
      let extra = Array.init 10 (fun _ -> Page_store.alloc store) in
      Array.iteri
        (fun i np ->
          let after = pages.(i) in
          Jump_array.insert_after jp
            ~chunk:(Hashtbl.find assigned after)
            ~after_page:after ~new_page:np ~on_assign)
        extra;
      let expected =
        List.concat_map (fun i -> [ pages.(i); extra.(i) ]) (List.init 10 Fun.id)
      in
      Alcotest.(check (list int)) "interleaved order" expected (Jump_array.peek_all jp);
      (* every page's recorded chunk really contains it *)
      Hashtbl.iter
        (fun pg chunk ->
          let cur = Jump_array.cursor_at jp ~chunk ~page:pg in
          let id = Jump_array.next cur in
          if id = Page_store.nil then Alcotest.fail "cursor empty";
          check_int "cursor lands on page" pg id)
        assigned)

(* --- Disk-first specifics ---------------------------------------------------- *)

let test_df_config () =
  let pool = Util.make_pool ~page_size:16384 () in
  let t = Disk_first.create pool in
  let c = Disk_first.cfg t in
  check_int "w" 3 c.Disk_first.w;
  check_int "x" 9 c.Disk_first.x;
  Alcotest.(check bool) "max_leaves sane" true
    (c.max_leaves * c.fl >= c.max_fanout)

let test_df_page_split_pressure () =
  (* fill a 100%-bulkloaded single-page region and force splits/reorgs *)
  let pool = Util.make_pool ~page_size:4096 () in
  let t = Disk_first.create pool in
  Disk_first.bulkload t (Array.init 400 (fun i -> (10 * i, i))) ~fill:1.0;
  for i = 0 to 4000 do
    ignore (Disk_first.insert t ((10 * i) + 5) i)
  done;
  Disk_first.check t;
  check_int "all present" 4401
    (Disk_first.range_scan t ~start_key:min_int ~end_key:max_int (fun _ _ -> ()))

let test_df_custom_widths () =
  let pool = Util.make_pool ~page_size:16384 () in
  let t = Disk_first.create_custom pool ~w:1 ~x:4 in
  Disk_first.bulkload t (Array.init 20_000 (fun i -> (i, i))) ~fill:0.9;
  Disk_first.check t;
  Alcotest.(check (option int)) "search" (Some 777) (Disk_first.search t 777)

(* --- Disk-first scan-cursor positioning -------------------------------------- *)

(* A disk-first tree grown by random inserts, on 1KB pages with narrow
   nodes: height 3, several leaf-parent pages, several in-page leaf nodes
   in each.  Returns the pool, the tree, its keys in order and the
   leaf-parent level as one flat array of (separator, leaf page) entries
   with the (page, node, slot) position of each. *)
let df_grown_tree n =
  let pool = Util.make_pool ~page_size:1024 () in
  let t = Disk_first.create_custom pool ~w:1 ~x:2 in
  let rng = Fpb_workload.Prng.create 3 in
  for _ = 1 to n do
    let k = Fpb_workload.Prng.int rng 1_000_000 in
    ignore (Disk_first.insert t k k)
  done;
  Disk_first.check t;
  let keys = ref [] in
  Disk_first.iter t (fun k _ -> keys := k :: !keys);
  let keys = Array.of_list (List.rev !keys) in
  let level = Disk_first.leaf_parent_level t in
  let flat =
    List.concat
      (List.mapi
         (fun p nodes ->
           List.concat
             (List.mapi
                (fun q node ->
                  List.mapi (fun i e -> (e, (p, q, i))) (Array.to_list node))
                nodes))
         level)
  in
  (pool, t, keys, Array.of_list flat)

(* A cold-pool scan with the end-page bound on prefetches exactly the leaf
   pages after the first one it reads, and reads each of them as a
   prefetch hit.  A cursor that starts one entry early or late shows up as
   one prefetch too many or too few.  [leaves] is the number of leaf pages
   the range spans. *)
let check_scan_prefetch pool t keys name ~start_key ~end_key ~leaves =
  let expected =
    Array.fold_left
      (fun acc k -> if k >= start_key && k <= end_key then acc + 1 else acc)
      0 keys
  in
  List.iter
    (fun (dir, scan) ->
      let name = Printf.sprintf "%s, %s" name dir in
      Buffer_pool.clear pool;
      let counter c = List.assoc c (Buffer_pool.kv pool) in
      let issued0 = counter "pool.prefetch_issued" in
      let hits0 = counter "pool.prefetch_hits" in
      Disk_first.reset_level_accesses t;
      let n = scan ~start_key ~end_key in
      let acc = Disk_first.level_accesses t in
      check_int (name ^ ": entries") expected n;
      check_int (name ^ ": leaf pages visited") leaves acc.(Array.length acc - 1);
      check_int (name ^ ": prefetches issued") (leaves - 1)
        (counter "pool.prefetch_issued" - issued0);
      check_int (name ^ ": prefetch hits") (leaves - 1)
        (counter "pool.prefetch_hits" - hits0))
    [
      ("forward", Disk_first.range_scan t ~prefetch:true (fun _ _ -> ()));
      ("reverse", Disk_first.range_scan_rev t ~prefetch:true (fun _ _ -> ()));
    ]

let test_df_scan_positioning () =
  let pool, t, keys, flat = df_grown_tree 20_000 in
  check_int "height" 3 (Disk_first.height t);
  let level = Disk_first.leaf_parent_level t in
  Alcotest.(check bool) "several leaf-parent pages" true (List.length level >= 3);
  Alcotest.(check bool) "several in-page leaf nodes per page" true
    (List.for_all (fun nodes -> List.length nodes >= 3) level);
  Disk_first.set_bound_scan_end t true;
  let n_leaves = Array.length flat in
  (* the keys of leaf page [j]: from its separator up to the next one *)
  let leaf_key j i =
    let lo = if j = 0 then min_int else fst (fst flat.(j)) in
    let hi = if j + 1 < n_leaves then fst (fst flat.(j + 1)) else max_int in
    let ks = List.filter (fun k -> k >= lo && k < hi) (Array.to_list keys) in
    if List.length ks < 3 then Alcotest.failf "leaf %d holds under 3 keys" j;
    List.nth ks i
  in
  let index_of pos =
    let rec go j = if snd flat.(j) = pos then j else go (j + 1) in
    go 0
  in
  (* leaves [a..b]: start on [a]'s second key, end on [b]'s first, so
     neither direction reads a page beyond the range *)
  let check_leaves name a b =
    check_scan_prefetch pool t keys name ~start_key:(leaf_key a 1)
      ~end_key:(leaf_key b 0) ~leaves:(b - a + 1)
  in
  (* each boundary case runs once starting at leaf [j] (the forward
     cursor's first step crosses it) and once ending at leaf [j + 1] (the
     reverse cursor's first step crosses it) *)
  let across name j =
    check_leaves (name ^ ", from it") j (j + 6);
    check_leaves (name ^ ", up to the next") (j - 5) (j + 1)
  in
  let nodes_of_page1 = List.nth level 1 in
  let last_node = List.length nodes_of_page1 - 1 in
  check_leaves "mid-node" (index_of (1, 1, 1)) (index_of (1, 1, 1) + 6);
  across "last entry of an in-page leaf node"
    (index_of (1, 0, Array.length (List.nth nodes_of_page1 0) - 1));
  across "last entry of a leaf-parent page"
    (index_of (1, last_node, Array.length (List.nth nodes_of_page1 last_node) - 1));
  (* a long range: the prefetch pump refills past its distance (16) *)
  check_leaves "forty leaves" (index_of (1, 1, 1)) (index_of (1, 1, 1) + 40);
  check_scan_prefetch pool t keys "start below the tree minimum" ~start_key:(-1)
    ~end_key:(leaf_key 8 0) ~leaves:9;
  let j = index_of (2, 1, 1) in
  check_scan_prefetch pool t keys "start and end on one page"
    ~start_key:(leaf_key j 1) ~end_key:(leaf_key j 2) ~leaves:1;
  (* height 1: no leaf-parent level, so no cursor and no prefetch *)
  let pool, t, keys, flat = df_grown_tree 40 in
  check_int "height-1 tree" 1 (Disk_first.height t);
  check_int "height-1 tree has no leaf parents" 0 (Array.length flat);
  check_scan_prefetch pool t keys "height-1 tree" ~start_key:keys.(3)
    ~end_key:keys.(30) ~leaves:1

(* --- Cache-first specifics ---------------------------------------------------- *)

let test_cf_config () =
  let pool = Util.make_pool ~page_size:16384 () in
  let t = Cache_first.create pool in
  let c = Cache_first.cfg t in
  check_int "node lines" 11 c.Cache_first.w;
  check_int "slots" 23 c.slots;
  check_int "fn" 69 c.fn;
  check_int "fl" 87 c.fl

let test_cf_overflow_pages_exist () =
  (* a three-node-level tree at 4KB must place most leaf parents in
     overflow pages (paper Section 4.3.1: 51 of 57) *)
  let pool = Util.make_pool ~page_size:4096 ~capacity:16384 () in
  let t = Cache_first.create pool in
  Cache_first.bulkload t (Array.init 300_000 (fun i -> (i, i))) ~fill:1.0;
  Cache_first.check t;
  Alcotest.(check bool) "tree has 3+ node levels" true (Cache_first.height t >= 3)

let test_cf_jp_tracks_splits () =
  let pool = Util.make_pool ~page_size:4096 ~capacity:16384 () in
  let t = Cache_first.create pool in
  Cache_first.bulkload t (Array.init 50_000 (fun i -> (4 * i, i))) ~fill:1.0;
  for i = 0 to 20_000 do
    ignore (Cache_first.insert t ((4 * i) + 1) i)
  done;
  (* check () verifies the jump-pointer array lists exactly the leaf pages
     in order, so passing it after heavy splitting is the assertion *)
  Cache_first.check t

let test_cf_page_count_includes_jp () =
  let pool = Util.make_pool ~page_size:4096 () in
  let t = Cache_first.create pool in
  Cache_first.bulkload t (Array.init 10_000 (fun i -> (i, i))) ~fill:1.0;
  Alcotest.(check bool) "page_count > index pages" true
    (Cache_first.page_count t > Cache_first.index_page_count t - 1)

(* --- Shared: mature-tree space behaviour ------------------------------------- *)

let test_space_overhead_bounds () =
  (* paper Figure 16(a): disk-first overhead < 9%, cache-first < 5% right
     after a 100% bulkload *)
  let n = 200_000 in
  let pairs = Array.init n (fun i -> (3 * i, i)) in
  let pages kind =
    let pool = Util.make_pool ~page_size:16384 ~capacity:65536 () in
    let idx = Fpb_experiments.Setup.make_index kind pool in
    Fpb_btree_common.Index_sig.bulkload idx pairs ~fill:1.0;
    Fpb_btree_common.Index_sig.page_count idx
  in
  let base = pages Fpb_experiments.Setup.Disk_opt in
  let df = pages Fpb_experiments.Setup.Disk_first in
  let cf = pages Fpb_experiments.Setup.Cache_first in
  let pct x = 100. *. (float_of_int x /. float_of_int base -. 1.) in
  Alcotest.(check bool)
    (Printf.sprintf "disk-first overhead %.1f%% < 10%%" (pct df))
    true (pct df < 10.);
  Alcotest.(check bool)
    (Printf.sprintf "cache-first overhead %.1f%% < 10%%" (pct cf))
    true (pct cf < 10.)

let test_pbtree_allocated_bytes () =
  let sim = Sim.create () in
  let t = Fpb_pbtree.Pbtree.create sim in
  Fpb_pbtree.Pbtree.bulkload t (Array.init 10_000 (fun i -> (i, i))) ~fill:1.0;
  Alcotest.(check bool) "arena grows" true (Fpb_pbtree.Pbtree.allocated_bytes t > 10_000 * 8)

let suite =
  [
    Alcotest.test_case "jump array: build + cursor" `Quick test_jp_build_and_cursor;
    Alcotest.test_case "jump array: insert + chunk split" `Quick test_jp_insert_and_split;
    Alcotest.test_case "disk-first: tuned config" `Quick test_df_config;
    Alcotest.test_case "disk-first: split/reorg pressure" `Quick test_df_page_split_pressure;
    Alcotest.test_case "disk-first: custom widths" `Quick test_df_custom_widths;
    Alcotest.test_case "disk-first: scan cursor starts next to the start leaf"
      `Quick test_df_scan_positioning;
    Alcotest.test_case "cache-first: tuned config" `Quick test_cf_config;
    Alcotest.test_case "cache-first: deep tree + overflow" `Slow test_cf_overflow_pages_exist;
    Alcotest.test_case "cache-first: jump array tracks splits" `Quick test_cf_jp_tracks_splits;
    Alcotest.test_case "cache-first: page count includes jump array" `Quick
      test_cf_page_count_includes_jp;
    Alcotest.test_case "space overhead bounds (Fig 16a)" `Slow test_space_overhead_bounds;
    Alcotest.test_case "pbtree arena accounting" `Quick test_pbtree_allocated_bytes;
  ]
