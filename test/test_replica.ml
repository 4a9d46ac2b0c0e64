(* Tests for WAL log-shipping replication: link-level in-order delivery
   and determinism, PRNG splitting, the zero-committed-loss failover
   property at random async kill points, a semi-sync boundary sweep,
   divergence detection on old-primary rejoin, and the retention /
   snapshot catch-up path. *)

open Fpb_btree_common
module X = Fpb_experiments
module W = Fpb_workload
module Wal = Fpb_wal.Wal
module Shadow = Fpb_snapshot.Shadow
module Replica = Fpb_replica.Replica
module Net = Fpb_replica.Net

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let kind = X.Setup.Disk_first
let fill = 0.8
let page_size = 4096

(* --- Prng.split ----------------------------------------------------- *)

let draws rng n = List.init n (fun _ -> W.Prng.int rng 1_000_000)

let test_prng_split () =
  let parent = W.Prng.create 42 in
  let a = W.Prng.split parent in
  let b = W.Prng.split parent in
  let da = draws a 16 and db = draws b 16 in
  check_bool "children diverge" false (da = db);
  (* same seed, same split order: byte-identical substreams *)
  let parent' = W.Prng.create 42 in
  let a' = W.Prng.split parent' in
  let b' = W.Prng.split parent' in
  Alcotest.(check (list int)) "first child deterministic" da (draws a' 16);
  Alcotest.(check (list int)) "second child deterministic" db (draws b' 16);
  (* splitting must not entangle the parent's own stream *)
  let lone = W.Prng.create 42 in
  ignore (W.Prng.split lone);
  ignore (W.Prng.split lone);
  let tapped = W.Prng.create 42 in
  ignore (W.Prng.split tapped);
  ignore (W.Prng.split tapped);
  Alcotest.(check (list int)) "parent stream unaffected by child draws"
    (draws lone 8) (draws tapped 8)

(* --- Net: in-order delivery under loss + reordering ------------------ *)

let faulty_profile =
  {
    Net.default_profile with
    Net.loss = 0.1;
    rto_ns = 500_000;
    reorder_p = 0.3;
    reorder_extra_ns = 400_000;
  }

let delivery_times seed =
  let link = Net.create ~prng:(W.Prng.create seed) faulty_profile in
  let out = ref [] in
  for i = 0 to 199 do
    out := Net.deliver link ~send:(i * 50_000) ~bytes:256 :: !out
  done;
  (link, List.rev !out)

let test_net_in_order () =
  let link, times = delivery_times 11 in
  let prev = ref min_int in
  List.iteri
    (fun i t ->
      if t < !prev then
        Alcotest.failf "delivery %d at %d overtakes predecessor at %d" i t !prev;
      if t < i * 50_000 then Alcotest.failf "delivery %d before its send" i;
      prev := t)
    times;
  (* the profile must actually have exercised the fault paths *)
  let kv = Net.kv link in
  check_bool "some transmissions lost" true (List.assoc "net.drops" kv > 0);
  check_bool "some reorders drawn" true (List.assoc "net.reorders" kv > 0)

let test_net_determinism () =
  let _, a = delivery_times 11 in
  let _, b = delivery_times 11 in
  Alcotest.(check (list int)) "same seed, same schedule" a b;
  let _, c = delivery_times 12 in
  check_bool "different seed perturbs the schedule" false (a = c)

(* --- replicated system scaffolding ----------------------------------- *)

(* Small bulkloaded tree + attached WAL + 2-replica group over healthy
   links; serial committed inserts via [step]. *)
let build_group ?(mode = Replica.Semi_sync 1) ?(keys = 400) () =
  let rng = W.Prng.create 7 in
  let pairs = W.Keygen.bulk_pairs rng keys in
  let sys = X.Setup.make ~n_disks:2 ~pool_pages:96 ~n_shards:1 ~page_size () in
  let idx = X.Run.build sys kind pairs ~fill in
  let wal = Wal.attach ~meta:(Index_sig.meta idx) sys.X.Setup.pool in
  let group =
    Replica.create
      ~config:{ Replica.default_config with Replica.mode }
      ~prng:(W.Prng.create 0xbeef)
      ~profiles:[ Net.default_profile; Net.default_profile ]
      (wal, sys.X.Setup.pool)
  in
  (sys, idx, wal, group)

let key_of i = 0x4000_0000 + i

let step idx wal committed =
  incr committed;
  ignore (Index_sig.insert idx (key_of !committed) (!committed land 0xFFFF));
  Wal.commit wal ~op:!committed ~meta:(Index_sig.meta idx)

(* --- semi-sync: no acked commit survives a kill ----------------------- *)

let test_semi_sync_kill_boundaries () =
  List.iter
    (fun kill_at ->
      let _sys, idx, wal, group = build_group ~mode:(Replica.Semi_sync 1) () in
      let committed = ref 0 in
      for _ = 1 to kill_at do
        step idx wal committed
      done;
      Wal.crash_now wal;
      Replica.kill group;
      let horizon =
        match Replica.killed_at group with
        | Some h -> h
        | None -> Alcotest.fail "killed_at unset after kill"
      in
      (* serial loop: a returned commit is an acked commit *)
      let acked = Replica.acked_op group ~horizon in
      check_int "acked = commits returned" kill_at acked;
      let p = Replica.promote group in
      check_bool "no acked commit lost" true (p.Replica.committed_op >= acked);
      let idx2 = X.Run.adopt kind p.Replica.pool ~meta:p.Replica.meta in
      for i = 1 to p.Replica.committed_op do
        match Index_sig.search idx2 (key_of i) with
        | Some _ -> ()
        | None ->
            Alcotest.failf "kill@%d: committed key %d missing after failover"
              kill_at i
      done;
      Index_sig.check idx2)
    [ 1; 3; 7; 12 ]

(* --- async: a kill loses exactly the unshipped suffix ----------------- *)

(* Golden run measuring where the op stream lives in the sealed log, so
   the property can aim a crash byte anywhere inside it. *)
let async_op_span =
  lazy
    (let _sys, idx, wal, group = build_group ~mode:Replica.Async () in
     let committed = ref 0 in
     let b0 = Wal.log_bytes wal in
     for _ = 1 to 25 do
       step idx wal committed
     done;
     Replica.detach group;
     (b0, Wal.log_bytes wal - b0))

let async_kill_prop frac =
  let b0, span = Lazy.force async_op_span in
  let crash_byte = b0 + (frac * (span - 1) / 9999) in
  let _sys, idx, wal, group = build_group ~mode:Replica.Async () in
  Wal.set_crash_at_byte wal (Some crash_byte);
  let committed = ref 0 in
  (try
     for _ = 1 to 25 do
       step idx wal committed
     done
   with Wal.Crashed -> ());
  if not (Wal.is_crashed wal) then Wal.crash_now wal;
  Replica.kill group;
  let horizon = Option.get (Replica.killed_at group) in
  let best =
    let b = ref 0 in
    for i = 0 to Replica.n_nodes group - 1 do
      b :=
        max !b
          (Replica.node_durable_op group (Replica.node group i) ~horizon)
    done;
    !b
  in
  let acked = Replica.acked_op group ~horizon in
  let p = Replica.promote group in
  (* most-advanced durable prefix wins; async acks can outrun replicas
     but never the primary's own durable log *)
  p.Replica.committed_op = best && best <= acked && acked <= !committed

(* --- divergence detection on old-primary rejoin ----------------------- *)

let test_rejoin_divergence () =
  let sys, idx, wal, group = build_group ~mode:(Replica.Semi_sync 1) () in
  let committed = ref 0 in
  for _ = 1 to 30 do
    step idx wal committed
  done;
  (* partition the primary away: the group freezes, but the old primary
     keeps committing a suffix nobody ever ships *)
  Replica.kill group;
  for _ = 1 to 5 do
    step idx wal committed
  done;
  let p = Replica.promote group in
  check_int "promoted at the last shipped commit" 30 p.Replica.committed_op;
  let idx2 = X.Run.adopt kind p.Replica.pool ~meta:p.Replica.meta in
  let group2 = Replica.resume group p in
  let committed2 = ref 30 in
  for _ = 1 to 8 do
    step idx2 p.Replica.wal committed2
  done;
  (* the old primary comes back: its durable suffix (ops 31..35) forks
     from the surviving history right after the promotion point *)
  match
    Replica.rejoin group2 ~old_pool:sys.X.Setup.pool ~old_wal:wal
      ~prng:(W.Prng.create 99) ()
  with
  | Replica.Snapshot_required _ ->
      Alcotest.fail "untrimmed archive must allow a delta rejoin"
  | Replica.Rejoined { fork_lsn; truncated_records; pages_copied } ->
      check_int "fork right after the promoted commit"
        (p.Replica.committed_lsn + 1) fork_lsn;
      check_bool "divergent suffix truncated" true (truncated_records > 0);
      check_bool "fork-touched pages re-shipped" true (pages_copied > 0);
      (* one replica became the primary, one survived, plus the rejoin *)
      check_int "rejoined node added" 2 (Replica.n_nodes group2);
      let back = Replica.node group2 (Replica.n_nodes group2 - 1) in
      check_int "rejoined node converges on the surviving history" 38
        (Replica.sync_node group2 ~horizon:max_int back);
      Index_sig.check idx2

(* An old-primary record with the archive's LSN and frame length but
   one different payload byte must still fork the rejoin at that LSN:
   the archive keeps only each frame's CRC trailer for the comparison.
   Two runs of the same deterministic system differ in the last inserted
   value's low bit, so their logs match record for record but one (an
   earlier flip would also ride in later deltas' spans). *)
let test_rejoin_one_byte_divergence () =
  let run flip =
    let sys, idx, wal, group = build_group ~mode:(Replica.Semi_sync 1) () in
    for i = 1 to 12 do
      let v = if i = flip then i lxor 1 else i in
      ignore (Index_sig.insert idx (key_of i) v);
      Wal.commit wal ~op:i ~meta:(Index_sig.meta idx)
    done;
    (sys, wal, group)
  in
  let _, wal, group = run 0 in
  let old_sys, old_wal, _ = run 12 in
  let recs = Wal.durable_records wal in
  let old_recs = Wal.durable_records old_wal in
  check_int "same record count" (List.length recs) (List.length old_recs);
  match List.filter (fun (a, b) -> a <> b) (List.combine recs old_recs) with
  | [ (r, old_r) ] -> (
      let f = Wal.Codec.encode r and old_f = Wal.Codec.encode old_r in
      check_int "same LSN" (Wal.record_lsn r) (Wal.record_lsn old_r);
      check_int "same frame length" (String.length f) (String.length old_f);
      let payload_diffs = ref 0 in
      for i = 4 to String.length f - 5 do
        if f.[i] <> old_f.[i] then incr payload_diffs
      done;
      check_int "one payload byte differs" 1 !payload_diffs;
      match
        Replica.rejoin group ~old_pool:old_sys.X.Setup.pool ~old_wal
          ~prng:(W.Prng.create 5) ()
      with
      | Replica.Rejoined { fork_lsn; truncated_records; _ } ->
          check_int "fork at the differing record" (Wal.record_lsn r) fork_lsn;
          check_bool "suffix from the fork truncated" true
            (truncated_records > 0)
      | Replica.Snapshot_required _ ->
          Alcotest.fail "untrimmed archive must allow a delta rejoin")
  | l -> Alcotest.failf "expected one differing record, got %d" (List.length l)

(* --- retention: log catch-up refused, snapshot path succeeds ---------- *)

let test_retention_snapshot_catchup () =
  let sys, idx, wal, group = build_group ~mode:(Replica.Semi_sync 1) () in
  let sh = Shadow.attach ~meta:(Index_sig.meta idx) wal sys.X.Setup.pool in
  let committed = ref 0 in
  for _ = 1 to 10 do
    step idx wal committed
  done;
  let dark = Replica.node group 1 in
  Replica.detach_replica group dark;
  for i = 1 to 60 do
    step idx wal committed;
    if i mod 15 = 0 then begin
      Shadow.checkpoint_sync sh ~meta:(Index_sig.meta idx);
      ignore
        (Replica.trim_archive group ~below_lsn:(Shadow.retention_lsn sh) : int)
    end
  done;
  (match Replica.catch_up_via_log group dark with
  | `Retention_exceeded -> ()
  | `Ok _ -> Alcotest.fail "trimmed archive must refuse log catch-up");
  let snap = Shadow.open_at_checkpoint sh in
  let pages, tail, ns = Replica.catch_up_via_snapshot group dark ~snapshot:snap in
  Shadow.close snap;
  check_bool "snapshot shipped pages" true (pages > 0);
  check_bool "tail replay bounded by ops since the cut" true (tail >= 0);
  check_bool "catch-up charged simulated time" true (ns > 0);
  check_int "dark replica fully caught up" !committed
    (Replica.node_committed_op dark);
  (* the healthy replica was never behind *)
  check_int "live replica converged" !committed
    (Replica.sync_node group ~horizon:max_int (Replica.node group 0))

(* --- retention frees memory without changing any outcome ------------ *)

let store_pages store =
  List.init (Fpb_storage.Page_store.total_pages store) (fun i ->
      Bytes.to_string (Fpb_storage.Page_store.bytes store (i + 1)))

(* One semi-sync run with a shadow flip every [every] ops, [trim] after
   each flip or never; node 1 optionally goes dark at op [dark_at].  The
   primary dies after op [kill_at]; the promoted node then serves a
   second phase (with flips and trims of its own) before the old primary
   rejoins.  Everything observable about the failover is returned. *)
let trim_run ~trim ~kill_at ~dark_at =
  let sys, idx, wal, group =
    build_group ~mode:(Replica.Semi_sync 1) ~keys:8000 ()
  in
  let sh = Shadow.attach ~meta:(Index_sig.meta idx) wal sys.X.Setup.pool in
  let flip sh idx group =
    Shadow.checkpoint_sync sh ~meta:(Index_sig.meta idx);
    if trim then
      ignore
        (Replica.trim_archive group ~below_lsn:(Shadow.retention_lsn sh) : int)
  in
  let committed = ref 0 in
  for i = 1 to kill_at do
    step idx wal committed;
    if i = dark_at then Replica.detach_replica group (Replica.node group 1);
    if i mod 6 = 0 then flip sh idx group
  done;
  Wal.crash_now wal;
  Replica.kill group;
  let horizon = Option.get (Replica.killed_at group) in
  let acked = Replica.acked_op group ~horizon in
  let durable =
    List.init (Replica.n_nodes group) (fun i ->
        Replica.node_durable_op group (Replica.node group i) ~horizon)
  in
  let p = Replica.promote group in
  let promoted =
    ( (p.Replica.committed_op, p.Replica.committed_lsn, p.Replica.meta),
      p.Replica.truncated_records,
      store_pages p.Replica.store )
  in
  let synced =
    List.init (Replica.n_nodes group) (fun i ->
        Replica.sync_node group ~horizon:max_int (Replica.node group i))
  in
  (* second phase on the promoted node, then the old primary rejoins *)
  let idx2 = X.Run.adopt kind p.Replica.pool ~meta:p.Replica.meta in
  let group2 = Replica.resume group p in
  let committed2 = ref p.Replica.committed_op in
  (* keys scattered over the tree, so the new history touches many
     pages; the first commit also closes the pages adopting the handle
     touched *)
  let rng = W.Prng.create 3 in
  let step2 () =
    incr committed2;
    ignore (Index_sig.insert idx2 (W.Prng.int rng (Key.max_key - 1)) 1);
    Wal.commit p.Replica.wal ~op:!committed2 ~meta:(Index_sig.meta idx2)
  in
  step2 ();
  let sh2 =
    Shadow.attach ~meta:(Index_sig.meta idx2) p.Replica.wal p.Replica.pool
  in
  for i = 1 to 48 do
    step2 ();
    if i mod 6 = 0 then flip sh2 idx2 group2
  done;
  ignore (Wal.recover wal : Wal.recovery);
  let rejoin =
    match
      Replica.rejoin group2 ~old_pool:sys.X.Setup.pool ~old_wal:wal
        ~prng:(W.Prng.create 99) ()
    with
    | Replica.Rejoined { fork_lsn; truncated_records; pages_copied } ->
        let back = Replica.node group2 (Replica.n_nodes group2 - 1) in
        let op = Replica.sync_node group2 ~horizon:max_int back in
        Some (fork_lsn, truncated_records, pages_copied, op)
    | Replica.Snapshot_required _ -> None
  in
  ((acked, durable, promoted, synced), rejoin, Replica.kv group2)

let trim_invisible_prop (kill_at, dark_at) =
  let kept, kept_rejoin, kept_kv = trim_run ~trim:false ~kill_at ~dark_at in
  let trimmed, trimmed_rejoin, trimmed_kv =
    trim_run ~trim:true ~kill_at ~dark_at
  in
  let without_trims =
    List.filter (fun (k, _) -> k <> "replica.archive.trimmed_records")
  in
  if kept <> trimmed then QCheck2.Test.fail_report "failover differs";
  (* trimming may force a rejoin onto the snapshot path; a delta rejoin
     must come out the same as without trims *)
  match trimmed_rejoin with
  | None -> true
  | Some _ when trimmed_rejoin <> kept_rejoin ->
      QCheck2.Test.fail_report "rejoin differs"
  | Some _ -> without_trims kept_kv = without_trims trimmed_kv

(* Fixed checkpoint interval: once retention reaches steady state, the
   host memory behind the log and the shipping archive stops growing
   while the log itself keeps growing. *)
let test_bounded_residency () =
  let sys, idx, wal, group = build_group ~mode:(Replica.Semi_sync 1) () in
  let sh = Shadow.attach ~meta:(Index_sig.meta idx) wal sys.X.Setup.pool in
  let committed = ref 0 in
  let gauges () =
    ( Wal.resident_log_bytes wal,
      Replica.retained_entries group,
      Wal.log_bytes wal )
  in
  let at10 = ref (0, 0, 0) in
  for cycle = 1 to 20 do
    for _ = 1 to 24 do
      step idx wal committed
    done;
    Shadow.checkpoint_sync sh ~meta:(Index_sig.meta idx);
    ignore
      (Replica.trim_archive group ~below_lsn:(Shadow.retention_lsn sh) : int);
    if cycle = 10 then at10 := gauges ()
  done;
  let wal10, arch10, logged10 = !at10 in
  let wal20, arch20, logged20 = gauges () in
  check_bool "the log kept growing" true (logged20 * 10 >= logged10 * 18);
  check_bool
    (Printf.sprintf "WAL residency bounded (%d -> %d bytes)" wal10 wal20)
    true
    (wal20 * 10 <= wal10 * 11);
  check_bool
    (Printf.sprintf "archive residency bounded (%d -> %d entries)" arch10
       arch20)
    true
    (arch20 * 10 <= arch10 * 11);
  (* the released log is gone: a scan from below the floor is refused *)
  Wal.set_recovery_base wal
    (Some
       {
         Wal.load_page = (fun _ -> None);
         base_marks = [| 0 |];
         base_alloc = (0, []);
       });
  Wal.crash_now wal;
  match Wal.recover wal with
  | _ -> Alcotest.fail "recovery read below the retention floor"
  | exception Invalid_argument _ -> ()

let suite =
  [
    Alcotest.test_case "prng split: deterministic, independent" `Quick
      test_prng_split;
    Alcotest.test_case "net: in-order delivery under loss/reorder" `Quick
      test_net_in_order;
    Alcotest.test_case "net: same seed, same schedule" `Quick
      test_net_determinism;
    Alcotest.test_case "semi-sync: kill boundary sweep loses no acked op"
      `Quick test_semi_sync_kill_boundaries;
    Util.qtest ~count:12 "async: promotion = most advanced durable prefix"
      QCheck2.Gen.(int_bound 9999)
      async_kill_prop;
    Alcotest.test_case "rejoin: divergent suffix detected and truncated"
      `Quick test_rejoin_divergence;
    Alcotest.test_case "rejoin: one-byte divergence at equal LSN and length"
      `Quick test_rejoin_one_byte_divergence;
    Alcotest.test_case "retention: snapshot catch-up after trim" `Quick
      test_retention_snapshot_catchup;
    Util.qtest ~count:6
      "retention: trimming the archive is invisible to failover"
      QCheck2.Gen.(pair (1 -- 40) (0 -- 40))
      trim_invisible_prop;
    Alcotest.test_case "retention: host residency bounded at a fixed interval"
      `Quick test_bounded_residency;
  ]
