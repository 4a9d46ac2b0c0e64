(* Output oracle.  The timed phase logs every dispatched action and the
   result the index returned into preallocated arrays; after the timed
   phase [check] replays the log, in dispatch order, against a model of
   the key set (the bulk-loaded pairs plus a [Map] of written keys) and
   then compares a full [Index_sig.iter] with the model.  Nothing here
   runs inside a timed region. *)

module IM = Map.Make (Int)

(* Action codes in the log. *)
let read = 0
let update = 1
let insert = 2
let scan = 3
let failed = 4 (* the engine raised (Overloaded / Io_error) *)

(* Results: a read logs the value found or [absent]; a write logs
   [inserted] or [updated]; a scan logs the number of entries visited. *)
let absent = -1
let inserted = 0
let updated = 1

type log = {
  mutable n : int;
  mutable kind : int array;
  mutable key : int array;
  mutable arg : int array;  (** written value, or a scan's end key *)
  mutable res : int array;
}

let create_log () =
  { n = 0; kind = [||]; key = [||]; arg = [||]; res = [||] }

(* Make room for [extra] more records, so [record] never allocates. *)
let reserve l extra =
  let need = l.n + extra in
  if need > Array.length l.kind then begin
    let cap = max need (2 * Array.length l.kind) in
    let grow a =
      let b = Array.make cap 0 in
      Array.blit a 0 b 0 l.n;
      b
    in
    l.kind <- grow l.kind;
    l.key <- grow l.key;
    l.arg <- grow l.arg;
    l.res <- grow l.res
  end

let record l kind key arg res =
  let i = l.n in
  l.kind.(i) <- kind;
  l.key.(i) <- key;
  l.arg.(i) <- arg;
  l.res.(i) <- res;
  l.n <- i + 1

type verdict = {
  ops : int;
  failed_ops : int;  (** ops that raised or returned a wrong result *)
  entry_mismatches : int;  (** final iter vs model *)
  check_error : string option;  (** [Index_sig.check] *)
  messages : string list;  (** the first few failures *)
}

let failures v =
  v.failed_ops + v.entry_mismatches + Option.fold ~none:0 ~some:(fun _ -> 1) v.check_error

(* First index in [keys] whose key is >= [k]. *)
let lower_bound keys k =
  let lo = ref 0 and hi = ref (Array.length keys) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if keys.(mid) < k then lo := mid + 1 else hi := mid
  done;
  !lo

let check ~pairs l idx =
  let keys = Array.map fst pairs and vals = Array.map snd pairs in
  let nb = Array.length keys in
  let base_find k =
    let i = lower_bound keys k in
    if i < nb && keys.(i) = k then Some vals.(i) else None
  in
  (* written keys: value, and whether the key is absent from the base *)
  let overlay = ref IM.empty in
  let find k =
    match IM.find_opt k !overlay with
    | Some (v, _) -> Some v
    | None -> base_find k
  in
  let range_count s e =
    if e < s then 0
    else begin
      let base = lower_bound keys (e + 1) - lower_bound keys s in
      let fresh = ref 0 in
      Seq.iter
        (fun (_, (_, is_new)) -> if is_new then incr fresh)
        (Seq.take_while (fun (k, _) -> k <= e) (IM.to_seq_from s !overlay));
      base + !fresh
    end
  in
  let failed_ops = ref 0 and messages = ref [] in
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        incr failed_ops;
        if List.length !messages < 5 then messages := m :: !messages)
      fmt
  in
  for i = 0 to l.n - 1 do
    let k = l.key.(i) and a = l.arg.(i) and r = l.res.(i) in
    match l.kind.(i) with
    | c when c = read ->
        let expect = Option.value (find k) ~default:absent in
        if r <> expect then fail "op %d: read %d returned %d, model %d" i k r expect
    | c when c = update || c = insert ->
        let present = find k <> None in
        let expect = if present then updated else inserted in
        if r <> expect then
          fail "op %d: write %d reported %s, model %s" i k
            (if r = inserted then "Inserted" else "Updated")
            (if present then "Updated" else "Inserted");
        overlay := IM.add k (a, base_find k = None) !overlay
    | c when c = scan ->
        let expect = range_count k a in
        if r <> expect then fail "op %d: scan [%d,%d] visited %d, model %d" i k a r expect
    | _ -> fail "op %d: the engine raised on key %d" i k
  done;
  let check_error =
    match Fpb_btree_common.Index_sig.check idx with
    | () -> None
    | exception Failure m -> Some m
  in
  (* final contents: base keys (with overwritten values) merged with the
     newly inserted keys, in key order *)
  let fresh =
    Array.of_list
      (List.filter_map
         (fun (k, (v, is_new)) -> if is_new then Some (k, v) else None)
         (IM.bindings !overlay))
  in
  let nf = Array.length fresh in
  let bi = ref 0 and fi = ref 0 and mismatches = ref 0 in
  Fpb_btree_common.Index_sig.iter idx (fun k v ->
      let ek, ev =
        if !bi < nb && (!fi >= nf || keys.(!bi) < fst fresh.(!fi)) then begin
          let k' = keys.(!bi) in
          incr bi;
          (k', Option.get (find k'))
        end
        else if !fi < nf then begin
          let e = fresh.(!fi) in
          incr fi;
          e
        end
        else (-1, -1)
      in
      if k <> ek || v <> ev then begin
        incr mismatches;
        if List.length !messages < 5 then
          messages :=
            Printf.sprintf "iter: found (%d,%d), model (%d,%d)" k v ek ev
            :: !messages
      end);
  mismatches := !mismatches + (nb - !bi) + (nf - !fi);
  {
    ops = l.n;
    failed_ops = !failed_ops;
    entry_mismatches = !mismatches;
    check_error;
    messages = List.rev !messages;
  }
