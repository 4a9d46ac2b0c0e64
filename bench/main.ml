(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 4) on the simulated substrates, plus Bechamel
   wall-clock microbenchmarks of the core index operations, of the
   simulated machine's own bookkeeping, and of the durability path's
   checksum and record framing.

   Usage:
     dune exec bench/main.exe                 # every experiment, quick scale
     dune exec bench/main.exe -- fig10 fig13  # selected experiments
     dune exec bench/main.exe -- --full all   # paper-sized trees
     dune exec bench/main.exe -- --tiny all   # smoke-test sizes (CI)
     dune exec bench/main.exe -- --csv out/   # also write each table as CSV
     dune exec bench/main.exe -- --json F     # machine-readable report to F
     dune exec bench/main.exe -- bechamel     # wall-clock microbenches

   Results (paper vs. measured) are catalogued in EXPERIMENTS.md; the
   --json report schema is docs/OBSERVABILITY.md. *)

open Fpb_experiments

let run_bechamel () =
  (* Wall-clock cost of the real implementations (not simulated time):
     one Test.make per operation and index over a 100K-key tree. *)
  let open Bechamel in
  let make_setup kind =
    let sys = Setup.make ~page_size:16384 () in
    let rng = Fpb_workload.Prng.create 99 in
    let pairs = Fpb_workload.Keygen.bulk_pairs rng 100_000 in
    let idx = Run.build sys kind pairs ~fill:0.9 in
    let probes = Fpb_workload.Keygen.probes rng pairs 1 in
    (idx, probes.(0), rng)
  in
  let search_test kind =
    let idx, probe, _ = make_setup kind in
    Test.make
      ~name:(Printf.sprintf "search/%s" (Setup.kind_name kind))
      (Staged.stage (fun () ->
           ignore (Fpb_btree_common.Index_sig.search idx probe)))
  in
  let insert_test kind =
    let idx, _, rng = make_setup kind in
    Test.make
      ~name:(Printf.sprintf "insert/%s" (Setup.kind_name kind))
      (Staged.stage (fun () ->
           let k = Fpb_workload.Prng.int rng 0x3fffffff in
           ignore (Fpb_btree_common.Index_sig.insert idx k k)))
  in
  let scan_test kind =
    let idx, probe, _ = make_setup kind in
    Test.make
      ~name:(Printf.sprintf "scan/%s" (Setup.kind_name kind))
      (Staged.stage (fun () ->
           ignore
             (Fpb_btree_common.Index_sig.range_scan idx ~start_key:probe
                ~end_key:(probe + 20_000) (fun _ _ -> ()))))
  in
  (* The durability path's host cost per byte: a sector and a page
     checksum, and the framing of a 4 KB page image. *)
  let checksum_test (name, size) =
    let b = Bytes.init size (fun i -> Char.chr (i * 131 land 0xff)) in
    Test.make ~name
      (Staged.stage (fun () -> ignore (Fpb_storage.Checksum.update 0 b 0 size)))
  in
  let encode_test =
    let img = Bytes.init 4096 (fun i -> Char.chr (i * 31 land 0xff)) in
    let r = Fpb_wal.Wal.Image { lsn = 1; page = 1; img } in
    Test.make ~name:"image-4KB"
      (Staged.stage (fun () -> ignore (Fpb_wal.Wal.Codec.encode r)))
  in
  (* The simulated machine's host bookkeeping: prefetching a 16 KB page
     whose lines all miss (the base advances 16 KB per call over a 4 MB
     span, twice the L2), and pinning plus unpinning a resident page. *)
  let prefetch_test =
    let sim = Fpb_simmem.Sim.create () in
    let page = 16384 in
    let bytes = Bytes.create page in
    let regions =
      Array.init (4 * 1024 * 1024 / page) (fun i ->
          Fpb_simmem.Mem.make ~bytes ~base:(i * page))
    in
    let next = ref 0 in
    Test.make ~name:"prefetch-16KB"
      (Staged.stage (fun () ->
           let r = regions.(!next) in
           next := (!next + 1) mod Array.length regions;
           Fpb_simmem.Mem.prefetch sim r ~off:0 ~len:page))
  in
  let pin_test =
    let sys = Setup.make ~page_size:16384 ~pool_pages:64 () in
    let pool = sys.Setup.pool in
    let page, _ = Fpb_storage.Buffer_pool.create_page pool in
    Fpb_storage.Buffer_pool.unpin pool page;
    Test.make ~name:"get-unpin"
      (Staged.stage (fun () ->
           ignore (Fpb_storage.Buffer_pool.get pool page);
           Fpb_storage.Buffer_pool.unpin pool page))
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let measure groups =
    let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"fpbtree" groups) in
    Analyze.all ols Toolkit.Instance.monotonic_clock raw
  in
  (* Measured before the trees below are built: with those live, the
     512-byte checksum read 4-6x its isolated cost. *)
  let host_paths =
    measure
      [
        Test.make_grouped ~name:"checksum"
          (List.map checksum_test [ ("sector-512B", 512); ("page-16KB", 16384) ]);
        Test.make_grouped ~name:"wal-encode" [ encode_test ];
        Test.make_grouped ~name:"cache" [ prefetch_test ];
        Test.make_grouped ~name:"pool" [ pin_test ];
      ]
  in
  let results =
    measure
      [
        Test.make_grouped ~name:"search" (List.map search_test Setup.all_kinds);
        Test.make_grouped ~name:"insert" (List.map insert_test Setup.all_kinds);
        Test.make_grouped ~name:"scan" (List.map scan_test Setup.all_kinds);
      ]
  in
  Hashtbl.iter (Hashtbl.replace results) host_paths;
  let names = Hashtbl.fold (fun name _ acc -> name :: acc) results [] in
  List.filter_map
    (fun name ->
      match Analyze.OLS.estimates (Hashtbl.find results name) with
      | Some (est :: _) ->
          Printf.printf "%-50s %12.1f ns/op\n%!" name est;
          Some (name, est)
      | _ ->
          Printf.printf "%-50s (no estimate)\n%!" name;
          None)
    (List.sort compare names)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let full = List.mem "--full" args in
  let tiny = List.mem "--tiny" args in
  let scale = if full then Scale.Full else if tiny then Scale.Tiny else Scale.Quick in
  let args = List.filter (fun a -> a <> "--full" && a <> "--tiny") args in
  let take_opt flag args =
    let rec go acc = function
      | f :: v :: rest when f = flag -> (Some v, List.rev_append acc rest)
      | x :: rest -> go (x :: acc) rest
      | [] -> (None, List.rev acc)
    in
    go [] args
  in
  let csv_dir, args = take_opt "--csv" args in
  let json_path, args = take_opt "--json" args in
  (match csv_dir with
  | Some dir when not (Sys.file_exists dir) -> Sys.mkdir dir 0o755
  | _ -> ());
  let wanted = match args with [] | [ "all" ] -> None | l -> Some l in
  let ppf = Format.std_formatter in
  Format.printf "fpB+-Tree benchmark harness (%s scale)@." (Scale.to_string scale);
  let run_bechamel_wanted =
    match wanted with None -> true | Some l -> List.mem "bechamel" l
  in
  let exp_wanted id =
    match wanted with None -> true | Some l -> List.mem id l
  in
  let outcomes =
    List.filter_map
      (fun e ->
        if not (exp_wanted e.Registry.id) then None
        else begin
          let o = Registry.run_and_print ppf scale e in
          (match csv_dir with
          | Some dir ->
              List.iter
                (fun t ->
                  let path = Filename.concat dir (t.Table.id ^ ".csv") in
                  Out_channel.with_open_text path (fun oc ->
                      Out_channel.output_string oc (Table.csv t)))
                o.Registry.tables
          | None -> ());
          Some o
        end)
      Registry.all
  in
  (match wanted with
  | Some l ->
      List.iter
        (fun id ->
          if id <> "bechamel" && Registry.find id = None then
            Format.printf "unknown experiment id: %s@." id)
        l
  | None -> ());
  let bechamel =
    if run_bechamel_wanted then begin
      Format.printf
        "@.== bechamel: wall-clock microbenchmarks (real time, not simulated) ==@.";
      run_bechamel ()
    end
    else []
  in
  match json_path with
  | None -> ()
  | Some path ->
      let timestamp =
        let t = Unix.gmtime (Unix.gettimeofday ()) in
        Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.Unix.tm_year + 1900)
          (t.Unix.tm_mon + 1) t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min
          t.Unix.tm_sec
      in
      Report.write path (Report.make ~scale ~timestamp ~bechamel outcomes);
      if path <> "-" then Format.printf "@.wrote %s@." path
