(* The repo benchmark: one workload per invocation, one process, one
   domain.

     perfbench.exe --workload clbg|openloop|mvcheck --seed N --seconds S
                   --trace 0|1 [--size full|tiny]

   Prints every metric of the workload by name with its unit and
   definition, then, as the last line of stdout, one JSON object
   {"correct", "attempted", "failed", "metrics"} whose metrics are the
   end-to-end set (--trace 0) or the per-layer set (--trace 1).  Exits 1
   when an output check fails.  See perfbench/README.md. *)

(* The metric sets of the JSON result line; BENCHMARK.json lists the same names
   (the smoke test checks that they agree). *)
let json_end_to_end = [ "wall_s"; "setup_s"; "minor_mwords"; "peak_heap_mb" ]

let probe_rows base = [ base ^ ".ns"; base ^ ".words" ]

let json_per_layer =
  List.concat
    [
      [ "racket.vm_instructions"; "racket.words_per_instr"; "racket.sgc_collections";
        "racket.sgc_alloc_mb"; "racket.sgc_barrier_faults" ];
      probe_rows "racket.sgc_read_word";
      probe_rows "racket.sgc_write_word";
      [ "engine.events"; "engine.words_per_event" ];
      probe_rows "engine.event_queue_push_pop";
      probe_rows "engine.fiber_yield";
      probe_rows "engine.fiber_block_wake";
      [ "hvm.fabric_calls"; "hvm.transport_calls"; "hvm.riders"; "hvm.drains";
        "hvm.batch_occupancy"; "hvm.local_lookups"; "hvm.local_hit_rate"; "hvm.retries";
        "hvm.fallbacks"; "hvm.sheds"; "hvm.sim_cycles_per_forwarded_call" ];
      probe_rows "hvm.chan_sync_rtt";
      probe_rows "hvm.chan_async_rtt";
      probe_rows "hvm.fabric_call_batched";
      probe_rows "hvm.fabric_call_unbatched";
      [ "hw.tlb_lookups"; "hw.tlb_hit_rate"; "hw.walks"; "hw.levels_per_walk" ];
      probe_rows "hw.mmu_tlb_hit";
      probe_rows "hw.mmu_walk_cache_hit";
      probe_rows "hw.mmu_full_walk";
      [ "ros.syscalls"; "ros.page_faults"; "ros.ctx_switches" ];
      [ "check.runs"; "check.shrink_runs" ];
      [ "ocaml_gc.minor_collections"; "ocaml_gc.major_collections"; "ocaml_gc.promoted_mwords";
        "ocaml_gc.minor_pause_s"; "ocaml_gc.major_pause_s"; "ocaml_gc.lost_events" ];
      [ "trace.overhead_s" ];
    ]

(* Set-up is timed in samples taken after each pass: at least one, and
   as many as keep pace with [setup_samples] over the run's [seconds], so
   the samples span the run as the passes do (the host's speed drifts
   over seconds; a burst of samples at the end would see one moment of
   it).  Samples are topped up to [setup_samples] at the end.  Each
   sample repeats the set-up from a compacted heap until it has run for
   [setup_sample_s] and divides by the repetitions, so a sub-millisecond
   set-up is timed over the same span as a long one.  setup_s is the
   median sample. *)
let setup_samples = 9
let setup_sample_s = 0.1

let time_setup setup_once =
  Gc.compact ();
  let t0 = Span.now_s () in
  let rec go reps =
    setup_once ();
    let elapsed = Span.now_s () -. t0 in
    if elapsed >= setup_sample_s then elapsed /. float_of_int reps else go (reps + 1)
  in
  go 1

(* Layer counters a workload does not exercise, or cannot expose from
   outside lib/, with the reason printed in place of a value. *)
let not_applicable workload =
  let racket = "runs no Racket code" and hidden = "not observable from outside lib/ on this workload" in
  let names l why = List.map (fun n -> (n, Report.Na why)) l in
  let racket_rows =
    [ "racket.vm_instructions"; "racket.sgc_collections"; "racket.sgc_alloc_mb";
      "racket.sgc_barrier_faults"; "racket.boot_s"; "racket.compile_s"; "racket.run_s";
      "racket.ns_per_instr"; "racket.words_per_instr" ]
  in
  let clbg_only =
    [ "hvm.transport_calls"; "hvm.riders"; "hvm.drains"; "hvm.batch_occupancy";
      "hvm.local_lookups"; "hvm.local_hit_rate"; "hvm.retries"; "hvm.fallbacks";
      "hw.tlb_lookups"; "hw.tlb_hit_rate"; "hw.walks"; "hw.levels_per_walk";
      "ros.syscalls"; "ros.page_faults"; "ros.ctx_switches"; "multiverse.hybridize_s";
      "multiverse.stack_setup_s" ]
  in
  match workload with
  | "clbg" -> names [ "check.runs"; "check.shrink_runs" ] "mvcheck only"
  | "openloop" ->
      names racket_rows racket @ names clbg_only hidden
      @ names [ "check.runs"; "check.shrink_runs" ] "mvcheck only"
  | _ ->
      names racket_rows racket
      @ names
          ([ "engine.events"; "engine.ns_per_event"; "engine.words_per_event"; "hvm.fabric_calls";
             "hvm.sheds" ]
          @ clbg_only)
          hidden

let median = Probes.median

(* Sum over items of each item's median across passes. *)
let wall_of passes =
  match passes with
  | [] -> 0.0
  | p :: _ ->
      List.fold_left
        (fun acc (item, _) ->
          acc +. median (List.map (fun q -> List.assoc item q.Pass.items) passes))
        0.0 p.Pass.items

(* Where --trace 1 writes its span file and ledger. *)
let out_dir = ".bench_out"

let run_workload ~workload ~seed ~seconds ~trace ~tiny =
  let setup_once, pass, equivalence =
    match workload with
    | "clbg" ->
        let s, p = Clbg.make ~tiny in
        (s, p, Clbg.check_equivalent)
    | "openloop" ->
        let s, p = Openloop.make ~tiny ~seed in
        (s, p, fun () -> [])
    | _ ->
        let s, p = Mvcheck.make ~tiny ~seed in
        (s, p, Mvcheck.check_equivalent)
  in
  let errors = ref (equivalence ()) in
  let gc = if trace then Some (Gc_pauses.open_ ()) else None in
  let t_start = Span.now_s () in
  let traced_gc = ref None and peak_heap = ref 0 and setup = ref [] in
  let sample_setups n =
    while List.length !setup < n do
      setup := time_setup setup_once :: !setup
    done
  in
  (* Passes alternate untraced / traced under --trace 1, and stop once the
     next one would likely end past [seconds].  Newest first. *)
  let rec loop passes =
    (* Every pass starts from a compacted heap, as a fresh process would,
       instead of inheriting the previous pass's heap growth. *)
    Gc.compact ();
    let n_traced = List.length (List.filter fst passes) in
    let traced = trace && 2 * n_traced < List.length passes in
    let p =
      if traced then begin
        Span.recorded := [];
        Option.iter Gc_pauses.start gc;
        let s0 = Gc.quick_stat () in
        Span.enable true;
        let p = Fun.protect ~finally:(fun () -> Span.enable false) pass in
        let s1 = Gc.quick_stat () in
        Option.iter Gc_pauses.stop gc;
        traced_gc := Some (s0, s1);
        p
      end
      else pass ()
    in
    (* Read after the first pass, so the peak does not depend on how many
       passes fit in [seconds]; it includes the start-up checks. *)
    if passes = [] then peak_heap := (Gc.quick_stat ()).Gc.top_heap_words;
    let passes = (traced, p) :: passes in
    let progress = (Span.now_s () -. t_start) /. seconds in
    let due = Float.to_int (Float.ceil (float_of_int setup_samples *. progress)) in
    sample_setups (max due (List.length !setup + 1));
    let elapsed = Span.now_s () -. t_start in
    let n_untraced = List.length (List.filter (fun (t, _) -> not t) passes) in
    let enough = n_untraced >= 2 && ((not trace) || List.exists fst passes) in
    if enough && elapsed *. (1.0 +. (1.0 /. float_of_int (List.length passes))) > seconds then passes
    else loop passes
  in
  let passes = List.rev (loop []) in
  sample_setups setup_samples;
  let untraced = List.filter_map (fun (t, p) -> if t then None else Some p) passes in
  (* The first pass of a process runs cold (lazy tables, first heap
     growth): the allocation count and the tracing overhead use the
     untraced passes after it. *)
  let warm = List.tl untraced in
  let traced = List.filter_map (fun (t, p) -> if t then Some p else None) passes in
  let all_passes = List.map snd passes in
  (* Every pass of one seed must produce the same outputs and counts. *)
  let first = List.hd all_passes in
  List.iter
    (fun p ->
      List.iter2
        (fun (k, a) (_, b) ->
          if a <> b then
            errors := Printf.sprintf "%s: not repeatable across passes (%s vs %s)" k a b :: !errors)
        first.Pass.fingerprint p.Pass.fingerprint)
    all_passes;
  List.iter
    (fun p -> List.iter (fun e -> if not (List.mem e !errors) then errors := !errors @ [ e ]) p.Pass.errors)
    all_passes;
  let attempted = List.fold_left (fun a p -> a + p.Pass.attempted) 0 all_passes in
  let failed = List.fold_left (fun a p -> a + p.Pass.failed) 0 all_passes in
  let wall = wall_of untraced in
  let e2e =
    Report.
      [
        ("wall_s", Num wall);
        ("setup_s", Num (median !setup));
        ("minor_mwords", Num (median (List.map (fun p -> p.Pass.words) warm) /. 1e6));
        ("peak_heap_mb", Num (float_of_int !peak_heap *. 8.0 /. 1e6));
      ]
    @ first.Pass.extras ~wall
    @ Report.
        [
          ("failed_frac", Num (float_of_int failed /. float_of_int attempted));
          ("attempted", Num (float_of_int attempted));
        ]
  in
  Printf.printf "perfbench workload=%s seed=%d seconds=%g trace=%d size=%s passes=%d+%d traced\n"
    workload seed seconds (if trace then 1 else 0) (if tiny then "tiny" else "full")
    (List.length untraced) (List.length traced);
  let shown = 24 in
  List.iteri
    (fun i (t, p) ->
      if i < shown then
        Printf.printf "  pass %2d %-8s %10.4f s %12.4f Mwords\n" (i + 1)
          (if t then "traced" else "untraced")
          (List.fold_left (fun a (_, s) -> a +. s) 0.0 p.Pass.items)
          (p.Pass.words /. 1e6))
    passes;
  if List.length passes > shown then Printf.printf "  ... %d more passes\n" (List.length passes - shown);
  Report.print_rows stdout "end-to-end (untraced passes):" e2e;
  let layer =
    match (List.rev traced, !traced_gc, gc) with
    | tp :: _, Some (s0, s1), Some g ->
        let traced_wall = wall_of traced in
        let probes, probe_errors = Probes.run () in
        errors := !errors @ probe_errors;
        let na = not_applicable workload in
        let spans =
          if workload <> "clbg" then []
          else
            let run_s, run_words = Span.total "racket.run" in
            let instr =
              match List.assoc "racket.vm_instructions" tp.Pass.layer with Report.Num f -> f | Na _ -> 0.0
            in
            Report.
              [
                ("racket.boot_s", Num (fst (Span.total "racket.boot")));
                ("racket.compile_s", Num (fst (Span.total "racket.compile")));
                ("racket.run_s", Num run_s);
                ("racket.ns_per_instr", Num (Pass.ratio (run_s *. 1e9) instr));
                ("racket.words_per_instr", Num (Pass.ratio run_words instr));
                ("multiverse.hybridize_s", Num (fst (Span.total "multiverse.hybridize")));
                ("multiverse.stack_setup_s", Num (fst (Span.total "multiverse.stack_setup")));
              ]
        in
        let events =
          match List.assoc_opt "engine.events" tp.Pass.layer with Some (Report.Num f) -> Some f | _ -> None
        in
        let engine =
          match events with
          | Some ev ->
              Report.
                [
                  ("engine.ns_per_event", Num (Pass.ratio (traced_wall *. 1e9) ev));
                  ("engine.words_per_event", Num (Pass.ratio tp.Pass.words ev));
                ]
          | None -> []
        in
        let items =
          let prefix = if workload = "clbg" then "racket." else "check." in
          if workload = "openloop" then []
          else
            List.map (fun (item, secs) -> (prefix ^ item ^ ".wall_s", Report.Num secs)) tp.Pass.items
        in
        let gcs =
          Report.
            [
              ("ocaml_gc.minor_collections", Num (float_of_int (s1.Gc.minor_collections - s0.Gc.minor_collections)));
              ("ocaml_gc.major_collections", Num (float_of_int (s1.Gc.major_collections - s0.Gc.major_collections)));
              ("ocaml_gc.promoted_mwords", Num ((s1.Gc.promoted_words -. s0.Gc.promoted_words) /. 1e6));
              ("ocaml_gc.minor_pause_s", Num (float_of_int !(g.Gc_pauses.minor_ns) *. 1e-9));
              ("ocaml_gc.major_pause_s", Num (float_of_int !(g.Gc_pauses.major_ns) *. 1e-9));
              ("ocaml_gc.lost_events", Num (float_of_int !(g.Gc_pauses.lost)));
              ("trace.overhead_s", Num (traced_wall -. wall_of warm));
            ]
        in
        let rows = tp.Pass.layer @ spans @ engine @ items @ gcs @ probes in
        (* Catalogue order, then the per-item rows; n/a where not applicable. *)
        let ordered =
          List.filter_map
            (fun (name, _, _) ->
              match List.assoc_opt name rows with
              | Some v -> Some (name, v)
              | None -> Option.map (fun v -> (name, v)) (List.assoc_opt name na))
            Report.catalogue
          @ items
        in
        Report.print_rows stdout "per-layer (last traced pass; probes measured after it):" ordered;
        let base = Printf.sprintf "%s/%s-seed%d" out_dir workload seed in
        Span.write_chrome (base ^ ".trace.json");
        let oc = open_out (base ^ ".ledger.json") in
        output_string oc
          (Report.json_metrics
             (List.filter_map (fun (n, v) -> match v with Report.Num f -> Some (n, f) | Na _ -> None) ordered));
        output_string oc "\n";
        close_out oc;
        Printf.printf "wrote %s.trace.json (Chrome trace events) and %s.ledger.json\n" base base;
        ordered
    | _ -> []
  in
  List.iter (fun e -> Printf.printf "CHECK FAILED: %s\n" e) !errors;
  let correct = !errors = [] && failed = 0 in
  let pick names rows =
    List.map
      (fun n ->
        match List.assoc_opt n rows with
        | Some (Report.Num f) -> (n, f)
        | Some (Report.Na _) -> (n, 0.0)
        | None -> failwith ("perfbench: metric missing from the run: " ^ n))
      names
  in
  let metrics = if trace then pick json_per_layer layer else pick json_end_to_end e2e in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n%!" correct
    attempted failed (Report.json_metrics metrics);
  if correct then 0 else 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let size = ref "full" in
  let usage = "perfbench --workload clbg|openloop|mvcheck [--seed N] [--seconds S] [--trace 0|1]" in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME clbg, openloop or mvcheck");
      ("--seed", Arg.Set_int seed, "N workload seed (default 1; clbg ignores it)");
      ("--seconds", Arg.Set_float seconds, "S measuring time of the run (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or per-layer metrics (1)");
      ("--size", Arg.Set_string size, "full|tiny tiny = test sizes, for the smoke test");
    ]
  in
  let bad msg =
    Printf.eprintf "perfbench: %s\n%s\n" msg usage;
    exit 2
  in
  (try Arg.parse_argv Sys.argv specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage with
  | Arg.Help m ->
      print_string m;
      exit 0
  | Arg.Bad m ->
      prerr_string m;
      exit 2);
  if not (List.mem !workload [ "clbg"; "openloop"; "mvcheck" ]) then bad "--workload must be clbg, openloop or mvcheck";
  if !trace <> 0 && !trace <> 1 then bad "--trace must be 0 or 1";
  if not (!seconds > 0.0) then bad "--seconds must be positive";
  if !size <> "full" && !size <> "tiny" then bad "--size must be full or tiny";
  if !trace = 1 && not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  exit
    (run_workload ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
       ~tiny:(!size = "tiny"))
