(* Workload [mvcheck]: the model checker's full scenario sweep, at one
   job.  Hundreds of short full-stack machines (HVM install, AeroKernel
   boot, merge) and the event-channel fault paths; no Racket code, so it
   is the control for guest-VM changes.

   [Explore.explore] always sweeps strategy seeds 1..N, so the benchmark
   walks [Explore.attempts] itself with every strategy and fault seed
   moved by [seed * seeds], then confirms and shrinks the first failure
   exactly as [Explore.explore] does.  At seed 0 it is [Explore.explore];
   [check_equivalent] proves that at start-up on a one-seed sweep. *)

module Explore = Mv_check.Explore
module Scenario = Mv_check.Scenario
module Strategy = Mv_check.Strategy

let shrink_budget = 300

type verdict = {
  runs : int;
  shrink_runs : int;
  found : (string * int list * bool) option;  (* message, shrunk trace, confirmed *)
}

let attempts ~seeds ~offset sc =
  Array.map
    (fun (spec, fc) ->
      let spec = match spec with Strategy.Random s -> Strategy.Random (s + offset) | s -> s in
      (spec, { fc with Explore.fc_seed = fc.Explore.fc_seed + offset }))
    (Explore.attempts ~seeds sc)

let strip_trailing_zeros trace =
  let rec drop = function 0 :: rest -> drop rest | l -> l in
  List.rev (drop (List.rev trace))

let sweep ~seeds ~offset sc =
  let att = attempts ~seeds ~offset sc in
  let runs = ref 0 in
  let run spec fc =
    incr runs;
    Explore.run_once sc ~spec ~fc
  in
  let rec first i =
    if i >= Array.length att then None
    else
      let spec, fc = att.(i) in
      match run spec fc with
      | Scenario.Fail msg, recorded -> Some (fc, msg, recorded)
      | Scenario.Pass, _ -> first (i + 1)
  in
  match first 0 with
  | None -> { runs = !runs; shrink_runs = 0; found = None }
  | Some (fc, msg, recorded) ->
      let confirmed =
        match run (Strategy.Replay recorded) fc with
        | Scenario.Fail msg', recorded' -> msg' = msg && recorded' = recorded
        | Scenario.Pass, _ -> false
      in
      let trace, spent =
        if confirmed then Explore.shrink sc ~fc ~budget:shrink_budget recorded
        else (strip_trailing_zeros recorded, 0)
      in
      runs := !runs + spent;
      let msg =
        if trace = strip_trailing_zeros recorded then msg
        else match run (Strategy.Replay trace) fc with Scenario.Fail m, _ -> m | Scenario.Pass, _ -> msg
      in
      { runs = !runs; shrink_runs = spent; found = Some (msg, trace, confirmed) }

let check_equivalent () =
  List.filter_map
    (fun sc ->
      let lib = Explore.explore ~seeds:1 ~shrink_budget sc in
      let mine = sweep ~seeds:1 ~offset:0 sc in
      let same =
        lib.Explore.ex_runs = mine.runs
        &&
        match (lib.Explore.ex_counterexample, mine.found) with
        | None, None -> true
        | Some cx, Some (msg, trace, confirmed) ->
            cx.Explore.cx_message = msg && cx.Explore.cx_trace = trace && cx.Explore.cx_confirmed = confirmed
        | _ -> false
      in
      if same then None
      else Some (sc.Scenario.sc_name ^ ": benchmark sweep diverges from Explore.explore"))
    Mv_check.Scenarios.all_scenarios

let make ~tiny ~seed =
  let seeds = if tiny then 8 else 20 in
  let offset = seed * seeds in
  let scenarios = Mv_check.Scenarios.all_scenarios in
  let setup_once () =
    List.iter
      (fun sc ->
        ignore (attempts ~seeds ~offset sc);
        ignore (Scenario.make_machine ()))
      scenarios
  in
  let pass () =
    let w0 = Gc.minor_words () in
    let results =
      List.map
        (fun sc ->
          let name = sc.Scenario.sc_name in
          let v, secs =
            Pass.timed (fun () ->
                Span.with_span ("check." ^ name ^ ".wall_s") (fun () -> sweep ~seeds ~offset sc))
          in
          (sc, v, secs))
        scenarios
    in
    let words = Gc.minor_words () -. w0 in
    let errors =
      List.filter_map
        (fun (sc, v, _) ->
          let name = sc.Scenario.sc_name in
          match (v.found, sc.Scenario.sc_expect_bug) with
          | None, false -> None
          | Some (_, _, true), true -> None
          | Some (_, _, false), true -> Some (name ^ ": seeded bug found but replay did not confirm it")
          | None, true -> Some (Printf.sprintf "%s: seeded bug not found in %d runs" name v.runs)
          | Some (msg, _, _), false -> Some (Printf.sprintf "%s: violation: %s" name msg))
        results
    in
    let total f = List.fold_left (fun acc (_, v, _) -> acc + f v) 0 results in
    let runs = float_of_int (total (fun v -> v.runs)) in
    {
      Pass.items = List.map (fun (sc, _, secs) -> (sc.Scenario.sc_name, secs)) results;
      words;
      fingerprint =
        List.map
          (fun (sc, v, _) ->
            ( sc.Scenario.sc_name,
              Printf.sprintf "runs=%d shrink=%d %s" v.runs v.shrink_runs
                (match v.found with
                | None -> "pass"
                | Some (msg, trace, _) ->
                    Printf.sprintf "fail [%s] %s" (String.concat ";" (List.map string_of_int trace)) msg)
            ))
          results;
      attempted = List.length results;
      failed = List.length errors;
      errors;
      extras =
        (fun ~wall ->
          Report.
            [
              ("guest_instr_per_s", Na "clbg only: mvcheck runs no Racket code");
              ("sim_events_per_s", Na "scenario machines are built inside lib/check; events not observable");
              ("explore_runs_per_s", Num (runs /. wall));
              ("sim_s", Na "clbg only");
              ("sim_p50_us", Na "openloop only");
              ("sim_p99_us", Na "openloop only");
              ("sim_samples", Na "openloop only");
            ]);
      layer =
        [
          ("check.runs", Report.Num runs);
          ("check.shrink_runs", Report.Num (float_of_int (total (fun v -> v.shrink_runs))));
        ];
    }
  in
  (setup_once, pass)
