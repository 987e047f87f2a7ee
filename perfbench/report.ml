(* The metric catalogue: one unit and one definition per metric name,
   printed with every run, and the output of a run (a human-readable
   table, then one JSON object as the last line of stdout). *)

type value = Num of float | Na of string  (* reason the metric does not apply *)

(* name, unit, definition.  Names ending in a workload item (program or
   scenario) are matched by [lookup] through their family entry. *)
let catalogue =
  [
    (* ---- end to end ---- *)
    ("wall_s", "s", "host seconds for one untraced pass, excluding set-up: the pass is split into items (clbg: the 7 programs; openloop: the one Loadgen.run; mvcheck: the 15 scenario sweeps) and wall_s is the sum over items of each item's median across the run's passes");
    ("setup_s", "s", "host seconds before the first simulated event, the median of the run's samples (at least one after each pass, spread over the run, at least 9 in all), each the mean of as many repeated set-ups as fill 0.1 s; clbg: Toolchain.hybridize + Toolchain.setup_multiverse summed over the 7 programs; openloop: Machine.create + Fabric.create + start_pool + one endpoint per group, the stack Loadgen.run stands up first, rebuilt through the same calls; mvcheck: Explore.attempts + one Scenario.make_machine per scenario");
    ("minor_mwords", "Mwords", "OCaml minor-heap words allocated by one pass (set-up excluded), millions, median over the untraced passes after the cold first one");
    ("peak_heap_mb", "MB", "Gc top_heap_words x 8 bytes after the first pass (includes the start-up checks), 1e6 bytes");
    ("guest_instr_per_s", "1/s", "Vm.instructions_executed summed over the 7 programs / wall_s (clbg only)");
    ("sim_events_per_s", "1/s", "Sim.events_processed / wall_s (openloop; mvcheck builds its machines inside lib/check, so its event count is not observable)");
    ("explore_runs_per_s", "1/s", "bounded schedule runs (sweep + confirm + shrink) / wall_s (mvcheck only)");
    ("sim_s", "s", "simulated seconds summed over the 7 programs, Toolchain.wall_seconds of each (Fig 13's Multiverse column; clbg only)");
    ("sim_p50_us", "us", "simulated sojourn p50, completion - scheduled arrival, over completed calls (openloop only)");
    ("sim_p99_us", "us", "simulated sojourn p99, same base as sim_p50_us (openloop only)");
    ("sim_samples", "count", "completed calls behind sim_p50_us / sim_p99_us (openloop only)");
    ("failed_frac", "frac", "failed / attempted over all passes; clbg: a program run with wrong stdout or exit code; openloop: a call dropped or lost out of groups x calls; mvcheck: a scenario whose verdict differs from its expected verdict");
    ("attempted", "count", "base of failed_frac: program runs, calls or scenario sweeps over all passes");
    (* ---- per layer: racket ---- *)
    ("racket.boot_s", "s", "host seconds in Engine.start, summed over the 7 programs; like racket.compile_s and racket.run_s it includes the simulator work (engine, ROS kernel, fabric pollers) that runs while the guest waits on a forwarded call");
    ("racket.compile_s", "s", "host seconds in Sexp.parse_all + Compile.compile_toplevel, summed");
    ("racket.run_s", "s", "host seconds in Vm.run_code, summed, interleaved simulator work included (see racket.boot_s)");
    ("racket.vm_instructions", "count", "Vm.instructions_executed summed over the programs");
    ("racket.ns_per_instr", "ns/instr", "racket.run_s / racket.vm_instructions (interleaved simulator work included)");
    ("racket.words_per_instr", "words/instr", "minor words allocated inside Vm.run_code, interleaved simulator work included, / racket.vm_instructions (0 when no instruction ran)");
    ("racket.sgc_collections", "count", "Sgc.stats collections, summed");
    ("racket.sgc_alloc_mb", "MB", "Sgc.stats bytes_allocated / 1e6, summed (simulated heap)");
    ("racket.sgc_barrier_faults", "count", "Sgc.stats barrier_faults (write-barrier SIGSEGVs), summed");
    ("racket.<program>.wall_s", "s", "host seconds of one program's simulation run (Sim.run), traced pass");
    ("racket.sgc_read_word.ns", "ns", "probe: host ns per Sgc.read_word on a live object, median of repeats");
    ("racket.sgc_read_word.words", "words", "probe: minor words per Sgc.read_word");
    ("racket.sgc_write_word.ns", "ns", "probe: host ns per Sgc.write_word on a live object, median of repeats");
    ("racket.sgc_write_word.words", "words", "probe: minor words per Sgc.write_word");
    (* ---- engine ---- *)
    ("engine.events", "count", "Sim.events_processed, summed over the pass's machines (0 where not observable: mvcheck)");
    ("engine.ns_per_event", "ns/event", "traced wall_s / engine.events");
    ("engine.words_per_event", "words/event", "minor words of the traced pass / engine.events (0 when engine.events is 0)");
    ("engine.event_queue_push_pop.ns", "ns", "probe: host ns per Event_queue.push + pop_exn pair");
    ("engine.event_queue_push_pop.words", "words", "probe: minor words per push + pop_exn pair");
    ("engine.fiber_yield.ns", "ns", "probe: host ns per Exec.yield (two fibers on one core)");
    ("engine.fiber_yield.words", "words", "probe: minor words per Exec.yield");
    ("engine.fiber_block_wake.ns", "ns", "probe: host ns per Exec.block + wake round (two fibers on one core)");
    ("engine.fiber_block_wake.words", "words", "probe: minor words per block + wake round");
    (* ---- hvm ---- *)
    ("hvm.fabric_calls", "count", "Fabric.calls: requests entering the fabric (openloop: Loadgen's issued count, one Fabric.offer each)");
    ("hvm.transport_calls", "count", "Fabric.transport_calls: doorbells actually rung (clbg only)");
    ("hvm.riders", "count", "Fabric.riders: requests batched into a ring (clbg only)");
    ("hvm.drains", "count", "Fabric.drains: server-side ring drain rounds, the base of hvm.batch_occupancy (clbg only)");
    ("hvm.batch_occupancy", "slots/drain", "Fabric.drained / Fabric.drains (0 when no drain ran; clbg only)");
    ("hvm.local_lookups", "count", "Fabric.local_hits + local_misses: fast-path lookups, the base of hvm.local_hit_rate (clbg only)");
    ("hvm.local_hit_rate", "frac", "Fabric.local_hits / hvm.local_lookups, lookups only, not all calls (0 when no lookup; clbg only)");
    ("hvm.retries", "count", "Fabric.retries: channel timeout + spurious-errno retries (clbg only)");
    ("hvm.fallbacks", "count", "Fabric.fallbacks: Sync->Async degradations (clbg only)");
    ("hvm.sheds", "count", "Fabric.sheds: admission refusals (clbg, openloop)");
    ("hvm.sim_cycles_per_forwarded_call", "cycles/call", "probe, simulated: virtual cycles of the batched fabric probe / its Fabric.calls");
    ("hvm.chan_sync_rtt.ns", "ns", "probe: host ns per Sync Event_channel.call round trip");
    ("hvm.chan_sync_rtt.words", "words", "probe: minor words per Sync round trip");
    ("hvm.chan_async_rtt.ns", "ns", "probe: host ns per Async Event_channel.call round trip");
    ("hvm.chan_async_rtt.words", "words", "probe: minor words per Async round trip");
    ("hvm.fabric_call_batched.ns", "ns", "probe: host ns per forwarded call, 4 groups x 4 riders, batching on");
    ("hvm.fabric_call_batched.words", "words", "probe: minor words per batched forwarded call");
    ("hvm.fabric_call_unbatched.ns", "ns", "probe: host ns per forwarded call, same load, batching off");
    ("hvm.fabric_call_unbatched.words", "words", "probe: minor words per unbatched forwarded call");
    (* ---- hw ---- *)
    ("hw.tlb_lookups", "count", "Rusage tlb_hits + tlb_misses, summed over programs, the base of hw.tlb_hit_rate (clbg only)");
    ("hw.tlb_hit_rate", "frac", "Rusage tlb_hits / hw.tlb_lookups (clbg only)");
    ("hw.walks", "count", "Rusage walks: page walks on TLB misses (clbg only)");
    ("hw.levels_per_walk", "levels/walk", "Rusage walk_levels / walks (0 when no walk; clbg only)");
    ("hw.mmu_tlb_hit.ns", "ns", "probe: host ns per Mmu.access that hits the TLB");
    ("hw.mmu_tlb_hit.words", "words", "probe: minor words per TLB-hit access");
    ("hw.mmu_walk_cache_hit.ns", "ns", "probe: host ns per Mmu.access that misses the TLB and hits the walk cache");
    ("hw.mmu_walk_cache_hit.words", "words", "probe: minor words per walk-cache-hit access");
    ("hw.mmu_full_walk.ns", "ns", "probe: host ns per Mmu.access that misses TLB and walk cache");
    ("hw.mmu_full_walk.words", "words", "probe: minor words per full-walk access");
    (* ---- ros ---- *)
    ("ros.syscalls", "count", "system calls counted by the ROS kernel, summed (clbg only)");
    ("ros.page_faults", "count", "Rusage minflt + majflt, summed (clbg only)");
    ("ros.ctx_switches", "count", "Rusage nvcsw + nivcsw, summed (clbg only)");
    (* ---- multiverse / aerokernel ---- *)
    ("multiverse.hybridize_s", "s", "host seconds in Toolchain.hybridize, summed (clbg only)");
    ("multiverse.stack_setup_s", "s", "host seconds in Toolchain.setup_multiverse (machine, ROS kernel, HVM, AeroKernel, runtime), summed (clbg only)");
    (* ---- check ---- *)
    ("check.runs", "count", "bounded scenario runs of one sweep pass, including confirm + shrink (mvcheck only)");
    ("check.shrink_runs", "count", "runs spent shrinking counterexamples (mvcheck only)");
    ("check.<scenario>.wall_s", "s", "host seconds of one scenario's sweep, traced pass");
    (* ---- OCaml GC ---- *)
    ("ocaml_gc.minor_collections", "count", "Gc minor_collections during the traced pass");
    ("ocaml_gc.major_collections", "count", "Gc major_collections during the traced pass");
    ("ocaml_gc.promoted_mwords", "Mwords", "Gc promoted_words during the traced pass, millions");
    ("ocaml_gc.minor_pause_s", "s", "runtime_events: summed EV_MINOR spans during the traced pass");
    ("ocaml_gc.major_pause_s", "s", "runtime_events: summed EV_MAJOR_SLICE spans during the traced pass");
    ("ocaml_gc.lost_events", "count", "runtime_events reported lost by the reader (pauses undercount when > 0)");
    (* ---- tracing ---- *)
    ("trace.overhead_s", "s", "traced wall_s - untraced wall_s of the same run, the untraced side without the cold first pass (can be negative within noise)");
  ]

let table = List.map (fun (n, u, d) -> (n, (u, d))) catalogue

let family name =
  match String.split_on_char '.' name with
  | [ "racket"; _; "wall_s" ] when not (List.mem_assoc name table) -> "racket.<program>.wall_s"
  | [ "check"; _; "wall_s" ] -> "check.<scenario>.wall_s"
  | _ -> name

let lookup name =
  match List.assoc_opt (family name) table with
  | Some (u, d) -> (u, d)
  | None -> invalid_arg ("perfbench: metric without a catalogue entry: " ^ name)

let unit_of name = fst (lookup name)

(* ---- JSON ---- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Full precision: "%.17g" round-trips every double. *)
let json_float f =
  if not (Float.is_finite f) then invalid_arg "perfbench: non-finite metric value"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let json_metrics rows =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (name, v) ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name) (json_float v)
             (json_string (unit_of name)))
         rows)
  ^ "}"

(* ---- text ---- *)

let print_rows oc title rows =
  Printf.fprintf oc "%s\n" title;
  List.iter
    (fun (name, v) ->
      let u, d = lookup name in
      match v with
      | Num f -> Printf.fprintf oc "  %-38s %16.6g %-11s %s\n" name f u d
      | Na why -> Printf.fprintf oc "  %-38s %16s %-11s %s\n" name "n/a" u why)
    rows

