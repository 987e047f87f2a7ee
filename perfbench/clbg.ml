(* Workload [clbg]: the seven Benchmarks Game programs, each hybridized
   and run in Multiverse mode, one after another (the paper's Fig 13).

   The guest program is [Benchmarks.program]'s body spelled out, so the
   benchmark can hold a span around each Racket layer call (Engine.start,
   parse + compile, Vm.run_code) and read the VM and collector afterwards;
   [check_equivalent] proves at start-up that it simulates identically to
   [Benchmarks.program] under [Toolchain.run_multiverse]. *)

module B = Mv_workloads.Benchmarks
module T = Multiverse.Toolchain
module Runtime = Multiverse.Runtime
module Engine = Mv_racket.Engine
module Vm = Mv_racket.Vm
module Sgc = Mv_racket.Sgc
module Fabric = Mv_hvm.Fabric
module Process = Mv_ros.Process
module Kernel = Mv_ros.Kernel
module Machine = Mv_engine.Machine
module Sim = Mv_engine.Sim

let ref_dir = "perfbench/ref"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic))

let reference b ~n = read_file (Printf.sprintf "%s/%s.%d.out" ref_dir b.B.b_name n)

(* What a finished program leaves behind for the pass to read: plain
   numbers, so that no machine, VM or heap outlives its program. *)
type outcome = {
  stdout : string;
  exit_code : int;
  sim_cycles : int;
  events : int;
  syscalls : int;
  instructions : int;
  sgc : Sgc.stats;
  rusage : Mv_ros.Rusage.t;
  fabric : (string * int) list;  (* Fabric counter name -> value *)
}

let fabric_counters f =
  Fabric.
    [
      ("calls", calls f); ("transport_calls", transport_calls f); ("riders", riders f);
      ("drains", drains f); ("drained", drained f); ("local_hits", local_hits f);
      ("local_misses", local_misses f); ("retries", retries f); ("fallbacks", fallbacks f);
      ("sheds", sheds f);
    ]

let program b ~n engine_box =
  let src = b.B.b_source n in
  {
    T.prog_name = b.B.b_name;
    prog_main =
      (fun env ->
        let e = Span.with_span "racket.boot" (fun () -> Engine.start env) in
        let vm = Engine.vm e in
        let idx =
          Span.with_span "racket.compile" (fun () ->
              Mv_racket.Compile.compile_toplevel (Vm.cstate vm) (Mv_racket.Sexp.parse_all src))
        in
        ignore (Span.with_span "racket.run" (fun () -> Vm.run_code vm idx));
        Engine.finish e;
        engine_box := Some e);
  }

(* Toolchain.hybridize + Toolchain.setup_multiverse, i.e. everything
   [Toolchain.run_multiverse] does before [Sim.run]; returns the closure
   that runs the simulation and collects the outcome. *)
let setup b ~n =
  let engine_box = ref None and rt_box = ref None in
  let prog = program b ~n engine_box in
  let hx = Span.with_span "multiverse.hybridize" (fun () -> T.hybridize prog) in
  let machine, kernel, proc =
    Span.with_span "multiverse.stack_setup" (fun () ->
        T.setup_multiverse ~options:T.default_mv_options ~name:prog.T.prog_name
          ~fat:hx.T.hx_fat (fun _kernel _p rt ->
            rt_box := Some rt;
            Runtime.join rt (Runtime.hrt_invoke rt ~name:"main" prog.T.prog_main)))
  in
  Mv_ros.Vfs.close_stream proc.Process.stdin;
  fun () ->
    Sim.run machine.Machine.sim;
    match (!engine_box, !rt_box) with
    | Some engine, Some rt when proc.Process.exited ->
        {
          stdout = Process.stdout_contents proc;
          exit_code = proc.Process.exit_code;
          sim_cycles = Kernel.runtime_of kernel proc;
          events = Sim.events_processed machine.Machine.sim;
          syscalls = Mv_util.Histogram.total proc.Process.syscall_counts;
          instructions = Vm.instructions_executed (Engine.vm engine);
          sgc = Sgc.stats (Engine.gc engine);
          rusage = proc.Process.rusage;
          fabric = fabric_counters (Runtime.fabric rt);
        }
    | _ -> failwith (b.B.b_name ^ ": simulation quiesced before the program finished")

(* The spelled-out program must be the same simulation as the library's:
   compared on every program at its test size, where it costs milliseconds. *)
let check_equivalent () =
  List.filter_map
    (fun b ->
      let n = b.B.b_test_n in
      let lib = T.run_multiverse (T.hybridize (B.program b ~n)) in
      let mine = setup b ~n () in
      if lib.T.rs_stdout = mine.stdout && lib.T.rs_wall_cycles = mine.sim_cycles then None
      else
        Some
          (Printf.sprintf "%s: benchmark program diverges from Benchmarks.program (%d vs %d cycles)"
             b.B.b_name mine.sim_cycles lib.T.rs_wall_cycles))
    B.all

let size_n ~tiny b = if tiny then b.B.b_test_n else b.B.b_bench_n

let make ~tiny =
  let progs = List.map (fun b -> (b, size_n ~tiny b, reference b ~n:(size_n ~tiny b))) B.all in
  let setup_once () = List.iter (fun (b, n, _) -> ignore (setup b ~n : unit -> outcome)) progs in
  let pass () =
    let words = ref 0.0 in
    let results =
      List.map
        (fun (b, n, expected) ->
          let run = setup b ~n in
          let w0 = Gc.minor_words () in
          let o, secs =
            Pass.timed (fun () -> Span.with_span ("racket." ^ b.B.b_name ^ ".wall_s") run)
          in
          words := !words +. (Gc.minor_words () -. w0);
          (b, expected, o, secs))
        progs
    in
    let sum f = List.fold_left (fun acc (_, _, o, _) -> acc +. f o) 0.0 results in
    let sumi f = sum (fun o -> float_of_int (f o)) in
    let errors =
      List.filter_map
        (fun (b, expected, o, _) ->
          if o.stdout <> expected then Some (b.B.b_name ^ ": stdout differs from the reference")
          else if o.exit_code <> 0 then Some (Printf.sprintf "%s: exit code %d" b.B.b_name o.exit_code)
          else None)
        results
    in
    let instr = sumi (fun o -> o.instructions) in
    let sgc f = sumi (fun o -> f o.sgc) in
    let fab name = sumi (fun o -> List.assoc name o.fabric) in
    let ru f = sumi (fun o -> f o.rusage) in
    let sim_s = sum (fun o -> Mv_util.Cycles.to_sec o.sim_cycles) in
    let open Mv_ros.Rusage in
    let tlb_hits = ru (fun r -> r.tlb_hits) and tlb_misses = ru (fun r -> r.tlb_misses) in
    let walks = ru (fun r -> r.walks) in
    let layer =
      Report.
        [
          ("racket.vm_instructions", Num instr);
          ("racket.sgc_collections", Num (sgc (fun s -> s.Sgc.collections)));
          ("racket.sgc_alloc_mb", Num (sgc (fun s -> s.Sgc.bytes_allocated) /. 1e6));
          ("racket.sgc_barrier_faults", Num (sgc (fun s -> s.Sgc.barrier_faults)));
          ("engine.events", Num (sumi (fun o -> o.events)));
          ("hvm.fabric_calls", Num (fab "calls"));
          ("hvm.transport_calls", Num (fab "transport_calls"));
          ("hvm.riders", Num (fab "riders"));
          ("hvm.drains", Num (fab "drains"));
          ("hvm.batch_occupancy", Num (Pass.ratio (fab "drained") (fab "drains")));
          ("hvm.local_lookups", Num (fab "local_hits" +. fab "local_misses"));
          ( "hvm.local_hit_rate",
            Num (Pass.ratio (fab "local_hits") (fab "local_hits" +. fab "local_misses")) );
          ("hvm.retries", Num (fab "retries"));
          ("hvm.fallbacks", Num (fab "fallbacks"));
          ("hvm.sheds", Num (fab "sheds"));
          ("hw.tlb_lookups", Num (tlb_hits +. tlb_misses));
          ("hw.tlb_hit_rate", Num (Pass.ratio tlb_hits (tlb_hits +. tlb_misses)));
          ("hw.walks", Num walks);
          ("hw.levels_per_walk", Num (Pass.ratio (ru (fun r -> r.walk_levels)) walks));
          ("ros.syscalls", Num (sumi (fun o -> o.syscalls)));
          ("ros.page_faults", Num (ru (fun r -> r.minflt + r.majflt)));
          ("ros.ctx_switches", Num (ru (fun r -> r.nvcsw + r.nivcsw)));
        ]
    in
    let fingerprint =
      ("sim_s", Printf.sprintf "%h" sim_s)
      :: List.map
           (fun (b, _, o, _) ->
             ( b.B.b_name,
               Printf.sprintf "%s cycles=%d events=%d instr=%d syscalls=%d"
                 (Digest.to_hex (Digest.string o.stdout))
                 o.sim_cycles o.events o.instructions o.syscalls ))
           results
      @ List.map (fun (k, v) -> (k, match v with Report.Num f -> Printf.sprintf "%h" f | Na s -> s)) layer
    in
    {
      Pass.items = List.map (fun (b, _, _, secs) -> (b.B.b_name, secs)) results;
      words = !words;
      fingerprint;
      attempted = List.length results;
      failed = List.length errors;
      errors;
      extras =
        (fun ~wall ->
          Report.
            [
              ("guest_instr_per_s", Num (instr /. wall));
              ("sim_events_per_s", Na "clbg's host time is the guest VM, see guest_instr_per_s");
              ("explore_runs_per_s", Na "mvcheck only");
              ("sim_s", Num sim_s);
              ("sim_p50_us", Na "openloop only");
              ("sim_p99_us", Na "openloop only");
              ("sim_samples", Na "openloop only");
            ]);
      layer;
    }
  in
  (setup_once, pass)
