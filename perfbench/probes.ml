(* Short probes of each layer's hot public operation: host ns and minor
   words per operation, median of [reps] repetitions.  A probe that did
   not exercise the path it is named after (checked through the layer's
   own counters) is reported as an error, not as a number. *)

module Machine = Mv_engine.Machine
module Exec = Mv_engine.Exec
module Sim = Mv_engine.Sim
module Event_queue = Mv_engine.Event_queue
module Event_channel = Mv_hvm.Event_channel
module Fabric = Mv_hvm.Fabric
module T = Multiverse.Toolchain
module Runtime = Multiverse.Runtime
module Sgc = Mv_racket.Sgc
open Mv_hw

let reps = 5

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0 else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Per-op medians of repetitions, each (host ns, minor words, ops). *)
let summarize samples =
  let per g = median (List.map (fun (ns, w, ops) -> g ns w /. float_of_int ops) samples) in
  (per (fun ns _ -> ns), per (fun _ w -> w))

let measure f = summarize (List.init reps (fun _ -> f ()))

(* Host ns and words around [body], which performs [ops] operations. *)
let window ops body =
  let w0 = Gc.minor_words () and t0 = Span.now_ns () in
  body ();
  let t1 = Span.now_ns () and w1 = Gc.minor_words () in
  (float_of_int (t1 - t0), w1 -. w0, ops)

let errors = ref []
let expect what ok = if not ok then errors := ("probe " ^ what ^ " missed its path") :: !errors

(* ---- racket: Sgc heap words, inside a simulated process ---- *)

let sgc_probe ~write =
  let n = 100_000 in
  let machine = Machine.create () in
  let kernel = Mv_ros.Kernel.create machine in
  let result = ref (0.0, 0.0, 1) in
  ignore
    (Mv_ros.Kernel.spawn_process kernel ~name:"sgc-probe" (fun p ->
         let gc = Sgc.create (Mv_guest.Env.native kernel p) () in
         let obj = Sgc.alloc gc ~tag:1 ~words:64 in
         let addr i = obj + (Addr.word_size * (1 + (i land 63))) in
         (* First touches (demand paging) happen before the window. *)
         for i = 0 to 63 do
           Sgc.write_word gc (addr i) i
         done;
         result :=
           window n (fun () ->
               if write then
                 for i = 0 to n - 1 do
                   Sgc.write_word gc (addr i) i
                 done
               else
                 for i = 0 to n - 1 do
                   ignore (Sys.opaque_identity (Sgc.read_word gc (addr i)))
                 done)));
  Sim.run machine.Machine.sim;
  !result

(* ---- engine ---- *)

let queue_probe () =
  let n = 200_000 and depth = 1024 in
  let q = Event_queue.create () in
  for i = 0 to depth - 1 do
    Event_queue.push q ~time:(i * 7 mod depth) ()
  done;
  window n (fun () ->
      for i = 0 to n - 1 do
        Event_queue.push q ~time:(depth + i) ();
        Event_queue.pop_exn q
      done)

let yield_probe () =
  let n = 20_000 in
  let machine = Machine.create () in
  let exec = machine.Machine.exec in
  for f = 0 to 1 do
    ignore
      (Exec.spawn exec ~cpu:0 ~name:(Printf.sprintf "yield-%d" f) (fun () ->
           for _ = 1 to n do
             Machine.charge machine 100;
             Exec.yield exec
           done))
  done;
  window (2 * n) (fun () -> Sim.run machine.Machine.sim)

let block_wake_probe () =
  let n = 20_000 in
  let machine = Machine.create () in
  let exec = machine.Machine.exec in
  let slot = ref None and rounds = ref 0 in
  ignore
    (Exec.spawn exec ~cpu:0 ~name:"waiter" (fun () ->
         for _ = 1 to n do
           Exec.block exec ~reason:"probe" (fun ~now:_ ~wake -> slot := Some wake)
         done));
  ignore
    (Exec.spawn exec ~cpu:0 ~name:"waker" (fun () ->
         while !rounds < n do
           (match !slot with
           | Some wake ->
               slot := None;
               incr rounds;
               wake ()
           | None -> ());
           Exec.yield exec
         done));
  let r = window n (fun () -> Sim.run machine.Machine.sim) in
  expect "engine.fiber_block_wake" (!rounds = n);
  r

(* ---- hvm ---- *)

let chan_probe kind () =
  let n = 5_000 in
  let machine = Machine.create () in
  let exec = machine.Machine.exec in
  let ros_core = 0 and hrt_core = Topology.ncores machine.Machine.topo - 1 in
  let ch = Event_channel.create machine ~kind ~ros_core ~hrt_core in
  ignore
    (Exec.spawn exec ~cpu:ros_core ~name:"server" (fun () ->
         for _ = 1 to n do
           let req = Event_channel.serve_next ch in
           req.Event_channel.req_run ();
           Event_channel.complete ch
         done));
  ignore
    (Exec.spawn exec ~cpu:hrt_core ~name:"client" (fun () ->
         for _ = 1 to n do
           Event_channel.call ch { Event_channel.req_kind = "probe"; req_run = ignore }
         done));
  let r = window n (fun () -> Sim.run machine.Machine.sim) in
  expect "hvm.chan_rtt" (Event_channel.calls ch = n);
  r

(* The fabric bench's load (4 groups x 4 nested riders), timed from the
   first forwarded call to the last join; also yields the simulated
   cycles per forwarded call. *)
let fabric_probe ~batching =
  let groups = 4 and riders = 4 and calls = 32 in
  let result = ref (0.0, 0.0, 1) and sim_per_call = ref 0.0 in
  ignore
    (T.run_accelerator ~name:"fabric-probe" (fun ~ros_env:_ ~rt ->
         let fabric = Runtime.fabric rt in
         Fabric.set_batching fabric batching;
         let exec = (Mv_aerokernel.Nautilus.machine (Runtime.nk rt)).Machine.exec in
         let c0 = Fabric.calls fabric and s0 = Exec.local_now exec in
         let ns, w, _ =
           window 1 (fun () ->
               let partners =
                 List.init groups (fun g ->
                     Runtime.hrt_invoke rt ~name:(Printf.sprintf "grp-%d" g) (fun env ->
                         let nested =
                           List.init riders (fun i ->
                               Runtime.create_nested rt ~name:(Printf.sprintf "g%d-r%d" g i)
                                 (fun () ->
                                   for _ = 1 to calls do
                                     ignore (env.Mv_guest.Env.getrusage ())
                                   done))
                         in
                         List.iter (Runtime.join_nested rt) nested))
               in
               List.iter (Runtime.join rt) partners)
         in
         let fcalls = Fabric.calls fabric - c0 in
         expect "hvm.fabric_call" (fcalls >= groups * riders * calls);
         if batching then expect "hvm.fabric_call_batched" (Fabric.riders fabric > 0);
         sim_per_call := float_of_int (Exec.local_now exec - s0) /. float_of_int (max 1 fcalls);
         result := (ns, w, max 1 fcalls)));
  (!result, !sim_per_call)

(* ---- hw: Mmu.access on three paths ---- *)

let mmu_probe pages =
  let n = 200_000 in
  let cpu = Cpu.create ~core_id:0 in
  let pt = Page_table.create () in
  let flags = Page_table.(f_present lor f_writable) in
  let addrs = Array.of_list pages in
  Array.iteri (fun i a -> Page_table.map pt a ~frame:(i + 1) ~flags) addrs;
  Cpu.load_cr3 cpu pt;
  let m = Array.length addrs in
  let touch i = ignore (Sys.opaque_identity (Mmu.access Costs.default cpu pt addrs.(i mod m) Mmu.Read)) in
  for i = 0 to m - 1 do
    touch i
  done;
  let h0 = Tlb.hits cpu.Cpu.tlb and c0 = Walk_cache.hits cpu.Cpu.pwc in
  let r = window n (fun () -> for i = 0 to n - 1 do touch i done) in
  (r, Tlb.hits cpu.Cpu.tlb - h0, Walk_cache.hits cpu.Cpu.pwc - c0, n)

let mmu_tlb_hit () =
  let ((_, _, n) as r), tlb_hits, _, _ = mmu_probe [ 0x1000_0000 ] in
  expect "hw.mmu_tlb_hit" (tlb_hits = n);
  r

(* 2048 consecutive pages: more than the 512-entry TLB, inside 4 PDEs. *)
let mmu_walk_cache_hit () =
  let ((_, _, n) as r), tlb_hits, pwc_hits, _ =
    mmu_probe (List.init 2048 (fun i -> 0x4000_0000 + (i * Addr.page_size)))
  in
  expect "hw.mmu_walk_cache_hit" (tlb_hits = 0 && pwc_hits = n);
  r

(* 640 pages one per 1 GiB region: more than the TLB and both walk-cache
   classes hold. *)
let mmu_full_walk () =
  let r, tlb_hits, pwc_hits, _ = mmu_probe (List.init 640 (fun i -> (i + 1) lsl 30)) in
  expect "hw.mmu_full_walk" (tlb_hits = 0 && pwc_hits = 0);
  r

(* Every probe row, in catalogue order, plus the failed-path messages. *)
let run () =
  errors := [];
  let rows name (ns, w) = [ (name ^ ".ns", ns); (name ^ ".words", w) ] in
  let fabric batching =
    let samples = List.init reps (fun _ -> fabric_probe ~batching) in
    (summarize (List.map fst samples), snd (List.hd samples))
  in
  let batched, sim_per_call = fabric true in
  let unbatched, _ = fabric false in
  let rows =
    List.concat
      [
        rows "racket.sgc_read_word" (measure (fun () -> sgc_probe ~write:false));
        rows "racket.sgc_write_word" (measure (fun () -> sgc_probe ~write:true));
        rows "engine.event_queue_push_pop" (measure queue_probe);
        rows "engine.fiber_yield" (measure yield_probe);
        rows "engine.fiber_block_wake" (measure block_wake_probe);
        [ ("hvm.sim_cycles_per_forwarded_call", sim_per_call) ];
        rows "hvm.chan_sync_rtt" (measure (chan_probe Event_channel.Sync));
        rows "hvm.chan_async_rtt" (measure (chan_probe Event_channel.Async));
        rows "hvm.fabric_call_batched" batched;
        rows "hvm.fabric_call_unbatched" unbatched;
        rows "hw.mmu_tlb_hit" (measure mmu_tlb_hit);
        rows "hw.mmu_walk_cache_hit" (measure mmu_walk_cache_hit);
        rows "hw.mmu_full_walk" (measure mmu_full_walk);
      ]
  in
  (List.map (fun (k, v) -> (k, Report.Num v)) rows, List.rev !errors)
