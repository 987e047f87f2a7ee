(* End-to-end tests of the forwarding fabric: four-plus execution groups
   routed over the shared poller pool, request batching (leaders, riders,
   drains) on a single endpoint, doorbell suppression accounting, and the
   local fast-path promotion table.  The fault-facing behaviour (retries,
   degradation, watchdog respawns) is covered by test_faults.ml and the
   mvcheck fabric scenarios. *)

module Fabric = Mv_hvm.Fabric
module Event_channel = Mv_hvm.Event_channel
module Metrics = Mv_obs.Metrics
module Machine = Mv_engine.Machine
module Exec = Mv_engine.Exec
open Multiverse

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let runtime rs =
  match rs.Toolchain.rs_runtime with
  | Some rt -> rt
  | None -> Alcotest.fail "no runtime handle"

(* --- routing: more execution groups than dedicated servers --- *)

let fanout_program =
  {
    Toolchain.prog_name = "fabric-fanout";
    prog_main =
      (fun env ->
        let open Mv_guest in
        let libc = Libc.create env in
        let n = 4 in
        let slots = Array.make n 0 in
        let spawn i =
          env.Env.thread_create ~name:(Printf.sprintf "fan-%d" i) (fun () ->
              let acc = ref 0 in
              for k = 1 to 5 do
                env.Env.work 10_000;
                ignore (env.Env.getrusage ());
                ignore (env.Env.getpid ());
                acc := !acc + k
              done;
              slots.(i) <- !acc)
        in
        let ts = List.init n spawn in
        List.iter env.Env.thread_join ts;
        Libc.printf libc "fanout %d %d %d %d\n" slots.(0) slots.(1) slots.(2) slots.(3);
        Libc.flush_all libc);
  }

let test_four_groups_routed () =
  let rs = Toolchain.run_multiverse (Toolchain.hybridize fanout_program) in
  check_string "stdout" "fanout 15 15 15 15\n" rs.Toolchain.rs_stdout;
  check_int "exit code" 0 rs.Toolchain.rs_exit_code;
  let rt = runtime rs in
  let f = Runtime.fabric rt in
  (* main + four workers, each a top-level HRT thread with its own group. *)
  check_bool "at least five execution groups" true (Runtime.groups_created rt >= 5);
  (* One fabric endpoint per group plus the signal-injection endpoint,
     all served by the one shared pool — not one server loop per group. *)
  check_bool "one endpoint per group plus signals" true
    (Fabric.endpoints f >= Runtime.groups_created rt + 1);
  check_bool "shared poller pool" true (Fabric.pollers f >= 2);
  (* Routing decouples servers from groups: a single-group run uses the
     same pool size as the five-group run (topology-sized, not per-group). *)
  let single =
    {
      Toolchain.prog_name = "fabric-single";
      prog_main = (fun env -> ignore (env.Mv_guest.Env.getrusage ()));
    }
  in
  let rs1 = Toolchain.run_multiverse (Toolchain.hybridize single) in
  check_int "pool size independent of group count"
    (Fabric.pollers (Runtime.fabric (runtime rs1)))
    (Fabric.pollers f);
  (* 4 workers x 5 getrusage forwarded, plus prints and getpid calls. *)
  check_bool "forwarded calls went through the fabric" true (Fabric.calls f >= 20);
  check_bool "vdso-like calls hit the local fast path" true (Fabric.local_hits f > 0);
  check_bool "transport never exceeds entry calls" true
    (Fabric.transport_calls f <= Fabric.calls f)

(* --- batching: concurrent nested callers on one endpoint --- *)

(* Four nested AeroKernel threads share the top-level group's endpoint;
   whenever one of them has a call in flight, the others ride the
   shared-page ring instead of ringing their own doorbell. *)
let rider_workload ~batching rt =
  Fabric.set_batching (Runtime.fabric rt) batching;
  let partner =
    Runtime.hrt_invoke rt ~name:"top" (fun env ->
        let nested =
          List.init 4 (fun i ->
              Runtime.create_nested rt ~name:(Printf.sprintf "rider-%d" i)
                (fun () ->
                  for _ = 1 to 4 do
                    ignore (env.Mv_guest.Env.getrusage ())
                  done))
        in
        List.iter (fun th -> Runtime.join_nested rt th) nested)
  in
  Runtime.join rt partner

let test_riders_batch () =
  let rs =
    Toolchain.run_accelerator ~name:"fabric-riders" (fun ~ros_env:_ ~rt ->
        rider_workload ~batching:true rt)
  in
  let f = Runtime.fabric (runtime rs) in
  check_bool "doorbells were suppressed (riders > 0)" true (Fabric.riders f > 0);
  check_int "every rider was drained exactly once" (Fabric.riders f) (Fabric.drained f);
  check_int "no ride timeouts in a fault-free run" 0 (Fabric.ride_timeouts f);
  check_bool "fewer doorbells than calls" true
    (Fabric.transport_calls f < Fabric.calls f);
  check_bool "drain rounds happened" true (Fabric.drains f > 0)

let test_batching_toggle () =
  let run batching =
    Toolchain.run_accelerator ~name:"fabric-toggle" (fun ~ros_env:_ ~rt ->
        rider_workload ~batching rt)
  in
  let rs_on = run true in
  let rs_off = run false in
  let f_on = Runtime.fabric (runtime rs_on) in
  let f_off = Runtime.fabric (runtime rs_off) in
  check_int "batching off rides nothing" 0 (Fabric.riders f_off);
  check_bool "batching on rides" true (Fabric.riders f_on > 0);
  check_int "same entry-call count either way" (Fabric.calls f_off) (Fabric.calls f_on);
  check_bool "batching rings fewer doorbells" true
    (Fabric.transport_calls f_on < Fabric.transport_calls f_off);
  check_bool "batching is faster end-to-end" true
    (rs_on.Toolchain.rs_wall_cycles < rs_off.Toolchain.rs_wall_cycles)

(* --- promotion table: vdso-like calls never touch the transport --- *)

let vdso_program =
  {
    Toolchain.prog_name = "fabric-vdso";
    prog_main =
      (fun env ->
        let open Mv_guest in
        let libc = Libc.create env in
        let pid = ref 0 in
        for _ = 1 to 5 do
          ignore (env.Env.gettimeofday ());
          pid := env.Env.getpid ()
        done;
        Libc.printf libc "vdso pid=%d\n" !pid;
        Libc.flush_all libc);
  }

let test_vdso_local_path () =
  let rs = Toolchain.run_multiverse (Toolchain.hybridize vdso_program) in
  check_string "stdout" "vdso pid=1\n" rs.Toolchain.rs_stdout;
  let f = Runtime.fabric (runtime rs) in
  (* gettimeofday and getpid are installed with promote_after:0 — every
     one of the ten calls is a local hit, none rings a doorbell. *)
  check_bool "all vdso-like calls serviced locally" true (Fabric.local_hits f >= 10);
  check_int "no demotions for stable locals" 0 (Fabric.local_misses f);
  check_bool "transport never exceeds entry calls" true
    (Fabric.transport_calls f <= Fabric.calls f)

(* --- counters: the machine's registry is their only store --- *)

let registry_counter machine key =
  match Metrics.find machine.Machine.metrics key with
  | Some (Metrics.Counter_v n) -> n
  | Some _ | None -> Alcotest.failf "%s is not a registered counter" key

(* A bare fabric: nothing calls [Toolchain.collect], yet the registry
   agrees with the accessors both from a fiber mid-run and afterwards. *)
let test_counters_live_in_registry () =
  let machine = Machine.create () in
  let exec = machine.Machine.exec in
  let f = Fabric.create machine ~kind:Event_channel.Async in
  Fabric.start_pool f
    ~spawn:(fun ~name ~core body -> Exec.spawn exec ~cpu:core ~name body)
    ~cores:[ 0; 1 ] ();
  let ep = Fabric.endpoint f ~name:"live" ~ros_core:0 ~hrt_core:7 in
  let ch = Fabric.channel ep in
  let req = { Event_channel.req_kind = "live"; req_run = ignore } in
  let check_registry when_ =
    check_int (when_ ^ ": fabric/calls") (Fabric.calls f)
      (registry_counter machine "fabric/calls");
    check_int (when_ ^ ": event_channel/calls") (Event_channel.calls ch)
      (registry_counter machine "event_channel/calls")
  in
  ignore
    (Exec.spawn exec ~cpu:7 ~name:"caller" (fun () ->
         for _ = 1 to 5 do
           Fabric.call f ep req
         done;
         check_int "mid-run: five calls entered" 5 (Fabric.calls f);
         check_registry "mid-run";
         for _ = 1 to 3 do
           Fabric.call f ep req
         done;
         Fabric.shutdown f));
  Mv_engine.Sim.run machine.Machine.sim;
  check_int "after run: eight calls entered" 8 (Fabric.calls f);
  check_bool "the channel carried calls" true (Event_channel.calls ch > 0);
  check_registry "after run"

(* The registry's fabric and channel keys after a multiverse run with
   admission off: 19 fabric counters, the ring high-water gauge and 5
   channel counters.  The shed-mode gauges register only under an
   admission policy; the per-kind crossing latencies are left out. *)
let test_registry_key_set () =
  let prog =
    {
      Toolchain.prog_name = "fabric-keys";
      prog_main = (fun env -> ignore (env.Mv_guest.Env.getrusage ()));
    }
  in
  let rs = Toolchain.run_multiverse (Toolchain.hybridize prog) in
  let has_prefix p k = String.length k >= String.length p && String.sub k 0 (String.length p) = p in
  let keys =
    Metrics.to_list rs.Toolchain.rs_machine.Machine.metrics
    |> List.map fst
    |> List.filter (fun k ->
           (has_prefix "fabric/" k || has_prefix "event_channel/" k)
           && not (has_prefix "fabric/crossing:" k))
  in
  Alcotest.(check (list string))
    "fabric and event_channel keys"
    [
      "event_channel/calls"; "event_channel/degraded"; "event_channel/protocol_errors";
      "event_channel/retries"; "event_channel/timeouts"; "fabric/admission_blocked";
      "fabric/admitted"; "fabric/calls"; "fabric/drained"; "fabric/drains";
      "fabric/errno_retries"; "fabric/fallbacks"; "fabric/local_hits"; "fabric/local_misses";
      "fabric/queue_rejects"; "fabric/reroutes"; "fabric/respawns"; "fabric/ride_timeouts";
      "fabric/riders"; "fabric/ring_occupancy_hw"; "fabric/shed_flips"; "fabric/shed_restores";
      "fabric/shed_retries"; "fabric/sheds"; "fabric/transport";
    ]
    keys

let suite =
  [
    ("four groups routed over the shared pool", `Quick, test_four_groups_routed);
    ("concurrent nested callers batch as riders", `Quick, test_riders_batch);
    ("batching toggle: fewer doorbells, faster", `Quick, test_batching_toggle);
    ("vdso fast path stays local", `Quick, test_vdso_local_path);
    ("counters are live registry slots", `Quick, test_counters_live_in_registry);
    ("registry key set with admission off", `Quick, test_registry_key_set);
  ]
