(* Workload [openloop]: the open-loop load generator over the forwarding
   fabric, in the configuration of the scale / host bench (1000 groups,
   16 workers each, Poisson arrivals at 400k calls/s simulated, admission
   off).  Engine plus fabric, no guest VM.  The seed is [lg_seed]. *)

module Loadgen = Mv_workloads.Loadgen
module Machine = Mv_engine.Machine
module Exec = Mv_engine.Exec
module Fabric = Mv_hvm.Fabric
module Topology = Mv_hw.Topology

let config ~tiny ~seed =
  {
    Loadgen.default_config with
    Loadgen.lg_groups = (if tiny then 4 else 1000);
    lg_calls_per_group = (if tiny then 16 else 64);
    lg_workers_per_group = 16;
    lg_offered_cps = 400_000.0;
    lg_arrival = Loadgen.Poisson;
    lg_admission = None;
    lg_seed = seed;
  }

(* Loadgen.run builds its machine internally, so the set-up the benchmark
   can time is the same stack rebuilt through the same public calls:
   machine, fabric, poller pool and one endpoint per group. *)
let setup_once cfg () =
  let machine =
    Machine.create ~sockets:cfg.Loadgen.lg_sockets ~cores_per_socket:cfg.Loadgen.lg_cores_per_socket
      ~hrt_cores:cfg.Loadgen.lg_hrt_cores ()
  in
  let exec = machine.Machine.exec in
  let ros = Topology.ros_cores machine.Machine.topo in
  let hrt = List.concat_map Mv_hw.Partition.cores (Topology.hrt_partitions machine.Machine.topo) in
  let fabric = Fabric.create machine ~kind:cfg.Loadgen.lg_kind in
  Fabric.set_admission fabric cfg.Loadgen.lg_admission;
  Fabric.start_pool fabric
    ~spawn:(fun ~name ~core body -> Exec.spawn exec ~cpu:core ~name body)
    ~cores:ros ();
  let nros = List.length ros and nhrt = List.length hrt in
  for g = 0 to cfg.Loadgen.lg_groups - 1 do
    ignore
      (Fabric.endpoint fabric ~name:(Printf.sprintf "grp-%d" g)
         ~ros_core:(List.nth ros (g mod nros)) ~hrt_core:(List.nth hrt (g mod nhrt)))
  done

let make ~tiny ~seed =
  let cfg = config ~tiny ~seed in
  let expected = cfg.Loadgen.lg_groups * cfg.Loadgen.lg_calls_per_group in
  let pass () =
    let w0 = Gc.minor_words () in
    let r, secs = Pass.timed (fun () -> Span.with_span "openloop.loadgen_run" (fun () -> Loadgen.run cfg)) in
    let words = Gc.minor_words () -. w0 in
    let lost = r.Loadgen.r_issued - r.Loadgen.r_completed - r.Loadgen.r_dropped in
    let errors =
      List.filter_map Fun.id
        [
          (if lost <> 0 then
             Some
               (Printf.sprintf "completed %d + dropped %d <> issued %d" r.Loadgen.r_completed
                  r.Loadgen.r_dropped r.Loadgen.r_issued)
           else None);
          (if r.Loadgen.r_issued <> expected then
             Some (Printf.sprintf "issued %d of %d scheduled calls" r.Loadgen.r_issued expected)
           else None);
          (if r.Loadgen.r_dropped <> 0 then Some (Printf.sprintf "%d calls dropped" r.Loadgen.r_dropped)
           else None);
        ]
    in
    let events = float_of_int r.Loadgen.r_events in
    let layer =
      Report.
        [
          ("engine.events", Num events);
          ("hvm.fabric_calls", Num (float_of_int r.Loadgen.r_issued));
          ("hvm.sheds", Num (float_of_int r.Loadgen.r_sheds));
        ]
    in
    {
      Pass.items = [ ("loadgen", secs) ];
      words;
      fingerprint =
        [
          ( "loadgen",
            Printf.sprintf "issued=%d completed=%d dropped=%d events=%d makespan=%d p50=%h p99=%h"
              r.Loadgen.r_issued r.Loadgen.r_completed r.Loadgen.r_dropped r.Loadgen.r_events
              r.Loadgen.r_makespan r.Loadgen.r_p50_us r.Loadgen.r_p99_us );
        ];
      attempted = expected;
      failed = expected - r.Loadgen.r_completed;
      errors;
      extras =
        (fun ~wall ->
          Report.
            [
              ("guest_instr_per_s", Na "clbg only: openloop runs no guest VM");
              ("sim_events_per_s", Num (events /. wall));
              ("explore_runs_per_s", Na "mvcheck only");
              ("sim_s", Na "clbg only");
              ("sim_p50_us", Num r.Loadgen.r_p50_us);
              ("sim_p99_us", Num r.Loadgen.r_p99_us);
              ("sim_samples", Num (float_of_int r.Loadgen.r_completed));
            ]);
      layer;
    }
  in
  (setup_once cfg, pass)
