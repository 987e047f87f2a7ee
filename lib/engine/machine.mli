(** The simulated physical platform, bundling the pieces every kernel
    needs: the clock/event loop, the executor, core topology, architectural
    per-core state, physical memory, the cost model, and the trace sink.

    One machine hosts both the ROS and the HRT; the HVM partitions its
    cores and memory between them. *)

type t = {
  sim : Sim.t;
  exec : Exec.t;
  topo : Mv_hw.Topology.t;
  costs : Mv_hw.Costs.t;
  phys : Mv_hw.Phys_mem.t;
  cpus : Mv_hw.Cpu.t array;
  trace : Trace.t;
  obs : Mv_obs.Tracer.t;
      (** the span tracer: causal, typed observability across the
          ROS<->HRT boundary; enable with {!set_tracing} *)
  metrics : Mv_obs.Metrics.t;  (** per-subsystem counters/gauges/latencies *)
  zero_frame : int;  (** the shared all-zeroes frame used for anonymous reads *)
  mutable huge_pages : bool;
      (** large-page memory path: 1G AeroKernel identity maps, transparent
          2M promotion of big anonymous VMAs, range-batched shootdowns *)
  mutable numa_local_alloc : bool;
      (** demand-paged frames come from the faulting core's NUMA zone
          ({!Mv_hw.Phys_mem.alloc_near}) instead of the flat first-fit
          order; off by default (the flat order is part of the golden
          trace) *)
  mutable work_stealing : bool;
      (** whether deterministic work stealing is on; core lending reads
          this to recompute the steal domain when partition membership
          changes *)
}

val create :
  ?costs:Mv_hw.Costs.t ->
  ?sockets:int ->
  ?cores_per_socket:int ->
  ?hrt_cores:int ->
  ?hrt_parts:int list ->
  ?hrt_mem_fraction:float ->
  ?huge_pages:bool ->
  ?work_stealing:bool ->
  ?trace_limit:int ->
  unit ->
  t
(** Build the reference machine: 2 sockets x 4 cores at 2.2 GHz by default,
    with [hrt_cores] (default 1) assigned to HRT partition 1.  [hrt_parts]
    generalizes to N HRT partitions (per-partition core counts, see
    {!Mv_hw.Topology.create}); when present it overrides [hrt_cores].
    [huge_pages] (default [true]) enables the large-page memory path.
    [work_stealing] (default [false]) turns on deterministic work stealing
    among the ROS cores ({!Exec.set_steal_domain}); the default is off,
    which is byte-identical to the pre-stealing scheduler.
    [trace_limit] bounds trace retention to the newest [trace_limit]
    records (see {!Trace.create}'s [limit]); the default keeps full
    history, which the golden trace depends on. *)

val apply_core_params : t -> core:int -> unit
(** Re-derive one core's scheduling parameters (switch cost, preemption
    slice) from its {e current} topology role — run by the lending
    protocol after {!Mv_hw.Topology.reassign} moves the core across the
    ROS/HRT boundary. *)

val refresh_steal_domain : t -> unit
(** Recompute the work-stealing domain from the current ROS core set
    (no-op when stealing is off).  Lending must call this so a lent core
    neither keeps stealing for its old partition nor is stolen from. *)

val charge : t -> int -> unit
(** Charge cycles to the running thread (see {!Exec.charge}). *)

val now : t -> Mv_util.Cycles.t
(** The running thread's local virtual time, or the event time outside
    thread context. *)

val cpu_of_current : t -> Mv_hw.Cpu.t
(** Architectural state of the core the current thread runs on. *)

val alloc_frame : t -> Mv_hw.Phys_mem.region -> int
(** Allocate a physical frame honouring the machine's placement policy:
    with [numa_local_alloc] set (and a current thread), the frame comes
    from the faulting core's zone via {!Mv_hw.Phys_mem.alloc_near};
    otherwise — and always outside thread context — this is exactly
    [Phys_mem.alloc]. *)

val mem_access_cost : t -> core:int -> frame:int -> Mv_util.Cycles.t
(** Extra memory-path cycles for [core] touching [frame]:
    [costs.remote_access] per socket hop between the core's socket and the
    frame's NUMA zone, 0 when local.  Locality-sensitive paths (group frame
    placement, the numa bench) charge this on top of the flat MMU costs. *)

val emit : t -> Trace.payload -> unit
(** Record a typed event at the current virtual time (and mirror it into
    the span tracer when that is enabled). *)

val set_tracing : t -> bool -> unit
(** Enable/disable the flat trace and the span tracer together. *)
