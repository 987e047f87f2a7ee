(** Typed event tracing.

    Components emit {e typed} events ({!payload}); the trace renders each
    to a stable categorized record at emit time.  Tests assert on the
    records (e.g. the paper's requirement that the page-fault trace of an
    application under Multiverse be identical to its native trace) and
    debugging dumps them; the record shapes — category names and message
    formats — are a compatibility surface and do not change when new
    payload constructors are added.

    Trace is the flat-record compatibility surface of the observability
    layer; span-shaped data lives in [Mv_obs.Tracer] (see [Machine.obs]),
    to which {!emit_span} forwards.  Disabled tracing costs one branch
    per emit: no rendering, no allocation. *)

type record = { at : Mv_util.Cycles.t; category : string; message : string }

(** One typed event.  [category_of] maps constructors onto the stable
    record categories ("pagefault", "fatal", "fault", "resilience");
    [Message] is the escape hatch carrying a preformatted string. *)
type payload =
  | Page_fault of { pid : int; vma : string option; page_off : int; addr : int; write : bool }
      (** [vma = Some kind] renders the address-layout-independent form
          ["pid=… vma=kind+off w=…"]; [None] falls back to the raw
          address. *)
  | Fatal_signal of { signal : string; pid : int; addr : int }
  | Fault_injected of { site : string; ctx : string }
  | Channel_retry of { attempt : int; backoff : int; kind : string }
  | Channel_exhausted of { retries : int; kind : string }
  | Server_survived of { msg : string }
  | Degrade_sync_to_async
  | Channel_marked_failed
  | Watchdog_respawn of { was : string }
  | Fallback_sync_to_async of { kind : string }
  | Reroute of { kind : string; spurious_errnos : bool }
  | Ride_timeout of { kind : string }
  | Errno_retry of { attempt : int; kind : string }
  | Overload_shed of { kind : string; endpoint : string }
      (** Admission control returned a typed [Overload] reply (category
          "overload"). *)
  | Shed_mode of { on : bool }
      (** The load-shedding watchdog crossed the high-water mark (on) or
          drained below the low-water mark (off). *)
  | Restore_async_to_sync
      (** A shed-mode Sync->Async flip was undone on drain. *)
  | Repartition of { core : int; src : int; dst : int; moved : int }
      (** Core lending moved [core] between partitions, re-homing [moved]
          threads (category "partition"). *)
  | Message of { category : string; text : string }

val category_of : payload -> string

val render : payload -> string
(** The record message a payload emits — exposed so exporters can render
    typed events without an enabled trace. *)

type t

val create : ?enabled:bool -> ?capacity:int -> ?limit:int -> unit -> t
(** [limit] selects bounded retention: keep only the newest [limit]
    records in a preallocated ring (O(1) per emit, zero growth), counting
    evictions in {!dropped}.  [limit = 0] retains nothing — useful with
    an event sink installed to stream records without holding any live.
    Without [limit] (the default) the trace keeps full history, which the
    golden trace and tests depend on; [capacity] is the legacy high-water
    mark above which the oldest half is discarded.  Raises
    [Invalid_argument] on a negative [limit]. *)

val enable : t -> bool -> unit
val enabled : t -> bool

val limit : t -> int option
(** The ring size, or [None] in unbounded mode. *)

val dropped : t -> int
(** Records evicted from the ring (always 0 in unbounded mode). *)

val emit_event : t -> at:Mv_util.Cycles.t -> payload -> unit
(** Record a typed event.  Rendering happens only when enabled. *)

val emit_span :
  t -> name:string -> cat:string -> ts:Mv_util.Cycles.t -> dur:Mv_util.Cycles.t -> unit
(** Forward a completed span to the installed span sink (the machine
    wires this to its [Mv_obs.Tracer]); a no-op when disabled or no sink
    is installed. *)

type span_sink =
  name:string -> cat:string -> ts:Mv_util.Cycles.t -> dur:Mv_util.Cycles.t -> unit

val set_span_sink : t -> span_sink option -> unit

val set_event_sink : t -> (record -> unit) option -> unit
(** Observe every recorded event (the machine mirrors them into the span
    tracer as instants so exports interleave records with spans). *)

val records : t -> record list
(** In emission order (oldest first; in ring mode, the retained window).
    The list is memoized until the next emit or {!clear}, so repeated
    calls are O(1). *)

val iter : t -> (record -> unit) -> unit
(** Apply to every retained record in emission order without
    materializing a list (ring mode walks the buffer in place). *)

val records_in : t -> category:string -> record list
(** In emission order; served from a per-category index maintained on
    emit, so repeated queries don't re-filter the whole trace. *)

val count_in : t -> category:string -> int
(** O(1) count of records in a category. *)

val clear : t -> unit
val pp : Format.formatter -> t -> unit
