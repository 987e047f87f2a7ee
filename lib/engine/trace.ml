type record = { at : Mv_util.Cycles.t; category : string; message : string }

(* --- typed events ------------------------------------------------- *)

type payload =
  | Page_fault of { pid : int; vma : string option; page_off : int; addr : int; write : bool }
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
  | Shed_mode of { on : bool }
  | Restore_async_to_sync
  | Repartition of { core : int; src : int; dst : int; moved : int }
  | Message of { category : string; text : string }

let category_of = function
  | Page_fault _ -> "pagefault"
  | Fatal_signal _ -> "fatal"
  | Fault_injected _ -> "fault"
  | Channel_retry _ | Channel_exhausted _ | Server_survived _ | Degrade_sync_to_async
  | Channel_marked_failed | Watchdog_respawn _ | Fallback_sync_to_async _ | Reroute _
  | Ride_timeout _ | Errno_retry _ ->
      "resilience"
  | Overload_shed _ | Shed_mode _ | Restore_async_to_sync -> "overload"
  | Repartition _ -> "partition"
  | Message { category; _ } -> category

(* Renderings are the record shapes tests and the golden trace assert
   on — byte-for-byte the strings the printf call sites used to emit. *)
let render = function
  | Page_fault { pid; vma = Some kind; page_off; write; _ } ->
      Printf.sprintf "pid=%d vma=%s+%d w=%b" pid kind page_off write
  | Page_fault { pid; vma = None; addr; write; _ } ->
      Printf.sprintf "pid=%d addr=%x w=%b" pid addr write
  | Fatal_signal { signal; pid; addr } -> Printf.sprintf "%s pid=%d addr=%x" signal pid addr
  | Fault_injected { site; ctx } -> Printf.sprintf "inject %s %s" site ctx
  | Channel_retry { attempt; backoff; kind } ->
      Printf.sprintf "retry %d backoff=%d: %s" attempt backoff kind
  | Channel_exhausted { retries; kind } ->
      Printf.sprintf "channel failure after %d retries: %s" retries kind
  | Server_survived { msg } -> "server survived: " ^ msg
  | Degrade_sync_to_async -> "degrade sync->async"
  | Channel_marked_failed -> "channel marked failed"
  | Watchdog_respawn { was } -> Printf.sprintf "watchdog respawn poller (was %s)" was
  | Fallback_sync_to_async { kind } -> "fallback sync->async: " ^ kind
  | Reroute { kind; spurious_errnos = false } -> "reroute ros-native: " ^ kind
  | Reroute { kind; spurious_errnos = true } ->
      "reroute ros-native after spurious errnos: " ^ kind
  | Ride_timeout { kind } -> "ride timeout, escalating: " ^ kind
  | Errno_retry { attempt; kind } ->
      Printf.sprintf "retry %d after spurious errno: %s" attempt kind
  | Overload_shed { kind; endpoint } -> Printf.sprintf "overload shed %s @%s" kind endpoint
  | Shed_mode { on = true } -> "shed mode on: sync->async, doorbell suppression widened"
  | Shed_mode { on = false } -> "shed mode off: endpoints restored"
  | Restore_async_to_sync -> "restore async->sync"
  | Repartition { core; src; dst; moved } ->
      Printf.sprintf "core %d: partition %d -> %d (rehomed %d threads)" core src dst moved
  | Message { text; _ } -> text

(* --- the record store --------------------------------------------- *)

(* Entries are kept newest-first, plus a per-category index maintained on
   emit so [records_in]/[count_in] are O(category size)/O(1) instead of
   rebuilding and filtering the full reversed list per call (bench runs
   with tracing on used to go quadratic in hot categories). *)
type bucket = { mutable b_entries : record list (* newest first *); mutable b_count : int }

type span_sink =
  name:string -> cat:string -> ts:Mv_util.Cycles.t -> dur:Mv_util.Cycles.t -> unit

(* Two retention modes behind one query surface.  [Unbounded] (the
   default) is the compatibility mode golden runs and tests rely on:
   full history in a newest-first list plus the per-category index.
   [Ring ~limit] keeps only the newest [limit] records in a circular
   buffer — O(1) per emit, zero growth — for scale runs where the trace
   is a live debugging window rather than an artifact; with [limit = 0]
   and an event sink installed, records stream out without any
   retention.  Category queries in ring mode scan the (bounded)
   window. *)
type store =
  | Unbounded of {
      mutable entries : record list;  (* newest first *)
      mutable count : int;
      by_category : (string, bucket) Hashtbl.t;
    }
  | Ring of {
      ring : record array;
      mutable head : int;  (* index of the oldest retained record *)
      mutable len : int;
      mutable dropped : int;
    }

type t = {
  mutable enabled : bool;
  capacity : int;
  store : store;
  (* Oldest-first view served by [records]; rebuilt lazily so repeated
     calls after a run stop paying a [List.rev] each (exporters and
     tests call it in loops). *)
  mutable memo : record list;
  mutable memo_valid : bool;
  mutable span_sink : span_sink option;
  mutable event_sink : (record -> unit) option;
}

let dummy_record = { at = 0; category = ""; message = "" }

let create ?(enabled = false) ?(capacity = 100_000) ?limit () =
  let store =
    match limit with
    | Some n when n >= 0 -> Ring { ring = Array.make n dummy_record; head = 0; len = 0; dropped = 0 }
    | Some n -> invalid_arg (Printf.sprintf "Trace.create: negative limit %d" n)
    | None -> Unbounded { entries = []; count = 0; by_category = Hashtbl.create 16 }
  in
  { enabled; capacity; store; memo = []; memo_valid = true; span_sink = None; event_sink = None }

let enable t flag = t.enabled <- flag
let enabled t = t.enabled
let set_span_sink t sink = t.span_sink <- sink
let set_event_sink t sink = t.event_sink <- sink

let limit t = match t.store with Ring g -> Some (Array.length g.ring) | Unbounded _ -> None
let dropped t = match t.store with Ring g -> g.dropped | Unbounded _ -> 0

let bucket by_category category =
  match Hashtbl.find_opt by_category category with
  | Some b -> b
  | None ->
      let b = { b_entries = []; b_count = 0 } in
      Hashtbl.replace by_category category b;
      b

let add t r =
  t.memo_valid <- false;
  (match t.store with
  | Unbounded u ->
      u.entries <- r :: u.entries;
      u.count <- u.count + 1;
      let b = bucket u.by_category r.category in
      b.b_entries <- r :: b.b_entries;
      b.b_count <- b.b_count + 1;
      if u.count > t.capacity then begin
        (* Drop the oldest half; O(n) but amortized and rare. *)
        let keep = t.capacity / 2 in
        let rec take n acc = function
          | [] -> List.rev acc
          | x :: rest -> if n = 0 then List.rev acc else take (n - 1) (x :: acc) rest
        in
        u.entries <- take keep [] u.entries;
        u.count <- keep;
        Hashtbl.reset u.by_category;
        (* [entries] is newest-first; fold from the oldest end so each
           bucket also ends up newest-first. *)
        List.fold_right
          (fun r () ->
            let b = bucket u.by_category r.category in
            b.b_entries <- r :: b.b_entries;
            b.b_count <- b.b_count + 1)
          u.entries ()
      end
  | Ring g ->
      let n = Array.length g.ring in
      if n = 0 then g.dropped <- g.dropped + 1
      else if g.len < n then begin
        g.ring.((g.head + g.len) mod n) <- r;
        g.len <- g.len + 1
      end
      else begin
        g.ring.(g.head) <- r;
        g.head <- (g.head + 1) mod n;
        g.dropped <- g.dropped + 1
      end);
  match t.event_sink with Some sink -> sink r | None -> ()

let emit_event t ~at payload =
  (* The disabled path must stay one branch: [render] (and therefore any
     formatting or allocation) only runs when the trace is live. *)
  if t.enabled then add t { at; category = category_of payload; message = render payload }

let emit_span t ~name ~cat ~ts ~dur =
  if t.enabled then
    match t.span_sink with Some sink -> sink ~name ~cat ~ts ~dur | None -> ()

let records t =
  if t.memo_valid then t.memo
  else begin
    let l =
      match t.store with
      | Unbounded u -> List.rev u.entries
      | Ring g ->
          let n = Array.length g.ring in
          let rec go i acc =
            if i < 0 then acc else go (i - 1) (g.ring.((g.head + i) mod n) :: acc)
          in
          if n = 0 then [] else go (g.len - 1) []
    in
    t.memo <- l;
    t.memo_valid <- true;
    l
  end

let iter t f =
  match t.store with
  | Unbounded _ -> List.iter f (records t)
  | Ring g ->
      let n = Array.length g.ring in
      for i = 0 to g.len - 1 do
        f g.ring.((g.head + i) mod n)
      done

let records_in t ~category =
  match t.store with
  | Unbounded u -> (
      match Hashtbl.find_opt u.by_category category with
      | Some b -> List.rev b.b_entries
      | None -> [])
  | Ring g ->
      let n = Array.length g.ring in
      let acc = ref [] in
      for i = g.len - 1 downto 0 do
        let r = g.ring.((g.head + i) mod n) in
        if String.equal r.category category then acc := r :: !acc
      done;
      !acc

let count_in t ~category =
  match t.store with
  | Unbounded u -> (
      match Hashtbl.find_opt u.by_category category with
      | Some b -> b.b_count
      | None -> 0)
  | Ring g ->
      let n = Array.length g.ring in
      let c = ref 0 in
      for i = 0 to g.len - 1 do
        if String.equal g.ring.((g.head + i) mod n).category category then incr c
      done;
      !c

let clear t =
  t.memo <- [];
  t.memo_valid <- true;
  match t.store with
  | Unbounded u ->
      u.entries <- [];
      u.count <- 0;
      Hashtbl.reset u.by_category
  | Ring g ->
      g.head <- 0;
      g.len <- 0;
      g.dropped <- 0;
      (* Release the retained records so a cleared ring doesn't pin them. *)
      Array.fill g.ring 0 (Array.length g.ring) dummy_record

let pp ppf t =
  iter t (fun r ->
      Format.fprintf ppf "[%12d %-10s] %s@." r.at r.category r.message)
