(* Minor and major GC pause time from OCaml's runtime_events ring of this
   process, summed over a window opened by [start] and closed by [stop].
   The ring is read at the end of every major GC cycle (a Gc alarm) as
   well as at [start] and [stop]: a clbg pass emits about 400k events,
   more than a ring of any size that keeps the ring file (one ring per
   possible domain) under common file-size limits holds, while one major
   cycle emits at most about 22k.  A ring too small for the gap between
   reads loses events, which [lost] reports.  run.py sets the ring size. *)

type t = {
  cursor : Runtime_events.cursor;
  callbacks : Runtime_events.Callbacks.t;
  counting : bool ref;  (* inside a [start]/[stop] window *)
  minor_ns : int ref;
  major_ns : int ref;
  lost : int ref;
  mutable polling : bool;  (* an alarm firing inside a read must not re-enter it *)
}

let poll t =
  if not t.polling then begin
    t.polling <- true;
    Fun.protect
      ~finally:(fun () -> t.polling <- false)
      (fun () -> ignore (Runtime_events.read_poll t.cursor t.callbacks None))
  end

let open_ () =
  Runtime_events.start ();
  let counting = ref false and minor_ns = ref 0 and major_ns = ref 0 and lost = ref 0 in
  (* -1 = no open span: an end whose begin was lost is not counted. *)
  let minor_start = ref (-1) and major_start = ref (-1) in
  let ts t = Int64.to_int (Runtime_events.Timestamp.to_int64 t) in
  let close start sum t =
    if !start >= 0 then begin
      if !counting then sum := !sum + (ts t - !start);
      start := -1
    end
  in
  let callbacks =
    Runtime_events.Callbacks.create
      ~runtime_begin:(fun _ t -> function
        | Runtime_events.EV_MINOR -> minor_start := ts t
        | Runtime_events.EV_MAJOR_SLICE -> major_start := ts t
        | _ -> ())
      ~runtime_end:(fun _ t -> function
        | Runtime_events.EV_MINOR -> close minor_start minor_ns t
        | Runtime_events.EV_MAJOR_SLICE -> close major_start major_ns t
        | _ -> ())
      ~lost_events:(fun _ n ->
        minor_start := -1;
        major_start := -1;
        if !counting then lost := !lost + n)
      ()
  in
  let t =
    { cursor = Runtime_events.create_cursor None; callbacks; counting; minor_ns; major_ns; lost;
      polling = false }
  in
  ignore (Gc.create_alarm (fun () -> poll t));
  t

(* Drain what is pending, zero the sums and count from here on. *)
let start t =
  poll t;
  t.minor_ns := 0;
  t.major_ns := 0;
  t.lost := 0;
  t.counting := true

(* Count what is pending, then stop counting. *)
let stop t =
  poll t;
  t.counting := false
