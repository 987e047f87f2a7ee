(* Host-clock spans recorded by the benchmark around its calls into each
   layer's public functions.  Recording is off unless [enable] was called,
   so an untraced pass pays one branch per span.  Each span also records
   the minor words the process allocated inside it, which is what the
   per-layer words/op ratios are computed from. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let now_s () = float_of_int (now_ns ()) *. 1e-9

type t = {
  id : int;
  parent : int;  (* 0 = root *)
  name : string;
  t0 : int;  (* ns, host monotonic clock *)
  mutable t1 : int;
  w0 : float;  (* minor words at entry *)
  mutable w1 : float;
}

let enabled = ref false
let recorded : t list ref = ref []
let stack : t list ref = ref []
let next_id = ref 1

let enable b = enabled := b

let with_span name f =
  if not !enabled then f ()
  else begin
    let parent = match !stack with s :: _ -> s.id | [] -> 0 in
    let s =
      { id = !next_id; parent; name; t0 = now_ns (); t1 = 0; w0 = Gc.minor_words (); w1 = 0.0 }
    in
    incr next_id;
    stack := s :: !stack;
    let finish () =
      s.t1 <- now_ns ();
      s.w1 <- Gc.minor_words ();
      stack := List.tl !stack;
      recorded := s :: !recorded
    in
    Fun.protect ~finally:finish f
  end

let seconds s = float_of_int (s.t1 - s.t0) *. 1e-9
let words s = s.w1 -. s.w0

(* Spans recorded so far, in the order they ended. *)
let all () = List.rev !recorded

(* Sum of the durations (s) and words of every span called [name]. *)
let total name =
  List.fold_left
    (fun (sec, w) s -> if s.name = name then (sec +. seconds s, w +. words s) else (sec, w))
    (0.0, 0.0) !recorded

(* Chrome Trace Event JSON ("X" complete events, microseconds), loadable
   in Perfetto or chrome://tracing.  Nesting is visible from the times;
   the causal parent is kept in [args] as well. *)
let write_chrome path =
  let oc = open_out path in
  let spans = all () in
  let origin = match spans with [] -> 0 | s :: _ -> List.fold_left (fun m s -> min m s.t0) s.t0 spans in
  output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\":%s,\"cat\":\"host\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"minor_words\":%.0f}}\n"
        (if i = 0 then "" else ",")
        (Report.json_string s.name)
        (float_of_int (s.t0 - origin) /. 1e3)
        (float_of_int (s.t1 - s.t0) /. 1e3)
        s.id s.parent (words s))
    spans;
  output_string oc "]}\n";
  close_out oc
