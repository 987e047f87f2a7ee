(* What one pass of a workload reports back to the run loop. *)

type t = {
  items : (string * float) list;  (* item (program / scenario) -> host seconds *)
  words : float;  (* minor words allocated by the pass, set-up excluded *)
  fingerprint : (string * string) list;
      (* deterministic outputs and counts: must repeat exactly across the
         passes of one run, traced or not *)
  attempted : int;
  failed : int;
  errors : string list;  (* one line per failed output check *)
  extras : wall:float -> (string * Report.value) list;
      (* the workload's own end-to-end metrics (rates need the run's wall_s) *)
  layer : (string * Report.value) list;  (* per-layer counters read after the pass *)
}

(* Ratio with an explicit base; 0 when the base is 0 (documented per metric). *)
let ratio num den = if den = 0.0 then 0.0 else num /. den

let timed f =
  let t0 = Span.now_s () in
  let r = f () in
  (r, Span.now_s () -. t0)
