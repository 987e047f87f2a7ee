(* Int-indexed slot registry.  The string-keyed Hashtbl is consulted only
   at registration: [counter]/[gauge]/[latency] resolve a name to a slot
   index once, and the handle they hand back is (registry, index), so the
   hot-path update is an array store into an unboxed [int array] /
   [float array].  Counter and gauge values living in flat arrays (rather
   than per-cell boxed records) also keeps exports cache-friendly.
   There is no reset: subsystems hold live handles, and dropping their
   registrations would silently disconnect them. *)

type t = {
  mutable counters : int array;
  mutable gauges : float array;
  mutable lats : lat_cell array;
  mutable n_counters : int;
  mutable n_gauges : int;
  mutable n_lats : int;
  index : (string, slot) Hashtbl.t;  (* registration-time only *)
}

and lat_cell = {
  l_stats : Mv_util.Stats.t;
  l_buckets : int array;  (* log2 buckets: slot k counts [2^(k-1), 2^k) *)
}

and slot = C of int | G of int | L of int

type counter = { ct_t : t; ct_idx : int }
type gauge = { ga_t : t; ga_idx : int }
type latency = lat_cell

let n_log2_buckets = 64

let create () =
  {
    counters = [||];
    gauges = [||];
    lats = [||];
    n_counters = 0;
    n_gauges = 0;
    n_lats = 0;
    index = Hashtbl.create 64;
  }

let key ~ns name = ns ^ "/" ^ name

let grow_int arr n =
  let cap = Array.length arr in
  if n >= cap then begin
    let na = Array.make (max 16 (cap * 2)) 0 in
    Array.blit arr 0 na 0 n;
    na
  end
  else arr

let grow_float arr n =
  let cap = Array.length arr in
  if n >= cap then begin
    let na = Array.make (max 16 (cap * 2)) 0.0 in
    Array.blit arr 0 na 0 n;
    na
  end
  else arr

let grow_lat arr n fill =
  let cap = Array.length arr in
  if n >= cap then begin
    let na = Array.make (max 16 (cap * 2)) fill in
    Array.blit arr 0 na 0 n;
    na
  end
  else arr

let type_clash fn k = invalid_arg ("Metrics." ^ fn ^ ": " ^ k ^ " registered with another type")

let counter t ~ns name =
  let k = key ~ns name in
  match Hashtbl.find_opt t.index k with
  | Some (C i) -> { ct_t = t; ct_idx = i }
  | Some _ -> type_clash "counter" k
  | None ->
      let i = t.n_counters in
      t.counters <- grow_int t.counters i;
      t.counters.(i) <- 0;
      t.n_counters <- i + 1;
      Hashtbl.replace t.index k (C i);
      { ct_t = t; ct_idx = i }

let inc c ?(by = 1) () =
  let a = c.ct_t.counters in
  a.(c.ct_idx) <- a.(c.ct_idx) + by

let set_counter c v = c.ct_t.counters.(c.ct_idx) <- v
let counter_value c = c.ct_t.counters.(c.ct_idx)

let gauge t ~ns name =
  let k = key ~ns name in
  match Hashtbl.find_opt t.index k with
  | Some (G i) -> { ga_t = t; ga_idx = i }
  | Some _ -> type_clash "gauge" k
  | None ->
      let i = t.n_gauges in
      t.gauges <- grow_float t.gauges i;
      t.gauges.(i) <- 0.0;
      t.n_gauges <- i + 1;
      Hashtbl.replace t.index k (G i);
      { ga_t = t; ga_idx = i }

let set_gauge g v = g.ga_t.gauges.(g.ga_idx) <- v
let gauge_value g = g.ga_t.gauges.(g.ga_idx)

let latency t ~ns name =
  let k = key ~ns name in
  match Hashtbl.find_opt t.index k with
  | Some (L i) -> t.lats.(i)
  | Some _ -> type_clash "latency" k
  | None ->
      let l = { l_stats = Mv_util.Stats.create (); l_buckets = Array.make n_log2_buckets 0 } in
      let i = t.n_lats in
      t.lats <- grow_lat t.lats i l;
      t.lats.(i) <- l;
      t.n_lats <- i + 1;
      Hashtbl.replace t.index k (L i);
      l

(* Log2 bucket index for a sample: slot k covers [2^(k-1), 2^k), so the
   label rendered at read time is "<2^k". *)
let bucket_index v =
  let v = int_of_float (Float.max v 0.0) in
  if v = 0 then 0
  else
    let rec log2 acc n = if n <= 1 then acc else log2 (acc + 1) (n lsr 1) in
    min (n_log2_buckets - 1) (log2 0 v + 1)

let observe l v =
  Mv_util.Stats.add l.l_stats v;
  let i = bucket_index v in
  l.l_buckets.(i) <- l.l_buckets.(i) + 1

let latency_stats l = Mv_util.Stats.summary l.l_stats
let latency_count l = Mv_util.Stats.count l.l_stats

let latency_percentile l p =
  if Mv_util.Stats.count l.l_stats = 0 then 0.
  else Mv_util.Stats.percentile_interp l.l_stats p

let latency_buckets l =
  let acc = ref [] in
  for k = n_log2_buckets - 1 downto 0 do
    if l.l_buckets.(k) > 0 then acc := (Printf.sprintf "<2^%d" k, l.l_buckets.(k)) :: !acc
  done;
  !acc

type value =
  | Counter_v of int
  | Gauge_v of float
  | Latency_v of Mv_util.Stats.summary

let value_of t = function
  | C i -> Counter_v t.counters.(i)
  | G i -> Gauge_v t.gauges.(i)
  | L i -> Latency_v (latency_stats t.lats.(i))

let to_list t =
  Hashtbl.fold (fun k s acc -> (k, value_of t s) :: acc) t.index []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let find t k = Option.map (value_of t) (Hashtbl.find_opt t.index k)

let pp ppf t =
  List.iter
    (fun (k, v) ->
      match v with
      | Counter_v n -> Format.fprintf ppf "%-40s %d@." k n
      | Gauge_v g -> Format.fprintf ppf "%-40s %.3f@." k g
      | Latency_v s -> Format.fprintf ppf "%-40s %a@." k Mv_util.Stats.pp_summary s)
    (to_list t)
