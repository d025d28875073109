(* Output checks. Each compares the engine's output with a computation
   made apart from the engine, or with a property the method must have;
   none compares with a stored copy of earlier output. Online checkers are
   fed from the benchmark's own hooks; [Selftest] feeds each one a
   corrupted result to show it is not vacuous. *)

open Util

(* Every injected packet ends exactly once, and the arena is empty. *)
let conservation ~what ~injected ~departed ~dropped ~live =
  if injected <> departed + dropped then
    fail "%s: conservation: injected %d <> departed %d + dropped %d" what injected
      departed dropped;
  if live <> 0 then fail "%s: %d packets still live in the pool" what live

(* Per-leaf FIFO: the sequence numbers one leaf's packets depart with
   strictly increase (the engine numbers a leaf's arrivals in order). *)
module Fifo_order = struct
  type t = { last : int array; mutable bad : int; mutable first_bad : int }

  let create ~flows = { last = Array.make flows (-1); bad = 0; first_bad = -1 }

  let[@inline] observe t ~flow ~seq =
    if seq <= Array.unsafe_get t.last flow then begin
      if t.bad = 0 then t.first_bad <- flow;
      t.bad <- t.bad + 1
    end;
    Array.unsafe_set t.last flow seq

  let verdict ~what t =
    if t.bad > 0 then
      fail "%s: FIFO order broken %d times (first at flow %d)" what t.bad t.first_bad
end

(* Aggregate Lindley recursion over the trace alone. A work-conserving
   link's busy periods do not depend on which packet it serves, so the
   engine must end its last packet when a FIFO queue of the same arrivals
   would, and be busy for exactly as long. *)
module Lindley = struct
  type summary = { last_end : float; busy_time : float }

  (* [times] in arrival order. *)
  let of_arrivals ~rate (times : float array) (sizes : float array) =
    let last_end = ref neg_infinity and busy = ref 0.0 in
    Array.iteri
      (fun i a ->
        let tx = sizes.(i) /. rate in
        last_end := Float.max a !last_end +. tx;
        busy := !busy +. tx)
      times;
    { last_end = !last_end; busy_time = !busy }

  (* The engine side, fed at each departure with its time and size: the
     busy time is the length of the union of the transmission intervals
     [time - size/rate, time]; an interval that overlaps the previous one
     by more than rounding is an error. *)
  type obs = {
    rate : float;
    st : float array; (* last departure; busy time *)
    mutable overlaps : int;
  }

  let create ~rate = { rate; st = [| neg_infinity; 0.0 |]; overlaps = 0 }

  let[@inline] observe o ~time ~size =
    let start = time -. (size /. o.rate) in
    let prev = Array.unsafe_get o.st 0 in
    if start < prev -. (1e-9 *. Float.abs time) then o.overlaps <- o.overlaps + 1;
    Array.unsafe_set o.st 0 time;
    Array.unsafe_set o.st 1 (Array.unsafe_get o.st 1 +. (time -. Float.max start prev))

  let close ~rel a b = Float.abs (a -. b) <= rel *. Float.max 1.0 (Float.abs b)

  let verdict ~what (ref_ : summary) o =
    if o.overlaps > 0 then fail "%s: %d transmissions overlap" what o.overlaps;
    if not (close ~rel:1e-9 o.st.(0) ref_.last_end) then
      fail "%s: last departure %.17g, Lindley gives %.17g" what o.st.(0) ref_.last_end;
    if not (close ~rel:1e-9 o.st.(1) ref_.busy_time) then
      fail "%s: busy time %.17g, Lindley gives %.17g" what o.st.(1) ref_.busy_time
end

(* Departure logs of two engines on the same input: equal flow, sequence
   and time bits at every position. *)
type depart_log = { d_flow : int array; d_seq : int array; d_time : float array }

let same_departures ~what (a : depart_log) (b : depart_log) =
  let n = Array.length a.d_flow in
  if n <> Array.length b.d_flow then
    fail "%s: %d departures vs %d from the oracle" what n (Array.length b.d_flow);
  for i = 0 to n - 1 do
    if
      a.d_flow.(i) <> b.d_flow.(i)
      || a.d_seq.(i) <> b.d_seq.(i)
      || Int64.bits_of_float a.d_time.(i) <> Int64.bits_of_float b.d_time.(i)
    then
      fail "%s: departure %d is flow %d seq %d at %.17g, oracle has flow %d seq %d at %.17g"
        what i a.d_flow.(i) a.d_seq.(i) a.d_time.(i) b.d_flow.(i) b.d_seq.(i) b.d_time.(i)
  done

(* Theorem 1 at a checkpoint [t] inside an interval where every leaf has
   been backlogged since time 0: W_i(0,t) >= (r_i/r) W(0,t) - alpha_i,
   with alpha_i composed by [Theory.hier_bwfi] from Theorem 4's per-node
   alpha. Also W(0,t) = r t within one packet (the link never idles). *)
let bwfi ~what ~rate ~l_max ~shares ~alphas ~time ~root_bits ~(leaf_bits : float array) =
  if Float.abs (root_bits -. (rate *. time)) > l_max then
    fail "%s: root served %.17g bits by %.17g s, link rate gives %.17g" what root_bits
      time (rate *. time);
  Array.iteri
    (fun i w ->
      let owed = (shares.(i) *. root_bits) -. alphas.(i) in
      if w < owed -. (1e-9 *. root_bits) then
        fail "%s: leaf %d served %.17g bits at t=%.17g, Theorem 1 owes %.17g" what i w
          time owed)
    leaf_bits

(* Nearest-rank order statistic computed from the benchmark's own array:
   the smallest sample with at least p% of the samples at or below it. *)
let order_statistic (sorted : float array) p =
  let n = Array.length sorted in
  let k = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
  sorted.(max 0 (min (n - 1) (k - 1)))

let percentiles ~what ~(own : float array) ~(reported : (float * float) list) =
  let sorted = Array.copy own in
  Array.sort Float.compare sorted;
  List.iter
    (fun (p, v) ->
      let want = order_statistic sorted p in
      if Int64.bits_of_float v <> Int64.bits_of_float want then
        fail "%s: p%g reported %.17g, own order statistic %.17g" what p v want)
    reported
