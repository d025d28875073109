(* Self-test of the output checks: each check must accept an honest result
   and reject the same result deliberately corrupted — two swapped
   departures, a lost packet, a leaf short-changed beyond its bound, a
   perturbed percentile — so that none of them is vacuous. Runs before
   every benchmark run and as `hpfqbench selftest`. *)

open Util
module HE = Hpfq.Hier_engine

(* A small honest result: an internet mix of about 2000 packets over 16
   leaves, replayed on the flat engine, with its departure log. *)
let small_run () =
  let spec = tree ~fanouts:[| 4; 4 |] ~rate:1.0 ~weights:equal_weights in
  let leaves = List.map fst (Hpfq.Class_tree.leaves spec) in
  let events =
    Traffic.Trace.internet_mix ~seed:7L ~leaves ~duration:1.0 ~mean_pkts_per_leaf:125.0 ()
  in
  let bits = List.fold_left (fun a e -> a +. e.Traffic.Trace.size_bits) 0.0 events in
  let rate = 1.25 *. bits in
  let spec = tree ~fanouts:[| 4; 4 |] ~rate ~weights:equal_weights in
  let sim = Engine.Simulator.create () in
  let hier = HE.create ~sim ~spec ~factory:Hpfq.Disciplines.wf2q_plus () in
  let pool = HE.pool hier in
  let log = ref [] in
  HE.add_depart_handle_hook hier (fun h ~leaf:_ time ->
      log :=
        (Net.Packet_pool.flow pool h, Net.Packet_pool.seq pool h, time, Net.Packet_pool.size_bits pool h)
        :: !log);
  let ids = HE.leaf_ids hier in
  let emit_for ~leaf =
    Some (fun ~size_bits -> ignore (HE.inject hier ~leaf:(List.assoc leaf ids) ~size_bits))
  in
  let injected = Traffic.Trace.replay ~sim ~emit_for events in
  Engine.Simulator.run sim;
  let times = Array.of_list (List.map (fun e -> e.Traffic.Trace.time) events) in
  let sizes = Array.of_list (List.map (fun e -> e.Traffic.Trace.size_bits) events) in
  ( Array.of_list (List.rev !log),
    injected,
    rate,
    Checks.Lindley.of_arrivals ~rate times sizes,
    HE.node_count hier )

let fifo_check ~flows log =
  let fifo = Checks.Fifo_order.create ~flows in
  Array.iter (fun (flow, seq, _, _) -> Checks.Fifo_order.observe fifo ~flow ~seq) log;
  Checks.Fifo_order.verdict ~what:"selftest" fifo

let lindley_check ~rate ~lindley log =
  let lind = Checks.Lindley.create ~rate in
  Array.iter (fun (_, _, time, size) -> Checks.Lindley.observe lind ~time ~size) log;
  Checks.Lindley.verdict ~what:"selftest" lindley lind

let conservation_check ~injected log =
  Checks.conservation ~what:"selftest" ~injected ~departed:(Array.length log) ~dropped:0 ~live:0

let depart_log log =
  {
    Checks.d_flow = Array.map (fun (f, _, _, _) -> f) log;
    d_seq = Array.map (fun (_, s, _, _) -> s) log;
    d_time = Array.map (fun (_, _, t, _) -> t) log;
  }

let cases () =
  let log, injected, rate, lindley, flows = small_run () in
  (* two departures of one leaf, swapped in place *)
  let swapped =
    let l = Array.copy log in
    let f0, _, _, _ = l.(0) in
    let j = ref 1 in
    while (let f, _, _, _ = l.(!j) in f <> f0) do incr j done;
    (* exchange which packet departed at each of the two times *)
    let fa, sa, ta, za = l.(0) and fb, sb, tb, zb = l.(!j) in
    l.(0) <- (fb, sb, ta, za);
    l.(!j) <- (fa, sa, tb, zb);
    l
  in
  let lost = Array.append (Array.sub log 0 100) (Array.sub log 101 (Array.length log - 101)) in
  (* Theorem 1 on a two-leaf root at 1 bit/s: 3:1 shares, alpha 1000 bits *)
  let bwfi leaf0 =
    Checks.bwfi ~what:"selftest" ~rate:1.0 ~l_max:1000.0 ~shares:[| 0.75; 0.25 |]
      ~alphas:[| 1000.0; 1000.0 |] ~time:1e5 ~root_bits:1e5
      ~leaf_bits:[| leaf0; 1e5 -. leaf0 |]
  in
  let stats = Stats.Delay_stats.create () in
  let r = rng ~seed:7 ~tag:0 in
  let own = Array.init 999 (fun i -> Engine.Rng.exponential r ~mean:1.0 +. float_of_int (i mod 3)) in
  Array.iteri (fun i d -> Stats.Delay_stats.record stats ~time:(float_of_int i) ~delay:d) own;
  let p99 = Stats.Delay_stats.percentile stats 99.0 in
  let pct v = Checks.percentiles ~what:"selftest" ~own ~reported:[ (99.0, v) ] in
  [
    ("FIFO order", (fun () -> fifo_check ~flows log), fun () -> fifo_check ~flows swapped);
    ( "oracle comparison",
      (fun () -> Checks.same_departures ~what:"selftest" (depart_log log) (depart_log log)),
      fun () -> Checks.same_departures ~what:"selftest" (depart_log swapped) (depart_log log) );
    ( "conservation",
      (fun () -> conservation_check ~injected log),
      fun () -> conservation_check ~injected lost );
    ( "Lindley recursion",
      (fun () -> lindley_check ~rate ~lindley log),
      fun () -> lindley_check ~rate ~lindley lost );
    ("Theorem 1 bound", (fun () -> bwfi 74_000.0), fun () -> bwfi 73_998.0);
    ("percentile", (fun () -> pct p99), fun () -> pct (Float.succ p99));
  ]

(* Raises [Check_failed] naming the first check that fails its honest
   result or accepts its corrupted one. *)
let run ~verbose =
  List.iter
    (fun (name, honest, corrupted) ->
      (try honest () with Check_failed m -> fail "selftest: %s rejects the honest result: %s" name m);
      match corrupted () with
      | () -> fail "selftest: %s accepts its corrupted result" name
      | exception Check_failed m -> if verbose then Printf.printf "%-22s rejects: %s\n" name m)
    (cases ())
