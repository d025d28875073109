(* flow_churn: an open loop of short flows below link rate on a depth-3
   tree (root, 16 groups, 32 leaf slots each). Flows arrive as a Poisson
   process scheduled at run time, each arrival scheduling the next, for
   an offered load of [load] x the link. A flow takes a free leaf slot
   with [reopen_leaf] on its first packet (or waits for one), sends its
   packets at its access rate, and [close_leaf `Drain]s the slot after
   its last. A fixed share of flows is aborted with [`Drop] halfway,
   while backlogged. Each completed flow's completion time, from its
   arrival to its last departure, goes into [Stats.Delay_stats].

   The flow sizes (packets per flow) and the abort set are one fixed
   multiset: the seed shuffles their order and draws arrival times and
   packet sizes, so every round attempts the same number of packets
   whatever the seed. Each round also runs one [Fault] piece per engine. *)

open Util
module HE = Hpfq.Hier_engine

let fanouts = [| 16; 32 |]
let link_rate = 1e8
let access_rate = 1e7
let load = 0.8
let flows = 60_000
let packet_sizes = [| 2400.0; 8000.0; 12000.0 |]

(* Bounded Pareto (alpha 1.2, 1..200 packets) at evenly spaced quantiles. *)
let flow_packets k =
  let alpha = 1.2 and lo = 1.0 and hi = 200.0 in
  let q = (float_of_int k +. 0.5) /. float_of_int flows in
  let x = lo /. ((1.0 -. (q *. (1.0 -. ((lo /. hi) ** alpha)))) ** (1.0 /. alpha)) in
  int_of_float (Float.ceil (x -. 1e-9))

(* Every tenth flow of four packets or more is aborted after half. *)
let abort_after k size = if k mod 10 = 7 && size >= 4 then size / 2 else 0

type ctx = {
  spec : Hpfq.Class_tree.t;
  size : int array; (* packets, in arrival order *)
  abort : int array; (* packets sent before the abort; 0 = none *)
  bits : float array; (* packet size of each flow *)
  due : float array; (* arrival time of each flow *)
  attempted : int; (* packets injected per round *)
}

let prepare ~seed =
  let order = Array.init flows (fun k -> k) in
  shuffle (rng ~seed ~tag:1) order;
  let size = Array.map flow_packets order in
  let abort = Array.map (fun k -> abort_after k (flow_packets k)) order in
  let brng = rng ~seed ~tag:2 in
  let bits =
    Array.init flows (fun _ -> packet_sizes.(Engine.Rng.int brng (Array.length packet_sizes)))
  in
  let sent k = if abort.(k) > 0 then abort.(k) else size.(k) in
  let offered = ref 0.0 and attempted = ref 0 in
  for k = 0 to flows - 1 do
    offered := !offered +. (float_of_int (sent k) *. bits.(k));
    attempted := !attempted + sent k
  done;
  let mean_gap = !offered /. (load *. link_rate) /. float_of_int flows in
  let arng = rng ~seed ~tag:3 in
  let t = ref 0.0 in
  let due =
    Array.init flows (fun _ ->
        t := !t +. Engine.Rng.exponential arng ~mean:mean_gap;
        !t)
  in
  let spec = tree ~fanouts ~rate:link_rate ~weights:equal_weights in
  { spec; size; abort; bits; due; attempted = !attempted }

(* A fixed-size ring of ints, for the free-slot list and the wait queue. *)
module Ring = struct
  type t = { a : int array; mutable head : int; mutable len : int }

  let create n = { a = Array.make n 0; head = 0; len = 0 }

  let push r x =
    r.a.((r.head + r.len) mod Array.length r.a) <- x;
    r.len <- r.len + 1

  let pop r =
    let x = r.a.(r.head) in
    r.head <- (r.head + 1) mod Array.length r.a;
    r.len <- r.len - 1;
    x
end

type timers = {
  mutable cb_ns : int; (* the benchmark's own callbacks and hooks *)
  mutable inject_ns : int;
  mutable injects : int;
  mutable close_ns : int;
  mutable closes : int;
  mutable reopen_ns : int;
  mutable reopens : int;
  mutable record_ns : int;
  mutable records : int;
}

let round ?(on_sim = ignore) ctx ~traced =
  let tm =
    {
      cb_ns = 0; inject_ns = 0; injects = 0; close_ns = 0; closes = 0;
      reopen_ns = 0; reopens = 0; record_ns = 0; records = 0;
    }
  in
  (* a traced round times each callback of the benchmark's own as a span;
     an untraced one schedules [f] itself *)
  let callback f =
    if traced then fun () ->
      let s = now_ns () in
      f ();
      tm.cb_ns <- tm.cb_ns + (now_ns () - s)
    else f
  in
  let t0 = now_ns () in
  let sim = Engine.Simulator.create () in
  on_sim sim;
  let hier = HE.create ~sim ~spec:ctx.spec ~factory:Hpfq.Disciplines.wf2q_plus () in
  let create_ns = now_ns () - t0 in
  let pool = HE.pool hier in
  let ids = Array.of_list (List.map snd (HE.leaf_ids hier)) in
  let n = Array.length ids in
  let leaf_of = Array.make (HE.node_count hier) (-1) in
  Array.iteri (fun i id -> leaf_of.((id : Hpfq.Hier.leaf :> int)) <- i) ids;
  (* the benchmark's flow table *)
  let leaf_flow = Array.make n (-1) in
  let outstanding = Array.make n 0 in
  let closed = Array.make n false in
  let free = Ring.create n and waiting = Ring.create flows in
  let stats = Stats.Delay_stats.create () in
  let fct = Array.make flows 0.0 and completed = ref 0 and aborted = ref 0 in
  let injected = ref 0 and departed = ref 0 and dropped = ref 0 in
  let aborting = Array.make n false and bad_drops = ref 0 in
  let state_errors = ref 0 and first_state_error = ref "" in
  let fifo = Checks.Fifo_order.create ~flows:(HE.node_count hier) in
  let hash = ref 0 in
  let expect i want =
    let got = HE.leaf_state hier ~leaf:ids.(i) in
    if got <> want then begin
      if !state_errors = 0 then
        first_state_error :=
          Printf.sprintf "leaf %d at %.17g: flow table says %s, engine %s" i
            (Engine.Simulator.now sim)
            (match want with `Open -> "open" | `Closing -> "closing" | `Closed -> "closed")
            (match got with `Open -> "open" | `Closing -> "closing" | `Closed -> "closed");
      incr state_errors
    end
  in
  let inject i bits =
    incr injected;
    outstanding.(i) <- outstanding.(i) + 1;
    if traced then begin
      let s = now_ns () in
      ignore (HE.inject hier ~leaf:ids.(i) ~size_bits:bits);
      tm.inject_ns <- tm.inject_ns + (now_ns () - s);
      tm.injects <- tm.injects + 1
    end
    else ignore (HE.inject hier ~leaf:ids.(i) ~size_bits:bits)
  in
  let close i policy =
    closed.(i) <- true;
    if traced then begin
      let s = now_ns () in
      HE.close_leaf hier ~leaf:ids.(i) ~policy;
      tm.close_ns <- tm.close_ns + (now_ns () - s);
      tm.closes <- tm.closes + 1
    end
    else HE.close_leaf hier ~leaf:ids.(i) ~policy
  in
  let reopen i =
    if traced then begin
      let s = now_ns () in
      HE.reopen_leaf hier ~leaf:ids.(i);
      tm.reopen_ns <- tm.reopen_ns + (now_ns () - s);
      tm.reopens <- tm.reopens + 1
    end
    else HE.reopen_leaf hier ~leaf:ids.(i)
  in
  let record ~time ~delay =
    if traced then begin
      let s = now_ns () in
      Stats.Delay_stats.record stats ~time ~delay;
      tm.record_ns <- tm.record_ns + (now_ns () - s);
      tm.records <- tm.records + 1
    end
    else Stats.Delay_stats.record stats ~time ~delay
  in
  (* a closed slot with no packet left goes back on the free list; a
     waiting flow takes it from a zero-delay event, after the engine has
     finished the departure or drop that freed it *)
  let rec release i =
    if closed.(i) && outstanding.(i) = 0 && leaf_flow.(i) >= 0 then begin
      leaf_flow.(i) <- -1;
      closed.(i) <- false;
      aborting.(i) <- false;
      Ring.push free i;
      if waiting.len > 0 then
        ignore (Engine.Simulator.schedule_after sim ~delay:0.0 (callback start_waiting))
    end
  and start_waiting () =
    if waiting.len > 0 && free.len > 0 then start (Ring.pop waiting) (Ring.pop free)
  and start k i =
    expect i `Closed;
    leaf_flow.(i) <- k;
    reopen i;
    expect i `Open;
    packet k i 1
  and packet k i j =
    inject i ctx.bits.(k);
    if j = ctx.abort.(k) then begin
      (* queued packets are dropped now, or at the departure of the one
         on the wire *)
      incr aborted;
      aborting.(i) <- true;
      close i `Drop;
      if outstanding.(i) = 0 then begin
        expect i `Closed;
        release i
      end
      else expect i `Closing
    end
    else if j = ctx.size.(k) then begin
      close i `Drain;
      if outstanding.(i) = 0 then begin
        expect i `Closed;
        release i
      end
      else expect i `Closing
    end
    else
      ignore
        (Engine.Simulator.schedule_after sim ~delay:(ctx.bits.(k) /. access_rate)
           (callback (fun () -> packet k i (j + 1))))
  in
  let rec arrival k =
    if k + 1 < flows then
      ignore
        (Engine.Simulator.schedule sim ~at:ctx.due.(k + 1) (callback (fun () -> arrival (k + 1))));
    if free.len > 0 then start k (Ring.pop free) else Ring.push waiting k
  in
  let depart h time =
    let flow = Net.Packet_pool.flow pool h and seq = Net.Packet_pool.seq pool h in
    let i = Array.unsafe_get leaf_of flow in
    incr departed;
    hash := Wl.fold_hash !hash ~flow ~seq ~time;
    Checks.Fifo_order.observe fifo ~flow ~seq;
    outstanding.(i) <- outstanding.(i) - 1;
    if outstanding.(i) = 0 && closed.(i) && not aborting.(i) then begin
      let delay = time -. ctx.due.(leaf_flow.(i)) in
      fct.(!completed) <- delay;
      incr completed;
      record ~time ~delay
    end;
    release i
  in
  if traced then
    HE.add_depart_handle_hook hier (fun h ~leaf:_ time ->
        let s = now_ns () in
        depart h time;
        tm.cb_ns <- tm.cb_ns + (now_ns () - s))
  else HE.add_depart_handle_hook hier (fun h ~leaf:_ time -> depart h time);
  HE.add_drop_handle_hook hier (fun h ~leaf:_ _ ->
      let i = leaf_of.(Net.Packet_pool.flow pool h) in
      if not aborting.(i) then incr bad_drops;
      incr dropped;
      outstanding.(i) <- outstanding.(i) - 1;
      release i);
  (* every slot starts free: close them all while idle *)
  for i = 0 to n - 1 do
    HE.close_leaf hier ~leaf:ids.(i) ~policy:`Drain;
    Ring.push free i
  done;
  ignore (Engine.Simulator.schedule sim ~at:ctx.due.(0) (callback (fun () -> arrival 0)));
  let setup_s = seconds_since t0 in
  let run = Wl.timed (fun () -> Engine.Simulator.run sim) in
  let what = "flow_churn" in
  Checks.conservation ~what ~injected:!injected ~departed:!departed ~dropped:!dropped
    ~live:(Net.Packet_pool.live_count pool);
  if !injected <> ctx.attempted then fail "%s: injected %d of %d" what !injected ctx.attempted;
  if !completed + !aborted <> flows then
    fail "%s: %d flows completed and %d aborted of %d" what !completed !aborted flows;
  if !bad_drops > 0 then fail "%s: %d drops outside a `Drop abort" what !bad_drops;
  if HE.drops hier <> !dropped then
    fail "%s: engine counts %d drops, the aborts %d" what (HE.drops hier) !dropped;
  for i = 0 to n - 1 do
    expect i `Closed
  done;
  if free.len <> n then fail "%s: %d of %d slots free at the end" what free.len n;
  if !state_errors > 0 then
    fail "%s: %d leaf-state mismatches, first: %s" what !state_errors !first_state_error;
  Checks.Fifo_order.verdict ~what fifo;
  if Stats.Delay_stats.count stats <> !completed then
    fail "%s: Delay_stats holds %d samples of %d" what (Stats.Delay_stats.count stats) !completed;
  let t_rep = now_ns () in
  let p50 = Stats.Delay_stats.percentile stats 50.0 in
  let p99 = Stats.Delay_stats.percentile stats 99.0 in
  ignore (Stats.Report.to_string (Stats.Delay_stats.summary_report stats));
  let report_ns = now_ns () - t_rep in
  Checks.percentiles ~what ~own:(Array.sub fct 0 !completed) ~reported:[ (50.0, p50); (99.0, p99) ];
  (* the hook-abort pieces, apart from the timed phase *)
  let pieces = List.map (fun engine -> Fault.piece ~engine) Fault.engines in
  List.iter Fault.check pieces;
  let per n d = if d = 0 then 0.0 else float_of_int n /. float_of_int d in
  let layers =
    if not traced then []
    else
      [
        ("core.create_s", float_of_int create_ns *. 1e-9);
        ("core.inject_ns", per tm.inject_ns tm.injects);
        ("core.close_ns", per tm.close_ns tm.closes);
        ("core.reopen_ns", per tm.reopen_ns tm.reopens);
        ("engine.step_self_ns_per_pkt", per (run.Wl.run_ns - tm.cb_ns) !departed);
        ("engine.events_per_pkt", per (Engine.Simulator.events_processed sim) !departed);
        ("engine.resizes", float_of_int (Engine.Simulator.stats sim).resizes);
        ("net.pool_capacity", float_of_int (Net.Packet_pool.capacity pool));
        ("stats.record_ns", per tm.record_ns tm.records);
        ("stats.report_s", float_of_int report_ns *. 1e-9);
      ]
  in
  {
    Wl.setup_s;
    run;
    departed = !departed;
    attempted = !injected + List.fold_left (fun a o -> a + o.Fault.attempted) 0 pieces;
    failed = List.fold_left (fun a o -> a + o.Fault.failed) 0 pieces;
    hash = !hash;
    layers;
    note =
      Printf.sprintf "%d flows completed, %d aborted; completion time p50 %.6g s, p99 %.6g s"
        !completed !aborted p50 p99;
  }
