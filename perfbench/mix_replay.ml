(* mix_replay: the path `hpfq_sim replay` runs. A seed-fixed internet_mix
   trace, written once as HPFQTRC2 binary, is decoded with load_binary,
   pre-scheduled with batched Trace.replay and drained with burst_max 8
   through a two-level tree of 64 x 64 equal-share leaves whose link runs
   at 1.25x the trace's offered load. *)

open Util
module HE = Hpfq.Hier_engine
module Trace = Traffic.Trace

let fanouts = [| 64; 64 |]
let duration = 1.0
let mean_pkts_per_leaf = 128.0
let headroom = 1.25
let burst_max = 8

(* Trace events of this prefix length are replayed on both engines. *)
let oracle_stretch = 20_000

let spec_leaves () =
  List.map fst
    (Hpfq.Class_tree.leaves (tree ~fanouts ~rate:1.0 ~weights:equal_weights))

let generate ~seed ~path =
  let events =
    Trace.internet_mix ~seed:(Int64.of_int seed) ~leaves:(spec_leaves ()) ~duration
      ~mean_pkts_per_leaf ()
  in
  let tmp = path ^ ".tmp" in
  Trace.save_binary ~path:tmp events;
  Sys.rename tmp path

(* The trace of [seed] under [dir], generated on first use by a child
   process ([hpfqbench gen]), so that generation, which users do not pay
   on each run, stays out of this process's time and heap. *)
let trace_file ~dir ~seed =
  let name =
    Printf.sprintf "mix-%dx%d-%g-seed%d.bin" fanouts.(0) fanouts.(1) mean_pkts_per_leaf seed
  in
  let path = Filename.concat dir name in
  if not (Sys.file_exists path) then begin
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let pid =
      Unix.create_process Sys.executable_name
        [| Sys.executable_name; "gen"; "--seed"; string_of_int seed; "--out"; path |]
        Unix.stdin Unix.stdout Unix.stderr
    in
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _ -> failwith "hpfqbench gen failed"
  end;
  path

let link_rate events =
  headroom *. List.fold_left (fun a e -> a +. e.Trace.size_bits) 0.0 events /. duration

type ctx = { path : string; lindley : Checks.Lindley.summary; packets : int }

(* [emit_for] for Trace.replay: one emit closure per leaf of [hier]. *)
let emits hier ~on_inject =
  let tbl = Hashtbl.create 8192 in
  List.iter
    (fun (name, id) -> Hashtbl.replace tbl name (Some (on_inject id)))
    (HE.leaf_ids hier);
  fun ~leaf -> Option.join (Hashtbl.find_opt tbl leaf)

(* Departure log of one engine on the first [oracle_stretch] events. *)
let stretch_log ~engine events =
  let events = List.filteri (fun i _ -> i < oracle_stretch) events in
  let sim = Engine.Simulator.create () in
  let spec = tree ~fanouts ~rate:(link_rate events) ~weights:equal_weights in
  let hier = HE.create ~sim ~spec ~factory:Hpfq.Disciplines.wf2q_plus ~engine ~burst_max () in
  let pool = HE.pool hier in
  let flows = ref [] and seqs = ref [] and times = ref [] in
  HE.add_depart_handle_hook hier (fun h ~leaf:_ time ->
      flows := Net.Packet_pool.flow pool h :: !flows;
      seqs := Net.Packet_pool.seq pool h :: !seqs;
      times := time :: !times);
  let emit_for =
    emits hier ~on_inject:(fun id ~size_bits -> ignore (HE.inject hier ~leaf:id ~size_bits))
  in
  ignore (Trace.replay ~batched:true ~sim ~emit_for events);
  Engine.Simulator.run sim;
  let arr l = Array.of_list (List.rev l) in
  { Checks.d_flow = arr !flows; d_seq = arr !seqs; d_time = arr !times }

(* Once per run, outside the timed phase: the Lindley reference from the
   trace alone, and the flat engine against the generic oracle. *)
let prepare ~path =
  let events = Trace.load_binary ~path in
  let rate = link_rate events in
  let times = Array.of_list (List.map (fun e -> e.Trace.time) events) in
  let sizes = Array.of_list (List.map (fun e -> e.Trace.size_bits) events) in
  let lindley = Checks.Lindley.of_arrivals ~rate times sizes in
  Checks.same_departures ~what:"mix_replay oracle stretch"
    (stretch_log ~engine:`Flat events)
    (stretch_log ~engine:`Generic events);
  { path; lindley; packets = Array.length times }

let round ctx ~traced =
  let c_inject = ref 0 and t_inject = ref 0 and t_hook = ref 0 in
  let t0 = now_ns () in
  let events = Trace.load_binary ~path:ctx.path in
  let t_decoded = now_ns () in
  let rate = link_rate events in
  let spec = tree ~fanouts ~rate ~weights:equal_weights in
  let sim = Engine.Simulator.create () in
  let t_c = now_ns () in
  let hier = HE.create ~sim ~spec ~factory:Hpfq.Disciplines.wf2q_plus ~burst_max () in
  let create_ns = now_ns () - t_c in
  let pool = HE.pool hier in
  let fifo = Checks.Fifo_order.create ~flows:(HE.node_count hier) in
  let lind = Checks.Lindley.create ~rate in
  let departed = ref 0 and hash = ref 0 in
  let depart h time =
    let flow = Net.Packet_pool.flow pool h and seq = Net.Packet_pool.seq pool h in
    incr departed;
    hash := Wl.fold_hash !hash ~flow ~seq ~time;
    Checks.Fifo_order.observe fifo ~flow ~seq;
    Checks.Lindley.observe lind ~time ~size:(Net.Packet_pool.size_bits pool h)
  in
  if traced then
    HE.add_depart_handle_hook hier (fun h ~leaf:_ time ->
        let s = now_ns () in
        depart h time;
        t_hook := !t_hook + (now_ns () - s))
  else HE.add_depart_handle_hook hier (fun h ~leaf:_ time -> depart h time);
  let on_inject id =
    if traced then fun ~size_bits ->
      let s = now_ns () in
      ignore (HE.inject hier ~leaf:id ~size_bits);
      t_inject := !t_inject + (now_ns () - s);
      incr c_inject
    else fun ~size_bits -> ignore (HE.inject hier ~leaf:id ~size_bits)
  in
  let t_s = now_ns () in
  let scheduled = Trace.replay ~batched:true ~sim ~emit_for:(emits hier ~on_inject) events in
  let t_end = now_ns () in
  let pending0 = Engine.Simulator.pending sim in
  let setup_s = float_of_int (t_end - t0) *. 1e-9 in
  let run = Wl.timed (fun () -> Engine.Simulator.run sim) in
  let what = "mix_replay" in
  Checks.conservation ~what ~injected:scheduled ~departed:!departed ~dropped:(HE.drops hier)
    ~live:(Net.Packet_pool.live_count pool);
  if scheduled <> ctx.packets then fail "%s: %d arrivals of %d" what scheduled ctx.packets;
  Checks.Fifo_order.verdict ~what fifo;
  Checks.Lindley.verdict ~what ctx.lindley lind;
  let layers =
    if not traced then []
    else begin
      let per_pkt ns = float_of_int ns /. float_of_int !departed in
      let evs = Engine.Simulator.events_processed sim in
      [
        ("traffic.decode_s", float_of_int (t_decoded - t0) *. 1e-9);
        ("traffic.schedule_s", float_of_int (t_end - t_s) *. 1e-9);
        ("core.create_s", float_of_int create_ns *. 1e-9);
        ("core.inject_ns", float_of_int !t_inject /. float_of_int !c_inject);
        ( "engine.step_self_ns_per_pkt",
          per_pkt (run.Wl.run_ns - !t_inject - !t_hook) );
        ("engine.events_per_pkt", float_of_int evs /. float_of_int !departed);
        ("engine.pending_peak", float_of_int pending0);
        ("engine.resizes", float_of_int (Engine.Simulator.stats sim).resizes);
        ("net.pool_capacity", float_of_int (Net.Packet_pool.capacity pool));
      ]
    end
  in
  {
    Wl.setup_s;
    run;
    departed = !departed;
    attempted = scheduled;
    failed = 0;
    hash = !hash;
    layers;
    note = "";
  }

(* Event-set cost alone: the same arrival groups through a simulator whose
   callbacks do nothing; ns per fired event. *)
let bare_event_ns ctx =
  let events = Trace.load_binary ~path:ctx.path in
  let sim = Engine.Simulator.create () in
  let nop ~size_bits:_ = () in
  ignore (Trace.replay ~batched:true ~sim ~emit_for:(fun ~leaf:_ -> Some nop) events);
  let t0 = now_ns () in
  Engine.Simulator.run sim;
  float_of_int (now_ns () - t0) /. float_of_int (Engine.Simulator.events_processed sim)
