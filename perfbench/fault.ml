(* The hook-abort fault, kept as failed operations.

   [Hier.close_leaf] promises that "a head packet already committed to the
   wire always finishes". Called with [`Drop] from a departure hook for
   the departing packet's own leaf, while that leaf still has packets
   queued, both engines break it: [complete_transmission] clears
   [link_busy] before it calls the hook, so the close takes the departing
   packet for a queued one and drops it too (it is reported departed and
   dropped), and RESET-PATH then raises — [Queue.Empty] from
   [Fifo.drop_head] on [Hier_flat], "Packet_pool: stale handle" on [Hier].

   A piece is one small link on its own simulator, with an input that does
   not depend on the seed: leaves a and b each get [per_leaf] packets at
   time 0, and the hook closes a with [`Drop] at a's first departure. Done
   right, a's first packet departs, its other packets are dropped and b's
   all depart. Every packet that ends neither way is failed. *)

module HE = Hpfq.Hier_engine

let per_leaf = 4
let packet_bits = 8000.0

type outcome = {
  attempted : int;
  departed : int;  (** departures reported *)
  dropped : int;  (** drops reported, the double-reported one included *)
  double : int;  (** packets reported both departed and dropped *)
  failed : int;  (** packets that neither departed nor were dropped *)
  raised : string option;
}

let spec =
  Hpfq.Class_tree.node "r" ~rate:1e6
    [
      Hpfq.Class_tree.node "g" ~rate:1e6
        [ Hpfq.Class_tree.leaf "a" ~rate:5e5; Hpfq.Class_tree.leaf "b" ~rate:5e5 ];
    ]

let piece ~(engine : [ `Flat | `Generic ]) =
  let sim = Engine.Simulator.create () in
  let hier = HE.create ~sim ~spec ~factory:Hpfq.Disciplines.wf2q_plus
      ~engine:(engine :> HE.choice) () in
  let a = HE.leaf_id hier "a" and b = HE.leaf_id hier "b" in
  let departed = Hashtbl.create 16 and dropped = Hashtbl.create 16 in
  let aborted = ref false in
  HE.add_depart_handle_hook hier (fun h ~leaf time ->
      Hashtbl.replace departed h time;
      if leaf = "a" && not !aborted then begin
        aborted := true;
        HE.close_leaf hier ~leaf:a ~policy:`Drop
      end);
  HE.add_drop_handle_hook hier (fun h ~leaf:_ time -> Hashtbl.replace dropped h time);
  for _ = 1 to per_leaf do
    ignore (HE.inject hier ~leaf:a ~size_bits:packet_bits);
    ignore (HE.inject hier ~leaf:b ~size_bits:packet_bits)
  done;
  let raised =
    match Engine.Simulator.run sim with
    | () -> None
    | exception e -> Some (Printexc.to_string e)
  in
  let attempted = 2 * per_leaf in
  let double = Hashtbl.fold (fun h _ n -> if Hashtbl.mem dropped h then n + 1 else n) departed 0 in
  let ended = Hashtbl.length departed + Hashtbl.length dropped - double in
  {
    attempted;
    departed = Hashtbl.length departed;
    dropped = Hashtbl.length dropped;
    double;
    failed = attempted - ended;
    raised;
  }

let engines : [ `Flat | `Generic ] list = [ `Flat; `Generic ]

let engine_name = function `Flat -> "flat" | `Generic -> "generic"

let describe ~engine o =
  Printf.sprintf
    "%s: %d packets, %d departed, %d dropped, %d reported both, %d stranded; %s"
    (engine_name engine) o.attempted o.departed o.dropped o.double o.failed
    (match o.raised with None -> "no raise" | Some e -> "raised " ^ e)

(* A piece either shows the kept fault (a raise; its stranded packets are
   the failed ones) or behaves as documented. *)
let check o =
  match o.raised with
  | Some _ -> ()
  | None ->
    if o.departed <> per_leaf + 1 || o.dropped <> per_leaf - 1 || o.double <> 0 then
      Util.fail "hook abort without a raise: %d departed, %d dropped, %d both" o.departed
        o.dropped o.double
