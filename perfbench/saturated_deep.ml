(* saturated_deep: a closed loop on a deep tree. 1024 leaves sit five
   levels below the root (fan-out 4 at every level) with seed-drawn
   unequal shares; each leaf has its own mix of packet sizes. Every leaf is
   primed with two packets at time 0 and re-injects one from the departure
   handle hook, so every leaf stays backlogged and one departure event is
   ever pending, until the round's packet budget is spent and the tree
   drains. *)

open Util
module HE = Hpfq.Hier_engine
module CT = Hpfq.Class_tree

let fanouts = [| 4; 4; 4; 4; 4 |]
let link_rate = 1e9
let packets = 400_000
let checkpoints = 16

(* Per-leaf size tables: [sizes_per_leaf] sizes drawn uniformly in
   [320, cap] bits (whole bytes), with the cap one of three per leaf. *)
let sizes_per_leaf = 64
let caps = [| 1600.0; 4000.0; 12000.0 |]

type ctx = {
  spec : CT.t;
  sizes : float array array; (* by leaf index *)
  shares : float array; (* r_i / r *)
  alphas : float array; (* Theorem 1 B-WFI per leaf *)
  l_max : float;
}

let prepare ~seed =
  let wrng = rng ~seed ~tag:1 in
  let weights ~depth:_ ~fanout = Array.init fanout (fun _ -> 1.0 +. Engine.Rng.float wrng 3.0) in
  let spec = tree ~fanouts ~rate:link_rate ~weights in
  let leaves = Array.of_list (CT.leaves spec) in
  let srng = rng ~seed ~tag:2 in
  let sizes =
    Array.map
      (fun _ ->
        let cap = caps.(Engine.Rng.int srng (Array.length caps)) in
        let bytes_lo = 40 and bytes_hi = int_of_float (cap /. 8.0) in
        Array.init sizes_per_leaf (fun i ->
            (* the table's first entry is the cap, so the leaf's L_i,max is
               the cap itself *)
            if i = 0 then cap
            else 8.0 *. float_of_int (bytes_lo + Engine.Rng.int srng (bytes_hi - bytes_lo + 1))))
      leaves
  in
  (* L_max of each logical queue: the largest packet of the node's
     subtree; Theorem 4's alpha at a node uses its own and its parent's *)
  let leaf_max = Hashtbl.create 2048 and node_max = Hashtbl.create 4096 in
  Array.iteri (fun i (name, _) -> Hashtbl.replace leaf_max name sizes.(i).(0)) leaves;
  let rec index t =
    let m =
      if CT.is_leaf t then Hashtbl.find leaf_max (CT.name t)
      else List.fold_left (fun a c -> Float.max a (index c)) 0.0 (CT.children t)
    in
    Hashtbl.replace node_max (CT.name t) m;
    m
  in
  ignore (index spec);
  let parent_max node =
    match CT.find_path spec node with
    | Some path -> Hashtbl.find node_max (CT.name (List.nth path (List.length path - 2)))
    | None -> invalid_arg node
  in
  let alpha_of ~node ~rate ~parent_rate =
    Hpfq.Theory.bwfi_wf2q ~l_i_max:(Hashtbl.find node_max node) ~l_max:(parent_max node)
      ~r_i:rate ~r:parent_rate
  in
  let alphas =
    Array.map
      (fun (name, _) ->
        match Hpfq.Theory.hier_bwfi ~tree:spec ~leaf:name ~alpha_of with
        | Ok a -> a
        | Error e -> failwith e)
      leaves
  in
  let shares = Array.map (fun (_, r) -> r /. link_rate) leaves in
  { spec; sizes; shares; alphas; l_max = Hashtbl.find node_max (CT.name spec) }

let round ?(on_sim = ignore) ctx ~traced =
  let t_inject = ref 0 and c_inject = ref 0 and t_hook = ref 0 in
  let t0 = now_ns () in
  let sim = Engine.Simulator.create () in
  on_sim sim;
  let hier = HE.create ~sim ~spec:ctx.spec ~factory:Hpfq.Disciplines.wf2q_plus () in
  let create_ns = now_ns () - t0 in
  let pool = HE.pool hier in
  let ids = Array.of_list (List.map snd (HE.leaf_ids hier)) in
  let n = Array.length ids in
  (* node id -> leaf index, for the hook *)
  let leaf_of = Array.make (HE.node_count hier) (-1) in
  Array.iteri (fun i id -> leaf_of.((id : Hpfq.Hier.leaf :> int)) <- i) ids;
  let next = Array.make n 0 in
  let leaf_bits = Array.make n 0.0 in
  let root_bits = [| 0.0 |] in
  let cp_every = packets / (checkpoints + 1) in
  let cp_leaf = Array.make_matrix checkpoints n 0.0 in
  let cp_time = Array.make checkpoints 0.0 and cp_root = Array.make checkpoints 0.0 in
  let cps = ref 0 in
  let injected = ref 0 and departed = ref 0 and hash = ref 0 in
  let fifo = Checks.Fifo_order.create ~flows:(HE.node_count hier) in
  let size_of i =
    let k = next.(i) in
    next.(i) <- k + 1;
    Array.unsafe_get ctx.sizes.(i) (k land (sizes_per_leaf - 1))
  in
  let inject i =
    incr injected;
    let size_bits = size_of i in
    if traced then begin
      let s = now_ns () in
      ignore (HE.inject hier ~leaf:ids.(i) ~size_bits);
      t_inject := !t_inject + (now_ns () - s);
      incr c_inject
    end
    else ignore (HE.inject hier ~leaf:ids.(i) ~size_bits)
  in
  let depart h time =
    let flow = Net.Packet_pool.flow pool h and seq = Net.Packet_pool.seq pool h in
    let i = Array.unsafe_get leaf_of flow in
    let bits = Net.Packet_pool.size_bits pool h in
    incr departed;
    hash := Wl.fold_hash !hash ~flow ~seq ~time;
    Checks.Fifo_order.observe fifo ~flow ~seq;
    leaf_bits.(i) <- leaf_bits.(i) +. bits;
    root_bits.(0) <- root_bits.(0) +. bits;
    if !injected < packets then begin
      (* still saturated: every leaf backlogged since time 0 *)
      if !departed mod cp_every = 0 && !cps < checkpoints then begin
        Array.blit leaf_bits 0 cp_leaf.(!cps) 0 n;
        cp_time.(!cps) <- time;
        cp_root.(!cps) <- root_bits.(0);
        incr cps
      end;
      inject i
    end
  in
  if traced then
    HE.add_depart_handle_hook hier (fun h ~leaf:_ time ->
        let s = now_ns () in
        depart h time;
        t_hook := !t_hook + (now_ns () - s))
  else HE.add_depart_handle_hook hier (fun h ~leaf:_ time -> depart h time);
  (* prime: two packets per leaf; the first goes straight to the wire *)
  for i = 0 to n - 1 do
    let a = size_of i and b = size_of i in
    injected := !injected + 2;
    ignore (HE.inject hier ~leaf:ids.(i) ~size_bits:a);
    ignore (HE.inject hier ~leaf:ids.(i) ~size_bits:b)
  done;
  let setup_s = seconds_since t0 in
  let run = Wl.timed (fun () -> Engine.Simulator.run sim) in
  let what = "saturated_deep" in
  Checks.conservation ~what ~injected:!injected ~departed:!departed ~dropped:(HE.drops hier)
    ~live:(Net.Packet_pool.live_count pool);
  if !injected <> packets then fail "%s: injected %d of %d" what !injected packets;
  Checks.Fifo_order.verdict ~what fifo;
  if !cps <> checkpoints then fail "%s: %d of %d checkpoints" what !cps checkpoints;
  for k = 0 to checkpoints - 1 do
    Checks.bwfi ~what ~rate:link_rate ~l_max:ctx.l_max ~shares:ctx.shares ~alphas:ctx.alphas
      ~time:cp_time.(k) ~root_bits:cp_root.(k) ~leaf_bits:cp_leaf.(k)
  done;
  let layers =
    if not traced then []
    else
      [
        ("core.create_s", float_of_int create_ns *. 1e-9);
        ("core.inject_ns", float_of_int !t_inject /. float_of_int !c_inject);
        ( "engine.step_self_ns_per_pkt",
          float_of_int (run.Wl.run_ns - !t_hook) /. float_of_int !departed );
        ( "engine.events_per_pkt",
          float_of_int (Engine.Simulator.events_processed sim) /. float_of_int !departed );
        ("engine.resizes", float_of_int (Engine.Simulator.stats sim).resizes);
        ("net.pool_capacity", float_of_int (Net.Packet_pool.capacity pool));
      ]
  in
  { Wl.setup_s; run; departed = !departed; attempted = !injected; failed = 0; hash = !hash; layers; note = "" }
