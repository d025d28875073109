(* Shared helpers: monotonic clock, seeded draws, medians, tree specs. *)

(* Nanoseconds from CLOCK_MONOTONIC; the stub is noalloc and unboxed, so
   timing a call from outside adds no minor words. *)
let[@inline] now_ns () = Int64.to_int (Monotonic_clock.now ())

let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

let median xs =
  match List.sort compare xs with
  | [] -> invalid_arg "median: empty"
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

(* Seed-derived stream for one named input; distinct tags give independent
   streams from one --seed. *)
let rng ~seed ~tag = Engine.Rng.for_task (Engine.Rng.create (Int64.of_int seed)) tag

(* Fisher-Yates in place. *)
let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Engine.Rng.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* Balanced tree: [fanouts.(d)] children per node at depth [d]; each
   node's rate is split among its children by [weights]. Names are the
   path of child indices, e.g. "r.3.0". *)
let tree ~fanouts ~rate ~weights =
  let depth = Array.length fanouts in
  let rec build d name rate =
    if d = depth then Hpfq.Class_tree.leaf name ~rate
    else begin
      let w = weights ~depth:d ~fanout:fanouts.(d) in
      let total = Array.fold_left ( +. ) 0.0 w in
      Hpfq.Class_tree.node name ~rate
        (List.init fanouts.(d) (fun i ->
             build (d + 1) (Printf.sprintf "%s.%d" name i) (rate *. w.(i) /. total)))
    end
  in
  build 0 "r" rate

let equal_weights ~depth:_ ~fanout = Array.make fanout 1.0

(* Errors found by an output check. The run stops at the first one. *)
exception Check_failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Check_failed s)) fmt
