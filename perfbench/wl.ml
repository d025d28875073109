(* What one round of a workload reports, and the timed phase around it. *)

open Util

type run = {
  run_ns : int;
  minor_words : float;
  minor_gcs : int;
  major_gcs : int;
  promoted_words : float;
}

(* The timed phase: wall time, minor words and GC deltas of [f ()]. *)
let timed f =
  let s0 = Gc.quick_stat () in
  let m0 = Gc.minor_words () in
  let t0 = now_ns () in
  f ();
  let t1 = now_ns () in
  let m1 = Gc.minor_words () in
  let s1 = Gc.quick_stat () in
  {
    run_ns = t1 - t0;
    minor_words = m1 -. m0;
    minor_gcs = s1.Gc.minor_collections - s0.Gc.minor_collections;
    major_gcs = s1.Gc.major_collections - s0.Gc.major_collections;
    promoted_words = s1.Gc.promoted_words -. s0.Gc.promoted_words;
  }

type round = {
  setup_s : float;  (** decode, engine construction, pre-scheduling *)
  run : run;
  departed : int;  (** packets departed in the timed phase *)
  attempted : int;  (** packets the round tried to carry *)
  failed : int;  (** packets stranded by a raise of the engine *)
  hash : int;  (** departure fingerprint of the timed phase *)
  layers : (string * float) list;  (** per-layer figures, traced rounds only *)
  note : string;  (** outputs for people to read, e.g. simulated delays *)
}

let pkts_per_s r = float_of_int r.departed /. (float_of_int r.run.run_ns *. 1e-9)

(* Order-sensitive departure fingerprint over (flow, seq, time bits), in
   immediate ints so the hooks that fold it allocate nothing. *)
let[@inline] mix x =
  let x = (x lxor (x lsr 31)) * 0x3f51afd7ed558ccd in
  let x = (x lxor (x lsr 29)) * 0x04ceb9fe1a85ec53 in
  x lxor (x lsr 32)

let[@inline] fold_hash h ~flow ~seq ~time =
  let key = ((flow * 0x3779) + seq) lxor Int64.to_int (Int64.bits_of_float time) in
  mix ((h * 0x1e3779b97f4a7c15) + key)

(* Event-set figures of a workload whose events are scheduled at run time:
   one untimed round with a probe records every fire time and the peak
   pending count; the fire times are then replayed through a bare
   simulator, each no-op event scheduling the next, which prices the
   event set apart from the departure path. *)
type capture = { mutable times : float array; mutable len : int; mutable peak : int }

let capture () = { times = Array.make 4096 0.0; len = 0; peak = 0 }

let install cap sim =
  let see () = cap.peak <- max cap.peak (Engine.Simulator.pending sim) in
  Engine.Simulator.set_probe sim
    (Some
       {
         Engine.Simulator.on_schedule = (fun ~at:_ ~now:_ -> see ());
         on_fire =
           (fun ~at ->
             see ();
             if cap.len = Array.length cap.times then begin
               let bigger = Array.make (2 * cap.len) 0.0 in
               Array.blit cap.times 0 bigger 0 cap.len;
               cap.times <- bigger
             end;
             cap.times.(cap.len) <- at;
             cap.len <- cap.len + 1);
         on_cancel = (fun ~at:_ ~now:_ -> ());
       })

let bare_chain_ns cap =
  let sim = Engine.Simulator.create () in
  let i = ref 0 in
  let rec next () =
    if !i < cap.len then begin
      let at = cap.times.(!i) in
      incr i;
      ignore (Engine.Simulator.schedule sim ~at next)
    end
  in
  next ();
  let t0 = now_ns () in
  Engine.Simulator.run sim;
  float_of_int (now_ns () - t0) /. float_of_int (max 1 (Engine.Simulator.events_processed sim))
