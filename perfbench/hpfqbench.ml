(* hpfqbench: the benchmark's executable.

     hpfqbench gen --seed N --out PATH        write the mix_replay trace
     hpfqbench run --workload W --seed N --seconds S --trace 0|1
                   --data-dir DIR             run one workload (DIR caches
                                              generated traces)
     hpfqbench selftest                       corrupt each check's input
     hpfqbench fault                          repro of the hook-abort fault

   [run] repeats whole rounds (set-up, timed drain, output checks) of a
   fixed amount of work until [--seconds] have passed, at least
   [min_rounds] times, and prints per-round medians. Its last line on
   stdout is one JSON object: correct, attempted, failed and metrics —
   the end-to-end metrics with --trace 0, the per-layer ones with
   --trace 1. *)

open Util

let min_rounds = 3

let args = Array.to_list Sys.argv |> List.tl

let flag name =
  let rec go = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> go rest
    | [] -> None
  in
  go args

let flag_exn name =
  match flag name with
  | Some v -> v
  | None ->
    Printf.eprintf "hpfqbench: missing %s\n" name;
    exit 2

let int_flag name = int_of_string (flag_exn name)

let end_to_end_metrics (rounds : Wl.round list) ~peak_heap_words =
  let med f = median (List.map f rounds) in
  [
    ("pkts_per_s", "1/s", med Wl.pkts_per_s);
    ("alloc_words_per_pkt", "words", med (fun r -> r.run.minor_words /. float_of_int r.departed));
    ("peak_heap_mb", "MB", float_of_int (peak_heap_words * (Sys.word_size / 8)) /. 1048576.0);
    ("setup_s", "s", med (fun r -> r.setup_s));
  ]

(* Per-layer figures: medians over the traced rounds of what each round
   measured, then the workload's once-per-run [extra] figures; zero for a
   layer the workload does not call. *)
let layer_metrics (rounds : Wl.round list) ~extra =
  let med f = median (List.map f rounds) in
  let layer name =
    match List.assoc_opt name extra with
    | Some v -> v
    | None -> med (fun r -> Option.value (List.assoc_opt name r.Wl.layers) ~default:0.0)
  in
  List.map
    (fun (name, unit) -> (name, unit, layer name))
    [
      ("traffic.decode_s", "s");
      ("traffic.schedule_s", "s");
      ("core.create_s", "s");
      ("core.inject_ns", "ns");
      ("core.close_ns", "ns");
      ("core.reopen_ns", "ns");
      ("engine.step_self_ns_per_pkt", "ns");
      ("engine.bare_event_ns", "ns");
      ("engine.events_per_pkt", "events/pkt");
      ("engine.pending_peak", "count");
      ("engine.resizes", "count");
      ("net.pool_capacity", "count");
      ("stats.record_ns", "ns");
      ("stats.report_s", "s");
    ]
  @ [
      ("gc.minor_collections", "count", med (fun r -> float_of_int r.run.minor_gcs));
      ("gc.major_collections", "count", med (fun r -> float_of_int r.run.major_gcs));
      ( "gc.promoted_words_per_pkt",
        "words",
        med (fun r -> r.run.promoted_words /. float_of_int r.departed) );
      ("traced.pkts_per_s", "1/s", med Wl.pkts_per_s);
    ]

(* Reached only when every check passed: a failed check exits first. *)
let print_result ~attempted ~failed metrics =
  let m =
    List.map
      (fun (name, unit, v) -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
      metrics
  in
  Printf.printf "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    attempted failed (String.concat ", " m)

(* Rounds of [round] until [seconds] have passed (at least [min_rounds]).
   Each starts from a fully collected heap, so rounds are repetitions from
   the same state. Every round must fingerprint its departures alike. *)
let rounds ~seconds round =
  let t0 = now_ns () in
  let rec go acc n =
    if n >= min_rounds && seconds_since t0 >= seconds then List.rev acc
    else begin
      Gc.full_major ();
      let r : Wl.round = round () in
      (match acc with
      | prev :: _ when prev.Wl.hash <> r.hash ->
        fail "round %d departure fingerprint %x differs from round %d's %x" n r.hash (n - 1)
          prev.Wl.hash
      | _ -> ());
      go (r :: acc) (n + 1)
    end
  in
  go [] 0

(* Per-layer event-set figures of a workload that schedules at run time. *)
let runtime_events round =
  let cap = Wl.capture () in
  ignore (round (Wl.install cap));
  [
    ("engine.bare_event_ns", Wl.bare_chain_ns cap);
    ("engine.pending_peak", float_of_int cap.peak);
  ]

let run () =
  let workload = flag_exn "--workload" in
  let seed = int_flag "--seed" in
  let seconds = float_of_string (flag_exn "--seconds") in
  let traced = int_flag "--trace" = 1 in
  let round, extra =
    match workload with
    | "mix_replay" ->
      let path = Mix_replay.trace_file ~dir:(flag_exn "--data-dir") ~seed in
      let ctx = Mix_replay.prepare ~path in
      ( (fun () -> Mix_replay.round ctx ~traced),
        fun () -> [ ("engine.bare_event_ns", Mix_replay.bare_event_ns ctx) ] )
    | "saturated_deep" ->
      let ctx = Saturated_deep.prepare ~seed in
      ( (fun () -> Saturated_deep.round ctx ~traced),
        fun () -> runtime_events (fun on_sim -> Saturated_deep.round ~on_sim ctx ~traced:false) )
    | "flow_churn" ->
      let ctx = Flow_churn.prepare ~seed in
      ( (fun () -> Flow_churn.round ctx ~traced),
        fun () -> runtime_events (fun on_sim -> Flow_churn.round ~on_sim ctx ~traced:false) )
    | w ->
      Printf.eprintf "hpfqbench: unknown workload %s\n" w;
      exit 2
  in
  let rs = rounds ~seconds round in
  let peak_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let attempted = List.fold_left (fun a r -> a + r.Wl.attempted) 0 rs in
  let failed = List.fold_left (fun a r -> a + r.Wl.failed) 0 rs in
  let first = List.hd rs in
  Printf.printf "%s seed %d: %d rounds, %d packets departed per round, departure hash %016x\n"
    workload seed (List.length rs) first.departed first.hash;
  if first.note <> "" then print_endline first.note;
  Printf.printf "per-round pkts/s: %s\n"
    (String.concat " " (List.map (fun r -> Printf.sprintf "%.0f" (Wl.pkts_per_s r)) rs));
  let metrics =
    if traced then layer_metrics rs ~extra:(extra ())
    else end_to_end_metrics rs ~peak_heap_words
  in
  print_result ~attempted ~failed metrics

let () =
  match args with
  | "gen" :: _ -> Mix_replay.generate ~seed:(int_flag "--seed") ~path:(flag_exn "--out")
  | "fault" :: _ ->
    List.iter
      (fun engine -> print_endline (Fault.describe ~engine (Fault.piece ~engine)))
      Fault.engines
  | "selftest" :: _ -> (
    try Selftest.run ~verbose:true
    with Check_failed msg ->
      Printf.eprintf "hpfqbench: %s\n" msg;
      exit 1)
  | "run" :: _ -> (
    try
      Selftest.run ~verbose:false;
      run ()
    with Check_failed msg ->
      Printf.eprintf "hpfqbench: output check failed: %s\n" msg;
      exit 1)
  | _ ->
    prerr_endline "usage: hpfqbench gen|run|selftest|fault [options]";
    exit 2
