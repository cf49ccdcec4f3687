(* Baseline drift checker for BENCH_opt.json.

   CI runs the quick bench on every push and compares the fresh JSON
   against the committed baseline: the optimizer's *deterministic*
   outputs — estimated plan costs, task counts and the round-pruning
   counters — must match exactly for every workload present in both
   files.  Wall times, heap figures and anything else
   environment-dependent are exempt, so the check is stable across
   machines while still catching a plan-quality or search-effort
   regression the moment it lands.

   Two further modes serve the ISSUE 7 round-pruning gates:

   - [--equivalence] compares only the plan-quality fields (the costs).
     Used on a pruned run vs a [--no-prune] run of the *same* build,
     where the search-effort counters legitimately differ but a single
     ulp of cost drift means a pruning layer discarded a winner.

   - [--perf FACTOR] additionally requires, per workload, that the fresh
     run's [rounds_executed] is at most baseline / FACTOR, and that its
     [cse_time_s] does not exceed the baseline's.  Used on a pruned run
     vs a same-machine [--no-prune] run to enforce the >= FACTOR round
     reduction the pruning layers claim (wall clocks are only compared
     within one machine, never against the committed baseline).

   - [--exec-perf FACTOR] gates the vectorized executor (ISSUE 9): per
     workload, the fresh run's measured [exec_wall_w1_s] must be at most
     baseline / FACTOR, and its [exec_wall_wN_s] must not exceed its own
     [exec_wall_w1_s] by more than 25% (the hardware-parallelism cap
     promises the parallel configuration never regresses the sequential
     one).  The wN check is skipped when [exec_wall_w1_s] is under 20ms:
     below that, scheduler jitter alone exceeds the 25% margin and the
     assertion would flake.  FACTOR > 1 demands a speedup over the
     baseline (used once,
     to prove the >= 2x vectorization win against the pre-vectorization
     BENCH_opt.json); FACTOR < 1 is a regression allowance (CI runs
     [--exec-perf 0.6], i.e. at most ~1.7x the committed wall, which
     absorbs shared-runner noise).  Wall-clock gates stay restricted to
     the large workloads ([--only LS1,LS2]) where the signal is outside
     the noise floor.

   Both files are parsed with [Sobs.Json]: the [workloads] array of
   flat records of numbers keyed by "name".

   Usage: compare [--equivalence | --perf FACTOR | --exec-perf FACTOR]
                  [--only W1,W2] BASELINE.json FRESH.json *)

(* The workload records of a bench file, keyed by their "name". *)
let records path =
  let doc = Sobs.Json.parse (In_channel.with_open_bin path In_channel.input_all) in
  Option.bind (Sobs.Json.member "workloads" doc) Sobs.Json.to_list
  |> Option.value ~default:[]
  |> List.filter_map (fun w ->
         Option.map
           (fun name -> (name, w))
           (Option.bind (Sobs.Json.member "name" w) Sobs.Json.to_str))

(* Numeric value of [name] in a workload record. *)
let field w name = Option.bind (Sobs.Json.member name w) Sobs.Json.to_float

(* The deterministic fields: identical runs of the same code must agree
   exactly.  Costs are doubles printed with %.17g (round-trip exact);
   tasks, rounds and the pruning counters are integers. *)
let drift_fields =
  [
    "conv_cost";
    "cse_cost";
    "conv_tasks";
    "cse_tasks";
    "rounds_executed";
    "rounds_pruned";
    "rounds_aborted_bound";
    "phase2_winner_reuse_hits";
  ]

(* Plan quality alone: what a pruned and an exhaustive run of the same
   build must agree on bit-for-bit. *)
let equivalence_fields = [ "conv_cost"; "cse_cost" ]

type mode = Drift | Equivalence | Perf of float | ExecPerf of float

let usage () =
  prerr_endline
    "usage: compare [--equivalence | --perf FACTOR | --exec-perf FACTOR] \
     [--only W1,W2] BASELINE.json FRESH.json";
  exit 2

let () =
  let mode = ref Drift in
  let only = ref None in
  let files = ref [] in
  let rec parse = function
    | "--equivalence" :: tl -> mode := Equivalence; parse tl
    | "--perf" :: f :: tl -> (
        match float_of_string_opt f with
        | Some f when f > 0.0 -> mode := Perf f; parse tl
        | _ -> usage ())
    | "--exec-perf" :: f :: tl -> (
        match float_of_string_opt f with
        | Some f when f > 0.0 -> mode := ExecPerf f; parse tl
        | _ -> usage ())
    | "--only" :: names :: tl ->
        only := Some (String.split_on_char ',' names);
        parse tl
    | path :: tl -> files := path :: !files; parse tl
    | [] -> ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let baseline_path, fresh_path =
    match List.rev !files with [ b; f ] -> (b, f) | _ -> usage ()
  in
  let baseline = records baseline_path in
  let fresh = records fresh_path in
  let wanted name =
    match !only with None -> true | Some names -> List.mem name names
  in
  let drift = ref 0 in
  let compared = ref 0 in
  (* perf mode compares a pruned against an exhaustive run: costs must
     still match bit-for-bit, but the search-effort counters (tasks,
     rounds, pruning tallies) legitimately differ *)
  let checked_fields =
    match !mode with
    | Drift -> drift_fields
    | Perf _ | Equivalence -> equivalence_fields
    (* exec-perf compares wall clocks across builds of possibly different
       optimizer behaviour: gate only the executor figures *)
    | ExecPerf _ -> []
  in
  List.iter
    (fun (name, fresh_w) ->
      match List.assoc_opt name baseline with
      | _ when not (wanted name) -> ()
      | None -> Printf.printf "%-5s not in baseline, skipped\n" name
      | Some base_w ->
          incr compared;
          List.iter
            (fun f ->
              match (field base_w f, field fresh_w f) with
              | Some b, Some v when b <> v ->
                  incr drift;
                  Printf.printf "%-5s %s drifted: baseline %.17g, now %.17g\n"
                    name f b v
              | Some _, Some _ -> ()
              | None, _ ->
                  (* field added after the baseline was committed *)
                  ()
              | _, None ->
                  incr drift;
                  Printf.printf "%-5s %s missing from fresh run\n" name f)
            checked_fields;
          (match !mode with
          | Perf factor ->
              (match (field base_w "rounds_executed",
                      field fresh_w "rounds_executed") with
              | Some b, Some v when v *. factor > b ->
                  incr drift;
                  Printf.printf
                    "%-5s rounds_executed %.0f not %.2gx under baseline %.0f\n"
                    name v factor b
              | Some b, Some v ->
                  Printf.printf "%-5s rounds_executed %.0f <= %.0f / %.2g\n"
                    name v b factor
              | _ ->
                  incr drift;
                  Printf.printf "%-5s rounds_executed missing\n" name);
              (* same-machine wall clock: the pruned run must not be
                 slower than the exhaustive one beyond scheduler noise *)
              (match (field base_w "cse_time_s", field fresh_w "cse_time_s")
               with
              | Some b, Some v when v > b *. 1.1 ->
                  incr drift;
                  Printf.printf
                    "%-5s cse_time_s %.4f exceeds baseline %.4f (+10%%)\n"
                    name v b
              | _ -> ())
          | ExecPerf factor ->
              (* the committed sequential wall must improve >= FACTOR *)
              (match (field base_w "exec_wall_w1_s",
                      field fresh_w "exec_wall_w1_s") with
              | Some b, Some v when v *. factor > b ->
                  incr drift;
                  Printf.printf
                    "%-5s exec_wall_w1_s %.6f not %.2gx under baseline %.6f\n"
                    name v factor b
              | Some b, Some v ->
                  Printf.printf "%-5s exec_wall_w1_s %.6f <= %.6f / %.2g\n"
                    name v b factor
              | _ ->
                  incr drift;
                  Printf.printf "%-5s exec_wall_w1_s missing\n" name);
              (* same-run comparison: the parallel configuration must not
                 regress the sequential one beyond scheduler noise; on
                 walls under 20ms the jitter alone exceeds the margin,
                 so the check only applies where the signal is real *)
              (match (field fresh_w "exec_wall_w1_s",
                      field fresh_w "exec_wall_wN_s") with
              | Some w1, Some wn when w1 < 0.02 ->
                  Printf.printf
                    "%-5s exec_wall_w1_s %.6f under noise floor, wN check \
                     skipped (wN %.6f)\n"
                    name w1 wn
              | Some w1, Some wn when wn > w1 *. 1.25 ->
                  incr drift;
                  Printf.printf
                    "%-5s exec_wall_wN_s %.6f exceeds exec_wall_w1_s %.6f \
                     (+25%%)\n"
                    name wn w1
              | Some w1, Some wn ->
                  Printf.printf "%-5s exec_wall_wN_s %.6f <= %.6f +25%%\n"
                    name wn w1
              | _ ->
                  incr drift;
                  Printf.printf "%-5s exec_wall_wN_s missing\n" name)
          | Drift | Equivalence -> ()))
    fresh;
  if !compared = 0 then begin
    print_endline "no workloads in common: nothing compared";
    exit 2
  end;
  if !drift = 0 then
    Printf.printf "baseline match (%s): %d workload(s), %d field(s) each\n"
      (match !mode with
      | Drift -> "drift"
      | Equivalence -> "equivalence"
      | Perf f -> Printf.sprintf "perf %.2gx" f
      | ExecPerf f -> Printf.sprintf "exec-perf %.2gx" f)
      !compared
      (List.length checked_fields)
  else begin
    Printf.printf "%d drift(s) against the committed baseline\n" !drift;
    exit 1
  end
