(* The closed-loop harness: set up a workload several times, run its units
   for the given time (or op count), check every output, and summarize.
   Untraced runs give the end-to-end metrics; traced runs alternate
   traced and untraced units and give the per-layer metrics. *)

type params = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  max_ops : int option;
      (* stop after this many ops instead of [seconds] (self-test only) *)
  setup_reps : int;  (* 5 from the command line; 1 in the self-test *)
  plant : bool;  (* corrupt every op's outputs before checking (self-test) *)
  spans_file : string option;  (* where a traced run writes its spans *)
}

type metric = { name : string; value : float; unit : string }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

let workloads = [ Batch_ls2.workload; Serve_w.hot; Serve_w.churn ]

let end_to_end_names =
  [
    "setup_s";
    "throughput_ops_s";
    "latency_p50_ms";
    "latency_p90_ms";
    "peak_heap_mb";
    "est_cost_per_op";
  ]

(* Per-layer metrics, in report order.  The result line carries every one
   of them on every workload; one the workload does not reach reads 0 and
   is listed as such in the printout (see the layer map in README.md). *)
let per_layer_names =
  [
    ("lang.parse_ms", "ms");
    ("logical.bind_ms", "ms");
    ("memo.build_ms", "ms");
    ("memo.groups", "count");
    ("memo.exprs", "count");
    ("optimizer.conventional_ms", "ms");
    ("optimizer.conventional_tasks", "count");
    ("cse.identify_ms", "ms");
    ("cse.optimize_ms", "ms");
    ("cse.report_ms", "ms");
    ("cse.tasks", "count");
    ("cse.rounds_executed", "count");
    ("cse.rounds_aborted_bound", "count");
    ("cse.phase2_winner_reuse_hits", "count");
    ("cost.dagcost_ms", "ms");
    ("exec.stage_build_ms", "ms");
    ("exec.run_ms", "ms");
    ("exec.util", "ratio");
    ("exec.rows_shuffled", "count");
    ("exec.rows_extracted", "count");
    ("exec.batches", "count");
    ("exec.stages_run", "count");
    ("exec.spool_reads", "count");
    ("serve.flush_ms", "ms");
    ("serve.optimize_share", "ratio");
    ("serve.exec_share", "ratio");
    ("serve.other_ms", "ms");
    ("serve.normalize_ms", "ms");
    ("serve.write_ms", "ms");
    ("serve.hit_ratio", "ratio");
    ("serve.invalidations", "count");
    ("serve.pipeline_runs", "count");
    ("serve.combined_runs", "count");
    ("serve.cross_script_shares", "count");
    ("serve.cache_size", "count");
    ("unattributed_ms", "ms");
    ("trace.overhead_ratio", "ratio");
  ]

let find_workload name =
  match List.find_opt (fun (w : Workload.t) -> w.Workload.name = name) workloads with
  | Some w -> w
  | None ->
      invalid_arg
        (Printf.sprintf "unknown workload %S (known: %s)" name
           (String.concat ", " (List.map (fun (w : Workload.t) -> w.Workload.name) workloads)))

(* Self time per layer and traced unit, from the recorded spans.  Each
   layer is reported per root of the kind it ran under ("op" units, or
   "write" units for catalog writes). *)
type layer = {
  l_name : string;
  kind : string;  (* name of the root span the layer ran under *)
  per_root : (int, float) Hashtbl.t;  (* op id -> self seconds *)
  mutable inclusive : float;
}

let layer_stats () =
  let all = Spans.self_times (Spans.spans ()) in
  let root_kind = Hashtbl.create 64 and roots = Hashtbl.create 8 in
  List.iter
    (fun ((s : Spans.span), _) ->
      if s.Spans.parent < 0 then (
        Hashtbl.replace root_kind s.Spans.op s.Spans.name;
        Hashtbl.replace roots s.Spans.name
          (s.Spans.op :: Option.value ~default:[] (Hashtbl.find_opt roots s.Spans.name))))
    all;
  let layers = Hashtbl.create 32 in
  List.iter
    (fun ((s : Spans.span), self) ->
      let name =
        if s.Spans.parent >= 0 then s.Spans.name
        else if s.Spans.name = "op" then "unattributed"
        else s.Spans.name ^ ".unattributed"
      in
      let kind = Option.value ~default:"op" (Hashtbl.find_opt root_kind s.Spans.op) in
      let l =
        match Hashtbl.find_opt layers name with
        | Some l -> l
        | None ->
            let l = { l_name = name; kind; per_root = Hashtbl.create 64; inclusive = 0.0 } in
            Hashtbl.replace layers name l;
            l
      in
      l.inclusive <- l.inclusive +. Spans.duration s;
      Hashtbl.replace l.per_root s.Spans.op
        (self +. Option.value ~default:0.0 (Hashtbl.find_opt l.per_root s.Spans.op)))
    all;
  let roots_of kind = Option.value ~default:[] (Hashtbl.find_opt roots kind) in
  let samples l =
    List.map
      (fun op -> Option.value ~default:0.0 (Hashtbl.find_opt l.per_root op))
      (roots_of l.kind)
  in
  (Hashtbl.fold (fun _ l acc -> l :: acc) layers [], samples, roots_of)

let ms x = 1e3 *. x

(* Units are scaled to reference time in windows of at least this much
   wall, with a calibration at each end: short enough that the host's
   speed holds across a window, long enough that the calibrations add
   under a tenth to the run. *)
let calib_window_s = 0.2

(* The per-layer table of a traced run, with its flags; returns the
   span-derived metrics of the layers the run reached. *)
let layer_report ~(w : Workload.t) ~traced_wall ~untraced_wall =
  let layers, samples, roots_of = layer_stats () in
  let n_roots kind = float_of_int (max 1 (List.length (roots_of kind))) in
  let self_per_root l = Stats.sum (samples l) /. n_roots l.kind in
  let op_time = Stats.mean traced_wall in
  (* what the run can resolve: the standard error of the mean unit wall *)
  let noise = Stats.stdev traced_wall /. sqrt (float_of_int (List.length traced_wall)) in
  let layers = List.sort (fun a b -> Float.compare (self_per_root b) (self_per_root a)) layers in
  Printf.printf "\nper-layer self time (traced units: %d %s, %d writes):\n"
    (List.length (roots_of "op")) w.Workload.unit_name
    (List.length (roots_of "write"));
  Printf.printf "  %-26s %12s %8s %8s  %s\n" "layer" "self ms/unit" "share" "samples" "flags";
  List.iter
    (fun l ->
      let xs = samples l in
      let v = self_per_root l in
      let flags =
        (if l.kind <> "write" && v < noise then [ "below sample noise" ] else [])
        @
        if l.l_name = "unattributed" && v > 0.05 *. op_time then
          [ "unattributed above 5% of op time" ]
        else []
      in
      Printf.printf "  %-26s %12.4f %8s %8d  %s\n" l.l_name (ms v)
        (if l.kind = "op" && op_time > 0.0 then Printf.sprintf "%.1f%%" (100.0 *. v /. op_time)
         else "-")
        (List.length xs) (String.concat "; " flags))
    layers;
  let find name = List.find_opt (fun l -> l.l_name = name) layers in
  let self name = Option.map self_per_root (find name) in
  let inclusive name = Option.map (fun l -> l.inclusive /. n_roots l.kind) (find name) in
  let self0 name = Option.value ~default:0.0 (self name) in
  let overhead =
    if untraced_wall = [] then 0.0 else Stats.mean traced_wall /. Stats.mean untraced_wall
  in
  if op_time > 0.0 then
    Printf.printf
      "  optimizer (cse.optimize + optimizer.conventional) %.1f%% of op time; named spans \
       cover %.1f%%\n"
      (100.0 *. (self0 "cse.optimize" +. self0 "optimizer.conventional") /. op_time)
      (100.0 *. (1.0 -. (self0 "unattributed" /. op_time)));
  Printf.printf "  tracing overhead: traced/untraced unit wall = %.3f (%d traced, %d untraced)\n"
    overhead (List.length traced_wall) (List.length untraced_wall);
  List.filter_map
    (fun (name, v) -> Option.map (fun v -> (name, ms v)) v)
    [
      ("lang.parse_ms", self "lang.parse");
      ("logical.bind_ms", self "logical.bind");
      ("memo.build_ms", self "memo.build");
      ("optimizer.conventional_ms", self "optimizer.conventional");
      ("cse.identify_ms", self "cse.identify");
      ("cse.optimize_ms", self "cse.optimize");
      ("cse.report_ms", self "cse.report");
      ("cost.dagcost_ms", self "cost.dagcost");
      ("exec.stage_build_ms", self "exec.stage_build");
      ("exec.run_ms", self "exec.run");
      ("serve.flush_ms", inclusive "serve.flush");
      ("serve.other_ms", self "serve.flush");
      ("serve.normalize_ms", self "serve.normalize");
      ("serve.write_ms", self "serve.write");
      ("unattributed_ms", self "unattributed");
    ]
  @ [ ("trace.overhead_ratio", overhead) ]

let run (p : params) : result =
  let w = find_workload p.workload in
  Printf.printf "workload %s, seed %d: closed loop, one client, no think time\n  why: %s\n"
    w.Workload.name p.seed w.Workload.why;
  (* set up [setup_reps] times; the last instance is the one measured *)
  let setup_s = ref [] and inst = ref None in
  for _ = 1 to max 1 p.setup_reps do
    inst := None;
    Gc.compact ();
    let before = Calib.sample () in
    let t0 = Spans.now () in
    let i = w.Workload.setup ~seed:p.seed ~plant:p.plant in
    let wall = Spans.now () -. t0 in
    setup_s := (wall *. Calib.factor ~before ~after:(Calib.sample ())) :: !setup_s;
    inst := Some i
  done;
  let inst = Option.get !inst in
  Printf.printf "input properties:\n";
  List.iter (Printf.printf "  %s\n") inst.Workload.properties;
  Spans.reset ();
  Gc.compact ();
  (* [timed] is in reference seconds (see Calib); [raw_timed] is the
     wall the units took, and [measured] adds the calibrations to it *)
  let timed = ref 0.0 and raw_timed = ref 0.0 and measured = ref 0.0 in
  let ops = ref 0 and failed = ref 0 and cost = ref 0.0 in
  let latencies = Stats.Buf.create () and units = ref 0 in
  let traced_wall = Stats.Buf.create () and untraced_wall = Stats.Buf.create () in
  let factors = Stats.Buf.create () in
  let state_words = ref None in
  (* units not yet scaled: the current window, since the last calibration *)
  let window = ref [] and window_s = ref 0.0 in
  let calibrate () =
    let t0 = Spans.now () in
    let c = Calib.sample () in
    measured := !measured +. (Spans.now () -. t0);
    c
  in
  let last_cal = ref (calibrate ()) in
  let settle () =
    let after = calibrate () in
    let f = Calib.factor ~before:!last_cal ~after in
    last_cal := after;
    Stats.Buf.add factors f;
    List.iter
      (fun (o : Workload.outcome) ->
        timed := !timed +. (o.Workload.timed_s *. f);
        for _ = 1 to o.Workload.ops do
          Stats.Buf.add latencies (o.Workload.latency_s *. f)
        done)
      (List.rev !window);
    window := [];
    window_s := 0.0
  in
  let started = Spans.now () in
  let more () =
    (* a hard stop keeps a run with slow checks inside its time limit *)
    Spans.now () -. started < 120.0
    && match p.max_ops with Some n -> !ops < n | None -> !measured < p.seconds
  in
  while !units = 0 || more () do
    let traced = p.trace && !units mod 2 = 0 in
    let o = inst.Workload.step ~traced in
    incr units;
    raw_timed := !raw_timed +. o.Workload.timed_s;
    measured := !measured +. o.Workload.timed_s;
    ops := !ops + o.Workload.ops;
    failed := !failed + o.Workload.failed;
    cost := !cost +. o.Workload.est_cost;
    window := o :: !window;
    window_s := !window_s +. o.Workload.timed_s;
    if !window_s >= calib_window_s then settle ();
    if !state_words = None && !ops >= w.Workload.heap_at_ops then
      state_words := Some (inst.Workload.state_words ());
    if o.Workload.ops > 0 then
      Stats.Buf.add (if traced then traced_wall else untraced_wall) o.Workload.timed_s
  done;
  if !window <> [] then settle ();
  let state_words =
    match !state_words with Some h -> h | None -> inst.Workload.state_words ()
  in
  let peak_heap_mb = float_of_int (state_words * (Sys.word_size / 8)) /. (1024.0 *. 1024.0) in
  let attempted = !ops in
  let lat_ms = List.map ms (Stats.Buf.to_list latencies) in
  let p50 = Stats.median lat_ms and p90 = Stats.quantile 0.9 lat_ms in
  let n = List.length lat_ms in
  let error_rate = float_of_int !failed /. float_of_int (max 1 attempted) in
  let e2e =
    [
      ("setup_s", Stats.median !setup_s, "s", Printf.sprintf "median of %d set-ups" (List.length !setup_s));
      ( "throughput_ops_s",
        float_of_int attempted /. !timed,
        "ops/s",
        Printf.sprintf "%d ops over %.3f reference s (%.3f s of wall)" attempted !timed
          !raw_timed );
      ("latency_p50_ms", p50, "ms", Printf.sprintf "n=%d" n);
      ( "latency_p90_ms",
        p90,
        "ms",
        Printf.sprintf "n=%d, %d beyond%s" n (Stats.beyond p90 lat_ms)
          (if Stats.beyond p90 lat_ms < 10 then " (fewer than 10)" else "") );
      ("error_rate", error_rate, "ratio", Printf.sprintf "%d of %d ops" !failed attempted);
      ( "peak_heap_mb",
        peak_heap_mb,
        "MB",
        Printf.sprintf
          "heap reachable from the program's state after %d ops (or at the end of the run)"
          w.Workload.heap_at_ops );
      ( "est_cost_per_op",
        !cost /. float_of_int (max 1 attempted),
        "cost",
        Printf.sprintf "n=%d" attempted );
    ]
  in
  let fs = Stats.Buf.to_list factors in
  Printf.printf
    "\nhost speed: reference s per wall s, over %d calibration windows: median %.3f, \
     quartiles %.3f-%.3f\n"
    (List.length fs) (Stats.median fs) (Stats.quantile 0.25 fs) (Stats.quantile 0.75 fs);
  Printf.printf "\nend-to-end, times in reference ms and s%s:\n"
    (if p.trace then " (traced run: for reference only, not reported)" else "");
  List.iter
    (fun (name, v, u, note) -> Printf.printf "  %-18s %16.6f %-6s %s\n" name v u note)
    e2e;
  let metrics =
    if not p.trace then
      List.filter_map
        (fun (name, v, u, _) ->
          if List.mem name end_to_end_names then Some { name; value = v; unit = u } else None)
        e2e
    else begin
      let spans_metrics =
        layer_report ~w ~traced_wall:(Stats.Buf.to_list traced_wall)
          ~untraced_wall:(Stats.Buf.to_list untraced_wall)
      in
      let counts = inst.Workload.layers () in
      (match p.spans_file with
      | Some f ->
          let oc = open_out f in
          output_string oc (Spans.to_json ());
          close_out oc;
          Printf.printf "  spans written to %s\n" f
      | None -> ());
      let measured name =
        match List.assoc_opt name spans_metrics with
        | Some v -> Some v
        | None -> Option.map (fun (_, v, _) -> v) (List.find_opt (fun (n, _, _) -> n = name) counts)
      in
      let unreached = List.filter (fun (name, _) -> measured name = None) per_layer_names in
      if unreached <> [] then
        Printf.printf "  not reached by %s, reported as 0: %s\n" w.Workload.name
          (String.concat ", " (List.map fst unreached));
      List.map
        (fun (name, unit) -> { name; value = Option.value ~default:0.0 (measured name); unit })
        per_layer_names
    end
  in
  List.iter (Printf.printf "  note: %s\n") (inst.Workload.notes ());
  { correct = !failed = 0; attempted; failed = !failed; metrics }

(* The result line: one JSON object. *)
let json_line (r : result) =
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Sobs.Json.escape m.name)
              (num m.value) (Sobs.Json.escape m.unit))
          r.metrics))
