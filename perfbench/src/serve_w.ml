(* The serve workloads: one client submits a batch of scripts, flushes it
   and waits for the results before submitting the next (a closed loop
   with no think time).  serve-hot draws from a pool that fits the plan
   cache, so hits skip bind and optimize and the executor does the work;
   serve-churn replays a generated stream with catalog writes, so most
   sessions miss and the optimizer does the work. *)

open Workload

type session = { id : string; tenant : string; text : string }

type step =
  | Batch of session list
  | Write of (string * int) option
      (* re-register a file with a new row count, then bump the catalog;
         [None] bumps only (the stream's own [#catalog-bump]) *)

(* the input files [Sworkload.Session_gen.register] registers *)
let files = [ "serve_log0"; "serve_log1"; "serve_log2" ]

(* The text the plan cache keys on. *)
let normal_form text = Sserve.Normalize.to_text (Sserve.Normalize.parse text)

(* Distinct-normal-form statistics of a schedule, walked the way the plan
   cache sees it: a write starts a new catalog epoch, and within an epoch
   a normal form is a miss the first time only.  [warm] is walked first
   and not counted. *)
let properties ~warm ~timed =
  let seen = Hashtbl.create 256 and forms = Hashtbl.create 256 in
  let sessions = ref 0 and repeats = ref 0 and writes = ref 0 in
  let batches = ref 0 and shared_miss_batches = ref 0 in
  let walk ~count = function
    | Write _ ->
        Hashtbl.reset seen;
        if count then incr writes
    | Batch ss ->
        let misses = ref 0 in
        List.iter
          (fun s ->
            let n = normal_form s.text in
            Hashtbl.replace forms n ();
            if Hashtbl.mem seen n then (if count then incr repeats)
            else (
              Hashtbl.replace seen n ();
              incr misses);
            if count then incr sessions)
          ss;
        if count then (
          incr batches;
          if !misses >= 2 then incr shared_miss_batches)
  in
  List.iter (walk ~count:false) warm;
  Hashtbl.reset forms;
  List.iter (walk ~count:true) timed;
  let pct a b = if b = 0 then 0.0 else 100.0 *. float_of_int a /. float_of_int b in
  [
    Printf.sprintf
      "first %d timed sessions: %d distinct normal forms; %.1f%% repeat a normal form \
       already seen in the same catalog epoch"
      !sessions (Hashtbl.length forms) (pct !repeats !sessions);
    Printf.sprintf "%d catalog writes; %.1f%% of %d batches carry >= 2 distinct misses" !writes
      (pct !shared_miss_batches !batches) !batches;
  ]

(* Reports optimized in this flush: the first session of every fresh
   fingerprint missed the cache, and a combined run's report comes last
   ([batch_result.reports] holds one report per distinct fingerprint in
   submission order, then the combined run's). *)
let new_reports (b : Sserve.Engine.batch_result) =
  let seen = Hashtbl.create 8 in
  let fresh =
    List.filter_map
      (fun (r : Sserve.Engine.session_result) ->
        match (r.Sserve.Engine.fingerprint, r.Sserve.Engine.status) with
        | Some fp, Sserve.Engine.Done { cache_hit; _ } when not (Hashtbl.mem seen fp) ->
            Hashtbl.add seen fp ();
            Some (not cache_hit)
        | _ -> None)
      b.Sserve.Engine.results
  in
  let rec zip fresh reports =
    match (fresh, reports) with
    | f :: fresh, r :: reports -> if f then r :: zip fresh reports else zip fresh reports
    | [], combined -> combined
    | _ :: _, [] -> []
  in
  zip fresh b.Sserve.Engine.reports

type ctx = {
  catalog : Relalg.Catalog.t;
  engine : Sserve.Engine.t;
  plant : bool;
  normalized : (string, string) Hashtbl.t;  (* submitted text -> normal form *)
  references : (string, (string * Relalg.Table.t) list) Hashtbl.t;
      (* normal form -> reference outputs under the current catalog epoch,
         evaluated from the first submitted text with that normal form *)
  tally : Tally.t;
  errors : string list ref;
  start : Sserve.Engine.totals;  (* lifetime totals when the timed run starts *)
}

let normalize ctx text =
  match Hashtbl.find_opt ctx.normalized text with
  | Some n -> n
  | None ->
      let n = normal_form text in
      Hashtbl.replace ctx.normalized text n;
      n

(* The reference is evaluated from the text the client submitted, not
   from its normal form: a normalization bug then shows as a mismatch
   instead of reaching the engine and the reference alike.  Keyed by
   normal form, a later script that shares the key but not the meaning
   is compared with the first one's outputs, and fails too. *)
let reference ctx s =
  let n = normalize ctx s.text in
  match Hashtbl.find_opt ctx.references n with
  | Some r -> r
  | None ->
      let r = Check.reference ctx.catalog s.text in
      Hashtbl.replace ctx.references n r;
      r

(* Outside the timed region: every session's outputs against the
   reference under the catalog in force, and the phase-2 invariant on
   every report optimized in this flush. *)
let check ctx sessions (b : Sserve.Engine.batch_result) fresh =
  let failed = ref 0 in
  let error msg =
    incr failed;
    ctx.errors := msg :: !(ctx.errors)
  in
  List.iter2
    (fun s (r : Sserve.Engine.session_result) ->
      match r.Sserve.Engine.status with
      | Sserve.Engine.Failed m -> error ("session failed: " ^ m)
      | Sserve.Engine.Done _ ->
          let outputs = r.Sserve.Engine.outputs in
          let outputs = if ctx.plant then Check.plant outputs else outputs in
          if not (Check.same_outputs (reference ctx s) outputs) then
            error "outputs differ from the reference")
    sessions b.Sserve.Engine.results;
  List.iter
    (fun r ->
      if
        not
          (Check.phase2_within_phase1 ~cse_cost:r.Cse.Pipeline.cse_cost
             r.Cse.Pipeline.phase1_plan)
      then
        error "cse_cost exceeds the phase-1 plan's cost")
    fresh;
  !failed

(* Estimated cost of the plans the batch executed: the combined plan, plus
   the solo plan of every session not served from it. *)
let est_cost (b : Sserve.Engine.batch_result) =
  List.fold_left
    (fun acc (r : Sserve.Engine.session_result) ->
      match r.Sserve.Engine.status with
      | Sserve.Engine.Done { combined = false; _ } -> acc +. r.Sserve.Engine.cse_cost
      | _ -> acc)
    (Option.value ~default:0.0 b.Sserve.Engine.combined_cost)
    b.Sserve.Engine.results

let run_batch ctx ~traced sessions =
  let submit () =
    List.iter
      (fun s -> Sserve.Engine.submit ~tenant:s.tenant ctx.engine ~id:s.id ~text:s.text)
      sessions
  in
  let flush () = Option.get (Sserve.Engine.flush ctx.engine) in
  let t0 = Spans.now () in
  let b, latency, fresh =
    if not traced then (
      submit ();
      let b = flush () in
      (b, Spans.now () -. t0, new_reports b))
    else
      Spans.root "op" (fun () ->
          Spans.with_span "serve.submit" submit;
          let b, fresh =
            Spans.with_span "serve.flush" (fun () ->
                let b = flush () in
                let fresh = new_reports b in
                let sum f = List.fold_left (fun acc r -> acc +. f r) 0.0 fresh in
                Spans.derived "exec.run" b.Sserve.Engine.wall_s;
                Spans.derived "optimizer.conventional"
                  (sum (fun r -> r.Cse.Pipeline.conventional_time));
                Spans.derived "cse.optimize" (sum (fun r -> r.Cse.Pipeline.cse_time));
                (b, fresh))
          in
          (b, Spans.now () -. t0, fresh))
  in
  let timed_s = Spans.now () -. t0 in
  if traced then (
    (* beside the flush, not inside it, and outside the unit's wall: what
       normalizing and keying the submitted texts costs *)
    let version = Relalg.Catalog.version ctx.catalog in
    Spans.root "probe" (fun () ->
        Spans.with_span "serve.normalize" (fun () ->
            List.iter
              (fun s ->
                ignore (Sserve.Plan_cache.key ~catalog_version:version (normal_form s.text)))
              sessions));
    let t = ctx.tally in
    let add name v = Tally.add t name v in
    let sumi f = float_of_int (List.fold_left (fun acc r -> acc + f r) 0 fresh) in
    let sumf f = List.fold_left (fun acc r -> acc +. f r) 0.0 fresh in
    t.Tally.units <- t.Tally.units + 1;
    add "flush_s" latency;
    add "exec_s" b.Sserve.Engine.wall_s;
    add "optimize_s"
      (sumf (fun r -> r.Cse.Pipeline.conventional_time +. r.Cse.Pipeline.cse_time));
    add "optimizer.conventional_tasks" (sumi (fun r -> r.Cse.Pipeline.conventional_tasks));
    add "cse.tasks" (sumi (fun r -> r.Cse.Pipeline.cse_tasks));
    add "cse.rounds_executed" (sumi (fun r -> r.Cse.Pipeline.rounds_executed));
    add "cse.rounds_aborted_bound" (sumi (fun r -> r.Cse.Pipeline.rounds_aborted_bound));
    add "cse.phase2_winner_reuse_hits"
      (sumi (fun r -> r.Cse.Pipeline.phase2_winner_reuse_hits));
    add "exec.stages_run"
      (float_of_int
         (List.fold_left
            (fun acc a -> Array.fold_left ( + ) acc a)
            0 b.Sserve.Engine.attempts)));
  let failed = check ctx sessions b fresh in
  {
    timed_s;
    ops = List.length sessions;
    latency_s = latency;
    failed;
    est_cost = est_cost b;
  }

let write ctx ~traced w =
  let apply () =
    (match w with
    | Some (path, rows) -> (
        match Relalg.Catalog.find ctx.catalog path with
        | Some st -> Relalg.Catalog.register ctx.catalog { st with Relalg.Catalog.rows }
        | None -> invalid_arg ("unknown file " ^ path))
    | None -> ());
    ignore (Sserve.Engine.catalog_bump ctx.engine)
  in
  let t0 = Spans.now () in
  if traced then Spans.root "write" (fun () -> Spans.with_span "serve.write" apply)
  else apply ();
  let timed_s = Spans.now () -. t0 in
  Hashtbl.reset ctx.references;
  { timed_s; ops = 0; latency_s = 0.0; failed = 0; est_cost = 0.0 }

let step ctx ~traced = function
  | Batch ss -> run_batch ctx ~traced ss
  | Write w -> write ctx ~traced w

let layers ctx () =
  let t = ctx.tally in
  let now = Sserve.Engine.totals ctx.engine in
  let d f = float_of_int (f now - f ctx.start) in
  let hits = d (fun x -> x.Sserve.Engine.cache_hits)
  and misses = d (fun x -> x.Sserve.Engine.cache_misses)
  and combined = d (fun x -> x.Sserve.Engine.combined_runs) in
  let share name =
    let flush = Tally.get t "flush_s" in
    if flush > 0.0 then Tally.get t name /. flush else 0.0
  in
  List.map
    (fun (name, unit) -> (name, Tally.mean t name, unit))
    [
      ("optimizer.conventional_tasks", "count");
      ("cse.tasks", "count");
      ("cse.rounds_executed", "count");
      ("cse.rounds_aborted_bound", "count");
      ("cse.phase2_winner_reuse_hits", "count");
      ("exec.stages_run", "count");
    ]
  @ [
      ("serve.optimize_share", share "optimize_s", "ratio");
      ("serve.exec_share", share "exec_s", "ratio");
      ("serve.hit_ratio", (if hits +. misses > 0.0 then hits /. (hits +. misses) else 0.0), "ratio");
      ("serve.invalidations", d (fun x -> x.Sserve.Engine.cache_invalidations), "count");
      ("serve.pipeline_runs", misses +. combined, "count");
      ("serve.combined_runs", combined, "count");
      ("serve.cross_script_shares", d (fun x -> x.Sserve.Engine.cross_script_shares), "count");
      ("serve.cache_size", float_of_int now.Sserve.Engine.cache_size, "count");
    ]

let make_ctx ~plant catalog engine =
  {
    catalog;
    engine;
    plant;
    normalized = Hashtbl.create 256;
    references = Hashtbl.create 256;
    tally = Tally.create ();
    errors = ref [];
    start = Sserve.Engine.totals engine;
  }

(* A protocol stream's batches, as its [#batch] markers cut them, and its
   catalog bumps, in order. *)
let steps_of_stream text =
  let steps = ref [] and pending = ref [] and tenant = ref "default" in
  let cut () =
    if !pending <> [] then (
      steps := Batch (List.rev !pending) :: !steps;
      pending := [])
  in
  List.iter
    (function
      | Sserve.Session.Script { id; text } -> pending := { id; tenant = !tenant; text } :: !pending
      | Sserve.Session.Tenant t -> tenant := t
      | Sserve.Session.Flush -> cut ()
      | Sserve.Session.Catalog_bump ->
          cut ();
          steps := Write None :: !steps
      | Sserve.Session.Stats | Sserve.Session.Dump | Sserve.Session.Quit -> ())
    (Sserve.Session.items_of_string text);
  cut ();
  List.rev !steps

(* serve-hot: the distinct scripts of a generated stream form a pool;
   batches of 2-4 sessions are drawn from it uniformly.  The stream has
   [hot_scripts] scripts: with 40 (some 27 distinct), the seed alone moved
   the pool's mean plan cost by about 10%; some 80 distinct scripts hold
   it near 3% and still fit the plan cache. *)
let hot_scripts = 120

let hot_setup ~seed ~plant =
  let catalog = Sworkload.Session_gen.catalog () in
  let engine = Sserve.Engine.create catalog in
  let pool =
    let seen = Hashtbl.create 64 in
    steps_of_stream (Sworkload.Session_gen.generate ~seed ~scripts:hot_scripts ())
    |> List.concat_map (function Batch ss -> ss | Write _ -> [])
    |> List.filter (fun s ->
           (not (Hashtbl.mem seen s.text)) && (Hashtbl.replace seen s.text (); true))
    |> Array.of_list
  in
  let warm = Array.to_list (Array.map (fun s -> Batch [ s ]) pool) in
  let rng = Sutil.Rng.create seed in
  let draw rng = Batch (List.init (2 + Sutil.Rng.int rng 3) (fun _ -> Sutil.Rng.pick rng pool)) in
  (* the first 1000 batches the timed run will draw, for the printout *)
  let preview =
    let r = Sutil.Rng.copy rng in
    List.init 1000 (fun _ -> draw r)
  in
  let ctx0 = make_ctx ~plant catalog engine in
  List.iter (fun st -> ignore (step ctx0 ~traced:false st)) warm;
  let ctx = make_ctx ~plant catalog engine in
  {
    properties =
      Printf.sprintf "pool: the %d distinct scripts of Session_gen.generate ~seed:%d ~scripts:%d"
        (Array.length pool) seed hot_scripts
      :: properties ~warm ~timed:preview;
    step = (fun ~traced -> step ctx ~traced (draw rng));
    layers = layers ctx;
    state_words = (fun () -> Obj.reachable_words (Obj.repr engine));
    notes = (fun () -> List.sort_uniq String.compare !(ctx.errors));
  }

(* More scripts than a run reaches: work per batch is heavy-tailed, so a
   shorter stream, replayed, let the seed move throughput by a tenth. *)
let churn_scripts = 10_000
let write_every = 20

(* serve-churn: the generated stream as its [#batch] markers cut it, its
   own [#catalog-bump], and a write every [write_every] batches that
   re-registers one seeded [serve_log*] file with a new row count. *)
let churn_steps ~seed =
  let rng = Sutil.Rng.create (seed + 1) in
  let base = Sworkload.Session_gen.catalog () in
  let batches = ref 0 in
  let write () =
    let path = List.nth files (Sutil.Rng.int rng (List.length files)) in
    (* at most 100k rows more than registered (files hold 8M and up):
       enough to start a new catalog epoch, too little to move plan costs
       much *)
    let registered = (Option.get (Relalg.Catalog.find base path)).Relalg.Catalog.rows in
    Write (Some (path, registered + ((1 + Sutil.Rng.int rng 100) * 1_000)))
  in
  steps_of_stream (Sworkload.Session_gen.generate ~seed ~scripts:churn_scripts ())
  |> List.concat_map (function
       | Batch _ as st ->
           incr batches;
           if !batches mod write_every = 0 then [ st; write () ] else [ st ]
       | Write _ as st -> [ st ])
  |> Array.of_list

let churn_setup ~seed ~plant =
  let catalog = Sworkload.Session_gen.catalog () in
  let engine = Sserve.Engine.create catalog in
  let steps = churn_steps ~seed in
  (* warm-up: the first [write_every] batches *)
  let rec warm_end i b =
    if b = write_every then i
    else match steps.(i) with Batch _ -> warm_end (i + 1) (b + 1) | Write _ -> warm_end (i + 1) b
  in
  let first = warm_end 0 0 in
  let warm = Array.to_list (Array.sub steps 0 first) in
  let timed = Array.to_list (Array.sub steps first (Array.length steps - first)) in
  let ctx0 = make_ctx ~plant catalog engine in
  List.iter (fun st -> ignore (step ctx0 ~traced:false st)) warm;
  let ctx = make_ctx ~plant catalog engine in
  (* past the end of the stream, replay it from the first timed step *)
  let next = ref first in
  {
    properties =
      Printf.sprintf "stream: Session_gen.generate ~seed:%d ~scripts:%d, replayed if exhausted"
        seed churn_scripts
      :: properties ~warm ~timed;
    step =
      (fun ~traced ->
        let st = steps.(!next) in
        next := if !next + 1 = Array.length steps then first else !next + 1;
        step ctx ~traced st);
    layers = layers ctx;
    state_words = (fun () -> Obj.reachable_words (Obj.repr engine));
    notes = (fun () -> List.sort_uniq String.compare !(ctx.errors));
  }

let hot =
  {
    name = "serve-hot";
    why =
      "serve batches drawn from a pool that fits the plan cache: every session hits, \
       bind and optimize are skipped and the executor does the work; optimizer \
       changes must read no change";
    unit_name = "batch";
    heap_at_ops = 20_000;
    setup = hot_setup;
  }

let churn =
  {
    name = "serve-churn";
    why =
      "the generated serve stream plus a catalog write every 20 batches: most \
       sessions miss, so the optimizer does most of the work under writes beside \
       reads";
    unit_name = "batch";
    heap_at_ops = 3_000;
    setup = churn_setup;
  }
