(* batch-ls2: compile and run an LS2-shaped script, over and over, in one
   closed loop.  One op is [Cse.Pipeline.run] followed by
   [Sexec.Engine.run] on a warm engine; the optimizer does most of the
   work and no plan cache is involved. *)

open Workload

let cluster = Scost.Cluster.default
let machines = cluster.Scost.Cluster.machines
(* One worker: a second domain would time the shared host's scheduler,
   which the calibration probe (single-threaded) cannot see. *)
let workers = 1

(* Seed 0 is exactly the published LS2 spec.  Other seeds permute the
   shared-group multiplicities and choose the two textual-duplicate
   modules; both keep the operator count (every duplicate adds the same
   two operators) and the consumer multiset. *)
let spec seed =
  let base = Sworkload.Large_gen.ls2_spec in
  if seed = 0 then base
  else
    let rng = Sutil.Rng.create seed in
    let consumers =
      Array.to_list
        (Sutil.Rng.shuffle rng (Array.of_list base.Sworkload.Large_gen.shared_consumers))
    in
    let n = List.length consumers in
    let a = Sutil.Rng.int rng n in
    let b = (a + 1 + Sutil.Rng.int rng (n - 1)) mod n in
    {
      base with
      Sworkload.Large_gen.shared_consumers = consumers;
      duplicate_modules = List.sort Int.compare [ a; b ];
    }

let published_consumers = List.init 15 (fun _ -> 2) @ [ 4; 5 ]

(* Initial-DAG operators and the sorted consumer counts of the shared
   groups Algorithm 1 finds. *)
let structure catalog script =
  let dag = Slogical.Binder.bind ~catalog (Slang.Parser.parse_script script) in
  let memo = Smemo.Memo.of_dag ~catalog ~machines dag in
  let shared = Cse.Spool.identify memo in
  ( Slogical.Dag.size dag,
    List.sort Int.compare
      (List.map (fun (s : Cse.Spool.shared) -> s.Cse.Spool.initial_consumers) shared) )

(* The calls [Cse.Pipeline.run] makes, in its order, each in a span named
   after its layer, then the executor's.  Returns the two plan costs, the
   CSE and phase-1 plans and the outputs. *)
let traced_op ~catalog ~engine ~tally script =
  let ast = Spans.with_span "lang.parse" (fun () -> Slang.Parser.parse_script script) in
  let dag = Spans.with_span "logical.bind" (fun () -> Slogical.Binder.bind ~catalog ast) in
  let conv_memo =
    Spans.with_span "memo.build" (fun () -> Smemo.Memo.of_dag ~catalog ~machines dag)
  in
  let conv_ctx, conv_plan =
    Spans.with_span "optimizer.conventional" (fun () ->
        let ctx = Sopt.Optimizer.create ~cluster conv_memo in
        (ctx, Sopt.Optimizer.optimize_root ctx))
  in
  let memo =
    Spans.with_span "memo.build" (fun () -> Smemo.Memo.of_dag ~catalog ~machines dag)
  in
  let shared = Spans.with_span "cse.identify" (fun () -> Cse.Spool.identify memo) in
  let outcome =
    Spans.with_span "cse.optimize" (fun () -> Cse.Phase2.optimize ~cluster memo)
  in
  let state = outcome.Cse.Phase2.state in
  (* the sharing summary [Pipeline.run] assembles into its report *)
  Spans.with_span "cse.report" (fun () ->
      let si = Cse.Phase2.shared_info state in
      List.iter
        (fun (s : Cse.Spool.shared) ->
          let g = s.Cse.Spool.spool in
          ignore (Cse.Shared_info.lca_of_shared si g);
          ignore (Cse.History.entries state.Cse.Phase2.history g);
          ignore (Cse.History.candidates state.Cse.Phase2.history g))
        shared);
  let conv_plan = Option.get conv_plan and cse_plan = Option.get outcome.Cse.Phase2.plan in
  let phase1_plan = Option.value ~default:cse_plan outcome.Cse.Phase2.phase1_plan in
  let conventional_cost, cse_cost =
    Spans.with_span "cost.dagcost" (fun () ->
        (Scost.Dagcost.cost cluster conv_plan, Scost.Dagcost.cost cluster cse_plan))
  in
  let outputs = Spans.with_span "exec.run" (fun () -> Sexec.Engine.run engine cse_plan) in
  let add = Tally.add tally in
  let fi = float_of_int in
  add "memo.groups" (fi (Smemo.Memo.size conv_memo + Smemo.Memo.size memo));
  add "memo.exprs" (fi (Smemo.Memo.expr_count conv_memo + Smemo.Memo.expr_count memo));
  add "optimizer.conventional_tasks" (fi conv_ctx.Sopt.Optimizer.budget.Sopt.Budget.tasks);
  add "cse.tasks" (fi outcome.Cse.Phase2.budget.Sopt.Budget.tasks);
  add "cse.rounds_executed" (fi state.Cse.Phase2.rounds_executed);
  add "cse.rounds_aborted_bound" (fi state.Cse.Phase2.rounds_aborted_bound);
  add "cse.phase2_winner_reuse_hits" (fi state.Cse.Phase2.phase2_winner_reuse_hits);
  let c = engine.Sexec.Engine.counters in
  add "exec.rows_shuffled" (fi c.Sexec.Engine.rows_shuffled);
  add "exec.rows_extracted" (fi c.Sexec.Engine.rows_extracted);
  add "exec.batches" (fi c.Sexec.Engine.batches);
  add "exec.stages_run" (fi c.Sexec.Engine.stages_run);
  add "exec.spool_reads" (fi c.Sexec.Engine.spool_reads);
  let busy = Array.fold_left ( +. ) 0.0 engine.Sexec.Engine.last_busy in
  let wall = engine.Sexec.Engine.last_wall in
  if wall > 0.0 then
    add "exec.util" (busy /. (wall *. float_of_int engine.Sexec.Engine.workers));
  (conventional_cost, cse_cost, cse_plan, phase1_plan, outputs)

let setup ~seed ~plant =
  let spec = spec seed in
  let script = Sworkload.Large_gen.generate spec in
  let catalog = Relalg.Catalog.default () in
  Sworkload.Large_gen.register_files ~shared_rows:spec.Sworkload.Large_gen.shared_rows
    ~filler_rows:spec.Sworkload.Large_gen.filler_rows catalog script;
  let ops, consumers = structure catalog script in
  if ops <> 1034 || consumers <> published_consumers then
    failwith
      (Printf.sprintf "batch-ls2 seed %d: %d ops, consumers [%s]; LS2 has 1034, 15x2+4+5"
         seed ops
         (String.concat ";" (List.map string_of_int consumers)));
  let engine = Sexec.Engine.create ~workers ~machines catalog in
  let expected = Check.reference catalog script in
  let tally = Tally.create () in
  (* the untraced [Pipeline.run] costs the traced op must reproduce *)
  let pipeline_costs = ref None in
  let pipeline_s = ref [] in
  (* the last untraced op's report and outputs, alive until the next op *)
  let last = ref None in
  let errors = ref [] in
  let check_op ~cse_cost ~phase1_plan outputs =
    let outputs = if plant then Check.plant outputs else outputs in
    let bad_outputs = not (Check.same_outputs expected outputs) in
    let bad_invariant = not (Check.phase2_within_phase1 ~cse_cost phase1_plan) in
    if bad_outputs then errors := "outputs differ from the reference" :: !errors;
    if bad_invariant then errors := "cse_cost exceeds the phase-1 plan's cost" :: !errors;
    if bad_outputs || bad_invariant then 1 else 0
  in
  let untraced () =
    let t0 = Spans.now () in
    let r = Cse.Pipeline.run ~cluster ~catalog script in
    let t1 = Spans.now () in
    let outputs = Sexec.Engine.run engine r.Cse.Pipeline.cse_plan in
    let t2 = Spans.now () in
    pipeline_s := (t1 -. t0) :: !pipeline_s;
    pipeline_costs := Some (r.Cse.Pipeline.conventional_cost, r.Cse.Pipeline.cse_cost);
    last := Some (r, outputs);
    let failed =
      check_op ~cse_cost:r.Cse.Pipeline.cse_cost ~phase1_plan:r.Cse.Pipeline.phase1_plan outputs
    in
    { timed_s = t2 -. t0; ops = 1; latency_s = t2 -. t0; failed; est_cost = r.Cse.Pipeline.cse_cost }
  in
  let traced () =
    let t0 = Spans.now () in
    let conventional_cost, cse_cost, cse_plan, phase1_plan, outputs =
      Spans.root "op" (fun () -> traced_op ~catalog ~engine ~tally script)
    in
    let t1 = Spans.now () in
    (* outside the op's wall: [Engine.run] builds the stage graph inside,
       where no span can reach; this builds it again to time it *)
    Spans.root "probe" (fun () ->
        ignore (Spans.with_span "exec.stage_build" (fun () -> Sexec.Stage.build cse_plan)));
    tally.Tally.units <- tally.Tally.units + 1;
    let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
    let reproduced =
      match !pipeline_costs with
      | Some (conv, cse) -> same_bits conv conventional_cost && same_bits cse cse_cost
      | None -> false
    in
    if not reproduced then
      errors := "traced op did not reproduce Pipeline.run's costs bit-for-bit" :: !errors;
    let failed = check_op ~cse_cost ~phase1_plan outputs + if reproduced then 0 else 1 in
    { timed_s = t1 -. t0; ops = 1; latency_s = t1 -. t0; failed; est_cost = cse_cost }
  in
  (* warm-up: one op, which also records the costs to reproduce *)
  ignore (untraced ());
  pipeline_s := [];
  let properties =
    [
      Printf.sprintf "script: %d ops, %d shared groups, consumers 15x2+4+5 (asserted)" ops
        (List.length consumers);
      Printf.sprintf "shared-group multiplicities by module: [%s]; textual duplicates: modules %s"
        (String.concat ";" (List.map string_of_int spec.Sworkload.Large_gen.shared_consumers))
        (String.concat "," (List.map string_of_int spec.Sworkload.Large_gen.duplicate_modules));
      Printf.sprintf "engine: %d machines, %d workers; no optimizer budget; no plan cache" machines
        engine.Sexec.Engine.workers;
    ]
  in
  let layers () =
    List.map
      (fun (name, unit) -> (name, Tally.mean tally name, unit))
      [
        ("memo.groups", "count");
        ("memo.exprs", "count");
        ("optimizer.conventional_tasks", "count");
        ("cse.tasks", "count");
        ("cse.rounds_executed", "count");
        ("cse.rounds_aborted_bound", "count");
        ("cse.phase2_winner_reuse_hits", "count");
        ("exec.rows_shuffled", "count");
        ("exec.rows_extracted", "count");
        ("exec.batches", "count");
        ("exec.stages_run", "count");
        ("exec.spool_reads", "count");
        ("exec.util", "ratio");
      ]
  in
  let notes () =
    (* the pipeline's spans against the untraced [Pipeline.run] they
       reproduce, both as medians over ops *)
    let per_op = Hashtbl.create 64 in
    List.iter
      (fun ((s : Spans.span), self) ->
        match s.Spans.name with
        | "lang.parse" | "logical.bind" | "memo.build" | "optimizer.conventional"
        | "cse.identify" | "cse.optimize" | "cse.report" | "cost.dagcost" ->
            Hashtbl.replace per_op s.Spans.op
              (self +. Option.value ~default:0.0 (Hashtbl.find_opt per_op s.Spans.op))
        | _ -> ())
      (Spans.self_times (Spans.spans ()));
    let traced = Hashtbl.fold (fun _ v acc -> v :: acc) per_op [] in
    List.sort_uniq String.compare !errors
    @
    if traced = [] || !pipeline_s = [] then []
    else
      let t = Stats.median traced and u = Stats.median !pipeline_s in
      [
        Printf.sprintf
          "pipeline spans: median %.1f ms per traced op; untraced Pipeline.run: median %.1f ms \
           (ratio %.3f)"
          (1e3 *. t) (1e3 *. u) (t /. u);
      ]
  in
  {
    properties;
    step = (fun ~traced:t -> if t then traced () else untraced ());
    layers;
    state_words = (fun () -> Obj.reachable_words (Obj.repr (engine, !last)));
    notes;
  }

let workload =
  {
    name = "batch-ls2";
    why =
      "one-shot compile and run of the LS2-shaped script (1034 ops, 17 shared \
       groups): the optimizer does ~70% of the work and no plan cache helps";
    unit_name = "op";
    heap_at_ops = 20;
    setup;
  }
