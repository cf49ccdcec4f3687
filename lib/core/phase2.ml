open Sphys
open Sopt

(* The re-optimization framework (Algorithms 4 and 5), realized as an
   extension of the generic optimization engine:

   - phase 1 records the property history of shared groups (Section V)
     through [before_optimize]/[after_winner];
   - [child_extreq] propagates the enforcement map downwards, pruned to
     paths that still lead to one of the enforced shared groups
     (Algorithm 5, lines 15-17);
   - [intercept] implements the two special cases of Algorithm 4:
       * at a shared group with a pinned property set, the base plan is
         optimized once under the pinned properties (so every consumer
         shares the identical materialization) and per-consumer enforcers
         are layered on top when the consumer needs more (e.g. the
         Sort(C,B) above the spool in Figure 8(b));
       * at an LCA, one re-optimization round per property combination is
         executed and the cheapest result kept (Section VIII controls how
         combinations are enumerated).  Under the round bound, a round is
         first screened: the pinned base plans every plan of the round
         must contain, plus a floor for what the plan spends outside
         spools, give a lower bound on its cost, and a round whose lower
         bound already loses to the incumbent is booked as aborted
         without re-optimizing the LCA (DESIGN.md, round pruning,
         layer 2). *)

let log_src = Logs.Src.create "scopecse.phase2" ~doc:"CSE re-optimization"

module Log = (val Logs.src_log log_src : Logs.LOG)

let pp_assignment assignment =
  String.concat "; "
    (List.map
       (fun (s, props) -> Fmt.str "%d -> %a" s Sphys.Reqprops.pp props)
       assignment)

type state = {
  config : Config.t;
  history : History.t;
  mutable si : Shared_info.t option;
  mutable rounds_executed : int;
  mutable rounds_naive : int; (* full-product round count, for ablations *)
  mutable rounds_sequential : int; (* VIII-A round count, before pruning *)
  mutable rounds_pruned : int;
      (* sequential rounds removed by dominance filtering of candidates *)
  mutable rounds_aborted_bound : int;
      (* rounds cut short by the branch-and-bound incumbent check or
         screened out before re-optimization *)
  mutable phase2_winner_reuse_hits : int;
      (* winner-cache hits during phase 2 (cross-round reuse) *)
  mutable pruned_props : (int * (Reqprops.t * Reqprops.t) list) list;
      (* shared group -> (dropped, kept dominator) pairs, for SA060 *)
  mutable lca_sites : int;
  floors : (int * Reqprops.t, float) Hashtbl.t;
      (* round-screen floor per (group, requirement); enforcement-
         independent, so shared by every LCA call of the optimization *)
}

let create config =
  {
    config;
    history = History.create config;
    si = None;
    rounds_executed = 0;
    rounds_naive = 0;
    rounds_sequential = 0;
    rounds_pruned = 0;
    rounds_aborted_bound = 0;
    phase2_winner_reuse_hits = 0;
    pruned_props = [];
    lca_sites = 0;
    floors = Hashtbl.create 16;
  }

let shared_info state =
  match state.si with
  | Some si -> si
  | None -> invalid_arg "Phase2: shared info not computed yet"

(* --- hook implementations --------------------------------------------- *)

let before_optimize state (t : Optimizer.t) (g : Smemo.Memo.group) extreq =
  if t.Optimizer.phase = 1 && g.Smemo.Memo.shared then
    History.record state.history g.Smemo.Memo.id extreq.Extreq.req

let after_winner state (t : Optimizer.t) (g : Smemo.Memo.group) _extreq plan =
  if t.Optimizer.phase = 1 && g.Smemo.Memo.shared then
    History.note_best state.history g.Smemo.Memo.id plan

let child_extreq state (t : Optimizer.t) ~(child : Smemo.Memo.group) creq
    (parent : Extreq.t) =
  if t.Optimizer.phase <> 2 || parent.Extreq.enforce = [] then Extreq.plain creq
  else begin
    let si = shared_info state in
    let cid = child.Smemo.Memo.id in
    let enforce =
      (* prune to paths that still lead to an enforced shared group; keep
         everything for groups unknown to the (pre-phase-2) analysis *)
      if Hashtbl.mem si.Shared_info.info cid then
        let below = Shared_info.shared_below si cid in
        List.filter (fun (gid, _) -> List.mem gid below) parent.Extreq.enforce
      else parent.Extreq.enforce
    in
    { Extreq.req = creq; enforce }
  end

(* Per-consumer compensation above a pinned shared plan: layer enforcers
   until the consumer's original requirement is satisfied. *)
let rec compensate (t : Optimizer.t) (g : Smemo.Memo.group)
    (req : Reqprops.t) (base : Plan.t) : Plan.t option =
  if Reqprops.satisfied base.Plan.props req then Some base
  else
    let candidates =
      List.filter_map
        (fun (alt : Enforcers.alt) ->
          match compensate t g alt.Enforcers.inner base with
          | None -> None
          | Some inner ->
              let node = Optimizer.mk_plan t g alt.Enforcers.op [ inner ] in
              if
                Plan_check.check_op node = []
                && Reqprops.satisfied node.Plan.props req
              then Some node
              else None)
        (Enforcers.alternatives req)
    in
    Optimizer.cheapest t candidates

(* The requirement a pinned shared group [s]'s base plan is optimized
   under: the pinned properties, plus the entries of [enforce] (the
   enforcement map arriving at [s]) other than [s]'s own.  Layer 3,
   cross-round winner reuse: also drop entries for shared groups that are
   not below [s] — they are unreachable from here (every descendant
   prunes to its own shared_below anyway), so they cannot influence the
   plan, yet they differ between adjacent mixed-radix rounds and would
   fragment the winner cache into one cold entry per round.  [intercept]
   and the round screen both build the base plan's winner key here, so
   the screen's fetch is the round's memoized base. *)
let pinned_inner state s pinned enforce =
  let si = shared_info state in
  let keep =
    if state.config.Config.prune && Hashtbl.mem si.Shared_info.info s then begin
      let below = Shared_info.shared_below si s in
      fun (gid, _) -> gid <> s && List.mem gid below
    end
    else fun (gid, _) -> gid <> s
  in
  Extreq.normalize
    { Extreq.req = pinned; enforce = List.filter keep enforce }

(* Round screen, the assignment-independent part: a lower bound on what
   any round's plan of [g] under [req] spends outside spools.  Every
   group's plan is one of its implementation alternatives or an enforcer
   over itself under a weaker requirement, whatever the enforcement map;
   so the floor takes, per group, the cheapest alternative with each
   operator priced at full input parallelism ([Costmodel.op_cost_floor]).
   It stops at shared groups (their productions and reads are the bases'
   part, or not counted at all) and at groups with no shared group below:
   those see no enforcement ([child_extreq] prunes it all), so their plans
   are spool-free, identical in every round and already memoized — their
   exact cost is used.  A group reached along several paths is counted
   once per path, as the plan tree counts it.  Nothing here depends on the
   enforcement map, so floors are memoized for the whole optimization.
   0 when no alternative is feasible. *)
let region_floor state (t : Optimizer.t) (g : Smemo.Memo.group)
    (req : Reqprops.t) ~self =
  let si = shared_info state in
  let cluster = t.Optimizer.cluster in
  let memo = t.Optimizer.memo in
  let rec group_floor (x : Smemo.Memo.group) req =
    let id = x.Smemo.Memo.id in
    if x.Smemo.Memo.shared then 0.0
    else if
      Hashtbl.mem si.Shared_info.info id && Shared_info.shared_below si id = []
    then
      match self x (Extreq.plain req) with
      | Some p -> Optimizer.plan_cost t p
      | None -> infinity
    else alternatives x req
  and alternatives x req =
    let key = (x.Smemo.Memo.id, req) in
    match Hashtbl.find_opt state.floors key with
    | Some f -> f
    | None ->
        let stats = x.Smemo.Memo.stats in
        let impl =
          List.fold_left
            (fun acc (e : Smemo.Memo.mexpr) ->
              let children =
                List.map (Smemo.Memo.group memo) e.Smemo.Memo.children
              in
              let inputs =
                List.map (fun (c : Smemo.Memo.group) -> c.Smemo.Memo.stats)
                  children
              in
              List.fold_left
                (fun acc (alt : Impl.alt) ->
                  let below =
                    List.fold_left2
                      (fun sum c creq -> sum +. group_floor c creq)
                      0.0 children alt.Impl.child_reqs
                  in
                  Float.min acc
                    (Scost.Costmodel.op_cost_floor cluster alt.Impl.op inputs
                       ~out:stats
                    +. below))
                acc (Impl.alternatives e req))
            infinity (Smemo.Memo.exprs x)
        in
        let f =
          List.fold_left
            (fun acc (alt : Enforcers.alt) ->
              Float.min acc
                (Scost.Costmodel.op_cost_floor cluster alt.Enforcers.op
                   [ stats ] ~out:stats
                +. alternatives x alt.Enforcers.inner))
            impl (Enforcers.alternatives req)
        in
        Hashtbl.replace state.floors key f;
        f
  in
  let f = alternatives g req in
  if Float.is_finite f then f else 0.0

(* Algorithm 4, lines 4-12: all re-optimization rounds at an LCA. *)
let run_rounds state (t : Optimizer.t) (g : Smemo.Memo.group)
    (extreq : Extreq.t) (to_assign : int list) ~self
    ~(log_phys_opt :
       ?bound:float -> Smemo.Memo.group -> Extreq.t -> Plan.t option) =
  state.lca_sites <- state.lca_sites + 1;
  let si = shared_info state in
  let ordered =
    if state.config.Config.use_group_ranking then
      Rank.order t.Optimizer.cluster t.Optimizer.memo si to_assign
    else to_assign
  in
  let classes =
    if state.config.Config.use_independent_groups then begin
      let cls =
        Independent.classes si t.Optimizer.memo ~l:g.Smemo.Memo.id ordered
      in
      (* order class members and the classes themselves by [ordered] *)
      let pos s =
        let rec idx i = function
          | [] -> max_int
          | x :: rest -> if x = s then i else idx (i + 1) rest
        in
        idx 0 ordered
      in
      List.map
        (fun members ->
          List.stable_sort (fun a b -> Int.compare (pos a) (pos b)) members)
        cls
      |> List.stable_sort (fun a b ->
             Int.compare (pos (List.hd a)) (pos (List.hd b)))
    end
    else [ ordered ]
  in
  let ranked =
    List.map
      (List.map (fun s -> (s, History.ranked_properties state.history s)))
      classes
  in
  (* layer 1: dominance filtering of the candidate property sets; the
     naive/sequential counters keep describing the unpruned space so the
     pruning is visible as rounds_pruned *)
  let with_props =
    if state.config.Config.prune then
      List.map
        (List.map (fun s ->
             let kept, dropped = History.candidates state.history s in
             if dropped <> [] && not (List.mem_assoc s state.pruned_props)
             then state.pruned_props <- (s, dropped) :: state.pruned_props;
             (s, kept)))
        classes
    else ranked
  in
  state.rounds_naive <- state.rounds_naive + Rounds.naive_total ranked;
  state.rounds_sequential <-
    state.rounds_sequential + Rounds.sequential_total ranked;
  state.rounds_pruned <-
    state.rounds_pruned
    + (Rounds.sequential_total ranked - Rounds.sequential_total with_props);
  let gen = Rounds.create with_props in
  let candidates = ref [] in
  let use_bound = state.config.Config.prune in
  (* layer 2 incumbent: the cheapest walking cost seen at this LCA so far.
     Bounds carry a hair of relative slack so a round in true near-tie
     territory is never aborted — ties must keep resolving exactly as in
     the exhaustive run. *)
  let incumbent = ref infinity in
  let slack b = if b = infinity then infinity else b *. (1.0 +. 1e-6) in
  let round_bound () =
    if not use_bound then infinity
    else if Rounds.last_class gen then slack !incumbent
    else
      (* earlier classes still steer (their best combo is frozen): bound
         only against the class's own best so the frozen choice matches
         the exhaustive run *)
      match Rounds.class_best_cost gen with
      | Some c -> slack c
      | None -> infinity
  in
  (* the plan without any enforcement (the phase-1 shape) also competes *)
  (match log_phys_opt g extreq with
  | Some p ->
      candidates := [ p ];
      if use_bound then incumbent := Scost.Dagcost.cost t.Optimizer.cluster p
  | None -> ());
  (* round screen (layer 2, before re-optimization).  Every consumer of a
     pinned shared group shares its one base plan, so each round's plan
     contains the base of every assigned group; those below another
     assigned group are reached through that group's base, so only the
     outermost ones are added (adding a nested one too would charge a
     read the plan may not have).  The region floor does not depend on
     the assignment: computed once, never per round. *)
  let region =
    if use_bound then region_floor state t g extreq.Extreq.req ~self else 0.0
  in
  let outermost =
    let assigned =
      List.concat_map
        (List.filter_map (fun (s, props) ->
             if props = [] then None else Some s))
        with_props
    in
    let below =
      List.map (fun s -> (s, Shared_info.shared_below si s)) assigned
    in
    List.filter_map
      (fun (s, s_below) ->
        if List.exists (fun (s', b) -> s' <> s && List.mem s b) below then None
        else Some (s, s_below))
      below
  in
  (* [true] when the round's lower bound provably exceeds [bound]; stops
     fetching base plans as soon as it does.  An infeasible base leaves
     the round to run (and fail) as before. *)
  let screened (ext' : Extreq.t) bound =
    let lb = Optimizer.Lower_bound.create () in
    let rec go = function
      | [] -> false
      | (s, s_below) :: rest -> (
          match Extreq.enforcement ext' s with
          | None -> go rest
          | Some pinned -> (
              (* the map arriving at [s]: what [child_extreq] leaves of
                 the LCA's map on any path down to it *)
              let arriving =
                List.filter
                  (fun (gid, _) -> List.mem gid s_below)
                  ext'.Extreq.enforce
              in
              match
                self
                  (Smemo.Memo.group t.Optimizer.memo s)
                  (pinned_inner state s pinned arriving)
              with
              | None -> false
              | Some base ->
                  Optimizer.Lower_bound.add t.Optimizer.cluster lb base;
                  region +. lb.Optimizer.Lower_bound.sum > bound || go rest))
    in
    bound < infinity && (region > bound || go outermost)
  in
  let traced = Sobs.Trace.enabled () in
  let continue_ = ref true in
  while !continue_ do
    if Budget.exhausted t.Optimizer.budget then continue_ := false
    else
      match Rounds.next gen with
      | None -> continue_ := false
      | Some assignment ->
          let bound = round_bound () in
          let ext' =
            Extreq.normalize
              { extreq with Extreq.enforce = extreq.Extreq.enforce @ assignment }
          in
          if traced then
            Sobs.Trace.begin_span ~pid:Sobs.Trace.pid_phase2
              ~args:
                [
                  ("lca", Sobs.Trace.Int g.Smemo.Memo.id);
                  ("round", Sobs.Trace.Int (Rounds.generated gen));
                  ("assignment", Sobs.Trace.Str (pp_assignment assignment));
                ]
              "ReoptimizeRound";
          let finish ?(screen = false) cost =
            if traced then
              Sobs.Trace.end_span ~pid:Sobs.Trace.pid_phase2
                ~args:
                  [
                    ("cost", Sobs.Trace.Float cost);
                    ("screened", Sobs.Trace.Int (Bool.to_int screen));
                  ]
                "ReoptimizeRound"
          in
          let screen = screened ext' bound in
          let result = if screen then None else log_phys_opt ~bound g ext' in
          if screen || t.Optimizer.tainted then begin
            (* layer 2 abort: the round's true cost provably exceeds the
               incumbent (or class best) by more than the slack, so its
               plan can never be chosen; report infinity so the class
               best is as unmoved as it would be by the true cost *)
            Budget.note_round_aborted t.Optimizer.budget;
            state.rounds_aborted_bound <- state.rounds_aborted_bound + 1;
            Log.debug (fun m ->
                m "round %d at LCA %d: {%s} %s (bound %.6g)"
                  (Rounds.generated gen) g.Smemo.Memo.id
                  (pp_assignment assignment)
                  (if screen then "screened" else "aborted")
                  bound);
            Rounds.report gen ~cost:infinity;
            finish ~screen infinity
          end
          else begin
            Budget.note_round_executed t.Optimizer.budget;
            state.rounds_executed <- state.rounds_executed + 1;
            match result with
            | Some p ->
                (* feedback steering the sequential enumeration: use the
                   walking cost so the last-ulp noise of the cached
                   closure cannot flip which assignment a class keeps as
                   its best *)
                let cost = Scost.Dagcost.cost t.Optimizer.cluster p in
                Log.debug (fun m ->
                    m "round %d at LCA %d: {%s} -> cost %.6g"
                      (Rounds.generated gen) g.Smemo.Memo.id
                      (pp_assignment assignment) cost);
                Rounds.report gen ~cost;
                candidates := p :: !candidates;
                if use_bound && cost < !incumbent then incumbent := cost;
                finish cost
            | None ->
                Log.debug (fun m ->
                    m "round %d at LCA %d: infeasible assignment"
                      (Rounds.generated gen) g.Smemo.Memo.id);
                Rounds.report gen ~cost:infinity;
                finish infinity
          end
  done;
  let winner = Optimizer.cheapest t !candidates in
  (if Sobs.Trace.enabled () then
     let args =
       match winner with
       | Some p ->
           [
             ("lca", Sobs.Trace.Int g.Smemo.Memo.id);
             ("cost", Sobs.Trace.Float (Scost.Dagcost.cost t.Optimizer.cluster p));
           ]
       | None -> [ ("lca", Sobs.Trace.Int g.Smemo.Memo.id) ]
     in
     Sobs.Trace.instant ~pid:Sobs.Trace.pid_phase2 ~args "round.winner");
  winner

let intercept state (t : Optimizer.t) (g : Smemo.Memo.group)
    (extreq : Extreq.t) ~self ~log_phys_opt =
  if t.Optimizer.phase <> 2 then None
  else
    match
      (g.Smemo.Memo.shared, Extreq.enforcement extreq g.Smemo.Memo.id)
    with
    | true, Some pinned ->
        (* pinned shared group: one base plan under the enforced
           properties, shared by every consumer; per-consumer enforcers on
           top when the original requirement asks for more *)
        if Sobs.Trace.enabled () then
          Sobs.Trace.instant ~pid:Sobs.Trace.pid_phase2
            ~args:
              [
                ("group", Sobs.Trace.Int g.Smemo.Memo.id);
                ("props", Sobs.Trace.Str (Fmt.str "%a" Reqprops.pp pinned));
              ]
            "pinned.shared";
        let inner =
          pinned_inner state g.Smemo.Memo.id pinned extreq.Extreq.enforce
        in
        Some
          (match self g inner with
          | None -> None
          | Some base -> compensate t g extreq.Extreq.req base)
    | _ ->
        let si = shared_info state in
        let lcas = Shared_info.lca_groups si g.Smemo.Memo.id in
        let to_assign =
          List.filter
            (fun s ->
              Extreq.enforcement extreq s = None
              && History.entries state.history s <> [])
            lcas
        in
        if to_assign = [] then None
        else Some (run_rounds state t g extreq to_assign ~self ~log_phys_opt)

let make_ext state : Optimizer.ext =
  {
    Optimizer.before_optimize = before_optimize state;
    child_extreq = child_extreq state;
    intercept = intercept state;
    after_winner = after_winner state;
  }

(* --- the full two-phase optimization of a memo with spools ------------ *)

type outcome = {
  plan : Plan.t option;
  phase1_plan : Plan.t option;
  state : state;
  budget : Budget.t;
  winner_hits : int;
  rule_firings : int;
}

let optimize ?(config = Config.default) ?budget ~cluster
    (memo : Smemo.Memo.t) : outcome =
  let state = create config in
  let t = Optimizer.create ?budget ~ext:(make_ext state) ~cluster memo in
  t.Optimizer.phase <- 1;
  let p1 =
    Sobs.Trace.with_span ~pid:Sobs.Trace.pid_phase1 "phase 1" (fun () ->
        Optimizer.optimize_root t)
  in
  (* Step 3: propagate shared-group info and identify LCAs *)
  let si =
    Sobs.Trace.with_span ~pid:Sobs.Trace.pid_phase2
      "shared-info (Algorithm 3)" (fun () -> Shared_info.compute memo)
  in
  state.si <- Some si;
  Log.info (fun m ->
      m "phase 1 done (%d tasks); LCAs: %s" t.Optimizer.budget.Budget.tasks
        (String.concat ", "
           (Hashtbl.fold
              (fun s l acc -> Fmt.str "%d->%d" s l :: acc)
              si.Shared_info.lca [])));
  t.Optimizer.phase <- 2;
  let p2 =
    Sobs.Trace.with_span ~pid:Sobs.Trace.pid_phase2 "phase 2" (fun () ->
        Optimizer.optimize_root t)
  in
  state.phase2_winner_reuse_hits <- t.Optimizer.phase2_winner_hits;
  Log.info (fun m ->
      m "phase 2 done: %d rounds executed (%d pruned, %d aborted) at %d LCA \
         sites"
        state.rounds_executed state.rounds_pruned state.rounds_aborted_bound
        state.lca_sites);
  let best =
    match (p1, p2) with
    | Some a, Some b -> Some (if Optimizer.plan_le t b a then b else a)
    | Some a, None -> Some a
    | None, b -> b
  in
  {
    plan = best;
    phase1_plan = p1;
    state;
    budget = t.Optimizer.budget;
    winner_hits = t.Optimizer.winner_hits;
    rule_firings = t.Optimizer.rule_firings;
  }
