(** The re-optimization framework (Algorithms 4 and 5), realized as an
    extension of the generic engine:

    - phase 1 records the property history of shared groups (Section V);
    - the enforcement map propagates downwards, pruned to paths that still
      lead to an enforced shared group (Algorithm 5);
    - at a shared group with a pinned property set, one base plan is
      optimized under the pinned properties — every consumer shares the
      identical materialization — and per-consumer enforcers compensate on
      top (the Sort above the spool in Figure 8(b));
    - at an LCA, one round per property combination runs and the cheapest
      result is kept, subject to the budget (Section VIII controls
      enumeration); under the round bound, a round whose pinned base plans
      plus region floor already lose to the incumbent is screened out
      before the LCA is re-optimized. *)

type state = {
  config : Config.t;
  history : History.t;
  mutable si : Shared_info.t option;
  mutable rounds_executed : int;
  mutable rounds_naive : int;  (** full-product round count (ablation) *)
  mutable rounds_sequential : int;  (** VIII-A round count, before pruning *)
  mutable rounds_pruned : int;
      (** sequential rounds removed by dominance filtering *)
  mutable rounds_aborted_bound : int;
      (** rounds cut short by the branch-and-bound incumbent check or
          screened out before re-optimization *)
  mutable phase2_winner_reuse_hits : int;
      (** winner-cache hits during phase 2 (cross-round reuse) *)
  mutable pruned_props : (int * (Sphys.Reqprops.t * Sphys.Reqprops.t) list) list;
      (** shared group -> (dropped, kept dominator) pairs (SA060 audit) *)
  mutable lca_sites : int;
  floors : (int * Sphys.Reqprops.t, float) Hashtbl.t;
      (** round-screen floor per (group, requirement), memoized for the
          whole optimization *)
}

val create : Config.t -> state

(** The computed shared-group information; raises before phase 2. *)
val shared_info : state -> Shared_info.t

(** The hook record plugging the framework into the engine. *)
val make_ext : state -> Sopt.Optimizer.ext

(** Layer enforcers on a pinned base plan until the requirement holds. *)
val compensate :
  Sopt.Optimizer.t ->
  Smemo.Memo.group ->
  Sphys.Reqprops.t ->
  Sphys.Plan.t ->
  Sphys.Plan.t option

type outcome = {
  plan : Sphys.Plan.t option;  (** best of both phases *)
  phase1_plan : Sphys.Plan.t option;
  state : state;
  budget : Sopt.Budget.t;
  winner_hits : int;  (** winner-cache hits over both phases *)
  rule_firings : int;  (** exploration rules fired over both phases *)
}

(** Run both optimization phases over a memo already prepared by
    {!Spool.identify}. *)
val optimize :
  ?config:Config.t ->
  ?budget:Sopt.Budget.t ->
  cluster:Scost.Cluster.t ->
  Smemo.Memo.t ->
  outcome
