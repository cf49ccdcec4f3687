(** Configuration of the CSE optimization framework; the [use_*] flags gate
    the Section VIII large-script extensions for ablation. *)

type t = {
  use_fingerprints : bool;
      (** merge structurally equal subexpressions (Algorithm 1, lines
          2-11); explicit sharing is always detected *)
  use_independent_groups : bool;  (** Section VIII-A *)
  use_group_ranking : bool;  (** Section VIII-B *)
  use_property_ranking : bool;  (** Section VIII-C *)
  subset_expansion_cap : int;
      (** ranges over more columns than this expand to full set +
          singletons + adjacent pairs instead of all subsets *)
  max_properties_per_group : int option;
      (** optional cap on the per-shared-group history used for rounds *)
  prune : bool;
      (** the three phase-2 pruning layers: dominance filtering of round
          candidates, branch-and-bound round aborts and round screening,
          and cross-round winner reuse keyed on the enforcement slice
          below a pinned group.  Off ([--no-prune]) enumerates every
          round exhaustively; chosen plans are byte-identical either
          way *)
  audit : bool;
      (** ask harnesses (tests, bench, CLI) to run the full static-analysis
          audit on every optimized plan; honored by the callers since the
          analysis library sits above this one *)
}

(** Everything on; expansion cap 4; no property cap; audit off. *)
val default : t

(** The base framework with all Section VIII extensions disabled. *)
val no_extensions : t
