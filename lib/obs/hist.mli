(** Log-bucketed histograms in a named process-global registry.

    Observations are bucketed by their binary exponent into power-of-two
    buckets spanning [2{^-41}..2{^39}] (seconds, rows, anything
    positive); zero and negatives fall into the lowest bucket, and
    non-finite observations are clamped to zero rather than poisoning
    the tracked extremes.  Recording is lock-free and domain-safe: one
    atomic bucket increment plus CAS-maintained running sum, min and
    max. *)

type t

type summary = {
  count : int;
  sum : float;
  p50 : float;
      (** upper bound of the median bucket, clamped into [[min, max]]:
          0 observations report 0, a single observation reports itself *)
  p90 : float;
  min : float;  (** exact smallest observation; 0 when empty *)
  max : float;  (** exact largest observation; 0 when empty *)
  buckets : (float * int) list;
      (** nonzero buckets as [(upper_bound, count)], ascending *)
}

(** Find or register the histogram named [name]. *)
val hist : string -> t

(** A free-standing histogram, not in the global registry — the building
    block for label-scoped registries ({!Metrics}) whose lifecycle the
    caller owns. *)
val make : string -> t

(** Record one observation.  Domain-safe. *)
val observe : t -> float -> unit

val name : t -> string
val summarize : t -> summary

(** Zero one histogram (registered or not). *)
val reset : t -> unit

(** All registered histograms with at least one observation, sorted by
    name. *)
val snapshot : unit -> (string * summary) list

(** Zero every registered histogram (tests, repeated bench runs). *)
val reset_all : unit -> unit

(** Render the nonempty registry, one line per histogram, inside an
    open vertical box. *)
val pp : Format.formatter -> unit -> unit
