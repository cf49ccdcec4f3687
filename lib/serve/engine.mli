(** The long-running serve engine: a stream of script submissions, a
    fingerprint-keyed plan cache, cross-script CSE detection over a
    combined memo, and one persistent executor.

    Submissions accumulate with {!submit} and are processed by
    {!flush}: each script is normalized and looked up in the cache
    (hits skip bind/optimize and re-execute the cached plan; misses are
    solo-optimized and cached), and when a batch carries two or more
    distinct misses their scripts are combined into one memo so
    structurally identical subexpressions spool once across scripts in
    a single executor run.  Combined plans are never cached — a cache
    entry always describes the script alone.

    Each engine keeps its counts in its own {!Sobs.Metrics} registry
    ({!metrics}): sessions submitted and failed, cache
    hits/misses/invalidations, combined runs and cross-script spool
    shares, per-path session latency histograms
    ([serve.session_seconds{path=hit|share|miss}]), cache occupancy
    gauges ([serve.cache_size], [serve.cache_hit_ratio]) and per-tenant
    traffic counters ([serve.tenant_*{tenant=...}]).  The executor
    records into the same registry: its [exec.stage_seconds],
    [exec.stage_rows] and [exec.batch_rows] histograms and, with
    [~profile], [exec.kernel_seconds{kernel,stage}].  It is the one
    registry {!totals}, the [#stats] verb, [--stats-file] exposition and
    the SA046 consistency audit read. *)

type status =
  | Done of { cache_hit : bool; combined : bool }
      (** executed; [combined] means the outputs came from the shared
          cross-script run rather than the solo plan *)
  | Failed of string  (** parse/bind/optimize failure, session-local *)

type session_result = {
  id : string;
  fingerprint : int option;  (** [None] when parsing failed *)
  status : status;
  conventional_cost : float;  (** solo estimate from the cache entry *)
  cse_cost : float;
  outputs : (string * Relalg.Table.t) list;  (** statement order *)
  rows : int;  (** total rows across outputs *)
}

type batch_result = {
  seq : int;  (** 1-based batch number *)
  results : session_result list;  (** submission order *)
  combined : bool;
  combined_cost : float option;  (** DAG cost of the combined plan *)
  solo_cost_sum : float option;
      (** what the combined members would have cost run separately *)
  cross_script_shares : int;  (** spools read by two or more sessions *)
  wall_s : float;  (** executor wall seconds, summed over the runs *)
  attempts : int array list;
      (** per-run stage-attempt arrays, for the trace audit *)
  reports : Cse.Pipeline.report list;
      (** distinct optimizations behind this batch — one per distinct
          fingerprint (cached plans included) plus the combined run;
          the audit targets *)
}

type t

(** [create catalog] builds an engine with an empty cache and a
    persistent executor.  [max_tasks]/[max_seconds] bound each
    optimization with a fresh budget (budgets are mutable and cannot be
    shared across runs).  [workers]/[batch_size] configure the
    executor's domain pool and columnar batch granularity.  [faults]
    injects deterministic partition losses into every executor run
    (recovery drills; exhaustion propagates out of {!flush} so the
    caller can dump the flight recorder).  [profile] turns on the
    executor's kernel profiler. *)
val create :
  ?config:Cse.Config.t ->
  ?max_tasks:int ->
  ?max_seconds:float ->
  ?cluster:Scost.Cluster.t ->
  ?workers:int ->
  ?batch_size:int ->
  ?faults:Sexec.Faults.spec ->
  ?profile:bool ->
  Relalg.Catalog.t ->
  t

val cache : t -> Plan_cache.t

(** The engine's metrics registry (session and cache counters, latency
    histograms, cache gauges, per-tenant counters).  The cache gauges
    are refreshed after every flush and catalog bump, so they always
    match {!cache}. *)
val metrics : t -> Sobs.Metrics.t

(** Queue a script; nothing runs until {!flush}.  [tenant] (default
    ["default"]) attributes the submission in the per-tenant traffic
    counters. *)
val submit : ?tenant:string -> t -> id:string -> text:string -> unit

val pending_count : t -> int

(** Advance the catalog's statistics epoch and purge now-stale cache
    entries; returns the number purged (booked as
    [serve.cache_invalidations]). *)
val catalog_bump : t -> int

(** Process everything pending as one batch; [None] if nothing was
    pending. *)
val flush : t -> batch_result option

type totals = {
  sessions : int;
  batches : int;
  cache_hits : int;
  cache_misses : int;
  cache_invalidations : int;
  cache_size : int;
  combined_runs : int;
  cross_script_shares : int;
}

(** This engine's lifetime figures, read from its {!metrics} registry,
    its batch count and its cache. *)
val totals : t -> totals
