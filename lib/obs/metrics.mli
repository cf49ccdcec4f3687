(** A typed registry of named counters, gauges and histograms with
    label sets, snapshot-able and exposable.

    A registry is an explicit value (one per executor engine; a serve
    engine shares its own with its executor) rather than a
    process-global table, so long-running engines and tests can
    snapshot and reset their own metrics in isolation.  After the one locked get-or-create per
    [(name, labels)] series, recording is a plain [Atomic] operation
    (or a {!Hist} observation): lock-free and domain-safe.  Hot paths
    should resolve the instrument handle once and hold it.

    Labels are normalized (key-sorted) at registration, so label order
    never splits a series.  Keep label values in small closed sets
    (tenant, phase, kernel, stage, path) — never per-session or
    per-query ids, which would grow the registry without bound. *)

type labels = (string * string) list

type value =
  | Count of int  (** counter reading *)
  | Value of float  (** gauge reading *)
  | Dist of Hist.summary  (** histogram summary *)

type row = { name : string; labels : labels; value : value }

type t

val create : unit -> t

(** Find or register; raises [Invalid_argument] when the series exists
    with a different instrument kind. *)

val counter : t -> ?labels:labels -> string -> int Atomic.t

val gauge : t -> ?labels:labels -> string -> float Atomic.t

val histogram : t -> ?labels:labels -> string -> Hist.t

(** {1 One-shot recording} (resolves the handle each call) *)

val bump : t -> ?labels:labels -> ?by:int -> string -> unit

val set : t -> ?labels:labels -> string -> float -> unit

val observe : t -> ?labels:labels -> string -> float -> unit

(** Current reading of a counter; 0 when the series does not exist (or
    is not a counter). *)
val get : t -> ?labels:labels -> string -> int

(** {1 Snapshots and exposition} *)

(** Every registered series, sorted by name then labels. *)
val snapshot : t -> row list

(** Zero every instrument, keeping the series registered. *)
val reset : t -> unit

(** Prometheus-style text: [# TYPE] declarations, one sample per
    counter/gauge, summary-style quantile + [_count] + [_sum] samples
    per histogram.  Metric and label names are sanitized to
    [[a-zA-Z0-9_:]]. *)
val to_prom : row list -> string

(** JSON array of row objects (dependency-free, via {!Json}). *)
val to_json : row list -> Json.t

(** [name{k=v,...}] rendering of a series. *)
val full_name : string -> labels -> string
