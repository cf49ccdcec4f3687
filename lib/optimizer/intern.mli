(** Interned integer ids for normalized extended requirements.

    Winner-table keys used to be canonical strings rebuilt on every
    {!Optimizer.optimize_group} call; interning assigns each distinct
    normalized {!Extreq.t} a small integer once, making the per-call work
    a single structural hash lookup over int-keyed tables.

    The table is global and append-only: ids denote structural
    requirement values.  Group ids inside enforcement maps are only
    meaningful within one memo, but winner tables are per-group, so ids
    never leak winners across memos. *)

(** The id of a requirement, allocating a fresh one on first sight.
    The argument must be normalized ({!Extreq.normalize}): ids are
    assigned per distinct structural value, and an un-normalized
    enforcement list would intern as a different requirement. *)
val id : Extreq.t -> int

(** The requirement a given id was assigned to, if any. *)
val lookup : int -> Extreq.t option

(** Number of distinct requirements interned so far.  Every lookup that
    allocates a fresh id grows it by one, so a run's growth is its
    miss count. *)
val size : unit -> int
