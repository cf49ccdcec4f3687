(** Per-kernel batch-time profiling hooks for the vectorized executor.

    Stateless: an engine created with [~profile:true] passes its own
    {!Sobs.Metrics} registry, one created without passes [None].  Every
    disabled entry point is one match and a branch — no allocation, no
    clock read — so the hooks stay in the executor's kernel branches at
    zero production cost.  Enabled, each kernel execution lands its wall
    seconds in an [exec.kernel_seconds] histogram labeled [kernel] and
    [stage].  Profiling never changes outputs or counters. *)

(** Where kernel timings go; [None] disables profiling. *)
type t = Sobs.Metrics.t option

(** Timestamp for a kernel about to run; [0.0] (no clock read, no
    allocation) when disabled. *)
val now : t -> float

(** Record wall seconds since [t0] for one kernel execution of a stage.
    No-op when disabled. *)
val note : t -> kernel:string -> stage:int -> float -> unit
