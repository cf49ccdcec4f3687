(* Per-kernel batch-time profiling hooks for the vectorized executor.

   Stateless: where timings go is the engine's own setting — [Some
   registry] when the engine was created with [~profile:true], [None]
   otherwise.  Like [Sobs.Trace], every disabled entry point is one
   match and a branch — no allocation, no clock read — so the hooks
   live inside [Engine.execute_stage]'s kernel branches without costing
   production runs anything.  Enabled, each kernel execution records
   its wall seconds into an [exec.kernel_seconds] histogram labeled by
   kernel and stage in that registry.

   Timing wraps only the kernel work (after the operator's children
   have been evaluated), so a kernel's distribution is its own cost,
   not its subtree's.  Profiling never touches outputs or the exec.*
   counters: enabling it is observationally pure — the determinism
   matrix in test_exec runs one profiled column to prove it. *)

type t = Sobs.Metrics.t option

(* Kernel timestamps: 0.0 (static, no allocation) when disabled. *)
let now (p : t) = match p with None -> 0.0 | Some _ -> Unix.gettimeofday ()

let note (p : t) ~kernel ~stage t0 =
  match p with
  | None -> ()
  | Some registry ->
      Sobs.Metrics.observe registry "exec.kernel_seconds"
        ~labels:[ ("kernel", kernel); ("stage", string_of_int stage) ]
        (Unix.gettimeofday () -. t0)
