(* What the harness needs from a workload: a set-up that returns a ready
   instance, and one timed unit of work at a time. *)

(* One unit of a closed loop: a compile-and-run (batch-ls2), a flushed
   batch of sessions or a catalog write (serve). *)
type outcome = {
  timed_s : float;  (* wall counted towards throughput *)
  ops : int;  (* ops completed: sessions, or one compile-and-run *)
  latency_s : float;  (* latency of each op of the unit *)
  failed : int;
      (* failed sessions, ops whose outputs differ from the reference, and
         ops that break a checked invariant *)
  est_cost : float;  (* estimated cost of the plans the unit executed *)
}

type instance = {
  properties : string list;
      (* input properties, to show the workload has the one it was chosen
         for *)
  step : traced:bool -> outcome;
      (* [traced]: record spans around the public calls, and count the
         unit's work in [layers] *)
  layers : unit -> (string * float * string) list;
      (* per-layer counts and ratios read from typed public fields, as
         (name, value, unit), over the traced units *)
  state_words : unit -> int;
      (* heap words reachable from the program's state: the engine, and
         in batch-ls2 the last op's report and outputs; not the
         benchmark's inputs or reference outputs *)
  notes : unit -> string list;  (* errors found, and traced-run findings *)
}

type t = {
  name : string;
  why : string;
  unit_name : string;  (* what one traced unit is *)
  heap_at_ops : int;
      (* ops after which [state_words] is read: a fixed amount of work,
         so a faster program does not read as a bigger one where the
         state grows with the work done *)
  setup : seed:int -> plant:bool -> instance;
      (* input generation, catalog registration, engine creation,
         reference outputs and warm-up; [plant] corrupts the outputs of
         every op before they are checked *)
}

(* Per-traced-unit sums of named counts, reported as means. *)
module Tally = struct
  type t = { sums : (string, float) Hashtbl.t; mutable units : int }

  let create () = { sums = Hashtbl.create 32; units = 0 }

  let add t name v =
    Hashtbl.replace t.sums name
      (v +. Option.value ~default:0.0 (Hashtbl.find_opt t.sums name))

  let get t name = Option.value ~default:0.0 (Hashtbl.find_opt t.sums name)

  let mean t name =
    if t.units = 0 then 0.0 else get t name /. float_of_int t.units
end
