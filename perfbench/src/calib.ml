(* Host-speed calibration.  The shared host this benchmark runs on changes
   speed by a third from one second to the next, and for minutes at a
   time, so the same op's wall time drifts between runs far more than any
   change worth measuring.  The speed holds over a fraction of a second,
   though.  So the harness runs a fixed probe between units of work and
   scales each unit's wall by how fast the probe ran beside it: a time
   reported in reference seconds is the wall the unit would have taken on
   a host where the probe takes [reference_s].

   The probe builds a string-keyed map and looks every key up: small
   allocations, a minor collection, pointer chasing and string compares,
   the mix the optimizer and the executor run on.  Probes that missed the
   host's slow spells were tried and dropped: a register-only multiply
   chain (the spells hit caches and memory more than the ALU), and reads
   from a buffer larger than the caches (they measured what the program
   had left in the caches, not the host).  The probe runs only stdlib
   code, so no change to the program can make it faster or slower except
   through the GC's global settings. *)

module M = Map.Make (String)

let size = 4096
let keys = Array.init size (fun i -> Printf.sprintf "calibration-key-%d" i)

let probe () =
  let m = ref M.empty in
  (* an odd multiplier visits every key once, in a scrambled order *)
  for i = 0 to size - 1 do
    m := M.add keys.((i * 2654435761) land (size - 1)) i !m
  done;
  let s = ref 0 in
  Array.iter (fun k -> s := !s + M.find k !m) keys;
  !s

(* What the probe takes at the reference speed: about its median wall on
   a 2-vCPU x86-64 VM.  It only sets the scale of the reported times. *)
let reference_s = 3.0e-3

(* Wall of one calibration: the median of three probes after an untimed
   one, so neither a cold cache nor a single interrupted probe sets it. *)
let sample () =
  let once () =
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (probe ()));
    Unix.gettimeofday () -. t0
  in
  ignore (once ());
  let a = once () in
  let b = once () in
  let c = once () in
  Float.max (Float.min a b) (Float.min (Float.max a b) c)

(* The factor that turns a wall measured between two calibrations into
   reference time. *)
let factor ~before ~after = reference_s /. (0.5 *. (before +. after))
