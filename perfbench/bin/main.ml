(* The repo benchmark: runs one workload at one seed and prints every
   metric, then the result as one JSON line.  See ../README.md. *)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 and trace = ref 0 in
  let spans = ref "" in
  let names = List.map (fun (w : Pbench.Workload.t) -> w.Pbench.Workload.name) Pbench.Harness.workloads in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat " | " names);
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " timed wall to measure");
      ("--trace", Arg.Set_int trace, " 1: traced run, per-layer metrics");
      ("--spans", Arg.Set_string spans, " file a traced run writes its spans to");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  match
    Pbench.Harness.run
      {
        Pbench.Harness.workload = !workload;
        seed = !seed;
        seconds = !seconds;
        trace = !trace = 1;
        max_ops = None;
        setup_reps = 5;
        plant = false;
        spans_file = (if !spans = "" then None else Some !spans);
      }
  with
  | r ->
      print_endline (Pbench.Harness.json_line r);
      exit (if r.Pbench.Harness.correct then 0 else 1)
  | exception e ->
      prerr_endline ("perfbench: " ^ Printexc.to_string e);
      exit 2
