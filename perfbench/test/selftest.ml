(* The benchmark's own tests: per-layer counts repeat exactly for one seed,
   and a planted output mismatch is caught. *)

(* The harness's printout is not the test's: it goes to /dev/null. *)
let quietly f =
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Unix.dup2 null Unix.stdout;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close null;
      Unix.close saved)
    f

let run ?(plant = false) workload ops =
  quietly @@ fun () ->
  Pbench.Harness.run
    {
      Pbench.Harness.workload;
      seed = 3;
      seconds = infinity;
      trace = true;
      max_ops = Some ops;
      setup_reps = 1;
      plant;
      spans_file = None;
    }

(* ops per run: batch-ls2 runs one traced and one untraced op; the serve
   runs cross at least one catalog write on serve-churn *)
let cases = [ ("batch-ls2", 2); ("serve-hot", 60); ("serve-churn", 150) ]

let counts (r : Pbench.Harness.result) =
  List.filter_map
    (fun (m : Pbench.Harness.metric) ->
      if m.Pbench.Harness.unit = "count" || m.Pbench.Harness.name = "serve.hit_ratio" then
        Some (m.Pbench.Harness.name, m.Pbench.Harness.value)
      else None)
    r.Pbench.Harness.metrics

let failures = ref []
let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt

let () =
  List.iter
    (fun (w, ops) ->
      let a = run w ops and b = run w ops in
      if not (a.Pbench.Harness.correct && b.Pbench.Harness.correct) then
        fail "%s: a clean run reported errors" w;
      if a.Pbench.Harness.attempted <> b.Pbench.Harness.attempted then
        fail "%s: attempted %d vs %d" w a.Pbench.Harness.attempted b.Pbench.Harness.attempted;
      List.iter2
        (fun (name, x) (_, y) -> if x <> y then fail "%s: %s differs: %.17g vs %.17g" w name x y)
        (counts a) (counts b);
      if List.for_all (fun (_, v) -> v = 0.0) (counts a) then fail "%s: every count is 0" w;
      let planted = run ~plant:true w ops in
      let error_rate =
        float_of_int planted.Pbench.Harness.failed
        /. float_of_int (max 1 planted.Pbench.Harness.attempted)
      in
      if planted.Pbench.Harness.correct || error_rate <= 0.0 then
        fail "%s: a planted mismatch left error_rate at %g" w error_rate)
    cases;
  match !failures with
  | [] -> print_endline "selftest: ok"
  | fs ->
      List.iter (Printf.eprintf "selftest FAILED: %s\n") (List.rev fs);
      exit 1
