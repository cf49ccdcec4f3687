(* Correctness checks, run outside the timed region: outputs against the
   reference evaluator, and the paper's phase-2 invariant. *)

let reference catalog script =
  Sexec.Reference.run catalog
    (Slogical.Binder.bind ~catalog (Slang.Parser.parse_script script))

(* The same OUTPUT files in the same order, each with the same multiset of
   rows as the reference. *)
let same_outputs expected actual =
  List.length expected = List.length actual
  && List.for_all2
       (fun (fe, te) (fa, ta) ->
         String.equal fe fa && Relalg.Table.same_contents te ta)
       expected actual

(* The planted mismatch of the self-test: one extra output file, which no
   correct comparison can accept. *)
let plant outputs = outputs @ [ ("planted", Relalg.Table.empty []) ]

(* Phase 2 never costs more than phase 1 (the same tolerance the repo's
   own tests use). *)
let phase2_within_phase1 ~cse_cost phase1_plan =
  cse_cost <= Scost.Dagcost.cost Scost.Cluster.default phase1_plan +. 1e-6
