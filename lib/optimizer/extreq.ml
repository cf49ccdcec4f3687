open Sphys

(* Extended required properties (Section VII): the conventional requirement
   plus [PropForSharedGrps] -- the property sets to be enforced at shared
   groups encountered below, keyed by group id. *)

type t = { req : Reqprops.t; enforce : (int * Reqprops.t) list }

let plain req = { req; enforce = [] }

(* Enforcement maps hold one entry per group, and most arrive already in
   group order (they are built from normalized maps), so the sort is
   skipped when the group ids already strictly increase: that is exactly
   the list [sort_uniq] would return. *)
let normalize t =
  let rec ordered = function
    | (a, _) :: ((b, _) :: _ as rest) -> a < b && ordered rest
    | _ -> true
  in
  if ordered t.enforce then t
  else { t with enforce = List.sort_uniq Stdlib.compare t.enforce }

let enforcement t gid = List.assoc_opt gid t.enforce

let with_req t req = { t with req }

let pp ppf t =
  Fmt.pf ppf "%a" Reqprops.pp t.req;
  if t.enforce <> [] then
    Fmt.pf ppf " enforce{%s}"
      (String.concat "; "
         (List.map
            (fun (g, p) -> Fmt.str "%d↦%a" g Reqprops.pp p)
            t.enforce))

let to_string t = Fmt.str "%a" pp t
