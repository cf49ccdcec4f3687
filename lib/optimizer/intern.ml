(* Interned integer ids for normalized extended requirements.

   The optimizer keys every winner-table lookup by (phase, extended
   requirement).  Building a canonical string for the requirement on every
   [optimize_group] call -- the hot path of the whole optimizer -- used to
   allocate and hash a fresh key per call.  Interning maps each distinct
   normalized [Extreq.t] to a small integer once, so the per-call work is
   one structural hash lookup and the winner tables become int-keyed.

   The table is global: ids denote structural requirement values, not
   memo-specific state.  Group ids inside enforcement maps are only
   meaningful within one memo, but winner tables are per-group, so a
   requirement interned while optimizing one memo can never be confused
   with another memo's winners. *)

let ids : (Extreq.t, int) Hashtbl.t = Hashtbl.create 256
let back : (int, Extreq.t) Hashtbl.t = Hashtbl.create 256

let id (extreq : Extreq.t) : int =
  match Hashtbl.find_opt ids extreq with
  | Some i -> i
  | None ->
      let i = Hashtbl.length ids in
      Hashtbl.add ids extreq i;
      Hashtbl.add back i extreq;
      i

let lookup i = Hashtbl.find_opt back i
let size () = Hashtbl.length ids
