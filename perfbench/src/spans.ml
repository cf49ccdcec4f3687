(* The benchmark's own tracer: spans recorded around the public calls the
   benchmark makes into each layer, kept in memory and written out when
   the run ends.  A span's self time is its duration minus the part its
   children cover.  Besides timed children, a span can carry derived
   children: durations the library reports in typed fields (executor
   wall, optimizer times) for work that ran inside a call the benchmark
   cannot split from outside. *)

type span = {
  id : int;
  parent : int;  (* -1 for a root *)
  op : int;  (* traced unit the span belongs to *)
  name : string;
  start : float;
  stop : float;
  derived : bool;  (* duration from a typed field, not a clock *)
}

let now = Unix.gettimeofday
let recorded : span list ref = ref []
let next_id = ref 0
let open_stack : int list ref = ref []
let current_op = ref 0

let reset () =
  recorded := [];
  next_id := 0;
  open_stack := [];
  current_op := 0

let fresh_id () =
  let id = !next_id in
  incr next_id;
  id

let parent () = match !open_stack with p :: _ -> p | [] -> -1

let record ~id ~parent ~name ~start ~stop ~derived =
  recorded :=
    { id; parent; op = !current_op; name; start; stop; derived } :: !recorded

let with_span name f =
  let id = fresh_id () in
  let parent = parent () in
  open_stack := id :: !open_stack;
  let start = now () in
  Fun.protect
    ~finally:(fun () ->
      let stop = now () in
      open_stack := List.tl !open_stack;
      record ~id ~parent ~name ~start ~stop ~derived:false)
    f

(* A traced unit: a root span with a fresh op id. *)
let root name f =
  incr current_op;
  with_span name f

(* A child of the innermost open span whose duration the library
   measured itself. *)
let derived name seconds =
  let id = fresh_id () in
  record ~id ~parent:(parent ()) ~name ~start:0.0 ~stop:(Float.max 0.0 seconds)
    ~derived:true

let duration s = s.stop -. s.start
let spans () = List.rev !recorded

(* Self time of every span, by id. *)
let self_times (all : span list) =
  let covered = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace covered s.parent
          (duration s
          +. Option.value ~default:0.0 (Hashtbl.find_opt covered s.parent)))
    all;
  List.map
    (fun s ->
      ( s,
        duration s -. Option.value ~default:0.0 (Hashtbl.find_opt covered s.id)
      ))
    all

(* Chrome trace-event JSON of the recorded spans (microseconds), derived
   spans placed at the start of their parent. *)
let to_json () =
  let all = spans () in
  let by_id = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) all;
  let t0 =
    List.fold_left
      (fun acc s -> if s.derived then acc else Float.min acc s.start)
      infinity all
  in
  let rec origin s =
    if not s.derived then s.start
    else
      match Hashtbl.find_opt by_id s.parent with
      | Some p -> origin p
      | None -> t0
  in
  let open Sobs.Json in
  let event s =
    Obj
      [
        ("name", Str s.name);
        ("ph", Str "X");
        ("pid", Num 1.0);
        ("tid", Num 1.0);
        ("ts", Num (1e6 *. (origin s -. t0)));
        ("dur", Num (1e6 *. duration s));
        ( "args",
          Obj
            [
              ("id", Num (float_of_int s.id));
              ("parent", Num (float_of_int s.parent));
              ("op", Num (float_of_int s.op));
              ("derived", Bool s.derived);
            ] );
      ]
  in
  Sobs.Json.to_string (Obj [ ("traceEvents", Arr (List.map event all)) ])
