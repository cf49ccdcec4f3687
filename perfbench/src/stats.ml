(* Order statistics over samples: linear interpolation between closest
   ranks. *)

let quantile q (xs : float list) =
  match List.sort Float.compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let lo = int_of_float pos in
      let hi = min (n - 1) (lo + 1) in
      let frac = pos -. float_of_int lo in
      a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs
let sum xs = List.fold_left ( +. ) 0.0 xs

let mean xs =
  match xs with [] -> nan | _ -> sum xs /. float_of_int (List.length xs)

let stdev xs =
  let n = List.length xs in
  if n < 2 then 0.0
  else
    let m = mean xs in
    sqrt (sum (List.map (fun x -> (x -. m) ** 2.0) xs) /. float_of_int (n - 1))

(* Samples strictly above [v]. *)
let beyond v xs = List.length (List.filter (fun x -> x > v) xs)

(* A growable buffer of samples, stored unboxed so that a long run's
   samples add little to the heap the benchmark reports. *)
module Buf = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 1024 0.0; len = 0 }

  let add b x =
    if b.len = Array.length b.data then begin
      let bigger = Array.make (2 * b.len) 0.0 in
      Array.blit b.data 0 bigger 0 b.len;
      b.data <- bigger
    end;
    b.data.(b.len) <- x;
    b.len <- b.len + 1

  let to_list b = Array.to_list (Array.sub b.data 0 b.len)
end
