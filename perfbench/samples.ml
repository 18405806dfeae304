type t = {
  mutable data : int array;
  mutable len : int;
  mutable stride : int;  (* keep every [stride]-th added value *)
  mutable seen : int;
}

let create ?(capacity = 1 lsl 20) () =
  if capacity < 2 || capacity land 1 = 1 then
    invalid_arg "Samples.create: capacity must be even and >= 2";
  { data = Array.make capacity 0; len = 0; stride = 1; seen = 0 }

(* Keep the values at even positions: they are exactly the added values
   whose index is a multiple of the doubled stride. *)
let halve t =
  let half = t.len / 2 in
  for i = 0 to half - 1 do
    t.data.(i) <- t.data.(2 * i)
  done;
  t.len <- half;
  t.stride <- 2 * t.stride

let add t x =
  if t.seen mod t.stride = 0 then begin
    if t.len = Array.length t.data then halve t;
    if t.seen mod t.stride = 0 then begin
      t.data.(t.len) <- x;
      t.len <- t.len + 1
    end
  end;
  t.seen <- t.seen + 1

let to_sorted t =
  let a = Array.sub t.data 0 t.len in
  Array.sort compare a;
  a

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Samples.percentile: no samples";
  let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
  sorted.(max 1 (min n rank) - 1)

let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Samples.median: no values";
  let a = Array.copy xs in
  Array.sort compare a;
  if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let slope pts =
  let n = float_of_int (Array.length pts) in
  if n < 2.0 then 0.0
  else
    let (sx, sy) =
      Array.fold_left (fun (sx, sy) (x, y) -> (sx +. x, sy +. y)) (0.0, 0.0) pts
    in
    let (mx, my) = (sx /. n, sy /. n) in
    let (sxy, sxx) =
      Array.fold_left
        (fun (sxy, sxx) (x, y) ->
          (sxy +. ((x -. mx) *. (y -. my)), sxx +. ((x -. mx) *. (x -. mx))))
        (0.0, 0.0) pts
    in
    if sxx = 0.0 then 0.0 else sxy /. sxx
