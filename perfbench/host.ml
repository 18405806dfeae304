type t = { times : int array; mutable recorded : int }

let reference_ns = 80_000.0
let size = 4_096
let iterations = 40_000
let table = Domain.DLS.new_key (fun () -> Array.make size 0)

(* Touch every entry, so the timed walk starts with [t] in cache whatever
   ran before it. *)
let warm t =
  let s = ref 0 in
  for j = 0 to size - 1 do
    s := !s + t.(j)
  done;
  t.(0) <- t.(0) + (!s land 1)

(* A linear congruential walk over [t]: one multiply-add, one read and one
   write per step, the index taken from the generator's high bits. *)
let walk t =
  let x = ref 12345 in
  for i = 1 to iterations do
    let j = (!x lsr 17) land (size - 1) in
    t.(j) <- t.(j) + i;
    x := (!x * 25_214_903_917) + 11
  done

let chunk ~clock =
  let t = Domain.DLS.get table in
  warm t;
  let s = clock () in
  walk t;
  clock () - s

let create ~window = { times = Array.make window 0; recorded = 0 }

let record t d =
  t.times.(t.recorded mod Array.length t.times) <- d;
  t.recorded <- t.recorded + 1

let reset t = t.recorded <- 0

let scale t =
  let n = min t.recorded (Array.length t.times) in
  if n = 0 then 1.0
  else reference_ns /. Samples.median (Array.init n (fun i -> float_of_int t.times.(i)))
