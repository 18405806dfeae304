module Make (Elt : Ordered.S) = struct
  type cell = Nil | Cons of Elt.t * cell

  type t = cell

  let empty = Nil

  (* Both constructors cons the cells back to front from the reversed input:
     one tail-recursive pass, so million-element images cannot overflow the
     stack. *)
  let of_sorted xs =
    List.fold_left
      (fun r x ->
        (match r with
        | Cons (next, _) when Elt.compare x next >= 0 ->
            invalid_arg "Plist.of_sorted: input not strictly ascending"
        | _ -> ());
        Cons (x, r))
      Nil (List.rev xs)

  let of_list xs =
    List.fold_left (fun r x -> Cons (x, r)) Nil
      (List.rev (List.sort Elt.compare xs))

  let to_list t =
    let rec go acc = function
      | Nil -> List.rev acc
      | Cons (x, r) -> go (x :: acc) r
    in
    go [] t

  let size t =
    let rec go n = function Nil -> n | Cons (_, r) -> go (n + 1) r in
    go 0 t

  let is_empty t = t = Nil

  let rec member x = function
    | Nil -> false
    | Cons (y, r) ->
        let c = Elt.compare x y in
        if c = 0 then true else if c < 0 then false else member x r

  let rec find p = function
    | Nil -> None
    | Cons (y, r) -> if p y then Some y else find p r

  let fold ?meter f acc t =
    let rec go acc = function
      | Nil -> acc
      | Cons (x, r) ->
          Meter.alloc meter 1;
          go (f acc x) r
    in
    go acc t

  let iter f t =
    let rec go = function
      | Nil -> ()
      | Cons (x, r) ->
          f x;
          go r
    in
    go t

  let range_fold ?meter ~ge_lo ~le_hi f acc t =
    (* A list has no index: the prefix below the lower bound must still be
       walked (and is metered), but the scan stops at the first element past
       the upper bound, so a tight range near the front is cheap. *)
    let rec go acc = function
      | Nil -> acc
      | Cons (x, r) ->
          Meter.alloc meter 1;
          if not (ge_lo x) then go acc r
          else if le_hi x then go (f acc x) r
          else acc
    in
    go acc t

  let rewrite ?meter ~ge_lo ~le_hi f t =
    let count = ref 0 in
    let rec go = function
      | Nil -> Nil
      | Cons (x, r) as whole ->
          if not (le_hi x) then whole
          else
            let x' =
              if ge_lo x then
                match f x with
                | None -> x
                | Some y ->
                    if Elt.compare y x <> 0 then
                      invalid_arg "Plist.rewrite: replacement reorders element";
                    incr count;
                    y
              else x
            in
            let r' = go r in
            if x' == x && r' == r then whole
            else begin
              Meter.alloc meter 1;
              Cons (x', r')
            end
    in
    let t' = go t in
    (t', !count)

  let insert ?meter x t =
    let rec go = function
      | Nil ->
          Meter.alloc meter 1;
          Cons (x, Nil)
      | Cons (y, r) as whole ->
          if Elt.compare x y <= 0 then begin
            Meter.alloc meter 1;
            Cons (x, whole)
          end
          else begin
            Meter.alloc meter 1;
            Cons (y, go r)
          end
    in
    go t

  let delete ?meter x t =
    let rec go = function
      | Nil -> (Nil, false)
      | Cons (y, r) ->
          let c = Elt.compare x y in
          if c = 0 then (r, true)
          else if c < 0 then (Cons (y, r), false)
          else begin
            let (r', found) = go r in
            if found then begin
              Meter.alloc meter 1;
              (Cons (y, r'), true)
            end
            else (Cons (y, r), false)
          end
    in
    go t

  let apply_sorted changes t =
    (* [acc] is the rebuilt prefix, newest first; the list past the last
       change is shared. *)
    let rec go acc changes t =
      match changes with
      | [] -> List.fold_left (fun r x -> Cons (x, r)) t acc
      | (p, put) :: rest -> (
          match t with
          | Cons (y, r) when Elt.compare y p < 0 -> go (y :: acc) changes r
          | _ ->
              (match rest with
              | (q, _) :: _ when Elt.compare q p <= 0 ->
                  invalid_arg "Plist.apply_sorted: changes not strictly ascending"
              | _ -> ());
              let t =
                match t with Cons (y, r) when Elt.compare y p = 0 -> r | _ -> t
              in
              go (match put with Some x -> x :: acc | None -> acc) rest t)
    in
    go [] changes t

  let walk t rest = match t with Nil -> rest | Cons _ -> Walk.Node (t, rest)

  let open_cell t rest =
    match t with Nil -> rest | Cons (x, r) -> Walk.Item (x, walk r rest)

  let diff ~equal ~removed ~added acc ~old t =
    Walk.fold_diff ~open_:open_cell ~compare:Elt.compare ~equal ~removed ~added
      acc (walk old Walk.End) (walk t Walk.End)

  let shared_cells ~old t =
    (* Walk the new spine and test physical membership of each Cons cell in
       the old spine ([Nil] is an immediate value, not a cell).  Suffix
       sharing means that once a shared cell is found the rest is shared
       too, but we verify cell by cell to keep the measurement
       assumption-free. *)
    let rec mem_phys cell = function
      | Nil -> false
      | Cons (_, r) as c -> cell == c || mem_phys cell r
    in
    let rec go shared total = function
      | Nil -> (shared, total)
      | Cons (_, r) as c ->
          let shared = if mem_phys c old then shared + 1 else shared in
          go shared (total + 1) r
    in
    go 0 0 t

  let invariant t =
    let rec go = function
      | Nil | Cons (_, Nil) -> true
      | Cons (x, (Cons (y, _) as r)) -> Elt.compare x y <= 0 && go r
    in
    go t
end
