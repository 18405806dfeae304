module Make (Elt : Ordered.S) = struct
  type t =
    | Leaf
    | N2 of t * Elt.t * t
    | N3 of t * Elt.t * t * Elt.t * t

  let empty = Leaf

  let rec member x = function
    | Leaf -> false
    | N2 (l, a, r) ->
        let c = Elt.compare x a in
        if c = 0 then true else if c < 0 then member x l else member x r
    | N3 (l, a, m, b, r) ->
        let ca = Elt.compare x a in
        if ca = 0 then true
        else if ca < 0 then member x l
        else
          let cb = Elt.compare x b in
          if cb = 0 then true else if cb < 0 then member x m else member x r

  let rec find x = function
    | Leaf -> None
    | N2 (l, a, r) ->
        let c = Elt.compare x a in
        if c = 0 then Some a else if c < 0 then find x l else find x r
    | N3 (l, a, m, b, r) ->
        let ca = Elt.compare x a in
        if ca = 0 then Some a
        else if ca < 0 then find x l
        else
          let cb = Elt.compare x b in
          if cb = 0 then Some b else if cb < 0 then find x m else find x r

  (* -- insertion ---------------------------------------------------------- *)

  type grow = Done of t | Up of t * Elt.t * t

  let n2 ?meter l a r =
    Meter.alloc meter 1;
    N2 (l, a, r)

  let n3 ?meter l a m b r =
    Meter.alloc meter 1;
    N3 (l, a, m, b, r)

  let insert ?meter x t =
    let rec ins = function
      | Leaf -> Up (Leaf, x, Leaf)
      | N2 (l, a, r) as whole ->
          let c = Elt.compare x a in
          if c = 0 then Done whole
          else if c < 0 then begin
            match ins l with
            | Done l' -> if l' == l then Done whole else Done (n2 ?meter l' a r)
            | Up (t1, m, t2) -> Done (n3 ?meter t1 m t2 a r)
          end
          else begin
            match ins r with
            | Done r' -> if r' == r then Done whole else Done (n2 ?meter l a r')
            | Up (t1, m, t2) -> Done (n3 ?meter l a t1 m t2)
          end
      | N3 (l, a, m, b, r) as whole ->
          let ca = Elt.compare x a in
          if ca = 0 then Done whole
          else if ca < 0 then begin
            match ins l with
            | Done l' ->
                if l' == l then Done whole else Done (n3 ?meter l' a m b r)
            | Up (t1, mm, t2) ->
                Up (n2 ?meter t1 mm t2, a, n2 ?meter m b r)
          end
          else
            let cb = Elt.compare x b in
            if cb = 0 then Done whole
            else if cb < 0 then begin
              match ins m with
              | Done m' ->
                  if m' == m then Done whole else Done (n3 ?meter l a m' b r)
              | Up (t1, mm, t2) ->
                  Up (n2 ?meter l a t1, mm, n2 ?meter t2 b r)
            end
            else begin
              match ins r with
              | Done r' ->
                  if r' == r then Done whole else Done (n3 ?meter l a m b r')
              | Up (t1, mm, t2) ->
                  Up (n2 ?meter l a m, b, n2 ?meter t1 mm t2)
            end
    in
    match ins t with Done t' -> t' | Up (l, a, r) -> n2 ?meter l a r

  (* -- deletion ----------------------------------------------------------- *)

  (* [Short u] marks a subtree one level shorter than its siblings; the
     fix_* helpers restore uniform depth by rotation (sibling is an N3) or
     merging (sibling is an N2). *)
  type shrink = Ok2 of t | Short of t

  let fix2l ?meter l' a r =
    match l' with
    | Ok2 l -> Ok2 (n2 ?meter l a r)
    | Short l -> (
        match r with
        | N3 (rl, b, rm, c, rr) ->
            Ok2 (n2 ?meter (n2 ?meter l a rl) b (n2 ?meter rm c rr))
        | N2 (rl, b, rr) -> Short (n3 ?meter l a rl b rr)
        | Leaf -> assert false)

  let fix2r ?meter l a r' =
    match r' with
    | Ok2 r -> Ok2 (n2 ?meter l a r)
    | Short r -> (
        match l with
        | N3 (l1, b, l2, c, l3) ->
            Ok2 (n2 ?meter (n2 ?meter l1 b l2) c (n2 ?meter l3 a r))
        | N2 (l1, b, l2) -> Short (n3 ?meter l1 b l2 a r)
        | Leaf -> assert false)

  let fix3l ?meter l' a m b r =
    match l' with
    | Ok2 l -> Ok2 (n3 ?meter l a m b r)
    | Short l -> (
        match m with
        | N3 (m1, c, m2, d, m3) ->
            Ok2 (n3 ?meter (n2 ?meter l a m1) c (n2 ?meter m2 d m3) b r)
        | N2 (m1, c, m2) -> Ok2 (n2 ?meter (n3 ?meter l a m1 c m2) b r)
        | Leaf -> assert false)

  let fix3m ?meter l a m' b r =
    match m' with
    | Ok2 m -> Ok2 (n3 ?meter l a m b r)
    | Short m -> (
        match l with
        | N3 (l1, c, l2, d, l3) ->
            Ok2 (n3 ?meter (n2 ?meter l1 c l2) d (n2 ?meter l3 a m) b r)
        | N2 (l1, c, l2) -> Ok2 (n2 ?meter (n3 ?meter l1 c l2 a m) b r)
        | Leaf -> assert false)

  let fix3r ?meter l a m b r' =
    match r' with
    | Ok2 r -> Ok2 (n3 ?meter l a m b r)
    | Short r -> (
        match m with
        | N3 (m1, c, m2, d, m3) ->
            Ok2 (n3 ?meter l a (n2 ?meter m1 c m2) d (n2 ?meter m3 b r))
        | N2 (m1, c, m2) -> Ok2 (n2 ?meter l a (n3 ?meter m1 c m2 b r))
        | Leaf -> assert false)

  let rec take_min ?meter = function
    | Leaf -> assert false
    | N2 (Leaf, a, Leaf) -> (a, Short Leaf)
    | N3 (Leaf, a, Leaf, b, Leaf) -> (a, Ok2 (n2 ?meter Leaf b Leaf))
    | N2 (l, a, r) ->
        let (mn, l') = take_min ?meter l in
        (mn, fix2l ?meter l' a r)
    | N3 (l, a, m, b, r) ->
        let (mn, l') = take_min ?meter l in
        (mn, fix3l ?meter l' a m b r)

  let delete ?meter x t =
    let rec del = function
      | Leaf -> raise Not_found
      | N2 (Leaf, a, Leaf) ->
          if Elt.compare x a = 0 then Short Leaf else raise Not_found
      | N3 (Leaf, a, Leaf, b, Leaf) ->
          if Elt.compare x a = 0 then Ok2 (n2 ?meter Leaf b Leaf)
          else if Elt.compare x b = 0 then Ok2 (n2 ?meter Leaf a Leaf)
          else raise Not_found
      | N2 (l, a, r) ->
          let c = Elt.compare x a in
          if c = 0 then begin
            let (s, r') = take_min ?meter r in
            fix2r ?meter l s r'
          end
          else if c < 0 then fix2l ?meter (del l) a r
          else fix2r ?meter l a (del r)
      | N3 (l, a, m, b, r) ->
          let ca = Elt.compare x a in
          if ca = 0 then begin
            let (s, m') = take_min ?meter m in
            fix3m ?meter l s m' b r
          end
          else if ca < 0 then fix3l ?meter (del l) a m b r
          else
            let cb = Elt.compare x b in
            if cb = 0 then begin
              let (s, r') = take_min ?meter r in
              fix3r ?meter l a m s r'
            end
            else if cb < 0 then fix3m ?meter l a (del m) b r
            else fix3r ?meter l a m b (del r)
    in
    match del t with
    | Ok2 t' | Short t' -> (t', true)
    | exception Not_found -> (t, false)

  (* -- traversal, measurement, checking ----------------------------------- *)

  let insert_unmetered x t = insert x t

  let of_list xs = List.fold_left (fun t x -> insert_unmetered x t) empty xs

  let fold ?meter f acc t =
    let rec go acc = function
      | Leaf -> acc
      | N2 (l, a, r) ->
          Meter.alloc meter 1;
          go (f (go acc l) a) r
      | N3 (l, a, m, b, r) ->
          Meter.alloc meter 1;
          go (f (go (f (go acc l) a) m) b) r
    in
    go acc t

  let iter f t =
    let rec go = function
      | Leaf -> ()
      | N2 (l, a, r) ->
          go l;
          f a;
          go r
      | N3 (l, a, m, b, r) ->
          go l;
          f a;
          go m;
          f b;
          go r
    in
    go t

  let range_fold ?meter ~ge_lo ~le_hi f acc t =
    (* Prune subtrees provably outside the bounds: the middle child of an N3
       holds elements strictly between [a] and [b], so it is entered only
       when [a] can still be below the upper bound and [b] above the lower
       one. *)
    let rec go acc = function
      | Leaf -> acc
      | N2 (l, a, r) ->
          Meter.alloc meter 1;
          let acc = if ge_lo a then go acc l else acc in
          let acc = if ge_lo a && le_hi a then f acc a else acc in
          if le_hi a then go acc r else acc
      | N3 (l, a, m, b, r) ->
          Meter.alloc meter 1;
          let acc = if ge_lo a then go acc l else acc in
          let acc = if ge_lo a && le_hi a then f acc a else acc in
          let acc = if le_hi a && ge_lo b then go acc m else acc in
          let acc = if ge_lo b && le_hi b then f acc b else acc in
          if le_hi b then go acc r else acc
    in
    go acc t

  let rewrite ?meter ~ge_lo ~le_hi f t =
    let count = ref 0 in
    let patch x =
      if ge_lo x && le_hi x then
        match f x with
        | None -> x
        | Some y ->
            if Elt.compare y x <> 0 then
              invalid_arg "Two3.rewrite: replacement reorders element";
            incr count;
            y
      else x
    in
    let rec go = function
      | Leaf -> Leaf
      | N2 (l, a, r) as whole ->
          let l' = if ge_lo a then go l else l in
          let a' = patch a in
          let r' = if le_hi a then go r else r in
          if l' == l && a' == a && r' == r then whole
          else begin
            Meter.alloc meter 1;
            N2 (l', a', r')
          end
      | N3 (l, a, m, b, r) as whole ->
          let l' = if ge_lo a then go l else l in
          let a' = patch a in
          let m' = if le_hi a && ge_lo b then go m else m in
          let b' = patch b in
          let r' = if le_hi b then go r else r in
          if l' == l && a' == a && m' == m && b' == b && r' == r then whole
          else begin
            Meter.alloc meter 1;
            N3 (l', a', m', b', r')
          end
    in
    let t' = go t in
    (t', !count)

  let to_list t =
    let rec go acc = function
      | Leaf -> acc
      | N2 (l, a, r) -> go (a :: go acc r) l
      | N3 (l, a, m, b, r) -> go (a :: go (b :: go acc r) m) l
    in
    go [] t

  let rec size = function
    | Leaf -> 0
    | N2 (l, _, r) -> 1 + size l + size r
    | N3 (l, _, m, _, r) -> 2 + size l + size m + size r

  let rec height = function
    | Leaf -> 0
    | N2 (l, _, _) | N3 (l, _, _, _, _) -> 1 + height l

  (* Count internal nodes (the reconstructible units). *)
  let rec node_count = function
    | Leaf -> 0
    | N2 (l, _, r) -> 1 + node_count l + node_count r
    | N3 (l, _, m, _, r) -> 1 + node_count l + node_count m + node_count r

  let walk t rest = match t with Leaf -> rest | _ -> Walk.Node (t, rest)

  let open_node t rest =
    match t with
    | Leaf -> rest
    | N2 (l, a, r) -> walk l (Walk.Item (a, walk r rest))
    | N3 (l, a, m, b, r) ->
        walk l (Walk.Item (a, walk m (Walk.Item (b, walk r rest))))

  let diff ~equal ~removed ~added acc ~old t =
    Walk.fold_diff ~open_:open_node ~compare:Elt.compare ~equal ~removed ~added
      acc (walk old Walk.End) (walk t Walk.End)

  let shared_nodes ~old t =
    let module H = Hashtbl.Make (struct
      type nonrec t = t

      let equal = ( == )
      let hash = Hashtbl.hash
    end) in
    let seen = H.create 64 in
    let rec remember = function
      | Leaf -> ()
      | N2 (l, _, r) as n ->
          if not (H.mem seen n) then begin
            H.add seen n ();
            remember l;
            remember r
          end
      | N3 (l, _, m, _, r) as n ->
          if not (H.mem seen n) then begin
            H.add seen n ();
            remember l;
            remember m;
            remember r
          end
    in
    remember old;
    let rec go (shared, total) = function
      | Leaf -> (shared, total)
      | n when H.mem seen n ->
          let k = node_count n in
          (shared + k, total + k)
      | N2 (l, _, r) -> go (go (shared, total + 1) l) r
      | N3 (l, _, m, _, r) -> go (go (go (shared, total + 1) l) m) r
    in
    go (0, 0) t

  exception Broken

  let invariant t =
    (* Returns (depth, bounds); raises when depths disagree or keys are out
       of order. *)
    let ordered lo x hi =
      (match lo with Some v when Elt.compare v x >= 0 -> raise Broken | _ -> ());
      match hi with Some v when Elt.compare x v >= 0 -> raise Broken | _ -> ()
    in
    let rec check lo hi = function
      | Leaf -> 0
      | N2 (l, a, r) ->
          ordered lo a hi;
          let dl = check lo (Some a) l and dr = check (Some a) hi r in
          if dl <> dr then raise Broken;
          dl + 1
      | N3 (l, a, m, b, r) ->
          ordered lo a hi;
          ordered lo b hi;
          if Elt.compare a b >= 0 then raise Broken;
          let dl = check lo (Some a) l in
          let dm = check (Some a) (Some b) m in
          let dr = check (Some b) hi r in
          if dl <> dm || dm <> dr then raise Broken;
          dl + 1
    in
    match check None None t with _ -> true | exception Broken -> false
end
