module Make (Elt : Ordered.S) = struct
  type t = Leaf | Node of t * Elt.t * t * int

  let empty = Leaf

  let height = function Leaf -> 0 | Node (_, _, _, h) -> h

  let node ?meter l x r =
    Meter.alloc meter 1;
    Node (l, x, r, 1 + max (height l) (height r))

  (* Rebalance a node whose children differ in height by at most 2. *)
  let balance ?meter l x r =
    let hl = height l and hr = height r in
    if hl > hr + 1 then
      match l with
      | Leaf -> assert false
      | Node (ll, lx, lr, _) ->
          if height ll >= height lr then node ?meter ll lx (node ?meter lr x r)
          else begin
            match lr with
            | Leaf -> assert false
            | Node (lrl, lrx, lrr, _) ->
                node ?meter (node ?meter ll lx lrl) lrx (node ?meter lrr x r)
          end
    else if hr > hl + 1 then
      match r with
      | Leaf -> assert false
      | Node (rl, rx, rr, _) ->
          if height rr >= height rl then node ?meter (node ?meter l x rl) rx rr
          else begin
            match rl with
            | Leaf -> assert false
            | Node (rll, rlx, rlr, _) ->
                node ?meter (node ?meter l x rll) rlx (node ?meter rlr rx rr)
          end
    else node ?meter l x r

  let rec member x = function
    | Leaf -> false
    | Node (l, y, r, _) ->
        let c = Elt.compare x y in
        if c = 0 then true else if c < 0 then member x l else member x r

  let rec find x = function
    | Leaf -> None
    | Node (l, y, r, _) ->
        let c = Elt.compare x y in
        if c = 0 then Some y else if c < 0 then find x l else find x r

  let insert ?meter x t =
    let rec go = function
      | Leaf -> node ?meter Leaf x Leaf
      | Node (l, y, r, _) as whole ->
          let c = Elt.compare x y in
          if c = 0 then whole
          else if c < 0 then
            let l' = go l in
            if l' == l then whole else balance ?meter l' y r
          else
            let r' = go r in
            if r' == r then whole else balance ?meter l y r'
    in
    go t

  (* Remove and return the smallest element of a nonempty tree. *)
  let rec take_min ?meter = function
    | Leaf -> assert false
    | Node (Leaf, y, r, _) -> (y, r)
    | Node (l, y, r, _) ->
        let (m, l') = take_min ?meter l in
        (m, balance ?meter l' y r)

  let delete ?meter x t =
    let rec go = function
      | Leaf -> (Leaf, false)
      | Node (l, y, r, _) as whole ->
          let c = Elt.compare x y in
          if c = 0 then
            match (l, r) with
            | (Leaf, _) -> (r, true)
            | (_, Leaf) -> (l, true)
            | _ ->
                let (m, r') = take_min ?meter r in
                (balance ?meter l m r', true)
          else if c < 0 then begin
            let (l', found) = go l in
            if found then (balance ?meter l' y r, true) else (whole, false)
          end
          else begin
            let (r', found) = go r in
            if found then (balance ?meter l y r', true) else (whole, false)
          end
    in
    go t

  let of_list xs = List.fold_left (fun t x -> insert x t) empty xs

  let fold ?meter f acc t =
    let rec go acc = function
      | Leaf -> acc
      | Node (l, x, r, _) ->
          Meter.alloc meter 1;
          go (f (go acc l) x) r
    in
    go acc t

  let iter f t =
    let rec go = function
      | Leaf -> ()
      | Node (l, x, r, _) ->
          go l;
          f x;
          go r
    in
    go t

  let range_fold ?meter ~ge_lo ~le_hi f acc t =
    (* Subtree pruning: everything left of a node below the lower bound is
       also below it, and symmetrically on the right, so only the O(log n)
       boundary paths plus the in-range subtrees are visited (and metered). *)
    let rec go acc = function
      | Leaf -> acc
      | Node (l, y, r, _) ->
          Meter.alloc meter 1;
          let acc = if ge_lo y then go acc l else acc in
          let acc = if ge_lo y && le_hi y then f acc y else acc in
          if le_hi y then go acc r else acc
    in
    go acc t

  let rewrite ?meter ~ge_lo ~le_hi f t =
    let count = ref 0 in
    let rec go = function
      | Leaf -> Leaf
      | Node (l, y, r, h) as whole ->
          let l' = if ge_lo y then go l else l in
          let y' =
            if ge_lo y && le_hi y then
              match f y with
              | None -> y
              | Some z ->
                  if Elt.compare z y <> 0 then
                    invalid_arg "Avl.rewrite: replacement reorders element";
                  incr count;
                  z
            else y
          in
          let r' = if le_hi y then go r else r in
          if l' == l && y' == y && r' == r then whole
          else begin
            (* Keys are unchanged, so the shape (and every height) is too. *)
            Meter.alloc meter 1;
            Node (l', y', r', h)
          end
    in
    let t' = go t in
    (t', !count)

  let to_list t =
    let rec go acc = function
      | Leaf -> acc
      | Node (l, x, r, _) -> go (x :: go acc r) l
    in
    go [] t

  let rec size = function
    | Leaf -> 0
    | Node (l, _, r, _) -> 1 + size l + size r

  let walk t rest = match t with Leaf -> rest | Node _ -> Walk.Node (t, rest)

  let open_node t rest =
    match t with
    | Leaf -> rest
    | Node (l, x, r, _) -> walk l (Walk.Item (x, walk r rest))

  let diff ~equal ~removed ~added acc ~old t =
    Walk.fold_diff ~open_:open_node ~compare:Elt.compare ~equal ~removed ~added
      acc (walk old Walk.End) (walk t Walk.End)

  let shared_nodes ~old t =
    (* Collect the old version's physical nodes, then walk the new one.
       Subtree sharing lets us stop descending once a whole subtree is
       physically present in the old version. *)
    let module H = Hashtbl.Make (struct
      type nonrec t = t

      let equal = ( == )

      (* Structural hash (depth-limited by Hashtbl.hash, so O(1)); combined
         with physical equality this is a correct identity table. *)
      let hash = Hashtbl.hash
    end) in
    let seen = H.create 64 in
    let rec remember = function
      | Leaf -> ()
      | Node (l, _, r, _) as n ->
          if not (H.mem seen n) then begin
            H.add seen n ();
            remember l;
            remember r
          end
    in
    remember old;
    let rec go (shared, total) = function
      | Leaf -> (shared, total)
      | Node (l, _, r, _) as n ->
          if H.mem seen n then (shared + size n, total + size n)
          else go (go (shared, total + 1) l) r
    in
    go (0, 0) t

  exception Broken

  let invariant t =
    (* Returns (height, bounds) where bounds = Some (min, max). *)
    let rec check = function
      | Leaf -> (0, None)
      | Node (l, x, r, h) ->
          let (hl, bl) = check l and (hr, br) = check r in
          if abs (hl - hr) > 1 || h <> 1 + max hl hr then raise Broken;
          (match bl with
          | Some (_, lmax) when Elt.compare lmax x >= 0 -> raise Broken
          | _ -> ());
          (match br with
          | Some (rmin, _) when Elt.compare x rmin >= 0 -> raise Broken
          | _ -> ());
          let mn = match bl with Some (m, _) -> m | None -> x in
          let mx = match br with Some (_, m) -> m | None -> x in
          (h, Some (mn, mx))
    in
    match check t with _ -> true | exception Broken -> false
end
