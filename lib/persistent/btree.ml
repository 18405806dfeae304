module Make (Elt : Ordered.S) = struct
  (* Classic B-tree: elements live in every page.  A directory page with k
     keys has k+1 children. *)
  type node =
    | Leaf of Elt.t array
    | Dir of node array * Elt.t array

  type t = { branching : int; root : node }

  let create ?(branching = 8) () =
    if branching < 3 then invalid_arg "Btree.create: branching < 3";
    { branching; root = Leaf [||] }

  let branching t = t.branching

  let max_keys t = t.branching - 1
  let min_keys t = (t.branching - 1) / 2

  (* -- array helpers ------------------------------------------------------ *)

  let array_insert a i x =
    let n = Array.length a in
    Array.init (n + 1) (fun j ->
        if j < i then a.(j) else if j = i then x else a.(j - 1))

  let array_remove a i =
    let n = Array.length a in
    Array.init (n - 1) (fun j -> if j < i then a.(j) else a.(j + 1))

  let array_set a i x =
    let a' = Array.copy a in
    a'.(i) <- x;
    a'

  (* Position of x among sorted keys: [Found i] or [Child i]. *)
  let locate keys x =
    let n = Array.length keys in
    let rec go i =
      if i >= n then `Child n
      else
        let c = Elt.compare x keys.(i) in
        if c = 0 then `Found i else if c < 0 then `Child i else go (i + 1)
    in
    go 0

  (* -- queries ------------------------------------------------------------ *)

  let rec find_node x = function
    | Leaf keys -> (
        match locate keys x with `Found i -> Some keys.(i) | `Child _ -> None)
    | Dir (children, keys) -> (
        match locate keys x with
        | `Found i -> Some keys.(i)
        | `Child i -> find_node x children.(i))

  let find x t = find_node x t.root
  let member x t = find x t <> None

  let to_list t =
    let rec go acc = function
      | Leaf keys ->
          let acc = ref acc in
          for i = Array.length keys - 1 downto 0 do
            acc := keys.(i) :: !acc
          done;
          !acc
      | Dir (children, keys) ->
          let n = Array.length keys in
          let acc = ref (go acc children.(n)) in
          for i = n - 1 downto 0 do
            acc := go (keys.(i) :: !acc) children.(i)
          done;
          !acc
    in
    go [] t.root

  let range ~lo ~hi t =
    let rec go acc = function
      | Leaf keys ->
          Array.fold_right
            (fun x acc ->
              if Elt.compare lo x <= 0 && Elt.compare x hi <= 0 then x :: acc
              else acc)
            keys acc
      | Dir (children, keys) ->
          let n = Array.length keys in
          let acc = ref (go acc children.(n)) in
          for i = n - 1 downto 0 do
            let k = keys.(i) in
            let acc' =
              if Elt.compare lo k <= 0 && Elt.compare k hi <= 0 then
                k :: !acc
              else !acc
            in
            (* prune subtrees wholly outside the range *)
            let descend =
              (i = 0 || Elt.compare keys.(i - 1) hi <= 0)
              && Elt.compare lo k <= 0
            in
            acc := if descend then go acc' children.(i) else acc'
          done;
          !acc
    in
    go [] t.root

  let rec fold_node meter f acc = function
    | Leaf keys ->
        Meter.alloc meter 1;
        Array.fold_left f acc keys
    | Dir (children, keys) ->
        Meter.alloc meter 1;
        let n = Array.length keys in
        let acc = ref (fold_node meter f acc children.(0)) in
        for i = 0 to n - 1 do
          acc := fold_node meter f (f !acc keys.(i)) children.(i + 1)
        done;
        !acc

  let fold ?meter f acc t = fold_node meter f acc t.root

  let iter f t =
    let rec go = function
      | Leaf keys -> Array.iter f keys
      | Dir (children, keys) ->
          let n = Array.length keys in
          go children.(0);
          for i = 0 to n - 1 do
            f keys.(i);
            go children.(i + 1)
          done
    in
    go t.root

  let range_fold ?meter ~ge_lo ~le_hi f acc t =
    (* Child [i] of a directory holds elements strictly between keys [i-1]
       and [i]; descend only when that open interval can intersect the
       range, so just the boundary paths and in-range pages are visited
       (and metered).  [lo_ok]/[hi_ok] record that a bound already holds
       for the whole page: a child between two in-range keys is folded
       with no bound tests at all. *)
    let rec go lo_ok hi_ok acc = function
      | page when lo_ok && hi_ok -> fold_node meter f acc page
      | Leaf keys ->
          Meter.alloc meter 1;
          Array.fold_left
            (fun acc x ->
              if (lo_ok || ge_lo x) && (hi_ok || le_hi x) then f acc x
              else acc)
            acc keys
      | Dir (children, keys) ->
          Meter.alloc meter 1;
          let nk = Array.length keys in
          (* [above]: every element of child [i] meets the lower bound
             (key [i-1] does).  Past the first key above the range, no later
             child or key can hold anything. *)
          let rec walk acc i above =
            if i = nk then go above hi_ok acc children.(nk)
            else
              let k = keys.(i) in
              let k_ge = above || ge_lo k in
              let k_le = hi_ok || le_hi k in
              let acc = if k_ge then go above k_le acc children.(i) else acc in
              if not k_le then acc
              else walk (if k_ge then f acc k else acc) (i + 1) k_ge
          in
          walk acc 0 lo_ok
    in
    go false false acc t.root

  (* The greatest element meeting [le_hi] lies in the child right of the
     last such directory key, or is that key; one path from the root, and
     the range is empty unless that element also meets [ge_lo].  (The
     least element needs no descent of its own: [range_fold] stopped at
     its first element takes the same path.) *)
  let range_last ~ge_lo ~le_hi t =
    let rec go best = function
      | Leaf keys ->
          let rec scan i =
            if i < 0 then best
            else if le_hi keys.(i) then Some keys.(i)
            else scan (i - 1)
          in
          scan (Array.length keys - 1)
      | Dir (children, keys) ->
          let rec scan i =
            if i < 0 then go best children.(0)
            else if le_hi keys.(i) then go (Some keys.(i)) children.(i + 1)
            else scan (i - 1)
          in
          scan (Array.length keys - 1)
    in
    match go None t.root with
    | Some x when ge_lo x -> Some x
    | Some _ | None -> None

  let rewrite ?meter ~ge_lo ~le_hi f t =
    let count = ref 0 in
    (* Copy-on-first-write over a page's key array; returns the original
       array physically when nothing in it changed. *)
    let rewrite_keys keys =
      let out = ref keys in
      Array.iteri
        (fun i x ->
          if ge_lo x && le_hi x then
            match f x with
            | None -> ()
            | Some y ->
                if Elt.compare y x <> 0 then
                  invalid_arg "Btree.rewrite: replacement reorders element";
                incr count;
                let a = if !out == keys then Array.copy keys else !out in
                a.(i) <- y;
                out := a)
        keys;
      !out
    in
    let rec go = function
      | Leaf keys as whole ->
          let keys' = rewrite_keys keys in
          if keys' == keys then whole
          else begin
            Meter.alloc meter 1;
            Leaf keys'
          end
      | Dir (children, keys) as whole ->
          let keys' = rewrite_keys keys in
          let nk = Array.length keys in
          let children' = ref children in
          for i = 0 to nk do
            let descend =
              (i = nk || ge_lo keys.(i)) && (i = 0 || le_hi keys.(i - 1))
            in
            if descend then begin
              let c = children.(i) in
              let c' = go c in
              if c' != c then begin
                let a =
                  if !children' == children then Array.copy children
                  else !children'
                in
                a.(i) <- c';
                children' := a
              end
            end
          done;
          if keys' == keys && !children' == children then whole
          else begin
            Meter.alloc meter 1;
            Dir (!children', keys')
          end
    in
    let root = go t.root in
    ({ t with root }, !count)

  let rec size_node = function
    | Leaf keys -> Array.length keys
    | Dir (children, keys) ->
        Array.fold_left (fun acc c -> acc + size_node c) (Array.length keys)
          children

  let size t = size_node t.root

  let height t =
    let rec go = function
      | Leaf _ -> 1
      | Dir (children, _) -> 1 + go children.(0)
    in
    go t.root

  let rec pages = function
    | Leaf _ -> 1
    | Dir (children, _) ->
        Array.fold_left (fun acc c -> acc + pages c) 1 children

  let page_count t = pages t.root

  (* -- insertion ----------------------------------------------------------- *)

  type grow = Done of node | Split of node * Elt.t * node

  let split_keys keys =
    let n = Array.length keys in
    let mid = n / 2 in
    (Array.sub keys 0 mid, keys.(mid), Array.sub keys (mid + 1) (n - mid - 1))

  let insert ?meter x t =
    let leaf keys =
      Meter.alloc meter 1;
      Leaf keys
    and dir children keys =
      Meter.alloc meter 1;
      Dir (children, keys)
    in
    let rec ins = function
      | Leaf keys as whole -> (
          match locate keys x with
          | `Found _ -> Done whole
          | `Child i ->
              let keys' = array_insert keys i x in
              if Array.length keys' <= max_keys t then Done (leaf keys')
              else
                let (lk, m, rk) = split_keys keys' in
                Split (leaf lk, m, leaf rk))
      | Dir (children, keys) as whole -> (
          match locate keys x with
          | `Found _ -> Done whole
          | `Child i -> (
              match ins children.(i) with
              | Done c ->
                  if c == children.(i) then Done whole
                  else Done (dir (array_set children i c) keys)
              | Split (a, k, b) ->
                  let keys' = array_insert keys i k in
                  let children' =
                    array_insert (array_set children i a) (i + 1) b
                  in
                  if Array.length keys' <= max_keys t then
                    Done (dir children' keys')
                  else begin
                    let (lk, m, rk) = split_keys keys' in
                    let nl = Array.length lk + 1 in
                    let nc = Array.length children' in
                    Split
                      ( dir (Array.sub children' 0 nl) lk,
                        m,
                        dir (Array.sub children' nl (nc - nl)) rk )
                  end))
    in
    match ins t.root with
    | Done root -> { t with root }
    | Split (a, k, b) ->
        Meter.alloc meter 1;
        { t with root = Dir ([| a; b |], [| k |]) }

  (* -- deletion ------------------------------------------------------------ *)

  let underfull t = function
    | Leaf keys | Dir (_, keys) -> Array.length keys < min_keys t


  (* Repair an underfull child [i] of a directory page by borrowing from or
     merging with an adjacent sibling.  Returns new (children, keys); the
     resulting page may itself be underfull (handled by the caller). *)
  let fix t ?meter children keys i =
    let leaf ks =
      Meter.alloc meter 1;
      Leaf ks
    and dir cs ks =
      Meter.alloc meter 1;
      Dir (cs, ks)
    in
    let merge_or_borrow li ri =
      (* li = left child index; separator keys.(li); ri = li + 1 *)
      let sep = keys.(li) in
      match (children.(li), children.(ri)) with
      | (Leaf lk, Leaf rk) ->
          if Array.length lk > min_keys t && i = ri then
            (* borrow max of left up through the separator *)
            let n = Array.length lk in
            let up = lk.(n - 1) in
            let l' = leaf (Array.sub lk 0 (n - 1)) in
            let r' = leaf (array_insert rk 0 sep) in
            ( array_set (array_set children li l') ri r',
              array_set keys li up )
          else if Array.length rk > min_keys t && i = li then
            let up = rk.(0) in
            let r' = leaf (array_remove rk 0) in
            let l' = leaf (array_insert lk (Array.length lk) sep) in
            ( array_set (array_set children li l') ri r',
              array_set keys li up )
          else
            let merged = leaf (Array.concat [ lk; [| sep |]; rk ]) in
            (array_set (array_remove children ri) li merged,
             array_remove keys li)
      | (Dir (lc, lk), Dir (rc, rk)) ->
          if Array.length lk > min_keys t && i = ri then
            let nk = Array.length lk and nc = Array.length lc in
            let up = lk.(nk - 1) in
            let l' = dir (Array.sub lc 0 (nc - 1)) (Array.sub lk 0 (nk - 1)) in
            let r' =
              dir (array_insert rc 0 lc.(nc - 1)) (array_insert rk 0 sep)
            in
            ( array_set (array_set children li l') ri r',
              array_set keys li up )
          else if Array.length rk > min_keys t && i = li then
            let up = rk.(0) in
            let r' = dir (array_remove rc 0) (array_remove rk 0) in
            let l' =
              dir
                (array_insert lc (Array.length lc) rc.(0))
                (array_insert lk (Array.length lk) sep)
            in
            ( array_set (array_set children li l') ri r',
              array_set keys li up )
          else
            let merged =
              dir (Array.append lc rc) (Array.concat [ lk; [| sep |]; rk ])
            in
            (array_set (array_remove children ri) li merged,
             array_remove keys li)
      | _ -> assert false (* siblings are at the same depth *)
    in
    if i > 0 then merge_or_borrow (i - 1) i else merge_or_borrow i (i + 1)

  (* Remove and return the maximum element. *)
  let rec take_max t ?meter = function
    | Leaf keys ->
        let n = Array.length keys in
        Meter.alloc meter 1;
        (keys.(n - 1), Leaf (Array.sub keys 0 (n - 1)))
    | Dir (children, keys) ->
        let i = Array.length children - 1 in
        let (m, c') = take_max t ?meter children.(i) in
        let children' = array_set children i c' in
        Meter.alloc meter 1;
        if underfull t c' then begin
          let (cs, ks) = fix t ?meter children' keys i in
          (m, Dir (cs, ks))
        end
        else (m, Dir (children', keys))

  let delete ?meter x t =
    let rec del = function
      | Leaf keys -> (
          match locate keys x with
          | `Found i ->
              Meter.alloc meter 1;
              Leaf (array_remove keys i)
          | `Child _ -> raise Not_found)
      | Dir (children, keys) ->
          let (i, replace) =
            match locate keys x with
            | `Found i -> (i, true)
            | `Child i -> (i, false)
          in
          let (c', keys') =
            if replace then begin
              (* replace the separator with its predecessor from child i *)
              let (m, c') = take_max t ?meter children.(i) in
              (c', array_set keys i m)
            end
            else (del children.(i), keys)
          in
          let children' = array_set children i c' in
          Meter.alloc meter 1;
          if underfull t c' then begin
            let (cs, ks) = fix t ?meter children' keys' i in
            Dir (cs, ks)
          end
          else Dir (children', keys')
    in
    match del t.root with
    | Dir (children, [||]) -> ({ t with root = children.(0) }, true)
    | root -> ({ t with root }, true)
    | exception Not_found -> (t, false)

  (* -- construction, measurement, checking -------------------------------- *)

  let of_list ?branching xs =
    List.fold_left (fun t x -> insert x t) (create ?branching ()) xs

  (* Bottom-up bulk load of minimal height.  A subtree of height h holds at
     most [cap] = b^h - 1 elements.  Each directory page takes the fewest
     children that can hold its elements and splits them evenly, one
     separator between neighbours.  Minimal height gives the root at least
     two children.  An even split over the fewest children leaves each
     child of height h at least half full, (b^h - 1) / 2 elements, so it in
     turn takes at least ceil (b / 2) = min_keys + 1 children: every
     non-root page keeps min_keys..max_keys keys.  Pages fill in order
     straight from the list, each element checked against the next, so
     the input is walked once and never copied. *)
  let of_ascending ?branching xs =
    let t = create ?branching () in
    match xs with
    | [] -> Some t
    | first :: _ ->
        let b = t.branching and n = List.length xs in
        let exception Not_ascending in
        (* Move the next [len] elements into [keys] from [i], each checked
           against the one after it; the rest of the list is returned. *)
        let rec fill keys i len xs =
          if len = 0 then xs
          else
            match xs with
            | x :: rest ->
                (match rest with
                | y :: _ when Elt.compare x y >= 0 -> raise Not_ascending
                | _ -> ());
                keys.(i) <- x;
                fill keys (i + 1) (len - 1) rest
            | [] -> raise Not_ascending (* not reached: the sizes sum to [n] *)
        in
        (* [first] fills each array until every slot is written *)
        let rec build count cap xs =
          if cap < b then
            let keys = Array.make count first in
            (Leaf keys, fill keys 0 count xs)
          else
            let slot = (cap + 1) / b in
            let c = (count + slot) / slot in
            let base = (count - c + 1) / c and extra = (count - c + 1) mod c in
            let keys = Array.make (c - 1) first in
            let children = Array.make c (Leaf [||]) in
            let rec go i xs =
              let (child, xs) =
                build (if i < extra then base + 1 else base) (slot - 1) xs
              in
              children.(i) <- child;
              if i = c - 1 then xs else go (i + 1) (fill keys i 1 xs)
            in
            let rest = go 0 xs in
            (Dir (children, keys), rest)
        in
        let rec root_cap cap =
          if cap >= n then cap else root_cap ((b * cap) + b - 1)
        in
        match build n (root_cap (b - 1)) xs with
        | (root, _) -> Some { t with root }
        | exception Not_ascending -> None

  let of_sorted ?branching xs =
    match of_ascending ?branching xs with
    | Some t -> t
    | None -> invalid_arg "Btree.of_sorted: input not strictly ascending"

  let open_page page rest =
    match page with
    | Leaf keys ->
        let r = ref rest in
        for i = Array.length keys - 1 downto 0 do
          r := Walk.Item (keys.(i), !r)
        done;
        !r
    | Dir (children, keys) ->
        let nk = Array.length keys in
        let r = ref (Walk.Node (children.(nk), rest)) in
        for i = nk - 1 downto 0 do
          r := Walk.Node (children.(i), Walk.Item (keys.(i), !r))
        done;
        !r

  let diff ~equal ~removed ~added acc ~old t =
    Walk.fold_diff ~open_:open_page ~compare:Elt.compare ~equal ~removed ~added
      acc
      (Walk.Node (old.root, Walk.End))
      (Walk.Node (t.root, Walk.End))

  type page = node

  let root_page t = t.root
  let subpages = function Leaf _ -> [||] | Dir (children, _) -> children

  (* The page of a tree at height [h] on the search path for [x] from
     [node], at height [at]; [None] if the path meets [x] above [h], where
     no page at [h] can hold it. *)
  let rec page_on_path x ~h ~at node =
    if at = h then Some node
    else
      match node with
      | Leaf _ -> None
      | Dir (children, keys) -> (
          match locate keys x with
          | `Found _ -> None
          | `Child i -> page_on_path x ~h ~at:(at - 1) children.(i))

  (* Elements are unique, so a page of [t] is one of [old]'s iff the
     search in [old] for the page's first element reaches that very page
     at its height; a shared page's subtree is shared whole. *)
  let shared_pages ~old t =
    let old_h = height old in
    let in_old n h =
      match n with
      | Leaf [||] -> n == old.root
      | Leaf keys | Dir (_, keys) -> (
          h <= old_h
          &&
          match page_on_path keys.(0) ~h ~at:old_h old.root with
          | Some p -> p == n
          | None -> false)
    in
    let rec go (shared, total) n h =
      if in_old n h then
        let k = pages n in
        (shared + k, total + k)
      else
        match n with
        | Leaf _ -> (shared, total + 1)
        | Dir (children, _) ->
            Array.fold_left
              (fun acc c -> go acc c (h - 1))
              (shared, total + 1) children
    in
    go (0, 0) t.root (height t)

  exception Broken

  let invariant t =
    let check_sorted keys lo hi =
      let n = Array.length keys in
      for i = 0 to n - 2 do
        if Elt.compare keys.(i) keys.(i + 1) >= 0 then raise Broken
      done;
      (match lo with
      | Some v when n > 0 && Elt.compare v keys.(0) >= 0 -> raise Broken
      | _ -> ());
      match hi with
      | Some v when n > 0 && Elt.compare keys.(n - 1) v >= 0 -> raise Broken
      | _ -> ()
    in
    let rec check ~root lo hi = function
      | Leaf keys ->
          check_sorted keys lo hi;
          if (not root) && Array.length keys < min_keys t then raise Broken;
          if Array.length keys > max_keys t then raise Broken;
          1
      | Dir (children, keys) ->
          check_sorted keys lo hi;
          let nk = Array.length keys in
          if Array.length children <> nk + 1 then raise Broken;
          if (not root) && nk < min_keys t then raise Broken;
          if nk > max_keys t then raise Broken;
          if root && nk < 1 then raise Broken;
          let depth = ref (-1) in
          for i = 0 to nk do
            let lo' = if i = 0 then lo else Some keys.(i - 1) in
            let hi' = if i = nk then hi else Some keys.(i) in
            let d = check ~root:false lo' hi' children.(i) in
            if !depth = -1 then depth := d
            else if d <> !depth then raise Broken
          done;
          !depth + 1
    in
    match check ~root:true None None t.root with
    | _ -> true
    | exception Broken -> false
end
