module type Row = sig
  type t

  type field

  val fields : t -> field array

  val of_fields : field array -> t

  val compare_field : field -> field -> int
end

module Make (Row : Row) = struct
  (* A chunk is [width] packed column arrays of [len] rows each; row [i]
     of chunk [c] is [c.cols.(0).(i), ..., c.cols.(width-1).(i)].  Rows
     are sorted by field 0 within a chunk, chunks are disjoint and sorted
     in the spine, keys globally unique. *)
  type chunk = { len : int; cols : Row.field array array }

  type t = { cap : int; size : int; chunks : chunk array }

  let default_chunk = 256

  let cap_arg = function
    | None -> default_chunk
    | Some c ->
        if c < 2 then invalid_arg "Column.create: chunk capacity < 2" else c

  let create ?chunk () = { cap = cap_arg chunk; size = 0; chunks = [||] }

  let chunk_capacity t = t.cap

  let chunk_count t = Array.length t.chunks

  let size t = t.size

  let width c = Array.length c.cols

  let key_at c i = c.cols.(0).(i)

  let row_of c i = Row.of_fields (Array.init (width c) (fun j -> c.cols.(j).(i)))

  let key_of x = (Row.fields x).(0)

  (* Smallest chunk index whose last key is >= [k]; [Array.length chunks]
     when every chunk is below [k]. *)
  let locate_chunk t k =
    let lo = ref 0 and hi = ref (Array.length t.chunks) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      let c = t.chunks.(mid) in
      if Row.compare_field (key_at c (c.len - 1)) k < 0 then lo := mid + 1
      else hi := mid
    done;
    !lo

  (* Smallest row index in [c] with key >= [k]; [c.len] when none. *)
  let lower_bound c k =
    let lo = ref 0 and hi = ref c.len in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if Row.compare_field (key_at c mid) k < 0 then lo := mid + 1
      else hi := mid
    done;
    !lo

  let find_slot t k =
    let ci = locate_chunk t k in
    if ci >= Array.length t.chunks then None
    else
      let c = t.chunks.(ci) in
      let i = lower_bound c k in
      if i < c.len && Row.compare_field (key_at c i) k = 0 then Some (ci, i)
      else None

  let member x t = find_slot t (key_of x) <> None

  let find x t =
    match find_slot t (key_of x) with
    | Some (ci, i) -> Some (row_of t.chunks.(ci) i)
    | None -> None

  let fold ?meter f acc t =
    Array.fold_left
      (fun acc c ->
        Meter.alloc meter 1;
        let acc = ref acc in
        for i = 0 to c.len - 1 do
          acc := f !acc (row_of c i)
        done;
        !acc)
      acc t.chunks

  let iter f t = fold (fun () row -> f row) () t

  let to_list t = List.rev (fold (fun acc row -> row :: acc) [] t)

  let range_fold ?meter ~ge_lo ~le_hi f acc t =
    let n = Array.length t.chunks in
    let rec chunks ci acc =
      if ci >= n then acc
      else
        let c = t.chunks.(ci) in
        if not (ge_lo (row_of c (c.len - 1))) then
          (* whole chunk below the range: prune, unmetered *)
          chunks (ci + 1) acc
        else if not (le_hi (row_of c 0)) then
          (* first row already past the range: everything later is too *)
          acc
        else begin
          Meter.alloc meter 1;
          let rec rows i acc =
            if i >= c.len then chunks (ci + 1) acc
            else
              let row = row_of c i in
              if not (ge_lo row) then rows (i + 1) acc
              else if not (le_hi row) then acc
              else rows (i + 1) (f acc row)
          in
          rows 0 acc
        end
    in
    chunks 0 acc

  (* Spine with chunk [ci] replaced by the (possibly empty, possibly
     split) [replacement] run. *)
  let splice chunks ci replacement =
    let n = Array.length chunks in
    Array.concat
      [ Array.sub chunks 0 ci; replacement; Array.sub chunks (ci + 1) (n - ci - 1) ]

  let sub_chunk c lo n = { len = n; cols = Array.map (fun col -> Array.sub col lo n) c.cols }

  let check_row_width c x fs =
    if Array.length fs <> width c then
      invalid_arg "Column: row width differs from the chunk's"
    else ignore x

  (* [c] with row [i] replaced by [x] (same key, checked by callers). *)
  let replace_row c i x =
    let fs = Row.fields x in
    check_row_width c x fs;
    {
      len = c.len;
      cols =
        Array.mapi
          (fun j col ->
            let col' = Array.copy col in
            col'.(i) <- fs.(j);
            col')
          c.cols;
    }

  (* [c] with [x] inserted before row [pos]. *)
  let insert_row c pos x =
    let fs = Row.fields x in
    check_row_width c x fs;
    {
      len = c.len + 1;
      cols =
        Array.mapi
          (fun j col ->
            let col' = Array.make (c.len + 1) fs.(j) in
            Array.blit col 0 col' 0 pos;
            Array.blit col pos col' (pos + 1) (c.len - pos);
            col')
          c.cols;
    }

  let remove_row c i =
    {
      len = c.len - 1;
      cols =
        Array.map
          (fun col ->
            let col' = Array.make (c.len - 1) col.(0) in
            Array.blit col 0 col' 0 i;
            Array.blit col (i + 1) col' i (c.len - 1 - i);
            col')
          c.cols;
    }

  let singleton_chunk x =
    let fs = Row.fields x in
    { len = 1; cols = Array.map (fun f -> [| f |]) fs }

  let insert ?meter x t =
    let n = Array.length t.chunks in
    if n = 0 then begin
      Meter.alloc meter 1;
      { t with size = 1; chunks = [| singleton_chunk x |] }
    end
    else
      let k = key_of x in
      let ci = min (locate_chunk t k) (n - 1) in
      let c = t.chunks.(ci) in
      let i = lower_bound c k in
      if i < c.len && Row.compare_field (key_at c i) k = 0 then begin
        (* set semantics: replace in place *)
        Meter.alloc meter 1;
        { t with chunks = splice t.chunks ci [| replace_row c i x |] }
      end
      else
        let c' = insert_row c i x in
        let replacement =
          if c'.len <= t.cap then begin
            Meter.alloc meter 1;
            [| c' |]
          end
          else begin
            Meter.alloc meter 2;
            let half = c'.len / 2 in
            [| sub_chunk c' 0 half; sub_chunk c' half (c'.len - half) |]
          end
        in
        { t with size = t.size + 1; chunks = splice t.chunks ci replacement }

  let delete ?meter x t =
    match find_slot t (key_of x) with
    | None -> (t, false)
    | Some (ci, i) ->
        let c = t.chunks.(ci) in
        let replacement =
          if c.len = 1 then [||]
          else begin
            Meter.alloc meter 1;
            [| remove_row c i |]
          end
        in
        ({ t with size = t.size - 1; chunks = splice t.chunks ci replacement }, true)

  let rewrite ?meter ~ge_lo ~le_hi f t =
    let total = ref 0 in
    let past_hi = ref false in
    let chunks =
      Array.map
        (fun c ->
          if !past_hi || not (ge_lo (row_of c (c.len - 1))) then c
          else if not (le_hi (row_of c 0)) then begin
            past_hi := true;
            c
          end
          else begin
            (* in range: collect replacements, rebuild only if any *)
            let changed = ref [] in
            (try
               for i = 0 to c.len - 1 do
                 let row = row_of c i in
                 if ge_lo row then
                   if le_hi row then (
                     match f row with
                     | None -> ()
                     | Some row' ->
                         let fs = Row.fields row' in
                         check_row_width c row' fs;
                         if Row.compare_field fs.(0) (key_at c i) <> 0 then
                           invalid_arg "Column.rewrite: replacement changed the key";
                         changed := (i, fs) :: !changed)
                   else begin
                     past_hi := true;
                     raise Exit
                   end
               done
             with Exit -> ());
            match !changed with
            | [] -> c
            | replacements ->
                Meter.alloc meter 1;
                total := !total + List.length replacements;
                let cols = Array.map Array.copy c.cols in
                List.iter
                  (fun (i, fs) ->
                    Array.iteri (fun j col -> col.(i) <- fs.(j)) cols)
                  replacements;
                { len = c.len; cols }
          end)
        t.chunks
    in
    if !total = 0 then (t, 0) else ({ t with chunks }, !total)

  let of_list ?chunk rows =
    let cap = cap_arg chunk in
    let sorted =
      List.stable_sort
        (fun a b -> Row.compare_field (key_of a) (key_of b))
        rows
    in
    (* first occurrence of each duplicate key wins, as sequential insert
       against [member] would keep it *)
    let deduped =
      List.rev
        (List.fold_left
           (fun acc row ->
             match acc with
             | prev :: _ when Row.compare_field (key_of prev) (key_of row) = 0
               ->
                 acc
             | _ -> row :: acc)
           [] sorted)
    in
    let all = Array.of_list deduped in
    let n = Array.length all in
    if n = 0 then create ~chunk:cap ()
    else
      let w = Array.length (Row.fields all.(0)) in
      Array.iter
        (fun row ->
          if Array.length (Row.fields row) <> w then
            invalid_arg "Column.of_list: rows of differing widths")
        all;
      let nchunks = (n + cap - 1) / cap in
      let chunks =
        Array.init nchunks (fun ci ->
            let lo = ci * cap in
            let len = min cap (n - lo) in
            {
              len;
              cols =
                Array.init w (fun j ->
                    Array.init len (fun i -> (Row.fields all.(lo + i)).(j)));
            })
      in
      { cap; size = n; chunks }

  let open_chunk c rest =
    let r = ref rest in
    for i = c.len - 1 downto 0 do
      r := Walk.Item (row_of c i, !r)
    done;
    !r

  let spine t =
    Array.fold_right (fun c rest -> Walk.Node (c, rest)) t.chunks Walk.End

  let diff ~equal ~removed ~added acc ~old t =
    Walk.fold_diff ~open_:open_chunk
      ~compare:(fun x y -> Row.compare_field (key_of x) (key_of y))
      ~equal ~removed ~added acc (spine old) (spine t)

  let shared_chunks ~old t =
    (* both spines are sorted by first key with globally unique keys, so a
       merge walk aligns candidate chunks in O(n + m) *)
    let oc = old.chunks and nc = t.chunks in
    let shared = ref 0 in
    let i = ref 0 and j = ref 0 in
    while !i < Array.length oc && !j < Array.length nc do
      let a = oc.(!i) and b = nc.(!j) in
      if a == b then begin
        incr shared;
        incr i;
        incr j
      end
      else
        let cmp = Row.compare_field (key_at a 0) (key_at b 0) in
        if cmp < 0 then incr i
        else if cmp > 0 then incr j
        else begin
          incr i;
          incr j
        end
    done;
    (!shared, Array.length nc)

  let invariant t =
    let ok = ref true in
    let total = ref 0 in
    let w = ref (-1) in
    let prev_key = ref None in
    Array.iter
      (fun c ->
        if c.len < 1 || c.len > t.cap then ok := false;
        if !w = -1 then w := width c else if width c <> !w then ok := false;
        Array.iter (fun col -> if Array.length col <> c.len then ok := false) c.cols;
        for i = 0 to c.len - 1 do
          (match !prev_key with
          | Some k when Row.compare_field k (key_at c i) >= 0 -> ok := false
          | _ -> ());
          prev_key := Some (key_at c i)
        done;
        total := !total + c.len)
      t.chunks;
    !ok && !total = t.size
end
