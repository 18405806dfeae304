open Fdb_persistent

module TupleByKey = struct
  type t = Tuple.t

  let compare = Tuple.compare_key
end

module PL = Plist.Make (TupleByKey)
module AV = Avl.Make (TupleByKey)
module T23 = Two3.Make (TupleByKey)
module BT = Btree.Make (TupleByKey)

module CO = Column.Make (struct
  type t = Tuple.t

  type field = Value.t

  (* a tuple already is its field array; field 0 is the key *)
  let fields = Fun.id

  let of_fields = Fun.id

  let compare_field = Value.compare
end)

type backend =
  | List_backend
  | Avl_backend
  | Two3_backend
  | Btree_backend of int
  | Column_backend of int

let backend_name = function
  | List_backend -> "list"
  | Avl_backend -> "avl"
  | Two3_backend -> "two3"
  | Btree_backend b -> Printf.sprintf "btree-%d" b
  | Column_backend c -> Printf.sprintf "column-%d" c

type repr =
  | L of PL.t
  | A of AV.t
  | T of T23.t
  | B of BT.t
  | C of CO.t

type t = { schema : Schema.t; back : backend; repr : repr }

let create ?(backend = List_backend) schema =
  let repr =
    match backend with
    | List_backend -> L PL.empty
    | Avl_backend -> A AV.empty
    | Two3_backend -> T T23.empty
    | Btree_backend b -> B (BT.create ~branching:b ())
    | Column_backend c -> C (CO.create ~chunk:c ())
  in
  { schema; back = backend; repr }

let schema r = r.schema
let backend r = r.back

let size r =
  match r.repr with
  | L l -> PL.size l
  | A a -> AV.size a
  | T t -> T23.size t
  | B b -> BT.size b
  | C c -> CO.size c

let to_list r =
  match r.repr with
  | L l -> PL.to_list l
  | A a -> AV.to_list a
  | T t -> T23.to_list t
  | B b -> BT.to_list b
  | C c -> CO.to_list c

(* A probe tuple carrying only the key; compare_key ignores the rest. *)
let probe key = [| key |]

let mem_key r key =
  match r.repr with
  | L l -> PL.member (probe key) l
  | A a -> AV.member (probe key) a
  | T t -> T23.member (probe key) t
  | B b -> BT.member (probe key) b
  | C c -> CO.member (probe key) c

let find_key r key =
  match r.repr with
  | L l -> PL.find (fun tup -> Value.equal (Tuple.key tup) key) l
  | A a -> AV.find (probe key) a
  | T t -> T23.find (probe key) t
  | B b -> BT.find (probe key) b
  | C c -> CO.find (probe key) c

let schema_error schema tuple =
  Format.asprintf "tuple %a does not match schema %a" Tuple.pp tuple Schema.pp
    schema

let insert ?meter r tuple =
  if not (Schema.matches r.schema tuple) then
    Error (schema_error r.schema tuple)
  else if mem_key r (Tuple.key tuple) then Ok (r, false)
  else
    let repr =
      match r.repr with
      | L l -> L (PL.insert ?meter tuple l)
      | A a -> A (AV.insert ?meter tuple a)
      | T t -> T (T23.insert ?meter tuple t)
      | B b -> B (BT.insert ?meter tuple b)
      | C c -> C (CO.insert ?meter tuple c)
    in
    Ok ({ r with repr }, true)

let delete_key ?meter r key =
  match r.repr with
  | L l ->
      let (l', found) = PL.delete ?meter (probe key) l in
      ({ r with repr = L l' }, found)
  | A a ->
      let (a', found) = AV.delete ?meter (probe key) a in
      ({ r with repr = A a' }, found)
  | T t ->
      let (t', found) = T23.delete ?meter (probe key) t in
      ({ r with repr = T t' }, found)
  | B b ->
      let (b', found) = BT.delete ?meter (probe key) b in
      ({ r with repr = B b' }, found)
  | C c ->
      let (c', found) = CO.delete ?meter (probe key) c in
      ({ r with repr = C c' }, found)

let select r pred = List.filter pred (to_list r)

let fold ?meter f acc r =
  match r.repr with
  | L l -> PL.fold ?meter f acc l
  | A a -> AV.fold ?meter f acc a
  | T t -> T23.fold ?meter f acc t
  | B b -> BT.fold ?meter f acc b
  | C c -> CO.fold ?meter f acc c

let iter f r =
  match r.repr with
  | L l -> PL.iter f l
  | A a -> AV.iter f a
  | T t -> T23.iter f t
  | B b -> BT.iter f b
  | C c -> CO.iter f c

type bound = Inclusive of Value.t | Exclusive of Value.t

let bound_tests ~lo ~hi =
  let ge_lo =
    match lo with
    | None -> fun _ -> true
    | Some (Inclusive v) -> fun tup -> Value.compare (Tuple.key tup) v >= 0
    | Some (Exclusive v) -> fun tup -> Value.compare (Tuple.key tup) v > 0
  and le_hi =
    match hi with
    | None -> fun _ -> true
    | Some (Inclusive v) -> fun tup -> Value.compare (Tuple.key tup) v <= 0
    | Some (Exclusive v) -> fun tup -> Value.compare (Tuple.key tup) v < 0
  in
  (ge_lo, le_hi)

let range_fold ?meter ?lo ?hi f acc r =
  let (ge_lo, le_hi) = bound_tests ~lo ~hi in
  match r.repr with
  | L l -> PL.range_fold ?meter ~ge_lo ~le_hi f acc l
  | A a -> AV.range_fold ?meter ~ge_lo ~le_hi f acc a
  | T t -> T23.range_fold ?meter ~ge_lo ~le_hi f acc t
  | B b -> BT.range_fold ?meter ~ge_lo ~le_hi f acc b
  | C c -> CO.range_fold ?meter ~ge_lo ~le_hi f acc c

(* The first tuple in range ends the range fold at once; on a B-tree that
   fold descends only the children that can meet the lower bound, so it
   reaches the first tuple along one root-to-leaf path.  The last tuple
   needs its own B-tree descent, because the fold only walks forward. *)
let range_first ?lo ?hi r =
  let exception First of Tuple.t in
  match range_fold ?lo ?hi (fun () tup -> raise (First tup)) () r with
  | () -> None
  | exception First tup -> Some tup

let range_last ?lo ?hi r =
  match r.repr with
  | B b ->
      let (ge_lo, le_hi) = bound_tests ~lo ~hi in
      BT.range_last ~ge_lo ~le_hi b
  | L _ | A _ | T _ | C _ -> range_fold ?lo ?hi (fun _ tup -> Some tup) None r

let range ?meter ?lo ?hi r =
  List.rev (range_fold ?meter ?lo ?hi (fun acc tup -> tup :: acc) [] r)

let update ?meter ?lo ?hi r rewrite =
  (* Rewrites preserve the key, so the tuple order — and hence each
     backend's shape — is unchanged: a single structural traversal maps the
     touched tuples in place, shares every untouched subtree, and skips
     subtrees outside the optional key bounds entirely. *)
  let (ge_lo, le_hi) = bound_tests ~lo ~hi in
  let f tup =
    match rewrite tup with
    | None -> None
    | Some tup' ->
        if not (Value.equal (Tuple.key tup) (Tuple.key tup')) then
          invalid_arg "Relation.update: rewrite changed the key";
        Some tup'
  in
  match r.repr with
  | L l ->
      let (l', n) = PL.rewrite ?meter ~ge_lo ~le_hi f l in
      ((if n = 0 then r else { r with repr = L l' }), n)
  | A a ->
      let (a', n) = AV.rewrite ?meter ~ge_lo ~le_hi f a in
      ((if n = 0 then r else { r with repr = A a' }), n)
  | T t ->
      let (t', n) = T23.rewrite ?meter ~ge_lo ~le_hi f t in
      ((if n = 0 then r else { r with repr = T t' }), n)
  | B b ->
      let (b', n) = BT.rewrite ?meter ~ge_lo ~le_hi f b in
      ((if n = 0 then r else { r with repr = B b' }), n)
  | C c ->
      let (c', n) = CO.rewrite ?meter ~ge_lo ~le_hi f c in
      ((if n = 0 then r else { r with repr = C c' }), n)

let of_tuples ?(backend = List_backend) schema tuples =
  (* Bulk paths validate in input order (the insert fold's first error),
     then build in one O(n) pass from input already ascending by key, or
     else sort and keep the first tuple per key, O(n log n): inserts would
     copy a list prefix or a column chunk per tuple, and B-tree pages build
     bottom-up.  AVL and 2-3 trees keep their O(n log n) insert fold. *)
  let bulk build =
    match List.find_opt (fun tup -> not (Schema.matches schema tup)) tuples with
    | Some tup -> Error (schema_error schema tup)
    | None -> Ok { schema; back = backend; repr = build () }
  in
  match backend with
  | List_backend ->
      bulk (fun () ->
          match PL.of_ascending tuples with
          | Some l -> L l
          | None -> L (PL.of_sorted (Tuple.sort_keep_first tuples)))
  | Btree_backend b ->
      bulk (fun () ->
          match BT.of_ascending ~branching:b tuples with
          | Some t -> B t
          | None -> B (BT.of_sorted ~branching:b (Tuple.sort_keep_first tuples)))
  | Column_backend chunk -> bulk (fun () -> C (CO.of_list ~chunk tuples))
  | Avl_backend | Two3_backend ->
      let rec go r = function
        | [] -> Ok r
        | tup :: rest -> (
            match insert r tup with
            | Ok (r', _) -> go r' rest
            | Error e -> Error e)
      in
      go (create ~backend schema) tuples

let shared_units ~old r =
  match (old.repr, r.repr) with
  | (L o, L n) -> PL.shared_cells ~old:o n
  | (A o, A n) -> AV.shared_nodes ~old:o n
  | (T o, T n) -> T23.shared_nodes ~old:o n
  | (B o, B n) -> BT.shared_pages ~old:o n
  | (C o, C n) -> CO.shared_chunks ~old:o n
  | _ -> invalid_arg "Relation.shared_units: backend mismatch"

(* Bit-exact value identity: unlike [Value.equal], tells 0.0 from -0.0, so
   applying a diff reproduces every value the log promises. *)
let same_value a b =
  match (a, b) with
  | (Value.Real x, Value.Real y) ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> Value.equal a b

let same_tuple a b =
  Tuple.arity a = Tuple.arity b && Array.for_all2 same_value a b

(* Each backend's walk opens only the pages, nodes, cells or chunks the
   two versions do not share, so the cost follows the update's rebuilt
   path rather than the relation's size; the per-tuple [==] test settles
   every tuple a path copy carried over without comparing its values. *)
let diff ~old r =
  let removed acc tup = (Tuple.key tup, None) :: acc
  and added acc tup = (Tuple.key tup, Some tup) :: acc in
  let run diff o n = List.rev (diff ~equal:same_tuple ~removed ~added [] ~old:o n) in
  if old == r then []
  else
    match (old.repr, r.repr) with
    | (L o, L n) -> run PL.diff o n
    | (A o, A n) -> run AV.diff o n
    | (T o, T n) -> run T23.diff o n
    | (B o, B n) -> run BT.diff o n
    | (C o, C n) -> run CO.diff o n
    | _ -> invalid_arg "Relation.diff: backend mismatch"

let key_mismatch = "Relation.apply_diff: tuple key differs from its change key"

let apply_diff r changes =
  let step acc (key, change) =
    match acc with
    | Error _ -> acc
    | Ok r -> (
        let (r, _) = delete_key r key in
        match change with
        | None -> Ok r
        | Some tup ->
            if Tuple.arity tup = 0 || not (Value.equal (Tuple.key tup) key)
            then Error key_mismatch
            else Result.map fst (insert r tup))
  in
  (* [step]'s checks, in the same order, without applying anything *)
  let rec valid = function
    | [] -> Ok ()
    | (_, None) :: rest -> valid rest
    | (key, Some tup) :: rest ->
        if Tuple.arity tup = 0 || not (Value.equal (Tuple.key tup) key) then
          Error key_mismatch
        else if not (Schema.matches r.schema tup) then
          Error (schema_error r.schema tup)
        else valid rest
  in
  let rec ascending = function
    | (a, _) :: ((b, _) :: _ as rest) -> Value.compare a b < 0 && ascending rest
    | _ -> true
  in
  match r.repr with
  | L l when ascending changes ->
      (* a diff's changes come in key order: merge them in one pass *)
      Result.map
        (fun () ->
          let changes = List.map (fun (key, put) -> (probe key, put)) changes in
          { r with repr = L (PL.apply_sorted changes l) })
        (valid changes)
  | _ -> List.fold_left step (Ok r) changes

let pp ppf r =
  Format.fprintf ppf "@[<v>%a [%s, %d tuples]@]" Schema.pp r.schema
    (backend_name r.back) (size r)
