(* Tests for values, tuples, schemas, relations (all backends), relational
   algebra, and the versioned database. *)

open Fdb_relational

let v_int i = Value.Int i
let v_str s = Value.Str s

let schema =
  Schema.make ~name:"R" ~cols:[ ("key", Schema.CInt); ("val", Schema.CStr) ]

let tup k s = Tuple.make [ v_int k; v_str s ]

let tuple_t = Alcotest.testable Tuple.pp Tuple.equal

(* -- value ---------------------------------------------------------------- *)

let test_value_order () =
  Alcotest.(check bool) "int order" true (Value.compare (v_int 1) (v_int 2) < 0);
  Alcotest.(check bool) "str order" true
    (Value.compare (v_str "a") (v_str "b") < 0);
  Alcotest.(check bool) "cross-type total" true
    (Value.compare (v_int 99) (v_str "a") < 0);
  Alcotest.(check bool) "equal" true (Value.equal (Value.Bool true) (Value.Bool true));
  Alcotest.(check string) "pp int" "7" (Value.to_string (v_int 7));
  Alcotest.(check string) "pp str quoted" "\"hi\"" (Value.to_string (v_str "hi"))

(* -- tuple ---------------------------------------------------------------- *)

let test_tuple_basics () =
  let t = tup 3 "x" in
  Alcotest.(check int) "arity" 2 (Tuple.arity t);
  Alcotest.(check bool) "key" true (Value.equal (v_int 3) (Tuple.key t));
  Alcotest.check_raises "empty tuple" (Invalid_argument "Tuple.make: empty tuple")
    (fun () -> ignore (Tuple.make []));
  Alcotest.(check bool) "lexicographic" true
    (Tuple.compare (tup 1 "z") (tup 2 "a") < 0);
  Alcotest.(check bool) "same key, second column decides" true
    (Tuple.compare (tup 1 "a") (tup 1 "b") < 0);
  Alcotest.(check bool) "shorter is smaller" true
    (Tuple.compare (Tuple.make [ v_int 1 ]) (tup 1 "a") < 0);
  Alcotest.(check int) "compare_key ignores payload" 0
    (Tuple.compare_key (tup 1 "a") (tup 1 "zzz"))

let test_sort_keep_first () =
  let ascending = [ tup 1 "a"; tup 2 "b"; tup 5 "c" ] in
  Alcotest.(check bool) "ascending input returned physically" true
    (Tuple.sort_keep_first ascending == ascending);
  List.iter
    (fun (name, input, expected) ->
      Alcotest.(check (list tuple_t)) name expected
        (Tuple.sort_keep_first input))
    [
      ( "duplicate keeps first",
        [ tup 1 "a"; tup 2 "b"; tup 2 "x"; tup 3 "c" ],
        [ tup 1 "a"; tup 2 "b"; tup 3 "c" ] );
      ( "descending sorted",
        [ tup 3 "c"; tup 2 "b"; tup 1 "a" ],
        [ tup 1 "a"; tup 2 "b"; tup 3 "c" ] );
      ( "late duplicate loses",
        [ tup 2 "b"; tup 1 "a"; tup 2 "x" ],
        [ tup 1 "a"; tup 2 "b" ] );
    ]

(* -- schema --------------------------------------------------------------- *)

let test_schema () =
  Alcotest.(check int) "arity" 2 (Schema.arity schema);
  Alcotest.(check (option int)) "column_index" (Some 1)
    (Schema.column_index schema "val");
  Alcotest.(check (option int)) "missing column" None
    (Schema.column_index schema "nope");
  Alcotest.(check bool) "matches" true (Schema.matches schema (tup 1 "a"));
  Alcotest.(check bool) "wrong type" false
    (Schema.matches schema (Tuple.make [ v_str "k"; v_str "v" ]));
  Alcotest.(check bool) "wrong arity" false
    (Schema.matches schema (Tuple.make [ v_int 1 ]));
  Alcotest.check_raises "duplicate columns"
    (Invalid_argument "Schema.make: duplicate column names") (fun () ->
      ignore (Schema.make ~name:"X" ~cols:[ ("a", Schema.CInt); ("a", Schema.CInt) ]))

(* -- relation, across all backends ----------------------------------------- *)

(* [Schema.matches] as first written: the arities agree and every value
   has its column's type, over lists built from both sides. *)
let matches_spec s tuple =
  let type_ok ctype v =
    match (ctype, v) with
    | (Schema.CInt, Value.Int _)
    | (Schema.CStr, Value.Str _)
    | (Schema.CBool, Value.Bool _)
    | (Schema.CReal, Value.Real _) ->
        true
    | _ -> false
  in
  Tuple.arity tuple = Schema.arity s
  && List.for_all2 type_ok (List.map snd (Schema.columns s)) (Array.to_list tuple)

let gen_ctype = QCheck2.Gen.oneofl [ Schema.CInt; Schema.CStr; Schema.CBool; Schema.CReal ]

let value_of_ctype = function
  | Schema.CInt -> v_int 1
  | Schema.CStr -> v_str "s"
  | Schema.CBool -> Value.Bool true
  | Schema.CReal -> Value.Real 0.5

(* Tuples of one to five values against schemas of one to four columns:
   the value types are drawn either from the schema (so arity and types
   often agree) or at random. *)
let prop_schema_matches_spec =
  QCheck2.Test.make ~name:"Schema.matches == arity and per-column types"
    ~count:1000
    QCheck2.Gen.(
      triple
        (list_size (int_range 1 4) gen_ctype)
        (list_size (int_range 1 5) gen_ctype)
        bool)
    (fun (cols, drawn, follow) ->
      let s =
        Schema.make ~name:"M" ~cols:(List.mapi (fun i c -> (Printf.sprintf "c%d" i, c)) cols)
      in
      let types = if follow then cols else drawn in
      let tuple = Tuple.make (List.map value_of_ctype types) in
      Bool.equal (Schema.matches s tuple) (matches_spec s tuple))

let backends =
  [ Relation.List_backend; Relation.Avl_backend; Relation.Two3_backend;
    Relation.Btree_backend 4; Relation.Column_backend 4 ]

let test_relation_roundtrip () =
  List.iter
    (fun backend ->
      let name = Relation.backend_name backend in
      let r = Relation.create ~backend schema in
      let r =
        List.fold_left
          (fun r t ->
            match Relation.insert r t with
            | Ok (r', true) -> r'
            | Ok (_, false) -> Alcotest.failf "%s: unexpected duplicate" name
            | Error e -> Alcotest.fail e)
          r
          [ tup 3 "c"; tup 1 "a"; tup 2 "b" ]
      in
      Alcotest.(check int) (name ^ " size") 3 (Relation.size r);
      Alcotest.(check (list tuple_t))
        (name ^ " sorted by key")
        [ tup 1 "a"; tup 2 "b"; tup 3 "c" ]
        (Relation.to_list r);
      Alcotest.(check (option tuple_t))
        (name ^ " find")
        (Some (tup 2 "b"))
        (Relation.find_key r (v_int 2));
      Alcotest.(check bool) (name ^ " mem") true (Relation.mem_key r (v_int 1));
      (* duplicate key rejected, relation shared *)
      (match Relation.insert r (tup 2 "DUP") with
      | Ok (r', false) ->
          Alcotest.(check bool) (name ^ " dup shares") true (r == r')
      | _ -> Alcotest.failf "%s: duplicate accepted" name);
      let (r2, found) = Relation.delete_key r (v_int 2) in
      Alcotest.(check bool) (name ^ " deleted") true found;
      Alcotest.(check int) (name ^ " size after delete") 2 (Relation.size r2);
      let (_, missing) = Relation.delete_key r2 (v_int 99) in
      Alcotest.(check bool) (name ^ " delete missing") false missing)
    backends

let test_relation_schema_mismatch () =
  let r = Relation.create schema in
  match Relation.insert r (Tuple.make [ v_str "bad"; v_str "x" ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "schema mismatch accepted"

let test_relation_select () =
  let r =
    match
      Relation.of_tuples schema [ tup 1 "a"; tup 2 "b"; tup 3 "a" ]
    with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check (list tuple_t)) "select by payload"
    [ tup 1 "a"; tup 3 "a" ]
    (Relation.select r (fun t -> Value.equal (Tuple.get t 1) (v_str "a")))

let test_relation_sharing_backend_mismatch () =
  let a = Relation.create ~backend:Relation.List_backend schema in
  let b = Relation.create ~backend:Relation.Avl_backend schema in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Relation.shared_units: backend mismatch") (fun () ->
      ignore (Relation.shared_units ~old:a b))

(* -- the column backend's chunk layout ------------------------------------- *)

let column_rel ?(chunk = 4) tuples =
  match Relation.of_tuples ~backend:(Relation.Column_backend chunk) schema tuples with
  | Ok r -> r
  | Error e -> Alcotest.fail e

let test_column_chunk_sharing () =
  let tuples = List.init 32 (fun i -> tup i "v") in
  let r = column_rel tuples in
  Alcotest.(check (pair int int)) "chunks" (8, 8)
    (Relation.shared_units ~old:r r);
  (* a point insert path-copies one chunk and the spine; the rest share.
     key 100 lands in the full last chunk, which splits in half *)
  let r2 =
    match Relation.insert r (tup 100 "new") with
    | Ok (r2, true) -> r2
    | _ -> Alcotest.fail "insert failed"
  in
  let (shared, total) = Relation.shared_units ~old:r r2 in
  Alcotest.(check (pair int int)) "only the split chunk rebuilt" (7, 9)
    (shared, total);
  (* a delete rebuilds exactly the containing chunk *)
  let (r3, found) = Relation.delete_key r (v_int 5) in
  Alcotest.(check bool) "deleted" true found;
  let (shared, total) = Relation.shared_units ~old:r r3 in
  Alcotest.(check (pair int int)) "7 of 8 chunks shared" (7, 8) (shared, total);
  (* an update touching two chunks rebuilds two *)
  let (r4, touched) =
    Relation.update r
      ~lo:(Relation.Inclusive (v_int 6))
      ~hi:(Relation.Inclusive (v_int 9))
      (fun t -> Some (Tuple.make [ Tuple.get t 0; v_str "w" ]))
  in
  Alcotest.(check int) "rows touched" 4 touched;
  let (shared, total) = Relation.shared_units ~old:r r4 in
  Alcotest.(check (pair int int)) "6 of 8 chunks shared" (6, 8) (shared, total)

let test_column_direct () =
  let module C = Fdb_persistent.Column.Make (struct
    type t = int
    type field = int

    let fields k = [| k |]
    let of_fields f = f.(0)
    let compare_field = compare
  end) in
  (* of_list dedups to the first occurrence and packs full chunks *)
  let c = C.of_list ~chunk:4 [ 3; 1; 3; 2; 1; 5; 4; 9; 8; 7; 6 ] in
  Alcotest.(check (list int)) "sorted, first occurrence kept"
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9 ] (C.to_list c);
  Alcotest.(check int) "packed chunks" 3 (C.chunk_count c);
  Alcotest.(check bool) "invariant" true (C.invariant c);
  (* inserting into a full chunk splits it in half *)
  let c0 = C.of_list ~chunk:4 [ 1; 2; 3; 4 ] in
  let c1 = C.insert 2 c0 in
  Alcotest.(check bool) "set semantics" true (C.to_list c1 = C.to_list c0);
  let c2 = C.insert 5 c0 in
  Alcotest.(check int) "split" 2 (C.chunk_count c2);
  Alcotest.(check (list int)) "split contents" [ 1; 2; 3; 4; 5 ] (C.to_list c2);
  Alcotest.(check bool) "split invariant" true (C.invariant c2);
  (* deleting the last row of a chunk drops the chunk *)
  let c3 = C.of_list ~chunk:2 [ 1; 2; 3 ] in
  let (c4, found) = C.delete 3 c3 in
  Alcotest.(check bool) "found" true found;
  Alcotest.(check int) "empty chunk dropped" 1 (C.chunk_count c4);
  let (c5, found) = C.delete 42 c4 in
  Alcotest.(check bool) "missing" false found;
  Alcotest.(check bool) "miss shares" true (c5 == c4);
  (* range_fold visits only overlapping chunks *)
  let big = C.of_list ~chunk:4 (List.init 64 Fun.id) in
  let meter = Fdb_persistent.Meter.create () in
  let seen =
    C.range_fold ~meter ~ge_lo:(fun k -> k >= 20) ~le_hi:(fun k -> k < 28)
      (fun acc k -> k :: acc) [] big
  in
  Alcotest.(check (list int)) "range" [ 27; 26; 25; 24; 23; 22; 21; 20 ] seen;
  Alcotest.(check bool) "pruned visit" true
    (Fdb_persistent.Meter.allocs meter <= 4)

let prop_backends_agree =

  QCheck2.Test.make ~name:"all backends agree under random keyed ops"
    ~count:150
    QCheck2.Gen.(list_size (int_range 0 60) (int_range (-20) 20))
    (fun ops ->
      let apply backend =
        let r =
          List.fold_left
            (fun r op ->
              if op >= 0 then
                match Relation.insert r (tup op "v") with
                | Ok (r', _) -> r'
                | Error e -> failwith e
              else fst (Relation.delete_key r (v_int (-op))))
            (Relation.create ~backend schema)
            ops
        in
        Relation.to_list r
      in
      let reference = apply Relation.List_backend in
      List.for_all
        (fun b -> List.equal Tuple.equal (apply b) reference)
        [ Relation.Avl_backend; Relation.Two3_backend; Relation.Btree_backend 4;
          Relation.Column_backend 4 ])

(* -- key-level diffs ----------------------------------------------------------

   [Relation.diff ~old r] is the change set the log writes for one commit;
   [Relation.apply_diff] is recovery's replay of it.  Applying the diff to
   [old] must give [r]'s contents on every backend, value for value (reals
   bit for bit, so 0.0 and -0.0 are different values here). *)

let diff_schema =
  Schema.make ~name:"D"
    ~cols:
      [ ("key", Schema.CInt); ("n", Schema.CInt); ("s", Schema.CStr);
        ("r", Schema.CReal) ]

let diff_row k (n, s, r) = Tuple.make [ v_int k; v_int n; v_str s; Value.Real r ]

let exact_value a b =
  match (a, b) with
  | (Value.Real x, Value.Real y) ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> Value.equal a b

let exact_tuples a b =
  List.equal
    (fun x y -> Tuple.arity x = Tuple.arity y && Array.for_all2 exact_value x y)
    a b

let diff_rel backend rows =
  match
    Relation.of_tuples ~backend diff_schema
      (List.map (fun (k, row) -> diff_row k row) rows)
  with
  | Ok r -> r
  | Error e -> failwith e

let replays ~old r =
  let d = Relation.diff ~old r in
  match Relation.apply_diff old d with
  | Ok r' -> exact_tuples (Relation.to_list r') (Relation.to_list r)
  | Error e -> failwith e

type diff_op =
  | Put of int * (int * string * float)  (* delete, then insert anew *)
  | Del of int
  | Set of int * (int * string * float)  (* rewrite the non-key columns *)

let apply_op r = function
  | Put (k, row) -> (
      let (r, _) = Relation.delete_key r (v_int k) in
      match Relation.insert r (diff_row k row) with
      | Ok (r, _) -> r
      | Error e -> failwith e)
  | Del k -> fst (Relation.delete_key r (v_int k))
  | Set (k, row) ->
      fst
        (Relation.update ~lo:(Relation.Inclusive (v_int k))
           ~hi:(Relation.Inclusive (v_int k)) r (fun _ -> Some (diff_row k row)))

let gen_diff_row =
  QCheck2.Gen.(
    triple
      (oneof [ int_range (-3) 3; pure min_int; pure max_int ])
      (oneofl [ ""; "a"; "b;c"; "S1;x" ])
      (oneofl [ 0.0; -0.0; 1.5; -2.25; 1e300 ]))

let gen_diff_key = QCheck2.Gen.(oneof [ int_range (-12) 12; pure min_int ])

let gen_diff_case =
  QCheck2.Gen.(
    pair
      (list_size (int_range 0 30) (pair gen_diff_key gen_diff_row))
      (list_size (int_range 0 12)
         (oneof
            [ map2 (fun k row -> Put (k, row)) gen_diff_key gen_diff_row;
              map (fun k -> Del k) gen_diff_key;
              map2 (fun k row -> Set (k, row)) gen_diff_key gen_diff_row ])))

let prop_diff_replays =
  QCheck2.Test.make ~name:"apply_diff (diff ~old r) old == r, all backends"
    ~count:200 gen_diff_case (fun (rows, ops) ->
      List.for_all
        (fun backend ->
          let old = diff_rel backend rows in
          let r = List.fold_left apply_op old ops in
          replays ~old r && Relation.diff ~old old = [])
        backends)

(* [Relation.apply_diff] as it was before list relations merged sorted
   changes in one pass, kept as its oracle: each change a delete, then an
   insert, from the head. *)
let apply_one_by_one r changes =
  List.fold_left
    (fun acc (key, change) ->
      match acc with
      | Error _ -> acc
      | Ok r -> (
          let (r, _) = Relation.delete_key r key in
          match change with
          | None -> Ok r
          | Some tup ->
              if Tuple.arity tup = 0 || not (Value.equal (Tuple.key tup) key)
              then Error "Relation.apply_diff: tuple key differs from its change key"
              else Result.map fst (Relation.insert r tup)))
    (Ok r) changes

type change_kind = Gone | Row of (int * string * float) | Wrong_key | Bad_schema

let change_of (k, kind) =
  ( v_int k,
    match kind with
    | Gone -> None
    | Row row -> Some (diff_row k row)
    | Wrong_key -> Some (diff_row (k + 1) (0, "", 0.0))
    | Bad_schema -> Some (Tuple.make [ v_int k; v_str "short" ]) )

(* Every backend, any change list — in key order (the merge path on a
   list relation) or not, valid or not — gives what the one-by-one
   application gives: the same contents, or the same first error. *)
let prop_apply_diff_matches_one_by_one =
  QCheck2.Test.make ~name:"apply_diff == one-by-one, all backends" ~count:200
    QCheck2.Gen.(
      triple
        (list_size (int_range 0 30) (pair gen_diff_key gen_diff_row))
        (list_size (int_range 0 30)
           (pair gen_diff_key
              (frequency
                 [ (4, pure Gone); (8, map (fun r -> Row r) gen_diff_row);
                   (1, pure Wrong_key); (1, pure Bad_schema) ])))
        bool)
    (fun (rows, changes, sorted) ->
      let changes =
        if sorted then List.sort_uniq (fun (a, _) (b, _) -> compare a b) changes
        else changes
      in
      let changes = List.map change_of changes in
      List.for_all
        (fun backend ->
          let old = diff_rel backend rows in
          match (Relation.apply_diff old changes, apply_one_by_one old changes) with
          | (Ok r, Ok r') -> exact_tuples (Relation.to_list r) (Relation.to_list r')
          | (Error e, Error e') -> e = e'
          | _ -> false)
        backends)

(* A diff that rewrites every tuple of a 1000-tuple list relation — 1000
   changes — applies to the contents a rebuild has. *)
let test_apply_diff_list_rewrite () =
  let old =
    diff_rel Relation.List_backend (List.init 1000 (fun k -> (k, (k, "v", 0.5))))
  in
  let target = List.init 1000 (fun k -> (k, (k, "w", -0.0))) in
  let rebuilt = diff_rel Relation.List_backend target in
  let changes = Relation.diff ~old rebuilt in
  Alcotest.(check int) "1000 changes" 1000 (List.length changes);
  match Relation.apply_diff old changes with
  | Ok r ->
      Alcotest.(check bool) "equals the rebuild" true
        (exact_tuples (Relation.to_list r) (Relation.to_list rebuilt))
  | Error e -> Alcotest.fail e

let test_diff_cases () =
  let rows = List.init 10 (fun k -> (k - 3, (k, Printf.sprintf "s%d" k, 0.5))) in
  List.iter
    (fun backend ->
      let name = Relation.backend_name backend in
      let base = diff_rel backend rows in
      let check ?(old = base) what r expected =
        let d = Relation.diff ~old r in
        Alcotest.(check (list string)) (name ^ " " ^ what ^ " changes") expected
          (List.map
             (fun (k, change) ->
               Value.to_string k ^ if Option.is_some change then "+" else "-")
             d);
        Alcotest.(check bool) (name ^ " " ^ what ^ " replays") true (replays ~old r)
      in
      let old = base in
      check "identical" old [];
      check "identical rebuild" (diff_rel backend rows) [];
      check "delete-all" (Relation.create ~backend diff_schema)
        (List.map (fun (k, _) -> string_of_int k ^ "-") rows);
      check "re-insert"
        (apply_op (apply_op old (Del 2)) (Put (2, (-7, "new", -2.25))))
        [ "2+" ];
      check "non-key update" (apply_op old (Set (4, (7, "changed", 0.5)))) [ "4+" ];
      check "edge values"
        (List.fold_left apply_op old
           [ Put (-1, (min_int, "", -0.0)); Put (40, (-1, "", 1e300));
             Set (0, (max_int, "", 0.0)) ])
        [ "-1+"; "0+"; "40+" ];
      let zero = apply_op old (Set (1, (4, "s4", 0.0))) in
      check ~old:zero "negative zero"
        (apply_op zero (Set (1, (4, "s4", -0.0))))
        [ "1+" ])
    backends

(* The list merge [Relation.diff] used before it learned to skip shared
   subtrees, kept here as its oracle: both versions listed in full and
   merged by key, bit-exact on values. *)
let merge_diff ~old r =
  let exact x y = Tuple.arity x = Tuple.arity y && Array.for_all2 exact_value x y in
  let change tup = (Tuple.key tup, Some tup) and gone tup = (Tuple.key tup, None) in
  let rec go acc xs ys =
    match (xs, ys) with
    | ([], []) -> List.rev acc
    | (x :: xs', []) -> go (gone x :: acc) xs' []
    | ([], y :: ys') -> go (change y :: acc) [] ys'
    | (x :: xs', y :: ys') ->
        let c = Tuple.compare_key x y in
        if c < 0 then go (gone x :: acc) xs' ys
        else if c > 0 then go (change y :: acc) xs ys'
        else if exact x y then go acc xs' ys'
        else go (change y :: acc) xs' ys'
  in
  go [] (Relation.to_list old) (Relation.to_list r)

let same_diff a b =
  List.equal
    (fun (k, x) (k', y) ->
      exact_value k k'
      && Option.equal (fun x y -> exact_tuples [ x ] [ y ]) x y)
    a b

(* The structural diff against the oracle, on every backend and B-tree
   branchings 3, 4 and 8, over version pairs one step apart, any number of
   steps apart in either direction, unrelated relations, and equal contents
   in different shapes (a bottom-up bulk load against an insert fold in
   reverse key order), which must diff to nothing. *)
let diff_backends =
  [ Relation.List_backend; Relation.Avl_backend; Relation.Two3_backend;
    Relation.Btree_backend 3; Relation.Btree_backend 4;
    Relation.Btree_backend 8; Relation.Column_backend 4 ]

let gen_diff_oracle_case =
  QCheck2.Gen.(
    triple
      (list_size (int_range 0 60) (pair gen_diff_key gen_diff_row))
      (list_size (int_range 0 12)
         (oneof
            [ map2 (fun k row -> Put (k, row)) gen_diff_key gen_diff_row;
              map (fun k -> Del k) gen_diff_key;
              map2 (fun k row -> Set (k, row)) gen_diff_key gen_diff_row ]))
      (list_size (int_range 0 40) (pair gen_diff_key gen_diff_row)))

let prop_diff_matches_oracle =
  QCheck2.Test.make ~name:"structural diff == list-merge oracle, all backends"
    ~count:150 gen_diff_oracle_case (fun (rows, ops, other) ->
      List.for_all
        (fun backend ->
          let agrees ~old r = same_diff (Relation.diff ~old r) (merge_diff ~old r) in
          let base = diff_rel backend rows in
          let versions =
            Array.of_list
              (base
              :: snd
                   (List.fold_left_map
                      (fun r op ->
                        let r' = apply_op r op in
                        (r', r'))
                      base ops))
          in
          let n = Array.length versions in
          let pairs_agree = ref true in
          for i = 0 to n - 1 do
            for j = 0 to n - 1 do
              if not (agrees ~old:versions.(i) versions.(j)) then
                pairs_agree := false
            done
          done;
          let unrelated = diff_rel backend other in
          let folded =
            List.fold_left
              (fun r tup ->
                match Relation.insert r tup with
                | Ok (r, _) -> r
                | Error e -> failwith e)
              (Relation.create ~backend diff_schema)
              (List.rev (Relation.to_list base))
          in
          !pairs_agree
          && agrees ~old:base unrelated
          && agrees ~old:unrelated base
          && Relation.diff ~old:base folded = []
          && Relation.diff ~old:folded base = [])
        diff_backends)

(* On a B-tree the walk opens only the pages an update rebuilt: a
   one-tuple change in a 4000-tuple relation reports exactly that tuple. *)
let test_diff_one_step_large () =
  List.iter
    (fun backend ->
      let rows = List.init 4000 (fun k -> (k, (k, "v", 0.5))) in
      let base = diff_rel backend rows in
      let name = Relation.backend_name backend in
      List.iter
        (fun (what, op, expected) ->
          let r = apply_op base op in
          Alcotest.(check bool) (name ^ " " ^ what ^ " matches oracle") true
            (same_diff (Relation.diff ~old:base r) (merge_diff ~old:base r));
          Alcotest.(check int) (name ^ " " ^ what ^ " size") expected
            (List.length (Relation.diff ~old:base r)))
        [ ("insert", Put (5000, (1, "n", 0.0)), 1);
          ("delete", Del 1234, 1);
          ("rewrite", Set (3999, (2, "w", -0.0)), 1);
          ("no-op rewrite", Set (7, (7, "v", 0.5)), 0) ])
    diff_backends

(* -- bulk loading ------------------------------------------------------------ *)

(* The specification [Relation.of_tuples] must meet: a sequential insert
   fold from the empty relation, stopping at the first error. *)
let insert_fold ?backend schema tuples =
  List.fold_left
    (fun acc t -> Result.bind acc (fun r -> Result.map fst (Relation.insert r t)))
    (Ok (Relation.create ?backend schema))
    tuples

(* Unsorted tuples over a small key range (so keys repeat with different
   payloads), with zero to two schema-mismatched tuples spliced in. *)
let gen_load =
  QCheck2.Gen.(
    let good =
      map2 (fun k c -> tup k (String.make 1 c)) (int_range 0 15)
        (char_range 'a' 'e')
    and bad =
      oneofl
        [ Tuple.make [ v_str "k"; v_str "v" ]; Tuple.make [ v_int 3 ];
          Tuple.make [ v_int 4; v_int 4 ] ]
    in
    let* tuples = list_size (int_range 0 40) good in
    let* bads = list_size (int_range 0 2) (pair (int_range 0 40) bad) in
    return
      (List.fold_left
         (fun ts (at, b) ->
           let at = min at (List.length ts) in
           List.filteri (fun i _ -> i < at) ts
           @ (b :: List.filteri (fun i _ -> i >= at) ts))
         tuples bads))

let print_tuples ts = String.concat "; " (List.map Tuple.to_string ts)

let same_load a b =
  match (a, b) with
  | (Ok x, Ok y) ->
      Relation.backend x = Relation.backend y
      && List.equal Tuple.equal (Relation.to_list x) (Relation.to_list y)
  | (Error x, Error y) -> String.equal x y
  | _ -> false

(* Bulk loads into B-trees of branching 3, 4 and 8 at every size up to
   3b^2: ascending input round-trips; input with one adjacent pair
   swapped, or with a key repeated under another payload, loads what the
   insert fold does (the first tuple per key). *)
let test_btree_bulk_load_sizes () =
  List.iter
    (fun b ->
      let backend = Relation.Btree_backend b in
      for n = 0 to 3 * b * b do
        let ts = List.init n (fun i -> tup i "v") in
        (match Relation.of_tuples ~backend schema ts with
        | Ok r when List.equal Tuple.equal (Relation.to_list r) ts -> ()
        | _ -> Alcotest.failf "btree-%d n=%d: ascending load differs" b n);
        List.iter
          (fun i ->
            if i >= 0 && i + 1 < n then begin
              let swapped =
                List.mapi
                  (fun j t ->
                    if j = i then tup (i + 1) "v" else if j = i + 1 then tup i "v" else t)
                  ts
              and repeated =
                List.concat
                  (List.mapi (fun j t -> if j = i then [ t; tup i "again" ] else [ t ]) ts)
              in
              List.iter
                (fun (what, input) ->
                  if
                    not
                      (same_load
                         (Relation.of_tuples ~backend schema input)
                         (insert_fold ~backend schema input))
                  then Alcotest.failf "btree-%d n=%d: %s at %d" b n what i)
                [ ("swap", swapped); ("repeat", repeated) ]
            end)
          [ 0; n / 2; n - 2 ]
      done)
    [ 3; 4; 8 ]

let prop_of_tuples_is_insert_fold =
  QCheck2.Test.make ~name:"of_tuples == insert fold on every backend"
    ~count:300 ~print:print_tuples gen_load (fun tuples ->
      List.for_all
        (fun backend ->
          same_load
            (Relation.of_tuples ~backend schema tuples)
            (insert_fold ~backend schema tuples))
        backends
      && same_load (Relation.of_tuples schema tuples) (insert_fold schema tuples))

(* The durable image as it was built before bulk loading: a
   [Database.load] fold per relation, on the backend [initial_database]
   builds on. *)
let load_fold_database (spec : Fdb.Pipeline.db_spec) =
  List.fold_left
    (fun db s ->
      match List.assoc_opt (Schema.name s) spec.initial with
      | None -> db
      | Some ts -> (
          match Database.load db ~rel:(Schema.name s) ts with
          | Ok db -> db
          | Error e -> invalid_arg ("Pipeline.initial_database: " ^ e)))
    (Database.create ~backend:(Relation.Btree_backend 8) spec.schemas)
    spec.schemas

let schema_s =
  Schema.make ~name:"S" ~cols:[ ("key", Schema.CInt); ("val", Schema.CStr) ]

let prop_initial_database_is_load_fold =
  QCheck2.Test.make ~name:"initial_database == Database.load fold" ~count:200
    QCheck2.Gen.(triple gen_load gen_load bool)
    (fun (r, s, with_s) ->
      let spec =
        {
          Fdb.Pipeline.schemas = [ schema; schema_s ];
          initial = (("R", r) :: (if with_s then [ ("S", s) ] else []));
        }
      in
      let build f = try Ok (f spec) with Invalid_argument e -> Error e in
      match (build Fdb.Pipeline.initial_database, build load_fold_database) with
      | (Ok a, Ok b) ->
          Database.names a = Database.names b
          && List.for_all
               (fun name ->
                 same_load
                   (Option.to_result ~none:"" (Database.relation a name))
                   (Option.to_result ~none:"" (Database.relation b name)))
               (Database.names a)
      | (Error a, Error b) -> String.equal a b
      | _ -> false)

let test_initial_database_scale () =
  (* 100k tuples in a scrambled key order with every tenth key repeated:
     a quadratic list-insert fold takes minutes here, the bulk build well
     under a second.  No timing is asserted; a regression shows as a hang. *)
  let n = 100_000 in
  let tuples =
    List.init n (fun i ->
        let k = i * 7919 mod n in
        tup (if k mod 10 = 0 then k + 1 else k) (string_of_int i))
  in
  let db =
    Fdb.Pipeline.initial_database
      { Fdb.Pipeline.schemas = [ schema ]; initial = [ ("R", tuples) ] }
  in
  match Database.relation db "R" with
  | None -> Alcotest.fail "relation R missing"
  | Some r ->
      Alcotest.(check string) "btree-8 backend" "btree-8"
        (Relation.backend_name (Relation.backend r));
      Alcotest.(check int) "one tuple per key" (n - (n / 10)) (Relation.size r);
      (* keep-first: key 1 arrives from i = 0 (k = 0 bumped) before i with k = 1 *)
      Alcotest.(check (option tuple_t)) "first occurrence kept"
        (Some (tup 1 "0"))
        (Relation.find_key r (v_int 1))

(* -- algebra ---------------------------------------------------------------- *)

let test_algebra_project () =
  let rows = [ tup 1 "a"; tup 2 "b" ] in
  Alcotest.(check (list tuple_t)) "project col 1"
    [ Tuple.make [ v_str "a" ]; Tuple.make [ v_str "b" ] ]
    (Algebra.project [ 1 ] rows);
  Alcotest.(check (list tuple_t)) "reorder"
    [ Tuple.make [ v_str "a"; v_int 1 ] ]
    (Algebra.project [ 1; 0 ] [ tup 1 "a" ]);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Algebra.project: column index out of range") (fun () ->
      ignore (Algebra.project [ 5 ] rows))

let test_algebra_join () =
  let left = [ tup 1 "a"; tup 2 "b" ] in
  let right = [ Tuple.make [ v_str "b"; v_int 10 ];
                Tuple.make [ v_str "b"; v_int 20 ];
                Tuple.make [ v_str "c"; v_int 30 ] ] in
  let joined = Algebra.join ~left_col:1 ~right_col:0 left right in
  Alcotest.(check (list tuple_t)) "join pairs"
    [ Tuple.make [ v_int 2; v_str "b"; v_str "b"; v_int 10 ];
      Tuple.make [ v_int 2; v_str "b"; v_str "b"; v_int 20 ] ]
    joined

let test_algebra_sets () =
  let a = [ tup 1 "a"; tup 2 "b" ] and b = [ tup 2 "b"; tup 3 "c" ] in
  Alcotest.(check (list tuple_t)) "union"
    [ tup 1 "a"; tup 2 "b"; tup 3 "c" ]
    (Algebra.union a b);
  Alcotest.(check (list tuple_t)) "difference" [ tup 1 "a" ]
    (Algebra.difference a b);
  Alcotest.(check (list tuple_t)) "intersection" [ tup 2 "b" ]
    (Algebra.intersection a b);
  Alcotest.(check int) "product size" 4 (List.length (Algebra.product a b))

let prop_join_matches_spec =
  QCheck2.Test.make ~name:"join == nested-loop spec" ~count:200
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 15) (int_range 0 5))
        (list_size (int_range 0 15) (int_range 0 5)))
    (fun (ls, rs) ->
      let left = List.map (fun k -> tup k "l") ls
      and right = List.map (fun k -> tup k "r") rs in
      let spec =
        List.concat_map
          (fun lt ->
            List.filter_map
              (fun rt ->
                if Value.equal (Tuple.key lt) (Tuple.key rt) then
                  Some (Array.append lt rt)
                else None)
              right)
          left
      in
      List.equal Tuple.equal
        (Algebra.join ~left_col:0 ~right_col:0 left right)
        spec)

(* -- database ---------------------------------------------------------------- *)

let two_schemas =
  [ Schema.make ~name:"R" ~cols:[ ("key", Schema.CInt); ("val", Schema.CStr) ];
    Schema.make ~name:"S" ~cols:[ ("key", Schema.CInt); ("val", Schema.CStr) ] ]

let test_database_versioning () =
  let db0 = Database.create two_schemas in
  Alcotest.(check (list string)) "names" [ "R"; "S" ] (Database.names db0);
  let (db1, added) =
    match Database.insert db0 ~rel:"R" (tup 1 "a") with
    | Ok x -> x
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "added" true added;
  (* The untouched relation is physically shared across versions; the
     touched one is not. *)
  Alcotest.(check bool) "S shared" true (Database.shares_relation ~old:db0 db1 "S");
  Alcotest.(check bool) "R replaced" false
    (Database.shares_relation ~old:db0 db1 "R");
  (* The old version is intact. *)
  Alcotest.(check int) "old version empty" 0 (Database.total_tuples db0);
  Alcotest.(check int) "new version has the tuple" 1 (Database.total_tuples db1)

let test_database_errors () =
  let db = Database.create two_schemas in
  (match Database.insert db ~rel:"Zed" (tup 1 "a") with
  | Error e -> Alcotest.(check string) "unknown rel" "unknown relation Zed" e
  | Ok _ -> Alcotest.fail "accepted unknown relation");
  Alcotest.check_raises "duplicate names"
    (Invalid_argument "Database.create: duplicate relation names") (fun () ->
      ignore (Database.create [ schema; schema ]))

let test_database_load_and_find () =
  let db = Database.create two_schemas in
  let db =
    match Database.load db ~rel:"R" [ tup 1 "a"; tup 2 "b" ] with
    | Ok db -> db
    | Error e -> Alcotest.fail e
  in
  (match Database.find db ~rel:"R" ~key:(v_int 2) with
  | Ok (Some t) -> Alcotest.check tuple_t "found" (tup 2 "b") t
  | _ -> Alcotest.fail "find failed");
  match Database.find db ~rel:"S" ~key:(v_int 2) with
  | Ok None -> ()
  | _ -> Alcotest.fail "phantom tuple in S"

(* The one-pass slot walk agrees with the per-name definition, in slot
   order, and refuses versions with different relation sets. *)
let test_database_changed_slots () =
  let db0 =
    Database.create
      (two_schemas
      @ [ Schema.make ~name:"T" ~cols:[ ("key", Schema.CInt); ("val", Schema.CStr) ] ])
  in
  let ok = function Ok (db, _) -> db | Error e -> Alcotest.fail e in
  let db1 = ok (Database.insert db0 ~rel:"T" (tup 1 "a")) in
  let db2 = ok (Database.insert db1 ~rel:"R" (tup 2 "b")) in
  let changed old db =
    List.map (fun (i, name, _, _) -> (i, name)) (Database.changed_slots ~old db)
  in
  let by_name old db =
    List.filter_map
      (fun (i, name) ->
        if Database.shares_relation ~old db name then None else Some (i, name))
      (List.mapi (fun i n -> (i, n)) (Database.names db))
  in
  List.iter
    (fun (old, db) ->
      Alcotest.(check (list (pair int string))) "matches shares_relation"
        (by_name old db) (changed old db))
    [ (db0, db0); (db0, db1); (db1, db2); (db0, db2) ];
  Alcotest.(check (list (pair int string))) "slot order" [ (0, "R"); (2, "T") ]
    (changed db0 db2);
  (match Database.changed_slots ~old:db0 db2 with
  | [ (_, _, old_r, new_r); _ ] ->
      Alcotest.(check bool) "old relation" true
        (Some old_r = Database.relation db0 "R"
        && Some new_r = Database.relation db2 "R")
  | _ -> Alcotest.fail "two changed slots expected");
  Alcotest.check_raises "different relation sets"
    (Invalid_argument "Database.changed_slots: relation sets differ") (fun () ->
      ignore (Database.changed_slots ~old:db0 (Database.create two_schemas)))

(* The slot array keeps schema order whatever the names, [replace] copies
   the slot array and shares every other relation, and versions from two
   separate [create] calls still compare slot by slot. *)
let test_database_slots () =
  let mk name = Schema.make ~name ~cols:[ ("key", Schema.CInt); ("val", Schema.CStr) ] in
  let schemas = [ mk "Z"; mk "A"; mk "M" ] in
  let db = Database.create ~backend:(Relation.Btree_backend 4) schemas in
  Alcotest.(check (list string)) "names in schema order" [ "Z"; "A"; "M" ]
    (Database.names db);
  Alcotest.(check (list string)) "slots in schema order" [ "Z"; "A"; "M" ]
    (List.map fst (Database.slots db));
  Alcotest.(check (list string)) "contents in schema order" [ "Z"; "A"; "M" ]
    (List.map fst (Database.contents db));
  let rel name = Option.get (Database.relation db name) in
  let a' =
    match Relation.insert (rel "A") (tup 1 "a") with
    | Ok (r, _) -> r
    | Error e -> Alcotest.fail e
  in
  let db' = Database.replace db "A" a' in
  Alcotest.(check bool) "replaced slot" true
    (Option.get (Database.relation db' "A") == a');
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " shared") true
        (Option.get (Database.relation db' name) == rel name))
    [ "Z"; "M" ];
  Alcotest.(check (list (pair int string))) "one changed slot" [ (1, "A") ]
    (List.map (fun (i, n, _, _) -> (i, n)) (Database.changed_slots ~old:db db'));
  Alcotest.(check int) "old version untouched" 0 (Relation.size (rel "A"));
  Alcotest.check_raises "unknown name"
    (Invalid_argument "Database.replace: unknown relation Q") (fun () ->
      ignore (Database.replace db "Q" a'));
  Alcotest.(check bool) "unknown lookup" true (Database.relation db "Q" = None);
  (* A second [create] has its own catalog and its own empty relations:
     adopt all but one of the first's and only that one differs. *)
  let other = Database.create ~backend:(Relation.Btree_backend 4) schemas in
  let other =
    List.fold_left
      (fun o name -> Database.replace o name (rel name))
      other [ "Z"; "M" ]
  in
  Alcotest.(check (list (pair int string))) "across create calls" [ (1, "A") ]
    (List.map (fun (i, n, _, _) -> (i, n)) (Database.changed_slots ~old:db other));
  Alcotest.(check (list (pair int string))) "adopted version" []
    (List.map
       (fun (i, n, _, _) -> (i, n))
       (Database.changed_slots ~old:db (Database.replace other "A" (rel "A"))));
  Alcotest.check_raises "reordered names"
    (Invalid_argument "Database.changed_slots: relation sets differ") (fun () ->
      ignore
        (Database.changed_slots ~old:db
           (Database.create [ mk "A"; mk "Z"; mk "M" ])))

let () =
  Alcotest.run "relational"
    [
      ("value", [ Alcotest.test_case "order/pp" `Quick test_value_order ]);
      ( "tuple",
        [
          Alcotest.test_case "basics" `Quick test_tuple_basics;
          Alcotest.test_case "sort_keep_first" `Quick test_sort_keep_first;
        ] );
      ( "schema",
        [
          Alcotest.test_case "basics" `Quick test_schema;
          QCheck_alcotest.to_alcotest prop_schema_matches_spec;
        ] );
      ( "relation",
        [
          Alcotest.test_case "roundtrip all backends" `Quick
            test_relation_roundtrip;
          Alcotest.test_case "schema mismatch" `Quick
            test_relation_schema_mismatch;
          Alcotest.test_case "select" `Quick test_relation_select;
          Alcotest.test_case "column chunk sharing" `Quick
            test_column_chunk_sharing;
          Alcotest.test_case "column layout direct" `Quick test_column_direct;
          Alcotest.test_case "sharing backend mismatch" `Quick
            test_relation_sharing_backend_mismatch;
          QCheck_alcotest.to_alcotest prop_backends_agree;
        ] );
      ( "bulkload",
        [
          QCheck_alcotest.to_alcotest prop_of_tuples_is_insert_fold;
          Alcotest.test_case "btree bulk load sizes" `Quick
            test_btree_bulk_load_sizes;
          QCheck_alcotest.to_alcotest prop_initial_database_is_load_fold;
          Alcotest.test_case "100k-tuple initial_database" `Quick
            test_initial_database_scale;
        ] );
      ( "algebra",
        [
          Alcotest.test_case "project" `Quick test_algebra_project;
          Alcotest.test_case "join" `Quick test_algebra_join;
          Alcotest.test_case "set ops" `Quick test_algebra_sets;
          QCheck_alcotest.to_alcotest prop_join_matches_spec;
        ] );
      ( "database",
        [
          Alcotest.test_case "versioning shares slots" `Quick
            test_database_versioning;
          Alcotest.test_case "errors" `Quick test_database_errors;
          Alcotest.test_case "load and find" `Quick test_database_load_and_find;
          Alcotest.test_case "changed_slots" `Quick test_database_changed_slots;
          Alcotest.test_case "slot array" `Quick test_database_slots;
        ] );
      ( "diff",
        [
          Alcotest.test_case "cases all backends" `Quick test_diff_cases;
          QCheck_alcotest.to_alcotest prop_diff_replays;
          QCheck_alcotest.to_alcotest prop_diff_matches_oracle;
          Alcotest.test_case "one step in a large relation" `Quick
            test_diff_one_step_large;
          QCheck_alcotest.to_alcotest prop_apply_diff_matches_one_by_one;
          Alcotest.test_case "1000-change list rewrite" `Quick
            test_apply_diff_list_rewrite;
        ] );
    ]
