(* Access-path planner tests: predicate analysis, pruned range folds and
   single-traversal updates on every backend, planner-executed queries vs
   naive full-scan references (property), hash-join/sort-merge algebra
   equivalences, and Sim-driven histories through the new executor. *)

open Fdb_relational
module Ast = Fdb_query.Ast
module Pred = Fdb_query.Pred
module Plan = Fdb_query.Plan
module Txn = Fdb_txn.Txn
module Meter = Fdb_persistent.Meter
module Gen = Fdb_check.Gen
module Oracle = Fdb_check.Oracle
module Sim = Fdb_check.Sim

let schema =
  Schema.make ~name:"R"
    ~cols:[ ("key", Schema.CInt); ("num", Schema.CInt); ("val", Schema.CStr) ]

let backends =
  [ Relation.List_backend; Relation.Avl_backend; Relation.Two3_backend;
    Relation.Btree_backend 4; Relation.Column_backend 4 ]

let tup k =
  Tuple.make
    [ Value.Int k; Value.Int (k * 7 mod 13);
      Value.Str (String.make 1 (Char.chr (97 + (k mod 5)))) ]

let mk_rel backend n =
  match Relation.of_tuples ~backend schema (List.init n tup) with
  | Ok r -> r
  | Error e -> Alcotest.fail e

let response_t = Alcotest.testable Txn.pp_response Txn.response_equal

(* -- predicate analysis -------------------------------------------------- *)

let cmp c op v = Ast.Cmp (c, op, Value.Int v)

let plan_str p = Plan.to_string (Plan.analyze schema p)

let test_analyze_point () =
  (match Plan.analyze schema (Ast.And (cmp "key" Ast.Eq 5, cmp "num" Ast.Gt 2)) with
  | { Plan.path = Plan.Point_lookup (Value.Int 5);
      residual = Ast.Cmp ("num", Ast.Gt, Value.Int 2) } ->
      ()
  | p -> Alcotest.failf "point: %s" (Plan.to_string p));
  (* a second key equality stays residual (agrees or falsifies) *)
  match Plan.analyze schema (Ast.And (cmp "key" Ast.Eq 1, cmp "key" Ast.Eq 2)) with
  | { Plan.path = Plan.Point_lookup (Value.Int 1);
      residual = Ast.Cmp ("key", Ast.Eq, Value.Int 2) } ->
      ()
  | p -> Alcotest.failf "double eq: %s" (Plan.to_string p)

let test_analyze_range_tightens () =
  let p =
    Ast.And
      ( Ast.And (cmp "key" Ast.Gt 2, cmp "key" Ast.Ge 4),
        Ast.And (cmp "key" Ast.Lt 10, cmp "key" Ast.Le 9) )
  in
  (match Plan.analyze schema p with
  | { Plan.path =
        Plan.Range_scan
          { lo = Some { value = Value.Int 4; inclusive = true };
            hi = Some { value = Value.Int 9; inclusive = true } };
      residual = Ast.True } ->
      ()
  | p -> Alcotest.failf "tighten: %s" (Plan.to_string p));
  (* at equal values the exclusive bound is the tighter one *)
  match Plan.analyze schema (Ast.And (cmp "key" Ast.Ge 4, cmp "key" Ast.Gt 4)) with
  | { Plan.path =
        Plan.Range_scan
          { lo = Some { value = Value.Int 4; inclusive = false }; hi = None };
      residual = Ast.True } ->
      ()
  | p -> Alcotest.failf "exclusive wins: %s" (Plan.to_string p)

let test_analyze_residual_only () =
  (* atoms under Or/Not, Ne, and non-key atoms never steer the path *)
  List.iter
    (fun p ->
      match Plan.analyze schema p with
      | { Plan.path = Plan.Full_scan; residual } when residual = p -> ()
      | pl -> Alcotest.failf "expected full scan: %s" (Plan.to_string pl))
    [ Ast.Or (cmp "key" Ast.Eq 1, cmp "key" Ast.Eq 2);
      Ast.Not (cmp "key" Ast.Lt 3);
      cmp "key" Ast.Ne 7;
      cmp "num" Ast.Eq 3 ];
  match Plan.analyze schema Ast.True with
  | { Plan.path = Plan.Full_scan; residual = Ast.True } -> ()
  | p -> Alcotest.failf "true: %s" (Plan.to_string p)

let test_explain () =
  let schema_of n = if n = "R" then Some schema else None in
  let ex src =
    Plan.explain ~schema_of (Fdb_query.Parser.parse_exn src)
  in
  Alcotest.(check string) "point"
    "select R: point lookup key = 5; residual num > 2; project val"
    (ex "select val from R where key = 5 and num > 2");
  Alcotest.(check string) "range"
    "count R: range scan [key >= 3, key < 9]"
    (ex "count R where key >= 3 and key < 9");
  Alcotest.(check string) "full"
    "update R: full scan; residual num = 1" (ex "update R set val = \"x\" where num = 1");
  Alcotest.(check string) "size" "count R: size accessor" (ex "count R");
  Alcotest.(check string) "unknown" "select Zz: unknown relation"
    (ex "select * from Zz")

(* -- golden explain: the fdbsim rendering, pinned, then executed ---------- *)

let golden_schema =
  Schema.make ~name:"R" ~cols:[ ("key", Schema.CInt); ("val", Schema.CStr) ]

(* One case per access path the planner can choose (the `fdbsim explain`
   schema: key:int, val:string).  The expected strings are the exact lines
   the CLI prints; a rewording is a user-visible change and must show up
   here. *)
let golden_cases =
  [ ("find 7 in R", "find R: point lookup key = 7");
    ( "select * from R where key = 7 and val = \"c\"",
      "select R: point lookup key = 7; residual val = \"c\"" );
    ( "select * from R where key >= 3 and key < 9",
      "select R: range scan [key >= 3, key < 9]" );
    ( "select val from R where val = \"c\"",
      "select R: full scan; residual val = \"c\"; project val" );
    ("count R", "count R: size accessor");
    ( "sum key from R where key <= 4",
      "aggregate R: range scan [-inf, key <= 4]" );
    ("delete 7 from R", "delete R: point delete key = 7");
    ( "update R set val = \"z\" where key > 10",
      "update R: range scan [key > 10, +inf]" ) ]

let test_explain_golden () =
  let schema_of n = if n = "R" then Some golden_schema else None in
  List.iter
    (fun (src, expected) ->
      Alcotest.(check string) src expected
        (Plan.explain ~schema_of (Fdb_query.Parser.parse_exn src)))
    golden_cases

(* The explained plans must execute on every persistent backend: each
   golden query runs against a fresh relation per backend, every backend
   must answer exactly as the linked list does, and the planner's path
   metrics must record the advertised mix (1 point, 3 range, 1 full among
   the planner-routed queries). *)
let test_explain_paths_on_backends () =
  let gtup k =
    Tuple.make
      [ Value.Int k; Value.Str (String.make 1 (Char.chr (97 + (k mod 5)))) ]
  in
  let mk backend =
    match
      Database.load
        (Database.create ~backend [ golden_schema ])
        ~rel:"R" (List.init 32 gtup)
    with
    | Ok db -> db
    | Error e -> Alcotest.fail e
  in
  let run db src = fst (Txn.translate (Fdb_query.Parser.parse_exn src) db) in
  let reference =
    let db = mk Relation.List_backend in
    List.map (fun (src, _) -> run db src) golden_cases
  in
  let m_point = Fdb_obs.Metrics.counter "plan.path.point"
  and m_range = Fdb_obs.Metrics.counter "plan.path.range"
  and m_full = Fdb_obs.Metrics.counter "plan.path.full" in
  List.iter
    (fun backend ->
      let name = Relation.backend_name backend in
      let db = mk backend in
      let p0 = Fdb_obs.Metrics.counter_value m_point
      and r0 = Fdb_obs.Metrics.counter_value m_range
      and f0 = Fdb_obs.Metrics.counter_value m_full in
      List.iteri
        (fun i (src, _) ->
          Alcotest.check response_t
            (Printf.sprintf "%s: %s" name src)
            (List.nth reference i) (run db src))
        golden_cases;
      Alcotest.(check (list int))
        (name ^ ": planner path mix")
        [ 1; 3; 1 ]
        [ Fdb_obs.Metrics.counter_value m_point - p0;
          Fdb_obs.Metrics.counter_value m_range - r0;
          Fdb_obs.Metrics.counter_value m_full - f0 ])
    backends

(* -- range folds on every backend ---------------------------------------- *)

let keys_of tuples = List.map (fun t -> Tuple.key t) tuples

let test_range_semantics () =
  List.iter
    (fun backend ->
      let name = Relation.backend_name backend in
      let r = mk_rel backend 64 in
      let range ?lo ?hi () = keys_of (Relation.range ?lo ?hi r) in
      Alcotest.(check (list int))
        (name ^ ": [10, 20)")
        (List.init 10 (fun i -> 10 + i))
        (List.map
           (function Value.Int k -> k | _ -> -1)
           (range ~lo:(Relation.Inclusive (Value.Int 10))
              ~hi:(Relation.Exclusive (Value.Int 20)) ()));
      Alcotest.(check int)
        (name ^ ": (5, 9]")
        4
        (List.length
           (range ~lo:(Relation.Exclusive (Value.Int 5))
              ~hi:(Relation.Inclusive (Value.Int 9)) ()));
      Alcotest.(check int) (name ^ ": unbounded") 64 (List.length (range ()));
      Alcotest.(check int)
        (name ^ ": empty range")
        0
        (List.length
           (range ~lo:(Relation.Inclusive (Value.Int 40))
              ~hi:(Relation.Exclusive (Value.Int 40)) ())))
    backends

let test_range_fold_prunes () =
  (* The meter charges only units actually visited: a narrow range near the
     front must touch far fewer units than the full fold on every backend
     (trees prune subtrees; the list stops at the upper bound). *)
  List.iter
    (fun backend ->
      let name = Relation.backend_name backend in
      let r = mk_rel backend 512 in
      let full = Meter.create () in
      let n_full = Relation.fold ~meter:full (fun acc _ -> acc + 1) 0 r in
      Alcotest.(check int) (name ^ ": full fold sees all") 512 n_full;
      let narrow = Meter.create () in
      let n_narrow =
        Relation.range_fold ~meter:narrow
          ~lo:(Relation.Inclusive (Value.Int 8))
          ~hi:(Relation.Inclusive (Value.Int 15))
          (fun acc _ -> acc + 1)
          0 r
      in
      Alcotest.(check int) (name ^ ": narrow range sees 8") 8 n_narrow;
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d visited << %d full" name
           (Meter.allocs narrow) (Meter.allocs full))
        true
        (Meter.allocs narrow * 4 < Meter.allocs full))
    backends

let test_update_single_traversal_shares () =
  List.iter
    (fun backend ->
      let name = Relation.backend_name backend in
      let r = mk_rel backend 512 in
      let meter = Meter.create () in
      let b = Some (Relation.Inclusive (Value.Int 300)) in
      let (r', changed) =
        Relation.update ~meter ?lo:b ?hi:b r (fun t ->
            if Value.equal (Tuple.key t) (Value.Int 300) then
              Some (Tuple.make [ Value.Int 300; Value.Int 99; Value.Str "z" ])
            else None)
      in
      Alcotest.(check int) (name ^ ": one row") 1 changed;
      Alcotest.(check int) (name ^ ": size kept") 512 (Relation.size r');
      (* trees rebuild only the spine path; the list must copy the prefix
         up to the touched key but never past the upper bound *)
      let rebuilt_cap =
        match backend with Relation.List_backend -> 302 | _ -> 512 / 4
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d units rebuilt (<= %d)" name
           (Meter.allocs meter) rebuilt_cap)
        true
        (Meter.allocs meter <= rebuilt_cap);
      let (shared, total) = Relation.shared_units ~old:r r' in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d/%d shared" name shared total)
        true
        (total - shared <= Meter.allocs meter);
      (* untouched relation returned physically unchanged *)
      let (r'', changed') = Relation.update r' (fun _ -> None) in
      Alcotest.(check int) (name ^ ": no-op count") 0 changed';
      Alcotest.(check bool) (name ^ ": no-op shares") true (r'' == r'))
    backends

(* -- planner vs naive (property, all four backends) ----------------------- *)

let gen_pred =
  QCheck2.Gen.(
    let gen_atom =
      let key_atom =
        map2
          (fun op v -> cmp "key" op v)
          (oneofl [ Ast.Eq; Ast.Ne; Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge ])
          (int_range (-2) 40)
      and other_atom =
        oneof
          [ map2 (fun op v -> cmp "num" op v)
              (oneofl [ Ast.Eq; Ast.Lt; Ast.Ge ])
              (int_range 0 13);
            map
              (fun c -> Ast.Cmp ("val", Ast.Eq, Value.Str (String.make 1 c)))
              (char_range 'a' 'e');
            (* an unknown column exercises the Failed path on both sides *)
            return (Ast.Cmp ("ghost", Ast.Eq, Value.Int 0)) ]
      in
      (* key atoms dominate so point/range paths actually get chosen *)
      frequency [ (3, key_atom); (1, other_atom) ]
    in
    sized @@ fix (fun self n ->
        if n <= 1 then oneof [ return Ast.True; gen_atom ]
        else
          frequency
            [ (3, gen_atom);
              (3, map2 (fun a b -> Ast.And (a, b)) (self (n / 2)) (self (n / 2)));
              (1, map2 (fun a b -> Ast.Or (a, b)) (self (n / 2)) (self (n / 2)));
              (1, map (fun a -> Ast.Not a) (self (n - 1))) ]))

let gen_case =
  QCheck2.Gen.(
    triple
      (list_size (int_range 0 40) (int_range 0 40))
      gen_pred (int_range 0 7))

(* The pre-planner executor semantics, computed from first principles. *)
let naive_query db query =
  let rel = match Ast.relations_touched query with r :: _ -> r | [] -> assert false in
  match Database.relation db rel with
  | None -> Txn.Failed (Printf.sprintf "unknown relation %s" rel)
  | Some r -> (
      let rows = Relation.to_list r in
      match query with
      | Ast.Select { cols; where; _ } -> (
          match Pred.compile schema where with
          | Error e -> Txn.Failed e
          | Ok test -> (
              let picked = List.filter test rows in
              match cols with
              | None -> Txn.Selected picked
              | Some cs -> (
                  match
                    List.map
                      (fun c -> Schema.column_index schema c)
                      cs
                  with
                  | idxs when List.for_all Option.is_some idxs ->
                      let idxs = List.map Option.get idxs in
                      Txn.Selected (Algebra.project idxs picked)
                  | _ -> Txn.Failed "bad column")))
      | Ast.Count { where; _ } -> (
          match Pred.compile schema where with
          | Error e -> Txn.Failed e
          | Ok test -> Txn.Counted (List.length (List.filter test rows)))
      | Ast.Aggregate { agg; col; where; _ } -> (
          match Pred.compile_aggregate schema agg col where with
          | Error e -> Txn.Failed e
          | Ok (step, finish) ->
              Txn.Aggregated (finish (List.fold_left step None rows)))
      | Ast.Update { col; value; where; _ } -> (
          match Pred.compile_update schema col value where with
          | Error e -> Txn.Failed e
          | Ok rewrite ->
              Txn.Updated
                (List.length (List.filter_map rewrite rows)))
      | _ -> assert false)

let naive_updated_rows db where value =
  match Database.relation db "R" with
  | None -> []
  | Some r -> (
      match Pred.compile_update schema "num" value where with
      | Error _ -> Relation.to_list r
      | Ok rewrite ->
          List.map
            (fun t -> match rewrite t with Some t' -> t' | None -> t)
            (Relation.to_list r))

let prop_planner_matches_naive =
  QCheck2.Test.make ~name:"planned executor == naive full scan (4 backends)"
    ~count:600 gen_case (fun (keys, where, kind) ->
      let tuples = List.map tup keys in
      List.for_all
        (fun backend ->
          let db =
            match
              Database.load (Database.create ~backend [ schema ]) ~rel:"R"
                tuples
            with
            | Ok db -> db
            | Error e -> QCheck2.Test.fail_report e
          in
          let query =
            match kind with
            | 0 -> Ast.Select { rel = "R"; cols = None; where }
            | 1 -> Ast.Select { rel = "R"; cols = Some [ "val"; "key" ]; where }
            | 2 -> Ast.Count { rel = "R"; where }
            | 3 -> Ast.Aggregate { agg = Ast.Sum; rel = "R"; col = "num"; where }
            (* min/max of the key may be answered at a range endpoint; of
               [num], always by a fold *)
            | 4 -> Ast.Aggregate { agg = Ast.Min; rel = "R"; col = "key"; where }
            | 5 -> Ast.Aggregate { agg = Ast.Max; rel = "R"; col = "key"; where }
            | 6 -> Ast.Aggregate { agg = Ast.Min; rel = "R"; col = "num"; where }
            | _ -> Ast.Aggregate { agg = Ast.Max; rel = "R"; col = "num"; where }
          in
          let (resp, db') = Txn.translate query db in
          let expected = naive_query db query in
          if not (Txn.response_equal resp expected) then
            QCheck2.Test.fail_reportf
              "%s on %s: planned %s, naive %s (plan: %s)"
              (Ast.to_string query)
              (Relation.backend_name backend)
              (Format.asprintf "%a" Txn.pp_response resp)
              (Format.asprintf "%a" Txn.pp_response expected)
              (plan_str where)
          else if not (db' == db) then
            QCheck2.Test.fail_reportf "read query replaced the db"
          else true)
        backends)

(* The endpoint rule fires for MIN/MAX of the key over a range or full
   scan with no residual, and only then; every answer is the naive
   full-scan one, on every backend. *)
let test_endpoint_rule () =
  let m_endpoint = Fdb_obs.Metrics.counter "plan.path.endpoint" in
  let cases =
    [ ("max key from R where key < 40", true);
      ("min key from R where key > 10 and key <= 20", true);
      ("min key from R", true);
      ("max key from R where key > 100", true);
      ("min key from R where key >= 30 and key < 30", true);
      ("max num from R where key < 40", false);
      ("max key from R where key < 40 and num > 3", false);
      ("min key from R where key = 5", false);
      ("sum key from R where key < 40", false) ]
  in
  List.iter
    (fun backend ->
      let name = Relation.backend_name backend in
      let db =
        match
          Database.load (Database.create ~backend [ schema ]) ~rel:"R"
            (List.init 64 tup)
        with
        | Ok db -> db
        | Error e -> Alcotest.fail e
      in
      List.iter
        (fun (src, fires) ->
          let query = Fdb_query.Parser.parse_exn src in
          let e0 = Fdb_obs.Metrics.counter_value m_endpoint in
          let (resp, _) = Txn.translate query db in
          Alcotest.check response_t
            (Printf.sprintf "%s: %s" name src)
            (naive_query db query) resp;
          Alcotest.(check int)
            (Printf.sprintf "%s: %s answered at an endpoint" name src)
            (if fires then 1 else 0)
            (Fdb_obs.Metrics.counter_value m_endpoint - e0))
        cases)
    backends

let prop_update_matches_naive =
  QCheck2.Test.make ~name:"planned update == naive rewrite (4 backends)"
    ~count:300 gen_case (fun (keys, where, _) ->
      let tuples = List.map tup keys in
      let value = Value.Int 99 in
      List.for_all
        (fun backend ->
          let db =
            match
              Database.load (Database.create ~backend [ schema ]) ~rel:"R"
                tuples
            with
            | Ok db -> db
            | Error e -> QCheck2.Test.fail_report e
          in
          let query =
            Ast.Update { rel = "R"; col = "num"; value; where }
          in
          let (resp, db') = Txn.translate query db in
          let expected = naive_query db query in
          if not (Txn.response_equal resp expected) then
            QCheck2.Test.fail_reportf "update count: planned %s, naive %s"
              (Format.asprintf "%a" Txn.pp_response resp)
              (Format.asprintf "%a" Txn.pp_response expected)
          else
            let final =
              match Database.relation db' "R" with
              | Some r -> Relation.to_list r
              | None -> []
            in
            let expected_rows =
              match expected with
              | Txn.Failed _ -> final (* db untouched on failure *)
              | _ -> naive_updated_rows db where value
            in
            List.equal Tuple.equal final expected_rows
            || QCheck2.Test.fail_reportf "update contents diverge on %s"
                 (Relation.backend_name backend))
        backends)

(* -- algebra equivalences -------------------------------------------------- *)

let gen_pairs =
  QCheck2.Gen.(
    list_size (int_range 0 30)
      (map2
         (fun k s -> Tuple.make [ Value.Int k; Value.Str (String.make 1 s) ])
         (int_range 0 8) (char_range 'a' 'd')))

let prop_hash_join_matches_nested =
  QCheck2.Test.make ~name:"hash join == nested loop" ~count:500
    QCheck2.Gen.(pair gen_pairs gen_pairs)
    (fun (left, right) ->
      List.for_all2 Tuple.equal
        (Algebra.join ~algo:`Hash ~left_col:0 ~right_col:0 left right)
        (Algebra.join ~algo:`Nested ~left_col:0 ~right_col:0 left right)
      && List.equal Tuple.equal
           (Algebra.join ~algo:`Hash ~left_col:1 ~right_col:1 left right)
           (Algebra.join ~algo:`Nested ~left_col:1 ~right_col:1 left right))

let prop_sort_merge_set_ops =
  QCheck2.Test.make ~name:"sort-merge difference/intersection == List.exists"
    ~count:500
    QCheck2.Gen.(pair gen_pairs gen_pairs)
    (fun (a, b) ->
      let naive_diff =
        List.filter (fun t -> not (List.exists (Tuple.equal t) b)) a
      and naive_inter = List.filter (fun t -> List.exists (Tuple.equal t) b) a in
      List.equal Tuple.equal naive_diff (Algebra.difference a b)
      && List.equal Tuple.equal naive_inter (Algebra.intersection a b))

(* -- whole histories through the new executor ------------------------------ *)

let test_sim_still_serializable () =
  for seed = 0 to 9 do
    let sc = Gen.generate { Gen.default_spec with seed } in
    let outcome = Sim.run ~faults:Sim.default_faults ~seed sc in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d serializable" seed)
      true
      (Oracle.accepted outcome.Sim.verdict)
  done

let test_count_join_still_exact () =
  (* count with a predicate, and a join with duplicate-valued columns,
     through the reference executor *)
  let db =
    match
      Database.load (Database.create [ schema ]) ~rel:"R"
        (List.map tup [ 1; 2; 3; 4; 5 ])
    with
    | Ok db -> db
    | Error e -> Alcotest.fail e
  in
  let run src = fst (Txn.translate (Fdb_query.Parser.parse_exn src) db) in
  Alcotest.check response_t "count where" (Txn.Counted 3)
    (run "count R where key >= 3");
  Alcotest.check response_t "count residual" (Txn.Counted 1)
    (run "count R where key >= 3 and num = 2");
  Alcotest.check response_t "point count miss" (Txn.Counted 0)
    (run "count R where key = 77")

let () =
  Alcotest.run "plan"
    [
      ( "analyze",
        [
          Alcotest.test_case "point lookup" `Quick test_analyze_point;
          Alcotest.test_case "range tightening" `Quick
            test_analyze_range_tightens;
          Alcotest.test_case "residual-only forms" `Quick
            test_analyze_residual_only;
          Alcotest.test_case "explain strings" `Quick test_explain;
          Alcotest.test_case "golden explain lines" `Quick test_explain_golden;
          Alcotest.test_case "golden plans on 4 backends" `Quick
            test_explain_paths_on_backends;
        ] );
      ( "access-paths",
        [
          Alcotest.test_case "range semantics (4 backends)" `Quick
            test_range_semantics;
          Alcotest.test_case "range fold prunes (metered)" `Quick
            test_range_fold_prunes;
          Alcotest.test_case "update single traversal" `Quick
            test_update_single_traversal_shares;
          Alcotest.test_case "count/join exactness" `Quick
            test_count_join_still_exact;
        ] );
      ( "equivalence",
        [
          QCheck_alcotest.to_alcotest prop_planner_matches_naive;
          Alcotest.test_case "key min/max at the range endpoint" `Quick
            test_endpoint_rule;
          QCheck_alcotest.to_alcotest prop_update_matches_naive;
          QCheck_alcotest.to_alcotest prop_hash_join_matches_nested;
          QCheck_alcotest.to_alcotest prop_sort_merge_set_ops;
        ] );
      ( "histories",
        [
          Alcotest.test_case "sim sweep serializable" `Quick
            test_sim_still_serializable;
        ] );
    ]
