(* Index layer tests: indexed-planner analysis and pinned explain lines,
   golden indexed plans executed on every backend with the advertised
   decision-counter mix, indexed executor vs plain interpreter (property,
   all four backends), derived-index group statistics against naive
   recomputation, incremental maintenance vs fresh rebuild through the
   write path, structure sharing under maintenance (metered), seeded
   multi-client histories with coherence checked at the end, and the
   index-coherence trace law on both recorded and hand-crafted traces. *)

open Fdb_relational
module Ast = Fdb_query.Ast
module Plan = Fdb_query.Plan
module Txn = Fdb_txn.Txn
module Ix = Fdb_index.Index
module Meter = Fdb_persistent.Meter
module Gen = Fdb_check.Gen
module Merge = Fdb_merge.Merge
module Metrics = Fdb_obs.Metrics
module Trace = Fdb_obs.Trace
module Event = Fdb_obs.Event
module Trace_oracle = Fdb_check.Trace_oracle

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

let mk_db backend n =
  match
    Database.load (Database.create ~backend [ schema ]) ~rel:"R"
      (List.init n tup)
  with
  | Ok db -> db
  | Error e -> Alcotest.fail e

let response_t = Alcotest.testable Txn.pp_response Txn.response_equal

let sec_desc =
  { Plan.ix_name = "R_sec_num"; ix_rel = "R"; ix_col = "num";
    ix_kind = Plan.Ix_secondary }

let cov_desc =
  { Plan.ix_name = "R_cov_val"; ix_rel = "R"; ix_col = "val";
    ix_kind = Plan.Ix_covering [ "key"; "num"; "val" ] }

let der_desc =
  { Plan.ix_name = "R_agg_num"; ix_rel = "R"; ix_col = "num";
    ix_kind = Plan.Ix_derived "key" }

let catalog = [ sec_desc; cov_desc; der_desc ]

let ok_or_fail = function Ok v -> v | Error e -> Alcotest.fail e

let parse = Fdb_query.Parser.parse_exn

(* -- indexed predicate analysis ------------------------------------------- *)

let cmp c op v = Ast.Cmp (c, op, Value.Int v)
let vcmp c op s = Ast.Cmp (c, op, Value.Str s)

let test_analyze_mixed_conjuncts () =
  (* an equality on an indexed column mixed with a non-indexed conjunct
     must split into an index probe plus a residual, never a full scan *)
  (match
     Plan.analyze_indexed schema ~indexes:[ sec_desc ]
       ~wanted:(Plan.Want_cols [])
       (Ast.And (cmp "num" Ast.Eq 3, vcmp "val" Ast.Eq "a"))
   with
  | { Plan.ipath = Plan.Index_scan { ix; only = false; _ };
      iresidual = Ast.Cmp ("val", Ast.Eq, Value.Str "a") }
    when String.equal ix.Plan.ix_name "R_sec_num" ->
      ()
  | ip -> Alcotest.failf "mixed conjuncts: %s" (Plan.iplan_to_string ip));
  (* a key equality still wins over a secondary probe *)
  (match
     Plan.analyze_indexed schema ~indexes:catalog ~wanted:Plan.Want_all
       (Ast.And (cmp "key" Ast.Eq 5, cmp "num" Ast.Eq 3))
   with
  | { Plan.ipath = Plan.Primary (Plan.Point_lookup (Value.Int 5)); _ } -> ()
  | ip -> Alcotest.failf "key eq beats probe: %s" (Plan.iplan_to_string ip));
  (* atoms under Or never steer an index *)
  match
    Plan.analyze_indexed schema ~indexes:catalog ~wanted:Plan.Want_all
      (Ast.Or (cmp "num" Ast.Eq 3, cmp "num" Ast.Eq 4))
  with
  | { Plan.ipath = Plan.Primary Plan.Full_scan; _ } -> ()
  | ip -> Alcotest.failf "or stays residual: %s" (Plan.iplan_to_string ip)

let test_analyze_group_residual_blocks () =
  (* a derived index answers only residual-free group aggregates: any
     extra conjunct must push the plan back to probe + residual *)
  (match
     Plan.analyze_group schema ~indexes:catalog ~target:(`Agg (Ast.Sum, "key"))
       (cmp "num" Ast.Eq 3)
   with
  | Some { Plan.ipath = Plan.Index_group { ix; group = Value.Int 3 }; _ }
    when String.equal ix.Plan.ix_name "R_agg_num" ->
      ()
  | Some ip -> Alcotest.failf "pure group: %s" (Plan.iplan_to_string ip)
  | None -> Alcotest.fail "pure group: no plan");
  (match
     Plan.analyze_group schema ~indexes:catalog ~target:(`Agg (Ast.Sum, "key"))
       (Ast.And (cmp "num" Ast.Eq 3, cmp "key" Ast.Gt 4))
   with
  | None -> ()
  | Some ip -> Alcotest.failf "residual blocks: %s" (Plan.iplan_to_string ip));
  (* the derived target column must match the aggregated column *)
  match
    Plan.analyze_group schema ~indexes:catalog ~target:(`Agg (Ast.Sum, "num"))
      (cmp "num" Ast.Eq 3)
  with
  | None -> ()
  | Some ip -> Alcotest.failf "wrong target: %s" (Plan.iplan_to_string ip)

(* -- golden explain: the fdbsim rendering with a catalog, pinned ----------- *)

let golden_schema_r =
  Schema.make ~name:"R" ~cols:[ ("key", Schema.CInt); ("val", Schema.CStr) ]

let golden_schema_s =
  Schema.make ~name:"S" ~cols:[ ("key", Schema.CInt); ("val", Schema.CStr) ]

let golden_catalog =
  [ { Plan.ix_name = "R_sec_val"; ix_rel = "R"; ix_col = "val";
      ix_kind = Plan.Ix_secondary };
    { Plan.ix_name = "S_cov_val"; ix_rel = "S"; ix_col = "val";
      ix_kind = Plan.Ix_covering [ "key"; "val" ] };
    { Plan.ix_name = "R_agg_val"; ix_rel = "R"; ix_col = "val";
      ix_kind = Plan.Ix_derived "key" } ]

(* One case per indexed access path (the `fdbsim explain` schema with a
   secondary + derived catalog on R and a covering catalog on S).  The
   expected strings are the exact lines the CLI prints under
   `fdbsim explain --secondary R:val --covering S:val --derived R:val`;
   a rewording is a user-visible change and must show up here. *)
let golden_cases =
  [ ( "select * from R where val = \"c\"",
      "select R: index probe R_sec_val [val = \"c\"]" );
    ( "select * from R where val = \"c\" and key > 3",
      "select R: index probe R_sec_val [val = \"c\"]; residual key > 3" );
    ( "select key from S where val = \"c\"",
      "select S: index-only probe S_cov_val [val = \"c\"]; project key" );
    ( "select * from S where val = \"c\"",
      "select S: index-only probe S_cov_val [val = \"c\"]" );
    ( "sum key from R where val = \"c\"",
      "aggregate R: derived index R_agg_val [val = \"c\"]" );
    ( "count S where val = \"c\"",
      "count S: index-only probe S_cov_val [val = \"c\"]" );
    ( "select * from R where val >= \"a\" and val < \"c\"",
      "select R: index range R_sec_val [val >= \"a\", val < \"c\"]" );
    ( "select * from R where val != \"c\"",
      "select R: full scan; residual val != \"c\"" );
    ("min key from R where key < 9", "aggregate R: range scan [-inf, key < 9]");
    ("find 7 in R", "find R: point lookup key = 7");
    ("count R", "count R: size accessor") ]

let golden_schema_of n =
  if n = "R" then Some golden_schema_r
  else if n = "S" then Some golden_schema_s
  else None

let golden_indexes_of rel =
  List.filter
    (fun (d : Plan.index_desc) -> String.equal d.Plan.ix_rel rel)
    golden_catalog

let test_explain_indexed_golden () =
  List.iter
    (fun (src, expected) ->
      Alcotest.(check string) src expected
        (Plan.explain_indexed ~schema_of:golden_schema_of
           ~indexes_of:golden_indexes_of (parse src)))
    golden_cases

(* The explained indexed plans must execute on every persistent backend:
   each golden query runs through a fresh index session per backend, every
   backend must answer exactly as the plain interpreter does, and the
   indexed-planner decision counters must record the advertised mix
   (3 probes, 3 index-only, 1 derived aggregate, 1 scan fallback). *)
let test_explain_indexed_on_backends () =
  let gtup k =
    Tuple.make
      [ Value.Int k; Value.Str (String.make 1 (Char.chr (97 + (k mod 5)))) ]
  in
  let mk backend =
    let db = Database.create ~backend [ golden_schema_r; golden_schema_s ] in
    let db = ok_or_fail (Database.load db ~rel:"R" (List.init 32 gtup)) in
    ok_or_fail (Database.load db ~rel:"S" (List.init 32 gtup))
  in
  let reference =
    let db = mk Relation.List_backend in
    List.map (fun (src, _) -> fst (Txn.translate (parse src) db)) golden_cases
  in
  let m_probe = Metrics.counter "plan.index_probe"
  and m_only = Metrics.counter "plan.index_only"
  and m_agg = Metrics.counter "plan.index_aggregate"
  and m_fallback = Metrics.counter "plan.scan_fallback" in
  List.iter
    (fun backend ->
      let name = Relation.backend_name backend in
      let db = mk backend in
      let session = Ix.Session.create_exn golden_catalog db in
      let use = Ix.Session.use session in
      let p0 = Metrics.counter_value m_probe
      and o0 = Metrics.counter_value m_only
      and a0 = Metrics.counter_value m_agg
      and f0 = Metrics.counter_value m_fallback in
      List.iteri
        (fun i (src, _) ->
          Alcotest.check response_t
            (Printf.sprintf "%s: %s" name src)
            (List.nth reference i)
            (fst (Txn.translate ~index:use (parse src) db)))
        golden_cases;
      Alcotest.(check (list int))
        (name ^ ": indexed planner decision mix")
        [ 3; 3; 1; 1 ]
        [ Metrics.counter_value m_probe - p0;
          Metrics.counter_value m_only - o0;
          Metrics.counter_value m_agg - a0;
          Metrics.counter_value m_fallback - f0 ])
    backends

(* -- indexed executor vs plain interpreter (property, 4 backends) ---------- *)

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
            return (Ast.Cmp ("ghost", Ast.Eq, Value.Int 0)) ]
      in
      (* indexed-column atoms dominate so probes actually get chosen *)
      frequency [ (2, key_atom); (3, other_atom) ]
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
      gen_pred (int_range 0 6))

let prop_indexed_matches_plain =
  QCheck2.Test.make
    ~name:"indexed executor == plain interpreter (4 backends)" ~count:350
    gen_case (fun (keys, where, kind) ->
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
          let session = Ix.Session.create_exn catalog db in
          let query =
            match kind with
            | 0 -> Ast.Select { rel = "R"; cols = None; where }
            | 1 -> Ast.Select { rel = "R"; cols = Some [ "val"; "key" ]; where }
            | 2 -> Ast.Count { rel = "R"; where }
            | 3 -> Ast.Aggregate { agg = Ast.Sum; rel = "R"; col = "key"; where }
            | 4 -> Ast.Aggregate { agg = Ast.Max; rel = "R"; col = "num"; where }
            (* answered at a range endpoint when the indexed plan falls
               back to a primary path with no residual *)
            | 5 -> Ast.Aggregate { agg = Ast.Min; rel = "R"; col = "key"; where }
            | _ -> Ast.Aggregate { agg = Ast.Max; rel = "R"; col = "key"; where }
          in
          let (plain, _) = Txn.translate query db in
          let (indexed, db') =
            Txn.translate ~index:(Ix.Session.use session) query db
          in
          if not (Txn.response_equal plain indexed) then
            QCheck2.Test.fail_reportf "%s on %s: indexed %s, plain %s"
              (Ast.to_string query)
              (Relation.backend_name backend)
              (Format.asprintf "%a" Txn.pp_response indexed)
              (Format.asprintf "%a" Txn.pp_response plain)
          else if not (db' == db) then
            QCheck2.Test.fail_reportf "indexed read replaced the db"
          else true)
        backends)

(* -- derived index group statistics vs naive recomputation ----------------- *)

let naive_stats tuples g =
  let keys = List.filter_map (fun k -> if k * 7 mod 13 = g then Some k else None) tuples in
  match keys with
  | [] -> None
  | _ ->
      Some
        ( List.length keys,
          List.fold_left ( + ) 0 keys,
          List.fold_left min max_int keys,
          List.fold_left max min_int keys )

let check_der_groups name ix tuples =
  Alcotest.(check bool) (name ^ ": tree invariant") true (Ix.invariant ix);
  for g = 0 to 12 do
    let label = Printf.sprintf "%s: group %d" name g in
    match (Ix.group_lookup ix (Value.Int g), naive_stats tuples g) with
    | (None, None) -> ()
    | (Some s, Some (count, sum, vmin, vmax)) ->
        Alcotest.(check int) (label ^ " count") count s.Ix.g_count;
        Alcotest.(check bool) (label ^ " sum") true
          (Value.equal s.Ix.g_sum (Value.Int sum));
        Alcotest.(check bool) (label ^ " min") true
          (Value.equal s.Ix.g_min (Value.Int vmin));
        Alcotest.(check bool) (label ^ " max") true
          (Value.equal s.Ix.g_max (Value.Int vmax))
    | (Some s, None) ->
        Alcotest.failf "%s: stale group (count %d)" label s.Ix.g_count
    | (None, Some (count, _, _, _)) ->
        Alcotest.failf "%s: missing group (expected count %d)" label count
  done;
  Alcotest.(check bool) (name ^ ": absent group") true
    (Ix.group_lookup ix (Value.Int 999) = None)

let test_derived_group_stats () =
  List.iter
    (fun backend ->
      let name = Relation.backend_name backend in
      let keys = List.init 20 Fun.id in
      let ix = ok_or_fail (Ix.build der_desc (mk_rel backend 20)) in
      check_der_groups name ix keys;
      (* insert into an existing group *)
      let keys = 100 :: keys in
      let ix = Ix.apply ix ~removed:[] ~added:[ tup 100 ] in
      check_der_groups (name ^ " +100") ix keys;
      (* delete the maximum of its group: vmax must be recomputed *)
      let keys = List.filter (( <> ) 13) keys in
      let ix = Ix.apply ix ~removed:[ tup 13 ] ~added:[] in
      check_der_groups (name ^ " -13") ix keys;
      (* an update that moves a tuple between groups *)
      let moved = Tuple.make [ Value.Int 5; Value.Int 12; Value.Str "z" ] in
      let ix = Ix.apply ix ~removed:[ tup 5 ] ~added:[ moved ] in
      Alcotest.(check bool) (name ^ ": moved out of group 9") true
        (match Ix.group_lookup ix (Value.Int (5 * 7 mod 13)) with
        | Some s -> s.Ix.g_count = List.length (List.filter (fun k -> k <> 5 && k * 7 mod 13 = 5 * 7 mod 13) keys)
        | None -> false);
      Alcotest.(check bool) (name ^ ": moved into group 12") true
        (match Ix.group_lookup ix (Value.Int 12) with
        | Some s ->
            s.Ix.g_count
            = 1 + List.length (List.filter (fun k -> k <> 5 && k * 7 mod 13 = 12) keys)
        | None -> false);
      (* draining a whole group removes it *)
      let ix = Ix.apply ix ~removed:[ tup 0; tup 13 ] ~added:[] in
      ignore ix)
    backends

let test_derived_group_drained () =
  (* deleting every member of a group removes the group outright *)
  let r = mk_rel Relation.Two3_backend 20 in
  let ix = ok_or_fail (Ix.build der_desc r) in
  (* group 0 holds exactly the keys congruent to 0 mod 13: 0 and 13 *)
  Alcotest.(check bool) "group 0 present" true
    (match Ix.group_lookup ix (Value.Int 0) with
    | Some s -> s.Ix.g_count = 2
    | None -> false);
  let ix = Ix.apply ix ~removed:[ tup 0; tup 13 ] ~added:[] in
  Alcotest.(check bool) "group 0 drained" true
    (Ix.group_lookup ix (Value.Int 0) = None);
  Alcotest.(check bool) "drained invariant" true (Ix.invariant ix)

(* -- incremental maintenance == fresh rebuild through the write path ------- *)

let test_write_path_maintains () =
  List.iter
    (fun backend ->
      let name = Relation.backend_name backend in
      let db = mk_db backend 32 in
      let session = Ix.Session.create_exn catalog db in
      let use = Ix.Session.use session in
      let final =
        List.fold_left
          (fun db src ->
            let (resp, db') = Txn.translate ~index:use (parse src) db in
            (match resp with
            | Txn.Failed e -> Alcotest.failf "%s: %s: %s" name src e
            | _ -> ());
            db')
          db
          [ "insert (100, 3, \"q\") into R";
            "delete 10 from R";
            "update R set num = 99 where key >= 5 and key < 9";
            "insert (101, 0, \"a\") into R";
            "delete 7 from R";
            "update R set val = \"z\" where num = 99" ]
      in
      match Ix.Store.coherent (Ix.Session.store session) final with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" name e)
    backends

let test_maintenance_disabled_leaves_store () =
  (* maintain:false answers through the catalog but never advances it *)
  let db = mk_db Relation.Two3_backend 16 in
  let session = Ix.Session.create_exn catalog db in
  let before = Ix.Session.store session in
  let use = Ix.Session.use ~maintain:false session in
  let (resp, db') = Txn.translate ~index:use (parse "delete 3 from R") db in
  Alcotest.check response_t "delete applied" (Txn.Deleted true) resp;
  Alcotest.(check bool) "store untouched" true
    (Ix.Session.store session == before);
  match Ix.Store.coherent (Ix.Session.store session) db' with
  | Ok () -> Alcotest.fail "stale store reported coherent"
  | Error _ -> ()

(* -- structure sharing under maintenance (metered) ------------------------- *)

let test_maintenance_shares () =
  List.iter
    (fun backend ->
      let name = Relation.backend_name backend in
      let r = mk_rel backend 512 in
      List.iter
        (fun (desc : Plan.index_desc) ->
          let label = Printf.sprintf "%s/%s" name desc.Plan.ix_name in
          let ix = ok_or_fail (Ix.build desc r) in
          let m = Meter.create () in
          let ix' = Ix.apply ~meter:m ix ~removed:[] ~added:[ tup 1000 ] in
          let allocs = Meter.allocs m in
          let (shared, total) = Ix.shared_units ~old:ix ix' in
          Alcotest.(check bool)
            (Printf.sprintf "%s: %d fresh <= %d allocs" label (total - shared)
               allocs)
            true
            (total - shared <= allocs);
          (* scan indexes over 512 entries rebuild only a path: the bulk of
             the structure must be physically shared with the old version
             (derived indexes hold one node per group, so the path is the
             tree — sharing is asserted, dominance is not) *)
          (match desc.Plan.ix_kind with
          | Plan.Ix_derived _ -> ()
          | _ ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: %d allocs << %d units" label allocs total)
                true
                (allocs * 4 < total));
          Alcotest.(check bool) (label ^ ": invariant") true (Ix.invariant ix'))
        catalog)
    backends

(* -- seeded histories: differential + coherence + trace law ---------------- *)

let test_history_sweep_coherent () =
  for seed = 0 to 7 do
    let sc = Gen.generate { Gen.default_spec with seed } in
    let merged = Merge.merge (Merge.Seeded ((7 * seed) + 1)) sc.Gen.streams in
    let initial = Gen.initial_db sc in
    let session =
      Ix.Session.create_exn (Ix.Catalog.default_for sc.Gen.schemas) initial
    in
    let plain = ref initial and indexed = ref initial in
    let ((), events) =
      Trace.record (fun () ->
          List.iter
            (fun (m : _ Merge.tagged) ->
              let q = m.Merge.item in
              let (r1, db1) = Txn.translate q !plain in
              plain := db1;
              let (r2, db2) =
                Txn.translate ~index:(Ix.Session.use session) q !indexed
              in
              indexed := db2;
              Alcotest.check response_t
                (Printf.sprintf "seed %d: %s" seed (Ast.to_string q))
                r1 r2)
            merged)
    in
    (match Ix.Store.coherent (Ix.Session.store session) !indexed with
    | Ok () -> ()
    | Error e -> Alcotest.failf "seed %d: %s" seed e);
    Alcotest.(check int)
      (Printf.sprintf "seed %d: trace law-abiding" seed)
      0
      (List.length (Trace_oracle.check events));
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: maintenance observed" seed)
      true
      (List.exists
         (fun (e : Event.t) ->
           match e.Event.kind with Event.Index_maintain _ -> true | _ -> false)
         events)
  done

(* -- the index-coherence law on crafted traces ----------------------------- *)

let maintain ?(rel = "R") index base entries =
  { Event.ts = 0; site = 0;
    kind = Event.Index_maintain { rel; index; kind = "secondary"; base; entries } }

let test_index_coherence_crafted () =
  let viol = Trace_oracle.index_coherence in
  Alcotest.(check int) "lockstep trace is clean" 0
    (List.length
       (viol
          [ maintain "a" 5 5; maintain "b" 5 5; maintain "a" 6 6;
            maintain "b" 6 6 ]));
  Alcotest.(check bool) "entries <> base is flagged" true
    (viol [ maintain "a" 5 4 ] <> []);
  Alcotest.(check bool) "divergent base sequences are flagged" true
    (viol
       [ maintain "a" 5 5; maintain "b" 5 5; maintain "a" 6 6;
         maintain "b" 7 7 ]
    <> []);
  Alcotest.(check bool) "missed maintenance is flagged" true
    (viol [ maintain "a" 5 5; maintain "b" 5 5; maintain "a" 6 6 ] <> []);
  (* indexes on different relations are independent lockstep groups *)
  Alcotest.(check int) "per-relation lockstep" 0
    (List.length
       (viol [ maintain ~rel:"R" "a" 5 5; maintain ~rel:"S" "b" 9 9 ]))

(* -- catalog validation ----------------------------------------------------- *)

let test_catalog_validate () =
  let ok c = Ix.Catalog.validate [ schema ] c in
  (match ok catalog with
  | Ok () -> ()
  | Error e -> Alcotest.failf "valid catalog rejected: %s" e);
  let expect_err label c =
    match ok c with
    | Error _ -> ()
    | Ok () -> Alcotest.failf "%s accepted" label
  in
  expect_err "unknown relation"
    [ { sec_desc with Plan.ix_rel = "Zz"; ix_name = "Zz_sec" } ];
  expect_err "unknown column" [ { sec_desc with Plan.ix_col = "ghost" } ];
  expect_err "duplicate name" [ sec_desc; sec_desc ];
  expect_err "covering misses a column"
    [ { cov_desc with Plan.ix_kind = Plan.Ix_covering [ "key"; "ghost" ] } ];
  expect_err "derived target unknown"
    [ { der_desc with Plan.ix_kind = Plan.Ix_derived "ghost" } ]

let () =
  Alcotest.run "index"
    [
      ( "analyze",
        [
          Alcotest.test_case "mixed conjuncts split probe+residual" `Quick
            test_analyze_mixed_conjuncts;
          Alcotest.test_case "derived group plans" `Quick
            test_analyze_group_residual_blocks;
          Alcotest.test_case "golden indexed explain lines" `Quick
            test_explain_indexed_golden;
          Alcotest.test_case "golden indexed plans on 4 backends" `Quick
            test_explain_indexed_on_backends;
          Alcotest.test_case "catalog validation" `Quick test_catalog_validate;
        ] );
      ( "derived",
        [
          Alcotest.test_case "group stats vs naive (4 backends)" `Quick
            test_derived_group_stats;
          Alcotest.test_case "drained group removed" `Quick
            test_derived_group_drained;
        ] );
      ( "maintenance",
        [
          Alcotest.test_case "write path == fresh rebuild (4 backends)" `Quick
            test_write_path_maintains;
          Alcotest.test_case "maintain:false leaves the store" `Quick
            test_maintenance_disabled_leaves_store;
          Alcotest.test_case "structure sharing (metered, 4 backends)" `Quick
            test_maintenance_shares;
        ] );
      ( "equivalence",
        [ QCheck_alcotest.to_alcotest prop_indexed_matches_plain ] );
      ( "histories",
        [
          Alcotest.test_case "seeded sweep: differential + coherent + lawful"
            `Quick test_history_sweep_coherent;
          Alcotest.test_case "index-coherence law on crafted traces" `Quick
            test_index_coherence_crafted;
        ] );
    ]
