(* The speculative repair executor (lib/repair): footprint tracking over
   the transaction reference semantics, conflict analysis with the
   commutativity bypass, the fixpoint repair loop, and the flagship
   differential property — the repair executor's responses and final
   state are identical to the ideal sequential engine's and accepted by
   the serializability oracle, across batch sizes, key skews, conflict
   ratios and domain counts. *)

open Fdb
open Fdb_relational
module Pool = Fdb_par.Pool
module Footprint = Fdb_repair.Footprint
module Exec = Fdb_repair.Exec
module Txn = Fdb_txn.Txn
module Ast = Fdb_query.Ast
module Sim = Fdb_check.Sim
module Cgen = Fdb_check.Gen
module Oracle = Fdb_check.Oracle
module Trace_oracle = Fdb_check.Trace_oracle
module Event = Fdb_obs.Event
module Trace = Fdb_obs.Trace

let tup k s = Tuple.make [ Value.Int k; Value.Str s ]

let schemas =
  [ Schema.make ~name:"R" ~cols:[ ("key", Schema.CInt); ("val", Schema.CStr) ];
    Schema.make ~name:"S" ~cols:[ ("key", Schema.CInt); ("val", Schema.CStr) ] ]

let q = Fdb_query.Parser.parse_exn

let random_db rand =
  let load db name n =
    List.fold_left
      (fun db t ->
        match Database.insert db ~rel:name t with
        | Ok (db, _) -> db
        | Error _ -> db)
      db
      (List.init n (fun i ->
           tup (Random.State.int rand 16) (Printf.sprintf "%s%d" name i)))
  in
  let db = Database.create schemas in
  let db = load db "R" (3 + Random.State.int rand 20) in
  load db "S" (Random.State.int rand 12)

(* Same query shapes as the parallel-executor suite (including unknown
   relation Z and ill-typed aggregates), so error responses are
   differentially checked too. *)
let random_query rand i =
  let rel () = [| "R"; "S"; "Z" |].(Random.State.int rand 3) in
  let key () = Random.State.int rand 16 in
  q
    (match Random.State.int rand 10 with
    | 0 -> Printf.sprintf "insert (%d, \"v%d\") into %s" (key ()) i (rel ())
    | 1 -> Printf.sprintf "find %d in %s" (key ()) (rel ())
    | 2 -> Printf.sprintf "delete %d from %s" (key ()) (rel ())
    | 3 -> Printf.sprintf "select * from %s where key >= %d" (rel ()) (key ())
    | 4 -> Printf.sprintf "count %s" (rel ())
    | 5 -> Printf.sprintf "sum key from %s where key <= %d" (rel ()) (key ())
    | 6 -> Printf.sprintf "min key from %s" (rel ())
    | 7 ->
        Printf.sprintf "update %s set val = \"u%d\" where key = %d" (rel ()) i
          (key ())
    | 8 -> Printf.sprintf "max val from %s" (rel ())
    | _ -> "join R and S on key = key")

let random_queries rand n = List.init n (random_query rand)

(* -- footprint spans ------------------------------------------------------- *)

let test_key_in_span () =
  let open Footprint in
  let i n = Value.Int n in
  Alcotest.(check bool) "key in Keys" true (key_in_span (i 3) (Keys [ i 1; i 3 ]));
  Alcotest.(check bool) "key not in Keys" false (key_in_span (i 2) (Keys [ i 1 ]));
  Alcotest.(check bool) "All catches everything" true (key_in_span (i 9) All);
  let range lo hi = Range (lo, hi) in
  Alcotest.(check bool) "inside inclusive range" true
    (key_in_span (i 5) (range (Some (Relation.Inclusive (i 5))) None));
  Alcotest.(check bool) "outside exclusive lo" false
    (key_in_span (i 5) (range (Some (Relation.Exclusive (i 5))) None));
  Alcotest.(check bool) "inside open-ended" true
    (key_in_span (i (-100)) (range None (Some (Relation.Inclusive (i 0)))));
  Alcotest.(check bool) "above hi" false
    (key_in_span (i 1) (range None (Some (Relation.Exclusive (i 1)))))

let footprint_of db query =
  let c = Footprint.collector () in
  let (resp, db') = Txn.translate ~tracker:(Footprint.tracker c) query db in
  (resp, db', Footprint.captured c)

let test_overlap_verdicts () =
  let db =
    match Database.load (Database.create schemas) ~rel:"R" [ tup 1 "a"; tup 5 "b" ] with
    | Ok db -> db
    | Error e -> Alcotest.fail e
  in
  let (_, _, w_ins) = footprint_of db (q "insert (9, \"w\") into R") in
  let (_, _, r_point) = footprint_of db (q "find 1 in R") in
  let (_, _, r_scan) = footprint_of db (q "select * from R where key >= 4") in
  let (_, _, r_other) = footprint_of db (q "count S") in
  Alcotest.(check bool) "writer vs unrelated relation" true
    (Footprint.overlap ~writer:w_ins ~reader:r_other = Footprint.No_overlap);
  Alcotest.(check bool) "write 9 vs point read 1 is key-disjoint" true
    (Footprint.overlap ~writer:w_ins ~reader:r_point = Footprint.Key_disjoint);
  Alcotest.(check bool) "write 9 vs scan key >= 4 overlaps" true
    (Footprint.overlap ~writer:w_ins ~reader:r_scan = Footprint.Overlapping);
  (* read-only transactions never damage anyone *)
  Alcotest.(check bool) "reader has no writes" true
    (Footprint.overlap ~writer:r_scan ~reader:r_scan = Footprint.No_overlap)

(* -- QCheck: tracking is observational ------------------------------------- *)

let seed_gen = QCheck2.Gen.int_range 0 100_000

let prop_tracked_equals_untracked =
  QCheck2.Test.make ~name:"tracked transaction == untracked transaction"
    ~count:300 seed_gen (fun seed ->
      let rand = Random.State.make [| seed; 0x7a1 |] in
      let db = random_db rand in
      let query = random_query rand seed in
      let (resp, db') = Txn.translate query db in
      let (resp_t, db_t, _) = footprint_of db query in
      Txn.response_equal resp resp_t && Oracle.db_equal db' db_t)

(* Write-completeness: every key whose tuple changed between input and
   output versions appears in the recorded write footprint (and in the
   effect record) of its relation. *)
let prop_write_completeness =
  QCheck2.Test.make ~name:"changed keys are all in the write footprint"
    ~count:300 seed_gen (fun seed ->
      let rand = Random.State.make [| seed; 0x7a2 |] in
      let db = random_db rand in
      let query = random_query rand seed in
      let (_, db', fp) = footprint_of db query in
      List.for_all
        (fun rel ->
          List.for_all
            (fun k ->
              let key = Value.Int k in
              let before = Result.value ~default:None (Database.find db ~rel ~key) in
              let after = Result.value ~default:None (Database.find db' ~rel ~key) in
              Option.equal Tuple.equal before after
              ||
              let written =
                match List.assoc_opt rel fp.Footprint.writes with
                | Some ks -> List.exists (Value.equal key) ks
                | None -> false
              in
              let in_effects =
                match List.assoc_opt rel fp.Footprint.effects with
                | Some (removed, added) ->
                    List.exists (fun t -> Value.equal (Tuple.key t) key) removed
                    || List.exists (fun t -> Value.equal (Tuple.key t) key) added
                | None -> false
              in
              written && in_effects)
            (List.init 18 Fun.id))
        [ "R"; "S" ])

(* Read-soundness, operationally: perturbing any key outside the recorded
   read spans (and write set) cannot change the transaction's response. *)
let prop_read_soundness =
  QCheck2.Test.make ~name:"keys outside the read footprint don't matter"
    ~count:300 seed_gen (fun seed ->
      let rand = Random.State.make [| seed; 0x7a3 |] in
      let db = random_db rand in
      let query = random_query rand seed in
      let (resp, _, fp) = footprint_of db query in
      let unread rel k =
        let key = Value.Int k in
        let spans =
          match List.assoc_opt rel fp.Footprint.reads with
          | Some s -> s
          | None -> []
        in
        (not (List.exists (Footprint.key_in_span key) spans))
        &&
        match List.assoc_opt rel fp.Footprint.writes with
        | Some ks -> not (List.exists (Value.equal key) ks)
        | None -> true
      in
      let perturb db rel k =
        let key = Value.Int k in
        match Database.find db ~rel ~key with
        | Ok (Some _) -> (
            match Database.delete db ~rel ~key with
            | Ok (db, _) -> db
            | Error _ -> db)
        | Ok None -> (
            match Database.insert db ~rel (tup k "perturbed") with
            | Ok (db, _) -> db
            | Error _ -> db)
        | Error _ -> db
      in
      List.for_all
        (fun rel ->
          List.for_all
            (fun k ->
              (not (unread rel k))
              ||
              let (resp', _) = Txn.translate query (perturb db rel k) in
              Txn.response_equal resp resp')
            (List.init 18 Fun.id))
        [ "R"; "S" ])

(* -- QCheck: commutativity-bypass soundness --------------------------------- *)

let effects_equal (a : Footprint.t) (b : Footprint.t) =
  List.equal
    (fun (r1, (rm1, ad1)) (r2, (rm2, ad2)) ->
      String.equal r1 r2
      && List.equal Tuple.equal rm1 rm2
      && List.equal Tuple.equal ad1 ad2)
    a.Footprint.effects b.Footprint.effects

(* Writers and readers skewed so that the semantic bypass actually fires:
   writers publish tuples with "w"-values, readers predicate on both
   matching and non-matching values. *)
let random_writer rand i =
  let key () = Random.State.int rand 16 in
  q
    (match Random.State.int rand 3 with
    | 0 -> Printf.sprintf "insert (%d, \"w%d\") into R" (key ()) i
    | 1 -> Printf.sprintf "delete %d from R" (key ())
    | _ ->
        Printf.sprintf "update R set val = \"w%d\" where key = %d" i (key ()))

let random_reader rand i =
  let v () =
    [| "R0"; "R1"; "w1"; "perturbed" |].(Random.State.int rand 4)
  in
  q
    (match Random.State.int rand 4 with
    | 0 -> Printf.sprintf "select * from R where val = \"%s\"" (v ())
    | 1 -> Printf.sprintf "count R where val = \"%s\"" (v ())
    | 2 -> Printf.sprintf "sum key from R where val = \"%s\"" (v ())
    | _ ->
        Printf.sprintf "update R set val = \"r%d\" where val = \"%s\"" i (v ()))

(* The direction the executor relies on: when [commutes] clears writer w
   against later reader r, then r's response AND r's replayable effects
   are identical whether or not w ran first. *)
let prop_commute_bypass_sound =
  QCheck2.Test.make ~name:"bypassed pairs commute (response and effects)"
    ~count:500 seed_gen (fun seed ->
      let rand = Random.State.make [| seed; 0x7a4 |] in
      let db = random_db rand in
      let w = random_writer rand seed in
      let r = random_reader rand seed in
      let (_, db_w, fp_w) = footprint_of db w in
      if not (Footprint.commutes ~schema_of:(Database.schema_of db) fp_w r)
      then true (* not bypassed: nothing claimed *)
      else
        let (resp_before, _, fp_before) = footprint_of db r in
        let (resp_after, _, fp_after) = footprint_of db_w r in
        Txn.response_equal resp_before resp_after
        && effects_equal fp_before fp_after)

let count_bypasses = ref 0

(* Guard against the bypass silently never firing (a vacuous property). *)
let test_commute_bypass_not_vacuous () =
  let fired = ref 0 in
  for seed = 0 to 299 do
    let rand = Random.State.make [| seed; 0x7a4 |] in
    let db = random_db rand in
    let w = random_writer rand seed in
    let r = random_reader rand seed in
    let (_, _, fp_w) = footprint_of db w in
    if Footprint.commutes ~schema_of:(Database.schema_of db) fp_w r then
      incr fired
  done;
  count_bypasses := !fired;
  Alcotest.(check bool)
    (Printf.sprintf "bypass fired on %d of 300 generated pairs" !fired)
    true (!fired > 20)

(* -- Exec.run_batch -------------------------------------------------------- *)

let test_run_batch_empty () =
  let db = Database.create schemas in
  let r = Exec.run_batch ~domains:2 db [] in
  Alcotest.(check int) "no responses" 0 (List.length r.Exec.responses);
  Alcotest.(check int) "stats.txns" 0 r.Exec.stats.Exec.txns;
  Alcotest.(check int) "history is just v0" 1
    (Fdb_txn.History.length r.Exec.history);
  Alcotest.(check bool) "final is the input" true (Oracle.db_equal db r.Exec.final)

let test_run_batch_matches_sequential () =
  Pool.with_pool ~domains:3 (fun pool ->
      for seed = 0 to 19 do
        let rand = Random.State.make [| seed; 0xba7c |] in
        let db = random_db rand in
        let queries = random_queries rand (4 + Random.State.int rand 12) in
        let r = Exec.run_batch ~pool db queries in
        let (seq_resps, seq_final) = Txn.run_queries db queries in
        List.iteri
          (fun i (a, b) ->
            if not (Txn.response_equal a b) then
              Alcotest.failf "seed %d: response %d diverges: %a vs %a" seed i
                Txn.pp_response a Txn.pp_response b)
          (List.combine r.Exec.responses seq_resps);
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: final db" seed)
          true
          (Oracle.db_equal r.Exec.final seq_final);
        (* the history really archives one version per transaction, and its
           newest version is the final state *)
        Alcotest.(check int)
          (Printf.sprintf "seed %d: history length" seed)
          (List.length queries + 1)
          (Fdb_txn.History.length r.Exec.history);
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: latest version = final" seed)
          true
          (Oracle.db_equal (Fdb_txn.History.latest r.Exec.history) r.Exec.final)
      done)

let test_run_batch_repairs_conflicts () =
  (* insert 9 then count R: the count's full scan is damaged by the
     insert, forcing at least one repair round — and the repaired count
     must see the new tuple. *)
  let db =
    match Database.load (Database.create schemas) ~rel:"R" [ tup 1 "a" ] with
    | Ok db -> db
    | Error e -> Alcotest.fail e
  in
  let r = Exec.run_batch ~domains:2 db [ q "insert (9, \"b\") into R"; q "count R" ] in
  (match r.Exec.responses with
  | [ Txn.Inserted true; Txn.Counted 2 ] -> ()
  | _ -> Alcotest.fail "unexpected responses");
  Alcotest.(check bool) "at least one repair round" true
    (r.Exec.stats.Exec.rounds >= 1);
  Alcotest.(check bool) "the count was re-executed" true
    (r.Exec.stats.Exec.reexecs >= 1)

let test_run_batch_disjoint_speculates_clean () =
  (* fully key-disjoint writes: everything commits from round 0 *)
  let db = Database.create schemas in
  let queries =
    List.init 12 (fun i -> q (Printf.sprintf "insert (%d, \"v%d\") into R" i i))
  in
  let r = Exec.run_batch ~domains:3 db queries in
  Alcotest.(check int) "no repair rounds" 0 r.Exec.stats.Exec.rounds;
  Alcotest.(check int) "every speculation hit" 12 r.Exec.stats.Exec.spec_hits;
  Alcotest.(check int) "no re-executions" 0 r.Exec.stats.Exec.reexecs;
  Alcotest.(check bool) "disjoint bypasses were taken" true
    (r.Exec.stats.Exec.bypass_disjoint > 0);
  let (_, seq_final) = Txn.run_queries db queries in
  Alcotest.(check bool) "final db" true (Oracle.db_equal r.Exec.final seq_final)

(* -- Pipeline.execute (Repair) --------------------------------------------- *)

let spec_for ~seed =
  let rand = Random.State.make [| seed; 0x9a7 |] in
  let rel name n =
    ( name,
      List.init n (fun i ->
          tup (Random.State.int rand 16) (Printf.sprintf "%s%d" name i)) )
  in
  {
    Pipeline.schemas;
    initial =
      [ rel "R" (5 + Random.State.int rand 40); rel "S" (Random.State.int rand 25) ];
  }

let gen_tagged ~seed n =
  let rand = Random.State.make [| seed; 0x9a8 |] in
  List.init n (fun i -> (i mod 4, random_query rand i))

(* Writes a sequential fold answers with a new version: the versions a
   durability sink logs. *)
let changing_writes db0 tagged =
  snd
    (List.fold_left
       (fun (db, n) (_, q) ->
         let (_, db') = Fdb_txn.Txn.translate q db in
         (db', if db' != db then n + 1 else n))
       (db0, 0) tagged)

let test_pipeline_run_repair_differential () =
  Pool.with_pool ~domains:3 (fun pool ->
      List.iter
        (fun batch ->
          for seed = 0 to 19 do
            let spec = spec_for ~seed in
            let tagged = gen_tagged ~seed (8 + (seed mod 20)) in
            let name = Printf.sprintf "batch %d seed %d" batch seed in
            let rep =
              Pipeline.execute
                (Repair { pool; batch; index = None })
                (Pipeline.initial_database spec)
                tagged
            in
            let reference =
              Pipeline.reference ~semantics:Pipeline.Ordered_unique spec tagged
            in
            let ideal =
              Pipeline.run ~semantics:Pipeline.Ordered_unique spec tagged
            in
            List.iteri
              (fun i ((t1, r1), (t2, r2)) ->
                if t1 <> t2 || not (Pipeline.response_equal r1 r2) then
                  Alcotest.failf "%s: response %d diverges: (%d) %a vs (%d) %a"
                    name i t1 Pipeline.pp_response r1 t2 Pipeline.pp_response r2)
              (List.combine (Pipeline.pipeline_responses rep) reference);
            List.iter2
              (fun (rel1, ts1) (rel2, ts2) ->
                Alcotest.(check string) (name ^ ": relation order") rel1 rel2;
                if not (List.equal Tuple.equal ts1 ts2) then
                  Alcotest.failf "%s: final contents of %s diverge" name rel1)
              ideal.Pipeline.final_db
              (Database.contents rep.Pipeline.final);
            Alcotest.(check int)
              (name ^ ": one version per changing write plus v0")
              (1 + changing_writes (Pipeline.initial_database spec) tagged)
              rep.Pipeline.versions
          done)
        [ 1; 4; 16 ])

(* [max key where key < 100] is answered at the range's last tuple, yet
   its footprint must still cover the whole range: an earlier insert of a
   key under 100 that lands above the old maximum damages it, and only a
   repair round gives the serial answer. *)
let test_repair_endpoint_max () =
  let db0 =
    match
      Database.load (Database.create schemas) ~rel:"R"
        [ tup 10 "a"; tup 40 "b"; tup 150 "c" ]
    with
    | Ok db -> db
    | Error e -> Alcotest.fail e
  in
  let max_q = q "max key from R where key < 100" in
  let (_, _, fp) = footprint_of db0 max_q in
  Alcotest.(check bool) "footprint is the whole range" true
    (fp.Footprint.reads
    = [ ("R", [ Footprint.Range (None, Some (Relation.Exclusive (Value.Int 100))) ]) ]);
  let tagged =
    [ (0, q "find 40 in R"); (1, q "insert (70, \"x\") into R"); (2, max_q);
      (3, q "count R") ]
  in
  let spec =
    { Pipeline.schemas; initial = Database.contents db0 }
  in
  let reference = Pipeline.reference ~semantics:Pipeline.Ordered_unique spec tagged in
  (match List.assoc_opt 2 reference with
  | Some (Pipeline.Aggregated (Some (Value.Int 70))) -> ()
  | _ -> Alcotest.fail "reference: max key under 100 is not the inserted 70");
  Pool.with_pool ~domains:2 (fun pool ->
      List.iter
        (fun batch ->
          let rep =
            Pipeline.execute
              (Repair { pool; batch; index = None })
              (Pipeline.initial_database spec)
              tagged
          in
          List.iter2
            (fun (t1, r1) (t2, r2) ->
              if t1 <> t2 || not (Pipeline.response_equal r1 r2) then
                Alcotest.failf "batch %d: (%d) %a vs reference (%d) %a" batch
                  t1 Pipeline.pp_response r1 t2 Pipeline.pp_response r2)
            (Pipeline.pipeline_responses rep)
            reference)
        [ 1; 2; 16 ]);
  let r = Exec.run_batch ~domains:2 db0 (List.map snd tagged) in
  Alcotest.(check bool) "the max was re-executed" true
    (r.Exec.stats.Exec.reexecs >= 1)

let test_pipeline_run_repair_validation () =
  Alcotest.check_raises "batch must be positive"
    (Invalid_argument "Pipeline.execute: repair batch must be >= 1") (fun () ->
      Pool.with_pool ~domains:1 (fun pool ->
          ignore
            (Pipeline.execute
               (Repair { pool; batch = 0; index = None })
               (Database.create [])
               [])))

(* -- the flagship differential sweep (Sim.run_repair) ----------------------- *)

(* >= 150 scenarios: batch sizes x key ranges (conflict ratio) x seeds,
   at two domain counts.  Every scenario checks repair == sequential
   engine == traced inline run, trace lawfulness (including
   repair_convergence), and oracle acceptance. *)
let sweep ~domains ~seeds () =
  Pool.with_pool ~domains (fun pool ->
      List.iter
        (fun batch ->
          List.iter
            (fun key_range ->
              for seed = 0 to seeds - 1 do
                let sc =
                  Cgen.generate
                    {
                      Cgen.default_spec with
                      Cgen.clients = 3;
                      queries_per_client = 5;
                      key_range;
                      seed = (batch * 1000) + (key_range * 100) + seed;
                    }
                in
                let o = Sim.run_repair ~pool ~batch ~seed sc in
                if not (Oracle.accepted o.Sim.repair_verdict) then
                  Alcotest.failf "batch %d range %d seed %d: not accepted"
                    batch key_range seed;
                let st = o.Sim.repair_stats in
                if st.Exec.txns <> Cgen.query_count sc then
                  Alcotest.failf "batch %d range %d seed %d: %d txns, %d queries"
                    batch key_range seed st.Exec.txns (Cgen.query_count sc)
              done)
            [ 4; 12; 48 ])
        [ 1; 4; 16 ])

let test_sweep_2_domains = sweep ~domains:2 ~seeds:9
let test_sweep_3_domains = sweep ~domains:3 ~seeds:9

(* -- repair_convergence trace invariant ------------------------------------- *)

let ev kind = { Event.ts = 0; site = -1; kind }

let test_repair_convergence_accepts_lawful () =
  let lawful =
    [
      ev (Event.Repair_batch { batch = 0; size = 2 });
      ev (Event.Repair_spec { batch = 0; txn = 0 });
      ev (Event.Repair_spec { batch = 0; txn = 1 });
      ev (Event.Repair_round { batch = 0; round = 1; damaged = 1 });
      ev (Event.Repair_commit { batch = 0; txn = 0; round = 0 });
      ev (Event.Repair_redo { batch = 0; txn = 1; round = 1 });
      ev (Event.Repair_commit { batch = 0; txn = 1; round = 1 });
    ]
  in
  Alcotest.(check int) "lawful trace has no violations" 0
    (List.length (Trace_oracle.repair_convergence lawful))

let violates expected events =
  let vs = Trace_oracle.repair_convergence (List.map ev events) in
  if vs = [] then Alcotest.failf "expected a violation (%s), got none" expected;
  List.iter
    (fun (v : Trace_oracle.violation) ->
      Alcotest.(check string) "invariant name" "repair_convergence" v.Trace_oracle.invariant)
    vs

let test_repair_convergence_rejects () =
  violates "spec without commit"
    [
      Event.Repair_batch { batch = 0; size = 1 };
      Event.Repair_spec { batch = 0; txn = 0 };
    ];
  violates "redo after commit"
    [
      Event.Repair_batch { batch = 0; size = 1 };
      Event.Repair_spec { batch = 0; txn = 0 };
      Event.Repair_commit { batch = 0; txn = 0; round = 0 };
      Event.Repair_redo { batch = 0; txn = 0; round = 1 };
      Event.Repair_commit { batch = 0; txn = 0; round = 1 };
    ];
  violates "double commit"
    [
      Event.Repair_spec { batch = 0; txn = 0 };
      Event.Repair_commit { batch = 0; txn = 0; round = 0 };
      Event.Repair_commit { batch = 0; txn = 0; round = 0 };
    ];
  violates "commit without execution"
    [ Event.Repair_commit { batch = 0; txn = 0; round = 0 } ];
  violates "rounds exceed batch size"
    [
      Event.Repair_batch { batch = 0; size = 1 };
      Event.Repair_spec { batch = 0; txn = 0 };
      Event.Repair_round { batch = 0; round = 2; damaged = 1 };
      Event.Repair_commit { batch = 0; txn = 0; round = 0 };
    ];
  violates "commits out of batch order"
    [
      Event.Repair_spec { batch = 0; txn = 0 };
      Event.Repair_spec { batch = 0; txn = 1 };
      Event.Repair_commit { batch = 0; txn = 1; round = 0 };
      Event.Repair_commit { batch = 0; txn = 0; round = 0 };
    ]

let test_live_trace_is_lawful () =
  (* a real repaired batch, traced: the new invariant holds on live data
     and the trace contains actual repair activity *)
  let db =
    match Database.load (Database.create schemas) ~rel:"R" [ tup 1 "a" ] with
    | Ok db -> db
    | Error e -> Alcotest.fail e
  in
  let queries =
    [ q "insert (9, \"b\") into R"; q "count R"; q "insert (3, \"c\") into R" ]
  in
  let (r, trace) =
    Trace.record (fun () -> Exec.run_batch ~domains:2 db queries)
  in
  ignore r;
  Alcotest.(check int) "no violations" 0
    (List.length (Trace_oracle.check trace));
  let has k = List.exists (fun (e : Event.t) -> Event.name e.Event.kind = k) trace in
  List.iter
    (fun k -> Alcotest.(check bool) (k ^ " present") true (has k))
    [ "repair_batch"; "repair_spec"; "repair_redo"; "repair_round";
      "repair_commit" ]

(* -- pool bracket on failure paths (satellite: with_pool teardown) ----------- *)

exception Boom

let test_with_pool_joins_domains_on_raise () =
  (* OCaml caps live domains at 128.  Leak 12 domains per iteration and
     the 10th iteration cannot spawn; if the bracket joins them on the
     exception path, all iterations succeed and a fresh pool still
     works. *)
  for _ = 1 to 10 do
    match Pool.with_pool ~domains:12 (fun _pool -> raise Boom) with
    | _ -> Alcotest.fail "with_pool swallowed the exception"
    | exception Boom -> ()
  done;
  Pool.with_pool ~domains:12 (fun pool ->
      let r = ref 0 in
      Pool.submit pool ~site:0 (fun () -> r := 1);
      Pool.wait pool;
      Alcotest.(check int) "domains available again" 1 !r)

let test_sim_run_repair_brackets_pool () =
  (* max_states:0 forces an Inconclusive oracle verdict, which makes
     Sim.run_repair raise *inside* the with_pool bracket; domains must
     still be joined — same 128-domain budget argument as above. *)
  let sc = Cgen.generate { Cgen.default_spec with Cgen.seed = 5 } in
  for _ = 1 to 10 do
    match Sim.run_repair ~domains:12 ~max_states:0 ~seed:5 sc with
    | _ -> Alcotest.fail "expected the oracle to be inconclusive"
    | exception Failure _ -> ()
  done;
  (* after 10 failing sweeps, a full healthy run still gets its domains *)
  let o = Sim.run_repair ~domains:12 ~seed:5 sc in
  Alcotest.(check bool) "healthy run accepted" true
    (Oracle.accepted o.Sim.repair_verdict)

let test_sim_run_repair_metrics_scoped () =
  let sc = Cgen.generate { Cgen.default_spec with Cgen.seed = 3 } in
  let run () = Sim.run_repair ~domains:2 ~seed:3 sc in
  let a = run () in
  let noise = Fdb_obs.Metrics.counter "test.repair.noise" in
  Fdb_obs.Metrics.add noise 777;
  ignore (Sim.run_repair ~domains:2 ~seed:8 sc);
  let b = run () in
  (* Steals count which domain ran a task, which the scheduler decides; every
     other instrument is a function of the scenario alone. *)
  let deterministic (m : Fdb_obs.Metrics.snapshot) =
    { m with counters = List.remove_assoc "par.pool_steals" m.counters }
  in
  Alcotest.(check bool) "identical runs report identical metrics" true
    (deterministic a.Sim.repair_metrics = deterministic b.Sim.repair_metrics);
  Alcotest.(check bool) "surrounding noise kept out of the run" false
    (List.mem_assoc "test.repair.noise" b.Sim.repair_metrics.counters);
  Alcotest.(check int) "surrounding accumulation untouched" 777
    (Fdb_obs.Metrics.counter_value noise);
  Alcotest.(check bool) "repair counters recorded" true
    (List.exists
       (fun (name, v) ->
         String.length name >= 7 && String.sub name 0 7 = "repair." && v > 0)
       a.Sim.repair_metrics.Fdb_obs.Metrics.counters)

let () =
  Alcotest.run "repair"
    [
      ( "footprint",
        [
          Alcotest.test_case "key_in_span" `Quick test_key_in_span;
          Alcotest.test_case "overlap verdicts" `Quick test_overlap_verdicts;
          QCheck_alcotest.to_alcotest prop_tracked_equals_untracked;
          QCheck_alcotest.to_alcotest prop_write_completeness;
          QCheck_alcotest.to_alcotest prop_read_soundness;
        ] );
      ( "commutativity",
        [
          QCheck_alcotest.to_alcotest prop_commute_bypass_sound;
          Alcotest.test_case "bypass is not vacuous" `Quick
            test_commute_bypass_not_vacuous;
        ] );
      ( "exec",
        [
          Alcotest.test_case "empty batch" `Quick test_run_batch_empty;
          Alcotest.test_case "batch == sequential engine" `Slow
            test_run_batch_matches_sequential;
          Alcotest.test_case "conflicts force repair rounds" `Quick
            test_run_batch_repairs_conflicts;
          Alcotest.test_case "disjoint batch speculates clean" `Quick
            test_run_batch_disjoint_speculates_clean;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "run_repair == reference == ideal" `Slow
            test_pipeline_run_repair_differential;
          Alcotest.test_case "argument validation" `Quick
            test_pipeline_run_repair_validation;
          Alcotest.test_case "endpoint max keeps its range footprint" `Quick
            test_repair_endpoint_max;
        ] );
      ( "differential",
        [
          Alcotest.test_case "81 scenarios @ 2 domains" `Slow
            test_sweep_2_domains;
          Alcotest.test_case "81 scenarios @ 3 domains" `Slow
            test_sweep_3_domains;
        ] );
      ( "trace",
        [
          Alcotest.test_case "repair_convergence accepts lawful" `Quick
            test_repair_convergence_accepts_lawful;
          Alcotest.test_case "repair_convergence rejects violations" `Quick
            test_repair_convergence_rejects;
          Alcotest.test_case "live repaired batch is lawful" `Quick
            test_live_trace_is_lawful;
        ] );
      ( "pool-bracket",
        [
          Alcotest.test_case "with_pool joins domains on raise" `Slow
            test_with_pool_joins_domains_on_raise;
          Alcotest.test_case "Sim.run_repair brackets its pool" `Slow
            test_sim_run_repair_brackets_pool;
          Alcotest.test_case "metrics scoped per run" `Quick
            test_sim_run_repair_metrics_scoped;
        ] );
    ]
