(* The sharded executor (lib/shard): relation placement, the two-level
   merge with the commutativity-aware spine bypass, and the flagship
   cross-shard differential battery — the sharded run's responses and
   final state are identical to the ideal sequential engine's, survive
   the adversarial epoch reordering, and are accepted by the
   serializability oracle, across shard counts, cross-shard ratios,
   merge policies and seeds. *)

open Fdb
open Fdb_relational
module Shard = Fdb_shard.Shard
module Footprint = Fdb_repair.Footprint
module Txn = Fdb_txn.Txn
module Merge = Fdb_merge.Merge
module Ast = Fdb_query.Ast
module Sim = Fdb_check.Sim
module Cgen = Fdb_check.Gen
module Oracle = Fdb_check.Oracle
module Trace_oracle = Fdb_check.Trace_oracle
module Event = Fdb_obs.Event

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

(* -- placement -------------------------------------------------------------- *)

let test_shard_of () =
  Alcotest.(check int) "single shard takes everything" 0
    (Shard.shard_of ~shards:1 "R17");
  (* deterministic, and in range for a spread of names *)
  for shards = 1 to 8 do
    for i = 0 to 40 do
      let name = Printf.sprintf "R%d" i in
      let s = Shard.shard_of ~shards name in
      Alcotest.(check bool) "in range" true (s >= 0 && s < shards);
      Alcotest.(check int) "stable" s (Shard.shard_of ~shards name)
    done
  done;
  (* the hash actually spreads: 41 names over 4 shards leave none empty *)
  let hit = Array.make 4 false in
  for i = 0 to 40 do
    hit.(Shard.shard_of ~shards:4 (Printf.sprintf "R%d" i)) <- true
  done;
  Alcotest.(check bool) "no empty shard over 41 names" true
    (Array.for_all Fun.id hit);
  Alcotest.check_raises "shards must be positive"
    (Invalid_argument "Shard.shard_of: shards < 1") (fun () ->
      ignore (Shard.shard_of ~shards:0 "R"))

let test_shards_of_query () =
  let shards = 4 in
  let s rel = Shard.shard_of ~shards rel in
  Alcotest.(check (list int)) "find is single-shard" [ s "R" ]
    (Shard.shards_of_query ~shards (q "find 1 in R"));
  let join = Shard.shards_of_query ~shards (q "join R and S on key = key") in
  Alcotest.(check (list int))
    "join touches both owners" (List.sort_uniq Int.compare [ s "R"; s "S" ])
    join;
  Alcotest.(check (list int)) "self-join is single-shard" [ s "R" ]
    (Shard.shards_of_query ~shards (q "join R and R on key = key"))

let test_slice_partitions () =
  let rand = Random.State.make [| 11 |] in
  let db = random_db rand in
  let slices = Shard.slice ~shards:3 db in
  (* every relation lands in exactly its owner's slice *)
  List.iter
    (fun rel ->
      Array.iteri
        (fun s slice ->
          let here = Database.relation slice rel <> None in
          Alcotest.(check bool)
            (Printf.sprintf "%s in slice %d" rel s)
            (Shard.shard_of ~shards:3 rel = s)
            here;
          if here then
            Alcotest.(check bool) (rel ^ " slot shared") true
              (Option.get (Database.relation slice rel)
              == Option.get (Database.relation db rel)))
        slices)
    (Database.names db)

(* -- the flagship battery: sharded == ideal == oracle ------------------------ *)

let policies =
  [ ("arrival", Merge.Arrival_order);
    ("bursty", Merge.Eager_clients [ 2; 3 ]);
    ("seeded", Merge.Seeded 23);
    ("concat", Merge.Concatenated) ]

let shard_counts = [ 1; 2; 4; 8 ]
let cross_ratios = [ 0.0; 0.1; 0.5; 1.0 ]

let scenario ~seed =
  Cgen.generate
    {
      Cgen.default_spec with
      Cgen.clients = 3;
      relations = 4;
      queries_per_client = 5;
      seed;
    }

(* 128 scenarios: {1,2,4,8} shards x {0, .1, .5, 1} cross-shard ratios x
   4 merge policies x 2 seeds.  Each runs the full Sim battery:
   trace lawfulness (incl. shard_serializability), sequential
   differential, adversarial epoch-reorder replay, oracle acceptance —
   and byte-identity with the unsharded pipeline at shards = 1. *)
let test_battery () =
  let ran = ref 0 in
  List.iter
    (fun shards ->
      List.iter
        (fun ratio ->
          List.iter
            (fun (pname, policy) ->
              for seed = 0 to 1 do
                let sc =
                  Sim.cross_shardify ~ratio ~seed (scenario ~seed)
                in
                let o = Sim.run_sharded ~policy ~shards ~seed sc in
                incr ran;
                if not (Oracle.accepted o.Sim.shard_verdict) then
                  Alcotest.failf "shards %d ratio %.1f %s seed %d: rejected"
                    shards ratio pname seed;
                let st = o.Sim.shard_stats in
                if st.Shard.txns <> Cgen.query_count sc then
                  Alcotest.failf
                    "shards %d ratio %.1f %s seed %d: %d txns, %d queries"
                    shards ratio pname seed st.Shard.txns
                    (Cgen.query_count sc);
                Alcotest.(check int)
                  "local + bypassed + spine = txns" st.Shard.txns
                  (st.Shard.local + st.Shard.bypassed + st.Shard.spine);
                (* every commit lives on some shard-local stream *)
                Alcotest.(check bool) "streams cover the commits" true
                  (Array.fold_left ( + ) 0 o.Sim.shard_streams >= st.Shard.txns);
                if shards = 1 then
                  Alcotest.(check int) "one shard: nothing is cross-shard" 0
                    (st.Shard.bypassed + st.Shard.spine)
              done)
            policies)
        cross_ratios)
    shard_counts;
  Alcotest.(check int) "battery size" 128 !ran

(* At ratio 0 the rewritten workload has no cross-shard work at all, so
   the spine must stay empty whatever the shard count; at ratio 1 every
   slot is a cross-relation join, so on 2+ shards the bypass must
   actually fire (joins read, never write — they all commute). *)
let test_battery_edges () =
  List.iter
    (fun shards ->
      for seed = 0 to 2 do
        let sc0 = Sim.cross_shardify ~ratio:0.0 ~seed (scenario ~seed) in
        let o0 = Sim.run_sharded ~shards ~seed sc0 in
        Alcotest.(check int) "ratio 0: no spine candidates" 0
          (o0.Sim.shard_stats.Shard.bypassed + o0.Sim.shard_stats.Shard.spine);
        let sc1 = Sim.cross_shardify ~ratio:1.0 ~seed (scenario ~seed) in
        let o1 = Sim.run_sharded ~shards ~seed sc1 in
        if shards > 1 then
          Alcotest.(check bool) "ratio 1: the bypass fires" true
            (o1.Sim.shard_stats.Shard.bypassed > 0)
      done)
    [ 2; 4; 8 ]

let test_replica_composition () =
  (* each shard's commit stream drives its own primary/backup pair; the
     surviving replica state must equal the slice (asserted inside
     Sim.run_sharded ~replicate:true) *)
  List.iter
    (fun shards ->
      List.iter
        (fun ratio ->
          for seed = 0 to 1 do
            let sc = Sim.cross_shardify ~ratio ~seed (scenario ~seed) in
            let o = Sim.run_sharded ~replicate:true ~shards ~seed sc in
            Alcotest.(check bool)
              (Printf.sprintf "shards %d ratio %.1f seed %d" shards ratio seed)
              true
              (Oracle.accepted o.Sim.shard_verdict)
          done)
        [ 0.0; 0.5 ])
    [ 1; 2; 4 ]

let test_sim_metrics_scoped () =
  let sc = Sim.cross_shardify ~ratio:0.5 ~seed:3 (scenario ~seed:3) in
  let run () = Sim.run_sharded ~shards:4 ~seed:3 sc in
  let a = run () in
  ignore (Sim.run_sharded ~shards:2 ~seed:7 sc);
  let b = run () in
  Alcotest.(check bool) "identical runs report identical metrics" true
    (a.Sim.shard_metrics = b.Sim.shard_metrics);
  Alcotest.(check bool) "shard counters recorded" true
    (List.exists
       (fun (name, v) ->
         String.length name >= 6 && String.sub name 0 6 = "shard." && v > 0)
       a.Sim.shard_metrics.Fdb_obs.Metrics.counters)

(* -- shard-count-1 is the unsharded pipeline, byte for byte ------------------ *)

let test_one_shard_is_the_pipeline () =
  for seed = 0 to 9 do
    let rand = Random.State.make [| seed; 0x51d |] in
    let spec =
      {
        Pipeline.schemas;
        initial =
          [ ("R", List.init (5 + Random.State.int rand 20)
                    (fun i -> tup (Random.State.int rand 16)
                                (Printf.sprintf "R%d" i)));
            ("S", List.init (Random.State.int rand 12)
                    (fun i -> tup (Random.State.int rand 16)
                                (Printf.sprintf "S%d" i))) ];
      }
    in
    let tagged =
      List.init (8 + (seed mod 12)) (fun i -> (i mod 3, random_query rand i))
    in
    let (sh, metrics) =
      Fdb_obs.Metrics.scoped (fun () ->
          Pipeline.execute (Sharded { shards = 1 })
            (Pipeline.initial_database spec)
            tagged)
    in
    let reference =
      Pipeline.reference ~semantics:Pipeline.Ordered_unique spec tagged
    in
    let ideal = Pipeline.run ~semantics:Pipeline.Ordered_unique spec tagged in
    let render resps final =
      Format.asprintf "%a|%a"
        (Format.pp_print_list (fun ppf (t, r) ->
             Format.fprintf ppf "%d:%a" t Pipeline.pp_response r))
        resps
        (Format.pp_print_list (fun ppf (rel, ts) ->
             Format.fprintf ppf "%s=%a" rel
               (Format.pp_print_list Tuple.pp)
               ts))
        final
    in
    Alcotest.(check string)
      (Printf.sprintf "seed %d: byte-identical to the unsharded pipeline" seed)
      (render reference ideal.Pipeline.final_db)
      (render
         (Pipeline.pipeline_responses sh)
         (Database.contents sh.Pipeline.final));
    Alcotest.(check (option int))
      (Printf.sprintf "seed %d: all commits local" seed)
      (Some (List.length tagged))
      (List.assoc_opt "shard.local_commits" metrics.Fdb_obs.Metrics.counters)
  done

let test_pipeline_sharded_differential () =
  (* the pipeline mode agrees with the sequential reference at every
     shard count, not just 1 *)
  List.iter
    (fun shards ->
      for seed = 0 to 4 do
        let rand = Random.State.make [| seed; 0x52d |] in
        let spec =
          { Pipeline.schemas;
            initial = [ ("R", List.init 10 (fun i -> tup i "r"));
                        ("S", List.init 6 (fun i -> tup (i * 2) "s")) ] }
        in
        let tagged =
          List.init 14 (fun i -> (i mod 3, random_query rand i))
        in
        let sh =
          Pipeline.execute (Sharded { shards })
            (Pipeline.initial_database spec)
            tagged
        in
        let reference =
          Pipeline.reference ~semantics:Pipeline.Ordered_unique spec tagged
        in
        List.iteri
          (fun i ((t1, r1), (t2, r2)) ->
            if t1 <> t2 || not (Pipeline.response_equal r1 r2) then
              Alcotest.failf "shards %d seed %d: response %d diverges" shards
                seed i)
          (List.combine (Pipeline.pipeline_responses sh) reference);
        Alcotest.(check bool)
          (Printf.sprintf "shards %d seed %d: versions bounded" shards seed)
          true
          (sh.Pipeline.versions >= 1
          && sh.Pipeline.versions <= List.length tagged + 1)
      done)
    [ 1; 2; 4; 8 ]

(* -- QCheck: the bypass analysis is sound ------------------------------------ *)

let seed_gen = QCheck2.Gen.int_range 0 100_000

let footprint_of db query =
  let c = Footprint.collector () in
  let (resp, db') = Txn.translate ~tracker:(Footprint.tracker c) query db in
  (resp, db', Footprint.captured c)

(* Any pair the analysis would bypass must produce the same responses and
   the same final database applied in either order, on random databases.
   (test_repair.ml checks one direction of [Footprint.commutes]; this is
   the full two-sided claim the sharded bypass rests on.) *)
let prop_pair_commutes_sound =
  QCheck2.Test.make ~name:"bypassed pairs commute in both orders" ~count:500
    seed_gen (fun seed ->
      let rand = Random.State.make [| seed; 0x5c1 |] in
      let db = random_db rand in
      let a = random_query rand seed in
      let b = random_query rand (seed + 1) in
      let (_, _, fp_a) = footprint_of db a in
      let (_, _, fp_b) = footprint_of db b in
      let schema_of = Database.schema_of db in
      if not (Shard.pair_commutes ~schema_of (fp_a, a) (fp_b, b)) then true
      else
        let (ra1, db_a) = Txn.translate a db in
        let (rb1, db_ab) = Txn.translate b db_a in
        let (rb2, db_b) = Txn.translate b db in
        let (ra2, db_ba) = Txn.translate a db_b in
        Txn.response_equal ra1 ra2
        && Txn.response_equal rb1 rb2
        && Oracle.db_equal db_ab db_ba)

(* Guard against the property passing vacuously. *)
let test_pair_commutes_not_vacuous () =
  let fired = ref 0 in
  for seed = 0 to 299 do
    let rand = Random.State.make [| seed; 0x5c1 |] in
    let db = random_db rand in
    let a = random_query rand seed in
    let b = random_query rand (seed + 1) in
    let (_, _, fp_a) = footprint_of db a in
    let (_, _, fp_b) = footprint_of db b in
    if Shard.pair_commutes ~schema_of:(Database.schema_of db) (fp_a, a)
         (fp_b, b)
    then incr fired
  done;
  Alcotest.(check bool)
    (Printf.sprintf "bypass fired on %d of 300 generated pairs" !fired)
    true (!fired > 20)

(* -- shard_serializability trace invariant ----------------------------------- *)

let ev kind = { Event.ts = 0; site = -1; kind }

let test_shard_law_accepts_lawful () =
  let lawful =
    [
      ev (Event.Shard_commit { shard = 0; txn = 0; pos = 0 });
      ev (Event.Shard_commit { shard = 1; txn = 1; pos = 0 });
      ev (Event.Shard_bypass { txn = 2; shards = 2 });
      ev (Event.Shard_commit { shard = 0; txn = 2; pos = 1 });
      ev (Event.Shard_commit { shard = 1; txn = 2; pos = 1 });
      ev (Event.Shard_conflict { txn = 3; against = 2 });
      ev (Event.Shard_spine { txn = 3; gsn = 0 });
      ev (Event.Shard_commit { shard = 0; txn = 3; pos = 2 });
      ev (Event.Shard_commit { shard = 1; txn = 3; pos = 2 });
      ev (Event.Shard_spine { txn = 4; gsn = 1 });
    ]
  in
  Alcotest.(check int) "lawful trace has no violations" 0
    (List.length (Trace_oracle.shard_serializability lawful))

let violates expected events =
  let vs = Trace_oracle.shard_serializability (List.map ev events) in
  if vs = [] then Alcotest.failf "expected a violation (%s), got none" expected;
  List.iter
    (fun (v : Trace_oracle.violation) ->
      Alcotest.(check string) "invariant name" "shard_serializability"
        v.Trace_oracle.invariant)
    vs

let test_shard_law_rejects () =
  violates "gap in a shard-local stream"
    [
      Event.Shard_commit { shard = 0; txn = 0; pos = 0 };
      Event.Shard_commit { shard = 0; txn = 1; pos = 2 };
    ];
  violates "reordered shard-local stream"
    [
      Event.Shard_commit { shard = 0; txn = 0; pos = 1 };
      Event.Shard_commit { shard = 0; txn = 1; pos = 0 };
    ];
  violates "spine out of global-merge order"
    [
      Event.Shard_spine { txn = 0; gsn = 1 };
      Event.Shard_spine { txn = 1; gsn = 0 };
    ];
  violates "falsely bypassed conflicting pair"
    [
      Event.Shard_conflict { txn = 2; against = 1 };
      Event.Shard_bypass { txn = 2; shards = 2 };
    ];
  violates "conflict reported after the bypass"
    [
      Event.Shard_bypass { txn = 2; shards = 2 };
      Event.Shard_conflict { txn = 2; against = 1 };
    ];
  violates "spine after bypass"
    [
      Event.Shard_bypass { txn = 2; shards = 2 };
      Event.Shard_spine { txn = 2; gsn = 0 };
    ]

let test_live_trace_is_lawful () =
  (* a real sharded run with forced conflicts, traced: the law holds on
     live data and the trace contains actual spine and bypass activity *)
  let db =
    match
      Database.load (Database.create schemas) ~rel:"R"
        [ tup 1 "a"; tup 2 "b" ]
    with
    | Ok db -> db
    | Error e -> Alcotest.fail e
  in
  let streams =
    [
      [ q "insert (5, \"x\") into R"; q "join R and S on key = key";
        q "insert (0, \"y\") into S" ];
      [ q "insert (7, \"z\") into S"; q "join R and S on key = key";
        q "find 1 in R" ];
    ]
  in
  let (r, trace) =
    Fdb_obs.Trace.record (fun () ->
        Shard.run ~shards:2 ~initial:db streams)
  in
  Alcotest.(check int) "no violations" 0
    (List.length (Trace_oracle.check trace));
  Alcotest.(check bool) "cross-shard work happened" true
    (r.Shard.stats.Shard.bypassed + r.Shard.stats.Shard.spine > 0);
  let has k =
    List.exists (fun (e : Event.t) -> Event.name e.Event.kind = k) trace
  in
  Alcotest.(check bool) "shard_commit present" true (has "shard_commit")

let () =
  Alcotest.run "shard"
    [
      ( "placement",
        [
          Alcotest.test_case "shard_of" `Quick test_shard_of;
          Alcotest.test_case "shards_of_query" `Quick test_shards_of_query;
          Alcotest.test_case "slice partitions the database" `Quick
            test_slice_partitions;
        ] );
      ( "battery",
        [
          Alcotest.test_case "128 scenarios: sharded == ideal == oracle" `Slow
            test_battery;
          Alcotest.test_case "ratio edges: empty spine / firing bypass" `Slow
            test_battery_edges;
          Alcotest.test_case "per-shard replication composes" `Slow
            test_replica_composition;
          Alcotest.test_case "metrics scoped per run" `Quick
            test_sim_metrics_scoped;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "one shard == unsharded pipeline, byte for byte"
            `Quick test_one_shard_is_the_pipeline;
          Alcotest.test_case "run_sharded == reference at every shard count"
            `Quick test_pipeline_sharded_differential;
        ] );
      ( "commutativity",
        [
          QCheck_alcotest.to_alcotest prop_pair_commutes_sound;
          Alcotest.test_case "bypass is not vacuous" `Quick
            test_pair_commutes_not_vacuous;
        ] );
      ( "trace",
        [
          Alcotest.test_case "shard_serializability accepts lawful" `Quick
            test_shard_law_accepts_lawful;
          Alcotest.test_case "shard_serializability rejects violations" `Quick
            test_shard_law_rejects;
          Alcotest.test_case "live sharded run is lawful" `Quick
            test_live_trace_is_lawful;
        ] );
    ]
