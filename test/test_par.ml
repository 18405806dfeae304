(* The multicore execution layer: domain-safe single-assignment cells
   (Lcell), the work-stealing domain pool (Fdb_par.Pool), domain-safe
   metrics, and the flagship differential property — the parallel
   executor's response stream is identical to the deterministic engine's
   and the sequential reference's on the same seeded workloads. *)

open Fdb
open Fdb_relational
module Lcell = Fdb_lenient.Lcell
module Pool = Fdb_par.Pool
module Metrics = Fdb_obs.Metrics
module Machine = Fdb_rediflow.Machine
module Topology = Fdb_net.Topology

(* -- Lcell ----------------------------------------------------------------- *)

let test_lcell_basics () =
  let c = Lcell.create () in
  Alcotest.(check bool) "fresh is empty" false (Lcell.is_full c);
  Alcotest.(check (option int)) "peek empty" None (Lcell.peek c);
  Lcell.put c 42;
  Alcotest.(check bool) "full after put" true (Lcell.is_full c);
  Alcotest.(check (option int)) "peek full" (Some 42) (Lcell.peek c);
  Alcotest.(check int) "get" 42 (Lcell.get c);
  Alcotest.check_raises "second put" Lcell.Double_put (fun () ->
      Lcell.put c 0);
  Alcotest.(check int) "make starts full" 7 (Lcell.get (Lcell.make 7))

let test_lcell_on_full () =
  let c = Lcell.create () in
  let seen = ref [] in
  Lcell.on_full c (fun v -> seen := ("early", v) :: !seen);
  Lcell.on_full c (fun v -> seen := ("later", v) :: !seen);
  Alcotest.(check (list (pair string int))) "nothing before put" [] !seen;
  Lcell.put c 5;
  Alcotest.(check (list (pair string int)))
    "waiters run in registration order"
    [ ("later", 5); ("early", 5) ]
    !seen;
  Lcell.on_full c (fun v -> seen := ("after", v) :: !seen);
  Alcotest.(check (list (pair string int)))
    "registered-when-full runs immediately"
    [ ("after", 5); ("later", 5); ("early", 5) ]
    !seen

let test_lcell_cross_domain () =
  (* A parked reader on this domain is woken by a put on another. *)
  let c = Lcell.create () in
  let writer =
    Domain.spawn (fun () ->
        (* give the reader a chance to actually park *)
        for _ = 1 to 1000 do Domain.cpu_relax () done;
        Lcell.put c "hello")
  in
  Alcotest.(check string) "parked get sees the other domain's put" "hello"
    (Lcell.get c);
  Domain.join writer

let test_lcell_single_winner () =
  (* Racing puts: exactly one wins, every loser raises Double_put, and
     every reader agrees on the winner. *)
  for _ = 1 to 50 do
    let c = Lcell.create () in
    let racers =
      Array.init 4 (fun i ->
          Domain.spawn (fun () ->
              match Lcell.put c i with
              | () -> Some i
              | exception Lcell.Double_put -> None))
    in
    let winners = Array.to_list (Array.map Domain.join racers) in
    let won = List.filter_map Fun.id winners in
    Alcotest.(check int) "exactly one winner" 1 (List.length won);
    Alcotest.(check (option int)) "value is the winner's"
      (Some (Lcell.get c))
      (Some (List.hd won))
  done

(* -- Pool ------------------------------------------------------------------ *)

let test_pool_runs_everything () =
  Pool.with_pool ~domains:4 (fun pool ->
      let hits = Atomic.make 0 in
      for i = 1 to 1000 do
        Pool.submit pool ~site:i (fun () ->
            ignore (Atomic.fetch_and_add hits i))
      done;
      Pool.wait pool;
      Alcotest.(check int) "every task ran exactly once" 500500
        (Atomic.get hits);
      let (s : Pool.stats) = Pool.stats pool in
      Alcotest.(check int) "stats.domains" 4 s.Pool.domains;
      Alcotest.(check int) "executed sums to the submissions" 1000
        (Array.fold_left ( + ) 0 s.Pool.executed))

let test_pool_wait_is_reusable () =
  Pool.with_pool ~domains:2 (fun pool ->
      let r = ref 0 in
      Pool.submit pool ~site:0 (fun () -> r := 1);
      Pool.wait pool;
      Alcotest.(check int) "first batch" 1 !r;
      Pool.submit pool ~site:1 (fun () -> r := 2);
      Pool.wait pool;
      Alcotest.(check int) "second batch after an idle wait" 2 !r)

let test_pool_tasks_spawn_tasks () =
  Pool.with_pool ~domains:3 (fun pool ->
      let hits = Atomic.make 0 in
      for i = 0 to 9 do
        Pool.submit pool ~site:i (fun () ->
            for j = 0 to 9 do
              Pool.submit pool ~site:j (fun () -> Atomic.incr hits)
            done)
      done;
      Pool.wait pool;
      Alcotest.(check int) "wait covers transitively submitted work" 100
        (Atomic.get hits))

exception Boom

let test_pool_exception_propagates () =
  Pool.with_pool ~domains:2 (fun pool ->
      Pool.submit pool ~site:0 (fun () -> raise Boom);
      Pool.submit pool ~site:1 (fun () -> ());
      Alcotest.check_raises "wait re-raises the task's exception" Boom
        (fun () -> Pool.wait pool);
      (* the error is consumed: the pool keeps working afterwards *)
      let r = ref 0 in
      Pool.submit pool ~site:0 (fun () -> r := 1);
      Pool.wait pool;
      Alcotest.(check int) "pool survives" 1 !r)

let test_pool_steals_imbalanced_load () =
  (* Everything lands on site 0's deque; with more than one domain the
     others can only make progress by stealing.  On a single-core box the
     spawning domain may still drain its own deque first, so only assert
     completion plus stats consistency — and that any steal is counted. *)
  Pool.with_pool ~domains:4 (fun pool ->
      let hits = Atomic.make 0 in
      for _ = 1 to 200 do
        Pool.submit pool ~site:0 (fun () ->
            for _ = 1 to 100 do Domain.cpu_relax () done;
            Atomic.incr hits)
      done;
      Pool.wait pool;
      Alcotest.(check int) "all ran" 200 (Atomic.get hits);
      let (s : Pool.stats) = Pool.stats pool in
      let off_home =
        Array.fold_left ( + ) 0 (Array.sub s.Pool.executed 1 3)
      in
      Alcotest.(check bool) "steals counted when others executed" true
        (s.Pool.steals >= off_home && off_home >= 0))

(* Spin until [flag] is set, for at most 2 s; whether it was set. *)
let spin_until flag =
  let deadline = Unix.gettimeofday () +. 2.0 in
  while (not (Atomic.get flag)) && Unix.gettimeofday () < deadline do
    Domain.cpu_relax ()
  done;
  Atomic.get flag

(* A waiting caller runs queued tasks itself.  On a 1-worker pool, A spins
   until B has run, and both sit on site 0's deque: a caller that only
   parks leaves A to spin out its bound on the worker, with B queued
   behind it.  Whichever domain takes A, the other must take B. *)
let test_pool_caller_helps () =
  Pool.with_pool ~domains:1 (fun pool ->
      let flag = Atomic.make false and a_saw = Atomic.make false in
      Pool.submit pool ~site:0 (fun () -> Atomic.set a_saw (spin_until flag));
      Pool.submit pool ~site:0 (fun () -> Atomic.set flag true);
      Pool.wait pool;
      Alcotest.(check bool) "A saw B's flag" true (Atomic.get a_saw);
      let (s : Pool.stats) = Pool.stats pool in
      Alcotest.(check int) "one worker slot plus the caller's" 2
        (Array.length s.Pool.executed);
      Alcotest.(check int) "executed sums to the submissions" 2
        (Array.fold_left ( + ) 0 s.Pool.executed))

(* Hold a 1-worker pool's only worker in a task until [release] is set, so
   every task submitted meanwhile is left to the caller's [wait]. *)
let occupy_worker pool =
  let started = Atomic.make false and release = Atomic.make false in
  Pool.submit pool ~site:0 (fun () ->
      Atomic.set started true;
      ignore (spin_until release));
  ignore (spin_until started);
  release

exception Boom_n of int

let test_pool_caller_errors () =
  Pool.with_pool ~domains:1 (fun pool ->
      let release = occupy_worker pool in
      Pool.submit pool ~site:0 (fun () -> raise (Boom_n 1));
      Pool.submit pool ~site:0 (fun () -> raise (Boom_n 2));
      Pool.submit pool ~site:0 (fun () -> Atomic.set release true);
      Alcotest.check_raises "the caller's first error wins" (Boom_n 1)
        (fun () -> Pool.wait pool);
      let (s : Pool.stats) = Pool.stats pool in
      Alcotest.(check (array int)) "the caller ran all three" [| 1; 3 |]
        s.Pool.executed;
      let r = ref 0 in
      Pool.submit pool ~site:0 (fun () -> r := 1);
      Pool.wait pool;
      Alcotest.(check int) "a later batch runs" 1 !r)

let test_pool_shutdown_after_help () =
  let pool = Pool.create ~domains:1 () in
  let release = occupy_worker pool in
  let hits = Atomic.make 0 in
  for _ = 1 to 10 do
    Pool.submit pool ~site:0 (fun () -> Atomic.incr hits)
  done;
  Pool.submit pool ~site:0 (fun () -> Atomic.set release true);
  Pool.wait pool;
  Alcotest.(check int) "the caller ran the batch" 11
    (Pool.stats pool).Pool.executed.(1);
  Pool.shutdown pool;
  Alcotest.(check int) "every task ran" 10 (Atomic.get hits)

let test_pool_rejects_bad_sizes () =
  Alcotest.check_raises "0 domains"
    (Invalid_argument "Pool.create: domains must be in 1..128") (fun () ->
      ignore (Pool.create ~domains:0 ()));
  Alcotest.check_raises "Prepend semantics"
    (Invalid_argument
       "Pipeline.run_parallel: Prepend semantics is not supported (the \
        executor runs Txn over keyed sets)") (fun () ->
      ignore
        (Pipeline.run_parallel ~semantics:Pipeline.Prepend
           { Pipeline.schemas = []; initial = [] }
           []))

(* -- domain-safe metrics --------------------------------------------------- *)

let test_metrics_parallel_counters_exact () =
  Metrics.reset ();
  let c = Metrics.counter "test.par.counter" in
  let domains =
    Array.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 10_000 do Metrics.incr c done))
  in
  Array.iter Domain.join domains;
  Alcotest.(check int) "no lost increments" 40_000 (Metrics.counter_value c)

let test_metrics_parallel_histogram_exact () =
  Metrics.reset ();
  let h = Metrics.histogram "test.par.histo" in
  let domains =
    Array.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to 1000 do
              Metrics.observe h ((d * 1000) + i)
            done))
  in
  Array.iter Domain.join domains;
  let stats =
    match
      List.assoc_opt "test.par.histo" (Metrics.snapshot ()).Metrics.histograms
    with
    | Some s -> s
    | None -> Alcotest.fail "histogram missing"
  in
  Alcotest.(check int) "count merges all shards" 4000 stats.Metrics.count;
  Alcotest.(check int) "sum exact" (4000 * 4001 / 2) stats.Metrics.sum;
  Alcotest.(check int) "min from shard 0" 1 stats.Metrics.min;
  Alcotest.(check int) "max from shard 3" 4000 stats.Metrics.max;
  Alcotest.(check int) "bucket totals merge" 4000
    (List.fold_left (fun acc (_, n) -> acc + n) 0 stats.Metrics.buckets)

(* -- metrics bleed regression (satellite 2) -------------------------------- *)

let test_sim_metrics_scoped_no_bleed () =
  let sc = Fdb_check.Gen.generate { Fdb_check.Gen.default_spec with seed = 11 } in
  let run () = Fdb_check.Sim.run ~seed:11 sc in
  let a = run () in
  (* pollute the global registry between runs: a bleed would show up in
     the second outcome's snapshot *)
  let noise = Metrics.counter "test.par.noise" in
  Metrics.add noise 12345;
  ignore (Fdb_check.Sim.run ~seed:99 sc);
  let b = run () in
  Alcotest.(check bool) "identical runs report identical metrics" true
    (a.Fdb_check.Sim.metrics = b.Fdb_check.Sim.metrics);
  Alcotest.(check int) "surrounding accumulation untouched" 12345
    (Metrics.counter_value noise);
  Alcotest.(check bool) "run actually recorded something" true
    (List.exists (fun (_, v) -> v > 0) a.Fdb_check.Sim.metrics.Metrics.counters)

(* -- the flagship differential property ------------------------------------ *)

let tup k s = Tuple.make [ Value.Int k; Value.Str s ]

let schemas =
  [ Schema.make ~name:"R" ~cols:[ ("key", Schema.CInt); ("val", Schema.CStr) ];
    Schema.make ~name:"S" ~cols:[ ("key", Schema.CInt); ("val", Schema.CStr) ] ]

let spec_for ~seed =
  let rand = Random.State.make [| seed; 0x9a7 |] in
  let rel name n =
    (name, List.init n (fun i -> tup (Random.State.int rand 16) (Printf.sprintf "%s%d" name i)))
  in
  {
    Pipeline.schemas;
    initial = [ rel "R" (5 + Random.State.int rand 40); rel "S" (Random.State.int rand 25) ];
  }

let q = Fdb_query.Parser.parse_exn

(* Seeded random queries over R, S and an unknown Z — same shapes as the
   serializability property in test_core, including ill-formed ones, so
   the parallel executor's error responses are differentially checked
   too. *)
let gen_queries ~seed n =
  let rand = Random.State.make [| seed; 0x9a8 |] in
  let rel () = [| "R"; "S"; "Z" |].(Random.State.int rand 3) in
  let key () = Random.State.int rand 16 in
  List.init n (fun i ->
      let src =
        match Random.State.int rand 10 with
        | 0 -> Printf.sprintf "insert (%d, \"v%d\") into %s" (key ()) i (rel ())
        | 1 -> Printf.sprintf "find %d in %s" (key ()) (rel ())
        | 2 -> Printf.sprintf "delete %d from %s" (key ()) (rel ())
        | 3 -> Printf.sprintf "select * from %s where key >= %d" (rel ()) (key ())
        | 4 -> Printf.sprintf "count %s" (rel ())
        | 5 -> Printf.sprintf "sum key from %s where key <= %d" (rel ()) (key ())
        | 6 -> Printf.sprintf "min key from %s" (rel ())
        | 7 ->
            Printf.sprintf "update %s set val = \"u%d\" where key = %d" (rel ())
              i (key ())
        | 8 -> Printf.sprintf "max val from %s" (rel ())
        | _ -> "join R and S on key = key"
      in
      (i mod 4, q src))

let check_streams name expected actual =
  Alcotest.(check int)
    (name ^ ": response count")
    (List.length expected) (List.length actual);
  List.iteri
    (fun i ((t1, r1), (t2, r2)) ->
      if t1 <> t2 || not (Pipeline.response_equal r1 r2) then
        Alcotest.failf "%s: response %d diverges: (%d) %a vs (%d) %a" name i t1
          Pipeline.pp_response r1 t2 Pipeline.pp_response r2)
    (List.combine expected actual)

let check_final name expected actual =
  List.iter2
    (fun (rel1, ts1) (rel2, ts2) ->
      Alcotest.(check string) (name ^ ": relation order") rel1 rel2;
      if not (List.equal Tuple.equal ts1 ts2) then
        Alcotest.failf "%s: final contents of %s diverge" name rel1)
    expected actual

(* One scenario: the same seeded workload under the deterministic engine
   (Ideal), the engine on a simulated 4-PE hypercube and the sequential
   reference must produce the same response stream — and, under keyed-set
   semantics, so must the real-domain parallel executor on every pool in
   [pools] (1 to 4 domains: the domain count must not change a response),
   with the same final database.  60 seeds x 2 semantics = 120 scenarios;
   shared pools keep domain spawns amortized. *)
let differential_scenario pools ~semantics ~seed =
  let spec = spec_for ~seed in
  let tagged = gen_queries ~seed (10 + (seed mod 30)) in
  let name = Printf.sprintf "seed %d" seed in
  let ideal = Pipeline.run ~semantics spec tagged in
  let machine =
    Pipeline.run ~semantics
      ~mode:(Pipeline.On_machine (Machine.default_config (Topology.hypercube 2)))
      spec tagged
  in
  let reference = Pipeline.reference ~semantics spec tagged in
  check_streams (name ^ " ideal vs machine") ideal.Pipeline.responses
    machine.Pipeline.responses;
  check_streams (name ^ " ideal vs reference") reference
    ideal.Pipeline.responses;
  match semantics with
  | Pipeline.Prepend -> ()
  | Pipeline.Ordered_unique ->
      List.iter
        (fun (domains, pool) ->
          let name = Printf.sprintf "%s @ %d domains" name domains in
          let par =
            Pipeline.execute
              (Parallel { pool; index = None })
              (Pipeline.initial_database spec)
              tagged
          in
          check_streams (name ^ " par vs ideal") ideal.Pipeline.responses
            (Pipeline.pipeline_responses par);
          check_streams (name ^ " par vs reference") reference
            (Pipeline.pipeline_responses par);
          check_final (name ^ " final db") ideal.Pipeline.final_db
            (Database.contents par.Pipeline.final))
        pools

(* [f] over one open pool per domain count, all closed on return. *)
let rec with_pools domain_counts f =
  match domain_counts with
  | [] -> f []
  | domains :: rest ->
      Pool.with_pool ~domains (fun pool ->
          with_pools rest (fun pools -> f ((domains, pool) :: pools)))

let test_differential semantics () =
  with_pools [ 1; 2; 3; 4 ] (fun pools ->
      for seed = 0 to 59 do
        differential_scenario pools ~semantics ~seed
      done)

let changing_writes db0 tagged =
  snd
    (List.fold_left
       (fun (db, n) (_, q) ->
         let (_, db') = Fdb_txn.Txn.translate q db in
         (db', if db' != db then n + 1 else n))
       (db0, 0) tagged)

let test_parallel_report_counts () =
  let spec = spec_for ~seed:1 in
  let tagged = gen_queries ~seed:1 40 in
  let db0 = Pipeline.initial_database spec in
  let (par, stats) =
    Pool.with_pool ~domains:2 (fun pool ->
        let par =
          Pipeline.execute (Parallel { pool; index = None }) db0 tagged
        in
        (par, Pool.stats pool))
  in
  let reads =
    List.length
      (List.filter (fun (_, q) -> not (Fdb_query.Ast.is_update q)) tagged)
  in
  Alcotest.(check int) "domains as configured" 2 stats.Pool.domains;
  Alcotest.(check int) "one pool task per read" reads
    (Array.fold_left ( + ) 0 stats.Pool.executed);
  Alcotest.(check int) "one version per changing write, plus the input"
    (1 + changing_writes db0 tagged)
    par.Pipeline.versions

(* Two consecutive [execute] calls per executor: the second starts from the
   first one's [final], and every relation slot it does not write is the
   very object it was handed — state crosses batches without a copy. *)
let test_state_shared_across_batches () =
  let schemas =
    List.map
      (fun name ->
        Schema.make ~name ~cols:[ ("key", Schema.CInt); ("val", Schema.CStr) ])
      [ "R"; "S"; "T" ]
  in
  let spec =
    {
      Pipeline.schemas;
      initial =
        List.map
          (fun name ->
            (name, List.init 20 (fun k -> tup k (name ^ string_of_int k))))
          [ "R"; "S"; "T" ];
    }
  in
  let tagged srcs = List.mapi (fun i src -> (i mod 2, q src)) srcs in
  let first =
    tagged
      [ "insert (30, \"a\") into R"; "delete 3 from S"; "count T";
        "update T set val = \"t\" where key = 4"; "find 5 in R" ]
  in
  let second =
    tagged
      [ "insert (31, \"b\") into R"; "select * from S where key > 10";
        "delete 6 from R"; "sum key from T"; "join R and S on key = key" ]
  in
  let written =
    List.concat_map
      (fun (_, q) ->
        if Fdb_query.Ast.is_update q then Fdb_query.Ast.relations_touched q
        else [])
      second
  in
  let reference =
    Pipeline.reference ~semantics:Pipeline.Ordered_unique spec (first @ second)
  in
  Pool.with_pool ~domains:2 (fun pool ->
      List.iter
        (fun (name, executor) ->
          let o1 =
            Pipeline.execute executor (Pipeline.initial_database spec) first
          in
          let o2 = Pipeline.execute executor o1.Pipeline.final second in
          check_streams (name ^ ": both batches vs reference") reference
            (Pipeline.pipeline_responses o1 @ Pipeline.pipeline_responses o2);
          List.iter
            (fun (rel, slot) ->
              let slot' = Database.relation o2.Pipeline.final rel in
              let shared =
                match slot' with Some s -> s == slot | None -> false
              in
              Alcotest.(check bool)
                (Printf.sprintf "%s: slot %s shared" name rel)
                (not (List.mem rel written)) shared)
            (Database.slots o1.Pipeline.final))
        [ ("parallel", Pipeline.Parallel { pool; index = None });
          ("repair", Pipeline.Repair { pool; batch = 2; index = None });
          ("sharded", Pipeline.Sharded { shards = 2 }) ])

(* The [db_spec] wrappers are [execute] from [initial_database spec]. *)
let test_wrappers_equal_execute () =
  Pool.with_pool ~domains:2 (fun pool ->
      for seed = 0 to 9 do
        let spec = spec_for ~seed in
        let tagged = gen_queries ~seed (10 + seed) in
        let name = Printf.sprintf "seed %d" seed in
        let execute executor =
          Pipeline.execute executor (Pipeline.initial_database spec) tagged
        in
        let par = Pipeline.run_parallel ~pool spec tagged in
        let o = execute (Parallel { pool; index = None }) in
        check_streams (name ^ " run_parallel") (Pipeline.pipeline_responses o)
          par.Pipeline.par_responses;
        check_final (name ^ " run_parallel final")
          (Database.contents o.Pipeline.final) par.Pipeline.par_final_db;
        let rep = Pipeline.run_repair ~batch:4 ~pool spec tagged in
        let o = execute (Repair { pool; batch = 4; index = None }) in
        check_streams (name ^ " run_repair") (Pipeline.pipeline_responses o)
          rep.Pipeline.rep_responses;
        check_final (name ^ " run_repair final")
          (Database.contents o.Pipeline.final) rep.Pipeline.rep_final_db
      done)

(* Reads see the index store as it was at their dispatch.  The only worker
   domain is held busy, so the three indexed reads on group "a" are still
   queued while the writes after them advance the session's store; each
   must still answer from its own version. *)
let test_indexed_reads_see_dispatch_store () =
  let module Ix = Fdb_index.Index in
  let module Plan = Fdb_query.Plan in
  let schema =
    Schema.make ~name:"G"
      ~cols:[ ("key", Schema.CInt); ("grp", Schema.CStr); ("num", Schema.CInt) ]
  in
  let spec =
    {
      Pipeline.schemas = [ schema ];
      initial =
        [ ( "G",
            List.init 10 (fun k ->
                Tuple.make
                  [ Value.Int k;
                    Value.Str (if k mod 2 = 0 then "a" else "b");
                    Value.Int (k * 3) ]) ) ];
    }
  in
  let catalog =
    [ { Plan.ix_name = "G_sec_grp"; ix_rel = "G"; ix_col = "grp";
        ix_kind = Plan.Ix_secondary };
      { Plan.ix_name = "G_agg_grp"; ix_rel = "G"; ix_col = "grp";
        ix_kind = Plan.Ix_derived "num" } ]
  in
  let tagged =
    List.map
      (fun src -> (0, q src))
      [ "count G where grp = \"a\"";
        "sum num from G where grp = \"a\"";
        "select * from G where grp = \"a\"";
        "insert (20, \"a\", 100) into G";
        "insert (22, \"a\", 200) into G";
        "delete 4 from G" ]
  in
  let db0 = Pipeline.initial_database spec in
  let session = Ix.Session.create_exn catalog db0 in
  let par =
    Pool.with_pool ~domains:1 (fun pool ->
        Pool.submit pool ~site:0 (fun () -> Unix.sleepf 0.05);
        Pipeline.execute (Parallel { pool; index = Some session }) db0 tagged)
  in
  check_streams "indexed par vs reference"
    (Pipeline.reference ~semantics:Pipeline.Ordered_unique spec tagged)
    (Pipeline.pipeline_responses par)

let () =
  Alcotest.run "par"
    [
      ( "lcell",
        [
          Alcotest.test_case "single-assignment basics" `Quick
            test_lcell_basics;
          Alcotest.test_case "on_full ordering" `Quick test_lcell_on_full;
          Alcotest.test_case "cross-domain get" `Quick test_lcell_cross_domain;
          Alcotest.test_case "racing puts, one winner" `Quick
            test_lcell_single_winner;
        ] );
      ( "pool",
        [
          Alcotest.test_case "1000 tasks, exact sum" `Quick
            test_pool_runs_everything;
          Alcotest.test_case "wait barrier is reusable" `Quick
            test_pool_wait_is_reusable;
          Alcotest.test_case "tasks submit tasks" `Quick
            test_pool_tasks_spawn_tasks;
          Alcotest.test_case "exception propagates to wait" `Quick
            test_pool_exception_propagates;
          Alcotest.test_case "imbalanced load drains" `Quick
            test_pool_steals_imbalanced_load;
          Alcotest.test_case "argument validation" `Quick
            test_pool_rejects_bad_sizes;
          Alcotest.test_case "a waiting caller runs queued tasks" `Quick
            test_pool_caller_helps;
          Alcotest.test_case "a helped task's error reaches wait" `Quick
            test_pool_caller_errors;
          Alcotest.test_case "shutdown after a helped wait" `Quick
            test_pool_shutdown_after_help;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "parallel counters exact" `Quick
            test_metrics_parallel_counters_exact;
          Alcotest.test_case "parallel histogram merges exact" `Quick
            test_metrics_parallel_histogram_exact;
          Alcotest.test_case "sim runs cannot bleed metrics" `Quick
            test_sim_metrics_scoped_no_bleed;
        ] );
      ( "differential",
        [
          Alcotest.test_case "120 scenarios: prepend" `Slow
            (test_differential Pipeline.Prepend);
          Alcotest.test_case "120 scenarios: ordered" `Slow
            (test_differential Pipeline.Ordered_unique);
          Alcotest.test_case "report counts" `Quick
            test_parallel_report_counts;
          Alcotest.test_case "indexed reads see dispatch store" `Quick
            test_indexed_reads_see_dispatch_store;
          Alcotest.test_case "state shared across batches" `Quick
            test_state_shared_across_batches;
          Alcotest.test_case "wrappers == execute" `Quick
            test_wrappers_equal_execute;
        ] );
    ]
