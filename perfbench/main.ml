(* The repository benchmark: one closed-loop client replays a seeded,
   merged 4-tenant stream of query text back to back through one
   execution mode, times every layer call from outside with a monotonic
   nanosecond clock, and gates every run on a sequential reference fold.

     main.exe --workload W --seed N --seconds S --trace 0|1

   The last line of standard output is one JSON object: the end-to-end
   metrics with --trace 0, the per-layer metrics with --trace 1. *)

open Fdb_relational
open Perfbench
module Ast = Fdb_query.Ast
module Parser = Fdb_query.Parser
module Plan = Fdb_query.Plan
module Txn = Fdb_txn.Txn
module History = Fdb_txn.History
module Wal = Fdb_wal.Wal
module Wire = Fdb_wire.Wire
module Pipeline = Fdb.Pipeline
module Exec = Fdb_repair.Exec
module Pool = Fdb_par.Pool

let now () = Int64.to_int (Monotonic_clock.now ())
let us ns = float_of_int ns /. 1e3
let secs ns = float_of_int ns /. 1e9
let backend = Relation.Btree_backend 8
let microbatch = 512
let repair_batch = 16
let checkpoint_every = 1000
let heap_rounds = 2  (* measured rounds before the heap is read *)
let seq_calibrate_every = 16  (* txns between reference chunks *)
let seq_window = 8  (* chunks a sequential txn's host speed is read from *)
let batch_calibrations = 8  (* reference chunks per domain after each microbatch *)
let setup_calibrations = 16  (* reference chunks before and after a set-up *)

(* -- workloads ---------------------------------------------------------------- *)

type mode = Sequential | Parallel | Repair

type workload = {
  name : string;
  mode : mode;
  wal : bool;
  round_txns : int;  (* one round replays this many txns from the initial state *)
  setups : int;  (* set-ups per run; setup_s is their median *)
  generate : seed:int -> txns:int -> Gen.input;
}

let workloads =
  [
    {
      name = "ingest-wal";
      mode = Sequential;
      wal = true;
      round_txns = 1_200;
      setups = 5;
      generate = Gen.ingest;
    };
    {
      name = "scan-par";
      mode = Parallel;
      wal = false;
      round_txns = 8 * microbatch;
      setups = 7;
      generate = Gen.scan ~streams:8;
    };
    {
      name = "hotspot-repair";
      mode = Repair;
      wal = false;
      round_txns = 8 * microbatch;
      setups = 5;
      generate = Gen.hotspot ~streams:24;
    };
  ]

(* -- set-up ------------------------------------------------------------------- *)

(* A write-ahead log in its own directory, behind the counting store. *)
type log = {
  dir : string;
  store : Wal.Store.t;
  counts : Counting_store.counts;
  writer : Wal.writer;
  mutable commits : int;
}

type env = {
  input : Gen.input;
  db0 : Database.t;  (* btree-8 image: the sequential start state and the gate's *)
  pool : Pool.t option;
  mutable log : log option;
  mutable logs_opened : int;
  mutable turn : int;  (* rounds run so far; picks the round's stream *)
  tmp : string;
  host : Host.t;  (* the latest reference chunk times *)
}

let stream env =
  let ss = env.input.Gen.streams in
  ss.(env.turn mod Array.length ss)

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let open_log env =
  let dir = Filename.concat env.tmp (Printf.sprintf "log-%d" env.logs_opened) in
  env.logs_opened <- env.logs_opened + 1;
  let (store, counts) = Counting_store.wrap ~clock:now (Wal.Fs.store ~dir) in
  let writer = Wal.create ~sync_every:0 ~store env.db0 in
  (* the genesis checkpoint is set-up, not traffic *)
  Counting_store.reset counts;
  env.log <- Some { dir; store; counts; writer; commits = 0 }

let close_log env =
  Option.iter
    (fun l ->
      l.store.Wal.Store.close ();
      remove_tree l.dir)
    env.log;
  env.log <- None

let load (input : Gen.input) =
  List.fold_left
    (fun db schema ->
      let name = Schema.name schema in
      match List.assoc_opt name input.Gen.initial with
      | None -> db
      | Some tuples -> (
          match Relation.of_tuples ~backend schema tuples with
          | Ok r -> Database.replace db name r
          | Error e -> failwith ("perfbench: bulk load: " ^ e)))
    (Database.create ~backend input.Gen.schemas)
    input.Gen.schemas

type setup_times = {
  generate_ns : int;
  load_ns : int;
  total_ns : int;
  setup_scale : float;  (* host-speed factor around the set-up *)
}

let setup w ~seed ~tmp =
  let t0 = now () in
  let input = w.generate ~seed ~txns:w.round_txns in
  let t1 = now () in
  let db0 = load input in
  let t2 = now () in
  let pool = match w.mode with Sequential -> None | _ -> Some (Pool.create ()) in
  let window =
    match pool with
    | None -> seq_window
    | Some p -> batch_calibrations * (Pool.size p + 1)
  in
  Sys.mkdir tmp 0o755;
  let env =
    {
      input;
      db0;
      pool;
      log = None;
      logs_opened = 0;
      turn = 0;
      tmp;
      host = Host.create ~window;
    }
  in
  if w.wal then open_log env;
  let t3 = now () in
  (env, { generate_ns = t1 - t0; load_ns = t2 - t1; total_ns = t3 - t0; setup_scale = 1.0 })

let teardown env =
  close_log env;
  Option.iter Pool.shutdown env.pool

(* -- rounds ------------------------------------------------------------------- *)

(* What one round leaves for the gate: the final state and every response,
   in stream order. *)
type outcome =
  | Seq_out of Database.t * Txn.response array
  | Batch_out of (string * Tuple.t list) list * Pipeline.response array

type round = {
  txns : int;
  busy_ns : int;  (* wall time of timed work, probes and reference chunks excluded *)
  scaled_ns : float;  (* the same, each window's time scaled by its host speed *)
  failed : int;
  lat : Samples.t;  (* scaled latencies (ns): per txn, or per microbatch *)
  wall_lat : Samples.t;  (* the same, unscaled *)
}

(* Room for one sample per txn of a round, the most a round can take. *)
let round_samples txns = Samples.create ~capacity:(max 2 (txns + (txns land 1))) ()

let main_chunks host n =
  for _ = 1 to n do
    Host.record host (Host.chunk ~clock:now)
  done

(* [n] reference chunks on the main domain and, when the workload has a
   pool, [n] on each pool domain at the same time, since batched work runs
   on all of them.  The pool is idle between microbatches. *)
let calibrate env n =
  match env.pool with
  | None -> main_chunks env.host n
  | Some pool ->
      let k = Pool.size pool in
      let times = Array.make (k * n) 0 in
      for site = 0 to k - 1 do
        Pool.submit pool ~site (fun () ->
            for j = 0 to n - 1 do
              times.((site * n) + j) <- Host.chunk ~clock:now
            done)
      done;
      main_chunks env.host n;
      Pool.wait pool;
      Array.iter (Host.record env.host) times

(* A round's timed work is cut into windows, each closed by reference
   chunks.  A window's wall time and latency samples are scaled by the
   host speed of the latest chunks ([Host.scale] over [env.host]'s window:
   the chunks after each of the last 8 windows of 16 txns, or the chunks
   run right after a microbatch). *)
type meter = {
  env : env;
  excluded : unit -> int;  (* probe time so far, kept out of busy time *)
  mutable mark : int;  (* start of the current window *)
  mutable excluded_at_mark : int;
  mutable busy : int;
  mutable scaled : float;
  mutable pending : int list;  (* raw latencies of the current window *)
  lat : Samples.t;
  wall_lat : Samples.t;
}

let start_meter ?(excluded = fun () -> 0) env ~txns =
  {
    env;
    excluded;
    mark = now ();
    excluded_at_mark = excluded ();
    busy = 0;
    scaled = 0.0;
    pending = [];
    lat = round_samples txns;
    wall_lat = round_samples txns;
  }

let sample m ns = m.pending <- ns :: m.pending

(* End the current window: run [chunks] reference chunks, then add the
   window's time and samples, scaled by the host speed. *)
let close_window m ~chunks =
  let wall = now () - m.mark - (m.excluded () - m.excluded_at_mark) in
  calibrate m.env chunks;
  let scale = Host.scale m.env.host in
  m.busy <- m.busy + wall;
  m.scaled <- m.scaled +. (float_of_int wall *. scale);
  List.iter
    (fun ns ->
      Samples.add m.wall_lat ns;
      Samples.add m.lat (int_of_float (float_of_int ns *. scale)))
    (List.rev m.pending);
  m.pending <- [];
  m.mark <- now ();
  m.excluded_at_mark <- m.excluded ()

let finish m ~txns ~failed =
  { txns; busy_ns = m.busy; scaled_ns = m.scaled; failed; lat = m.lat; wall_lat = m.wall_lat }

let seq_window_ends i n = (i + 1) mod seq_calibrate_every = 0 || i = n - 1

let commit l db =
  Wal.append l.writer db;
  Wal.sync l.writer;
  l.commits <- l.commits + 1;
  if l.commits mod checkpoint_every = 0 then Wal.checkpoint l.writer

let txn_failed = function Txn.Failed _ -> 1 | _ -> 0
let pipeline_failed = function Pipeline.Failed _ -> 1 | _ -> 0

(* Sequential: parse, translate and apply one transaction at a time; with a
   log, every transaction that produced a new version is appended and
   synced before its reply.  One latency sample per transaction. *)
let seq_round env =
  let stream = stream env in
  let n = Array.length stream in
  let responses = Array.make n (Txn.Counted 0) in
  let db = ref env.db0 and failed = ref 0 in
  let m = start_meter env ~txns:n in
  for i = 0 to n - 1 do
    let s = now () in
    let (resp, db') =
      match Txn.translate_string (snd stream.(i)) with
      | Ok txn -> txn !db
      | Error e -> (Txn.Failed e, !db)
    in
    (match env.log with Some l when db' != !db -> commit l db' | _ -> ());
    sample m (now () - s);
    if seq_window_ends i n then close_window m ~chunks:1;
    failed := !failed + txn_failed resp;
    responses.(i) <- resp;
    db := db'
  done;
  (finish m ~txns:n ~failed:!failed, Seq_out (!db, responses))

let parse_batch stream start len =
  List.init len (fun j ->
      let (tenant, text) = stream.(start + j) in
      (tenant, Parser.parse_exn text))

(* Batched: the stream cut into microbatches, each handed to a [Pipeline]
   executor against the state the previous one left.  A transaction's
   latency runs from its microbatch's start (parsing included) to the
   batch's responses, so there is one latency sample per microbatch. *)
let batched_round env ~run =
  let stream = stream env in
  let n = Array.length stream in
  let responses = Array.make n (Pipeline.Counted 0) in
  let current = ref env.input.Gen.initial and failed = ref 0 in
  let m = start_meter env ~txns:n in
  let i = ref 0 in
  while !i < n do
    let len = min microbatch (n - !i) in
    let s = now () in
    let batch = parse_batch stream !i len in
    let spec = { Pipeline.schemas = env.input.Gen.schemas; initial = !current } in
    let (resps, final) = run spec batch in
    sample m (now () - s);
    close_window m ~chunks:batch_calibrations;
    List.iteri
      (fun j (_, r) ->
        failed := !failed + pipeline_failed r;
        responses.(!i + j) <- r)
      resps;
    current := final;
    i := !i + len
  done;
  (finish m ~txns:n ~failed:!failed, Batch_out (!current, responses))

let run_parallel env spec batch =
  let r =
    Pipeline.run_parallel ~semantics:Pipeline.Ordered_unique ?pool:env.pool spec batch
  in
  (r.Pipeline.par_responses, r.Pipeline.par_final_db)

let run_repair env spec batch =
  let r = Pipeline.run_repair ~batch:repair_batch ?pool:env.pool spec batch in
  (r.Pipeline.rep_responses, r.Pipeline.rep_final_db)

let round w env =
  match w.mode with
  | Sequential -> seq_round env
  | Parallel -> batched_round env ~run:(run_parallel env)
  | Repair -> batched_round env ~run:(run_repair env)

(* -- traced rounds ------------------------------------------------------------- *)

(* Counters gathered at the same layer boundaries as the spans. *)
type counters = {
  spans : Spans.t;
  mutable probe_ns : int;  (* measurement-only re-executions, not traffic *)
  mutable copied : float list;  (* sampled copied fraction per write *)
  mutable writes : int;
  mutable commits : int;
  mutable checkpoints : int;
  mutable syncs : int;
  mutable flush_ns : int;  (* time inside the store's flushes *)
  mutable wal_bytes : int;
  mutable batches : int;
  mutable tasks : int;
  mutable steals : int;
  mutable executed : int array;  (* per pool domain *)
  mutable speedups : float list;
  mutable repair : Exec.stats;
  mutable repair_batches : int;
  mutable damage : (float * float) list;  (* (re-executions, batch us) *)
}

let new_counters () =
  {
    spans = Spans.create ();
    probe_ns = 0;
    copied = [];
    writes = 0;
    commits = 0;
    checkpoints = 0;
    syncs = 0;
    flush_ns = 0;
    wal_bytes = 0;
    batches = 0;
    tasks = 0;
    steals = 0;
    executed = [||];
    speedups = [];
    repair = Exec.zero_stats;
    repair_batches = 0;
    damage = [];
  }

(* Time [f ()] as a probe: recorded as a span, excluded from throughput. *)
let probe c ~name ~req ~parent f =
  let s = now () in
  let x = f () in
  let e = now () in
  Spans.record c.spans ~id:(Spans.fresh c.spans) ~name ~req ~parent ~start:s ~stop:e;
  c.probe_ns <- c.probe_ns + (e - s);
  x

let span c ~name ~req ~parent f =
  let id = Spans.fresh c.spans in
  let s = now () in
  let x = f id in
  Spans.record c.spans ~id ~name ~req ~parent ~start:s ~stop:(now ());
  x

let where_of = function
  | Ast.Select { rel; where; _ }
  | Ast.Count { rel; where }
  | Ast.Aggregate { rel; where; _ }
  | Ast.Update { rel; where; _ } ->
      Some (rel, where)
  | Ast.Insert _ | Ast.Find _ | Ast.Delete _ | Ast.Join _ -> None

let written_rel = function
  | Ast.Insert { rel; _ } | Ast.Delete { rel; _ } | Ast.Update { rel; _ } -> Some rel
  | _ -> None

(* Copied fraction is sampled on one write in [period]: it walks both
   versions, so its cost grows with the relation. *)
let sample_period env =
  List.fold_left (fun acc (_, ts) -> max acc (List.length ts)) 0 env.input.Gen.initial
  / 256
  + 1

let seq_round_traced env c =
  let stream = stream env in
  let n = Array.length stream in
  let period = sample_period env in
  let responses = Array.make n (Txn.Counted 0) in
  let db = ref env.db0 and failed = ref 0 in
  let m = start_meter ~excluded:(fun () -> c.probe_ns) env ~txns:n in
  for i = 0 to n - 1 do
    let text = snd stream.(i) in
    let resp =
      span c ~name:"txn" ~req:i ~parent:(-1) (fun id ->
          match span c ~name:"query.parse" ~req:i ~parent:id (fun _ -> Parser.parse text) with
          | Error e -> Txn.Failed e
          | Ok q ->
              (match where_of q with
              | Some (rel, where) -> (
                  match Database.schema_of !db rel with
                  | Some schema ->
                      probe c ~name:"query.plan" ~req:i ~parent:id (fun () ->
                          ignore (Plan.analyze schema where))
                  | None -> ())
              | None -> ());
              let kind = if Ast.is_update q then "txn.write" else "txn.read" in
              let (resp, db') =
                span c ~name:kind ~req:i ~parent:id (fun _ -> Txn.translate q !db)
              in
              if db' != !db then begin
                c.writes <- c.writes + 1;
                (match written_rel q with
                | Some rel when c.writes mod period = 0 -> (
                    match (Database.relation !db rel, Database.relation db' rel) with
                    | (Some old_r, Some new_r) ->
                        let (shared, total) =
                          probe c ~name:"persistent.shared_units" ~req:i ~parent:id
                            (fun () -> Relation.shared_units ~old:old_r new_r)
                        in
                        if total > 0 then
                          c.copied <- (1.0 -. (float shared /. float total)) :: c.copied
                    | _ -> ())
                | _ -> ());
                match env.log with
                | None -> ()
                | Some l ->
                    let prev = !db in
                    ignore
                      (probe c ~name:"wire.encode" ~req:i ~parent:id (fun () ->
                           Wire.encode_version ~prev db'));
                    span c ~name:"wal.append" ~req:i ~parent:id (fun _ -> Wal.append l.writer db');
                    span c ~name:"wal.sync" ~req:i ~parent:id (fun _ -> Wal.sync l.writer);
                    l.commits <- l.commits + 1;
                    c.commits <- c.commits + 1;
                    if l.commits mod checkpoint_every = 0 then begin
                      span c ~name:"wal.checkpoint" ~req:i ~parent:id (fun _ ->
                          Wal.checkpoint l.writer);
                      c.checkpoints <- c.checkpoints + 1
                    end
              end;
              db := db';
              resp)
    in
    if seq_window_ends i n then close_window m ~chunks:1;
    failed := !failed + txn_failed resp;
    responses.(i) <- resp
  done;
  (finish m ~txns:n ~failed:!failed, Seq_out (!db, responses))

let add_pool_delta c (before : Pool.stats) (after : Pool.stats) =
  let ex = Array.mapi (fun d x -> x - before.Pool.executed.(d)) after.Pool.executed in
  if c.executed = [||] then c.executed <- Array.make (Array.length ex) 0;
  Array.iteri (fun d x -> c.executed.(d) <- c.executed.(d) + x) ex;
  c.tasks <- c.tasks + Array.fold_left ( + ) 0 ex;
  c.steals <- c.steals + (after.Pool.steals - before.Pool.steals)

let pipeline_response : Txn.response -> Pipeline.response = function
  | Txn.Inserted b -> Pipeline.Inserted b
  | Txn.Found t -> Pipeline.Found (Option.to_list t)
  | Txn.Deleted b -> Pipeline.Deleted (if b then 1 else 0)
  | Txn.Selected ts -> Pipeline.Selected ts
  | Txn.Counted n -> Pipeline.Counted n
  | Txn.Aggregated v -> Pipeline.Aggregated v
  | Txn.Updated n -> Pipeline.Updated n
  | Txn.Joined ts -> Pipeline.Joined ts
  | Txn.Failed e -> Pipeline.Failed e

let relation_lists schemas db =
  List.map
    (fun schema ->
      let name = Schema.name schema in
      (name, match Database.relation db name with Some r -> Relation.to_list r | None -> []))
    schemas

(* One microbatch of scan-par, traced: the [run_parallel] call plus a
   probe for the sequential [Pipeline.reference] time the parallel run is
   compared against. *)
let parallel_batch_traced env c ~req ~parent spec batch =
  let pool = Option.get env.pool in
  let before = Pool.stats pool in
  let s = now () in
  let (resps, final) =
    span c ~name:"pipeline.batch" ~req ~parent (fun _ -> run_parallel env spec batch)
  in
  let par_ns = now () - s in
  add_pool_delta c before (Pool.stats pool);
  let s = now () in
  ignore
    (probe c ~name:"pipeline.reference" ~req ~parent (fun () ->
         Pipeline.reference ~semantics:Pipeline.Ordered_unique spec batch));
  let ref_ns = now () - s in
  c.speedups <- (float ref_ns /. float (max 1 par_ns)) :: c.speedups;
  (resps, final)

let rec split_at n = function
  | x :: rest when n > 0 ->
      let (a, b) = split_at (n - 1) rest in
      (x :: a, b)
  | rest -> ([], rest)

(* One microbatch of hotspot-repair, traced: [Pipeline.run_repair]'s steps
   made from the outside — rebuild the batch-entry database, then one
   [Exec.run_batch] per [repair_batch] queries — so each repair batch is
   timed and its damage counted.  This copies [run_repair] (without its
   log): when that function's steps change, change these with it. *)
let repair_batch_traced env c ~req ~parent spec batch =
  let pool = Option.get env.pool in
  span c ~name:"pipeline.batch" ~req ~parent (fun id ->
      let db0 =
        span c ~name:"pipeline.rebuild" ~req ~parent:id (fun _ ->
            Pipeline.initial_database spec)
      in
      let before = Pool.stats pool in
      let rec go db acc bid = function
        | [] -> (db, List.rev acc)
        | qs ->
            let (chunk, rest) = split_at repair_batch qs in
            let s = now () in
            let r =
              span c ~name:"repair.batch" ~req ~parent:id (fun _ ->
                  Exec.run_batch ~pool ~batch_id:bid db (List.map snd chunk))
            in
            let e = now () in
            c.repair <- Exec.add_stats c.repair r.Exec.stats;
            c.repair_batches <- c.repair_batches + 1;
            c.damage <- (float r.Exec.stats.Exec.reexecs, us (e - s)) :: c.damage;
            let tagged =
              List.map2 (fun (tag, _) resp -> (tag, pipeline_response resp)) chunk r.Exec.responses
            in
            go r.Exec.final (List.rev_append tagged acc) (bid + 1) rest
      in
      let (final, resps) = go db0 [] 0 batch in
      add_pool_delta c before (Pool.stats pool);
      (resps, relation_lists spec.Pipeline.schemas final))

let batched_round_traced w env c =
  let stream = stream env in
  let n = Array.length stream in
  let responses = Array.make n (Pipeline.Counted 0) in
  let current = ref env.input.Gen.initial and failed = ref 0 in
  let m = start_meter ~excluded:(fun () -> c.probe_ns) env ~txns:n in
  let i = ref 0 in
  while !i < n do
    let len = min microbatch (n - !i) in
    let req = c.batches in
    c.batches <- c.batches + 1;
    let (resps, final) =
      span c ~name:"microbatch" ~req ~parent:(-1) (fun id ->
          let batch =
            List.init len (fun j ->
                let (tenant, text) = stream.(!i + j) in
                let q =
                  span c ~name:"query.parse" ~req ~parent:id (fun _ -> Parser.parse_exn text)
                in
                (tenant, q))
          in
          let spec = { Pipeline.schemas = env.input.Gen.schemas; initial = !current } in
          match w.mode with
          | Repair -> repair_batch_traced env c ~req ~parent:id spec batch
          | _ -> parallel_batch_traced env c ~req ~parent:id spec batch)
    in
    close_window m ~chunks:batch_calibrations;
    List.iteri
      (fun j (_, r) ->
        failed := !failed + pipeline_failed r;
        responses.(!i + j) <- r)
      resps;
    current := final;
    i := !i + len
  done;
  (finish m ~txns:n ~failed:!failed, Batch_out (!current, responses))

(* -- the correctness gate ------------------------------------------------------ *)

let digest rels =
  let b = Buffer.create (1 lsl 16) in
  List.iter
    (fun (name, tuples) ->
      Buffer.add_string b name;
      Buffer.add_char b '\n';
      List.iter
        (fun t ->
          Buffer.add_string b (Tuple.to_string t);
          Buffer.add_char b '\n')
        tuples)
    (List.sort (fun (a, _) (b, _) -> String.compare a b) rels);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The sequential meaning of the stream: a [Txn.translate] fold on btree-8
   from the same initial image. *)
let reference env =
  let stream = stream env in
  let db = ref env.db0 in
  let responses =
    Array.map
      (fun (_, text) ->
        let (r, db') = Txn.translate (Parser.parse_exn text) !db in
        db := db';
        r)
      stream
  in
  (responses, !db)

let first_mismatch eq a b =
  let n = Array.length a in
  if n <> Array.length b then Some (-1)
  else
    let rec go i = if i >= n then None else if eq a.(i) b.(i) then go (i + 1) else Some i in
    go 0

(* Every check the last measured round must pass; [Error] names the first
   failure.  Runs outside the timed region. *)
let gate env last =
  let (ref_resps, ref_db) = reference env in
  let ref_digest = digest (relation_lists env.input.Gen.schemas ref_db) in
  let (resp_mismatch, final_digest) =
    match last with
    | Seq_out (db, resps) ->
        ( first_mismatch Txn.response_equal resps ref_resps,
          digest (relation_lists env.input.Gen.schemas db) )
    | Batch_out (rels, resps) ->
        ( first_mismatch Pipeline.response_equal resps (Array.map pipeline_response ref_resps),
          digest rels )
  in
  let recovered =
    match env.log with
    | None -> Ok ()
    | Some l ->
        l.store.Wal.Store.close ();
        let r = Wal.recover (Wal.Fs.store ~dir:l.dir) in
        let db = History.latest r.Wal.rhistory in
        if r.Wal.upto <> l.commits then
          Error (Printf.sprintf "log recovered %d versions, %d committed" r.Wal.upto l.commits)
        else if digest (relation_lists env.input.Gen.schemas db) <> ref_digest then
          Error "state recovered from the log differs from the reference"
        else Ok ()
  in
  match resp_mismatch with
  | Some i -> Error (Printf.sprintf "response %d differs from the reference" i)
  | None ->
      if final_digest <> ref_digest then Error "final state digest differs from the reference"
      else recovered

(* -- measurement --------------------------------------------------------------- *)

(* Rounds, each replaying a whole stream from the initial image, until
   [seconds] of timed work have run.  Every round but a workload's first
   opens a fresh log (untimed), so each round writes the same records. *)
let rounds ?(after = fun _ -> ()) w env ~seconds ~run =
  let out = ref [] and busy = ref 0 and last = ref None in
  while !busy < seconds * 1_000_000_000 || !out = [] do
    if w.wal && (match env.log with Some l -> l.commits > 0 | None -> true) then begin
      close_log env;
      open_log env
    end;
    last := None;
    env.turn <- env.turn + 1;
    let (r, outcome) = run () in
    last := Some outcome;
    busy := !busy + r.busy_ns;
    out := r :: !out;
    after (List.length !out)
  done;
  (List.rev !out, Option.get !last)

(* End-to-end figures are totals over all measured rounds, each window's
   time scaled by the host speed measured right after it ([meter]).  On a
   shared 2-vCPU VM the CPU a process gets swings by up to 1.5x over
   seconds to minutes; no per-round selection (median round, middle half,
   fastest quarter) was steadier than the plain total, and scaling cut
   the spread over ten runs to a fraction. *)
let throughput ?(scaled = true) rs =
  let time r = if scaled then r.scaled_ns else float_of_int r.busy_ns in
  let (txns, ns) = List.fold_left (fun (t, n) r -> (t + r.txns, n +. time r)) (0, 0.0) rs in
  float_of_int txns /. (ns /. 1e9)

let round_throughput r = float_of_int r.txns /. secs r.busy_ns
let round_scale r = r.scaled_ns /. float_of_int r.busy_ns

let pooled_latencies ?(scaled = true) rs =
  let all =
    Array.concat
      (List.map (fun (r : round) -> Samples.to_sorted (if scaled then r.lat else r.wall_lat)) rs)
  in
  Array.sort compare all;
  all

let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1048576.0

(* The heap's peak so far, then, after a full major collection, the live
   heap.  With a pool the peak depends on when the domains' collections
   happen: three runs of one seed of scan-par read 68, 76 and 96 MB.  The
   live heap is what the program holds, and reads the same. *)
let read_heap () =
  let peak = mb (Gc.quick_stat ()).Gc.top_heap_words in
  Gc.full_major ();
  (peak, mb (Gc.stat ()).Gc.live_words)

(* -- output -------------------------------------------------------------------- *)

let end_to_end =
  [
    ("throughput_txn_s", "1/s");
    ("latency_p50_us", "us");
    ("latency_p90_us", "us");
    ("setup_s", "s");
    ("live_heap_mb", "MB");
  ]

let per_layer =
  [
    ("trace.overhead_frac", "frac");
    ("host.scale", "ratio");
    ("gc.peak_heap_mb", "MB");
    ("workload.generate_s", "s");
    ("relational.load_s", "s");
    ("query.parse_us", "us");
    ("query.plan_us", "us");
    ("txn.read_us.p50", "us");
    ("txn.read_us.p99", "us");
    ("txn.write_us.p50", "us");
    ("txn.write_us.p99", "us");
    ("persistent.copied_frac_per_write", "frac");
    ("wal.append_us.p50", "us");
    ("wal.append_us.p99", "us");
    ("wal.sync_us.p50", "us");
    ("wal.sync_us.p99", "us");
    ("wire.encode_us", "us");
    ("wal.checkpoint_ms", "ms");
    ("wal.checkpoints", "count");
    ("wal.syncs_per_commit", "ratio");
    ("wal.flush_us_per_commit", "us");
    ("wal.bytes_per_commit", "B");
    ("pipeline.batch_ms", "ms");
    ("pipeline.rebuild_ms", "ms");
    ("par.tasks_per_txn", "ratio");
    ("par.steal_frac", "frac");
    ("par.domain_imbalance", "ratio");
    ("par.speedup", "ratio");
    ("repair.batch_us.p50", "us");
    ("repair.batch_us.p99", "us");
    ("repair.spec_hit_frac", "frac");
    ("repair.reexecs_per_txn", "ratio");
    ("repair.rounds_per_batch", "ratio");
    ("repair.bypass_frac", "frac");
    ("repair.adopted_slots_per_batch", "ratio");
    ("repair.us_per_reexec", "us");
  ]

let print_json ~correct ~attempted ~failed names values =
  let metric (name, unit) =
    let v = Option.value (Hashtbl.find_opt values name) ~default:0.0 in
    Printf.sprintf "%S: {\"value\": %.12g, \"unit\": %S}" name v unit
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " (List.map metric names))

let pct samples p = Samples.percentile samples p

(* Per-layer values from the traced rounds' spans and counters.  Layers a
   workload does not exercise read 0. *)
let layer_values c values ~setups ~overhead ~host_scale ~peak =
  let set = Hashtbl.replace values in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let durations name = Samples.to_sorted (Spans.durations c.spans name) in
  let timed name ~scale ps =
    let d = durations name in
    if Array.length d > 0 then begin
      List.iter (fun (key, p) -> set key (float_of_int (pct d p) /. scale)) ps;
      Printf.printf "  %-22s n=%d p50=%.3f p99=%.3f (x%.0f ns)\n" name (Array.length d)
        (float_of_int (pct d 0.5) /. scale)
        (float_of_int (pct d 0.99) /. scale)
        scale
    end
  in
  set "trace.overhead_frac" overhead;
  set "host.scale" host_scale;
  set "gc.peak_heap_mb" peak;
  set "workload.generate_s" (Samples.median (Array.map (fun s -> secs s.generate_ns) setups));
  set "relational.load_s" (Samples.median (Array.map (fun s -> secs s.load_ns) setups));
  timed "query.parse" ~scale:1e3 [ ("query.parse_us", 0.5) ];
  timed "query.plan" ~scale:1e3 [ ("query.plan_us", 0.5) ];
  timed "txn.read" ~scale:1e3 [ ("txn.read_us.p50", 0.5); ("txn.read_us.p99", 0.99) ];
  timed "txn.write" ~scale:1e3 [ ("txn.write_us.p50", 0.5); ("txn.write_us.p99", 0.99) ];
  if c.copied <> [] then
    set "persistent.copied_frac_per_write" (Samples.median (Array.of_list c.copied));
  timed "wal.append" ~scale:1e3 [ ("wal.append_us.p50", 0.5); ("wal.append_us.p99", 0.99) ];
  timed "wal.sync" ~scale:1e3 [ ("wal.sync_us.p50", 0.5); ("wal.sync_us.p99", 0.99) ];
  timed "wire.encode" ~scale:1e3 [ ("wire.encode_us", 0.5) ];
  timed "wal.checkpoint" ~scale:1e6 [ ("wal.checkpoint_ms", 0.5) ];
  if c.commits > 0 then begin
    set "wal.checkpoints" (float_of_int c.checkpoints);
    set "wal.syncs_per_commit" (ratio c.syncs c.commits);
    set "wal.flush_us_per_commit" (ratio c.flush_ns c.commits /. 1e3);
    set "wal.bytes_per_commit" (ratio c.wal_bytes c.commits)
  end;
  timed "pipeline.batch" ~scale:1e6 [ ("pipeline.batch_ms", 0.5) ];
  timed "pipeline.rebuild" ~scale:1e6 [ ("pipeline.rebuild_ms", 0.5) ];
  if c.tasks > 0 then begin
    let txns = c.batches * microbatch in
    set "par.tasks_per_txn" (ratio c.tasks txns);
    set "par.steal_frac" (ratio c.steals c.tasks);
    let mean = float_of_int c.tasks /. float_of_int (Array.length c.executed) in
    set "par.domain_imbalance" (float_of_int (Array.fold_left max 0 c.executed) /. mean)
  end;
  if c.speedups <> [] then set "par.speedup" (Samples.median (Array.of_list c.speedups));
  timed "repair.batch" ~scale:1e3 [ ("repair.batch_us.p50", 0.5); ("repair.batch_us.p99", 0.99) ];
  if c.repair_batches > 0 then begin
    let s = c.repair in
    let bypass = s.Exec.bypass_disjoint + s.Exec.bypass_commute in
    set "repair.spec_hit_frac" (ratio s.Exec.spec_hits s.Exec.txns);
    set "repair.reexecs_per_txn" (ratio s.Exec.reexecs s.Exec.txns);
    set "repair.rounds_per_batch" (ratio s.Exec.rounds c.repair_batches);
    set "repair.bypass_frac" (ratio bypass (bypass + s.Exec.reexecs));
    set "repair.adopted_slots_per_batch" (ratio s.Exec.adopted_slots c.repair_batches);
    set "repair.us_per_reexec" (Samples.slope (Array.of_list c.damage))
  end

(* -- main ---------------------------------------------------------------------- *)

let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1"

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let rec go = function
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string v; go rest
    | "--seconds" :: v :: rest -> seconds := int_of_string v; go rest
    | "--trace" :: v :: rest -> trace := int_of_string v; go rest
    | [] -> ()
    | a :: _ -> fail "unknown argument %S (%s)" a usage
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> fail "bad number (%s)" usage);
  match List.find_opt (fun w -> w.name = !workload) workloads with
  | None ->
      fail "unknown workload %S; one of: %s" !workload
        (String.concat ", " (List.map (fun w -> w.name) workloads))
  | Some w ->
      if !seconds < 1 || (!trace <> 0 && !trace <> 1) then fail "%s" usage;
      (w, !seed, !seconds, !trace = 1)

let run w ~seed ~seconds ~trace ~tmp =
  (* Set up [w.setups] times — each a full generate, render, bulk load and
     log/pool open, between two runs of reference chunks — keeping the
     last; setup_s is the median of their host-scaled times. *)
  let host = Host.create ~window:(2 * setup_calibrations) in
  let setups =
    Array.make w.setups { generate_ns = 0; load_ns = 0; total_ns = 0; setup_scale = 1.0 }
  in
  let env = ref None in
  for k = 0 to w.setups - 1 do
    Option.iter teardown !env;
    env := None;
    Gc.full_major ();
    Host.reset host;
    main_chunks host setup_calibrations;
    let (e, t) = setup w ~seed ~tmp:(Filename.concat tmp (Printf.sprintf "setup-%d" k)) in
    main_chunks host setup_calibrations;
    setups.(k) <- { t with setup_scale = Host.scale host };
    env := Some e
  done;
  let env = Option.get !env in
  Fun.protect ~finally:(fun () -> teardown env) @@ fun () ->
  let setup_s =
    Samples.median (Array.map (fun s -> secs s.total_ns *. s.setup_scale) setups)
  in
  (* a warm-up round, then the measured rounds *)
  ignore (round w env : round * outcome);
  (* The heap keeps growing slowly with every round (no compaction), so it
     is read after a fixed amount of traffic, not at the end of a run whose
     length depends on speed. *)
  let heap = ref (0.0, 0.0) in
  let after k = if k <= heap_rounds then heap := read_heap () in
  let (measured, last) = rounds ~after w env ~seconds ~run:(fun () -> round w env) in
  let (peak, live) = !heap in
  let verdict = gate env last in
  let tput = throughput measured in
  let lat = pooled_latencies measured in
  let attempted = List.fold_left (fun a r -> a + r.txns) 0 measured in
  let failed = List.fold_left (fun a r -> a + r.failed) 0 measured in
  let per = match w.mode with Sequential -> "txn" | Parallel | Repair -> "microbatch" in
  let floats xs = String.concat "" (List.map (Printf.sprintf " %.3g") xs) in
  let wall_lat = pooled_latencies ~scaled:false measured in
  Printf.printf "perfbench %s seed %d: %d measured rounds of %d txns, %d failed\n" w.name seed
    (List.length measured) w.round_txns failed;
  Printf.printf "  setup_s          %.4f s scaled, median of %d set-ups; wall:%s; host scale:%s\n"
    setup_s w.setups
    (floats (Array.to_list (Array.map (fun s -> secs s.total_ns) setups)))
    (floats (Array.to_list (Array.map (fun s -> s.setup_scale) setups)));
  Printf.printf "  throughput_txn_s %.1f scaled, %.1f wall, over %d rounds\n" tput
    (throughput ~scaled:false measured) (List.length measured);
  Printf.printf "    per round, wall:%s\n" (floats (List.map round_throughput measured));
  Printf.printf "    per round, host scale:%s\n" (floats (List.map round_scale measured));
  Printf.printf "  latency_p50_us   %.3f, latency_p90_us %.3f scaled (wall %.3f, %.3f): n=%d %s samples\n"
    (us (pct lat 0.5)) (us (pct lat 0.9))
    (us (pct wall_lat 0.5)) (us (pct wall_lat 0.9))
    (Array.length lat) per;
  Printf.printf "  live_heap_mb     %.1f, peak %.1f, after %d measured rounds\n" live peak heap_rounds;
  (match verdict with
  | Ok () -> Printf.printf "  gate: responses and final state equal the reference\n"
  | Error e -> Printf.printf "  gate FAILED: %s\n" e);
  let values = Hashtbl.create 64 in
  if not trace then begin
    Hashtbl.replace values "throughput_txn_s" tput;
    Hashtbl.replace values "latency_p50_us" (us (pct lat 0.5));
    Hashtbl.replace values "latency_p90_us" (us (pct lat 0.9));
    Hashtbl.replace values "setup_s" setup_s;
    Hashtbl.replace values "live_heap_mb" live
  end
  else begin
    let c = new_counters () in
    let traced () =
      let snapshot (k : Counting_store.counts) = (k.syncs, k.sync_ns, k.bytes) in
      let before = Option.map (fun l -> snapshot l.counts) env.log in
      let r =
        match w.mode with
        | Sequential -> seq_round_traced env c
        | _ -> batched_round_traced w env c
      in
      Option.iter
        (fun l ->
          let (syncs0, ns0, bytes0) = Option.get before in
          let (syncs1, ns1, bytes1) = snapshot l.counts in
          c.syncs <- c.syncs + syncs1 - syncs0;
          c.flush_ns <- c.flush_ns + ns1 - ns0;
          c.wal_bytes <- c.wal_bytes + bytes1 - bytes0)
        env.log;
      r
    in
    let (traced_rounds, _) = rounds w env ~seconds ~run:traced in
    let ttput = throughput traced_rounds in
    Printf.printf "  traced throughput %.1f txn/s (probes excluded) vs %.1f untraced\n" ttput tput;
    let host_scale = Samples.median (Array.of_list (List.map round_scale traced_rounds)) in
    layer_values c values ~setups ~overhead:(1.0 -. (ttput /. tput)) ~host_scale ~peak;
    let out = ".perfbench-out" in
    if not (Sys.file_exists out) then Sys.mkdir out 0o755;
    Spans.write c.spans (Filename.concat out ("spans-" ^ w.name ^ ".tsv"))
  end;
  let correct = Result.is_ok verdict && failed = 0 in
  print_json ~correct ~attempted ~failed (if trace then per_layer else end_to_end) values;
  correct

let () =
  let (w, seed, seconds, trace) = parse_args () in
  let root = ".perfbench-tmp" in
  if not (Sys.file_exists root) then Sys.mkdir root 0o755;
  let tmp = Filename.concat root (Printf.sprintf "%s-%d" w.name (Unix.getpid ())) in
  Sys.mkdir tmp 0o755;
  let correct =
    Fun.protect
      ~finally:(fun () ->
        remove_tree tmp;
        if Sys.readdir root = [||] then Sys.rmdir root)
      (fun () -> run w ~seed ~seconds ~trace ~tmp)
  in
  if not correct then exit 1
