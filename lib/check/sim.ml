module Ast = Fdb_query.Ast
module Txn = Fdb_txn.Txn
module Ix = Fdb_index.Index
module Topology = Fdb_net.Topology
module Reliable = Fdb_net.Reliable

module Replica = Fdb_replica.Replica

type faults = {
  drop_one_in : int;
  dup_one_in : int;
  delay_one_in : int;
  max_delay : int;
  crash : bool;
}

let no_faults =
  {
    drop_one_in = 0;
    dup_one_in = 0;
    delay_one_in = 0;
    max_delay = 0;
    crash = false;
  }

let default_faults =
  {
    drop_one_in = 5;
    dup_one_in = 6;
    delay_one_in = 4;
    max_delay = 3;
    crash = false;
  }

type outcome = {
  verdict : Oracle.verdict;
  applied : int;
  dup_suppressed : int;
  delayed : int;
  recovery : Replica.report option;
  net : Reliable.stats;
  trace : Fdb_obs.Event.t list;
  metrics : Fdb_obs.Metrics.snapshot;
}

let no_metrics = { Fdb_obs.Metrics.counters = []; histograms = [] }

exception
  Lost_queries of {
    missing : (int * int) list;
    buffered : int;
    stats : Reliable.stats;
    trace_tail : string list;
  }

(* Every sweep doubles as a trace-invariant check: the run executes under a
   recording sink and the captured trace must satisfy every law in
   {!Trace_oracle}. *)
let assert_lawful trace =
  match Trace_oracle.check trace with
  | [] -> ()
  | vs ->
      failwith
        (Format.asprintf "Sim.run: %d trace oracle violation(s):@,%a"
           (List.length vs)
           (Format.pp_print_list ~pp_sep:Format.pp_print_newline
              Trace_oracle.pp_violation)
           vs)

type msg = { client : int; seq : int; query : Ast.query }

let check_faults f =
  if f.drop_one_in = 1 then invalid_arg "Sim: drop_one_in = 1 loses everything";
  if f.drop_one_in < 0 || f.dup_one_in < 0 || f.delay_one_in < 0 then
    invalid_arg "Sim: negative fault rate";
  if f.delay_one_in > 0 && f.max_delay < 1 then
    invalid_arg "Sim: delay fault with max_delay < 1"

(* Seeded crash point: which commit (or checkpoint) the primary dies
   after, and whether replay is throttled, both drawn from a dedicated
   stream so they don't perturb the medium's drop sequence. *)
let crash_point ~seed ~checkpointing total =
  let crand = Random.State.make [| seed; 0xc4a5 |] in
  let n = 1 + Random.State.int crand (max 1 (total - 1)) in
  match seed mod 3 with
  | 0 -> Replica.Mid_stream n
  | 1 when checkpointing -> Replica.Mid_checkpoint (1 + (n mod 3))
  | 1 -> Replica.Mid_stream n
  | _ -> Replica.Mid_replay n

let run_crash ~recover_config ~faults ~seed (sc : Gen.scenario) =
  let base = Option.value ~default:Replica.default_config recover_config in
  let config =
    {
      base with
      Replica.drop_one_in = faults.drop_one_in;
      seed;
      crash =
        crash_point ~seed
          ~checkpointing:(base.Replica.checkpoint_every > 0)
          (Gen.query_count sc);
    }
  in
  let initial = Gen.initial_db sc in
  let (r, trace) =
    Fdb_obs.Trace.record (fun () -> Replica.run ~config ~initial sc.Gen.streams)
  in
  assert_lawful trace;
  (* Invariants the oracle cannot see: an acked commit must survive the
     failover exactly once, and promotion must replay exactly the log
     suffix past the last installed checkpoint. *)
  if r.Replica.acked_lost <> [] then
    failwith
      (Printf.sprintf "Sim.run: %d acked commits lost in failover (%s)"
         (List.length r.Replica.acked_lost)
         (String.concat ", "
            (List.map
               (fun (c, s) -> Printf.sprintf "client %d seq %d" c s)
               r.Replica.acked_lost)));
  if r.Replica.dup_applied > 0 then
    failwith
      (Printf.sprintf "Sim.run: %d commits applied twice across failover"
         r.Replica.dup_applied);
  if r.Replica.replay_mismatches > 0 then
    failwith
      (Printf.sprintf "Sim.run: %d replayed responses diverged"
         r.Replica.replay_mismatches);
  if r.Replica.crashed && r.Replica.replayed <> r.Replica.log_suffix_at_crash
  then
    failwith
      (Printf.sprintf "Sim.run: replayed %d records, log suffix was %d"
         r.Replica.replayed r.Replica.log_suffix_at_crash);
  let obs =
    { Oracle.responses = r.Replica.responses; final = r.Replica.final }
  in
  {
    verdict = Oracle.check ~initial ~streams:sc.Gen.streams obs;
    applied = r.Replica.history_len - 1;
    dup_suppressed = r.Replica.dedup_hits;
    delayed = 0;
    recovery = Some r;
    net = r.Replica.net;
    trace;
    metrics = no_metrics;
  }

let run_raw ?(faults = default_faults) ?recover_config ~seed (sc : Gen.scenario) =
  check_faults faults;
  if faults.crash then run_crash ~recover_config ~faults ~seed sc
  else begin
  let clients = List.length sc.Gen.streams in
  (* Client 0 is co-located with the primary at the hub (site 0, the
     src = dst hand-off path); clients 1.. sit on the leaves. *)
  let topo = Topology.star (max 2 clients) in
  let site_of c = if c = 0 then 0 else c in
  let channel = Reliable.create ~drop_one_in:faults.drop_one_in ~seed topo in
  let rand = Random.State.make [| seed; 0xfab |] in
  let remaining = Array.of_list (List.map ref sc.Gen.streams) in
  let next_seq = Array.make clients 0 in
  let delayed = ref [] in
  let delayed_count = ref 0 in
  let db = ref (Gen.initial_db sc) in
  (* The primary executes through a default index catalog: every read that
     an index can answer takes the indexed path (checked differentially by
     the oracle below against plain sequential semantics), every write
     maintains the indexes in lockstep — emitting the [Index_maintain]
     events the [index_coherence] trace law audits. *)
  let session =
    Ix.Session.create_exn (Ix.Catalog.default_for sc.Gen.schemas) !db
  in
  let per_client = Array.make clients [] in
  (* Reassembly at the primary: commit strictly in per-client seq order,
     buffering gaps — the per-stream-order guarantee the oracle assumes. *)
  let expected = Array.make clients 0 in
  let buffered : (int * int, Ast.query) Hashtbl.t = Hashtbl.create 32 in
  let applied = ref 0 in
  let dup_suppressed = ref 0 in
  let commit c q =
    let (resp, db') = Txn.translate ~index:(Ix.Session.use session) q !db in
    db := db';
    per_client.(c) <- resp :: per_client.(c);
    incr applied
  in
  let receive m =
    if m.seq < expected.(m.client) || Hashtbl.mem buffered (m.client, m.seq)
    then incr dup_suppressed
    else begin
      Hashtbl.replace buffered (m.client, m.seq) m.query;
      let c = m.client in
      let continue = ref true in
      while !continue do
        match Hashtbl.find_opt buffered (c, expected.(c)) with
        | None -> continue := false
        | Some q ->
            Hashtbl.remove buffered (c, expected.(c));
            expected.(c) <- expected.(c) + 1;
            commit c q
      done
    end
  in
  let roll n = n > 0 && Random.State.int rand n = 0 in
  let send_now m =
    let copies = if roll faults.dup_one_in then 2 else 1 in
    for _ = 1 to copies do
      Reliable.send channel ~src:(site_of m.client) ~dst:0 m
    done
  in
  let emit c =
    match !(remaining.(c)) with
    | [] -> ()
    | q :: rest ->
        remaining.(c) := rest;
        let m = { client = c; seq = next_seq.(c); query = q } in
        next_seq.(c) <- next_seq.(c) + 1;
        if roll faults.delay_one_in then begin
          incr delayed_count;
          delayed :=
            (ref (1 + Random.State.int rand faults.max_delay), m) :: !delayed
        end
        else send_now m
  in
  let any_remaining () = Array.exists (fun r -> !r <> []) remaining in
  let ticks = ref 0 in
  let ((), trace) =
    Fdb_obs.Trace.record @@ fun () ->
  while any_remaining () || !delayed <> [] || not (Reliable.idle channel) do
    incr ticks;
    if !ticks > 200_000 then failwith "Sim.run: no quiescence";
    (* 0-2 fresh queries injected per tick, from random live clients. *)
    if any_remaining () then
      for _ = 1 to Random.State.int rand 3 do
        let live =
          List.filter
            (fun c -> !(remaining.(c)) <> [])
            (List.init clients Fun.id)
        in
        match live with
        | [] -> ()
        | l -> emit (List.nth l (Random.State.int rand (List.length l)))
      done;
    (* Reorder fault: held-back queries re-enter the transport late. *)
    let (due, held) =
      List.partition
        (fun (countdown, _) ->
          decr countdown;
          !countdown <= 0)
        !delayed
    in
    delayed := held;
    List.iter (fun (_, m) -> send_now m) due;
    List.iter (fun (_dst, m) -> receive m) (Reliable.step channel)
  done
  in
  assert_lawful trace;
  (* End-state coherence: every index must equal a fresh rebuild from the
     final base relations (the per-step lockstep was checked by the trace
     law above). *)
  (match Ix.Store.coherent (Ix.Session.store session) !db with
  | Ok () -> ()
  | Error e -> failwith (Printf.sprintf "Sim.run: index incoherence: %s" e));
  let total = Gen.query_count sc in
  if !applied <> total || Hashtbl.length buffered <> 0 then begin
    (* Which (client, seq) never committed — a transport bug, surfaced
       with enough structure to replay the seed. *)
    let missing = ref [] in
    let lens = Array.of_list (List.map List.length sc.Gen.streams) in
    for c = clients - 1 downto 0 do
      for s = lens.(c) - 1 downto expected.(c) do
        if not (Hashtbl.mem buffered (c, s)) then
          missing := (c, s) :: !missing
      done
    done;
    raise
      (Lost_queries
         {
           missing = !missing;
           buffered = Hashtbl.length buffered;
           stats = Reliable.stats channel;
           trace_tail = Fdb_obs.Trace.tail ();
         })
  end;
  let obs =
    { Oracle.responses = Array.to_list (Array.map List.rev per_client);
      final = !db }
  in
  let verdict =
    Oracle.check ~initial:(Gen.initial_db sc) ~streams:sc.Gen.streams obs
  in
  {
    verdict;
    applied = !applied;
    dup_suppressed = !dup_suppressed;
    delayed = !delayed_count;
    recovery = None;
    net = Reliable.stats channel;
    trace;
    metrics = no_metrics;
  }
  end

(* Each run executes against a zeroed metrics registry and reports only
   its own delta, with the surrounding totals restored afterwards — so
   sweeps and test suites can never bleed counter state into each other
   through the process-global registry. *)
let run ?faults ?recover_config ~seed sc =
  let (o, metrics) =
    Fdb_obs.Metrics.scoped (fun () -> run_raw ?faults ?recover_config ~seed sc)
  in
  { o with metrics }

(* -- the repair-executor sweep --------------------------------------------- *)

module Merge = Fdb_merge.Merge
module Exec = Fdb_repair.Exec

type repair_outcome = {
  repair_verdict : Oracle.verdict;
  repair_stats : Exec.stats;
  repair_trace : Fdb_obs.Event.t list;
  repair_metrics : Fdb_obs.Metrics.snapshot;
}

let run_repair_raw ?pool ?domains ?(batch = 8) ?max_states ~seed
    (sc : Gen.scenario) =
  if batch < 1 then invalid_arg "Sim.run_repair: batch must be >= 1";
  let initial = Gen.initial_db sc in
  let merged = Merge.merge (Merge.Seeded ((7 * seed) + 1)) sc.Gen.streams in
  let queries = List.map (fun (m : _ Merge.tagged) -> m.Merge.item) merged in
  let exec pool =
    (* A fresh session per invocation: [exec] runs twice (pooled, then
       traced inline) and the determinism check below requires identical
       starting stores. *)
    let session =
      Ix.Session.create_exn (Ix.Catalog.default_for sc.Gen.schemas) initial
    in
    let rec go db acc stats bid = function
      | [] -> (List.rev acc, db, stats)
      | qs :: rest ->
          let r = Exec.run_batch ~pool ~index:session ~batch_id:bid db qs in
          go r.Exec.final
            (List.rev_append r.Exec.responses acc)
            (Exec.add_stats stats r.Exec.stats)
            (bid + 1) rest
    in
    let (resps, final, stats) =
      go initial [] Exec.zero_stats 0 (Exec.chunks batch queries)
    in
    (match Ix.Store.coherent (Ix.Session.store session) final with
    | Ok () -> ()
    | Error e ->
        failwith
          (Printf.sprintf "Sim.run_repair (seed %d): index incoherence: %s"
             seed e));
    (resps, final, stats)
  in
  (* All failure paths below raise inside [go] — i.e. inside the
     [Pool.with_pool] bracket when no pool was passed — so worker domains
     are joined even when a scenario fails. *)
  let go pool =
    (* Pooled run: real parallel speculation. *)
    let (responses, final, stats) = exec pool in
    (* Traced run: the executor falls back to inline execution under a
       recording sink (the sink is not domain-safe), which doubles as a
       determinism check — pooled and inline runs must agree exactly. *)
    let ((responses_t, final_t, _), trace) =
      Fdb_obs.Trace.record (fun () -> exec pool)
    in
    assert_lawful trace;
    if
      not
        (List.equal Txn.response_equal responses responses_t
        && Oracle.db_equal final final_t)
    then
      failwith
        (Printf.sprintf
           "Sim.run_repair (seed %d): traced inline run diverged from the \
            pooled run"
           seed);
    (* Differential check 1: the ideal sequential engine over the same
       merged order. *)
    let (seq_resps, seq_final) = Txn.run_queries initial queries in
    List.iteri
      (fun i (r, s) ->
        if not (Txn.response_equal r s) then
          failwith
            (Format.asprintf
               "Sim.run_repair (seed %d): response %d diverged from the \
                sequential engine: repair %a, sequential %a"
               seed i Txn.pp_response r Txn.pp_response s))
      (List.combine responses seq_resps);
    if not (Oracle.db_equal final seq_final) then
      failwith
        (Printf.sprintf
           "Sim.run_repair (seed %d): final database diverged from the \
            sequential engine"
           seed);
    (* Differential check 2: the serializability oracle over the
       per-client observation. *)
    let clients = List.length sc.Gen.streams in
    let per_client = Array.make clients [] in
    List.iter2
      (fun (m : _ Merge.tagged) resp ->
        per_client.(m.Merge.tag) <- resp :: per_client.(m.Merge.tag))
      merged responses;
    let obs =
      {
        Oracle.responses = Array.to_list (Array.map List.rev per_client);
        final;
      }
    in
    let verdict =
      Oracle.check ?max_states ~initial ~streams:sc.Gen.streams obs
    in
    if not (Oracle.accepted verdict) then
      failwith
        (Format.asprintf "Sim.run_repair (seed %d): oracle verdict: %a" seed
           Oracle.pp_verdict verdict);
    {
      repair_verdict = verdict;
      repair_stats = stats;
      repair_trace = trace;
      repair_metrics = no_metrics;
    }
  in
  match pool with
  | Some p -> go p
  | None -> Fdb_par.Pool.with_pool ?domains go

let run_repair ?pool ?domains ?batch ?max_states ~seed sc =
  let (o, metrics) =
    Fdb_obs.Metrics.scoped (fun () ->
        run_repair_raw ?pool ?domains ?batch ?max_states ~seed sc)
  in
  { o with repair_metrics = metrics }

(* -- the sharded two-level merge sweep ------------------------------------- *)

module Shard = Fdb_shard.Shard

type shard_outcome = {
  shard_verdict : Oracle.verdict;
  shard_stats : Shard.stats;
  shard_streams : int array;  (** shard-local commit stream length per shard *)
  shard_trace : Fdb_obs.Event.t list;
  shard_metrics : Fdb_obs.Metrics.snapshot;
}

(* Rewrite a generated scenario to an exact cross-shard ratio: each query
   slot is forced to a cross-relation join with probability [ratio], and
   below the threshold any native cross-relation join is folded onto its
   left relation — so ratio 0.0 carries no cross-shard work at all and
   the knob is monotone. *)
let cross_shardify ~ratio ~seed (sc : Gen.scenario) =
  if ratio < 0.0 || ratio > 1.0 then
    invalid_arg "Sim.cross_shardify: ratio outside [0, 1]";
  let rels =
    Array.of_list (List.map Fdb_relational.Schema.name sc.Gen.schemas)
  in
  let nr = Array.length rels in
  let rand = Random.State.make [| seed; 0x5a4d |] in
  let cross_join () =
    let l = Random.State.int rand nr in
    let r = (l + 1 + Random.State.int rand (max 1 (nr - 1))) mod nr in
    Ast.Join { left = rels.(l); right = rels.(r); on = ("key", "key") }
  in
  let streams =
    List.map
      (List.map (fun q ->
           if Random.State.float rand 1.0 < ratio then cross_join ()
           else
             match q with
             | Ast.Join { left; on; _ } -> Ast.Join { left; right = left; on }
             | q -> q))
      sc.Gen.streams
  in
  { sc with Gen.streams }

let shard_fail ~seed fmt =
  Format.kasprintf
    (fun m -> failwith (Printf.sprintf "Sim.run_sharded (seed %d): %s" seed m))
    fmt

let run_sharded_raw ?policy ?(replicate = false) ?max_states ~shards ~seed
    (sc : Gen.scenario) =
  if shards < 1 then invalid_arg "Sim.run_sharded: shards < 1";
  let initial = Gen.initial_db sc in
  let policy =
    Option.value policy ~default:(Merge.Seeded ((13 * seed) + 3))
  in
  (* The sharded run executes under a recording sink; the trace must
     satisfy every law, including [shard_serializability]. *)
  let (r, trace) =
    Fdb_obs.Trace.record (fun () ->
        Shard.run ~policy ~shards ~initial sc.Gen.streams)
  in
  assert_lawful trace;
  let n = Array.length r.Shard.queries in
  let queries = Array.to_list r.Shard.queries in
  (* Differential 1: the ideal sequential engine over the same router
     order — the sharded executor's scatter/gather must be invisible. *)
  let (seq_resps, seq_final) = Txn.run_queries initial queries in
  List.iteri
    (fun i s ->
      if not (Txn.response_equal r.Shard.responses.(i) s) then
        shard_fail ~seed
          "response %d diverged from the sequential engine: sharded %a, \
           sequential %a"
          i Txn.pp_response r.Shard.responses.(i) Txn.pp_response s)
    seq_resps;
  if not (Oracle.db_equal r.Shard.final seq_final) then
    shard_fail ~seed "final database diverged from the sequential engine";
  (* Shard count 1 collapses to the unsharded pipeline: the rendered
     output bytes must be identical, not merely equivalent. *)
  if shards = 1 then begin
    let render resps db =
      Format.asprintf "%a|%a"
        (Format.pp_print_list Txn.pp_response)
        resps Fdb_relational.Database.pp db
    in
    let ours = render (Array.to_list r.Shard.responses) r.Shard.final in
    let ref_ = render seq_resps seq_final in
    if not (String.equal ours ref_) then
      shard_fail ~seed
        "shards=1 output is not byte-identical to the unsharded pipeline"
  end;
  (* Differential 2: the adversarial shard-major replay.  A falsely
     granted bypass — a non-commuting pair committing in shard-local
     order — shows up here as a diverging response or final database. *)
  let sched = Shard.reorder_schedule r in
  if List.length sched <> n then
    shard_fail ~seed "reorder schedule dropped %d transactions"
      (n - List.length sched);
  let (re_resps, re_final) =
    Txn.run_queries initial (List.map (fun (_, _, q) -> q) sched)
  in
  List.iter2
    (fun (i, _, _) resp ->
      if not (Txn.response_equal r.Shard.responses.(i) resp) then
        shard_fail ~seed
          "txn %d answered %a in the epoch-reordered replay but %a in the \
           sharded run — an unsound bypass"
          i Txn.pp_response resp Txn.pp_response r.Shard.responses.(i))
    sched re_resps;
  if not (Oracle.db_equal r.Shard.final re_final) then
    shard_fail ~seed
      "final database diverged under the epoch-reordered replay — an \
       unsound bypass";
  (* Differential 3: the serializability oracle over the per-client
     observation. *)
  let clients = List.length sc.Gen.streams in
  let per_client = Array.make clients [] in
  Array.iteri
    (fun i tag -> per_client.(tag) <- r.Shard.responses.(i) :: per_client.(tag))
    r.Shard.tags;
  let obs =
    {
      Oracle.responses = Array.to_list (Array.map List.rev per_client);
      final = r.Shard.final;
    }
  in
  let verdict = Oracle.check ?max_states ~initial ~streams:sc.Gen.streams obs in
  if not (Oracle.accepted verdict) then
    shard_fail ~seed "oracle verdict: %a" Oracle.pp_verdict verdict;
  (* Composition with lib/replica: each shard's commit stream drives its
     own primary/backup pair, whose surviving state must equal the
     slice.  (Cross-shard joins are read-only, so the slice evolves only
     through the shard's local stream — asserted via [foreign_writes].) *)
  if replicate then begin
    let slices = Shard.slice ~shards initial in
    Array.iteri
      (fun s slice0 ->
        if r.Shard.foreign_writes.(s) then
          shard_fail ~seed "shard %d slice written by a cross-shard txn" s;
        let stream = r.Shard.local_queries.(s) in
        let rep = Replica.run ~initial:slice0 [ stream ] in
        if rep.Replica.acked_lost <> [] then
          shard_fail ~seed "shard %d replica lost %d acked commits" s
            (List.length rep.Replica.acked_lost);
        if rep.Replica.dup_applied > 0 then
          shard_fail ~seed "shard %d replica applied %d commits twice" s
            rep.Replica.dup_applied;
        if not (Oracle.db_equal rep.Replica.final r.Shard.shard_dbs.(s)) then
          shard_fail ~seed
            "shard %d replica final state diverged from the slice" s;
        let local_resps =
          List.filter_map
            (fun i ->
              match Shard.shards_of_query ~shards r.Shard.queries.(i) with
              | [ s' ] when s' = s -> Some r.Shard.responses.(i)
              | _ -> None)
            r.Shard.commit_log.(s)
        in
        let rep_resps = List.concat rep.Replica.responses in
        if
          not (List.equal Txn.response_equal local_resps rep_resps)
        then
          shard_fail ~seed
            "shard %d replica responses diverged from the commit stream" s)
      slices
  end;
  {
    shard_verdict = verdict;
    shard_stats = r.Shard.stats;
    shard_streams = Array.map List.length r.Shard.commit_log;
    shard_trace = trace;
    shard_metrics = no_metrics;
  }

let run_sharded ?policy ?replicate ?max_states ~shards ~seed sc =
  let (o, metrics) =
    Fdb_obs.Metrics.scoped (fun () ->
        run_sharded_raw ?policy ?replicate ?max_states ~shards ~seed sc)
  in
  { o with shard_metrics = metrics }

(* -- the crash-restart disk sweep ------------------------------------------- *)

module Wal = Fdb_wal.Wal
module Wire = Fdb_wire.Wire

type disk_fault =
  | Clean_kill
  | Truncate_mid_frame
  | Bit_flip
  | Duplicate_tail
  | Torn_differential
  | Kill_before_delete
  | Torn_base

let all_disk_faults =
  [ Clean_kill; Truncate_mid_frame; Bit_flip; Duplicate_tail;
    Torn_differential; Kill_before_delete; Torn_base ]

let disk_fault_name = function
  | Clean_kill -> "clean-kill"
  | Truncate_mid_frame -> "truncate-mid-frame"
  | Bit_flip -> "bit-flip"
  | Duplicate_tail -> "duplicate-tail"
  | Torn_differential -> "torn-differential"
  | Kill_before_delete -> "kill-before-delete"
  | Torn_base -> "torn-base"

let disk_fault_of_name name =
  List.find_opt (fun f -> disk_fault_name f = name) all_disk_faults

type disk_outcome = {
  disk_appended : int;  (** versions logged before the kill *)
  disk_durable : int;  (** newest version the fsync discipline promised *)
  disk_recovered : int;  (** newest version the first recovery rebuilt *)
  disk_base : int;  (** checkpoint version the first recovery started from *)
  disk_stop : string;  (** why replay stopped (["clean"] if it didn't) *)
  disk_segments : int;  (** segment files present at the first recovery *)
  disk_resumed : int;  (** versions appended after restart *)
  disk_fired : bool;  (** a checkpoint fault's kill happened *)
  disk_trace : Fdb_obs.Event.t list;
  disk_metrics : Fdb_obs.Metrics.snapshot;
}

let disk_fail ~seed fmt =
  Format.kasprintf (fun m -> failwith (Printf.sprintf "Sim.run_disk (seed %d): %s" seed m)) fmt

(* Doctor the newest surviving segment after the torn-write crash.  Every
   doctoring stays at or past the synced mark: fsynced bytes are stable by
   the fault model — the whole point is that recovery must survive
   anything that happens {e past} the promise. *)
let doctor_tail ~fault ~rand mem store =
  let top =
    List.fold_left
      (fun acc name ->
        match Wal.segment_number name with Some n -> max acc n | None -> acc)
      (-1)
      (store.Wal.Store.list_files ())
  in
  if top >= 0 then begin
    let name = Wal.segment_name top in
    let content = Wal.Mem.get mem name in
    let synced = Wal.Mem.synced mem name in
    let len = String.length content in
    match fault with
    | Clean_kill -> ()
    | Truncate_mid_frame ->
        if len > synced then
          Wal.Mem.set mem name
            (String.sub content 0 (synced + Random.State.int rand (len - synced)))
    | Bit_flip ->
        if len > synced then begin
          let off = synced + Random.State.int rand (len - synced) in
          let b = Bytes.of_string content in
          Bytes.set b off
            (Char.chr
               (Char.code (Bytes.get b off)
               lxor (1 lsl Random.State.int rand 8)));
          Wal.Mem.set mem name (Bytes.to_string b)
        end
    | Duplicate_tail -> (
        (* Re-append the last whole frame: a checksum-valid duplicate the
           reader must reject as out-of-order, keeping the prefix. *)
        let rec last pos best =
          match Wire.read_frame content ~pos with
          | Wire.Frame { next; _ } -> last next (Some (pos, next))
          | Wire.End_of_input | Wire.Torn _ -> best
        in
        match last 0 None with
        | Some (s, e) ->
            Wal.Mem.set mem name (content ^ String.sub content s (e - s))
        | None -> ())
    | Torn_differential | Kill_before_delete | Torn_base ->
        (* the kill inside a checkpoint was the fault *)
        ()
  end

exception Killed

(* The checkpoint faults' store: [mem]'s, which, while [armed], kills the
   writer inside a checkpoint — tearing a differential or a base head at a
   random byte before its end (a frame of several appends may be cut in
   any of them), or right after a differential head is synced, before
   the checkpoint deletes what it supersedes.  [fired] records the kill. *)
let killing_store ~fault ~rand ~armed ~fired mem =
  let inner = Wal.Mem.store mem in
  let tearing = ref None in
  (* file, bytes of the head still allowed through *)
  let headed = ref None in
  (* the file and head kind, when the last append began a segment *)
  let files = Hashtbl.create 8 in
  let kill () =
    fired := true;
    raise Killed
  in
  let tear name bytes room =
    if String.length bytes <= room then begin
      inner.Wal.Store.append name bytes;
      tearing := Some (name, room - String.length bytes)
    end
    else begin
      inner.Wal.Store.append name (String.sub bytes 0 room);
      kill ()
    end
  in
  let append name bytes =
    let head =
      if Hashtbl.mem files name then None
      else begin
        Hashtbl.replace files name ();
        Wire.header_kind bytes
      end
    in
    headed := Option.map (fun kind -> (name, kind)) head;
    match !tearing with
    | Some (file, room) when file = name -> tear name bytes room
    | _ -> (
        match (fault, if !armed then head else None) with
        | (Torn_differential, Some Wire.Differential)
        | (Torn_base, Some Wire.Checkpoint) ->
            let len =
              Wire.frame_overhead
              + (Int32.to_int (String.get_int32_le bytes 0) land 0xFFFFFFFF)
            in
            tear name bytes (Random.State.int rand len)
        | _ -> inner.Wal.Store.append name bytes)
  in
  let sync name =
    inner.Wal.Store.sync name;
    if
      !armed && fault = Kill_before_delete
      && !headed = Some (name, Wire.Differential)
    then kill ()
  in
  { inner with Wal.Store.append; sync }

(* Checkpoint until the fault's frame is met and the store kills the
   writer: a differential comes at the latest right after a base, and a
   base at the latest as the [Wal.base_every]th checkpoint. *)
let kill_in_checkpoint w =
  let rec go n =
    if n > 0 then
      match Wal.checkpoint w with
      | () -> go (n - 1)
      | exception Killed -> ()
  in
  go (Wal.base_every + 1)

let run_disk_raw ?(sync_every = 3) ?(checkpoint_every = 0) ~fault ~seed
    (sc : Gen.scenario) =
  let initial = Gen.initial_db sc in
  let merged = Merge.merge (Merge.Seeded ((11 * seed) + 5)) sc.Gen.streams in
  let queries = List.map (fun (m : _ Merge.tagged) -> m.Merge.item) merged in
  let rand = Random.State.make [| seed; 0xd15c |] in
  let total = List.length queries in
  let kill = if total = 0 then 0 else 1 + Random.State.int rand total in
  let mem = Wal.Mem.create () in
  let armed = ref false and fired = ref false in
  let store = killing_store ~fault ~rand ~armed ~fired mem in
  let (outcome, trace) =
    Fdb_obs.Trace.record @@ fun () ->
    (* -- before the kill: commit through the reference engine, logging
       every new version; group fsync + checkpoint policy as configured. *)
    let w = Wal.create ~sync_every ~checkpoint_every ~store initial in
    let expected = ref [ initial ] in
    let db = ref initial in
    let rec apply_prefix n = function
      | q :: rest when n < kill ->
          let (_resp, db') = Txn.translate q !db in
          if not (db' == !db) then begin
            db := db';
            expected := db' :: !expected;
            Wal.append w db'
          end;
          apply_prefix (n + 1) rest
      | rest -> rest
    in
    let remaining = apply_prefix 0 queries in
    (match fault with
    | Torn_differential | Kill_before_delete | Torn_base ->
        armed := true;
        kill_in_checkpoint w;
        armed := false
    | Clean_kill ->
        Wal.sync w;
        fired := true
    | Truncate_mid_frame | Bit_flip | Duplicate_tail -> fired := true);
    let durable = Wal.durable w in
    let appended = Wal.appended w in
    (* -- the kill: tear the unsynced tail, then doctor what survived. *)
    Wal.Mem.crash ~rand mem;
    doctor_tail ~fault ~rand mem store;
    (* -- restart: checkpoint + suffix replay. *)
    let r = Wal.recover store in
    (* The durability contract, checked differentially against the
       pre-crash run: everything promised by the fsync discipline is
       back, nothing past the last append was invented... *)
    if r.Wal.upto < durable then
      disk_fail ~seed
        "recovered only to version %d, fsync promised %d (%s fault)"
        r.Wal.upto durable (disk_fault_name fault);
    if r.Wal.upto > appended then
      disk_fail ~seed "recovered version %d past the last append %d"
        r.Wal.upto appended;
    (* ...and every recovered version equals the version the pre-crash
       engine committed — byte-for-byte the same relations, never a wrong
       or reordered history. *)
    let expected = Array.of_list (List.rev !expected) in
    for i = r.Wal.base to r.Wal.upto do
      if
        not
          (Oracle.db_equal
             (Fdb_txn.History.version r.Wal.rhistory (i - r.Wal.base))
             expected.(i))
      then
        disk_fail ~seed "recovered version %d diverges from the pre-crash run"
          i
    done;
    (* -- continue after restart: the recovered state is the new tail. *)
    let w2 = Wal.resume ~sync_every ~checkpoint_every ~store r in
    let db2 = ref (Wal.latest w2) in
    let expected2 = ref [ !db2 ] in
    List.iter
      (fun q ->
        let (_resp, db') = Txn.translate q !db2 in
        if not (db' == !db2) then begin
          db2 := db';
          expected2 := db' :: !expected2;
          Wal.append w2 db'
        end)
      remaining;
    Wal.sync w2;
    let r2 = Wal.recover store in
    if r2.Wal.upto <> Wal.appended w2 then
      disk_fail ~seed
        "post-restart recovery reached version %d, writer appended %d"
        r2.Wal.upto (Wal.appended w2);
    let expected2 = Array.of_list (List.rev !expected2) in
    for i = r2.Wal.base to r2.Wal.upto do
      if
        not
          (Oracle.db_equal
             (Fdb_txn.History.version r2.Wal.rhistory (i - r2.Wal.base))
             expected2.(i - r.Wal.upto))
      then
        disk_fail ~seed
          "post-restart version %d diverges from the continued run" i
    done;
    {
      disk_appended = appended;
      disk_durable = durable;
      disk_recovered = r.Wal.upto;
      disk_base = r.Wal.base;
      disk_stop =
        (match r.Wal.stop with
        | Wal.Clean -> "clean"
        | Wal.Stopped { reason; _ } -> reason);
      disk_segments = r.Wal.segments;
      disk_resumed = Wal.appended w2 - r.Wal.upto;
      disk_fired = !fired;
      disk_trace = [];
      disk_metrics = no_metrics;
    }
  in
  assert_lawful trace;
  { outcome with disk_trace = trace }

let run_disk ?sync_every ?checkpoint_every ~fault ~seed sc =
  let (o, metrics) =
    Fdb_obs.Metrics.scoped (fun () ->
        run_disk_raw ?sync_every ?checkpoint_every ~fault ~seed sc)
  in
  { o with disk_metrics = metrics }
