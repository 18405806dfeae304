(* Primary/backup replication: snapshot codec, failover, exactly-once. *)

open Fdb_relational
module Gen = Fdb_check.Gen
module Oracle = Fdb_check.Oracle
module Sim = Fdb_check.Sim
module History = Fdb_txn.History
module Replica = Fdb_replica.Replica
module Snapshot = Fdb_replica.Snapshot

(* -- snapshot codec --------------------------------------------------------- *)

let build_history ?(seed = 3) ?(qpc = 8) () =
  let sc =
    Gen.generate { Gen.default_spec with Gen.seed; queries_per_client = qpc }
  in
  List.fold_left
    (fun h q -> fst (History.commit_query h q))
    (History.create (Gen.initial_db sc))
    (List.concat sc.Gen.streams)

let test_snapshot_roundtrip () =
  let h = build_history () in
  let h' = Snapshot.decode (Snapshot.encode h) in
  Alcotest.(check int) "same length" (History.length h) (History.length h');
  for i = 0 to History.length h - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "version %d equal" i)
      true
      (Oracle.db_equal (History.version h i) (History.version h' i))
  done

(* The no-sharing control: every version shipped as a one-version
   snapshot of its own. *)
let naive_size h =
  let n = ref 0 in
  for i = 0 to History.length h - 1 do
    n := !n + String.length (Snapshot.encode (History.create (History.version h i)))
  done;
  !n

let test_snapshot_delta_exploits_sharing () =
  let h = build_history ~qpc:12 () in
  let delta = String.length (Snapshot.encode h) in
  let naive = naive_size h in
  Alcotest.(check bool)
    (Printf.sprintf "delta (%d) < naive (%d)" delta naive)
    true (delta < naive)

(* The archive probe: one 1000-tuple btree-8 relation, one insert per
   version. *)
let probe_history versions =
  let schema =
    Schema.make ~name:"R" ~cols:[ ("key", Schema.CInt); ("val", Schema.CStr) ]
  in
  let tup k = Tuple.make [ Value.Int k; Value.Str (Printf.sprintf "v%d" k) ] in
  let ok = function Ok x -> x | Error e -> Alcotest.fail e in
  let db =
    ok
      (Database.of_tuples ~backend:(Relation.Btree_backend 8) [ schema ]
         [ ("R", List.init 1000 (fun k -> tup (2 * k))) ])
  in
  let rec go h i =
    if i >= versions then h
    else
      let (db, _) =
        ok (Database.insert (History.latest h) ~rel:"R" (tup ((2 * i) + 1)))
      in
      go (History.append h db) (i + 1)
  in
  go (History.create db) 1

(* A decoded version is its predecessor with its delta applied, so it
   shares every page the insert did not copy. *)
let test_snapshot_decoded_pages_shared () =
  let h = probe_history 100 in
  let h' = Snapshot.decode (Snapshot.encode h) in
  let rel i = Option.get (Database.relation (History.version h' i) "R") in
  for i = 1 to History.length h' - 1 do
    let (s, t) = Relation.shared_units ~old:(rel (i - 1)) (rel i) in
    Alcotest.(check bool)
      (Printf.sprintf "v%d: %d of %d pages shared" i s t)
      true
      (10 * s > 9 * t)
  done

(* A 1000-version probe ships in under 200 KB and decodes to the same
   versions. *)
let test_snapshot_probe_size () =
  let h = probe_history 1000 in
  let s = Snapshot.encode h in
  Alcotest.(check bool)
    (Printf.sprintf "%d bytes < 200 KB" (String.length s))
    true
    (String.length s < 200_000);
  let h' = Snapshot.decode s in
  Alcotest.(check int) "versions" 1000 (History.length h');
  Alcotest.(check bool) "newest equal" true
    (Oracle.db_equal (History.latest h) (History.latest h'))

let test_snapshot_rejects_corruption () =
  let s = Snapshot.encode (build_history ()) in
  let truncated = String.sub s 0 (String.length s - 7) in
  let corrupted = "XYZSNAP" ^ s in
  let bitflip =
    let b = Bytes.of_string s in
    let mid = String.length s / 2 in
    Bytes.set b mid (Char.chr (Char.code (Bytes.get b mid) lxor 0x10));
    Bytes.to_string b
  in
  (* Trailing garbage after a complete, valid frame must be rejected too —
     decode consumes exactly the frame it reports. *)
  let trailing = s ^ "junk" in
  List.iter
    (fun (label, bad) ->
      match Snapshot.decode bad with
      | _ -> Alcotest.fail ("decode accepted a corrupt snapshot: " ^ label)
      | exception Fdb_wire.Wire.Corrupt { offset; reason } ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: offset %d in bounds (%s)" label offset reason)
            true
            (offset >= 0 && offset <= String.length bad))
    [
      ("truncated", truncated);
      ("bad prefix", corrupted);
      ("empty", "");
      ("bitflip", bitflip);
      ("trailing garbage", trailing);
    ]

let test_snapshot_trailing_offset () =
  (* The typed exception points exactly at the first trailing byte. *)
  let s = Snapshot.encode (build_history ()) in
  match Snapshot.decode (s ^ "!") with
  | _ -> Alcotest.fail "accepted trailing garbage"
  | exception Fdb_wire.Wire.Corrupt { offset; _ } ->
      Alcotest.(check int) "offset = frame end" (String.length s) offset

(* -- failover runs ---------------------------------------------------------- *)

let scenario seed = Gen.generate { Gen.default_spec with Gen.seed }

let run_replica ?(config = Replica.default_config) seed =
  let sc = scenario seed in
  let initial = Gen.initial_db sc in
  let r =
    Replica.run
      ~config:{ config with Replica.seed }
      ~initial sc.Gen.streams
  in
  (sc, initial, r)

let assert_invariants (r : Replica.report) =
  Alcotest.(check (list (pair int int)))
    "no acked commit lost" [] r.Replica.acked_lost;
  Alcotest.(check int) "no commit doubly applied" 0 r.Replica.dup_applied;
  Alcotest.(check int) "no replay divergence" 0 r.Replica.replay_mismatches;
  if r.Replica.crashed then
    Alcotest.(check int) "replay = log suffix past last checkpoint"
      r.Replica.log_suffix_at_crash r.Replica.replayed

let assert_serializable sc initial (r : Replica.report) =
  let obs =
    { Oracle.responses = r.Replica.responses; final = r.Replica.final }
  in
  Alcotest.(check bool) "serializable" true
    (Oracle.accepted (Oracle.check ~initial ~streams:sc.Gen.streams obs))

let test_no_crash () =
  let (sc, initial, r) = run_replica 5 in
  Alcotest.(check bool) "did not crash" false r.Replica.crashed;
  Alcotest.(check int) "every query committed at the primary"
    (Gen.query_count sc) r.Replica.committed_primary;
  Alcotest.(check bool) "checkpoints flowed" true
    (r.Replica.checkpoints_installed > 0);
  assert_invariants r;
  assert_serializable sc initial r

let crash_config crash =
  { Replica.default_config with Replica.crash }

let test_mid_stream_crash () =
  let (sc, initial, r) =
    run_replica ~config:(crash_config (Replica.Mid_stream 5)) 7
  in
  Alcotest.(check bool) "crashed" true r.Replica.crashed;
  Alcotest.(check bool) "recovered" true (r.Replica.recovery_ticks <> None);
  Alcotest.(check bool) "backup finished the job" true
    (r.Replica.committed_backup > 0);
  assert_invariants r;
  assert_serializable sc initial r

let test_mid_checkpoint_crash () =
  let (sc, initial, r) =
    run_replica ~config:(crash_config (Replica.Mid_checkpoint 1)) 7
  in
  Alcotest.(check bool) "crashed" true r.Replica.crashed;
  (* the checkpoint died in the primary's NIC buffers *)
  Alcotest.(check bool) "a shipped checkpoint was lost" true
    (r.Replica.checkpoints_installed < r.Replica.checkpoints_sent);
  assert_invariants r;
  assert_serializable sc initial r

let test_mid_replay_degradation () =
  (* No checkpoints, so promotion must replay the whole log at one record
     per tick — long enough a window that live read-only queries are
     served stale in the meantime. *)
  let config =
    { Replica.default_config with
      Replica.checkpoint_every = 0;
      crash = Replica.Mid_replay 10 }
  in
  let (sc, initial, r) = run_replica ~config 2 in
  Alcotest.(check bool) "crashed" true r.Replica.crashed;
  Alcotest.(check bool) "replay actually happened" true
    (r.Replica.replayed > 0);
  Alcotest.(check bool) "stale reads served during failover" true
    (r.Replica.stale_served > 0);
  assert_invariants r;
  assert_serializable sc initial r

let test_exactly_once_under_heavy_loss () =
  (* Drop 1/3 under a crash: retries cross the failover boundary and the
     replicated dedup table must absorb them. *)
  let config =
    { Replica.default_config with
      Replica.drop_one_in = 3;
      crash = Replica.Mid_stream 8 }
  in
  let (sc, initial, r) = run_replica ~config 11 in
  Alcotest.(check bool) "crashed" true r.Replica.crashed;
  Alcotest.(check bool) "clients retried" true (r.Replica.client_retries > 0);
  assert_invariants r;
  assert_serializable sc initial r

let test_deterministic () =
  let (_, _, a) = run_replica ~config:(crash_config (Replica.Mid_stream 5)) 9 in
  let (_, _, b) = run_replica ~config:(crash_config (Replica.Mid_stream 5)) 9 in
  Alcotest.(check int) "same tick count" a.Replica.ticks b.Replica.ticks;
  Alcotest.(check int) "same transmissions"
    a.Replica.net.Fdb_net.Reliable.transmissions
    b.Replica.net.Fdb_net.Reliable.transmissions;
  Alcotest.(check bool) "same final db" true
    (Oracle.db_equal a.Replica.final b.Replica.final);
  Alcotest.(check bool) "same responses" true
    (a.Replica.responses = b.Replica.responses)

(* -- the Sim crash path ------------------------------------------------------ *)

let test_sim_crash_path () =
  (* Seeds 0, 1, 2 cover mid-stream, mid-checkpoint and mid-replay. *)
  List.iter
    (fun seed ->
      let sc = scenario seed in
      let faults = { Sim.default_faults with Sim.crash = true } in
      let o = Sim.run ~faults ~seed sc in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d serializable" seed)
        true
        (Oracle.accepted o.Sim.verdict);
      match o.Sim.recovery with
      | None -> Alcotest.fail "crash path must produce a recovery report"
      | Some r ->
          Alcotest.(check bool)
            (Printf.sprintf "seed %d crash fired" seed)
            true r.Replica.crashed)
    [ 0; 1; 2 ]

let () =
  Alcotest.run "replica"
    [
      ( "snapshot",
        [
          Alcotest.test_case "roundtrip" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "delta exploits sharing" `Quick
            test_snapshot_delta_exploits_sharing;
          Alcotest.test_case "decoded versions share pages" `Quick
            test_snapshot_decoded_pages_shared;
          Alcotest.test_case "1000-version probe under 200 KB" `Quick
            test_snapshot_probe_size;
          Alcotest.test_case "rejects corruption" `Quick
            test_snapshot_rejects_corruption;
          Alcotest.test_case "trailing-garbage offset" `Quick
            test_snapshot_trailing_offset;
        ] );
      ( "failover",
        [
          Alcotest.test_case "no crash" `Quick test_no_crash;
          Alcotest.test_case "mid-stream crash" `Quick test_mid_stream_crash;
          Alcotest.test_case "mid-checkpoint crash" `Quick
            test_mid_checkpoint_crash;
          Alcotest.test_case "mid-replay degradation" `Quick
            test_mid_replay_degradation;
          Alcotest.test_case "exactly once under loss" `Quick
            test_exactly_once_under_heavy_loss;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
        ] );
      ("sim", [ Alcotest.test_case "crash fault kind" `Quick test_sim_crash_path ]);
    ]
