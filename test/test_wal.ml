(* The durable version log (lib/wal): writer/recovery round trips, the
   group-fsync loss bound, checkpoint compaction, the durability trace
   oracle, the truncation-fuzz property (every byte-prefix of a log
   recovers a version-prefix or is rejected — never a wrong history), the
   crash-restart differential sweep, and the Pipeline durability sink. *)

open Fdb_relational
module Wal = Fdb_wal.Wal
module Wire = Fdb_wire.Wire
module History = Fdb_txn.History
module Txn = Fdb_txn.Txn
module Sim = Fdb_check.Sim
module Gen = Fdb_check.Gen
module Oracle = Fdb_check.Oracle
module Trace_oracle = Fdb_check.Trace_oracle
module Merge = Fdb_merge.Merge
module Event = Fdb_obs.Event
module Trace = Fdb_obs.Trace
module Pipeline = Fdb.Pipeline
module Pool = Fdb_par.Pool

let q = Fdb_query.Parser.parse_exn

(* A seeded chain of committed versions (oldest first, element 0 = the
   initial database): a generated scenario's streams, seed-merged and run
   through the sequential reference engine, keeping changed versions. *)
let chain_with ~queries_per_client ~seed =
  let sc = Gen.generate { Gen.default_spec with seed; queries_per_client } in
  let db0 = Gen.initial_db sc in
  let merged = Merge.merge (Merge.Seeded seed) sc.Gen.streams in
  let versions = ref [ db0 ] in
  let db = ref db0 in
  List.iter
    (fun (m : _ Merge.tagged) ->
      let (_r, db') = Txn.translate m.Merge.item !db in
      if not (db' == !db) then begin
        db := db';
        versions := db' :: !versions
      end)
    merged;
  Array.of_list (List.rev !versions)

let chain ~seed = chain_with ~queries_per_client:24 ~seed

let write_chain ?sync_every ?checkpoint_every store vs =
  let w = Wal.create ?sync_every ?checkpoint_every ~store vs.(0) in
  for i = 1 to Array.length vs - 1 do
    Wal.append w vs.(i)
  done;
  w

let check_recovered msg (r : Wal.recovery) vs =
  for i = r.Wal.base to r.Wal.upto do
    Alcotest.(check bool)
      (Printf.sprintf "%s: version %d" msg i)
      true
      (Oracle.db_equal (History.version r.Wal.rhistory (i - r.Wal.base)) vs.(i))
  done

let tup_kv k s = Tuple.make [ Value.Int k; Value.Str s ]

let is_clean (r : Wal.recovery) =
  match r.Wal.stop with Wal.Clean -> true | Wal.Stopped _ -> false

(* -- writer / recovery ------------------------------------------------------ *)

let test_roundtrip () =
  let vs = chain ~seed:1 in
  let mem = Wal.Mem.create () in
  let store = Wal.Mem.store mem in
  let w = write_chain store vs in
  Wal.sync w;
  Alcotest.(check int) "appended" (Array.length vs - 1) (Wal.appended w);
  Alcotest.(check int) "durable" (Wal.appended w) (Wal.durable w);
  let r = Wal.recover store in
  Alcotest.(check bool) "clean" true (is_clean r);
  Alcotest.(check int) "base" 0 r.Wal.base;
  Alcotest.(check int) "upto" (Wal.appended w) r.Wal.upto;
  check_recovered "roundtrip" r vs

let test_group_sync_loss_bound () =
  let vs = chain ~seed:2 in
  let mem = Wal.Mem.create () in
  let store = Wal.Mem.store mem in
  let w = write_chain ~sync_every:4 store vs in
  let appended = Wal.appended w and durable = Wal.durable w in
  Alcotest.(check bool) "loss bound" true
    (durable <= appended && appended - durable < 4);
  Wal.Mem.crash ~rand:(Random.State.make [| 42 |]) mem;
  let r = Wal.recover store in
  Alcotest.(check bool) "durable <= upto" true (durable <= r.Wal.upto);
  Alcotest.(check bool) "upto <= appended" true (r.Wal.upto <= appended);
  check_recovered "after crash" r vs

let test_sync_every_zero_is_explicit_only () =
  let vs = chain ~seed:3 in
  let mem = Wal.Mem.create () in
  let store = Wal.Mem.store mem in
  let w = write_chain ~sync_every:0 store vs in
  (* only the genesis checkpoint was synced *)
  Alcotest.(check int) "durable" 0 (Wal.durable w);
  Wal.sync w;
  Alcotest.(check int) "after sync" (Wal.appended w) (Wal.durable w)

let test_resume () =
  let vs = chain ~seed:5 in
  let n = Array.length vs in
  let half = n / 2 in
  let mem = Wal.Mem.create () in
  let store = Wal.Mem.store mem in
  let w = Wal.create ~sync_every:2 ~store vs.(0) in
  for i = 1 to half - 1 do
    Wal.append w vs.(i)
  done;
  Wal.sync w;
  Wal.Mem.crash ~rand:(Random.State.make [| 7 |]) mem;
  let r = Wal.recover store in
  Alcotest.(check int) "nothing lost" (half - 1) r.Wal.upto;
  let w2 = Wal.resume ~sync_every:2 ~store r in
  Alcotest.(check bool) "fresh segment" true (Wal.segment w2 > 0);
  for i = half to n - 1 do
    Wal.append w2 vs.(i)
  done;
  Wal.sync w2;
  let r2 = Wal.recover store in
  Alcotest.(check int) "full chain" (n - 1) r2.Wal.upto;
  check_recovered "resumed" r2 vs

let test_create_validates () =
  let store = Wal.Mem.store (Wal.Mem.create ()) in
  let db = Database.create [] in
  List.iter
    (fun f ->
      match f () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "bad parameter accepted")
    [ (fun () -> ignore (Wal.create ~sync_every:(-1) ~store db));
      (fun () -> ignore (Wal.create ~checkpoint_every:(-2) ~store db)) ]

(* The real-file store: write a chain through [Wal.Fs.store], close it,
   and recover from a cold store on the same directory — with full-log
   replay and with checkpoints bounding the replayed suffix (the chain is
   long enough for [checkpoint_every:64] to compact). *)
let test_fs_cold_recovery () =
  let vs = chain_with ~queries_per_client:120 ~seed:21 in
  List.iter
    (fun checkpoint_every ->
      let dir = Filename.temp_dir "fdb-wal-test" "" in
      let msg = Printf.sprintf "checkpoint_every %d" checkpoint_every in
      Fun.protect
        ~finally:(fun () ->
          Array.iter
            (fun f -> Sys.remove (Filename.concat dir f))
            (Sys.readdir dir);
          Sys.rmdir dir)
        (fun () ->
          let store = Wal.Fs.store ~dir in
          let w = write_chain ~sync_every:8 ~checkpoint_every store vs in
          Wal.sync w;
          store.Wal.Store.close ();
          let cold = Wal.Fs.store ~dir in
          let r = Wal.recover cold in
          cold.Wal.Store.close ();
          Alcotest.(check int) (msg ^ ": upto = appended") (Wal.appended w)
            r.Wal.upto;
          Alcotest.(check bool) (msg ^ ": latest = last appended") true
            (Oracle.db_equal (History.latest r.Wal.rhistory)
               vs.(Array.length vs - 1));
          Alcotest.(check bool) (msg ^ ": replay base") true
            (if checkpoint_every = 0 then r.Wal.base = 0 else r.Wal.base > 0)))
    [ 0; 64 ]

(* A segment written by the format-1 codec, whose delta frames carried
   whole relation bodies: a checkpoint of R = {(1, "a")}, then version 1
   adding (2, "b") and version 2 deleting key 1, byte for byte as that
   writer laid them out. *)
let format1_segment =
  "+\000\000\000\001C\134A\166\2340;FDBSNAP11;1;1;R2;3;keyi3;valsL1;2;I1;S1;a\026\000\000\000\001D\147\t,\2361;1;0;2;2;I1;S1;a2;I2;S1;b\017\000\000\000\001D\216\129\176k2;1;0;1;2;I2;S1;b"

(* Offsets of the frames of [format1_segment], each checked to be
   checksum-valid under its own version byte: a genuine old log, not
   damage. *)
let format1_frames =
  let le32 pos = Int32.to_int (String.get_int32_le format1_segment pos) in
  let rec go pos acc =
    if pos >= String.length format1_segment then List.rev acc
    else
      let len = le32 pos in
      Alcotest.(check int) "format 1 version byte" 1
        (Char.code format1_segment.[pos + 4]);
      Alcotest.(check int32) "format 1 crc"
        (String.get_int32_le format1_segment (pos + 6))
        (Wire.crc32c
           (String.sub format1_segment (pos + 4) 2
           ^ String.sub format1_segment (pos + 10) len));
      go (pos + 10 + len) (pos :: acc)
  in
  fun () -> go 0 []

let test_old_format_rejected () =
  Alcotest.(check int) "three frames" 3 (List.length (format1_frames ()));
  let mem = Wal.Mem.create () in
  Wal.Mem.set mem (Wal.segment_name 0) format1_segment;
  match Wal.recover (Wal.Mem.store mem) with
  | exception Wire.Corrupt _ -> ()
  | r ->
      Alcotest.failf "a format-1 log recovered versions %d..%d" r.Wal.base
        r.Wal.upto

(* Format-1 delta frames behind a current checkpoint are a stop, never
   replayed as key-level changes. *)
let test_old_format_tail_stops () =
  let deltas_at = List.nth (format1_frames ()) 1 in
  let db0 =
    let schema =
      Schema.make ~name:"R" ~cols:[ ("key", Schema.CInt); ("val", Schema.CStr) ]
    in
    match
      Database.load (Database.create [ schema ]) ~rel:"R"
        [ Tuple.make [ Value.Int 1; Value.Str "a" ] ]
    with
    | Ok db -> db
    | Error e -> Alcotest.fail e
  in
  let mem = Wal.Mem.create () in
  let store = Wal.Mem.store mem in
  ignore (Wal.create ~store db0);
  store.Wal.Store.append (Wal.segment_name 0)
    (String.sub format1_segment deltas_at
       (String.length format1_segment - deltas_at));
  let r = Wal.recover store in
  Alcotest.(check int) "nothing replayed" 0 r.Wal.upto;
  Alcotest.(check bool) "checkpoint state" true
    (Oracle.db_equal db0 (History.latest r.Wal.rhistory));
  match r.Wal.stop with
  | Wal.Stopped { reason; _ } ->
      Alcotest.(check string) "reason" "unknown format version 1" reason
  | Wal.Clean -> Alcotest.fail "format-1 frames read as a clean end"

(* -- checkpoint compaction -------------------------------------------------- *)

(* Recovery from checkpoint + suffix equals recovery from the full log on
   the overlapping version range, and compaction actually deletes the old
   segments (only the current one remains). *)
let test_compaction_equality () =
  let vs = chain ~seed:11 in
  let mem_c = Wal.Mem.create () in
  let store_c = Wal.Mem.store mem_c in
  let wc = write_chain ~checkpoint_every:4 store_c vs in
  Wal.sync wc;
  let mem_f = Wal.Mem.create () in
  let store_f = Wal.Mem.store mem_f in
  let wf = write_chain store_f vs in
  Wal.sync wf;
  let rc = Wal.recover store_c and rf = Wal.recover store_f in
  Alcotest.(check int) "same upto" rf.Wal.upto rc.Wal.upto;
  Alcotest.(check int) "full log from v0" 0 rf.Wal.base;
  Alcotest.(check bool) "compacted past v0" true (rc.Wal.base > 0);
  for i = rc.Wal.base to rc.Wal.upto do
    Alcotest.(check bool)
      (Printf.sprintf "overlap version %d" i)
      true
      (Oracle.db_equal
         (History.version rc.Wal.rhistory (i - rc.Wal.base))
         (History.version rf.Wal.rhistory i))
  done;
  Alcotest.(check bool) "latest equal" true
    (Oracle.db_equal
       (History.latest rc.Wal.rhistory)
       (History.latest rf.Wal.rhistory));
  (* old segments are gone; the survivor is the newest one *)
  (match store_c.Wal.Store.list_files () with
  | [ f ] ->
      Alcotest.(check bool) "newest segment" true
        (Wal.segment_number f = Some (Wal.segment wc))
  | files ->
      Alcotest.fail
        (Printf.sprintf "%d segment files after compaction" (List.length files)));
  check_recovered "compacted" rc vs

(* A checkpoint's deletions must survive a crash right after the
   checkpoint returns: the new segment's checkpoint frame was synced
   before anything was deleted. *)
let test_compaction_then_crash () =
  let vs = chain ~seed:12 in
  let mem = Wal.Mem.create () in
  let store = Wal.Mem.store mem in
  let w = write_chain ~sync_every:0 ~checkpoint_every:3 store vs in
  let durable = Wal.durable w in
  Wal.Mem.crash ~rand:(Random.State.make [| 13 |]) mem;
  let r = Wal.recover store in
  Alcotest.(check bool) "checkpointed versions survive" true
    (r.Wal.upto >= durable);
  check_recovered "post-checkpoint crash" r vs

(* -- multi-chunk checkpoints ------------------------------------------------- *)

(* One B-tree relation of 8000 tuples: a checkpoint frame of about
   230 KB, which reaches the store as a header and four chunks. *)
let big_db () =
  let schema =
    Schema.make ~name:"R" ~cols:[ ("key", Schema.CInt); ("val", Schema.CStr) ]
  in
  match
    Database.of_tuples ~backend:(Relation.Btree_backend 8) [ schema ]
      [ ( "R",
          List.init 8000 (fun k ->
              Tuple.make
                [ Value.Int (2 * k); Value.Str (Printf.sprintf "value-%08d" k) ])
        ) ]
  with
  | Ok db -> db
  | Error e -> Alcotest.fail e

(* [big_db] and three one-tuple commits on it. *)
let big_chain () =
  let db0 = big_db () in
  let put db k =
    match
      Database.insert db ~rel:"R"
        (Tuple.make [ Value.Int k; Value.Str "new" ])
    with
    | Ok (db', true) -> db'
    | _ -> Alcotest.fail "insert"
  in
  let db1 = put db0 1 in
  let db2 = put db1 3 in
  [| db0; db1; db2; put db2 5 |]

exception Crash

(* A store over [mem] that dies once [!limit] bytes have gone into file
   [!target]: the append in progress lands only up to the limit. *)
let crashing_store mem ~target ~limit =
  let inner = Wal.Mem.store mem in
  let written = ref 0 in
  {
    inner with
    Wal.Store.append =
      (fun name bytes ->
        if name <> !target then inner.Wal.Store.append name bytes
        else begin
          let room = !limit - !written in
          if String.length bytes <= room then begin
            inner.Wal.Store.append name bytes;
            written := !written + String.length bytes
          end
          else begin
            inner.Wal.Store.append name (String.sub bytes 0 room);
            raise Crash
          end
        end);
  }

(* [vs] logged so that the next checkpoint is a base, so a multi-chunk
   frame: [Wal.base_every - 1] differentials over version 0, then the
   appends. *)
let write_chain_to_base store vs =
  let w = Wal.create ~store vs.(0) in
  for _ = 1 to Wal.base_every - 1 do
    Wal.checkpoint w
  done;
  for i = 1 to Array.length vs - 1 do
    Wal.append w vs.(i)
  done;
  w

(* A crash while the next segment's base frame is being written —
   inside its header, on each chunk boundary and a byte either side —
   leaves the previous segment to recover from: every synced version comes
   back, and the trace obeys the durability law. *)
let test_torn_multichunk_checkpoint () =
  let vs = big_chain () in
  let frame_len =
    let mem = Wal.Mem.create () in
    let w = write_chain_to_base (Wal.Mem.store mem) vs in
    Wal.checkpoint w;
    String.length (Wal.Mem.get mem (Wal.segment_name (Wal.segment w)))
  in
  let boundaries =
    List.filter
      (fun p -> p < frame_len)
      (List.init (frame_len / Wire.chunk_size) (fun k ->
           Wire.frame_overhead + ((k + 1) * Wire.chunk_size)))
  in
  Alcotest.(check bool) "several chunk boundaries" true
    (List.length boundaries >= 3);
  let cuts =
    List.init Wire.frame_overhead Fun.id
    @ List.concat_map (fun p -> [ p - 1; p; p + 1 ]) boundaries
  in
  List.iter
    (fun cut ->
      let msg = Printf.sprintf "cut at byte %d" cut in
      let mem = Wal.Mem.create () in
      let target = ref "" and limit = ref 0 in
      let store = crashing_store mem ~target ~limit in
      let ((), trace) =
        Trace.record (fun () ->
            let w = write_chain_to_base store vs in
            Wal.sync w;
            target := Wal.segment_name (Wal.segment w + 1);
            limit := cut;
            (match Wal.checkpoint w with
            | exception Crash -> ()
            | () -> Alcotest.fail (msg ^ ": no crash"));
            Alcotest.(check int) (msg ^ ": torn segment holds the cut") cut
              (String.length (Wal.Mem.get mem !target));
            let r = Wal.recover store in
            Alcotest.(check int) (msg ^ ": previous segment") 0 r.Wal.base;
            Alcotest.(check int) (msg ^ ": every synced version")
              (Array.length vs - 1) r.Wal.upto;
            check_recovered msg r vs)
      in
      Alcotest.(check (list string)) (msg ^ ": durability law") []
        (List.map
           (fun v -> v.Trace_oracle.detail)
           (Trace_oracle.durability trace)))
    cuts


(* -- differential checkpoints ------------------------------------------------- *)

let kv_schema =
  Schema.make ~name:"R" ~cols:[ ("key", Schema.CInt); ("val", Schema.CStr) ]

(* R holding [n] tuples with even keys, then [k] versions, the [i]th
   inserting odd key [2i - 1]: element 0 is the initial database. *)
let kv_chain ~n ~k =
  let db0 =
    match
      Database.of_tuples ~backend:(Relation.Btree_backend 8) [ kv_schema ]
        [ ("R", List.init n (fun j -> tup_kv (2 * j) "v")) ]
    with
    | Ok db -> db
    | Error e -> Alcotest.fail e
  in
  let vs = Array.make (k + 1) db0 in
  for i = 1 to k do
    match Database.insert vs.(i - 1) ~rel:"R" (tup_kv ((2 * i) - 1) "new") with
    | Ok (db, true) -> vs.(i) <- db
    | _ -> Alcotest.fail "insert"
  done;
  vs

let head_kind mem n = Wire.header_kind (Wal.Mem.get mem (Wal.segment_name n))

let segments store =
  List.filter_map Wal.segment_number (store.Wal.Store.list_files ())

(* Append [vs.(lo..hi)] to [w]. *)
let append_range w vs lo hi =
  for i = lo to hi do
    Wal.append w vs.(i)
  done

(* A torn differential falls back to the previous checkpoint — itself a
   differential on the genesis base — and the deltas after it: every
   synced version comes back, and the trace obeys the durability law. *)
let test_torn_differential () =
  let vs = kv_chain ~n:200 ~k:6 in
  (* base v0 in seg 0, a differential over v3 in seg 1, then v4..v6 *)
  let setup store =
    let w = Wal.create ~store vs.(0) in
    append_range w vs 1 3;
    Wal.checkpoint w;
    append_range w vs 4 6;
    Wal.sync w;
    w
  in
  let frame_len =
    let mem = Wal.Mem.create () in
    let w = setup (Wal.Mem.store mem) in
    Alcotest.(check bool) "seg 1 is a differential" true
      (head_kind mem 1 = Some Wire.Differential);
    Wal.checkpoint w;
    Alcotest.(check bool) "seg 2 is a differential" true
      (head_kind mem 2 = Some Wire.Differential);
    Alcotest.(check (list int)) "the base and the newest differential kept"
      [ 0; 2 ] (segments (Wal.Mem.store mem));
    String.length (Wal.Mem.get mem (Wal.segment_name 2))
  in
  List.iter
    (fun cut ->
      let msg = Printf.sprintf "cut at byte %d of %d" cut frame_len in
      let mem = Wal.Mem.create () in
      let target = ref "" and limit = ref 0 in
      let store = crashing_store mem ~target ~limit in
      let ((), trace) =
        Trace.record (fun () ->
            let w = setup store in
            target := Wal.segment_name 2;
            limit := cut;
            (match Wal.checkpoint w with
            | exception Crash -> ()
            | () -> Alcotest.fail (msg ^ ": no crash"));
            let r = Wal.recover store in
            Alcotest.(check int) (msg ^ ": previous differential") 3 r.Wal.base;
            Alcotest.(check int) (msg ^ ": every synced version") 6 r.Wal.upto;
            Alcotest.(check bool) (msg ^ ": clean") true (is_clean r);
            check_recovered msg r vs)
      in
      Alcotest.(check (list string)) (msg ^ ": durability law") []
        (List.map
           (fun v -> v.Trace_oracle.detail)
           (Trace_oracle.durability trace)))
    [ 0; Wire.frame_overhead - 1; Wire.frame_overhead; frame_len / 2;
      frame_len - 1 ]

(* A differential whose base segment is gone is passed over: with no
   other checkpoint the log is rejected; with an older differential and
   its base still present, recovery falls back to them. *)
let test_missing_base () =
  let vs = kv_chain ~n:200 ~k:(Wal.base_every + 2) in
  let mem = Wal.Mem.create () in
  let store = Wal.Mem.store mem in
  let w = Wal.create ~store vs.(0) in
  append_range w vs 1 1;
  Wal.checkpoint w;
  Wal.sync w;
  let genesis = Wal.Mem.get mem (Wal.segment_name 0) in
  store.Wal.Store.remove (Wal.segment_name 0);
  (match Wal.recover store with
  | exception Wire.Corrupt _ -> ()
  | r -> Alcotest.failf "recovered %d..%d without a base" r.Wal.base r.Wal.upto);
  Wal.Mem.set mem (Wal.segment_name 0) genesis;
  (* checkpoints 2..15 are differentials over v0, the 16th a base *)
  for i = 2 to Wal.base_every - 1 do
    append_range w vs i i;
    Wal.checkpoint w
  done;
  append_range w vs Wal.base_every Wal.base_every;
  let last_diff = Wal.segment w in
  let saved = Wal.Mem.get mem (Wal.segment_name last_diff) in
  Wal.checkpoint w;
  Alcotest.(check bool) "a base" true
    (head_kind mem (Wal.segment w) = Some Wire.Checkpoint);
  let new_base = Wal.segment w in
  append_range w vs (Wal.base_every + 1) (Wal.base_every + 1);
  Wal.checkpoint w;
  Wal.sync w;
  (* the older generation comes back; the newer base goes *)
  Wal.Mem.set mem (Wal.segment_name 0) genesis;
  Wal.Mem.set mem (Wal.segment_name last_diff) saved;
  store.Wal.Store.remove (Wal.segment_name new_base);
  let r = Wal.recover store in
  Alcotest.(check int) "the older differential" (Wal.base_every - 1) r.Wal.base;
  Alcotest.(check int) "and its delta" Wal.base_every r.Wal.upto;
  check_recovered "older generation" r vs

(* Checkpoints 1..15 are differentials on the genesis base, which stays
   while they need it; the 16th is a base, and once it is down every
   older segment goes. *)
let test_base_every () =
  let vs = kv_chain ~n:200 ~k:Wal.base_every in
  let mem = Wal.Mem.create () in
  let store = Wal.Mem.store mem in
  let w = Wal.create ~store vs.(0) in
  for i = 1 to Wal.base_every - 1 do
    append_range w vs i i;
    Wal.checkpoint w;
    Alcotest.(check bool)
      (Printf.sprintf "checkpoint %d a differential" i)
      true
      (head_kind mem i = Some Wire.Differential);
    Alcotest.(check (list int))
      (Printf.sprintf "checkpoint %d: base and newest kept" i)
      [ 0; i ] (segments store);
    Alcotest.(check bool) "base held" true (Wal.base w == vs.(0))
  done;
  append_range w vs Wal.base_every Wal.base_every;
  Wal.checkpoint w;
  Alcotest.(check bool) "checkpoint 16 a base" true
    (head_kind mem Wal.base_every = Some Wire.Checkpoint);
  Alcotest.(check (list int)) "old base deleted" [ Wal.base_every ]
    (segments store);
  Alcotest.(check bool) "new base held" true (Wal.base w == Wal.latest w);
  let r = Wal.recover store in
  Alcotest.(check int) "base" Wal.base_every r.Wal.base;
  check_recovered "after the new base" r vs

(* A differential larger than a quarter of its base's frame is written as
   a base instead: 60 tuples into an empty relation, then one tuple on
   the 60. *)
let test_size_rule () =
  let db0 = Database.create ~backend:(Relation.Btree_backend 8) [ kv_schema ] in
  let put db k =
    match Database.insert db ~rel:"R" (tup_kv k "some value") with
    | Ok (db', true) -> db'
    | _ -> Alcotest.fail "insert"
  in
  let db60 = List.fold_left put db0 (List.init 60 Fun.id) in
  let mem = Wal.Mem.create () in
  let store = Wal.Mem.store mem in
  let w = Wal.create ~store db0 in
  Wal.append w db60;
  Wal.checkpoint w;
  Alcotest.(check bool) "outgrown differential: a base" true
    (head_kind mem 1 = Some Wire.Checkpoint);
  Alcotest.(check (list int)) "genesis deleted" [ 1 ] (segments store);
  Wal.append w (put db60 100);
  Wal.checkpoint w;
  Alcotest.(check bool) "small differential" true
    (head_kind mem 2 = Some Wire.Differential);
  let r = Wal.recover store in
  Alcotest.(check int) "upto" 2 r.Wal.upto;
  Alcotest.(check bool) "state" true
    (Oracle.db_equal (put db60 100) (History.latest r.Wal.rhistory))

(* A log recovered through a differential resumes on a fresh base, and
   the resumed log recovers the whole continued chain. *)
let test_resume_after_differential () =
  let vs = kv_chain ~n:200 ~k:10 in
  let mem = Wal.Mem.create () in
  let store = Wal.Mem.store mem in
  let w = Wal.create ~sync_every:2 ~store vs.(0) in
  append_range w vs 1 3;
  Wal.checkpoint w;
  append_range w vs 4 5;
  Wal.sync w;
  Wal.Mem.crash ~rand:(Random.State.make [| 3 |]) mem;
  let r = Wal.recover store in
  Alcotest.(check int) "from the differential" 3 r.Wal.base;
  Alcotest.(check int) "nothing lost" 5 r.Wal.upto;
  let w2 = Wal.resume ~sync_every:2 ~store r in
  Alcotest.(check bool) "a fresh base" true
    (head_kind mem (Wal.segment w2) = Some Wire.Checkpoint);
  Alcotest.(check (list int)) "older segments gone" [ Wal.segment w2 ]
    (segments store);
  append_range w2 vs 6 8;
  Wal.checkpoint w2;
  append_range w2 vs 9 10;
  Wal.sync w2;
  let r2 = Wal.recover store in
  Alcotest.(check int) "differential on the resumed base" 8 r2.Wal.base;
  Alcotest.(check int) "whole chain" 10 r2.Wal.upto;
  check_recovered "resumed" r2 vs

(* Every frame of [log] re-stamped with format version [v]: a log as a
   writer of that version laid it out when only the version byte (and
   the checksum over it) differ, as between formats 2 and 3 for base and
   delta frames. *)
let restamp v log =
  let b = Bytes.of_string log in
  let rec go pos =
    if pos < Bytes.length b then begin
      let len = Int32.to_int (Bytes.get_int32_le b pos) in
      Bytes.set b (pos + 4) v;
      Bytes.set_int32_le b (pos + 6)
        (Wire.crc32c (Bytes.sub_string b (pos + 4) 2
                      ^ Bytes.sub_string b (pos + 10) len));
      go (pos + 10 + len)
    end
  in
  go 0;
  Bytes.to_string b

(* A format-2 log — which could hold no differential, so a format-2
   reader would misread a format-3 log — is rejected whole. *)
let test_format2_rejected () =
  let vs = kv_chain ~n:20 ~k:3 in
  let mem = Wal.Mem.create () in
  let w = write_chain (Wal.Mem.store mem) vs in
  Wal.sync w;
  let log = Wal.Mem.get mem (Wal.segment_name 0) in
  let old = Wal.Mem.create () in
  Wal.Mem.set old (Wal.segment_name 0) (restamp '\002' log);
  Alcotest.(check string) "restamped to 3 is the log" log (restamp '\003' log);
  match Wal.recover (Wal.Mem.store old) with
  | exception Wire.Corrupt _ -> ()
  | r ->
      Alcotest.failf "a format-2 log recovered versions %d..%d" r.Wal.base
        r.Wal.upto

let ev kind = { Event.ts = 0; site = 0; kind }

let check_violates name events =
  match Trace_oracle.durability events with
  | [] -> Alcotest.fail (name ^ ": violation not detected")
  | v :: _ ->
      Alcotest.(check string) (name ^ ": invariant") "durability"
        v.Trace_oracle.invariant

let test_durability_oracle_rejects () =
  (* committed-but-lost: recovery falls short of the durable mark *)
  check_violates "lost commit"
    [ ev (Event.Wal_append { index = 1; bytes = 10 });
      ev (Event.Wal_append { index = 2; bytes = 10 });
      ev (Event.Wal_sync { upto = 2 });
      ev (Event.Wal_recovered { upto = 1; base = 0; reason = "torn" }) ];
  (* recovery inventing versions past the last append *)
  check_violates "invented version"
    [ ev (Event.Wal_append { index = 1; bytes = 10 });
      ev (Event.Wal_recovered { upto = 5; base = 0; reason = "clean" }) ];
  (* the doctored compaction ordering: deleting the old segment when the
     newest synced checkpoint still lives in it *)
  check_violates "early segment delete"
    [ ev (Event.Wal_checkpoint { upto = 0; bytes = 10; segment = 0 });
      ev (Event.Wal_segment_delete { segment = 0 }) ];
  check_violates "delete before any checkpoint"
    [ ev (Event.Wal_segment_delete { segment = 0 }) ];
  (* appends must advance one version at a time *)
  check_violates "append gap"
    [ ev (Event.Wal_append { index = 1; bytes = 10 });
      ev (Event.Wal_append { index = 3; bytes = 10 }) ];
  (* sync cannot promise more than was appended *)
  check_violates "over-promising sync"
    [ ev (Event.Wal_append { index = 1; bytes = 10 });
      ev (Event.Wal_sync { upto = 2 }) ]

let test_durability_oracle_accepts () =
  Alcotest.(check (list string)) "lawful synthetic" []
    (List.map
       (fun v -> v.Trace_oracle.detail)
       (Trace_oracle.durability
          [ ev (Event.Wal_checkpoint { upto = 0; bytes = 10; segment = 0 });
            ev (Event.Wal_append { index = 1; bytes = 10 });
            ev (Event.Wal_sync { upto = 1 });
            ev (Event.Wal_checkpoint { upto = 1; bytes = 12; segment = 1 });
            ev (Event.Wal_segment_delete { segment = 0 });
            ev (Event.Wal_append { index = 2; bytes = 10 });
            ev (Event.Wal_recovered { upto = 1; base = 1; reason = "torn" });
            (* the restarted writer continues from the recovered tail *)
            ev (Event.Wal_append { index = 2; bytes = 10 }) ]))

(* A real writer + recovery, recorded live, is lawful under every oracle
   law — and actually emits the durability events. *)
let test_live_trace_lawful () =
  let vs = chain ~seed:6 in
  let ((), trace) =
    Trace.record (fun () ->
        let mem = Wal.Mem.create () in
        let store = Wal.Mem.store mem in
        let w = write_chain ~sync_every:2 ~checkpoint_every:4 store vs in
        Wal.sync w;
        ignore (Wal.recover store))
  in
  let has k = List.exists (fun (e : Event.t) -> Event.name e.Event.kind = k) in
  List.iter
    (fun k -> Alcotest.(check bool) ("emits " ^ k) true (has k trace))
    [ "wal_append"; "wal_sync"; "wal_checkpoint"; "wal_segment_delete";
      "wal_replay"; "wal_recovered" ];
  Alcotest.(check (list string)) "lawful" []
    (List.map (fun v -> v.Trace_oracle.detail) (Trace_oracle.check trace))

(* -- the truncation-fuzz property (satellite) -------------------------------

   For a random history, every strict byte-prefix of the encoded log
   either recovers a strict version-prefix (judged against the versions
   the reference engine committed) or raises [Wire.Corrupt] — never a
   wrong or reordered history. *)

let prop_prefix_recovers_prefix =
  QCheck2.Test.make ~name:"byte-prefix recovers version-prefix" ~count:200
    QCheck2.Gen.(int_range 0 9999)
    (fun seed ->
      let rand = Random.State.make [| seed; 0xF52 |] in
      let vs = chain ~seed:(seed mod 37) in
      let checkpoint_every = if seed mod 2 = 0 then 0 else 3 in
      let mem = Wal.Mem.create () in
      let store = Wal.Mem.store mem in
      let w = write_chain ~checkpoint_every store vs in
      Wal.sync w;
      (* truncate the newest segment at a random strict prefix *)
      let name = Wal.segment_name (Wal.segment w) in
      let bytes = Wal.Mem.get mem name in
      let cut = Random.State.int rand (String.length bytes) in
      Wal.Mem.set mem name (String.sub bytes 0 cut);
      match Wal.recover store with
      | exception Wire.Corrupt _ ->
          (* a typed rejection is always acceptable: the cut fell inside
             fsync'd checkpoint bytes — real corruption, not a torn
             write — leaving no intact checkpoint to recover from *)
          true
      | r ->
          r.Wal.upto <= Wal.appended w
          && r.Wal.base <= r.Wal.upto
          && (let ok = ref true in
              for i = r.Wal.base to r.Wal.upto do
                if
                  not
                    (Oracle.db_equal
                       (History.version r.Wal.rhistory (i - r.Wal.base))
                       vs.(i))
                then ok := false
              done;
              !ok))

(* -- the crash-restart differential sweep ----------------------------------- *)

let test_run_disk_sweep () =
  let sc = Gen.generate { Gen.default_spec with seed = 9 } in
  List.iter
    (fun fault ->
      List.iter
        (fun checkpoint_every ->
          for seed = 0 to 3 do
            let o = Sim.run_disk ~checkpoint_every ~fault ~seed sc in
            Alcotest.(check bool)
              (Printf.sprintf "%s/ck%d/seed%d recovered >= durable"
                 (Sim.disk_fault_name fault) checkpoint_every seed)
              true
              (o.Sim.disk_recovered >= o.Sim.disk_durable);
            Alcotest.(check bool) "the kill happened" true o.Sim.disk_fired;
            Alcotest.(check bool) "recoveries metered" true
              (match
                 List.assoc_opt "wal.recoveries"
                   o.Sim.disk_metrics.Fdb_obs.Metrics.counters
               with
              | Some n -> n >= 2
              | None -> false)
          done)
        [ 0; 3 ])
    Sim.all_disk_faults

let test_disk_fault_names_roundtrip () =
  List.iter
    (fun f ->
      Alcotest.(check bool) (Sim.disk_fault_name f) true
        (Sim.disk_fault_of_name (Sim.disk_fault_name f) = Some f))
    Sim.all_disk_faults;
  Alcotest.(check bool) "unknown" true (Sim.disk_fault_of_name "nope" = None)

(* -- commit-path guards ---------------------------------------------------------- *)

(* The writer holds only its newest version and its base (here the
   genesis version, which a differential checkpoint would diff against):
   every version appended in between is garbage once the caller lets go.
   The versions are built and appended in a function of their own, so
   nothing but the weak table and the writer can reach them afterwards. *)
let test_writer_keeps_newest_only () =
  let n = 12 in
  let seen = Weak.create n in
  let log () =
    let vs = chain ~seed:5 in
    let count = min n (Array.length vs) in
    let w = Wal.create ~store:(Wal.Mem.store (Wal.Mem.create ())) vs.(0) in
    Weak.set seen 0 (Some vs.(0));
    for i = 1 to count - 1 do
      Wal.append w vs.(i);
      Weak.set seen i (Some vs.(i))
    done;
    (w, count)
  in
  let (w, count) = log () in
  Alcotest.(check bool) "enough versions" true (count >= 4);
  Gc.full_major ();
  for i = 1 to count - 2 do
    Alcotest.(check bool)
      (Printf.sprintf "version %d unreachable" i)
      true
      (Option.is_none (Weak.get seen i))
  done;
  Alcotest.(check bool) "base still held" true
    (match Weak.get seen 0 with
    | Some db -> db == Wal.base w
    | None -> false);
  Alcotest.(check bool) "newest still held" true
    (match Weak.get seen (count - 1) with
    | Some db -> db == Wal.latest w
    | None -> false)

(* A one-tuple commit on 256 relations of 1000 tuples (B-tree, branching
   8) is logged for a cost sized by the change: the slot walk, the diff
   over the rebuilt pages and a few dozen bytes of frame stay well under
   2000 minor words (a walk of every slot's name or a listing of the
   changed relation would each pass it). *)
let test_append_allocation () =
  let row k s = Tuple.make [ Value.Int k; Value.Str s ] in
  let schema i =
    Schema.make ~name:(Printf.sprintf "R%d" i)
      ~cols:[ ("key", Schema.CInt); ("val", Schema.CStr) ]
  in
  let schemas = List.init 256 schema in
  let initial =
    List.init 256 (fun i ->
        ( Printf.sprintf "R%d" i,
          List.init 1000 (fun k -> row (2 * k) (Printf.sprintf "v%d" k)) ))
  in
  let db =
    match
      Database.of_tuples ~backend:(Relation.Btree_backend 8) schemas initial
    with
    | Ok db -> db
    | Error e -> Alcotest.fail e
  in
  let w =
    Wal.create ~sync_every:0 ~store:(Wal.Mem.store (Wal.Mem.create ())) db
  in
  let commit db k =
    match Database.insert db ~rel:"R200" (row k "new") with
    | Ok (db', true) -> db'
    | _ -> Alcotest.fail "insert"
  in
  let db1 = commit db 1001 in
  Wal.append w db1;
  let db2 = commit db1 777 in
  let before = Gc.minor_words () in
  Wal.append w db2;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words < 2000" words)
    true (words < 2000.);
  Alcotest.(check int) "appended" 2 (Wal.appended w)

(* Nothing holds checkpoint bytes strongly: once a checkpoint has
   returned, a full major collection frees every string it handed the
   store — header, chunks and tail — though the writer lives on. *)
let test_checkpoint_chunks_weak () =
  let seen = Weak.create 64 in
  let n = ref 0 in
  let inner = Wal.Mem.store (Wal.Mem.create ()) in
  let store =
    {
      inner with
      Wal.Store.append =
        (fun name bytes ->
          if !n < Weak.length seen then Weak.set seen !n (Some bytes);
          incr n;
          inner.Wal.Store.append name bytes);
    }
  in
  let w = Wal.create ~store (big_db ()) in
  for _ = 1 to Wal.base_every - 1 do
    Wal.checkpoint w
  done;
  Weak.fill seen 0 (Weak.length seen) None;
  n := 0;
  (* a base: the differentials before it were one string each *)
  Wal.checkpoint w;
  Alcotest.(check bool) "a header and several chunks" true (!n >= 4);
  Gc.full_major ();
  for i = 0 to !n - 1 do
    Alcotest.(check bool) (Printf.sprintf "string %d freed" i) false
      (Weak.check seen i)
  done;
  Alcotest.(check int) "writer alive" 0 (Wal.appended w)

(* A base checkpoint that follows another with no major cycle completed
   in between reuses its chunks — so does the genesis base of a new
   writer — and allocates under two chunks of major-heap words (the copied
   tail and small change), where a frame built in a growing buffer and
   then copied would cost the whole frame twice over.  Each base here is
   the [Wal.base_every]th checkpoint since the one before, and the
   differentials in between cost a few small strings. *)
let test_checkpoint_reuses_chunks () =
  let null =
    {
      Wal.Store.append = (fun _ _ -> ());
      sync = ignore;
      read = (fun _ -> None);
      list_files = (fun () -> []);
      remove = ignore;
      close = ignore;
    }
  in
  let db = big_db () in
  let w = Wal.create ~sync_every:0 ~store:null db in
  let base_checkpoint () =
    for _ = 1 to Wal.base_every do
      Wal.checkpoint w
    done
  in
  (* a direct major-heap allocation is counted at the next minor
     collection *)
  let stat () =
    Gc.minor ();
    Gc.quick_stat ()
  in
  let limit = 2. *. float_of_int (Wire.chunk_size / (Sys.word_size / 8)) in
  let rec attempt what second tries =
    (* start from a finished cycle: a cycle already marking could clear
       the weak pool before its count moves *)
    Gc.full_major ();
    base_checkpoint ();
    let s1 = stat () in
    second ();
    let s2 = stat () in
    let quiet = s2.Gc.major_collections = s1.Gc.major_collections in
    if quiet || tries = 0 then begin
      let words = s2.Gc.major_words -. s1.Gc.major_words in
      Alcotest.(check bool) (what ^ ": no major cycle in between") true quiet;
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.0f major words < %.0f" what words limit)
        true (words < limit)
    end
    else attempt what second (tries - 1)
  in
  attempt "checkpoint" base_checkpoint 5;
  attempt "new writer"
    (fun () -> ignore (Wal.create ~sync_every:0 ~store:null db))
    5

(* -- the Pipeline durability sink ------------------------------------------- *)

let schemas =
  [ Schema.make ~name:"R" ~cols:[ ("key", Schema.CInt); ("val", Schema.CStr) ];
    Schema.make ~name:"S" ~cols:[ ("key", Schema.CInt); ("val", Schema.CStr) ] ]

let tup k s = Tuple.make [ Value.Int k; Value.Str s ]

let spec_small =
  {
    Pipeline.schemas;
    initial = [ ("R", [ tup 1 "a"; tup 3 "c" ]); ("S", [ tup 10 "x" ]) ];
  }

let tagged =
  List.mapi
    (fun i src -> (i mod 3, q src))
    [
      "insert (2, \"b\") into R";
      "find 1 in R";
      "insert (2, \"dup\") into R";
      (* rejected duplicate: no version logged *)
      "delete 3 from R";
      "insert (20, \"y\") into S";
      "update R set val = \"u\" where key = 1";
      "count R";
      "select * from S where key >= 10";
      "delete 99 from S" (* miss: no version logged *);
    ]

let check_final_db msg final_db db =
  List.iter
    (fun (name, tuples) ->
      match Database.relation db name with
      | None -> Alcotest.fail (msg ^ ": missing relation " ^ name)
      | Some rel ->
          Alcotest.(check bool)
            (msg ^ ": " ^ name)
            true
            (List.equal Tuple.equal tuples (Relation.to_list rel)))
    final_db

let recover_clean store =
  let r = Wal.recover store in
  Alcotest.(check bool) "clean recovery" true (is_clean r);
  r

let test_sink_run () =
  let store = Wal.Mem.store (Wal.Mem.create ()) in
  let w = Wal.create ~store (Pipeline.initial_database spec_small) in
  let report =
    Pipeline.run ~semantics:Pipeline.Ordered_unique ~wal:w spec_small tagged
  in
  let r = recover_clean store in
  Alcotest.(check int) "all appends durable" (Wal.appended w) r.Wal.upto;
  check_final_db "lenient run" report.Pipeline.final_db
    (History.latest r.Wal.rhistory)

let test_sink_run_streams () =
  let store = Wal.Mem.store (Wal.Mem.create ()) in
  let w = Wal.create ~store (Pipeline.initial_database spec_small) in
  let (report, _merged) =
    Pipeline.run_streams ~semantics:Pipeline.Ordered_unique ~wal:w spec_small
      [ List.map snd tagged ]
  in
  let r = recover_clean store in
  check_final_db "run_streams" report.Pipeline.final_db
    (History.latest r.Wal.rhistory)

(* [execute] [tagged] from [initial_database spec_small] with a sink, the
   executor built on a fresh 2-domain pool. *)
let execute_logged ~wal executor =
  let db0 = Pipeline.initial_database spec_small in
  Pool.with_pool ~domains:2 (fun pool ->
      Pipeline.execute ~wal (executor pool) db0 tagged)

let test_sink_run_parallel () =
  let store = Wal.Mem.store (Wal.Mem.create ()) in
  let w = Wal.create ~store (Pipeline.initial_database spec_small) in
  let o =
    execute_logged ~wal:w (fun pool -> Pipeline.Parallel { pool; index = None })
  in
  let r = recover_clean store in
  Alcotest.(check int) "one version per changing write plus the initial"
    o.Pipeline.versions (1 + r.Wal.upto);
  check_final_db "parallel" (Database.contents o.Pipeline.final)
    (History.latest r.Wal.rhistory)

let test_sink_run_repair () =
  let store = Wal.Mem.store (Wal.Mem.create ()) in
  let w = Wal.create ~store (Pipeline.initial_database spec_small) in
  let o =
    execute_logged ~wal:w (fun pool ->
        Pipeline.Repair { pool; batch = 4; index = None })
  in
  let r = recover_clean store in
  Alcotest.(check int) "all appends durable" (Wal.appended w) r.Wal.upto;
  Alcotest.(check int) "one version per changing write plus the initial"
    o.Pipeline.versions (1 + r.Wal.upto);
  check_final_db "repair" (Database.contents o.Pipeline.final)
    (History.latest r.Wal.rhistory)

let test_sink_run_sharded () =
  let store = Wal.Mem.store (Wal.Mem.create ()) in
  let w = Wal.create ~store (Pipeline.initial_database spec_small) in
  let o = execute_logged ~wal:w (fun _ -> Pipeline.Sharded { shards = 2 }) in
  let r = recover_clean store in
  Alcotest.(check int) "all appends durable" (Wal.appended w) r.Wal.upto;
  Alcotest.(check int) "one version per commit plus the initial"
    o.Pipeline.versions (1 + r.Wal.upto);
  check_final_db "sharded" (Database.contents o.Pipeline.final)
    (History.latest r.Wal.rhistory)

(* The three logging modes agree: same inputs, same durable version chain. *)
let test_sink_modes_agree () =
  let log run =
    let store = Wal.Mem.store (Wal.Mem.create ()) in
    let w = Wal.create ~store (Pipeline.initial_database spec_small) in
    run w;
    Wal.recover store
  in
  let a =
    log (fun w ->
        ignore
          (Pipeline.run ~semantics:Pipeline.Ordered_unique ~wal:w spec_small
             tagged))
  in
  let b =
    log (fun w ->
        ignore
          (execute_logged ~wal:w (fun pool ->
               Pipeline.Parallel { pool; index = None })))
  in
  Alcotest.(check int) "same version count" a.Wal.upto b.Wal.upto;
  for i = 0 to a.Wal.upto do
    Alcotest.(check bool)
      (Printf.sprintf "version %d agrees" i)
      true
      (Oracle.db_equal
         (History.version a.Wal.rhistory i)
         (History.version b.Wal.rhistory i))
  done

(* Every batched arm logs one version per changing write, so one stream
   leaves logs of one length, ending in one state, whatever the arm. *)
let test_sink_arms_agree () =
  let digest db =
    Digest.to_hex
      (Digest.string
         (String.concat "\n"
            (List.map
               (fun (name, tuples) ->
                 name ^ ":" ^ String.concat ";" (List.map Tuple.to_string tuples))
               (Database.contents db))))
  in
  let log executor =
    let store = Wal.Mem.store (Wal.Mem.create ()) in
    let w = Wal.create ~store (Pipeline.initial_database spec_small) in
    let o = execute_logged ~wal:w executor in
    let r = recover_clean store in
    Alcotest.(check int) "versions = 1 + recovered upto" o.Pipeline.versions
      (1 + r.Wal.upto);
    (r.Wal.upto, digest (History.latest r.Wal.rhistory))
  in
  let parallel = log (fun pool -> Pipeline.Parallel { pool; index = None }) in
  let repair = log (fun pool -> Pipeline.Repair { pool; batch = 4; index = None }) in
  let sharded = log (fun _ -> Pipeline.Sharded { shards = 2 }) in
  Alcotest.(check int) "changing writes in tagged" 4 (fst parallel);
  Alcotest.(check (pair int string)) "repair = parallel" parallel repair;
  Alcotest.(check (pair int string)) "sharded = parallel" parallel sharded

let test_sink_rejects_prepend () =
  let store = Wal.Mem.store (Wal.Mem.create ()) in
  let w = Wal.create ~store (Pipeline.initial_database spec_small) in
  List.iter
    (fun f ->
      match f () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "Prepend + wal accepted")
    [ (fun () -> ignore (Pipeline.run ~wal:w spec_small tagged));
      (fun () -> ignore (Pipeline.run_streams ~wal:w spec_small []));
      (fun () ->
        ignore
          (Pipeline.run_parallel ~semantics:Pipeline.Prepend ~domains:2
             spec_small []))
    ]

let () =
  Alcotest.run "wal"
    [
      ( "writer",
        [
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "group-sync loss bound" `Quick
            test_group_sync_loss_bound;
          Alcotest.test_case "explicit-only sync" `Quick
            test_sync_every_zero_is_explicit_only;
          Alcotest.test_case "resume" `Quick test_resume;
          Alcotest.test_case "argument validation" `Quick test_create_validates;
          Alcotest.test_case "fs store cold recovery" `Quick
            test_fs_cold_recovery;
          Alcotest.test_case "format-1 log rejected" `Quick
            test_old_format_rejected;
          Alcotest.test_case "format-1 tail stops replay" `Quick
            test_old_format_tail_stops;
        ] );
      ( "compaction",
        [
          Alcotest.test_case "checkpoint+suffix == full log" `Quick
            test_compaction_equality;
          Alcotest.test_case "crash after checkpoint" `Quick
            test_compaction_then_crash;
          Alcotest.test_case "torn multi-chunk checkpoint" `Quick
            test_torn_multichunk_checkpoint;
        ] );
      ( "differential",
        [
          Alcotest.test_case "torn differential falls back" `Quick
            test_torn_differential;
          Alcotest.test_case "missing base segment" `Quick test_missing_base;
          Alcotest.test_case "16th checkpoint is a base" `Quick
            test_base_every;
          Alcotest.test_case "size rule" `Quick test_size_rule;
          Alcotest.test_case "resume after a differential" `Quick
            test_resume_after_differential;
          Alcotest.test_case "format-2 log rejected" `Quick
            test_format2_rejected;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "rejects violations" `Quick
            test_durability_oracle_rejects;
          Alcotest.test_case "accepts lawful" `Quick
            test_durability_oracle_accepts;
          Alcotest.test_case "live trace lawful" `Quick test_live_trace_lawful;
        ] );
      ( "commit-path",
        [
          Alcotest.test_case "writer keeps only the newest version" `Quick
            test_writer_keeps_newest_only;
          Alcotest.test_case "one-tuple append allocation" `Quick
            test_append_allocation;
          Alcotest.test_case "checkpoint chunks held weakly" `Quick
            test_checkpoint_chunks_weak;
          Alcotest.test_case "checkpoint reuses its chunks" `Quick
            test_checkpoint_reuses_chunks;
        ] );
      ( "fuzz",
        [ QCheck_alcotest.to_alcotest prop_prefix_recovers_prefix ] );
      ( "crash-restart",
        [
          Alcotest.test_case "differential sweep" `Slow test_run_disk_sweep;
          Alcotest.test_case "fault names" `Quick
            test_disk_fault_names_roundtrip;
        ] );
      ( "pipeline-sink",
        [
          Alcotest.test_case "run" `Quick test_sink_run;
          Alcotest.test_case "run_streams" `Quick test_sink_run_streams;
          Alcotest.test_case "run_parallel" `Slow test_sink_run_parallel;
          Alcotest.test_case "run_repair" `Slow test_sink_run_repair;
          Alcotest.test_case "run_sharded" `Quick test_sink_run_sharded;
          Alcotest.test_case "modes agree" `Slow test_sink_modes_agree;
          Alcotest.test_case "rejects Prepend" `Quick test_sink_rejects_prepend;
          Alcotest.test_case "batched arms agree" `Quick test_sink_arms_agree;
        ] );
    ]
