(* The shared wire codec (lib/wire): CRC32c, the length-prefixed checksummed
   frame format shared by the replica snapshots and the durable log, and the
   archive/delta payload codecs.  The load-bearing properties: a torn or
   bit-flipped frame is *detected* (never silently decoded, never an
   unhandled exception), and structural corruption inside a checksum-valid
   payload raises [Wire.Corrupt] with a byte offset. *)

open Fdb_relational
module Wire = Fdb_wire.Wire
module History = Fdb_txn.History
module Oracle = Fdb_check.Oracle
module Gen = Fdb_check.Gen
module Merge = Fdb_merge.Merge
module Txn = Fdb_txn.Txn
module Wal = Fdb_wal.Wal

let q = Fdb_query.Parser.parse_exn

let schemas =
  [ Schema.make ~name:"R" ~cols:[ ("key", Schema.CInt); ("val", Schema.CStr) ];
    Schema.make ~name:"S" ~cols:[ ("key", Schema.CInt); ("val", Schema.CStr) ] ]

let db0 =
  let db = Database.create schemas in
  let load db rel tuples =
    match Database.load db ~rel tuples with
    | Ok db -> db
    | Error e -> failwith e
  in
  let tup k s = Tuple.make [ Value.Int k; Value.Str s ] in
  let db = load db "R" [ tup 1 "a"; tup 2 "b"; tup 3 "c" ] in
  load db "S" [ tup 10 "x"; tup 20 "y" ]

let history =
  fst
    (History.of_queries db0
       [
         q "insert (4, \"d\") into R";
         q "delete 2 from R";
         q "insert (30, \"z\") into S";
         q "update R set val = \"u\" where key = 1";
       ])

(* -- crc32c ----------------------------------------------------------------- *)

(* The standard CRC32-C check value: crc of the ASCII digits "123456789". *)
let test_crc32c_check_value () =
  Alcotest.(check int32) "check value" 0xE3069283l (Wire.crc32c "123456789");
  Alcotest.(check int32) "empty" 0l (Wire.crc32c "")

let test_crc32c_sensitivity () =
  let a = Wire.crc32c "hello world" in
  Alcotest.(check bool) "one bit apart" false
    (Int32.equal a (Wire.crc32c "hello worle"));
  Alcotest.(check bool) "prefix" false (Int32.equal a (Wire.crc32c "hello worl"))

(* The table-driven CRC folds eight bytes a step; a bit-at-a-time
   reference must agree at every length and alignment of the tail. *)
let bitwise_crc32c s =
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch ->
      c := !c lxor Char.code ch;
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then (!c lsr 1) lxor 0x82F63B78 else !c lsr 1
      done)
    s;
  Int32.of_int (!c lxor 0xFFFFFFFF)

let prop_crc32c_bitwise =
  QCheck2.Test.make ~name:"crc32c matches a bitwise reference" ~count:300
    QCheck2.Gen.(string_size (int_range 0 70))
    (fun s -> Int32.equal (Wire.crc32c s) (bitwise_crc32c s))

(* -- varints ----------------------------------------------------------------- *)

let test_int_roundtrip () =
  List.iter
    (fun n ->
      let s = Wire.encode (fun e -> Wire.write_int e n) in
      Alcotest.(check string) (Printf.sprintf "bytes of %d" n) (string_of_int n ^ ";") s;
      Alcotest.(check (pair int int)) (Printf.sprintf "read %d" n)
        (n, String.length s) (Wire.read_int s ~pos:0))
    [ 0; -1; 1; 9; 10; -10; 99; 100; 123456789; max_int; min_int;
      max_int - 1; min_int + 1; 999; 1000; 999_999_999; 1_000_000_000;
      0x3FFFFFFF; 0x40000000; -0x3FFFFFFF; -0x40000000; -0x40000001 ]

(* The checkpoint bytes depend on it: write_int writes exactly
   string_of_int's digits, for every int. *)
let prop_int_digits =
  QCheck2.Test.make ~name:"write_int writes string_of_int's digits" ~count:500
    QCheck2.Gen.(
      oneof
        [ int; int_range (-1000) 1000; int_range (-0x50000000) 0x50000000;
          oneofl [ min_int; max_int ] ])
    (fun n ->
      Wire.encode (fun e -> Wire.write_int e n) = string_of_int n ^ ";")

(* An encoder started inside another's callback writes into chunks of its
   own, not over the bytes the outer one has written so far. *)
let test_nested_encoders () =
  let inner = ref "" in
  let outer =
    Wire.encode (fun e ->
        Wire.write_int e 12345;
        inner := Wire.encode (fun e' -> Wire.write_int e' 678);
        Wire.write_int e 9)
  in
  Alcotest.(check string) "outer" "12345;9;" outer;
  Alcotest.(check string) "inner" "678;" !inner;
  let frames = Buffer.create 64 in
  ignore
    (Wire.write_frame ~kind:Wire.Delta
       (fun e -> Wire.write_int e 1)
       (fun s ->
         Buffer.add_string frames s;
         Buffer.add_string frames
           (Wire.frame ~kind:Wire.Delta
              (Wire.encode (fun e -> Wire.write_int e 2)))));
  Alcotest.(check string) "frame written while emitting"
    (Wire.frame ~kind:Wire.Delta "1;" ^ Wire.frame ~kind:Wire.Delta "2;")
    (Buffer.contents frames)

(* -- frames ----------------------------------------------------------------- *)

let test_frame_roundtrip () =
  List.iter
    (fun (kind, payload) ->
      let s = Wire.frame ~kind payload in
      Alcotest.(check int) "framed length"
        (String.length payload + Wire.frame_overhead)
        (String.length s);
      match Wire.read_frame s ~pos:0 with
      | Wire.Frame { kind = k; payload = p; next } ->
          Alcotest.(check bool) "kind" true (k = kind);
          Alcotest.(check string) "payload" payload p;
          Alcotest.(check int) "next" (String.length s) next
      | Wire.End_of_input -> Alcotest.fail "end of input"
      | Wire.Torn { reason; _ } -> Alcotest.fail ("torn: " ^ reason))
    [ (Wire.Checkpoint, "ckpt payload");
      (Wire.Delta, "");
      (Wire.Delta, String.make 4096 '\142') ]

let test_frame_stream () =
  let s =
    Wire.frame ~kind:Wire.Checkpoint "one" ^ Wire.frame ~kind:Wire.Delta "two"
  in
  (match Wire.read_frame s ~pos:0 with
  | Wire.Frame { payload = "one"; next; _ } -> (
      match Wire.read_frame s ~pos:next with
      | Wire.Frame { payload = "two"; next; _ } -> (
          match Wire.read_frame s ~pos:next with
          | Wire.End_of_input -> ()
          | _ -> Alcotest.fail "expected end of input")
      | _ -> Alcotest.fail "second frame")
  | _ -> Alcotest.fail "first frame");
  Alcotest.check_raises "bad pos" (Invalid_argument "Wire.read_frame: bad pos")
    (fun () -> ignore (Wire.read_frame s ~pos:(String.length s + 1)))

(* Every strict byte-prefix of a frame reads as Torn (or End_of_input when
   empty) — never a Frame, never an exception. *)
let test_frame_prefixes_torn () =
  let s = Wire.frame ~kind:Wire.Delta "some delta payload" in
  for len = 0 to String.length s - 1 do
    match Wire.read_frame (String.sub s 0 len) ~pos:0 with
    | Wire.End_of_input -> Alcotest.(check int) "only empty" 0 len
    | Wire.Torn { offset; _ } ->
        Alcotest.(check bool) "offset in bounds" true
          (offset >= 0 && offset <= len)
    | Wire.Frame _ -> Alcotest.fail (Printf.sprintf "prefix %d decoded" len)
  done

(* CRC32c detects every single-bit error, so *any* one-bit flip anywhere in
   a frame must read as Torn. *)
let test_frame_bitflips_torn () =
  let s = Wire.frame ~kind:Wire.Checkpoint "payload under test" in
  let b = Bytes.of_string s in
  for i = 0 to Bytes.length b - 1 do
    for bit = 0 to 7 do
      let orig = Bytes.get b i in
      Bytes.set b i (Char.chr (Char.code orig lxor (1 lsl bit)));
      (match Wire.read_frame (Bytes.to_string b) ~pos:0 with
      | Wire.Torn _ -> ()
      | Wire.End_of_input -> Alcotest.fail "end of input"
      | Wire.Frame _ ->
          Alcotest.fail (Printf.sprintf "flip %d.%d accepted" i bit));
      Bytes.set b i orig
    done
  done

(* A frame of the previous format (version byte 1), checksum-valid under
   its own header, reads as Torn: old records are refused, never decoded
   as this format's key-level deltas. *)
let test_frame_format1_torn () =
  let payload = "1;1;0;2;2;I1;S1;a2;I2;S1;b" in
  let b = Bytes.of_string (Wire.frame ~kind:Wire.Delta payload) in
  Bytes.set b 4 '\001';
  Bytes.set_int32_le b 6 (Wire.crc32c ("\001D" ^ payload));
  match Wire.read_frame (Bytes.to_string b) ~pos:0 with
  | Wire.Torn { offset; reason } ->
      Alcotest.(check int) "offset at version byte" 4 offset;
      Alcotest.(check string) "reason" "unknown format version 1" reason
  | Wire.Frame _ | Wire.End_of_input -> Alcotest.fail "format-1 frame accepted"

(* A frame of format version 2, which had no differential frames, reads
   as Torn: a format-2 reader would have skipped a differential segment
   head, so the formats must not mix. *)
let test_frame_format2_torn () =
  let payload = "0;FDBSNAP11;0;" in
  let b = Bytes.of_string (Wire.frame ~kind:Wire.Checkpoint payload) in
  Bytes.set b 4 '\002';
  Bytes.set_int32_le b 6 (Wire.crc32c ("\002C" ^ payload));
  match Wire.read_frame (Bytes.to_string b) ~pos:0 with
  | Wire.Torn { offset; reason } ->
      Alcotest.(check int) "offset at version byte" 4 offset;
      Alcotest.(check string) "reason" "unknown format version 2" reason
  | Wire.Frame _ | Wire.End_of_input -> Alcotest.fail "format-2 frame accepted"

(* The kind of a frame is read from its header alone. *)
let test_header_kind () =
  List.iter
    (fun kind ->
      let f = Wire.frame ~kind "payload" in
      Alcotest.(check bool) "whole frame" true (Wire.header_kind f = Some kind);
      Alcotest.(check bool) "header only" true
        (Wire.header_kind (String.sub f 0 Wire.frame_overhead) = Some kind);
      Alcotest.(check bool) "short header" true
        (Wire.header_kind (String.sub f 0 (Wire.frame_overhead - 1)) = None))
    [ Wire.Checkpoint; Wire.Differential; Wire.Delta ]

(* -- archive payloads ------------------------------------------------------- *)

let check_history_equal expected actual =
  Alcotest.(check int) "versions" (History.length expected)
    (History.length actual);
  for i = 0 to History.length expected - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "version %d" i)
      true
      (Oracle.db_equal (History.version expected i) (History.version actual i))
  done

let test_archive_roundtrip () =
  check_history_equal history (Wire.decode_archive (Wire.encode_archive history))

(* Decoding rebuilds the same physical sharing: a version that left a
   relation untouched shares its slot after decoding too. *)
let test_archive_preserves_sharing () =
  let decoded = Wire.decode_archive (Wire.encode_archive history) in
  for i = 1 to History.length history - 1 do
    List.iter
      (fun name ->
        let shares h =
          Database.shares_relation
            ~old:(History.version h (i - 1))
            (History.version h i) name
        in
        Alcotest.(check bool)
          (Printf.sprintf "v%d %s shared" i name)
          (shares history) (shares decoded))
      (Database.names (History.version history i))
  done

let test_archive_sub_consumes_exactly () =
  let payload = Wire.encode_archive history in
  let (h, next) = Wire.decode_archive_sub (payload ^ "trailing") ~pos:0 in
  Alcotest.(check int) "next" (String.length payload) next;
  check_history_equal history h

(* Replica snapshots ship [encode_archive]'s bytes, so they must not drift:
   fixed histories (two generated scenarios and one of edge values over
   avl and column relations) hash to pinned digests. *)
let seeded_history ~seed =
  let sc = Gen.generate { Gen.default_spec with seed; queries_per_client = 24 } in
  List.fold_left
    (fun h (m : _ Merge.tagged) ->
      let db = History.latest h in
      let (_, db') = Txn.translate m.Merge.item db in
      if db' == db then h else History.append h db')
    (History.create (Gen.initial_db sc))
    (Merge.merge (Merge.Seeded seed) sc.Gen.streams)

let edge_history =
  let cols =
    [ ("key", Schema.CInt); ("flag", Schema.CBool); ("ratio", Schema.CReal);
      ("label", Schema.CStr) ]
  in
  let w = Schema.make ~name:"W" ~cols and x = Schema.make ~name:"X" ~cols in
  let tup k label =
    Tuple.make
      [ Value.Int k; Value.Bool (k mod 2 = 0); Value.Real (float_of_int k /. 3.0);
        Value.Str label ]
  in
  let keys = [ min_int; -42; -1; 0; 1; 7; max_int ] in
  let rel backend schema =
    match
      Relation.of_tuples ~backend schema
        (List.map (fun k -> tup k (string_of_int k)) keys)
    with
    | Ok r -> r
    | Error e -> failwith e
  in
  let ok = function Ok (db, _) -> db | Error e -> failwith e in
  let v0 =
    Database.replace
      (Database.replace (Database.create [ w; x ]) "W" (rel Relation.Avl_backend w))
      "X"
      (rel (Relation.Column_backend 3) x)
  in
  let v1 = ok (Database.insert v0 ~rel:"W" (tup 99 "")) in
  let v2 = ok (Database.delete v1 ~rel:"X" ~key:(Value.Int min_int)) in
  let v3 =
    ok
      (Database.insert
         (ok (Database.delete v2 ~rel:"W" ~key:(Value.Int (-1))))
         ~rel:"W" (tup (-1) ""))
  in
  History.of_versions [ v3; v2; v1; v0 ]

let test_archive_bytes_pinned () =
  List.iter
    (fun (name, h, pin) ->
      Alcotest.(check string) name pin
        (Digest.to_hex (Digest.string (Wire.encode_archive h))))
    [ ("seed 11", seeded_history ~seed:11, "720772d24da70f9de830c6f7d5879799");
      ("seed 12", seeded_history ~seed:12, "e7321edd0d236aa057455e50457b78f3");
      ("edge values", edge_history, "eb783358f188a979b4eb5fb74a7c36dc") ]

(* Decoding keeps which relations each version replaced. *)
let test_archive_sharing_ratio () =
  List.iter
    (fun (name, h) ->
      Alcotest.(check (float 0.0)) name (History.sharing_ratio h)
        (History.sharing_ratio (Wire.decode_archive (Wire.encode_archive h))))
    [ ("small", history); ("seed 11", seeded_history ~seed:11);
      ("seed 12", seeded_history ~seed:12); ("edge values", edge_history) ]

(* The layout before key-level deltas wrote each later version as its
   changed slots' whole bodies.  A two-version archive of that layout
   (header, version 0, then "1 changed slot: slot 0, one tuple") must not
   decode as deltas: the body's first tuple is not a change tag. *)
let test_archive_old_layout_rejected () =
  let one = Wire.encode_archive (History.create db0) in
  let header = "FDBSNAP1" in
  Alcotest.(check string) "one-version count" (header ^ "1;")
    (String.sub one 0 (String.length header + 2));
  let skip = String.length header + 2 in
  let rest = String.sub one skip (String.length one - skip) in
  let src = header ^ "2;" ^ rest ^ "1;0;" ^ "1;" ^ "2;I9;S1;q" in
  match Wire.decode_archive src with
  | exception Wire.Corrupt { offset; reason } ->
      Alcotest.(check int) ("offset of the whole tuple: " ^ reason)
        (String.length src - String.length "2;I9;S1;q")
        offset
  | _ -> Alcotest.fail "old-layout archive decoded"

let test_archive_garbage_raises () =
  List.iter
    (fun src ->
      match Wire.decode_archive src with
      | exception Wire.Corrupt { offset; _ } ->
          Alcotest.(check bool) "offset in bounds" true
            (offset >= 0 && offset <= String.length src)
      | _ -> Alcotest.fail "garbage decoded")
    [ ""; "FDBSNAP"; "FDBSNAP1"; "FDBSNAP1;;;"; "not an archive at all" ]

(* -- version deltas --------------------------------------------------------- *)

let test_version_delta_roundtrip () =
  for i = 1 to History.length history - 1 do
    let prev = History.version history (i - 1) in
    let after = History.version history i in
    let payload = Wire.encode_version ~prev after in
    let decoded = Wire.decode_version ~prev payload in
    Alcotest.(check bool)
      (Printf.sprintf "delta %d" i)
      true
      (Oracle.db_equal after decoded);
    (* untouched slots are shared with [prev], not copied *)
    List.iter
      (fun name ->
        if Database.shares_relation ~old:prev after name then
          Alcotest.(check bool)
            (Printf.sprintf "delta %d shares %s" i name)
            true
            (Database.shares_relation ~old:prev decoded name))
      (Database.names after)
  done

let test_version_delta_trailing_raises () =
  let prev = History.version history 0 in
  let payload = Wire.encode_version ~prev (History.version history 1) in
  match Wire.decode_version ~prev (payload ^ "x") with
  | exception Wire.Corrupt { offset; _ } ->
      Alcotest.(check int) "offset at trailing byte" (String.length payload)
        offset
  | _ -> Alcotest.fail "trailing byte accepted"

(* A delta is sized by the change, not by the relation: one-tuple writes
   into a 256-relation, 1000-tuple-per-relation btree-8 database each
   encode under 1 KB, and replay onto the previous version. *)
let test_version_delta_size () =
  let schemas =
    List.init 256 (fun i ->
        Schema.make ~name:(Printf.sprintf "R%d" i)
          ~cols:[ ("key", Schema.CInt); ("val", Schema.CStr) ])
  in
  let tup k s = Tuple.make [ Value.Int k; Value.Str s ] in
  let db =
    match
      Database.of_tuples ~backend:(Relation.Btree_backend 8) schemas
        (List.map
           (fun s ->
             (Schema.name s, List.init 1000 (fun k -> tup k (Printf.sprintf "t%d" k))))
           schemas)
    with
    | Ok db -> db
    | Error e -> Alcotest.fail e
  in
  List.iter
    (fun query ->
      let (_, next) = Txn.translate (q query) db in
      let payload = Wire.encode_version ~prev:db next in
      Alcotest.(check bool)
        (Printf.sprintf "%S: %d bytes < 1 KB" query (String.length payload))
        true
        (String.length payload < 1024);
      Alcotest.(check bool) (query ^ " replays") true
        (Oracle.db_equal next (Wire.decode_version ~prev:db payload)))
    [ "update R128 set val = \"u\" where key = 500";
      "insert (5000, \"new\") into R7";
      "delete 999 from R255" ]

(* The record lists per-slot key changes, readable without the base. *)
let test_version_delta_key_changes () =
  let prev = History.version history 0 in
  let two = History.version history 2 in
  Alcotest.(check (list (pair int int))) "insert then delete in R" [ (0, 2) ]
    (Wire.delta_key_changes (Wire.encode_version ~prev two) ~pos:0);
  Alcotest.(check (list (pair int int))) "nothing changed" []
    (Wire.delta_key_changes (Wire.encode_version ~prev prev) ~pos:0);
  Alcotest.(check string) "empty record" "0;" (Wire.encode_version ~prev prev)

(* A rewrite to -0.0 is a change: replay must not keep 0.0. *)
let test_version_delta_negative_zero () =
  let schema =
    Schema.make ~name:"F" ~cols:[ ("key", Schema.CInt); ("x", Schema.CReal) ]
  in
  let tup x = Tuple.make [ Value.Int 1; Value.Real x ] in
  let ok = function Ok (db, _) -> db | Error e -> Alcotest.fail e in
  let prev = ok (Database.insert (Database.create [ schema ]) ~rel:"F" (tup 0.0)) in
  let next =
    ok
      (Database.insert
         (ok (Database.delete prev ~rel:"F" ~key:(Value.Int 1)))
         ~rel:"F" (tup (-0.0)))
  in
  let decoded = Wire.decode_version ~prev (Wire.encode_version ~prev next) in
  match Database.find decoded ~rel:"F" ~key:(Value.Int 1) with
  | Ok (Some t) -> (
      match Tuple.get t 1 with
      | Value.Real x ->
          Alcotest.(check bool) "sign bit kept" true (Float.sign_bit x)
      | _ -> Alcotest.fail "not a real")
  | _ -> Alcotest.fail "tuple lost"

(* Structural damage inside a delta raises [Corrupt], never a wrong
   version or a stray exception. *)
let test_version_delta_garbage_raises () =
  let prev = History.version history 0 in
  List.iter
    (fun src ->
      match Wire.decode_version ~prev src with
      | exception Wire.Corrupt { offset; _ } ->
          Alcotest.(check bool) (src ^ ": offset in bounds") true
            (offset >= 0 && offset <= String.length src)
      | _ -> Alcotest.fail (src ^ ": decoded"))
    [ ""; "1;"; "1;0;"; "1;0;1;"; "1;0;1;X"; "1;9;0;"; "-1;"; "1;0;-1;";
      "1;0;1;P0;"; "1;0;1;P1;S1;a"; "1;0;1;DI"; "3;0;0;0;0;0;0;" ]

(* -- multi-chunk checkpoint frames --------------------------------------------

   A checkpoint of a few hundred kilobytes spans several of the encoder's
   chunks.  These states put a tuple across every chunk boundary — rows
   of one encoded length in "U", then one string of 150 000 bytes in "L" —
   carry every value kind with its edge values in "E", and come in every
   backend.  The MD5s pin the bytes the Buffer-based frame writer wrote
   before the chunk encoder replaced it, re-stamped with format version 3
   (the payloads are unchanged; the version byte and the checksum over it
   differ). *)

let ckpt_cols =
  [ ("key", Schema.CInt); ("big", Schema.CInt); ("flag", Schema.CBool);
    ("ratio", Schema.CReal); ("label", Schema.CStr) ]

let ckpt_row k big flag ratio label =
  Tuple.make
    [ Value.Int k; Value.Int big; Value.Bool flag; Value.Real ratio;
      Value.Str label ]

let edge_rows =
  [ ckpt_row min_int max_int true (-0.0) "";
    ckpt_row (-1) min_int false infinity "semi;colon\000nul";
    ckpt_row 0 0 true neg_infinity "x";
    ckpt_row 1 (-1) false 5e-324 "S3;";
    ckpt_row max_int 42 true max_float (String.make 300 'e') ]

let uniform_rows = 6000

let uniform_row i =
  ckpt_row (100_000 + i) 7 (i mod 2 = 0) 0.5 (Printf.sprintf "label-%06d" i)

let long_row =
  ckpt_row 1 2 true 0.25
    (String.init 150_000 (fun i -> Char.chr (97 + (i mod 26))))

let ckpt_state backend =
  let schemas =
    List.map (fun name -> Schema.make ~name ~cols:ckpt_cols) [ "E"; "U"; "L" ]
  in
  match
    Database.of_tuples ~backend schemas
      [ ("E", edge_rows); ("U", List.init uniform_rows uniform_row);
        ("L", [ long_row ]) ]
  with
  | Ok db -> db
  | Error e -> Alcotest.fail e

let ckpt_pins =
  [ (Relation.List_backend, "371aae62421fd30670b189f0ed58ab1e");
    (Relation.Avl_backend, "c411cb4e034dc40b3fe2f15744d362e8");
    (Relation.Two3_backend, "9dc920caf1c52397096270ace48dcfb4");
    (Relation.Btree_backend 8, "c6aa45617fb76247365c869ede36559f");
    (Relation.Column_backend 8, "6dcd8190face6b44aa9fbe08892d256d") ]

(* A tuple's bytes, spelled out apart from the encoder. *)
let tuple_bytes tup =
  let int n = string_of_int n ^ ";" in
  let str s = int (String.length s) ^ s in
  String.concat ""
    (int (Tuple.arity tup)
    :: List.map
         (function
           | Value.Int n -> "I" ^ int n
           | Value.Str s -> "S" ^ str s
           | Value.Bool b -> "B" ^ int (if b then 1 else 0)
           | Value.Real r -> "R" ^ str (Printf.sprintf "%h" r))
         (Array.to_list tup))

let find_sub s sub =
  let m = String.length sub in
  let rec matches i j = j = m || (s.[i + j] = sub.[j] && matches i (j + 1)) in
  let rec go i =
    if i + m > String.length s then Alcotest.fail "tuple bytes not found"
    else if matches i 0 then i
    else go (i + 1)
  in
  go 0

(* Every chunk boundary of [frame] falls strictly inside a tuple: one of
   the uniform rows (which start every [lu] bytes from the first) or the
   long row. *)
let check_straddles name frame =
  let lu = String.length (tuple_bytes (uniform_row 0)) in
  for i = 1 to uniform_rows - 1 do
    if String.length (tuple_bytes (uniform_row i)) <> lu then
      Alcotest.fail "uniform rows differ in length"
  done;
  let u = find_sub frame (tuple_bytes (uniform_row 0)) in
  let long = tuple_bytes long_row in
  let l = find_sub frame (String.sub long 0 64) in
  let inside start len p = start < p && p < start + len in
  let k = ref 1 in
  while Wire.frame_overhead + (!k * Wire.chunk_size) < String.length frame do
    let p = Wire.frame_overhead + (!k * Wire.chunk_size) in
    Alcotest.(check bool)
      (Printf.sprintf "%s: a tuple straddles chunk end %d" name !k)
      true
      ((inside u (uniform_rows * lu) p && (p - u) mod lu <> 0)
      || inside l (String.length long) p);
    incr k
  done;
  Alcotest.(check bool) (name ^ ": several chunks") true (!k > 4)

let test_checkpoint_frames_pinned () =
  List.iter
    (fun (backend, pin) ->
      let name = Relation.backend_name backend in
      let db = ckpt_state backend in
      let md5 s = Digest.to_hex (Digest.string s) in
      let mem = Wal.Mem.create () in
      let store = Wal.Mem.store mem in
      let w = Wal.create ~store db in
      let frame = Wal.Mem.get mem (Wal.segment_name 0) in
      Alcotest.(check string) (name ^ ": frame bytes") pin (md5 frame);
      check_straddles name frame;
      (match Wire.read_frame frame ~pos:0 with
      | Wire.Frame { kind = Wire.Checkpoint; payload; next } ->
          Alcotest.(check int) (name ^ ": one frame") (String.length frame) next;
          let (upto, pos) = Wire.read_int payload ~pos:0 in
          Alcotest.(check int) (name ^ ": covered version") 0 upto;
          let (h, _) = Wire.decode_archive_sub payload ~pos in
          Alcotest.(check bool) (name ^ ": decoded") true
            (Oracle.db_equal db (History.latest h))
      | _ -> Alcotest.fail (name ^ ": not an intact checkpoint frame"));
      (* the next base rewrites the writer's chunks in place; the
         checkpoints before it are differentials *)
      for _ = 1 to Wal.base_every do
        Wal.checkpoint w
      done;
      Alcotest.(check string) (name ^ ": reused chunks") pin
        (md5 (Wal.Mem.get mem (Wal.segment_name Wal.base_every)));
      let r = Wal.recover store in
      Alcotest.(check bool) (name ^ ": recovered") true
        (r.Wal.stop = Wal.Clean && r.Wal.base = 0 && r.Wal.upto = 0
        && Oracle.db_equal db (History.latest r.Wal.rhistory)))
    ckpt_pins

let () =
  Alcotest.run "wire"
    [
      ( "crc32c",
        [
          Alcotest.test_case "check value" `Quick test_crc32c_check_value;
          Alcotest.test_case "sensitivity" `Quick test_crc32c_sensitivity;
          QCheck_alcotest.to_alcotest prop_crc32c_bitwise;
        ] );
      ( "varint",
        [
          Alcotest.test_case "edge ints roundtrip" `Quick test_int_roundtrip;
          QCheck_alcotest.to_alcotest prop_int_digits;
          Alcotest.test_case "nested encoders" `Quick test_nested_encoders;
        ] );
      ( "frames",
        [
          Alcotest.test_case "roundtrip" `Quick test_frame_roundtrip;
          Alcotest.test_case "stream" `Quick test_frame_stream;
          Alcotest.test_case "prefixes torn" `Quick test_frame_prefixes_torn;
          Alcotest.test_case "bitflips torn" `Quick test_frame_bitflips_torn;
          Alcotest.test_case "format-1 frame torn" `Quick test_frame_format1_torn;
          Alcotest.test_case "format-2 frame torn" `Quick test_frame_format2_torn;
          Alcotest.test_case "header kind" `Quick test_header_kind;
          Alcotest.test_case "multi-chunk checkpoints pinned" `Quick
            test_checkpoint_frames_pinned;
        ] );
      ( "archive",
        [
          Alcotest.test_case "roundtrip" `Quick test_archive_roundtrip;
          Alcotest.test_case "sharing preserved" `Quick
            test_archive_preserves_sharing;
          Alcotest.test_case "sub consumes exactly" `Quick
            test_archive_sub_consumes_exactly;
          Alcotest.test_case "garbage raises" `Quick test_archive_garbage_raises;
          Alcotest.test_case "bytes pinned" `Quick test_archive_bytes_pinned;
          Alcotest.test_case "sharing ratio kept" `Quick
            test_archive_sharing_ratio;
          Alcotest.test_case "old layout rejected" `Quick
            test_archive_old_layout_rejected;
        ] );
      ( "deltas",
        [
          Alcotest.test_case "roundtrip" `Quick test_version_delta_roundtrip;
          Alcotest.test_case "trailing raises" `Quick
            test_version_delta_trailing_raises;
          Alcotest.test_case "one-tuple write under 1 KB" `Quick
            test_version_delta_size;
          Alcotest.test_case "key changes per slot" `Quick
            test_version_delta_key_changes;
          Alcotest.test_case "negative zero kept" `Quick
            test_version_delta_negative_zero;
          Alcotest.test_case "garbage raises" `Quick
            test_version_delta_garbage_raises;
        ] );
    ]
