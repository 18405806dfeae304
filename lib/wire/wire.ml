open Fdb_relational
module History = Fdb_txn.History

exception Corrupt of { offset : int; reason : string }

let corrupt offset fmt =
  Format.kasprintf (fun reason -> raise (Corrupt { offset; reason })) fmt

(* -- CRC32c (Castagnoli), table-driven, reflected -------------------------

   The state is a native int holding 32 bits, so the loops allocate
   nothing.  Table [k] (entries [256k .. 256k+255]) advances a byte [k]
   positions further than table 0, the classic byte table, so the main
   loop folds eight bytes per step ("slicing-by-8").  The tables are built
   on first use, so a program that never checksums never holds them;
   domains racing on that first use each build identical tables, and
   either may publish — no lock, and no [Lazy.Undefined] on a pool
   domain. *)

let crc_tables = Atomic.make [||]

let crc_byte t c byte = Array.unsafe_get t ((c lxor byte) land 0xFF) lxor (c lsr 8)

let tables () =
  let t = Atomic.get crc_tables in
  if Array.length t > 0 then t
  else begin
    let t = Array.make (8 * 256) 0 in
    for n = 0 to 255 do
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then (!c lsr 1) lxor 0x82F63B78 else !c lsr 1
      done;
      t.(n) <- !c
    done;
    for i = 256 to (8 * 256) - 1 do
      t.(i) <- crc_byte t t.(i - 256) 0
    done;
    Atomic.set crc_tables t;
    t
  end

(* An unsigned 32-bit little-endian field as a native int. *)
let le32 s pos = Int32.to_int (String.get_int32_le s pos) land 0xFFFFFFFF

(* Raw update: feed bytes into a running (pre-finalization) crc state. *)
let crc_feed state s pos len =
  let t = tables () in
  let slice k v = Array.unsafe_get t ((k * 256) + (v land 0xFF)) in
  let c = ref state and i = ref pos in
  let stop8 = pos + len - 8 in
  while !i <= stop8 do
    let lo = !c lxor le32 s !i and hi = le32 s (!i + 4) in
    c :=
      slice 7 lo
      lxor slice 6 (lo lsr 8)
      lxor slice 5 (lo lsr 16)
      lxor slice 4 (lo lsr 24)
      lxor slice 3 hi
      lxor slice 2 (hi lsr 8)
      lxor slice 1 (hi lsr 16)
      lxor slice 0 (hi lsr 24);
    i := !i + 8
  done;
  for j = !i to pos + len - 1 do
    c := crc_byte t !c (Char.code s.[j])
  done;
  !c

let crc_init = 0xFFFFFFFF
let crc_finish c = c lxor 0xFFFFFFFF
let crc32c s = Int32.of_int (crc_finish (crc_feed crc_init s 0 (String.length s)))

(* -- writer primitives ----------------------------------------------------- *)

(* Decimal digits straight into [b], the same bytes as [string_of_int]
   but with no intermediate string: the recursion (at most 19 deep) holds
   the higher digits, so no buffer is shared between callers.  Digits come
   from the non-positive magnitude, which holds [min_int] too. *)
let rec w_digits b m =
  if m <= -10 then w_digits b (m / 10);
  Buffer.add_char b (Char.unsafe_chr (Char.code '0' - (m mod 10)))

let w_int b n =
  if n < 0 then begin
    Buffer.add_char b '-';
    w_digits b n
  end
  else w_digits b (-n);
  Buffer.add_char b ';'

let w_str b s =
  w_int b (String.length s);
  Buffer.add_string b s

let w_value b = function
  | Value.Int n ->
      Buffer.add_char b 'I';
      w_int b n
  | Value.Str s ->
      Buffer.add_char b 'S';
      w_str b s
  | Value.Bool v ->
      Buffer.add_char b 'B';
      w_int b (if v then 1 else 0)
  | Value.Real r ->
      Buffer.add_char b 'R';
      (* %h round-trips every finite float exactly *)
      w_str b (Printf.sprintf "%h" r)

let w_tuple b tup =
  w_int b (Tuple.arity tup);
  for i = 0 to Tuple.arity tup - 1 do
    w_value b (Tuple.get tup i)
  done

let w_backend b = function
  | Relation.List_backend -> Buffer.add_char b 'L'
  | Relation.Avl_backend -> Buffer.add_char b 'A'
  | Relation.Two3_backend -> Buffer.add_char b 'T'
  | Relation.Btree_backend k ->
      Buffer.add_char b 'B';
      w_int b k
  | Relation.Column_backend k ->
      Buffer.add_char b 'C';
      w_int b k

let w_schema b schema =
  w_str b (Schema.name schema);
  let cols = Schema.columns schema in
  w_int b (List.length cols);
  List.iter
    (fun (name, ctype) ->
      w_str b name;
      Buffer.add_char b
        (match ctype with
        | Schema.CInt -> 'i'
        | Schema.CStr -> 's'
        | Schema.CBool -> 'b'
        | Schema.CReal -> 'r'))
    cols

let w_relation_body b rel =
  w_int b (Relation.size rel);
  Relation.iter (w_tuple b) rel

let write_int = w_int

(* -- reader primitives ------------------------------------------------------

   Positions are absolute offsets into [src], so every [Corrupt] carries a
   byte offset the caller can report against the original input. *)

type reader = { src : string; mutable pos : int }

let r_char r =
  if r.pos >= String.length r.src then
    corrupt r.pos "truncated (wanted 1 more byte)";
  let c = r.src.[r.pos] in
  r.pos <- r.pos + 1;
  c

let r_int r =
  let start = r.pos in
  while r.pos < String.length r.src && r.src.[r.pos] <> ';' do
    r.pos <- r.pos + 1
  done;
  if r.pos >= String.length r.src then corrupt start "unterminated int";
  let s = String.sub r.src start (r.pos - start) in
  r.pos <- r.pos + 1;
  match int_of_string_opt s with
  | Some n -> n
  | None -> corrupt start "bad int %S" s

let read_int src ~pos =
  let r = { src; pos } in
  let n = r_int r in
  (n, r.pos)

let r_str r =
  let at = r.pos in
  let len = r_int r in
  if len < 0 || r.pos + len > String.length r.src then
    corrupt at "bad string length %d" len;
  let s = String.sub r.src r.pos len in
  r.pos <- r.pos + len;
  s

let r_value r =
  let at = r.pos in
  match r_char r with
  | 'I' -> Value.Int (r_int r)
  | 'S' -> Value.Str (r_str r)
  | 'B' -> Value.Bool (r_int r <> 0)
  | 'R' -> (
      match float_of_string_opt (r_str r) with
      | Some f -> Value.Real f
      | None -> corrupt at "bad float")
  | c -> corrupt at "bad value tag %C" c

let r_tuple r =
  let at = r.pos in
  let arity = r_int r in
  if arity < 1 then corrupt at "bad arity %d" arity;
  Tuple.make (List.init arity (fun _ -> r_value r))

let r_backend r =
  let at = r.pos in
  match r_char r with
  | 'L' -> Relation.List_backend
  | 'A' -> Relation.Avl_backend
  | 'T' -> Relation.Two3_backend
  | 'B' -> Relation.Btree_backend (r_int r)
  | 'C' -> Relation.Column_backend (r_int r)
  | c -> corrupt at "bad backend tag %C" c

let r_schema r =
  let at = r.pos in
  let name = r_str r in
  let ncols = r_int r in
  if ncols < 0 then corrupt at "bad column count %d" ncols;
  let cols =
    List.init ncols (fun _ ->
        let cname = r_str r in
        let ctype =
          let cat = r.pos in
          match r_char r with
          | 'i' -> Schema.CInt
          | 's' -> Schema.CStr
          | 'b' -> Schema.CBool
          | 'r' -> Schema.CReal
          | c -> corrupt cat "bad column type %C" c
        in
        (cname, ctype))
  in
  try Schema.make ~name ~cols
  with Invalid_argument m -> corrupt at "bad schema: %s" m

let r_relation_body r ~backend schema =
  let at = r.pos in
  let count = r_int r in
  if count < 0 then corrupt at "bad tuple count %d" count;
  let tuples = List.init count (fun _ -> r_tuple r) in
  match Relation.of_tuples ~backend schema tuples with
  | Ok rel -> rel
  | Error m -> corrupt at "bad relation body: %s" m

(* -- archive payloads ------------------------------------------------------- *)

let magic = "FDBSNAP1"

let write_archive ?(changed_only = true) b history =
  Buffer.add_string b magic;
  let n = History.length history in
  let v0 = History.version history 0 in
  let slots0 = Database.slots v0 in
  w_int b n;
  w_int b (List.length slots0);
  List.iter
    (fun (_, rel) ->
      w_schema b (Relation.schema rel);
      w_backend b (Relation.backend rel))
    slots0;
  (* version 0: everything *)
  List.iter (fun (_, rel) -> w_relation_body b rel) slots0;
  (* later versions: indices of replaced slots, then their bodies *)
  for i = 1 to n - 1 do
    let after = History.version history i in
    let changed =
      if changed_only then
        List.map
          (fun (idx, _, _, rel) -> (idx, rel))
          (Database.changed_slots ~old:(History.version history (i - 1)) after)
      else List.mapi (fun idx (_, rel) -> (idx, rel)) (Database.slots after)
    in
    w_int b (List.length changed);
    List.iter
      (fun (idx, rel) ->
        w_int b idx;
        w_relation_body b rel)
      changed
  done

let encode_archive ?changed_only history =
  let b = Buffer.create 4096 in
  write_archive ?changed_only b history;
  Buffer.contents b

let decode_archive_sub src ~pos =
  let r = { src; pos } in
  if
    pos + String.length magic > String.length src
    || String.sub src pos (String.length magic) <> magic
  then corrupt pos "bad magic";
  r.pos <- pos + String.length magic;
  let nversions = r_int r in
  if nversions < 1 then corrupt pos "empty archive";
  let nrelations = r_int r in
  if nrelations < 0 then corrupt pos "bad relation count %d" nrelations;
  let headers =
    Array.init nrelations (fun _ ->
        let schema = r_schema r in
        let backend = r_backend r in
        (schema, backend))
  in
  let schemas = Array.to_list (Array.map fst headers) in
  let v0 =
    Array.fold_left
      (fun db (schema, backend) ->
        Database.replace db (Schema.name schema)
          (r_relation_body r ~backend schema))
      (Database.create schemas) headers
  in
  let history = ref (History.create v0) in
  let current = ref v0 in
  for _ = 1 to nversions - 1 do
    let at = r.pos in
    let nchanged = r_int r in
    if nchanged < 0 || nchanged > nrelations then
      corrupt at "bad change count %d" nchanged;
    let db = ref !current in
    for _ = 1 to nchanged do
      let iat = r.pos in
      let idx = r_int r in
      if idx < 0 || idx >= nrelations then
        corrupt iat "bad relation index %d" idx;
      let (schema, backend) = headers.(idx) in
      db :=
        Database.replace !db (Schema.name schema)
          (r_relation_body r ~backend schema)
    done;
    current := !db;
    history := History.append !history !db
  done;
  (!history, r.pos)

let decode_archive src =
  let (history, next) = decode_archive_sub src ~pos:0 in
  if next <> String.length src then
    corrupt next "trailing bytes after archive";
  history

(* -- single-version deltas ----------------------------------------------------

   A delta is one commit's key-level changes, sized by what the commit did
   rather than by the relations it touched:

     delta  := nslots ';' slot*
     slot   := index ';' nchanges ';' change*      (ascending slot index)
     change := 'P' tuple | 'D' key-value           (ascending key)

   'P' puts a tuple (insert or rewrite of its key), 'D' deletes a key. *)

let encode_version ~prev next =
  let b = Buffer.create 64 in
  let changed = Database.changed_slots ~old:prev next in
  w_int b (List.length changed);
  List.iter
    (fun (idx, _, old, rel) ->
      let changes = Relation.diff ~old rel in
      w_int b idx;
      w_int b (List.length changes);
      List.iter
        (function
          | (_, Some tup) ->
              Buffer.add_char b 'P';
              w_tuple b tup
          | (key, None) ->
              Buffer.add_char b 'D';
              w_value b key)
        changes)
    changed;
  Buffer.contents b

let r_change r =
  let at = r.pos in
  match r_char r with
  | 'P' ->
      let tup = r_tuple r in
      (Tuple.key tup, Some tup)
  | 'D' -> (r_value r, None)
  | c -> corrupt at "bad change tag %C" c

(* The slots of a delta as [(offset, index, changes)], unchecked against
   any base version. *)
let r_delta r =
  let at = r.pos in
  let nslots = r_int r in
  if nslots < 0 then corrupt at "bad change count %d" nslots;
  List.init nslots (fun _ ->
      let sat = r.pos in
      let idx = r_int r in
      let cat = r.pos in
      let nchanges = r_int r in
      if nchanges < 0 then corrupt cat "bad key change count %d" nchanges;
      (sat, idx, List.init nchanges (fun _ -> r_change r)))

let delta_key_changes src ~pos =
  List.map
    (fun (_, idx, changes) -> (idx, List.length changes))
    (r_delta { src; pos })

let decode_version_sub ~prev src ~pos =
  let r = { src; pos } in
  let slots = Array.of_list (Database.slots prev) in
  let nrels = Array.length slots in
  let at = r.pos in
  let delta = r_delta r in
  if List.length delta > nrels then
    corrupt at "bad change count %d" (List.length delta);
  let db =
    List.fold_left
      (fun db (sat, idx, changes) ->
        if idx < 0 || idx >= nrels then corrupt sat "bad relation index %d" idx;
        let (name, rel) = slots.(idx) in
        match Relation.apply_diff rel changes with
        | Ok rel' -> Database.replace db name rel'
        | Error m -> corrupt sat "bad key changes: %s" m)
      prev delta
  in
  (db, r.pos)

let decode_version ~prev src =
  let (db, next) = decode_version_sub ~prev src ~pos:0 in
  if next <> String.length src then corrupt next "trailing bytes after delta";
  db

(* -- chunked column payloads -------------------------------------------------

   A whole relation as a header frame plus one frame per chunk, the chunk
   bodies column-major and typed by the schema (no per-value tags — the
   column layout pays for itself on the wire).  A [Column_backend] relation
   serializes its actual chunks; any other backend is packed into fixed
   256-row runs, so the format is backend-agnostic. *)

let column_magic = "FDBCOL1"

let generic_chunk_rows = 256

let w_col_value b ctype v =
  match (ctype, v) with
  | (Schema.CInt, Value.Int n) -> w_int b n
  | (Schema.CStr, Value.Str s) -> w_str b s
  | (Schema.CBool, Value.Bool v) -> Buffer.add_char b (if v then '1' else '0')
  | (Schema.CReal, Value.Real v) -> w_str b (Printf.sprintf "%h" v)
  | _ -> invalid_arg "Wire.encode_chunked: value does not match its column"

let r_col_value r ctype =
  match ctype with
  | Schema.CInt -> Value.Int (r_int r)
  | Schema.CStr -> Value.Str (r_str r)
  | Schema.CBool -> (
      let at = r.pos in
      match r_char r with
      | '0' -> Value.Bool false
      | '1' -> Value.Bool true
      | c -> corrupt at "bad packed bool %C" c)
  | Schema.CReal -> (
      let at = r.pos in
      match float_of_string_opt (r_str r) with
      | Some f -> Value.Real f
      | None -> corrupt at "bad packed float")

(* -- frames ------------------------------------------------------------------

   | len 4B LE | ver 1B | kind 1B | crc32c 4B LE | payload |

   The crc covers ver + kind + payload, so any bit flip past the length
   prefix is caught; a flipped length byte surfaces as a truncated payload
   or a crc mismatch.  Reading never raises: damage comes back as [Torn]. *)

type kind = Checkpoint | Delta

let format_version = '\002'
let frame_overhead = 10

let kind_char = function Checkpoint -> 'C' | Delta -> 'D'
let kind_of_char = function 'C' -> Some Checkpoint | 'D' -> Some Delta | _ -> None

(* Fill in the header of [b], whose payload is already in place past the
   first [frame_overhead] bytes. *)
let seal ~kind b =
  let len = Bytes.length b - frame_overhead in
  Bytes.set_int32_le b 0 (Int32.of_int len);
  Bytes.set b 4 format_version;
  Bytes.set b 5 (kind_char kind);
  let s = Bytes.unsafe_to_string b in
  let crc = crc_feed (crc_feed crc_init s 4 2) s frame_overhead len in
  Bytes.set_int32_le b 6 (Int32.of_int (crc_finish crc));
  Bytes.unsafe_to_string b

let frame ~kind payload =
  let len = String.length payload in
  let b = Bytes.create (len + frame_overhead) in
  Bytes.blit_string payload 0 b frame_overhead len;
  seal ~kind b

let frame_with ?(size = 256) ~kind write =
  let b = Buffer.create (frame_overhead + size) in
  Buffer.add_string b (String.make frame_overhead '\000');
  write b;
  seal ~kind (Buffer.to_bytes b)

type frame_result =
  | Frame of { kind : kind; payload : string; next : int }
  | End_of_input
  | Torn of { offset : int; reason : string }

let torn offset fmt =
  Format.kasprintf (fun reason -> Torn { offset; reason }) fmt

let read_frame src ~pos =
  let len_src = String.length src in
  if pos < 0 || pos > len_src then invalid_arg "Wire.read_frame: bad pos"
  else if pos = len_src then End_of_input
  else if pos + frame_overhead > len_src then
    torn pos "truncated frame header (%d of %d bytes)" (len_src - pos)
      frame_overhead
  else
    let plen = le32 src pos in
    if plen >= 0x7FFFFFFF then torn pos "implausible payload length"
    else
      if src.[pos + 4] <> format_version then
        torn (pos + 4) "unknown format version %d" (Char.code src.[pos + 4])
      else
        match kind_of_char src.[pos + 5] with
        | None -> torn (pos + 5) "unknown frame kind %C" src.[pos + 5]
        | Some kind ->
            if pos + frame_overhead + plen > len_src then
              torn
                (pos + frame_overhead)
                "truncated payload (%d of %d bytes)"
                (len_src - pos - frame_overhead)
                plen
            else
              let stored = le32 src (pos + 6) in
              let crc =
                crc_finish
                  (crc_feed
                     (crc_feed crc_init src (pos + 4) 2)
                     src
                     (pos + frame_overhead)
                     plen)
              in
              if crc <> stored then
                torn pos "checksum mismatch (stored %08x, computed %08x)"
                  stored crc
              else
                Frame
                  {
                    kind;
                    payload = String.sub src (pos + frame_overhead) plen;
                    next = pos + frame_overhead + plen;
                  }

let encode_chunked rel =
  let schema = Relation.schema rel in
  let ctypes = Array.of_list (List.map snd (Schema.columns schema)) in
  let ncols = Array.length ctypes in
  let chunks =
    match Relation.backend rel with
    | Relation.Column_backend _ -> Relation.column_chunks rel
    | _ ->
        let tuples = Array.of_list (Relation.to_list rel) in
        let n = Array.length tuples in
        let nchunks = (n + generic_chunk_rows - 1) / generic_chunk_rows in
        Array.init nchunks (fun ci ->
            let lo = ci * generic_chunk_rows in
            let len = min generic_chunk_rows (n - lo) in
            Array.init ncols (fun j ->
                Array.init len (fun i -> Tuple.get tuples.(lo + i) j)))
  in
  let header = Buffer.create 64 in
  Buffer.add_string header column_magic;
  w_schema header schema;
  w_backend header (Relation.backend rel);
  w_int header (Array.length chunks);
  w_int header (Relation.size rel);
  let out = Buffer.create 4096 in
  Buffer.add_string out (frame ~kind:Checkpoint (Buffer.contents header));
  Array.iter
    (fun cols ->
      if Array.length cols <> ncols then
        invalid_arg "Wire.encode_chunked: chunk width differs from the schema";
      let rows = if ncols = 0 then 0 else Array.length cols.(0) in
      let b = Buffer.create (rows * 8) in
      w_int b rows;
      Array.iteri
        (fun j col ->
          if Array.length col <> rows then
            invalid_arg "Wire.encode_chunked: ragged chunk";
          Array.iter (w_col_value b ctypes.(j)) col)
        cols;
      Buffer.add_string out (frame ~kind:Delta (Buffer.contents b)))
    chunks;
  Buffer.contents out

(* Validate the frame at [pos] (CRC) and hand back an in-place reader over
   its payload, so [Corrupt] offsets stay absolute in [src]. *)
let chunk_frame src ~pos ~expect =
  match read_frame src ~pos with
  | End_of_input -> corrupt pos "truncated chunk stream"
  | Torn { offset; reason } -> corrupt offset "torn frame: %s" reason
  | Frame { kind; next; _ } ->
      if kind <> expect then corrupt pos "unexpected frame kind";
      ({ src; pos = pos + frame_overhead }, next)

let decode_chunked src =
  let (r, next) = chunk_frame src ~pos:0 ~expect:Checkpoint in
  let at = r.pos in
  if
    r.pos + String.length column_magic > String.length src
    || String.sub src r.pos (String.length column_magic) <> column_magic
  then corrupt at "bad magic";
  r.pos <- r.pos + String.length column_magic;
  let schema = r_schema r in
  let backend = r_backend r in
  let nchunks = r_int r in
  if nchunks < 0 then corrupt at "bad chunk count %d" nchunks;
  let nrows = r_int r in
  if nrows < 0 then corrupt at "bad row count %d" nrows;
  if r.pos <> next then corrupt r.pos "trailing bytes in chunk header";
  let ctypes = Array.of_list (List.map snd (Schema.columns schema)) in
  let ncols = Array.length ctypes in
  let pos = ref next in
  let tuples = ref [] in
  let total = ref 0 in
  for _ = 1 to nchunks do
    let (r, next) = chunk_frame src ~pos:!pos ~expect:Delta in
    let at = r.pos in
    let rows = r_int r in
    if rows < 0 then corrupt at "bad chunk row count %d" rows;
    let cols =
      Array.map (fun ctype -> Array.init rows (fun _ -> r_col_value r ctype)) ctypes
    in
    if r.pos <> next then corrupt r.pos "trailing bytes in chunk";
    for i = rows - 1 downto 0 do
      tuples := Tuple.make (List.init ncols (fun j -> cols.(j).(i))) :: !tuples
    done;
    total := !total + rows;
    pos := next
  done;
  (match read_frame src ~pos:!pos with
  | End_of_input -> ()
  | Torn { offset; reason } -> corrupt offset "torn frame: %s" reason
  | Frame _ -> corrupt !pos "trailing bytes after chunk stream");
  if !total <> nrows then
    corrupt !pos "row count mismatch (header %d, chunks %d)" nrows !total;
  match Relation.of_tuples ~backend schema (List.rev !tuples) with
  | Ok rel -> rel
  | Error m -> corrupt 0 "bad chunked relation: %s" m
