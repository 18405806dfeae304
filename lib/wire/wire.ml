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

external get64u : string -> int -> int64 = "%caml_string_get64u"
external swap64 : int64 -> int64 = "%bswap_int64"

(* 8 bytes at [pos] as a little-endian int64, unchecked. *)
let get64u_le s pos =
  if Sys.big_endian then swap64 (get64u s pos) else get64u s pos

(* Raw update: feed bytes into a running (pre-finalization) crc state.
   The range is checked once, so the main loop reads each 8 bytes with
   one unchecked little-endian load. *)
let crc_feed state s pos len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Wire.crc_feed";
  let t = tables () in
  let slice k v = Array.unsafe_get t ((k * 256) + (v land 0xFF)) in
  let c = ref state and i = ref pos in
  let stop8 = pos + len - 8 in
  while !i <= stop8 do
    let w = get64u_le s !i in
    let lo = !c lxor (Int64.to_int w land 0xFFFFFFFF)
    and hi = Int64.to_int (Int64.shift_right_logical w 32) in
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

(* -- the encoder ---------------------------------------------------------------

   Every payload is written by one encoder straight into fixed-size chunks.
   A tuple costs one capacity check against an upper bound on its encoded
   length and is then written with no further checks; a tuple that would
   cross the end of its chunk is written value by value, and a value that
   would cross it is written into a small staging area and copied across;
   a string longer than the staging area is copied in pieces, spanning as
   many chunks as it needs.  A frame's checksum is fed
   each chunk as it fills, while the chunk is still in cache.

   Chunks come from a per-domain pool that holds them weakly: the next
   payload encoded on the domain rewrites them unless the GC has reclaimed
   them in between, so a megabyte checkpoint taken again and again
   allocates almost nothing, a small payload allocates only its result,
   and nothing keeps a frame's bytes alive. *)

let chunk_size = 65536
let stage_size = 1024

(* Upper bounds on the bytes the [put_*] writers below emit: an int is at
   most 19 digits, a sign and ';'; "%h" writes at most 24 characters
   ("-0x1.fffffffffffffp+1023"), bounded here with room to spare. *)
let int_bound = 21

let value_bound = function
  | Value.Int _ | Value.Bool _ -> 1 + int_bound
  | Value.Str s -> 1 + int_bound + String.length s
  | Value.Real _ -> 1 + int_bound + 64

let tuple_bound tup =
  let n = ref int_bound in
  for i = 0 to Array.length tup - 1 do
    n := !n + value_bound (Array.unsafe_get tup i)
  done;
  !n

(* [put_*] write at [pos] with no capacity check and return the position
   just past what they wrote; the caller has checked the bound.  An int's
   digits come from its non-positive magnitude, which holds [min_int]
   too. *)
let rec put_digits b pos m =
  let pos = if m <= -10 then put_digits b pos (m / 10) else pos in
  Bytes.unsafe_set b pos (Char.unsafe_chr (Char.code '0' - (m mod 10)));
  pos + 1

let put_int b pos n =
  let pos =
    if n >= 0 then put_digits b pos (-n)
    else begin
      Bytes.unsafe_set b pos '-';
      put_digits b (pos + 1) n
    end
  in
  Bytes.unsafe_set b pos ';';
  pos + 1

let put_char b pos c =
  Bytes.unsafe_set b pos c;
  pos + 1

let put_str b pos s =
  let pos = put_int b pos (String.length s) in
  Bytes.blit_string s 0 b pos (String.length s);
  pos + String.length s

(* %h round-trips every finite float exactly *)
let real_repr r = Printf.sprintf "%h" r

let put_value b pos = function
  | Value.Int n -> put_int b (put_char b pos 'I') n
  | Value.Str s -> put_str b (put_char b pos 'S') s
  | Value.Bool v -> put_int b (put_char b pos 'B') (if v then 1 else 0)
  | Value.Real r -> put_str b (put_char b pos 'R') (real_repr r)

let put_tuple b pos tup =
  let pos = ref (put_int b pos (Array.length tup)) in
  for i = 0 to Array.length tup - 1 do
    pos := put_value b !pos (Array.unsafe_get tup i)
  done;
  !pos

(* A domain's chunk pool and staging area.  An encoder started inside
   another's [write] or [emit] finds them taken and allocates its own. *)
type arena = {
  mutable chunks : Bytes.t Weak.t;
  stage : Bytes.t;
  mutable taken : bool;
}

let arena =
  Domain.DLS.new_key (fun () ->
      { chunks = Weak.create 64; stage = Bytes.create stage_size;
        taken = false })

type encoder = {
  mutable buf : Bytes.t;  (* the chunk being filled *)
  mutable pos : int;  (* bytes written into [buf] *)
  mutable full : Bytes.t list;  (* the filled chunks, newest first *)
  mutable nfull : int;
  mutable crc : int;  (* running frame checksum over the filled chunks *)
  checksum : bool;
  pool : arena option;  (* where chunks come from; fresh ones if none *)
  stage : Bytes.t;
}

(* The [i]th chunk of a payload: the pool's, unless the GC took it. *)
let chunk pool i =
  match pool with
  | None -> Bytes.create chunk_size
  | Some s -> (
      let n = Weak.length s.chunks in
      if i >= n then begin
        let grown = Weak.create (max (i + 1) (2 * n)) in
        Weak.blit s.chunks 0 grown 0 n;
        s.chunks <- grown
      end;
      match Weak.get s.chunks i with
      | Some c -> c
      | None ->
          let c = Bytes.create chunk_size in
          Weak.set s.chunks i (Some c);
          c)

let with_encoder ~checksum f =
  let s = Domain.DLS.get arena in
  let own = not s.taken in
  s.taken <- true;
  let pool = if own then Some s else None in
  let stage = if own then s.stage else Bytes.create stage_size in
  match
    f { buf = chunk pool 0; pos = 0; full = []; nfull = 0; crc = crc_init;
        checksum; pool; stage }
  with
  | r ->
      if own then s.taken <- false;
      r
  | exception x ->
      let bt = Printexc.get_raw_backtrace () in
      if own then s.taken <- false;
      Printexc.raise_with_backtrace x bt

(* Seal the full chunk [e.buf] and start the next one. *)
let next_chunk e =
  if e.checksum then
    e.crc <- crc_feed e.crc (Bytes.unsafe_to_string e.buf) 0 chunk_size;
  e.full <- e.buf :: e.full;
  e.nfull <- e.nfull + 1;
  e.buf <- chunk e.pool e.nfull;
  e.pos <- 0

(* Copy [len] bytes of [src] from [off], across chunk ends. *)
let rec blit_across e src off len =
  let room = chunk_size - e.pos in
  if len <= room then begin
    Bytes.blit_string src off e.buf e.pos len;
    e.pos <- e.pos + len
  end
  else begin
    Bytes.blit_string src off e.buf e.pos room;
    e.pos <- chunk_size;
    next_chunk e;
    blit_across e src (off + room) (len - room)
  end

(* The first [len] bytes of the staging area, copied across chunk ends;
   the string view of the stage does not outlive the copy. *)
let unstage e len = blit_across e (Bytes.unsafe_to_string e.stage) 0 len

let w_char e c =
  if e.pos = chunk_size then next_chunk e;
  e.pos <- put_char e.buf e.pos c

let w_int e n =
  if e.pos + int_bound <= chunk_size then e.pos <- put_int e.buf e.pos n
  else unstage e (put_int e.stage 0 n)

let w_raw e s = blit_across e s 0 (String.length s)

let w_str e s =
  w_int e (String.length s);
  w_raw e s

let w_value e = function
  | Value.Str s when 1 + int_bound + String.length s > stage_size ->
      w_char e 'S';
      w_str e s
  | v ->
      if e.pos + value_bound v <= chunk_size then
        e.pos <- put_value e.buf e.pos v
      else unstage e (put_value e.stage 0 v)

let w_tuple e tup =
  let bound = tuple_bound tup in
  if e.pos + bound <= chunk_size then e.pos <- put_tuple e.buf e.pos tup
  else begin
    w_int e (Array.length tup);
    Array.iter (w_value e) tup
  end

let contents e =
  if e.nfull = 0 then Bytes.sub_string e.buf 0 e.pos
  else begin
    let b = Bytes.create ((e.nfull * chunk_size) + e.pos) in
    List.iteri
      (fun i c -> Bytes.blit c 0 b ((e.nfull - 1 - i) * chunk_size) chunk_size)
      e.full;
    Bytes.blit e.buf 0 b (e.nfull * chunk_size) e.pos;
    Bytes.unsafe_to_string b
  end

let encode write =
  with_encoder ~checksum:false (fun e ->
      write e;
      contents e)

let w_backend e = function
  | Relation.List_backend -> w_char e 'L'
  | Relation.Avl_backend -> w_char e 'A'
  | Relation.Two3_backend -> w_char e 'T'
  | Relation.Btree_backend k ->
      w_char e 'B';
      w_int e k
  | Relation.Column_backend k ->
      w_char e 'C';
      w_int e k

let w_schema e schema =
  w_str e (Schema.name schema);
  let cols = Schema.columns schema in
  w_int e (List.length cols);
  List.iter
    (fun (name, ctype) ->
      w_str e name;
      w_char e
        (match ctype with
        | Schema.CInt -> 'i'
        | Schema.CStr -> 's'
        | Schema.CBool -> 'b'
        | Schema.CReal -> 'r'))
    cols

let w_relation_body e rel =
  w_int e (Relation.size rel);
  Relation.iter (w_tuple e) rel

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

(* -- single-version deltas ----------------------------------------------------

   A delta is one commit's key-level changes, sized by what the commit did
   rather than by the relations it touched:

     delta  := nslots ';' slot*
     slot   := index ';' nchanges ';' change*      (ascending slot index)
     change := 'P' tuple | 'D' key-value           (ascending key)

   'P' puts a tuple (insert or rewrite of its key), 'D' deletes a key. *)

let write_version e ~prev next =
  let changed = Database.changed_slots ~old:prev next in
  w_int e (List.length changed);
  List.iter
    (fun (idx, _, old, rel) ->
      let changes = Relation.diff ~old rel in
      w_int e idx;
      w_int e (List.length changes);
      List.iter
        (function
          | (_, Some tup) ->
              w_char e 'P';
              w_tuple e tup
          | (key, None) ->
              w_char e 'D';
              w_value e key)
        changes)
    changed

let encode_version ~prev next = encode (fun e -> write_version e ~prev next)

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

(* -- archive payloads -------------------------------------------------------

   A history as one header, version 0's relations in full, and each later
   version as its delta against the one before:

     archive := magic nversions ';' nrelations ';' (schema backend)*
                body* delta*                     (nversions - 1 deltas)
     body    := ntuples ';' tuple*

   Decoding applies each delta to its decoded predecessor, so consecutive
   decoded versions share every slot and every page the source's did not
   rewrite. *)

let magic = "FDBSNAP1"

let write_archive e history =
  w_raw e magic;
  let n = History.length history in
  let v0 = History.version history 0 in
  let slots0 = Database.slots v0 in
  w_int e n;
  w_int e (List.length slots0);
  List.iter
    (fun (_, rel) ->
      w_schema e (Relation.schema rel);
      w_backend e (Relation.backend rel))
    slots0;
  List.iter (fun (_, rel) -> w_relation_body e rel) slots0;
  for i = 1 to n - 1 do
    write_version e
      ~prev:(History.version history (i - 1))
      (History.version history i)
  done

let encode_archive history = encode (fun e -> write_archive e history)

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
    List.init nrelations (fun _ ->
        let schema = r_schema r in
        let backend = r_backend r in
        (schema, backend))
  in
  let v0 =
    List.fold_left
      (fun db (schema, backend) ->
        Database.replace db (Schema.name schema)
          (r_relation_body r ~backend schema))
      (Database.create (List.map fst headers))
      headers
  in
  let history = ref (History.create v0) in
  for _ = 1 to nversions - 1 do
    let (db, next) =
      decode_version_sub ~prev:(History.latest !history) src ~pos:r.pos
    in
    r.pos <- next;
    history := History.append !history db
  done;
  (!history, r.pos)

let decode_archive src =
  let (history, next) = decode_archive_sub src ~pos:0 in
  if next <> String.length src then
    corrupt next "trailing bytes after archive";
  history

(* -- frames ------------------------------------------------------------------

   | len 4B LE | ver 1B | kind 1B | crc32c 4B LE | payload |

   The crc covers ver + kind + payload, so any bit flip past the length
   prefix is caught; a flipped length byte surfaces as a truncated payload
   or a crc mismatch.  Reading never raises: damage comes back as [Torn]. *)

type kind = Checkpoint | Differential | Delta

let format_version = '\003'
let frame_overhead = 10

let kind_char = function Checkpoint -> 'C' | Differential -> 'X' | Delta -> 'D'

let kind_of_char = function
  | 'C' -> Some Checkpoint
  | 'X' -> Some Differential
  | 'D' -> Some Delta
  | _ -> None

let header_kind s =
  if String.length s < frame_overhead || s.[4] <> format_version then None
  else kind_of_char s.[5]

(* The version and kind bytes of header [b], and the checksum state they
   start. *)
let start_header ~kind b =
  Bytes.set b 4 format_version;
  Bytes.set b 5 (kind_char kind);
  crc_feed crc_init (Bytes.unsafe_to_string b) 4 2

let finish_header b ~len crc =
  Bytes.set_int32_le b 0 (Int32.of_int len);
  Bytes.set_int32_le b 6 (Int32.of_int (crc_finish crc))

let frame ~kind payload =
  let len = String.length payload in
  let b = Bytes.create (len + frame_overhead) in
  Bytes.blit_string payload 0 b frame_overhead len;
  finish_header b ~len (crc_feed (start_header ~kind b) payload 0 len);
  Bytes.unsafe_to_string b

(* The payload's chunks are all written before the header can be: its
   length and checksum cover them.  A frame that fits one chunk goes out
   as one string; a longer one as its header, then its full chunks as
   they are, then a copy of the partly filled last one. *)
let write_frame ~kind write emit =
  with_encoder ~checksum:true (fun e ->
      let hd = Bytes.create frame_overhead in
      e.crc <- start_header ~kind hd;
      write e;
      let len = (e.nfull * chunk_size) + e.pos in
      finish_header hd ~len
        (crc_feed e.crc (Bytes.unsafe_to_string e.buf) 0 e.pos);
      if e.nfull = 0 then begin
        let b = Bytes.create (frame_overhead + len) in
        Bytes.blit hd 0 b 0 frame_overhead;
        Bytes.blit e.buf 0 b frame_overhead len;
        emit (Bytes.unsafe_to_string b)
      end
      else begin
        emit (Bytes.unsafe_to_string hd);
        List.iter (fun c -> emit (Bytes.unsafe_to_string c)) (List.rev e.full);
        if e.pos = chunk_size then emit (Bytes.unsafe_to_string e.buf)
        else if e.pos > 0 then emit (Bytes.sub_string e.buf 0 e.pos)
      end;
      frame_overhead + len)

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
