module History = Fdb_txn.History
module Wire = Fdb_wire.Wire
module Event = Fdb_obs.Event
module Trace = Fdb_obs.Trace
module Metrics = Fdb_obs.Metrics

let m_appends = Metrics.counter "wal.appends"
let m_syncs = Metrics.counter "wal.syncs"
let m_ckpts = Metrics.counter "wal.checkpoints"
let m_seg_deletes = Metrics.counter "wal.segments_deleted"
let m_replays = Metrics.counter "wal.replays"
let m_recoveries = Metrics.counter "wal.recoveries"
let h_frame_bytes = Metrics.histogram "wal.frame_bytes"
let h_recovered = Metrics.histogram "wal.recovered_versions"

let emit kind = if Trace.enabled () then Trace.emit kind

(* -- stores ----------------------------------------------------------------- *)

module Store = struct
  type t = {
    append : string -> string -> unit;
    sync : string -> unit;
    read : string -> string option;
    list_files : unit -> string list;
    remove : string -> unit;
    close : unit -> unit;
  }
end

module Mem = struct
  type file = { buf : Buffer.t; mutable synced : int }
  type t = { files : (string, file) Hashtbl.t }

  let create () = { files = Hashtbl.create 8 }

  let file m name =
    match Hashtbl.find_opt m.files name with
    | Some f -> f
    | None ->
        let f = { buf = Buffer.create 256; synced = 0 } in
        Hashtbl.replace m.files name f;
        f

  let store m =
    {
      Store.append =
        (fun name bytes -> Buffer.add_string (file m name).buf bytes);
      sync =
        (fun name ->
          let f = file m name in
          f.synced <- Buffer.length f.buf);
      read =
        (fun name ->
          Option.map
            (fun f -> Buffer.contents f.buf)
            (Hashtbl.find_opt m.files name));
      list_files =
        (fun () ->
          List.sort compare
            (Hashtbl.fold (fun k _ acc -> k :: acc) m.files []));
      remove = (fun name -> Hashtbl.remove m.files name);
      close = ignore;
    }

  (* The torn-write fault model: the synced prefix survives; of the
     unsynced suffix, a random prefix made it to "disk" before the kill. *)
  let crash ~rand m =
    Hashtbl.iter
      (fun _ f ->
        let unsynced = Buffer.length f.buf - f.synced in
        if unsynced > 0 then
          Buffer.truncate f.buf (f.synced + Random.State.int rand (unsynced + 1)))
      m.files

  let synced m name =
    match Hashtbl.find_opt m.files name with Some f -> f.synced | None -> 0

  let get m name =
    match Hashtbl.find_opt m.files name with
    | Some f -> Buffer.contents f.buf
    | None -> ""

  let set m name s =
    let f = file m name in
    Buffer.clear f.buf;
    Buffer.add_string f.buf s;
    f.synced <- min f.synced (String.length s)
end

module Fs = struct
  let store ~dir =
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let handles : (string, out_channel) Hashtbl.t = Hashtbl.create 4 in
    let path name = Filename.concat dir name in
    let out name =
      match Hashtbl.find_opt handles name with
      | Some oc -> oc
      | None ->
          let oc =
            open_out_gen
              [ Open_append; Open_creat; Open_binary ]
              0o644 (path name)
          in
          Hashtbl.replace handles name oc;
          oc
    in
    let flush_of name =
      match Hashtbl.find_opt handles name with
      | Some oc -> flush oc
      | None -> ()
    in
    {
      Store.append = (fun name bytes -> output_string (out name) bytes);
      sync = flush_of;
      read =
        (fun name ->
          flush_of name;
          if Sys.file_exists (path name) then
            Some (In_channel.with_open_bin (path name) In_channel.input_all)
          else None);
      list_files =
        (fun () ->
          if Sys.file_exists dir then
            List.sort compare (Array.to_list (Sys.readdir dir))
          else []);
      remove =
        (fun name ->
          (match Hashtbl.find_opt handles name with
          | Some oc ->
              close_out_noerr oc;
              Hashtbl.remove handles name
          | None -> ());
          if Sys.file_exists (path name) then Sys.remove (path name));
      close =
        (fun () ->
          Hashtbl.iter (fun _ oc -> close_out_noerr oc) handles;
          Hashtbl.reset handles);
    }
end

(* -- segment naming --------------------------------------------------------- *)

let segment_name n = Printf.sprintf "seg-%06d.wal" n
let seg_name = segment_name

let segment_number name =
  if
    String.length name = 14
    && String.sub name 0 4 = "seg-"
    && String.sub name 10 4 = ".wal"
  then int_of_string_opt (String.sub name 4 6)
  else None

(* -- writer ------------------------------------------------------------------ *)

(* A checkpoint is a base at least every [base_every] checkpoints, and
   whenever the differential would pass a quarter of the base's bytes. *)
let base_every = 16
let base_fraction = 4

type writer = {
  store : Store.t;
  sync_every : int;
  checkpoint_every : int;
  mutable latest : Fdb_relational.Database.t;  (* version [appended] only *)
  mutable base : Fdb_relational.Database.t;  (* the newest base's state *)
  mutable base_upto : int;  (* the version it covers *)
  mutable base_seg : int;  (* the segment it heads *)
  mutable base_bytes : int;  (* its frame length *)
  mutable since_base : int;  (* differentials written since it *)
  mutable appended : int;
  mutable durable : int;
  mutable seg : int;
  mutable unsynced : int;  (* appends since the last sync *)
  mutable since_ckpt : int;
}

let appended w = w.appended
let durable w = w.durable
let segment w = w.seg
let latest w = w.latest
let base w = w.base

(* Sync the head frame just written to segment [seg], then report it. *)
let head_down store ~seg ~upto bytes =
  store.Store.sync (seg_name seg);
  emit (Event.Wal_checkpoint { upto; bytes; segment = seg });
  Metrics.incr m_ckpts;
  Metrics.observe h_frame_bytes bytes

(* Write and sync a base as the head of segment [seg]: the covered version
   index, then a one-version archive of that database, handed to the store
   chunk by chunk. *)
let write_base store ~seg ~upto db =
  let bytes =
    Wire.write_frame ~kind:Wire.Checkpoint
      (fun e ->
        Wire.write_int e upto;
        Wire.write_archive e (History.create db))
      (store.Store.append (seg_name seg))
  in
  head_down store ~seg ~upto bytes;
  bytes

(* Old segments go only after the new head is down and synced; the
   segment of the newest base, [keep], stays while a differential needs
   it. *)
let delete_older store ~than ~keep =
  List.iter
    (fun name ->
      match segment_number name with
      | Some n when n < than && n <> keep ->
          store.Store.remove name;
          emit (Event.Wal_segment_delete { segment = n });
          Metrics.incr m_seg_deletes
      | _ -> ())
    (store.Store.list_files ())

let sync w =
  if w.durable < appended w || w.unsynced > 0 then begin
    w.store.Store.sync (seg_name w.seg);
    w.durable <- appended w;
    w.unsynced <- 0;
    Metrics.incr m_syncs;
    emit (Event.Wal_sync { upto = w.durable })
  end

(* The differential payload for a checkpoint at [upto] — the covered
   version, the base's version, and the key-level changes from the base —
   or [None] when the checkpoint must be a base. *)
let differential w ~upto =
  if w.since_base + 1 >= base_every then None
  else
    let payload =
      Wire.encode (fun e ->
          Wire.write_int e upto;
          Wire.write_int e w.base_upto;
          Wire.write_version e ~prev:w.base w.latest)
    in
    let bytes = Wire.frame_overhead + String.length payload in
    if base_fraction * bytes > w.base_bytes then None else Some payload

let checkpoint w =
  sync w;
  let upto = appended w in
  let seg = w.seg + 1 in
  (match differential w ~upto with
  | Some payload ->
      let frame = Wire.frame ~kind:Wire.Differential payload in
      w.store.Store.append (seg_name seg) frame;
      head_down w.store ~seg ~upto (String.length frame);
      w.since_base <- w.since_base + 1
  | None ->
      w.base_bytes <- write_base w.store ~seg ~upto w.latest;
      w.base <- w.latest;
      w.base_upto <- upto;
      w.base_seg <- seg;
      w.since_base <- 0);
  w.seg <- seg;
  w.since_ckpt <- 0;
  delete_older w.store ~than:seg ~keep:w.base_seg

let make ?(sync_every = 1) ?(checkpoint_every = 0) ~store ~first ~seg db =
  if sync_every < 0 then invalid_arg "Wal.create: sync_every < 0";
  if checkpoint_every < 0 then invalid_arg "Wal.create: checkpoint_every < 0";
  let base_bytes = write_base store ~seg ~upto:first db in
  delete_older store ~than:seg ~keep:seg;
  {
    store;
    sync_every;
    checkpoint_every;
    latest = db;
    base = db;
    base_upto = first;
    base_seg = seg;
    base_bytes;
    since_base = 0;
    appended = first;
    durable = first;
    seg;
    unsynced = 0;
    since_ckpt = 0;
  }

let create ?sync_every ?checkpoint_every ~store db =
  make ?sync_every ?checkpoint_every ~store ~first:0 ~seg:0 db

let append w db =
  let prev = w.latest in
  let idx = w.appended + 1 in
  let bytes =
    Wire.write_frame ~kind:Wire.Delta
      (fun e ->
        Wire.write_int e idx;
        Wire.write_version e ~prev db)
      (w.store.Store.append (seg_name w.seg))
  in
  w.latest <- db;
  w.appended <- idx;
  w.unsynced <- w.unsynced + 1;
  w.since_ckpt <- w.since_ckpt + 1;
  Metrics.incr m_appends;
  Metrics.observe h_frame_bytes bytes;
  emit (Event.Wal_append { index = idx; bytes });
  if w.sync_every > 0 && w.unsynced >= w.sync_every then sync w;
  if w.checkpoint_every > 0 && w.since_ckpt >= w.checkpoint_every then
    checkpoint w

(* -- recovery ---------------------------------------------------------------- *)

type stop_reason = Clean | Stopped of { offset : int; reason : string }

let pp_stop ppf = function
  | Clean -> Format.fprintf ppf "clean"
  | Stopped { offset; reason } ->
      Format.fprintf ppf "stopped at byte %d: %s" offset reason

type recovery = {
  rhistory : History.t;
  base : int;
  upto : int;
  segments : int;
  stop : stop_reason;
}

let corrupt offset reason = raise (Wire.Corrupt { offset; reason })

(* Parse a base payload: covered version index + 1-version archive. *)
let parse_base payload =
  let (upto, p) = Wire.read_int payload ~pos:0 in
  let (h, next) = Wire.decode_archive_sub payload ~pos:p in
  if next <> String.length payload then
    corrupt next "trailing bytes in checkpoint payload";
  (upto, History.latest h)

(* The head frame of segment [name], if it is whole. *)
let head (store : Store.t) name =
  match store.Store.read name with
  | None -> None
  | Some content -> (
      match Wire.read_frame content ~pos:0 with
      | Wire.Frame { kind; payload; next } -> Some (content, kind, payload, next)
      | Wire.End_of_input | Wire.Torn _ -> None)

(* The newest segment among [older] headed by an intact base that covers
   version [v]. *)
let rec find_base store v = function
  | [] -> None
  | (_, name) :: rest -> (
      match head store name with
      | Some (_, Wire.Checkpoint, payload, _) ->
          let (upto, _) = Wire.read_int payload ~pos:0 in
          if upto = v then Some (snd (parse_base payload))
          else find_base store v rest
      | Some _ | None -> find_base store v rest)

let recover (store : Store.t) =
  let segs =
    List.sort
      (fun (a, _) (b, _) -> compare b a)
      (List.filter_map
         (fun name -> Option.map (fun n -> (n, name)) (segment_number name))
         (store.Store.list_files ()))
  in
  if segs = [] then corrupt 0 "no log segments";
  (* Newest segment whose head is intact.  A torn head means the crash hit
     mid-checkpoint, before the old segments were deleted — nothing in
     that segment was ever promised durable.  A differential head is
     rebuilt on its base, which an older segment heads; without that base
     the segment is passed over like a torn one. *)
  let rec choose = function
    | [] -> corrupt 0 "no segment with an intact checkpoint"
    | (_, name) :: rest -> (
        match head store name with
        | Some (content, Wire.Checkpoint, payload, next) ->
            let (base, db) = parse_base payload in
            (content, next, base, db)
        | Some (content, Wire.Differential, payload, next) -> (
            let (upto, p) = Wire.read_int payload ~pos:0 in
            let (base_upto, p) = Wire.read_int payload ~pos:p in
            match find_base store base_upto rest with
            | None -> choose rest
            | Some base ->
                let (db, consumed) =
                  Wire.decode_version_sub ~prev:base payload ~pos:p
                in
                if consumed <> String.length payload then
                  corrupt consumed "trailing bytes in differential payload";
                (content, next, upto, db))
        | Some (_, Wire.Delta, _, _) | None -> choose rest)
  in
  let (content, start, base, db0) = choose segs in
  let hist = ref (History.create db0) in
  let nextv = ref (base + 1) in
  let stop = ref Clean in
  let pos = ref start in
  let running = ref true in
  while !running do
    match Wire.read_frame content ~pos:!pos with
    | Wire.End_of_input -> running := false
    | Wire.Torn { offset; reason } ->
        stop := Stopped { offset; reason };
        running := false
    | Wire.Frame { kind = Wire.Checkpoint | Wire.Differential; _ } ->
        (* A checkpoint can only head a segment; one mid-segment is a
           duplicated or misdirected frame — stop before it. *)
        stop := Stopped { offset = !pos; reason = "unexpected checkpoint frame" };
        running := false
    | Wire.Frame { kind = Wire.Delta; payload; next } ->
        let (idx, p) = Wire.read_int payload ~pos:0 in
        if idx <> !nextv then begin
          stop :=
            Stopped
              {
                offset = !pos;
                reason =
                  Printf.sprintf "out-of-order version index %d (expected %d)"
                    idx !nextv;
              };
          running := false
        end
        else begin
          let prev = History.latest !hist in
          let (db, consumed) = Wire.decode_version_sub ~prev payload ~pos:p in
          if consumed <> String.length payload then
            corrupt consumed "trailing bytes in delta payload";
          hist := History.append !hist db;
          emit (Event.Wal_replay { index = idx });
          Metrics.incr m_replays;
          incr nextv;
          pos := next
        end
  done;
  let upto = !nextv - 1 in
  let reason =
    match !stop with Clean -> "clean" | Stopped { reason; _ } -> reason
  in
  emit (Event.Wal_recovered { upto; base; reason });
  Metrics.incr m_recoveries;
  Metrics.observe h_recovered (upto - base);
  { rhistory = !hist; base; upto; segments = List.length segs; stop = !stop }

let resume ?sync_every ?checkpoint_every ~store (r : recovery) =
  (* Highest existing segment number + 1, so a torn newer segment (skipped
     by recovery) is superseded, then deleted once the checkpoint is down. *)
  let top =
    List.fold_left
      (fun acc name ->
        match segment_number name with Some n -> max acc n | None -> acc)
      (-1)
      (store.Store.list_files ())
  in
  make ?sync_every ?checkpoint_every ~store ~first:r.upto ~seg:(top + 1)
    (History.latest r.rhistory)
