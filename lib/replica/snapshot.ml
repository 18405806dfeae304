module Wire = Fdb_wire.Wire

(* The codec itself lives in {!Fdb_wire.Wire} — one format for network and
   disk.  A snapshot is exactly one Checkpoint frame: the frame header
   carries the length, format version and CRC32c, the payload is the
   archive: version 0 in full, then key-level deltas. *)

let encode history = Wire.frame ~kind:Wire.Checkpoint (Wire.encode_archive history)

let corrupt offset reason = raise (Wire.Corrupt { offset; reason })

let decode src =
  match Wire.read_frame src ~pos:0 with
  | Wire.End_of_input -> corrupt 0 "empty snapshot"
  | Wire.Torn { offset; reason } -> corrupt offset reason
  | Wire.Frame { kind = Wire.Delta; _ } ->
      corrupt 0 "expected a checkpoint frame, got a delta frame"
  | Wire.Frame { kind = Wire.Differential; _ } ->
      corrupt 0 "expected a checkpoint frame, got a differential frame"
  | Wire.Frame { kind = Wire.Checkpoint; payload; next } ->
      (* Consume exactly one frame: anything after it is typed corruption,
         not silently accepted garbage. *)
      if next <> String.length src then
        corrupt next "trailing bytes after snapshot frame";
      Wire.decode_archive payload
