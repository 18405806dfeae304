type t = {
  by_name : (string, Samples.t) Hashtbl.t;
  log : (int * int * int * string * int * int) array;
  mutable logged : int;
  mutable next_id : int;
}

(* Spans kept whole for [write]; later ones only reach the durations. *)
let log_capacity = 100_000

let create () =
  {
    by_name = Hashtbl.create 32;
    log = Array.make log_capacity (0, 0, 0, "", 0, 0);
    logged = 0;
    next_id = 0;
  }

let fresh t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let durations t name =
  match Hashtbl.find_opt t.by_name name with
  | Some s -> s
  | None ->
      let s = Samples.create ~capacity:(1 lsl 18) () in
      Hashtbl.replace t.by_name name s;
      s

let record t ~id ~name ~req ~parent ~start ~stop =
  Samples.add (durations t name) (stop - start);
  if t.logged < Array.length t.log then begin
    t.log.(t.logged) <- (id, parent, req, name, start, stop);
    t.logged <- t.logged + 1
  end

let write t path =
  Out_channel.with_open_text path (fun oc ->
      output_string oc "id\tparent\treq\tname\tstart_ns\tstop_ns\n";
      for i = 0 to t.logged - 1 do
        let (id, parent, req, name, start, stop) = t.log.(i) in
        Printf.fprintf oc "%d\t%d\t%d\t%s\t%d\t%d\n" id parent req name start stop
      done)
