(* Workload inputs, generated from the seed.  Every request reaches the
   system as query text — the paper's symbolic form — so the timed loops
   parse it the way a client's request would be parsed. *)

open Fdb_relational
module Openloop = Fdb_workload.Openloop
module Ast = Fdb_query.Ast

type input = {
  schemas : Schema.t list;
  initial : (string * Tuple.t list) list;
  streams : (int * string) array array;
      (* (tenant, query text) in arrival order; rounds take them in turn *)
}

let tenants = 4

let text (plan : Openloop.t) =
  Array.map (fun (t, q) -> (t, Ast.to_string q)) plan.Openloop.stream

let render (plan : Openloop.t) =
  { schemas = plan.Openloop.schemas; initial = plan.Openloop.initial; streams = [| text plan |] }

let phase ~name ~txns ~insert ~delete ~update ?storm () =
  {
    Openloop.name;
    txns;
    mix =
      {
        Openloop.read_mix with
        insert_pct = insert;
        delete_pct = delete;
        update_pct = update;
      };
    storm;
  }

(* Write-heavy ingest over many small relations, so each commit's log
   record is one whole (small) relation. *)
let ingest ~seed ~txns =
  render
    (Openloop.generate
       {
         Openloop.relations = 256;
         initial_tuples = 256 * 1_000;
         tenants;
         seed;
         phases =
           [ phase ~name:"ingest" ~txns ~insert:50.0 ~delete:15.0 ~update:25.0 () ];
       })

(* An update-heavy storm: 90% of key references hit the 4 newest keys of
   a relation, so speculative transactions in one repair batch damage each
   other.  Openloop's updates all write "u<key>", and two such updates of
   one key commute, so each update here writes a value of its own.  The
   relations stay small (the repair mode rebuilds them from tuple lists on
   every microbatch), so instead of replaying one storm the workload draws
   [streams] of them over the same initial image. *)
let hotspot ~seed ~txns ~streams =
  let plan k =
    Openloop.generate
      {
        Openloop.relations = 8;
        initial_tuples = 8 * 512;
        tenants;
        seed = (seed * streams) + k;
        phases =
          [
            phase ~name:"hot-storm" ~txns ~insert:10.0 ~delete:5.0 ~update:60.0
              ~storm:{ Openloop.hot_keys = 4; hot_pct = 90.0 }
              ();
          ];
      }
  in
  let own_values (plan : Openloop.t) =
    Array.mapi
      (fun i (t, q) ->
        match q with
        | Ast.Update u -> (t, Ast.Update { u with value = Value.Str (Printf.sprintf "w%d" i) })
        | _ -> (t, q))
      plan.Openloop.stream
  in
  let plans = Array.init streams plan in
  {
    (render plans.(0)) with
    streams = Array.map (fun p -> text { p with Openloop.stream = own_values p }) plans;
  }

(* Read-mostly analytics: range counts, range selects, sum/max aggregates
   and point finds, with 10% writes.  Openloop has no range queries, so
   only the initial image comes from it; [streams] streams are drawn here,
   for the rounds to take in turn. *)
let scan ~streams ~seed ~txns =
  let relations = 16 and per_rel = 4_000 in
  let keys = relations * per_rel in
  let plan =
    Openloop.generate
      {
        Openloop.relations;
        initial_tuples = keys;
        tenants;
        seed;
        phases = [ phase ~name:"none" ~txns:0 ~insert:0.0 ~delete:0.0 ~update:0.0 () ];
      }
  in
  let rand = Random.State.make [| seed; 0x5ca9 |] in
  let names = Array.of_list (List.map Schema.name plan.Openloop.schemas) in
  let next_key = ref keys in
  let int n = Value.Int n in
  let key_range lo width =
    Ast.And
      ( Ast.Cmp ("key", Ast.Ge, int lo),
        Ast.Cmp ("key", Ast.Lt, int (lo + width)) )
  in
  let query () =
    (* Openloop deals key [k] to relation [k mod relations], so [lo] is a
       key the chosen relation was loaded with. *)
    let r = Random.State.int rand relations in
    let rel = names.(r) in
    let lo = r + (relations * Random.State.int rand per_rel) in
    let width = 1 + Random.State.int rand (keys / 16) in
    let x = Random.State.int rand 100 in
    if x < 25 then Ast.Count { rel; where = key_range lo width }
    else if x < 40 then
      Ast.Select { rel; cols = None; where = key_range lo (width / 8) }
    else if x < 55 then
      Ast.Aggregate { agg = Ast.Sum; rel; col = "key"; where = key_range lo width }
    else if x < 65 then
      Ast.Aggregate
        { agg = Ast.Max; rel; col = "key"; where = Ast.Cmp ("key", Ast.Lt, int lo) }
    else if x < 90 then Ast.Find { rel; key = int lo }
    else if x < 94 then begin
      let k = !next_key in
      incr next_key;
      Ast.Insert { rel; values = [ int k; Value.Str (Printf.sprintf "n%d" k) ] }
    end
    else if x < 97 then
      Ast.Update
        {
          rel;
          col = "val";
          value = Value.Str (Printf.sprintf "u%d" lo);
          where = Ast.Cmp ("key", Ast.Eq, int lo);
        }
    else Ast.Delete { rel; key = int lo }
  in
  {
    schemas = plan.Openloop.schemas;
    initial = plan.Openloop.initial;
    streams =
      Array.init streams (fun _ ->
          Array.init txns (fun _ ->
              let tenant = Random.State.int rand tenants in
              (tenant, Ast.to_string (query ()))));
  }
