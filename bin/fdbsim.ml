(* fdbsim: command-line driver for the functional distributed database.

   Subcommands:
     run        — execute a query script through the lenient pipeline
     explain    — show the access path the planner picks for each query
                  (optionally with a declared index catalog)
     index      — differential sweeps of the secondary/derived index layer
     workload   — generate and run a synthetic workload, print concurrency
     table      — reproduce a paper table (1, 2 or 3)
     fel        — run a mini-FEL program
     topo       — describe a topology
     check      — seeded serializability sweeps (oracle + fault injection)
     recover    — crash-failover sweeps through the replicated pair
     trace      — capture a run as Chrome trace_event JSON + invariants
     stats      — metrics registry snapshot after a seeded sweep
     par        — differential sweeps of the domain-parallel executor
     repair     — differential sweeps of the speculative repair executor
     shard      — cross-shard differential sweeps of the sharded executor
     recover-disk — crash-restart sweeps of the durable version log
     wal        — inspect a log directory frame by frame
     traffic    — drive an open-loop plan through every execution mode and
                  backend layout, checking the final states agree *)

open Cmdliner
module W = Fdb_workload.Workload
module Topology = Fdb_net.Topology
module Machine = Fdb_rediflow.Machine
module Engine = Fdb_kernel.Engine
module Schema = Fdb_relational.Schema
module Database = Fdb_relational.Database
module Gen = Fdb_check.Gen
module Oracle = Fdb_check.Oracle
module Sim = Fdb_check.Sim
module Trace_oracle = Fdb_check.Trace_oracle
module Merge = Fdb_merge.Merge
module Txn = Fdb_txn.Txn
module Ix = Fdb_index.Index
module Replica = Fdb_replica.Replica
module Metrics = Fdb_obs.Metrics
open Fdb

(* -- shared argument converters -------------------------------------------- *)

let topology_of_string s =
  match String.split_on_char ':' s with
  | [ "single" ] -> Ok (Topology.single ())
  | [ "hypercube"; d ] -> (
      match int_of_string_opt d with
      | Some d when d >= 0 -> Ok (Topology.hypercube d)
      | _ -> Error "hypercube:<dim>")
  | [ "mesh"; dims ] -> (
      match List.map int_of_string_opt (String.split_on_char 'x' dims) with
      | [ Some x; Some y; Some z ] -> Ok (Topology.mesh3d x y z)
      | _ -> Error "mesh:<x>x<y>x<z>")
  | [ "ring"; n ] -> (
      match int_of_string_opt n with
      | Some n when n >= 2 -> Ok (Topology.ring n)
      | _ -> Error "ring:<n>")
  | [ "star"; n ] -> (
      match int_of_string_opt n with
      | Some n when n >= 2 -> Ok (Topology.star n)
      | _ -> Error "star:<n>")
  | [ "torus"; dims ] -> (
      match List.map int_of_string_opt (String.split_on_char 'x' dims) with
      | [ Some x; Some y ] -> Ok (Topology.torus2d x y)
      | _ -> Error "torus:<x>x<y>")
  | [ "bus"; n ] -> (
      match int_of_string_opt n with
      | Some n when n >= 1 -> Ok (Topology.bus n)
      | _ -> Error "bus:<n>")
  | [ "complete"; n ] -> (
      match int_of_string_opt n with
      | Some n when n >= 2 -> Ok (Topology.complete n)
      | _ -> Error "complete:<n>")
  | _ ->
      Error
        "expected single | hypercube:<d> | mesh:<x>x<y>x<z> | ring:<n> | \
         star:<n> | torus:<x>x<y> | bus:<n> | complete:<n>"

let topology_conv =
  let parse s =
    match topology_of_string s with
    | Ok t -> Ok t
    | Error e -> Error (`Msg ("bad topology: " ^ e))
  in
  Arg.conv (parse, fun ppf t -> Topology.pp ppf t)

let topo_arg =
  Arg.(
    value
    & opt (some topology_conv) None
    & info [ "t"; "topology" ] ~docv:"TOPO"
        ~doc:
          "Run on a Rediflow machine with this topology (e.g. hypercube:3, \
           mesh:3x3x3, ring:8).  Without it, the ideal machine is used.")

let semantics_arg =
  let s =
    Arg.enum [ ("prepend", Pipeline.Prepend); ("ordered", Pipeline.Ordered_unique) ]
  in
  Arg.(
    value & opt s Pipeline.Prepend
    & info [ "semantics" ] ~docv:"SEM"
        ~doc:
          "Insert semantics: $(b,prepend) (the paper's multiset lists) or \
           $(b,ordered) (keyed sets).")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Workload random seed.")

let mode_of topo =
  match topo with
  | None -> Pipeline.Ideal
  | Some t -> Pipeline.On_machine (Machine.default_config t)

let print_stats (report : Pipeline.report) =
  let s = report.Pipeline.stats in
  Format.printf
    "@.engine: %d tasks, %d cycles, max ply %d, avg ply %.2f@." s.Engine.tasks
    s.Engine.cycles s.Engine.max_ply s.Engine.avg_ply;
  match (report.Pipeline.speedup, report.Pipeline.machine) with
  | (Some sp, Some m) ->
      Format.printf
        "machine: speedup %.2f, utilization %.2f, %d messages, %d migrations@."
        sp
        (Machine.utilization m ~cycles:s.Engine.cycles)
        m.Machine.net.Fdb_net.Fabric.sent m.Machine.migrations
  | _ -> ()

(* A file's contents, or stdin's when no path is given. *)
let read_input = function
  | Some path -> In_channel.with_open_text path In_channel.input_all
  | None -> In_channel.input_all stdin

let print_metrics () =
  Format.printf "%a" Metrics.pp_snapshot (Metrics.snapshot ())

(* -- sweep scaffold ------------------------------------------------------------ *)

(* The seeded sweep subcommands (index, check, recover, trace, stats, par,
   repair, shard, recover-disk) share their scenario flags, spec validation,
   seed loop and trace export; each keeps only its per-scenario check. *)

let usage_error cmd msg =
  Format.eprintf "fdbsim %s: %s@." cmd msg;
  exit 2

let int_arg names ~doc default = Arg.(value & opt int default & info names ~doc)

(* One constructor per scenario flag, each taking the subcommand's default. *)
let txns = int_arg [ "txns"; "n" ] ~doc:"Queries per client stream."
let relations = int_arg [ "relations" ] ~doc:"Relations."
let tuples = int_arg [ "tuples" ] ~doc:"Initial tuples per relation."
let key_range ?(doc = "Keys are drawn from 0..N-1.") default =
  int_arg [ "key-range" ] ~doc default

let sweep ?(doc = "How many consecutive seeds to run.") default =
  int_arg [ "sweep" ] ~doc default

(* The scenario spec seeded by --seed, validated once: a nonsensical spec is
   a usage error, not a backtrace.  Every sweep takes --tuples and
   --key-range, with [Gen.default_spec]'s values unless the subcommand
   gives its own; a relation cannot hold more tuples than there are keys,
   so --tuples above --key-range is a usage error too. *)
let scenario ?(relations = Term.const Gen.default_spec.relations)
    ?(tuples = tuples Gen.default_spec.initial_tuples)
    ?(key_range = key_range Gen.default_spec.key_range) cmd ~txns =
  let clients = int_arg [ "clients" ] ~doc:"Client streams." 3 in
  let make seed queries_per_client clients relations initial_tuples key_range =
    let spec =
      { Gen.seed; clients; relations; queries_per_client; initial_tuples;
        key_range }
    in
    (try ignore (Gen.generate spec)
     with Invalid_argument msg -> usage_error cmd msg);
    if initial_tuples > key_range then
      usage_error cmd
        (Printf.sprintf "tuples (%d) exceeds key-range (%d)" initial_tuples
           key_range);
    spec
  in
  Term.(const make $ seed_arg $ txns $ clients $ relations $ tuples $ key_range)

(* [(seed, scenario)] for seeds [spec.seed .. spec.seed + sweep - 1]. *)
let seeds (spec : Gen.spec) ~sweep =
  Seq.init (max 0 sweep) (fun i ->
      let seed = spec.Gen.seed + i in
      (seed, Gen.generate { spec with Gen.seed }))

let domains cmd =
  let check = function
    | Some d when d < 1 || d > 128 ->
        usage_error cmd "domains must be in 1..128"
    | d -> d
  in
  Term.(
    const check
    $ Arg.(
        value & opt (some int) None
        & info [ "domains" ]
            ~doc:"Worker domains (default: recommended_domain_count - 1)."))

let trace_out what =
  Arg.(
    value & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          (Printf.sprintf
             "Write the first scenario's %s as Chrome trace_event JSON." what))

let write_file path contents =
  Out_channel.with_open_text path (fun oc -> output_string oc contents)

(* Export the first scenario's [events] to --trace-out, when it was given. *)
let write_trace ~what out events =
  match (out, events) with
  | (Some out, Some events) ->
      write_file out (Fdb_obs.Chrome.to_json events);
      Format.printf "first scenario's %s trace (%d events) -> %s@." what
        (List.length events) out
  | _ -> ()

(* -- run / explain: query scripts ---------------------------------------------- *)

let script_arg =
  Arg.(
    value & pos 0 (some file) None
    & info [] ~docv:"SCRIPT"
        ~doc:"Query script file ( ;-or-newline separated; -- comments).  \
              Reads stdin when omitted.")

(* A parse error exits 1. *)
let read_script script =
  match Fdb_query.Parser.parse_script (read_input script) with
  | Ok queries -> queries
  | Error e ->
      Format.eprintf "parse error: %s@." e;
      exit 1

(* --relations: one key:int, val:string schema per name. *)
let kv_schemas ~verb =
  let schema name =
    Schema.make ~name ~cols:[ ("key", Schema.CInt); ("val", Schema.CStr) ]
  in
  Term.(
    const (List.map schema)
    $ Arg.(
        value & opt (list string) [ "R"; "S" ]
        & info [ "relations" ] ~docv:"NAMES"
            ~doc:
              (Printf.sprintf
                 "Relation names to %s (schema: key:int, val:string)." verb)))

let run_cmd =
  let go script schemas semantics topo =
    let queries = read_script script in
    let spec = { Pipeline.schemas; initial = [] } in
    let tagged = List.map (fun q -> (0, q)) queries in
    let report = Pipeline.run ~semantics ~mode:(mode_of topo) spec tagged in
    List.iter
      (fun ((_, q), (_, r)) ->
        Format.printf "%-50s => %a@."
          (Fdb_query.Ast.to_string q)
          Pipeline.pp_response r)
      (List.combine tagged report.Pipeline.responses);
    print_stats report
  in
  let doc = "Execute a query script through the lenient pipeline." in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const go $ script_arg $ kv_schemas ~verb:"create" $ semantics_arg
      $ topo_arg)

let explain_cmd =
  let module Plan = Fdb_query.Plan in
  let ix_conv =
    let parse s =
      match String.split_on_char ':' s with
      | [ rel; col ] when rel <> "" && col <> "" -> Ok (rel, col)
      | _ -> Error (`Msg "expected REL:COL")
    in
    Arg.conv (parse, fun ppf (r, c) -> Format.fprintf ppf "%s:%s" r c)
  in
  let secondary_arg =
    Arg.(
      value & opt_all ix_conv []
      & info [ "secondary" ] ~docv:"REL:COL"
          ~doc:"Declare a secondary index on REL's column COL (repeatable).")
  in
  let covering_arg =
    Arg.(
      value & opt_all ix_conv []
      & info [ "covering" ] ~docv:"REL:COL"
          ~doc:
            "Declare a covering index on REL's column COL storing every \
             column, so matching reads go index-only (repeatable).")
  in
  let derived_arg =
    Arg.(
      value & opt_all ix_conv []
      & info [ "derived" ] ~docv:"REL:COL"
          ~doc:
            "Declare a derived aggregation index grouping REL by COL over \
             the key column (repeatable).")
  in
  let go script schemas secondary covering derived =
    let queries = read_script script in
    let schema_of name =
      List.find_opt (fun s -> String.equal (Schema.name s) name) schemas
    in
    let descs =
      List.map
        (fun (rel, col) ->
          { Plan.ix_name = Printf.sprintf "%s_sec_%s" rel col;
            ix_rel = rel; ix_col = col; ix_kind = Plan.Ix_secondary })
        secondary
      @ List.map
          (fun (rel, col) ->
            let cols =
              match schema_of rel with
              | Some s -> List.map fst (Schema.columns s)
              | None -> [ col ]
            in
            { Plan.ix_name = Printf.sprintf "%s_cov_%s" rel col;
              ix_rel = rel; ix_col = col;
              ix_kind = Plan.Ix_covering cols })
          covering
      @ List.map
          (fun (rel, col) ->
            { Plan.ix_name = Printf.sprintf "%s_agg_%s" rel col;
              ix_rel = rel; ix_col = col;
              ix_kind = Plan.Ix_derived "key" })
          derived
    in
    (match Ix.Catalog.validate schemas descs with
    | Ok () -> ()
    | Error e -> usage_error "explain" e);
    let explain =
      if descs = [] then Plan.explain ~schema_of
      else
        let indexes_of rel =
          List.filter
            (fun (d : Plan.index_desc) -> String.equal d.Plan.ix_rel rel)
            descs
        in
        Plan.explain_indexed ~schema_of ~indexes_of
    in
    List.iter
      (fun q ->
        Format.printf "%-50s => %s@." (Fdb_query.Ast.to_string q) (explain q))
      queries
  in
  let doc =
    "Show the access path the planner chooses for each query in a script \
     (point lookup, pruned range scan or full scan, plus the residual \
     predicate), without executing anything.  With $(b,--secondary), \
     $(b,--covering) or $(b,--derived) declarations, the indexed planner \
     runs instead and the lines show index probes, index-only scans and \
     O(log n) derived-aggregate answers."
  in
  Cmd.v (Cmd.info "explain" ~doc)
    Term.(
      const go $ script_arg $ kv_schemas ~verb:"resolve" $ secondary_arg
      $ covering_arg $ derived_arg)

(* -- index: differential sweeps of the index layer ------------------------------ *)

let index_cmd =
  let go spec sweep =
    Metrics.reset ();
    let failures = ref 0 and queries = ref 0 in
    Seq.iter
      (fun (s, sc) ->
        let merged = Merge.merge (Merge.Seeded ((7 * s) + 1)) sc.Gen.streams in
        let initial = Gen.initial_db sc in
        let session =
          Ix.Session.create_exn (Ix.Catalog.default_for sc.Gen.schemas) initial
        in
        let plain = ref initial and indexed = ref initial in
        let ((), events) =
          Fdb_obs.Trace.record (fun () ->
              List.iter
                (fun (m : _ Merge.tagged) ->
                  incr queries;
                  let q = m.Merge.item in
                  let (r1, db1) = Txn.translate q !plain in
                  plain := db1;
                  let (r2, db2) =
                    Txn.translate ~index:(Ix.Session.use session) q !indexed
                  in
                  indexed := db2;
                  if not (Txn.response_equal r1 r2) then begin
                    incr failures;
                    Format.printf
                      "seed %d: %s answered %a indexed but %a plain@." s
                      (Fdb_query.Ast.to_string q)
                      Txn.pp_response r2 Txn.pp_response r1
                  end)
                merged)
        in
        (match Ix.Store.coherent (Ix.Session.store session) !indexed with
        | Ok () -> ()
        | Error e ->
            incr failures;
            Format.printf "seed %d: index incoherence: %s@." s e);
        List.iter
          (fun v ->
            incr failures;
            Format.printf "seed %d: %a@." s Trace_oracle.pp_violation v)
          (Trace_oracle.check events))
      (seeds spec ~sweep);
    if !failures = 0 then begin
      Format.printf
        "index: %d seeds, %d queries; every indexed answer matched the plain \
         interpreter, every store matched a fresh rebuild, every trace law \
         held@."
        sweep !queries;
      print_metrics ()
    end
    else begin
      Format.printf "index: %d failure(s) over %d seeds@." !failures sweep;
      exit 1
    end
  in
  let doc =
    "Differentially test the secondary/covering/derived index layer: seeded \
     multi-client workloads run through the plain interpreter and through an \
     index session built from the default catalog; every response must match, \
     every final store must equal a fresh rebuild from its base relation, and \
     the emitted maintenance events must satisfy the index-coherence trace \
     law."
  in
  Cmd.v (Cmd.info "index" ~doc)
    Term.(
      const go
      $ scenario "index" ~txns:(txns 8) ~relations:(relations 2)
          ~tuples:(tuples 8)
      $ sweep 25)

(* -- workload: synthetic runs ------------------------------------------------- *)

let workload_cmd =
  let txns =
    Arg.(value & opt int 50 & info [ "n"; "transactions" ] ~doc:"Transactions.")
  in
  let relations =
    Arg.(value & opt int 3 & info [ "r"; "relations" ] ~doc:"Relations.")
  in
  let tuples =
    Arg.(value & opt int 50 & info [ "tuples" ] ~doc:"Initial tuples.")
  in
  let inserts =
    Arg.(value & opt float 14.0 & info [ "inserts" ] ~doc:"Insert percentage.")
  in
  let deletes =
    Arg.(value & opt float 0.0 & info [ "deletes" ] ~doc:"Delete percentage.")
  in
  let updates =
    Arg.(value & opt float 0.0 & info [ "updates" ] ~doc:"Update percentage.")
  in
  let clients =
    Arg.(value & opt int 2 & info [ "clients" ] ~doc:"Client streams.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ] ~doc:"Verify serializability against the reference.")
  in
  let go txns relations tuples inserts deletes updates clients seed semantics
      topo check =
    let w =
      W.generate
        { W.default_spec with
          transactions = txns;
          relations;
          initial_tuples = tuples;
          insert_pct = inserts;
          delete_pct = deletes;
          update_pct = updates;
          clients;
          seed }
    in
    let tagged = Experiment.merged_workload w in
    let spec = Pipeline.db_spec_of_workload w in
    let report = Pipeline.run ~semantics ~mode:(mode_of topo) spec tagged in
    Format.printf "%d transactions (%d inserts) over %d relations@."
      txns (W.insert_count w) relations;
    print_stats report;
    if check then begin
      match Pipeline.check_serializable ~semantics ~mode:(mode_of topo) spec tagged with
      | Ok _ -> Format.printf "serializability: OK@."
      | Error e ->
          Format.printf "serializability: VIOLATED — %s@." e;
          exit 1
    end
  in
  let doc = "Generate a synthetic workload and measure its concurrency." in
  Cmd.v (Cmd.info "workload" ~doc)
    Term.(
      const go $ txns $ relations $ tuples $ inserts $ deletes $ updates
      $ clients $ seed_arg $ semantics_arg $ topo_arg $ check)

(* -- table: the paper's tables ------------------------------------------------ *)

let table_cmd =
  let which =
    Arg.(
      required & pos 0 (some (enum [ ("1", 1); ("2", 2); ("3", 3) ])) None
      & info [] ~docv:"N" ~doc:"Which table (1, 2 or 3).")
  in
  let go which seed =
    match which with
    | 1 ->
        Format.printf "@[<v>%a@]@." Experiment.pp_table1
          (Experiment.table1 ~seed ())
    | 2 ->
        Format.printf "@[<v>%a@]@." Experiment.pp_speedup_table
          (Experiment.table2 ~seed ())
    | _ ->
        Format.printf "@[<v>%a@]@." Experiment.pp_speedup_table
          (Experiment.table3 ~seed ())
  in
  let doc = "Reproduce one of the paper's tables." in
  Cmd.v (Cmd.info "table" ~doc) Term.(const go $ which $ seed_arg)

(* -- fel: run a FEL program ---------------------------------------------------- *)

let fel_cmd =
  let file =
    Arg.(
      value & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"FEL program; stdin when omitted.")
  in
  let demand =
    Arg.(
      value & flag
      & info [ "demand"; "lazy" ]
          ~doc:
            "Demand-driven (call-by-need) evaluation instead of the              default lenient (data-driven) model.  Infinite streams work;              anticipatory parallelism is lost.")
  in
  let go file demand =
    let src = read_input file in
    let mode = if demand then Fdb_fel.Eval.Demand else Fdb_fel.Eval.Lenient in
    match Fdb_fel.Eval.run_string ~mode src with
    | Ok (result, stats) ->
        Format.printf "%s@.%a@." result Engine.pp_stats stats
    | Error e ->
        Format.eprintf "%s@." e;
        exit 1
  in
  let doc = "Evaluate a mini-FEL program on the lenient kernel." in
  Cmd.v (Cmd.info "fel" ~doc) Term.(const go $ file $ demand)

(* -- check: seeded serializability sweeps ---------------------------------------- *)

let check_cmd =
  let module Shrink = Fdb_check.Shrink in
  let no_faults =
    Arg.(
      value & flag
      & info [ "no-faults" ]
          ~doc:"Skip the fault-injected network path (merge policies only).")
  in
  let policies seed =
    [ ("arrival", Merge.Arrival_order);
      ("eager", Merge.Eager_clients [ 1; 2; 3 ]);
      (Printf.sprintf "seeded-%d" seed, Merge.Seeded ((7 * seed) + 1));
      ("concat", Merge.Concatenated) ]
  in
  let go spec sweep no_faults =
    let scenarios = ref 0 and failures = ref 0 in
    let report_failure ~what ~seed sc verdict still_failing =
      incr failures;
      Format.printf "seed %d [%s]: %a@." seed what Oracle.pp_verdict verdict;
      let witness = Shrink.minimize ~still_failing sc.Gen.streams in
      Format.printf
        "shrunk counterexample (%d queries over %d clients):@.%a@."
        (List.fold_left (fun a s -> a + List.length s) 0 witness)
        (List.length witness) Gen.pp_streams witness
    in
    Seq.iter
      (fun (s, sc) ->
        let initial = Gen.initial_db sc in
        List.iter
          (fun (name, policy) ->
            incr scenarios;
            let run streams =
              Oracle.check_merged ~initial ~streams (Merge.merge policy streams)
            in
            match run sc.Gen.streams with
            | Oracle.Serializable _ -> ()
            | v ->
                report_failure ~what:("merge " ^ name) ~seed:s sc v
                  (fun streams -> not (Oracle.accepted (run streams))))
          (policies s);
        if not no_faults then begin
          incr scenarios;
          let run streams =
            (Sim.run ~seed:s { sc with Gen.streams }).Sim.verdict
          in
          match run sc.Gen.streams with
          | Oracle.Serializable _ -> ()
          | v ->
              report_failure ~what:"fault-injected fabric" ~seed:s sc v
                (fun streams -> not (Oracle.accepted (run streams)))
        end)
      (seeds spec ~sweep);
    if !failures = 0 then
      Format.printf "check: %d scenarios over %d seeds, all serializable@."
        !scenarios sweep
    else begin
      Format.printf "check: %d of %d scenarios FAILED@." !failures !scenarios;
      exit 1
    end
  in
  let doc =
    "Sweep seeded random multi-client workloads through every merge policy \
     and the fault-injected network, asserting each observed execution is \
     serial-equivalent to the client streams; failures are shrunk to a \
     minimal witness."
  in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(
      const go
      $ scenario "check" ~txns:(txns 6) ~relations:(relations 2)
          ~tuples:(tuples 6)
      $ sweep 1 $ no_faults)

(* -- recover: crash-failover sweeps ---------------------------------------------- *)

let recover_cmd =
  let ckpt =
    Arg.(
      value & opt int 4
      & info [ "checkpoint-every" ]
          ~doc:"Commits per checkpoint (0 disables checkpoints).")
  in
  let drop =
    Arg.(
      value & opt int 5
      & info [ "drop-one-in" ] ~doc:"Medium loss rate (0 disables).")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Per-seed detail lines.")
  in
  let kind_of_seed ~ckpt s =
    match s mod 3 with
    | 0 -> "mid-stream"
    | 1 -> if ckpt > 0 then "mid-checkpoint" else "mid-stream"
    | _ -> "mid-replay"
  in
  let go spec sweep ckpt drop verbose =
    let failures = ref 0 in
    (* per crash kind: runs, crashes that fired, recovery ticks, replayed,
       suffix length, stale reads, checkpoint bytes *)
    let agg = Hashtbl.create 3 in
    let bump kind (r : Replica.report) =
      let (n, fired, rec_t, rep, suf, stale, bytes) =
        Option.value ~default:(0, 0, 0, 0, 0, 0, 0) (Hashtbl.find_opt agg kind)
      in
      Hashtbl.replace agg kind
        ( n + 1,
          (fired + if r.Replica.crashed then 1 else 0),
          rec_t + Option.value ~default:0 r.Replica.recovery_ticks,
          rep + r.Replica.replayed,
          suf + r.Replica.log_suffix_at_crash,
          stale + r.Replica.stale_served,
          bytes + r.Replica.checkpoint_bytes )
    in
    let faults = { Sim.no_faults with Sim.drop_one_in = drop; crash = true } in
    let config =
      { Replica.default_config with Replica.checkpoint_every = ckpt }
    in
    Seq.iter
      (fun (s, sc) ->
        match Sim.run ~faults ~recover_config:config ~seed:s sc with
        | exception Failure msg ->
            incr failures;
            Format.printf "seed %d [%s]: INVARIANT VIOLATION: %s@." s
              (kind_of_seed ~ckpt s) msg
        | o ->
            let r = Option.get o.Sim.recovery in
            if not (Oracle.accepted o.Sim.verdict) then begin
              incr failures;
              Format.printf "seed %d [%s]: %a@." s (kind_of_seed ~ckpt s)
                Oracle.pp_verdict o.Sim.verdict
            end
            else begin
              bump (kind_of_seed ~ckpt s) r;
              if verbose then
                Format.printf "seed %d [%s]: %a@." s (kind_of_seed ~ckpt s)
                  Replica.pp_report r
            end)
      (seeds spec ~sweep);
    Format.printf
      "@[<v>crash kind      runs  fired  recovery  replayed  suffix  stale  \
       ckpt-bytes@,\
       ---------------------------------------------------------------------@]@.";
    List.iter
      (fun kind ->
        match Hashtbl.find_opt agg kind with
        | None -> ()
        | Some (n, fired, rec_t, rep, suf, stale, bytes) ->
            let mean x = float_of_int x /. float_of_int (max 1 fired) in
            Format.printf
              "%-14s %5d %6d %9.1f %9.1f %7.1f %6.1f %11.1f@." kind n fired
              (mean rec_t) (mean rep) (mean suf) (mean stale) (mean bytes))
      [ "mid-stream"; "mid-checkpoint"; "mid-replay" ];
    if !failures = 0 then
      Format.printf
        "recover: %d seeds, all serializable; no acked commit lost or \
         doubly applied; replay = log suffix past last checkpoint@."
        sweep
    else begin
      Format.printf "recover: %d of %d seeds FAILED@." !failures sweep;
      exit 1
    end
  in
  let doc =
    "Sweep seeded crash-failover scenarios through the primary/backup \
     pair: the primary is killed mid-stream, mid-checkpoint or mid-replay, \
     the backup promotes by checkpoint + log replay, and every observation \
     must pass the serializability oracle with no acknowledged commit lost \
     or doubly applied."
  in
  Cmd.v (Cmd.info "recover" ~doc)
    Term.(
      const go
      $ scenario "recover" ~txns:(txns 6) ~relations:(relations 2)
          ~tuples:(tuples 6)
      $ sweep 50 $ ckpt $ drop $ verbose)

(* -- trace: capture a failover run as Chrome trace_event JSON ------------------- *)

let trace_cmd =
  let module Event = Fdb_obs.Event in
  let out =
    Arg.(
      value & opt string "trace.json"
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Where to write the Chrome trace_event JSON.")
  in
  let drop =
    Arg.(
      value & opt int 5
      & info [ "drop-one-in" ] ~doc:"Medium loss rate (0 disables).")
  in
  let no_crash =
    Arg.(
      value & flag
      & info [ "no-crash" ]
          ~doc:
            "Trace a crash-free fault-injected run instead of the default \
             replica-failover scenario.")
  in
  let go spec out drop no_crash =
    let faults =
      { Sim.default_faults with Sim.drop_one_in = drop; crash = not no_crash }
    in
    let o = Sim.run ~faults ~seed:spec.Gen.seed (Gen.generate spec) in
    write_file out (Fdb_obs.Chrome.to_json o.Sim.trace);
    let count pred = List.length (List.filter pred o.Sim.trace) in
    Format.printf
      "traced %d events (%d datagram, %d replica protocol) to %s@."
      (List.length o.Sim.trace)
      (count (fun (e : Event.t) ->
           match e.Event.kind with
           | Event.Dg_send _ | Event.Dg_deliver _ | Event.Dg_drop _
           | Event.Dg_retransmit _ ->
               true
           | _ -> false))
      (count (fun (e : Event.t) ->
           match e.Event.kind with
           | Event.Replica_commit _ | Event.Replica_ack _
           | Event.Replica_reply _ | Event.Replica_checkpoint _
           | Event.Replica_install _ | Event.Replica_promote _
           | Event.Replica_replay _ | Event.Replica_crash _ ->
               true
           | _ -> false))
      out;
    (match o.Sim.recovery with
    | Some r when r.Replica.crashed ->
        Format.printf
          "failover: crash at tick %s, promoted at tick %s, %d records \
           replayed@."
          (match r.Replica.crash_tick with
          | Some t -> string_of_int t
          | None -> "?")
          (match r.Replica.promoted_tick with
          | Some t -> string_of_int t
          | None -> "?")
          r.Replica.replayed
    | _ -> ());
    Format.printf "trace invariants checked: %s@."
      (String.concat ", " Trace_oracle.invariant_names);
    Format.printf "oracle: %a@." Oracle.pp_verdict o.Sim.verdict;
    if not (Oracle.accepted o.Sim.verdict) then exit 1
  in
  let doc =
    "Run a seeded fault-injected scenario (by default with a primary crash \
     and backup failover), capture every event the stack emits, check the \
     trace invariants, and export Chrome trace_event JSON loadable in \
     chrome://tracing or Perfetto."
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(
      const go $ scenario "trace" ~txns:(txns 6) $ out $ drop $ no_crash)

(* -- stats: the metrics registry after a sweep ---------------------------------- *)

let stats_cmd =
  let go spec sweep =
    Metrics.reset ();
    Seq.iter
      (fun (s, sc) ->
        (* One crash-free transport run and one failover run per seed, plus
           a lenient pipeline run so the cell-copy counters move too. *)
        ignore (Sim.run ~seed:s sc);
        ignore
          (Sim.run ~faults:{ Sim.default_faults with Sim.crash = true }
             ~seed:s sc);
        let spec =
          { Pipeline.schemas = sc.Gen.schemas; initial = sc.Gen.initial }
        in
        ignore
          (Pipeline.run_streams ~semantics:Pipeline.Ordered_unique spec
             sc.Gen.streams))
      (seeds spec ~sweep);
    Format.printf "metrics after %d seeds (x3 runs each):@." sweep;
    print_metrics ()
  in
  let doc =
    "Run a seeded sweep (transport, failover and lenient-pipeline runs) and \
     print the metrics registry: cells copied vs shared, plan-path hit \
     rates, retransmissions, failover latency."
  in
  Cmd.v (Cmd.info "stats" ~doc)
    Term.(const go $ scenario "stats" ~txns:(txns 6) $ sweep 8)

(* -- par: differential check of the real-domain parallel executor --------------- *)

let par_cmd =
  let topo =
    Arg.(
      value & opt (some topology_conv) None
      & info [ "topo" ]
          ~doc:
            "Also run the engine on this simulated machine topology and \
             include it in the comparison.")
  in
  let go spec sweep domains topo =
    (* The parallel executor runs Txn over keyed sets. *)
    let semantics = Pipeline.Ordered_unique in
    Metrics.reset ();
    let divergences = ref 0 in
    let compare_streams ~seed ~what expected actual =
      if
        not
          (List.equal
             (fun (t1, r1) (t2, r2) ->
               t1 = t2 && Pipeline.response_equal r1 r2)
             expected actual)
      then begin
        incr divergences;
        Format.printf "seed %d: parallel executor diverges from %s@." seed what
      end
    in
    let (stats : Fdb_par.Pool.stats) =
      Fdb_par.Pool.with_pool ?domains (fun pool ->
        Seq.iter
          (fun (s, sc) ->
            let spec =
              { Pipeline.schemas = sc.Gen.schemas; initial = sc.Gen.initial }
            in
            let tagged =
              List.map
                (fun { Merge.tag; item } -> (tag, item))
                (Merge.merge (Merge.Seeded ((7 * s) + 1)) sc.Gen.streams)
            in
            let ideal = Pipeline.run ~semantics spec tagged in
            let db0 = Pipeline.initial_database spec in
            let execute index =
              Pipeline.execute (Parallel { pool; index }) db0 tagged
            in
            let par = execute None in
            let par_responses = Pipeline.pipeline_responses par in
            compare_streams ~seed:s ~what:"deterministic engine (ideal)"
              ideal.Pipeline.responses par_responses;
            compare_streams ~seed:s ~what:"sequential reference"
              (Pipeline.reference ~semantics spec tagged)
              par_responses;
            if
              not
                (ideal.Pipeline.final_db = Database.contents par.Pipeline.final)
            then begin
              incr divergences;
              Format.printf "seed %d: final database diverges@." s
            end;
            Option.iter
              (fun topo ->
                let machine =
                  Pipeline.run ~semantics
                    ~mode:(Pipeline.On_machine (Machine.default_config topo))
                    spec tagged
                in
                compare_streams ~seed:s ~what:"simulated machine"
                  machine.Pipeline.responses par_responses)
              topo;
            (* Indexed legs: the same merged stream with the default catalog
               maintained inline on the dispatch thread — once on the pool,
               once traced (reads inline).  Responses must match the
               sequential reference, the final store a fresh rebuild from
               the final database, and the traced run's maintenance events
               the lockstep trace law. *)
            List.iter
              (fun traced ->
                let session =
                  Ix.Session.create_exn
                    (Ix.Catalog.default_for sc.Gen.schemas)
                    db0
                in
                let run () = execute (Some session) in
                let (ipar, events) =
                  if traced then Fdb_obs.Trace.record run else (run (), [])
                in
                compare_streams ~seed:s
                  ~what:
                    (if traced then "sequential reference (indexed, traced)"
                     else "sequential reference (indexed)")
                  (Pipeline.reference ~semantics spec tagged)
                  (Pipeline.pipeline_responses ipar);
                (match
                   Ix.Store.coherent (Ix.Session.store session)
                     ipar.Pipeline.final
                 with
                | Ok () -> ()
                | Error e ->
                    incr divergences;
                    Format.printf "seed %d: index incoherence: %s@." s e);
                List.iter
                  (fun v ->
                    incr divergences;
                    Format.printf "seed %d: %a@." s Trace_oracle.pp_violation
                      v)
                  (Trace_oracle.check events))
              [ false; true ])
          (seeds spec ~sweep);
        Fdb_par.Pool.stats pool)
    in
    if !divergences = 0 then begin
      Format.printf
        "par: %d seeds, every response stream identical across executors; \
         indexes coherent and lockstep under the indexed legs@."
        sweep;
      Format.printf
        "pool: %d domains, %d tasks executed cumulatively (%d by the \
         waiting caller), %d stolen@."
        stats.domains
        (Array.fold_left ( + ) 0 stats.executed)
        stats.executed.(stats.domains)
        stats.steals;
      print_metrics ()
    end
    else begin
      Format.printf "par: %d divergence(s) over %d seeds@." !divergences sweep;
      exit 1
    end
  in
  let doc =
    "Differentially test the real-domain parallel executor: the same seeded \
     workloads run under the deterministic engine, the sequential reference \
     (and optionally a simulated machine), and the OCaml 5 domain pool; \
     every response stream and final database must be identical."
  in
  Cmd.v (Cmd.info "par" ~doc)
    Term.(
      const go
      $ scenario "par" ~txns:(txns 8) ~relations:(relations 2)
          ~tuples:(tuples 12)
      $ sweep 25 $ domains "par" $ topo)

(* -- repair: differential sweeps of the speculative repair executor ------------- *)

let repair_cmd =
  let module Exec = Fdb_repair.Exec in
  let batch =
    Arg.(
      value & opt int 8
      & info [ "batch" ] ~doc:"Transactions speculated per batch.")
  in
  let go spec sweep domains batch trace_out =
    if batch < 1 then usage_error "repair" "batch must be >= 1";
    if sweep < 1 then usage_error "repair" "sweep must be >= 1";
    let divergences = ref 0 in
    let total = ref Exec.zero_stats in
    let first_trace = ref None in
    Fdb_par.Pool.with_pool ?domains (fun pool ->
        Seq.iter
          (fun (s, sc) ->
            match Sim.run_repair ~pool ~batch ~seed:s sc with
            | o ->
                total := Exec.add_stats !total o.Sim.repair_stats;
                if !first_trace = None then
                  first_trace := Some o.Sim.repair_trace
            | exception Failure msg ->
                incr divergences;
                Format.printf "seed %d: %s@." s msg)
          (seeds spec ~sweep));
    write_trace ~what:"repair" trace_out !first_trace;
    if !divergences = 0 then begin
      Format.printf
        "repair: %d seeds, responses and final state identical across the \
         repair executor, the traced inline run and the sequential engine; \
         every trace law holds, every verdict is serializable, and the \
         maintained indexes stay coherent with every committed version@."
        sweep;
      Format.printf "%a@." Exec.pp_stats !total
    end
    else begin
      Format.printf "repair: %d divergence(s) over %d seeds@." !divergences
        sweep;
      exit 1
    end
  in
  let doc =
    "Differentially test the speculative repair executor: seeded multi-client \
     workloads are speculated in parallel batches, conflicts repaired to the \
     serial fixpoint, and the results compared against the traced inline run \
     and the ideal sequential engine; traces are checked against the \
     repair-convergence law and observations against the serializability \
     oracle."
  in
  Cmd.v (Cmd.info "repair" ~doc)
    Term.(
      const go
      $ scenario "repair" ~txns:(txns 5) ~relations:(relations 2)
          ~tuples:(tuples 6)
          ~key_range:
            (key_range
               ~doc:
                 "Keys are drawn from 0..N-1; smaller ranges raise the \
                  conflict ratio the repair loop has to absorb."
               12)
      $ sweep 25 $ domains "repair" $ batch $ trace_out "repair trace")

(* -- shard: cross-shard differential sweeps of the sharded executor ------------- *)

let shard_cmd =
  let module Shard = Fdb_shard.Shard in
  let shards =
    Arg.(
      value
      & opt (list int) [ 1; 2; 4; 8 ]
      & info [ "shards" ] ~docv:"N,.."
          ~doc:"Shard counts to sweep (comma-separated).")
  in
  let ratios =
    Arg.(
      value
      & opt (list float) [ 0.0; 0.1; 0.5; 1.0 ]
      & info [ "cross-ratio" ] ~docv:"R,.."
          ~doc:
            "Cross-shard ratios to sweep (comma-separated fractions of \
             query slots forced to cross-relation joins).")
  in
  let replicate =
    Arg.(
      value & flag
      & info [ "replicate" ]
          ~doc:
            "Additionally drive each shard's commit stream through its own \
             primary/backup pair and check the composition.")
  in
  let go spec sweep shards ratios replicate trace_out =
    if sweep < 1 then usage_error "shard" "sweep must be >= 1";
    if shards = [] || List.exists (fun n -> n < 1) shards then
      usage_error "shard" "shard counts must be >= 1";
    if ratios = [] || List.exists (fun r -> r < 0.0 || r > 1.0) ratios then
      usage_error "shard" "cross-ratios must be in [0, 1]";
    let policies s =
      [ ("arrival", Merge.Arrival_order);
        ("bursty", Merge.Eager_clients [ 2; 3 ]);
        ("seeded", Merge.Seeded ((7 * s) + 1));
        ("concat", Merge.Concatenated) ]
    in
    let divergences = ref 0 in
    let scenarios = ref 0 in
    let txns_total = ref 0 in
    let local = ref 0 and bypassed = ref 0 and spine = ref 0 in
    let first_trace = ref None in
    Seq.iter
      (fun (s, sc) ->
        List.iter
          (fun n ->
            List.iter
              (fun ratio ->
                let sc = Sim.cross_shardify ~ratio ~seed:s sc in
                List.iter
                  (fun (pname, policy) ->
                    incr scenarios;
                    match
                      Sim.run_sharded ~policy ~replicate ~shards:n ~seed:s sc
                    with
                    | o ->
                        let st = o.Sim.shard_stats in
                        txns_total := !txns_total + st.Shard.txns;
                        local := !local + st.Shard.local;
                        bypassed := !bypassed + st.Shard.bypassed;
                        spine := !spine + st.Shard.spine;
                        if !first_trace = None then
                          first_trace := Some o.Sim.shard_trace
                    | exception Failure msg ->
                        incr divergences;
                        Format.printf
                          "seed %d shards %d ratio %.2f policy %s: %s@." s n
                          ratio pname msg)
                  (policies s))
              ratios)
          shards)
      (seeds spec ~sweep);
    write_trace ~what:"shard" trace_out !first_trace;
    if !divergences = 0 then begin
      Format.printf
        "shard: %d scenarios (%d seeds x {%s} shards x {%s} cross-ratios x \
         4 policies), responses and final state identical to the sequential \
         engine, every epoch reordering replays identically, every trace \
         satisfies shard_serializability, every verdict is serializable, \
         and one shard is byte-identical to the unsharded pipeline@."
        !scenarios sweep
        (String.concat "," (List.map string_of_int shards))
        (String.concat "," (List.map (Printf.sprintf "%g") ratios));
      let pct a = 100.0 *. float_of_int a /. float_of_int (max 1 !txns_total) in
      Format.printf
        "  %d txns: %d local (%.1f%%), %d bypassed (%.1f%%), %d through the \
         global spine (%.1f%%)@."
        !txns_total !local (pct !local) !bypassed (pct !bypassed) !spine
        (pct !spine)
    end
    else begin
      Format.printf "shard: %d divergence(s) over %d scenarios@." !divergences
        !scenarios;
      exit 1
    end
  in
  let doc =
    "Differentially test the sharded executor: seeded multi-client workloads \
     are rewritten to each cross-shard ratio, serialized over N merge points \
     with the commutativity-aware spine bypass, and compared against the \
     ideal sequential engine, the adversarial epoch reordering and the \
     serializability oracle; traces are checked against the \
     shard-serializability law."
  in
  Cmd.v (Cmd.info "shard" ~doc)
    Term.(
      const go
      $ scenario "shard" ~txns:(txns 5) ~relations:(relations 4)
          ~tuples:(tuples 6)
      $ sweep 2 $ shards $ ratios $ replicate $ trace_out "shard trace")

(* -- recover-disk: crash-restart sweeps of the durable version log -------------- *)

let recover_disk_cmd =
  let checkpoints =
    Arg.(
      value
      & opt (list int) [ 0; 3; 8 ]
      & info [ "checkpoints" ] ~docv:"N,N,.."
          ~doc:"Checkpoint intervals to sweep (0 = never compact).")
  in
  let sync_every =
    Arg.(
      value & opt int 3
      & info [ "sync-every" ] ~doc:"Appends grouped per automatic fsync.")
  in
  let fault_conv =
    Arg.conv
      ( (fun s ->
          match Sim.disk_fault_of_name s with
          | Some f -> Ok f
          | None ->
              Error
                (`Msg
                  (Printf.sprintf "unknown fault kind %s (expected %s)" s
                     (String.concat " | "
                        (List.map Sim.disk_fault_name Sim.all_disk_faults)))))
        ,
        fun ppf f -> Format.pp_print_string ppf (Sim.disk_fault_name f) )
  in
  let faults =
    Arg.(
      value
      & opt (list fault_conv) Sim.all_disk_faults
      & info [ "faults" ] ~docv:"KIND,KIND,.."
          ~doc:
            "Fault kinds to inject: clean-kill, truncate-mid-frame, \
             bit-flip, duplicate-tail (after the torn-write crash), \
             torn-differential, kill-before-delete, torn-base (a kill inside \
             a checkpoint).")
  in
  let go spec sweep checkpoints sync_every faults trace_out =
    if sweep < 1 then usage_error "recover-disk" "sweep must be >= 1";
    if sync_every < 0 || List.exists (fun c -> c < 0) checkpoints then
      usage_error "recover-disk" "intervals must be >= 0";
    let failures = ref 0 in
    let scenarios = ref 0 in
    let first_trace = ref None in
    let stops = Hashtbl.create 8 in
    List.iter
      (fun fault ->
        let appended = ref 0
        and durable = ref 0
        and recovered = ref 0
        and resumed = ref 0
        and fired = ref 0
        and cells = ref 0 in
        List.iter
          (fun checkpoint_every ->
            Seq.iter
              (fun (s, sc) ->
                incr scenarios;
                match
                  Sim.run_disk ~sync_every ~checkpoint_every ~fault ~seed:s sc
                with
                | o ->
                    incr cells;
                    appended := !appended + o.Sim.disk_appended;
                    durable := !durable + o.Sim.disk_durable;
                    recovered := !recovered + o.Sim.disk_recovered;
                    resumed := !resumed + o.Sim.disk_resumed;
                    if o.Sim.disk_fired then incr fired;
                    Hashtbl.replace stops o.Sim.disk_stop
                      (1
                      + Option.value ~default:0
                          (Hashtbl.find_opt stops o.Sim.disk_stop));
                    if !first_trace = None then
                      first_trace := Some o.Sim.disk_trace
                | exception Failure msg ->
                    incr failures;
                    Format.printf "%s/ckpt %d/seed %d: %s@."
                      (Sim.disk_fault_name fault)
                      checkpoint_every s msg)
              (seeds spec ~sweep))
          checkpoints;
        Format.printf
          "%-18s %3d scenarios: appended %4d, durable %4d, recovered %4d, \
           resumed after restart %4d%s@."
          (Sim.disk_fault_name fault)
          !cells !appended !durable !recovered !resumed
          (if !fired = !cells then ""
           else Printf.sprintf " (killed in a checkpoint in %d)" !fired))
      faults;
    Format.printf "replay stops:";
    Hashtbl.iter (fun reason n -> Format.printf " %s=%d" reason n) stops;
    Format.printf "@.";
    write_trace ~what:"recovery" trace_out !first_trace;
    if !failures = 0 then
      Format.printf
        "recover-disk: %d crash-restart scenarios; every recovery rebuilt \
         exactly the fsync-promised prefix, every restart continued it, and \
         the durability trace law held throughout@."
        !scenarios
    else begin
      Format.printf "recover-disk: %d failure(s) over %d scenarios@." !failures
        !scenarios;
      exit 1
    end
  in
  let doc =
    "Crash-restart sweeps of the durable version log: seeded workloads are \
     committed through the write-ahead log over a torn-write store, killed at \
     a random point, the log tail doctored (truncation, bit flips, duplicated \
     frames) or the kill placed inside a checkpoint (a torn differential or \
     base, or a kill before the checkpoint's deletions), and recovery \
     differentially checked against the pre-crash run under the durability \
     trace oracle."
  in
  Cmd.v (Cmd.info "recover-disk" ~doc)
    Term.(
      const go
      $ scenario "recover-disk" ~txns:(txns 8) ~relations:(relations 2)
          ~tuples:(tuples 6)
      $ sweep ~doc:"Consecutive seeds per (fault, checkpoint-interval) cell." 13
      $ checkpoints $ sync_every $ faults
      $ trace_out
          "crash-restart trace (appends, syncs, checkpoints, replay, \
           recovery)")

(* -- wal: inspect a log directory frame by frame -------------------------------- *)

let wal_cmd =
  let module Wal = Fdb_wal.Wal in
  let module Wire = Fdb_wire.Wire in
  let dir =
    Arg.(
      required
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR" ~doc:"WAL directory to inspect.")
  in
  let gen =
    Arg.(
      value
      & opt (some int) None
      & info [ "gen" ] ~docv:"N"
          ~doc:
            "First write a demo log into DIR: a seeded workload of N queries \
             per client, checkpointed every 4 versions.")
  in
  let go seed dir gen =
    Option.iter
      (fun txns ->
        let sc =
          Gen.generate { Gen.default_spec with seed; queries_per_client = txns }
        in
        let store = Wal.Fs.store ~dir in
        let db = ref (Gen.initial_db sc) in
        let w = Wal.create ~checkpoint_every:4 ~store !db in
        List.iter
          (fun (m : _ Merge.tagged) ->
            let (_, db') = Txn.translate m.Merge.item !db in
            if not (db' == !db) then begin
              db := db';
              Wal.append w db'
            end)
          (Merge.merge (Merge.Seeded seed) sc.Gen.streams);
        Wal.sync w;
        store.Wal.Store.close ())
      gen;
    let store = Wal.Fs.store ~dir in
    let segments =
      List.sort compare
        (List.filter_map
           (fun f -> Option.map (fun n -> (n, f)) (Wal.segment_number f))
           (store.Wal.Store.list_files ()))
    in
    if segments = [] then Format.printf "%s: no segment files@." dir;
    List.iter
      (fun (_, name) ->
        match store.Wal.Store.read name with
        | None -> Format.printf "%s: unreadable@." name
        | Some bytes ->
            Format.printf "%s (%d bytes)@." name (String.length bytes);
            let rec walk pos =
              match Wire.read_frame bytes ~pos with
              | Wire.End_of_input -> ()
              | Wire.Torn { offset; reason } ->
                  Format.printf "  @@%-8d torn: %s@." offset reason
              | Wire.Frame { kind; payload; next } ->
                  let (version, p) = Wire.read_int payload ~pos:0 in
                  (* a delta's, or a differential's since its base,
                     per-slot key-change counts *)
                  let changes p =
                    match Wire.delta_key_changes payload ~pos:p with
                    | slots ->
                        ", key changes ["
                        ^ String.concat ", "
                            (List.map
                               (fun (slot, n) ->
                                 Printf.sprintf "slot %d: %d" slot n)
                               slots)
                        ^ "]"
                    | exception Wire.Corrupt { reason; _ } ->
                        ", undecodable: " ^ reason
                  in
                  let keys =
                    match kind with
                    | Wire.Checkpoint -> ""
                    | Wire.Delta -> changes p
                    | Wire.Differential ->
                        let (base, p) = Wire.read_int payload ~pos:p in
                        Printf.sprintf ", base v%d" base ^ changes p
                  in
                  Format.printf "  @@%-8d %-12s v%-5d %6d bytes, crc ok%s@." pos
                    (match kind with
                    | Wire.Checkpoint -> "checkpoint"
                    | Wire.Differential -> "differential"
                    | Wire.Delta -> "delta")
                    version
                    (String.length payload)
                    keys;
                  walk next
            in
            walk 0)
      segments;
    (match Wal.recover store with
    | r ->
        Format.printf "recovery: versions %d..%d over %d segment(s), %a@."
          r.Wal.base r.Wal.upto r.Wal.segments Wal.pp_stop r.Wal.stop
    | exception Wire.Corrupt { offset; reason } ->
        Format.printf "recovery: corrupt (offset %d: %s)@." offset reason);
    store.Wal.Store.close ()
  in
  let doc =
    "Inspect a durable version log directory: every frame of every segment \
     (offset, kind, version index, checksum status), then what recovery \
     would rebuild.  With $(b,--gen), first writes a seeded demo log."
  in
  Cmd.v (Cmd.info "wal" ~doc) Term.(const go $ seed_arg $ dir $ gen)

(* -- traffic: open-loop stream through the execution modes --------------------- *)

let traffic_cmd =
  let module Openloop = Fdb_workload.Openloop in
  let module Traffic = Fdb.Traffic in
  let module Relation = Fdb_relational.Relation in
  let txns =
    Arg.(
      value & opt int 2_000 & info [ "n"; "transactions" ] ~doc:"Transactions.")
  in
  let tuples =
    Arg.(value & opt int 5_000 & info [ "tuples" ] ~doc:"Initial tuples.")
  in
  let relations =
    Arg.(value & opt int 2 & info [ "r"; "relations" ] ~doc:"Relations.")
  in
  let tenants =
    Arg.(value & opt int 3 & info [ "tenants" ] ~doc:"Tenant streams.")
  in
  let go txns tuples relations tenants seed =
    let plan =
      Openloop.generate
        (Openloop.standard ~relations ~initial_tuples:tuples ~tenants ~txns
           ~seed ())
    in
    Format.printf "%d transactions over %d initial tuples, %d tenants@." txns
      tuples tenants;
    let print r =
      Format.printf
        "%-10s %-10s %9.0f txn/s  p50 %7.0fns  p99 %8.0fns  p999 %8.0fns  \
         failed %d@."
        r.Traffic.tr_mode r.Traffic.tr_backend r.Traffic.tr_throughput
        r.Traffic.tr_p50_ns r.Traffic.tr_p99_ns r.Traffic.tr_p999_ns
        r.Traffic.tr_failed;
      r.Traffic.tr_final_digest
    in
    (* differential smoke: the same stream through every execution mode and
       two layouts must land byte-identical final states *)
    let reference =
      print (Traffic.drive ~backend:(Relation.Btree_backend 8) plan)
    in
    let column =
      print (Traffic.drive ~backend:(Relation.Column_backend 256) plan)
    in
    let batched =
      Fdb_par.Pool.with_pool (fun pool ->
          List.map
            (fun executor ->
              print
                (Traffic.drive ~mode:(Batched executor)
                   ~backend:(Relation.Btree_backend 8) plan))
            [
              Pipeline.Parallel { pool; index = None };
              Repair { pool; batch = 32; index = None };
              Sharded { shards = 4 };
            ])
    in
    if List.for_all (String.equal reference) (column :: batched) then begin
      Format.printf "final states agree across modes and backends@.";
      Format.printf "final digest %s@." reference
    end
    else begin
      Format.printf "FAIL: final states diverge@.";
      exit 1
    end
  in
  let doc =
    "Drive an open-loop traffic plan through every execution mode and check \
     the final states agree."
  in
  Cmd.v (Cmd.info "traffic" ~doc)
    Term.(const go $ txns $ tuples $ relations $ tenants $ seed_arg)

(* -- topo: describe a topology -------------------------------------------------- *)

let topo_cmd =
  let topo =
    Arg.(
      required & pos 0 (some topology_conv) None
      & info [] ~docv:"TOPO" ~doc:"Topology to describe.")
  in
  let go topo =
    Format.printf "%a@." Topology.pp topo;
    let n = Topology.size topo in
    for u = 0 to min (n - 1) 15 do
      Format.printf "  %2d -> %s@." u
        (String.concat ", "
           (List.map string_of_int (Topology.neighbors topo u)))
    done;
    if n > 16 then Format.printf "  ...@."
  in
  let doc = "Describe a topology (size, diameter, adjacency)." in
  Cmd.v (Cmd.info "topo" ~doc) Term.(const go $ topo)

let () =
  let doc =
    "A functional distributed database (Keller & Lindstrom, ICDCS 1985)"
  in
  let info = Cmd.info "fdbsim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ run_cmd; explain_cmd; index_cmd; workload_cmd; table_cmd; fel_cmd;
            topo_cmd; check_cmd; recover_cmd; trace_cmd; stats_cmd; par_cmd;
            repair_cmd; shard_cmd; recover_disk_cmd; wal_cmd; traffic_cmd ]))
