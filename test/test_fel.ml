(* Mini-FEL tests: lexing, parsing, evaluation, leniency, and the paper's
   own programs. *)

module Lexer = Fdb_fel.Lexer
module Parser = Fdb_fel.Parser
module Ast = Fdb_fel.Ast
module Eval = Fdb_fel.Eval
module Engine = Fdb_kernel.Engine

let run src =
  match Eval.run_string src with
  | Ok (result, stats) -> (result, stats)
  | Error e -> Alcotest.failf "FEL: %s" e

let run_err src =
  match Eval.run_string src with
  | Ok (r, _) -> Alcotest.failf "expected an error, got %s" r
  | Error e -> e

let result src = fst (run src)

(* -- lexer ------------------------------------------------------------------ *)

let test_lexer_hyphen_idents () =
  (match Lexer.tokens "apply-stream" with
  | [ Lexer.IDENT "apply-stream" ] -> ()
  | _ -> Alcotest.fail "hyphenated identifier");
  (match Lexer.tokens "x-1" with
  | [ Lexer.IDENT "x"; Lexer.OP "-"; Lexer.INT 1 ] -> ()
  | _ -> Alcotest.fail "x-1 is subtraction");
  match Lexer.tokens "x - y" with
  | [ Lexer.IDENT "x"; Lexer.OP "-"; Lexer.IDENT "y" ] -> ()
  | _ -> Alcotest.fail "spaced subtraction"

let test_lexer_comments_and_null () =
  match Lexer.tokens ";; comment\nnull?:s || f" with
  | [ Lexer.IDENT "null?"; Lexer.COLON; Lexer.IDENT "s"; Lexer.PARPAR;
      Lexer.IDENT "f" ] ->
      ()
  | _ -> Alcotest.fail "comment/null?/parpar"

(* -- parser ----------------------------------------------------------------- *)

let test_parser_precedence () =
  (match Parser.parse_expr "1 + 2 * 3" with
  | Ok (Ast.Binop ("+", Ast.Int_lit 1, Ast.Binop ("*", _, _))) -> ()
  | _ -> Alcotest.fail "arithmetic precedence");
  (match Parser.parse_expr "f:x + 1" with
  | Ok (Ast.Binop ("+", Ast.App _, Ast.Int_lit 1)) -> ()
  | _ -> Alcotest.fail "application binds tighter than +");
  (match Parser.parse_expr "1 ^ 2 ^ []" with
  | Ok (Ast.Seq (Ast.Int_lit 1, Ast.Seq (Ast.Int_lit 2, Ast.Nil_lit))) -> ()
  | _ -> Alcotest.fail "^ right associative");
  match Parser.parse_expr "f || s ^ t" with
  | Ok (Ast.Seq (Ast.Map _, _)) -> ()
  | _ -> Alcotest.fail "^ looser than ||"

let test_parser_equations () =
  match Parser.parse_program "f:[a, b] = a + b, x = f:[1, 2], RESULT x" with
  | Ok { Ast.equations = [ Ast.Def_fun ("f", Ast.Ptuple [ "a"; "b" ], _);
                           Ast.Def_val (Ast.Pvar "x", _) ];
         result = Ast.Var "x" } ->
      ()
  | Ok p -> Alcotest.failf "wrong parse: %s" (Format.asprintf "%a" Ast.pp_program p)
  | Error e -> Alcotest.fail e

let test_parser_destructuring () =
  match Parser.parse_program "[a, b] = [1, 2], RESULT a" with
  | Ok { Ast.equations = [ Ast.Def_val (Ast.Ptuple [ "a"; "b" ], _) ]; _ } -> ()
  | Ok _ -> Alcotest.fail "wrong parse"
  | Error e -> Alcotest.fail e

let test_parser_errors () =
  List.iter
    (fun src ->
      match Parser.parse_program src with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" src)
    [ ""; "RESULT"; "x = , RESULT 1"; "x = 1 RESULT"; "1 = 2, RESULT 1" ]

let test_parser_int_out_of_range () =
  Alcotest.(check bool) "max_int parses" true
    (Result.is_ok (Parser.parse_expr (string_of_int max_int)));
  List.iter
    (fun src ->
      match Parser.parse_program src with
      | Error msg ->
          Alcotest.(check bool) (src ^ ": names the range") true
            (String.ends_with ~suffix:"integer literal out of range" msg)
      | Ok _ -> Alcotest.failf "accepted %S" src)
    [ "99999999999999999999"; "RESULT 1 + 99999999999999999999" ]

(* Arbitrary bytes, and soups of FEL fragments, must come back as [Ok] or
   [Error] from both entry points: the parser never raises. *)
let fel_fragments =
  [ "RESULT"; "if"; "then"; "else"; "x"; "f"; "apply-stream"; "null?"; "=";
    ":"; "^"; "||"; "+"; "-"; "*"; "/"; "<="; "!="; "("; ")"; "["; "]"; ",";
    "\n"; "\""; "\"s\""; "1"; "0"; "99999999999999999999"; "%"; "x-1" ]

let prop_parser_never_raises =
  QCheck2.Test.make ~name:"parse arbitrary bytes: Ok or Error" ~count:2000
    ~print:(Printf.sprintf "%S")
    QCheck2.Gen.(
      oneof
        [ string_size ~gen:char (int_bound 64);
          map (String.concat " ")
            (list_size (int_bound 12) (oneofl fel_fragments)) ])
    (fun src ->
      (match Parser.parse_program src with Ok _ | Error _ -> ());
      match Parser.parse_expr src with Ok _ | Error _ -> true)

(* -- evaluation --------------------------------------------------------------- *)

let test_arith () =
  Alcotest.(check string) "arith" "11" (result "RESULT 1 + 2 * 5");
  Alcotest.(check string) "sub/div" "4" (result "RESULT (10 - 2) / 2");
  Alcotest.(check string) "cmp" "true" (result "RESULT 3 <= 3");
  Alcotest.(check string) "string concat" "\"ab\""
    (result {|RESULT "a" + "b"|})

let test_equations_and_functions () =
  Alcotest.(check string) "function" "9"
    (result "square:x = x * x, RESULT square:3");
  Alcotest.(check string) "tuple parameter" "7"
    (result "add:[a, b] = a + b, RESULT add:[3, 4]");
  Alcotest.(check string) "recursion" "120"
    (result "fact:n = if n = 0 then 1 else n * fact:(n - 1), RESULT fact:5")

let test_streams () =
  Alcotest.(check string) "literal list" "[1, 2, 3]" (result "RESULT [1, 2, 3]");
  Alcotest.(check string) "followed-by" "[1, 2]" (result "RESULT 1 ^ 2 ^ []");
  Alcotest.(check string) "first/rest" "2" (result "RESULT first:(rest:[1, 2])");
  Alcotest.(check string) "null?" "false" (result "RESULT null?:[1]");
  Alcotest.(check string) "nil equality" "true" (result "RESULT [] = []")

let test_apply_to_all () =
  Alcotest.(check string) "|| maps" "[2, 4, 6]"
    (result "double:x = 2 * x, RESULT double || [1, 2, 3]");
  Alcotest.(check string) "|| on empty" "[]"
    (result "double:x = 2 * x, RESULT double || []")

let test_destructuring_equation () =
  Alcotest.(check string) "pair split" "[2, 1]"
    (result "[a, b] = [1, 2], RESULT [b, a]")

let test_infinite_stream_is_lenient () =
  (* A cyclic stream is fine as long as only a prefix is demanded; take
     forces just what it needs. *)
  Alcotest.(check string) "take from infinite" "[7, 7, 7]"
    (result
       "take:[n, s] = if n = 0 then [] else first:s ^ take:[n - 1, rest:s], \
        ones = 7 ^ ones, RESULT take:[3, ones]")

let test_eager_recursive_producer_diverges () =
  (* Leniency is NOT laziness: constructors are non-strict, but evaluation
     is data-driven.  A cyclic cell (ones = 7 ^ ones) is fine because no
     producer task exists, but a recursive stream driven by apply-to-all
     (nats = 0 ^ (inc || nats)) spawns a task per cell forever.  The
     engine detects the divergence via the cycle budget. *)
  match
    Eval.run_string ~max_cycles:2_000
      "inc:x = x + 1, \
       take:[n, s] = if n = 0 then [] else first:s ^ take:[n - 1, rest:s], \
       nats = 0 ^ (inc || nats), RESULT take:[5, nats]"
  with
  | Error e ->
      Alcotest.(check bool) "reported as stalled" true
        (String.length e >= 7 && String.sub e 0 7 = "stalled")
  | Ok (r, _) -> Alcotest.failf "eager infinite producer terminated: %s" r

let test_paper_apply_stream () =
  (* The paper's top-level program (Figure 2-1 / §2.1), verbatim in
     structure: apply-stream over a circular stream of database versions,
     with insert and count transactions. *)
  let program =
    {|
      apply-stream:[ts, dbs] =
        if null?:ts then [[], []]
        else {
          [response, new-db] = (first:ts):(first:dbs),
          [more-responses, more-dbs] = apply-stream:[rest:ts, rest:dbs],
          RESULT [response ^ more-responses, new-db ^ more-dbs]
        },
      mk-insert:k = { txn:db = [k, k ^ db], RESULT txn },
      len:s = if null?:s then 0 else 1 + len:(rest:s),
      mk-count:ignored = { txn:db = [len:db, db], RESULT txn },
      transactions = [mk-insert:10, mk-count:0, mk-insert:20, mk-count:0],
      initial-database = [1, 2, 3],
      [responses, new-databases] = apply-stream:[transactions, old-databases],
      old-databases = initial-database ^ new-databases,
      RESULT responses
    |}
  in
  let (res, stats) = run program in
  Alcotest.(check string) "responses" "[10, 4, 20, 5]" res;
  Alcotest.(check int) "no orphans" 0 stats.Engine.orphans;
  Alcotest.(check bool) "concurrency extracted" true (stats.Engine.max_ply > 1)

let test_pipelined_counts_overlap () =
  (* Two counts of the same database flood; makespan must be well under
     2x the single-count makespan. *)
  let mk n =
    Printf.sprintf
      "len:s = if null?:s then 0 else 1 + len:(rest:s), db = [%s], RESULT %s"
      (String.concat ", " (List.init 30 string_of_int))
      (String.concat " + " (List.init n (fun _ -> "len:db")))
  in
  let (_, one) = run (mk 1) in
  let (_, four) = run (mk 4) in
  Alcotest.(check bool)
    (Printf.sprintf "4 scans in %d vs 1 in %d cycles" four.Engine.cycles
       one.Engine.cycles)
    true
    (four.Engine.cycles < 2 * one.Engine.cycles)

let test_runtime_errors () =
  let check_err src fragment =
    let msg = run_err src in
    Alcotest.(check bool)
      (Printf.sprintf "%s mentions %s (got: %s)" src fragment msg)
      true
      (let n = String.length fragment and m = String.length msg in
       let rec at i = i + n <= m && (String.sub msg i n = fragment || at (i + 1)) in
       at 0)
  in
  check_err "RESULT 1 / 0" "division";
  check_err "RESULT first:[]" "first of []";
  check_err "RESULT undefined-thing" "unbound";
  check_err "RESULT 1:[2]" "not applicable";
  check_err "RESULT [1] = [2]" "compare";
  check_err {|RESULT 1 + "a"|} "bad operands"

let test_unresolved_renders_bottom () =
  (* A self-dependent scalar cannot resolve; the run quiesces with an
     orphan and renders bottom. *)
  match Eval.run_string "x = x + 1, RESULT x" with
  | Ok (r, stats) ->
      Alcotest.(check string) "bottom" "_|_" r;
      Alcotest.(check bool) "orphans reported" true (stats.Engine.orphans > 0)
  | Error e -> Alcotest.fail e

(* -- the prelude --------------------------------------------------------------- *)

let test_prelude_functions () =
  Alcotest.(check string) "length" "4" (result "RESULT length:[5, 6, 7, 8]");
  Alcotest.(check string) "append" "[1, 2, 3, 4]"
    (result "RESULT append:[[1, 2], [3, 4]]");
  Alcotest.(check string) "take/drop" "[[1, 2], [3]]"
    (result "s = [1, 2, 3], RESULT [take:[2, s], drop:[2, s]]");
  Alcotest.(check string) "reverse" "[3, 2, 1]" (result "RESULT reverse:[1, 2, 3]");
  Alcotest.(check string) "member yes" "1" (result "RESULT member:[2, [1, 2]]");
  Alcotest.(check string) "member no" "0" (result "RESULT member:[9, [1, 2]]");
  Alcotest.(check string) "sum" "6" (result "RESULT sum:[1, 2, 3]");
  Alcotest.(check string) "nth" "30" (result "RESULT nth:[2, [10, 20, 30]]");
  Alcotest.(check string) "iota" "[0, 1, 2, 3]" (result "RESULT iota:4");
  Alcotest.(check string) "filter" "[2, 4]"
    (result "even:x = x - x / 2 * 2 = 0, RESULT filter:[even, [1, 2, 3, 4]]");
  Alcotest.(check string) "foldr" "10"
    (result "add:[a, b] = a + b, RESULT foldr:[add, 0, [1, 2, 3, 4]]")

let test_prelude_shadowing () =
  (* A program's own definition wins over the prelude's. *)
  Alcotest.(check string) "user sum shadows" "99"
    (result "sum:s = 99, RESULT sum:[1, 2, 3]")

let test_prelude_composes_with_apply_to_all () =
  Alcotest.(check string) "sum of mapped stream" "12"
    (result "double:x = 2 * x, RESULT sum:(double || iota:4)")

(* Both evaluation strategies agree on every terminating program: generate
   random total expressions and compare. *)
let gen_total_expr =
  QCheck2.Gen.(
    sized @@ fix (fun self n ->
        if n <= 1 then
          oneof
            [ map string_of_int (int_range 0 20);
              map
                (fun xs ->
                  "[" ^ String.concat ", " (List.map string_of_int xs) ^ "]")
                (list_size (int_range 1 4) (int_range 0 9)) ]
        else
          let sub = self (n / 2) in
          oneof
            [ map2 (fun a b -> Printf.sprintf "(%s + %s)" a b) sub sub;
              map2 (fun a b -> Printf.sprintf "(%s * %s)" a b) sub sub;
              map2 (fun a b -> Printf.sprintf "(%s - %s)" a b) sub sub;
              map3
                (fun a b c ->
                  Printf.sprintf "(if %s <= %s then %s else %s)" a b c a)
                sub sub sub;
              map
                (fun xs ->
                  "sum:["
                  ^ String.concat ", " (List.map string_of_int xs)
                  ^ "]")
                (list_size (int_range 1 4) (int_range 0 9));
              map
                (fun xs ->
                  "length:["
                  ^ String.concat ", " (List.map string_of_int xs)
                  ^ "]")
                (list_size (int_range 1 4) (int_range 0 9)) ]))

let prop_modes_agree =
  QCheck2.Test.make ~name:"lenient and demand modes agree" ~count:200
    gen_total_expr (fun src ->
      let program = "RESULT " ^ src in
      match
        (Eval.run_string program, Eval.run_string ~mode:Eval.Demand program)
      with
      | (Ok (a, _), Ok (b, _)) -> a = b
      | (Error a, Error b) ->
          (* ill-typed programs (e.g. list + int) must fail identically *)
          a = b
      | (Ok (r, _), Error e) | (Error e, Ok (r, _)) ->
          QCheck2.Test.fail_reportf "modes disagree on %s: %s vs %s" src r e)

(* -- demand-driven (lazy) mode -------------------------------------------------- *)

let result_demand src =
  match Eval.run_string ~mode:Eval.Demand src with
  | Ok (r, _) -> r
  | Error e -> Alcotest.failf "FEL (demand): %s" e

let test_demand_basic () =
  Alcotest.(check string) "arith" "11" (result_demand "RESULT 1 + 2 * 5");
  Alcotest.(check string) "function" "9"
    (result_demand "square:x = x * x, RESULT square:3");
  Alcotest.(check string) "prelude" "[1, 2, 3, 4]"
    (result_demand "RESULT append:[[1, 2], [3, 4]]");
  Alcotest.(check string) "destructuring" "[2, 1]"
    (result_demand "[a, b] = [1, 2], RESULT [b, a]")

let test_demand_infinite_stream_terminates () =
  (* The program that (correctly) diverges under lenient evaluation:
     demand-driven production makes it finite. *)
  Alcotest.(check string) "nats" "[0, 1, 2, 3, 4]"
    (result_demand
       "inc:x = x + 1, nats = 0 ^ (inc || nats), RESULT take:[5, nats]")

let test_demand_skips_unused_equations () =
  (* An equation whose value would diverge is never demanded. *)
  Alcotest.(check string) "unused divergence" "42"
    (result_demand "boom:x = boom:x, trap = boom:1, RESULT 42")

let test_demand_vs_lenient_parallelism () =
  (* The cost of laziness: the same 3-scan program extracts less
     parallelism under demand-driven evaluation (scans run only as the
     printing demand reaches them), more under lenient ("anticipatory")
     evaluation. *)
  let src =
    "db = iota:40, RESULT [sum:db, length:db, sum:(reverse:db)]"
  in
  let stats mode =
    match Eval.run_string ~mode src with
    | Ok (_, stats) -> stats
    | Error e -> Alcotest.fail e
  in
  let lenient = stats Eval.Lenient and demand = stats Eval.Demand in
  Alcotest.(check bool)
    (Printf.sprintf "lenient wider plies (%d vs %d)"
       lenient.Engine.max_ply demand.Engine.max_ply)
    true
    (lenient.Engine.max_ply >= demand.Engine.max_ply);
  Alcotest.(check bool) "lenient not slower" true
    (lenient.Engine.cycles <= demand.Engine.cycles)

let test_demand_paper_apply_stream () =
  (* The paper's program also works demand-driven. *)
  let program =
    {|
      apply-stream:[ts, dbs] =
        if null?:ts then [[], []]
        else {
          [response, new-db] = (first:ts):(first:dbs),
          [more-responses, more-dbs] = apply-stream:[rest:ts, rest:dbs],
          RESULT [response ^ more-responses, new-db ^ more-dbs]
        },
      mk-insert:k = { txn:db = [k, k ^ db], RESULT txn },
      mk-count:ignored = { txn:db = [length:db, db], RESULT txn },
      transactions = [mk-insert:10, mk-count:0, mk-insert:20, mk-count:0],
      initial-database = [1, 2, 3],
      [responses, new-databases] = apply-stream:[transactions, old-databases],
      old-databases = initial-database ^ new-databases,
      RESULT responses
    |}
  in
  Alcotest.(check string) "responses" "[10, 4, 20, 5]" (result_demand program)

(* -- site pragmas (paper section 3.2) ---------------------------------------- *)

let test_my_site_ideal () =
  (* On the ideal machine everything runs on site 0. *)
  Alcotest.(check string) "my-site" "0" (result "RESULT my-site:[]")

let run_on_machine src =
  let topo = Fdb_net.Topology.hypercube 3 in
  let machine = Fdb_rediflow.Machine.create
      (Fdb_rediflow.Machine.default_config topo) in
  let eng = Engine.create
      ~scheduler:(Fdb_rediflow.Machine.scheduler machine) () in
  let program = Parser.parse_program_exn src in
  let out = Eval.eval_program eng program in
  let stats = Engine.run eng in
  (Eval.render out, stats)

let test_result_on_places_computation () =
  (* RESULT-ON:[expr, site]: the outermost function is computed on the
     requested site, observable via my-site. *)
  let (res, _) = run_on_machine "RESULT result-on:[my-site:[], 5]" in
  Alcotest.(check string) "computed on site 5" "5" res

let test_result_on_returns_value () =
  let (res, _) =
    run_on_machine
      "f:x = x * x, RESULT result-on:[f:7, 3] + result-on:[f:2, 6]"
  in
  Alcotest.(check string) "value unaffected by placement" "53" res

let test_result_on_bad_site_type () =
  match Eval.run_string {|RESULT result-on:[1, "here"]|} with
  | Error e ->
      Alcotest.(check bool) "type error reported" true
        (String.length e > 0)
  | Ok (r, _) -> Alcotest.failf "accepted string site: %s" r

let () =
  Alcotest.run "fel"
    [
      ( "lexer",
        [
          Alcotest.test_case "hyphen idents" `Quick test_lexer_hyphen_idents;
          Alcotest.test_case "comments/null?" `Quick
            test_lexer_comments_and_null;
        ] );
      ( "parser",
        [
          Alcotest.test_case "precedence" `Quick test_parser_precedence;
          Alcotest.test_case "equations" `Quick test_parser_equations;
          Alcotest.test_case "destructuring" `Quick test_parser_destructuring;
          Alcotest.test_case "errors" `Quick test_parser_errors;
          Alcotest.test_case "integer out of range" `Quick
            test_parser_int_out_of_range;
          QCheck_alcotest.to_alcotest prop_parser_never_raises;
        ] );
      ( "evaluation",
        [
          Alcotest.test_case "arithmetic" `Quick test_arith;
          Alcotest.test_case "equations/functions" `Quick
            test_equations_and_functions;
          Alcotest.test_case "streams" `Quick test_streams;
          Alcotest.test_case "apply-to-all" `Quick test_apply_to_all;
          Alcotest.test_case "destructuring" `Quick
            test_destructuring_equation;
          Alcotest.test_case "infinite streams" `Quick
            test_infinite_stream_is_lenient;
          Alcotest.test_case "eager recursion diverges" `Quick
            test_eager_recursive_producer_diverges;
          Alcotest.test_case "runtime errors" `Quick test_runtime_errors;
          Alcotest.test_case "bottom" `Quick test_unresolved_renders_bottom;
        ] );
      ( "prelude",
        [
          Alcotest.test_case "functions" `Quick test_prelude_functions;
          Alcotest.test_case "shadowing" `Quick test_prelude_shadowing;
          Alcotest.test_case "with ||" `Quick
            test_prelude_composes_with_apply_to_all;
        ] );
      ( "demand mode",
        [
          Alcotest.test_case "basics" `Quick test_demand_basic;
          Alcotest.test_case "infinite stream" `Quick
            test_demand_infinite_stream_terminates;
          Alcotest.test_case "unused divergence skipped" `Quick
            test_demand_skips_unused_equations;
          Alcotest.test_case "parallelism trade-off" `Quick
            test_demand_vs_lenient_parallelism;
          Alcotest.test_case "paper apply-stream" `Quick
            test_demand_paper_apply_stream;
          QCheck_alcotest.to_alcotest prop_modes_agree;
        ] );
      ( "site pragmas",
        [
          Alcotest.test_case "my-site (ideal)" `Quick test_my_site_ideal;
          Alcotest.test_case "result-on places" `Quick
            test_result_on_places_computation;
          Alcotest.test_case "result-on value" `Quick
            test_result_on_returns_value;
          Alcotest.test_case "result-on bad site" `Quick
            test_result_on_bad_site_type;
        ] );
      ( "paper programs",
        [
          Alcotest.test_case "apply-stream" `Quick test_paper_apply_stream;
          Alcotest.test_case "scans overlap" `Quick
            test_pipelined_counts_overlap;
        ] );
    ]
