(* Query language tests: lexer, parser, pretty-printer round trips, and
   predicate compilation. *)

open Fdb_relational
module Ast = Fdb_query.Ast
module Lexer = Fdb_query.Lexer
module Parser = Fdb_query.Parser
module Pred = Fdb_query.Pred

let parse_ok src =
  match Parser.parse src with
  | Ok q -> q
  | Error e -> Alcotest.failf "parse %S: %s" src e

let parse_err src =
  match Parser.parse src with
  | Ok _ -> Alcotest.failf "parse %S unexpectedly succeeded" src
  | Error e -> e

(* -- lexer ------------------------------------------------------------------ *)

let test_lexer_basic () =
  let toks = Lexer.tokens "insert (1, \"a b\") into R" in
  Alcotest.(check int) "token count" 8 (List.length toks);
  (match toks with
  | [ Lexer.KW "insert"; Lexer.LPAREN; Lexer.INT 1; Lexer.COMMA;
      Lexer.STRING "a b"; Lexer.RPAREN; Lexer.KW "into"; Lexer.IDENT "R" ] ->
      ()
  | _ -> Alcotest.fail "unexpected tokens")

let test_lexer_numbers_and_ops () =
  (match Lexer.tokens "-3 4.5 <= >= != < > =" with
  | [ Lexer.INT (-3); Lexer.REAL 4.5; Lexer.OP "<="; Lexer.OP ">=";
      Lexer.OP "!="; Lexer.OP "<"; Lexer.OP ">"; Lexer.OP "=" ] ->
      ()
  | _ -> Alcotest.fail "numbers/ops mis-lexed");
  match Lexer.tokens "'single'" with
  | [ Lexer.STRING "single" ] -> ()
  | _ -> Alcotest.fail "single quotes"

let test_lexer_keywords_case_insensitive () =
  match Lexer.tokens "INSERT Into r" with
  | [ Lexer.KW "insert"; Lexer.KW "into"; Lexer.IDENT "r" ] -> ()
  | _ -> Alcotest.fail "keyword case"

(* Every keyword in any letter case is that keyword; a word that only
   starts or ends with one is an identifier, its case kept. *)
let test_lexer_keyword_boundaries () =
  List.iter
    (fun kw ->
      let mixed = String.mapi (fun i c -> if i mod 2 = 0 then Char.uppercase_ascii c else c) kw in
      List.iter
        (fun word ->
          match Lexer.tokens word with
          | [ Lexer.KW k ] when String.equal k kw -> ()
          | _ -> Alcotest.failf "%S did not lex as keyword %s" word kw)
        [ kw; String.uppercase_ascii kw; mixed ])
    Lexer.keywords;
  List.iter
    (fun word ->
      match Lexer.tokens word with
      | [ Lexer.IDENT w ] when String.equal w word -> ()
      | _ -> Alcotest.failf "%S did not lex as an identifier" word)
    [ "inserts"; "into_x"; "R_in"; "Insert1"; "_in"; "INTOx"; "ORDER"; "notes" ];
  match Lexer.tokens "SeLeCt Val FROM R_in WHERE key>=2" with
  | [ Lexer.KW "select"; Lexer.IDENT "Val"; Lexer.KW "from"; Lexer.IDENT "R_in";
      Lexer.KW "where"; Lexer.IDENT "key"; Lexer.OP ">="; Lexer.INT 2 ] ->
      ()
  | _ -> Alcotest.fail "mixed-case query"

let test_lexer_errors () =
  Alcotest.check_raises "unterminated string"
    (Lexer.Lex_error ("unterminated string", 0)) (fun () ->
      ignore (Lexer.tokens "\"oops"));
  (try
     ignore (Lexer.tokens "a @ b");
     Alcotest.fail "lexed '@'"
   with Lexer.Lex_error (_, pos) -> Alcotest.(check int) "position" 2 pos)

(* -- parser ------------------------------------------------------------------ *)

let test_parse_insert () =
  match parse_ok "insert (7, \"g\", true, 1.5) into Widgets" with
  | Ast.Insert { rel = "Widgets"; values } ->
      Alcotest.(check int) "arity" 4 (List.length values);
      Alcotest.(check bool) "bool literal" true
        (List.exists (Value.equal (Value.Bool true)) values)
  | _ -> Alcotest.fail "wrong AST"

let test_parse_find_delete_count () =
  (match parse_ok "find 3 in R" with
  | Ast.Find { rel = "R"; key = Value.Int 3 } -> ()
  | _ -> Alcotest.fail "find");
  (match parse_ok "delete \"k\" from S" with
  | Ast.Delete { rel = "S"; key = Value.Str "k" } -> ()
  | _ -> Alcotest.fail "delete");
  (match parse_ok "count R" with
  | Ast.Count { rel = "R"; where = Ast.True } -> ()
  | _ -> Alcotest.fail "count");
  match parse_ok "count R where key > 2" with
  | Ast.Count { rel = "R"; where = Ast.Cmp ("key", Ast.Gt, Value.Int 2) } -> ()
  | _ -> Alcotest.fail "count where"

let test_parse_select () =
  (match parse_ok "select * from R" with
  | Ast.Select { rel = "R"; cols = None; where = Ast.True } -> ()
  | _ -> Alcotest.fail "select star");
  (match parse_ok "select a, b from R where a > 3 and not (b = 2 or a <= 1)" with
  | Ast.Select { cols = Some [ "a"; "b" ];
                 where = Ast.And (Ast.Cmp ("a", Ast.Gt, Value.Int 3),
                                  Ast.Not (Ast.Or _)); _ } -> ()
  | q -> Alcotest.failf "select where: %s" (Ast.to_string q));
  (* 'and' binds tighter than 'or' *)
  match parse_ok "select * from R where a = 1 or b = 2 and a = 3" with
  | Ast.Select { where = Ast.Or (_, Ast.And _); _ } -> ()
  | _ -> Alcotest.fail "precedence"

let test_parse_aggregate () =
  (match parse_ok "sum age from People where age >= 30" with
  | Ast.Aggregate { agg = Ast.Sum; rel = "People"; col = "age";
                    where = Ast.Cmp ("age", Ast.Ge, Value.Int 30) } -> ()
  | _ -> Alcotest.fail "sum");
  (match parse_ok "min price from Items" with
  | Ast.Aggregate { agg = Ast.Min; rel = "Items"; col = "price";
                    where = Ast.True } -> ()
  | _ -> Alcotest.fail "min");
  match parse_ok "max price from Items" with
  | Ast.Aggregate { agg = Ast.Max; _ } -> ()
  | _ -> Alcotest.fail "max"

let test_parse_update () =
  (match parse_ok "update R set val = \"x\" where key > 3" with
  | Ast.Update { rel = "R"; col = "val"; value = Value.Str "x";
                 where = Ast.Cmp ("key", Ast.Gt, Value.Int 3) } -> ()
  | _ -> Alcotest.fail "update");
  match parse_ok "update R set flag = true" with
  | Ast.Update { where = Ast.True; value = Value.Bool true; _ } -> ()
  | _ -> Alcotest.fail "update no where"

let test_parse_join () =
  match parse_ok "join R and S on b = c" with
  | Ast.Join { left = "R"; right = "S"; on = ("b", "c") } -> ()
  | _ -> Alcotest.fail "join"

let test_parse_errors () =
  let check_err src =
    let msg = parse_err src in
    Alcotest.(check bool) (src ^ ": message nonempty") true (msg <> "")
  in
  List.iter check_err
    [ ""; "insert 3 into R"; "find in R"; "select from R"; "insert (1,) into R";
      "find 3 in"; "count"; "join R and S on b"; "find 3 in R extra";
      "select * from R where" ]

let test_parse_int_out_of_range () =
  Alcotest.(check bool) "max_int parses" true
    (Result.is_ok (Parser.parse (Printf.sprintf "find %d in R" max_int)));
  Alcotest.(check bool) "min_int parses" true
    (Result.is_ok (Parser.parse (Printf.sprintf "find %d in R" min_int)));
  List.iter
    (fun src ->
      match Parser.parse src with
      | Error msg ->
          Alcotest.(check bool) (src ^ ": names the range") true
            (String.ends_with ~suffix:"integer literal out of range" msg)
      | Ok _ -> Alcotest.failf "accepted %S" src)
    [ "insert (99999999999999999999, \"a\") into R";
      Printf.sprintf "find %d0 in R" max_int;
      "select * from R where key > -99999999999999999999" ]

let test_parse_script () =
  match
    Parser.parse_script
      "-- a comment\ninsert (1, \"a\") into R; find 1 in R\n\ncount R"
  with
  | Ok [ Ast.Insert _; Ast.Find _; Ast.Count _ ] -> ()
  | Ok qs -> Alcotest.failf "got %d queries" (List.length qs)
  | Error e -> Alcotest.fail e

let test_parse_script_error_location () =
  match Parser.parse_script "count R; garbage here" with
  | Error e ->
      Alcotest.(check bool) "mentions the bad line" true
        (String.length e > 0 &&
         String.sub e 0 3 = "in ")
  | Ok _ -> Alcotest.fail "script accepted garbage"

(* -- pretty-printer round trip (property) ------------------------------------- *)

let gen_value =
  QCheck2.Gen.(
    oneof
      [ map (fun i -> Value.Int i) (int_range (-100) 100);
        map (fun s -> Value.Str s)
          (string_size ~gen:(char_range 'a' 'z') (int_range 0 8));
        map (fun b -> Value.Bool b) bool ])

let keywords = Lexer.keywords

let gen_ident =
  (* Identifiers must not collide with keywords or the round trip breaks
     for the wrong reason. *)
  QCheck2.Gen.(
    map2
      (fun c rest ->
        let s = String.make 1 c ^ rest in
        if List.mem s keywords then s ^ "x" else s)
      (char_range 'a' 'z')
      (string_size ~gen:(char_range 'a' 'z') (int_range 0 6)))

let gen_cmp = QCheck2.Gen.oneofl [ Ast.Eq; Ast.Ne; Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge ]

let gen_pred =
  QCheck2.Gen.(
    sized @@ fix (fun self n ->
        if n <= 1 then
          map3 (fun c op v -> Ast.Cmp (c, op, v)) gen_ident gen_cmp gen_value
        else
          oneof
            [ map3 (fun c op v -> Ast.Cmp (c, op, v)) gen_ident gen_cmp gen_value;
              map2 (fun a b -> Ast.And (a, b)) (self (n / 2)) (self (n / 2));
              map2 (fun a b -> Ast.Or (a, b)) (self (n / 2)) (self (n / 2));
              map (fun a -> Ast.Not a) (self (n - 1)) ]))

let gen_query =
  QCheck2.Gen.(
    oneof
      [ map2
          (fun rel values -> Ast.Insert { rel; values })
          gen_ident
          (list_size (int_range 1 4) gen_value);
        map2 (fun rel key -> Ast.Find { rel; key }) gen_ident gen_value;
        map2 (fun rel key -> Ast.Delete { rel; key }) gen_ident gen_value;
        map3
          (fun rel cols where -> Ast.Select { rel; cols; where })
          gen_ident
          (oneof [ return None;
                   map (fun cs -> Some cs) (list_size (int_range 1 3) gen_ident) ])
          gen_pred;
        map2 (fun rel where -> Ast.Count { rel; where }) gen_ident
          (oneof [ QCheck2.Gen.return Ast.True; gen_pred ]);
        map2
          (fun (agg, rel) (col, where) -> Ast.Aggregate { agg; rel; col; where })
          (pair (oneofl [ Ast.Sum; Ast.Min; Ast.Max ]) gen_ident)
          (pair gen_ident gen_pred);
        map2
          (fun (rel, col) (value, where) ->
            Ast.Update { rel; col; value; where })
          (pair gen_ident gen_ident)
          (pair gen_value gen_pred);
        map3
          (fun left right on -> Ast.Join { left; right; on })
          gen_ident gen_ident (pair gen_ident gen_ident) ])

let prop_pp_parse_roundtrip =
  QCheck2.Test.make ~name:"parse (to_string q) = q" ~count:500 gen_query
    (fun q ->
      match Parser.parse (Ast.to_string q) with
      | Ok q' -> q' = q
      | Error e -> QCheck2.Test.fail_reportf "%s on %S" e (Ast.to_string q))

(* Arbitrary bytes, and soups of query fragments (keywords, operators,
   quotes, out-of-range numbers), must come back as [Ok] or [Error]: the
   parser never raises. *)
let gen_input fragments =
  QCheck2.Gen.(
    oneof
      [ string_size ~gen:char (int_bound 64);
        map (String.concat " ") (list_size (int_bound 12) (oneofl fragments)) ])

let query_fragments =
  [ "insert"; "into"; "find"; "in"; "delete"; "from"; "select"; "where";
    "count"; "sum"; "max"; "update"; "set"; "join"; "and"; "or"; "not";
    "on"; "R"; "key"; "val"; "("; ")"; ","; "*"; "="; "!="; "<="; ">"; "\"";
    "'"; "\"a\""; "1"; "-"; "-7"; "2.5"; "-0."; "99999999999999999999";
    "4611686018427387904"; "!"; "."; ";"; "--" ]

let prop_parse_never_raises =
  QCheck2.Test.make ~name:"parse arbitrary bytes: Ok or Error" ~count:2000
    ~print:(Printf.sprintf "%S") (gen_input query_fragments) (fun src ->
      match Parser.parse src with Ok _ | Error _ -> true)

(* -- predicates ----------------------------------------------------------------- *)

let schema =
  Schema.make ~name:"R" ~cols:[ ("key", Schema.CInt); ("val", Schema.CStr) ]

let test_pred_compile () =
  let t = Tuple.make [ Value.Int 5; Value.Str "m" ] in
  let check_pred src expected =
    match parse_ok ("select * from R where " ^ src) with
    | Ast.Select { where; _ } -> (
        match Pred.eval schema where t with
        | Ok b -> Alcotest.(check bool) src expected b
        | Error e -> Alcotest.fail e)
    | _ -> Alcotest.fail "not a select"
  in
  check_pred "key = 5" true;
  check_pred "key != 5" false;
  check_pred "key > 4 and val = \"m\"" true;
  check_pred "key < 5 or val >= \"a\"" true;
  check_pred "not key <= 5" false;
  check_pred "true" true

let test_aggregate_compile () =
  let rows =
    [ Tuple.make [ Value.Int 1; Value.Str "a" ];
      Tuple.make [ Value.Int 5; Value.Str "b" ];
      Tuple.make [ Value.Int 3; Value.Str "c" ] ]
  in
  let run agg col where =
    match Pred.compile_aggregate schema agg col where with
    | Ok (step, finish) -> Ok (finish (List.fold_left step None rows))
    | Error e -> Error e
  in
  (match run Ast.Sum "key" Ast.True with
  | Ok (Some (Value.Int 9)) -> ()
  | _ -> Alcotest.fail "sum");
  (match run Ast.Min "key" Ast.True with
  | Ok (Some (Value.Int 1)) -> ()
  | _ -> Alcotest.fail "min");
  (match run Ast.Max "val" Ast.True with
  | Ok (Some (Value.Str "c")) -> ()
  | _ -> Alcotest.fail "max over strings");
  (match run Ast.Sum "key" (Ast.Cmp ("key", Ast.Gt, Value.Int 100)) with
  | Ok (Some (Value.Int 0)) -> ()
  | _ -> Alcotest.fail "empty sum is 0");
  (match run Ast.Min "key" (Ast.Cmp ("key", Ast.Gt, Value.Int 100)) with
  | Ok None -> ()
  | _ -> Alcotest.fail "empty min is nothing");
  (match run Ast.Sum "val" Ast.True with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "sum over strings accepted");
  match run Ast.Sum "ghost" Ast.True with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "ghost column accepted"

let test_pred_unknown_column () =
  match Pred.compile schema (Ast.Cmp ("ghost", Ast.Eq, Value.Int 1)) with
  | Error msg ->
      Alcotest.(check string) "message" "relation R has no column ghost" msg
  | Ok _ -> Alcotest.fail "compiled against a ghost column"

let test_update_compile () =
  (match Pred.compile_update schema "val" (Value.Str "n") Ast.True with
  | Ok rewrite -> (
      match rewrite (Tuple.make [ Value.Int 1; Value.Str "o" ]) with
      | Some t' ->
          Alcotest.(check bool) "rewritten" true
            (Value.equal (Tuple.get t' 1) (Value.Str "n"))
      | None -> Alcotest.fail "should rewrite")
  | Error e -> Alcotest.fail e);
  (match Pred.compile_update schema "key" (Value.Int 9) Ast.True with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "key column update accepted");
  (match Pred.compile_update schema "val" (Value.Int 9) Ast.True with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong type accepted");
  match Pred.compile_update schema "ghost" (Value.Int 9) Ast.True with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "ghost column accepted"

let () =
  Alcotest.run "query"
    [
      ( "lexer",
        [
          Alcotest.test_case "basic" `Quick test_lexer_basic;
          Alcotest.test_case "numbers and ops" `Quick
            test_lexer_numbers_and_ops;
          Alcotest.test_case "case-insensitive keywords" `Quick
            test_lexer_keywords_case_insensitive;
          Alcotest.test_case "keyword boundaries" `Quick
            test_lexer_keyword_boundaries;
          Alcotest.test_case "errors" `Quick test_lexer_errors;
        ] );
      ( "parser",
        [
          Alcotest.test_case "insert" `Quick test_parse_insert;
          Alcotest.test_case "find/delete/count" `Quick
            test_parse_find_delete_count;
          Alcotest.test_case "select" `Quick test_parse_select;
          Alcotest.test_case "aggregate" `Quick test_parse_aggregate;
          Alcotest.test_case "update" `Quick test_parse_update;
          Alcotest.test_case "join" `Quick test_parse_join;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "integer out of range" `Quick
            test_parse_int_out_of_range;
          Alcotest.test_case "script" `Quick test_parse_script;
          Alcotest.test_case "script error" `Quick
            test_parse_script_error_location;
        ] );
      ("round-trip", [ QCheck_alcotest.to_alcotest prop_pp_parse_roundtrip ]);
      ("fuzz", [ QCheck_alcotest.to_alcotest prop_parse_never_raises ]);
      ( "predicates",
        [
          Alcotest.test_case "compile/eval" `Quick test_pred_compile;
          Alcotest.test_case "aggregates" `Quick test_aggregate_compile;
          Alcotest.test_case "update compile" `Quick test_update_compile;
          Alcotest.test_case "unknown column" `Quick test_pred_unknown_column;
        ] );
    ]
