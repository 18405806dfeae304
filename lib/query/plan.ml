open Fdb_relational

type bound = { value : Value.t; inclusive : bool }

type path =
  | Point_lookup of Value.t
  | Range_scan of { lo : bound option; hi : bound option }
  | Full_scan

type t = { path : path; residual : Ast.pred }

(* Flatten the top-level [And] spine into a conjunct list; [True] conjuncts
   vanish.  Disjunctions and negations stay opaque (a single conjunct). *)
let conjuncts pred =
  let rec go acc = function
    | Ast.And (a, b) -> go (go acc a) b
    | Ast.True -> acc
    | p -> p :: acc
  in
  List.rev (go [] pred)

let conjoin = function
  | [] -> Ast.True
  | p :: rest -> List.fold_left (fun acc q -> Ast.And (acc, q)) p rest

let key_column schema =
  match Schema.columns schema with
  | (name, _) :: _ -> name
  | [] -> assert false (* Schema.make rejects empty column lists *)

(* Tighter of two bounds of the same side.  [keep_gt] chooses the greater
   value (lower bounds tighten upward), its negation the smaller (upper
   bounds tighten downward); at equal values the exclusive bound wins. *)
let tighten ~keep_gt cur cand =
  match cur with
  | None -> Some cand
  | Some b ->
      let c = Value.compare cand.value b.value in
      if c = 0 then
        Some (if b.inclusive then cand else b)
      else if (c > 0) = keep_gt then Some cand
      else Some b

let analyze schema pred =
  let key = key_column schema in
  let atoms = conjuncts pred in
  (* First pass: a key-equality atom makes the path a point lookup and every
     other conjunct residual (further bounds would be redundant next to a
     single-key probe, and a contradictory one falsifies the residual). *)
  let rec find_eq seen = function
    | [] -> None
    | Ast.Cmp (col, Ast.Eq, v) :: rest when String.equal col key ->
        Some (v, List.rev_append seen rest)
    | atom :: rest -> find_eq (atom :: seen) rest
  in
  match find_eq [] atoms with
  | Some (v, rest) -> { path = Point_lookup v; residual = conjoin rest }
  | None ->
      let lo = ref None and hi = ref None and residual = ref [] in
      List.iter
        (fun atom ->
          match atom with
          | Ast.Cmp (col, op, v) when String.equal col key -> (
              match op with
              | Ast.Gt -> lo := tighten ~keep_gt:true !lo { value = v; inclusive = false }
              | Ast.Ge -> lo := tighten ~keep_gt:true !lo { value = v; inclusive = true }
              | Ast.Lt -> hi := tighten ~keep_gt:false !hi { value = v; inclusive = false }
              | Ast.Le -> hi := tighten ~keep_gt:false !hi { value = v; inclusive = true }
              | Ast.Eq | Ast.Ne -> residual := atom :: !residual)
          | _ -> residual := atom :: !residual)
        atoms;
      let residual = conjoin (List.rev !residual) in
      (match (!lo, !hi) with
      | (None, None) -> { path = Full_scan; residual }
      | (lo, hi) -> { path = Range_scan { lo; hi }; residual })

let pp_bound side ppf = function
  | None -> Format.pp_print_string ppf (if side = `Lo then "-inf" else "+inf")
  | Some { value; inclusive } ->
      let op =
        match (side, inclusive) with
        | (`Lo, true) -> ">="
        | (`Lo, false) -> ">"
        | (`Hi, true) -> "<="
        | (`Hi, false) -> "<"
      in
      Format.fprintf ppf "key %s %a" op Value.pp value

let pp_path ppf = function
  | Point_lookup v -> Format.fprintf ppf "point lookup key = %a" Value.pp v
  | Range_scan { lo; hi } ->
      Format.fprintf ppf "range scan [%a, %a]" (pp_bound `Lo) lo
        (pp_bound `Hi) hi
  | Full_scan -> Format.pp_print_string ppf "full scan"

let pp ppf { path; residual } =
  pp_path ppf path;
  match residual with
  | Ast.True -> ()
  | p -> Format.fprintf ppf "; residual %a" Ast.pp_pred p

let to_string plan = Format.asprintf "%a" pp plan

(* -- indexed planning ------------------------------------------------------ *)

type index_kind =
  | Ix_secondary
  | Ix_covering of string list
  | Ix_derived of string

type index_desc = {
  ix_name : string;
  ix_rel : string;
  ix_col : string;
  ix_kind : index_kind;
}

let index_kind_name = function
  | Ix_secondary -> "secondary"
  | Ix_covering _ -> "covering"
  | Ix_derived _ -> "derived"

type ipath =
  | Primary of path
  | Index_scan of {
      ix : index_desc;
      ilo : bound option;
      ihi : bound option;
      only : bool;
    }
  | Index_group of { ix : index_desc; group : Value.t }

type iplan = { ipath : ipath; iresidual : Ast.pred }

type want = Want_all | Want_cols of string list | Want_base

let rec pred_columns acc = function
  | Ast.True -> acc
  | Ast.Cmp (c, _, _) -> c :: acc
  | Ast.And (a, b) | Ast.Or (a, b) -> pred_columns (pred_columns acc a) b
  | Ast.Not p -> pred_columns acc p

(* How an index's column appears in the conjunct list: an equality atom
   (preferred — a single probe), or range atoms tightened per side.  The
   absorbed atoms are removed; everything else is returned as residual, in
   the original conjunct order. *)
let index_match col atoms =
  let rec find_eq seen = function
    | [] -> None
    | Ast.Cmp (c, Ast.Eq, v) :: rest when String.equal c col ->
        Some (v, List.rev_append seen rest)
    | atom :: rest -> find_eq (atom :: seen) rest
  in
  match find_eq [] atoms with
  | Some (v, rest) ->
      let b = Some { value = v; inclusive = true } in
      Some (`Eq, b, b, rest)
  | None ->
      let lo = ref None and hi = ref None and residual = ref [] in
      List.iter
        (fun atom ->
          match atom with
          | Ast.Cmp (c, op, v) when String.equal c col -> (
              match op with
              | Ast.Gt ->
                  lo := tighten ~keep_gt:true !lo { value = v; inclusive = false }
              | Ast.Ge ->
                  lo := tighten ~keep_gt:true !lo { value = v; inclusive = true }
              | Ast.Lt ->
                  hi := tighten ~keep_gt:false !hi { value = v; inclusive = false }
              | Ast.Le ->
                  hi := tighten ~keep_gt:false !hi { value = v; inclusive = true }
              | Ast.Eq | Ast.Ne -> residual := atom :: !residual)
          | _ -> residual := atom :: !residual)
        atoms;
      (match (!lo, !hi) with
      | (None, None) -> None
      | (lo, hi) -> Some (`Range, lo, hi, List.rev !residual))

let scan_indexes indexes =
  List.filter
    (fun ix ->
      match ix.ix_kind with
      | Ix_secondary | Ix_covering _ -> true
      | Ix_derived _ -> false)
    indexes

(* Can [ix] answer the read without touching the base relation?  Only a
   covering index, and only when every column the executor still needs —
   residual tests plus the requested output — is stored in the payload. *)
let index_only ix ~wanted schema residual =
  match ix.ix_kind with
  | Ix_secondary | Ix_derived _ -> false
  | Ix_covering stored ->
      let needed =
        match wanted with
        | Want_base -> None
        | Want_all -> Some (List.map fst (Schema.columns schema))
        | Want_cols cs -> Some (pred_columns cs residual)
      in
      (match needed with
      | None -> false
      | Some cols ->
          List.for_all (fun c -> List.exists (String.equal c) stored) cols)

(* Path preference, most to least selective: primary point lookup, index
   equality probe (covering before secondary: it may go index-only), primary
   range scan, index range, full scan.  A primary range beats an index range
   because the latter pays a base fetch per entry; an index equality beats a
   primary range because it is O(log n + k) on the probed group alone. *)
let analyze_indexed schema ~indexes ~wanted pred =
  let primary = analyze schema pred in
  match primary.path with
  | Point_lookup _ -> { ipath = Primary primary.path; iresidual = primary.residual }
  | Range_scan _ | Full_scan ->
      let atoms = conjuncts pred in
      let covering_first =
        let (cov, sec) =
          List.partition
            (fun ix ->
              match ix.ix_kind with Ix_covering _ -> true | _ -> false)
            (scan_indexes indexes)
        in
        cov @ sec
      in
      let matches =
        List.filter_map
          (fun ix ->
            Option.map
              (fun (shape, ilo, ihi, rest) -> (ix, shape, ilo, ihi, rest))
              (index_match ix.ix_col atoms))
          covering_first
      in
      let eq_match =
        List.find_opt (fun (_, shape, _, _, _) -> shape = `Eq) matches
      in
      let range_match =
        List.find_opt (fun (_, shape, _, _, _) -> shape = `Range) matches
      in
      let pick =
        match (primary.path, eq_match, range_match) with
        | (_, Some m, _) -> Some m
        | (Full_scan, None, Some m) -> Some m
        | _ -> None
      in
      (match pick with
      | None -> { ipath = Primary primary.path; iresidual = primary.residual }
      | Some (ix, _, ilo, ihi, rest) ->
          let iresidual = conjoin rest in
          let only = index_only ix ~wanted schema iresidual in
          { ipath = Index_scan { ix; ilo; ihi; only }; iresidual })

(* A derived index answers an aggregate in O(log n) only when the predicate
   is {e exactly} one equality on its group column — then the probed group
   is precisely the matching tuple set and the maintained count/sum/min/max
   is the answer.  Any residual conjunct, or an aggregate over a column
   other than the maintained target, disqualifies it. *)
let analyze_group schema ~indexes ~target pred =
  match conjuncts pred with
  | [ Ast.Cmp (col, Ast.Eq, v) ] ->
      let answers ix =
        String.equal ix.ix_col col
        &&
        match (ix.ix_kind, target) with
        | (Ix_derived _, `Count) -> true
        | (Ix_derived tgt, `Agg ((Ast.Min | Ast.Max), c)) -> String.equal tgt c
        | (Ix_derived tgt, `Agg (Ast.Sum, c)) ->
            String.equal tgt c
            && (match
                  Option.bind (Schema.column_index schema c)
                    (Schema.column_type schema)
                with
               | Some (Schema.CInt | Schema.CReal) -> true
               | Some (Schema.CStr | Schema.CBool) | None -> false)
        | ((Ix_secondary | Ix_covering _), _) -> false
      in
      Option.map
        (fun ix -> { ipath = Index_group { ix; group = v }; iresidual = Ast.True })
        (List.find_opt answers indexes)
  | _ -> None

let pp_ibound col side ppf = function
  | None -> Format.pp_print_string ppf (if side = `Lo then "-inf" else "+inf")
  | Some { value; inclusive } ->
      let op =
        match (side, inclusive) with
        | (`Lo, true) -> ">="
        | (`Lo, false) -> ">"
        | (`Hi, true) -> "<="
        | (`Hi, false) -> "<"
      in
      Format.fprintf ppf "%s %s %a" col op Value.pp value

let pp_ipath ppf = function
  | Primary p -> pp_path ppf p
  | Index_scan { ix; ilo; ihi; only } -> (
      let tag = if only then "index-only" else "index" in
      match (ilo, ihi) with
      | (Some l, Some h)
        when l.inclusive && h.inclusive && Value.equal l.value h.value ->
          Format.fprintf ppf "%s probe %s [%s = %a]" tag ix.ix_name ix.ix_col
            Value.pp l.value
      | _ ->
          Format.fprintf ppf "%s range %s [%a, %a]" tag ix.ix_name
            (pp_ibound ix.ix_col `Lo) ilo
            (pp_ibound ix.ix_col `Hi) ihi)
  | Index_group { ix; group } ->
      Format.fprintf ppf "derived index %s [%s = %a]" ix.ix_name ix.ix_col
        Value.pp group

let pp_iplan ppf { ipath; iresidual } =
  pp_ipath ppf ipath;
  match iresidual with
  | Ast.True -> ()
  | p -> Format.fprintf ppf "; residual %a" Ast.pp_pred p

let iplan_to_string plan = Format.asprintf "%a" pp_iplan plan

let explain ~schema_of query =
  let planned verb rel where extra =
    match schema_of rel with
    | None -> Format.asprintf "%s %s: unknown relation" verb rel
    | Some schema ->
        Format.asprintf "%s %s: %a%s" verb rel pp (analyze schema where) extra
  in
  match query with
  | Ast.Select { rel; cols; where } ->
      let extra =
        match cols with
        | None -> ""
        | Some cs -> "; project " ^ String.concat ", " cs
      in
      planned "select" rel where extra
  | Ast.Count { rel; where } -> (
      match where with
      | Ast.True -> Format.asprintf "count %s: size accessor" rel
      | _ -> planned "count" rel where "")
  | Ast.Aggregate { rel; where; _ } -> planned "aggregate" rel where ""
  | Ast.Update { rel; where; _ } -> planned "update" rel where ""
  | Ast.Find { rel; key } ->
      Format.asprintf "find %s: point lookup key = %s" rel
        (Format.asprintf "%a" Value.pp key)
  | Ast.Insert { rel; _ } -> Format.asprintf "insert %s: ordered insert" rel
  | Ast.Delete { rel; key } ->
      Format.asprintf "delete %s: point delete key = %s" rel
        (Format.asprintf "%a" Value.pp key)
  | Ast.Join { left; right; _ } ->
      Format.asprintf "join %s x %s: hash join (build %s, probe %s)" left
        right right left

let explain_indexed ~schema_of ~indexes_of query =
  let planned verb rel where ~wanted extra =
    match schema_of rel with
    | None -> Format.asprintf "%s %s: unknown relation" verb rel
    | Some schema ->
        let ip = analyze_indexed schema ~indexes:(indexes_of rel) ~wanted where in
        Format.asprintf "%s %s: %a%s" verb rel pp_iplan ip extra
  in
  let grouped verb rel where ~target k =
    match schema_of rel with
    | None -> Some (Format.asprintf "%s %s: unknown relation" verb rel)
    | Some schema ->
        Option.map
          (fun ip -> Format.asprintf "%s %s: %a%s" verb rel pp_iplan ip (k schema))
          (analyze_group schema ~indexes:(indexes_of rel) ~target where)
  in
  match query with
  | Ast.Select { rel; cols; where } ->
      let extra =
        match cols with
        | None -> ""
        | Some cs -> "; project " ^ String.concat ", " cs
      in
      let wanted = match cols with None -> Want_all | Some cs -> Want_cols cs in
      planned "select" rel where ~wanted extra
  | Ast.Count { rel; where } -> (
      match where with
      | Ast.True -> Format.asprintf "count %s: size accessor" rel
      | _ -> (
          match grouped "count" rel where ~target:`Count (fun _ -> "") with
          | Some line -> line
          | None -> planned "count" rel where ~wanted:(Want_cols []) ""))
  | Ast.Aggregate { agg; rel; col; where } -> (
      match grouped "aggregate" rel where ~target:(`Agg (agg, col)) (fun _ -> "")
      with
      | Some line -> line
      | None -> planned "aggregate" rel where ~wanted:Want_base "")
  | Ast.Update _ | Ast.Find _ | Ast.Insert _ | Ast.Delete _ | Ast.Join _ ->
      explain ~schema_of query
