open Fdb_relational
module Plan = Fdb_query.Plan
module Meter = Fdb_persistent.Meter
module Metrics = Fdb_obs.Metrics
module Trace = Fdb_obs.Trace
module Event = Fdb_obs.Event

let h_touched = Metrics.histogram "index.maintain_touched"
let h_allocs = Metrics.histogram "index.maintain_allocs"

(* Secondary / covering entries, ordered by (indexed value, primary key):
   duplicates of the indexed value are disambiguated by the (unique) base
   key, so the tree stays a set and an equality probe walks the group in
   primary-key order. *)
module Entry = struct
  type t = { ik : Value.t; pk : Value.t; payload : Tuple.t }

  let compare a b =
    match Value.compare a.ik b.ik with
    | 0 -> Value.compare a.pk b.pk
    | c -> c
end

(* One derived-index group: the maintained statistics plus the sorted
   multiset of target values, which is what makes min/max maintainable
   under deletes (the running sum alone could not recover a removed
   extremum). *)
module Group = struct
  type t = {
    gk : Value.t;
    count : int;
    sum : Value.t;
    values : Value.t list;  (** ascending *)
    vmax : Value.t;
  }

  let compare a b = Value.compare a.gk b.gk
end

module S2 = Fdb_persistent.Two3.Make (Entry)
module SB = Fdb_persistent.Btree.Make (Entry)
module G2 = Fdb_persistent.Two3.Make (Group)
module GB = Fdb_persistent.Btree.Make (Group)

type repr = Sec2 of S2.t | SecB of SB.t | Der2 of G2.t | DerB of GB.t

type t = {
  desc : Plan.index_desc;
  schema : Schema.t;  (** base relation schema *)
  col_idx : int;  (** indexed (or group) column position *)
  stored : (string * int) list;  (** covering payload columns, base positions *)
  stored_schema : Schema.t;  (** covering payload schema, named after the rel *)
  target_idx : int;  (** derived target column position *)
  target_ct : Schema.ctype;
  repr : repr;
  entries : int;  (** base tuples currently reflected *)
}

let desc t = t.desc
let entries t = t.entries
let stored_schema t = t.stored_schema
let kind_name t = Plan.index_kind_name t.desc.Plan.ix_kind

(* -- derived-group arithmetic ---------------------------------------------- *)

let vzero = function Schema.CReal -> Value.Real 0.0 | _ -> Value.Int 0

let vadd a b =
  match (a, b) with
  | (Value.Int x, Value.Int y) -> Value.Int (x + y)
  | (Value.Real x, Value.Real y) -> Value.Real (x +. y)
  | _ -> a

let vsub a b =
  match (a, b) with
  | (Value.Int x, Value.Int y) -> Value.Int (x - y)
  | (Value.Real x, Value.Real y) -> Value.Real (x -. y)
  | _ -> a

let rec vinsert v = function
  | [] -> [ v ]
  | x :: rest ->
      if Value.compare v x <= 0 then v :: x :: rest else x :: vinsert v rest

let rec vremove v = function
  | [] -> []
  | x :: rest -> if Value.compare x v = 0 then rest else x :: vremove v rest

let rec vlast = function
  | [] -> invalid_arg "Index: empty group"
  | [ x ] -> x
  | _ :: rest -> vlast rest

let group_probe gk =
  { Group.gk; count = 0; sum = Value.Int 0; values = []; vmax = Value.Int 0 }

let group_make tct gk v =
  { Group.gk; count = 1; sum = vadd (vzero tct) v; values = [ v ]; vmax = v }

let group_add (g : Group.t) v =
  {
    g with
    Group.count = g.Group.count + 1;
    sum = vadd g.Group.sum v;
    values = vinsert v g.Group.values;
    vmax = (if Value.compare v g.Group.vmax > 0 then v else g.Group.vmax);
  }

let group_remove (g : Group.t) v =
  let values = vremove v g.Group.values in
  let count = g.Group.count - 1 in
  let vmax =
    if count <= 0 then g.Group.vmax
    else if Value.compare v g.Group.vmax >= 0 then vlast values
    else g.Group.vmax
  in
  { g with Group.count; sum = vsub g.Group.sum v; values; vmax }

(* -- construction ---------------------------------------------------------- *)

let column schema name =
  match Schema.column_index schema name with
  | Some i -> Ok i
  | None ->
      Error
        (Printf.sprintf "index: relation %s has no column %s"
           (Schema.name schema) name)

let entry_of t tup =
  {
    Entry.ik = Tuple.get tup t.col_idx;
    pk = Tuple.key tup;
    payload =
      (match t.desc.Plan.ix_kind with
      | Plan.Ix_covering _ ->
          Tuple.make (List.map (fun (_, i) -> Tuple.get tup i) t.stored)
      | Plan.Ix_secondary | Plan.Ix_derived _ -> [||]);
  }

let entry_probe t tup =
  { Entry.ik = Tuple.get tup t.col_idx; pk = Tuple.key tup; payload = [||] }

let build (desc : Plan.index_desc) r =
  let schema = Relation.schema r in
  let branching =
    match Relation.backend r with
    | Relation.Btree_backend b -> Some b
    | Relation.List_backend | Relation.Avl_backend | Relation.Two3_backend
    | Relation.Column_backend _ ->
        None
  in
  let ( let* ) = Result.bind in
  let* col_idx = column schema desc.Plan.ix_col in
  let* (stored, target_idx, target_ct) =
    match desc.Plan.ix_kind with
    | Plan.Ix_secondary -> Ok ([], 0, Schema.CInt)
    | Plan.Ix_covering cols ->
        if cols = [] then Error "index: covering index stores no columns"
        else
          let rec resolve = function
            | [] -> Ok []
            | c :: rest ->
                let* i = column schema c in
                Result.map (fun is -> (c, i) :: is) (resolve rest)
          in
          Result.map (fun s -> (s, 0, Schema.CInt)) (resolve cols)
    | Plan.Ix_derived tgt ->
        let* i = column schema tgt in
        Ok ([], i, snd (List.nth (Schema.columns schema) i))
  in
  let stored_schema =
    (* Named after the base relation so residual-compilation errors read
       identically whichever side compiles them. *)
    match stored with
    | [] -> schema
    | cols ->
        Schema.make
          ~name:(Schema.name schema)
          ~cols:
            (List.map
               (fun (c, i) -> (c, snd (List.nth (Schema.columns schema) i)))
               cols)
  in
  let t0 =
    {
      desc;
      schema;
      col_idx;
      stored;
      stored_schema;
      target_idx;
      target_ct;
      repr = Sec2 S2.empty;
      entries = 0;
    }
  in
  let repr =
    match desc.Plan.ix_kind with
    | Plan.Ix_secondary | Plan.Ix_covering _ ->
        let es =
          List.rev (Relation.fold (fun acc tup -> entry_of t0 tup :: acc) [] r)
        in
        (match branching with
        | Some b -> SecB (SB.of_list ~branching:b es)
        | None -> Sec2 (S2.of_list es))
    | Plan.Ix_derived _ ->
        let groups : (Value.t, Group.t) Hashtbl.t = Hashtbl.create 64 in
        Relation.iter
          (fun tup ->
            let gk = Tuple.get tup col_idx in
            let v = Tuple.get tup target_idx in
            match Hashtbl.find_opt groups gk with
            | Some g -> Hashtbl.replace groups gk (group_add g v)
            | None -> Hashtbl.replace groups gk (group_make target_ct gk v))
          r;
        let gs = Hashtbl.fold (fun _ g acc -> g :: acc) groups [] in
        (match branching with
        | Some b -> DerB (GB.of_list ~branching:b gs)
        | None -> Der2 (G2.of_list gs))
  in
  Ok { t0 with repr; entries = Relation.size r }

(* -- incremental maintenance ----------------------------------------------- *)

let der_bounds probe =
  ( (fun (e : Group.t) -> Group.compare e probe >= 0),
    fun (e : Group.t) -> Group.compare e probe <= 0 )

let der_remove2 ?meter tr gk v =
  let probe = group_probe gk in
  match G2.find probe tr with
  | None -> tr
  | Some g ->
      if g.Group.count <= 1 then fst (G2.delete ?meter probe tr)
      else
        let (ge_lo, le_hi) = der_bounds probe in
        fst (G2.rewrite ?meter ~ge_lo ~le_hi (fun g -> Some (group_remove g v)) tr)

let der_add2 ?meter tct tr gk v =
  let probe = group_probe gk in
  match G2.find probe tr with
  | None -> G2.insert ?meter (group_make tct gk v) tr
  | Some _ ->
      let (ge_lo, le_hi) = der_bounds probe in
      fst (G2.rewrite ?meter ~ge_lo ~le_hi (fun g -> Some (group_add g v)) tr)

let der_removeb ?meter tr gk v =
  let probe = group_probe gk in
  match GB.find probe tr with
  | None -> tr
  | Some g ->
      if g.Group.count <= 1 then fst (GB.delete ?meter probe tr)
      else
        let (ge_lo, le_hi) = der_bounds probe in
        fst (GB.rewrite ?meter ~ge_lo ~le_hi (fun g -> Some (group_remove g v)) tr)

let der_addb ?meter tct tr gk v =
  let probe = group_probe gk in
  match GB.find probe tr with
  | None -> GB.insert ?meter (group_make tct gk v) tr
  | Some _ ->
      let (ge_lo, le_hi) = der_bounds probe in
      fst (GB.rewrite ?meter ~ge_lo ~le_hi (fun g -> Some (group_add g v)) tr)

(* Absorb one write's delta.  Every removed tuple leaves, every added tuple
   enters — an update that changes the indexed column is just a removal
   from one position (or group) and an insertion at another, so the same
   path-copying pass covers all three write shapes. *)
let apply ?meter t ~removed ~added =
  let repr =
    match t.repr with
    | Sec2 tr ->
        let tr =
          List.fold_left
            (fun tr tup -> fst (S2.delete ?meter (entry_probe t tup) tr))
            tr removed
        in
        Sec2
          (List.fold_left
             (fun tr tup -> S2.insert ?meter (entry_of t tup) tr)
             tr added)
    | SecB tr ->
        let tr =
          List.fold_left
            (fun tr tup -> fst (SB.delete ?meter (entry_probe t tup) tr))
            tr removed
        in
        SecB
          (List.fold_left
             (fun tr tup -> SB.insert ?meter (entry_of t tup) tr)
             tr added)
    | Der2 tr ->
        let tr =
          List.fold_left
            (fun tr tup ->
              der_remove2 ?meter tr (Tuple.get tup t.col_idx)
                (Tuple.get tup t.target_idx))
            tr removed
        in
        Der2
          (List.fold_left
             (fun tr tup ->
               der_add2 ?meter t.target_ct tr (Tuple.get tup t.col_idx)
                 (Tuple.get tup t.target_idx))
             tr added)
    | DerB tr ->
        let tr =
          List.fold_left
            (fun tr tup ->
              der_removeb ?meter tr (Tuple.get tup t.col_idx)
                (Tuple.get tup t.target_idx))
            tr removed
        in
        DerB
          (List.fold_left
             (fun tr tup ->
               der_addb ?meter t.target_ct tr (Tuple.get tup t.col_idx)
                 (Tuple.get tup t.target_idx))
             tr added)
  in
  {
    t with
    repr;
    entries = t.entries - List.length removed + List.length added;
  }

(* -- reads ----------------------------------------------------------------- *)

let entry_bounds ~ilo ~ihi =
  let ge_lo (e : Entry.t) =
    match ilo with
    | None -> true
    | Some { Plan.value; inclusive } ->
        let c = Value.compare e.Entry.ik value in
        if inclusive then c >= 0 else c > 0
  in
  let le_hi (e : Entry.t) =
    match ihi with
    | None -> true
    | Some { Plan.value; inclusive } ->
        let c = Value.compare e.Entry.ik value in
        if inclusive then c <= 0 else c < 0
  in
  (ge_lo, le_hi)

let probe_fold ?meter t ~ilo ~ihi f acc =
  let (ge_lo, le_hi) = entry_bounds ~ilo ~ihi in
  let step acc (e : Entry.t) = f acc e.Entry.pk e.Entry.payload in
  match t.repr with
  | Sec2 tr -> S2.range_fold ?meter ~ge_lo ~le_hi step acc tr
  | SecB tr -> SB.range_fold ?meter ~ge_lo ~le_hi step acc tr
  | Der2 _ | DerB _ -> invalid_arg "Index.probe_fold: derived index"

type group_stats = {
  g_count : int;
  g_sum : Value.t;
  g_min : Value.t;
  g_max : Value.t;
}

let group_lookup t gk =
  let of_group (g : Group.t) =
    {
      g_count = g.Group.count;
      g_sum = g.Group.sum;
      g_min = (match g.Group.values with v :: _ -> v | [] -> g.Group.vmax);
      g_max = g.Group.vmax;
    }
  in
  match t.repr with
  | Der2 tr -> Option.map of_group (G2.find (group_probe gk) tr)
  | DerB tr -> Option.map of_group (GB.find (group_probe gk) tr)
  | Sec2 _ | SecB _ -> invalid_arg "Index.group_lookup: scan index"

(* -- measurement and checking ---------------------------------------------- *)

let shared_units ~old t =
  match (old.repr, t.repr) with
  | (Sec2 a, Sec2 b) -> S2.shared_nodes ~old:a b
  | (SecB a, SecB b) -> SB.shared_pages ~old:a b
  | (Der2 a, Der2 b) -> G2.shared_nodes ~old:a b
  | (DerB a, DerB b) -> GB.shared_pages ~old:a b
  | _ -> invalid_arg "Index.shared_units: different representations"

let invariant t =
  match t.repr with
  | Sec2 tr -> S2.invariant tr
  | SecB tr -> SB.invariant tr
  | Der2 tr -> G2.invariant tr
  | DerB tr -> GB.invariant tr

let entry_equal (a : Entry.t) (b : Entry.t) =
  Value.equal a.Entry.ik b.Entry.ik
  && Value.equal a.Entry.pk b.Entry.pk
  && Tuple.equal a.Entry.payload b.Entry.payload

let group_equal (a : Group.t) (b : Group.t) =
  Value.equal a.Group.gk b.Group.gk
  && a.Group.count = b.Group.count
  && Value.equal a.Group.sum b.Group.sum
  && List.equal Value.equal a.Group.values b.Group.values
  && Value.equal a.Group.vmax b.Group.vmax

(* Differential self-check: an incrementally maintained index must equal a
   fresh rebuild from the current base relation, element for element. *)
let coherent t r =
  let fresh =
    match build t.desc r with Ok f -> f | Error e -> invalid_arg e
  in
  let name = t.desc.Plan.ix_name in
  if t.entries <> Relation.size r then
    Error
      (Printf.sprintf "index %s covers %d tuples, base holds %d" name
         t.entries (Relation.size r))
  else if not (invariant t) then
    Error (Printf.sprintf "index %s violates its tree invariant" name)
  else
    let ok =
      match (t.repr, fresh.repr) with
      | (Sec2 a, Sec2 b) -> List.equal entry_equal (S2.to_list a) (S2.to_list b)
      | (SecB a, SecB b) -> List.equal entry_equal (SB.to_list a) (SB.to_list b)
      | (Der2 a, Der2 b) -> List.equal group_equal (G2.to_list a) (G2.to_list b)
      | (DerB a, DerB b) -> List.equal group_equal (GB.to_list a) (GB.to_list b)
      | _ -> false
    in
    if ok then Ok ()
    else
      Error
        (Printf.sprintf "index %s diverges from a fresh rebuild of %s" name
           t.desc.Plan.ix_rel)

(* -- the catalog ----------------------------------------------------------- *)

module Catalog = struct
  type nonrec t = Plan.index_desc list

  let validate schemas catalog =
    let schema_of rel =
      List.find_opt (fun s -> String.equal (Schema.name s) rel) schemas
    in
    let seen = Hashtbl.create 8 in
    let rec go = function
      | [] -> Ok ()
      | (d : Plan.index_desc) :: rest -> (
          if Hashtbl.mem seen d.Plan.ix_name then
            Error (Printf.sprintf "catalog: duplicate index name %s" d.Plan.ix_name)
          else begin
            Hashtbl.replace seen d.Plan.ix_name ();
            match schema_of d.Plan.ix_rel with
            | None ->
                Error
                  (Printf.sprintf "catalog: index %s names unknown relation %s"
                     d.Plan.ix_name d.Plan.ix_rel)
            | Some schema ->
                let missing c =
                  Option.is_none (Schema.column_index schema c)
                in
                let bad =
                  if missing d.Plan.ix_col then Some d.Plan.ix_col
                  else
                    match d.Plan.ix_kind with
                    | Plan.Ix_secondary -> None
                    | Plan.Ix_covering cols -> List.find_opt missing cols
                    | Plan.Ix_derived tgt -> if missing tgt then Some tgt else None
                in
                (match bad with
                | Some c ->
                    Error
                      (Printf.sprintf "catalog: index %s: %s has no column %s"
                         d.Plan.ix_name d.Plan.ix_rel c)
                | None -> go rest)
          end)
    in
    go catalog

  (* The simulation default: for every relation with at least one non-key
     column, a covering index on the first extra column (storing the whole
     tuple, so any projection can go index-only), a plain secondary on the
     second extra column when there is one, and a derived index grouping
     the first extra column over the integer key — generic over the random
     schemas the scenario generator produces. *)
  let default_for schemas =
    List.concat_map
      (fun schema ->
        let rel = Schema.name schema in
        match Schema.columns schema with
        | _key :: (c1, _) :: rest ->
            let all_cols = List.map fst (Schema.columns schema) in
            let cov =
              {
                Plan.ix_name = Printf.sprintf "%s_cov_%s" rel c1;
                ix_rel = rel;
                ix_col = c1;
                ix_kind = Plan.Ix_covering all_cols;
              }
            in
            let der =
              {
                Plan.ix_name = Printf.sprintf "%s_agg_%s" rel c1;
                ix_rel = rel;
                ix_col = c1;
                ix_kind = Plan.Ix_derived "key";
              }
            in
            let sec =
              match rest with
              | (c2, _) :: _ ->
                  [
                    {
                      Plan.ix_name = Printf.sprintf "%s_sec_%s" rel c2;
                      ix_rel = rel;
                      ix_col = c2;
                      ix_kind = Plan.Ix_secondary;
                    };
                  ]
              | [] -> []
            in
            (cov :: sec) @ [ der ]
        | _ -> [])
      schemas
end

(* -- the store: every index over one database version ---------------------- *)

module Store = struct
  type index = t

  type t = { all : (string * index) list }  (** catalog order *)

  let build catalog db =
    let rec go acc = function
      | [] -> Ok { all = List.rev acc }
      | (d : Plan.index_desc) :: rest -> (
          match Database.relation db d.Plan.ix_rel with
          | None ->
              Error
                (Printf.sprintf "index %s: unknown relation %s" d.Plan.ix_name
                   d.Plan.ix_rel)
          | Some r ->
              Result.bind (build d r) (fun ix ->
                  go ((d.Plan.ix_name, ix) :: acc) rest))
    in
    go [] catalog

  let find t name = List.assoc_opt name t.all

  let on t rel =
    List.filter_map
      (fun (_, ix) ->
        if String.equal ix.desc.Plan.ix_rel rel then Some ix else None)
      t.all

  (* Maintain every index of [rel] through one write.  [base] is the base
     relation's size after the write; the maintenance events carry it so
     the lockstep law can compare index and base cardinalities at every
     step.  Per-index allocations are metered locally (and folded into the
     caller's meter when given) so the maintenance histograms see each
     index's path-copy cost separately. *)
  let apply ?meter t ~rel ~base ~removed ~added =
    if removed = [] && added = [] then t
    else
      let touched = List.length removed + List.length added in
      let traced = Trace.enabled () in
      let all =
        List.map
          (fun (name, ix) ->
            if String.equal ix.desc.Plan.ix_rel rel then begin
              let m = Meter.create () in
              let ix' = apply ~meter:m ix ~removed ~added in
              Metrics.observe h_allocs (Meter.allocs m);
              Metrics.observe h_touched touched;
              Meter.alloc meter (Meter.allocs m);
              if traced then
                Trace.emit
                  (Event.Index_maintain
                     {
                       rel;
                       index = name;
                       kind = kind_name ix;
                       base;
                       entries = ix'.entries;
                     });
              (name, ix')
            end
            else (name, ix))
          t.all
      in
      { all }

  let coherent t db =
    let rec go = function
      | [] -> Ok ()
      | (_, ix) :: rest -> (
          match Database.relation db ix.desc.Plan.ix_rel with
          | None ->
              Error
                (Printf.sprintf "index %s: relation %s vanished"
                   ix.desc.Plan.ix_name ix.desc.Plan.ix_rel)
          | Some r -> Result.bind (coherent ix r) (fun () -> go rest))
    in
    go t.all
end

(* -- sessions: the mutable current-store cell an executor threads ---------- *)

module Session = struct
  type t = { catalog : Catalog.t; mutable store : Store.t }

  type use = { session : t; maintain : bool }

  let create catalog db =
    Result.map (fun store -> { catalog; store }) (Store.build catalog db)

  let create_exn catalog db =
    match create catalog db with Ok s -> s | Error e -> invalid_arg e

  let store s = s.store
  let catalog s = s.catalog

  let descs_for s rel =
    List.filter (fun (d : Plan.index_desc) -> String.equal d.Plan.ix_rel rel) s.catalog

  let use ?(maintain = true) session = { session; maintain }

  (* A frozen copy: the current store, detached from later writes to [s]. *)
  let snapshot s = { s with store = s.store }

  let on_write u ~rel ~base ~removed ~added =
    if u.maintain then
      u.session.store <- Store.apply u.session.store ~rel ~base ~removed ~added

  (* Replay a committed transaction's publication (its footprint effects)
     onto the session — the repair executor's serial commit point. *)
  let apply_effects s db effects =
    List.iter
      (fun (rel, (removed, added)) ->
        let base =
          match Database.relation db rel with
          | Some r -> Relation.size r
          | None -> 0
        in
        s.store <- Store.apply s.store ~rel ~base ~removed ~added)
      effects
end
