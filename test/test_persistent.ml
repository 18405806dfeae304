(* Model-based tests for the persistent structures: every structure is
   checked against a sorted-list reference model under random operation
   sequences, plus structure-specific invariants and the sharing
   measurements the paper's updating story depends on. *)

open Fdb_persistent

module IntList = Plist.Make (Ordered.Int)
module IntAvl = Avl.Make (Ordered.Int)
module Int23 = Two3.Make (Ordered.Int)
module IntBt = Btree.Make (Ordered.Int)

let gen_ops =
  (* A sequence of inserts (positive) and deletes (negative). *)
  QCheck2.Gen.(list_size (int_range 0 120) (int_range (-50) 50))

(* Reference model: a sorted list with set semantics. *)
module Model = struct
  let insert x m = if List.mem x m then m else List.sort compare (x :: m)
  let delete x m = (List.filter (fun y -> y <> x) m, List.mem x m)

  let apply ?(init = []) ops =
    List.fold_left
      (fun m op ->
        if op >= 0 then insert op m
        else fst (delete (-op) m))
      init ops
end

(* -- plist ---------------------------------------------------------------- *)

let test_plist_basics () =
  let l = IntList.of_list [ 3; 1; 2 ] in
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3 ] (IntList.to_list l);
  Alcotest.(check int) "size" 3 (IntList.size l);
  Alcotest.(check bool) "member" true (IntList.member 2 l);
  Alcotest.(check bool) "not member" false (IntList.member 9 l);
  let l' = IntList.insert 0 l in
  Alcotest.(check (list int)) "insert front" [ 0; 1; 2; 3 ]
    (IntList.to_list l');
  let (l'', found) = IntList.delete 2 l' in
  Alcotest.(check bool) "deleted" true found;
  Alcotest.(check (list int)) "after delete" [ 0; 1; 3 ] (IntList.to_list l'')

let test_plist_sharing () =
  (* Insert near the front of a long list: almost everything shared. *)
  let l = IntList.of_list (List.init 100 (fun i -> 2 * i)) in
  let meter = Meter.create () in
  let l' = IntList.insert ~meter 5 l in
  Alcotest.(check int) "4 cells built (0,2,4 copied + new 5)" 4
    (Meter.allocs meter);
  let (shared, total) = IntList.shared_cells ~old:l l' in
  Alcotest.(check int) "total cells" 101 total;
  Alcotest.(check int) "shared cells" 97 shared

let test_plist_find () =
  let l = IntList.of_list [ 1; 4; 9 ] in
  Alcotest.(check (option int)) "found" (Some 4)
    (IntList.find (fun x -> x > 2) l);
  Alcotest.(check (option int)) "absent" None
    (IntList.find (fun x -> x > 100) l)

let test_plist_of_sorted () =
  (* a million cells: building must not recurse once per element *)
  let n = 1_000_000 in
  let l = IntList.of_sorted (List.init n Fun.id) in
  Alcotest.(check int) "size" n (IntList.size l);
  Alcotest.(check bool) "ordered" true (IntList.invariant l);
  Alcotest.(check (list int)) "round-trips" [ 1; 4; 9 ]
    (IntList.to_list (IntList.of_sorted [ 1; 4; 9 ]));
  List.iter
    (fun xs ->
      Alcotest.check_raises "not strictly ascending"
        (Invalid_argument "Plist.of_sorted: input not strictly ascending")
        (fun () -> ignore (IntList.of_sorted xs));
      Alcotest.(check bool) "of_ascending refuses" true
        (Option.is_none (IntList.of_ascending xs)))
    [ [ 2; 1 ]; [ 1; 1 ]; [ 1; 5; 3; 7 ] ]

let prop_plist_model =
  QCheck2.Test.make ~name:"plist == model" ~count:300 gen_ops (fun ops ->
      let l =
        List.fold_left
          (fun l op ->
            if op >= 0 then
              if IntList.member op l then l else IntList.insert op l
            else fst (IntList.delete (-op) l))
          IntList.empty ops
      in
      IntList.invariant l && IntList.to_list l = Model.apply ops)

(* -- generic model harness for the tree structures ------------------------ *)

let tree_model_test name fold_ops =
  QCheck2.Test.make ~name ~count:300 gen_ops (fun ops ->
      let (to_list, invariant) = fold_ops ops in
      invariant && to_list = Model.apply ops)

let prop_avl_model =
  tree_model_test "avl == model" (fun ops ->
      let t =
        List.fold_left
          (fun t op ->
            if op >= 0 then IntAvl.insert op t
            else fst (IntAvl.delete (-op) t))
          IntAvl.empty ops
      in
      (IntAvl.to_list t, IntAvl.invariant t))

let prop_two3_model =
  tree_model_test "two3 == model" (fun ops ->
      let t =
        List.fold_left
          (fun t op ->
            if op >= 0 then Int23.insert op t
            else fst (Int23.delete (-op) t))
          Int23.empty ops
      in
      (Int23.to_list t, Int23.invariant t))

let prop_btree_model branching =
  tree_model_test
    (Printf.sprintf "btree(b=%d) == model" branching)
    (fun ops ->
      let t =
        List.fold_left
          (fun t op ->
            if op >= 0 then IntBt.insert op t
            else fst (IntBt.delete (-op) t))
          (IntBt.create ~branching ())
          ops
      in
      (IntBt.to_list t, IntBt.invariant t))

(* A bulk-loaded tree must be an ordinary B-tree: the same operation
   sequences as [prop_btree_model], started from [of_sorted] over the even
   keys below 2n (so inserts and deletes both hit), stay model-equal and
   within the occupancy bounds. *)
let prop_btree_of_sorted branching =
  QCheck2.Test.make
    ~name:(Printf.sprintf "btree(b=%d) of_sorted + ops == model" branching)
    ~count:60
    ~print:QCheck2.Print.(pair int (list int))
    QCheck2.Gen.(
      let* n = oneof [ int_range 0 64; int_range 0 3000 ] in
      let* ops =
        list_size (int_range 0 120) (int_range (-((2 * n) + 9)) ((2 * n) + 9))
      in
      return (n, ops))
    (fun (n, ops) ->
      let init = List.init n (fun i -> 2 * i) in
      let t0 = IntBt.of_sorted ~branching init in
      let t =
        List.fold_left
          (fun t op ->
            if op >= 0 then IntBt.insert op t
            else fst (IntBt.delete (-op) t))
          t0 ops
      in
      IntBt.invariant t0
      && IntBt.to_list t0 = init
      && IntBt.invariant t
      && IntBt.to_list t = Model.apply ~init ops)

(* The page-sharing count [IntBt.shared_pages] made before it walked the
   two trees in lockstep, kept here as its oracle: every page of the old
   tree in a physical hash set, then each page of the new one looked up,
   a hit counting its whole subtree. *)
let shared_pages_by_hashing ~old t =
  let module H = Hashtbl.Make (struct
    type t = IntBt.page

    let equal = ( == )
    let hash = Hashtbl.hash
  end) in
  let seen = H.create 64 in
  let rec remember p =
    if not (H.mem seen p) then begin
      H.add seen p ();
      Array.iter remember (IntBt.subpages p)
    end
  in
  remember (IntBt.root_page old);
  let rec pages p = Array.fold_left (fun n c -> n + pages c) 1 (IntBt.subpages p) in
  let rec go (shared, total) p =
    if H.mem seen p then
      let k = pages p in
      (shared + k, total + k)
    else Array.fold_left go (shared, total + 1) (IntBt.subpages p)
  in
  go (0, 0) (IntBt.root_page t)

(* Lockstep sharing equals the hashing oracle between every ordered pair
   of versions of a multi-step history — steps of up to 40 inserts and
   deletes, so roots split and merge — from an [of_sorted] or an
   [of_list] start. *)
let prop_btree_shared_pages branching =
  QCheck2.Test.make
    ~name:(Printf.sprintf "btree(b=%d) shared_pages == oracle" branching)
    ~count:80
    ~print:QCheck2.Print.(triple int bool (list (list int)))
    QCheck2.Gen.(
      let* n = int_range 0 150 in
      let* sorted = bool in
      let* steps =
        list_size (int_range 1 6)
          (list_size (int_range 0 40) (int_range (-((2 * n) + 20)) ((2 * n) + 20)))
      in
      return (n, sorted, steps))
    (fun (n, sorted, steps) ->
      let init = List.init n (fun i -> 2 * i) in
      let t0 =
        if sorted then IntBt.of_sorted ~branching init
        else IntBt.of_list ~branching init
      in
      let step t ops =
        List.fold_left
          (fun t op ->
            if op >= 0 then IntBt.insert op t else fst (IntBt.delete (-op) t))
          t ops
      in
      let versions =
        List.rev (List.fold_left (fun acc ops -> step (List.hd acc) ops :: acc) [ t0 ] steps)
      in
      List.for_all
        (fun old ->
          List.for_all
            (fun t -> IntBt.shared_pages ~old t = shared_pages_by_hashing ~old t)
            versions)
        versions)

let test_btree_of_sorted_sizes () =
  (* Every size up to 600, and each capacity boundary b^h - 1 up to 5000
     with its neighbours: occupancy bounds hold, contents round-trip and the
     height is the smallest h with b^h - 1 >= n. *)
  List.iter
    (fun b ->
      let rec boundaries p acc =
        if p > 5000 then acc
        else boundaries (p * b) ((p - 2) :: (p - 1) :: p :: acc)
      in
      List.iter
        (fun n ->
          let xs = List.init n Fun.id in
          let t = IntBt.of_sorted ~branching:b xs in
          let rec least h cap =
            if cap >= n then h else least (h + 1) ((b * cap) + b - 1)
          in
          if
            not
              (IntBt.invariant t && IntBt.to_list t = xs
              && IntBt.height t = least 1 (b - 1))
          then
            Alcotest.failf "of_sorted b=%d n=%d: invariant %b, height %d" b n
              (IntBt.invariant t) (IntBt.height t))
        (List.init 601 Fun.id @ boundaries (b * b) []))
    [ 3; 4; 7; 8; 16 ];
  List.iter
    (fun xs ->
      Alcotest.check_raises "not strictly ascending"
        (Invalid_argument "Btree.of_sorted: input not strictly ascending")
        (fun () -> ignore (IntBt.of_sorted xs)))
    [ [ 2; 1 ]; [ 1; 1 ]; [ 1; 5; 3; 7 ] ]

(* [of_ascending] over every size up to 3b^2: ascending input gives the
   tree ([to_list] round-trips, every page within its occupancy bounds);
   an adjacent pair swapped or repeated anywhere gives [None]. *)
let test_btree_of_ascending () =
  List.iter
    (fun b ->
      for n = 0 to 3 * b * b do
        let xs = List.init n (fun i -> 2 * i) in
        (match IntBt.of_ascending ~branching:b xs with
        | Some t when IntBt.invariant t && IntBt.to_list t = xs -> ()
        | Some t ->
            Alcotest.failf "of_ascending b=%d n=%d: invariant %b" b n
              (IntBt.invariant t)
        | None -> Alcotest.failf "of_ascending b=%d n=%d: refused" b n);
        for i = 0 to n - 2 do
          let swapped =
            List.mapi (fun j x -> if j = i then x + 2 else if j = i + 1 then x - 2 else x) xs
          and repeated = List.mapi (fun j x -> if j = i + 1 then x - 2 else x) xs in
          List.iter
            (fun (what, ys) ->
              if IntBt.of_ascending ~branching:b ys <> None then
                Alcotest.failf "of_ascending b=%d n=%d: %s at %d accepted" b n
                  what i)
            [ ("swap", swapped); ("repeat", repeated) ]
        done
      done)
    [ 3; 4; 8 ]

(* -- avl specifics --------------------------------------------------------- *)

let test_avl_logarithmic_height () =
  let t = IntAvl.of_list (List.init 1000 (fun i -> i)) in
  Alcotest.(check bool)
    (Printf.sprintf "height %d <= 1.44 log2 1000 + 2" (IntAvl.height t))
    true
    (IntAvl.height t <= 16);
  Alcotest.(check int) "size" 1000 (IntAvl.size t);
  Alcotest.(check bool) "invariant" true (IntAvl.invariant t)

let test_avl_duplicate_insert_shares_everything () =
  let t = IntAvl.of_list [ 5; 2; 8; 1 ] in
  let meter = Meter.create () in
  let t' = IntAvl.insert ~meter 5 t in
  Alcotest.(check bool) "physically unchanged" true (t == t');
  Alcotest.(check int) "no allocation" 0 (Meter.allocs meter)

let test_avl_find_by_key () =
  let module KV = Avl.Make (struct
    type t = int * string

    let compare (a, _) (b, _) = compare a b
  end) in
  let t = KV.of_list [ (1, "one"); (2, "two") ] in
  Alcotest.(check (option (pair int string)))
    "find retrieves stored value" (Some (2, "two"))
    (KV.find (2, "") t)

(* -- two3 specifics -------------------------------------------------------- *)

let test_two3_insert_sharing_is_logarithmic () =
  let n = 1024 in
  let t = Int23.of_list (List.init n (fun i -> 2 * i)) in
  let meter = Meter.create () in
  let t' = Int23.insert ~meter 333 t in
  let allocated = Meter.allocs meter in
  Alcotest.(check bool)
    (Printf.sprintf "allocated %d nodes <= 2 * height + 1" allocated)
    true
    (allocated <= (2 * Int23.height t) + 1);
  let (shared, total) = Int23.shared_nodes ~old:t t' in
  let fraction = float_of_int (total - shared) /. float_of_int total in
  Alcotest.(check bool)
    (Printf.sprintf "rebuilt fraction %.4f ~ (log n)/n" fraction)
    true
    (fraction < 0.05)

let test_two3_uniform_depth_after_deletes () =
  let t = Int23.of_list (List.init 200 (fun i -> i)) in
  let t =
    List.fold_left
      (fun t x -> fst (Int23.delete x t))
      t
      (List.init 100 (fun i -> 2 * i))
  in
  Alcotest.(check bool) "invariant after 100 deletes" true (Int23.invariant t);
  Alcotest.(check int) "100 left" 100 (Int23.size t)

let test_two3_delete_absent_shares () =
  let t = Int23.of_list [ 1; 2; 3 ] in
  let (t', found) = Int23.delete 9 t in
  Alcotest.(check bool) "not found" false found;
  Alcotest.(check bool) "physically unchanged" true (t == t')

(* -- btree specifics -------------------------------------------------------- *)

let test_btree_occupancy () =
  let t = IntBt.of_list ~branching:4 (List.init 500 (fun i -> i)) in
  Alcotest.(check bool) "invariant" true (IntBt.invariant t);
  Alcotest.(check int) "size" 500 (IntBt.size t);
  Alcotest.(check bool)
    (Printf.sprintf "height %d is logarithmic" (IntBt.height t))
    true
    (IntBt.height t <= 10)

let test_btree_range () =
  let t = IntBt.of_list ~branching:5 (List.init 100 (fun i -> i)) in
  Alcotest.(check (list int)) "range" [ 40; 41; 42; 43; 44; 45 ]
    (IntBt.range ~lo:40 ~hi:45 t);
  Alcotest.(check (list int)) "empty range" [] (IntBt.range ~lo:200 ~hi:300 t)

let test_btree_page_sharing_figure_2_2 () =
  (* The Figure 2-2 scenario: one insert rebuilds only the root-to-leaf
     path ("new directory"), sharing every other page with the old
     version. *)
  let t = IntBt.of_list ~branching:8 (List.init 1000 (fun i -> 2 * i)) in
  let t' = IntBt.insert 501 t in
  let (shared, total) = IntBt.shared_pages ~old:t t' in
  let rebuilt = total - shared in
  Alcotest.(check bool)
    (Printf.sprintf "rebuilt %d pages = height %d" rebuilt (IntBt.height t'))
    true
    (rebuilt <= IntBt.height t');
  Alcotest.(check bool) "most pages shared" true
    (float_of_int shared /. float_of_int total > 0.9)

let test_btree_duplicate_insert_shares_everything () =
  let t = IntBt.of_list ~branching:4 [ 1; 5; 9; 13; 20; 30 ] in
  let t' = IntBt.insert 9 t in
  let (shared, total) = IntBt.shared_pages ~old:t t' in
  Alcotest.(check int) "all pages shared" total shared

let test_btree_bad_branching () =
  Alcotest.check_raises "branching < 3"
    (Invalid_argument "Btree.create: branching < 3") (fun () ->
      ignore (IntBt.create ~branching:2 ()))

(* -- cross-structure agreement -------------------------------------------- *)

let prop_structures_agree =
  QCheck2.Test.make ~name:"all structures agree on random workloads"
    ~count:150 gen_ops (fun ops ->
      let model = Model.apply ops in
      let fold_insert insert delete empty =
        List.fold_left
          (fun t op -> if op >= 0 then insert op t else delete (-op) t)
          empty ops
      in
      let avl =
        fold_insert IntAvl.insert (fun x t -> fst (IntAvl.delete x t))
          IntAvl.empty
      in
      let t23 =
        fold_insert Int23.insert (fun x t -> fst (Int23.delete x t))
          Int23.empty
      in
      let bt =
        fold_insert IntBt.insert
          (fun x t -> fst (IntBt.delete x t))
          (IntBt.create ~branching:4 ())
      in
      IntAvl.to_list avl = model
      && Int23.to_list t23 = model
      && IntBt.to_list bt = model)

(* Sharing fraction shrinks as n grows — the (log n)/n claim of §3.3. *)
let test_sharing_fraction_shrinks_with_n () =
  let fraction n =
    let t = Int23.of_list (List.init n (fun i -> 2 * i)) in
    let t' = Int23.insert (n + 1) t in
    let (shared, total) = Int23.shared_nodes ~old:t t' in
    float_of_int (total - shared) /. float_of_int total
  in
  let f100 = fraction 100 and f1000 = fraction 1000 and f10000 = fraction 10000 in
  Alcotest.(check bool)
    (Printf.sprintf "monotone: %.4f > %.4f > %.4f" f100 f1000 f10000)
    true
    (f100 > f1000 && f1000 > f10000)

(* -- seeded stepwise invariants (two3) ------------------------------------ *)

(* 150 seeded insert/delete sequences, checking ordering and balance after
   EVERY operation — the model property above only checks the end state,
   which can miss a transiently broken rebalance. *)
let test_two3_stepwise_invariants () =
  for case = 0 to 149 do
    let rng = Random.State.make [| case; 0x23 |] in
    let len = 20 + Random.State.int rng 41 in
    let t = ref Int23.empty and m = ref [] in
    for step = 1 to len do
      let x = Random.State.int rng 60 in
      if Random.State.int rng 3 < 2 then begin
        t := Int23.insert x !t;
        m := Model.insert x !m
      end
      else begin
        t := fst (Int23.delete x !t);
        m := fst (Model.delete x !m)
      end;
      if not (Int23.invariant !t) then
        Alcotest.failf "case %d step %d: balance/ordering invariant broken"
          case step;
      if Int23.to_list !t <> !m then
        Alcotest.failf "case %d step %d: contents diverged from model" case
          step
    done
  done

(* -- seeded sharing-ratio bounds ------------------------------------------ *)

(* 120 seeded single updates at random sizes: the rebuilt fraction of a
   2-3 tree stays within a constant factor of (log2 n)/n — the §3.3 claim
   that makes complete archives affordable. *)
let test_two3_sharing_log_bound () =
  for case = 0 to 119 do
    let rng = Random.State.make [| case; 0x5a |] in
    let n = 64 + Random.State.int rng 961 in
    let t = Int23.of_list (List.init n (fun i -> 2 * i)) in
    let t' =
      if case land 1 = 0 then Int23.insert ((2 * Random.State.int rng n) + 1) t
      else fst (Int23.delete (2 * Random.State.int rng n) t)
    in
    let (shared, total) = Int23.shared_nodes ~old:t t' in
    let rebuilt = float_of_int (total - shared) /. float_of_int total in
    let bound = 8.0 *. (log (float_of_int n) /. log 2.0) /. float_of_int n in
    if rebuilt > bound then
      Alcotest.failf
        "case %d (n=%d): rebuilt fraction %.4f exceeds 8(log2 n)/n = %.4f"
        case n rebuilt bound
  done

(* 120 seeded single updates on the list representation: prefix-copy
   accounting is exact — an op at position p copies exactly the p-cell
   prefix and shares the whole suffix. *)
let test_plist_prefix_copy_accounting () =
  for case = 0 to 119 do
    let rng = Random.State.make [| case; 0x7115 |] in
    let n = 10 + Random.State.int rng 191 in
    let l = IntList.of_list (List.init n (fun i -> 2 * i)) in
    let meter = Meter.create () in
    if case land 1 = 0 then begin
      (* insert 2p+1: the p+1 elements below it are copied, plus one new *)
      let p = Random.State.int rng n in
      let l' = IntList.insert ~meter ((2 * p) + 1) l in
      let (shared, total) = IntList.shared_cells ~old:l l' in
      if Meter.allocs meter <> p + 2 then
        Alcotest.failf "case %d (n=%d p=%d): insert allocated %d, expected %d"
          case n p (Meter.allocs meter) (p + 2);
      if total <> n + 1 || shared <> n - (p + 1) then
        Alcotest.failf
          "case %d (n=%d p=%d): insert shared %d/%d, expected %d/%d" case n p
          shared total
          (n - (p + 1))
          (n + 1)
    end
    else begin
      (* delete the element at index j: the j-cell prefix is copied *)
      let j = Random.State.int rng n in
      let (l', found) = IntList.delete ~meter (2 * j) l in
      if not found then Alcotest.failf "case %d: delete missed" case;
      let (shared, total) = IntList.shared_cells ~old:l l' in
      if Meter.allocs meter <> j then
        Alcotest.failf "case %d (n=%d j=%d): delete allocated %d, expected %d"
          case n j (Meter.allocs meter) j;
      if total <> n - 1 || shared <> n - 1 - j then
        Alcotest.failf
          "case %d (n=%d j=%d): delete shared %d/%d, expected %d/%d" case n j
          shared total (n - 1 - j) (n - 1)
    end
  done

let () =
  Alcotest.run "persistent"
    [
      ( "plist",
        [
          Alcotest.test_case "basics" `Quick test_plist_basics;
          Alcotest.test_case "sharing" `Quick test_plist_sharing;
          Alcotest.test_case "find" `Quick test_plist_find;
          Alcotest.test_case "120 seeded prefix-copy accounting" `Quick
            test_plist_prefix_copy_accounting;
          QCheck_alcotest.to_alcotest prop_plist_model;
          Alcotest.test_case "of_sorted" `Quick test_plist_of_sorted;
        ] );
      ( "avl",
        [
          Alcotest.test_case "logarithmic height" `Quick
            test_avl_logarithmic_height;
          Alcotest.test_case "duplicate insert shares" `Quick
            test_avl_duplicate_insert_shares_everything;
          Alcotest.test_case "find by key" `Quick test_avl_find_by_key;
          QCheck_alcotest.to_alcotest prop_avl_model;
        ] );
      ( "two3",
        [
          Alcotest.test_case "log sharing" `Quick
            test_two3_insert_sharing_is_logarithmic;
          Alcotest.test_case "uniform depth after deletes" `Quick
            test_two3_uniform_depth_after_deletes;
          Alcotest.test_case "delete absent shares" `Quick
            test_two3_delete_absent_shares;
          Alcotest.test_case "150 seeded stepwise invariants" `Quick
            test_two3_stepwise_invariants;
          Alcotest.test_case "120 seeded sharing bounds" `Quick
            test_two3_sharing_log_bound;
          QCheck_alcotest.to_alcotest prop_two3_model;
        ] );
      ( "btree",
        [
          Alcotest.test_case "occupancy" `Quick test_btree_occupancy;
          Alcotest.test_case "range" `Quick test_btree_range;
          Alcotest.test_case "figure 2-2 page sharing" `Quick
            test_btree_page_sharing_figure_2_2;
          Alcotest.test_case "duplicate insert shares" `Quick
            test_btree_duplicate_insert_shares_everything;
          Alcotest.test_case "bad branching" `Quick test_btree_bad_branching;
          QCheck_alcotest.to_alcotest (prop_btree_model 3);
          QCheck_alcotest.to_alcotest (prop_btree_model 4);
          QCheck_alcotest.to_alcotest (prop_btree_model 7);
          Alcotest.test_case "of_sorted sizes and boundaries" `Quick
            test_btree_of_sorted_sizes;
          Alcotest.test_case "of_ascending sizes, unsorted and repeated" `Quick
            test_btree_of_ascending;
        ]
        @ List.map
            (fun b -> QCheck_alcotest.to_alcotest (prop_btree_of_sorted b))
            [ 3; 4; 7; 8; 16 ]
        @ List.map
            (fun b -> QCheck_alcotest.to_alcotest (prop_btree_shared_pages b))
            [ 3; 4; 8 ] );
      ( "cross-structure",
        [
          QCheck_alcotest.to_alcotest prop_structures_agree;
          Alcotest.test_case "(log n)/n shrinks" `Quick
            test_sharing_fraction_shrinks_with_n;
        ] );
    ]
