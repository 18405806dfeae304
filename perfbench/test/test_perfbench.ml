(* The benchmark's own measurement code: exact raw-sample percentiles, the
   counting log store and the host-speed scale. *)

open Fdb_relational
module Wal = Fdb_wal.Wal
module Txn = Fdb_txn.Txn
module Samples = Perfbench.Samples
module Counting_store = Perfbench.Counting_store
module Host = Perfbench.Host

let of_list xs =
  let s = Samples.create () in
  List.iter (Samples.add s) xs;
  s

let test_nearest_rank () =
  let sorted = Samples.to_sorted (of_list (List.init 100 (fun i -> 100 - i))) in
  Alcotest.(check int) "p50" 50 (Samples.percentile sorted 0.5);
  Alcotest.(check int) "p99" 99 (Samples.percentile sorted 0.99);
  Alcotest.(check int) "p100" 100 (Samples.percentile sorted 1.0);
  Alcotest.(check int) "p0" 1 (Samples.percentile sorted 0.0);
  let one = Samples.to_sorted (of_list [ 7 ]) in
  Alcotest.(check int) "single sample" 7 (Samples.percentile one 0.99)

(* All samples inside one power-of-two bucket: a bucketed estimate cannot
   tell these two runs apart, the raw samples must. *)
let test_speedup_inside_one_bucket () =
  let slow = List.init 1000 (fun i -> 40_000 + (i mod 97)) in
  let fast = List.map (fun x -> x * 8 / 10) slow in
  let p50 xs = Samples.percentile (Samples.to_sorted (of_list xs)) 0.5 in
  let ratio = float_of_int (p50 fast) /. float_of_int (p50 slow) in
  Alcotest.(check bool) "20% faster median" true (Float.abs (ratio -. 0.8) < 0.001)

(* Past capacity the store keeps an evenly spaced subsequence. *)
let test_decimation () =
  let s = Samples.create ~capacity:8 () in
  for i = 0 to 31 do
    Samples.add s i
  done;
  Alcotest.(check (array int)) "every 4th kept" [| 0; 4; 8; 12; 16; 20; 24; 28 |]
    (Samples.to_sorted s)

let test_median_and_slope () =
  Alcotest.(check (float 1e-9)) "odd" 2.0 (Samples.median [| 3.0; 1.0; 2.0 |]);
  Alcotest.(check (float 1e-9)) "even" 2.5 (Samples.median [| 4.0; 1.0; 2.0; 3.0 |]);
  let pts = Array.init 10 (fun i -> (float_of_int i, 5.0 +. (3.0 *. float_of_int i))) in
  Alcotest.(check (float 1e-9)) "slope" 3.0 (Samples.slope pts);
  Alcotest.(check (float 1e-9)) "flat x" 0.0 (Samples.slope [| (1.0, 2.0); (1.0, 5.0) |])

let schema = Schema.make ~name:"R" ~cols:[ ("key", Schema.CInt); ("val", Schema.CStr) ]

let versions n =
  let db = ref (Database.create ~backend:(Relation.Btree_backend 8) [ schema ]) in
  List.init n (fun i ->
      let txn =
        Result.get_ok (Txn.translate_string (Printf.sprintf "insert (%d, \"v%d\") into R" i i))
      in
      db := snd (txn !db);
      !db)

(* Every appended byte is counted, also those of segments a checkpoint
   later deletes; every flush the writer asks for is counted. *)
let test_counting_store () =
  let clock = let t = ref 0 in fun () -> t := !t + 10; !t in
  let mem = Wal.Mem.create () in
  let (store, counts) = Counting_store.wrap ~clock (Wal.Mem.store mem) in
  let vs = versions 3 in
  let db0 = Database.create ~backend:(Relation.Btree_backend 8) [ schema ] in
  let w = Wal.create ~sync_every:0 ~store db0 in
  let genesis = String.length (Wal.Mem.get mem (Wal.segment_name 0)) in
  Alcotest.(check int) "genesis bytes" genesis counts.Counting_store.bytes;
  Alcotest.(check int) "genesis sync" 1 counts.Counting_store.syncs;
  List.iter (fun v -> Wal.append w v; Wal.sync w) vs;
  let seg0 = String.length (Wal.Mem.get mem (Wal.segment_name 0)) in
  Alcotest.(check int) "bytes = log size" seg0 counts.Counting_store.bytes;
  Alcotest.(check int) "one sync per commit" 4 counts.Counting_store.syncs;
  Alcotest.(check int) "sync time" (4 * 10) counts.Counting_store.sync_ns;
  Wal.checkpoint w;
  Alcotest.(check string) "old segment removed" "" (Wal.Mem.get mem (Wal.segment_name 0));
  let left = String.length (Wal.Mem.get mem (Wal.segment_name 1)) in
  Alcotest.(check int) "counted = deleted + left" (seg0 + left) counts.Counting_store.bytes;
  Alcotest.(check bool) "on-store size undercounts" true (left < counts.Counting_store.bytes);
  Counting_store.reset counts;
  Alcotest.(check int) "reset" 0 counts.Counting_store.bytes

(* The scale is the reference time over the median chunk time of the
   window, so one preempted chunk does not move it, and older chunks drop
   out of the window. *)
let test_host_scale () =
  let h = Host.create ~window:4 in
  Alcotest.(check (float 1e-9)) "empty" 1.0 (Host.scale h);
  List.iter (Host.record h) [ 10; 10; 10_000; 10 ];
  Alcotest.(check (float 1e-9)) "median" (Host.reference_ns /. 10.0) (Host.scale h);
  List.iter (Host.record h) [ 40; 40; 40 ];
  Alcotest.(check (float 1e-9)) "window" (Host.reference_ns /. 40.0) (Host.scale h);
  Host.reset h;
  Alcotest.(check (float 1e-9)) "reset" 1.0 (Host.scale h);
  Host.record h 20;
  Alcotest.(check (float 1e-9)) "after reset" (Host.reference_ns /. 20.0) (Host.scale h);
  let clock = let t = ref 0 in fun () -> t := !t + 7; !t in
  Alcotest.(check int) "chunk timed by the clock" 7 (Host.chunk ~clock)

let () =
  Alcotest.run "perfbench"
    [
      ( "samples",
        [
          Alcotest.test_case "nearest rank" `Quick test_nearest_rank;
          Alcotest.test_case "speed-up inside one bucket" `Quick test_speedup_inside_one_bucket;
          Alcotest.test_case "decimation" `Quick test_decimation;
          Alcotest.test_case "median and slope" `Quick test_median_and_slope;
        ] );
      ("counting store", [ Alcotest.test_case "counts" `Quick test_counting_store ]);
      ("host", [ Alcotest.test_case "scale" `Quick test_host_scale ]);
    ]
