(* A fixed pool of OCaml 5 domains executing site-addressed tasks.

   Each worker domain owns a deque; [submit ~site] routes the task to
   deque [site mod domains], mirroring how the Rediflow scheduler maps a
   task's home site to a processing element.  An idle worker first drains
   its own deque from the front (oldest local work first, preserving
   flood order), then steals from the back of its neighbours' deques, and
   only then parks on the pool's condition variable.  A domain blocked in
   [wait] helps the same way, as Rediflow's dispatching element also takes
   ready tasks: it runs queued tasks, oldest first from the front of each
   deque in turn, and parks only once nothing is left to take.

   The pool makes no determinism promise about execution order — that is
   the deterministic engine's job.  Callers get determinism of *results*
   the same way the paper does: single-assignment data (Lcell, immutable
   versions) makes the task graph confluent, so any schedule converges to
   the same answers. *)

let m_tasks = Fdb_obs.Metrics.counter "par.pool_tasks"
let m_steals = Fdb_obs.Metrics.counter "par.pool_steals"

(* A tiny growable ring deque; every access is under the owning lock. *)
module Deque = struct
  type 'a t = {
    mutable buf : 'a option array;
    mutable head : int;  (* index of front element *)
    mutable len : int;
  }

  let create () = { buf = Array.make 16 None; head = 0; len = 0 }

  let grow d =
    let cap = Array.length d.buf in
    let buf' = Array.make (2 * cap) None in
    for i = 0 to d.len - 1 do
      buf'.(i) <- d.buf.((d.head + i) mod cap)
    done;
    d.buf <- buf';
    d.head <- 0

  let push_back d x =
    if d.len = Array.length d.buf then grow d;
    d.buf.((d.head + d.len) mod Array.length d.buf) <- Some x;
    d.len <- d.len + 1

  let pop_front d =
    if d.len = 0 then None
    else begin
      let x = d.buf.(d.head) in
      d.buf.(d.head) <- None;
      d.head <- (d.head + 1) mod Array.length d.buf;
      d.len <- d.len - 1;
      x
    end

  let pop_back d =
    if d.len = 0 then None
    else begin
      let i = (d.head + d.len - 1) mod Array.length d.buf in
      let x = d.buf.(i) in
      d.buf.(i) <- None;
      d.len <- d.len - 1;
      x
    end
end

type t = {
  n : int;
  deques : (unit -> unit) Deque.t array;
  locks : Mutex.t array;  (* one per deque *)
  queued : int Atomic.t;  (* submitted, not yet taken by a worker *)
  unfinished : int Atomic.t;  (* submitted, not yet completed *)
  park : Mutex.t;  (* parking lot: idle workers and barrier waiters *)
  work_cond : Condition.t;
  done_cond : Condition.t;
  mutable stopping : bool;  (* under [park] *)
  mutable first_error : exn option;  (* under [park] *)
  executed : int array;  (* per worker, own slot only *)
  helped : int Atomic.t;  (* tasks run by domains blocked in [wait] *)
  steals : int Atomic.t;
  mutable workers : unit Domain.t array;
}

type stats = { domains : int; executed : int array; steals : int }

let take pool i ~front =
  Mutex.lock pool.locks.(i);
  let x =
    if front then Deque.pop_front pool.deques.(i)
    else Deque.pop_back pool.deques.(i)
  in
  Mutex.unlock pool.locks.(i);
  x

let try_take pool me =
  (* Own deque from the front; then steal from the back, nearest first. *)
  match take pool me ~front:true with
  | Some _ as t -> t
  | None ->
      let rec scan k =
        if k >= pool.n then None
        else
          match take pool ((me + k) mod pool.n) ~front:false with
          | Some _ as t ->
              Atomic.incr pool.steals;
              Fdb_obs.Metrics.incr m_steals;
              t
          | None -> scan (k + 1)
      in
      scan 1

let complete pool =
  if Atomic.fetch_and_add pool.unfinished (-1) = 1 then begin
    Mutex.lock pool.park;
    Condition.broadcast pool.done_cond;
    Mutex.unlock pool.park
  end

let record_error pool exn =
  Mutex.lock pool.park;
  if pool.first_error = None then pool.first_error <- Some exn;
  Mutex.unlock pool.park

(* The bookkeeping every taken task gets, whichever domain runs it. *)
let run pool task =
  Atomic.decr pool.queued;
  (try task () with exn -> record_error pool exn);
  complete pool

let worker pool me () =
  let rec loop () =
    match try_take pool me with
    | Some task ->
        pool.executed.(me) <- pool.executed.(me) + 1;
        run pool task;
        loop ()
    | None ->
        Mutex.lock pool.park;
        let continue =
          if Atomic.get pool.queued > 0 then true  (* raced a submit: rescan *)
          else if pool.stopping then false
          else begin
            Condition.wait pool.work_cond pool.park;
            true
          end
        in
        Mutex.unlock pool.park;
        if continue then loop ()
  in
  loop ()

let create ?domains () =
  let n =
    match domains with
    | Some d ->
        if d < 1 || d > 128 then invalid_arg "Pool.create: domains must be in 1..128";
        d
    | None -> max 1 (Domain.recommended_domain_count () - 1)
  in
  let pool =
    {
      n;
      deques = Array.init n (fun _ -> Deque.create ());
      locks = Array.init n (fun _ -> Mutex.create ());
      queued = Atomic.make 0;
      unfinished = Atomic.make 0;
      park = Mutex.create ();
      work_cond = Condition.create ();
      done_cond = Condition.create ();
      stopping = false;
      first_error = None;
      executed = Array.make n 0;
      helped = Atomic.make 0;
      steals = Atomic.make 0;
      workers = [||];
    }
  in
  pool.workers <- Array.init n (fun i -> Domain.spawn (worker pool i));
  pool

let size pool = pool.n

let submit pool ~site task =
  let i = ((site mod pool.n) + pool.n) mod pool.n in
  Atomic.incr pool.unfinished;
  Atomic.incr pool.queued;
  Fdb_obs.Metrics.incr m_tasks;
  Mutex.lock pool.locks.(i);
  Deque.push_back pool.deques.(i) task;
  Mutex.unlock pool.locks.(i);
  Mutex.lock pool.park;
  Condition.signal pool.work_cond;
  Mutex.unlock pool.park

let wait pool =
  let rec help i =
    if i < pool.n then
      match take pool i ~front:true with
      | Some task ->
          Atomic.incr pool.helped;
          run pool task;
          help i
      | None -> help (i + 1)
  in
  help 0;
  Mutex.lock pool.park;
  while Atomic.get pool.unfinished > 0 do
    Condition.wait pool.done_cond pool.park
  done;
  let err = pool.first_error in
  pool.first_error <- None;
  Mutex.unlock pool.park;
  match err with None -> () | Some exn -> raise exn

let stats pool =
  {
    domains = pool.n;
    executed = Array.append pool.executed [| Atomic.get pool.helped |];
    steals = Atomic.get pool.steals;
  }

let shutdown pool =
  wait pool;
  Mutex.lock pool.park;
  pool.stopping <- true;
  Condition.broadcast pool.work_cond;
  Mutex.unlock pool.park;
  Array.iter Domain.join pool.workers;
  pool.workers <- [||]

let with_pool ?domains f =
  let pool = create ?domains () in
  match f pool with
  | v ->
      shutdown pool;
      v
  | exception exn ->
      (try shutdown pool with _ -> ());
      raise exn
