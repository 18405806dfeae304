(** A fixed pool of OCaml 5 domains executing site-addressed tasks.

    The multicore execution layer under the parallel pipeline executor:
    each worker domain owns a deque, {!val:submit}[ ~site] routes a task
    to deque [site mod domains] (the same site-to-processor mapping the
    Rediflow scheduler uses), idle workers steal from the back of their
    neighbours' deques, and {!val:wait} is a barrier over everything
    submitted so far.  A domain blocked in {!val:wait} is an executor
    too, as Rediflow's dispatching element is: it runs queued tasks
    until none is left to take, and only then parks.  So a pool of [n]
    workers serves a batch on [n + 1] domains, and the default size
    leaves no core idle.

    The pool promises nothing about execution {e order} — determinism of
    results comes from the data (single-assignment cells, immutable
    versions), which makes the task graph confluent.  The deterministic
    single-threaded engine remains the oracle; this pool is how the same
    answers are produced as fast as the hardware allows. *)

type t

type stats = {
  domains : int;
  executed : int array;
      (** tasks run per worker domain, indices [0 .. domains - 1], then at
          index [domains] the tasks run by domains blocked in
          {!val:wait}; the entries sum to every task taken so far *)
  steals : int;  (** tasks taken from another domain's deque *)
}

val create : ?domains:int -> unit -> t
(** Spawn the worker domains.  [domains] defaults to
    [Domain.recommended_domain_count () - 1] (at least 1); it must be in
    1..128.  Every pool must be {!val:shutdown} (or use
    {!val:with_pool}). *)

val size : t -> int
(** Number of worker domains. *)

val submit : t -> site:int -> (unit -> unit) -> unit
(** Enqueue a task on the deque of domain [site mod size].  Tasks may
    submit further tasks.  A task that raises records its exception (the
    first one wins) for the next {!val:wait} to re-raise. *)

val wait : t -> unit
(** Help, then park, until every task submitted so far has completed;
    then re-raise the first exception any of them recorded, if any.
    Helping means taking queued tasks, oldest first from the front of
    each deque in turn, and running them on the calling domain with the
    same bookkeeping a worker uses: a task that raises here records its
    exception like any other.  The caller parks only once no task is left
    to take and some are still running on workers; tasks they submit
    after that are left to the workers.  Tasks run by a waiting domain are
    counted at index [size] of the [executed] stats. *)

val stats : t -> stats

val shutdown : t -> unit
(** {!val:wait}, then stop and join the worker domains. *)

val with_pool : ?domains:int -> (t -> 'a) -> 'a
(** [create], run, [shutdown] (also on exception). *)
