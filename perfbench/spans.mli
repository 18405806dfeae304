(** The traced run's span recorder.

    Spans are recorded from the benchmark's side of each layer's public
    calls: a name, start and stop (monotonic nanoseconds), the span that
    caused it, and the request (transaction or microbatch) it belongs to.
    They stay in memory: every duration lands in a per-name {!Samples.t},
    and the first 100 000 spans are kept whole for {!write} at exit. *)

type t

val create : unit -> t

val fresh : t -> int
(** A new span id, taken at span start so children can name it. *)

val record :
  t -> id:int -> name:string -> req:int -> parent:int -> start:int -> stop:int -> unit
(** [parent] is [-1] for a root span. *)

val durations : t -> string -> Samples.t
(** Durations (ns) recorded under [name]; empty if none. *)

val write : t -> string -> unit
(** Tab-separated [id parent req name start_ns stop_ns], one span a line,
    for the spans kept in the log. *)
