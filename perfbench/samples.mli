(** Raw per-sample storage and exact percentiles.

    Percentiles are read from the recorded values themselves (nearest
    rank over a sorted copy), never from histogram buckets: a bucketed
    estimate cannot move while every sample stays inside one bucket, so a
    real speed-up can read as no change.

    Memory is bounded by decimation: once [capacity] values are held,
    every second one is dropped and only every second later value is
    kept (then every fourth, ...).  The kept values stay an evenly spaced
    subsequence of everything added, so early and late phases of a run
    keep their weight. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] (default [2^20]) must be even and at least 2. *)

val add : t -> int -> unit

val to_sorted : t -> int array
(** The held values, ascending (a fresh array). *)

val percentile : int array -> float -> int
(** [percentile sorted p], [p] in [[0, 1]]: the nearest-rank value — the
    smallest held value with at least [p] of the samples at or below it.
    @raise Invalid_argument on an empty array. *)

val median : float array -> float
(** Median of a small array of measurements (mean of the two middle
    values for an even count).  @raise Invalid_argument when empty. *)

val slope : (float * float) array -> float
(** Least-squares slope of [y] against [x]; 0 when [x] never varies. *)
