(** Host-speed calibration.

    On a shared VM the CPU a process gets can change by half over seconds
    to minutes, and every timed figure of a run moves with it.  A fixed
    reference chunk of work is run between requests, outside the timed
    region; its median time over the same stretch of the run tells how
    fast the host is just then.  Timed work multiplied by {!scale} is the
    time it would have taken on a host where the chunk takes
    {!reference_ns}.

    The chunk is 40 000 steps of a pseudo-random walk over a 32 KB int
    table of the calling domain's own, touched first so the walk starts in
    cache.  It allocates nothing, so the program's heap and garbage
    collector cannot slow it, and it calls no repository code, so a change
    to the program under test cannot move it. *)

type t

val reference_ns : float
(** The chunk's typical time on the 2-vCPU Intel Xeon VM the benchmark
    was tuned on; it only fixes the unit of scaled figures. *)

val chunk : clock:(unit -> int) -> int
(** Run one reference chunk on the calling domain; its time in ns by
    [clock], a nanosecond clock.  Safe to call from several domains at
    once. *)

val create : window:int -> t
(** A stretch that keeps the last [window] (at least 1) chunk times. *)

val record : t -> int -> unit
(** Add one chunk time to the stretch, dropping the oldest beyond the
    window. *)

val reset : t -> unit
(** Forget the chunk times recorded so far. *)

val scale : t -> float
(** {!reference_ns} divided by the median chunk time of the stretch; 1.0
    if it is empty.  The median, not the mean: a chunk the OS preempted
    would pull a mean far off the host's speed. *)
