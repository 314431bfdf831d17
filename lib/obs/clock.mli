(** A monotonic process clock.

    [Unix.gettimeofday] is wall time: NTP slews and manual clock jumps
    can move it backwards, so durations computed from it can come out
    negative.  [now] clamps the wall clock to be non-decreasing across
    the whole process (all domains), which is the property every timing
    site in the pipeline actually needs. *)

val now : unit -> float
(** Seconds, at microsecond resolution, non-decreasing across calls
    process-wide.  Its allocation, and that of [elapsed], does not
    depend on the reading. *)

val elapsed : float -> float
(** [elapsed t0] is [max 0. (now () -. t0)] — a duration that can never
    be negative even against a stale [t0]. *)
