(* The high-water mark, in integer microseconds, is shared by all
   domains: a CAS loop keeps it non-decreasing without a lock on the
   hot path.  Integers keep the allocation of [now] and [elapsed] the
   same whatever the clock reads (a float mark would box only when it
   advanced), so a traced run allocates the same words for a seed. *)
let high_water = Atomic.make 0

let rec now_us () =
  let t = Float.to_int (Unix.gettimeofday () *. 1e6) in
  let prev = Atomic.get high_water in
  if t <= prev then prev
  else if Atomic.compare_and_set high_water prev t then t
  else now_us ()

let seconds us = Float.of_int us *. 1e-6
let now () = seconds (now_us ())
let elapsed t0 = seconds (max 0 (now_us () - Float.to_int (Float.round (t0 *. 1e6))))
