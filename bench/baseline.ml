(* The chase regression guard (`bench --guard BASELINE.json`).

   Re-measures the naive-vs-semi-naive chase rows and compares them to
   a committed baseline (BENCH_PR4.json).  A workload regresses when

   - its semi-naive [matches_examined] moved more than 25% in either
     direction (the count is deterministic, so any drift is a real
     algorithmic change, not noise), or
   - its semi-naive wall-clock grew more than 25% AND the naive/semi
     speedup also shrank more than 25% — both at once, so a slow or
     throttled CI runner (which slows naive and semi alike) cannot
     fail the build, while a genuine semi-naive slowdown (which moves
     both measures) does.

   Exit code 1 on any regression, 0 otherwise. *)

let tolerance = 0.25

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

type base_row = {
  workload : string;
  matches_examined : float;
  seconds : float;
  speedup : float;
}

let base_rows json =
  List.filter_map
    (fun entry ->
      let field path =
        List.fold_left
          (fun acc name -> Option.bind acc (Obs.Json.member name))
          (Some entry) path
      in
      match
        ( Option.bind (field [ "workload" ]) Obs.Json.string_value,
          Option.bind (field [ "semi_naive"; "matches_examined" ]) Obs.Json.number,
          Option.bind (field [ "semi_naive"; "seconds" ]) Obs.Json.number,
          Option.bind (field [ "speedup" ]) Obs.Json.number )
      with
      | Some workload, Some matches_examined, Some seconds, Some speedup ->
          Some { workload; matches_examined; seconds; speedup }
      | _ -> None)
    (match Obs.Json.member "chase" json with
    | Some chase -> Obs.Json.elements chase
    | None -> [])

let run base_path =
  match Obs.Json.parse (read_file base_path) with
  | Error msg ->
      Printf.eprintf "guard: cannot parse %s: %s\n" base_path msg;
      exit 1
  | Ok json ->
      let base = base_rows json in
      if base = [] then begin
        Printf.eprintf "guard: no chase rows in %s\n" base_path;
        exit 1
      end;
      Printf.printf "chase regression guard vs %s (tolerance %.0f%%)\n\n"
        base_path (tolerance *. 100.);
      let current = Experiments.chase_rows () in
      let failures = ref 0 in
      let check row =
        match
          List.find_opt
            (fun (c : Experiments.chase_row) -> c.Experiments.workload = row.workload)
            current
        with
        | None ->
            incr failures;
            Printf.printf "  FAIL %-28s workload no longer measured\n"
              row.workload
        | Some c ->
            let semi = c.Experiments.semi_naive in
            let cur_matches = float_of_int semi.Experiments.matches_examined in
            let cur_seconds = semi.Experiments.seconds in
            let cur_speedup =
              c.Experiments.naive.Experiments.seconds /. cur_seconds
            in
            let matches_ok =
              cur_matches <= row.matches_examined *. (1. +. tolerance)
              && cur_matches >= row.matches_examined *. (1. -. tolerance)
            in
            let seconds_ok =
              cur_seconds <= row.seconds *. (1. +. tolerance)
              || cur_speedup >= row.speedup *. (1. -. tolerance)
            in
            if not (matches_ok && seconds_ok) then incr failures;
            Printf.printf
              "  %s %-28s matches %.0f -> %.0f%s; semi %.2f ms -> %.2f ms, \
               speedup %.2fx -> %.2fx%s\n"
              (if matches_ok && seconds_ok then "ok  " else "FAIL")
              row.workload row.matches_examined cur_matches
              (if matches_ok then "" else " (moved > tolerance)")
              (row.seconds *. 1000.) (cur_seconds *. 1000.) row.speedup
              cur_speedup
              (if seconds_ok then "" else " (slower and less speedup)")
      in
      List.iter check base;
      if !failures > 0 then begin
        Printf.printf "\n%d workload(s) regressed.\n" !failures;
        exit 1
      end
      else print_endline "\nno regressions."

(* --- the incremental-recomputation guard (`bench --guard-incr`) ---

   Re-measures the X11 apply_updates-vs-recompute_all rows against
   BENCH_PR5.json.  A row regresses when

   - its [facts_rederived] moved more than 25% in either direction
     (deterministic, so drift is an algorithmic change), or
   - its incremental speedup fell below the 3x floor the acceptance
     criterion demands AND below 75% of the baseline speedup — both
     sides are ratios of wall-clock measured in the same process, so
     a throttled runner (which slows scratch and incremental alike)
     cannot fail the build. *)

let speedup_floor = 3.0

type incr_base = {
  label : string;
  base_facts_rederived : float;
  base_speedup : float;
}

let incr_base_rows json =
  List.filter_map
    (fun entry ->
      match
        ( Option.bind (Obs.Json.member "label" entry) Obs.Json.string_value,
          Option.bind (Obs.Json.member "facts_rederived" entry) Obs.Json.number,
          Option.bind (Obs.Json.member "speedup" entry) Obs.Json.number )
      with
      | Some label, Some base_facts_rederived, Some base_speedup ->
          Some { label; base_facts_rederived; base_speedup }
      | _ -> None)
    (match Obs.Json.member "incr" json with
    | Some rows -> Obs.Json.elements rows
    | None -> [])

let run_incr base_path =
  match Obs.Json.parse (read_file base_path) with
  | Error msg ->
      Printf.eprintf "guard-incr: cannot parse %s: %s\n" base_path msg;
      exit 1
  | Ok json ->
      let base = incr_base_rows json in
      if base = [] then begin
        Printf.eprintf "guard-incr: no incr rows in %s\n" base_path;
        exit 1
      end;
      Printf.printf
        "incremental regression guard vs %s (tolerance %.0f%%, speedup floor \
         %.1fx)\n\n"
        base_path (tolerance *. 100.) speedup_floor;
      let current = Experiments.incr_rows () in
      let failures = ref 0 in
      let check row =
        match
          List.find_opt
            (fun (c : Experiments.incr_row) -> c.Experiments.label = row.label)
            current
        with
        | None ->
            incr failures;
            Printf.printf "  FAIL %-36s row no longer measured\n" row.label
        | Some c ->
            let cur_facts = float_of_int c.Experiments.facts_rederived in
            let cur_speedup = c.Experiments.incr_speedup in
            let facts_ok =
              cur_facts <= row.base_facts_rederived *. (1. +. tolerance)
              && cur_facts >= row.base_facts_rederived *. (1. -. tolerance)
            in
            let speedup_ok =
              cur_speedup >= speedup_floor
              || cur_speedup >= row.base_speedup *. (1. -. tolerance)
            in
            if not (facts_ok && speedup_ok) then incr failures;
            Printf.printf
              "  %s %-36s rederived %.0f -> %.0f%s; speedup %.2fx -> %.2fx%s\n"
              (if facts_ok && speedup_ok then "ok  " else "FAIL")
              row.label row.base_facts_rederived cur_facts
              (if facts_ok then "" else " (moved > tolerance)")
              row.base_speedup cur_speedup
              (if speedup_ok then "" else " (below floor and baseline)")
      in
      List.iter check base;
      if !failures > 0 then begin
        Printf.printf "\n%d row(s) regressed.\n" !failures;
        exit 1
      end
      else print_endline "\nno regressions."

(* --- the columnar guard (`bench --guard-col`) ---

   Re-measures the X13 columnar-vs-row chase rows against
   BENCH_PR7.json.  A row regresses when

   - its [matches_examined] moved more than 25% in either direction
     (the counter is deterministic and identical on both paths, so
     drift is an algorithmic change), or
   - the columnar speedup fell below the 2x floor the acceptance
     criterion demands.  The speedup is a ratio of two wall-clock
     medians measured back to back in the same process, so a slow or
     throttled CI runner (which slows both paths alike) cannot fail
     the build — only the vectorized kernels actually losing their
     edge can. *)

let col_speedup_floor = 2.0

type col_base = {
  col_label : string;
  base_col_matches : float;
  base_col_speedup : float;
}

let col_base_rows json =
  List.filter_map
    (fun entry ->
      match
        ( Option.bind (Obs.Json.member "label" entry) Obs.Json.string_value,
          Option.bind (Obs.Json.member "matches_examined" entry) Obs.Json.number,
          Option.bind (Obs.Json.member "speedup" entry) Obs.Json.number )
      with
      | Some col_label, Some base_col_matches, Some base_col_speedup ->
          Some { col_label; base_col_matches; base_col_speedup }
      | _ -> None)
    (match Obs.Json.member "col" json with
    | Some rows -> Obs.Json.elements rows
    | None -> [])

let run_col base_path =
  match Obs.Json.parse (read_file base_path) with
  | Error msg ->
      Printf.eprintf "guard-col: cannot parse %s: %s\n" base_path msg;
      exit 1
  | Ok json ->
      let base = col_base_rows json in
      if base = [] then begin
        Printf.eprintf "guard-col: no col rows in %s\n" base_path;
        exit 1
      end;
      Printf.printf
        "columnar regression guard vs %s (tolerance %.0f%%, speedup floor \
         %.1fx)\n\n"
        base_path (tolerance *. 100.) col_speedup_floor;
      let current = Experiments.col_rows () in
      let failures = ref 0 in
      let check row =
        match
          List.find_opt
            (fun (c : Experiments.col_row) ->
              c.Experiments.col_label = row.col_label)
            current
        with
        | None ->
            incr failures;
            Printf.printf "  FAIL %-32s row no longer measured\n" row.col_label
        | Some c ->
            let cur_matches = float_of_int c.Experiments.col_matches in
            let cur_speedup = c.Experiments.col_speedup in
            let matches_ok =
              cur_matches <= row.base_col_matches *. (1. +. tolerance)
              && cur_matches >= row.base_col_matches *. (1. -. tolerance)
            in
            let speedup_ok = cur_speedup >= col_speedup_floor in
            if not (matches_ok && speedup_ok) then incr failures;
            Printf.printf
              "  %s %-32s matches %.0f -> %.0f%s; speedup %.2fx -> %.2fx%s\n"
              (if matches_ok && speedup_ok then "ok  " else "FAIL")
              row.col_label row.base_col_matches cur_matches
              (if matches_ok then "" else " (moved > tolerance)")
              row.base_col_speedup cur_speedup
              (if speedup_ok then ""
               else
                 Printf.sprintf " (below the %.1fx floor)" col_speedup_floor)
      in
      List.iter check base;
      if !failures > 0 then begin
        Printf.printf "\n%d row(s) regressed.\n" !failures;
        exit 1
      end
      else print_endline "\nno regressions."

(* --- the optimizer guard (`bench --guard-opt`) ---

   Re-measures the X12 unoptimized-vs-optimized chase rows against
   BENCH_PR6.json.  All compared quantities are counters, not clocks,
   so a throttled runner cannot fail the build.  A row regresses when

   - an optimized-side counter (matches examined, tuples generated,
     nulls created) drifted more than 25% from the baseline in either
     direction (deterministic: drift is an algorithmic change), or
   - the optimizer stopped improving: the optimized chase examines at
     least as many matches as the unoptimized one, or creates more
     non-core facts (or any, where the baseline recorded none). *)

type opt_base = {
  opt_label : string;
  base_matches : float;
  base_tuples : float;
  base_nulls : float;
}

let opt_base_rows json =
  List.filter_map
    (fun entry ->
      let field path =
        List.fold_left
          (fun acc name -> Option.bind acc (Obs.Json.member name))
          (Some entry) path
      in
      match
        ( Option.bind (field [ "label" ]) Obs.Json.string_value,
          Option.bind (field [ "optimized"; "matches_examined" ]) Obs.Json.number,
          Option.bind (field [ "optimized"; "tuples_generated" ]) Obs.Json.number,
          Option.bind (field [ "optimized"; "nulls_created" ]) Obs.Json.number )
      with
      | Some opt_label, Some base_matches, Some base_tuples, Some base_nulls ->
          Some { opt_label; base_matches; base_tuples; base_nulls }
      | _ -> None)
    (match Obs.Json.member "opt" json with
    | Some rows -> Obs.Json.elements rows
    | None -> [])

let run_opt base_path =
  match Obs.Json.parse (read_file base_path) with
  | Error msg ->
      Printf.eprintf "guard-opt: cannot parse %s: %s\n" base_path msg;
      exit 1
  | Ok json ->
      let base = opt_base_rows json in
      if base = [] then begin
        Printf.eprintf "guard-opt: no opt rows in %s\n" base_path;
        exit 1
      end;
      Printf.printf "optimizer regression guard vs %s (tolerance %.0f%%)\n\n"
        base_path (tolerance *. 100.);
      let current = Experiments.opt_rows () in
      let failures = ref 0 in
      let within base cur =
        cur <= base *. (1. +. tolerance) && cur >= base *. (1. -. tolerance)
      in
      let check row =
        match
          List.find_opt
            (fun (c : Experiments.opt_row) ->
              c.Experiments.opt_label = row.opt_label)
            current
        with
        | None ->
            incr failures;
            Printf.printf "  FAIL %-28s row no longer measured\n" row.opt_label
        | Some c ->
            let o = c.Experiments.opt and u = c.Experiments.unopt in
            let drift_ok =
              within row.base_matches (float_of_int o.Experiments.opt_matches)
              && within row.base_tuples (float_of_int o.Experiments.opt_tuples)
              && (row.base_nulls = 0.
                  && o.Experiments.opt_nulls = 0
                 || within row.base_nulls (float_of_int o.Experiments.opt_nulls))
            in
            let improves_ok =
              o.Experiments.opt_matches < u.Experiments.opt_matches
              && o.Experiments.opt_nulls <= u.Experiments.opt_nulls
              && ((not (row.base_nulls = 0.)) || o.Experiments.opt_nulls = 0)
            in
            if not (drift_ok && improves_ok) then incr failures;
            Printf.printf
              "  %s %-28s matches %.0f -> %d (unopt %d)%s; non-core %.0f -> \
               %d (unopt %d)%s\n"
              (if drift_ok && improves_ok then "ok  " else "FAIL")
              row.opt_label row.base_matches o.Experiments.opt_matches
              u.Experiments.opt_matches
              (if drift_ok then "" else " (drifted > tolerance)")
              row.base_nulls o.Experiments.opt_nulls u.Experiments.opt_nulls
              (if improves_ok then "" else " (optimizer stopped improving)")
      in
      List.iter check base;
      if !failures > 0 then begin
        Printf.printf "\n%d row(s) regressed.\n" !failures;
        exit 1
      end
      else print_endline "\nno regressions."

(* --- the serving guard (`bench --guard-serve`) ---

   Re-runs the exlserve closed-loop load scenarios against
   BENCH_PR9.json.  Wall-clock throughput on a shared CI runner is
   noisy, so the guard avoids comparing clocks to clocks; a scenario
   regresses only when

   - any request errored (5xx, transport failure — deterministic:
     the daemon must answer everything it admits), or
   - throughput fell below an absolute floor set far under any
     observed machine (a loopback in-process daemon that cannot
     answer [serve_throughput_floor] closed-loop requests per second
     is broken, not slow), or
   - the mixed scenario stopped coalescing: more server-side commits
     than accepted update batches, or no commit at all despite
     accepted updates. *)

let serve_throughput_floor = 200.

type serve_base = { serve_label : string; base_throughput : float }

let serve_base_rows json =
  List.filter_map
    (fun entry ->
      match
        ( Option.bind (Obs.Json.member "label" entry) Obs.Json.string_value,
          Option.bind (Obs.Json.member "throughput" entry) Obs.Json.number )
      with
      | Some serve_label, Some base_throughput ->
          Some { serve_label; base_throughput }
      | _ -> None)
    (match Obs.Json.member "serve" json with
    | Some rows -> Obs.Json.elements rows
    | None -> [])

let run_serve base_path =
  match Obs.Json.parse (read_file base_path) with
  | Error msg ->
      Printf.eprintf "guard-serve: cannot parse %s: %s\n" base_path msg;
      exit 1
  | Ok json ->
      let base = serve_base_rows json in
      if base = [] then begin
        Printf.eprintf "guard-serve: no serve rows in %s\n" base_path;
        exit 1
      end;
      Printf.printf
        "serving regression guard vs %s (throughput floor %.0f req/s)\n\n"
        base_path serve_throughput_floor;
      let current = Serve_load.rows () in
      let failures = ref 0 in
      let check row =
        match
          List.find_opt
            (fun (c : Serve_load.row) -> c.Serve_load.label = row.serve_label)
            current
        with
        | None ->
            incr failures;
            Printf.printf "  FAIL %-30s scenario no longer measured\n"
              row.serve_label
        | Some c ->
            let errors_ok = c.Serve_load.errors = 0 in
            let floor_ok = c.Serve_load.throughput >= serve_throughput_floor in
            let coalesce_ok =
              c.Serve_load.updates = 0
              || (c.Serve_load.commits > 0
                 && c.Serve_load.commits <= c.Serve_load.updates)
            in
            if not (errors_ok && floor_ok && coalesce_ok) then incr failures;
            Printf.printf
              "  %s %-30s %.0f req/s (baseline %.0f); %d error(s)%s%s%s\n"
              (if errors_ok && floor_ok && coalesce_ok then "ok  " else "FAIL")
              row.serve_label c.Serve_load.throughput row.base_throughput
              c.Serve_load.errors
              (if errors_ok then "" else " (must be 0)")
              (if floor_ok then ""
               else Printf.sprintf " (below the %.0f req/s floor)"
                      serve_throughput_floor)
              (if coalesce_ok then ""
               else
                 Printf.sprintf " (coalescing broken: %d commits for %d updates)"
                   c.Serve_load.commits c.Serve_load.updates)
      in
      List.iter check base;
      if !failures > 0 then begin
        Printf.printf "\n%d scenario(s) regressed.\n" !failures;
        exit 1
      end
      else print_endline "\nno regressions."
