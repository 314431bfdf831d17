(* The engine workloads, each run in a worker process of its own so
   its peak resident memory is the engine's alone:

   - [cold]: the cold path of exlserve and exlrun, boot then first
     commit, as the first thing a fresh process does ([revise] runs
     two beside its own set-up);
   - [boots]: one round of [boot], a cold start then boots of a small
     store; traced, boots back to back for the layer spans;
   - [revise]: exlserve's writer path without HTTP, in a closed loop
     with one client. *)
open Matrix
module E = Engine.Exlengine

(* One as-of date for every commit, as exlserve uses within a day, so
   history versions are replaced instead of accumulating. *)
let as_of = Calendar.Date.make ~year:2026 ~month:10 ~day:1

type result = {
  metrics : Measure.metric list;
  counts : (string * float) list;  (** values two runs of one seed repeat *)
  attempted : int;
  failed : int;
}

(* Failures of the run: a raised error or a wrong output, each counted
   against the operations attempted. *)
let attempted = ref 0
let failed = ref 0

let attempt f =
  incr attempted;
  match f () with
  | x -> Some x
  | exception exn ->
      incr failed;
      Printf.eprintf "exlbench: operation failed: %s\n%!" (Printexc.to_string exn);
      None

let check what good =
  if not good then begin
    incr failed;
    Printf.eprintf "exlbench: wrong result: %s\n%!" what
  end

(* register_program -> load_store -> recompute_all -> warm. *)
let boot ~dir =
  let e = E.create () in
  Layers.layer "exl.register" (fun () ->
      Measure.ok "register_program" (E.register_program e ~name:Gen.program_name Gen.program));
  Layers.layer "store.load" (fun () -> Measure.ok "load_store" (E.load_store e ~dir));
  let report =
    Layers.layer "dispatcher.recompute" (fun () -> Measure.ok "recompute_all" (E.recompute_all e))
  in
  Layers.layer "chase.warm" (fun () -> Measure.ok "warm" (E.warm e));
  (e, report)

let load_reference dir =
  let reg = Measure.ok "reference store" (Store.load ~dir) in
  List.map (fun name -> (name, Registry.find_exn reg name)) Oracle.derived

(* Per-boot figures the traced run reports beside the spans. *)
let translate_s = ref [] and execute_s = ref [] and cache_misses = ref []

(* Words the last boot allocated. *)
let boot_words = ref nan

(* A boot timed as one operation, with the CPU seconds it took.  A
   full major collection runs first, outside the timed region, so a
   boot after another starts from a heap like a fresh process's instead
   of sweeping the previous engine's garbage. *)
let traced_boot ~op ~dir =
  let misses0 = Layers.counter "translation.cache_misses" in
  Gc.full_major ();
  let w0 = Measure.words () in
  let (e, report), dt = Measure.cpu_time (fun () -> Layers.op op (fun () -> boot ~dir)) in
  boot_words := Measure.words () -. w0;
  if Layers.tracing () && op = "op.boot" then begin
    let sum f = List.fold_left (fun acc s -> acc +. f s) 0. report.Engine.Dispatcher.subgraphs in
    translate_s := sum (fun s -> s.Engine.Dispatcher.translate_seconds) :: !translate_s;
    execute_s := sum (fun s -> s.Engine.Dispatcher.execute_seconds) :: !execute_s;
    cache_misses :=
      float_of_int (Layers.counter "translation.cache_misses" - misses0) :: !cache_misses
  end;
  ((e, report), dt)

let ms s = 1000. *. s
let med = Measure.median
let mwords ~op name = med (Layers.words ~op name) /. 1e6
let kwords ~op name = med (Layers.words ~op name) /. 1e3
let span_s ~op name = med (Layers.durations ~op name)

(* Layer metrics of the traced boots (operation [op.boot]). *)
let boot_layers () =
  let warm = Layers.nested ~op:"op.boot" "chase.warm" "chase.run" in
  Measure.
    [
      m "store.load_s" "s" (span_s ~op:"op.boot" "store.load");
      m "store.load_mwords" "Mwords" (mwords ~op:"op.boot" "store.load");
      m "exl.register_s" "s" (span_s ~op:"op.boot" "exl.register");
      m "dispatcher.recompute_s" "s" (span_s ~op:"op.boot" "dispatcher.recompute");
      m "dispatcher.translate_s" "s" (med !translate_s);
      m "dispatcher.execute_s" "s" (med !execute_s);
      m "dispatcher.recompute_mwords" "Mwords" (mwords ~op:"op.boot" "dispatcher.recompute");
      m "translation.cache_misses" "count" (med !cache_misses);
      m "chase.warm_s" "s" (med (List.map fst warm));
      m "chase.warm_mwords" "Mwords" (mwords ~op:"op.boot" "chase.warm");
      m "chase.run_s" "s" (med (List.map snd warm));
      m "chase.warm_untraced_s" "s" (med (List.map (fun (w, r) -> w -. r) warm));
    ]

(* Words allocated by each untraced large boot of the traced run: with
   no collector installed nothing allocates by the clock, so the count
   repeats exactly. *)
let untraced_words = ref []

let words_of f =
  let w0 = Measure.words () in
  let x = f () in
  (x, Measure.words () -. w0)

let boot_counts () =
  [
    ("translation.cache_misses", med !cache_misses);
    ("boot_words", List.hd (List.rev !untraced_words));
  ]

let overhead_pct traced untraced = 100. *. (med traced -. med untraced) /. med untraced

(* ----- revise ----- *)

let pdr_key (r : Gen.revision) = Tuple.of_list [ Value.Date r.day; Value.String (Gen.region r.region_index) ]

(* validate_updates -> apply_updates -> Snapshot.publish, as exlserve's
   writer does for one request; the published snapshot must show the
   write. *)
let commit e snap (r : Gen.revision) =
  let u = Gen.update r in
  Layers.layer "update.validate" (fun () -> Measure.ok "validate_updates" (E.validate_updates e [ u ]));
  let report = Layers.layer "update.apply" (fun () -> Measure.ok "apply_updates" (E.apply_updates ~as_of e [ u ])) in
  let snap =
    Layers.layer "snapshot.publish" (fun () ->
        Serve.Snapshot.publish ~prev:snap ~touched:(report.E.updated @ report.E.recomputed) e)
  in
  let shown =
    match Serve.Snapshot.find snap "PDR" with
    | Some { Serve.Snapshot.current = Some cube; _ } -> Cube.find cube (pdr_key r)
    | _ -> None
  in
  check "revise: published snapshot misses its own write"
    (Option.map (fun v -> Oracle.tamper "publish" (Option.get (Value.to_float v))) shown = Some r.value);
  (snap, report)

(* A warm engine plus its published snapshot, after the first commit. *)
type writer = { engine : E.t; mutable snap : Serve.Snapshot.t; rng : Random.State.t; regions : int }

(* Capture the boot snapshot and make the first commit: lazy set-up
   every booted engine pays once. *)
let first_commit ~rng ~regions (e, report) =
  let snap = Layers.layer "snapshot.capture" (fun () -> Serve.Snapshot.capture ~report e) in
  let w = { engine = e; snap; rng; regions } in
  let (snap, _), first =
    Measure.cpu_time (fun () ->
        Layers.op "op.first_commit" (fun () -> commit e snap (Gen.revision rng ~regions)))
  in
  w.snap <- snap;
  (w, first)

let set_up ~op ~dir ~regions ~rng = first_commit ~rng ~regions (fst (traced_boot ~op ~dir))

let step ~op w =
  let r = Gen.revision w.rng ~regions:w.regions in
  let (snap, report), dt = Measure.cpu_time (fun () -> Layers.op op (fun () -> commit w.engine w.snap r)) in
  w.snap <- snap;
  (report, dt)

(* The incrementally maintained cubes against a from-scratch
   recompute_all of the final store. *)
let scratch_matches w =
  Oracle.tamper_cube "scratch" (Option.get (E.cube w.engine "GDP"));
  let fresh = E.create () in
  Measure.ok "register_program" (E.register_program fresh ~name:Gen.program_name Gen.program);
  List.iter
    (fun name -> Measure.ok "load_elementary" (E.load_elementary fresh (Option.get (E.cube w.engine name))))
    [ "PDR"; "RGDPPC" ];
  ignore (Measure.ok "recompute_all" (E.recompute_all fresh));
  Oracle.mismatches
    (List.map (fun name -> (name, Option.get (E.cube fresh name))) Oracle.derived)
    (E.cube w.engine)
  = []

let revise_layers reports =
  let apply = Layers.nested ~op:"op.commit" "update.apply" "chase.incremental" in
  let field f = med (List.map (fun r -> float_of_int (f r)) reports) in
  Measure.
    [
      m "update.validate_ms" "ms" (ms (span_s ~op:"op.commit" "update.validate"));
      m "update.apply_ms" "ms" (ms (med (List.map fst apply)));
      m "update.apply_kwords" "kwords" (kwords ~op:"op.commit" "update.apply");
      m "chase.incremental_ms" "ms" (ms (med (List.map snd apply)));
      m "update.apply_untraced_ms" "ms" (ms (med (List.map (fun (a, c) -> a -. c) apply)));
      m "incr.facts_rederived" "count" (field (fun r -> r.E.facts_rederived));
      m "incr.rederived_share" "ratio"
        (med (List.map (fun r -> float_of_int r.E.facts_rederived /. float_of_int r.E.total_facts) reports));
      m "incr.strata_rederived" "count" (field (fun r -> r.E.strata_rederived));
      m "incr.strata_skipped" "count" (field (fun r -> r.E.strata_skipped));
      m "snapshot.publish_ms" "ms" (ms (span_s ~op:"op.commit" "snapshot.publish"));
      m "snapshot.publish_kwords" "kwords" (kwords ~op:"op.commit" "snapshot.publish");
    ]

(* Counts over the first [n] steady commits of a seed, which repeat
   exactly; the words come from untraced commits. *)
let revise_counts reports =
  let n = 16 in
  let first l = List.filteri (fun i _ -> i < n) l in
  let sum f = float_of_int (List.fold_left (fun acc r -> acc + f r) 0 (first reports)) in
  [
    ("commits", float_of_int (List.length (first reports)));
    ("incr.facts_rederived", sum (fun r -> r.E.facts_rederived));
    ("incr.strata_rederived", sum (fun r -> r.E.strata_rederived));
    ("incr.strata_skipped", sum (fun r -> r.E.strata_skipped));
    ("commit_words", List.fold_left ( +. ) 0. (first (List.rev !untraced_words)));
  ]

(* ----- boot ----- *)

(* One cold start, the first thing its process does, as when exlserve
   or exlrun start: boot, check the derived cubes against the
   interpreter, then make the first commit. *)
let run_cold ~store ~regions ~reference ~seed =
  let expected = load_reference reference in
  Measure.sample_kernel ();
  let metrics =
    match attempt (fun () -> traced_boot ~op:"op.boot" ~dir:store) with
    | None -> []
    | Some (((e, _) as booted), boot_s) -> (
        Measure.sample_kernel ();
        Oracle.tamper_cube "boot" (Option.get (E.cube e "GDP"));
        check "boot: derived cubes differ from the interpreter"
          (Oracle.mismatches expected (E.cube e) = []);
        match
          attempt (fun () ->
              Measure.cpu_time (fun () ->
                  first_commit ~rng:(Random.State.make [| seed; regions |]) ~regions booted))
        with
        | None -> []
        | Some ((_, first), capture_and_first) ->
            Measure.sample_kernel ();
            Measure.
              [
                m "boot_ms" "ms" (ms boot_s);
                m "first_commit_ms" "ms" (ms first);
                m "setup_s" "s" (boot_s +. capture_and_first);
                m "peak_rss_mb" "MB" (Measure.peak_rss_mb 0);
              ])
  in
  { metrics; counts = []; attempted = !attempted; failed = !failed }

(* One round of [boot], in a worker process of its own: a cold start of
   the [large] store, checked against the interpreter and followed by
   the first commit; then [small_boots] boots of the [small] store,
   each after a full major collection.  The samples go to the series
   [boot], [first] and [small]; the kernel is timed before every boot. *)
let small_boots = 3

let run_boots ~large:(store, regions, reference) ~small:(store_s, reference_s) ~seed ~round =
  let expected = load_reference reference and expected_s = load_reference reference_s in
  let boot_checked ~dir expected =
    Measure.sample_kernel ();
    match attempt (fun () -> traced_boot ~op:"op.boot" ~dir) with
    | None -> None
    | Some (((e, _) as booted), dt) ->
        Oracle.tamper_cube "boot" (Option.get (E.cube e "GDP"));
        check "boot: derived cubes differ from the interpreter"
          (Oracle.mismatches expected (E.cube e) = []);
        Some (booted, dt)
  in
  (match boot_checked ~dir:store expected with
  | None -> ()
  | Some (booted, boot_s) ->
      Measure.sample "boot" boot_s;
      Option.iter
        (fun (_, first) -> Measure.sample "first" first)
        (attempt (fun () ->
             first_commit ~rng:(Random.State.make [| seed; regions; round |]) ~regions booted)));
  for _ = 1 to small_boots do
    Option.iter (fun (_, dt) -> Measure.sample "small" dt) (boot_checked ~dir:store_s expected_s)
  done;
  { metrics = Measure.[ m "peak_rss_mb" "MB" (peak_rss_mb 0) ]; counts = []; attempted = !attempted; failed = !failed }

(* The traced run of [boot]: engines booted back to back in this
   process until [seconds] are used, every other one untraced; then
   the last engine makes a first commit and ten more, so the commit
   layers are measured too. *)
let run_boot_traced ~store ~regions ~seed ~seconds =
  let large = ref [] and untraced = ref [] and last = ref None in
  let t0 = Measure.now () in
  let cycle = ref 0 in
  let elapsed () = Measure.now () -. t0 in
  while !cycle < 2 || elapsed () *. float_of_int (!cycle + 1) /. float_of_int !cycle <= seconds do
    incr cycle;
    let traced_now = !cycle mod 2 = 1 in
    if traced_now then Layers.resume () else Layers.pause ();
    match attempt (fun () -> traced_boot ~op:"op.boot" ~dir:store) with
    | Some (booted, dt) ->
        last := Some booted;
        if traced_now then large := dt :: !large
        else begin
          untraced := dt :: !untraced;
          untraced_words := !boot_words :: !untraced_words
        end
    | None -> ()
  done;
  Layers.resume ();
  let reports =
    match !last with
    | Some booted ->
        let w, _ = first_commit ~rng:(Random.State.make [| seed; regions |]) ~regions booted in
        List.init 10 (fun _ -> fst (step ~op:"op.commit" w))
    | None -> []
  in
  {
    metrics =
      boot_layers () @ revise_layers reports
      @ Measure.
          [
            m "obs.overhead_pct" "%" (overhead_pct !large !untraced);
            m "trace.coverage_pct" "%" (Layers.coverage_pct "op.boot");
          ];
    counts = boot_counts ();
    attempted = !attempted;
    failed = !failed;
  }

(* Boot and first commit of the large store, then one commit on the
   large engine and [small_per_large] on the small one (when given), in
   turn, until [seconds] are used.  The traced run leaves every other
   large commit untraced. *)
let small_per_large = 3
let peak_after = 100

let run_revise ~store ~regions ~small ~seed ~seconds ~trace =
  let rng scale = Random.State.make [| seed; scale |] in
  incr attempted;
  (* untraced, the kernel is timed before and after the set-up and
     once per round of the loop *)
  let sample_kernel () = if not trace then Measure.sample_kernel () in
  sample_kernel ();
  let (w, first), setup_s =
    Measure.cpu_time (fun () -> set_up ~op:"op.boot" ~dir:store ~regions ~rng:(rng regions))
  in
  sample_kernel ();
  let small =
    Option.map
      (fun (dir, regions) -> fst (set_up ~op:"op.boot_small" ~dir ~regions ~rng:(rng regions)))
      small
  in
  let large = ref [] and reports = ref [] and untraced = ref [] and small_s = ref [] in
  (* the heap grows with the commits made, so peak memory is read after
     a fixed number of them: the host's speed sets how many fit in a
     run *)
  let peak = ref nan in
  let t0 = Measure.now () in
  let i = ref 0 in
  while Measure.now () -. t0 < seconds do
    incr i;
    sample_kernel ();
    let traced_now = (not trace) || !i mod 2 = 1 in
    if trace then if traced_now then Layers.resume () else Layers.pause ();
    let commit () =
      if traced_now then step ~op:"op.commit" w
      else begin
        let x, words = words_of (fun () -> step ~op:"op.commit" w) in
        untraced_words := words :: !untraced_words;
        x
      end
    in
    (match attempt commit with
    | Some (report, dt) ->
        if traced_now then begin
          large := dt :: !large;
          reports := report :: !reports;
          if List.length !large = peak_after then peak := Measure.peak_rss_mb 0
        end
        else untraced := dt :: !untraced
    | None -> ());
    Option.iter
      (fun s ->
        for _ = 1 to small_per_large do
          match attempt (fun () -> step ~op:"op.commit_small" s) with
          | Some (_, dt) -> small_s := dt :: !small_s
          | None -> ()
        done)
      small
  done;
  Layers.resume ();
  let peak = if Float.is_nan !peak then Measure.peak_rss_mb 0 else !peak in
  check "revise: incremental cubes differ from a from-scratch recompute" (scratch_matches w);
  Option.iter
    (fun s -> check "revise (small): incremental cubes differ from a from-scratch recompute" (scratch_matches s))
    small;
  attempted := !attempted + 1 + Option.fold ~none:0 ~some:(fun _ -> 1) small;
  let large = List.rev !large and reports = List.rev !reports in
  if trace then
    {
      metrics =
        boot_layers () @ revise_layers reports
        @ Measure.
            [
              m "obs.overhead_pct" "%" (overhead_pct large !untraced);
              m "trace.coverage_pct" "%" (Layers.coverage_pct "op.commit");
            ];
      counts = revise_counts reports;
      attempted = !attempted;
      failed = !failed;
    }
  else
    {
      metrics =
        Measure.
          [
            m "setup_s" "s" setup_s;
            m "peak_rss_mb" "MB" peak;
            m "op_p50_ms" "ms" (ms (med large));
            m "op_tail_ms" "ms" (ms (Measure.percentile 90. large));
            m "op2_p50_ms" "ms" (ms (med !small_s));
            m "commit_8r_p90_ms" "ms" (ms (Measure.percentile 90. !small_s));
            m "first_op_ms" "ms" (ms first);
            m "samples" "count" (float_of_int (List.length large));
            m "samples2" "count" (float_of_int (List.length !small_s));
          ];
      counts = [];
      attempted = !attempted;
      failed = !failed;
    }
