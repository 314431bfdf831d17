(* exlbench: the benchmark of the paper's pipeline.

     main.exe --workload boot|revise|serve --seed N --seconds S --trace 0|1

   prints a human table on stderr and, as the last line of stdout, one
   JSON object: {"correct", "attempted", "failed", "metrics"}.  With
   --trace 0 the metrics are the end-to-end ones, with --trace 1 the
   per-layer ones.  See README.md for the workloads and metrics. *)
open Matrix

(* ----- options ----- *)

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  work : string;  (** scratch directory for stores, traces, results *)
  exlserve : string;
  small : bool;  (** tiny stores, for the benchmark's own tests *)
}

let parse_args args =
  let o =
    ref
      {
        workload = "";
        seed = 1;
        seconds = 15.;
        trace = false;
        work = ".exlbench";
        exlserve = "_build/default/bin/exlserve.exe";
        small = false;
      }
  in
  let rec go = function
    | "--workload" :: v :: rest -> o := { !o with workload = v }; go rest
    | "--seed" :: v :: rest -> o := { !o with seed = int_of_string v }; go rest
    | "--seconds" :: v :: rest -> o := { !o with seconds = float_of_string v }; go rest
    | "--trace" :: v :: rest -> o := { !o with trace = v = "1" }; go rest
    | "--work" :: v :: rest -> o := { !o with work = v }; go rest
    | "--exlserve" :: v :: rest -> o := { !o with exlserve = v }; go rest
    | "--small" :: rest -> o := { !o with small = true }; go rest
    | "--corrupt" :: v :: rest -> Oracle.corruption := Some v; go rest
    | [] -> ()
    | arg :: _ -> failwith ("unknown argument " ^ arg)
  in
  go args;
  !o

(* Region counts: (large, small) for revise, one for serve. *)
let scales o = if o.small then (4, 2, 4) else (128, 8, 200)

(* Region counts for boot: (large, small). *)
let boot_scales o = if o.small then (4, 2) else (32, 8)

(* ----- metric catalogue ----- *)

let end_to_end =
  [
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
    ("op_p50_ms", "ms");
    ("op_tail_ms", "ms");
    ("op2_p50_ms", "ms");
    ("first_op_ms", "ms");
  ]

let per_layer =
  [
    ("store.load_s", "s");
    ("store.load_mwords", "Mwords");
    ("exl.register_s", "s");
    ("dispatcher.recompute_s", "s");
    ("dispatcher.translate_s", "s");
    ("dispatcher.execute_s", "s");
    ("dispatcher.recompute_mwords", "Mwords");
    ("translation.cache_misses", "count");
    ("chase.warm_s", "s");
    ("chase.warm_mwords", "Mwords");
    ("chase.run_s", "s");
    ("chase.warm_untraced_s", "s");
    ("update.validate_ms", "ms");
    ("update.apply_ms", "ms");
    ("update.apply_kwords", "kwords");
    ("chase.incremental_ms", "ms");
    ("update.apply_untraced_ms", "ms");
    ("incr.facts_rederived", "count");
    ("incr.rederived_share", "ratio");
    ("incr.strata_rederived", "count");
    ("incr.strata_skipped", "count");
    ("snapshot.publish_ms", "ms");
    ("snapshot.publish_kwords", "kwords");
    ("obs.overhead_pct", "%");
    ("trace.coverage_pct", "%");
  ]

(* The end-to-end metrics under the names a reader of each workload
   knows them by.  [boot] and [revise] time CPU seconds of the engine's
   process, scaled to the reference host's speed ({!Measure.at_reference});
   [serve] times wall-clock latency from when a request was due. *)
let aliases = function
  | "boot" ->
      [ ("op_p50_ms", "boot_ms"); ("op_tail_ms", "boot_p90_ms"); ("op2_p50_ms", "boot_8r_ms");
        ("first_op_ms", "first_commit_ms") ]
  | "revise" ->
      [ ("op_p50_ms", "commit_p50_ms"); ("op_tail_ms", "commit_p90_ms");
        ("op2_p50_ms", "commit_8r_p50_ms"); ("first_op_ms", "first_commit_ms") ]
  | _ ->
      [ ("op_p50_ms", "read_p50_ms"); ("op_tail_ms", "read_p99_ms"); ("op2_p50_ms", "write_p50_ms");
        ("first_op_ms", "first_write_ms") ]

(* ----- JSON with every digit ----- *)

let num f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let json_metrics ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun { Measure.name; value; unit_ } ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num value) unit_)
         ms)
  ^ "}"

let json_counts counts =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (num v)) counts) ^ "}"

(* ----- the worker process ----- *)

let worker o kind dirs =
  let run () =
    match (kind, dirs) with
    | "boots", [ store; regions; reference; store_small; reference_small; round ] ->
        Engine_work.run_boots
          ~large:(store, int_of_string regions, reference)
          ~small:(store_small, reference_small) ~seed:o.seed ~round:(int_of_string round)
    | "cold", [ store; regions; reference ] ->
        Engine_work.run_cold ~store ~regions:(int_of_string regions) ~reference ~seed:o.seed
    | "boot", [ store; regions ] ->
        Engine_work.run_boot_traced ~store ~regions:(int_of_string regions) ~seed:o.seed
          ~seconds:o.seconds
    | "revise", [ store; regions; store_small; regions_small ] ->
        Engine_work.run_revise ~store ~regions:(int_of_string regions)
          ~small:(Some (store_small, int_of_string regions_small))
          ~seed:o.seed ~seconds:o.seconds ~trace:o.trace
    | "layers", [ store; regions ] ->
        Engine_work.run_revise ~store ~regions:(int_of_string regions) ~small:None ~seed:o.seed
          ~seconds:o.seconds ~trace:true
    | _ -> failwith "worker: bad arguments"
  in
  let result = if o.trace then Layers.traced run else run () in
  if o.trace then Layers.write ~prefix:(Filename.concat o.work (kind ^ "-seed" ^ string_of_int o.seed));
  let series =
    Hashtbl.fold
      (fun name vs acc -> Printf.sprintf "%S: [%s]" name (String.concat ", " (List.map num vs)) :: acc)
      Measure.series []
  in
  Printf.printf "{\"attempted\": %d, \"failed\": %d, \"metrics\": %s, \"counts\": %s, \"series\": {%s}}\n"
    result.attempted result.failed (json_metrics result.metrics) (json_counts result.counts)
    (String.concat ", " series)

(* Run this executable as a worker and read its result line. *)
let run_worker o kind dirs =
  let args =
    [ Sys.executable_name; "worker"; kind; "--seed"; string_of_int o.seed; "--seconds";
      Printf.sprintf "%g" o.seconds; "--trace"; (if o.trace then "1" else "0"); "--work"; o.work ]
    @ (match !Oracle.corruption with Some c -> [ "--corrupt"; c ] | None -> [])
    @ ("--" :: dirs)
  in
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' |> List.filter (( <> ) "") in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith ("worker " ^ kind ^ " failed"));
  let j = Measure.ok "worker result" (Obs.Json.parse (List.nth lines (List.length lines - 1))) in
  let module J = Obs.Json in
  let field name = Option.value ~default:J.Null (J.member name j) in
  let metrics =
    match field "metrics" with
    | J.Obj kvs ->
        List.map
          (fun (name, v) ->
            let value = Option.bind (J.member "value" v) J.number |> Option.value ~default:nan in
            let unit_ = Option.bind (J.member "unit" v) J.string_value |> Option.value ~default:"" in
            Measure.m name unit_ value)
          kvs
    | _ -> []
  in
  let counts =
    match field "counts" with
    | J.Obj kvs -> List.map (fun (k, v) -> (k, Option.value ~default:nan (J.number v))) kvs
    | _ -> []
  in
  let int name = int_of_float (Option.value ~default:0. (J.number (field name))) in
  (match field "series" with
  | J.Obj kvs ->
      List.iter
        (fun (name, vs) ->
          match vs with
          | J.List vs -> List.iter (fun v -> Option.iter (Measure.sample name) (J.number v)) (List.rev vs)
          | _ -> ())
        kvs
  | _ -> ());
  (metrics, counts, int "attempted", int "failed")

(* ----- set-up shared by the coordinators ----- *)

let ensure_dir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* [make ()] saved under [name] in the work directory, once: the data
   depend only on their size, so later runs reuse them. *)
let saved_once o name make =
  let dir = Filename.concat o.work name in
  if not (Sys.file_exists (Filename.concat dir "manifest")) then begin
    let tmp = dir ^ ".tmp" in
    remove_tree tmp;
    Measure.ok "Store.save" (Store.save ~dir:tmp (make ()));
    remove_tree dir;
    Sys.rename tmp dir
  end;
  dir

let store o regions = saved_once o (Printf.sprintf "store-%d" regions) (fun () -> Gen.registry ~regions)

(* The interpreter's derived cubes for the store of [regions]. *)
let reference o regions =
  saved_once o (Printf.sprintf "reference-%d" regions) (fun () ->
      let reg = Registry.create () in
      List.iter
        (fun (_, cube) -> Registry.add reg Registry.Derived cube)
        (Oracle.reference (Gen.registry ~regions));
      reg)

(* ----- workloads ----- *)

type outcome = {
  metrics : Measure.metric list;
  counts : (string * float) list;
  attempted : int;
  failed : int;
  valid : bool;  (** the run measured what it claims to *)
}

let value name metrics =
  match List.find_opt (fun (mt : Measure.metric) -> mt.name = name) metrics with
  | Some mt -> mt.value
  | None -> nan

type cold = { boot_ms : float; first_ms : float; setup : float; peak_mb : float; tries : int; failures : int }

(* A cold start in a fresh worker process: boot, then first commit. *)
let cold o ~regions =
  let metrics, _, tries, failures =
    run_worker o "cold" [ store o regions; string_of_int regions; reference o regions ]
  in
  {
    boot_ms = value "boot_ms" metrics;
    first_ms = value "first_commit_ms" metrics;
    setup = value "setup_s" metrics;
    peak_mb = value "peak_rss_mb" metrics;
    tries;
    failures;
  }

let boot_workload o =
  let large, small = boot_scales o in
  (* set-up: generate and save the store, five times *)
  let saved = Filename.concat o.work "boot-save" in
  let setups =
    List.init 5 (fun _ ->
        remove_tree saved;
        if not o.trace then Measure.sample_kernel ();
        snd
          (Measure.cpu_time (fun () ->
               Measure.ok "Store.save" (Store.save ~dir:saved (Gen.registry ~regions:large)))))
  in
  if o.trace then
    let metrics, counts, attempted, failed = run_worker o "boot" [ saved; string_of_int large ] in
    { metrics; counts; attempted; failed; valid = true }
  else begin
    (* one round per worker process, until [seconds] are used; at least
       two rounds *)
    let dirs = [ saved; string_of_int large; reference o large; store o small; reference o small ] in
    let attempted = ref 0 and failed = ref 0 and peaks = ref [] in
    let t0 = Measure.now () in
    let rounds = ref 0 in
    while !rounds < 2 || Measure.now () -. t0 < o.seconds do
      incr rounds;
      let metrics, _, a, f = run_worker o "boots" (dirs @ [ string_of_int !rounds ]) in
      attempted := !attempted + a;
      failed := !failed + f;
      peaks := value "peak_rss_mb" metrics :: !peaks
    done;
    let boots = Measure.samples "boot" and smalls = Measure.samples "small" in
    let ms s = 1000. *. s in
    {
      metrics =
        Measure.
          [
            m "setup_s" "s" (median setups);
            m "peak_rss_mb" "MB" (median !peaks);
            m "op_p50_ms" "ms" (ms (median boots));
            m "op_tail_ms" "ms" (ms (percentile 90. boots));
            m "op2_p50_ms" "ms" (ms (median smalls));
            m "first_op_ms" "ms" (ms (median (Measure.samples "first")));
            m "samples" "count" (float_of_int (List.length boots));
            m "samples2" "count" (float_of_int (List.length smalls));
          ];
      counts = [];
      attempted = !attempted;
      failed = !failed;
      valid = true;
    }
  end

let revise_workload o =
  let large, small, _ = scales o in
  let metrics, counts, attempted, failed =
    run_worker o "revise"
      [ store o large; string_of_int large; store o small; string_of_int small ]
  in
  if o.trace then { metrics; counts; attempted; failed; valid = true }
  else begin
    (* set-up five times, each the first thing a fresh process does:
       four times in cold workers, once in the worker that then runs
       the loop *)
    let colds = List.init 4 (fun _ -> cold o ~regions:large) in
    let setups = value "setup_s" metrics :: List.map (fun c -> c.setup) colds
    and firsts = value "first_op_ms" metrics :: List.map (fun c -> c.first_ms) colds in
    let replaced =
      List.map
        (fun (mt : Measure.metric) ->
          match mt.name with
          | "setup_s" -> { mt with value = Measure.median setups }
          | "first_op_ms" -> { mt with value = Measure.median firsts }
          | _ -> mt)
        metrics
    in
    {
      metrics = replaced;
      counts;
      attempted = List.fold_left (fun acc c -> acc + c.tries) attempted colds;
      failed = List.fold_left (fun acc c -> acc + c.failures) failed colds;
      valid = true;
    }
  end

let program_file o =
  let path = Filename.concat o.work "overview.exl" in
  Out_channel.with_open_text path (fun oc -> output_string oc Gen.program);
  path

(* Handler seconds per request from exlserve's JSONL log, for the
   reads and the writes of the measured window.  The log's timestamps
   are too coarse to place a request, so requests are matched by order:
   each connection's requests are handled in sequence. *)
let server_times log (run : Serve_work.run) =
  let module J = Obs.Json in
  let lines = In_channel.with_open_text log In_channel.input_all |> String.split_on_char '\n' in
  let entries =
    List.filter_map
      (fun line ->
        match J.parse line with
        | Ok j -> (
            match
              ( Option.bind (J.member "method" j) J.string_value,
                Option.bind (J.member "path" j) J.string_value,
                Option.bind (J.member "seconds" j) J.number )
            with
            | Some m, Some p, Some sec -> Some (m, p, sec)
            | _ -> None)
        | Error _ -> None)
      lines
  in
  let starts prefix p = String.length p >= String.length prefix && String.sub p 0 (String.length prefix) = prefix in
  (* read-your-writes probes (PQR) ride the write connection *)
  let reads = List.filter (fun (m, p, _) -> m = "GET" && starts "/v1/cube/" p && not (starts "/v1/cube/PQR" p)) entries
  and posts = List.filter (fun (m, _, _) -> m = "POST") entries in
  let window outcomes handled =
    let before = List.length (List.filter (fun (o : Client.outcome) -> o.request.due < run.measure_from) outcomes) in
    let inside = List.length (List.filter (Serve_work.in_window run) outcomes) in
    List.filteri (fun i _ -> i >= before && i < before + inside) handled |> List.map (fun (_, _, sec) -> sec)
  in
  (window run.reads reads, window run.writes posts)

let serve_workload o =
  let _, _, regions = scales o in
  let data = store o regions in
  let program = program_file o in
  let log = Filename.concat o.work "serve-log.jsonl" in
  if Sys.file_exists log then Sys.remove log;
  (* set-up: spawn -> first 200 from /healthz, twice; the second server
     carries the traffic *)
  let spawns = if o.trace then 1 else 2 in
  let setups = ref [] and server = ref None in
  for i = 1 to spawns do
    let s, dt =
      Measure.time (fun () ->
          Serve_work.spawn ~exe:o.exlserve ~program ~data
            ~log:(if o.trace && i = spawns then Some log else None))
    in
    setups := dt :: !setups;
    if i < spawns then Serve_work.stop s else server := Some s
  done;
  let server = Option.get !server in
  let reg = Gen.registry ~regions in
  let run =
    Fun.protect
      ~finally:(fun () -> Serve_work.stop server)
      (fun () -> Serve_work.drive server ~seed:o.seed ~seconds:o.seconds ~regions ~reg)
  in
  let module S = Serve_work in
  Out_channel.with_open_text
    (Filename.concat o.work (Printf.sprintf "serve-seed%d-requests.tsv" o.seed))
    (fun oc ->
      output_string oc "due_s\tkind\tlatency_ms\tgood\n";
      List.iter
        (fun (kind, outcomes) ->
          List.iter
            (fun (c : Client.outcome) ->
              Printf.fprintf oc "%.6f\t%s\t%.3f\t%b\n" (c.request.due -. run.measure_from) kind
                (1000. *. (c.finished -. c.request.due)) c.good)
            outcomes)
        [ ("read", run.reads); ("write", run.writes); ("check", run.checks) ]);
  let reads = S.latencies run run.reads and writes = S.latencies run run.writes in
  let late = S.lateness run (run.reads @ run.writes) in
  let late_p99_ms = 1000. *. Measure.percentile 99. late in
  let bad l = List.length (List.filter (fun (c : Client.outcome) -> not c.good) l) in
  let failed = bad run.reads + bad run.writes + bad run.checks + if run.final_ok then 0 else 1 in
  let attempted = List.length run.reads + List.length run.writes + List.length run.checks + 1 in
  if not run.final_ok then prerr_endline "exlbench: wrong result: served GDP/PCHNG differ from the replayed reference";
  if bad run.checks > 0 then
    Printf.eprintf "exlbench: wrong result: %d read-your-writes checks failed\n%!" (bad run.checks);
  let valid = late_p99_ms <= S.late_limit_ms in
  if not valid then
    Printf.eprintf "exlbench: invalid run: generator late by %.1f ms at p99 (limit %.0f ms)\n%!"
      late_p99_ms S.late_limit_ms;
  let first_write = List.hd run.writes in
  let ms = 1000. in
  if o.trace then begin
    let gets, posts = server_times log run in
    let metrics, counts, a, f =
      run_worker { o with seconds = Float.min o.seconds 5. } "layers" [ data; string_of_int regions ]
    in
    {
      metrics =
        metrics
        @ Measure.
            [
              m "server.read_ms" "ms" (ms *. Measure.median gets);
              m "server.write_ms" "ms" (ms *. Measure.median posts);
              m "server.read_wait_ms" "ms" (ms *. (Measure.median reads -. Measure.median gets));
              m "server.jobs_per_commit" "ratio" run.jobs_per_commit;
              m "gen.late_p99_ms" "ms" late_p99_ms;
            ];
      counts;
      attempted = attempted + a;
      failed = failed + f;
      valid;
    }
  end
  else
    {
      metrics =
        Measure.
          [
            m "setup_s" "s" (Measure.median !setups);
            m "peak_rss_mb" "MB" run.peak_mb;
            m "op_p50_ms" "ms" (ms *. Measure.median reads);
            m "op_tail_ms" "ms" (ms *. Measure.percentile 99. reads);
            m "op2_p50_ms" "ms" (ms *. Measure.median writes);
            m "write_p90_ms" "ms" (ms *. Measure.percentile 90. writes);
            m "first_op_ms" "ms" (ms *. (first_write.finished -. first_write.request.due));
            m "samples" "count" (float_of_int (List.length reads));
            m "samples2" "count" (float_of_int (List.length writes));
            m "gen.late_p99_ms" "ms" late_p99_ms;
          ];
      counts = [];
      attempted;
      failed;
      valid;
    }

(* ----- the coordinator ----- *)

(* Counts that must repeat exactly for a seed: the first traced run
   records them, later ones compare. *)
let check_counts o counts =
  if counts = [] then true
  else begin
    let dir = Filename.concat o.work "counts" in
    ensure_dir dir;
    let path = Filename.concat dir (Printf.sprintf "%s-seed%d%s.json" o.workload o.seed (if o.small then "-small" else "")) in
    let text = json_counts counts in
    if not (Sys.file_exists path) then begin
      Out_channel.with_open_text path (fun oc -> output_string oc text);
      true
    end
    else begin
      let before = In_channel.with_open_text path In_channel.input_all in
      if before <> text then
        Printf.eprintf "exlbench: counts differ from an earlier run of seed %d:\n  before %s\n  now    %s\n%!"
          o.seed before text;
      before = text
    end
  end

(* [boot] and [revise] time CPU seconds.  Their timings are scaled to
   the reference host's speed by the median of the kernel times taken
   through the run ({!Measure.at_reference}); the table also shows the
   kernel's median and the CPU times as measured. *)
let at_reference r =
  let kernels = Measure.samples "kernel" in
  let k = Measure.median kernels in
  let timing (mt : Measure.metric) = mt.unit_ = "ms" || mt.unit_ = "s" in
  let raw =
    List.filter_map
      (fun (mt : Measure.metric) ->
        if List.mem mt.name [ "op_p50_ms"; "first_op_ms" ] then Some { mt with name = "cpu_" ^ mt.name }
        else None)
      r.metrics
  in
  {
    r with
    metrics =
      List.map
        (fun mt -> if timing mt then { mt with value = Measure.at_reference ~kernel:k mt.value } else mt)
        r.metrics
      @ raw
      @ Measure.
          [
            m "kernel_ms" "ms" (1000. *. k);
            m "kernel_samples" "count" (float_of_int (List.length kernels));
          ];
  }

let host () =
  [ ("nproc", string_of_int (Measure.nproc ())); ("ocaml", Sys.ocaml_version) ]

let coordinate o =
  ensure_dir o.work;
  let r =
    match o.workload with
    | "boot" -> boot_workload o
    | "revise" -> revise_workload o
    | "serve" -> serve_workload o
    | w -> failwith ("unknown workload " ^ w)
  in
  let r = if o.trace || Measure.samples "kernel" = [] then r else at_reference r in
  let counts_ok = check_counts o r.counts in
  let find name = List.find_opt (fun (mt : Measure.metric) -> mt.name = name) r.metrics in
  let wanted = if o.trace then per_layer else end_to_end in
  let metrics =
    List.map
      (fun (name, unit_) -> match find name with Some mt -> mt | None -> Measure.m name unit_ nan)
      wanted
  in
  List.iter
    (fun (mt : Measure.metric) ->
      if not (Float.is_finite mt.value) then failwith ("metric " ^ mt.name ^ " was not measured"))
    metrics;
  let failed_share = float_of_int r.failed /. float_of_int (max 1 r.attempted) in
  (* the table also shows what the workload measured beyond the
     catalogue: sample counts, and the server and generator layers of
     [serve] *)
  let extra =
    List.filter (fun (mt : Measure.metric) -> not (List.mem_assoc mt.name wanted)) r.metrics
  in
  let named =
    List.map
      (fun (mt : Measure.metric) ->
        match List.assoc_opt mt.name (if o.trace then [] else aliases o.workload) with
        | Some alias -> { mt with name = alias }
        | None -> mt)
      metrics
    @ extra
    @ [ Measure.m "failed_share" "ratio" failed_share ]
  in
  let context =
    host ()
    @ [ ("workload", o.workload); ("seed", string_of_int o.seed); ("trace", if o.trace then "1" else "0") ]
    @
    if o.workload = "serve" then
      Serve_work.
        [
          ("reads_per_s", num rates.reads_per_s); ("writes_per_s", num rates.writes_per_s);
          ("warmup_s", num rates.warmup_s); ("read_limit_ms", num rates.read_limit_ms);
        ]
    else []
  in
  Measure.print_table
    (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) context))
    named;
  if o.workload = "serve" && not o.trace then begin
    let p99 = value "op_tail_ms" metrics in
    Printf.eprintf "  read_p99_ms %s the %.0f ms limit\n%!"
      (if p99 <= Serve_work.rates.read_limit_ms then "meets" else "MISSES")
      Serve_work.rates.read_limit_ms
  end;
  let results = Filename.concat o.work "results" in
  ensure_dir results;
  Out_channel.with_open_text
    (Filename.concat results (Printf.sprintf "%s-seed%d-trace%d.json" o.workload o.seed (if o.trace then 1 else 0)))
    (fun oc ->
      Printf.fprintf oc "{\"context\": {%s}, \"metrics\": %s, \"counts\": %s}\n"
        (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %S" k v) context))
        (json_metrics named) (json_counts r.counts));
  let correct = r.failed = 0 && counts_ok && r.valid in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n%!" correct
    r.attempted r.failed (json_metrics metrics)

let () =
  match Array.to_list Sys.argv with
  | _ :: "worker" :: kind :: rest ->
      let rec split acc = function "--" :: dirs -> (List.rev acc, dirs) | a :: l -> split (a :: acc) l | [] -> (List.rev acc, []) in
      let args, dirs = split [] rest in
      worker (parse_args args) kind dirs
  | _ :: args ->
      let o = parse_args args in
      if o.workload = "" then failwith "--workload is required";
      coordinate o
  | [] -> exit 2
