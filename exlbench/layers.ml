(* The traced run: a span around every public call into a layer, with
   the words that call allocated.  Production [Obs] spans opened inside
   a timed call nest under it, so a layer's time splits into the part
   an existing span covers and the untraced remainder.

   Spans stay in memory (one [Obs] collector per run) and are written
   out once, at the end of the run. *)

let collector : Obs.t option ref = ref None

(* Whether calls are traced right now: the traced run times some
   operations with the collector uninstalled, to measure what tracing
   costs. *)
let enabled = ref false
let tracing () = !enabled

(* Words allocated inside each traced call, keyed by operation and
   layer, in call order. *)
let alloc : (string * string, float list) Hashtbl.t = Hashtbl.create 16
let current_op = ref ""

(* Run [f] traced: its spans and counters go to a fresh collector. *)
let traced f =
  let c = Obs.create () in
  collector := Some c;
  enabled := true;
  Obs.with_collector c f

let pause () =
  Obs.uninstall ();
  enabled := false

let resume () =
  Option.iter Obs.install !collector;
  enabled := Option.is_some !collector

(* One operation of the workload (a boot, a commit): the root span its
   layer spans nest under, carrying the operation id. *)
let op_counter = ref 0

let op name f =
  if not (tracing ()) then f ()
  else begin
    incr op_counter;
    current_op := name;
    Obs.with_span ~attrs:[ ("op", string_of_int !op_counter) ] name f
  end

let layer name f =
  if not (tracing ()) then f ()
  else begin
    let w0 = Measure.words () in
    let x = Obs.with_span name f in
    let key = (!current_op, name) in
    let w = Measure.words () -. w0 in
    Hashtbl.replace alloc key (w :: Option.value ~default:[] (Hashtbl.find_opt alloc key));
    x
  end

let spans () =
  match !collector with None -> [] | Some c -> Obs.Trace.spans c.Obs.trace

let counter name =
  match !collector with
  | None -> 0
  | Some c -> Obs.Metrics.counter_value c.Obs.metrics name

(* Words allocated by each [layer] call of operation [op]. *)
let words ~op name = List.rev (Option.value ~default:[] (Hashtbl.find_opt alloc (op, name)))

(* Each span named [name] that runs inside an operation [op], paired
   with the summed durations of its descendants named [child]
   (seconds). *)
let nested ~op name child =
  let all = spans () in
  let by_id = Hashtbl.create 256 in
  List.iter (fun (s : Obs.Trace.span) -> Hashtbl.replace by_id s.id s) all;
  let rec inside pred (s : Obs.Trace.span) =
    match Option.bind s.parent (Hashtbl.find_opt by_id) with
    | None -> false
    | Some p -> pred p || inside pred p
  in
  List.filter_map
    (fun (root : Obs.Trace.span) ->
      if root.name <> name || not (inside (fun p -> p.name = op) root) then None
      else
        Some
          ( root.duration_s,
            if child = "" then 0.
            else
              List.fold_left
              (fun acc (s : Obs.Trace.span) ->
                if s.name = child && inside (fun p -> p.id = root.id) s then acc +. s.duration_s
                else acc)
              0. all ))
    all

(* Durations (seconds) of the spans named [name] inside operations [op]. *)
let durations ~op name = List.map fst (nested ~op name "")

(* Share (%) of each operation's span its direct layer children
   cover; the median over operations. *)
let coverage_pct op_name =
  let all = spans () in
  let covered = Hashtbl.create 64 in
  List.iter
    (fun (s : Obs.Trace.span) ->
      Option.iter
        (fun p ->
          Hashtbl.replace covered p
            (s.duration_s +. Option.value ~default:0. (Hashtbl.find_opt covered p)))
        s.parent)
    all;
  Measure.median
    (List.filter_map
       (fun (s : Obs.Trace.span) ->
         if s.name <> op_name then None
         else
           Some
             (100. *. Option.value ~default:0. (Hashtbl.find_opt covered s.id)
             /. s.duration_s))
       all)

(* Self time per span name: duration minus what its children cover. *)
let self_times () =
  let all = spans () in
  let child_time = Hashtbl.create 256 in
  List.iter
    (fun (s : Obs.Trace.span) ->
      match s.parent with
      | Some p ->
          Hashtbl.replace child_time p
            (s.duration_s +. Option.value ~default:0. (Hashtbl.find_opt child_time p))
      | None -> ())
    all;
  let rows = Hashtbl.create 32 in
  List.iter
    (fun (s : Obs.Trace.span) ->
      let self = s.duration_s -. Option.value ~default:0. (Hashtbl.find_opt child_time s.id) in
      let n, total, selfs =
        Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt rows s.name)
      in
      Hashtbl.replace rows s.name (n + 1, total +. s.duration_s, selfs +. self))
    all;
  Hashtbl.fold (fun name (n, total, self) acc -> (name, n, total, self) :: acc) rows []
  |> List.sort (fun (_, _, _, a) (_, _, _, b) -> Float.compare b a)

let self_time_table () =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "%-28s %7s %12s %12s\n" "span" "count" "total_s" "self_s");
  List.iter
    (fun (name, n, total, self) ->
      Buffer.add_string b (Printf.sprintf "%-28s %7d %12.6f %12.6f\n" name n total self))
    (self_times ());
  Buffer.contents b

(* The operation id a span belongs to: its own [op] attribute or its
   nearest ancestor's. *)
let op_ids () =
  let ids = Hashtbl.create 256 in
  List.iter
    (fun (s : Obs.Trace.span) ->
      let own = List.assoc_opt "op" s.attrs in
      let inherited = Option.bind s.parent (Hashtbl.find_opt ids) in
      match (own, inherited) with
      | Some o, _ | None, Some o -> Hashtbl.replace ids s.id o
      | None, None -> ())
    (spans ());
  ids

(* Write the run's spans (one JSON object per line: name, start, end,
   parent, operation id), the Chrome trace and the self-time table
   under [prefix]. *)
let write ~prefix =
  match !collector with
  | None -> ()
  | Some c ->
      let ops = op_ids () in
      let module J = Obs.Json in
      Out_channel.with_open_text (prefix ^ "-spans.jsonl") (fun oc ->
          List.iter
            (fun (s : Obs.Trace.span) ->
              output_string oc
                (J.to_string
                   (J.Obj
                      [
                        ("id", J.Num (float_of_int s.id));
                        ("name", J.Str s.name);
                        ("start_s", J.Num s.start_s);
                        ("end_s", J.Num (s.start_s +. s.duration_s));
                        ("parent", match s.parent with Some p -> J.Num (float_of_int p) | None -> J.Null);
                        ("op", match Hashtbl.find_opt ops s.id with Some o -> J.Str o | None -> J.Null);
                      ]));
              output_char oc '\n')
            (spans ()));
      Out_channel.with_open_text (prefix ^ "-trace.json") (fun oc ->
          output_string oc (Obs.Export.chrome_trace c.Obs.trace));
      Out_channel.with_open_text (prefix ^ "-selftime.txt") (fun oc ->
          output_string oc (self_time_table ()))
