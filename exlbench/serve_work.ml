(* The serve workload: the real exlserve binary in a process of its
   own, driven open loop from this process over two pipelined
   connections, one for reads and one for writes. *)
open Matrix

type rates = { reads_per_s : float; writes_per_s : float; warmup_s : float; read_limit_ms : float }

(* Chosen so a 2-core host meets the read limit with no growing
   backlog: each write holds the server's domain lock for a commit
   plus publish (about 80 ms at 200 regions), stalling the reads
   behind it.  The rates are as high as that allows, for enough
   samples in a run to give steady percentiles. *)
let rates = { reads_per_s = 100.; writes_per_s = 2.; warmup_s = 10.; read_limit_ms = 250. }

(* The generator is late when its own sends slip; past this bound the
   latencies describe the generator, not the server. *)
let late_limit_ms = 50.

(* ----- the server process ----- *)

type server = { pid : int; port : int; out : Unix.file_descr }

(* Read the server's stdout until it names its port. *)
let await_port fd ~deadline =
  let buf = Buffer.create 256 and chunk = Bytes.create 256 in
  let rec loop () =
    let left = deadline -. Measure.now () in
    if left <= 0. then failwith "exlserve did not start listening in time";
    match Unix.select [ fd ] [] [] left with
    | [], _, _ -> loop ()
    | _ -> (
        let n = Unix.read fd chunk 0 (Bytes.length chunk) in
        if n = 0 then failwith "exlserve exited before listening";
        Buffer.add_subbytes buf chunk 0 n;
        let text = Buffer.contents buf in
        match String.index_opt text '\n' with
        | None -> loop ()
        | Some _ -> (
            let line =
              List.find_opt
                (fun l -> String.length l > 0 && String.contains l ':')
                (String.split_on_char '\n' text)
            in
            match Option.bind line (fun l -> Scanf.sscanf_opt l "exlserve: listening on http://%s@:%d/" (fun _ p -> p)) with
            | Some port -> port
            | None -> loop ()))
  in
  loop ()

let stop s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] s.pid);
  Unix.close s.out

(* Spawn exlserve and wait for the first 200 from /healthz. *)
let spawn ~exe ~program ~data ~log =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let args =
    [ exe; "--programs"; program; "--data"; data; "--port"; "0" ]
    @ match log with Some path -> [ "--log"; path ] | None -> []
  in
  let pid = Unix.create_process exe (Array.of_list args) Unix.stdin out_w Unix.stderr in
  Unix.close out_w;
  let s = { pid; port = 0; out = out_r } in
  match await_port out_r ~deadline:(Measure.now () +. 150.) with
  | exception exn ->
      stop s;
      raise exn
  | port ->
      let s = { s with port } in
      let rec healthy tries =
        match Client.call port (Client.get ~due:0. "/healthz") with
        | 200, _ -> ()
        | _ | (exception Unix.Unix_error _) ->
            if tries = 0 then begin
              stop s;
              failwith "exlserve never answered /healthz"
            end;
            Thread.delay 0.01;
            healthy (tries - 1)
      in
      healthy 1000;
      s

(* ----- the traffic ----- *)

let read_paths rng ~regions =
  match Random.State.int rng 100 with
  | n when n < 30 -> "/v1/cube/GDP"
  | n when n < 50 -> "/v1/cube/PCHNG"
  | n when n < 85 -> "/v1/cube/RGDP?r=" ^ Gen.region (Random.State.int rng regions)
  | _ -> "/v1/cube/GDP/asof/2026-06-30"

let has_rows _status body =
  match Obs.Json.parse body with
  | Ok j -> Obs.Json.elements (Option.value ~default:Obs.Json.Null (Obs.Json.member "rows" j)) <> []
  | Error _ -> false

(* The mean of the region's PDR over the revised day's quarter, which
   the served PQR must show once the write committed. *)
let expected_pqr pdr (r : Gen.revision) =
  let q = Calendar.Period.of_date Calendar.Quarter r.day in
  let first = Calendar.Period.start_date q and last = Calendar.Period.end_date q in
  let region = Value.String (Gen.region r.region_index) in
  let rec sum d acc n =
    if Calendar.Date.compare d last > 0 then acc /. float_of_int n
    else
      match Cube.find pdr (Tuple.of_list [ Value.Date d; region ]) with
      | Some v -> sum (Calendar.Date.add_days d 1) (acc +. Option.get (Value.to_float v)) (n + 1)
      | None -> sum (Calendar.Date.add_days d 1) acc n
  in
  (q, sum first 0. 0)

let pqr_shows expected status body =
  status = 200
  &&
  match Oracle.served_rows body with
  | Some [ (_, Some v) ] -> Oracle.close expected (Oracle.tamper "ryw" v)
  | _ -> false

(* Read times of independent clients: a seeded Poisson process.  At a
   fixed period, the replies' delayed-ACK stalls (README.md) lock onto
   the schedule and every read waits one full period. *)
let arrivals rng ~rate ~from ~upto =
  let rec go t acc =
    let t = t -. (log (1. -. Random.State.float rng 1.) /. rate) in
    if t >= upto then List.rev acc else go t (t :: acc)
  in
  go from []

type run = {
  reads : Client.outcome list;
  writes : Client.outcome list;  (** POSTs only *)
  checks : Client.outcome list;  (** read-your-writes GETs *)
  final_ok : bool;
  peak_mb : float;
  jobs_per_commit : float;
  measure_from : float;
  measure_to : float;
}

let metrics_counter text name =
  List.find_map
    (fun line -> Scanf.sscanf_opt line (name ^^ " %f") Fun.id)
    (String.split_on_char '\n' text)

(* Drive [server] for a warm-up window and then [seconds], replaying
   every write into [pdr] (the generator's copy of the store) so the
   final served cubes can be checked against the interpreter. *)
let drive server ~seed ~seconds ~regions ~(reg : Registry.t) =
  let pdr = Registry.find_exn reg "PDR" in
  let rng = Random.State.make [| seed; 0 |] and wrng = Random.State.make [| seed; 1 |] in
  let t0 = Measure.now () +. 0.2 in
  let measure_from = t0 +. rates.warmup_s in
  let measure_to = measure_from +. seconds in
  let reads =
    List.map
      (fun due -> Client.get ~check:has_rows ~due (read_paths rng ~regions))
      (arrivals rng ~rate:rates.reads_per_s ~from:t0 ~upto:measure_to)
  in
  (* writes at a fixed period, so commits never queue behind each other;
     each is followed by its read-your-writes probe *)
  let writes =
    List.concat_map
      (fun due ->
        let r = Gen.revision wrng ~regions in
        Cube.set pdr (Engine_work.pdr_key r) (Value.Float r.value);
        let q, pqr = expected_pqr pdr r in
        [
          Client.post ~due "/v1/update" (Engine.Update.to_string (Gen.update r) ^ "\n");
          Client.get ~check:(pqr_shows pqr) ~due
            (Printf.sprintf "/v1/cube/PQR?q=%s&r=%s" (Calendar.Period.to_string q)
               (Gen.region r.region_index));
        ])
      (List.init
         (int_of_float ((measure_to -. t0) *. rates.writes_per_s))
         (fun i -> t0 +. (float_of_int i /. rates.writes_per_s)))
  in
  let read_out, write_out =
    match Client.run server.port [ reads; writes ] with
    | [ r; w ] -> (r, w)
    | _ -> failwith "one outcome list per connection"
  in
  let reference = Oracle.reference reg in
  let final_ok =
    List.for_all
      (fun name ->
        match Client.call server.port (Client.get ~due:0. ("/v1/cube/" ^ name)) with
        | 200, body -> Oracle.served_equal (List.assoc name reference) body
        | _ -> false
        | exception Unix.Unix_error _ -> false)
      [ "GDP"; "PCHNG" ]
  in
  let jobs_per_commit =
    match Client.call server.port (Client.get ~due:0. "/metrics") with
    | 200, text -> (
        match
          (metrics_counter text "exl_serve_coalesced_jobs", metrics_counter text "exl_serve_commits")
        with
        | Some jobs, Some commits when commits > 0. -> jobs /. commits
        | _ -> nan)
    | _ | (exception Unix.Unix_error _) -> nan
  in
  let posts = List.filteri (fun i _ -> i mod 2 = 0) write_out
  and checks = List.filteri (fun i _ -> i mod 2 = 1) write_out in
  {
    reads = read_out;
    writes = posts;
    checks;
    final_ok;
    peak_mb = Measure.peak_rss_mb server.pid;
    jobs_per_commit;
    measure_from;
    measure_to;
  }

let in_window run (o : Client.outcome) =
  o.request.due >= run.measure_from && o.request.due < run.measure_to

let latencies run outcomes =
  List.map (fun (o : Client.outcome) -> o.finished -. o.request.due) (List.filter (in_window run) outcomes)

let lateness run outcomes =
  List.map (fun (o : Client.outcome) -> o.sent -. o.request.due) (List.filter (in_window run) outcomes)
