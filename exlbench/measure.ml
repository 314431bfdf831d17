(* Clocks, sample summaries, memory and host facts shared by every
   workload. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

(* Seconds of CPU (user + system) this process has used.  The engine
   runs on one domain, so on an idle host this equals the wall-clock
   time of its work; on a shared host it leaves out the time the
   process waited for a core, which other tenants' load sets. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let cpu_time f =
  let t0 = cpu () in
  let x = f () in
  (x, cpu () -. t0)

let ok what = function
  | Ok x -> x
  | Error msg -> failwith (Printf.sprintf "%s: %s" what msg)

(* Nearest-rank percentile over the samples ([p] in 0..100); a sample
   of [infinity] stands for a failed operation, which misses every
   limit. *)
let percentile p samples =
  match List.sort Float.compare samples with
  | [] -> nan
  | sorted ->
      let n = List.length sorted in
      let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
      List.nth sorted (max 0 (min (n - 1) (rank - 1)))

let median samples = percentile 50. samples

(* ----- host speed -----

   A shared host's speed drifts: for minutes at a time every process on
   it can run half again as slow, in CPU time too, because a sibling
   hyperthread or the host's other tenants share the core's pipeline
   and caches.  The benchmark times a fixed kernel beside its
   operations and scales their CPU time by how much slower the kernel
   ran than on the reference host, so the drift cancels while a change
   to the program still shows.  The kernel is the benchmark's own
   code: dependent loads over a 256 KB array, with a small table
   updated as it goes.  It allocates nothing, so its time never
   includes a slice of the garbage collector's work on the engine's
   heap. *)

let kernel_words = 1 lsl 15
let kernel_steps = 600_000
let kernel_array = lazy (Array.init kernel_words (fun i -> i * 7919 land (kernel_words - 1)))
let kernel_table = lazy (Array.make 1024 0)

let kernel () =
  let a = Lazy.force kernel_array and h = Lazy.force kernel_table in
  let mask = kernel_words - 1 in
  let j = ref 0 and acc = ref 0 in
  for i = 1 to kernel_steps do
    j := (a.(!j) + i) land mask;
    acc := !acc + !j;
    if i land 15 = 0 then h.(!j land 1023) <- h.(!j land 1023) + !acc
  done;
  ignore (Sys.opaque_identity !acc)

(* CPU seconds of the kernel on the reference host: about its median
   over a quarter hour on 2 cores of an Intel Xeon, OCaml 5.1.1. *)
let reference_kernel_s = 0.005

(* CPU seconds of one kernel run now; the median of [runs]. *)
let kernel_s ?(runs = 1) () =
  ignore (Lazy.force kernel_array, Lazy.force kernel_table);
  median (List.init runs (fun _ -> snd (cpu_time kernel)))

(* [dt] CPU seconds, measured while the kernel took [kernel] seconds,
   as they would read on the reference host. *)
let at_reference ~kernel dt = dt *. reference_kernel_s /. kernel

(* Samples by series, newest first: those of this process and of the
   worker processes it ran, which print theirs with their result. *)
let series : (string, float list) Hashtbl.t = Hashtbl.create 8

let sample name v = Hashtbl.replace series name (v :: Option.value ~default:[] (Hashtbl.find_opt series name))
let samples name = Option.value ~default:[] (Hashtbl.find_opt series name)

(* Each workload times the kernel between its operations, as the series
   [kernel], and scales its timings by the median over the run. *)
let sample_kernel () = sample "kernel" (kernel_s ~runs:3 ())

(* Peak resident set of a process in MB, from /proc ([VmHWM]). *)
let peak_rss_mb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> nan
  | status ->
      String.split_on_char '\n' status
      |> List.find_map (fun line ->
             Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.))
      |> Option.value ~default:nan

(* Words allocated by this domain so far (minor + direct major). *)
let words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let nproc () =
  match Unix.open_process_in "nproc" with
  | exception Unix.Unix_error _ -> Domain.recommended_domain_count ()
  | ic -> (
      let line = In_channel.input_line ic in
      ignore (Unix.close_process_in ic);
      match Option.bind line int_of_string_opt with
      | Some n -> n
      | None -> Domain.recommended_domain_count ())

(* ----- results ----- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let print_table title ms =
  Printf.eprintf "%s\n" title;
  List.iter
    (fun { name; value; unit_ } -> Printf.eprintf "  %-28s %14.4f %s\n" name value unit_)
    ms;
  flush stderr
