(* An open-loop, pipelined HTTP/1.1 client: requests go out on their
   schedule whatever the replies are doing, over keep-alive
   connections, and each is timed from when it was due.  One thread
   runs every connection from a [select] loop, so the generator adds
   no lock or thread hand-off of its own to the latencies. *)

type request = {
  due : float;  (** absolute time the request is scheduled for *)
  bytes : string;
  check : int -> string -> bool;  (** status and body are right *)
}

type outcome = {
  request : request;
  sent : float;
  finished : float;
  good : bool;
}

let get ?(check = fun status _ -> status = 200) ~due path =
  {
    due;
    bytes = Printf.sprintf "GET %s HTTP/1.1\r\nHost: bench\r\n\r\n" path;
    check;
  }

let post ?(check = fun status _ -> status = 200) ~due path body =
  {
    due;
    bytes =
      Printf.sprintf
        "POST %s HTTP/1.1\r\nHost: bench\r\nContent-Type: text/plain\r\nContent-Length: %d\r\n\r\n%s"
        path (String.length body) body;
    check;
  }

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

(* [Some (status, body, rest)] once [buf] starts with a whole
   response. *)
let parse_response buf =
  let rec blank i =
    if i + 4 > String.length buf then None
    else if String.sub buf i 4 = "\r\n\r\n" then Some i
    else blank (i + 1)
  in
  match blank 0 with
  | None -> None
  | Some h ->
      let lines = String.split_on_char '\n' (String.sub buf 0 h) in
      let status = Scanf.sscanf (List.hd lines) "HTTP/1.1 %d" Fun.id in
      let length =
        List.fold_left
          (fun acc line ->
            match String.index_opt line ':' with
            | Some i when String.lowercase_ascii (String.sub line 0 i) = "content-length" ->
                int_of_string (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
            | _ -> acc)
          0 lines
      in
      if String.length buf < h + 4 + length then None
      else
        Some
          ( status,
            String.sub buf (h + 4) length,
            String.sub buf (h + 4 + length) (String.length buf - h - 4 - length) )

let read_chunk fd =
  let chunk = Bytes.create 65536 in
  match Unix.read fd chunk 0 (Bytes.length chunk) with
  | 0 -> failwith "connection closed"
  | n -> Bytes.sub_string chunk 0 n

(* One request, one reply: for set-up probes and final reads. *)
let call port req =
  let fd = connect port in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      write_all fd req.bytes 0;
      let rec loop buf =
        match parse_response buf with
        | Some (status, body, _) -> (status, body)
        | None -> loop (buf ^ read_chunk fd)
      in
      loop "")

type conn = {
  fd : Unix.file_descr;
  reqs : request array;
  sent : float array;
  mutable next_send : int;
  mutable done_ : outcome list;  (** replies so far, newest first *)
  mutable buf : string;
  mutable broken : bool;
}

(* Send each list of requests (sorted by [due]) on a connection of its
   own, open loop; the outcomes come back per connection, in request
   order.  A wrong reply, a broken connection or a server that goes
   quiet for [patience] seconds fails the requests concerned: their
   latency is infinite, so they miss every limit. *)
let run ?(patience = 60.) port lists =
  let conns =
    List.map
      (fun reqs ->
        let reqs = Array.of_list reqs in
        { fd = connect port; reqs; sent = Array.make (Array.length reqs) nan; next_send = 0;
          done_ = []; buf = ""; broken = false })
      lists
  in
  let received c = List.length c.done_ in
  let fail_rest c =
    c.broken <- true;
    for i = received c to Array.length c.reqs - 1 do
      c.done_ <- { request = c.reqs.(i); sent = c.sent.(i); finished = infinity; good = false } :: c.done_
    done
  in
  let open_conns () = List.filter (fun c -> received c < Array.length c.reqs) conns in
  let last_progress = ref (Unix.gettimeofday ()) in
  while open_conns () <> [] do
    let now = Unix.gettimeofday () in
    List.iter
      (fun c ->
        while (not c.broken) && c.next_send < Array.length c.reqs && c.reqs.(c.next_send).due <= now do
          c.sent.(c.next_send) <- Unix.gettimeofday ();
          (try write_all c.fd c.reqs.(c.next_send).bytes 0 with Unix.Unix_error _ -> fail_rest c);
          c.next_send <- c.next_send + 1
        done)
      (open_conns ());
    let waiting = List.filter (fun c -> received c < c.next_send) (open_conns ()) in
    let next_due =
      List.fold_left
        (fun acc c -> if c.next_send < Array.length c.reqs then Float.min acc c.reqs.(c.next_send).due else acc)
        infinity (open_conns ())
    in
    let timeout = Float.max 0. (Float.min 0.5 (next_due -. Unix.gettimeofday ())) in
    let ready, _, _ =
      try Unix.select (List.map (fun c -> c.fd) waiting) [] [] timeout
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    List.iter
      (fun c ->
        if List.mem c.fd ready then
          match read_chunk c.fd with
          | exception (Failure _ | Unix.Unix_error _) -> fail_rest c
          | chunk ->
              let at = Unix.gettimeofday () in
              last_progress := at;
              c.buf <- c.buf ^ chunk;
              let rec drain () =
                match parse_response c.buf with
                | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> fail_rest c
                | None -> ()
                | Some (status, body, rest) ->
                    c.buf <- rest;
                    let i = received c in
                    let req = c.reqs.(i) in
                    let good = req.check status body in
                    c.done_ <-
                      { request = req; sent = c.sent.(i); finished = (if good then at else infinity); good }
                      :: c.done_;
                    if received c < Array.length c.reqs then drain ()
              in
              drain ())
      waiting;
    if waiting <> [] && Unix.gettimeofday () -. !last_progress > patience then
      List.iter fail_rest waiting
    else if waiting = [] then last_progress := Unix.gettimeofday ()
  done;
  List.iter (fun c -> Unix.close c.fd) conns;
  List.map (fun c -> List.rev c.done_) conns
