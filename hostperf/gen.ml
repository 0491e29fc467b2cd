(** Seeded request streams and the reply check that goes with each
    request. The program only ever sees the request text; the expected
    status or prefix of every request class is written here, not taken
    from the code under test. *)

type req = {
  text : string;
  cls : string;  (** request class, for failure messages *)
  check : string -> bool;
}

let rng seed = Random.State.make [| 0x6870; seed |]

(** Seeded shuffles of a fixed deck: [copies] cards of every class.
    Each call deals a fresh shuffle, so every deck carries the same
    work and two seeds differ only in the order of the requests. *)
let deck g ~copies classes : unit -> 'a array =
  let d = Array.concat (List.map (fun c -> Array.make copies c) classes) in
  fun () ->
    for k = Array.length d - 1 downto 1 do
      let j = Random.State.int g (k + 1) in
      let x = d.(k) in
      d.(k) <- d.(j);
      d.(j) <- x
    done;
    Array.copy d

let starts ~prefix s = String.starts_with ~prefix s

(* ---------- HTTP (ltpd and ngx) ---------- *)

let status_line s =
  match String.index_opt s '\r' with Some i -> String.sub s 0 i | None -> s

let status_code s =
  match String.split_on_char ' ' (status_line s) with
  | _ :: c :: _ -> int_of_string_opt c
  | _ -> None

let body s =
  let sep = "\r\n\r\n" in
  let n = String.length s and k = String.length sep in
  let rec find j =
    if j + k > n then "" else if String.sub s j k = sep then String.sub s (j + k) (n - j - k)
    else find (j + 1)
  in
  find 0

let status code reply = status_code reply = Some code
let success reply = match status_code reply with Some c -> c / 100 = 2 | None -> false

(** A GET of a docroot file answers 200 with exactly the file's bytes. *)
let http_file (fs : Vfs.t) path =
  let content = Option.get (Vfs.find fs ("/www" ^ path)) in
  {
    text = Workload.http_get path;
    cls = "GET " ^ path;
    check = (fun r -> status 200 r && body r = content);
  }

(** The classes of [Workload.web_wanted], the repo's standard wanted
    traffic, in equal shares. *)
let web_classes =
  [ `Get "/index.html"; `Get "/about.txt"; `Get "/style.css"; `Missing; `Head; `Post;
    `Options; `Propfind; `Unknown ]

let web_req fs = function
  | `Get path -> http_file fs path
  | `Missing ->
      { text = Workload.http_get "/missing.html"; cls = "GET /missing.html"; check = status 404 }
  | `Head -> { text = Workload.http_head "/index.html"; cls = "HEAD"; check = status 200 }
  | `Post ->
      { text = Workload.http_post "/form" "a=1&b=2"; cls = "POST"; check = status 200 }
  | `Options -> { text = "OPTIONS / HTTP/1.0\r\n\r\n"; cls = "OPTIONS"; check = status 200 }
  | `Propfind -> { text = "PROPFIND / HTTP/1.0\r\n\r\n"; cls = "PROPFIND"; check = status 207 }
  | `Unknown -> { text = "BREW /pot HTTP/1.0\r\n\r\n"; cls = "BREW"; check = status 403 }

let web_warm fs = List.map (web_req fs) web_classes

(** The serving stream, one deck at a time. *)
let web_stream ~copies ~seed fs =
  let next = deck (rng seed) ~copies web_classes in
  fun () -> Array.map (web_req fs) (next ())

let statics = [| "/index.html"; "/about.txt"; "/style.css" |]

let alnum = "abcdefghijklmnopqrstuvwxyz0123456789"
let word g n = String.init n (fun _ -> alnum.[Random.State.int g (String.length alnum)])

(** The probes of one cut cycle on a web server: a PUT (refused with 403
    while PUT/DELETE are cut, 2xx once re-enabled) and a GET of a static
    file (200 throughout). *)
let web_probes ~seed fs =
  let g = rng (seed + 1) in
  let next = deck g ~copies:1 (Array.to_list statics) in
  let picks = ref [||] and k = ref 0 in
  let pick () =
    if !k = Array.length !picks then begin
      picks := next ();
      k := 0
    end;
    incr k;
    !picks.(!k - 1)
  in
  fun () ->
    let put = Workload.http_put "/upload.txt" (word g (8 + Random.State.int g 24)) in
    let cut = { text = put; cls = "PUT while cut"; check = status 403 } in
    let reenabled = { text = put; cls = "PUT re-enabled"; check = success } in
    ([ cut; http_file fs (pick ()) ], [ reenabled; http_file fs (pick ()) ])

(* ---------- rkv ---------- *)

(** The read/write mix, one class each: reads, increments, appends,
    inserts and deletes beside the commands that touch no key. *)
let kv_classes = [ `Get; `Exists; `Incr; `Append; `Set; `Del; `Ping; `Info; `Unknown ]

(** A keyspace small enough to fit rkv's 256-slot table many times
    over, were deleted slots reused. *)
let keyspace = 24

(** Short-lived keys the table is prepared with: each is set and
    deleted. *)
let burst = 256

let kv_req cls text check = { text; cls; check }
let int_reply r = starts ~prefix:":" r
let ok r = String.equal "+OK" r

(** The table's preparation: a burst of [burst] short-lived keys, each
    SET then DEL. Insertion never reuses the tombstones DEL leaves, so
    the burst leaves no empty slot: from then on every lookup scans the
    whole table and every insert is dropped, while rkv still answers
    [+OK]. This is the state the mix alone converges to after a few
    thousand requests; the timed loop measures it as a steady state. *)
let kv_prelude ~seed =
  let g = rng (seed + 2) in
  List.concat
    (List.init burst (fun n ->
         let k = Printf.sprintf "s%03d" n in
         [
           kv_req "SET" (Printf.sprintf "SET %s %s\n" k (word g 8)) ok;
           kv_req "DEL" ("DEL " ^ k ^ "\n") int_reply;
         ]))

(** The serving stream over [keyspace] keys, one deck at a time. *)
let kv_stream ~copies ~seed =
  let g = rng seed in
  let next = deck g ~copies kv_classes in
  let key () = Printf.sprintf "k%02d" (Random.State.int g keyspace) in
  let draw = function
    | `Get -> kv_req "GET" ("GET " ^ key () ^ "\n") (starts ~prefix:"$")
    | `Exists -> kv_req "EXISTS" ("EXISTS " ^ key () ^ "\n") int_reply
    | `Incr -> kv_req "INCR" ("INCR " ^ key () ^ "\n") int_reply
    | `Append ->
        let k = key () and w = word g (1 + Random.State.int g 8) in
        kv_req "APPEND" (Printf.sprintf "APPEND %s %s\n" k w) int_reply
    | `Set ->
        let k = key () and w = word g (1 + Random.State.int g 24) in
        kv_req "SET" (Printf.sprintf "SET %s %s\n" k w) ok
    | `Del -> kv_req "DEL" ("DEL " ^ key () ^ "\n") int_reply
    | `Ping -> kv_req "PING" "PING\n" (String.equal "+PONG")
    | `Info ->
        (* the heap canary next to CONFIG's buffer must stay intact *)
        kv_req "INFO" "INFO\n" (fun r ->
            starts ~prefix:"keys=" r && Workload.contains ~sub:"canary=ok" r)
    | `Unknown ->
        kv_req "unknown" ("FLY " ^ key () ^ "\n") (String.equal "-ERR unknown command")
  in
  fun () -> Array.map draw (next ())

let kv_warm =
  [
    kv_req "PING" "PING\n" (String.equal "+PONG");
    kv_req "GET" "GET greeting\n" (String.equal "$hello");
    kv_req "EXISTS" "EXISTS color\n" (starts ~prefix:":");
    kv_req "INFO" "INFO\n" (starts ~prefix:"keys=");
    kv_req "unknown" "FLY away\n" (String.equal "-ERR unknown command");
  ]

(** The probes of one cut cycle on rkv: CONFIG (one of the cut
    vulnerable commands) answers through the error path while cut, and
    GET of a preloaded key answers throughout. *)
let kv_probes ~seed:_ =
  let config = "CONFIG GET maxmemory\n" in
  let greeting = kv_req "GET" "GET greeting\n" (String.equal "$hello") in
  fun () ->
    ( [ kv_req "CONFIG while cut" config (String.equal "-ERR unknown command"); greeting ],
      [ kv_req "CONFIG re-enabled" config (starts ~prefix:"$"); greeting ] )
