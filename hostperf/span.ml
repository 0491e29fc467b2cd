(** In-memory span store for the traced run.

    The benchmark records a span around each call it makes into a
    layer's public functions. Calls too many and too short to record one
    by one (the code cache's dispatch hook) are folded into one child
    span with a call count. Spans stay in memory and are written out
    once, when the run ends. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root *)
  name : string;
  dur : int;  (** ns *)
  calls : int;
}

type t = { mutable spans : span list; mutable next : int }

let create () = { spans = []; next = 0 }

(** Host monotonic clock, ns. *)
let now () = Int64.to_int (Monotonic_clock.now ())

let add t ?(calls = 1) ~parent name dur =
  let id = t.next in
  t.next <- id + 1;
  t.spans <- { id; parent; name; dur; calls } :: t.spans;
  id

(** The open span, so calls made inside [f] can name it as their
    parent. *)
let current = ref (-1)

(** Run [f] as a span named [name] under the open span. [t = None]
    runs [f] untraced. *)
let time t name f =
  match t with
  | None -> f ()
  | Some t ->
      let id = t.next in
      t.next <- id + 1;
      let parent = !current in
      current := id;
      let t0 = now () in
      let finish () =
        t.spans <- { id; parent; name; dur = now () - t0; calls = 1 } :: t.spans;
        current := parent
      in
      Fun.protect ~finally:finish f

(** A child of the open span that stands for [calls] calls lasting
    [dur] ns in total. *)
let child t ?(calls = 1) name dur =
  match t with
  | Some t when calls > 0 -> ignore (add t ~calls ~parent:!current name dur)
  | _ -> ()

(** Self time of each span: its duration minus its children's. *)
let self_times t =
  let kids = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace kids s.parent
          (s.dur + Option.value ~default:0 (Hashtbl.find_opt kids s.parent)))
    t.spans;
  List.map (fun s -> (s, s.dur - Option.value ~default:0 (Hashtbl.find_opt kids s.id))) t.spans

(** Total self time per span name, ns. *)
let self_by_name t =
  let h = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      Hashtbl.replace h s.name (self + Option.value ~default:0 (Hashtbl.find_opt h s.name)))
    (self_times t);
  h

let roots_total t =
  List.fold_left (fun a s -> if s.parent < 0 then a + s.dur else a) 0 t.spans

let write t path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc "{\"id\":%d,\"parent\":%d,\"name\":%S,\"dur_ns\":%d,\"calls\":%d}\n"
        s.id s.parent s.name s.dur s.calls)
    (List.rev t.spans);
  close_out oc
