(** Automatic initialization/serving transition detection — the paper's
    §5 future-work item, implemented: "we can monitor specific system
    calls to determine the end of the initialization phase, making
    DynaCut fully automatic."

    The heuristic follows Ghavamnia et al. (Temporal system-call
    specialization, USENIX Security '20), whose transition points for
    server applications are where the process enters its serving loop:
    we treat the first *blocking-capable* serving syscall — [accept] for
    servers — as the transition and fire the collector's nudge there,
    with no operator in the loop. A fallback fires on the first [recv]
    (accept-less servers inheriting sockets) and, for batch programs, on
    the first [nanosleep] or after a configurable retired-instruction
    budget. *)

type trigger =
  | On_accept  (** first accept() by the traced tree (servers) *)
  | On_recv
  | On_first_of of int list  (** first of these syscall numbers *)
  | After_insns of int64  (** fallback for programs with no clear marker *)

type t = {
  collector : Collector.t;
  machine : Machine.t;
  mutable fired : bool;
  mutable init_log : Drcov.log option;
  trigger : trigger;
  prev_hook : Machine.syscall_hook option;
}

let syscalls_of_trigger = function
  | On_accept -> [ Abi.sys_accept ]
  | On_recv -> [ Abi.sys_recv ]
  | On_first_of l -> l
  | After_insns _ -> []

(** Arm automatic phase detection on an already-attached collector. The
    nudge fires at most once; the init-phase coverage is then available
    via {!init_log}. *)
let arm (machine : Machine.t) (collector : Collector.t) ~(trigger : trigger) : t =
  let t =
    {
      collector;
      machine;
      fired = false;
      init_log = None;
      trigger;
      prev_hook = machine.Machine.on_syscall;
    }
  in
  let watch = syscalls_of_trigger trigger in
  machine.Machine.on_syscall <-
    Some
      (fun p nr ->
        (match t.prev_hook with Some h -> h p nr | None -> ());
        if (not t.fired) && List.mem nr watch then begin
          t.fired <- true;
          t.init_log <- Some (Collector.nudge collector)
        end);
  t

(** Poll the fallback budget trigger; call this between scheduler runs
    when using [After_insns]. *)
let poll (t : t) ~(root : Proc.t) : unit =
  match t.trigger with
  | After_insns budget when (not t.fired) && Int64.of_int root.Proc.retired >= budget ->
      t.fired <- true;
      t.init_log <- Some (Collector.nudge t.collector)
  | _ -> ()

let fired t = t.fired
let init_log t = t.init_log

let disarm (t : t) : unit = t.machine.Machine.on_syscall <- t.prev_hook
