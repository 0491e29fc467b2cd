(** Host-time benchmark of the DynaCut reproduction.

    One run boots one workload's server, runs a fixed count window whose
    exact counts two runs of a seed must repeat, then measures for
    [--seconds] of host time, setting the server up again from scratch
    at even intervals to time set-up. The unit of work is a block:
    [decks_per_block] whole decks of the workload's mix, then one cut
    cycle (cut, probes, re-enable, probes). With [--trace 1] the
    timed loop alternates traced and untraced blocks and the run prints
    the per-layer metrics, span self times and the tracing overhead.

    The last line of standard output is the result as JSON; a readable
    summary goes to standard error. *)

let now = Span.now
let fi = float_of_int

(* ---------- the three workloads ---------- *)

type wl = {
  name : string;
  app : Workload.app;
  cache : bool;  (** serve out of the decoded-block cache *)
  decks_per_block : int;
  window_blocks : int;  (** blocks in the count window *)
  profile : unit -> Covgraph.block list;  (** §3.1 feature profiling *)
  policy : Dynacut.policy;
  warm : Vfs.t -> Gen.req list;
  prelude : seed:int -> Gen.req list;  (** served once, before the count window *)
  stream : seed:int -> Vfs.t -> unit -> Gen.req array;  (** the next deck *)
  probes : seed:int -> Vfs.t -> unit -> Gen.req list * Gen.req list;
}

let redirect sym = { Dynacut.method_ = `First_byte; on_trap = `Redirect sym }

(** A web deck holds 12 of each of the 9 classes: 108 requests, so a
    deck's p90 has ten requests beyond it. *)
let web app ~name ~decks_per_block ~window_blocks ~sym =
  {
    name;
    app;
    cache = true;
    decks_per_block;
    window_blocks;
    profile = (fun () -> Common.web_feature_blocks app);
    policy = redirect sym;
    warm = Gen.web_warm;
    prelude = (fun ~seed:_ -> []);
    stream = Gen.web_stream ~copies:12;
    probes = Gen.web_probes;
  }

let workloads =
  [
    web Workload.ltpd ~name:"ltpd-serve-cached" ~decks_per_block:4
      ~window_blocks:3 ~sym:"ltpd_403";
    {
      name = "rkv-serve-interp";
      app = Workload.rkv;
      cache = false;
      decks_per_block = 1;
      window_blocks = 8;
      profile = (fun () -> Common.rkv_feature_blocks Workload.kv_vulnerable);
      policy = redirect "rkv_err";
      warm = (fun _ -> Gen.kv_warm);
      prelude = Gen.kv_prelude;
      (* a request costs up to 30 ms here: 4 of each class keep a block
         near half a second *)
      stream = (fun ~seed _ -> Gen.kv_stream ~copies:4 ~seed);
      probes = (fun ~seed _ -> Gen.kv_probes ~seed);
    };
    web Workload.ngx ~name:"ngx-cut-cycle" ~decks_per_block:1
      ~window_blocks:6 ~sym:"ngx_declined";
  ]

(** Timed set-ups per run, spread evenly over the timed loop so that
    they sample the host over the whole run; set-up time is read at
    their slow quartile, which has ten set-ups beyond it. *)
let setups = 40

(** Repetitions of each side probe; its figure is their median. *)
let probe_reps = 7

(* ---------- what a run records ---------- *)

(** Exact counts, summed over every op so far. Read at the end of the
    count window, they depend only on the seed. *)
type counts = {
  mutable reqs : int;
  mutable insns : int;
  mutable vcycles : int;
  mutable syscalls : int;
  mutable words : float;
  mutable hits : int;
  mutable decodes : int;
  mutable sb_sum : float;
  mutable sb_n : int;
  mutable probes : int;
  mutable probe_decodes : int;
  mutable cycles : int;
  mutable flushes : int;
  mutable cuts : int;
  mutable cut_words : float;
}

let zero_counts () =
  {
    reqs = 0; insns = 0; vcycles = 0; syscalls = 0; words = 0.; hits = 0; decodes = 0;
    sb_sum = 0.; sb_n = 0; probes = 0; probe_decodes = 0; cycles = 0; flushes = 0;
    cuts = 0; cut_words = 0.;
  }

(** Host timings, recorded only in untraced blocks of the timed loop.
    Serving latencies are summarised per deck. A deck carries the
    stream's whole mix and never spans a cut cycle, and every block
    holds the same number of decks, so the decks at one place in a
    block do the same work and differ only in the host's speed while
    they ran. *)
type timings = {
  mutable served : int;
  deck_rate : float Queue.t;  (** per deck: requests / serving seconds *)
  deck_p50 : float Queue.t;
  deck_p90 : float Queue.t;
  probe_ns : float Queue.t;  (** per cycle: mean latency of its probes *)
  cut_ns : float Queue.t;
  reen_ns : float Queue.t;
  checkpoint_s : float Queue.t;
  restore_s : float Queue.t;
  rewrite_s : float Queue.t;
  inject_s : float Queue.t;
  mutable serve_total_ns : int;
  mutable serve_insns : int;
}

let timings () =
  let q () = Queue.create () in
  {
    served = 0; deck_rate = q (); deck_p50 = q ();
    deck_p90 = q (); probe_ns = q (); cut_ns = q (); reen_ns = q ();
    checkpoint_s = q (); restore_s = q (); rewrite_s = q (); inject_s = q ();
    serve_total_ns = 0; serve_insns = 0;
  }

type run = {
  c : counts;
  tm : timings;
  mutable recording : bool;  (** inside an untraced timed block *)
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;  (** the first few, newest first *)
}

let fail r msg =
  r.failed <- r.failed + 1;
  if List.length r.failures < 5 then r.failures <- msg :: r.failures

let check r (q : Gen.req) reply =
  r.attempted <- r.attempted + 1;
  if not (q.Gen.check reply) then fail r (Printf.sprintf "%s: got %S" q.Gen.cls reply)

(* ---------- a live instance ---------- *)

type inst = {
  ctx : Workload.ctx;
  m : Machine.t;
  bb : Bbcache.t option;
  sb_hist : Obs.histogram option;
  session : Dynacut.session;
  blocks : Covgraph.block list;
  next_deck : unit -> Gen.req array;
  next_probes : unit -> Gen.req list * Gen.req list;
}

(** The code cache's dispatch hook, wrapped while a traced block runs
    so its calls show as an aggregate child span. *)
let exec_ns = ref 0
let exec_calls = ref 0

let with_exec_probe (m : Machine.t) tr f =
  match (tr, m.Machine.exec_cached) with
  | None, _ | _, None -> f ()
  | Some _, (Some inner as installed) ->
      m.Machine.exec_cached <-
        Some
          (fun p ~fuel ->
            let t0 = now () in
            let n = inner p ~fuel in
            exec_ns := !exec_ns + (now () - t0);
            incr exec_calls;
            n);
      Fun.protect ~finally:(fun () -> m.Machine.exec_cached <- installed) f

(** Run [f] as span [name], with the dispatch-hook calls made inside it
    folded into a [bbcache.exec] child. *)
let machine_span tr name f =
  Span.time tr name (fun () ->
      let ns0 = !exec_ns and calls0 = !exec_calls in
      let x = f () in
      Span.child tr ~calls:(!exec_calls - calls0) "bbcache.exec" (!exec_ns - ns0);
      x)

let cache_stats i =
  match i.bb with
  | Some bb -> Bbcache.stats bb
  | None -> { Bbcache.st_hits = 0; st_decodes = 0; st_flushes = 0; st_superblocks = 0; st_blocks = 0 }

let sb_stats i =
  match i.sb_hist with Some h -> (Obs.hist_sum h, Obs.hist_count h) | None -> (0., 0)

(** One serving request: timed, counted and checked; returns its host
    latency in ns. *)
let serve r i tr (q : Gen.req) =
  let m = i.m in
  let st0 = cache_stats i and sb0, sbn0 = sb_stats i in
  let n0 = Obs.counter_value m.Machine.obs_steps
  and y0 = Obs.counter_value m.Machine.obs_syscalls
  and v0 = m.Machine.clock in
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let reply = machine_span tr "apps.rpc" (fun () -> Workload.rpc i.ctx q.Gen.text) in
  let dt = now () - t0 in
  let w1 = Gc.minor_words () in
  let insns = Obs.counter_value m.Machine.obs_steps - n0 in
  let c = r.c and st1 = cache_stats i and sb1, sbn1 = sb_stats i in
  c.reqs <- c.reqs + 1;
  c.insns <- c.insns + insns;
  c.vcycles <- c.vcycles + Int64.to_int (Int64.sub m.Machine.clock v0);
  c.syscalls <- c.syscalls + (Obs.counter_value m.Machine.obs_syscalls - y0);
  c.words <- c.words +. (w1 -. w0);
  c.hits <- c.hits + (st1.Bbcache.st_hits - st0.Bbcache.st_hits);
  c.decodes <- c.decodes + (st1.Bbcache.st_decodes - st0.Bbcache.st_decodes);
  c.sb_sum <- c.sb_sum +. (sb1 -. sb0);
  c.sb_n <- c.sb_n + (sbn1 - sbn0);
  let tm = r.tm in
  if r.recording then begin
    tm.served <- tm.served + 1;
    tm.serve_total_ns <- tm.serve_total_ns + dt;
    tm.serve_insns <- tm.serve_insns + insns
  end;
  check r q reply;
  fi dt

let serve_deck r i tr =
  let a = Array.map (serve r i tr) (i.next_deck ()) in
  if r.recording then begin
    let tm = r.tm in
    Array.sort compare a;
    Queue.push (fi (Array.length a) /. (Array.fold_left ( +. ) 0. a /. 1e9)) tm.deck_rate;
    Queue.push (Obs.percentile_sorted a 50.) tm.deck_p50;
    Queue.push (Obs.percentile_sorted a 90.) tm.deck_p90
  end

(** A request right after a cut or a re-enable. *)
let probe r i tr (q : Gen.req) =
  let d0 = (cache_stats i).Bbcache.st_decodes in
  let t0 = now () in
  let reply = machine_span tr "apps.rpc" (fun () -> Workload.rpc i.ctx q.Gen.text) in
  let dt = now () - t0 in
  r.c.probes <- r.c.probes + 1;
  r.c.probe_decodes <- r.c.probe_decodes + ((cache_stats i).Bbcache.st_decodes - d0);
  check r q reply;
  dt

let applied (res : Dynacut.cut_result) =
  match res.Dynacut.r_outcome with `Applied -> true | `Degraded | `Rolled_back _ -> false

(** [try_cut] or [try_reenable] as a span, with the stage times the
    pipeline reports as children. *)
let pipeline tr name f =
  Span.time tr name (fun () ->
      let res = f () in
      let t = res.Dynacut.r_timings in
      let ns s = int_of_float (s *. 1e9) in
      Span.child tr "criu.checkpoint" (ns t.Dynacut.t_checkpoint);
      Span.child tr "core.rewrite" (ns t.Dynacut.t_disable);
      Span.child tr "core.inject" (ns t.Dynacut.t_handler);
      Span.child tr "criu.restore" (ns t.Dynacut.t_restore);
      res)

let push_stages r (res : Dynacut.cut_result) ~cut =
  let t = res.Dynacut.r_timings in
  Queue.push t.Dynacut.t_checkpoint r.tm.checkpoint_s;
  Queue.push t.Dynacut.t_restore r.tm.restore_s;
  if cut then begin
    Queue.push t.Dynacut.t_disable r.tm.rewrite_s;
    Queue.push t.Dynacut.t_handler r.tm.inject_s
  end

(** One cut cycle: cut, probes, re-enable, probes. A rolled-back cut or
    re-enable is a failed op. *)
let cycle wl r i tr =
  let cut_probes, reen_probes = i.next_probes () in
  let f0 = (cache_stats i).Bbcache.st_flushes in
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let res =
    pipeline tr "core.try_cut" (fun () ->
        Dynacut.try_cut i.session ~blocks:i.blocks ~policy:wl.policy ())
  in
  let dt = now () - t0 in
  let w1 = Gc.minor_words () in
  r.attempted <- r.attempted + 1;
  r.c.cuts <- r.c.cuts + 1;
  r.c.cut_words <- r.c.cut_words +. (w1 -. w0);
  if not (applied res) then fail r (Format.asprintf "try_cut: %a" Dynacut.pp_outcome res.r_outcome)
  else begin
    if r.recording then begin
      Queue.push (fi dt) r.tm.cut_ns;
      push_stages r res ~cut:true
    end;
    let probes = List.map (probe r i tr) cut_probes in
    let t0 = now () in
    let re =
      pipeline tr "core.try_reenable" (fun () ->
          Dynacut.try_reenable i.session res.Dynacut.r_journals)
    in
    let dt = now () - t0 in
    r.attempted <- r.attempted + 1;
    if not (applied re) then
      fail r (Format.asprintf "try_reenable: %a" Dynacut.pp_outcome re.r_outcome)
    else begin
      let probes = probes @ List.map (probe r i tr) reen_probes in
      if r.recording then begin
        Queue.push (fi dt) r.tm.reen_ns;
        push_stages r re ~cut:false;
        Queue.push
          (fi (List.fold_left ( + ) 0 probes) /. fi (List.length probes))
          r.tm.probe_ns
      end
    end
  end;
  r.c.cycles <- r.c.cycles + 1;
  r.c.flushes <- r.c.flushes + ((cache_stats i).Bbcache.st_flushes - f0)

let block wl r i tr =
  Span.time tr "bench.block" (fun () ->
      with_exec_probe i.m tr (fun () ->
          for _ = 1 to wl.decks_per_block do
            serve_deck r i tr
          done;
          cycle wl r i tr))

(* ---------- set-up ---------- *)

type setup_times = { total_s : float; profile_s : float; boot_s : float }

(** Feature profiling, boot to the ready banner, cache warm-up and the
    DynaCut session, from a settled heap. *)
let setup wl r ~seed tr =
  Gc.compact ();
  Obs.reset ();
  Fault.reset ();
  Span.time tr "bench.setup" @@ fun () ->
  let t0 = now () in
  let blocks = Span.time tr "tracer.feature_blocks" wl.profile in
  let t1 = now () in
  let ctx = Span.time tr "apps.spawn" (fun () -> Workload.spawn wl.app) in
  let m = ctx.Workload.m in
  let bb = if wl.cache then Some (Bbcache.enable m) else None in
  with_exec_probe m tr (fun () ->
      machine_span tr "apps.wait_ready" (fun () -> Workload.wait_ready ctx));
  let t2 = now () in
  let fs = m.Machine.fs in
  with_exec_probe m tr (fun () ->
      List.iter
        (fun (q : Gen.req) ->
          check r q (machine_span tr "apps.rpc" (fun () -> Workload.rpc ctx q.Gen.text)))
        (wl.warm fs));
  let session = Span.time tr "core.create" (fun () -> Dynacut.create m ~root_pid:ctx.Workload.pid) in
  let t3 = now () in
  let s a b = fi (b - a) /. 1e9 in
  let inst =
    {
      ctx;
      m;
      bb;
      sb_hist = Option.map (fun _ -> Obs.histogram "bbcache.superblock_len") bb;
      session;
      blocks;
      next_deck = wl.stream ~seed fs;
      next_probes = wl.probes ~seed fs;
    }
  in
  (inst, { total_s = s t0 t3; profile_s = s t0 t1; boot_s = s t1 t2 })

(** [Machine.create] points the registry's clock and the fault hooks at
    the newest machine; point them back at the measured one after a
    timed set-up. *)
let adopt (m : Machine.t) =
  Obs.set_clock (Some (fun () -> m.Machine.clock));
  Fault.set_delay_hook (Some (fun n -> m.Machine.clock <- Int64.add m.Machine.clock (Int64.of_int n)));
  Fault.set_bitflip_hook (Some (fun ~scope rng -> ignore (Machine.bitflip m ?pid:scope rng)))

(* ---------- side probes (traced run, outside the timed loop) ---------- *)

let median_of f n =
  let a = Array.init n (fun _ -> f ()) in
  Array.sort compare a;
  Obs.percentile_sorted a 50.

let timed f =
  let t0 = now () in
  ignore (Sys.opaque_identity (f ()));
  fi (now () - t0)

type side = {
  image_bytes : int;
  seal_ns_per_byte : float;
  unseal_ns_per_byte : float;
  decode_ns_per_insn : float;
}

(** Seal and unseal the tree's own checkpoint images, and disassemble
    the app's [.text]. *)
let side_probes wl i tr =
  Span.time tr "bench.side" @@ fun () ->
  let m = i.m in
  let pids = Dynacut.tree_pids i.session in
  List.iter (fun pid -> Machine.freeze m ~pid) pids;
  let imgs =
    Span.time tr "criu.dump_tree" (fun () ->
        Checkpoint.dump_tree m ~root:i.ctx.Workload.pid ())
  in
  List.iter (fun pid -> Machine.thaw m ~pid) pids;
  let sealed = List.map Validate.encode_sealed imgs in
  let bytes = List.fold_left (fun a s -> a + String.length s) 0 sealed in
  let per_byte name f =
    median_of (fun () -> Span.time tr name (fun () -> timed f)) probe_reps
    /. fi bytes
  in
  let seal = per_byte "criu.encode_sealed" (fun () -> List.map Validate.encode_sealed imgs) in
  let unseal = per_byte "criu.decode_sealed" (fun () -> List.map Validate.decode_sealed sealed) in
  let exe = Option.get (Vfs.find_self m.Machine.fs wl.app.Workload.a_name) in
  let text = (Option.get (Self.find_section exe ".text")).Self.sec_data in
  let ninsns = List.length (fst (Decode.disassemble text)) in
  let decode =
    median_of (fun () -> Span.time tr "isa.disassemble" (fun () -> timed (fun () -> Decode.disassemble text))) probe_reps
    /. fi ninsns
  in
  { image_bytes = bytes; seal_ns_per_byte = seal; unseal_ns_per_byte = unseal; decode_ns_per_insn = decode }

(** Raw samples the registry's histograms and host span axis retain,
    read from its JSON exposition. *)
let obs_samples () =
  let dump = Obs.dump_json ~host:true () in
  let key = "\"count\":" in
  let n = String.length dump and k = String.length key in
  let total = ref 0 in
  let rec scan j =
    if j + k <= n then
      if String.sub dump j k = key then begin
        let e = ref (j + k) in
        while !e < n && dump.[!e] >= '0' && dump.[!e] <= '9' do incr e done;
        total := !total + int_of_string (String.sub dump (j + k) (!e - j - k));
        scan !e
      end
      else scan (j + 1)
  in
  scan 0;
  !total

(* ---------- metrics ---------- *)

let sorted q =
  let a = Array.of_seq (Queue.to_seq q) in
  Array.sort compare a;
  a

let pct q p = Obs.percentile_sorted (sorted q) p
let pct_list l p = Obs.percentile_list p l
let median l = Obs.percentile_list 50. l
let ratio a b = if b = 0. then 0. else a /. b

(** The span names the traced run reports self time for. *)
let span_names =
  [
    "bench.setup"; "bench.block"; "bench.side"; "tracer.feature_blocks"; "apps.spawn";
    "apps.wait_ready"; "apps.rpc"; "bbcache.exec"; "core.create"; "core.try_cut";
    "core.try_reenable"; "criu.checkpoint"; "core.rewrite"; "core.inject"; "criu.restore";
    "criu.dump_tree"; "criu.encode_sealed"; "criu.decode_sealed"; "isa.disassemble";
  ]

(** Tracing overhead: the median over neighbouring (untraced, traced)
    block pairs of how much longer the traced block took. *)
let overhead_pct plain traced =
  let p = Array.of_seq (Queue.to_seq plain) and t = Array.of_seq (Queue.to_seq traced) in
  let n = min (Array.length p) (Array.length t) in
  100. *. median (List.init n (fun j -> (t.(j) /. p.(j)) -. 1.))

let json_result r metrics =
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    (r.failed = 0 && r.attempted > 0) r.attempted r.failed;
  List.iteri
    (fun k (name, v, unit) ->
      if k > 0 then Buffer.add_string b ", ";
      let v = if Float.is_finite v then v else 0. in
      Printf.bprintf b "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
    metrics;
  Buffer.add_string b "}}";
  Buffer.contents b

(* ---------- one run ---------- *)

let run wl ~seed ~seconds ~traced =
  let r =
    { c = zero_counts (); tm = timings (); recording = false; attempted = 0; failed = 0; failures = [] }
  in
  let tr = if traced then Some (Span.create ()) else None in
  let inst, _ = setup wl r ~seed tr in
  List.iter
    (fun (q : Gen.req) -> check r q (Workload.rpc inst.ctx q.Gen.text))
    (wl.prelude ~seed);
  (* count window: untraced, untimed, identical for every run of a seed *)
  for _ = 1 to wl.window_blocks do
    block wl r inst None
  done;
  let win = { r.c with reqs = r.c.reqs } (* a copy: r.c keeps counting *) in
  let heap_mb = fi ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576. in
  let hist_samples = if traced then obs_samples () else 0 in
  let side = if traced then Some (side_probes wl inst tr) else None in
  (* timed loop, with the timed set-ups spread evenly over it; each
     set-up's instance is dropped at once *)
  let traced_blocks = Queue.create () and plain_blocks = Queue.create () in
  let start = now () and span = seconds * 1_000_000_000 in
  let sets = ref [] in
  let timed_setup () =
    let t = snd (setup wl r ~seed None) in
    adopt inst.m;
    Gc.compact ();
    sets := t :: !sets
  in
  let k = ref 0 in
  while now () < start + span || !k < 2 do
    let n = List.length !sets in
    if n < setups && now () >= start + (span * ((2 * n) + 1) / (2 * setups)) then
      timed_setup ();
    let trace_this = traced && !k land 1 = 1 in
    r.recording <- not trace_this;
    let t0 = now () in
    block wl r inst (if trace_this then tr else None);
    Queue.push (fi (now () - t0)) (if trace_this then traced_blocks else plain_blocks);
    incr k
  done;
  r.recording <- false;
  while List.length !sets < setups do
    timed_setup ()
  done;
  let times f = List.map f !sets in
  let tm = r.tm in
  let err = ratio (fi r.failed) (fi r.attempted) in
  let metrics =
    if not traced then
      [
        ("setup_s", pct_list (times (fun t -> t.total_s)) 75., "s");
        ("req_per_s", pct tm.deck_rate 10., "1/s");
        ("req_p50_us", pct tm.deck_p50 90. /. 1e3, "us");
        ("req_p90_us", pct tm.deck_p90 90. /. 1e3, "us");
        ("cut_p90_ms", pct tm.cut_ns 90. /. 1e6, "ms");
        ("reenable_p90_ms", pct tm.reen_ns 90. /. 1e6, "ms");
        ("post_cut_req_p90_us", pct tm.probe_ns 90. /. 1e3, "us");
        ("heap_peak_mb", heap_mb, "MB");
      ]
    else
      let side = Option.get side and tr = Option.get tr in
      let selfs = Span.self_by_name tr and total = fi (Span.roots_total tr) in
      let self name = 100. *. ratio (fi (Option.value ~default:0 (Hashtbl.find_opt selfs name))) total in
      let smed q = pct q 50. *. 1e3 in
      [
        ("machine.ns_per_insn", ratio (fi tm.serve_total_ns) (fi tm.serve_insns), "ns");
        ("machine.words_per_insn", ratio win.words (fi win.insns), "words");
        ("machine.insn_per_req", ratio (fi win.insns) (fi win.reqs), "count");
        ("machine.vcycles_per_req", ratio (fi win.vcycles) (fi win.reqs), "count");
        ("machine.syscalls_per_req", ratio (fi win.syscalls) (fi win.reqs), "count");
        ("machine.boot_s", pct_list (times (fun t -> t.boot_s)) 75., "s");
        ("isa.decode_ns_per_insn", side.decode_ns_per_insn, "ns");
        ("bbcache.hit_rate", ratio (fi win.hits) (fi (win.hits + win.decodes)), "ratio");
        ("bbcache.superblock_len_mean", ratio win.sb_sum (fi win.sb_n), "blocks");
        ("bbcache.decodes_per_req", ratio (fi win.probe_decodes) (fi win.probes), "count");
        ("bbcache.flushes_per_op", ratio (fi win.flushes) (fi win.cycles), "count");
        ("obs.hist_samples", fi hist_samples, "count");
        ("criu.checkpoint_ms", smed tm.checkpoint_s, "ms");
        ("criu.restore_ms", smed tm.restore_s, "ms");
        ("criu.seal_ns_per_byte", side.seal_ns_per_byte, "ns");
        ("criu.unseal_ns_per_byte", side.unseal_ns_per_byte, "ns");
        ("criu.image_bytes", fi side.image_bytes, "bytes");
        ("core.rewrite_ms", smed tm.rewrite_s, "ms");
        ("core.inject_ms", smed tm.inject_s, "ms");
        ("core.words_per_cut", ratio win.cut_words (fi win.cuts), "words");
        ("core.feature_blocks", fi (List.length inst.blocks), "count");
        ("tracer.profile_s", pct_list (times (fun t -> t.profile_s)) 75., "s");
        ("trace.overhead_pct", overhead_pct plain_blocks traced_blocks, "%");
      ]
      @ List.map (fun n -> ("self_pct." ^ n, self n, "%")) span_names
  in
  Option.iter
    (fun t ->
      (try Sys.mkdir ".hostperf" 0o755 with Sys_error _ -> ());
      Span.write t (Printf.sprintf ".hostperf/trace-%s-seed%d.jsonl" wl.name seed))
    tr;
  Printf.eprintf "%s seed=%d %s: %d blocks, %d served requests in %d whole decks, %d cut cycles\n"
    wl.name seed
    (if traced then "traced" else "untraced")
    !k tm.served (Queue.length tm.deck_rate) (Queue.length tm.cut_ns);
  List.iter (fun (n, v, u) -> Printf.eprintf "  %-32s %14.4f %s\n" n v u) metrics;
  Printf.eprintf "  %-32s %14.6f (%d failed of %d attempted)\n" "error_ratio" err r.failed
    r.attempted;
  List.iter (Printf.eprintf "  FAILED %s\n") (List.rev r.failures);
  print_endline (json_result r metrics)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of the workloads");
      ("--seed", Arg.Set_int seed, "N seed of the request streams");
      ("--seconds", Arg.Set_int seconds, "S length of the timed loop");
      ("--trace", Arg.Set_int trace, "0|1 1 = per-layer metrics from a traced run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "hostperf --workload NAME --seconds S [--seed N] [--trace 0|1]";
  match List.find_opt (fun w -> w.name = !workload) workloads with
  | _ when !seconds < 1 ->
      prerr_endline "--seconds S (at least 1) is required";
      exit 2
  | None ->
      Printf.eprintf "unknown workload %S; one of: %s\n" !workload
        (String.concat ", " (List.map (fun w -> w.name) workloads));
      exit 2
  | Some wl -> run wl ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1)
