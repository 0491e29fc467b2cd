(** Decoded-block code cache tests: the cache is the same machine as
    the single-step interpreter (replies, final clock and the whole
    observability dump minus the cache's own [bbcache.*] series, on
    ltpd, rkv and ngx cut/re-enable; clock, rips, registers and
    [retired] at every [Machine.run] boundary; drcov byte-identity),
    nudge-precise invalidation across all three rewrite strategies,
    self-modifying-page eviction, post-[Fleet.recover] cache coldness,
    slicer interpreter-fallback, and two-run determinism of the
    observability dump with the cache enabled. *)

let get = "GET /index.html HTTP/1.0\r\n\r\n"

let lpolicy = { Dynacut.method_ = `First_byte; on_trap = `Redirect "ltpd_403" }

(* ---------- cross-engine pinning: one machine, two engines ---------- *)

(* The JSON dump without the cache's own series. Trailing commas and
   blank lines go too: both depend on which series sit around a line. *)
let dump_sans_cache () =
  let prefix = "  {\"name\":\"bbcache." in
  Obs.dump_json ()
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "" && not (String.starts_with ~prefix l))
  |> List.map (fun l ->
         let n = String.length l in
         if n > 0 && l.[n - 1] = ',' then String.sub l 0 (n - 1) else l)
  |> String.concat "\n"

(* Boot [app] on one engine and run [script] on it; returns the
   script's replies, the final virtual clock and the dump. The cache is
   enabled before the first instruction, so init, cut, trap-handler and
   serving paths all run cached. *)
let drive ~cached app script =
  Obs.reset ();
  Fault.reset ();
  let c = Workload.spawn app in
  let bb = if cached then Some (Bbcache.enable c.Workload.m) else None in
  Workload.wait_ready c;
  let replies = script c in
  let out = (replies, c.Workload.m.Machine.clock, dump_sans_cache ()) in
  (match bb with Some b -> Bbcache.disable b | None -> ());
  out

(* Both engines must be the same machine: same replies, same clock,
   same dump. Leaves the cached run's registry in place. *)
let check_same_machine app script =
  let ri, ki, di = drive ~cached:false app script in
  let rc, kc, dc = drive ~cached:true app script in
  Alcotest.(check (list string)) "replies identical" ri rc;
  Alcotest.(check int64) "final clock identical" ki kc;
  Alcotest.(check string) "dump identical minus bbcache.*" di dc

let rpcs reqs c = List.map (Workload.rpc c) reqs

let cut_then reqs ~blocks ~policy c =
  let session = Dynacut.create c.Workload.m ~root_pid:c.Workload.pid in
  let (_ : Rewriter.journal list * Dynacut.timings) =
    Dynacut.cut session ~blocks ~policy
  in
  rpcs reqs c

let test_pinning_ltpd () =
  let reqs = Workload.web_wanted @ Workload.web_undesired @ [ get ] in
  let blocks = Common.web_feature_blocks Workload.ltpd in
  check_same_machine Workload.ltpd (cut_then reqs ~blocks ~policy:lpolicy);
  Alcotest.(check bool) "undesired requests really trapped" true
    (Obs.counter_value (Obs.counter "machine.traps") > 0)

(* rkv pins the same invariants without a cut (pure serving path) *)
let test_pinning_rkv () =
  check_same_machine Workload.rkv
    (rpcs (Workload.kv_wanted @ Workload.kv_undesired))

(* ngx master+worker through cut -> probes -> re-enable -> probes: two
   restores from image, so both engines start cold twice mid-run *)
let test_pinning_ngx () =
  let blocks = Common.web_feature_blocks Workload.ngx in
  let probes = Workload.web_wanted @ Workload.web_undesired in
  check_same_machine Workload.ngx (fun c ->
      let session = Dynacut.create c.Workload.m ~root_pid:c.Workload.pid in
      let journals, (_ : Dynacut.timings) =
        Dynacut.cut session ~blocks
          ~policy:
            { Dynacut.method_ = `First_byte; on_trap = `Redirect "ngx_declined" }
      in
      let cut = rpcs probes c in
      let (_ : Dynacut.timings) = Dynacut.reenable session journals in
      cut @ rpcs probes c);
  Alcotest.(check bool) "undesired requests really trapped" true
    (Obs.counter_value (Obs.counter "machine.traps") > 0)

(* ---------- exact run boundaries ---------- *)

let snapshot (m : Machine.t) =
  let b = Buffer.create 512 in
  Printf.bprintf b "clock=%Ld" m.Machine.clock;
  List.iter
    (fun (p : Proc.t) ->
      let r = p.Proc.regs in
      Printf.bprintf b "\n pid=%d %s rip=0x%Lx retired=%d flags=%d gpr=%s"
        p.Proc.pid
        (Proc.state_to_string p.Proc.state)
        r.Proc.rip p.Proc.retired (Proc.pack_flags r)
        (String.concat "," (Array.to_list (Array.map Int64.to_string r.Proc.gpr))))
    (Machine.all_procs m);
  Buffer.contents b

(* Boot ngx by stepping [Machine.run ~max_cycles:k] over seeded [k]s
   (1, quantum edges, and draws that mostly end mid-block) until its
   banner, then serve a GET and a PUT the same way until each reply
   arrives; one snapshot per return. *)
let trajectory ~cached =
  Obs.reset ();
  Fault.reset ();
  let c = Workload.spawn Workload.ngx in
  let m = c.Workload.m in
  let bb = if cached then Some (Bbcache.enable m) else None in
  let rng = Random.State.make [| 2023 |] in
  let fixed = ref [ 1; 2; 3; 255; 256; 257; 511; 513 ] in
  let next_k () =
    match !fixed with
    | k :: rest ->
        fixed := rest;
        k
    | [] -> 1 + Random.State.int rng 700
  in
  let snaps = ref [] in
  let rec step_until pred n =
    let r = Machine.run m ~max_cycles:(next_k ()) in
    snaps := snapshot m :: !snaps;
    match r with
    | `Budget when n < 5_000 && not (pred ()) -> step_until pred (n + 1)
    | _ -> ()
  in
  step_until (fun () -> Workload.banner_seen c) 0;
  List.iter
    (fun req ->
      let conn = Net.connect m.Machine.net Ngx.port in
      Net.client_send conn req;
      step_until (fun () -> Net.client_pending conn > 0) 0)
    [ get; Workload.http_put "/b.txt" "boundary" ];
  (match bb with Some b -> Bbcache.disable b | None -> ());
  List.rev !snaps

let test_exact_boundaries () =
  let si = trajectory ~cached:false and sc = trajectory ~cached:true in
  Alcotest.(check bool) "the run crossed many boundaries" true
    (List.length si > 100);
  Alcotest.(check int) "same number of run returns" (List.length si)
    (List.length sc);
  List.iteri
    (fun i (a, b) ->
      if a <> b then
        Alcotest.failf "run return %d differs:\ninterp: %s\ncached: %s" i a b)
    (List.combine si sc)

(* ---------- self-modifying code inside one block ---------- *)

(* The guest copies [lea rax, +k; mov rcx, 2; store8 [rax+j], rcx;
   mov rax, 1; ret] into an rwx page and calls it. The store rewrites
   the immediate of the [mov rax] right after it, in the same block, so
   single-stepping returns 2; the cache must not run the stale slot. *)
let test_self_modifying_block () =
  let enc = Encode.to_bytes in
  let mov_rax v = Insn.Mov_ri (Reg.Rax, v) in
  let imm =
    let a = enc (mov_rax 1L) and b = enc (mov_rax 2L) in
    let rec diff k = if Bytes.get a k <> Bytes.get b k then k else diff (k + 1) in
    diff 0
  in
  let set_rcx = Insn.Mov_ri (Reg.Rcx, 2L)
  and patch = Insn.Store8 (Reg.Rax, imm, Reg.Rcx) in
  let skip = Bytes.length (enc set_rcx) + Bytes.length (enc patch) in
  let code =
    Encode.program
      [ Insn.Lea (Reg.Rax, skip); set_rcx; patch; mov_rax 1L; Insn.Ret ]
  in
  let open Dsl in
  let copy =
    List.init (Bytes.length code) (fun k ->
        store8 (v "a" +: i k) (i (Char.code (Bytes.get code k))))
  in
  let u =
    unit_ "smc"
      [
        func "main" []
          ([ decl "a" (call "mmap" [ i 0; i 4096; i 7 ]) ]
          @ copy
          @ [ ret (callp (v "a") []) ]);
      ]
  in
  let run ~cached =
    Fault.reset ();
    let m = Machine.create () in
    Vfs.add_self m.Machine.fs "libc.so" (Lazy.force Workload.libc);
    Vfs.add_self m.Machine.fs "smc" (Crt0.link_app ~libc:(Lazy.force Workload.libc) u);
    let bb = if cached then Some (Bbcache.enable m) else None in
    let p = Machine.spawn m ~exe_path:"smc" () in
    let (_ : [ `Budget | `Dead | `Idle ]) = Machine.run m ~max_cycles:100_000 in
    (match bb with Some b -> Bbcache.disable b | None -> ());
    (Proc.state_to_string p.Proc.state, m.Machine.clock)
  in
  let si, ki = run ~cached:false and sc, kc = run ~cached:true in
  Alcotest.(check string) "interpreter runs the patched mov" "exited(2)" si;
  Alcotest.(check string) "cache runs the patched mov" si sc;
  Alcotest.(check int64) "same clock" ki kc

(* ---------- drcov byte-identity (the tracer as cache stubs) ---------- *)

let drcov_run ~cached app reqs =
  Obs.reset ();
  Fault.reset ();
  let c = Workload.spawn ~traced:true app in
  let bb = if cached then Some (Bbcache.enable c.Workload.m) else None in
  Workload.wait_ready c;
  List.iter (fun r -> ignore (Workload.rpc c r)) reqs;
  let log = Collector.detach (Workload.collector c) in
  (match bb with Some b -> Bbcache.disable b | None -> ());
  Drcov.to_string log

let test_drcov_identity_ltpd () =
  let reqs = Workload.web_wanted @ Workload.web_undesired in
  Alcotest.(check string) "ltpd drcov byte-identical"
    (drcov_run ~cached:false Workload.ltpd reqs)
    (drcov_run ~cached:true Workload.ltpd reqs)

let test_drcov_identity_rkv () =
  let reqs = Workload.kv_wanted @ Workload.kv_undesired in
  Alcotest.(check string) "rkv drcov byte-identical"
    (drcov_run ~cached:false Workload.rkv reqs)
    (drcov_run ~cached:true Workload.rkv reqs)

(* ---------- invalidation: cut -> flush -> re-enable -> re-decode ---------- *)

(* One full roundtrip on the dispatcher server under cached execution:
   warm the cache, cut (checkpoint/rewrite/restore builds a fresh
   process, so the cache must read cold), serve against the rewritten
   text, re-enable, and prove the post-cut traffic re-decoded rather
   than reusing any pre-cut block. *)
let roundtrip method_ ~probe_cut () =
  Fault.reset ();
  let m, p = Test_core.boot () in
  let pid = p.Proc.pid in
  let bb = Bbcache.enable m in
  Alcotest.(check string) "pre-cut S" "SET-OK" (Test_core.request m "S");
  Alcotest.(check bool) "cache warm" true (Bbcache.cached_blocks bb ~pid > 0);
  let decodes_warm = (Bbcache.stats bb).Bbcache.st_decodes in
  let session = Dynacut.create m ~root_pid:pid in
  let policy = { Dynacut.method_; on_trap = `Redirect "err_path" } in
  let journals, (_ : Dynacut.timings) =
    Dynacut.cut session ~blocks:(Test_core.feature_blocks ()) ~policy
  in
  Alcotest.(check int) "cache cold after restore-from-image" 0
    (Bbcache.cached_blocks bb ~pid);
  (* wanted path serves from re-decoded blocks of the rewritten text *)
  Alcotest.(check string) "wanted intact" "VAL=8" (Test_core.request m "G");
  if probe_cut then
    Alcotest.(check string) "feature blocked" "ERR" (Test_core.request m "S");
  Alcotest.(check bool) "post-cut traffic re-decoded" true
    ((Bbcache.stats bb).Bbcache.st_decodes > decodes_warm);
  let decodes_cut = (Bbcache.stats bb).Bbcache.st_decodes in
  (* re-enable restores the original bytes through another
     checkpoint/restore: cold again, then re-decode *)
  let (_ : Dynacut.timings) = Dynacut.reenable session journals in
  Alcotest.(check int) "cache cold after re-enable" 0
    (Bbcache.cached_blocks bb ~pid);
  Alcotest.(check string) "feature restored" "SET-OK" (Test_core.request m "S");
  Alcotest.(check bool) "post-reenable traffic re-decoded" true
    ((Bbcache.stats bb).Bbcache.st_decodes > decodes_cut);
  Bbcache.disable bb

(* `Unmap_pages keeps on_trap = `Kill (its only supported action), so the
   undesired probe would kill the server — skip it and roundtrip the
   wanted path only *)
let test_roundtrip_first_byte () = roundtrip `First_byte ~probe_cut:true ()
let test_roundtrip_wipe () = roundtrip `Wipe ~probe_cut:true ()

let test_roundtrip_unmap () =
  Fault.reset ();
  let m, p = Test_core.boot () in
  let pid = p.Proc.pid in
  let bb = Bbcache.enable m in
  Alcotest.(check string) "pre-cut S" "SET-OK" (Test_core.request m "S");
  Alcotest.(check bool) "cache warm" true (Bbcache.cached_blocks bb ~pid > 0);
  let session = Dynacut.create m ~root_pid:pid in
  let journals, (_ : Dynacut.timings) =
    Dynacut.cut session
      ~blocks:(Test_core.feature_blocks ())
      ~policy:{ Dynacut.method_ = `Unmap_pages; on_trap = `Kill }
  in
  Alcotest.(check int) "cache cold after restore-from-image" 0
    (Bbcache.cached_blocks bb ~pid);
  Alcotest.(check string) "wanted intact over unmapped pages" "VAL=8"
    (Test_core.request m "G");
  let (_ : Dynacut.timings) = Dynacut.reenable session journals in
  Alcotest.(check int) "cache cold after re-enable" 0
    (Bbcache.cached_blocks bb ~pid);
  Alcotest.(check string) "feature restored" "SET-OK" (Test_core.request m "S");
  Bbcache.disable bb

(* ---------- self-modifying page: live patch evicts, never stale ---------- *)

let test_self_modifying_eviction () =
  Fault.reset ();
  let m, p = Test_core.boot () in
  let pid = p.Proc.pid in
  let bb = Bbcache.enable m in
  Alcotest.(check string) "warm" "SET-OK" (Test_core.request m "S");
  (* live first-byte int3, no checkpoint/restore cycle: the dirtied page
     must evict the cached do_set block before the next dispatch. A
     stale block would answer SET-OK; the re-decoded int3 (no verifier
     handler installed) must kill the server instead. *)
  let exe = Option.get (Vfs.find_self m.Machine.fs "dsrv") in
  let feat = Option.get (Self.find_symbol exe "feat_set") in
  let addr = Int64.add exe.Self.base (Int64.of_int feat.Self.sym_off) in
  Mem.poke8 (Machine.proc_exn m pid).Proc.mem addr 0xCC;
  let (_ : string) = Test_core.request m "S" in
  Alcotest.(check bool) "trap killed the worker (no stale block ran)" false
    (Proc.is_live (Machine.proc_exn m pid));
  Alcotest.(check bool) "eviction really happened" true
    ((Bbcache.stats bb).Bbcache.st_flushes > 0);
  Bbcache.disable bb

(* ---------- post-Fleet.recover coldness ---------- *)

let test_fleet_recover_coldness () =
  Fault.reset ();
  Obs.reset ();
  let ctxs = Workload.spawn_fleet ~n:2 Workload.ltpd in
  Workload.wait_fleet_ready ctxs;
  let m = (List.hd ctxs).Workload.m in
  let pids = List.map (fun c -> c.Workload.pid) ctxs in
  let fleet =
    Fleet.create m ~port:Ltpd.port ~pids
      ~blocks:(Common.web_feature_blocks Workload.ltpd)
      ~policy:lpolicy
  in
  let bb = Bbcache.enable m in
  for _ = 1 to 4 do
    ignore (Fleet.request fleet get)
  done;
  List.iter
    (fun pid ->
      Alcotest.(check bool) "every worker warm" true
        (Bbcache.cached_blocks bb ~pid > 0))
    pids;
  (* controller dies mid-restore during wave 1 of a rollout; recovery
     rolls the half-cut worker back from its pristine image — a fresh
     process whose cache must read cold *)
  Fault.arm ~kill:true "restore.process" Fault.One_shot;
  let config =
    Rollout.
      {
        r_waves = 2;
        r_sup = { Supervisor.default_config with Supervisor.canary_windows = 1 };
      }
  in
  let drive () = ignore (Fleet.request fleet get) in
  (match Fleet.rollout fleet ~config ~drive () with
  | (_ : Rollout.outcome * Rollout.wave_report list) ->
      Alcotest.fail "controller survived its mid-restore death"
  | exception Fault.Controller_killed _ -> ());
  let r = Fleet.recover m ~pids in
  let rolled =
    List.filter_map
      (fun (pid, a) -> if a = `Rolled_back then Some pid else None)
      r.Fleet.fr_workers
  in
  Alcotest.(check bool) "a worker was respawned from image" true (rolled <> []);
  List.iter
    (fun pid ->
      Alcotest.(check int) "no stale block survives respawn-from-image" 0
        (Bbcache.cached_blocks bb ~pid))
    rolled;
  for _ = 1 to 4 do
    ignore (Fleet.request fleet get)
  done;
  List.iter
    (fun pid ->
      Alcotest.(check bool) "respawned worker re-decoded and serves" true
        (Bbcache.cached_blocks bb ~pid > 0))
    rolled;
  Bbcache.disable bb

(* ---------- slicer forces interpreter fallback ---------- *)

let test_slicer_fallback () =
  let slice_run ~cached =
    Obs.reset ();
    Fault.reset ();
    let c = Workload.spawn Workload.ltpd in
    let bb = if cached then Some (Bbcache.enable c.Workload.m) else None in
    Workload.wait_ready c;
    let hits0 =
      match bb with Some b -> (Bbcache.stats b).Bbcache.st_hits | None -> 0
    in
    let sl =
      Slicer.attach c.Workload.m ~pid:c.Workload.pid
        ~wanted_out:(Slicelab.wanted_out_of Workload.ltpd) ()
    in
    ignore (Workload.rpc c get);
    Slicer.detach sl;
    let s = Slicer.slice sl in
    let hits_during =
      match bb with
      | Some b -> (Bbcache.stats b).Bbcache.st_hits - hits0
      | None -> 0
    in
    (match bb with Some b -> Bbcache.disable b | None -> ());
    (s, hits_during)
  in
  let si, _ = slice_run ~cached:false in
  let sc, hits = slice_run ~cached:true in
  Alcotest.(check bool) "slice non-empty" true (si <> []);
  Alcotest.(check bool) "identical slices with cache enabled" true (si = sc);
  Alcotest.(check int) "on_insn hook forced the interpreter (0 cache hits)"
    0 hits

(* ---------- two-run determinism of the dump, cache enabled ---------- *)

let test_cached_dump_deterministic () =
  let run () =
    Obs.reset ();
    Fault.reset ();
    let c = Workload.spawn Workload.ltpd in
    let bb = Bbcache.enable c.Workload.m in
    Workload.wait_ready c;
    List.iter
      (fun r -> ignore (Workload.rpc c r))
      (Workload.web_wanted @ Workload.web_undesired);
    let d = Obs.dump_json () in
    Bbcache.disable bb;
    d
  in
  Alcotest.(check string) "byte-identical dumps" (run ()) (run ())

let suite =
  [
    Alcotest.test_case "pinning: ltpd cut, cached = interpreted" `Quick
      test_pinning_ltpd;
    Alcotest.test_case "pinning: rkv, cached = interpreted" `Quick
      test_pinning_rkv;
    Alcotest.test_case "pinning: ngx cut and re-enable, cached = interpreted"
      `Quick test_pinning_ngx;
    Alcotest.test_case "exact run boundaries: ngx, cached = interpreted" `Quick
      test_exact_boundaries;
    Alcotest.test_case "drcov byte-identity: ltpd" `Quick
      test_drcov_identity_ltpd;
    Alcotest.test_case "drcov byte-identity: rkv" `Quick test_drcov_identity_rkv;
    Alcotest.test_case "roundtrip: first-byte cut" `Quick
      test_roundtrip_first_byte;
    Alcotest.test_case "roundtrip: wipe cut" `Quick test_roundtrip_wipe;
    Alcotest.test_case "roundtrip: unmap cut" `Quick test_roundtrip_unmap;
    Alcotest.test_case "self-modifying page evicts" `Quick
      test_self_modifying_eviction;
    Alcotest.test_case "self-modifying store inside a block" `Quick
      test_self_modifying_block;
    Alcotest.test_case "post-Fleet.recover coldness" `Quick
      test_fleet_recover_coldness;
    Alcotest.test_case "slicer forces interpreter fallback" `Quick
      test_slicer_fallback;
    Alcotest.test_case "cached dump is deterministic" `Quick
      test_cached_dump_deterministic;
  ]
