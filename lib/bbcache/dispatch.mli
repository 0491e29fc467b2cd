(** Direct-threaded dispatch over the decoded-block cache: installs the
    machine's [exec_cached] hook and chains cached blocks into
    superblocks until a trap/syscall/hook boundary. *)

type t

type stats = {
  st_hits : int;  (** block dispatches served from the cache *)
  st_decodes : int;  (** blocks decoded (cold or re-decoded after flush) *)
  st_flushes : int;  (** blocks evicted by invalidation *)
  st_superblocks : int;  (** dispatch chains (histogrammed by length) *)
  st_blocks : int;  (** live cached blocks right now *)
}

val enable : Machine.t -> t
(** Install cached execution on the machine and register the
    [bbcache.*] observability counters. The machine stays the same one:
    same clock, hooks, counters and signals, and the same instructions
    retired by every {!Machine.run} call; only host work changes. *)

val disable : t -> unit
(** Uninstall and drop every cache; the machine single-steps again. *)

val flush_all : t -> unit
(** Explicit whole-cache nudge across every pid (fires
    ["bbcache.flush"]). *)

val degraded : t -> bool
(** True after an injected flush failure forced interpreter-only mode. *)

val stats : t -> stats

val cached_blocks : t -> pid:int -> int
(** Live cached blocks for the pid's *current* process object; a
    respawned/restored process reads 0 until it re-decodes. *)
