(** Per-process virtual memory: sparse 4 KiB page table + VMA list.
    Pages carry protections; VMAs carry the metadata CRIU's [mm] image
    records and DynaCut edits.

    Every access finds its page through a 16-entry direct-mapped software
    TLB in front of an [int]-keyed page table. The TLB caches page
    records, not permissions or bytes: [map] and [unmap] flush it,
    [create] and [copy] start it empty, and [protect] leaves it valid
    because it edits the cached records in place and every access
    re-checks the protection.

    Bulk copies move a page chunk at a time but keep the byte-at-a-time
    contract: pages are checked in address order before any of their bytes
    move, so a fault names the first byte of the first bad page and the
    prefix before it is already written; each written byte bumps its
    page's [pg_gen] by one. *)

type access = Read | Write | Exec

val access_to_string : access -> string

exception Fault of int64 * access
(** Bad or forbidden access; the machine turns this into SIGSEGV. *)

type vma = {
  va_start : int64;
  va_len : int;  (** bytes, page multiple *)
  va_prot : Self.prot;
  va_file : (string * int) option;  (** backing file path + offset *)
  va_name : string;  (** e.g. "ngx:.text", "[stack]", "[anon]" *)
}

val vma_end : vma -> int64

type page = {
  pg_data : bytes;
  mutable pg_prot : Self.prot;
  mutable pg_gen : int;
      (** write generation: bumped on every store (including kernel pokes
          and {!flip_bit}) — the dirty-tracking signal the integrity
          scrubber uses to skip provably-unchanged pages cheaply *)
}

(** Tables keyed by page index. *)
module Itbl : Hashtbl.S with type key = int

type t = private {
  pages : page Itbl.t;
  mutable vmas : vma list;
  exec_dirty : unit Itbl.t;
      (** page indexes of executable pages modified since the last
          {!take_exec_dirty} — the precise invalidation signal for the
          decoded-block code cache *)
  tlb_idx : int array;  (** TLB slot -> cached page index, -1 when empty *)
  tlb_page : page array;  (** TLB slot -> that index's page record *)
}

val page_size : int
val page_size64 : int64

val page_index : int64 -> int
(** [addr lsr 12]: non-negative for every address, so no two pages
    alias. *)

val page_base : int64 -> int64
val page_offset : int64 -> int

val page_addr : int -> int64
(** First address of a page index. *)

val align_up : int -> int

val create : unit -> t
val find_vma : t -> int64 -> vma option

val map :
  t ->
  vaddr:int64 ->
  len:int ->
  prot:Self.prot ->
  ?file:(string * int) option ->
  name:string ->
  unit ->
  vma
(** Map a fresh region; raises [Invalid_argument] on overlap or
    misalignment. All pages are populated (zeroed). *)

val unmap : t -> vaddr:int64 -> len:int -> unit
(** Drop pages; fully-covered VMAs are removed, partial ones split. *)

val protect : t -> vaddr:int64 -> len:int -> prot:Self.prot -> unit
(** mprotect: changes page protections, splitting VMAs as needed. *)

(** {2 Checked accesses (raise {!Fault} on violation)} *)

val read8 : t -> int64 -> int
val fetch8 : t -> int64 -> int
(** Instruction fetch: requires execute permission. *)

val fetch_page : t -> int64 -> bytes
(** The bytes of the page containing the address, checked for execute
    permission like {!fetch8} — one lookup for a whole instruction that
    lies inside the page. The buffer is the page itself: read only. *)

val write8 : t -> int64 -> int -> unit
val read64 : t -> int64 -> int64
val write64 : t -> int64 -> int64 -> unit
val read_bytes : t -> int64 -> int -> bytes
val write_bytes : t -> int64 -> bytes -> unit

val read_cstring : t -> int64 -> string
(** NUL-terminated string (bounded at 1 MiB). *)

(** {2 Kernel-side accesses (ignore protections, not presence)} *)

val poke8 : t -> int64 -> int -> unit
val peek8 : t -> int64 -> int
val poke_bytes : t -> int64 -> bytes -> unit

val poke_blit : t -> int64 -> bytes -> off:int -> len:int -> unit
(** [poke_bytes] of [len] bytes of the source taken at [off], without
    copying them out first. Raises [Invalid_argument] before writing
    anything when the range is not inside the source. *)

val peek_bytes : t -> int64 -> int -> bytes

(** {2 Whole-space operations} *)

val copy : t -> t
(** Deep copy (fork, checkpoint). *)

val pages_of_vma : t -> vma -> (int64 * bytes) list
(** Populated pages of a VMA in address order. *)

val total_mapped_bytes : t -> int

(** {2 Page integrity primitives} *)

val digest_bytes : bytes -> int64
(** FNV-1a over raw bytes (the page-digest function). *)

val page_digest : t -> int64 -> int64 option
(** Digest of the resident page containing the address; [None] when the
    page is not populated. *)

val page_gen : t -> int64 -> int option
(** Write generation of the resident page containing the address. *)

val flip_bit : t -> addr:int64 -> bit:int -> unit
(** Flip one bit in a resident page, ignoring protections — the seeded
    silent-corruption injector behind [Fault.Bitflip]. Bumps the page's
    write generation (the generation models a hardware dirty bit, which
    a flip trips even though software write paths were bypassed).
    Raises {!Fault} on a non-resident page. *)

val find_free : t -> hint:int64 -> len:int -> int64
(** First page-aligned gap of [len] bytes at or after [hint]. *)

(** {2 Executable-page dirty tracking (code-cache invalidation)} *)

val exec_dirty_pending : t -> bool
(** Whether any executable page was modified since the last drain. O(1);
    the cache dispatcher polls this at every block boundary. *)

val take_exec_dirty : t -> int list
(** Dirtied executable page indexes since the last call; clears the set. *)
