(** Per-process virtual memory: a sparse page table plus a VMA list.

    Pages carry their protection, so every instruction fetch, load and
    store is one page lookup plus one protection test. VMAs carry the
    metadata CRIU's [mm.img] records — start, end, permissions, backing
    file and offset — exactly the fields DynaCut edits when it unmaps code
    pages or injects a library (paper §3.3).

    {b Page lookup.} A page index is the address shifted right by 12 bits,
    a non-negative [int] for every 64-bit address, so the page table is an
    [int]-keyed hash table with monomorphic hashing and equality. In front
    of it sits a 16-entry direct-mapped software TLB (slot [idx land 15])
    caching page records; a hit allocates nothing and returns the record
    itself. The TLB holds no protections or bytes of its own, only the
    mutable page record, so it is stale exactly when the page table's
    index -> record binding changes:
    - [map] and [unmap] add or drop bindings, so both flush it;
    - [create] and [copy] (fork, checkpoint) start with it empty, so a
      copy can never reach its parent's records;
    - [protect] does not flush: it rewrites [pg_prot] in the shared record
      and every access re-checks the protection on the record it gets.

    {b Bulk copies.} [read_bytes], [write_bytes], [poke_bytes]/[poke_blit]
    and [peek_bytes] move one page chunk at a time with [Bytes.blit]. Each
    chunk's page is checked before any byte of it moves, in address order,
    so a bad page faults at its first byte in the range, after the same
    prefix is written, as a byte-at-a-time loop would; a chunk of [n]
    bytes bumps [pg_gen] by [n], so every generation matches that loop
    too. *)

type access = Read | Write | Exec

let access_to_string = function Read -> "read" | Write -> "write" | Exec -> "exec"

exception Fault of int64 * access
(** Address + attempted access; the machine turns this into SIGSEGV. *)

type vma = {
  va_start : int64;
  va_len : int;  (** bytes, page-multiple *)
  va_prot : Self.prot;
  va_file : (string * int) option;  (** backing file path + offset *)
  va_name : string;  (** e.g. "ngx:.text", "[stack]", "[anon]" *)
}

let vma_end v = Int64.add v.va_start (Int64.of_int v.va_len)

type page = {
  pg_data : bytes;
  mutable pg_prot : Self.prot;
  mutable pg_gen : int;
      (** write generation: bumped on every store into the page,
          including kernel pokes and hardware-level bit flips — the
          dirty-tracking signal the integrity scrubber uses to skip
          provably-unchanged pages without hashing them *)
}

module Itbl = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash (a : int) = a
end)

type t = {
  pages : page Itbl.t;  (** page index -> page *)
  mutable vmas : vma list;  (** sorted by start *)
  exec_dirty : unit Itbl.t;
      (** page indexes of executable pages modified since the last drain —
          the precise invalidation signal the decoded-block code cache
          consumes: any store, poke, bit flip, reprotect or unmap that
          touches an executable page lands its index here, and the cache
          dispatcher evicts exactly the blocks overlapping these pages
          before running another cached block *)
  tlb_idx : int array;  (** TLB slot -> cached page index, -1 when empty *)
  tlb_page : page array;  (** TLB slot -> that index's page record *)
}

let page_shift = 12
let page_size = 1 lsl page_shift
let page_size64 = Int64.of_int page_size
let page_index (addr : int64) = Int64.to_int (Int64.shift_right_logical addr page_shift)
let page_base (addr : int64) = Int64.logand addr (Int64.lognot (Int64.of_int (page_size - 1)))
let page_offset (addr : int64) = Int64.to_int addr land (page_size - 1)
let page_addr (idx : int) = Int64.shift_left (Int64.of_int idx) page_shift

let tlb_size = 16

(* What a lookup of an unpopulated page returns. It grants no access, so
   every checked access faults on it; presence-only paths test for it by
   physical equality. It is never written, never in the page table, and
   only fills TLB slots whose index is -1, which no lookup matches. *)
let no_page =
  {
    pg_data = Bytes.empty;
    pg_prot = { Self.p_r = false; p_w = false; p_x = false };
    pg_gen = 0;
  }

(* Every address space starts with an empty TLB and a clean dirty set. *)
let of_pages pages vmas =
  {
    pages;
    vmas;
    exec_dirty = Itbl.create 8;
    tlb_idx = Array.make tlb_size (-1);
    tlb_page = Array.make tlb_size no_page;
  }

let create () = of_pages (Itbl.create 256) []

let tlb_flush t =
  Array.fill t.tlb_idx 0 tlb_size (-1);
  Array.fill t.tlb_page 0 tlb_size no_page

(** The page record at index [idx], or [no_page]. *)
let find_page t idx =
  let slot = idx land (tlb_size - 1) in
  if t.tlb_idx.(slot) = idx then t.tlb_page.(slot)
  else
    match Itbl.find t.pages idx with
    | p ->
        t.tlb_idx.(slot) <- idx;
        t.tlb_page.(slot) <- p;
        p
    | exception Not_found -> no_page

let mark_exec_dirty t idx = Itbl.replace t.exec_dirty idx ()
let exec_dirty_pending t = Itbl.length t.exec_dirty > 0

(** Return the dirtied executable page indexes and clear the set. *)
let take_exec_dirty t =
  let l = Itbl.fold (fun k () acc -> k :: acc) t.exec_dirty [] in
  Itbl.reset t.exec_dirty;
  l

let align_up n = (n + page_size - 1) / page_size * page_size

let overlaps a_start a_len b_start b_len =
  let a_end = Int64.add a_start (Int64.of_int a_len) in
  let b_end = Int64.add b_start (Int64.of_int b_len) in
  a_start < b_end && b_start < a_end

let find_vma t addr =
  List.find_opt (fun v -> addr >= v.va_start && addr < vma_end v) t.vmas

(** Map [len] bytes at [vaddr] (both page-aligned after rounding) with
    [prot]. Fails if the range overlaps an existing VMA. *)
let map t ~vaddr ~len ~prot ?(file = None) ~name () =
  if page_offset vaddr <> 0 then
    invalid_arg (Printf.sprintf "Mem.map: unaligned vaddr 0x%Lx" vaddr);
  let len = align_up (max len 1) in
  if List.exists (fun v -> overlaps v.va_start v.va_len vaddr len) t.vmas then
    invalid_arg (Printf.sprintf "Mem.map: overlap at 0x%Lx+%d (%s)" vaddr len name);
  let v = { va_start = vaddr; va_len = len; va_prot = prot; va_file = file; va_name = name } in
  t.vmas <- List.sort (fun a b -> compare a.va_start b.va_start) (v :: t.vmas);
  let first = page_index vaddr in
  for i = 0 to (len / page_size) - 1 do
    Itbl.replace t.pages (first + i)
      { pg_data = Bytes.make page_size '\x00'; pg_prot = prot; pg_gen = 0 }
  done;
  tlb_flush t;
  v

(** Unmap every page in [vaddr, vaddr+len); VMAs fully inside the range are
    removed, partially covered VMAs are split. *)
let unmap t ~vaddr ~len =
  let len = align_up (max len 1) in
  let range_end = Int64.add vaddr (Int64.of_int len) in
  let keep, affected =
    List.partition (fun v -> not (overlaps v.va_start v.va_len vaddr len)) t.vmas
  in
  let fragments =
    List.concat_map
      (fun v ->
        let frags = ref [] in
        (* fragment before the hole *)
        if v.va_start < vaddr then
          frags :=
            { v with va_len = Int64.to_int (Int64.sub vaddr v.va_start) } :: !frags;
        (* fragment after the hole *)
        if vma_end v > range_end then
          frags :=
            {
              v with
              va_start = range_end;
              va_len = Int64.to_int (Int64.sub (vma_end v) range_end);
              va_file =
                (match v.va_file with
                | Some (f, off) ->
                    Some (f, off + Int64.to_int (Int64.sub range_end v.va_start))
                | None -> None);
            }
            :: !frags;
        !frags)
      affected
  in
  t.vmas <- List.sort (fun a b -> compare a.va_start b.va_start) (keep @ fragments);
  let first = page_index vaddr in
  for idx = first to first + (len / page_size) - 1 do
    (match Itbl.find_opt t.pages idx with
    | Some p when p.pg_prot.Self.p_x -> mark_exec_dirty t idx
    | _ -> ());
    Itbl.remove t.pages idx
  done;
  tlb_flush t

let protect t ~vaddr ~len ~prot =
  let len = align_up (max len 1) in
  let range_end = Int64.add vaddr (Int64.of_int len) in
  t.vmas <-
    List.concat_map
      (fun v ->
        if not (overlaps v.va_start v.va_len vaddr len) then [ v ]
        else begin
          (* split into up to three pieces; middle gets the new prot *)
          let pieces = ref [] in
          if v.va_start < vaddr then
            pieces := { v with va_len = Int64.to_int (Int64.sub vaddr v.va_start) } :: !pieces;
          let mid_start = max v.va_start vaddr in
          let mid_end = min (vma_end v) range_end in
          pieces :=
            {
              v with
              va_start = mid_start;
              va_len = Int64.to_int (Int64.sub mid_end mid_start);
              va_prot = prot;
              va_file =
                (match v.va_file with
                | Some (f, off) ->
                    Some (f, off + Int64.to_int (Int64.sub mid_start v.va_start))
                | None -> None);
            }
            :: !pieces;
          if vma_end v > range_end then
            pieces :=
              {
                v with
                va_start = range_end;
                va_len = Int64.to_int (Int64.sub (vma_end v) range_end);
                va_file =
                  (match v.va_file with
                  | Some (f, off) ->
                      Some (f, off + Int64.to_int (Int64.sub range_end v.va_start))
                  | None -> None);
              }
              :: !pieces;
          List.sort (fun a b -> compare a.va_start b.va_start) !pieces
        end)
      t.vmas;
  (* page records are edited in place, so TLB entries stay valid *)
  let first = page_index vaddr in
  for idx = first to first + (len / page_size) - 1 do
    match Itbl.find_opt t.pages idx with
    | Some p ->
        if p.pg_prot.Self.p_x || prot.Self.p_x then mark_exec_dirty t idx;
        p.pg_prot <- prot
    | None -> ()
  done

(* ---------- accesses ---------- *)

let get_page t addr access =
  let p = find_page t (page_index addr) in
  let ok =
    match access with
    | Read -> p.pg_prot.Self.p_r
    | Write -> p.pg_prot.Self.p_w
    | Exec -> p.pg_prot.Self.p_x
  in
  if not ok then raise (Fault (addr, access));
  p

(** Kernel-side lookup: presence only, protections ignored. *)
let present_page t addr access =
  let p = find_page t (page_index addr) in
  if p == no_page then raise (Fault (addr, access));
  p

let read8 t addr =
  let p = get_page t addr Read in
  Char.code (Bytes.get p.pg_data (page_offset addr))

let fetch8 t addr =
  let p = get_page t addr Exec in
  Char.code (Bytes.get p.pg_data (page_offset addr))

let fetch_page t addr = (get_page t addr Exec).pg_data

let store8 t p addr v =
  p.pg_gen <- p.pg_gen + 1;
  if p.pg_prot.Self.p_x then mark_exec_dirty t (page_index addr);
  Bytes.set p.pg_data (page_offset addr) (Char.chr (v land 0xff))

let write8 t addr v = store8 t (get_page t addr Write) addr v

(** Raw write ignoring protections — used only by the loader and by
    checkpoint restore (kernel-side writes). *)
let poke8 t addr v = store8 t (present_page t addr Write) addr v

let peek8 t addr =
  let p = present_page t addr Read in
  Char.code (Bytes.get p.pg_data (page_offset addr))

let read64 t addr =
  (* fast path: within one page *)
  if page_offset addr <= page_size - 8 then (
    let p = get_page t addr Read in
    Bytes.get_int64_le p.pg_data (page_offset addr))
  else (
    let v = ref 0L in
    for i = 7 downto 0 do
      v := Int64.logor (Int64.shift_left !v 8)
             (Int64.of_int (read8 t (Int64.add addr (Int64.of_int i))))
    done;
    !v)

let write64 t addr (v : int64) =
  if page_offset addr <= page_size - 8 then (
    let p = get_page t addr Write in
    p.pg_gen <- p.pg_gen + 1;
    if p.pg_prot.Self.p_x then mark_exec_dirty t (page_index addr);
    Bytes.set_int64_le p.pg_data (page_offset addr) v)
  else
    for i = 0 to 7 do
      write8 t (Int64.add addr (Int64.of_int i))
        (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xffL))
    done

(* Walk [addr, addr+len) one page chunk at a time, in address order:
   [lookup a] checks the chunk's page (raising the fault for its first
   byte [a]) before [f p a pos n] moves the [n] bytes at offset [pos] of
   the range. *)
let iter_chunks lookup addr len f =
  let pos = ref 0 in
  while !pos < len do
    let a = Int64.add addr (Int64.of_int !pos) in
    let p = lookup a in
    let n = min (len - !pos) (page_size - page_offset a) in
    f p a !pos n;
    pos := !pos + n
  done

let load_chunks lookup addr len =
  let b = Bytes.create len in
  iter_chunks lookup addr len (fun p a pos n ->
      Bytes.blit p.pg_data (page_offset a) b pos n);
  b

let store_chunks t lookup addr src off len =
  iter_chunks lookup addr len (fun p a pos n ->
      Bytes.blit src (off + pos) p.pg_data (page_offset a) n;
      p.pg_gen <- p.pg_gen + n;
      if p.pg_prot.Self.p_x then mark_exec_dirty t (page_index a))

let read_bytes t addr len = load_chunks (fun a -> get_page t a Read) addr len

let write_bytes t addr (b : bytes) =
  store_chunks t (fun a -> get_page t a Write) addr b 0 (Bytes.length b)

let poke_blit t addr (src : bytes) ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length src - len then
    invalid_arg "Mem.poke_blit";
  store_chunks t (fun a -> present_page t a Write) addr src off len

let poke_bytes t addr (b : bytes) = poke_blit t addr b ~off:0 ~len:(Bytes.length b)
let peek_bytes t addr len = load_chunks (fun a -> present_page t a Read) addr len

(** Read a NUL-terminated string (bounded at 1 MiB to catch runaways). *)
let read_cstring t addr =
  let b = Buffer.create 32 in
  let rec go i =
    if i > 1_048_576 then failwith "read_cstring: unterminated";
    let c = read8 t (Int64.add addr (Int64.of_int i)) in
    if c = 0 then Buffer.contents b
    else begin
      Buffer.add_char b (Char.chr c);
      go (i + 1)
    end
  in
  go 0

(** Deep copy (fork, checkpoint). *)
let copy t =
  let pages = Itbl.create (Itbl.length t.pages) in
  Itbl.iter
    (fun k p ->
      Itbl.replace pages k
        { pg_data = Bytes.copy p.pg_data; pg_prot = p.pg_prot; pg_gen = p.pg_gen })
    t.pages;
  (* a fresh address space has no cached blocks, so it starts clean, and
     its TLB starts empty so it can never reach the parent's records *)
  of_pages pages t.vmas

(** Populated pages of a VMA, as (vaddr, bytes) in address order. *)
let pages_of_vma t (v : vma) =
  let first = page_index v.va_start in
  let n = v.va_len / page_size in
  List.filter_map
    (fun i ->
      match Itbl.find_opt t.pages (first + i) with
      | Some p -> Some (page_addr (first + i), p.pg_data)
      | None -> None)
    (List.init n Fun.id)

let total_mapped_bytes t = Itbl.length t.pages * page_size

(* ---------- page integrity primitives ---------- *)

(* FNV-1a over raw bytes — same function family as the image seal, but
   local: Mem sits below the criu layer. *)
let digest_bytes (b : bytes) : int64 =
  let h = ref 0xCBF29CE484222325L in
  Bytes.iter
    (fun ch -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code ch))) 0x100000001B3L)
    b;
  !h

(** Digest of the resident page containing [addr]; [None] when the page
    is not populated. *)
let page_digest t addr =
  Option.map
    (fun p -> digest_bytes p.pg_data)
    (Itbl.find_opt t.pages (page_index addr))

(** Write generation of the resident page containing [addr]. *)
let page_gen t addr =
  Option.map (fun p -> p.pg_gen) (Itbl.find_opt t.pages (page_index addr))

(** Flip one bit in a resident page, ignoring protections — the seeded
    silent-corruption injector ([Fault.Bitflip]). Bumps the write
    generation: the generation models hardware-level modification
    telemetry (a dirty bit), which a bit flip trips even though every
    software write path was bypassed. Raises {!Fault} when the page is
    not populated. *)
let flip_bit t ~addr ~bit =
  if bit < 0 || bit > 7 then invalid_arg "Mem.flip_bit: bit outside 0..7";
  let p = present_page t addr Write in
  let off = page_offset addr in
  store8 t p addr (Char.code (Bytes.get p.pg_data off) lxor (1 lsl bit))

(** Find a free, page-aligned gap of [len] bytes at or after [hint]. *)
let find_free t ~hint ~len =
  let len = align_up (max len 1) in
  let rec go addr =
    if List.exists (fun v -> overlaps v.va_start v.va_len addr len) t.vmas then
      let blocker =
        List.find (fun v -> overlaps v.va_start v.va_len addr len) t.vmas
      in
      go (vma_end blocker)
    else addr
  in
  go (page_base (Int64.add hint (Int64.of_int (page_size - 1))))
