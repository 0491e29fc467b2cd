(** Per-address-space block store: entry vaddr -> decoded block, plus the
    inverse page index that makes invalidation precise — eviction of a
    dirtied page touches exactly the blocks whose encodings overlap it,
    never the whole cache.

    A cache is pinned to one {!Proc.t} (one address space). Restore,
    respawn and fork all build a fresh process object, so the dispatcher
    detects staleness with one physical-equality check and starts cold —
    no block ever outlives the address space it was decoded from. *)

type t = {
  c_proc : Proc.t;  (** the address space the blocks were decoded from *)
  c_blocks : (int64, Block.t) Hashtbl.t;  (** entry vaddr -> live block *)
  c_by_page : Block.t list ref Mem.Itbl.t;
      (** page index -> blocks whose encoding overlaps the page *)
  mutable c_resume : (Block.t * int * int64) option;
      (** block, slot and rip where the last dispatch stopped mid-block;
          the next one continues there rather than decode a new block *)
}

let create (p : Proc.t) =
  {
    c_proc = p;
    c_blocks = Hashtbl.create 256;
    c_by_page = Mem.Itbl.create 64;
    c_resume = None;
  }

let find c rip =
  match Hashtbl.find_opt c.c_blocks rip with
  | Some b when not b.Block.b_dead -> Some b
  | _ -> None

let insert c (b : Block.t) =
  Hashtbl.replace c.c_blocks b.Block.b_start b;
  Array.iter
    (fun idx ->
      match Mem.Itbl.find_opt c.c_by_page idx with
      | Some l -> l := b :: !l
      | None -> Mem.Itbl.replace c.c_by_page idx (ref [ b ]))
    b.Block.b_pages

let block_count c = Hashtbl.length c.c_blocks

(** Tombstone and unindex every block overlapping the page; returns how
    many died. A block spanning two pages is only counted once — the
    second page's list finds it already dead. *)
let evict_page c idx =
  match Mem.Itbl.find_opt c.c_by_page idx with
  | None -> 0
  | Some l ->
      let n = ref 0 in
      List.iter
        (fun (b : Block.t) ->
          if not b.Block.b_dead then begin
            b.Block.b_dead <- true;
            incr n;
            match Hashtbl.find_opt c.c_blocks b.Block.b_start with
            | Some cur when cur == b -> Hashtbl.remove c.c_blocks b.Block.b_start
            | _ -> ()
          end)
        !l;
      Mem.Itbl.remove c.c_by_page idx;
      !n

(** Tombstone everything; returns how many blocks died. *)
let clear c =
  let n = ref 0 in
  Hashtbl.iter
    (fun _ (b : Block.t) ->
      if not b.Block.b_dead then begin
        b.Block.b_dead <- true;
        incr n
      end)
    c.c_blocks;
  Hashtbl.reset c.c_blocks;
  Mem.Itbl.reset c.c_by_page;
  !n
