(** Differential test of {!Mem} against a naive reference model.

    The reference keeps guest memory as a per-byte map plus per-page
    protections and write generations: no page records, no TLB, no
    blits. Pages are numbered by unsigned division, independently of
    [Mem.page_index]. Random operation sequences run on two address
    spaces of each model (space 1 is replaced by a copy of space 0 on
    [Copy], the fork/checkpoint path), and after every operation the two
    models must agree on the result or fault, on every candidate page's
    write generation and digest, and on the drained executable-dirty
    set. *)

let page_size = 4096
let page (a : int64) = Int64.unsigned_div a 4096L
let base (pg : int64) = Int64.mul pg 4096L
let offset (a : int64) = Int64.to_int (Int64.unsigned_rem a 4096L)

(** Page bases the generator draws from: low pages (page 0 included),
    two that share TLB slots with them, two with bit 63 set and the last
    two pages of the address space, so accesses wrap from there to
    page 0. *)
let pool =
  [|
    0L; 0x1000L; 0x2000L; 0x3000L; 0x10000L; 0x11000L;
    0x8000_0000_0000_0000L; 0x8000_0000_0000_1000L; -8192L; -4096L;
  |]

let candidate_pages =
  Array.to_list pool
  |> List.concat_map (fun b -> [ page b; page (Int64.add b 4096L) ])
  |> List.sort_uniq compare

module Ref = struct
  type t = {
    bytes : (int64, char) Hashtbl.t;  (** address -> byte; absent = 0 *)
    prot : (int64, Self.prot) Hashtbl.t;  (** mapped page -> protection *)
    gen : (int64, int) Hashtbl.t;  (** mapped page -> write generation *)
    dirty : (int64, unit) Hashtbl.t;  (** modified executable pages *)
    digests : (int64, int64) Hashtbl.t;
        (** page -> digest, dropped whenever the page's bytes change *)
  }

  let create () =
    {
      bytes = Hashtbl.create 64;
      prot = Hashtbl.create 8;
      gen = Hashtbl.create 8;
      dirty = Hashtbl.create 8;
      digests = Hashtbl.create 8;
    }

  let copy t =
    {
      bytes = Hashtbl.copy t.bytes;
      prot = Hashtbl.copy t.prot;
      gen = Hashtbl.copy t.gen;
      dirty = Hashtbl.create 8;
      digests = Hashtbl.copy t.digests;
    }

  let pages_of vaddr n = List.init n (fun i -> page (Int64.add vaddr (Int64.of_int (i * page_size))))

  let clear_page t pg =
    Hashtbl.remove t.digests pg;
    for k = 0 to page_size - 1 do
      Hashtbl.remove t.bytes (Int64.add (base pg) (Int64.of_int k))
    done

  let map t vaddr n prot =
    let pgs = pages_of vaddr n in
    if List.exists (Hashtbl.mem t.prot) pgs then invalid_arg "overlap";
    List.iter
      (fun pg ->
        clear_page t pg;
        Hashtbl.replace t.prot pg prot;
        Hashtbl.replace t.gen pg 0)
      pgs

  let unmap t vaddr n =
    List.iter
      (fun pg ->
        match Hashtbl.find_opt t.prot pg with
        | None -> ()
        | Some p ->
            if p.Self.p_x then Hashtbl.replace t.dirty pg ();
            clear_page t pg;
            Hashtbl.remove t.prot pg;
            Hashtbl.remove t.gen pg)
      (pages_of vaddr n)

  let protect t vaddr n prot =
    List.iter
      (fun pg ->
        match Hashtbl.find_opt t.prot pg with
        | None -> ()
        | Some p ->
            if p.Self.p_x || prot.Self.p_x then Hashtbl.replace t.dirty pg ();
            Hashtbl.replace t.prot pg prot)
      (pages_of vaddr n)

  (* [check] = None: kernel-side, presence only *)
  let page_for t a access check =
    match Hashtbl.find_opt t.prot (page a) with
    | Some p when (match check with None -> true | Some ok -> ok p) -> p
    | _ -> raise (Mem.Fault (a, access))

  let byte t a = Char.code (Option.value ~default:'\x00' (Hashtbl.find_opt t.bytes a))

  let load t a access check =
    ignore (page_for t a access check);
    byte t a

  let store t a access check v =
    let p = page_for t a access check in
    let pg = page a in
    Hashtbl.replace t.gen pg (Hashtbl.find t.gen pg + 1);
    if p.Self.p_x then Hashtbl.replace t.dirty pg ();
    Hashtbl.remove t.digests pg;
    Hashtbl.replace t.bytes a (Char.chr (v land 0xff))

  let r = Some (fun p -> p.Self.p_r)
  let w = Some (fun p -> p.Self.p_w)
  let x = Some (fun p -> p.Self.p_x)
  let read8 t a = load t a Mem.Read r
  let write8 t a v = store t a Mem.Write w v
  let fetch8 t a = load t a Mem.Exec x
  let at a i = Int64.add a (Int64.of_int i)

  (* the multi-byte accesses mirror Mem's documented shapes: within a
     page one check and one generation bump; across pages byte by byte *)
  let read64 t a =
    if offset a <= page_size - 8 then begin
      ignore (page_for t a Mem.Read r);
      let v = ref 0L in
      for i = 7 downto 0 do
        v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (byte t (at a i)))
      done;
      !v
    end
    else begin
      let v = ref 0L in
      for i = 7 downto 0 do
        v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (read8 t (at a i)))
      done;
      !v
    end

  let write64 t a v =
    let b i = Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xffL) in
    if offset a <= page_size - 8 then begin
      let p = page_for t a Mem.Write w in
      let pg = page a in
      Hashtbl.replace t.gen pg (Hashtbl.find t.gen pg + 1);
      if p.Self.p_x then Hashtbl.replace t.dirty pg ();
      Hashtbl.remove t.digests pg;
      for i = 0 to 7 do
        Hashtbl.replace t.bytes (at a i) (Char.chr (b i))
      done
    end
    else
      for i = 0 to 7 do
        write8 t (at a i) (b i)
      done

  let load_bytes t a len access check =
    Bytes.init len (fun i -> Char.chr (load t (at a i) access check))

  let store_bytes t a data access check =
    Bytes.iteri (fun i c -> store t (at a i) access check (Char.code c)) data

  let decode t a = Decode.decode (fun i -> fetch8 t (at a i))

  let page_digest t pg =
    if not (Hashtbl.mem t.prot pg) then None
    else
      match Hashtbl.find_opt t.digests pg with
      | Some d -> Some d
      | None ->
          let d =
            Mem.digest_bytes
              (Bytes.init page_size (fun k -> Char.chr (byte t (at (base pg) k))))
          in
          Hashtbl.replace t.digests pg d;
          Some d
end

type op =
  | Map of int * int * int * int  (** space, pool slot, pages, prot bits *)
  | Unmap of int * int * int
  | Protect of int * int * int * int
  | Copy  (** space 1 := copy of space 0 *)
  | Read8 of int * int64
  | Write8 of int * int64 * int
  | Read64 of int * int64
  | Write64 of int * int64 * int64
  | Fetch8 of int * int64
  | Decode of int * int64
  | Read_bytes of int * int64 * int
  | Peek_bytes of int * int64 * int
  | Write_bytes of int * int64 * int * int  (** space, addr, len, pattern *)
  | Poke_bytes of int * int64 * int * int

let show_op = function
  | Map (s, k, n, pr) -> Printf.sprintf "map s%d 0x%Lx %dp prot%d" s pool.(k) n pr
  | Unmap (s, k, n) -> Printf.sprintf "unmap s%d 0x%Lx %dp" s pool.(k) n
  | Protect (s, k, n, pr) -> Printf.sprintf "protect s%d 0x%Lx %dp prot%d" s pool.(k) n pr
  | Copy -> "copy s0 -> s1"
  | Read8 (s, a) -> Printf.sprintf "read8 s%d 0x%Lx" s a
  | Write8 (s, a, v) -> Printf.sprintf "write8 s%d 0x%Lx %d" s a v
  | Read64 (s, a) -> Printf.sprintf "read64 s%d 0x%Lx" s a
  | Write64 (s, a, v) -> Printf.sprintf "write64 s%d 0x%Lx 0x%Lx" s a v
  | Fetch8 (s, a) -> Printf.sprintf "fetch8 s%d 0x%Lx" s a
  | Decode (s, a) -> Printf.sprintf "decode s%d 0x%Lx" s a
  | Read_bytes (s, a, n) -> Printf.sprintf "read_bytes s%d 0x%Lx %d" s a n
  | Peek_bytes (s, a, n) -> Printf.sprintf "peek_bytes s%d 0x%Lx %d" s a n
  | Write_bytes (s, a, n, p) -> Printf.sprintf "write_bytes s%d 0x%Lx %d pat%d" s a n p
  | Poke_bytes (s, a, n, p) -> Printf.sprintf "poke_bytes s%d 0x%Lx %d pat%d" s a n p

let prot_of_bits b = { Self.p_r = b land 4 <> 0; p_w = b land 2 <> 0; p_x = b land 1 <> 0 }

(* opcode-heavy so decoding often gets past the first byte *)
let alphabet = [| 0x02; 0x90; 0x01; 0x30; 0x31; 0x03; 0xCC; 0x00; 0xFF; 0x41; 0x7e |]

let pattern n p = Bytes.init n (fun k -> Char.chr alphabet.((p + (k * 7)) mod Array.length alphabet))

(* mostly accessible, so accesses get past the protection check *)
let gen_prot = QCheck.Gen.(frequency [ (3, return 7); (2, return 5); (2, return 6); (1, int_bound 7) ])
let gen_npages k = QCheck.Gen.(if pool.(k) = -4096L then return 1 else int_range 1 2)

(* One sequence works on a few pool slots, so its maps, accesses,
   unmaps and copies keep meeting the same pages. *)
let gen_op (slots : int array) : op QCheck.Gen.t =
  let open QCheck.Gen in
  let space = int_bound 1 in
  let slot = oneofa slots in
  let region = slot >>= fun k -> map (fun n -> (k, n)) (gen_npages k) in
  let at offsets = map2 (fun k off -> Int64.add pool.(k) (Int64.of_int off)) slot offsets in
  let addr =
    at (frequency [ (3, int_range 0 4095); (2, int_range 4080 4100); (1, int_range (-12) 12) ])
  in
  (* decodes lean on the last bytes of a page, where the fetch window
     stops fitting and the byte-wise fallback takes over *)
  let code_addr = frequency [ (1, addr); (1, at (int_range 4084 4095)) ] in
  let len = frequency [ (3, int_range 0 24); (1, int_range 4000 9000) ] in
  frequency
    [
      (4, map3 (fun s (k, n) pr -> Map (s, k, n, pr)) space region gen_prot);
      (1, map2 (fun s (k, n) -> Unmap (s, k, n)) space region);
      (2, map3 (fun s (k, n) pr -> Protect (s, k, n, pr)) space region gen_prot);
      (1, return Copy);
      (3, map2 (fun s a -> Read8 (s, a)) space addr);
      (3, map3 (fun s a v -> Write8 (s, a, v)) space addr (int_bound 255));
      (3, map2 (fun s a -> Read64 (s, a)) space addr);
      (3, map3 (fun s a v -> Write64 (s, a, v)) space addr ui64);
      (2, map2 (fun s a -> Fetch8 (s, a)) space addr);
      (3, map2 (fun s a -> Decode (s, a)) space code_addr);
      (2, map3 (fun s a n -> Read_bytes (s, a, n)) space addr len);
      (2, map3 (fun s a n -> Peek_bytes (s, a, n)) space addr len);
      (3, map3 (fun s (a, n) p -> Write_bytes (s, a, n, p)) space (pair addr len) (int_bound 10));
      (3, map3 (fun s (a, n) p -> Poke_bytes (s, a, n, p)) space (pair addr len) (int_bound 10));
    ]

(* A sequence starts by mapping its slots in space 0 and filling them
   with instruction bytes, then runs random operations on them. *)
let gen_ops : op list QCheck.Gen.t =
  let open QCheck.Gen in
  array_repeat 3 (int_bound (Array.length pool - 1)) >>= fun slots ->
  let setup k =
    map3
      (fun n pr p -> [ Map (0, k, n, pr); Poke_bytes (0, pool.(k), n * page_size, p) ])
      (gen_npages k) gen_prot (int_bound 10)
  in
  map2
    (fun prefix body -> List.concat prefix @ body)
    (flatten_l (List.map setup (Array.to_list slots)))
    (list_size (int_range 1 60) (gen_op slots))

type outcome =
  | Unit
  | Int of int
  | I64 of int64
  | Str of string
  | Insn of Insn.t * int
  | Fault of int64 * Mem.access
  | Bad_opcode
  | Bad_arg

let show_outcome = function
  | Unit -> "()"
  | Int v -> string_of_int v
  | I64 v -> Printf.sprintf "0x%Lx" v
  | Str s -> Printf.sprintf "%d bytes %Lx" (String.length s) (Mem.digest_bytes (Bytes.of_string s))
  | Insn (i, n) -> Format.asprintf "%a (%d)" Insn.pp i n
  | Fault (a, acc) -> Printf.sprintf "fault 0x%Lx %s" a (Mem.access_to_string acc)
  | Bad_opcode -> "invalid opcode"
  | Bad_arg -> "invalid argument"

let outcome f =
  match f () with
  | v -> v
  | exception Mem.Fault (a, acc) -> Fault (a, acc)
  | exception Decode.Invalid_opcode _ -> Bad_opcode
  | exception Invalid_argument _ -> Bad_arg

let run_real (mems : Mem.t array) op =
  let m s = mems.(s) in
  match op with
  | Map (s, k, n, pr) ->
      ignore (Mem.map (m s) ~vaddr:pool.(k) ~len:(n * page_size) ~prot:(prot_of_bits pr) ~name:"t" ());
      Unit
  | Unmap (s, k, n) -> Mem.unmap (m s) ~vaddr:pool.(k) ~len:(n * page_size); Unit
  | Protect (s, k, n, pr) ->
      Mem.protect (m s) ~vaddr:pool.(k) ~len:(n * page_size) ~prot:(prot_of_bits pr);
      Unit
  | Copy -> mems.(1) <- Mem.copy mems.(0); Unit
  | Read8 (s, a) -> Int (Mem.read8 (m s) a)
  | Write8 (s, a, v) -> Mem.write8 (m s) a v; Unit
  | Read64 (s, a) -> I64 (Mem.read64 (m s) a)
  | Write64 (s, a, v) -> Mem.write64 (m s) a v; Unit
  | Fetch8 (s, a) -> Int (Mem.fetch8 (m s) a)
  | Decode (s, a) ->
      let i, n = Machine.fetch_decode (m s) a in
      Insn (i, n)
  | Read_bytes (s, a, n) -> Str (Bytes.to_string (Mem.read_bytes (m s) a n))
  | Peek_bytes (s, a, n) -> Str (Bytes.to_string (Mem.peek_bytes (m s) a n))
  | Write_bytes (s, a, n, p) -> Mem.write_bytes (m s) a (pattern n p); Unit
  | Poke_bytes (s, a, n, p) ->
      (* a source window at an offset exercises [poke_blit] directly *)
      let src = pattern (n + 3) p in
      Mem.poke_blit (m s) a src ~off:3 ~len:n;
      Unit

let run_ref (refs : Ref.t array) op =
  let m s = refs.(s) in
  match op with
  | Map (s, k, n, pr) -> Ref.map (m s) pool.(k) n (prot_of_bits pr); Unit
  | Unmap (s, k, n) -> Ref.unmap (m s) pool.(k) n; Unit
  | Protect (s, k, n, pr) -> Ref.protect (m s) pool.(k) n (prot_of_bits pr); Unit
  | Copy -> refs.(1) <- Ref.copy refs.(0); Unit
  | Read8 (s, a) -> Int (Ref.read8 (m s) a)
  | Write8 (s, a, v) -> Ref.write8 (m s) a v; Unit
  | Read64 (s, a) -> I64 (Ref.read64 (m s) a)
  | Write64 (s, a, v) -> Ref.write64 (m s) a v; Unit
  | Fetch8 (s, a) -> Int (Ref.fetch8 (m s) a)
  | Decode (s, a) ->
      let i, n = Ref.decode (m s) a in
      Insn (i, n)
  | Read_bytes (s, a, n) -> Str (Bytes.to_string (Ref.load_bytes (m s) a n Mem.Read Ref.r))
  | Peek_bytes (s, a, n) -> Str (Bytes.to_string (Ref.load_bytes (m s) a n Mem.Read None))
  | Write_bytes (s, a, n, p) -> Ref.store_bytes (m s) a (pattern n p) Mem.Write Ref.w; Unit
  | Poke_bytes (s, a, n, p) ->
      Ref.store_bytes (m s) a (Bytes.sub (pattern (n + 3) p) 3 n) Mem.Write None;
      Unit

(* Pages whose digest can have changed since the last comparison, as
   (space, address, pages from there); the rest were already compared and
   neither model has touched them since. *)
let touched = function
  | Map (s, k, n, _) | Unmap (s, k, n) | Protect (s, k, n, _) -> [ (s, pool.(k), n) ]
  | Copy -> List.map (fun pg -> (1, base pg, 1)) candidate_pages
  | Write8 (s, a, _) | Write64 (s, a, _) -> [ (s, a, 2) ]
  | Write_bytes (s, a, n, _) | Poke_bytes (s, a, n, _) -> [ (s, a, (n / page_size) + 2) ]
  | Read8 _ | Read64 _ | Fetch8 _ | Decode _ | Read_bytes _ | Peek_bytes _ -> []

let agree mems refs i op =
  let fail fmt =
    Printf.ksprintf (fun s -> QCheck.Test.fail_reportf "op %d (%s): %s" i (show_op op) s) fmt
  in
  let got = outcome (fun () -> run_real mems op) in
  let want = outcome (fun () -> run_ref refs op) in
  if got <> want then fail "Mem gave %s, reference %s" (show_outcome got) (show_outcome want);
  for s = 0 to 1 do
    List.iter
      (fun pg ->
        let g = Mem.page_gen mems.(s) (base pg) and g' = Hashtbl.find_opt refs.(s).Ref.gen pg in
        if g <> g' then fail "space %d page 0x%Lx: generation differs" s (base pg))
      candidate_pages;
    let dirty = List.sort compare (Mem.take_exec_dirty mems.(s)) in
    let dirty' =
      Hashtbl.fold (fun pg () acc -> Int64.to_int pg :: acc) refs.(s).Ref.dirty []
      |> List.sort compare
    in
    Hashtbl.reset refs.(s).Ref.dirty;
    if dirty <> dirty' then fail "space %d: exec-dirty sets differ" s
  done;
  List.iter
    (fun (s, a, n) ->
      List.iter
        (fun pg ->
          if Mem.page_digest mems.(s) (base pg) <> Ref.page_digest refs.(s) pg then
            fail "space %d page 0x%Lx: digest differs" s (base pg))
        (Ref.pages_of a n))
    (touched op)

let prop_mem_matches_reference =
  QCheck.Test.make ~name:"mem matches a per-byte reference" ~count:200
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_op ops))
       ~shrink:QCheck.Shrink.list
       gen_ops)
    (fun ops ->
      let mems = [| Mem.create (); Mem.create () |] in
      let refs = [| Ref.create (); Ref.create () |] in
      List.iteri (agree mems refs) ops;
      (* every page once more, in case a store landed somewhere its
         operation should not have touched *)
      for sp = 0 to 1 do
        List.iter
          (fun pg ->
            if Mem.page_digest mems.(sp) (base pg) <> Ref.page_digest refs.(sp) pg then
              QCheck.Test.fail_reportf "end: space %d page 0x%Lx: digest differs" sp (base pg))
          candidate_pages
      done;
      true)

let suite = [ QCheck_alcotest.to_alcotest prop_mem_matches_reference ]
