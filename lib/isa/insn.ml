(** vx86 instructions.

    The encoding (see {!Encode}) is variable-length, 1-10 bytes, and —
    crucially for DynaCut — opcode [0xCC] is the one-byte trap instruction
    [Int3], so overwriting the *first byte* of any basic block turns it into
    a trap exactly as on x86 (paper §3.2.2). [0x90] is the one-byte [Nop]
    used when wiping needs to keep alignment.

    Displacements and 32-bit immediates are stored as OCaml [int]s but
    encoded as 32-bit two's complement; the encoder rejects out-of-range
    values. *)

type cond =
  | Eq
  | Ne
  | Lt (* signed *)
  | Le
  | Gt
  | Ge
  | Ult (* unsigned *)
  | Ule
  | Ugt
  | Uge

let cond_to_int = function
  | Eq -> 0
  | Ne -> 1
  | Lt -> 2
  | Le -> 3
  | Gt -> 4
  | Ge -> 5
  | Ult -> 6
  | Ule -> 7
  | Ugt -> 8
  | Uge -> 9

let cond_of_int = function
  | 0 -> Eq
  | 1 -> Ne
  | 2 -> Lt
  | 3 -> Le
  | 4 -> Gt
  | 5 -> Ge
  | 6 -> Ult
  | 7 -> Ule
  | 8 -> Ugt
  | 9 -> Uge
  | n -> invalid_arg (Printf.sprintf "cond_of_int: %d" n)

(** Logical negation of a condition, used by the compiler's branch lowering. *)
let cond_negate = function
  | Eq -> Ne
  | Ne -> Eq
  | Lt -> Ge
  | Le -> Gt
  | Gt -> Le
  | Ge -> Lt
  | Ult -> Uge
  | Ule -> Ugt
  | Ugt -> Ule
  | Uge -> Ult

let cond_name = function
  | Eq -> "e"
  | Ne -> "ne"
  | Lt -> "l"
  | Le -> "le"
  | Gt -> "g"
  | Ge -> "ge"
  | Ult -> "b"
  | Ule -> "be"
  | Ugt -> "a"
  | Uge -> "ae"

type t =
  | Nop
  | Int3
  | Hlt
  | Mov_rr of Reg.t * Reg.t (* dst, src *)
  | Mov_ri of Reg.t * int64
  | Load of Reg.t * Reg.t * int (* dst <- [src + disp] (64-bit) *)
  | Store of Reg.t * int * Reg.t (* [dst + disp] <- src (64-bit) *)
  | Load8 of Reg.t * Reg.t * int (* dst <- zx([src + disp], 1 byte) *)
  | Store8 of Reg.t * int * Reg.t (* [dst + disp] <- low byte of src *)
  | Add_rr of Reg.t * Reg.t
  | Add_ri of Reg.t * int
  | Sub_rr of Reg.t * Reg.t
  | Sub_ri of Reg.t * int
  | Imul_rr of Reg.t * Reg.t
  | Idiv_rr of Reg.t * Reg.t (* dst <- dst / src, signed; #DE on zero *)
  | Imod_rr of Reg.t * Reg.t (* dst <- dst mod src, signed; #DE on zero *)
  | And_rr of Reg.t * Reg.t
  | Or_rr of Reg.t * Reg.t
  | Xor_rr of Reg.t * Reg.t
  | Shl_ri of Reg.t * int (* shift count 0..63 *)
  | Shr_ri of Reg.t * int
  | Sar_ri of Reg.t * int
  | Shl_rr of Reg.t * Reg.t
  | Shr_rr of Reg.t * Reg.t
  | Neg of Reg.t
  | Not of Reg.t
  | Cmp_rr of Reg.t * Reg.t
  | Cmp_ri of Reg.t * int
  | Test_rr of Reg.t * Reg.t
  | Jmp of int (* rel to next insn *)
  | Jcc of cond * int
  | Call of int
  | Call_r of Reg.t
  | Jmp_r of Reg.t
  | Ret
  | Push of Reg.t
  | Pop of Reg.t
  | Syscall
  | Lea of Reg.t * int (* dst <- rip_next + disp (PC-relative address) *)

(** Encoded length in bytes; must agree with {!Encode}/{!Decode}. *)
let length = function
  | Nop | Int3 | Hlt | Ret | Syscall -> 1
  | Mov_rr _ | Call_r _ | Jmp_r _ | Push _ | Pop _ | Neg _ | Not _ -> 2
  | Add_rr _ | Sub_rr _ | Imul_rr _ | Idiv_rr _ | Imod_rr _ | And_rr _ | Or_rr _
  | Xor_rr _ | Cmp_rr _ | Test_rr _ | Shl_rr _ | Shr_rr _ ->
      2
  | Shl_ri _ | Shr_ri _ | Sar_ri _ -> 3
  | Jmp _ | Call _ -> 5
  | Jcc _ -> 6
  | Lea _ -> 6
  | Add_ri _ | Sub_ri _ | Cmp_ri _ -> 6
  | Load _ | Store _ | Load8 _ | Store8 _ -> 7
  | Mov_ri _ -> 10

(** The longest encoding, in bytes. *)
let max_length = 10

(** Does this instruction end a basic block? Mirrors drcov's notion: any
    control transfer terminates the current block. *)
let is_block_end = function
  | Jmp _ | Jcc _ | Call _ | Call_r _ | Jmp_r _ | Ret | Syscall | Hlt | Int3 ->
      true
  | _ -> false

let pp fmt t =
  let f = Format.fprintf in
  match t with
  | Nop -> f fmt "nop"
  | Int3 -> f fmt "int3"
  | Hlt -> f fmt "hlt"
  | Mov_rr (d, s) -> f fmt "mov %a, %a" Reg.pp d Reg.pp s
  | Mov_ri (d, i) -> f fmt "mov %a, %Ld" Reg.pp d i
  | Load (d, s, o) -> f fmt "mov %a, [%a%+d]" Reg.pp d Reg.pp s o
  | Store (d, o, s) -> f fmt "mov [%a%+d], %a" Reg.pp d o Reg.pp s
  | Load8 (d, s, o) -> f fmt "movzx %a, byte [%a%+d]" Reg.pp d Reg.pp s o
  | Store8 (d, o, s) -> f fmt "mov byte [%a%+d], %a" Reg.pp d o Reg.pp s
  | Add_rr (d, s) -> f fmt "add %a, %a" Reg.pp d Reg.pp s
  | Add_ri (d, i) -> f fmt "add %a, %d" Reg.pp d i
  | Sub_rr (d, s) -> f fmt "sub %a, %a" Reg.pp d Reg.pp s
  | Sub_ri (d, i) -> f fmt "sub %a, %d" Reg.pp d i
  | Imul_rr (d, s) -> f fmt "imul %a, %a" Reg.pp d Reg.pp s
  | Idiv_rr (d, s) -> f fmt "idiv %a, %a" Reg.pp d Reg.pp s
  | Imod_rr (d, s) -> f fmt "imod %a, %a" Reg.pp d Reg.pp s
  | And_rr (d, s) -> f fmt "and %a, %a" Reg.pp d Reg.pp s
  | Or_rr (d, s) -> f fmt "or %a, %a" Reg.pp d Reg.pp s
  | Xor_rr (d, s) -> f fmt "xor %a, %a" Reg.pp d Reg.pp s
  | Shl_ri (d, n) -> f fmt "shl %a, %d" Reg.pp d n
  | Shr_ri (d, n) -> f fmt "shr %a, %d" Reg.pp d n
  | Sar_ri (d, n) -> f fmt "sar %a, %d" Reg.pp d n
  | Shl_rr (d, s) -> f fmt "shl %a, %a" Reg.pp d Reg.pp s
  | Shr_rr (d, s) -> f fmt "shr %a, %a" Reg.pp d Reg.pp s
  | Neg r -> f fmt "neg %a" Reg.pp r
  | Not r -> f fmt "not %a" Reg.pp r
  | Cmp_rr (a, b) -> f fmt "cmp %a, %a" Reg.pp a Reg.pp b
  | Cmp_ri (a, i) -> f fmt "cmp %a, %d" Reg.pp a i
  | Test_rr (a, b) -> f fmt "test %a, %a" Reg.pp a Reg.pp b
  | Jmp d -> f fmt "jmp %+d" d
  | Jcc (c, d) -> f fmt "j%s %+d" (cond_name c) d
  | Call d -> f fmt "call %+d" d
  | Call_r r -> f fmt "call %a" Reg.pp r
  | Jmp_r r -> f fmt "jmp %a" Reg.pp r
  | Ret -> f fmt "ret"
  | Push r -> f fmt "push %a" Reg.pp r
  | Pop r -> f fmt "pop %a" Reg.pp r
  | Syscall -> f fmt "syscall"
  | Lea (d, o) -> f fmt "lea %a, [rip%+d]" Reg.pp d o

let to_string t = Format.asprintf "%a" pp t
