(** Final SPMD communication IR: structured code whose communication has
    been lowered to the four IRONMAN calls of the paper (Section 3.1):

    - [DR] — destination ready to receive transmission,
    - [SR] — source ready for transmission,
    - [DN] — transmitted data needed at destination,
    - [SV] — transmission must be completed at the source.

    At "link time" (simulation setup) these calls are mapped to concrete
    primitives or no-ops per machine library (Figure 5 of the paper). *)

type call = DR | SR | DN | SV [@@deriving show, eq, ord]

let call_name = function DR -> "DR" | SR -> "SR" | DN -> "DN" | SV -> "SV"

(** The local bookends of one synthesized collective (see {!Coll}): the
    rounds between a [CollPart] and its [CollFin] carry scalar partials
    through slot [cw_slot]. [CollPart] computes this processor's local
    partial of the original reduction; [CollFin] publishes the finished
    value into the reduction's scalar. *)
type coll_work = {
  cw_red : Zpl.Prog.reduce_s;  (** the reduction being synthesized *)
  cw_slot : int;  (** which collective slot of the program *)
  cw_alg : Coll.alg;
}

type instr =
  | Comm of call * int  (** transfer id *)
  | Kernel of Zpl.Prog.assign_a
  | ScalarK of { lhs : int; rhs : Zpl.Prog.sexpr }
  | ReduceK of Zpl.Prog.reduce_s
  | CollPart of coll_work  (** local partial into a collective slot *)
  | CollFin of coll_work  (** finished collective value into the scalar *)
  | Repeat of instr list * Zpl.Prog.sexpr
  | For of { var : int; lo : Zpl.Prog.sexpr; hi : Zpl.Prog.sexpr; step : int; body : instr list }
  | If of Zpl.Prog.sexpr * instr list * instr list

type program = {
  prog : Zpl.Prog.t;
  transfers : Transfer.t array;  (** indexed by transfer id *)
  code : instr list;
}

(* ------------------------------------------------------------------ *)
(* Stable instruction numbering                                        *)
(* ------------------------------------------------------------------ *)

(** Number of stable instruction indices occupied by one instruction:
    itself plus, for structured instructions, its body. Indices are
    assigned in preorder — a header before its body, a then-arm before
    its else-arm — so an instruction list starting at index [k] places
    instruction [i] at [k + size of everything before i]. The numbering
    is the shared coordinate system of [Printer] (annotated dumps) and
    [Analysis] (schedcheck diagnostics): both walk in preorder, so an
    [ir#N] position in a diagnostic is the [N:]-prefixed line of
    [zplc dump --stage ir]. *)
let rec size = function
  | Comm _ | Kernel _ | ScalarK _ | ReduceK _ | CollPart _ | CollFin _ -> 1
  | Repeat (body, _) -> 1 + size_list body
  | For { body; _ } -> 1 + size_list body
  | If (_, a, b) -> 1 + size_list a + size_list b

and size_list (is : instr list) = List.fold_left (fun n i -> n + size i) 0 is

(* ------------------------------------------------------------------ *)
(* Emission from the optimizer's block form                            *)
(* ------------------------------------------------------------------ *)

let work_to_instr = function
  | Block.WKernel a -> Kernel a
  | Block.WScalar { lhs; rhs } -> ScalarK { lhs; rhs }
  | Block.WReduce r -> ReduceK r

(** Emit one basic block: DR of each live transfer goes immediately
    before work item [ready_pos], SR before [send_pos], DN and SV before
    [recv_pos]. At equal positions the order is: all DRs (readiness
    notifications first, so rendezvous partners stall minimally), then
    SRs, then DN/SV pairs, each group ordered by uid — every processor
    emits the same sequence, the SPMD property that makes the
    rendezvous-based bindings deadlock-free. *)
let emit_block (fresh : int list -> int * int -> int) (b : Block.block) :
    instr list =
  let xs = Block.live_xfers b in
  let ids = List.map (fun (x : Block.xfer) -> (x, fresh x.arrays x.off)) xs in
  let n = Array.length b.work in
  let out = ref [] in
  let push i = out := i :: !out in
  for pos = 0 to n do
    List.iter
      (fun ((x : Block.xfer), id) ->
        if x.ready_pos = pos then push (Comm (DR, id)))
      ids;
    List.iter
      (fun ((x : Block.xfer), id) ->
        if x.send_pos = pos then push (Comm (SR, id)))
      ids;
    List.iter
      (fun ((x : Block.xfer), id) ->
        if x.recv_pos = pos then begin
          push (Comm (DN, id));
          push (Comm (SV, id))
        end)
      ids;
    if pos < n then push (work_to_instr b.work.(pos))
  done;
  List.rev !out

(** Lower optimized block code to the final IR, assigning dense transfer
    ids in emission order. *)
let of_code (prog : Zpl.Prog.t) (code : Block.code) : program =
  let table = ref [] in
  let next = ref 0 in
  let fresh arrays off =
    let id = !next in
    incr next;
    table := { Transfer.id; arrays; off; coll = None } :: !table;
    id
  in
  let rec go (code : Block.code) : instr list =
    List.concat_map
      (function
        | Block.Straight b -> emit_block fresh b
        | Block.CRepeat (body, cond) -> [ Repeat (go body, cond) ]
        | Block.CFor { var; lo; hi; step; body } ->
            [ For { var; lo; hi; step; body = go body } ]
        | Block.CIf (cond, a, b) -> [ If (cond, go a, go b) ])
      code
  in
  let code = go code in
  { prog; transfers = Array.of_list (List.rev !table); code }
