(** Flattened instruction vector with explicit jumps, executed by the
    discrete-event simulator. Control flow depends only on replicated
    scalars, so every processor follows the same path. *)

type finstr =
  | FComm of Instr.call * int
  | FKernel of Zpl.Prog.assign_a
  | FScalar of { lhs : int; rhs : Zpl.Prog.sexpr }
  | FReduce of Zpl.Prog.reduce_s
  | FCollPart of Instr.coll_work
  | FCollFin of Instr.coll_work
  | FJump of int
  | FJumpIfNot of Zpl.Prog.sexpr * int  (** jump when the condition is false *)
  | FHalt

type t = {
  prog : Zpl.Prog.t;
  transfers : Transfer.t array;
  ops : finstr array;
  src_of_op : int array;
      (** per op: the preorder {!Instr.size} position of the source
          instruction it was flattened from (synthetic loop init / test /
          increment / jump ops map to their loop header; [FHalt] to -1) —
          the join key between flat-form diagnostics or per-op execution
          counters and the structured program. *)
}

let flatten (p : Instr.program) : t =
  let buf = ref [] in
  let srcs = ref [] in
  let len = ref 0 in
  let push src i =
    buf := i :: !buf;
    srcs := src :: !srcs;
    incr len
  in
  (* Jump targets are patched after the fact via placeholders; patching
     replaces the op only, so the parallel source list stays aligned. *)
  let rec go pos (code : Instr.instr list) =
    match code with
    | [] -> ()
    | i :: rest ->
        (match i with
        | Instr.Comm (c, x) -> push pos (FComm (c, x))
        | Instr.Kernel a -> push pos (FKernel a)
        | Instr.ScalarK { lhs; rhs } -> push pos (FScalar { lhs; rhs })
        | Instr.ReduceK r -> push pos (FReduce r)
        | Instr.CollPart w -> push pos (FCollPart w)
        | Instr.CollFin w -> push pos (FCollFin w)
        | Instr.Repeat (body, cond) ->
            let start = !len in
            go (pos + 1) body;
            (* repeat..until: loop back while the condition is false *)
            push pos (FJumpIfNot (cond, start))
        | Instr.For { var; lo; hi; step; body } ->
            push pos (FScalar { lhs = var; rhs = lo });
            let head = !len in
            let cond =
              Zpl.Prog.SCompare
                (Zpl.Arith.(if step >= 0 then Le else Ge), Zpl.Prog.SVar var, hi)
            in
            let patch_pos = !len in
            push pos (FJumpIfNot (cond, -1) (* patched below *));
            go (pos + 1) body;
            push pos
              (FScalar
                 { lhs = var;
                   rhs =
                     Zpl.Prog.SArith (`Add, Zpl.Prog.SVar var, Zpl.Prog.SInt step)
                 });
            push pos (FJump head);
            patch patch_pos (FJumpIfNot (cond, !len))
        | Instr.If (cond, then_, else_) ->
            let p1 = !len in
            push pos (FJumpIfNot (cond, -1));
            go (pos + 1) then_;
            if else_ = [] then patch p1 (FJumpIfNot (cond, !len))
            else begin
              let p2 = !len in
              push pos (FJump (-1));
              patch p1 (FJumpIfNot (cond, !len));
              go (pos + 1 + Instr.size_list then_) else_;
              patch p2 (FJump !len)
            end);
        go (pos + Instr.size i) rest
  and patch pos instr =
    (* [buf] is reversed: element at logical index i lives at !len-1-i *)
    buf := List.mapi (fun k x -> if k = !len - 1 - pos then instr else x) !buf
  in
  go 0 p.Instr.code;
  push (-1) FHalt;
  { prog = p.Instr.prog;
    transfers = p.Instr.transfers;
    ops = Array.of_list (List.rev !buf);
    src_of_op = Array.of_list (List.rev !srcs) }

(** Number of collective slots the program uses (0 when no collective
    synthesis ran) — the size of the per-processor slot state the
    simulator must allocate. Scans both the ops (a one-processor mesh
    synthesizes [FCollPart]/[FCollFin] with zero rounds) and the
    transfer table. *)
let coll_slots (f : t) : int =
  let n = ref 0 in
  Array.iter
    (function
      | FCollPart w | FCollFin w -> n := max !n (w.Instr.cw_slot + 1)
      | FComm _ | FKernel _ | FScalar _ | FReduce _ | FJump _ | FJumpIfNot _
      | FHalt ->
          ())
    f.ops;
  Array.iter
    (fun (x : Transfer.t) ->
      match x.Transfer.coll with
      | Some d -> n := max !n (d.Coll.cl_slot + 1)
      | None -> ())
    f.transfers;
  !n
