(** The five communication primitive sets of the paper and their IRONMAN
    bindings (Figure 5):

    {v
    IRONMAN call | NX csend/crecv | NX async     | NX callback | PVM      | SHMEM
    DR           | no-op          | irecv        | hprobe      | no-op    | synch
    SR           | csend          | isend        | hsend       | pvm_send | shmem_put
    DN           | crecv          | msgwait      | hrecv       | pvm_recv | synch
    SV           | no-op          | msgwait      | msgwait     | no-op    | no-op
    v}

    Each binding is given an executable semantics the simulator interprets:

    - [No_op] — compiled away at link time.
    - [Post_recv] — pre-register the receive buffer (async NX / callback):
      arriving data can land directly, so DN pays no per-byte copy.
    - [Notify_ready] — SHMEM's prototype synchronization: tell each
      upstream partner this processor's fringe buffer is ready.
    - [Send_buffered] — copy into a system buffer and launch; the sender
      continues as soon as its CPU work is done (csend, isend, pvm_send).
    - [Send_rendezvous] — one-sided put: wait for each downstream
      partner's ready token, then write directly into its fringe. The wait
      is the "unnecessarily heavy-weight" synchronization the paper blames
      for SHMEM's losses on serialized codes.
    - [Wait_data] — block until all partner messages for this transfer
      instance have arrived, then pay unpack costs (crecv, pvm_recv,
      msgwait, hrecv, SHMEM's completion synch).
    - [Wait_send_done] — block until the local send has drained (msgwait
      on the source side). *)

type call_sem =
  | No_op
  | Post_recv
  | Notify_ready
  | Send_buffered
  | Send_rendezvous
  | Wait_data
  | Wait_send_done
[@@deriving show, eq]

type kind = NX_sync | NX_async | NX_callback | PVM | SHMEM
[@@deriving show, eq, ord]

type t = { kind : kind; costs : Params.lib_costs }

let kind_name = function
  | NX_sync -> "csend/crecv"
  | NX_async -> "isend/irecv"
  | NX_callback -> "hsend/hrecv"
  | PVM -> "PVM"
  | SHMEM -> "SHMEM"

(** The Figure 5 table: the primitive each IRONMAN call maps to in a
    library, with its executable semantics. *)
let figure5 kind (call : Ir.Instr.call) : string * call_sem =
  let dr, sr, dn, sv =
    match kind with
    | NX_sync ->
        ( ("no-op", No_op), ("csend", Send_buffered), ("crecv", Wait_data),
          ("no-op", No_op) )
    | NX_async ->
        ( ("irecv", Post_recv), ("isend", Send_buffered),
          ("msgwait", Wait_data), ("msgwait", Wait_send_done) )
    | NX_callback ->
        ( ("hprobe", Post_recv), ("hsend", Send_buffered), ("hrecv", Wait_data),
          ("msgwait", Wait_send_done) )
    | PVM ->
        ( ("no-op", No_op), ("pvm_send", Send_buffered),
          ("pvm_recv", Wait_data), ("no-op", No_op) )
    | SHMEM ->
        ( ("synch", Notify_ready), ("shmem_put", Send_rendezvous),
          ("synch", Wait_data), ("no-op", No_op) )
  in
  match call with
  | Ir.Instr.DR -> dr
  | Ir.Instr.SR -> sr
  | Ir.Instr.DN -> dn
  | Ir.Instr.SV -> sv

(** The primitive name each IRONMAN call maps to. *)
let primitive_name kind call = fst (figure5 kind call)

(** Executable semantics of each binding. *)
let semantics kind call = snd (figure5 kind call)

(** One-sided puts deposit straight into the destination fringe: no
    receive-side unpack. *)
let deposits_directly = function
  | SHMEM -> true
  | NX_sync | NX_async | NX_callback | PVM -> false
