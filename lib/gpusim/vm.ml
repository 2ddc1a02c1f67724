(** Pre-decoded executable form of a PTX kernel and its multicore
    executor.

    The back half of the simulated driver JIT.  [compile] lowers a
    validated kernel into a flat program: named opcodes with operand
    *indices* in four parallel arrays, labels compacted away (branch
    targets are instruction indices), and immediates promoted into
    constant-pool slots appended to the register files — so the hot loop
    is a jump table over plain array reads, with no closures and no
    per-operand dispatch.  Every program also decodes to a plan (see
    [plan]) for the one executor: each cta runs in consecutive groups of
    [group_lanes] lanes, lock-step over structure-of-arrays register
    rows (floats: f32 then f64; ints: s32/u32/s64/u64 concatenated;
    predicates), and forward branches are predicated — lanes that take
    a branch park at its target and rejoin the active set there.

    [run_grid] executes the grid either sequentially or split across
    {!Vm_backend} workers in whole-cta chunks.  A decode-time provenance
    analysis classifies every global access (uniform / affine-in-thread-
    index / via-sitelist / gathered); launches whose stores all target
    the issuing work item's own slot — and whose same-buffer read-backs
    stay within the radix-8 reduction-tail contract — may split, because
    chunks then touch disjoint output ranges and the result is
    bit-identical to the sequential sweep.  Anything else (e.g. the
    in-place [p = shift p] gather) runs sequentially, in groups of one
    lane.  Chunk boundaries are aligned to multiples of 8 work items so
    a reduction tail always aggregates partials its own chunk wrote.
    Faults are recorded per worker and the lowest (ctaid, tid) fault is
    re-raised on the launching thread, enriched with kernel name and
    thread coordinates, so error reporting stays deterministic.

    Modeling note: f32 register arithmetic is performed in double and
    rounded only when stored through an f32 buffer — the same convention
    the CPU reference evaluator uses — which makes CPU-vs-JIT
    comparisons exact instead of differing in f32 rounding of
    intermediates.  Real Kepler hardware rounds every f32 operation; the
    difference is far below the tolerances of any physics in this
    library. *)

type param_value = Ptr of Buffer.t | Int of int | Float of float

exception Fault of string

let fault fmt = Printf.ksprintf (fun s -> raise (Fault s)) fmt

open Ptx.Types

(* ------------------------------------------------------------------ *)
(* Opcodes.  Constant constructors are immediates, so a [match] on an
   [op] still compiles to a jump table.  Operands live in [ca]..[cd]:

   Halt (ret)
   Fadd Fsub Fmul Fdiv    f[a] <- f[b] op f[c]
   Ffma                   f[a] <- f[b]*f[c] +. f[d]     Fneg  f[a] <- -f[b]
   Iadd Isub Imul Idiv    i[a] <- i[b] op i[c]          (Idiv faults on 0)
   Ifma                   i[a] <- i[b]*i[c] + i[d]      Ineg  i[a] <- -i[b]
   Ishl                   i[a] <- i[b] lsl c (literal)
   Fmov Imov              copy b to a
   Fround32 Itof Ftoi     cvt.f32 (round to single), int->float, float->int
   Fset_* Iset_*          p[a] <- f/i[b] cmp f/i[c]     (eq ne lt le gt ge)
   Jmp                    pc <- a
   Jmp_if                 if p[a] then pc <- b
   Rd_tid Rd_ntid Rd_ctaid Rd_nctaid                    i[a] <- sreg
   Param_ptr Param_int Param_float                      a <- param slot b
   Ld_f32 Ld_f64 Ld_i32 Ld_f16    a <- mem[i[b] + c]
   St_f32 St_f64 St_i32 St_f16    mem[i[a] + b] <- reg c
   Call_f64 Call_f32      f[a] <- fns[c] f[b]           (f32 rounds the result)

   binary16 payloads decode exactly on load; stores round to nearest,
   ties to even — the same convention [Field.raw_set] uses, so CPU and
   VM runs of an f16 kernel stay bit-identical. *)

type op =
  | Halt
  | Fadd | Fsub | Fmul | Fdiv | Ffma | Fneg
  | Iadd | Isub | Imul | Idiv | Ifma | Ishl | Ineg
  | Fmov | Imov | Fround32 | Itof | Ftoi
  | Fset_eq | Fset_ne | Fset_lt | Fset_le | Fset_gt | Fset_ge
  | Iset_eq | Iset_ne | Iset_lt | Iset_le | Iset_gt | Iset_ge
  | Jmp | Jmp_if
  | Rd_tid | Rd_ntid | Rd_ctaid | Rd_nctaid
  | Param_ptr | Param_int | Param_float
  | Ld_f32 | Ld_f64 | Ld_i32 | St_f32 | St_f64 | St_i32
  | Call_f64 | Call_f32 | Ld_f16 | St_f16

let is_ctrl = function Halt | Jmp | Jmp_if -> true | _ -> false
let is_store = function St_f32 | St_f64 | St_i32 | St_f16 -> true | _ -> false
let is_mem o = is_store o || match o with Ld_f32 | Ld_f64 | Ld_i32 | Ld_f16 -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Static provenance of global accesses, used to decide whether a launch
   may be split across workers.  Classes form a lattice ordered by how
   little we know about the address:

   - [Uniform]: same for every thread (params, nctaid, constants).
   - [Affine]:  derived from tid/ctaid arithmetic — the canonical
     "my own work item" indexing of generated streaming kernels.
   - [Slist]:   loaded from a parameter named [sitelist*] at an affine
     index — the subset indirection; injective by construction.
   - [Gather]:  any other memory-derived value (neighbour tables,
     arbitrary indirection). *)

type access_class = Uniform | Affine | Slist | Gather

type access = {
  a_param : int;  (** param slot the address derives from; -1 unknown *)
  a_class : access_class;
  a_store : bool;
}

(* ------------------------------------------------------------------ *)
(* Execution plan: decode-time structure for the executor.

   A *join point* is the target of a branch that does not land on a
   [ret] (branches to [ret] just retire their lanes).  A *span* is a
   maximal run of non-control instructions that no join point
   interrupts: [span_end.(k)] is the index of the next control
   instruction ([ret]/[bra]/[bra.pred]) or join point after [k], so a
   span starting at a non-control [k] covers [k, span_end.(k)).
   [join.(k)] marks the join points.

   Each span is further partitioned into fused dispatch *units*:

   - a *chain*: a maximal mixed run of lane-local ALU work — float and
     integer arithmetic, address mad/shl/add chains, cvt, setp, mov,
     sreg and parameter reads, math calls.  One fault scope and one
     dispatch per chain; the per-instruction inner loops walk the lanes
     in [lane_block]-wide unrolled blocks on the dense fast path.  Only
     lane-uniform faults can occur inside a chain (parameter-class
     mismatches), so a single [try] per unit suffices.
   - a *memory-terminated chain*: a chain whose last instruction is a
     global load/store.  The terminator executes column-resident: lane
     addresses are snapshotted into a scratch column, the buffer is
     resolved *once* for the whole group, and the gather/scatter runs as
     a tight per-lane loop, falling back to the per-lane slow path
     (bit-identical fault reporting) on any cross-buffer divergence.
   - an *island*: a single per-lane-faultable non-memory op (integer
     division), kept under its own per-lane fault handler.

   [u_end.(s)]/[u_kind.(s)] are valid at unit-start indices [s] and give
   the unit's end (exclusive) and kind.  [width] is the lane-group width
   the program runs at when its launch is [parallel_ok]: [group_lanes],
   or 1 when some branch goes backward (a loop), because lock-step
   predication needs every lane's path to move forward through the
   text.  The counters summarize the plan for the dispatch-rate metric:
   [s_spans] spans containing [s_covered] instructions in [s_units]
   fused dispatch units. *)

type ukind = Chain | Mem_chain | Island

type plan = {
  span_end : int array;
  join : bool array;
  u_end : int array;
  u_kind : ukind array;
  width : int;
  s_spans : int;
  s_units : int;
  s_covered : int;
}

(* Lanes per group.  Register rows are [group_lanes] wide whatever the
   launch block, so a program's per-worker register file is bounded by
   its register count alone; EXPERIMENTS.md "Lane-group width" has the
   vmperf sweep behind the value. *)
let group_lanes = 64

(* Per-worker register rows: one row of [group_lanes] lanes per
   register, constant pools broadcast across their rows once at
   allocation.
   [act] holds the sorted ids of the lanes running at the current pc
   (faulted lanes, lanes that took an exit branch and parked lanes are
   removed).  [park.(l)] is the join point lane [l] waits at, or -1 (a
   group only ends once every parked lane has merged, so [park] is all
   -1 between groups);
   [mrg] is the scratch the join merge builds the new active set in.
   [sa] is the address scratch column for memory-terminated units:
   lane addresses are snapshotted there before the gather/scatter runs,
   which makes the column pass restartable (the slow fallback re-reads
   the same addresses even when a load's destination aliases its
   address register). *)
type soa_ctx = {
  sf : float array;
  si : int array;
  sp : bool array;
  act : int array;
  park : int array;
  mrg : int array;
  sa : int array;
}

type program = {
  kernel : kernel;
  co : op array;  (** opcodes *)
  ca : int array;
  cb : int array;
  cc : int array;
  cd : int array;  (** operand indices / literals *)
  nfreg : int;
  nireg : int;
  npred : int;
  fpool : float array;  (** float constants, installed at [nfreg..] *)
  ipool : int array;  (** int constants, installed at [nireg..] *)
  fns : (float -> float) array;  (** call targets *)
  accesses : access array;
  plan : plan;
  mutable soa_slots : soa_ctx array;  (** per-worker register rows, reused *)
}

type soa_stats = { spans : int; units : int; covered : int; total : int }

let superinsn_stats p =
  let s = p.plan in
  { spans = s.s_spans; units = s.s_units; covered = s.s_covered; total = Array.length p.co }

let max_reg_ids body =
  let tbl = Hashtbl.create 8 in
  let see r =
    let cur = try Hashtbl.find tbl r.rtype with Not_found -> -1 in
    if r.id > cur then Hashtbl.replace tbl r.rtype r.id
  in
  List.iter
    (fun i ->
      Option.iter see (Ptx.Dataflow.def_of i);
      List.iter see (Ptx.Dataflow.uses_of i))
    body;
  tbl

let math_functions : (string * (float -> float)) list =
  [
    ("sin", sin);
    ("cos", cos);
    ("tan", tan);
    ("exp", exp);
    ("log", log);
    ("sqrt", sqrt);
    ("rsqrt", fun x -> 1.0 /. sqrt x);
    ("fabs", abs_float);
    ("asin", asin);
    ("acos", acos);
    ("atan", atan);
  ]

let lookup_math func =
  (* Subroutine names: qdpjit_<fn>_<f32|f64>. *)
  let known =
    List.find_opt
      (fun (n, _) -> "qdpjit_" ^ n ^ "_f32" = func || "qdpjit_" ^ n ^ "_f64" = func)
      math_functions
  in
  match known with Some (_, f) -> f | None -> fault "unknown math subroutine %S" func

(* ------------------------------------------------------------------ *)
(* Provenance analysis: a forward fixpoint over the body (generated
   kernels only branch forward, so this converges in a couple of
   passes).  Tracks per register (class, defining pointer param). *)

let rank = function Uniform -> 0 | Affine -> 1 | Slist -> 2 | Gather -> 3
let join a b = if rank a >= rank b then a else b

let analyze (k : kernel) =
  let params = Array.of_list k.params in
  let is_sitelist_param i =
    i >= 0
    && i < Array.length params
    &&
    let n = params.(i).pname in
    String.length n >= 8 && String.sub n 0 8 = "sitelist"
  in
  let prov : (dtype * int, access_class) Hashtbl.t = Hashtbl.create 64 in
  let base : (dtype * int, int option) Hashtbl.t = Hashtbl.create 16 in
  let changed = ref true in
  let getp r = match Hashtbl.find_opt prov (r.rtype, r.id) with Some c -> c | None -> Uniform in
  let getb r = match Hashtbl.find_opt base (r.rtype, r.id) with Some b -> b | None -> None in
  let setp_ r c =
    if rank c > rank (getp r) then begin
      Hashtbl.replace prov (r.rtype, r.id) c;
      changed := true
    end
  in
  (* Base lattice: unseen -> Some slot -> None (conflicting or derived). *)
  let setb r b =
    let key = (r.rtype, r.id) in
    match Hashtbl.find_opt base key with
    | None -> if b <> None then (Hashtbl.replace base key b; changed := true)
    | Some cur when cur = b -> ()
    | Some None -> ()
    | Some (Some _) ->
        Hashtbl.replace base key None;
        changed := true
  in
  let op_prov = function Reg r -> getp r | Imm_float _ | Imm_int _ -> Uniform in
  let op_base = function Reg r -> getb r | Imm_float _ | Imm_int _ -> None in
  let merge_base a b =
    match (a, b) with
    | (Some _ as p), None | None, (Some _ as p) -> p
    | None, None | Some _, Some _ -> None
  in
  let step instr =
    match instr with
    | Label _ | Ret | Bra _ | Setp _ | St_global _ | St_global_f16 _ -> ()
    | Ld_param { dst; param_index } ->
        setb dst
          (if
             param_index >= 0
             && param_index < Array.length params
             && params.(param_index).ptype = U64
           then Some param_index
           else None)
    | Mov { dst; src } ->
        setp_ dst (op_prov src);
        setb dst (op_base src)
    | Mov_sreg { dst; src } -> (
        match src with Tid_x | Ctaid_x -> setp_ dst Affine | Ntid_x | Nctaid_x -> ())
    | Add { dst; a; b; _ } ->
        setp_ dst (join (op_prov a) (op_prov b));
        setb dst (merge_base (op_base a) (op_base b))
    | Sub { dst; a; b; _ } | Mul { dst; a; b; _ } | Div { dst; a; b; _ } ->
        setp_ dst (join (op_prov a) (op_prov b))
    | Fma { dst; a; b; c; _ } -> setp_ dst (join (op_prov a) (join (op_prov b) (op_prov c)))
    | Shl { dst; a; _ } | Neg { dst; a; _ } -> setp_ dst (op_prov a)
    | Cvt { dst; src } ->
        setp_ dst (getp src);
        setb dst (getb src)
    | Call { ret; arg; _ } -> setp_ ret (getp arg)
    | Ld_global { dst; addr; _ } | Ld_global_f16 { dst; addr; _ } ->
        let cls =
          match getb addr with
          | Some p when is_sitelist_param p && rank (getp addr) <= rank Affine -> Slist
          | _ -> Gather
        in
        setp_ dst cls
  in
  while !changed do
    changed := false;
    List.iter step k.body
  done;
  let accs = ref [] in
  List.iter
    (fun instr ->
      match instr with
      | Ld_global { addr; _ } | Ld_global_f16 { addr; _ } ->
          accs :=
            {
              a_param = (match getb addr with Some p -> p | None -> -1);
              a_class = getp addr;
              a_store = false;
            }
            :: !accs
      | St_global { addr; _ } | St_global_f16 { addr; _ } ->
          accs :=
            {
              a_param = (match getb addr with Some p -> p | None -> -1);
              a_class = getp addr;
              a_store = true;
            }
            :: !accs
      | _ -> ())
    k.body;
  Array.of_list (List.rev !accs)

(* ------------------------------------------------------------------ *)
(* Planning.  Every program gets a plan.  A branch whose target is a
   [ret] (or the end of the text, which retires a lane the same way)
   retires the lanes that take it; any other target is a join point and
   ends the span before it.  A branch to a target at or before itself
   closes a loop, so the program runs in groups of one lane.  Units
   partition each span: everything except integer division fuses into
   mixed chains; a global load/store terminates the chain it feeds
   (absorbing its address arithmetic) as a memory-terminated unit, and
   div.i sits in a one-instruction island under its own per-lane fault
   handler. *)

let is_halt = function Halt -> true | _ -> false
let is_idiv = function Idiv -> true | _ -> false
let exits co t = t >= Array.length co || is_halt co.(t)

let plan co ca cb =
  let n = Array.length co in
  let join = Array.make n false and width = ref group_lanes in
  Array.iteri
    (fun k o ->
      let target t =
        if t <= k then width := 1;
        if not (exits co t) then join.(t) <- true
      in
      match o with Jmp -> target ca.(k) | Jmp_if -> target cb.(k) | _ -> ())
    co;
  let span_end = Array.make n n in
  let next = ref n in
  for k = n - 1 downto 0 do
    span_end.(k) <- !next;
    if is_ctrl co.(k) || join.(k) then next := k
  done;
  let u_end = Array.make n 0 and u_kind = Array.make n Chain in
  let spans = ref 0 and units = ref 0 and covered = ref 0 in
  let k = ref 0 in
  while !k < n do
    if is_ctrl co.(!k) then incr k
    else begin
      let e = span_end.(!k) in
      incr spans;
      covered := !covered + (e - !k);
      let j = ref !k in
      while !j < e do
        let s = !j in
        if is_idiv co.(s) then begin
          u_end.(s) <- s + 1;
          u_kind.(s) <- Island;
          j := s + 1
        end
        else begin
          let q = ref s and stop = ref false and kind = ref Chain in
          while (not !stop) && !q < e do
            let o = co.(!q) in
            if is_idiv o then stop := true
            else if is_mem o then begin
              incr q;
              kind := Mem_chain;
              stop := true
            end
            else incr q
          done;
          u_end.(s) <- !q;
          u_kind.(s) <- !kind;
          j := !q
        end;
        incr units
      done;
      k := e
    end
  done;
  {
    span_end;
    join;
    u_end;
    u_kind;
    width = !width;
    s_spans = !spans;
    s_units = !units;
    s_covered = !covered;
  }

(* ------------------------------------------------------------------ *)
(* Decode. *)

let compile (kernel : kernel) =
  Ptx.Validate.kernel kernel;
  let tbl = max_reg_ids kernel.body in
  let cnt dt = match Hashtbl.find_opt tbl dt with Some m -> m + 1 | None -> 0 in
  let nf32 = cnt F32 and nf64 = cnt F64 in
  let ns32 = cnt S32 and nu32 = cnt U32 and ns64 = cnt S64 and nu64 = cnt U64 in
  let npred = max 1 (cnt Pred) in
  let nfreg = nf32 + nf64 and nireg = ns32 + nu32 + ns64 + nu64 in
  let freg r =
    match r.rtype with
    | F32 -> r.id
    | F64 -> nf32 + r.id
    | _ -> invalid_arg "Vm: float access to integer class"
  in
  let ireg r =
    match r.rtype with
    | S32 -> r.id
    | U32 -> ns32 + r.id
    | S64 -> ns32 + nu32 + r.id
    | U64 -> ns32 + nu32 + ns64 + r.id
    | _ -> invalid_arg "Vm: integer access to float class"
  in
  (* Immediates become constant-pool slots past the register files, so
     every operand is a plain index into the same flat file. *)
  let fpool = ref [] and fpool_n = ref 0 and fpool_tbl = Hashtbl.create 8 in
  let fconst v =
    let key = Int64.bits_of_float v in
    match Hashtbl.find_opt fpool_tbl key with
    | Some slot -> slot
    | None ->
        let slot = nfreg + !fpool_n in
        incr fpool_n;
        fpool := v :: !fpool;
        Hashtbl.add fpool_tbl key slot;
        slot
  in
  let ipool = ref [] and ipool_n = ref 0 and ipool_tbl = Hashtbl.create 8 in
  let iconst v =
    match Hashtbl.find_opt ipool_tbl v with
    | Some slot -> slot
    | None ->
        let slot = nireg + !ipool_n in
        incr ipool_n;
        ipool := v :: !ipool;
        Hashtbl.add ipool_tbl v slot;
        slot
  in
  let fop = function
    | Reg r -> freg r
    | Imm_float v -> fconst v
    | Imm_int i -> fconst (float_of_int i)
  in
  let iop = function
    | Reg r -> ireg r
    | Imm_int i -> iconst i
    | Imm_float _ -> invalid_arg "Vm: float immediate in integer instruction"
  in
  (* Compact labels away; branch targets become instruction indices. *)
  let body = Array.of_list kernel.body in
  let n = Array.length body in
  let idx_of = Array.make n 0 in
  let labels = Hashtbl.create 8 in
  let ninstr = ref 0 in
  for i = 0 to n - 1 do
    idx_of.(i) <- !ninstr;
    match body.(i) with Label l -> Hashtbl.replace labels l i | _ -> incr ninstr
  done;
  let ninstr = !ninstr in
  let label_pos l =
    match Hashtbl.find_opt labels l with
    | Some i -> idx_of.(i)
    | None -> fault "undefined label %S" l
  in
  let sz = max 1 ninstr in
  let co = Array.make sz Halt
  and ca = Array.make sz 0
  and cb = Array.make sz 0
  and cc = Array.make sz 0
  and cd = Array.make sz 0 in
  let fns = ref [] and fns_n = ref 0 in
  let addfn f =
    let i = !fns_n in
    incr fns_n;
    fns := f :: !fns;
    i
  in
  let j = ref 0 in
  let emit o a b c d =
    co.(!j) <- o;
    ca.(!j) <- a;
    cb.(!j) <- b;
    cc.(!j) <- c;
    cd.(!j) <- d;
    incr j
  in
  Array.iter
    (fun instr ->
      match instr with
      | Label _ -> ()
      | Ret -> emit Halt 0 0 0 0
      | Add { dtype; dst; a; b } ->
          if is_float dtype then emit Fadd (freg dst) (fop a) (fop b) 0
          else emit Iadd (ireg dst) (iop a) (iop b) 0
      | Sub { dtype; dst; a; b } ->
          if is_float dtype then emit Fsub (freg dst) (fop a) (fop b) 0
          else emit Isub (ireg dst) (iop a) (iop b) 0
      | Mul { dtype; dst; a; b } ->
          if is_float dtype then emit Fmul (freg dst) (fop a) (fop b) 0
          else emit Imul (ireg dst) (iop a) (iop b) 0
      | Div { dtype; dst; a; b } ->
          if is_float dtype then emit Fdiv (freg dst) (fop a) (fop b) 0
          else emit Idiv (ireg dst) (iop a) (iop b) 0
      | Fma { dtype; dst; a; b; c } ->
          if is_float dtype then emit Ffma (freg dst) (fop a) (fop b) (fop c)
          else emit Ifma (ireg dst) (iop a) (iop b) (iop c)
      | Neg { dtype; dst; a } ->
          if is_float dtype then emit Fneg (freg dst) (fop a) 0 0 else emit Ineg (ireg dst) (iop a) 0 0
      | Shl { dtype; dst; a; amount } ->
          if is_float dtype then fault "shl on float registers"
          else emit Ishl (ireg dst) (iop a) amount 0
      | Mov { dst; src } -> (
          match dst.rtype with
          | F32 | F64 -> emit Fmov (freg dst) (fop src) 0 0
          | S32 | U32 | S64 | U64 -> emit Imov (ireg dst) (iop src) 0 0
          | Pred -> fault "mov on predicates unsupported")
      | Cvt { dst; src } -> (
          match (is_float dst.rtype, is_float src.rtype) with
          | true, true ->
              if dst.rtype = F32 then emit Fround32 (freg dst) (freg src) 0 0
              else emit Fmov (freg dst) (freg src) 0 0
          | true, false -> emit Itof (freg dst) (ireg src) 0 0
          | false, true -> emit Ftoi (ireg dst) (freg src) 0 0
          | false, false -> emit Imov (ireg dst) (ireg src) 0 0)
      | Setp { cmp; dtype; dst; a; b } ->
          if is_float dtype then
            let o =
              match cmp with
              | Eq -> Fset_eq
              | Ne -> Fset_ne
              | Lt -> Fset_lt
              | Le -> Fset_le
              | Gt -> Fset_gt
              | Ge -> Fset_ge
            in
            emit o dst.id (fop a) (fop b) 0
          else
            let o =
              match cmp with
              | Eq -> Iset_eq
              | Ne -> Iset_ne
              | Lt -> Iset_lt
              | Le -> Iset_le
              | Gt -> Iset_gt
              | Ge -> Iset_ge
            in
            emit o dst.id (iop a) (iop b) 0
      | Bra { label; pred } -> (
          let target = label_pos label in
          match pred with
          | None -> emit Jmp target 0 0 0
          | Some p -> emit Jmp_if p.id target 0 0)
      | Mov_sreg { dst; src } ->
          let o =
            match src with
            | Tid_x -> Rd_tid
            | Ntid_x -> Rd_ntid
            | Ctaid_x -> Rd_ctaid
            | Nctaid_x -> Rd_nctaid
          in
          emit o (ireg dst) 0 0 0
      | Ld_param { dst; param_index } -> (
          match dst.rtype with
          | U64 -> emit Param_ptr (ireg dst) param_index 0 0
          | S32 | U32 -> emit Param_int (ireg dst) param_index 0 0
          | F32 | F64 -> emit Param_float (freg dst) param_index 0 0
          | S64 | Pred -> fault "unsupported ld.param class")
      | Ld_global { dtype; dst; addr; offset } -> (
          match dtype with
          | F32 -> emit Ld_f32 (freg dst) (ireg addr) offset 0
          | F64 -> emit Ld_f64 (freg dst) (ireg addr) offset 0
          | S32 | U32 -> emit Ld_i32 (ireg dst) (ireg addr) offset 0
          | S64 | U64 | Pred -> fault "unsupported ld.global class")
      | St_global { dtype; addr; offset; src } -> (
          match dtype with
          | F32 -> emit St_f32 (ireg addr) offset (fop src) 0
          | F64 -> emit St_f64 (ireg addr) offset (fop src) 0
          | S32 | U32 -> emit St_i32 (ireg addr) offset (iop src) 0
          | S64 | U64 | Pred -> fault "unsupported st.global class")
      | Ld_global_f16 { dst; addr; offset } -> emit Ld_f16 (freg dst) (ireg addr) offset 0
      | St_global_f16 { addr; offset; src } -> emit St_f16 (ireg addr) offset (fop src) 0
      | Call { func; ret; arg } ->
          let fi = addfn (lookup_math func) in
          if ret.rtype = F32 then emit Call_f32 (freg ret) (freg arg) fi 0
          else emit Call_f64 (freg ret) (freg arg) fi 0)
    body;
  {
    kernel;
    co;
    ca;
    cb;
    cc;
    cd;
    nfreg;
    nireg;
    npred;
    fpool = Array.of_list (List.rev !fpool);
    ipool = Array.of_list (List.rev !ipool);
    fns = Array.of_list (List.rev !fns);
    accesses = analyze kernel;
    plan = plan co ca cb;
    soa_slots = [||];
  }

(* ------------------------------------------------------------------ *)
(* Serialization.  A program is plain data except for two fields: [fns]
   holds math-subroutine closures and [soa_slots] holds worker scratch.
   Both are deterministic functions of the rest — [compile] fills [fns]
   with one [lookup_math] per [Call] in body order, and [soa_slots]
   grows on demand — so the portable form simply strips them and
   rehydration rebuilds [fns] by replaying the same walk.  A rehydrated
   program is therefore indistinguishable from a fresh [compile] of the
   kernel. *)

(* Version 5: opcodes became a variant, and the plan became total
   (join points, lane-group width) instead of optional; cached
   version-4 entries would decode to the old layout, so the bump makes
   them miss. *)
let decoder_version = 5

type portable = program

let to_portable p = { p with fns = [||]; soa_slots = [||] }

let of_portable (p : portable) =
  let fns =
    List.filter_map
      (function Call { func; _ } -> Some (lookup_math func) | _ -> None)
      p.kernel.body
    |> Array.of_list
  in
  { p with fns; soa_slots = [||] }

(* ------------------------------------------------------------------ *)
(* Worker register rows: [group_lanes] lanes per register, constant
   pools broadcast across their rows at allocation.  No zeroing is ever
   needed afterwards: the validator checks that every register is
   defined before it is read along each path, so a lane never reads a
   value an earlier group, cta or launch left in its column. *)

let make_soa_ctx p =
  let cap = group_lanes in
  let nf = max 1 (p.nfreg + Array.length p.fpool) in
  let ni = max 1 (p.nireg + Array.length p.ipool) in
  let s =
    {
      sf = Array.make (nf * cap) 0.0;
      si = Array.make (ni * cap) 0;
      sp = Array.make (p.npred * cap) false;
      act = Array.make cap 0;
      park = Array.make cap (-1);
      mrg = Array.make cap 0;
      sa = Array.make cap 0;
    }
  in
  Array.iteri (fun pi v -> Array.fill s.sf ((p.nfreg + pi) * cap) cap v) p.fpool;
  Array.iteri (fun pi v -> Array.fill s.si ((p.nireg + pi) * cap) cap v) p.ipool;
  s

(* Sized before workers start: growing the slot table is not
   thread-safe. *)
let ensure_soa_slots p n =
  let have = Array.length p.soa_slots in
  if n > have then
    p.soa_slots <- Array.init n (fun i -> if i < have then p.soa_slots.(i) else make_soa_ctx p)

let round32 v = Int32.float_of_bits (Int32.bits_of_float v)

(* ------------------------------------------------------------------ *)
(* Execution of one lane group: lanes [base, base + nlanes) of a cta,
   lock-step over the structure-of-arrays register rows.

   Lanes advance through the program one fused dispatch per plan unit
   (see [plan]): mixed ALU chains run their instructions back-to-back
   over the flat register rows, with the dense fast path walking lanes
   in [lane_block]-wide unrolled blocks; memory-terminated chains
   snapshot lane addresses into the [sa] scratch column and resolve the
   target buffer once per group; and integer-division islands keep
   their per-lane fault handler.

   Branches are predicated.  [bra.pred] to a [ret] retires the lanes
   that take it; to any other target it parks them there ([park]), and
   an unconditional [bra] does the same for every active lane.  Spans
   end before join points, so the pc stops at each one, and the lanes
   parked there merge back into the sorted active set.  When the active
   set empties, execution resumes at the lowest parked target.  On a
   program whose branches all go forward every parked target lies
   ahead of the pc, so no lane is ever passed over, and each lane
   executes exactly the instruction sequence of its own path.

   For launches admitted by [parallel_ok] this is bit-identical to the
   lane-major sequential sweep.  Lanes are independent except for the
   radix-8 reduction-tail contract, whose only cross-lane
   reads-after-writes flow from lower lanes at earlier program points
   to a later lane at a later program point.  Each lane's path moves
   forward through the text and groups run in [tid] order, so a lane
   reads exactly the partials the sequential sweep would show it.
   Launches [parallel_ok] rejects, and loops, run in groups of one
   lane, which is the sequential sweep itself.

   Fault determinism: lanes that fault are recorded and deactivated,
   the rest of the group runs on, and the *lowest* faulted lane is
   reported.  Lanes below the lowest lock-step fault complete and
   behave exactly as in the sequential sweep (they read nothing from
   higher lanes), so the lowest lock-step fault is the fault the
   sequential sweep would hit first — same lane, same message.  Memory
   past that fault is unspecified.  Faults raised outside a per-lane
   handler (parameter-class mismatches, corrupt opcodes — conditions
   uniform across the lanes at that pc) are charged to the lowest
   active lane and drop the active set; parked lanes keep running,
   because a lower parked lane may still fault further on, and the
   lowest fault wins.  The column-resident fast pass of a memory unit
   may partially execute before bailing to the per-lane slow pass;
   that is safe because the unit is idempotent once [sa] is
   snapshotted — re-running a lane's load or store reads the same
   address and the same unchanged source column, so the slow pass
   reproduces the exact per-lane outcomes (values and fault messages)
   of the sequential sweep.

   Returns the lowest faulted [(lane, exn)] (lane relative to [base]),
   or [None]. *)

let lane_block = 8

(* Lane-blocked dense float ladder bodies.  On the dense fast path the
   active set is the identity prefix [0, n), so these run over
   contiguous column segments in [lane_block]-wide unrolled blocks of
   unsafe accesses — no per-lane indirection or branching, the bounds
   reasoning amortized across the block.  Callers pass row origins
   ([reg * group_lanes]) and guarantee [n <= group_lanes], so every
   touched index is in bounds.  Lanes are independent columns, so a block is safe even when
   the destination row aliases a source row. *)

let add_dense sf ba bb bc n =
  let nb = n - (n land (lane_block - 1)) in
  let l = ref 0 in
  while !l < nb do
    let i = !l in
    Array.unsafe_set sf (ba + i)
      (Array.unsafe_get sf (bb + i) +. Array.unsafe_get sf (bc + i));
    Array.unsafe_set sf (ba + i + 1)
      (Array.unsafe_get sf (bb + i + 1) +. Array.unsafe_get sf (bc + i + 1));
    Array.unsafe_set sf (ba + i + 2)
      (Array.unsafe_get sf (bb + i + 2) +. Array.unsafe_get sf (bc + i + 2));
    Array.unsafe_set sf (ba + i + 3)
      (Array.unsafe_get sf (bb + i + 3) +. Array.unsafe_get sf (bc + i + 3));
    Array.unsafe_set sf (ba + i + 4)
      (Array.unsafe_get sf (bb + i + 4) +. Array.unsafe_get sf (bc + i + 4));
    Array.unsafe_set sf (ba + i + 5)
      (Array.unsafe_get sf (bb + i + 5) +. Array.unsafe_get sf (bc + i + 5));
    Array.unsafe_set sf (ba + i + 6)
      (Array.unsafe_get sf (bb + i + 6) +. Array.unsafe_get sf (bc + i + 6));
    Array.unsafe_set sf (ba + i + 7)
      (Array.unsafe_get sf (bb + i + 7) +. Array.unsafe_get sf (bc + i + 7));
    l := i + lane_block
  done;
  for i = nb to n - 1 do
    Array.unsafe_set sf (ba + i)
      (Array.unsafe_get sf (bb + i) +. Array.unsafe_get sf (bc + i))
  done

let sub_dense sf ba bb bc n =
  let nb = n - (n land (lane_block - 1)) in
  let l = ref 0 in
  while !l < nb do
    let i = !l in
    Array.unsafe_set sf (ba + i)
      (Array.unsafe_get sf (bb + i) -. Array.unsafe_get sf (bc + i));
    Array.unsafe_set sf (ba + i + 1)
      (Array.unsafe_get sf (bb + i + 1) -. Array.unsafe_get sf (bc + i + 1));
    Array.unsafe_set sf (ba + i + 2)
      (Array.unsafe_get sf (bb + i + 2) -. Array.unsafe_get sf (bc + i + 2));
    Array.unsafe_set sf (ba + i + 3)
      (Array.unsafe_get sf (bb + i + 3) -. Array.unsafe_get sf (bc + i + 3));
    Array.unsafe_set sf (ba + i + 4)
      (Array.unsafe_get sf (bb + i + 4) -. Array.unsafe_get sf (bc + i + 4));
    Array.unsafe_set sf (ba + i + 5)
      (Array.unsafe_get sf (bb + i + 5) -. Array.unsafe_get sf (bc + i + 5));
    Array.unsafe_set sf (ba + i + 6)
      (Array.unsafe_get sf (bb + i + 6) -. Array.unsafe_get sf (bc + i + 6));
    Array.unsafe_set sf (ba + i + 7)
      (Array.unsafe_get sf (bb + i + 7) -. Array.unsafe_get sf (bc + i + 7));
    l := i + lane_block
  done;
  for i = nb to n - 1 do
    Array.unsafe_set sf (ba + i)
      (Array.unsafe_get sf (bb + i) -. Array.unsafe_get sf (bc + i))
  done

let mul_dense sf ba bb bc n =
  let nb = n - (n land (lane_block - 1)) in
  let l = ref 0 in
  while !l < nb do
    let i = !l in
    Array.unsafe_set sf (ba + i)
      (Array.unsafe_get sf (bb + i) *. Array.unsafe_get sf (bc + i));
    Array.unsafe_set sf (ba + i + 1)
      (Array.unsafe_get sf (bb + i + 1) *. Array.unsafe_get sf (bc + i + 1));
    Array.unsafe_set sf (ba + i + 2)
      (Array.unsafe_get sf (bb + i + 2) *. Array.unsafe_get sf (bc + i + 2));
    Array.unsafe_set sf (ba + i + 3)
      (Array.unsafe_get sf (bb + i + 3) *. Array.unsafe_get sf (bc + i + 3));
    Array.unsafe_set sf (ba + i + 4)
      (Array.unsafe_get sf (bb + i + 4) *. Array.unsafe_get sf (bc + i + 4));
    Array.unsafe_set sf (ba + i + 5)
      (Array.unsafe_get sf (bb + i + 5) *. Array.unsafe_get sf (bc + i + 5));
    Array.unsafe_set sf (ba + i + 6)
      (Array.unsafe_get sf (bb + i + 6) *. Array.unsafe_get sf (bc + i + 6));
    Array.unsafe_set sf (ba + i + 7)
      (Array.unsafe_get sf (bb + i + 7) *. Array.unsafe_get sf (bc + i + 7));
    l := i + lane_block
  done;
  for i = nb to n - 1 do
    Array.unsafe_set sf (ba + i)
      (Array.unsafe_get sf (bb + i) *. Array.unsafe_get sf (bc + i))
  done

let fma_dense sf ba bb bc bd n =
  let nb = n - (n land (lane_block - 1)) in
  let l = ref 0 in
  while !l < nb do
    let i = !l in
    Array.unsafe_set sf (ba + i)
      ((Array.unsafe_get sf (bb + i) *. Array.unsafe_get sf (bc + i))
      +. Array.unsafe_get sf (bd + i));
    Array.unsafe_set sf (ba + i + 1)
      ((Array.unsafe_get sf (bb + i + 1) *. Array.unsafe_get sf (bc + i + 1))
      +. Array.unsafe_get sf (bd + i + 1));
    Array.unsafe_set sf (ba + i + 2)
      ((Array.unsafe_get sf (bb + i + 2) *. Array.unsafe_get sf (bc + i + 2))
      +. Array.unsafe_get sf (bd + i + 2));
    Array.unsafe_set sf (ba + i + 3)
      ((Array.unsafe_get sf (bb + i + 3) *. Array.unsafe_get sf (bc + i + 3))
      +. Array.unsafe_get sf (bd + i + 3));
    Array.unsafe_set sf (ba + i + 4)
      ((Array.unsafe_get sf (bb + i + 4) *. Array.unsafe_get sf (bc + i + 4))
      +. Array.unsafe_get sf (bd + i + 4));
    Array.unsafe_set sf (ba + i + 5)
      ((Array.unsafe_get sf (bb + i + 5) *. Array.unsafe_get sf (bc + i + 5))
      +. Array.unsafe_get sf (bd + i + 5));
    Array.unsafe_set sf (ba + i + 6)
      ((Array.unsafe_get sf (bb + i + 6) *. Array.unsafe_get sf (bc + i + 6))
      +. Array.unsafe_get sf (bd + i + 6));
    Array.unsafe_set sf (ba + i + 7)
      ((Array.unsafe_get sf (bb + i + 7) *. Array.unsafe_get sf (bc + i + 7))
      +. Array.unsafe_get sf (bd + i + 7));
    l := i + lane_block
  done;
  for i = nb to n - 1 do
    Array.unsafe_set sf (ba + i)
      ((Array.unsafe_get sf (bb + i) *. Array.unsafe_get sf (bc + i))
      +. Array.unsafe_get sf (bd + i))
  done

let exec_group p (lookup : int -> Buffer.data) (args : param_value array) (s : soa_ctx)
    ~ctaid ~block ~grid ~base ~nlanes =
  let plan = p.plan in
  let co = p.co and ca = p.ca and cb = p.cb and cc = p.cc and cd = p.cd in
  let sf = s.sf and si = s.si and sp = s.sp and act = s.act and sa = s.sa in
  let park = s.park and mrg = s.mrg in
  let nl = group_lanes in
  let ninstr = Array.length co in
  let fns = p.fns in
  let obits = Buffer.offset_bits and omask = Buffer.offset_mask in
  for l = 0 to nlanes - 1 do
    Array.unsafe_set act l l
  done;
  let nact = ref nlanes and npark = ref 0 in
  (* [act] stays sorted (it starts as the identity; compaction and the
     join merge preserve order), so it is the identity prefix — and the
     hot arms can skip the indirection — exactly when its last entry
     equals its index.  That is the common case: a full group whose
     bounds guard retires no lane stays dense through straight-line
     code. *)
  let dense = ref true in
  let fmin = ref max_int and fexn = ref None in
  let faulted = ref false in
  let record l e =
    if l < !fmin then begin
      fmin := l;
      fexn := Some e
    end;
    faulted := true
  in
  (* Drop lanes a per-lane fault handler marked with -1. *)
  let compact () =
    let keep = ref 0 in
    for ai = 0 to !nact - 1 do
      let l = act.(ai) in
      if l >= 0 then begin
        act.(!keep) <- l;
        incr keep
      end
    done;
    nact := !keep;
    dense := !keep = 0 || act.(!keep - 1) = !keep - 1;
    faulted := false
  in
  (* One mixed ALU chain: instructions [k0, k1) executed back-to-back.
     Every chain op is either non-faulting or lane-uniform
     (parameter-class mismatches), so the caller wraps the whole chain
     in a single uniform-fault scope and no per-lane handler runs on
     this path.  [n] and [d] are chain-invariant: nothing inside a
     chain retires or faults individual lanes. *)
  let exec_chain k0 k1 =
    let n = !nact in
    let d = !dense in
    for k = k0 to k1 - 1 do
      match co.(k) with
      | Fadd ->
          let ba = ca.(k) * nl and bb = cb.(k) * nl and bc = cc.(k) * nl in
          if d then add_dense sf ba bb bc n
          else
            for ai = 0 to n - 1 do
              let l = Array.unsafe_get act ai in
              Array.unsafe_set sf (ba + l)
                (Array.unsafe_get sf (bb + l) +. Array.unsafe_get sf (bc + l))
            done
      | Fsub ->
          let ba = ca.(k) * nl and bb = cb.(k) * nl and bc = cc.(k) * nl in
          if d then sub_dense sf ba bb bc n
          else
            for ai = 0 to n - 1 do
              let l = Array.unsafe_get act ai in
              Array.unsafe_set sf (ba + l)
                (Array.unsafe_get sf (bb + l) -. Array.unsafe_get sf (bc + l))
            done
      | Fmul ->
          let ba = ca.(k) * nl and bb = cb.(k) * nl and bc = cc.(k) * nl in
          if d then mul_dense sf ba bb bc n
          else
            for ai = 0 to n - 1 do
              let l = Array.unsafe_get act ai in
              Array.unsafe_set sf (ba + l)
                (Array.unsafe_get sf (bb + l) *. Array.unsafe_get sf (bc + l))
            done
      | Fdiv ->
          let ba = ca.(k) * nl and bb = cb.(k) * nl and bc = cc.(k) * nl in
          if d then
            for l = 0 to n - 1 do
              Array.unsafe_set sf (ba + l)
                (Array.unsafe_get sf (bb + l) /. Array.unsafe_get sf (bc + l))
            done
          else
            for ai = 0 to n - 1 do
              let l = Array.unsafe_get act ai in
              Array.unsafe_set sf (ba + l)
                (Array.unsafe_get sf (bb + l) /. Array.unsafe_get sf (bc + l))
            done
      | Ffma ->
          (* the hot one: dslash/clover bodies are mostly fma chains *)
          let ba = ca.(k) * nl
          and bb = cb.(k) * nl
          and bc = cc.(k) * nl
          and bd = cd.(k) * nl in
          if d then fma_dense sf ba bb bc bd n
          else
            for ai = 0 to n - 1 do
              let l = Array.unsafe_get act ai in
              Array.unsafe_set sf (ba + l)
                ((Array.unsafe_get sf (bb + l) *. Array.unsafe_get sf (bc + l))
                +. Array.unsafe_get sf (bd + l))
            done
      | Fneg ->
          let ba = ca.(k) * nl and bb = cb.(k) * nl in
          if d then
            for l = 0 to n - 1 do
              Array.unsafe_set sf (ba + l) (-.Array.unsafe_get sf (bb + l))
            done
          else
            for ai = 0 to n - 1 do
              let l = Array.unsafe_get act ai in
              Array.unsafe_set sf (ba + l) (-.Array.unsafe_get sf (bb + l))
            done
      | Iadd ->
          let ba = ca.(k) * nl and bb = cb.(k) * nl and bc = cc.(k) * nl in
          if d then
            for l = 0 to n - 1 do
              Array.unsafe_set si (ba + l)
                (Array.unsafe_get si (bb + l) + Array.unsafe_get si (bc + l))
            done
          else
            for ai = 0 to n - 1 do
              let l = Array.unsafe_get act ai in
              Array.unsafe_set si (ba + l)
                (Array.unsafe_get si (bb + l) + Array.unsafe_get si (bc + l))
            done
      | Isub ->
          let ba = ca.(k) * nl and bb = cb.(k) * nl and bc = cc.(k) * nl in
          if d then
            for l = 0 to n - 1 do
              Array.unsafe_set si (ba + l)
                (Array.unsafe_get si (bb + l) - Array.unsafe_get si (bc + l))
            done
          else
            for ai = 0 to n - 1 do
              let l = Array.unsafe_get act ai in
              Array.unsafe_set si (ba + l)
                (Array.unsafe_get si (bb + l) - Array.unsafe_get si (bc + l))
            done
      | Imul ->
          let ba = ca.(k) * nl and bb = cb.(k) * nl and bc = cc.(k) * nl in
          if d then
            for l = 0 to n - 1 do
              Array.unsafe_set si (ba + l)
                (Array.unsafe_get si (bb + l) * Array.unsafe_get si (bc + l))
            done
          else
            for ai = 0 to n - 1 do
              let l = Array.unsafe_get act ai in
              Array.unsafe_set si (ba + l)
                (Array.unsafe_get si (bb + l) * Array.unsafe_get si (bc + l))
            done
      | Ifma ->
          let ba = ca.(k) * nl
          and bb = cb.(k) * nl
          and bc = cc.(k) * nl
          and bd = cd.(k) * nl in
          if d then
            for l = 0 to n - 1 do
              Array.unsafe_set si (ba + l)
                ((Array.unsafe_get si (bb + l) * Array.unsafe_get si (bc + l))
                + Array.unsafe_get si (bd + l))
            done
          else
            for ai = 0 to n - 1 do
              let l = Array.unsafe_get act ai in
              Array.unsafe_set si (ba + l)
                ((Array.unsafe_get si (bb + l) * Array.unsafe_get si (bc + l))
                + Array.unsafe_get si (bd + l))
            done
      | Ishl ->
          let ba = ca.(k) * nl and bb = cb.(k) * nl and amount = cc.(k) in
          if d then
            for l = 0 to n - 1 do
              Array.unsafe_set si (ba + l) (Array.unsafe_get si (bb + l) lsl amount)
            done
          else
            for ai = 0 to n - 1 do
              let l = Array.unsafe_get act ai in
              Array.unsafe_set si (ba + l) (Array.unsafe_get si (bb + l) lsl amount)
            done
      | Ineg ->
          let ba = ca.(k) * nl and bb = cb.(k) * nl in
          if d then
            for l = 0 to n - 1 do
              Array.unsafe_set si (ba + l) (-Array.unsafe_get si (bb + l))
            done
          else
            for ai = 0 to n - 1 do
              let l = Array.unsafe_get act ai in
              Array.unsafe_set si (ba + l) (-Array.unsafe_get si (bb + l))
            done
      | Fmov ->
          let ba = ca.(k) * nl and bb = cb.(k) * nl in
          if d then Array.blit sf bb sf ba n
          else
            for ai = 0 to n - 1 do
              let l = Array.unsafe_get act ai in
              Array.unsafe_set sf (ba + l) (Array.unsafe_get sf (bb + l))
            done
      | Imov ->
          let ba = ca.(k) * nl and bb = cb.(k) * nl in
          if d then Array.blit si bb si ba n
          else
            for ai = 0 to n - 1 do
              let l = Array.unsafe_get act ai in
              Array.unsafe_set si (ba + l) (Array.unsafe_get si (bb + l))
            done
      | Fround32 ->
          let ba = ca.(k) * nl and bb = cb.(k) * nl in
          if d then
            for l = 0 to n - 1 do
              Array.unsafe_set sf (ba + l) (round32 (Array.unsafe_get sf (bb + l)))
            done
          else
            for ai = 0 to n - 1 do
              let l = Array.unsafe_get act ai in
              Array.unsafe_set sf (ba + l) (round32 (Array.unsafe_get sf (bb + l)))
            done
      | Itof ->
          let ba = ca.(k) * nl and bb = cb.(k) * nl in
          if d then
            for l = 0 to n - 1 do
              Array.unsafe_set sf (ba + l) (float_of_int (Array.unsafe_get si (bb + l)))
            done
          else
            for ai = 0 to n - 1 do
              let l = Array.unsafe_get act ai in
              Array.unsafe_set sf (ba + l) (float_of_int (Array.unsafe_get si (bb + l)))
            done
      | Ftoi ->
          let ba = ca.(k) * nl and bb = cb.(k) * nl in
          if d then
            for l = 0 to n - 1 do
              Array.unsafe_set si (ba + l) (int_of_float (Array.unsafe_get sf (bb + l)))
            done
          else
            for ai = 0 to n - 1 do
              let l = Array.unsafe_get act ai in
              Array.unsafe_set si (ba + l) (int_of_float (Array.unsafe_get sf (bb + l)))
            done
      | Fset_eq ->
          let ba = ca.(k) * nl and bb = cb.(k) * nl and bc = cc.(k) * nl in
          if d then
            for l = 0 to n - 1 do
              Array.unsafe_set sp (ba + l)
                (Array.unsafe_get sf (bb + l) = Array.unsafe_get sf (bc + l))
            done
          else
            for ai = 0 to n - 1 do
              let l = Array.unsafe_get act ai in
              Array.unsafe_set sp (ba + l)
                (Array.unsafe_get sf (bb + l) = Array.unsafe_get sf (bc + l))
            done
      | Fset_ne ->
          let ba = ca.(k) * nl and bb = cb.(k) * nl and bc = cc.(k) * nl in
          if d then
            for l = 0 to n - 1 do
              Array.unsafe_set sp (ba + l)
                (Array.unsafe_get sf (bb + l) <> Array.unsafe_get sf (bc + l))
            done
          else
            for ai = 0 to n - 1 do
              let l = Array.unsafe_get act ai in
              Array.unsafe_set sp (ba + l)
                (Array.unsafe_get sf (bb + l) <> Array.unsafe_get sf (bc + l))
            done
      | Fset_lt ->
          let ba = ca.(k) * nl and bb = cb.(k) * nl and bc = cc.(k) * nl in
          if d then
            for l = 0 to n - 1 do
              Array.unsafe_set sp (ba + l)
                (Array.unsafe_get sf (bb + l) < Array.unsafe_get sf (bc + l))
            done
          else
            for ai = 0 to n - 1 do
              let l = Array.unsafe_get act ai in
              Array.unsafe_set sp (ba + l)
                (Array.unsafe_get sf (bb + l) < Array.unsafe_get sf (bc + l))
            done
      | Fset_le ->
          let ba = ca.(k) * nl and bb = cb.(k) * nl and bc = cc.(k) * nl in
          if d then
            for l = 0 to n - 1 do
              Array.unsafe_set sp (ba + l)
                (Array.unsafe_get sf (bb + l) <= Array.unsafe_get sf (bc + l))
            done
          else
            for ai = 0 to n - 1 do
              let l = Array.unsafe_get act ai in
              Array.unsafe_set sp (ba + l)
                (Array.unsafe_get sf (bb + l) <= Array.unsafe_get sf (bc + l))
            done
      | Fset_gt ->
          let ba = ca.(k) * nl and bb = cb.(k) * nl and bc = cc.(k) * nl in
          if d then
            for l = 0 to n - 1 do
              Array.unsafe_set sp (ba + l)
                (Array.unsafe_get sf (bb + l) > Array.unsafe_get sf (bc + l))
            done
          else
            for ai = 0 to n - 1 do
              let l = Array.unsafe_get act ai in
              Array.unsafe_set sp (ba + l)
                (Array.unsafe_get sf (bb + l) > Array.unsafe_get sf (bc + l))
            done
      | Fset_ge ->
          let ba = ca.(k) * nl and bb = cb.(k) * nl and bc = cc.(k) * nl in
          if d then
            for l = 0 to n - 1 do
              Array.unsafe_set sp (ba + l)
                (Array.unsafe_get sf (bb + l) >= Array.unsafe_get sf (bc + l))
            done
          else
            for ai = 0 to n - 1 do
              let l = Array.unsafe_get act ai in
              Array.unsafe_set sp (ba + l)
                (Array.unsafe_get sf (bb + l) >= Array.unsafe_get sf (bc + l))
            done
      | Iset_eq ->
          let ba = ca.(k) * nl and bb = cb.(k) * nl and bc = cc.(k) * nl in
          if d then
            for l = 0 to n - 1 do
              Array.unsafe_set sp (ba + l)
                (Array.unsafe_get si (bb + l) = Array.unsafe_get si (bc + l))
            done
          else
            for ai = 0 to n - 1 do
              let l = Array.unsafe_get act ai in
              Array.unsafe_set sp (ba + l)
                (Array.unsafe_get si (bb + l) = Array.unsafe_get si (bc + l))
            done
      | Iset_ne ->
          let ba = ca.(k) * nl and bb = cb.(k) * nl and bc = cc.(k) * nl in
          if d then
            for l = 0 to n - 1 do
              Array.unsafe_set sp (ba + l)
                (Array.unsafe_get si (bb + l) <> Array.unsafe_get si (bc + l))
            done
          else
            for ai = 0 to n - 1 do
              let l = Array.unsafe_get act ai in
              Array.unsafe_set sp (ba + l)
                (Array.unsafe_get si (bb + l) <> Array.unsafe_get si (bc + l))
            done
      | Iset_lt ->
          let ba = ca.(k) * nl and bb = cb.(k) * nl and bc = cc.(k) * nl in
          if d then
            for l = 0 to n - 1 do
              Array.unsafe_set sp (ba + l)
                (Array.unsafe_get si (bb + l) < Array.unsafe_get si (bc + l))
            done
          else
            for ai = 0 to n - 1 do
              let l = Array.unsafe_get act ai in
              Array.unsafe_set sp (ba + l)
                (Array.unsafe_get si (bb + l) < Array.unsafe_get si (bc + l))
            done
      | Iset_le ->
          let ba = ca.(k) * nl and bb = cb.(k) * nl and bc = cc.(k) * nl in
          if d then
            for l = 0 to n - 1 do
              Array.unsafe_set sp (ba + l)
                (Array.unsafe_get si (bb + l) <= Array.unsafe_get si (bc + l))
            done
          else
            for ai = 0 to n - 1 do
              let l = Array.unsafe_get act ai in
              Array.unsafe_set sp (ba + l)
                (Array.unsafe_get si (bb + l) <= Array.unsafe_get si (bc + l))
            done
      | Iset_gt ->
          let ba = ca.(k) * nl and bb = cb.(k) * nl and bc = cc.(k) * nl in
          if d then
            for l = 0 to n - 1 do
              Array.unsafe_set sp (ba + l)
                (Array.unsafe_get si (bb + l) > Array.unsafe_get si (bc + l))
            done
          else
            for ai = 0 to n - 1 do
              let l = Array.unsafe_get act ai in
              Array.unsafe_set sp (ba + l)
                (Array.unsafe_get si (bb + l) > Array.unsafe_get si (bc + l))
            done
      | Iset_ge ->
          let ba = ca.(k) * nl and bb = cb.(k) * nl and bc = cc.(k) * nl in
          if d then
            for l = 0 to n - 1 do
              Array.unsafe_set sp (ba + l)
                (Array.unsafe_get si (bb + l) >= Array.unsafe_get si (bc + l))
            done
          else
            for ai = 0 to n - 1 do
              let l = Array.unsafe_get act ai in
              Array.unsafe_set sp (ba + l)
                (Array.unsafe_get si (bb + l) >= Array.unsafe_get si (bc + l))
            done
      | Rd_tid ->
          let ba = ca.(k) * nl in
          if d then
            for l = 0 to n - 1 do
              Array.unsafe_set si (ba + l) (base + l)
            done
          else
            for ai = 0 to n - 1 do
              let l = Array.unsafe_get act ai in
              Array.unsafe_set si (ba + l) (base + l)
            done
      | Rd_ntid ->
          let ba = ca.(k) * nl in
          if d then Array.fill si ba n block
          else
            for ai = 0 to n - 1 do
              let l = Array.unsafe_get act ai in
              Array.unsafe_set si (ba + l) block
            done
      | Rd_ctaid ->
          let ba = ca.(k) * nl in
          if d then Array.fill si ba n ctaid
          else
            for ai = 0 to n - 1 do
              let l = Array.unsafe_get act ai in
              Array.unsafe_set si (ba + l) ctaid
            done
      | Rd_nctaid ->
          let ba = ca.(k) * nl in
          if d then Array.fill si ba n grid
          else
            for ai = 0 to n - 1 do
              let l = Array.unsafe_get act ai in
              Array.unsafe_set si (ba + l) grid
            done
      | Param_ptr -> (
          match args.(cb.(k)) with
          | Ptr b ->
              let v = Buffer.address b and ba = ca.(k) * nl in
              if d then Array.fill si ba n v
              else
                for ai = 0 to n - 1 do
                  let l = Array.unsafe_get act ai in
                  Array.unsafe_set si (ba + l) v
                done
          | Int _ | Float _ -> fault "ld.param.u64 on non-pointer parameter")
      | Param_int -> (
          match args.(cb.(k)) with
          | Int v ->
              let ba = ca.(k) * nl in
              if d then Array.fill si ba n v
              else
                for ai = 0 to n - 1 do
                  let l = Array.unsafe_get act ai in
                  Array.unsafe_set si (ba + l) v
                done
          | Ptr _ | Float _ -> fault "ld.param.%%r on non-integer parameter")
      | Param_float -> (
          match args.(cb.(k)) with
          | Float v ->
              let ba = ca.(k) * nl in
              if d then Array.fill sf ba n v
              else
                for ai = 0 to n - 1 do
                  let l = Array.unsafe_get act ai in
                  Array.unsafe_set sf (ba + l) v
                done
          | Ptr _ | Int _ -> fault "ld.param float on non-float parameter")
      | Call_f64 ->
          let ba = ca.(k) * nl and bb = cb.(k) * nl in
          let fn = fns.(cc.(k)) in
          for ai = 0 to n - 1 do
            let l = Array.unsafe_get act ai in
            Array.unsafe_set sf (ba + l) (fn (Array.unsafe_get sf (bb + l)))
          done
      | Call_f32 ->
          let ba = ca.(k) * nl and bb = cb.(k) * nl in
          let fn = fns.(cc.(k)) in
          for ai = 0 to n - 1 do
            let l = Array.unsafe_get act ai in
            Array.unsafe_set sf (ba + l) (round32 (fn (Array.unsafe_get sf (bb + l))))
          done
      | _ -> fault "corrupt opcode"
    done
  in
  (* Integer-division island: the only per-lane-faultable non-memory
     op, kept under its own handler exactly as the scalar sweep would
     fault it. *)
  let exec_div k =
    let n = !nact in
    let ba = ca.(k) * nl and bb = cb.(k) * nl and bc = cc.(k) * nl in
    for ai = 0 to n - 1 do
      let l = Array.unsafe_get act ai in
      try
        let d = Array.unsafe_get si (bc + l) in
        if d = 0 then fault "integer division by zero";
        Array.unsafe_set si (ba + l) (Array.unsafe_get si (bb + l) / d)
      with e ->
        record l e;
        act.(ai) <- -1
    done
  in
  (* Column-resident memory unit, two passes over the active lanes.
     Pass 1 snapshots every lane's effective address into the [sa]
     scratch column — after that the unit is idempotent, so the fast
     pass may bail at any point and the slow pass restart from
     scratch.  Pass 2 resolves the *first* active lane's buffer once
     for the whole cta and runs the gather/scatter as a tight per-lane
     loop; any lane addressing a different buffer, misaligning, or
     indexing out of bounds aborts to [mem_slow], the per-lane generic
     loop with exactly the scalar sweep's fault messages. *)
  let snap ab off0 n =
    if !dense then
      for l = 0 to n - 1 do
        Array.unsafe_set sa l (Array.unsafe_get si (ab + l) + off0)
      done
    else
      for ai = 0 to n - 1 do
        let l = Array.unsafe_get act ai in
        Array.unsafe_set sa l (Array.unsafe_get si (ab + l) + off0)
      done
  in
  let mem_slow k n =
    match co.(k) with
    | Ld_f32 ->
        let ba = ca.(k) * nl in
        for ai = 0 to n - 1 do
          let l = Array.unsafe_get act ai in
          try
            let addr = Array.unsafe_get sa l in
            let off = addr land omask in
            match lookup (addr lsr obits) with
            | Buffer.F32 a ->
                if off land 3 <> 0 then fault "misaligned f32 load";
                Array.unsafe_set sf (ba + l) (Bigarray.Array1.get a (off lsr 2))
            | _ -> fault "typed load does not match buffer kind"
          with e ->
            record l e;
            act.(ai) <- -1
        done
    | Ld_f64 ->
        let ba = ca.(k) * nl in
        for ai = 0 to n - 1 do
          let l = Array.unsafe_get act ai in
          try
            let addr = Array.unsafe_get sa l in
            let off = addr land omask in
            match lookup (addr lsr obits) with
            | Buffer.F64 a ->
                if off land 7 <> 0 then fault "misaligned f64 load";
                Array.unsafe_set sf (ba + l) (Bigarray.Array1.get a (off lsr 3))
            | _ -> fault "typed load does not match buffer kind"
          with e ->
            record l e;
            act.(ai) <- -1
        done
    | Ld_i32 ->
        let ba = ca.(k) * nl in
        for ai = 0 to n - 1 do
          let l = Array.unsafe_get act ai in
          try
            let addr = Array.unsafe_get sa l in
            let off = addr land omask in
            match lookup (addr lsr obits) with
            | Buffer.I32 a ->
                if off land 3 <> 0 then fault "misaligned i32 load";
                Array.unsafe_set si (ba + l)
                  (Int32.to_int (Bigarray.Array1.get a (off lsr 2)))
            | _ -> fault "typed integer load does not match buffer kind"
          with e ->
            record l e;
            act.(ai) <- -1
        done
    | St_f32 ->
        let bc = cc.(k) * nl in
        for ai = 0 to n - 1 do
          let l = Array.unsafe_get act ai in
          try
            let addr = Array.unsafe_get sa l in
            let off = addr land omask in
            match lookup (addr lsr obits) with
            | Buffer.F32 a -> Bigarray.Array1.set a (off lsr 2) (Array.unsafe_get sf (bc + l))
            | _ -> fault "typed store does not match buffer kind"
          with e ->
            record l e;
            act.(ai) <- -1
        done
    | St_f64 ->
        let bc = cc.(k) * nl in
        for ai = 0 to n - 1 do
          let l = Array.unsafe_get act ai in
          try
            let addr = Array.unsafe_get sa l in
            let off = addr land omask in
            match lookup (addr lsr obits) with
            | Buffer.F64 a -> Bigarray.Array1.set a (off lsr 3) (Array.unsafe_get sf (bc + l))
            | _ -> fault "typed store does not match buffer kind"
          with e ->
            record l e;
            act.(ai) <- -1
        done
    | St_i32 ->
        let bc = cc.(k) * nl in
        for ai = 0 to n - 1 do
          let l = Array.unsafe_get act ai in
          try
            let addr = Array.unsafe_get sa l in
            let off = addr land omask in
            match lookup (addr lsr obits) with
            | Buffer.I32 a ->
                Bigarray.Array1.set a (off lsr 2) (Int32.of_int (Array.unsafe_get si (bc + l)))
            | _ -> fault "typed integer store does not match buffer kind"
          with e ->
            record l e;
            act.(ai) <- -1
        done
    | Ld_f16 ->
        let ba = ca.(k) * nl in
        for ai = 0 to n - 1 do
          let l = Array.unsafe_get act ai in
          try
            let addr = Array.unsafe_get sa l in
            let off = addr land omask in
            match lookup (addr lsr obits) with
            | Buffer.F16 a ->
                if off land 1 <> 0 then fault "misaligned f16 load";
                Array.unsafe_set sf (ba + l)
                  (Half.float_of_bits (Bigarray.Array1.get a (off lsr 1)))
            | _ -> fault "typed load does not match buffer kind"
          with e ->
            record l e;
            act.(ai) <- -1
        done
    | St_f16 ->
        let bc = cc.(k) * nl in
        for ai = 0 to n - 1 do
          let l = Array.unsafe_get act ai in
          try
            let addr = Array.unsafe_get sa l in
            let off = addr land omask in
            match lookup (addr lsr obits) with
            | Buffer.F16 a ->
                if off land 1 <> 0 then fault "misaligned f16 store";
                Bigarray.Array1.set a (off lsr 1)
                  (Half.bits_of_float (Array.unsafe_get sf (bc + l)))
            | _ -> fault "typed store does not match buffer kind"
          with e ->
            record l e;
            act.(ai) <- -1
        done
    | _ -> fault "corrupt opcode"
  in
  let exec_mem k =
    let n = !nact in
    let o = co.(k) in
    let store = is_store o in
    let ab = (if store then ca.(k) else cb.(k)) * nl
    and off0 = if store then cb.(k) else cc.(k) in
    snap ab off0 n;
    let bid0 = Array.unsafe_get sa (Array.unsafe_get act 0) lsr obits in
    let fast =
      match lookup bid0 with
      | exception _ -> false
      | data -> (
          try
            match (o, data) with
            | Ld_f32, Buffer.F32 a ->
                let ba = ca.(k) * nl in
                for ai = 0 to n - 1 do
                  let l = Array.unsafe_get act ai in
                  let addr = Array.unsafe_get sa l in
                  if addr lsr obits <> bid0 || addr land 3 <> 0 then raise Exit;
                  Array.unsafe_set sf (ba + l)
                    (Bigarray.Array1.get a ((addr land omask) lsr 2))
                done;
                true
            | Ld_f64, Buffer.F64 a ->
                let ba = ca.(k) * nl in
                for ai = 0 to n - 1 do
                  let l = Array.unsafe_get act ai in
                  let addr = Array.unsafe_get sa l in
                  if addr lsr obits <> bid0 || addr land 7 <> 0 then raise Exit;
                  Array.unsafe_set sf (ba + l)
                    (Bigarray.Array1.get a ((addr land omask) lsr 3))
                done;
                true
            | Ld_i32, Buffer.I32 a ->
                let ba = ca.(k) * nl in
                for ai = 0 to n - 1 do
                  let l = Array.unsafe_get act ai in
                  let addr = Array.unsafe_get sa l in
                  if addr lsr obits <> bid0 || addr land 3 <> 0 then raise Exit;
                  Array.unsafe_set si (ba + l)
                    (Int32.to_int (Bigarray.Array1.get a ((addr land omask) lsr 2)))
                done;
                true
            | St_f32, Buffer.F32 a ->
                let bc = cc.(k) * nl in
                for ai = 0 to n - 1 do
                  let l = Array.unsafe_get act ai in
                  let addr = Array.unsafe_get sa l in
                  if addr lsr obits <> bid0 then raise Exit;
                  Bigarray.Array1.set a ((addr land omask) lsr 2) (Array.unsafe_get sf (bc + l))
                done;
                true
            | St_f64, Buffer.F64 a ->
                let bc = cc.(k) * nl in
                for ai = 0 to n - 1 do
                  let l = Array.unsafe_get act ai in
                  let addr = Array.unsafe_get sa l in
                  if addr lsr obits <> bid0 then raise Exit;
                  Bigarray.Array1.set a ((addr land omask) lsr 3) (Array.unsafe_get sf (bc + l))
                done;
                true
            | St_i32, Buffer.I32 a ->
                let bc = cc.(k) * nl in
                for ai = 0 to n - 1 do
                  let l = Array.unsafe_get act ai in
                  let addr = Array.unsafe_get sa l in
                  if addr lsr obits <> bid0 then raise Exit;
                  Bigarray.Array1.set a ((addr land omask) lsr 2)
                    (Int32.of_int (Array.unsafe_get si (bc + l)))
                done;
                true
            | Ld_f16, Buffer.F16 a ->
                let ba = ca.(k) * nl in
                for ai = 0 to n - 1 do
                  let l = Array.unsafe_get act ai in
                  let addr = Array.unsafe_get sa l in
                  if addr lsr obits <> bid0 || addr land 1 <> 0 then raise Exit;
                  Array.unsafe_set sf (ba + l)
                    (Half.float_of_bits (Bigarray.Array1.get a ((addr land omask) lsr 1)))
                done;
                true
            | St_f16, Buffer.F16 a ->
                let bc = cc.(k) * nl in
                for ai = 0 to n - 1 do
                  let l = Array.unsafe_get act ai in
                  let addr = Array.unsafe_get sa l in
                  if addr lsr obits <> bid0 || addr land 1 <> 0 then raise Exit;
                  Bigarray.Array1.set a ((addr land omask) lsr 1)
                    (Half.bits_of_float (Array.unsafe_get sf (bc + l)))
                done;
                true
            | _ -> false
          with _ -> false)
    in
    if not fast then mem_slow k n
  in
  (* Walk a span unit by unit: one uniform-fault scope per chain, the
     per-lane handlers confined to memory terminators and islands,
     compaction once per faulted unit (units never re-execute a lane's
     instruction non-idempotently, so deferring compaction to unit
     boundaries preserves the sequential sweep's outcomes). *)
  let exec_span k0 k1 =
    let u = ref k0 in
    while !u < k1 && !nact > 0 do
      let s0 = !u in
      let ue = Array.unsafe_get plan.u_end s0 in
      (match Array.unsafe_get plan.u_kind s0 with
      | Chain -> (
          try exec_chain s0 ue
          with e ->
            (* Lane-uniform fault: the sequential sweep would hit it on
               the lowest active lane first. *)
            record act.(0) e;
            nact := 0)
      | Mem_chain -> (
          try
            exec_chain s0 (ue - 1);
            exec_mem (ue - 1)
          with e ->
            record act.(0) e;
            nact := 0)
      | Island -> exec_div s0);
      if !faulted then compact ();
      u := ue
    done
  in
  (* Predication.  [branch t pb] takes the branch to [t] for every
     active lane whose predicate (row origin [pb]) holds, or for all of
     them when [pb] is negative: a target that [exits] retires those
     lanes, any other target parks them there.  [merge j] moves the
     lanes parked at join point [j] back into the active set, keeping it
     sorted. *)
  let branch t pb =
    let stay = not (exits co t) in
    let n = !nact and keep = ref 0 in
    for ai = 0 to n - 1 do
      let l = Array.unsafe_get act ai in
      if pb < 0 || Array.unsafe_get sp (pb + l) then begin
        if stay then begin
          Array.unsafe_set park l t;
          incr npark
        end
      end
      else begin
        Array.unsafe_set act !keep l;
        incr keep
      end
    done;
    nact := !keep;
    dense := !keep = 0 || act.(!keep - 1) = !keep - 1
  in
  let merge j =
    let n = !nact and ai = ref 0 and out = ref 0 in
    for l = 0 to nlanes - 1 do
      if Array.unsafe_get park l = j then begin
        Array.unsafe_set park l (-1);
        Array.unsafe_set mrg !out l;
        incr out
      end
      else if !ai < n && Array.unsafe_get act !ai = l then begin
        Array.unsafe_set mrg !out l;
        incr out;
        incr ai
      end
    done;
    if !out > n then begin
      npark := !npark - (!out - n);
      Array.blit mrg 0 act 0 !out;
      nact := !out;
      dense := act.(!out - 1) = !out - 1
    end
  in
  let lowest_parked () =
    let m = ref max_int in
    for l = 0 to nlanes - 1 do
      let t = Array.unsafe_get park l in
      if t >= 0 && t < !m then m := t
    done;
    !m
  in
  let pc = ref 0 in
  while !pc >= 0 do
    let k = !pc in
    if !npark > 0 && k < ninstr && Array.unsafe_get plan.join k then merge k;
    if !nact = 0 then pc := if !npark = 0 then -1 else lowest_parked ()
    else if k >= ninstr then nact := 0 (* falling off the end retires, like ret *)
    else
      match co.(k) with
      | Halt -> nact := 0
      | Jmp -> branch ca.(k) (-1)
      | Jmp_if ->
          branch cb.(k) (ca.(k) * nl);
          pc := k + 1
      | _ ->
          let e = plan.span_end.(k) in
          exec_span k e;
          pc := e
  done;
  match !fexn with None -> None | Some e -> Some (!fmin, e)

(* ------------------------------------------------------------------ *)
(* Parallel-safety decision for one launch: every access's param slot is
   resolved to the bound buffer, then per stored buffer (a) all stores
   must use own-slot indexing (Affine or Slist — never Gather/Uniform),
   and (b) any read-back of a stored buffer must use the *same*
   per-work-item indexing on both sides, which the 8-aligned chunk
   boundaries then keep chunk-local (the reduction-tail contract).  A
   load whose target buffer is unknown could alias any store, so it
   forces sequential execution whenever the kernel stores at all — this
   is what keeps the in-place [p = shift p] gather on the sequential
   path its wrap-around semantics depend on. *)

let class_bit = function Uniform -> 1 | Affine -> 2 | Slist -> 4 | Gather -> 8

let parallel_ok p (params : param_value array) =
  Array.length p.accesses = 0
  ||
  let stores = Hashtbl.create 8 and loads = Hashtbl.create 8 in
  let any_store = Array.exists (fun a -> a.a_store) p.accesses in
  let ok = ref true in
  Array.iter
    (fun a ->
      let bid =
        if a.a_param < 0 || a.a_param >= Array.length params then None
        else match params.(a.a_param) with Ptr b -> Some b.Buffer.id | Int _ | Float _ -> None
      in
      match bid with
      | None -> if a.a_store || any_store then ok := false
      | Some bid ->
          let tbl = if a.a_store then stores else loads in
          let cur = match Hashtbl.find_opt tbl bid with Some m -> m | None -> 0 in
          Hashtbl.replace tbl bid (cur lor class_bit a.a_class))
    p.accesses;
  if !ok then
    Hashtbl.iter
      (fun bid smask ->
        if smask land (class_bit Uniform lor class_bit Gather) <> 0 then ok := false;
        match Hashtbl.find_opt loads bid with
        | None -> ()
        | Some lmask ->
            let union = smask lor lmask in
            if not (union = class_bit Affine || union = class_bit Slist) then ok := false)
      stores;
  !ok

(* ------------------------------------------------------------------ *)
(* Grid execution. *)

let enrich p e ~ctaid ~tid =
  match e with
  | Fault msg ->
      Fault (Printf.sprintf "%s [kernel %s, ctaid %d, tid %d]" msg p.kernel.kname ctaid tid)
  | e -> e

(* One cta span, executed in (cta, tid) order: each cta in consecutive
   lane groups of [width] lanes.  [key] is the span's position in the
   flat batch schedule (launch-major, cta-ordered), so the first fault
   recorded at the lowest key is exactly the fault a sequential sweep
   of the whole batch would hit first.  A group that faults ends the
   span: lower groups of the cta ran to completion, higher ones hold
   higher tids.  Recording a fault lowers [stop] so spans with higher
   keys (later ctas / later launches) bail out; lower-keyed spans run
   to completion. *)
let run_ctas p lookup args s ~width ~block ~grid ~c0 ~c1 ~key ~(stop : int Atomic.t)
    (faults : (int * int * exn) option array) =
  try
    for cta = c0 to c1 - 1 do
      if Atomic.get stop < key then raise Exit;
      let base = ref 0 in
      while !base < block do
        let nlanes = min width (block - !base) in
        (match exec_group p lookup args s ~ctaid:cta ~block ~grid ~base:!base ~nlanes with
        | None -> ()
        | Some (lane, e) ->
            faults.(key) <- Some (cta, !base + lane, e);
            let rec lower () =
              let cur = Atomic.get stop in
              if key < cur && not (Atomic.compare_and_set stop cur key) then lower ()
            in
            lower ();
            raise Exit);
        base := !base + nlanes
      done
    done
  with Exit -> ()

(* Launches smaller than this run inline: the pool handoff costs more
   than it buys on tiny grids (and keeps the default-parallel test suite
   fast on many-core hosts). *)
let min_parallel_threads = 1024

let gcd a b =
  let rec go a b = if b = 0 then a else go b (a mod b) in
  go a b

(* ------------------------------------------------------------------ *)
(* Batched launch sweeps.  A batch is an ordered run of launches (the
   engine's flushed queue).  Each launch is pre-partitioned into cta
   spans — whole ctas, multiples of 8 work items, exactly the chunks
   [run_grid] used — and the flattened (launch, span) schedule is
   drained by workers pulling items off a single atomic cursor, so the
   pool is woken once per batch instead of once per launch.

   A launch may start before its predecessors complete iff its loads
   don't alias any predecessor's pending stores.  The per-launch
   read/write buffer sets come from the same decode-time provenance
   the per-launch analysis uses ([p.accesses], each access's param slot
   resolved against the bound parameters); edges are conservative
   per-buffer RAW, WAW and WAR — WAR included because a later writer
   overtaking an in-flight reader is just as racy.  Accesses whose base
   buffer can't be resolved make the launch a full barrier in both
   directions. *)

type launch = {
  l_prog : program;
  l_grid : int;
  l_block : int;
  l_params : param_value array;
}

type rw_set = {
  rs_reads : (int, unit) Hashtbl.t;
  rs_writes : (int, unit) Hashtbl.t;
  rs_unknown : bool; (* some access's base buffer is unresolvable *)
}

let rw_set p (params : param_value array) =
  let reads = Hashtbl.create 8 and writes = Hashtbl.create 8 in
  let unknown = ref false in
  Array.iter
    (fun a ->
      let bid =
        if a.a_param < 0 || a.a_param >= Array.length params then None
        else match params.(a.a_param) with Ptr b -> Some b.Buffer.id | Int _ | Float _ -> None
      in
      match bid with
      | None -> unknown := true
      | Some bid -> Hashtbl.replace (if a.a_store then writes else reads) bid ())
    p.accesses;
  { rs_reads = reads; rs_writes = writes; rs_unknown = !unknown }

(* Must launch [j] wait for earlier launch [i]?  RAW / WAW / WAR on any
   shared buffer, or either side touching memory it can't account for. *)
let conflicts i j =
  i.rs_unknown || j.rs_unknown
  || Hashtbl.fold
       (fun b () acc -> acc || Hashtbl.mem j.rs_reads b || Hashtbl.mem j.rs_writes b)
       i.rs_writes false
  || Hashtbl.fold (fun b () acc -> acc || Hashtbl.mem i.rs_reads b) j.rs_writes false

(* Spans for one launch: the same alignment, small-launch threshold and
   store-disjointness gate as the old per-launch path, so a launch that
   must run as one sequential sweep still overlaps *other* independent
   launches in the batch. *)
let spans_of workers l ~par =
  if l.l_grid <= 0 || l.l_block <= 0 then [||]
  else begin
    let align = 8 / gcd l.l_block 8 in
    let units = l.l_grid / align in
    let w =
      if workers <= 1 || units < 2 || l.l_grid * l.l_block < min_parallel_threads || not par
      then 1
      else min workers units
    in
    let bound k = if k >= w then l.l_grid else units * k / w * align in
    Array.init w (fun k -> (bound k, bound (k + 1)))
  end

let run_batch ?(workers = 1) ~lookup (launches : launch array) =
  let nl = Array.length launches in
  if nl > 0 then begin
    (* [parallel_ok] is exactly the cross-lane independence both worker
       splitting and lock-step lane groups rely on; a launch it rejects
       runs as one sequential sweep, in groups of one lane. *)
    let par = Array.map (fun l -> parallel_ok l.l_prog l.l_params) launches in
    let width =
      Array.mapi (fun li l -> if par.(li) then l.l_prog.plan.width else 1) launches
    in
    let spans = Array.mapi (fun li l -> spans_of workers l ~par:par.(li)) launches in
    (* Flat schedule: launch-major, cta-ordered — item index IS the
       deterministic fault priority. *)
    let items =
      Array.concat
        (Array.to_list
           (Array.mapi (fun li s -> Array.map (fun (c0, c1) -> (li, c0, c1)) s) spans))
    in
    let nitems = Array.length items in
    if nitems > 0 then begin
      (* Dependency edges; skipped for singleton batches (the common
         [run_grid] path pays nothing for the generalization). *)
      let preds =
        if nl = 1 then [| [||] |]
        else begin
          let sets =
            Array.map (fun l -> rw_set l.l_prog l.l_params) launches
          in
          Array.init nl (fun j ->
              let acc = ref [] in
              for i = j - 1 downto 0 do
                if conflicts sets.(i) sets.(j) then acc := i :: !acc
              done;
              Array.of_list !acc)
        end
      in
      (* remaining.(l) counts l's unfinished spans; <= 0 means done.
         Atomic reads double as the release/acquire edge that makes a
         predecessor's buffer stores visible to its dependents. *)
      let remaining = Array.map (fun s -> Atomic.make (Array.length s)) spans in
      let m = Mutex.create () and cv = Condition.create () in
      let launch_done l = Atomic.get remaining.(l) <= 0 in
      let deps_met j = Array.for_all launch_done preds.(j) in
      let wait_deps j =
        if not (deps_met j) then begin
          Mutex.lock m;
          while not (deps_met j) do
            Condition.wait cv m
          done;
          Mutex.unlock m
        end
      in
      let complete l =
        if Atomic.fetch_and_add remaining.(l) (-1) = 1 then begin
          Mutex.lock m;
          Condition.broadcast cv;
          Mutex.unlock m
        end
      in
      let w = min workers nitems in
      (* Register rows are per (program, worker); growing the slot
         table isn't thread-safe, so size it up front.  A program that
         appears in several concurrent launches is fine: distinct
         workers use distinct slots. *)
      Array.iter (fun l -> ensure_soa_slots l.l_prog w) launches;
      let stop = Atomic.make max_int in
      let faults = Array.make nitems None in
      let cursor = Atomic.make 0 in
      let worker k =
        let rec loop () =
          let idx = Atomic.fetch_and_add cursor 1 in
          if idx < nitems then begin
            let li, c0, c1 = items.(idx) in
            let l = launches.(li) in
            (* Never deadlocks: spans are claimed in flat order and
               every predecessor's spans precede this one, so the
               lowest unclaimed item always has its deps running or
               done.  Bailed-out spans (fault upstream) still count
               down [remaining], so waiters always wake. *)
            wait_deps li;
            let p = l.l_prog in
            run_ctas p lookup l.l_params p.soa_slots.(k) ~width:width.(li) ~block:l.l_block
              ~grid:l.l_grid ~c0 ~c1 ~key:idx ~stop faults;
            complete li;
            loop ()
          end
        in
        loop ()
      in
      if w <= 1 then worker 0 else Vm_backend.run ~workers:w worker;
      (* Lowest (launch index, ctaid, tid) wins, batch-wide: the flat
         schedule is launch-major and cta-ordered, and within a span the
         sweep is sequential, so the first recorded fault in item order
         is the sequential batch's first fault — same message, same
         site. *)
      let first = ref None and fli = ref 0 in
      Array.iteri
        (fun idx fa ->
          if !first = None then
            match fa with
            | Some _ ->
                first := fa;
                let li, _, _ = items.(idx) in
                fli := li
            | None -> ())
        faults;
      match !first with
      | Some (cta, t, e) -> raise (enrich launches.(!fli).l_prog e ~ctaid:cta ~tid:t)
      | None -> ()
    end
  end

let run_grid ?(workers = 1) p ~grid ~block ~params ~lookup =
  run_batch ~workers ~lookup
    [| { l_prog = p; l_grid = grid; l_block = block; l_params = params } |]

let decoded_instructions p = Array.length p.co
let parallelizable p ~params = parallel_ok p params
