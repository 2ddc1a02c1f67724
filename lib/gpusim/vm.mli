(** Pre-decoded executable form of a PTX kernel and its multicore
    executor — the back half of the simulated driver JIT.

    [compile] lowers a validated kernel into a flat program: named
    opcodes with operand indices in parallel arrays, branch targets
    pre-resolved, immediates promoted into constant-pool register slots.
    Every program also decodes to a plan for the one executor: maximal
    non-control spans, cut at branch targets ("join points"), are
    partitioned into fused dispatch units — mixed ALU chains (float and
    integer arithmetic, address mad/shl/add chains, cvt, setp, parameter
    and sreg reads), memory-terminated chains whose global load/store
    runs column-resident (lane addresses snapshotted, the buffer
    resolved once per lane group), and per-lane-faultable islands
    (integer division).

    The executor runs each cta in consecutive lane groups of a fixed
    width, lock-step over flat unboxed register rows, walking a unit's
    lanes in fixed-width blocks on the dense fast path.  Branches are
    predicated, as on a SIMT device: a branch to [ret] retires the lanes
    that take it, any other branch parks them at its target, and parked
    lanes rejoin the active set when the group reaches that join point.
    Launches the parallel-safety analysis rejects (the in-place shift
    gather) and programs with a backward branch run in groups of one
    lane, which is exactly the sequential sweep.

    [run_grid] sweeps the grid, splitting whole-cta chunks across
    {!Vm_backend} workers when a decode-time provenance analysis proves
    the launch's stores are disjoint per work item — results are then
    bit-identical to the sequential sweep at every worker count.  See
    DESIGN.md "Parallel VM back-end" and "SIMD-blocked
    superinstructions". *)

type param_value = Ptr of Buffer.t | Int of int | Float of float

exception Fault of string
(** Raised on simulated device faults (type/alignment mismatches, stray
    pointers, division by zero...).  Faults hit inside a launch are
    re-raised on the launching thread with kernel name, ctaid and tid
    appended; when several workers fault, the lowest (ctaid, tid) fault
    wins deterministically. *)

type program

val compile : Ptx.Types.kernel -> program
(** Validate, pre-decode and plan.  Every program gets a plan: forward
    branches become predication and join points, and a backward branch
    makes the program run in one-lane groups.  Raises {!Fault} on
    malformed kernels (undefined labels, unsupported operand
    classes). *)

val decoder_version : int
(** Bumped whenever the pre-decoded representation changes; persistent
    caches fold it into their keys so stale entries miss instead of
    misexecuting. *)

type portable
(** A {!program} with its closure-valued fields stripped: plain data,
    safe for [Marshal]. *)

val to_portable : program -> portable

val of_portable : portable -> program
(** Rehydrate: the math-subroutine table is rebuilt deterministically
    from the kernel body (the same walk {!compile} performs), so a
    round-tripped program executes bit-identically to a fresh compile.
    Raises {!Fault} if the body names an unknown subroutine. *)

val run_grid :
  ?workers:int ->
  program ->
  grid:int ->
  block:int ->
  params:param_value array ->
  lookup:(int -> Buffer.data) ->
  unit
(** Execute the full grid.  [workers] (default 1) caps the number of
    {!Vm_backend} workers; the effective count also respects the
    parallel-safety analysis, chunk granularity (whole ctas, multiples
    of 8 work items) and a small-launch threshold.  Equivalent to
    {!run_batch} with a single launch. *)

type launch = {
  l_prog : program;
  l_grid : int;
  l_block : int;
  l_params : param_value array;
}
(** One deferred launch of a batched sweep. *)

val run_batch :
  ?workers:int -> lookup:(int -> Buffer.data) -> launch array -> unit
(** Execute an ordered run of launches as one sweep: the whole flat
    (launch, cta-span) schedule is handed to the {!Vm_backend} pool at
    once and workers pull spans off a shared cursor, so the pool is
    woken once per batch rather than once per launch.  A launch starts
    before its predecessors complete only when the decode-time
    provenance proves its loads can't alias any predecessor's pending
    stores (conservative per-buffer RAW/WAW/WAR edges; an access with
    an unresolvable base buffer makes its launch a full barrier).
    Each cta runs in lane groups of the width its plan allows (one
    lane when [parallelizable] rejects the launch).  Results are
    bit-identical to running the launches one by one, thread by thread,
    at every worker count, and faults are
    deterministic: the lowest (launch index, ctaid, tid) fault wins
    batch-wide and is raised with the same message the sequential
    sweep would produce.  On a fault, launches/spans scheduled after
    the winning fault may or may not have executed — exactly the
    contract a faulting device leaves memory in. *)

val group_lanes : int
(** Lanes per lock-step group: the width of every register row, and of
    every lane group a {!parallelizable} launch of a loop-free program
    runs in.  A fixed constant. *)

val decoded_instructions : program -> int
(** Flat instruction count after label compaction (introspection). *)

type soa_stats = { spans : int; units : int; covered : int; total : int }
(** Superinstruction plan summary: [spans] fused regions covering
    [covered] of the [total] decoded instructions, executed as [units]
    dispatch units per cta (a mixed ALU chain, a memory-terminated
    chain, or a division island each count once).  Every non-control
    instruction is covered. *)

val superinsn_stats : program -> soa_stats

val parallelizable : program -> params:param_value array -> bool
(** Whether the safety analysis lets a launch with these parameter
    bindings split across workers (exposed for tests and benches). *)
