(* The parallel pre-decoded VM must be invisible to results: any worker
   count (including the sequential w=1 sweep) has to produce
   bit-identical fields and reductions, and faults raised inside worker
   domains must surface deterministically on the launching thread,
   enriched with kernel name, ctaid and tid.

   The lattice here is 8x8x4x4 = 1024 sites, on purpose: launches reach
   the VM's small-launch threshold (1024 threads), so multi-worker
   engines really execute across domains instead of quietly running
   sequentially. *)

module Shape = Layout.Shape
module Geometry = Layout.Geometry
module Field = Qdp.Field
module Expr = Qdp.Expr
module Engine = Qdpjit.Engine
module Device = Gpusim.Device
module Machine = Gpusim.Machine
module Jit = Gpusim.Jit
module Buffer_ = Gpusim.Buffer

let geom = Geometry.create [| 8; 8; 4; 4 |]
let fm = Shape.lattice_fermion Shape.F64

(* Signed zeros: same convention as test_fusion — the CPU reference
   accumulates through fma from +0.0, the VM multiplies directly, both
   are correct real arithmetic.  VM-vs-VM comparisons stay strict. *)
let bits ~canon_zero v = if canon_zero && v = 0.0 then 0L else Int64.bits_of_float v

type op =
  | Scale of int * float * int
  | Axpy of int * float * int * int
  | Sub of int * int * int
  | Shift of int * int * int * int

let op_expr pool = function
  | Scale (_, c, s) -> Expr.mul (Expr.const_real c) (Expr.field pool.(s))
  | Axpy (_, c, a, b) ->
      Expr.add (Expr.mul (Expr.const_real c) (Expr.field pool.(a))) (Expr.field pool.(b))
  | Sub (_, a, b) -> Expr.sub (Expr.field pool.(a)) (Expr.field pool.(b))
  | Shift (_, s, dim, dir) -> Expr.shift (Expr.field pool.(s)) ~dim ~dir

let op_dest = function Scale (d, _, _) | Axpy (d, _, _, _) | Sub (d, _, _) | Shift (d, _, _, _) -> d

let fresh_pool seed n =
  let rng = Prng.create ~seed in
  Array.init n (fun i ->
      let f = Field.create fm geom in
      Field.fill_gaussian ~site_key:(fun site -> site + (i * 1_000_003)) f rng;
      f)

(* Shared engines, one per worker count.  w=1 is the sequential sweep
   the others must match bit-for-bit. *)
let engines =
  [
    (1, Engine.create ~vm_domains:1 ());
    (2, Engine.create ~vm_domains:2 ());
    (4, Engine.create ~vm_domains:4 ());
    (8, Engine.create ~vm_domains:8 ());
  ]

let run_jit eng seed prog =
  let pool = fresh_pool seed 4 in
  List.iter (fun op -> Engine.eval eng pool.(op_dest op) (op_expr pool op)) prog;
  Engine.flush eng;
  pool

let run_cpu seed prog =
  let pool = fresh_pool seed 4 in
  List.iter (fun op -> Qdp.Eval_cpu.eval pool.(op_dest op) (op_expr pool op)) prog;
  pool

let gen_op =
  QCheck.Gen.(
    let idx = int_range 0 3 in
    let coeff = oneofl [ 2.0; -0.5; 1.25; 3.0; -1.0 ] in
    oneof
      [
        map3 (fun d c s -> Scale (d, c, s)) idx coeff idx;
        (fun st -> Axpy (idx st, coeff st, idx st, idx st));
        map3 (fun d a b -> Sub (d, a, b)) idx idx idx;
        (fun st -> Shift (idx st, idx st, int_range 0 3 st, if bool st then 1 else -1));
      ])

let show_op = function
  | Scale (d, c, s) -> Printf.sprintf "p%d = %g * p%d" d c s
  | Axpy (d, c, a, b) -> Printf.sprintf "p%d = %g * p%d + p%d" d c a b
  | Sub (d, a, b) -> Printf.sprintf "p%d = p%d - p%d" d a b
  | Shift (d, s, dim, dir) -> Printf.sprintf "p%d = shift(p%d, dim %d, dir %+d)" d s dim dir

let arb_prog =
  QCheck.make
    ~print:(fun p -> String.concat "; " (List.map show_op p))
    QCheck.Gen.(list_size (int_range 2 8) gen_op)

let beq a b = Int64.bits_of_float a = Int64.bits_of_float b
let ceq a b = bits ~canon_zero:true a = bits ~canon_zero:true b

let qcheck_worker_counts =
  QCheck.Test.make ~count:20 ~name:"random kernels: 1 = 2 = 4 = 8 workers = cpu (bit)" arb_prog
    (fun prog ->
      let p1 = run_jit (List.assoc 1 engines) 7L prog in
      let p2 = run_jit (List.assoc 2 engines) 7L prog in
      let p4 = run_jit (List.assoc 4 engines) 7L prog in
      let p8 = run_jit (List.assoc 8 engines) 7L prog in
      let pc = run_cpu 7L prog in
      let equal ~canon_zero a b =
        let ok = ref true in
        for site = 0 to Field.volume a - 1 do
          let sa = Field.get_site a ~site and sb = Field.get_site b ~site in
          Array.iteri
            (fun i v -> if bits ~canon_zero v <> bits ~canon_zero sb.(i) then ok := false)
            sa
        done;
        !ok
      in
      Array.for_all2 (equal ~canon_zero:false) p1 p2
      && Array.for_all2 (equal ~canon_zero:false) p1 p4
      && Array.for_all2 (equal ~canon_zero:false) p1 p8
      && Array.for_all2 (equal ~canon_zero:true) p1 pc)

let qcheck_reductions =
  QCheck.Test.make ~count:15 ~name:"random chains + norm2/inner: all worker counts bit-equal"
    arb_prog (fun prog ->
      let run eng =
        let pool = run_jit eng 13L prog in
        let n = Engine.norm2 eng (Expr.sub (Expr.field pool.(0)) (Expr.field pool.(1))) in
        let re, im = Engine.inner eng (Expr.field pool.(2)) (Expr.field pool.(3)) in
        (n, re, im)
      in
      let n1, r1, i1 = run (List.assoc 1 engines) in
      let n2, r2, i2 = run (List.assoc 2 engines) in
      let n4, r4, i4 = run (List.assoc 4 engines) in
      let pc = run_cpu 13L prog in
      let nc = Qdp.Eval_cpu.norm2 (Expr.sub (Expr.field pc.(0)) (Expr.field pc.(1))) in
      let rc, ic = Qdp.Eval_cpu.inner (Expr.field pc.(2)) (Expr.field pc.(3)) in
      beq n1 n2 && beq n1 n4 && beq r1 r2 && beq r1 r4 && beq i1 i2 && beq i1 i4 && ceq n1 nc
      && ceq r1 rc && ceq i1 ic)

(* ------------------------------------------------------------------ *)
(* Faults: raised in worker domains, reported on the launching thread *)

(* Same shape as test_gpusim's daxpy, but an integer divide whose
   divisor is loaded per thread: planting zeros in chosen sites faults
   chosen (ctaid, tid) pairs only. *)
let divk_text =
  {|
.version 3.1
.target sm_35
.address_size 64

.visible .entry divk(
	.param .u64 divk_param_0,
	.param .u64 divk_param_1,
	.param .s32 divk_param_2
)
{
	ld.param.u64 	%rd1, [divk_param_0];
	ld.param.u64 	%rd2, [divk_param_1];
	ld.param.s32 	%r1, [divk_param_2];
	mov.u32 	%r2, %tid.x;
	mov.u32 	%r3, %ntid.x;
	mov.u32 	%r4, %ctaid.x;
	mad.lo.s32 	%r5, %r4, %r3, %r2;
	setp.ge.s32 	%p1, %r5, %r1;
	@%p1 bra 	EXIT;
	mul.lo.s32 	%r6, %r5, 4;
	cvt.s64.s32 	%rs1, %r6;
	cvt.u64.s64 	%rd3, %rs1;
	add.u64 	%rd4, %rd1, %rd3;
	add.u64 	%rd5, %rd2, %rd3;
	ld.global.s32 	%r7, [%rd4+0];
	div.s32 	%r8, %r1, %r7;
	st.global.s32 	[%rd5+0], %r8;
EXIT:
	ret;
}
|}

let n_threads = 2048
let block = 128

(* Fill x with 1 except zeros at [sites]; launch and return the fault. *)
let launch_divk ~vm_domains ~zero_sites =
  let dev = Device.create ~vm_domains Machine.k20x_ecc_off in
  let x = Device.alloc_i32 dev n_threads and y = Device.alloc_i32 dev n_threads in
  (match x.Buffer_.data with
  | Buffer_.I32 xa ->
      Bigarray.Array1.fill xa 1l;
      List.iter (fun s -> xa.{s} <- 0l) zero_sites
  | _ -> assert false);
  let compiled = Jit.compile divk_text in
  match
    Device.launch dev compiled ~nthreads:n_threads ~block
      ~params:[| Gpusim.Vm.Ptr x; Gpusim.Vm.Ptr y; Gpusim.Vm.Int n_threads |]
  with
  | exception Gpusim.Vm.Fault msg -> Some msg
  | _ -> None

let contains msg sub =
  let n = String.length msg and m = String.length sub in
  let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
  go 0

let check_fault what msg_opt =
  match msg_opt with
  | None -> Alcotest.failf "%s: launch did not fault" what
  | Some msg ->
      List.iter
        (fun sub ->
          if not (contains msg sub) then
            Alcotest.failf "%s: fault %S does not mention %S" what msg sub)
        [ "integer division by zero"; "kernel divk"; "ctaid 4"; "tid 88" ];
      msg |> ignore

(* Sites 600 and 1600 sit in different worker spans at 4 workers (ctas
   4-7 and 12-15 of 16); neither belongs to worker 0, which runs on the
   calling thread.  The fault must still surface here, and the lower
   (ctaid, tid) — site 600 = (4, 88) — must win, exactly as the
   sequential sweep reports it. *)
let test_fault_from_worker_domain () =
  check_fault "parallel" (launch_divk ~vm_domains:4 ~zero_sites:[ 1600; 600 ])

let test_fault_deterministic_across_workers () =
  let seq = launch_divk ~vm_domains:1 ~zero_sites:[ 1600; 600 ] in
  let par = launch_divk ~vm_domains:4 ~zero_sites:[ 1600; 600 ] in
  check_fault "sequential" seq;
  match (seq, par) with
  | Some a, Some b -> Alcotest.(check string) "same fault either way" a b
  | _ -> Alcotest.fail "expected faults from both launches"

let test_fault_names_first_thread () =
  (* Every thread faults: the report must still be the deterministic
     (ctaid 0, tid 0), kernel name included. *)
  match launch_divk ~vm_domains:4 ~zero_sites:(List.init n_threads Fun.id) with
  | None -> Alcotest.fail "all-zero divisors did not fault"
  | Some msg ->
      List.iter
        (fun sub ->
          if not (contains msg sub) then
            Alcotest.failf "fault %S does not mention %S" msg sub)
        [ "kernel divk"; "ctaid 0"; "tid 0" ]

(* ------------------------------------------------------------------ *)
(* Batched launch sweeps: random chains of dependent and independent
   launches queued through Device.begin_batch/end_batch must match the
   unbatched sequential schedule bit-for-bit at every worker count, and
   a faulting batch must report the lowest (launch index, ctaid, tid)
   with the exact message the sequential sweep raises. *)

(* y[i] = x[i] + c — the streaming sibling of divk; chaining adds over
   the buffer pool manufactures RAW/WAW/WAR edges between launches, and
   an add that lands on 0 plants a divisor for a later divk fault. *)
let addk_text =
  {|
.version 3.1
.target sm_35
.address_size 64

.visible .entry addk(
	.param .u64 addk_param_0,
	.param .u64 addk_param_1,
	.param .s32 addk_param_2,
	.param .s32 addk_param_3
)
{
	ld.param.u64 	%rd1, [addk_param_0];
	ld.param.u64 	%rd2, [addk_param_1];
	ld.param.s32 	%r1, [addk_param_2];
	ld.param.s32 	%r9, [addk_param_3];
	mov.u32 	%r2, %tid.x;
	mov.u32 	%r3, %ntid.x;
	mov.u32 	%r4, %ctaid.x;
	mad.lo.s32 	%r5, %r4, %r3, %r2;
	setp.ge.s32 	%p1, %r5, %r1;
	@%p1 bra 	EXIT;
	mul.lo.s32 	%r6, %r5, 4;
	cvt.s64.s32 	%rs1, %r6;
	cvt.u64.s64 	%rd3, %rs1;
	add.u64 	%rd4, %rd1, %rd3;
	add.u64 	%rd5, %rd2, %rd3;
	ld.global.s32 	%r7, [%rd4+0];
	add.s32 	%r8, %r7, %r9;
	st.global.s32 	[%rd5+0], %r8;
EXIT:
	ret;
}
|}

let addk_compiled = lazy (Jit.compile addk_text)
let divk_compiled = lazy (Jit.compile divk_text)

type bkind = Badd of int | Bdiv
type blaunch = { bl_dst : int; bl_src : int; bl_kind : bkind }

let npool = 4

(* Zero-free seed data in [-11, -3]; only add-chains can manufacture a
   zero divisor, so random programs mix faulting and clean sweeps. *)
let fill_pool bufs =
  Array.iteri
    (fun b buf ->
      match buf.Buffer_.data with
      | Buffer_.I32 a ->
          for i = 0 to n_threads - 1 do
            a.{i} <- Int32.of_int ((i * (b + 3) mod 9) - 11)
          done
      | _ -> assert false)
    bufs

let snapshot buf =
  match buf.Buffer_.data with
  | Buffer_.I32 a -> Array.init n_threads (fun i -> a.{i})
  | _ -> assert false

let run_batch_prog ~vm_domains ~batched prog =
  let dev = Device.create ~vm_domains Machine.k20x_ecc_off in
  let bufs = Array.init npool (fun _ -> Device.alloc_i32 dev n_threads) in
  fill_pool bufs;
  let go l =
    let x = Gpusim.Vm.Ptr bufs.(l.bl_src) and y = Gpusim.Vm.Ptr bufs.(l.bl_dst) in
    ignore
      (match l.bl_kind with
      | Badd c ->
          Device.execute dev (Lazy.force addk_compiled) ~nthreads:n_threads ~block
            ~params:[| x; y; Gpusim.Vm.Int n_threads; Gpusim.Vm.Int c |]
      | Bdiv ->
          Device.execute dev (Lazy.force divk_compiled) ~nthreads:n_threads ~block
            ~params:[| x; y; Gpusim.Vm.Int n_threads |])
  in
  match
    if batched then begin
      Device.begin_batch dev;
      List.iter go prog;
      Device.end_batch dev
    end
    else List.iter go prog
  with
  | () -> (None, Some (Array.map snapshot bufs))
  | exception Gpusim.Vm.Fault m ->
      (* After a fault only the fault identity is specified (launches
         past the faulting index may or may not have run). *)
      (Some m, None)

let show_blaunch l =
  match l.bl_kind with
  | Badd c -> Printf.sprintf "b%d = b%d + %d" l.bl_dst l.bl_src c
  | Bdiv -> Printf.sprintf "b%d = n / b%d" l.bl_dst l.bl_src

let arb_batch_prog =
  let gen =
    QCheck.Gen.(
      let idx = int_range 0 (npool - 1) in
      let kind =
        oneof [ map (fun c -> Badd c) (oneofl [ 3; 5; -4; 11; 0 ]); return Bdiv ]
      in
      list_size (int_range 2 10)
        (map3 (fun d s k -> { bl_dst = d; bl_src = s; bl_kind = k }) idx idx kind))
  in
  QCheck.make ~print:(fun p -> String.concat "; " (List.map show_blaunch p)) gen

let qcheck_batched_sweeps =
  QCheck.Test.make ~count:30
    ~name:"batched sweeps: 1 = 2 = 4 = 8 workers = unbatched (contents and faults)"
    arb_batch_prog (fun prog ->
      let ref_fault, ref_bufs = run_batch_prog ~vm_domains:1 ~batched:false prog in
      List.for_all
        (fun w ->
          let fault, bufs = run_batch_prog ~vm_domains:w ~batched:true prog in
          match ((ref_fault, ref_bufs), (fault, bufs)) with
          | (None, Some rb), (None, Some b) ->
              Array.for_all2 (fun ra a -> ra = a) rb b
          | (Some rm, None), (Some m, None) -> rm = m
          | _ -> false)
        [ 1; 2; 4; 8 ])

(* The same random launch chains against a host oracle: each launch
   applied elementwise in launch order, and the first divk launch that
   meets a zero divisor faulting at its lowest such site.  Buffer
   contents must match the oracle bit-for-bit, and a faulting chain must
   report exactly the oracle's (kernel, ctaid, tid) — batched at every
   worker count and unbatched on the sequential device. *)
let oracle_batch_prog prog =
  let bufs =
    Array.init npool (fun b -> Array.init n_threads (fun i -> (i * (b + 3) mod 9) - 11))
  in
  let rec go = function
    | [] -> (None, Some (Array.map (Array.map Int32.of_int) bufs))
    | l :: rest -> (
        let src = Array.copy bufs.(l.bl_src) in
        match l.bl_kind with
        | Badd c ->
            bufs.(l.bl_dst) <- Array.map (fun v -> v + c) src;
            go rest
        | Bdiv -> (
            match Array.find_index (fun v -> v = 0) src with
            | Some i ->
                ( Some
                    (Printf.sprintf "integer division by zero [kernel divk, ctaid %d, tid %d]"
                       (i / block) (i mod block)),
                  None )
            | None ->
                bufs.(l.bl_dst) <- Array.map (fun v -> n_threads / v) src;
                go rest))
  in
  go prog

let qcheck_superinsn_faults =
  QCheck.Test.make ~count:20
    ~name:"add/div chains: contents and first fault = host oracle at 1/2/4/8 workers"
    arb_batch_prog (fun prog ->
      let expect = oracle_batch_prog prog in
      let same (fault, bufs) =
        match (expect, (fault, bufs)) with
        | (None, Some rb), (None, Some b) -> Array.for_all2 (fun ra a -> ra = a) rb b
        | (Some rm, None), (Some m, None) -> rm = m
        | _ -> false
      in
      same (run_batch_prog ~vm_domains:1 ~batched:false prog)
      && List.for_all
           (fun w -> same (run_batch_prog ~vm_domains:w ~batched:true prog))
           [ 1; 2; 4; 8 ])

(* Two independent faulting launches (disjoint buffer pairs, so the
   sweep may genuinely overlap them): the batch must report launch 0's
   own lowest site — (ctaid 12, tid 64) — even though launch 1 faults
   at a lower (ctaid, tid), because the launch index dominates the
   batch-wide order.  The message must equal the sequential one. *)
let run_two_faults ~vm_domains ~batched =
  let dev = Device.create ~vm_domains Machine.k20x_ecc_off in
  let mkx zero =
    let b = Device.alloc_i32 dev n_threads in
    (match b.Buffer_.data with
    | Buffer_.I32 a ->
        Bigarray.Array1.fill a 1l;
        a.{zero} <- 0l
    | _ -> assert false);
    b
  in
  let x0 = mkx 1600 and x1 = mkx 600 in
  let y0 = Device.alloc_i32 dev n_threads and y1 = Device.alloc_i32 dev n_threads in
  let go x y =
    ignore
      (Device.execute dev (Lazy.force divk_compiled) ~nthreads:n_threads ~block
         ~params:[| Gpusim.Vm.Ptr x; Gpusim.Vm.Ptr y; Gpusim.Vm.Int n_threads |])
  in
  match
    if batched then begin
      Device.begin_batch dev;
      go x0 y0;
      go x1 y1;
      Device.end_batch dev
    end
    else begin
      go x0 y0;
      go x1 y1
    end
  with
  | () -> None
  | exception Gpusim.Vm.Fault m -> Some m

let test_batched_two_faults () =
  match run_two_faults ~vm_domains:1 ~batched:false with
  | None -> Alcotest.fail "sequential reference did not fault"
  | Some seq ->
      List.iter
        (fun sub ->
          if not (contains seq sub) then
            Alcotest.failf "fault %S does not mention %S" seq sub)
        [ "kernel divk"; "ctaid 12"; "tid 64" ];
      List.iter
        (fun w ->
          match run_two_faults ~vm_domains:w ~batched:true with
          | None -> Alcotest.failf "batched sweep at %d workers did not fault" w
          | Some m -> Alcotest.(check string) (Printf.sprintf "fault at w=%d" w) seq m)
        [ 1; 2; 4; 8 ]

let test_divk_parallelizable () =
  (* The safety analysis must recognize the streaming access pattern —
     otherwise the fault tests above never leave the calling thread. *)
  let dev = Device.create Machine.k20x_ecc_off in
  let x = Device.alloc_i32 dev 8 and y = Device.alloc_i32 dev 8 in
  let compiled = Jit.compile divk_text in
  let params = [| Gpusim.Vm.Ptr x; Gpusim.Vm.Ptr y; Gpusim.Vm.Int 8 |] in
  Alcotest.(check bool) "parallelizable" true
    (Gpusim.Vm.parallelizable compiled.Jit.program ~params);
  Alcotest.(check bool) "decoded" true
    (Gpusim.Vm.decoded_instructions compiled.Jit.program > 0)

(* ------------------------------------------------------------------ *)
(* Planner edge cases.  One hand-written kernel hits the unit-partition
   corners at once: single-instruction float ladder runs (a lone
   add.f64 / mul.f64 between heterogeneous neighbours), a mixed
   int/float chain truncated by a *data-dependent* exit branch (so
   lanes retire in scattered, non-prefix patterns), address arithmetic
   fused into memory-terminated units, and the chain straddling the
   two spans the second branch creates.  Per lane i:
     t = x[i]*c + i;  if t > thr then exit else y[i] = (t + x[i])^2 *)

let mixk_text =
  {|
.version 3.1
.target sm_35
.address_size 64

.visible .entry mixk(
	.param .u64 mixk_param_0,
	.param .u64 mixk_param_1,
	.param .s32 mixk_param_2,
	.param .f64 mixk_param_3,
	.param .f64 mixk_param_4
)
{
	ld.param.u64 	%rd1, [mixk_param_0];
	ld.param.u64 	%rd2, [mixk_param_1];
	ld.param.s32 	%r1, [mixk_param_2];
	ld.param.f64 	%fd1, [mixk_param_3];
	ld.param.f64 	%fd2, [mixk_param_4];
	mov.u32 	%r2, %tid.x;
	mov.u32 	%r3, %ntid.x;
	mov.u32 	%r4, %ctaid.x;
	mad.lo.s32 	%r5, %r4, %r3, %r2;
	setp.ge.s32 	%p1, %r5, %r1;
	@%p1 bra 	EXIT;
	mul.lo.s32 	%r6, %r5, 8;
	cvt.s64.s32 	%rs1, %r6;
	cvt.u64.s64 	%rd3, %rs1;
	add.u64 	%rd4, %rd1, %rd3;
	ld.global.f64 	%fd3, [%rd4+0];
	cvt.rn.f64.s32 	%fd4, %r5;
	fma.rn.f64 	%fd5, %fd3, %fd1, %fd4;
	setp.gt.f64 	%p2, %fd5, %fd2;
	@%p2 bra 	EXIT;
	add.f64 	%fd6, %fd5, %fd3;
	mul.f64 	%fd7, %fd6, %fd6;
	add.u64 	%rd5, %rd2, %rd3;
	st.global.f64 	[%rd5+0], %fd7;
EXIT:
	ret;
}
|}

let mixk_compiled = lazy (Jit.compile mixk_text)

let mixk_x i = float_of_int ((i * 7 mod 23) - 11) *. 0.5

let run_mixk ~vm_domains ~c ~thr =
  let dev = Device.create ~vm_domains Machine.k20x_ecc_off in
  let x = Device.alloc_f64 dev n_threads and y = Device.alloc_f64 dev n_threads in
  (match (x.Buffer_.data, y.Buffer_.data) with
  | Buffer_.F64 xa, Buffer_.F64 ya ->
      for i = 0 to n_threads - 1 do
        xa.{i} <- mixk_x i;
        ya.{i} <- -1.0
      done
  | _ -> assert false);
  ignore
    (Device.launch dev (Lazy.force mixk_compiled) ~nthreads:n_threads ~block
       ~params:
         [|
           Gpusim.Vm.Ptr x;
           Gpusim.Vm.Ptr y;
           Gpusim.Vm.Int n_threads;
           Gpusim.Vm.Float c;
           Gpusim.Vm.Float thr;
         |]);
  match y.Buffer_.data with
  | Buffer_.F64 ya -> Array.init n_threads (fun i -> Int64.bits_of_float ya.{i})
  | _ -> assert false

(* The kernel's per-lane formula, evaluated on the host with the VM's
   conventions (fma as a multiply then an add, both in double). *)
let mixk_expected ~c ~thr =
  Array.init n_threads (fun i ->
      let x = mixk_x i in
      let t = (x *. c) +. float_of_int i in
      if t > thr then Int64.bits_of_float (-1.0)
      else
        let s = t +. x in
        Int64.bits_of_float (s *. s))

let arb_mixk =
  QCheck.make
    ~print:(fun (c, thr) -> Printf.sprintf "c=%g thr=%g" c thr)
    QCheck.Gen.(
      pair
        (oneofl [ 2.0; -0.75; 0.0; 13.5 ])
        (* neg_infinity retires every lane at the second branch,
           infinity none; the mid values leave scattered survivors *)
        (oneofl [ neg_infinity; 0.0; 64.0; 512.0; 1500.0; infinity ]))

let qcheck_mixk_bit_identity =
  QCheck.Test.make ~count:12
    ~name:"mixed-chain kernel: 1/2/4/8 workers = per-lane formula (bit)" arb_mixk
    (fun (c, thr) ->
      let expected = mixk_expected ~c ~thr in
      List.for_all (fun w -> run_mixk ~vm_domains:w ~c ~thr = expected) [ 1; 2; 4; 8 ])

let test_mixk_plan_shape () =
  let s = Gpusim.Vm.superinsn_stats (Lazy.force mixk_compiled).Jit.program in
  Alcotest.(check int) "decoded" 25 s.Gpusim.Vm.total;
  Alcotest.(check int) "spans" 3 s.Gpusim.Vm.spans;
  Alcotest.(check int) "covered" 22 s.Gpusim.Vm.covered;
  (* prologue chain | address chain + ld.g.f64 | cvt/fma/setp chain cut
     by the data-dependent exit branch | add/mul/add chain + st.g.f64 *)
  Alcotest.(check int) "units" 4 s.Gpusim.Vm.units

(* ------------------------------------------------------------------ *)
(* Predication.  joink carries the branch shapes the generators emit
   around reduction tails: a guarded-load diamond (zero, then a load
   skipped for odd lanes via a PAD label), a predicated branch to an AGG
   block, and an unconditional bra over it to a JOIN label both paths
   reach.  Per lane i, with d = divisors:
     v = (i odd) ? 0 : x[i]
     w = (i mod 4 = 3) ? float (1000 / d[i]) * scale + v : v * 2
     y[i] = w + float (777 / d[i])
   The AGG path divides by d[i] while the lanes below it wait parked at
   JOIN, and every lane divides again after JOIN. *)

let joink_text =
  {|
.version 3.1
.target sm_35
.address_size 64

.visible .entry joink(
	.param .u64 joink_param_0,
	.param .u64 joink_param_1,
	.param .u64 joink_param_2,
	.param .s32 joink_param_3,
	.param .f64 joink_param_4
)
{
	ld.param.u64 	%rd1, [joink_param_0];
	ld.param.u64 	%rd2, [joink_param_1];
	ld.param.u64 	%rd3, [joink_param_2];
	ld.param.s32 	%r1, [joink_param_3];
	mov.u32 	%r2, %tid.x;
	mov.u32 	%r3, %ntid.x;
	mov.u32 	%r4, %ctaid.x;
	mad.lo.s32 	%r5, %r4, %r3, %r2;
	setp.ge.s32 	%p1, %r5, %r1;
	@%p1 bra 	EXIT;
	mul.lo.s32 	%r6, %r5, 8;
	cvt.s64.s32 	%rs1, %r6;
	cvt.u64.s64 	%rd4, %rs1;
	add.u64 	%rd5, %rd1, %rd4;
	mul.lo.s32 	%r7, %r5, 4;
	cvt.s64.s32 	%rs2, %r7;
	cvt.u64.s64 	%rd6, %rs2;
	add.u64 	%rd7, %rd3, %rd6;
	div.s32 	%r8, %r5, 2;
	mul.lo.s32 	%r9, %r8, 2;
	sub.s32 	%r10, %r5, %r9;
	setp.ne.s32 	%p2, %r10, 0;
	mov.f64 	%fd1, 0d0000000000000000;
	@%p2 bra 	PAD;
	ld.global.f64 	%fd1, [%rd5+0];
PAD:
	div.s32 	%r11, %r5, 4;
	mul.lo.s32 	%r12, %r11, 4;
	sub.s32 	%r13, %r5, %r12;
	setp.eq.s32 	%p3, %r13, 3;
	@%p3 bra 	AGG;
	mul.f64 	%fd2, %fd1, 0d4000000000000000;
	bra.uni 	JOIN;
AGG:
	ld.param.f64 	%fd3, [joink_param_4];
	ld.global.s32 	%r14, [%rd7+0];
	div.s32 	%r15, 1000, %r14;
	cvt.rn.f64.s32 	%fd4, %r15;
	fma.rn.f64 	%fd2, %fd4, %fd3, %fd1;
JOIN:
	ld.global.s32 	%r16, [%rd7+0];
	div.s32 	%r17, 777, %r16;
	cvt.rn.f64.s32 	%fd5, %r17;
	add.f64 	%fd6, %fd2, %fd5;
	add.u64 	%rd8, %rd2, %rd4;
	st.global.f64 	[%rd8+0], %fd6;
EXIT:
	ret;
}
|}

let joink_compiled = lazy (Jit.compile joink_text)
let joink_x i = float_of_int ((i * 5 mod 17) - 8) *. 0.25
let joink_d i = (i mod 7) + 1

let run_joink ~vm_domains ~scale ~zero_sites =
  let dev = Device.create ~vm_domains Machine.k20x_ecc_off in
  let x = Device.alloc_f64 dev n_threads
  and y = Device.alloc_f64 dev n_threads
  and d = Device.alloc_i32 dev n_threads in
  (match (x.Buffer_.data, y.Buffer_.data, d.Buffer_.data) with
  | Buffer_.F64 xa, Buffer_.F64 ya, Buffer_.I32 da ->
      for i = 0 to n_threads - 1 do
        xa.{i} <- joink_x i;
        ya.{i} <- -1.0;
        da.{i} <- Int32.of_int (joink_d i)
      done;
      List.iter (fun s -> da.{s} <- 0l) zero_sites
  | _ -> assert false);
  match
    Device.launch dev (Lazy.force joink_compiled) ~nthreads:n_threads ~block
      ~params:
        [| Gpusim.Vm.Ptr x; Gpusim.Vm.Ptr y; Gpusim.Vm.Ptr d; Gpusim.Vm.Int n_threads; scale |]
  with
  | exception Gpusim.Vm.Fault m -> Error m
  | _ -> (
      match y.Buffer_.data with
      | Buffer_.F64 ya -> Ok (Array.init n_threads (fun i -> Int64.bits_of_float ya.{i}))
      | _ -> assert false)

let joink_expected ~scale =
  Array.init n_threads (fun i ->
      let v = if i mod 2 = 1 then 0.0 else joink_x i in
      let w =
        if i mod 4 = 3 then (float_of_int (1000 / joink_d i) *. scale) +. v else v *. 2.0
      in
      Int64.bits_of_float (w +. float_of_int (777 / joink_d i)))

let test_joink_plan_shape () =
  let s = Gpusim.Vm.superinsn_stats (Lazy.force joink_compiled).Jit.program in
  Alcotest.(check int) "decoded" 44 s.Gpusim.Vm.total;
  (* prologue | address chains + PAD setup | guarded load | PAD..bra AGG
     | non-AGG arm | AGG arm | JOIN tail *)
  Alcotest.(check int) "spans" 7 s.Gpusim.Vm.spans;
  (* everything but the three branches, the bra.uni and the ret *)
  Alcotest.(check int) "covered" 39 s.Gpusim.Vm.covered;
  Alcotest.(check int) "units" 14 s.Gpusim.Vm.units

let test_joink_values () =
  let expected = joink_expected ~scale:1.5 in
  List.iter
    (fun w ->
      match run_joink ~vm_domains:w ~scale:(Gpusim.Vm.Float 1.5) ~zero_sites:[] with
      | Ok got ->
          Alcotest.(check bool) (Printf.sprintf "per-lane values at w=%d" w) true (got = expected)
      | Error m -> Alcotest.failf "w=%d: unexpected fault %s" w m)
    [ 1; 2; 4; 8 ]

(* Faults under predication.  Site 1031 = (ctaid 8, tid 7) is an AGG
   lane: it divides by zero while lanes 0-6 of its group wait parked at
   JOIN.  Site 1029 = (ctaid 8, tid 5) is parked there at that moment
   and faults only later, after JOIN — the lower lane must still win, as
   in the sequential sweep.  Binding the f64 [scale] to an integer makes
   every AGG lane fault uniformly at its ld.param (charged to the lowest,
   tid 3); a zero divisor at the parked tid 1 must still win. *)
let test_joink_faults () =
  let case ~scale ~zero_sites ~expect =
    List.iter
      (fun w ->
        match run_joink ~vm_domains:w ~scale ~zero_sites with
        | Ok _ -> Alcotest.failf "w=%d: launch did not fault (want %s)" w expect
        | Error m -> Alcotest.(check string) (Printf.sprintf "fault at w=%d" w) expect m)
      [ 1; 2; 4; 8 ]
  in
  let f = Gpusim.Vm.Float 1.5 and bad = Gpusim.Vm.Int 0 in
  case ~scale:f ~zero_sites:[ 1031 ]
    ~expect:"integer division by zero [kernel joink, ctaid 8, tid 7]";
  case ~scale:f ~zero_sites:[ 1031; 1029 ]
    ~expect:"integer division by zero [kernel joink, ctaid 8, tid 5]";
  case ~scale:bad ~zero_sites:[]
    ~expect:"ld.param float on non-float parameter [kernel joink, ctaid 0, tid 3]";
  case ~scale:bad ~zero_sites:[ 1 ]
    ~expect:"integer division by zero [kernel joink, ctaid 0, tid 1]"

(* Reduction payloads branch (the radix-8 fold's padded loads; the
   payload's aggregation tail with its PAD diamonds and AGG join), and
   every non-control instruction of both must still plan into a fused
   unit. *)
let check_full_coverage what (k : Ptx.Types.kernel) =
  let ctrl =
    List.length
      (List.filter (function Ptx.Types.Bra _ | Ptx.Types.Ret -> true | _ -> false) k.body)
  in
  let s = Gpusim.Vm.superinsn_stats (Jit.compile (Ptx.Print.kernel k)).Jit.program in
  Alcotest.(check bool) (what ^ ": branches past the guard") true (ctrl > 2);
  Alcotest.(check int) (what ^ ": covered") (s.Gpusim.Vm.total - ctrl) s.Gpusim.Vm.covered

let test_reduction_coverage () =
  check_full_coverage "qdpjit_reduce8_f64" (Engine.reduce_kernel ());
  let fld = Field.create fm geom in
  let expr = Expr.norm2_local (Expr.field fld) in
  let b =
    Qdpjit.Codegen.build ~reduction:true ~kname:"red_payload"
      ~dest_shape:{ (Expr.shape expr) with Shape.prec = Shape.F64 }
      ~expr ~nsites:(Geometry.volume geom) ~use_sitelist:false ()
  in
  Alcotest.(check bool) "payload has a Block_partial parameter" true
    (List.mem Qdpjit.Codegen.Block_partial b.Qdpjit.Codegen.plan);
  check_full_coverage "norm2 payload" b.Qdpjit.Codegen.kernel

(* A backward branch: y[i] = sum of the geometric run x, 1.5x, 2.25x, ...
   with (i mod 5) + 1 terms, accumulated in loop order.  Loops run in
   one-lane groups, the sequential sweep itself. *)
let loopk_text =
  {|
.version 3.1
.target sm_35
.address_size 64

.visible .entry loopk(
	.param .u64 loopk_param_0,
	.param .u64 loopk_param_1,
	.param .s32 loopk_param_2
)
{
	ld.param.u64 	%rd1, [loopk_param_0];
	ld.param.u64 	%rd2, [loopk_param_1];
	ld.param.s32 	%r1, [loopk_param_2];
	mov.u32 	%r2, %tid.x;
	mov.u32 	%r3, %ntid.x;
	mov.u32 	%r4, %ctaid.x;
	mad.lo.s32 	%r5, %r4, %r3, %r2;
	setp.ge.s32 	%p1, %r5, %r1;
	@%p1 bra 	EXIT;
	mul.lo.s32 	%r6, %r5, 8;
	cvt.s64.s32 	%rs1, %r6;
	cvt.u64.s64 	%rd3, %rs1;
	add.u64 	%rd4, %rd1, %rd3;
	ld.global.f64 	%fd1, [%rd4+0];
	div.s32 	%r7, %r5, 5;
	mul.lo.s32 	%r8, %r7, 5;
	sub.s32 	%r9, %r5, %r8;
	mov.f64 	%fd2, 0d0000000000000000;
	mov.s32 	%r10, 0;
LOOP:
	add.f64 	%fd2, %fd2, %fd1;
	mul.f64 	%fd1, %fd1, 0d3FF8000000000000;
	add.s32 	%r10, %r10, 1;
	setp.le.s32 	%p2, %r10, %r9;
	@%p2 bra 	LOOP;
	add.u64 	%rd5, %rd2, %rd3;
	st.global.f64 	[%rd5+0], %fd2;
EXIT:
	ret;
}
|}

let test_loopk () =
  let compiled = Jit.compile loopk_text in
  let expected =
    Array.init n_threads (fun i ->
        let acc = ref 0.0 and v = ref (mixk_x i) in
        for _ = 0 to i mod 5 do
          acc := !acc +. !v;
          v := !v *. 1.5
        done;
        Int64.bits_of_float !acc)
  in
  List.iter
    (fun w ->
      let dev = Device.create ~vm_domains:w Machine.k20x_ecc_off in
      let x = Device.alloc_f64 dev n_threads and y = Device.alloc_f64 dev n_threads in
      (match x.Buffer_.data with
      | Buffer_.F64 xa ->
          for i = 0 to n_threads - 1 do
            xa.{i} <- mixk_x i
          done
      | _ -> assert false);
      ignore
        (Device.launch dev compiled ~nthreads:n_threads ~block
           ~params:[| Gpusim.Vm.Ptr x; Gpusim.Vm.Ptr y; Gpusim.Vm.Int n_threads |]);
      match y.Buffer_.data with
      | Buffer_.F64 ya ->
          Alcotest.(check bool) (Printf.sprintf "loop results at w=%d" w) true
            (Array.init n_threads (fun i -> Int64.bits_of_float ya.{i}) = expected)
      | _ -> assert false)
    [ 1; 2; 4; 8 ]

let () =
  Alcotest.run "vm"
    [
      ( "bit-exactness",
        [
          QCheck_alcotest.to_alcotest qcheck_worker_counts;
          QCheck_alcotest.to_alcotest qcheck_reductions;
        ] );
      ( "batched sweeps",
        [
          QCheck_alcotest.to_alcotest qcheck_batched_sweeps;
          Alcotest.test_case "independent faults: lowest launch index wins" `Quick
            test_batched_two_faults;
        ] );
      ( "superinstructions",
        [
          QCheck_alcotest.to_alcotest qcheck_superinsn_faults;
          QCheck_alcotest.to_alcotest qcheck_mixk_bit_identity;
          Alcotest.test_case "mixed-chain kernel: plan shape" `Quick test_mixk_plan_shape;
        ] );
      ( "predication",
        [
          Alcotest.test_case "join kernel: plan shape" `Quick test_joink_plan_shape;
          Alcotest.test_case "join kernel: per-lane values at 1/2/4/8 workers" `Quick
            test_joink_values;
          Alcotest.test_case "join kernel: lowest fault wins over parked lanes" `Quick
            test_joink_faults;
          Alcotest.test_case "reduction payloads fully planned" `Quick test_reduction_coverage;
          Alcotest.test_case "backward-branch loop in one-lane groups" `Quick test_loopk;
        ] );
      ( "faults",
        [
          Alcotest.test_case "worker-domain fault surfaces" `Quick test_fault_from_worker_domain;
          Alcotest.test_case "deterministic across worker counts" `Quick
            test_fault_deterministic_across_workers;
          Alcotest.test_case "all-threads fault reports (0,0)" `Quick
            test_fault_names_first_thread;
          Alcotest.test_case "divk passes safety analysis" `Quick test_divk_parallelizable;
        ] );
    ]
