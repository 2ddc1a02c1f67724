(* End-to-end benchmark of the QDP-JIT stack.

   Two workloads, both timed in host wall clock from outside the library:

   - rhmc_2p1: the 2+1-flavour RHMC program of [qdp_repro hmc --full] on
     a 2^4 lattice, on a fresh engine with a private, empty kernel-cache
     directory: a cold trajectory, priming trajectories until one builds
     no kernel, timed steady trajectories, then a restart (a fresh engine
     on the same cache directory replays the cold trajectory).
   - wilson_cg: a fused Wilson normal-equation CG in f64 on 8^3x4: a cold
     solve, warm solves, then a restart solve over the cache the cold
     solve wrote.

   Every operation is checked against reference bits that only the CPU
   evaluator produces ([--regen]).  With [--trace 1] the benchmark also
   records host-time spans around the calls it makes into each layer
   (see Trace) and replays a small kernel corpus through the compile
   layers one stage at a time. *)

module Shape = Layout.Shape
module Geometry = Layout.Geometry
module Field = Qdp.Field
module Expr = Qdp.Expr
module Engine = Qdpjit.Engine
module Ctx = Hmc.Context
module Device = Gpusim.Device

type size = Full | Tiny

let workload = ref ""
let seed = ref 0
let seconds = ref 10.0
let trace_mode = ref false
let size = ref Full
let reference_path = ref "perfbench/reference.txt"
let out_dir = ".bench_out"
let regen_sets = ref ""

let now = Unix.gettimeofday
let log fmt = Printf.printf ("perfbench: " ^^ fmt ^^ "\n%!")
let size_name = function Full -> "full" | Tiny -> "tiny"

(* ------------------------------------------------------------------ *)
(* Inputs: --seed selects one of [sets] input sets, each with its own
   committed reference bits. *)

let sets = 8
let set_of_seed s = ((s mod sets) + sets) mod sets
let input_seed set k = Int64.of_int ((1_000_003 * (set + 1)) + k)
let bits f = Printf.sprintf "%016Lx" (Int64.bits_of_float f)

let checksum fld =
  let h = ref 0xcbf29ce484222325L in
  for site = 0 to Field.volume fld - 1 do
    Array.iter
      (fun v -> h := Int64.mul (Int64.logxor !h (Int64.bits_of_float v)) 0x100000001b3L)
      (Field.get_site fld ~site)
  done;
  !h

(* Reference file lines: "<workload> <size> <set> <index> <bits...>"; an
   operation's observed string must equal everything after the index. *)
let load_reference path =
  let tbl = Hashtbl.create 64 in
  let ic = open_in path in
  (try
     while true do
       let line = String.trim (input_line ic) in
       if line <> "" && line.[0] <> '#' then
         match String.split_on_char ' ' line with
         | w :: sz :: set :: idx :: rest ->
             Hashtbl.replace tbl (w, sz, int_of_string set, int_of_string idx)
               (String.concat " " rest)
         | _ -> failwith ("malformed reference line: " ^ line)
     done
   with End_of_file -> close_in ic);
  tbl

(* ------------------------------------------------------------------ *)
(* Environment. *)

let guarded_env =
  [ "REPRO_JIT_CACHE"; "REPRO_VM_SUPERINSN"; "REPRO_VM_DOMAINS"; "REPRO_MULTI_DOMAINS" ]

let check_env () =
  match List.filter (fun v -> Sys.getenv_opt v <> None) guarded_env with
  | [] -> ()
  | set ->
      Printf.eprintf "perfbench: refusing to start with %s set (it overrides what is measured)\n"
        (String.concat ", " set);
      exit 2

let workers = Gpusim.Vm_backend.available_domains ()

(* A memory line of /proc/self/status ("VmHWM" peak, "VmRSS" current), in MB. *)
let status_mb key =
  let key = key ^ ":" in
  let k = String.length key in
  try
    let ic = open_in "/proc/self/status" in
    let rec scan () =
      match input_line ic with
      | l when String.length l > k && String.sub l 0 k = key ->
          Scanf.sscanf (String.sub l k (String.length l - k)) " %d" (fun kb -> float_of_int kb /. 1024.)
      | _ -> scan ()
    in
    let v = try scan () with End_of_file -> nan in
    close_in ic;
    v
  with Sys_error _ -> nan

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let cache_dirs = ref []

let fresh_cache_dir () =
  let d =
    Filename.concat out_dir
      (Printf.sprintf "cache-%s-%d-%d" !workload (Unix.getpid ()) (List.length !cache_dirs))
  in
  remove_tree d;
  cache_dirs := d :: !cache_dirs;
  d

let new_engine dir =
  let cache = Jitcache.create dir in
  let eng = Engine.create ~vm_domains:workers ~jit_cache:cache () in
  (match Engine.jit_cache eng with
  | Some c when c == cache -> ()
  | _ -> failwith "engine did not attach the benchmark's kernel cache");
  (eng, cache)

(* ------------------------------------------------------------------ *)
(* Closures handed to the library, wrapped in spans (a direct call when
   tracing is off).  Only Jitcache.stats is read inside a span. *)

let misses_of cache () = (Jitcache.stats cache).Jitcache.misses

let traced_backend eng cache =
  let b = Ctx.jit_backend eng and misses = misses_of cache in
  {
    b with
    Ctx.eval =
      (fun ?subset d e -> Trace.span ~misses "engine.eval" (fun () -> b.Ctx.eval ?subset d e));
    sum_real = (fun e -> Trace.span ~misses "engine.sum_real" (fun () -> b.Ctx.sum_real e));
    norm2 = (fun ?subset e -> Trace.span ~misses "engine.norm2" (fun () -> b.Ctx.norm2 ?subset e));
    inner =
      (fun ?subset a c -> Trace.span ~misses "engine.inner" (fun () -> b.Ctx.inner ?subset a c));
  }

let traced_monomial label (m : Hmc.Monomial.t) =
  let r = "hmc.refresh." ^ label and a = "hmc.action." ^ label and f = "hmc.force." ^ label in
  {
    m with
    Hmc.Monomial.refresh = (fun () -> Trace.span r m.Hmc.Monomial.refresh);
    action = (fun () -> Trace.span a m.Hmc.Monomial.action);
    add_force = (fun fs -> Trace.span f (fun () -> m.Hmc.Monomial.add_force fs));
  }

let traced_ops eng cache shape geom =
  let o = Solvers.Ops.jit eng shape geom and misses = misses_of cache in
  {
    o with
    Solvers.Ops.assign =
      (fun ?subset d e -> Trace.span ~misses "engine.eval" (fun () -> o.Solvers.Ops.assign ?subset d e));
    norm2 =
      (fun ?subset e -> Trace.span ~misses "engine.norm2" (fun () -> o.Solvers.Ops.norm2 ?subset e));
    inner =
      (fun ?subset a b ->
        Trace.span ~misses "engine.inner" (fun () -> o.Solvers.Ops.inner ?subset a b));
  }

let traced_linop (l : Solvers.Ops.linop) =
  let apply d s = Trace.span "solvers.apply" (fun () -> l.Solvers.Ops.apply d s) in
  { l with Solvers.Ops.apply }

(* ------------------------------------------------------------------ *)
(* Operations: one trajectory or one solve, with the counters read at its
   boundaries.  Engine.fusion_stats and Engine.kernels_built flush the
   deferred queue, so they are read here, between operations, in traced
   and untraced runs alike. *)

type counters = {
  launches : int;
  failures : int;
  kernel_ns : float;
  h2d : int;
  d2h : int;
  uploads : int;
  pageouts : int;
  spills : int;
  stores : int;
  hits : int;
  misses : int;
  corrupt : int;
  flushes : int;
  fused_groups : int;
  launches_saved : int;
  fallbacks : int;
  built : int;
}

let snapshot eng cache =
  let d = Device.stats (Engine.device eng)
  and m = Memcache.stats (Engine.memcache eng)
  and j = Jitcache.stats cache in
  let f = Engine.fusion_stats eng in
  {
    launches = d.Device.launches;
    failures = d.Device.launch_failures;
    kernel_ns = d.Device.kernel_ns;
    h2d = d.Device.h2d_bytes;
    d2h = d.Device.d2h_bytes;
    uploads = m.Memcache.uploads;
    pageouts = m.Memcache.pageouts;
    spills = m.Memcache.spills;
    stores = j.Jitcache.stores;
    hits = j.Jitcache.hits;
    misses = j.Jitcache.misses;
    corrupt = j.Jitcache.corrupt;
    flushes = f.Engine.flushes;
    fused_groups = f.Engine.fused_groups;
    launches_saved = f.Engine.launches_saved;
    fallbacks = f.Engine.fallbacks;
    built = Engine.kernels_built eng;
  }

let delta a b =
  {
    launches = b.launches - a.launches;
    failures = b.failures - a.failures;
    kernel_ns = b.kernel_ns -. a.kernel_ns;
    h2d = b.h2d - a.h2d;
    d2h = b.d2h - a.d2h;
    uploads = b.uploads - a.uploads;
    pageouts = b.pageouts - a.pageouts;
    spills = b.spills - a.spills;
    stores = b.stores - a.stores;
    hits = b.hits - a.hits;
    misses = b.misses - a.misses;
    corrupt = b.corrupt - a.corrupt;
    flushes = b.flushes - a.flushes;
    fused_groups = b.fused_groups - a.fused_groups;
    launches_saved = b.launches_saved - a.launches_saved;
    fallbacks = b.fallbacks - a.fallbacks;
    built = b.built - a.built;
  }

type op = {
  id : int;
  mutable phase : string;  (* cold | priming | steady | warm | restart *)
  index : int;  (* reference index *)
  wall : float;
  traced : bool;
  c : counters;
  iters : int;
  observed : string;
  mutable failed : string option;
}

(* [f ()] and its wall time in ms. *)
let timed f =
  let t0 = now () in
  let v = f () in
  (v, (now () -. t0) *. 1e3)

(* Set-up times.  All set-ups are timed before the cold operation,
   where the process is in the same state in every run: [setup_warmup]
   untimed set-ups (the first few of a process page-fault and grow the
   heap), then [setup_timed] timed ones, each from a collected heap with
   the one before it torn down; the last is kept for the cold operation.
   setup_s is the median of the timed ones. *)
let setup_samples = ref []
let setup_warmup = 8
let setup_timed = 15

let repeated_setup setup teardown =
  let rec go k =
    Gc.full_major ();
    let st, ms = timed setup in
    if k > setup_warmup then setup_samples := (ms /. 1e3) :: !setup_samples;
    if k = setup_warmup + setup_timed then st else (teardown st; go (k + 1))
  in
  go 1

let ops : op list ref = ref []
let next_id = ref 0

(* [f ()] returns (solver iterations, observed bits, converged). *)
let run_op ~eng ~cache ~phase ~index ~traced ~expected f =
  incr next_id;
  let id = !next_id in
  let c0 = snapshot eng cache in
  let known = List.length (Engine.jit_stats eng) in
  Gc.full_major ();
  Trace.op := id;
  Trace.enabled := traced;
  let t0 = now () in
  let outcome = try Ok (f ()) with e -> Error (Printexc.to_string e) in
  let wall = now () -. t0 in
  Trace.enabled := false;
  Trace.op := 0;
  let c = delta c0 (snapshot eng cache) in
  if c.built > 0 && phase <> "cold" then
    List.filteri (fun i _ -> i >= known) (Engine.jit_stats eng)
    |> List.map (fun (s : Engine.jit_stats) ->
           Printf.sprintf "%s(%d instrs)" s.Engine.kname s.Engine.opt_instructions)
    |> String.concat " " |> log "  built: %s";
  let iters, observed, failed =
    match outcome with
    | Error msg -> (0, "error", Some ("raised " ^ msg))
    | Ok (_, obs, false) -> (0, obs, Some "did not converge")
    | Ok (it, obs, true) ->
        let failed =
          match expected with
          | Some e when e <> obs -> Some (Printf.sprintf "bits %s, reference %s" obs e)
          | None -> Some "no reference entry"
          | Some _ -> None
        in
        (it, obs, failed)
  in
  let o = { id; phase; index; wall; traced; c; iters; observed; failed } in
  ops := o :: !ops;
  log "%-8s #%d  %8.3f s  launches=%d flushes=%d built=%d stores=%d iters=%d rss=%.0fMB %s" phase
    index wall c.launches c.flushes c.built c.stores iters (status_mb "VmRSS")
    (match failed with None -> "ok" | Some m -> "FAILED: " ^ m);
  o

let fail o why = if o.failed = None then o.failed <- Some why

(* The timed warm phase: [taken] samples exist already; at least two in
   all, then until the wall-clock budget is spent.  Traced runs alternate
   traced and untraced operations so the tracing overhead is their
   difference on the same warm engine. *)
let warm_loop ?(taken = 0) f =
  let t0 = now () in
  let n = ref taken in
  while !n < 2 || now () -. t0 < !seconds do
    let traced = !trace_mode && !n mod 2 = 0 in
    let o = f ~traced in
    if o.c.stores > 0 then fail o "stored to the kernel cache in a warm phase";
    incr n
  done

(* The restart operation, on a fresh engine over the kernel cache the
   cold operation wrote, must reproduce the cold bits. *)
let restart ~cold f =
  let o = f () in
  if o.observed <> cold.observed then
    fail o (Printf.sprintf "restart bits %s differ from cold %s" o.observed cold.observed)

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* ------------------------------------------------------------------ *)
(* rhmc_2p1 *)

type rhmc_cfg = { l : int; steps : int; full_monomials : bool }

(* Span and metric labels of the four monomials, in integration order. *)
let monomial_labels = [ "gauge"; "two_flavor"; "hasenbusch"; "rhmc" ]

let rhmc_cfg = function
  | Full -> { l = 2; steps = 2; full_monomials = true }
  | Tiny -> { l = 2; steps = 1; full_monomials = false }

let max_priming = 3

(* Trajectory 1 starts from the CLI's warm random gauge field (gauge seed
   17) with the input set's random stream (input seed 0); trajectory 2
   starts from the links trajectory 1 produced, with its own random stream
   (input seed 2).  Priming and steady operations all replay
   trajectory 2, so each runs the same eval sequence: the kernel set it
   needs is closed after its first run, and every steady operation does
   identical work. *)
let rhmc_program cfg set ~approx ~start backend =
  let geom = Geometry.create (Array.make 4 cfg.l) in
  let ctx =
    match start with
    | None ->
        let ctx = Ctx.create ~backend ~seed:(input_seed set 0) geom in
        Lqcd.Gauge.random_gauge ~epsilon:0.25 ctx.Ctx.u (Prng.create ~seed:17L);
        ctx
    | Some links ->
        let ctx = Ctx.create ~backend ~seed:(input_seed set 2) geom in
        Array.iteri (fun mu l -> Field.copy_from ~dst:ctx.Ctx.u.(mu) ~src:l) links;
        ctx
  in
  let gauge = Hmc.Gauge_monomial.create ctx ~beta:5.6 () in
  let heavy = Hmc.Two_flavor.create ctx ~kappa:0.10 () in
  let monomials =
    if cfg.full_monomials then
      let ratio = Hmc.Two_flavor.create_ratio ctx ~kappa_light:0.115 ~kappa_heavy:0.10 () in
      let strange = Hmc.Rhmc_monomial.create ctx ~kappa:0.09 ~approx () in
      [ ("gauge", gauge); ("two_flavor", heavy); ("hasenbusch", ratio); ("rhmc", strange) ]
    else [ ("gauge", gauge); ("two_flavor", heavy) ]
  in
  (ctx, monomials)

let make_approx () = Hmc.Rhmc_monomial.make_approx ~lo:0.05 ~hi:8.0 ()
let rhmc_params cfg = { Hmc.Driver.steps = cfg.steps; dt = 0.0625; scheme = Hmc.Integrator.Omelyan }

let observe_traj (r : Hmc.Driver.trajectory_result) =
  Printf.sprintf "%s %s %d" (bits r.Hmc.Driver.delta_h) (bits r.Hmc.Driver.plaquette)
    r.Hmc.Driver.solver_iterations

(* Host copies of the links, the start of every replayed trajectory. *)
let snapshot_links (ctx : Ctx.t) =
  Array.map
    (fun l ->
      let c = Field.create l.Field.shape ctx.Ctx.geom in
      Field.copy_from ~dst:c ~src:l;
      c)
    ctx.Ctx.u

type rhmc_engine = { eng : Engine.t; cache : Jitcache.t; approx : Hmc.Rhmc_monomial.approx }

(* A trajectory's context and monomials on [e], wrapped for tracing. *)
let rhmc_on cfg set e ~start =
  let ctx, ms = rhmc_program cfg set ~approx:e.approx ~start (traced_backend e.eng e.cache) in
  (ctx, List.map (fun (l, m) -> traced_monomial l m) ms)

let rhmc_engine dir =
  let eng, cache = new_engine dir in
  { eng; cache; approx = make_approx () }

let trajectory cfg (ctx, monomials) () =
  let r =
    Trace.span "hmc.run_trajectory" (fun () ->
        Hmc.Driver.run_trajectory ctx monomials (rhmc_params cfg))
  in
  (r.Hmc.Driver.solver_iterations, observe_traj r, true)

(* Phases 1-3 on one engine; returns before the restart so that engine
   and everything it compiled can be collected first. *)
let rhmc_first_engine cfg expect =
  let set = set_of_seed !seed in
  let dir, e, prog =
    repeated_setup
      (fun () ->
        let dir = fresh_cache_dir () in
        let e = rhmc_engine dir in
        (dir, e, rhmc_on cfg set e ~start:None))
      (fun (dir, _, _) -> remove_tree dir)
  in
  let op ~phase ~index ~traced prog =
    run_op ~eng:e.eng ~cache:e.cache ~phase ~index ~traced ~expected:(expect index)
      (trajectory cfg prog)
  in
  let cold = op ~phase:"cold" ~index:1 ~traced:!trace_mode prog in
  let compile_stats = Engine.jit_stats e.eng in
  let entry_bytes = Jitcache.entry_bytes e.cache in
  let links = snapshot_links (fst prog) in
  let replay ~phase ~traced = op ~phase ~index:2 ~traced (rhmc_on cfg set e ~start:(Some links)) in
  (* Priming ends with the first replay that builds no kernel: that replay
     is warm, and it is the first steady sample. *)
  let rec prime k =
    let o = replay ~phase:"priming" ~traced:!trace_mode in
    if o.c.built = 0 then o.phase <- "steady"
    else if k = max_priming then fail o "still building kernels after the priming budget"
    else prime (k + 1)
  in
  prime 1;
  warm_loop ~taken:1 (fun ~traced -> replay ~phase:"steady" ~traced);
  (dir, cold, compile_stats, entry_bytes)

let run_rhmc expect =
  let cfg = rhmc_cfg !size in
  let dir, cold, compile_stats, entry_bytes = rhmc_first_engine cfg expect in
  restart ~cold (fun () ->
      let e = rhmc_engine dir in
      run_op ~eng:e.eng ~cache:e.cache ~phase:"restart" ~index:1 ~traced:!trace_mode
        ~expected:(expect 1)
        (trajectory cfg (rhmc_on cfg (set_of_seed !seed) e ~start:None)));
  (compile_stats, entry_bytes, "traj")

(* ------------------------------------------------------------------ *)
(* wilson_cg *)

let wilson_dims = function Full -> [| 8; 8; 8; 4 |] | Tiny -> [| 4; 4; 4; 4 |]
let kappa = 0.115

let wilson_inputs set =
  let geom = Geometry.create (wilson_dims !size) in
  let u = Lqcd.Gauge.create_links geom in
  Lqcd.Gauge.random_gauge ~epsilon:0.3 u (Prng.create ~seed:(input_seed set 1));
  let b = Field.create (Shape.lattice_fermion Shape.F64) geom in
  Field.fill_gaussian b (Prng.create ~seed:(input_seed set 2));
  (geom, u, b)

let cg_solve ops nop b =
  let x = ops.Solvers.Ops.fresh () in
  let r = Solvers.Cg.solve ops nop ~b ~x ~tol:1e-8 ~max_iter:2000 () in
  (r, x)

type wilson_state = {
  weng : Engine.t;
  wcache : Jitcache.t;
  wops : Solvers.Ops.t;
  nop : Solvers.Ops.linop;
  b : Field.t;
}

(* Set-up loads the run's input set, made once from the seed, into fresh
   fields, as a program loads a stored configuration; generating it is
   the benchmark's work, not the set-up's. *)
let wilson_state (geom, u0, b0) dir =
  let eng, cache = new_engine dir in
  let u = Lqcd.Gauge.create_links geom in
  Array.iteri (fun mu l -> Field.copy_from ~dst:u.(mu) ~src:l) u0;
  let b = Field.create b0.Field.shape geom in
  Field.copy_from ~dst:b ~src:b0;
  let ops = traced_ops eng cache (Shape.lattice_fermion Shape.F64) geom in
  let nop = traced_linop (Solvers.Ops.normal_op ops ~apply_m:(Lqcd.Wilson.wilson_expr ~kappa u)) in
  { weng = eng; wcache = cache; wops = ops; nop; b }

let solve st () =
  let r, x = Trace.span "solvers.cg" (fun () -> cg_solve st.wops st.nop st.b) in
  ignore (Trace.span "engine.synchronize" (fun () -> Engine.synchronize st.weng));
  let it = r.Solvers.Cg.iterations in
  (it, Printf.sprintf "%d %016Lx" it (checksum x), r.Solvers.Cg.converged)

let run_wilson expect =
  let inputs = wilson_inputs (set_of_seed !seed) in
  let dir, st =
    repeated_setup
      (fun () ->
        let dir = fresh_cache_dir () in
        (dir, wilson_state inputs dir))
      (fun (dir, _) -> remove_tree dir)
  in
  let op st ~phase ~traced =
    run_op ~eng:st.weng ~cache:st.wcache ~phase ~index:1 ~traced ~expected:(expect 1) (solve st)
  in
  let cold = op st ~phase:"cold" ~traced:!trace_mode in
  let compile_stats = Engine.jit_stats st.weng in
  let entry_bytes = Jitcache.entry_bytes st.wcache in
  warm_loop (fun ~traced -> op st ~phase:"warm" ~traced);
  restart ~cold (fun () -> op (wilson_state inputs dir) ~phase:"restart" ~traced:!trace_mode);
  (compile_stats, entry_bytes, "solve")

(* ------------------------------------------------------------------ *)
(* Corpus replay (traced runs): four representative kernels taken through
   codegen, each middle-end pass, printing, the driver JIT and the
   superinstruction planner one stage at a time, plus one unfused warm
   launch each.  The replayed pipeline must end on Passes.run's kernel. *)

let pass_names = List.map fst (Ptx.Passes.default_pipeline ())

let corpus () =
  let geom = Geometry.create (wilson_dims !size) in
  let ctx = Ctx.create ~backend:Ctx.cpu_backend ~seed:7L geom in
  Lqcd.Gauge.random_gauge ~epsilon:0.3 ctx.Ctx.u (Prng.create ~seed:8L);
  let u = ctx.Ctx.u in
  let psi = Ctx.fresh_fermion ctx and chi = Ctx.fresh_fermion ctx in
  Field.fill_gaussian psi (Prng.create ~seed:9L);
  Field.fill_gaussian chi (Prng.create ~seed:10L);
  let cm = Shape.lattice_color_matrix Shape.F64 and fm = Shape.lattice_fermion Shape.F64 in
  let n2 = Expr.norm2_local (Expr.field psi) in
  let cases =
    [
      ("deriv", Hmc.Fermion_force.dslash_deriv ctx ~x:psi ~y:chi ~mu:0, cm, false);
      ("dslash", Lqcd.Wilson.hopping_expr u psi, fm, false);
      ("wilson", Lqcd.Wilson.wilson_expr ~kappa u psi, fm, false);
      ("norm2", n2, Expr.shape n2, true);
    ]
  in
  let eng = Engine.create ~vm_domains:workers ~fuse:false () in
  incr next_id;
  Trace.op := !next_id;
  Trace.enabled := true;
  let results =
    List.map
      (fun (k, expr, dest_shape, reduction) ->
        let built, emit_ms =
          timed (fun () ->
              Trace.span "codegen.build" (fun () ->
                  Qdpjit.Codegen.build ~optimize:false ~reduction ~kname:("pb_" ^ k) ~dest_shape ~expr
                    ~nsites:(Geometry.volume geom) ~use_sitelist:false ()))
        in
        let raw = built.Qdpjit.Codegen.raw in
        (* Passes.run's fixpoint loop, one timed pass application at a time. *)
        let pass_ms = Hashtbl.create 8 in
        let round kern =
          List.fold_left
            (fun kern (name, pass) ->
              let kern', ms = timed (fun () -> Trace.span ("ptx.pass." ^ name) (fun () -> pass kern)) in
              Hashtbl.replace pass_ms name (ms +. Option.value (Hashtbl.find_opt pass_ms name) ~default:0.);
              kern')
            kern (Ptx.Passes.default_pipeline ())
        in
        let rec go rounds kern =
          let kern' = round kern in
          if compare kern kern' = 0 || rounds >= 4 then kern' else go (rounds + 1) kern'
        in
        let replayed = go 1 raw in
        let reference, run_ms = timed (fun () -> Trace.span "ptx.run" (fun () -> Ptx.Passes.run raw)) in
        let text = Trace.span "ptx.print" (fun () -> Ptx.Print.kernel replayed) in
        let same =
          compare replayed reference.Ptx.Passes.kernel = 0
          && text = Ptx.Print.kernel reference.Ptx.Passes.kernel
        in
        let compiled, jit_ms = timed (fun () -> Trace.span "jit.compile" (fun () -> Gpusim.Jit.compile text)) in
        let s =
          Trace.span "vm.superinsn_stats" (fun () -> Gpusim.Vm.superinsn_stats compiled.Gpusim.Jit.program)
        in
        let ratio, planned =
          if s.Gpusim.Vm.total = 0 then (1.0, 0.0)
          else
            let t = float_of_int s.Gpusim.Vm.total in
            (float_of_int (s.Gpusim.Vm.units + s.Gpusim.Vm.total - s.Gpusim.Vm.covered) /. t,
             float_of_int s.Gpusim.Vm.covered /. t)
        in
        let launch =
          if reduction then fun () -> ignore (Engine.norm2 eng (Expr.field psi))
          else
            let dest = Field.create dest_shape geom in
            fun () -> Engine.eval eng dest expr
        in
        let launch () = Trace.span "vm.launch" (fun () -> launch (); ignore (Engine.synchronize eng)) in
        for _ = 1 to 4 do launch () done;
        let kernel_ms = median (List.init 5 (fun _ -> snd (timed launch))) in
        ( k,
          same,
          [
            ("codegen.emit_ms." ^ k, emit_ms, "ms");
            ("ptx.run_ms." ^ k, run_ms, "ms");
            ("jit.compile_ms." ^ k, jit_ms, "ms");
            ("vm.dispatch_ratio." ^ k, ratio, "ratio");
            ("vm.soa_planned." ^ k, planned, "ratio");
            ("vm.kernel_ms." ^ k, kernel_ms, "ms");
          ]
          @ List.map
              (fun p -> (Printf.sprintf "ptx.pass_ms.%s.%s" p k, Hashtbl.find pass_ms p, "ms"))
              pass_names ))
      cases
  in
  Trace.enabled := false;
  Trace.op := 0;
  let matches = List.filter (fun (_, same, _) -> same) results in
  log "corpus replay: final kernels equal Passes.run for %d/%d" (List.length matches)
    (List.length results);
  (List.length matches = List.length results, List.concat_map (fun (_, _, m) -> m) results)

(* ------------------------------------------------------------------ *)
(* Metrics *)

let counters_line o =
  Printf.sprintf "%s %d launches=%d flushes=%d built=%d fused=%d iters=%d bits=%s" o.phase o.index
    o.c.launches o.c.flushes o.c.built o.c.fused_groups o.iters o.observed

let counters_path trace =
  Filename.concat out_dir
    (Printf.sprintf "counters-%s-%s-%d-trace%d.txt" !workload (size_name !size) !seed
       (if trace then 1 else 0))

(* A traced run must reproduce the untraced run's deterministic counters;
   compared phase by phase over the operations both ran (the warm phase
   is time-boxed, so its length may differ). *)
let compare_with_untraced lines =
  let path = counters_path false in
  if not (Sys.file_exists path) then (
    log "no untraced counters at %s; traced/untraced comparison skipped" path;
    true)
  else begin
    let ic = open_in path in
    let rec read acc =
      match input_line ic with l -> read (l :: acc) | exception End_of_file -> List.rev acc
    in
    let theirs = read [] in
    close_in ic;
    let phase l = List.hd (String.split_on_char ' ' l) in
    let phases = List.sort_uniq compare (List.map phase lines) in
    let rec cmp a b n =
      match (a, b) with
      | x :: a', y :: b' when x = y -> cmp a' b' (n + 1)
      | x :: _, y :: _ ->
          log "traced/untraced counters differ:\n  traced:   %s\n  untraced: %s" x y;
          None
      | _ -> Some n
    in
    let only p = List.filter (fun l -> phase l = p) in
    let per_phase = List.map (fun p -> cmp (only p lines) (only p theirs) 0) phases in
    if List.mem None per_phase then false
    else (
      log "traced and untraced counters agree on %d operations"
        (List.fold_left (fun a n -> a + Option.get n) 0 per_phase);
      true)
  end

let write_lines path lines =
  let oc = open_out path in
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  close_out oc

let emit ~correct ~attempted ~failed metrics =
  let m =
    String.concat ", "
      (List.map (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" n v u) metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed m

let layer_metrics ~kind all compile_stats entry_bytes corpus_metrics =
  let by phase = List.filter (fun o -> o.phase = phase) all in
  let cold = List.hd (by "cold") and restart = List.hd (by "restart") in
  let warm = List.filter (fun o -> o.phase = "steady" || o.phase = "warm") all in
  let traced = List.filter (fun o -> o.traced) warm in
  let untraced = List.filter (fun o -> not o.traced) warm in
  let n = float_of_int (max 1 (List.length traced)) in
  let per_op f = List.fold_left (fun a o -> a +. f o) 0. traced /. n in
  let agg = Trace.aggregate ~ops:(List.map (fun o -> o.id) traced) in
  let cold_agg = Trace.aggregate ~ops:[ cold.id ] in
  let reduce = [ "engine.norm2"; "engine.inner"; "engine.sum_real" ] in
  let engine_calls = "engine.eval" :: "engine.synchronize" :: reduce in
  let each prefix = List.map (( ^ ) prefix) monomial_labels in
  let sum a f names = List.fold_left (fun acc nm -> acc +. f (a nm)) 0. names in
  let total (x : Trace.agg) = x.Trace.total and calls (x : Trace.agg) = float_of_int x.Trace.calls in
  let fi = float_of_int in
  let sum_stats f = fi (List.fold_left (fun a (s : Engine.jit_stats) -> a + f s) 0 compile_stats) in
  let hmc = kind = "traj" in
  let on_hmc v = if hmc then v else 0. and on_cg v = if hmc then 0. else v in
  let warm_med l = median (List.map (fun o -> o.wall) l) in
  let spans = Trace.spans () in
  let spans_of o =
    Array.fold_left (fun a (s : Trace.span) -> if s.Trace.op = o.id then a + 1 else a) 0 spans
  in
  [
    ("ptx.raw_instrs", sum_stats (fun s -> s.Engine.raw_instructions), "count");
    ("ptx.opt_instrs", sum_stats (fun s -> s.Engine.opt_instructions), "count");
    ( "ptx.max_kernel_instrs",
      fi (List.fold_left (fun a (s : Engine.jit_stats) -> max a s.Engine.opt_instructions) 0 compile_stats),
      "count" );
    ( "ptx.fused_members",
      sum_stats (fun s -> if s.Engine.fused_members > 1 then s.Engine.fused_members else 0),
      "count" );
    ("engine.kernels_built", fi cold.c.built, "count");
    ("engine.compile_s", sum cold_agg (fun a -> a.Trace.missed_total) engine_calls, "s");
    ("jitcache.stores", fi cold.c.stores, "count");
    ("jitcache.entry_bytes", fi entry_bytes, "B");
    ("jitcache.hits", fi restart.c.hits, "count");
    ("jitcache.misses", fi restart.c.misses, "count");
    ("jitcache.corrupt", fi restart.c.corrupt, "count");
    ("device.sim_kernel_ms", per_op (fun o -> o.c.kernel_ns /. 1e6), "ms");
    ("device.launches", per_op (fun o -> fi o.c.launches), "count");
    ("device.launch_failures", per_op (fun o -> fi o.c.failures), "count");
    ("device.h2d_bytes", per_op (fun o -> fi o.c.h2d), "B");
    ("device.d2h_bytes", per_op (fun o -> fi o.c.d2h), "B");
    ("memcache.uploads", per_op (fun o -> fi o.c.uploads), "count");
    ("memcache.pageouts", per_op (fun o -> fi o.c.pageouts), "count");
    ("memcache.spills", per_op (fun o -> fi o.c.spills), "count");
    ("engine.eval_s", total (agg "engine.eval") /. n, "s");
    ("engine.eval_calls", calls (agg "engine.eval") /. n, "count");
    ("engine.reduce_s", sum agg total reduce /. n, "s");
    ("engine.reduce_calls", sum agg calls reduce /. n, "count");
    ("engine.flushes", per_op (fun o -> fi o.c.flushes), "count");
    ("engine.fused_groups", per_op (fun o -> fi o.c.fused_groups), "count");
    ("engine.launches_saved", per_op (fun o -> fi o.c.launches_saved), "count");
    ("engine.fallbacks", per_op (fun o -> fi o.c.fallbacks), "count");
    ("hmc.host_s", on_hmc ((agg "hmc.run_trajectory").Trace.self_s /. n), "s");
    ("hmc.action_s", on_hmc (sum agg total (each "hmc.action.") /. n), "s");
    ("hmc.refresh_s", on_hmc (sum agg total (each "hmc.refresh.") /. n), "s");
    ("hmc.solver_iterations", on_hmc (per_op (fun o -> fi o.iters)), "count");
    ("solvers.cg_iterations", on_cg (per_op (fun o -> fi o.iters)), "count");
    ("solvers.apply_s", on_cg (total (agg "solvers.apply") /. n), "s");
    ("solvers.host_s", on_cg ((agg "solvers.cg").Trace.self_s /. n), "s");
    ( "trace.overhead_pct",
      (let u = warm_med untraced in
       100. *. (warm_med traced -. u) /. u),
      "%" );
    ("trace.spans_per_op", per_op (fun o -> fi (spans_of o)), "count");
  ]
  @ List.map
      (fun m -> ("hmc.force_s." ^ m, on_hmc (total (agg ("hmc.force." ^ m)) /. n), "s"))
      monomial_labels
  @ corpus_metrics

(* ------------------------------------------------------------------ *)
(* Reference regeneration: the CPU evaluator only. *)

let regen () =
  let lo, hi = Scanf.sscanf !regen_sets "%d-%d" (fun a b -> (a, b)) in
  let sz = size_name !size in
  for set = lo to hi do
    match !workload with
    | "rhmc_2p1" ->
        let cfg = rhmc_cfg !size and approx = make_approx () in
        let traj i start =
          let ctx, ms = rhmc_program cfg set ~approx ~start Ctx.cpu_backend in
          let r = Hmc.Driver.run_trajectory ctx (List.map snd ms) (rhmc_params cfg) in
          Printf.printf "rhmc_2p1 %s %d %d %s\n%!" sz set i (observe_traj r);
          ctx
        in
        ignore (traj 2 (Some (snapshot_links (traj 1 None))))
    | "wilson_cg" ->
        let geom, u, b = wilson_inputs set in
        let ops = Solvers.Ops.cpu (Shape.lattice_fermion Shape.F64) geom in
        let nop = Solvers.Ops.normal_op ops ~apply_m:(Lqcd.Wilson.wilson_expr ~kappa u) in
        let r, x = cg_solve ops nop b in
        if not r.Solvers.Cg.converged then failwith "reference solve did not converge";
        Printf.printf "wilson_cg %s %d 1 %d %016Lx\n%!" sz set r.Solvers.Cg.iterations (checksum x)
    | w -> failwith ("unknown workload " ^ w)
  done

(* ------------------------------------------------------------------ *)

let main () =
  let spec =
    [
      ("--workload", Arg.Set_string workload, "rhmc_2p1 | wilson_cg");
      ("--seed", Arg.Set_int seed, "input seed (selects one of 8 input sets)");
      ("--seconds", Arg.Set_float seconds, "wall-clock budget of the warm phase");
      ("--trace", Arg.Int (fun t -> trace_mode := t = 1), "1: per-layer metrics from spans");
      ("--size", Arg.Symbol ([ "full"; "tiny" ], fun s -> size := if s = "tiny" then Tiny else Full), " problem size");
      ("--reference", Arg.Set_string reference_path, "reference bits file");
      ("--regen", Arg.Set_string regen_sets, "A-B: print CPU-evaluator reference lines for input sets A..B");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "bench.exe [options]";
  check_env ();
  if !regen_sets <> "" then (regen (); exit 0);
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  let set = set_of_seed !seed in
  log "workload=%s size=%s seed=%d input_set=%d nproc=%d vm_workers=%d ocaml=%s vm_runtime=%s trace=%b"
    !workload (size_name !size) !seed set workers workers Sys.ocaml_version Gpusim.Vm_backend.runtime
    !trace_mode;
  let sz = size_name !size in
  let reference = load_reference !reference_path in
  let expect idx = Hashtbl.find_opt reference (!workload, sz, set, idx) in
  let run = match !workload with
    | "rhmc_2p1" -> run_rhmc
    | "wilson_cg" -> run_wilson
    | w -> Printf.eprintf "perfbench: unknown workload %S\n" w; exit 2
  in
  let compile_stats, entry_bytes, kind = run expect in
  let setup_s = median !setup_samples in
  let rss = status_mb "VmHWM" in
  let all = List.rev !ops in
  let lines = List.map counters_line all in
  write_lines (counters_path !trace_mode) lines;
  let agree = if !trace_mode then compare_with_untraced lines else true in
  let failed_ops = List.filter (fun o -> o.failed <> None) all in
  let attempted = List.length all and failed = List.length failed_ops in
  let wall phase = List.filter_map (fun o -> if o.phase = phase then Some o.wall else None) all in
  let warm = median (wall "steady" @ wall "warm") in
  let cold = median (wall "cold") and restart = median (wall "restart") in
  log "%s_s = %.4f s (warm, median of %d)" kind warm (List.length (wall "steady" @ wall "warm"));
  log "%s_cold_s = %.4f s" kind cold;
  log "%s_restart_s = %.4f s" kind restart;
  log "setup_s = %.6f s (median of %d set-ups after %d untimed, %.6f..%.6f)" setup_s
    (List.length !setup_samples) setup_warmup
    (List.fold_left min infinity !setup_samples)
    (List.fold_left max 0. !setup_samples);
  log "peak_rss_mb = %.1f MB" rss;
  log "error_rate = %g (%d failed / %d attempted)" (float_of_int failed /. float_of_int attempted) failed attempted;
  let corpus_ok, metrics =
    if !trace_mode then begin
      let ok, corpus_metrics = corpus () in
      Trace.write (Filename.concat out_dir (Printf.sprintf "spans-%s-%s-%d.json" !workload sz !seed));
      (ok, layer_metrics ~kind all compile_stats entry_bytes corpus_metrics)
    end
    else
      ( true,
        [
          ("warm_op_s", warm, "s");
          ("cold_op_s", cold, "s");
          ("restart_op_s", restart, "s");
          ("setup_s", setup_s, "s");
          ("peak_rss_mb", rss, "MB");
        ] )
  in
  List.iter remove_tree !cache_dirs;
  emit ~correct:(failed = 0 && agree && corpus_ok) ~attempted ~failed metrics

let () = main ()
