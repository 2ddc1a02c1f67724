(* Host-time spans recorded from outside the library: the benchmark wraps
   the closures it hands to the library (HMC backend and monomials, solver
   ops and operators) and its own calls into public functions.  Nothing
   here reads library state; the callers pass a probe when a span should
   note that the kernel cache missed while it was open.

   Spans stay in memory while the program runs and are written out once,
   at exit, with their self times (duration minus direct children). *)

type span = {
  name : string;
  parent : int;  (* index of the enclosing open span, -1 at top level *)
  op : int;  (* operation id: one trajectory or one solve; 0 outside ops *)
  t0 : float;
  mutable t1 : float;
  mutable children : float;  (* summed duration of direct children *)
  mutable missed : bool;  (* the probe counted a kernel-cache miss inside *)
}

let enabled = ref false
let op = ref 0
let top = ref (-1)
let count = ref 0

let dummy =
  { name = ""; parent = -1; op = 0; t0 = 0.; t1 = 0.; children = 0.; missed = false }

let store = ref (Array.make 4096 dummy)
let now = Unix.gettimeofday

let push s =
  if !count = Array.length !store then begin
    let bigger = Array.make (2 * !count) dummy in
    Array.blit !store 0 bigger 0 !count;
    store := bigger
  end;
  !store.(!count) <- s;
  incr count

let close idx =
  let s = !store.(idx) in
  s.t1 <- now ();
  top := s.parent;
  if s.parent >= 0 then begin
    let p = !store.(s.parent) in
    p.children <- p.children +. (s.t1 -. s.t0)
  end

(* [span ?misses name f] runs [f ()] inside a span when tracing is on and
   calls straight through otherwise.  [misses] reads a monotone miss
   counter before and after. *)
let span ?misses name f =
  if not !enabled then f ()
  else begin
    let before = match misses with Some m -> m () | None -> 0 in
    let idx = !count in
    push { name; parent = !top; op = !op; t0 = now (); t1 = 0.; children = 0.; missed = false };
    top := idx;
    let finish () =
      close idx;
      match misses with Some m -> !store.(idx).missed <- m () > before | None -> ()
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let self s = s.t1 -. s.t0 -. s.children
let spans () = Array.sub !store 0 !count

type agg = { calls : int; total : float; self_s : float; missed_total : float }

(* Per-name totals over the spans of the given operations. *)
let aggregate ~ops =
  let tbl = Hashtbl.create 64 in
  Array.iter
    (fun s ->
      if List.mem s.op ops then begin
        let a =
          Option.value (Hashtbl.find_opt tbl s.name)
            ~default:{ calls = 0; total = 0.; self_s = 0.; missed_total = 0. }
        in
        let d = s.t1 -. s.t0 in
        Hashtbl.replace tbl s.name
          {
            calls = a.calls + 1;
            total = a.total +. d;
            self_s = a.self_s +. self s;
            missed_total = (a.missed_total +. if s.missed then d else 0.);
          }
      end)
    (spans ());
  fun name ->
    Option.value (Hashtbl.find_opt tbl name)
      ~default:{ calls = 0; total = 0.; self_s = 0.; missed_total = 0. }

(* {"names": [...], "spans": [[name, parent, op, start_us, end_us, self_us], ...]}
   with times relative to the first span. *)
let write path =
  let all = spans () in
  let origin = if Array.length all = 0 then 0. else all.(0).t0 in
  let names = Hashtbl.create 64 and order = ref [] in
  let name_id n =
    match Hashtbl.find_opt names n with
    | Some i -> i
    | None ->
        let i = Hashtbl.length names in
        Hashtbl.add names n i;
        order := n :: !order;
        i
  in
  let ids = Array.map (fun s -> name_id s.name) all in
  let oc = open_out path in
  output_string oc "{\"names\": [";
  List.iteri
    (fun i n -> Printf.fprintf oc "%s%S" (if i = 0 then "" else ", ") n)
    (List.rev !order);
  output_string oc "],\n\"spans\": [";
  let us t = (t -. origin) *. 1e6 in
  Array.iteri
    (fun i s ->
      Printf.fprintf oc "%s\n[%d, %d, %d, %.1f, %.1f, %.1f]"
        (if i = 0 then "" else ",")
        ids.(i) s.parent s.op (us s.t0) (us s.t1) (self s *. 1e6))
    all;
  output_string oc "]}\n";
  close_out oc
