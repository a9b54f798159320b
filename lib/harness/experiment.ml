open Lbr_logic
open Lbr_jvm

type strategy = Jreduce | Lossy_first | Lossy_last | Gbr

let strategy_name = function
  | Jreduce -> "j-reduce"
  | Lossy_first -> "lossy-first"
  | Lossy_last -> "lossy-last"
  | Gbr -> "gbr"

let all_strategies = [ Jreduce; Lossy_first; Lossy_last; Gbr ]

type outcome = {
  instance_id : string;
  strategy : strategy;
  ok : bool;
  sim_time : float;
  wall_time : float;
  predicate_runs : int;
  replayed_runs : int;
  classes0 : int;
  classes1 : int;
  bytes0 : int;
  bytes1 : int;
  items0 : int;
  items1 : int;
  lines0 : int;
  lines1 : int;
  timeline : (float * int * int) list;
}

let default_cost pool = 1.0 +. (4e-4 *. float_of_int (Size.bytes pool))

exception Cancelled = Lbr_frontend.Run.Cancelled

type evaluation = Lbr_frontend.Run.evaluation = Fresh of bool | Replayed of bool

type hooks = Lbr_frontend.Run.hooks = {
  on_improvement : (float -> int -> int -> unit) option;
  should_stop : (unit -> bool) option;
  evaluate : (key:string -> (unit -> bool) -> evaluation) option;
  peek : (key:string -> bool option) option;
}

let default_hooks = Lbr_frontend.Run.default_hooks

(* Sorted-list inclusion: is every baseline message present?  Shared with
   the frontend subsystem's JVM predicate bridge. *)
let includes_sorted = Lbr_frontend.Jvm.includes_sorted

(* Shared instrumentation: a simulated clock, an improvement timeline, and a
   predicate body evaluating a candidate sub-pool. *)
(* Everything the demand path charges and journals about one predicate
   run, precomputed by a speculative worker: verdict, cost, and the sizes
   the improvement timeline needs.  [cost]/[Size] are deterministic, so
   the payload equals what the inline computation would have produced. *)
type spec_payload = {
  sp_ok : bool;
  sp_cost : float;
  sp_classes : int;
  sp_bytes : int;
}

type driver = {
  clock : float ref;
  improvements : (float * int * int) list ref;
  best : (int * int) ref;
  replayed : int ref;
  check_pool : ?phi:Assignment.t -> Classpool.t -> bool;
  check_payload : phi:Assignment.t -> spec_payload -> bool;
}

let make_driver (instance : Corpus.instance) ~hooks =
  let tool = instance.tool and baseline = instance.baseline_errors in
  let clock = ref 0.0 in
  let best = ref (max_int, max_int) in
  let improvements = ref [] in
  let replayed = ref 0 in
  (* All observable accounting for one predicate run, on the demand path —
     identical whether the verdict/sizes were computed inline or arrive in
     a speculative payload. *)
  let account ?phi ~key_of ~charge ~eval ~size () =
    Lbr_logic.Perf.time "core.check-pool" @@ fun () ->
    (match hooks.should_stop with Some stop when stop () -> raise Cancelled | _ -> ());
    clock := !clock +. charge;
    let ok =
      match hooks.evaluate with
      | None -> eval ()
      | Some evaluate -> (
          (* The key must be stable across processes (it names journal
             entries, which are scoped to one job).  The assignment that
             produced the sub-pool determines it, so digesting the
             assignment's words gives the same memoization as digesting the
             serialized sub-pool without serializing anything; serialization
             remains the fallback for callers with no assignment. *)
          let key =
            match phi with
            | Some phi -> Assignment.digest_hex phi
            | None -> key_of ()
          in
          match evaluate ~key eval with
          | Fresh ok -> ok
          | Replayed ok ->
              incr replayed;
              ok)
    in
    if ok then begin
      let c, b = size () in
      let bc, bb = !best in
      if b < bb || (b = bb && c < bc) then begin
        best := (min bc c, min bb b);
        improvements := (!clock, c, b) :: !improvements;
        match hooks.on_improvement with Some f -> f !clock c b | None -> ()
      end
    end;
    ok
  in
  let check_pool ?phi sub =
    account ?phi
      ~key_of:(fun () -> Digest.to_hex (Digest.string (Serialize.to_bytes sub)))
      ~charge:(default_cost sub)
      ~eval:(fun () -> includes_sorted ~baseline (Lbr_decompiler.Tool.errors tool sub))
      ~size:(fun () -> (Size.classes sub, Size.bytes sub))
      ()
  in
  let check_payload ~phi p =
    account ~phi
      ~key_of:(fun () -> assert false)
      ~charge:p.sp_cost
      ~eval:(fun () -> p.sp_ok)
      ~size:(fun () -> (p.sp_classes, p.sp_bytes))
      ()
  in
  { clock; improvements; best; replayed; check_pool; check_payload }

let finish (instance : Corpus.instance) strategy driver ~runs ~ok ~final ~wall_time =
  let pool = instance.benchmark.pool in
  {
    instance_id = instance.instance_id;
    strategy;
    ok;
    sim_time = !(driver.clock);
    wall_time;
    predicate_runs = runs;
    replayed_runs = !(driver.replayed);
    classes0 = Size.classes pool;
    classes1 = Size.classes final;
    bytes0 = Size.bytes pool;
    bytes1 = Size.bytes final;
    items0 = Size.items pool;
    items1 = Size.items final;
    lines0 = Lbr_decompiler.Source.line_count pool;
    lines1 = Lbr_decompiler.Source.line_count final;
    timeline = List.rev !(driver.improvements);
  }

(* ------------------------------------------------------------------ *)
(* J-Reduce: class-granularity dependency graph + binary reduction.   *)

let class_references pool (c : Classfile.cls) =
  let open Classfile in
  let acc = ref [] in
  let add name = if Classpool.mem pool name && name <> c.name then acc := name :: !acc in
  let add_ty ty = match Jtype.ref_name ty with Some n -> add n | None -> () in
  add c.super;
  List.iter add c.interfaces;
  List.iter (fun (f : field) -> add_ty f.f_type) c.fields;
  let add_insn = function
    | Invoke_virtual { owner; _ } | Invoke_interface { owner; _ } | Invoke_static { owner; _ } ->
        add owner
    | New_instance { cls; _ } -> add cls
    | Get_field { owner; _ } | Put_field { owner; _ } -> add owner
    | Check_cast t | Instance_of t | Load_const_class t -> add t
    | Upcast { from_; to_ } -> add from_; add to_
    | Arith | Load_store | Return_insn -> ()
  in
  List.iter
    (fun (m : meth) ->
      List.iter add_ty (m.m_ret :: m.m_params);
      List.iter add_insn m.m_body)
    c.methods;
  List.iter
    (fun (k : ctor) ->
      List.iter add_ty k.k_params;
      List.iter add_insn k.k_body)
    c.ctors;
  List.iter add c.annotations;
  List.iter add c.inner_classes;
  List.sort_uniq String.compare !acc

let restrict_classes pool keep_names =
  Classpool.classes pool
  |> List.filter (fun (c : Classfile.cls) -> List.mem c.Classfile.name keep_names)
  |> Classpool.of_classes

let run_jreduce instance ~hooks =
  let pool = instance.Corpus.benchmark.pool in
  let names = Array.of_list (Classpool.names pool) in
  let index_of =
    let tbl = Hashtbl.create (Array.length names) in
    Array.iteri (fun i n -> Hashtbl.add tbl n i) names;
    Hashtbl.find tbl
  in
  let edges =
    Classpool.classes pool
    |> List.concat_map (fun (c : Classfile.cls) ->
           List.map
             (fun target -> (index_of c.Classfile.name, index_of target))
             (class_references pool c))
  in
  let base, closures =
    Lbr_baselines.Binary_reduction.Graph_encoding.closures ~num_vars:(Array.length names)
      ~edges ~required:[]
  in
  let driver = make_driver instance ~hooks in
  let sub_pool_of assignment =
    Lbr_logic.Perf.time "jvm.restrict-classes" @@ fun () ->
    restrict_classes pool (List.map (fun i -> names.(i)) (Assignment.to_list assignment))
  in
  let predicate =
    Lbr.Predicate.make ~name:"jreduce" (fun a -> driver.check_pool ~phi:a (sub_pool_of a))
  in
  let t0 = Unix.gettimeofday () in
  let result, runs, ok =
    match Lbr_baselines.Binary_reduction.reduce ~closures ~base ~predicate with
    | Ok (result, stats) -> (result, stats.predicate_runs, true)
    | Error `Predicate_inconsistent -> (Assignment.of_list (List.init (Array.length names) Fun.id), Lbr.Predicate.runs predicate, false)
  in
  let wall_time = Unix.gettimeofday () -. t0 in
  let final = sub_pool_of result in
  (finish instance Jreduce driver ~runs ~ok ~final ~wall_time, final)

(* ------------------------------------------------------------------ *)
(* Item-granularity strategies.                                       *)

(* The JVM path is just the [Frontend_jvm] instance of the frontend
   signature: item inventory and constraint generation are delegated so the
   harness exercises exactly the code the generic runner dispatches to.
   [derive]/[constraints] only fail on pools that violate [Classpool]'s own
   invariants, which [Corpus] never produces. *)
let item_context instance =
  let pool = instance.Corpus.benchmark.pool in
  let vpool = Var.Pool.create () in
  let jv =
    match Lbr_frontend.Jvm.derive vpool pool with
    | Ok jv -> jv
    | Error m -> invalid_arg ("Experiment.item_context: " ^ m)
  in
  let cnf =
    match Lbr_frontend.Jvm.constraints jv pool with
    | Ok cnf -> cnf
    | Error m -> invalid_arg ("Experiment.item_context: " ^ m)
  in
  (pool, vpool, jv, cnf)

let run_lossy instance ~pick ~strategy ~hooks =
  let pool, vpool, jv, cnf = item_context instance in
  let encoded = Lbr.Lossy.encode cnf ~pick in
  let edges, required = Lbr.Lossy.to_graph encoded in
  let base, closures =
    Lbr_baselines.Binary_reduction.Graph_encoding.closures ~num_vars:(Var.Pool.size vpool)
      ~edges ~required
  in
  let driver = make_driver instance ~hooks in
  let sub_pool_of = Reducer.prepare jv pool in
  let predicate =
    Lbr.Predicate.make ~name:"lossy" (fun phi -> driver.check_pool ~phi (sub_pool_of phi))
  in
  let t0 = Unix.gettimeofday () in
  let result, runs, ok =
    match Lbr_baselines.Binary_reduction.reduce ~closures ~base ~predicate with
    | Ok (result, stats) -> (result, stats.predicate_runs, true)
    | Error `Predicate_inconsistent -> (Jvars.all jv, Lbr.Predicate.runs predicate, false)
  in
  let wall_time = Unix.gettimeofday () -. t0 in
  let final = sub_pool_of result in
  (finish instance strategy driver ~runs ~ok ~final ~wall_time, final)

let run_gbr ?speculate instance ~hooks =
  let pool, vpool, jv, cnf = item_context instance in
  let driver = make_driver instance ~hooks in
  let sub_pool_of = Reducer.prepare jv pool in
  let speculation =
    match speculate with
    | None -> None
    | Some worker_pool ->
        let tool = instance.Corpus.tool and baseline = instance.baseline_errors in
        (* Workers each prepare their own applier ([Reducer.prepare]'s
           result is domain-local state) via DLS; cost/Size/[Tool.errors]
           on a fault-free tool are pure. *)
        let applier = Domain.DLS.new_key (fun () -> Reducer.prepare jv pool) in
        let compute phi =
          let sub = (Domain.DLS.get applier) phi in
          {
            sp_ok = includes_sorted ~baseline (Lbr_decompiler.Tool.errors tool sub);
            sp_cost = default_cost sub;
            sp_classes = Size.classes sub;
            sp_bytes = Size.bytes sub;
          }
        in
        let should_launch =
          (* Never launch what a replay journal already knows: speculation
             must not add fresh executions to a replayed workload. *)
          match hooks.peek with
          | None -> None
          | Some peek -> Some (fun phi -> peek ~key:(Assignment.digest_hex phi) = None)
        in
        Some
          (Lbr.Speculate.create
             ~spawn:(fun job ->
               ignore (Lbr_runtime.Pool.submit worker_pool job : unit Lbr_runtime.Pool.future))
             ?should_launch
             ~max_inflight:(2 * Lbr_runtime.Pool.jobs worker_pool)
             compute)
  in
  let predicate =
    Lbr.Predicate.make ~name:"gbr" (fun phi ->
        match
          match speculation with
          | Some sp -> Lbr.Speculate.demand sp phi
          | None -> None
        with
        | Some payload -> driver.check_payload ~phi payload
        | None -> driver.check_pool ~phi (sub_pool_of phi))
  in
  let problem =
    Lbr.Problem.make ~pool:vpool ~universe:(Jvars.all jv) ~constraints:cnf ~predicate
  in
  let order = Lbr_sat.Order.by_creation vpool in
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      match speculation with Some sp -> Lbr.Speculate.drain sp | None -> ())
  @@ fun () ->
  let result, runs, ok =
    match Lbr.Gbr.reduce ?speculate:speculation problem ~order with
    | Ok (result, stats) -> (result, stats.predicate_runs, true)
    | Error (`Unsat | `Predicate_inconsistent | `Invariant_violation _) ->
        (Jvars.all jv, Lbr.Predicate.runs predicate, false)
  in
  let wall_time = Unix.gettimeofday () -. t0 in
  let final = sub_pool_of result in
  (finish instance Gbr driver ~runs ~ok ~final ~wall_time, final)

let run_with ?(hooks = default_hooks) ?speculate strategy instance =
  Lbr_obs.Trace.with_span "harness.instance"
    ~args:(fun () ->
      [
        ("instance", Lbr_obs.Trace.Str instance.Corpus.instance_id);
        ("strategy", Lbr_obs.Trace.Str (strategy_name strategy));
      ])
  @@ fun () ->
  match strategy with
  | Jreduce -> run_jreduce instance ~hooks
  | Lossy_first -> run_lossy instance ~pick:Lbr.Lossy.First_first ~strategy:Lossy_first ~hooks
  | Lossy_last -> run_lossy instance ~pick:Lbr.Lossy.Last_last ~strategy:Lossy_last ~hooks
  | Gbr -> run_gbr ?speculate instance ~hooks

let run strategy instance = fst (run_with strategy instance)

(* Instances are independent — each run builds its own variable pool,
   constraints, predicate, and driver — so fanning them across a domain
   pool changes nothing but wall clock.  [jobs = 1] deliberately bypasses
   the pool: it is byte-for-byte the sequential path above. *)
let run_corpus_full ?(jobs = 1) ?(hooks = fun (_ : Corpus.instance) -> default_hooks)
    ?speculate strategy instance_list =
  if jobs < 1 then invalid_arg "Experiment.run_corpus: jobs must be >= 1";
  let run_one instance =
    run_with ~hooks:(hooks instance) ?speculate strategy instance
  in
  if jobs = 1 then List.map run_one instance_list
  else
    Lbr_runtime.Pool.with_pool ~jobs (fun pool ->
        Lbr_runtime.Pool.map_list pool run_one instance_list)

let run_corpus ?(jobs = 1) strategy instance_list =
  List.map fst (run_corpus_full ~jobs strategy instance_list)
