(* lbr_perf — the repository benchmark.

   One closed-loop client reduces a seeded corpus, one reduction at a time,
   through one of four entry points of the library (see README.md for why
   these four).  With [--trace 0] it prints the end-to-end metrics; with
   [--trace 1] it prints the per-layer ledger, measured from outside the
   program by timing the benchmark's own calls into public functions.
   End-to-end timings are scaled to a reference host's speed, measured
   beside the program (host.ml).
   Every reduced output is checked outside the reducer, deterministic
   counts are compared with earlier runs of the same binary and seed, and
   any failure makes the run exit non-zero.

   Usage: lbr_perf.exe --workload NAME --seed N --seconds S --trace 0|1 *)

open Lbr_logic
module Corpus = Lbr_harness.Corpus
module Experiment = Lbr_harness.Experiment
module Counters = Lbr_harness.Counters
module Stats = Lbr_harness.Stats
module Serialize = Lbr_jvm.Serialize
module Checker = Lbr_jvm.Checker
module Classpool = Lbr_jvm.Classpool
module Size = Lbr_jvm.Size
module Tool = Lbr_decompiler.Tool
module Wire = Lbr_server.Wire
module Client = Lbr_server.Client
module Server = Lbr_server.Server
module Addr = Lbr_server.Addr
module Coordinator = Lbr_cluster.Coordinator
module Metrics = Lbr_obs.Metrics

let now = Unix.gettimeofday
let ( // ) = Filename.concat

(* Input size is fixed here, not by the caller: 240 reduction instances
   at a geometric mean of 60 classes per program, in the tool mix
   [Corpus.build] produces (39% cfr-sim, 31% fernflower-sim, 30%
   procyon-sim over 7,886 instances of six seeds).  A pass over them takes
   3-7 s on every workload on a 2-core x86-64 host, so a run covers at
   least one full pass — the unit the deterministic metrics are taken
   over. *)
let tool_mix = [ ("cfr-sim", 94); ("fernflower-sim", 75); ("procyon-sim", 71) ]
let mean_classes = 60

(* Candidate programs generated; each yields about 2.5 instances, so every
   tool has 11-12 candidates per instance kept. *)
let candidate_programs = 1080

(* Every pass of the timed phase runs on a freshly set-up session, and
   [setups_per_pass] set-ups precede each pass (all but the last closed
   again at once).  [setup_s] is the median of them all: samples spread
   over the whole window, so neither one slow start nor a slow second of
   the host moves it. *)
let setups_per_pass = 2

(* Reductions in a set-up's untimed warm-up round, and the seed of the
   fixed corpus they come from; see [warmup_set]. *)
let warmup_count = 6
let warmup_seed = 1

type workload = Oneshot_gbr | Oneshot_baselines | Serve_cold | Coordinate_resubmit

let workloads =
  [
    ("oneshot-gbr", Oneshot_gbr);
    ("oneshot-baselines", Oneshot_baselines);
    ("serve-cold", Serve_cold);
    ("coordinate-resubmit", Coordinate_resubmit);
  ]

(* ------------------------------------------------------------------ *)
(* Inputs and results                                                 *)

(* What a user hands the program: serialized class-pool bytes and the
   decompiler to reduce against.  [baseline] is the generator's view of
   the errors, used only by the checks. *)
type input = { idx : int; id : string; bytes : string; tool : Tool.t; baseline : string list }

(* Stratified sampling.  A reduction's latency follows its size and, less
   closely, its number of baseline errors: a log-log fit over 480
   instances gives latency ~ bytes^1.15 * (errors + 1)^0.49 (correlation
   0.93).  [Corpus.build] draws both at random, and over a plain corpus of
   this size the mean reduction time moved by 15-30% from seed to seed.
   So the benchmark generates [candidate_programs] programs and, per tool,
   sorts the candidate instances by the predicted cost
   bytes * sqrt (errors + 1) and keeps evenly spaced ones: the kept set has
   the candidates' cost distribution, which, over ten times as many
   instances, varies far less between seeds (over 16 seeds, the predicted
   p95 latency varies by 4% here, by 10% sorting by (errors, bytes) from
   half as many candidates).  The seed still decides every program. *)
let select seed =
  let candidates =
    Corpus.build ~seed ~programs:candidate_programs ~mean_classes |> Corpus.instances
  in
  let cost (i : Corpus.instance) =
    float_of_int (Size.bytes i.benchmark.pool) *. sqrt (float_of_int (List.length i.baseline_errors + 1))
  in
  let per_tool (tool, count) =
    let sorted =
      candidates
      |> List.filter (fun (i : Corpus.instance) -> i.tool.Tool.name = tool)
      |> List.map (fun (i : Corpus.instance) -> ((cost i, i.instance_id), i))
      |> List.sort (fun (a, _) (b, _) -> compare a b)
      |> Array.of_list
    in
    let m = Array.length sorted in
    if m < count then failwith (Printf.sprintf "seed %d: only %d %s instances" seed m tool);
    List.init count (fun k -> snd sorted.((((2 * k) + 1) * m) / (2 * count)))
  in
  List.concat_map per_tool tool_mix
  |> List.sort (fun (a : Corpus.instance) b -> compare a.instance_id b.instance_id)

(* The set-up's untimed warm-up round reduces [warmup_count] inputs of a
   fixed corpus, the same for every seed, evenly spaced by size.  One
   input's reduction time ranges over two orders of magnitude, and
   warm-up inputs drawn from the seed's own corpus made [setup_s] follow
   the seed: on serve-cold, of five seeds, seed 504 set up slowest in each
   of three sets of runs, by 20-50% over the median. *)
let warmup_set () =
  let c = Corpus.build ~seed:warmup_seed ~programs:12 ~mean_classes |> Corpus.instances |> Array.of_list in
  let size (i : Corpus.instance) = (Size.bytes i.benchmark.pool, i.instance_id) in
  Array.sort (fun a b -> compare (size a) (size b)) c;
  let m = Array.length c in
  List.init warmup_count (fun k -> c.((((2 * k) + 1) * m) / (2 * warmup_count)))

(* The seed's inputs, then the warm-up inputs. *)
let generate seed =
  select seed @ warmup_set ()
  |> List.mapi (fun idx (i : Corpus.instance) ->
         {
           idx;
           id = i.instance_id;
           bytes = Serialize.to_bytes i.benchmark.pool;
           tool = i.tool;
           baseline = i.baseline_errors;
         })
  |> Array.of_list

type output =
  | Pool of Classpool.t
  | Bytes of string
  | Digest_only of Digest.t  (** a later pass's output; see [run_phase] *)
  | No_output of string

type result = {
  item : int;
  strategy : Experiment.strategy;
  latency : float;  (** call to return, or submit to Result *)
  ok : bool;  (** the program's own verdict on its output *)
  runs : int;
  replayed : int;
  tool_execs : int;
  sim : float;
  bytes0 : int;
  bytes1 : int;
  wall : float;  (** the program's own [wall_time] *)
  accept : float;  (** submit to Accepted; [nan] for one-shot calls *)
  output : output;
}

let of_outcome item latency (o : Experiment.outcome) final =
  {
    item;
    strategy = o.strategy;
    latency;
    ok = o.ok;
    runs = o.predicate_runs;
    replayed = o.replayed_runs;
    tool_execs = o.predicate_runs - o.replayed_runs;
    sim = o.sim_time;
    bytes0 = o.bytes0;
    bytes1 = o.bytes1;
    wall = o.wall_time;
    accept = nan;
    output = Pool final;
  }

let output_bytes = function
  | Pool p -> Ok (Serialize.to_bytes p)
  | Bytes b -> Ok b
  | Digest_only _ -> Error "output not kept"
  | No_output reason -> Error reason

let output_digest = function Digest_only d -> Ok d | o -> Result.map Digest.string (output_bytes o)

(* Passes after the first keep only a digest of each output: enough for
   the determinism check, and the benchmark's own memory stays the same
   however many passes a window holds. *)
let keep_digest r =
  match output_digest r.output with Ok d -> { r with output = Digest_only d } | Error _ -> r

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Counts taken over the first pass of a traced phase only: one reduction
   of every corpus item is a fixed amount of work, so these repeat exactly
   for a seed however fast the host is. *)
let counting = ref false
let pass_counts : (string, float) Hashtbl.t = Hashtbl.create 16

let count name v =
  if !counting then
    Hashtbl.replace pass_counts name
      (v +. Option.value ~default:0. (Hashtbl.find_opt pass_counts name))

let counted name = Option.value ~default:0. (Hashtbl.find_opt pass_counts name)

(* ------------------------------------------------------------------ *)
(* One-shot paths                                                     *)

(* What [lbr-reduce reduce] does before reducing: decode the pool and run
   the tool once for the baseline errors. *)
let decode (inp : input) =
  match Serialize.of_bytes inp.bytes with
  | Error m -> failwith (Printf.sprintf "%s: undecodable input: %s" inp.id m)
  | Ok pool ->
      let baseline_errors = Tool.errors inp.tool pool in
      if baseline_errors <> inp.baseline then
        failwith (inp.id ^ ": decoded input lost its baseline errors");
      {
        Corpus.instance_id = inp.id;
        benchmark = { Corpus.bench_id = inp.id; seed = 0; pool };
        tool = inp.tool;
        baseline_errors;
      }

let run_strategy instances strategy i =
  let (o, final), latency = timed (fun () -> Experiment.run_with strategy instances.(i)) in
  of_outcome i latency o final

(* The traced run recomposes [Experiment.run_with] from public functions,
   exactly as [Experiment.run_gbr]/[run_lossy] do, with a span around each
   layer call.  The phase comparison afterwards checks that it reproduces
   [run_with] on every instance, so the ledger describes the real path. *)
(* A layer call that is also counted over the first traced pass. *)
let layer_call name f =
  count name 1.;
  Ledger.span name f

let model (inst : Corpus.instance) =
  layer_call "jvm.model" @@ fun () ->
  let pool = inst.benchmark.pool in
  let vpool = Var.Pool.create () in
  match Lbr_frontend.Jvm.derive vpool pool with
  | Error m -> failwith m
  | Ok jv -> (
      match Lbr_frontend.Jvm.constraints jv pool with
      | Error m -> failwith m
      | Ok cnf -> (vpool, jv, cnf))

(* The harness's predicate body: charge the simulated clock, apply the
   assignment, run the tool, compare with the baseline.  On a passing check
   the harness also measures the sub-pool for its improvement timeline;
   that cost is paid here too, so the recomposed path does the same work
   as [run_with]. *)
let predicate_body (inst : Corpus.instance) apply clock phi =
  Ledger.span "harness.predicate" @@ fun () ->
  let sub = layer_call "jvm.reducer" (fun () -> apply phi) in
  clock := !clock +. Experiment.default_cost sub;
  let errors = Ledger.span "tool.check" (fun () -> Tool.errors inst.tool sub) in
  let ok = Lbr_frontend.Jvm.includes_sorted ~baseline:inst.baseline_errors errors in
  count "tool.calls" 1.;
  if ok then begin
    count "tool.passes" 1.;
    ignore (Size.classes sub + Size.bytes sub : int)
  end;
  ok

let finish item strategy (inst : Corpus.instance) t0 ~ok ~runs ~sim ~wall final =
  Ledger.span "harness.finish" @@ fun () ->
  let pool = inst.benchmark.pool in
  (* [Experiment.finish] also counts items and decompiled lines. *)
  ignore (Size.items pool + Size.items final : int);
  ignore (Lbr_decompiler.Source.line_count pool + Lbr_decompiler.Source.line_count final : int);
  {
    item;
    strategy;
    latency = now () -. t0;
    ok;
    runs;
    replayed = 0;
    tool_execs = runs;
    sim;
    bytes0 = Size.bytes pool;
    bytes1 = Size.bytes final;
    wall;
    accept = nan;
    output = Pool final;
  }

let composed_gbr instances i =
  let inst = instances.(i) in
  let t0 = now () in
  Ledger.span "reduction" @@ fun () ->
  let vpool, jv, cnf = model inst in
  let pool = inst.Corpus.benchmark.pool in
  let apply = layer_call "jvm.reducer" (fun () -> Lbr_jvm.Reducer.prepare jv pool) in
  let clock = ref 0. in
  let predicate = Lbr.Predicate.make ~name:"gbr" (predicate_body inst apply clock) in
  let problem =
    Lbr.Problem.make ~pool:vpool ~universe:(Lbr_jvm.Jvars.all jv) ~constraints:cnf ~predicate
  in
  let order = Lbr_sat.Order.by_creation vpool in
  let r, wall = timed (fun () -> Ledger.span "gbr.search" (fun () -> Lbr.Gbr.reduce problem ~order)) in
  let result, runs, ok =
    match r with
    | Ok (result, (st : Lbr.Gbr.stats)) ->
        count "gbr.iterations" (float_of_int st.iterations);
        count "gbr.queries" (float_of_int st.predicate_queries);
        count "gbr.runs" (float_of_int st.predicate_runs);
        (result, st.predicate_runs, true)
    | Error _ -> (Lbr_jvm.Jvars.all jv, Lbr.Predicate.runs predicate, false)
  in
  let final = layer_call "jvm.reducer" (fun () -> apply result) in
  [ finish i Experiment.Gbr inst t0 ~ok ~runs ~sim:!clock ~wall final ]

let composed_lossy instances i =
  let inst = instances.(i) in
  let t0 = now () in
  Ledger.span "reduction" @@ fun () ->
  let vpool, jv, cnf = model inst in
  let base, closures =
    Ledger.span "lossy.encode" @@ fun () ->
    let edges, required = Lbr.Lossy.to_graph (Lbr.Lossy.encode cnf ~pick:Lbr.Lossy.First_first) in
    Lbr_baselines.Binary_reduction.Graph_encoding.closures ~num_vars:(Var.Pool.size vpool)
      ~edges ~required
  in
  let pool = inst.Corpus.benchmark.pool in
  let apply = layer_call "jvm.reducer" (fun () -> Lbr_jvm.Reducer.prepare jv pool) in
  let clock = ref 0. in
  let predicate = Lbr.Predicate.make ~name:"lossy" (predicate_body inst apply clock) in
  let r, wall =
    timed (fun () ->
        Ledger.span "binred.search" (fun () ->
            Lbr_baselines.Binary_reduction.reduce ~closures ~base ~predicate))
  in
  let result, runs, ok =
    match r with
    | Ok (result, st) -> (result, st.predicate_runs, true)
    | Error `Predicate_inconsistent -> (Lbr_jvm.Jvars.all jv, Lbr.Predicate.runs predicate, false)
  in
  let final = layer_call "jvm.reducer" (fun () -> apply result) in
  finish i Experiment.Lossy_first inst t0 ~ok ~runs ~sim:!clock ~wall final

(* J-Reduce's class graph is private to the harness, so its traced run
   goes through [run_with] and times the tool through [hooks.evaluate],
   which wraps exactly the tool check. *)
let traced_jreduce instances i =
  let evaluate ~key:_ thunk =
    count "tool.calls" 1.;
    let ok = Ledger.span "tool.check" thunk in
    if ok then count "tool.passes" 1.;
    Experiment.Fresh ok
  in
  let hooks = { Experiment.default_hooks with evaluate = Some evaluate } in
  let (o, final), latency =
    timed (fun () ->
        Ledger.span "reduction" (fun () ->
            Ledger.span "jreduce" (fun () -> Experiment.run_with ~hooks Jreduce instances.(i))))
  in
  of_outcome i latency o final

(* ------------------------------------------------------------------ *)
(* Service paths                                                      *)

exception Connection_lost of string

let spec_of (inp : input) =
  {
    Wire.tool = inp.tool.Tool.name;
    strategy = Experiment.Gbr;
    priority = Wire.Normal;
    crash_policy = Lbr_runtime.Oracle.Crash_raises;
    retries = 0;
    pool_bytes = inp.bytes;
    frontend = "jvm";
    trace_ctx = None;
  }

let connect path =
  match Client.connect (Addr.to_string (Addr.Unix_path path)) with
  | Ok c -> c
  | Error m -> failwith ("connect " ^ path ^ ": " ^ m)

let submit client specs i =
  let accepted = ref nan in
  let on_verdict ~key:_ ~ok =
    count "journal.verdicts" 1.;
    if ok then count "verdict.passes" 1.
  in
  let t0 = now () in
  let r =
    Client.submit_ex client ~on_accepted:(fun _ -> accepted := now ()) ~on_verdict specs.(i)
  in
  let latency = now () -. t0 in
  let failed reason =
    {
      item = i;
      strategy = Experiment.Gbr;
      latency;
      ok = false;
      runs = 0;
      replayed = 0;
      tool_execs = 0;
      sim = 0.;
      bytes0 = 0;
      bytes1 = 0;
      wall = 0.;
      accept = !accepted -. t0;
      output = No_output reason;
    }
  in
  match r with
  | Ok (_, (st : Wire.stats), bytes) ->
      count "oracle.retries" (float_of_int st.oracle_retries);
      count "oracle.crashes" (float_of_int st.oracle_crashes);
      {
        item = i;
        strategy = Experiment.Gbr;
        latency;
        ok = st.ok;
        runs = st.predicate_runs;
        replayed = st.replayed_runs;
        tool_execs = st.tool_executions;
        sim = st.sim_time;
        bytes0 = st.bytes0;
        bytes1 = st.bytes1;
        wall = st.wall_time;
        accept = !accepted -. t0;
        output = Bytes bytes;
      }
  | Error (`Rejected (m, _)) -> failed ("rejected: " ^ m)
  | Error (`Job_failed m) -> failed ("job failed: " ^ m)
  | Error (`Conn m) -> raise (Connection_lost m)

(* The daemon reports its own reduction wall time; the rest of the
   submit-to-Result latency is the service's overhead (decode, model
   build, wire, scheduler, and for the cluster the coordinator hop). *)
let traced_submit overhead client specs i =
  Ledger.span overhead @@ fun () ->
  let r = submit client specs i in
  Ledger.charge "runner.reduce" r.wall;
  r

(* ------------------------------------------------------------------ *)
(* Sessions                                                           *)

type session = {
  run : int -> result list;
  traced : int -> result list;
  metrics : unit -> Metrics.dump;  (** the program's registry, over the wire for services *)
  journal : string option;
  close : unit -> unit;
}

let warm_up run items = List.iter (fun i -> ignore (run i : result list)) items

let oneshot ~strategies ~traced ~warmup inputs =
  let instances = Array.map decode inputs in
  let run i = List.map (fun s -> run_strategy instances s i) strategies in
  warm_up run warmup;
  {
    run;
    traced = traced instances;
    metrics = Metrics.dump;
    journal = None;
    close = ignore;
  }

let service ~client ~specs ~warmup ~overhead ~journal ~close =
  let run i = [ submit client specs i ] in
  warm_up run warmup;
  let metrics () =
    match Client.metrics_dump client with Ok (_, d) -> d | Error m -> failwith m
  in
  { run; traced = (fun i -> [ traced_submit overhead client specs i ]); metrics; journal; close }

let serve_session ~work ~specs ~warmup rep =
  let dir = work // Printf.sprintf "journal-%d" rep in
  let sock = work // Printf.sprintf "serve-%d.sock" rep in
  let server =
    Server.start { Server.listen = Addr.Unix_path sock; jobs = 1; queue_depth = 8; journal_dir = Some dir }
  in
  let client = connect sock in
  service ~client ~specs ~warmup ~overhead:"serve.overhead" ~journal:(Some dir)
    ~close:(fun () ->
      Client.close client;
      Server.stop server)

(* A coordinator with a persisted verdict cache in front of one worker
   daemon with one domain.  Returns the time [Coordinator.create] took:
   with an existing cache file that is the cache load. *)
let start_cluster ~work ~cache tag =
  let wsock = work // (tag ^ "-w.sock") and csock = work // (tag ^ "-c.sock") in
  let worker =
    Server.start { Server.listen = Addr.Unix_path wsock; jobs = 1; queue_depth = 8; journal_dir = None }
  in
  let coordinator, load_s =
    timed (fun () ->
        Coordinator.create
          {
            Coordinator.workers = [ Addr.Unix_path wsock ];
            lanes = 1;
            queue_depth = 64;
            cache_path = Some cache;
            journal_dir = None;
            poll_interval = 0.;
          })
  in
  let front = Server.start_backend ~listen:(Addr.Unix_path csock) (Coordinator.backend coordinator) in
  let client = connect csock in
  let close () =
    Client.close client;
    Server.stop front;
    Server.stop worker
  in
  (coordinator, client, close, load_s)

(* Pays every verdict once, before anything is timed, so the resubmission
   finds them all in the cache file. *)
let cold_pass ~work ~cache specs =
  let _, client, close, _ = start_cluster ~work ~cache "cold" in
  Fun.protect ~finally:close @@ fun () ->
  Array.iteri
    (fun i _ ->
      let r = submit client specs i in
      if not r.ok then failwith (Printf.sprintf "cold pass: item %d did not reduce" i))
    specs

let cache_load = ref []
let cache_entries = ref 0

let coordinate_session ~work ~cache ~specs ~warmup rep =
  let coordinator, client, close, load_s = start_cluster ~work ~cache (Printf.sprintf "r%d" rep) in
  cache_load := load_s :: !cache_load;
  cache_entries := Lbr_cluster.Cache.entries (Coordinator.cache coordinator);
  service ~client ~specs ~warmup ~overhead:"coordinator.overhead" ~journal:None ~close

(* ------------------------------------------------------------------ *)
(* Timed phases                                                       *)

type probe = {
  perf : Counters.row list;
  dump : Metrics.dump;
  gc : Gc.stat;
  journal_bytes : int;
}

let rec tree_bytes path =
  match (Unix.lstat path).st_kind with
  | Unix.S_DIR ->
      Array.fold_left (fun acc f -> acc + tree_bytes (path // f)) 0 (Sys.readdir path)
  | Unix.S_REG -> (Unix.lstat path).st_size
  | _ -> 0
  | exception Unix.Unix_error _ -> 0

let probe session =
  {
    perf = Counters.aggregate ();
    dump = session.metrics ();
    gc = Gc.quick_stat ();
    journal_bytes = (match session.journal with Some d -> tree_bytes d | None -> 0);
  }

(* One pass of a timed phase.  [p_wall] is its wall time, host samples
   left out; [p_lat] holds the latency of each of its results with the
   host factor ([Host.local_factors]) of the call that produced it;
   [p_factor] is the pass's factor, its calls' factors weighted by their
   wall time; [p_lead] is its first call's, which also serves the set-ups
   just before the pass.  Traced phases have every factor 1. *)
type pass = { p_wall : float; p_lat : (float * float) list; p_factor : float; p_lead : float }

type phase = {
  results : result list;  (** in completion order *)
  wall : float;
  passes : pass list;
  lost : string option;  (** the connection died mid-phase *)
  before : probe option;  (** traced phases only *)
  after_pass : probe option;
  after : probe option;
}

(* Closed loop over the corpus in a fixed order, in whole passes, until
   the passes add up to [seconds].  Every pass reduces the same inputs, so
   passes differ only by the host's noise, and the timing metrics are
   medians over passes; a partial pass would weight whichever inputs the
   seed happens to put first.  [before_pass] runs untimed before each pass
   (it may replace the session in [current]); [call] is the path
   ([session.run] or [session.traced]); [traced] turns the ledger, the
   first-pass counts and the probes on, and the host samples off (they
   would sit in the ledger's window).  Otherwise every call is followed
   by one [Host.sample], outside its timing.  [wall] is the passes'
   total, so the ledger's layers and [unattributed_s] add up to it. *)
let run_phase ~seconds ~traced ~call ~before_pass current n =
  Gc.compact ();
  let session () = Option.get !current in
  let p () = if traced then Some (probe (session ())) else None in
  let before = p () in
  let after_pass = ref None in
  let results = ref [] and passes = ref [] and lost = ref None in
  let wall = ref 0. in
  Ledger.enabled := traced;
  counting := traced;
  (try
     while !passes = [] || !wall < seconds do
       before_pass ();
       let call = call (session ()) in
       let calls = Array.make n (0., []) and samples = Array.make n Host.reference in
       let sampling = ref 0. in
       let tp = now () in
       for i = 0 to n - 1 do
         let rs, dt = timed (fun () -> call i) in
         if not traced then begin
           samples.(i) <- Host.sample ();
           sampling := !sampling +. samples.(i)
         end;
         calls.(i) <- (dt, List.map (fun r -> r.latency) rs);
         let rs = if !passes = [] then rs else List.map keep_digest rs in
         results := List.rev_append rs !results
       done;
       let dt = now () -. tp -. !sampling in
       let factors = if traced then Array.make n 1. else Host.local_factors samples in
       let weighted = ref 0. and busy = ref 0. in
       let lat = ref [] in
       Array.iteri
         (fun i (w, ls) ->
           weighted := !weighted +. (w *. factors.(i));
           busy := !busy +. w;
           List.iter (fun l -> lat := (l, factors.(i)) :: !lat) ls)
         calls;
       wall := !wall +. dt;
       passes :=
         { p_wall = dt; p_lat = !lat; p_factor = !weighted /. !busy; p_lead = factors.(0) } :: !passes;
       if List.length !passes = 1 then begin
         counting := false;
         after_pass := p ()
       end
     done
   with Connection_lost m -> lost := Some m);
  Ledger.enabled := false;
  counting := false;
  let after = p () in
  let after_pass = if !after_pass = None then after else !after_pass in
  { results = List.rev !results; wall = !wall; passes = List.rev !passes; lost = !lost; before; after_pass; after }

(* ------------------------------------------------------------------ *)
(* Checks                                                             *)

(* The correctness gate, independent of the reducer: the output decodes,
   is a valid pool, and still makes the tool report every baseline error. *)
let check_output (inp : input) bytes =
  match Serialize.of_bytes bytes with
  | Error m -> Error ("undecodable output: " ^ m)
  | Ok pool ->
      if not (Checker.is_valid pool) then Error "output is not a valid pool"
      else if
        not (Lbr_frontend.Jvm.includes_sorted ~baseline:inp.baseline (Tool.errors inp.tool pool))
      then Error "output lost baseline errors"
      else Ok ()

(* Three deliberately corrupted outputs the gate must reject: truncated
   bytes, a dangling superclass, and an empty pool that no longer shows
   the bug.  Run on every run, so a gate that stopped working fails. *)
let gate_self_test (inp : input) bytes =
  let dangling =
    match Serialize.of_bytes bytes with
    | Ok pool -> (
        match Classpool.classes pool with
        | c :: _ ->
            Serialize.to_bytes (Classpool.set pool { c with Lbr_jvm.Classfile.super = "zz/Missing" })
        | [] -> "")
    | Error _ -> ""
  in
  [
    ("truncated", String.sub bytes 0 (String.length bytes / 2));
    ("dangling-super", dangling);
    ("empty-pool", Serialize.to_bytes Classpool.empty);
  ]
  |> List.filter_map (fun (name, b) ->
         match check_output inp b with Ok () -> Some name | Error _ -> None)

type fingerprint = {
  f_runs : int;
  f_replayed : int;
  f_execs : int;
  f_sim : float;
  f_bytes1 : int;
  f_digest : string;
}

let key (r : result) = (r.item, Experiment.strategy_name r.strategy)

(* Checks every result of the given phases.  Returns the failure reasons
   (one per failed reduction) and the first result of each (item,
   strategy), which must agree with every later one — across passes, and
   between the traced (recomposed) and untraced paths. *)
let check_all ~workload inputs phases =
  let firsts : (int * string, fingerprint) Hashtbl.t = Hashtbl.create 512 in
  let order = ref [] in
  let failures = ref [] in
  let fail r why =
    let what = Printf.sprintf "%s [%s]" inputs.(r.item).id (Experiment.strategy_name r.strategy) in
    failures := (what ^ ": " ^ why) :: !failures
  in
  List.iter
    (fun ph ->
      List.iter
        (fun r ->
          match output_digest r.output with
          | Error reason -> fail r reason
          | Ok digest -> (
              let fp =
                {
                  f_runs = r.runs;
                  f_replayed = r.replayed;
                  f_execs = r.tool_execs;
                  f_sim = r.sim;
                  f_bytes1 = r.bytes1;
                  f_digest = digest;
                }
              in
              let seen = Hashtbl.find_opt firsts (key r) in
              (match seen with
              | None ->
                  Hashtbl.add firsts (key r) fp;
                  order := r :: !order
              | Some fp0 -> if fp0 <> fp then fail r "differs from an earlier run of the same input");
              if not r.ok then fail r "the reducer reported ok=false"
              else if workload = Coordinate_resubmit && r.tool_execs > 0 then
                fail r "resubmission executed the tool: the cache missed"
              else if seen = None then
                match Result.bind (output_bytes r.output) (check_output inputs.(r.item)) with
                | Ok () -> ()
                | Error why -> fail r why))
        ph.results)
    phases;
  (List.rev !failures, List.rev !order)

(* ------------------------------------------------------------------ *)
(* Metrics                                                            *)

let median = Host.median

(* Nearest rank. *)
let percentile xs q =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan else a.(min (n - 1) (max 0 (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec loop () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb -> float_of_int kb /. 1024.)
    | _ -> loop ()
    | exception End_of_file -> nan
  in
  loop ()

let perf_row rows name =
  match List.find_opt (fun (r : Counters.row) -> r.name = name) rows with
  | Some r -> (float_of_int r.calls, r.seconds)
  | None -> (0., 0.)

let hist dump name =
  match Metrics.find_in_dump dump name with
  | Some (Metrics.D_hist h) -> (float_of_int (Array.fold_left ( + ) 0 h.d_counts), h.d_sum)
  | _ -> (0., 0.)

(* Deterministic quality and cost over the first result of every
   (item, strategy): the paper's measures. *)
let quality firsts =
  let fl f = List.map f firsts in
  [
    ("bytes_left_geo", "ratio", Stats.geomean (fl (fun r -> float_of_int r.bytes1 /. float_of_int r.bytes0)));
    ("predicate_runs_geo", "runs", Stats.geomean (fl (fun r -> float_of_int r.runs)));
    ("sim_time_geo_s", "s", Stats.geomean (fl (fun r -> r.sim)));
    ("tool_execs_mean", "runs", Stats.mean (fl (fun r -> float_of_int r.tool_execs)));
  ]

let per_layer ~workload ~traced ~plain ~cache_load_s ~cache_entries firsts =
  let b = Option.get traced.before and a = Option.get traced.after in
  let p1 = Option.get traced.after_pass in
  let reductions = float_of_int (List.length traced.results) in
  let self = Ledger.self_time in
  let perf = Counters.since ~before:b.perf ~after:a.perf in
  let perf_calls, perf_s = perf_row perf "core.predicate" in
  let m_count, _ = hist a.dump "lbr_predicate_latency_seconds" in
  let m_count0, _ = hist b.dump "lbr_predicate_latency_seconds" in
  let qw_n, qw_s = hist a.dump "lbr_queue_wait_seconds" in
  let qw_n0, qw_s0 = hist b.dump "lbr_queue_wait_seconds" in
  let counter d name =
    match Metrics.find_in_dump d name with Some (Metrics.D_counter c) -> float_of_int c | _ -> 0.
  in
  let pass_delta name = counter p1.dump name -. counter b.dump name in
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0. traced.results in
  let services = workload = Serve_cold || workload = Coordinate_resubmit in
  let first_runs = List.fold_left (fun acc r -> acc + r.runs) 0 firsts
  and first_replayed = List.fold_left (fun acc r -> acc + r.replayed) 0 firsts in
  let tool_calls =
    if services then float_of_int (List.fold_left (fun acc r -> acc + r.tool_execs) 0 firsts)
    else counted "tool.calls"
  in
  let tool_passes = if services then counted "verdict.passes" else counted "tool.passes" in
  let layers =
    [ "jvm.model"; "jvm.reducer"; "harness.predicate"; "harness.finish"; "tool.check"; "gbr.search";
      "binred.search"; "lossy.encode"; "jreduce"; "runner.reduce"; "serve.overhead"; "coordinator.overhead" ]
  in
  let attributed = List.fold_left (fun acc l -> acc +. self l) 0. layers in
  let per_red_ms ph = 1000. *. ph.wall /. float_of_int (max 1 (List.length ph.results)) in
  let ratio x y = if y > 0. then x /. y else 0. in
  [
    ("jvm.model_s", "s", self "jvm.model");
    ("jvm.model_calls", "count", counted "jvm.model");
    ("jvm.reducer_apply_s", "s", self "jvm.reducer");
    ("jvm.reducer_apply_calls", "count", counted "jvm.reducer");
    ("gbr.search_self_s", "s", self "gbr.search");
    ("gbr.iterations", "count", counted "gbr.iterations");
    ("gbr.queries", "count", counted "gbr.queries");
    ("gbr.runs", "count", counted "gbr.runs");
    ("gbr.memo_hit_ratio", "ratio", ratio (counted "gbr.queries" -. counted "gbr.runs") (counted "gbr.queries"));
    ("binred.search_self_s", "s", self "binred.search");
    ("lossy.encode_s", "s", self "lossy.encode");
    ("jreduce.self_s", "s", self "jreduce");
    ("harness.predicate_self_s", "s", self "harness.predicate");
    ("harness.finish_s", "s", self "harness.finish");
    ("tool.check_s", "s", self "tool.check");
    ("tool.calls", "count", tool_calls);
    ("tool.pass_ratio", "ratio", ratio tool_passes tool_calls);
    ( "wire.accept_ms",
      "ms",
      if services then 1000. *. Stats.mean (List.map (fun r -> r.accept) traced.results) else 0. );
    ("runner.reduce_s", "s", self "runner.reduce");
    ("serve.overhead_s", "s", self "serve.overhead");
    ("coordinator.overhead_s", "s", self "coordinator.overhead");
    ("journal.verdicts", "count", counted "journal.verdicts");
    ("journal.bytes", "B/reduction", ratio (float_of_int (a.journal_bytes - b.journal_bytes)) reductions);
    ("scheduler.queue_wait_ms", "ms", 1000. *. ratio (qw_s -. qw_s0) (qw_n -. qw_n0));
    ("oracle.retries", "count", counted "oracle.retries");
    ("oracle.crashes", "count", counted "oracle.crashes");
    ("cache.load_s", "s", cache_load_s);
    ("cache.entries", "count", float_of_int cache_entries);
    ("cache.hits", "count", pass_delta "lbr_cluster_cache_hits_total");
    ("cache.misses", "count", pass_delta "lbr_cluster_cache_misses_total");
    ( "cache.replay_ratio",
      "ratio",
      if workload = Coordinate_resubmit then
        ratio (float_of_int first_replayed) (float_of_int first_runs)
      else 0. );
    ("gc.minor_words_per_reduction", "words", ratio (a.gc.minor_words -. b.gc.minor_words) reductions);
    ("gc.minor_collections", "count", float_of_int (a.gc.minor_collections - b.gc.minor_collections));
    ("gc.major_collections", "count", float_of_int (a.gc.major_collections - b.gc.major_collections));
    ("unattributed_s", "s", traced.wall -. attributed);
    ("ledger.wall_s", "s", traced.wall);
    ("ledger.reductions", "count", reductions);
    ("ledger.predicate_runs", "count", sum (fun r -> float_of_int r.runs));
    ("ledger.predicate_s", "s", Ledger.total "harness.predicate");
    ("prog.perf_predicate_calls", "count", perf_calls);
    ("prog.perf_predicate_s", "s", perf_s);
    ("prog.metrics_predicate_count", "count", m_count -. m_count0);
    ("tool_execs_mean", "runs", Stats.mean (List.map (fun r -> float_of_int r.tool_execs) firsts));
    ("trace.overhead_ms", "ms", per_red_ms traced -. per_red_ms plain);
    ("trace.untraced_reductions", "count", float_of_int (List.length plain.results));
  ]

(* ------------------------------------------------------------------ *)
(* Output                                                             *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_table title rows =
  Printf.printf "%s\n" title;
  List.iter (fun (name, unit, v) -> Printf.printf "  %-30s %16.6f %s\n" name v unit) rows

let print_result ~correct ~attempted ~failed metrics =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
          metrics))

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match (Unix.lstat path).st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (path // f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error _ -> ()

(* Deterministic counts must repeat exactly across runs of the same binary
   on the same seed: the first run that passes every other check records
   them, every later run compares.  Returns the drift, if any. *)
let determinism_gate ~root ~name ~seed ~trace ~record values =
  let dir = root // "fingerprints" in
  mkdir_p dir;
  let exe = Digest.to_hex (Digest.file Sys.executable_name) in
  let path = dir // Printf.sprintf "%s-seed%d-trace%d-%s" name seed trace exe in
  let text =
    String.concat "" (List.map (fun (k, _, v) -> Printf.sprintf "%s %.17g\n" k v) values)
  in
  if Sys.file_exists path then begin
    let ic = open_in_bin path in
    let old = really_input_string ic (in_channel_length ic) in
    close_in ic;
    if old = text then None else Some (Printf.sprintf "was:\n%snow:\n%s" old text)
  end
  else begin
    if record then begin
      let oc = open_out_bin path in
      output_string oc text;
      close_out oc
    end;
    None
  end

(* ------------------------------------------------------------------ *)
(* Main                                                               *)

(* Input generation holds every candidate program at once, and the
   runtime keeps the memory it has once used.  So generation runs in a
   child process, which hands the inputs over in a file: the benchmark's
   process, and [peak_rss_mb], see only the program's own work.  Returns
   the inputs and the child's peak RSS. *)
let generate_apart ~work seed =
  let path = work // "inputs.bin" in
  match Unix.fork () with
  | 0 ->
      let code =
        try
          let inputs = generate seed in
          let oc = open_out_bin path in
          Marshal.to_channel oc
            (Array.map (fun i -> (i.id, i.bytes, i.tool.Tool.name, i.baseline)) inputs, peak_rss_mb ())
            [];
          close_out oc;
          0
        with e ->
          prerr_endline ("input generation failed: " ^ Printexc.to_string e);
          1
      in
      Unix._exit code
  | pid -> (
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 ->
          let ic = open_in_bin path in
          let (raw : (string * string * string * string list) array * float) = Marshal.from_channel ic in
          close_in ic;
          let tool name = List.find (fun (t : Tool.t) -> t.name = name) Tool.all in
          let raw, peak = raw in
          (Array.mapi (fun idx (id, bytes, t, baseline) -> { idx; id; bytes; tool = tool t; baseline }) raw, peak)
      | _ -> failwith "input generation failed")

let usage = "lbr_perf.exe --workload NAME --seed N --seconds S --trace 0|1"

let parse_args () =
  let workload = ref "" and seed = ref 7 and seconds = ref 0. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of: " ^ String.concat ", " (List.map fst workloads));
      ("--seed", Arg.Set_int seed, "N corpus seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase (required)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or the per-layer ledger (1)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  match List.assoc_opt !workload workloads with
  | None -> raise (Arg.Bad ("unknown workload " ^ !workload))
  | Some _ when !trace <> 0 && !trace <> 1 -> raise (Arg.Bad "--trace takes 0 or 1")
  | Some _ when !seconds <= 0. -> raise (Arg.Bad "--seconds must be given and positive")
  | Some w -> (!workload, w, !seed, !seconds, !trace)

let main () =
  let name, workload, seed, seconds, trace = parse_args () in
  let root = ".bench_work" in
  let work = root // Printf.sprintf "%s-%d" name (Unix.getpid ()) in
  mkdir_p work;
  Fun.protect ~finally:(fun () -> rm_rf work) @@ fun () ->
  let (inputs, gen_rss), gen_s = timed (fun () -> generate_apart ~work seed) in
  let n = Array.length inputs - warmup_count in
  let warmup = List.init warmup_count (fun k -> n + k) in
  let specs = Array.map spec_of inputs in
  let cache = work // "cache.log" in
  let cold_s =
    if workload = Coordinate_resubmit then snd (timed (fun () -> cold_pass ~work ~cache specs))
    else 0.
  in
  let open_session rep =
    match workload with
    | Oneshot_gbr -> oneshot ~strategies:[ Experiment.Gbr ] ~traced:composed_gbr ~warmup inputs
    | Oneshot_baselines ->
        oneshot ~strategies:[ Experiment.Jreduce; Experiment.Lossy_first ]
          ~traced:(fun instances i -> [ traced_jreduce instances i; composed_lossy instances i ])
          ~warmup inputs
    | Serve_cold -> serve_session ~work ~specs ~warmup rep
    | Coordinate_resubmit -> coordinate_session ~work ~cache ~specs ~warmup rep
  in
  let setup_times = ref [] and current = ref None and reps = ref 0 in
  let close () =
    Option.iter (fun s -> s.close ()) !current;
    current := None
  in
  let reopen () =
    close ();
    Gc.compact ();
    incr reps;
    let s, dt = timed (fun () -> open_session !reps) in
    setup_times := dt :: !setup_times;
    current := Some s
  in
  let phases =
    Fun.protect ~finally:close @@ fun () ->
    if trace = 0 then
      let before_pass () = for _ = 1 to setups_per_pass do reopen () done in
      [ run_phase ~seconds ~traced:false ~call:(fun s -> s.run) ~before_pass current n ]
    else begin
      (* One session throughout, so the probes' deltas cover one program.
         One pass of the program's own path first: the reference the
         recomposed traced path must reproduce, and a warm-up.  Then the
         recomposed path with the ledger on, and the same path with it
         off, so that [trace.overhead_ms] compares like with like. *)
      reopen ();
      let phase ~seconds ~traced call = run_phase ~seconds ~traced ~call ~before_pass:ignore current n in
      let reference = phase ~seconds:0. ~traced:false (fun s -> s.run) in
      let window traced = phase ~seconds:(seconds /. 4.) ~traced (fun s -> s.traced) in
      let traced = window true in
      [ traced; window false; reference ]
    end
  in
  (* Read before the checks, which are the benchmark's own work. *)
  let peak_rss = peak_rss_mb () in
  let failures, firsts = check_all ~workload inputs phases in
  let lost = List.filter_map (fun ph -> ph.lost) phases in
  let gate_misses =
    let kept r =
      match output_bytes r.output with Ok b when r.ok -> Some (r, b) | _ -> None
    in
    match List.find_map kept firsts with
    | Some (r, bytes) -> gate_self_test inputs.(r.item) bytes
    | None -> [ "no output to corrupt" ]
  in
  let attempted = List.fold_left (fun acc ph -> acc + List.length ph.results) 0 phases in
  let failed = List.length failures in
  let quality = quality firsts in
  let main_phase = List.hd phases in
  let samples = List.length main_phase.results in
  (* Set-up times in order, each with the host factor of the pass it
     preceded. *)
  let setups =
    let rec zip a b = match (a, b) with x :: a, y :: b -> (x, y) :: zip a b | _ -> [] in
    zip (List.rev !setup_times)
      (List.concat_map (fun p -> List.init setups_per_pass (fun _ -> p.p_lead)) main_phase.passes)
  in
  (* The timings at the reference host's speed ([normalized]) or as the
     wall clock read them. *)
  let timings ~normalized =
    let f x = if normalized then x else 1. in
    let per_pass g = median (List.map g main_phase.passes) in
    let lat p = List.map (fun (l, x) -> l *. f x) p.p_lat in
    [
      ("setup_s", "s", median (List.map (fun (dt, x) -> dt *. f x) setups));
      ( "reductions_per_s",
        "1/s",
        per_pass (fun p -> float_of_int (List.length p.p_lat) /. (p.p_wall *. f p.p_factor)) );
      ("latency_p50_ms", "ms", per_pass (fun p -> 1000. *. percentile (lat p) 0.50));
      ("latency_p95_ms", "ms", per_pass (fun p -> 1000. *. percentile (lat p) 0.95));
    ]
  in
  let e2e =
    timings ~normalized:true
    @ [ ("failed_frac", "ratio", float_of_int failed /. float_of_int (max 1 attempted)) ]
    @ quality
    @ [ ("peak_rss_mb", "MB", peak_rss) ]
  in
  let ledger =
    if trace = 0 then []
    else
      per_layer ~workload ~traced:main_phase ~plain:(List.nth phases 1)
        ~cache_load_s:(if !cache_load = [] then 0. else median !cache_load) ~cache_entries:!cache_entries firsts
  in
  let det_keys =
    [ "bytes_left_geo"; "predicate_runs_geo"; "sim_time_geo_s"; "tool_execs_mean"; "gbr.iterations";
      "gbr.queries"; "gbr.runs"; "tool.calls"; "journal.verdicts"; "cache.hits"; "cache.misses";
      "oracle.retries"; "oracle.crashes" ]
  in
  let drift =
    determinism_gate ~root ~name ~seed ~trace
      ~record:(failures = [] && lost = [] && gate_misses = [])
      (List.filter (fun (k, _, _) -> List.mem k det_keys) (quality @ ledger))
  in
  Printf.printf "lbr_perf %s: seed %d, %d instances drawn from %d programs (geo mean %d classes); \
                 corpus generated in %.2fs%s\n"
    name seed n candidate_programs mean_classes gen_s
    (if cold_s > 0. then Printf.sprintf ", cold cache pass %.2fs" cold_s else "");
  Printf.printf "input generation ran in a child process (peak RSS %.1f MB), so peak_rss_mb leaves it out\n"
    gen_rss;
  Printf.printf "%s window: %d reductions in %.3fs over %d passes (closed loop, 1 client, 1 domain)\n"
    (if trace = 0 then "timed" else "traced")
    samples main_phase.wall (List.length main_phase.passes);
  if trace = 0 then begin
    print_table
      (Printf.sprintf
         "end-to-end (rate and latency p50/p95: median over %d passes of %d samples each; set-up: \
          median of %d)"
         (List.length main_phase.passes) (samples / List.length main_phase.passes)
         (List.length setups))
      e2e;
    print_table
      (Printf.sprintf
         "the same timings as the wall clock read them (host factor: median %.3f over passes)"
         (median (List.map (fun p -> p.p_factor) main_phase.passes)))
      (timings ~normalized:false)
  end
  else begin
    print_table "per-layer ledger (outside-in; counts over the first traced pass, seconds over the traced window)" ledger;
    let v k = match List.find_opt (fun (n, _, _) -> n = k) ledger with Some (_, _, x) -> x | None -> 0. in
    let compare_counts what a b =
      Printf.printf "  %s: %.0f vs %.0f%s\n" what a b (if a = b then " (agree)" else " (DISAGREE)")
    in
    Printf.printf "program's own instrumentation over the same window:\n";
    compare_counts "predicate runs: outside-in vs Counters core.predicate calls" (v "ledger.predicate_runs")
      (v "prog.perf_predicate_calls");
    compare_counts "Counters core.predicate calls vs Metrics lbr_predicate_latency_seconds count"
      (v "prog.perf_predicate_calls") (v "prog.metrics_predicate_count");
    let share k = 100. *. v k /. v "ledger.wall_s" in
    Printf.printf
      "  share of wall: predicate %.1f%% by Counters, %.1f%% outside-in; tool %.1f%%, model build %.1f%%, \
       gbr self %.1f%%\n"
      (share "prog.perf_predicate_s") (share "ledger.predicate_s") (share "tool.check_s")
      (share "jvm.model_s") (share "gbr.search_self_s");
    Printf.printf "  ledger sum: layers %.3fs + unattributed %.3fs = wall %.3fs\n"
      (v "ledger.wall_s" -. v "unattributed_s") (v "unattributed_s") (v "ledger.wall_s");
    Ledger.write_chrome (root // Printf.sprintf "trace-%s-seed%d.json" name seed)
  end;
  List.iter (fun f -> Printf.printf "FAILED %s\n" f) failures;
  List.iter (fun m -> Printf.printf "FAILED connection lost: %s\n" m) lost;
  List.iter (fun m -> Printf.printf "FAILED the correctness gate accepted a corrupted output (%s)\n" m) gate_misses;
  Option.iter (fun d -> Printf.printf "FAILED deterministic metrics drifted for this seed:\n%s" d) drift;
  let correct = failures = [] && lost = [] && gate_misses = [] && drift = None in
  let reported =
    if trace = 0 then
      List.filter (fun (k, _, _) -> k <> "failed_frac" && k <> "tool_execs_mean") e2e
    else ledger
  in
  print_result ~correct ~attempted ~failed:(failed + List.length lost) reported;
  if not correct then exit 1

let () =
  match main () with
  | () -> ()
  | exception Arg.Bad m ->
      prerr_endline m;
      exit 2
  | exception Arg.Help m ->
      print_string m;
      exit 0
