module Experiment = Lbr_harness.Experiment
module Oracle = Lbr_runtime.Oracle
module Serialize = Lbr_jvm.Serialize
module Tool = Lbr_decompiler.Tool

(* Map a 32-hex-char digest onto an assignment over variables 0..127:
   hex char [i] contributes its 4 bits at positions [4i .. 4i+3].  The
   mapping is injective, so an oracle memo keyed on the assignment is
   exactly a memo keyed on the digest. *)
let key_assignment key =
  let vars = ref [] in
  String.iteri
    (fun i c ->
      let v =
        match c with
        | '0' .. '9' -> Char.code c - Char.code '0'
        | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
        | _ -> invalid_arg "Runner: non-hex digest key"
      in
      for b = 0 to 3 do
        if v land (1 lsl b) <> 0 then vars := (i * 4) + b :: !vars
      done)
    key;
  Lbr_logic.Assignment.of_list !vars

(* The hooks both drivers run under: progress and cancellation from the
   scheduler context, and every evaluation answered from the journal's
   replay table when it can be, else by [execute] (which runs the black
   box and reports the verdict and the retries it took) and WAL-ed before
   it is used. *)
let hooks (ctx : Scheduler.runner_ctx) ~execute =
  let evaluate ~key thunk =
    match Hashtbl.find_opt ctx.replay key with
    | Some cached -> Experiment.Replayed cached
    | None ->
        let t0 = Unix.gettimeofday () in
        let ok, retries = execute ~key thunk in
        ctx.record ~key ~ok ~latency:(Unix.gettimeofday () -. t0) ~retries;
        Experiment.Fresh ok
  in
  {
    Experiment.on_improvement = Some ctx.progress;
    should_stop = Some ctx.should_stop;
    evaluate = Some evaluate;
    peek = Some (fun ~key -> Hashtbl.find_opt ctx.replay key);
  }

(* Non-JVM frontends run through the generic frontend driver.  There is no
   out-of-process tool, hence no oracle: the predicate is the frontend's
   own in-process bridge, so crash/retry accounting is structurally zero
   and [tool_executions] is exactly the fresh (non-replayed) runs.  The
   spec's [tool] field carries the frontend's predicate spec, and the
   result's classes0/1 slots carry its item counts. *)
let reduce_frontend (ctx : Scheduler.runner_ctx) (spec : Wire.spec) =
  match Lbr_frontend.Registry.find spec.frontend with
  | Error _ as e -> e
  | Ok packed -> (
      match spec.strategy with
      | Experiment.Jreduce | Experiment.Lossy_first | Experiment.Lossy_last ->
          Error
            (Printf.sprintf "frontend %S only supports the gbr strategy"
               spec.frontend)
      | Experiment.Gbr -> (
          let hooks = hooks ctx ~execute:(fun ~key:_ thunk -> (thunk (), 0)) in
          match
            Lbr_frontend.Run.reduce_text ~hooks packed ~text:spec.pool_bytes ~spec:spec.tool
          with
          | Error _ as e -> e
          | Ok (outcome, printed) ->
              let stats =
                {
                  Wire.ok = outcome.ok;
                  predicate_runs = outcome.predicate_runs;
                  replayed_runs = outcome.replayed_runs;
                  tool_executions = outcome.predicate_runs - outcome.replayed_runs;
                  oracle_retries = 0;
                  oracle_crashes = 0;
                  sim_time = outcome.sim_time;
                  wall_time = outcome.wall_time;
                  classes0 = outcome.items0;
                  classes1 = outcome.items1;
                  bytes0 = outcome.bytes0;
                  bytes1 = outcome.bytes1;
                }
              in
              Ok (stats, printed)))

let reduce_jvm (ctx : Scheduler.runner_ctx) (spec : Wire.spec) =
  match Serialize.of_bytes spec.pool_bytes with
  | Error m -> Error ("undecodable pool: " ^ m)
  | Ok pool -> (
      match Lbr_frontend.Jvm.resolve_tool spec.tool pool with
      | Error _ as e -> e
      | Ok tool -> (
          match Tool.errors tool pool with
          | [] ->
              Error (Printf.sprintf "tool %s is not buggy on this pool" tool.Tool.name)
          | baseline_errors ->
              let instance =
                {
                  Lbr_harness.Corpus.instance_id = ctx.job_id;
                  benchmark =
                    { Lbr_harness.Corpus.bench_id = ctx.job_id; seed = 0; pool };
                  tool;
                  baseline_errors;
                }
              in
              (* The oracle's black box is whatever thunk the current
                 evaluation handed us; single-threaded per job, so a plain
                 ref is safe. *)
              let current : (unit -> bool) ref = ref (fun () -> false) in
              let config =
                {
                  Oracle.default_config with
                  crash_policy = spec.crash_policy;
                  retries = spec.retries;
                  transient = (function Tool.Transient_failure _ -> true | _ -> false);
                }
              in
              let oracle = Oracle.make ~config ~name:ctx.job_id (fun _ -> !current ()) in
              let hooks =
                hooks ctx ~execute:(fun ~key thunk ->
                    current := thunk;
                    let retries0 = Oracle.retries_used oracle in
                    let ok = Oracle.run oracle (key_assignment key) in
                    (ok, Oracle.retries_used oracle - retries0))
              in
              let outcome, final = Experiment.run_with ~hooks spec.strategy instance in
              let stats =
                {
                  Wire.ok = outcome.ok;
                  predicate_runs = outcome.predicate_runs;
                  replayed_runs = outcome.replayed_runs;
                  tool_executions = Oracle.executions oracle;
                  oracle_retries = Oracle.retries_used oracle;
                  oracle_crashes = Oracle.crashes oracle;
                  sim_time = outcome.sim_time;
                  wall_time = outcome.wall_time;
                  classes0 = outcome.classes0;
                  classes1 = outcome.classes1;
                  bytes0 = outcome.bytes0;
                  bytes1 = outcome.bytes1;
                }
              in
              Ok (stats, Serialize.to_bytes final)))

let reduce ctx (spec : Wire.spec) =
  match spec.Wire.frontend with
  | "" | "jvm" -> reduce_jvm ctx spec
  | _ -> reduce_frontend ctx spec
