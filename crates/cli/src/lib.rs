//! `ramsis-cli` — the paper artifact's script interface, in Rust.
//!
//! The artifact (§A) drives everything through four Python scripts;
//! each has a subcommand here with the same flags (§A.5):
//!
//! ```text
//! ramsis-cli gen     --task image --SLO 150 --worker 60 --load 2000
//! ramsis-cli ms-gen  --task image --SLO 150 --worker 60
//! ramsis-cli sim     --m RAMSIS --trace real --task image --SLO 150 --worker 60
//! ramsis-cli plot    --task image --trace real --SLO 150
//! ramsis-cli trace   --kind twitter --out twitter_like.txt
//! ramsis-cli inspect --policy policy_gen/RAMSIS_60_150/2000.json
//! ramsis-cli telemetry trace.jsonl --window 1000
//! ramsis-cli replay trace.jsonl --snapshot ckpt.json
//! ramsis-cli perf --scenario surge_faults --json
//! ramsis-cli spans trace.jsonl --top 10
//! ramsis-cli chaos --runs 100 --seed 7
//! ramsis-cli autoscale --trough 40 --swing 10 --max 8
//! ramsis-cli why decisions.jsonl --telemetry trace.jsonl --top 5
//! ```
//!
//! Policies are written under `policy_gen/METHOD_WORKERS_SLO/LOAD.json`
//! and results under `results/TASK_METHOD_TRACE_SLO_*.json`, matching
//! the artifact's layout (§A.4.2).

pub mod cli_args;
pub mod commands;

/// Dispatches a parsed argument list; returns the process exit code.
pub fn run(args: &[String]) -> i32 {
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return 2;
    };
    // Commands uniformly return `Result<exit code, error>`; most only
    // ever exit 0 on success, but `telemetry` exits 1 on a conservation
    // violation so scripts can gate on trace health.
    let result = match command.as_str() {
        "gen" => commands::gen::run(rest).map(|()| 0),
        "ms-gen" => commands::ms_gen::run(rest).map(|()| 0),
        "sim" => commands::sim::run(rest).map(|()| 0),
        "plot" => commands::plot::run(rest).map(|()| 0),
        "trace" => commands::trace::run(rest).map(|()| 0),
        "inspect" => commands::inspect::run(rest).map(|()| 0),
        "profiles" => commands::profiles::run(rest).map(|()| 0),
        "robustness" => commands::robustness::run(rest).map(|()| 0),
        "drift" => commands::drift::run(rest).map(|()| 0),
        "telemetry" => commands::telemetry::run(rest),
        "replay" => commands::replay::run(rest),
        "perf" => commands::perf::run(rest).map(|()| 0),
        "spans" => commands::spans::run(rest).map(|()| 0),
        "chaos" => commands::chaos::run(rest).map(|()| 0),
        "autoscale" => commands::autoscale::run(rest).map(|()| 0),
        "health" => commands::health::run(rest).map(|()| 0),
        "why" => commands::why::run(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            return 0;
        }
        other => Err(format!("unknown command {other:?}")),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{USAGE}");
            2
        }
    }
}

const USAGE: &str = "\
ramsis-cli — RAMSIS policy generation, simulation, and plotting

commands:
  gen      generate RAMSIS model-selection policies (artifact: RAMSIS_gen.py)
  ms-gen   run the ModelSwitching offline profiling sweep (artifact: MS_gen.py)
  sim      simulate an MS&S method on a trace (artifact: run_sim.py)
  plot     summarize and compare simulation results (artifact: plot.py)
  trace    generate or inspect a query-load trace file
  inspect  pretty-print a generated policy
  profiles export/import raw latency profiles (artifact layout, §A.2.4)
  robustness run the canonical fault schedule (crash/slowdown/surge)
           against degrading RAMSIS, stale RAMSIS, and the baselines
  drift    run the canonical drifting stream (rate ramp + dispersion
           shift) against adaptive RAMSIS, stale RAMSIS, and the
           fixed-fastest baseline
  telemetry inspect an event trace recorded with `sim --telemetry
           PATH` — JSONL or compact binary (`.bin`), auto-detected:
           conservation check, event-derived aggregates, sampling
           provenance (exact vs estimated counters), and a per-window
           miss-attribution breakdown (--window MS, --json, --quiet
           prints only violations; exits 1 when conservation fails);
           `telemetry convert IN OUT` losslessly converts JSONL ⇄
           binary
  replay   validate a checkpoint against its telemetry log: snapshot
           canonical-bytes check, log coverage, prefix conservation,
           and counter/clock agreement between the two (LOG.jsonl
           --snapshot CKPT.json, --json; exits 1 on divergence); the
           log may be JSONL or binary, auto-detected
  perf     run a pinned scenario with the self-profiler on and print
           the phase flame-table, hot-path counters, and gauges
           (--scenario NAME, --seed S, --json)
  spans    reconstruct per-query spans from an event trace (JSONL or
           binary) and print the critical-path breakdown: segment
           shares, percentiles, and the top-N slowest queries
           (--top N, --json)
  chaos    randomized resilience sweep: run N seeded random
           simulations twice each and check determinism, telemetry
           conservation, counter agreement, hedge consistency,
           admission bounds, scale-event accounting,
           failure-detection bounds, and autoscaler-off/health-off
           bit-identity (--runs N, --seed S, --json; --kill-resume
           adds the durability dimension: kill each run at a random
           checkpoint and demand byte-identical resume; --health
           forces the failure detector on every run)
  autoscale drive the fault-aware autoscaler over a diurnal trace and
           print the pool/brownout summary plus the scaling timeline
           (--trough QPS, --swing X, --min/--max N, --target QPS,
           --warmup S, --frontier for the fixed-vs-elastic
           cost comparison, --json)
  health   run the failure detector (probes, phi-accrual suspicion,
           circuit breakers; DESIGN.md §14) against a canonical
           gray-failure scenario — crash + recovery, heartbeat
           partition, batch-error window — and print the detection
           summary (genuine/false suspicions, lag vs the provable
           bound, breaker transitions) plus the health timeline
           (--workers N, --load QPS, --duration S, --probe MS,
           --events N, --json, --out PATH)
  why      explain SLO violations from recorded provenance: joins a
           decision log (`sim --decisions PATH`) with its telemetry
           trace, span critical paths, burn-rate alerts, and
           scale/brownout/detection-lag/false-suspicion windows into
           ranked root-cause explanations
           (DECISIONS.jsonl --telemetry TRACE, JSONL or binary,
           --top N,
           --budget FRAC, --json); --counterfactual instead re-runs a
           scenario and quantifies exact per-decision regret by
           forced-alternative replay (--max-decisions N,
           --alternatives N)

common flags (artifact §A.5):
  --task image|text     inference task              [default: image]
  --SLO MS              latency SLO in milliseconds [default: task-specific]
  --worker N            number of workers           [default: 60 image / 20 text]
  --load QPS            query load (gen/sim constant trace)
  --m RAMSIS|JF|MS      method to simulate          [sim only]
  --telemetry PATH      record the event stream (.bin = binary codec)  [sim only]
  --telemetry-sample R  deterministic query-coherent sampling at rate R [sim only]
  --trace real|constant workload kind               [sim/plot]
  --d N                 FLD discretization steps    [default: 25; 100 = paper]
  --out DIR             output root                 [default: .]";
