//! `--trace 1`: where the time goes, layer by layer.
//!
//! The workload runs once through the CLI, untraced, for the phase walls,
//! the kernel's accounting and the reference outputs. It then runs again
//! in-process through the library entry points the CLI calls, with each
//! hot-path callee (load estimator, scheme, telemetry sinks, decision
//! sink) wrapped in a timer that aggregates a count, busy time and a
//! latency histogram per layer: one span per call would dwarf the engine.
//! Coarse steps (phases, the `run` call, each load's solve, each
//! read-side library call) are spans with a parent, kept in memory and
//! written as JSON when the run ends. The in-process outputs must equal
//! the CLI's byte for byte, which shows the wrappers change nothing.
//!
//! Only this module depends on library signatures; the end-to-end path
//! depends on CLI flags alone.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use ramsis_core::{
    assemble_mdp_for_bench, generate_policy, Discretization, PoissonArrivals, PolicyConfig,
    PolicySet, WorkerPolicy,
};
use ramsis_mdp::{stationary_distribution, value_iteration, SolveOptions, StationaryOptions};
use ramsis_profiles::{ModelCatalog, ProfilerConfig, WorkerProfile};
use ramsis_sim::scheme::SelectionContext;
use ramsis_sim::{
    AdaptiveStats, FaultPlan, RamsisScheme, Routing, Selection, ServingScheme, Simulation,
    SimulationConfig, SimulationReport,
};
use ramsis_stats::LogHistogram;
use ramsis_telemetry::{
    aggregates, burn_analysis, conservation, critical_path, parse_decisions_tolerant,
    parse_jsonl_tolerant, parse_tolerant, reconstruct_spans, reconstruct_spans_sampled,
    sampled_aggregates, window_breakdown, BinSink, BurnConfig, DecisionRecord, DecisionSink, Event,
    JsonlDecisionSink, JsonlSink, NullDecisionSink, NullSink, SamplePolicy, SamplingSink,
    ShedCause, TelemetrySink,
};
use ramsis_workload::{DivergenceMonitor, LoadEstimator, OracleMonitor};
use serde::Value;

use crate::metrics::{Metrics, PER_LAYER};
use crate::proc::Proc;
use crate::workloads::{
    digests, fnv1a, normalised_policy, remove, rep, setup, Ctx, Rep, SimSpec, Workload,
    CLI_DEFAULT_D, FNV_OFFSET, GRID_D, SLO_MS,
};

/// Runs `w` traced and returns its per-layer metrics; the spans go to
/// `spans_out`.
pub fn run(w: Workload, ctx: &mut Ctx, spans_out: &Path) -> Result<Metrics, String> {
    let mut m = Metrics::new(PER_LAYER);
    let mut spans = Spans::new();
    let root = spans.open(format!("traced {}", w.name()), None);

    let cli = spans.open("cli", Some(root));
    let (_, setup_gen) = setup(w, ctx)?;
    let reference = rep(w, ctx)?;
    spans.close(cli);
    record_cli(
        &mut m,
        reference.gen.as_ref().unwrap_or(&setup_gen),
        &reference,
    );

    let offline = spans.open("offline", Some(root));
    let (workers, d, dir) = match w {
        Workload::PolicyGrid => (60, GRID_D, ctx.grid_dir()),
        _ => (w.workers(), CLI_DEFAULT_D, ctx.policy_dir(w.workers())),
    };
    solve_grid(&mut m, &mut spans, offline, ctx, workers, d, &dir)?;
    spans.close(offline);

    match w.sim() {
        Some(spec) => {
            let sim = spans.open("sim", Some(root));
            simulate(&mut m, &mut spans, sim, ctx, &spec, &reference)?;
            spans.close(sim);
            let inspect = spans.open("inspect", Some(root));
            analyze(&mut m, &mut spans, inspect, ctx, &spec)?;
            spans.close(inspect);
            remove(&ctx.dir, &spec.logs());
            m.set(
                "trace.overhead_ratio",
                m.get("sim.run_s") / m.get("cli.sim_s"),
            );
        }
        None => m.set(
            "trace.overhead_ratio",
            m.get("core.generate_s") / m.get("cli.gen_s"),
        ),
    }
    spans.close(root);
    std::fs::write(spans_out, spans.to_json())
        .map_err(|e| format!("write {}: {e}", spans_out.display()))?;
    Ok(m)
}

/// The untraced CLI run's phase walls and kernel accounting.
fn record_cli(m: &mut Metrics, gen: &Proc, r: &Rep) {
    m.set("cli.gen_s", gen.wall_s);
    m.set("os.gen_user_s", gen.user_s);
    if let Some(sim) = &r.sim {
        let arrivals = r.arrivals as f64;
        m.set("cli.sim_s", sim.wall_s);
        m.set("cli.sim_arrivals_per_s", arrivals / sim.wall_s);
        m.set("cli.sim_rss_mb", sim.maxrss_mb);
        m.set("cli.bytes_per_arrival", r.written_bytes as f64 / arrivals);
        m.set("cli.miss_rate", r.misses as f64 / arrivals);
        m.set("os.sim_user_s", sim.user_s);
        m.set("os.sim_sys_s", sim.sys_s);
    }
    let sum = |f: fn(&Proc) -> f64| r.inspect.iter().map(f).fold(0.0, |a, x| a + x);
    m.set("cli.inspect_s", sum(|p| p.wall_s));
    m.set("os.inspect_user_s", sum(|p| p.user_s));
    m.set("os.inspect_sys_s", sum(|p| p.sys_s));
    m.set(
        "cli.inspect_rss_mb",
        r.inspect.iter().map(|p| p.maxrss_mb).fold(0.0, f64::max),
    );
}

/// The image-task profile and SLO the CLI builds for `--SLO 150`.
fn image_profile() -> (WorkerProfile, Duration) {
    let slo_ms: f64 = SLO_MS.parse().expect("numeric SLO");
    let slo = Duration::from_secs_f64(slo_ms / 1e3);
    let catalog = ModelCatalog::torchvision_image();
    (
        WorkerProfile::build(&catalog, slo, ProfilerConfig::default()),
        slo,
    )
}

/// Offline stage: each load of the artifact grid through
/// `generate_policy` as `gen` runs it (checked against the file `gen`
/// wrote), then again step by step (assemble, solve, stationary
/// distribution) to split its time.
fn solve_grid(
    m: &mut Metrics,
    spans: &mut Spans,
    parent: usize,
    ctx: &mut Ctx,
    workers: usize,
    d: u32,
    dir: &Path,
) -> Result<(), String> {
    ctx.attempted += 1;
    let (profile, slo) = image_profile();
    let config = PolicyConfig::builder(slo)
        .workers(workers)
        .discretization(Discretization::fixed_length(d))
        .build();
    let opts = SolveOptions {
        discount: config.discount,
        ..SolveOptions::default()
    };
    let (mut generate, mut assemble, mut solve, mut stationary) = (0.0, 0.0, 0.0, 0.0);
    let (mut states, mut sweeps, mut state_sweeps) = (0, 0, 0);
    for i in 1..=20 {
        let load = 200.0 * f64::from(i);
        let process = PoissonArrivals::per_second(load);
        let (policy, s) = spans.time(format!("generate_policy {load}"), Some(parent), || {
            generate_policy(&profile, &process, &config)
        });
        let policy = policy.map_err(|e| e.to_string())?;
        generate += s;
        let path = dir.join(format!("{load}.json"));
        let written =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let ours = serde_json::to_string_pretty(&policy).map_err(|e| e.to_string())?;
        ctx.check(
            normalised_policy(&ours) == normalised_policy(&written),
            || format!("in-process policy differs from {}", path.display()),
        )?;

        let steps = spans.open(format!("solve steps {load}"), Some(parent));
        let (mdp, s) = spans.time("assemble", Some(steps), || {
            assemble_mdp_for_bench(&profile, &process, &config)
        });
        let mdp = mdp.map_err(|e| e.to_string())?;
        assemble += s;
        let (solution, s) = spans.time("value_iteration", Some(steps), || {
            value_iteration(&mdp, &opts)
        });
        solve += s;
        let (_, s) = spans.time("stationary_distribution", Some(steps), || {
            stationary_distribution(&mdp, &solution.policy, &StationaryOptions::default())
        });
        stationary += s;
        spans.close(steps);
        ctx.check(solution.iterations == policy.solve_iterations, || {
            format!("the step-by-step solve at {load} QPS took a different sweep count")
        })?;
        states = states.max(mdp.n_states());
        sweeps += solution.iterations;
        state_sweeps += mdp.n_states() * solution.iterations;
    }
    m.set("core.generate_s", generate);
    m.set("core.assemble_s", assemble);
    m.set("mdp.solve_s", solve);
    m.set("mdp.stationary_s", stationary);
    m.set("mdp.states", states as f64);
    m.set("mdp.sweeps", sweeps as f64);
    m.set("mdp.ns_per_state_sweep", solve * 1e9 / state_sweeps as f64);
    Ok(())
}

/// The `sim` command in-process, every callee wrapped. Its report and
/// logs must equal the untraced run's.
fn simulate(
    m: &mut Metrics,
    spans: &mut Spans,
    parent: usize,
    ctx: &mut Ctx,
    spec: &SimSpec,
    reference: &Rep,
) -> Result<(), String> {
    ctx.attempted += 1;
    let startup = spans.open("startup", Some(parent));
    let (profile, slo) = image_profile();
    let dir = ctx.policy_dir(spec.workers);
    let mut policies = Vec::new();
    for entry in std::fs::read_dir(&dir).map_err(|e| format!("read {}: {e}", dir.display()))? {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_some_and(|x| x == "json") {
            let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
            policies.push(WorkerPolicy::from_json(&text)?);
        }
    }
    let set = PolicySet::from_policies(policies).map_err(|e| e.to_string())?;
    let trace = spec.trace(&ctx.dir)?;
    let mut scheme = TimedScheme {
        inner: RamsisScheme::new(set),
        stats: CallStats::new(),
    };
    let mut estimator = TimedEstimator {
        inner: match spec.load {
            Some(_) => Box::new(OracleMonitor::new(trace.clone())),
            None => Box::new(DivergenceMonitor::new(trace.clone())),
        },
        stats: CallStats::new(),
    };
    let config = SimulationConfig::new(spec.workers, slo.as_secs_f64()).seeded(ctx.seed);
    let sim = Simulation::new(&profile, config).map_err(|e| e.to_string())?;
    let plan = FaultPlan::none();
    let mut run = |spans: &mut Spans,
                   sink: &mut dyn TelemetrySink,
                   decisions: &mut dyn DecisionSink|
     -> Result<(SimulationReport, f64), String> {
        // Start-up (policy load, trace parse, sink creation) ends where
        // the engine's `run` begins.
        spans.close(startup);
        let (report, s) = spans.time("run", Some(parent), || {
            sim.run_faulted_traced_decisions(
                &trace,
                &plan,
                &mut scheme,
                &mut estimator,
                sink,
                decisions,
            )
        });
        Ok((report.map_err(|e| e.to_string())?, s))
    };

    let log_path = |p: &str| ctx.dir.join(p);
    let seed = ctx.seed;
    let io = |e: std::io::Error| e.to_string();
    // Each arm mirrors one sink set-up of `sim`, and returns the report,
    // the `run` wall time, the sinks' busy time inside `run`, and what
    // the written logs must satisfy.
    let (report, run_s, sinks_busy_ns, sinks_ok) =
        match (spec.telemetry, spec.sample_rate, spec.decisions) {
            (None, None, None) => {
                let (report, s) = run(spans, &mut NullSink, &mut NullDecisionSink)?;
                (report, s, 0, true)
            }
            (Some(log), Some(rate), None) => {
                let path = log_path(log);
                let codec = TimedSink::new(BinSink::create_sampled(&path, rate, seed).map_err(io)?);
                let policy = SamplePolicy::new(rate, seed)?;
                let mut sampler = TimedSink::new(SamplingSink::new(codec, policy));
                let (report, s) = run(spans, &mut sampler, &mut NullDecisionSink)?;
                let codec_in_run_ns = sampler.inner.inner().stats.busy_ns;
                let finish = spans.open("telemetry finish", Some(parent));
                let codec = sampler.inner.finish();
                let written = codec.inner.records();
                let ok = !codec.inner.write_failed() && codec.inner.finish().is_ok();
                spans.close(finish);
                let telemetry = Written {
                    offered: &sampler.stats,
                    codec: &codec.stats,
                    kept: codec.kept,
                    written,
                    finish_s: spans.secs(finish),
                };
                telemetry.record(m, &path)?;
                let sample_ns = sampler.stats.busy_ns.saturating_sub(codec_in_run_ns);
                m.set("telemetry.sample_s", sample_ns as f64 / 1e9);
                (
                    report,
                    s,
                    sampler.stats.busy_ns,
                    ok && telemetry.consistent(),
                )
            }
            (Some(log), None, Some(dec)) => {
                let (path, dec_path) = (log_path(log), log_path(dec));
                let mut sink = TimedSink::new(JsonlSink::create(&path).map_err(io)?);
                let mut decisions =
                    TimedDecisions::new(JsonlDecisionSink::create(&dec_path).map_err(io)?);
                let (report, s) = run(spans, &mut sink, &mut decisions)?;
                let busy_ns = sink.stats.busy_ns + decisions.stats.busy_ns;
                let finish = spans.open("telemetry finish", Some(parent));
                let written = sink.inner.lines();
                let ok = !sink.inner.write_failed() && sink.inner.finish().is_ok();
                spans.close(finish);
                let records = decisions.inner.lines();
                let dec_ok = !decisions.inner.write_failed() && decisions.inner.finish().is_ok();
                let telemetry = Written {
                    offered: &sink.stats,
                    codec: &sink.stats,
                    kept: sink.kept,
                    written,
                    finish_s: spans.secs(finish),
                };
                telemetry.record(m, &path)?;
                let dec_bytes = file_len(&dec_path)?;
                m.set("decisions.records", records as f64);
                m.set(
                    "decisions.bytes_per_record",
                    dec_bytes as f64 / records as f64,
                );
                decisions.stats.record(m, "decisions.record");
                let dec_consistent = records == decisions.stats.calls;
                (
                    report,
                    s,
                    busy_ns,
                    ok && dec_ok && dec_consistent && telemetry.consistent(),
                )
            }
            _ => unreachable!("the workloads use only the three sink set-ups above"),
        };
    ctx.check(sinks_ok, || {
        "a traced sink failed, or saw other records than it wrote".to_string()
    })?;
    let ours = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
    ctx.check(
        fnv1a(FNV_OFFSET, ours.as_bytes()) == reference.output,
        || "the in-process report differs from the CLI's".to_string(),
    )?;
    let logs = digests(&ctx.dir, &spec.logs())?;
    ctx.check(logs == reference.logs, || {
        format!(
            "in-process logs {logs:?} differ from the CLI's {:?}",
            reference.logs
        )
    })?;

    let arrivals = report.total_arrivals as f64;
    let callee_ns = estimator.stats.busy_ns + scheme.stats.busy_ns + sinks_busy_ns;
    let self_s = run_s - callee_ns as f64 / 1e9;
    m.set("sim.startup_s", spans.secs(startup));
    m.set("sim.run_s", run_s);
    m.set("sim.self_s", self_s);
    m.set("sim.self_ns_per_arrival", self_s * 1e9 / arrivals);
    m.set("sim.arrivals", arrivals);
    m.set("workload.estimator_calls", estimator.stats.calls as f64);
    estimator.stats.record(m, "workload.estimator");
    m.set("core.select_calls", scheme.stats.calls as f64);
    scheme.stats.record(m, "core.select");
    Ok(())
}

/// The read side in-process: the library calls `telemetry --quiet` and
/// `spans --json` make (`diurnal_sampled`), or `why --json` makes
/// (`explain_misses`). What the CLI does beyond them — process start,
/// argument parsing, `why`'s own join, JSON output — is the residual.
fn analyze(
    m: &mut Metrics,
    spans: &mut Spans,
    parent: usize,
    ctx: &mut Ctx,
    spec: &SimSpec,
) -> Result<(), String> {
    let Some(log) = spec.telemetry else {
        return Ok(());
    };
    ctx.attempted += 1;
    let path = ctx.dir.join(log);
    let mut t = ReadPath::default();
    match spec.decisions {
        None => {
            for command in ["telemetry", "spans"] {
                let cmd = spans.open(command, Some(parent));
                let (bytes, s) = spans.time("read", Some(cmd), || std::fs::read(&path));
                t.read_s += s;
                let bytes = bytes.map_err(|e| format!("read {log}: {e}"))?;
                let (parsed, s) =
                    spans.time("parse_tolerant", Some(cmd), || parse_tolerant(&bytes));
                t.parse_s += s;
                drop(bytes);
                let parsed = parsed?;
                t.count(parsed.events.len());
                let events = &parsed.events;
                let rate = parsed.sample_rate;
                if command == "telemetry" {
                    let (cons, s) = spans.time("conservation", Some(cmd), || conservation(events));
                    t.conservation_s += s;
                    ctx.check(cons.holds(), || "in-process conservation fails".to_string())?;
                    let (_, s) = spans.time("aggregates", Some(cmd), || {
                        (
                            aggregates(events),
                            rate.map(|r| sampled_aggregates(events, r)),
                        )
                    });
                    t.aggregates_s += s;
                    let (_, s) = spans.time("window_breakdown", Some(cmd), || {
                        window_breakdown(events, 1_000_000_000)
                    });
                    t.windows_s += s;
                } else {
                    let (span_log, s) = spans.time("reconstruct_spans", Some(cmd), || match rate {
                        Some(r) => reconstruct_spans_sampled(events, r),
                        None => reconstruct_spans(events),
                    });
                    t.spans_s += s;
                    let (_, s) =
                        spans.time("critical_path", Some(cmd), || critical_path(&span_log, 10));
                    t.critical_path_s += s;
                }
                spans.close(cmd);
            }
        }
        Some(dec) => {
            let cmd = spans.open("why", Some(parent));
            let dec_path = ctx.dir.join(dec);
            let (text, s) = spans.time("read", Some(cmd), || std::fs::read_to_string(&dec_path));
            t.read_s += s;
            let text = text.map_err(|e| format!("read {dec}: {e}"))?;
            let (decisions, s) = spans.time("parse_decisions_tolerant", Some(cmd), || {
                parse_decisions_tolerant(&text)
            });
            t.decisions_parse_s += s;
            // Held through the rest of the command, as `why` holds it.
            let _decisions = decisions?;
            let (text, s) = spans.time("read", Some(cmd), || std::fs::read_to_string(&path));
            t.read_s += s;
            let text = text.map_err(|e| format!("read {log}: {e}"))?;
            let (parsed, s) = spans.time("parse_jsonl_tolerant", Some(cmd), || {
                parse_jsonl_tolerant(&text)
            });
            t.parse_s += s;
            let parsed = parsed?;
            t.count(parsed.events.len());
            let (_, s) = spans.time("reconstruct_spans", Some(cmd), || {
                reconstruct_spans(&parsed.events)
            });
            t.spans_s += s;
            let (_, s) = spans.time("burn_analysis", Some(cmd), || {
                burn_analysis(&parsed.events, BurnConfig::for_budget(0.1))
            });
            t.burn_s += s;
            spans.close(cmd);
        }
    }
    t.record(m);
    Ok(())
}

/// Read-side library time, summed over the commands of one workload.
#[derive(Default)]
struct ReadPath {
    read_s: f64,
    parse_s: f64,
    /// Events in the log, and events parsed over all commands.
    events: usize,
    parsed: usize,
    conservation_s: f64,
    aggregates_s: f64,
    windows_s: f64,
    spans_s: f64,
    critical_path_s: f64,
    decisions_parse_s: f64,
    burn_s: f64,
}

impl ReadPath {
    fn count(&mut self, events: usize) {
        self.events = events;
        self.parsed += events;
    }

    fn record(&self, m: &mut Metrics) {
        let timed = [
            ("analyze.read_s", self.read_s),
            ("analyze.parse_s", self.parse_s),
            ("analyze.conservation_s", self.conservation_s),
            ("analyze.aggregates_s", self.aggregates_s),
            ("analyze.windows_s", self.windows_s),
            ("analyze.spans_s", self.spans_s),
            ("analyze.critical_path_s", self.critical_path_s),
            ("analyze.decisions_parse_s", self.decisions_parse_s),
            ("analyze.burn_s", self.burn_s),
        ];
        for (name, s) in timed {
            m.set(name, s);
        }
        let library_s: f64 = timed.iter().map(|(_, s)| s).sum();
        m.set("analyze.residual_s", m.get("cli.inspect_s") - library_s);
        m.set("analyze.events", self.events as f64);
        m.set(
            "analyze.parse_ns_per_event",
            self.parse_s * 1e9 / self.parsed.max(1) as f64,
        );
    }
}

/// What a telemetry sink pair recorded: the outermost wrapper saw every
/// offered event, the codec wrapper every written one.
struct Written<'a> {
    offered: &'a CallStats,
    codec: &'a CallStats,
    kept: [u64; KINDS.len()],
    written: u64,
    finish_s: f64,
}

impl Written<'_> {
    fn record(&self, m: &mut Metrics, file: &Path) -> Result<(), String> {
        let offered = self.offered.calls as f64;
        let written = self.written as f64;
        m.set("telemetry.offered", offered);
        m.set("telemetry.written", written);
        m.set("telemetry.kept_ratio", written / offered);
        for (name, n) in KINDS.iter().zip(self.kept) {
            m.set(name, n as f64);
        }
        m.set("telemetry.codec_s", self.codec.busy_ns as f64 / 1e9);
        self.offered.record_percentiles(m, "telemetry.record_ns");
        m.set("telemetry.finish_s", self.finish_s);
        m.set(
            "telemetry.bytes_per_event",
            file_len(file)? as f64 / written,
        );
        Ok(())
    }

    /// The codec wrapper saw exactly the records the sink wrote.
    fn consistent(&self) -> bool {
        self.kept.iter().sum::<u64>() == self.written
    }
}

fn file_len(path: &Path) -> Result<u64, String> {
    std::fs::metadata(path)
        .map(|md| md.len())
        .map_err(|e| format!("stat {}: {e}", path.display()))
}

/// Per-kind counters of written events; the rest of the event kinds
/// (audit, resilience, scaling, health) share the last slot.
const KINDS: [&str; 6] = [
    "telemetry.kept.arrival",
    "telemetry.kept.enqueue",
    "telemetry.kept.dispatch",
    "telemetry.kept.complete",
    "telemetry.kept.policy_decision",
    "telemetry.kept.other",
];

fn kind_slot(e: &Event) -> usize {
    match e {
        Event::Arrival { .. } => 0,
        Event::Enqueue { .. } => 1,
        Event::Dispatch { .. } => 2,
        Event::Complete { .. } => 3,
        Event::PolicyDecision { .. } => 4,
        _ => 5,
    }
}

/// Count, busy time and latency histogram of the calls into one layer.
struct CallStats {
    calls: u64,
    busy_ns: u64,
    hist: LogHistogram,
}

impl CallStats {
    fn new() -> Self {
        Self {
            calls: 0,
            busy_ns: 0,
            hist: LogHistogram::new(),
        }
    }

    /// Times one call into the layer.
    #[inline]
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let started = Instant::now();
        let r = f();
        let ns = elapsed_ns(started);
        self.calls += 1;
        self.busy_ns += ns;
        self.hist.record(ns);
        r
    }

    /// Adds a flush's time to the layer's busy time without counting it
    /// as a call, so the histogram stays one of hot-path calls.
    fn time_flush(&mut self, f: impl FnOnce()) {
        let started = Instant::now();
        f();
        self.busy_ns += elapsed_ns(started);
    }

    /// Sets `{layer}_s` and the `{layer}_ns` percentiles.
    fn record(&self, m: &mut Metrics, layer: &str) {
        m.set(&format!("{layer}_s"), self.busy_ns as f64 / 1e9);
        self.record_percentiles(m, &format!("{layer}_ns"));
    }

    fn record_percentiles(&self, m: &mut Metrics, prefix: &str) {
        for p in [50, 99] {
            let ns = self.hist.percentile(f64::from(p)).unwrap_or(0);
            m.set(&format!("{prefix}_p{p}"), ns as f64);
        }
    }
}

fn elapsed_ns(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

struct TimedEstimator {
    inner: Box<dyn LoadEstimator>,
    stats: CallStats,
}

impl LoadEstimator for TimedEstimator {
    fn record_arrival(&mut self, now: f64) {
        self.stats.time(|| self.inner.record_arrival(now));
    }

    fn estimate(&mut self, now: f64) -> f64 {
        self.stats.time(|| self.inner.estimate(now))
    }

    fn divergence(&mut self, now: f64) -> Option<f64> {
        self.stats.time(|| self.inner.divergence(now))
    }

    fn trend_qps_per_s(&mut self, now: f64) -> Option<f64> {
        self.stats.time(|| self.inner.trend_qps_per_s(now))
    }

    fn checkpoint_state(&self) -> Option<Value> {
        self.inner.checkpoint_state()
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), String> {
        self.inner.restore_state(state)
    }
}

/// [`RamsisScheme`] with its policy lookups timed; every other hook is
/// forwarded untouched.
struct TimedScheme {
    inner: RamsisScheme,
    stats: CallStats,
}

impl ServingScheme for TimedScheme {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn routing(&self) -> Routing {
        self.inner.routing()
    }

    fn select(&mut self, ctx: &SelectionContext) -> Selection {
        self.stats.time(|| self.inner.select(ctx))
    }

    fn on_membership_change(&mut self, live_workers: usize) {
        self.inner.on_membership_change(live_workers);
    }

    fn on_arrival(&mut self, now_s: f64) {
        self.inner.on_arrival(now_s);
    }

    fn regime(&self) -> Option<&str> {
        self.inner.regime()
    }

    fn adaptive_stats(&self) -> Option<AdaptiveStats> {
        self.inner.adaptive_stats()
    }

    fn set_audit(&mut self, enabled: bool) {
        self.inner.set_audit(enabled);
    }

    fn drain_audit(&mut self, out: &mut Vec<Event>) {
        self.inner.drain_audit(out);
    }

    fn shed_cause(&self) -> ShedCause {
        self.inner.shed_cause()
    }

    fn last_select_was_fallback(&self) -> bool {
        self.inner.last_select_was_fallback()
    }

    fn checkpoint_state(&self) -> Option<Value> {
        self.inner.checkpoint_state()
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), String> {
        self.inner.restore_state(state)
    }
}

struct TimedSink<S> {
    inner: S,
    stats: CallStats,
    kept: [u64; KINDS.len()],
}

impl<S> TimedSink<S> {
    fn new(inner: S) -> Self {
        Self {
            inner,
            stats: CallStats::new(),
            kept: [0; KINDS.len()],
        }
    }
}

impl<S: TelemetrySink> TelemetrySink for TimedSink<S> {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn record(&mut self, event: &Event) {
        self.kept[kind_slot(event)] += 1;
        self.stats.time(|| self.inner.record(event));
    }

    fn flush(&mut self) {
        self.stats.time_flush(|| self.inner.flush());
    }
}

struct TimedDecisions<S> {
    inner: S,
    stats: CallStats,
}

impl<S> TimedDecisions<S> {
    fn new(inner: S) -> Self {
        Self {
            inner,
            stats: CallStats::new(),
        }
    }
}

impl<S: DecisionSink> DecisionSink for TimedDecisions<S> {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn record(&mut self, record: &DecisionRecord) {
        self.stats.time(|| self.inner.record(record));
    }

    fn flush(&mut self) {
        self.stats.time_flush(|| self.inner.flush());
    }
}

/// Coarse spans: name, parent, start and end, relative to the first.
struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

struct Span {
    name: String,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

impl Spans {
    fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn open(&mut self, name: impl Into<String>, parent: Option<usize>) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name: name.into(),
            parent,
            start: now,
            end: now,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end = self.origin.elapsed();
    }

    fn secs(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        (s.end - s.start).as_secs_f64()
    }

    /// Runs `f` as a span of its own; returns its result and seconds.
    fn time<R>(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.open(name, parent);
        let r = black_box(f());
        self.close(id);
        (r, self.secs(id))
    }

    /// The spans as a JSON array; each carries its self time, its
    /// duration minus the part its children cover.
    fn to_json(&self) -> String {
        let mut child_ns = vec![0u64; self.spans.len()];
        let ns = |s: &Span| u64::try_from((s.end - s.start).as_nanos()).unwrap_or(u64::MAX);
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += ns(s);
            }
        }
        let rows = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let nanos = |d: Duration| Value::U64(d.as_nanos() as u64);
                Value::Object(vec![
                    ("id".into(), Value::U64(id as u64)),
                    (
                        "parent".into(),
                        s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                    ),
                    ("name".into(), Value::Str(s.name.clone())),
                    ("start_ns".into(), nanos(s.start)),
                    ("end_ns".into(), nanos(s.end)),
                    (
                        "self_ns".into(),
                        Value::U64(ns(s).saturating_sub(child_ns[id])),
                    ),
                ])
            })
            .collect();
        serde_json::to_string_pretty(&Value::Array(rows)).expect("a Value always renders")
    }
}
