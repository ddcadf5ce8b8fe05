//! Telemetry integration: the recorded event stream is deterministic,
//! conserves every query, and reconstructs the engine's own counters
//! exactly — which is what makes traces trustworthy for
//! miss-attribution.

use std::collections::HashMap;

use ramsis::baselines::JellyfishPlus;
use ramsis::core::{MissPolicy, PolicySet};
use ramsis::prelude::*;
use ramsis::sim::{FastestFixed, FaultPlan, RamsisScheme, ResiliencePolicy, Routing};
use ramsis::telemetry::{
    aggregates, conservation, is_binary_stream, parse_bin_tolerant, parse_jsonl, reconstruct_spans,
    reconstruct_spans_sampled, window_breakdown, write_bin, write_jsonl, Event, JsonlSink,
    QuerySpan, SamplePolicy, SamplingSink, TelemetrySink, VecSink,
};
use ramsis::workload::OracleMonitor;

fn profile() -> &'static WorkerProfile {
    use std::sync::OnceLock;
    static P: OnceLock<WorkerProfile> = OnceLock::new();
    P.get_or_init(|| {
        WorkerProfile::build(
            &ModelCatalog::torchvision_image(),
            Duration::from_millis(150),
            ProfilerConfig::default(),
        )
    })
}

/// A JF+ run needs no offline policies; the workhorse for trace checks.
fn traced_jf_run(seed: u64) -> (SimulationReport, Vec<Event>) {
    let trace = Trace::constant(800.0, 10.0);
    let sim = Simulation::new(profile(), SimulationConfig::new(8, 0.15).seeded(seed))
        .expect("valid simulation config");
    let mut scheme = JellyfishPlus::new(profile(), 8);
    let mut monitor = OracleMonitor::new(trace.clone());
    let mut sink = VecSink::new();
    let spec = RunSpec::trace(&trace).telemetry(&mut sink);
    let report = sim
        .execute(&mut scheme, &mut monitor, spec)
        .unwrap()
        .report();
    (report, sink.into_events())
}

/// An overloaded RAMSIS drop-policy run: exercises `Shed` events too.
fn traced_shedding_run() -> (SimulationReport, Vec<Event>) {
    let workers = 2;
    let load = 500.0;
    let config = PolicyConfig::builder(Duration::from_millis(150))
        .workers(workers)
        .discretization(Discretization::fixed_length(15))
        .on_miss(MissPolicy::Drop)
        .build();
    let set = PolicySet::generate_poisson(profile(), &[load], &config).unwrap();
    let trace = Trace::constant(load, 10.0);
    let sim = Simulation::new(profile(), SimulationConfig::new(workers, 0.15).seeded(21))
        .expect("valid simulation config");
    let mut scheme = RamsisScheme::new(set);
    let mut monitor = OracleMonitor::new(trace.clone());
    let mut sink = VecSink::new();
    let spec = RunSpec::trace(&trace).telemetry(&mut sink);
    let report = sim
        .execute(&mut scheme, &mut monitor, spec)
        .unwrap()
        .report();
    (report, sink.into_events())
}

#[test]
fn seeded_rerun_gives_byte_identical_jsonl() {
    let serialize = |events: &[Event]| {
        let mut sink = JsonlSink::new(Vec::new());
        for e in events {
            sink.record(e);
        }
        String::from_utf8(sink.finish().unwrap()).unwrap()
    };
    let (ra, ea) = traced_jf_run(7);
    let (rb, eb) = traced_jf_run(7);
    assert_eq!(ra, rb, "seeded reports must be identical");
    let (ja, jb) = (serialize(&ea), serialize(&eb));
    assert!(!ja.is_empty());
    assert_eq!(ja, jb, "seeded event logs must be byte-identical");
    // And the log round-trips losslessly.
    assert_eq!(parse_jsonl(&ja).unwrap(), ea);
    // A different seed gives a different stream.
    let (_, ec) = traced_jf_run(8);
    assert_ne!(serialize(&ec), ja);
}

#[test]
fn trace_conserves_every_query() {
    let (report, events) = traced_jf_run(42);
    let c = conservation(&events);
    assert!(c.holds(), "conservation violated: {c:?}");
    assert_eq!(c.arrivals, report.total_arrivals);
    assert_eq!(c.completions, report.served);
    assert_eq!(c.drops + c.sheds, report.dropped);
    assert_eq!(c.anomalies, 0);
}

#[test]
fn event_aggregates_match_engine_counters_exactly() {
    for (report, events) in [traced_jf_run(3), traced_shedding_run()] {
        let a = aggregates(&events);
        assert_eq!(a.arrivals, report.total_arrivals);
        assert_eq!(a.served, report.served);
        assert_eq!(a.violations, report.violations);
        assert_eq!(a.dropped, report.dropped);
        assert!((a.violation_rate() - report.violation_rate).abs() < 1e-12);
        // The exact event-side mean agrees with the engine's streaming
        // mean to floating-point accumulation error.
        assert!(
            (a.mean_response_s() - report.mean_response_s).abs() < 1e-6,
            "event mean {} vs engine mean {}",
            a.mean_response_s(),
            report.mean_response_s
        );
        // Same histogram bucketing on both sides: identical percentiles.
        let pctl = |p: f64| a.response.percentile(p).map_or(0.0, |ns| ns as f64 / 1e9);
        assert_eq!(pctl(50.0), report.p50_response_s);
        assert_eq!(pctl(95.0), report.p95_response_s);
        assert_eq!(pctl(99.0), report.p99_response_s);
    }
}

#[test]
fn shedding_run_records_shed_events() {
    let (report, events) = traced_shedding_run();
    assert!(report.dropped > 0, "setup must shed");
    let c = conservation(&events);
    assert!(c.holds(), "conservation violated: {c:?}");
    assert!(c.sheds > 0, "policy sheds must appear as Shed events");
    assert_eq!(c.sheds + c.drops, report.dropped);
    // Every shed has a matching audited Drop decision batch.
    let decision_drops: u64 = events
        .iter()
        .filter_map(|e| match e {
            Event::PolicyDecision {
                action: ramsis::telemetry::Action::Drop { count },
                ..
            } => Some(u64::from(*count)),
            _ => None,
        })
        .sum();
    assert_eq!(decision_drops, c.sheds);
}

#[test]
fn histogram_percentiles_agree_with_exact() {
    // Reconstruct the exact response distribution from Complete events
    // and pin the engine's streaming percentiles to the log-bucket
    // guarantee (< 2^-7 relative error; extremes exact).
    let (report, events) = traced_jf_run(11);
    let mut exact_ns: Vec<u64> = events
        .iter()
        .filter_map(|e| match e {
            Event::Complete { response_ns, .. } => Some(*response_ns),
            _ => None,
        })
        .collect();
    assert!(exact_ns.len() as u64 == report.served && report.served > 100);
    exact_ns.sort_unstable();
    for (p, got_s) in [
        (50.0, report.p50_response_s),
        (95.0, report.p95_response_s),
        (99.0, report.p99_response_s),
    ] {
        let rank = ((p / 100.0 * exact_ns.len() as f64).ceil() as usize).clamp(1, exact_ns.len());
        let exact = exact_ns[rank - 1] as f64 / 1e9;
        let rel = (got_s - exact).abs() / exact;
        assert!(
            rel < 1.0 / 128.0,
            "p{p}: streaming {got_s} vs exact {exact} (rel {rel:.5})"
        );
    }
}

#[test]
fn window_breakdown_totals_match_aggregates() {
    let (report, events) = traced_jf_run(5);
    let windows = window_breakdown(&events, 1_000_000_000);
    let total =
        |f: fn(&ramsis::telemetry::WindowStats) -> u64| -> u64 { windows.iter().map(f).sum() };
    assert_eq!(total(|w| w.arrivals), report.total_arrivals);
    assert_eq!(total(|w| w.completions), report.served);
    assert_eq!(total(|w| w.violations), report.violations);
    assert_eq!(total(|w| w.sheds) + total(|w| w.drops), report.dropped);
}

/// A resilience-heavy run: a hard straggler under round-robin with
/// timeouts, retries, hedging, and admission all enabled — every new
/// event kind appears in the stream.
fn traced_resilient_run(seed: u64) -> (SimulationReport, Vec<Event>) {
    let trace = Trace::constant(70.0, 20.0);
    let plan = FaultPlan::none().slowdown(0, 1.0, 18.0, 12.0);
    let sim = Simulation::new(
        profile(),
        SimulationConfig::new(3, 0.15)
            .seeded(seed)
            .stochastic()
            .with_resilience(ResiliencePolicy::all_on()),
    )
    .expect("valid simulation config");
    let mut scheme = FastestFixed::new(profile().fastest_model(), Routing::PerWorkerRoundRobin);
    let mut monitor = LoadMonitor::new();
    let mut sink = VecSink::new();
    let spec = RunSpec::trace(&trace).faults(&plan).telemetry(&mut sink);
    let report = sim
        .execute(&mut scheme, &mut monitor, spec)
        .expect("plan validates")
        .report();
    (report, sink.into_events())
}

#[test]
fn conservation_extends_to_resilience_events() {
    let (report, events) = traced_resilient_run(13);
    let rs = &report.resilience;
    assert!(
        rs.timeouts > 0 && rs.retries > 0,
        "setup must exercise timeout + retry: {rs:?}"
    );
    let c = conservation(&events);
    assert!(c.holds(), "conservation violated: {c:?}");
    // Event-derived resilience counters agree with the engine's.
    let a = aggregates(&events);
    assert_eq!(a.timeouts, rs.timeouts);
    assert_eq!(a.retries, rs.retries);
    assert_eq!(a.hedges_issued, rs.hedges_issued);
    assert_eq!(a.hedges_cancelled, rs.hedges_cancelled);
    assert_eq!(a.admissions, rs.admission_shed);
    assert_eq!(a.arrivals, report.total_arrivals);
    assert_eq!(a.served, report.served);
    assert_eq!(a.dropped, report.dropped);
}

#[test]
fn every_query_terminates_exactly_once_despite_hedges_and_retries() {
    // Hedged duplicates and retried attempts must collapse to exactly
    // one terminal event (Complete / Shed / Admission) per query id.
    let (report, events) = traced_resilient_run(29);
    let mut terminals: HashMap<u64, u32> = HashMap::new();
    for e in &events {
        let id = match e {
            Event::Complete { query, .. }
            | Event::Shed { query, .. }
            | Event::Admission { query, .. } => *query,
            _ => continue,
        };
        *terminals.entry(id).or_insert(0) += 1;
    }
    assert_eq!(terminals.len() as u64, report.total_arrivals);
    for (id, n) in &terminals {
        assert_eq!(*n, 1, "query {id} terminated {n} times");
    }
}

#[test]
fn retry_attempts_are_attributed_to_one_query_id() {
    // A retried query keeps its id across attempts: its Timeout events
    // number 1, 2, … and each Retry matches the Timeout that caused it.
    let (report, events) = traced_resilient_run(41);
    assert!(report.resilience.retries > 0, "setup must retry");
    let mut timeout_attempts: HashMap<u64, Vec<u32>> = HashMap::new();
    let mut retry_attempts: HashMap<u64, Vec<u32>> = HashMap::new();
    for e in &events {
        match e {
            Event::Timeout { query, attempt, .. } => {
                timeout_attempts.entry(*query).or_default().push(*attempt);
            }
            Event::Retry { query, attempt, .. } => {
                retry_attempts.entry(*query).or_default().push(*attempt);
            }
            _ => {}
        }
    }
    assert!(!retry_attempts.is_empty());
    for (id, attempts) in &timeout_attempts {
        let expect: Vec<u32> = (1..=attempts.len() as u32).collect();
        assert_eq!(
            attempts, &expect,
            "query {id} timeout attempts must count 1..n"
        );
    }
    for (id, attempts) in &retry_attempts {
        // Every retry follows a timeout of the same query and attempt.
        let t = &timeout_attempts[id];
        for a in attempts {
            assert!(
                t.contains(a),
                "query {id} retry attempt {a} without a matching timeout"
            );
        }
    }
}

#[test]
fn empty_run_report_and_trace_are_empty() {
    // Zero arrivals: every rate and percentile is defined as zero, and
    // the trace holds vacuously.
    let sim = Simulation::new(profile(), SimulationConfig::new(2, 0.15).seeded(1))
        .expect("valid simulation config");
    let mut scheme = JellyfishPlus::new(profile(), 2);
    let mut monitor = LoadMonitor::new();
    let mut sink = VecSink::new();
    let spec = RunSpec::arrivals(&[]).telemetry(&mut sink);
    let report = sim
        .execute(&mut scheme, &mut monitor, spec)
        .unwrap()
        .report();
    assert_eq!(report.served, 0);
    assert_eq!(report.mean_response_s, 0.0);
    assert_eq!(report.p50_response_s, 0.0);
    assert_eq!(report.p95_response_s, 0.0);
    assert_eq!(report.p99_response_s, 0.0);
    assert_eq!(report.violation_rate, 0.0);
    let events = sink.into_events();
    let lifecycle = events
        .iter()
        .filter(|e| matches!(e, Event::Arrival { .. } | Event::Complete { .. }))
        .count();
    assert_eq!(lifecycle, 0, "no queries, no lifecycle events");
    assert!(conservation(&events).holds());
}

// ---------------------------------------------------------------------
// Binary codec + deterministic query-coherent sampling (ISSUE 10)
// ---------------------------------------------------------------------

/// The resilient scenario run live through a `SamplingSink` — the
/// engine must not notice the wrapper at all. Returns the report, the
/// surviving stream, and the count of events the sampler withheld.
fn traced_resilient_sampled(seed: u64, rate: f64) -> (SimulationReport, Vec<Event>, u64) {
    let trace = Trace::constant(70.0, 20.0);
    let plan = FaultPlan::none().slowdown(0, 1.0, 18.0, 12.0);
    let sim = Simulation::new(
        profile(),
        SimulationConfig::new(3, 0.15)
            .seeded(seed)
            .stochastic()
            .with_resilience(ResiliencePolicy::all_on()),
    )
    .expect("valid simulation config");
    let mut scheme = FastestFixed::new(profile().fastest_model(), Routing::PerWorkerRoundRobin);
    let mut monitor = LoadMonitor::new();
    let policy = SamplePolicy::new(rate, seed).expect("valid sampling rate");
    let mut sink = SamplingSink::new(VecSink::new(), policy);
    let spec = RunSpec::trace(&trace).faults(&plan).telemetry(&mut sink);
    let report = sim
        .execute(&mut scheme, &mut monitor, spec)
        .expect("plan validates")
        .report();
    let withheld = sink.sampled_out_events();
    (report, sink.finish().into_events(), withheld)
}

#[test]
fn report_is_byte_identical_at_every_sample_rate() {
    // Exactness under sampling, part 1: the engine's report never
    // depends on what the sink keeps. Tracing off, tracing full, and
    // sampling at any rate all serialize to the same bytes.
    let (full_report, full_events) = traced_resilient_run(57);
    let baseline = serde_json::to_string(&full_report).unwrap();
    for rate in [1.0, 0.1, 0.01] {
        let (report, events, withheld) = traced_resilient_sampled(57, rate);
        assert_eq!(
            serde_json::to_string(&report).unwrap(),
            baseline,
            "report must be byte-identical at rate {rate}"
        );
        // Every event is either delivered or counted as withheld.
        assert_eq!(
            events.len() as u64 + withheld,
            full_events.len() as u64,
            "event accounting at rate {rate}"
        );
        if rate >= 1.0 {
            assert_eq!(events, full_events, "rate 1.0 must pass everything through");
            assert_eq!(withheld, 0);
        }
    }
}

#[test]
fn sampled_stream_is_an_exact_subsequence_that_keeps_every_violation() {
    let (_, full) = traced_resilient_run(57);
    let violations = |evs: &[Event]| {
        evs.iter()
            .filter(|e| matches!(e, Event::Complete { violated: true, .. }))
            .count()
    };
    assert!(violations(&full) > 0, "setup must violate");
    for rate in [0.1, 0.01] {
        let (_, sampled, withheld) = traced_resilient_sampled(57, rate);
        assert!(withheld > 0, "rate {rate} must sample something out");
        // Order-preserving subsequence: sampling never reorders,
        // rewrites, or fabricates an event.
        let mut rest = full.as_slice();
        for e in &sampled {
            let i = rest
                .iter()
                .position(|f| f == e)
                .unwrap_or_else(|| panic!("rate {rate}: sampled event {e:?} not in full stream"));
            rest = &rest[i + 1..];
        }
        // Query coherence keeps conservation intact: a query keeps all
        // of its lifecycle events or none of them.
        let c = conservation(&sampled);
        assert!(c.holds(), "rate {rate}: conservation violated: {c:?}");
        // The tail-keep rules retain every SLO violation exactly.
        assert_eq!(
            violations(&sampled),
            violations(&full),
            "rate {rate}: violating completions must always be kept"
        );
    }
}

#[test]
fn sampled_spans_reconstruct_exactly_with_zero_orphans() {
    // A kept query keeps all its events, so every span surviving
    // sampling reconstructs identically to the full trace — sampled
    // out, never degraded.
    let (_, full) = traced_resilient_run(57);
    let full_log = reconstruct_spans(&full);
    let (_, sampled, _) = traced_resilient_sampled(57, 0.1);
    let log = reconstruct_spans_sampled(&sampled, 0.1);
    assert_eq!(log.sample_rate, Some(0.1));
    assert_eq!(log.orphan_events, 0, "a kept query keeps all its events");
    assert_eq!(log.degraded_spans, 0, "sampling must never degrade a span");
    assert!(log.est_sampled_out > 0.0, "boring queries were removed");
    assert!(
        !log.spans.is_empty() && log.spans.len() < full_log.spans.len(),
        "sampling at 10% must keep some spans and drop others: {} of {}",
        log.spans.len(),
        full_log.spans.len()
    );
    let by_id: HashMap<u64, &QuerySpan> = full_log.spans.iter().map(|s| (s.query, s)).collect();
    for span in &log.spans {
        assert_eq!(
            Some(span),
            by_id.get(&span.query).copied(),
            "span of query {} must match the full trace exactly",
            span.query
        );
    }
}

#[test]
fn binary_codec_round_trips_a_real_traced_run() {
    let (_, events) = traced_resilient_run(13);
    let bin = write_bin(&events, None);
    assert!(is_binary_stream(&bin));
    let parsed = parse_bin_tolerant(&bin).unwrap();
    assert_eq!(parsed.events, events);
    assert!(parsed.torn_tail.is_none());
    assert_eq!(parsed.unknown_events, 0);
    // The compactness the codec exists for: well under the JSONL size.
    let jsonl = write_jsonl(&events, None);
    assert!(
        bin.len() * 3 < jsonl.len(),
        "binary must be under a third of the JSONL size: {} vs {}",
        bin.len(),
        jsonl.len()
    );
    // Sampling provenance survives the binary header.
    let (_, sampled, _) = traced_resilient_sampled(13, 0.01);
    let bin = write_bin(&sampled, Some((0.01, 13)));
    let parsed = parse_bin_tolerant(&bin).unwrap();
    assert_eq!(parsed.sample_rate, Some(0.01));
    assert_eq!(parsed.sample_seed, Some(13));
    assert_eq!(parsed.events, sampled);
}

#[test]
fn file_backed_sink_flushes_to_the_canonical_bytes() {
    // The checkpoint attest path flushes the sink's BufWriter; a
    // finished file must hold exactly the canonical serialization —
    // nothing trapped in the buffer, nothing extra.
    let (_, events) = traced_jf_run(19);
    let dir = std::env::temp_dir().join("ramsis_telemetry_flush");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.jsonl");
    let mut sink = JsonlSink::create(&path).unwrap();
    for e in &events {
        sink.record(e);
        sink.flush(); // mid-run checkpoint flushes must be harmless
    }
    sink.finish().unwrap();
    let got = std::fs::read_to_string(&path).unwrap();
    assert_eq!(got, write_jsonl(&events, None));
    std::fs::remove_file(&path).ok();
}
