//! Cross-version golden digests of generated policies.
//!
//! The transition-row suites compare the builder against scalar
//! references inside one build; this one pins what the whole offline
//! stage emits. Each scenario generates one `WorkerPolicy`, zeroes its
//! wall-clock `generation_seconds`, and pins the FNV-1a digest of the
//! JSON: the grid, state space, per-state actions, guarantees,
//! stationary distribution and sweep count. The scenarios cover
//! round-robin balancing at light and heavy load, the paper's 60-worker
//! setup, variable batching, shortest-queue-first balancing and an
//! over-dispersed arrival process.
//!
//! Three digests are pinned per scenario. [`GOLDEN`] covers the whole
//! JSON, sweep count included. [`GOLDEN_SOLVED`] also zeroes
//! `solve_iterations`, so it pins only what a policy *does*: a change
//! to the solver's stopping rule may move the first table, never the
//! second. [`GOLDEN_ACTIONS`] leaves `guarantees`, `stationary`,
//! `solve_iterations` and `generation_seconds` out of the JSON, so it
//! pins the configuration, grid, state space and per-state actions: a
//! change that moves float bits in the guarantees or the stationary
//! distribution but no action may move the first two tables, never the
//! third.
//!
//! The constants below must never be edited to make a run pass: a
//! mismatch means the generated policies changed. [`GOLDEN_ACTIONS`] was
//! recorded once. [`GOLDEN`] was re-recorded when Jacobi value iteration
//! moved from a sup-norm to a span-seminorm stop: that changed five sweep
//! counts and nothing else, as [`GOLDEN_SOLVED`] shows. The
//! `sqf.k16.d15.q1000` entries of [`GOLDEN`] and [`GOLDEN_SOLVED`] were
//! re-recorded when shortest-queue-first rows moved to the round-robin
//! fold at `K = 1`: its rows differ from the old three-factor product in
//! the last float bits (within 1e-15, checked in `transitions.rs`).
//! That moved its stationary probabilities by at most 1e-16, its
//! expected accuracy by 1.4e-14 percentage points and its sweep count
//! from 94 to 97, while [`GOLDEN_ACTIONS`] shows the same action in
//! every state.

use std::time::Duration;

use ramsis_core::{
    generate_policy, Balancing, Batching, Discretization, PolicyConfig, WorkerPolicy,
};
use ramsis_profiles::{ModelCatalog, ProfilerConfig, WorkerProfile};
use ramsis_stats::{ArrivalProcess, NegativeBinomialProcess, PoissonProcess};
use serde::{Serialize, Value};

/// The pinned digests of the whole policy JSON, one per scenario.
const GOLDEN: &[(&str, u64)] = &[
    ("rr.k16.d25.q200", 0x540f2d0655098c76),
    ("rr.k16.d25.q4000", 0x732fd4f96f79fc4b),
    ("rr.k60.d35.q2000", 0xc7ad07642a8035b2),
    ("variable.k16.d15.q1000", 0x727219a43d649931),
    ("sqf.k16.d15.q1000", 0x90806825a4228ea2),
    ("negbin.k16.d15.q1000", 0x9f1ceb16b9ce9472),
];

/// The pinned digests with `solve_iterations` zeroed as well: actions,
/// guarantees and stationary distribution, whatever the sweep count.
const GOLDEN_SOLVED: &[(&str, u64)] = &[
    ("rr.k16.d25.q200", 0x36109b78524b6b40),
    ("rr.k16.d25.q4000", 0x84c5b444a71202c4),
    ("rr.k60.d35.q2000", 0x25404e49434c66c2),
    ("variable.k16.d15.q1000", 0x287fdf9b8a8141ea),
    ("sqf.k16.d15.q1000", 0x349431e626d09ff6),
    ("negbin.k16.d15.q1000", 0xf22a5304e389559e),
];

/// The pinned digests of the JSON without `guarantees`, `stationary`,
/// `solve_iterations` and `generation_seconds`: what each state does.
const GOLDEN_ACTIONS: &[(&str, u64)] = &[
    ("rr.k16.d25.q200", 0xdf96524f023c2a82),
    ("rr.k16.d25.q4000", 0xdc324e955ef249dc),
    ("rr.k60.d35.q2000", 0x55f9099e787348e8),
    ("variable.k16.d15.q1000", 0x66ffea0522c85350),
    ("sqf.k16.d15.q1000", 0xf66046459143f0a9),
    ("negbin.k16.d15.q1000", 0x8601267afc334b74),
];

/// The fields [`GOLDEN_ACTIONS`] leaves out of the policy JSON.
const NOT_ACTIONS: [&str; 4] = [
    "guarantees",
    "stationary",
    "solve_iterations",
    "generation_seconds",
];

fn profile() -> WorkerProfile {
    WorkerProfile::build(
        &ModelCatalog::torchvision_image(),
        Duration::from_millis(150),
        ProfilerConfig::default(),
    )
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The policy JSON with the [`NOT_ACTIONS`] fields removed.
fn actions_json(policy: &WorkerPolicy) -> String {
    let Value::Object(mut fields) = policy.to_value() else {
        panic!("a policy serializes to a JSON object");
    };
    fields.retain(|(key, _)| !NOT_ACTIONS.contains(&key.as_str()));
    serde_json::to_string(&Value::Object(fields)).expect("a value tree serializes")
}

struct Scenario {
    name: &'static str,
    workers: usize,
    d: u32,
    batching: Batching,
    balancing: Balancing,
    process: Box<dyn ArrivalProcess>,
}

fn scenarios() -> Vec<Scenario> {
    let rr = |name, workers, d, qps| Scenario {
        name,
        workers,
        d,
        batching: Batching::Maximal,
        balancing: Balancing::RoundRobin,
        process: Box::new(PoissonProcess::per_second(qps)),
    };
    vec![
        rr("rr.k16.d25.q200", 16, 25, 200.0),
        rr("rr.k16.d25.q4000", 16, 25, 4_000.0),
        rr("rr.k60.d35.q2000", 60, 35, 2_000.0),
        Scenario {
            batching: Batching::Variable,
            ..rr("variable.k16.d15.q1000", 16, 15, 1_000.0)
        },
        Scenario {
            balancing: Balancing::ShortestQueueFirst,
            ..rr("sqf.k16.d15.q1000", 16, 15, 1_000.0)
        },
        Scenario {
            process: Box::new(NegativeBinomialProcess::new(1_000.0, 3.0)),
            ..rr("negbin.k16.d15.q1000", 16, 15, 1_000.0)
        },
    ]
}

/// Asserts `computed` equals `golden` scenario by scenario, printing
/// the computed table on a mismatch.
fn assert_digests(what: &str, computed: &[(&str, u64)], golden: &[(&str, u64)]) {
    let table: String = computed
        .iter()
        .map(|(n, d)| format!("    (\"{n}\", {d:#018x}),\n"))
        .collect();
    assert_eq!(
        computed.len(),
        golden.len(),
        "{what}: scenario set changed; computed:\n{table}"
    );
    for ((name, got), (want_name, want)) in computed.iter().zip(golden) {
        assert_eq!(
            name, want_name,
            "{what}: scenario order changed; computed:\n{table}"
        );
        assert_eq!(
            got, want,
            "{what}: {name}: digest {got:#018x} != pinned {want:#018x}; computed:\n{table}"
        );
    }
}

#[test]
fn generated_policies_match_pinned_digests() {
    let profile = profile();
    let mut whole = Vec::new();
    let mut solved = Vec::new();
    let mut acting = Vec::new();
    for s in scenarios() {
        let config = PolicyConfig::builder(Duration::from_millis(150))
            .workers(s.workers)
            .discretization(Discretization::fixed_length(s.d))
            .batching(s.batching)
            .balancing(s.balancing)
            .build();
        let mut policy = generate_policy(&profile, s.process.as_ref(), &config)
            .unwrap_or_else(|e| panic!("{}: {e}", s.name));
        acting.push((s.name, fnv1a(actions_json(&policy).as_bytes())));
        policy.generation_seconds = 0.0;
        whole.push((s.name, fnv1a(policy.to_json().as_bytes())));
        policy.solve_iterations = 0;
        solved.push((s.name, fnv1a(policy.to_json().as_bytes())));
    }
    // The narrowest table first: if it moves, the actions did.
    assert_digests("actions", &acting, GOLDEN_ACTIONS);
    assert_digests("sweep count zeroed", &solved, GOLDEN_SOLVED);
    assert_digests("whole policy", &whole, GOLDEN);
}
