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
//! The constants below were recorded once and must never be edited: a
//! mismatch means the generated policies changed.

use std::time::Duration;

use ramsis_core::{generate_policy, Balancing, Batching, Discretization, PolicyConfig};
use ramsis_profiles::{ModelCatalog, ProfilerConfig, WorkerProfile};
use ramsis_stats::{ArrivalProcess, NegativeBinomialProcess, PoissonProcess};

/// The pinned digests, one per scenario.
const GOLDEN: &[(&str, u64)] = &[
    ("rr.k16.d25.q200", 0x9b8042acd6a6cb13),
    ("rr.k16.d25.q4000", 0x732fd4f96f79fc4b),
    ("rr.k60.d35.q2000", 0x40ef26e90cdf05e1),
    ("variable.k16.d15.q1000", 0x9832aba38946eb8d),
    ("sqf.k16.d15.q1000", 0x04474a8f4106cc1f),
    ("negbin.k16.d15.q1000", 0xfb5c52429911b914),
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

#[test]
fn generated_policies_match_pinned_digests() {
    let profile = profile();
    let computed: Vec<(&str, u64)> = scenarios()
        .iter()
        .map(|s| {
            let config = PolicyConfig::builder(Duration::from_millis(150))
                .workers(s.workers)
                .discretization(Discretization::fixed_length(s.d))
                .batching(s.batching)
                .balancing(s.balancing)
                .build();
            let mut policy = generate_policy(&profile, s.process.as_ref(), &config)
                .unwrap_or_else(|e| panic!("{}: {e}", s.name));
            policy.generation_seconds = 0.0;
            (s.name, fnv1a(policy.to_json().as_bytes()))
        })
        .collect();
    let table: String = computed
        .iter()
        .map(|(n, d)| format!("    (\"{n}\", {d:#018x}),\n"))
        .collect();
    assert_eq!(
        computed.len(),
        GOLDEN.len(),
        "scenario set changed; computed:\n{table}"
    );
    for ((name, got), (want_name, want)) in computed.iter().zip(GOLDEN) {
        assert_eq!(
            name, want_name,
            "scenario order changed; computed:\n{table}"
        );
        assert_eq!(
            got, want,
            "{name}: digest {got:#018x} != pinned {want:#018x}; computed:\n{table}"
        );
    }
}
