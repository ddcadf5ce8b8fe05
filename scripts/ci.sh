#!/usr/bin/env bash
# The full pre-merge gate: formatting, lints as errors, rustdoc as
# errors, the whole test suite. Runs offline against the vendored
# registry stand-ins (see README "Offline builds"); no network access
# required. Each stage reports its wall-clock time.
set -euo pipefail
cd "$(dirname "$0")/.."

stage() {
    local name="$1"
    shift
    echo "=== ${name} ==="
    local start=$SECONDS
    "$@"
    echo "--- ${name}: $((SECONDS - start))s"
}

stage "cargo fmt --check" cargo fmt --all -- --check
stage "cargo clippy (warnings are errors)" \
    cargo clippy --workspace --all-targets -- -D warnings
stage "cargo doc (warnings are errors)" \
    env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet
stage "cargo test" cargo test --workspace -q
# The end-to-end benchmark is a package of its own, outside the
# workspace, so the stage above does not reach its unit tests.
stage "e2e benchmark unit tests" \
    cargo test --release --offline --manifest-path e2e_bench/Cargo.toml
# Transition identity at the paper's scale: every round-robin row at
# D=100, K ∈ {16, 60} and 200–4,000 QPS must equal the pointwise scalar
# references bit for bit, and every shortest-queue-first row must lie
# within 1e-15 of appendix §I's Eq. 4 product (about 20 s in release; too
# slow for the debug suite above, which checks the same at D ≤ 35).
stage "transition-identity" \
    cargo test --release -q -p ramsis-core --lib \
    transitions::tests::rows_match_scalar_reference_at_paper_scale -- --ignored --exact
# Policy identity at the paper's scale: span-stopped value iteration must
# pick the same action in every state as the sup-norm reference loop, for
# the 20 grid loads at K=60 (D=35, D=100) and K=16 (D=25), and for variable
# batching, SQF and negative-binomial arrivals at K=16 D=15 (about 20 s in
# release).
stage "policy-identity" \
    cargo test --release -q -p ramsis-core --test policy_identity -- --ignored
# Randomized resilience sweep: 2,000 seeded chaos runs in release, one
# thread per core (about 1 s serial, 0.5 s on 2 cores; the other chaos
# sweeps below scale the same way), invariants checked (determinism, conservation, counter agreement,
# hedge + admission bounds, scale-event and drain accounting,
# autoscaler-off bit-identity). An invariant that fails in 0.1% of runs
# still shows here.
stage "chaos sweep" cargo run --release -q -p ramsis-cli -- chaos --runs 2000
# Elastic-capacity smoke: a short diurnal day through the autoscaler
# (scale-out, warm-up, drain, scale-in all exercised), then a chaos
# subset biased toward elastic runs. The frontier comparison itself
# lives in the elastic_frontier bench and the bench test suite.
autoscale_smoke() {
    cargo run --release -q -p ramsis-cli -- autoscale --duration 15 --events 0
    cargo run --release -q -p ramsis-cli -- chaos --runs 2000 --seed 88 --max-workers 6
}
stage "autoscale-smoke" autoscale_smoke
# Perf-regression smoke, and every overhead gate in one process: the
# pinned scenario matrix + solver stage under the self-profiler, then the
# layer matrix (telemetry, decision and checkpoint layers each switched
# on alone) and the in-memory sink replay. The run asserts profiling-off,
# report, decision-count, snapshot and sampling identities and fails on
# any failed gate (decision and checkpoint cost, binary vs JSONL sink
# speed, 1%-sampling cost); --validate re-checks the written document.
perf_smoke() {
    # No RETURN trap here: one set inside a function stays installed
    # globally and re-fires on the *caller's* return, where the local
    # is gone and `set -u` aborts the whole gate.
    local out
    out="$(mktemp -d)"
    cargo run --release -q -p ramsis-bench --bin perf_baseline -- --smoke --out "${out}"
    cargo run --release -q -p ramsis-bench --bin perf_baseline -- --validate "${out}/BENCH_perf.json"
    rm -rf "${out}"
}
stage "perf-smoke" perf_smoke
# Durability smoke: 2,000 randomized chaos runs with the kill–resume
# dimension on (each scenario also runs durably, is killed at a random
# checkpoint, and must resume to a byte-identical report and telemetry
# suffix, its arrival stream fast-forwarded past the snapshot). The
# checkpoint-cost gate runs in perf-smoke.
durability_smoke() {
    cargo run --release -q -p ramsis-cli -- chaos --runs 2000 --seed 11 --kill-resume
}
stage "durability-smoke" durability_smoke
# Decision-provenance smoke: record a run's decision log, explain its
# violations (text + JSON), quantify exact regret by counterfactual
# replay (baseline replays asserted byte-identical inside the run),
# explain a torn copy of the log with a warning, and demand a loud
# failure on a missing log. The decision-cost gates run in perf-smoke.
why_smoke() {
    local out
    out="$(mktemp -d)"
    cargo run --release -q -p ramsis-cli -- gen --task image --SLO 150 --worker 2 --d 10 \
        --load 40 --out "${out}"
    cargo run --release -q -p ramsis-cli -- gen --task image --SLO 150 --worker 2 --d 10 \
        --load 80 --out "${out}"
    cargo run --release -q -p ramsis-cli -- sim --m RAMSIS --trace constant --load 80 \
        --duration 8 --task image --SLO 150 --worker 2 --out "${out}" \
        --telemetry "${out}/t.jsonl" --decisions "${out}/d.jsonl"
    cargo run --release -q -p ramsis-cli -- why "${out}/d.jsonl" \
        --telemetry "${out}/t.jsonl" --top 5
    cargo run --release -q -p ramsis-cli -- why "${out}/d.jsonl" \
        --telemetry "${out}/t.jsonl" --json > /dev/null
    cargo run --release -q -p ramsis-cli -- why --counterfactual --m RAMSIS --trace constant \
        --load 80 --duration 8 --task image --SLO 150 --worker 2 --out "${out}" \
        --max-decisions 3 --alternatives 2
    # A decision log cut mid-record (a killed run) must still explain,
    # exit 0, and report the torn record: the tolerant reader the
    # decision and event logs share, end to end through the CLI.
    local warnings
    head -c -20 "${out}/d.jsonl" > "${out}/torn.jsonl"
    warnings="$(cargo run --release -q -p ramsis-cli -- why "${out}/torn.jsonl" \
        --telemetry "${out}/t.jsonl" --top 5 2>&1 > /dev/null)"
    if [[ "${warnings}" != *"decision log has a torn final record"* ]]; then
        echo "why did not report the torn decision log: ${warnings}" >&2
        return 1
    fi
    if cargo run --release -q -p ramsis-cli -- why "${out}/missing.jsonl" \
        --telemetry "${out}/t.jsonl" 2>/dev/null; then
        echo "why accepted a missing decision log" >&2
        return 1
    fi
    rm -rf "${out}"
}
stage "why-smoke" why_smoke
# Failure-detection smoke: 2,000 randomized chaos runs with the detector
# forced on every scenario (detection-bound, reinstatement, breaker,
# and health-off bit-identity invariants all checked), the canonical
# gray-failure timeline, then the detection-frontier bench in smoke
# mode (lag-within-bound + probe-cost monotonicity assertions,
# results to BENCH_health.json).
health_smoke() {
    local out
    out="$(mktemp -d)"
    cargo run --release -q -p ramsis-cli -- chaos --runs 2000 --seed 17 --health
    cargo run --release -q -p ramsis-cli -- health --duration 10 --events 0
    cargo run --release -q -p ramsis-bench --bin detection_frontier -- --smoke --out "${out}"
    rm -rf "${out}"
}
stage "health-smoke" health_smoke
# Telemetry-at-scale smoke: an end-to-end encoding round-trip through
# the CLI: record a binary sampled trace, convert binary → JSONL →
# binary, and demand the final bytes equal the original recording.
# Then the byte budget of 1% sampling end to end: a 23.8k-arrival run
# with no violations, recorded whole and at rate 0.01; the sampled
# file must be at most 3% of the full one. The sink speed and
# sampling-cost gates run in perf-smoke.
telemetry_smoke() {
    local out full sampled
    out="$(mktemp -d)"
    cargo run --release -q -p ramsis-cli -- sim --m JF --trace constant --load 100 \
        --duration 8 --task image --SLO 150 --worker 2 --out "${out}" \
        --telemetry "${out}/t.bin" --telemetry-sample 0.1
    cargo run --release -q -p ramsis-cli -- telemetry "${out}/t.bin" --quiet
    cargo run --release -q -p ramsis-cli -- telemetry convert "${out}/t.bin" \
        "${out}/t.jsonl" --quiet
    cargo run --release -q -p ramsis-cli -- telemetry convert "${out}/t.jsonl" \
        "${out}/t2.bin" --quiet
    cmp "${out}/t.bin" "${out}/t2.bin"
    cargo run --release -q -p ramsis-cli -- sim --m JF --trace constant --load 400 \
        --duration 60 --task image --SLO 150 --worker 8 --out "${out}" \
        --telemetry "${out}/full.bin"
    cargo run --release -q -p ramsis-cli -- sim --m JF --trace constant --load 400 \
        --duration 60 --task image --SLO 150 --worker 8 --out "${out}" \
        --telemetry "${out}/sampled.bin" --telemetry-sample 0.01
    cargo run --release -q -p ramsis-cli -- telemetry "${out}/sampled.bin" --quiet
    full="$(wc -c < "${out}/full.bin")"
    sampled="$(wc -c < "${out}/sampled.bin")"
    if (( sampled * 100 > full * 3 )); then
        echo "1% sample is ${sampled} of ${full} bytes, over the 3% budget" >&2
        return 1
    fi
    rm -rf "${out}"
}
stage "telemetry-smoke" telemetry_smoke
# Analysis at scale: a 2.5×10^5-arrival unsampled binary trace (400 QPS
# for 625 s on 16 workers) and its JSONL twin must analyse identically
# through the streaming reader — same `telemetry --json` and `spans
# --json` bytes from either encoding — and conserve.
analysis_scale() {
    local out
    out="$(mktemp -d)"
    cargo run --release -q -p ramsis-cli -- sim --m JF --trace constant --load 400 \
        --duration 625 --task image --SLO 150 --worker 16 --out "${out}" \
        --telemetry "${out}/a.bin" > /dev/null
    cargo run --release -q -p ramsis-cli -- telemetry convert "${out}/a.bin" \
        "${out}/a.jsonl" --quiet
    cargo run --release -q -p ramsis-cli -- telemetry "${out}/a.bin" --quiet
    local enc
    for enc in bin jsonl; do
        cargo run --release -q -p ramsis-cli -- telemetry "${out}/a.${enc}" --json \
            > "${out}/telemetry.${enc}.json"
        cargo run --release -q -p ramsis-cli -- spans "${out}/a.${enc}" --top 10 --json \
            > "${out}/spans.${enc}.json"
    done
    cmp "${out}/telemetry.bin.json" "${out}/telemetry.jsonl.json"
    cmp "${out}/spans.bin.json" "${out}/spans.jsonl.json"
    rm -rf "${out}"
}
stage "analysis-scale" analysis_scale
# Experiment-binary flag smoke: two binaries that read the shared
# experiment flags run and write their results, and a bench binary
# given a value flag with no value exits 2 (usage error), not 101 (a
# panic).
experiment_args_smoke() {
    local out code=0
    out="$(mktemp -d)"
    cargo run --release -q -p ramsis-bench --bin table1_features -- --out "${out}" > /dev/null
    if [[ ! -s "${out}/table1_features.csv" ]]; then
        echo "table1_features wrote no CSV under ${out}" >&2
        return 1
    fi
    cargo run --release -q -p ramsis-bench --bin fig3_image_profiles -- --slo 150 \
        --out "${out}" > /dev/null
    cargo run --release -q -p ramsis-bench --bin detection_frontier -- --out 2> /dev/null ||
        code=$?
    if (( code != 2 )); then
        echo "detection_frontier --out with no value exited ${code}, not 2" >&2
        return 1
    fi
    rm -rf "${out}"
}
stage "experiment-args-smoke" experiment_args_smoke

echo "ci.sh: all green"
