//! End-to-end CLI pipeline: gen → ms-gen → sim × 3 methods → plot,
//! exercising the artifact's §A.4.2 workflow against a temp directory,
//! plus the profiles export/import round trip.

use std::path::PathBuf;

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ramsis_cli_test_{tag}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn run(words: &[&str]) -> i32 {
    let args: Vec<String> = words.iter().map(|s| s.to_string()).collect();
    ramsis_cli::run(&args)
}

#[test]
fn artifact_workflow_end_to_end() {
    let dir = tempdir("workflow");
    let out = dir.to_str().unwrap();
    // Keep everything tiny: text task, 4 workers, D=8, short profiling.
    let common = [
        "--task", "text", "--SLO", "100", "--worker", "4", "--out", out,
    ];

    // gen (one load).
    let mut gen_args = vec!["gen", "--load", "150", "--d", "8"];
    gen_args.extend_from_slice(&common);
    assert_eq!(run(&gen_args), 0);
    assert!(dir.join("policy_gen/RAMSIS_4_100/150.json").exists());

    // ms-gen (coarse sweep, short duration).
    let mut ms_args = vec!["ms-gen", "--step", "3600", "--duration", "2"];
    ms_args.extend_from_slice(&common);
    assert_eq!(run(&ms_args), 0);
    assert!(dir.join("policy_gen/MS_4_100/table.json").exists());

    // sim for each method on a short constant trace.
    for method in ["RAMSIS", "JF", "MS"] {
        let mut sim_args = vec![
            "sim",
            "--m",
            method,
            "--trace",
            "constant",
            "--load",
            "150",
            "--duration",
            "3",
        ];
        sim_args.extend_from_slice(&common);
        assert_eq!(run(&sim_args), 0, "sim {method} failed");
        assert!(
            dir.join(format!("results/text_{method}_constant_100_4_150.json"))
                .exists(),
            "{method} result missing"
        );
    }

    // plot over the collected results.
    let mut plot_args = vec!["plot", "--trace", "constant"];
    plot_args.extend_from_slice(&common);
    assert_eq!(run(&plot_args), 0);

    // inspect the generated policy.
    let policy = dir.join("policy_gen/RAMSIS_4_100/150.json");
    let mut inspect_args = vec![
        "inspect",
        "--policy",
        policy.to_str().unwrap(),
        "--states",
        "3",
    ];
    inspect_args.extend_from_slice(&common);
    assert_eq!(run(&inspect_args), 0);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_generate_and_inspect() {
    let dir = tempdir("trace");
    let out = dir.to_str().unwrap();
    assert_eq!(run(&["trace", "--kind", "twitter", "--out", out]), 0);
    let path = dir.join("twitter_trace.txt");
    assert!(path.exists());
    assert_eq!(run(&["trace", "--file", path.to_str().unwrap()]), 0);
    // Constant trace generation requires a load.
    assert_ne!(run(&["trace", "--kind", "constant", "--out", out]), 0);
    assert_eq!(
        run(&[
            "trace",
            "--kind",
            "constant",
            "--load",
            "500",
            "--duration",
            "60",
            "--out",
            out
        ]),
        0
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn profiles_export_import_round_trip() {
    let dir = tempdir("profiles");
    let pdir = dir.join("measured");
    assert_eq!(
        run(&[
            "profiles",
            "--export",
            pdir.to_str().unwrap(),
            "--task",
            "text",
            "--invocations",
            "20",
        ]),
        0
    );
    assert!(pdir.join("profiles/bert_tiny/1.json").exists());
    assert_eq!(
        run(&[
            "profiles",
            "--import",
            pdir.to_str().unwrap(),
            "--task",
            "text",
            "--SLO",
            "200",
        ]),
        0
    );
    // Both flags at once is an error.
    assert_ne!(
        run(&["profiles", "--export", "/tmp/x", "--import", "/tmp/y"]),
        0
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn telemetry_exit_codes_and_quiet_flag() {
    let dir = tempdir("telemetry_exit");

    // A sound micro-trace: one arrival, one on-time completion.
    let good = dir.join("good.jsonl");
    std::fs::write(
        &good,
        concat!(
            "{\"Arrival\":{\"at\":0,\"query\":0,\"deadline\":100000000}}\n",
            "{\"Complete\":{\"at\":50,\"query\":0,\"worker\":0,\"model\":0,",
            "\"response_ns\":50,\"violated\":false}}\n",
        ),
    )
    .unwrap();
    // An anomalous trace: a completion for a query that never arrived.
    let bad = dir.join("bad.jsonl");
    std::fs::write(
        &bad,
        concat!(
            "{\"Complete\":{\"at\":50,\"query\":7,\"worker\":0,\"model\":0,",
            "\"response_ns\":50,\"violated\":false}}\n",
        ),
    )
    .unwrap();

    let good = good.to_str().unwrap();
    let bad = bad.to_str().unwrap();
    assert_eq!(run(&["telemetry", good]), 0);
    assert_eq!(run(&["telemetry", good, "--json"]), 0);
    assert_eq!(run(&["telemetry", good, "--quiet"]), 0);
    assert_eq!(run(&["telemetry", bad]), 1, "violated trace must exit 1");
    assert_eq!(run(&["telemetry", bad, "--quiet"]), 1);
    assert_eq!(run(&["telemetry", bad, "--json"]), 1);

    // --quiet prints nothing on a clean trace, only the violation line
    // on a broken one (checked out-of-process to capture stdout).
    let exe = env!("CARGO_BIN_EXE_ramsis-cli");
    let out = std::process::Command::new(exe)
        .args(["telemetry", good, "--quiet"])
        .output()
        .expect("spawn ramsis-cli");
    assert!(out.status.success());
    assert!(
        out.stdout.is_empty(),
        "quiet mode must be silent on a clean trace, got {:?}",
        String::from_utf8_lossy(&out.stdout)
    );
    let out = std::process::Command::new(exe)
        .args(["telemetry", bad, "--quiet"])
        .output()
        .expect("spawn ramsis-cli");
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("VIOLATED"),
        "quiet violation output: {text:?}"
    );
    assert_eq!(text.lines().count(), 1, "quiet prints only the violation");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn perf_and_spans_commands() {
    let dir = tempdir("perf_spans");
    let out = dir.to_str().unwrap();

    // Produce a real event trace with the simulator, then span it.
    let trace = dir.join("trace.jsonl");
    assert_eq!(
        run(&[
            "sim",
            "--m",
            "JF",
            "--trace",
            "constant",
            "--load",
            "150",
            "--duration",
            "2",
            "--telemetry",
            trace.to_str().unwrap(),
            "--task",
            "text",
            "--SLO",
            "100",
            "--worker",
            "4",
            "--out",
            out,
        ]),
        0
    );
    let trace = trace.to_str().unwrap();
    assert_eq!(run(&["spans", trace]), 0);
    assert_eq!(run(&["spans", trace, "--top", "3", "--json"]), 0);
    assert_ne!(run(&["spans"]), 0); // missing trace path
    assert_ne!(run(&["spans", "/nonexistent/trace.jsonl"]), 0);

    // perf: pinned scenario names only.
    assert_eq!(run(&["perf", "--scenario", "constant_load", "--smoke"]), 0);
    assert_ne!(run(&["perf", "--scenario", "nope"]), 0);
    assert_ne!(run(&["perf", "--bogus-flag"]), 0);

    std::fs::remove_dir_all(&dir).ok();
}

/// Runs the CLI binary out of process, capturing its output.
fn cli(words: &[&str]) -> std::process::Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_ramsis-cli"))
        .args(words)
        .output()
        .expect("spawn ramsis-cli")
}

#[test]
fn gen_rejects_non_positive_loads() {
    let dir = tempdir("gen_bad_load");
    let out = dir.to_str().unwrap();
    for load in ["-5", "0"] {
        let o = cli(&[
            "gen", "--task", "text", "--SLO", "100", "--worker", "2", "--d", "8", "--load", load,
            "--out", out,
        ]);
        assert_eq!(o.status.code(), Some(2), "gen --load {load}");
        let err = String::from_utf8_lossy(&o.stderr);
        assert!(
            err.contains(&format!("loads must be positive, got {load}")),
            "gen --load {load}: {err}"
        );
    }
    assert!(!dir.join("policy_gen").exists(), "no policy may be written");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn why_reads_a_binary_trace_like_its_jsonl_twin() {
    let dir = tempdir("why_bin");
    let out = dir.to_str().unwrap();
    let common = [
        "--task", "text", "--SLO", "100", "--worker", "2", "--out", out,
    ];
    let mut gen_args = vec!["gen", "--load", "400", "--d", "8"];
    gen_args.extend_from_slice(&common);
    assert_eq!(run(&gen_args), 0);
    // 400 QPS on two workers runs near saturation, so some queries miss.
    let (bin, jsonl, decisions) = (dir.join("t.bin"), dir.join("t.jsonl"), dir.join("d.jsonl"));
    let (bin, jsonl, decisions) = (
        bin.to_str().unwrap(),
        jsonl.to_str().unwrap(),
        decisions.to_str().unwrap(),
    );
    let mut sim_args = vec![
        "sim",
        "--m",
        "RAMSIS",
        "--trace",
        "constant",
        "--load",
        "400",
        "--duration",
        "3",
        "--telemetry",
        bin,
        "--decisions",
        decisions,
    ];
    sim_args.extend_from_slice(&common);
    assert_eq!(run(&sim_args), 0);
    assert_eq!(run(&["telemetry", "convert", bin, jsonl, "--quiet"]), 0);

    let from_bin = cli(&["why", decisions, "--telemetry", bin, "--json"]);
    let from_jsonl = cli(&["why", decisions, "--telemetry", jsonl, "--json"]);
    assert!(
        from_bin.status.success(),
        "why on .bin: {}",
        String::from_utf8_lossy(&from_bin.stderr)
    );
    assert!(from_jsonl.status.success());
    let report = String::from_utf8_lossy(&from_bin.stdout);
    assert!(
        !report.contains("\"violations\": 0,"),
        "the run must have misses to explain: {report}"
    );
    assert_eq!(from_bin.stdout, from_jsonl.stdout);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_invocations_fail_cleanly() {
    assert_ne!(run(&[]), 0);
    assert_ne!(run(&["frobnicate"]), 0);
    assert_ne!(
        run(&["sim", "--m", "WAT", "--trace", "constant", "--load", "10"]),
        0
    );
    assert_ne!(run(&["sim", "--m", "RAMSIS", "--trace", "constant"]), 0); // no --load
    assert_ne!(run(&["inspect"]), 0); // no --policy
    assert_eq!(run(&["help"]), 0);
}
