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

    // `--seed` reads `0x…` as hex and anything else as decimal; the
    // default is 5241.
    let export_with = |name: &str, seed: Option<&str>| {
        let to = dir.join(name);
        let mut words = vec![
            "profiles",
            "--export",
            to.to_str().unwrap(),
            "--task",
            "text",
        ];
        words.extend(["--invocations", "20"]);
        if let Some(seed) = seed {
            words.extend(["--seed", seed]);
        }
        assert_eq!(run(&words), 0, "profiles {words:?}");
        std::fs::read(to.join("profiles/bert_tiny/1.json")).expect("exported samples")
    };
    assert_eq!(
        export_with("hex", Some("0x1F")),
        export_with("dec", Some("31"))
    );
    assert_ne!(
        export_with("hex10", Some("0x10")),
        export_with("dec10", Some("10"))
    );
    assert_eq!(
        std::fs::read(pdir.join("profiles/bert_tiny/1.json")).unwrap(),
        export_with("default", Some("5241"))
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

    // Every subcommand rejects an unknown flag, a malformed number and
    // a value flag with no value, each with exit 2 and the same
    // wording. Each row is (argv, expected stderr substring).
    let dir = tempdir("bad_invocations");
    let out = dir.to_str().unwrap();
    let export = dir.join("export");
    let export = export.to_str().unwrap();
    let table: &[(&[&str], &str)] = &[
        (&["gen", "--frobnicate"], "unknown flag \"--frobnicate\""),
        (&["gen", "--load", "x"], "bad --load:"),
        (&["gen", "--load"], "--load requires a value"),
        (&["ms-gen", "--frobnicate"], "unknown flag \"--frobnicate\""),
        (&["ms-gen", "--step", "x"], "bad --step:"),
        (&["ms-gen", "--step"], "--step requires a value"),
        (&["sim", "--frobnicate"], "unknown flag \"--frobnicate\""),
        (&["sim", "--seed", "x"], "bad --seed:"),
        (&["sim", "--telemetry"], "--telemetry requires a value"),
        (&["plot", "--frobnicate"], "unknown flag \"--frobnicate\""),
        (&["plot", "--SLO", "x"], "bad --SLO:"),
        (&["plot", "--trace"], "--trace requires a value"),
        (&["trace", "--frobnicate"], "unknown flag \"--frobnicate\""),
        (&["trace", "--seed", "x"], "bad --seed:"),
        (&["trace", "--kind"], "--kind requires a value"),
        (
            &["inspect", "--frobnicate"],
            "unknown flag \"--frobnicate\"",
        ),
        (&["inspect", "--worker", "x"], "bad --worker:"),
        (&["inspect", "--policy"], "--policy requires a value"),
        (
            &["profiles", "--frobnicate"],
            "unknown flag \"--frobnicate\"",
        ),
        (
            &["profiles", "--export", export, "--invocations", "x"],
            "bad --invocations:",
        ),
        (&["profiles", "--export"], "--export requires a value"),
        (
            &["robustness", "--frobnicate"],
            "unknown flag \"--frobnicate\"",
        ),
        (&["robustness", "--duration", "x"], "bad --duration:"),
        (&["robustness", "--seed"], "--seed requires a value"),
        (&["drift", "--frobnicate"], "unknown flag \"--frobnicate\""),
        (&["drift", "--peak", "x"], "bad --peak:"),
        (&["drift", "--shed"], "--shed requires a value"),
        (
            &["telemetry", "--frobnicate"],
            "unknown flag \"--frobnicate\"",
        ),
        (&["telemetry", "--window", "x"], "bad --window:"),
        (&["telemetry", "--window"], "--window requires a value"),
        (&["telemetry", "--log", "a", "b"], "unknown flag \"b\""),
        (&["telemetry", "b", "--log", "a"], "unknown flag \"b\""),
        (
            &["telemetry", "convert", "a", "b", "--frobnicate"],
            "unknown flag \"--frobnicate\"",
        ),
        (&["replay", "--frobnicate"], "unknown flag \"--frobnicate\""),
        (&["replay", "--snapshot"], "--snapshot requires a value"),
        (&["replay", "--log", "a", "b"], "unknown flag \"b\""),
        (&["perf", "--frobnicate"], "unknown flag \"--frobnicate\""),
        (&["perf", "--seed", "x"], "bad --seed:"),
        (&["perf", "--scenario"], "--scenario requires a value"),
        (&["spans", "--frobnicate"], "unknown flag \"--frobnicate\""),
        (&["spans", "--top", "x"], "bad --top:"),
        (&["spans", "--top"], "--top requires a value"),
        (&["chaos", "--frobnicate"], "unknown flag \"--frobnicate\""),
        (&["chaos", "--runs", "x"], "bad --runs:"),
        (&["chaos", "--runs"], "--runs requires a value"),
        (
            &["autoscale", "--frobnicate"],
            "unknown flag \"--frobnicate\"",
        ),
        (&["autoscale", "--trough", "x"], "bad --trough:"),
        (&["autoscale", "--trough"], "--trough requires a value"),
        (&["health", "--frobnicate"], "unknown flag \"--frobnicate\""),
        (&["health", "--probe", "x"], "bad --probe:"),
        (&["health", "--probe"], "--probe requires a value"),
        (&["why", "--frobnicate"], "unknown flag \"--frobnicate\""),
        (&["why", "--top", "x"], "bad --top:"),
        (&["why", "--budget"], "--budget requires a value"),
        (
            &["why", "--counterfactual", "--frobnicate"],
            "unknown flag \"--frobnicate\"",
        ),
        (
            &["why", "--counterfactual", "--max-decisions", "x"],
            "bad --max-decisions:",
        ),
        (
            &["why", "--counterfactual", "--alternatives"],
            "--alternatives requires a value",
        ),
        // An SLO no model can meet is a usage error, not a panic, on
        // every command that profiles the task's models.
        (&["gen", "--SLO", "0", "--out", out], "SLO must be positive"),
        (
            &["gen", "--SLO", "10", "--out", out],
            "no model meets the SLO of 0.01s",
        ),
        (
            &["ms-gen", "--SLO", "10", "--out", out],
            "no model meets the SLO",
        ),
        (
            &["sim", "--SLO", "10", "--load", "10", "--out", out],
            "no model meets the SLO",
        ),
        (&["sim", "--SLO", "0", "--out", out], "SLO must be positive"),
        (&["robustness", "--SLO", "10"], "no model meets the SLO"),
        (&["drift", "--SLO", "10"], "no model meets the SLO"),
        (
            &["why", "--counterfactual", "--SLO", "10", "--out", out],
            "no model meets the SLO",
        ),
        (&["health", "--SLO", "0"], "SLO must be positive"),
        (&["autoscale", "--slo", "10"], "no model meets the SLO"),
    ];
    for (words, expected) in table {
        let o = cli(words);
        let err = String::from_utf8_lossy(&o.stderr);
        assert_eq!(o.status.code(), Some(2), "{words:?}: {err}");
        assert!(
            err.contains(expected),
            "{words:?}: want {expected:?}, got {err}"
        );
    }

    // Every alias parses: these invocations get past the flags and fail
    // later, on a missing artifact or a range check.
    let missing = dir.join("missing.jsonl");
    let missing = missing.to_str().unwrap();
    let aliases: &[&[&str]] = &[
        &["plot", "--SLO", "150", "--worker", "4", "--out", out],
        &["plot", "--slo", "150", "--workers", "4", "--out", out],
        &[
            "sim", "--m", "WAT", "--trace", "constant", "--load", "10", "--out", out,
        ],
        &[
            "sim", "--method", "WAT", "--trace", "constant", "--load", "10", "--out", out,
        ],
        &["telemetry", "--log", missing],
        &["replay", "--log", missing, "--snapshot", missing],
        &["autoscale", "--slo", "150", "--min", "9", "--max", "2"],
        &["health", "--slo", "100", "--workers", "2"],
    ];
    for words in aliases {
        let o = cli(words);
        let err = String::from_utf8_lossy(&o.stderr);
        assert_eq!(o.status.code(), Some(2), "{words:?}: {err}");
        assert!(
            !err.contains("unknown flag") && !err.contains("requires a value"),
            "{words:?}: {err}"
        );
    }
    assert!(
        !dir.join("export").exists(),
        "a bad flag must write nothing"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn replay_reads_a_converted_binary_log_like_its_jsonl_twin() {
    let dir = tempdir("replay_bin");
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (jsonl, bin, ckpt) = (path("t.jsonl"), path("t.bin"), path("ckpt.json"));
    let out = path("");
    let sim = [
        "sim",
        "--m",
        "JF",
        "--trace",
        "constant",
        "--load",
        "100",
        "--duration",
        "8",
        "--task",
        "image",
        "--SLO",
        "150",
        "--worker",
        "2",
        "--out",
        &out,
        "--telemetry",
        &jsonl,
        "--checkpoint",
        &ckpt,
        "--checkpoint-every",
        "500",
    ];
    assert_eq!(run(&sim), 0);
    assert_eq!(run(&["telemetry", "convert", &jsonl, &bin, "--quiet"]), 0);
    let from_jsonl = cli(&["replay", &jsonl, "--snapshot", &ckpt]);
    let from_bin = cli(&["replay", &bin, "--snapshot", &ckpt]);
    assert!(
        from_bin.status.success(),
        "replay of the .bin: {}",
        String::from_utf8_lossy(&from_bin.stderr)
    );
    assert!(from_jsonl.status.success());
    let jsonl_report = String::from_utf8(from_jsonl.stdout).unwrap();
    assert!(
        jsonl_report.contains("snapshot and log agree"),
        "{jsonl_report}"
    );
    // The same report, the log's name aside.
    let bin_report = String::from_utf8(from_bin.stdout).unwrap();
    assert_eq!(bin_report.replace(&bin, &jsonl), jsonl_report);
    std::fs::remove_dir_all(&dir).ok();
}

/// A reader that closes the pipe early (`gen | grep -m3 load`) ends the
/// CLI quietly at its next write: no panic, no backtrace, no exit 101.
#[test]
fn a_closed_stdout_ends_the_run_without_a_panic() {
    use std::io::{BufRead, BufReader, Read};
    use std::process::{Command, Stdio};
    let dir = tempdir("closed_stdout");
    // The default 20-load grid prints two lines per policy, each pair
    // after a policy file write, so writes follow the close below.
    let mut child = Command::new(env!("CARGO_BIN_EXE_ramsis-cli"))
        .args([
            "gen",
            "--task",
            "text",
            "--SLO",
            "100",
            "--worker",
            "2",
            "--d",
            "8",
            "--out",
            dir.to_str().unwrap(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn ramsis-cli");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("read the first line");
    // The reader is dropped here: the pipe's read end is closed.
    assert!(first.starts_with("load "), "first line: {first:?}");
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    let status = child.wait().expect("wait for ramsis-cli");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert_ne!(status.code(), Some(101), "stderr: {stderr}");
    std::fs::remove_dir_all(&dir).ok();
}
