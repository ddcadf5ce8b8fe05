//! The bench binaries that parse their own flags reject a value flag
//! with no value like every other command: exit 2 with a usage line,
//! never a panic.

use std::process::Command;

fn assert_missing_value(exe: &str, flag: &str) {
    let o = Command::new(exe)
        .arg(flag)
        .output()
        .expect("spawn bench binary");
    let err = String::from_utf8_lossy(&o.stderr);
    assert_eq!(o.status.code(), Some(2), "{exe} {flag}: {err}");
    assert!(
        err.contains(&format!("{flag} requires a value")),
        "{exe} {flag}: {err}"
    );
    assert!(err.contains("usage:"), "{exe} {flag}: {err}");
}

#[test]
fn detection_frontier_out_without_a_value_exits_2() {
    assert_missing_value(env!("CARGO_BIN_EXE_detection_frontier"), "--out");
}

#[test]
fn perf_baseline_validate_without_a_value_exits_2() {
    assert_missing_value(env!("CARGO_BIN_EXE_perf_baseline"), "--validate");
}
