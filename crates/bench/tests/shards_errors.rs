//! A zero `--shards` is reported, not panicked on: the figure binaries print
//! a one-line error on stderr and exit with status 2 before doing any work.

use std::process::Command;

#[test]
fn zero_shards_exits_2_with_a_usage_error() {
    let output = Command::new(env!("CARGO_BIN_EXE_fig6_microbench_ugal"))
        .args(["--shards", "0"])
        .output()
        .expect("spawn fig6_microbench_ugal");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("fig6_microbench_ugal: --shards must be at least 1"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(output.stdout.is_empty(), "no table on a usage error");
}
