//! Bad flag values are reported, not panicked on: a binary prints
//! `<bin>: <flag>: <why>` on stderr and exits with status 2 before doing any
//! work. `--shards` and `--oracle` have their own batteries
//! (`shards_errors.rs`, `million_node_errors.rs`); this one covers the fault
//! flags.

use std::process::{Command, Output};

fn fig6(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fig6_microbench_ugal"))
        .args(args)
        .output()
        .expect("spawn fig6_microbench_ugal")
}

fn assert_usage_error(output: &Output, expect: &str) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains(expect), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(output.stdout.is_empty(), "no table on a usage error");
}

#[test]
fn unparsable_fault_plan_exits_2_with_a_usage_error() {
    let output = fig6(&["--faults", "links("]);
    assert_usage_error(
        &output,
        "fig6_microbench_ugal: --faults: malformed fault spec \"links(\"",
    );
}

#[test]
fn missing_fault_plan_exits_2_with_a_usage_error() {
    let output = fig6(&["--faults"]);
    assert_usage_error(
        &output,
        "fig6_microbench_ugal: --faults requires a fault-plan spec",
    );
}
