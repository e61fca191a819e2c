//! Bad flag values are reported, not panicked on: a binary prints
//! `<bin>: <flag>: <why>` on stderr and exits with status 2 before doing any
//! work. `--shards` and `--oracle` have their own batteries
//! (`shards_errors.rs`, `million_node_errors.rs`); this one covers the fault
//! flags, registry names (`--routing`, `--pattern`), list entries (`--loads`)
//! and malformed integers.

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

#[test]
fn unknown_routing_name_exits_2_with_a_usage_error() {
    let output = fig6(&["--routing", "nope"]);
    assert_usage_error(
        &output,
        "fig6_microbench_ugal: --routing: unknown routing algorithm \"nope\"; registered: ",
    );
}

#[test]
fn unknown_pattern_name_exits_2_with_a_usage_error() {
    let output = fig6(&["--pattern", "nope"]);
    assert_usage_error(
        &output,
        "fig6_microbench_ugal: --pattern: unknown traffic pattern \"nope\"; registered: ",
    );
}

#[test]
fn out_of_range_load_exits_2_with_a_usage_error() {
    let output = Command::new(env!("CARGO_BIN_EXE_pattern_sweep"))
        .args(["--loads", "1.5"])
        .output()
        .expect("spawn pattern_sweep");
    assert_usage_error(
        &output,
        "pattern_sweep: --loads: entry 1.5 is not in (0, 1]",
    );
}

/// A malformed integer is reported, never replaced by the default: `--shards
/// two` must not run the sequential engine, nor `--seed 0x10` the binary's
/// own seed.
#[test]
fn malformed_integer_flags_exit_2_with_a_usage_error() {
    let tenant_sweep = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_tenant_sweep"))
            .arg("--smoke")
            .args(args)
            .output()
            .expect("spawn tenant_sweep")
    };
    for (flag, value) in [("--shards", "two"), ("--seed", "0x10")] {
        let output = tenant_sweep(&[flag, value]);
        let expect = format!("tenant_sweep: {flag}: \"{value}\" is not an unsigned integer");
        assert_usage_error(&output, &expect);
    }
    let output = tenant_sweep(&["--measure"]);
    assert_usage_error(&output, "tenant_sweep: --measure: missing value");
}
