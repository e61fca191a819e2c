//! Bad input to `million_node` is reported, not panicked on: an unknown
//! `--oracle` value and an oracle that cannot represent the fabric both print
//! a one-line error on stderr and exit with status 2, writing no trajectory.

use std::process::Command;

fn run_smoke_with_oracle(oracle: &str) -> (Option<i32>, String, std::path::PathBuf) {
    let out = std::env::temp_dir().join(format!(
        "million_node_errors_{oracle}_{}.json",
        std::process::id()
    ));
    let output = Command::new(env!("CARGO_BIN_EXE_million_node"))
        .args(["--smoke", "--oracle", oracle, "--out"])
        .arg(&out)
        .output()
        .expect("spawn million_node");
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    (output.status.code(), stderr, out)
}

#[test]
fn unknown_oracle_exits_2_with_the_parse_error() {
    let (code, stderr, out) = run_smoke_with_oracle("bogus");
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("unknown oracle policy \"bogus\""),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!out.exists(), "no trajectory row on a setup error");
}

#[test]
fn unrepresentable_oracle_exits_2_with_the_typed_error() {
    let (code, stderr, out) = run_smoke_with_oracle("dense");
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("--oracle dense cannot represent LPS(5, 47) (103776 routers)"),
        "{stderr}"
    );
    assert!(stderr.contains("at most 65535 vertices"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!out.exists(), "no trajectory row on a setup error");
}
