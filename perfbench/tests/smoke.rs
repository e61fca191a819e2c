//! Smoke test of the benchmark itself: every workload named in
//! `BENCHMARK.json`, at tiny scale, passes its output checks and prints
//! exactly the metrics `BENCHMARK.json` names, each with its unit — the
//! end-to-end ones untraced, the per-layer ones traced.
//!
//! Run with `cargo test --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

/// The text between `"key": [` and its closing bracket in `json`.
fn section<'a>(json: &'a str, key: &str) -> &'a str {
    let open = format!("\"{key}\": [");
    let start = json
        .find(&open)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        + open.len();
    let len = json[start..]
        .find(']')
        .unwrap_or_else(|| panic!("unterminated {key} list"));
    &json[start..start + len]
}

/// Every string value of `"field": "…"` in `text`, in order.
fn strings(text: &str, field: &str) -> Vec<String> {
    let pat = format!("\"{field}\": \"");
    text.match_indices(&pat)
        .map(|(i, _)| {
            let rest = &text[i + pat.len()..];
            rest[..rest.find('"').expect("terminated string")].to_string()
        })
        .collect()
}

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Run one tiny workload and return the last line of its standard output.
fn run_tiny(workload: &str, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_spectralfly-perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.01"])
        .args(["--trace", &trace.to_string(), "--scale", "tiny"])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
        .lines()
        .last()
        .expect("the benchmark prints a result")
        .to_string()
}

fn assert_metrics(result: &str, specs: &str, what: &str) {
    assert!(
        result.starts_with("{\"correct\": true, \"attempted\": "),
        "{what}: {result}"
    );
    let names = strings(specs, "name");
    let units = strings(specs, "unit");
    assert_eq!(names.len(), units.len());
    for (name, unit) in names.iter().zip(&units) {
        let key = format!("\"{name}\": {{\"value\": ");
        let at = result
            .find(&key)
            .unwrap_or_else(|| panic!("{what}: metric {name} missing from {result}"));
        let rest = &result[at + key.len()..];
        let unit_at = rest.find(", \"unit\": ").expect("every metric has a unit");
        let value: f64 = rest[..unit_at]
            .parse()
            .unwrap_or_else(|e| panic!("{what}: {name} value: {e}"));
        assert!(value.is_finite(), "{what}: {name} = {value}");
        assert!(
            rest[unit_at..].starts_with(&format!(", \"unit\": \"{unit}\"}}")),
            "{what}: {name} should be in {unit}: {result}"
        );
    }
    assert_eq!(
        result.matches("\"value\": ").count(),
        names.len(),
        "{what}: exactly the named metrics: {result}"
    );
}

#[test]
fn every_workload_reports_every_named_metric_and_passes_its_checks() {
    let json = benchmark_json();
    let workloads = strings(section(&json, "workloads"), "name");
    assert!(workloads.len() >= 2, "{workloads:?}");
    for w in &workloads {
        assert_metrics(&run_tiny(w, 0), section(&json, "end_to_end"), w);
        assert_metrics(&run_tiny(w, 1), section(&json, "per_layer"), w);
    }
}

#[test]
fn an_unknown_workload_is_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_spectralfly-perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
