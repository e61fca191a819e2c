//! Shared CLI argument parsing for the experiment binaries.
//!
//! Every figure/sweep binary accepts the same flag vocabulary —
//! `--routing`, `--pattern`, `--faults`/`--fault-seed`, `--seed`,
//! `--warmup`/`--measure`, `--shards`, `--topo`, plus list-valued axes like
//! `--loads` and `--fractions` — and this module is the single definition of
//! each, so a flag behaves identically everywhere it is accepted and a new
//! binary picks the vocabulary up by import instead of re-implementing it.

use spectralfly_simnet::{
    pattern, routing, FaultPlan, FaultScript, MeasurementWindows, OraclePolicy,
};

/// Parse `--name <value>` as an unsigned integer, falling back to `default`
/// when the flag is absent.
///
/// A flag without a value, or with one that is not an unsigned decimal
/// integer, is a usage error: the binary prints it on stderr and exits with
/// status 2.
pub fn arg_u64(name: &str, default: u64) -> u64 {
    match arg_str(name) {
        None => default,
        Some(v) => v
            .parse()
            .unwrap_or_else(|_| usage_error(&format!("{name}: {v:?} is not an unsigned integer"))),
    }
}

/// The raw string value of `--name <value>`, or `None` when the flag is
/// absent. A flag without a value is a usage error: the binary prints it on
/// stderr and exits with status 2.
pub fn arg_str(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    let i = args.iter().position(|a| a == name)?;
    match args.get(i + 1) {
        Some(v) => Some(v.clone()),
        None => usage_error(&format!("{name}: missing value")),
    }
}

/// Parse a comma-separated `f64` list from `--name a,b,c`, falling back to
/// `default` when the flag is absent. Every parsed value must satisfy
/// `valid` (described by `expect` in the error message).
///
/// A flag without a value, an empty list, an entry that is not a number and
/// an entry that fails validation are usage errors: the binary prints the
/// error on stderr and exits with status 2.
pub fn arg_f64_list(
    name: &str,
    default: &[f64],
    valid: impl Fn(f64) -> bool,
    expect: &str,
) -> Vec<f64> {
    let Some(list) = arg_str(name) else {
        return default.to_vec();
    };
    let values: Vec<f64> = comma_list(&list)
        .map(|s| match s.parse::<f64>() {
            Ok(v) if valid(v) => v,
            Ok(v) => usage_error(&format!("{name}: entry {v} is not {expect}")),
            Err(_) => usage_error(&format!("{name}: entry {s:?} is not a number")),
        })
        .collect();
    if values.is_empty() {
        usage_error(&format!("{name}: expected at least one value"));
    }
    values
}

/// The non-empty, trimmed entries of a comma-separated list.
fn comma_list(list: &str) -> impl Iterator<Item = &str> {
    list.split(',').map(str::trim).filter(|s| !s.is_empty())
}

/// Offered loads selected with `--loads a,b,c` (fractions of injection
/// bandwidth in `(0, 1]`), falling back to `default`.
pub fn loads_from_args(default: &[f64]) -> Vec<f64> {
    arg_f64_list("--loads", default, |l| l > 0.0 && l <= 1.0, "in (0, 1]")
}

/// Failure fractions selected with `--fractions a,b,c` (fractions of links in
/// `[0, 1]`), falling back to `default`.
pub fn fractions_from_args(default: &[f64]) -> Vec<f64> {
    arg_f64_list(
        "--fractions",
        default,
        |f| (0.0..=1.0).contains(&f),
        "in [0, 1]",
    )
}

/// The RNG seed selected on the command line (`--seed <u64>`), with a
/// per-binary default — sweeping seeds puts error bars on any figure.
pub fn seed_from_args(default: u64) -> u64 {
    arg_u64("--seed", default)
}

/// The engine shard count selected on the command line (`--shards <n>`,
/// default 1). One shard is the sequential wakeup engine; more run the
/// conservative parallel engine ([`spectralfly_simnet::ParallelSimulator`])
/// with that many worker threads — a performance knob, never a semantics knob:
/// results are identical at every value.
///
/// Zero is a usage error: the binary prints it on stderr and exits with
/// status 2.
pub fn shards_from_args() -> usize {
    let shards = arg_u64("--shards", 1) as usize;
    if shards == 0 {
        usage_error("--shards must be at least 1");
    }
    shards
}

/// Report a bad command-line value as `<binary>: <msg>` on stderr and exit
/// with status 2, before any work or output.
fn usage_error(msg: &str) -> ! {
    let arg0 = std::env::args().next().unwrap_or_default();
    let path = std::path::Path::new(&arg0);
    let bin = path.file_name().and_then(|n| n.to_str()).unwrap_or(&arg0);
    eprintln!("{bin}: {msg}");
    std::process::exit(2)
}

/// The path-oracle policy selected on the command line (`--oracle
/// auto|dense|landmark|cayley`, falling back to `default`). Like `--shards`, this is a
/// memory/performance knob, never a semantics knob: every backing answers
/// minimal-path queries identically, so results do not depend on it. `cayley`
/// is only honoured by binaries that construct algebraic topologies (the
/// translation oracle comes from the topology, e.g.
/// [`spectralfly_topology::LpsGraph::cayley_oracle`]); generic sweeps reject
/// it through [`spectralfly_simnet::SimNetwork::with_policy`].
///
/// A value that is not a policy name is a usage error: the binary prints it
/// on stderr and exits with status 2.
pub fn oracle_from_args(default: OraclePolicy) -> OraclePolicy {
    match arg_str("--oracle") {
        None => default,
        Some(s) => s
            .parse()
            .unwrap_or_else(|e| usage_error(&format!("--oracle: {e}"))),
    }
}

/// The case-insensitive topology-name filter selected with
/// `--topo <substring>`, if any.
pub fn topo_filter_from_args() -> Option<String> {
    arg_str("--topo").map(|s| s.to_lowercase())
}

/// Steady-state measurement windows selected on the command line:
/// `--measure <ns>` (required to enable them) and `--warmup <ns>` (default:
/// one quarter of the measurement span). With windows configured, the
/// offered-load sweeps report *sustained measured throughput* over the
/// window instead of drain-to-empty completion time — the paper's saturation
/// curves — via [`spectralfly_simnet::MeasurementSummary`].
pub fn measurement_from_args() -> Option<MeasurementWindows> {
    let measure_ns = arg_u64("--measure", 0);
    if measure_ns == 0 {
        return None;
    }
    let warmup_ns = arg_u64("--warmup", measure_ns / 4);
    Some(MeasurementWindows::new(warmup_ns * 1000, measure_ns * 1000))
}

/// Routing algorithms selected on the command line: `--routing a,b,c` (registry
/// names, validated against [`spectralfly_simnet::routing`]) with a fallback when
/// the flag is absent. `--routing all` selects every registered algorithm.
///
/// A missing value, an empty list and a name that is not in the routing
/// registry are usage errors: the binary prints the error (naming the
/// registered algorithms) on stderr and exits with status 2.
pub fn routing_names_from_args(default: &[&str]) -> Vec<String> {
    let requested: Vec<String> = match arg_str("--routing") {
        Some(list) => comma_list(&list).map(str::to_string).collect(),
        None => default.iter().map(|s| s.to_string()).collect(),
    };
    registry_names(
        "--routing",
        "routing algorithm",
        requested,
        routing::registered_names(),
        routing::is_registered,
    )
}

/// Validate names requested through `flag` against a registry: `all`
/// selects every `registered` name; an empty request or a name `known`
/// rejects is a usage error.
fn registry_names(
    flag: &str,
    what: &str,
    requested: Vec<String>,
    registered: Vec<String>,
    known: impl Fn(&str) -> bool,
) -> Vec<String> {
    let list = registered.join(", ");
    if requested.is_empty() {
        usage_error(&format!(
            "{flag}: expected at least one {what}; registered: {list}"
        ));
    }
    if requested.iter().any(|r| r == "all") {
        return registered;
    }
    if let Some(name) = requested.iter().find(|r| !known(r)) {
        usage_error(&format!(
            "{flag}: unknown {what} {name:?}; registered: {list}"
        ));
    }
    requested
}

/// Split a comma-separated pattern list at **top-level** commas only, so
/// multi-argument specs survive intact:
/// `"hotspot(8,0.2),adversarial"` → `["hotspot(8,0.2)", "adversarial"]`.
pub fn split_pattern_list(list: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, c) in list.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                out.push(list[start..i].trim().to_string());
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(list[start..].trim().to_string());
    out.retain(|s| !s.is_empty());
    out
}

/// Traffic patterns selected on the command line: `--pattern a,b,c` (pattern
/// specs, validated against [`spectralfly_simnet::pattern`]) with a fallback
/// when the flag is absent. `--pattern all` selects every registered pattern.
/// Specs may carry arguments, e.g. `--pattern "hotspot(8,0.2),adversarial"` —
/// commas inside parentheses separate a spec's arguments, not specs.
///
/// A missing value, an empty list and a spec whose base name is not in the
/// pattern registry are usage errors: the binary prints the error (naming
/// the registered patterns) on stderr and exits with status 2.
pub fn pattern_names_from_args(default: &[&str]) -> Vec<String> {
    let requested: Vec<String> = match arg_str("--pattern") {
        Some(list) => split_pattern_list(&list),
        None => default.iter().map(|s| s.to_string()).collect(),
    };
    registry_names(
        "--pattern",
        "traffic pattern",
        requested,
        pattern::registered_names(),
        pattern::is_registered,
    )
}

/// The fault plan selected on the command line: `--faults <spec>` (a
/// [`FaultPlan`] spec like `links(0.1)` or `routers(4)+link(0,1)`; default
/// `none`) seeded by `--fault-seed <u64>` (default
/// [`FaultPlan::DEFAULT_SEED`]). Every simulation binary that accepts it
/// builds its networks through [`crate::SimTopology::faulted_network`], so the
/// same flag degrades every topology of a sweep with one seeded plan.
///
/// A missing or unparsable spec is a usage error: the binary prints it (the
/// message names the registered fault models) on stderr and exits with
/// status 2.
pub fn faults_from_args() -> FaultPlan {
    let args: Vec<String> = std::env::args().collect();
    let spec = match args.iter().position(|a| a == "--faults") {
        None => "none".to_string(),
        Some(i) => args
            .get(i + 1)
            .cloned()
            .unwrap_or_else(|| usage_error("--faults requires a fault-plan spec, e.g. links(0.1)")),
    };
    let plan = FaultPlan::parse(&spec).unwrap_or_else(|e| usage_error(&format!("--faults: {e}")));
    plan.with_seed(arg_u64("--fault-seed", FaultPlan::DEFAULT_SEED))
}

/// The **runtime** fault script selected on the command line:
/// `--fault-script <spec>` (a [`FaultScript`] spec like
/// `at(5us, links(0.05)) + at(20us, heal(all))` or `churn(200khz, 8us)`;
/// default `none`) seeded by `--fault-seed <u64>` (default
/// [`FaultPlan::DEFAULT_SEED`], shared with `--faults` — the two axes are
/// independent draws, so reusing the seed flag is unambiguous). Where
/// `--faults` degrades the topology *before* the run, a fault script injects
/// failure/recovery events *during* it: packets are dropped and retransmitted,
/// and routing re-converges live.
///
/// An unparsable spec is a usage error: the binary prints it (the message
/// points at the offending sub-spec) on stderr and exits with status 2.
pub fn fault_script_from_args() -> FaultScript {
    let spec = arg_str("--fault-script").unwrap_or_else(|| "none".to_string());
    let script =
        FaultScript::parse(&spec).unwrap_or_else(|e| usage_error(&format!("--fault-script: {e}")));
    script.with_seed(arg_u64("--fault-seed", FaultPlan::DEFAULT_SEED))
}
