//! The repository benchmark: one workload per process, repeated for a fixed
//! host-time budget, timed end to end and (in a traced run) layer by layer
//! from outside the simulator, with the outputs checked on every repetition.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload lps-finite-ugal --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer ones;
//! `perfbench/README.md` defines each. A failed output check prints
//! `"correct": false` and exits with status 1.

mod trace;
mod workloads;

use spectralfly_exp::{fnv64_str, json_str, Provenance};
use spectralfly_simnet::{EngineCounters, FaultStats};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use workloads::{Kind, Rep, Scale};

/// Repetitions a run makes however short `--seconds` is; in a traced run,
/// this many of each kind (traced and untraced).
const MIN_REPS: usize = 3;
/// Routing decisions timed once at the end of a traced run.
const HARNESS_DECISIONS: u64 = 2_000_000;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
}

const USAGE: &str =
    "usage: perfbench --workload <lps-finite-ugal|lps-tenants-churn|lps-large-cayley> \
                     --seed <n> --seconds <s> --trace <0|1> [--scale full|tiny]";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut scale = Scale::Full;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                kind =
                    Some(Kind::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?)
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .map_err(|e| format!("--seed {value:?}: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            "--scale" => {
                scale = match value {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => return Err(format!("--scale takes full or tiny, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        scale,
    })
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest nearest-rank percentile with at least ten samples above it,
/// as `(percentile, value)`; `None` below eleven samples.
fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let k = n.checked_sub(11)?;
    Some(((k + 1) as f64 * 100.0 / n as f64, v[k]))
}

/// Packets the engine delivered over the whole run (engine totals when a
/// fault script keeps them, the run's delivered count otherwise).
fn delivered(rep: &Rep) -> u64 {
    if rep.res.faults.injected > 0 {
        rep.res.faults.delivered
    } else {
        rep.res.delivered_packets
    }
}

/// Output checks on one repetition; each failure is one message.
fn check(rep: &Rep) -> Vec<String> {
    let mut bad = Vec::new();
    let delivered = delivered(rep);
    let failed = rep.res.faults.failed;
    // injected == delivered + failed + in_flight, with in_flight >= 0, and
    // in_flight == 0 once a finite run has drained.
    match (delivered + failed).cmp(&rep.injected) {
        std::cmp::Ordering::Greater => bad.push(format!(
            "conservation: delivered {delivered} + failed {failed} > injected {}",
            rep.injected
        )),
        std::cmp::Ordering::Less if rep.finite_messages.is_some() => bad.push(format!(
            "conservation: {} packets still in flight after a finite drain",
            rep.injected - delivered - failed
        )),
        _ => {}
    }
    if let Some(messages) = rep.finite_messages {
        if rep.res.delivered_messages != messages {
            bad.push(format!(
                "finite drain delivered {} of {messages} messages",
                rep.res.delivered_messages
            ));
        }
    }
    for t in &rep.res.tenants {
        if let Some(c) = &t.collective {
            if !c.completed || c.ranks_completed != t.ranks {
                bad.push(format!(
                    "collective {}: {} of {} ranks completed, {} of {} messages delivered",
                    t.name, c.ranks_completed, t.ranks, c.delivered_messages, c.total_messages
                ));
            }
        }
    }
    if let Some((lambda2, k)) = rep.spectral {
        if lambda2.is_nan() || lambda2 >= k as f64 {
            bad.push(format!(
                "spectral gap not positive: lambda2 {lambda2} >= k {k}"
            ));
        }
    }
    bad
}

/// One metric of the final report.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    /// Per-repetition samples behind a median, for the tail report.
    samples: Vec<f64>,
}

impl Metric {
    fn of_samples(name: &'static str, unit: &'static str, samples: Vec<f64>) -> Metric {
        Metric {
            name,
            unit,
            value: median(&samples),
            samples,
        }
    }

    fn single(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            samples: Vec::new(),
        }
    }
}

/// Sum of the durations of the spans named `name` in `spans`.
fn span_seconds(spans: &[trace::Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold(0.0, |acc, s| acc + s.seconds())
}

/// Per-repetition numbers kept after the repetition's inputs are dropped.
struct Sample {
    wall_s: f64,
    setup_s: f64,
    run_s: f64,
    delivered: u64,
    injected: u64,
    /// Delivered packets inside the measurement window (all of them without
    /// one): the run-level latency log holds one entry per packet.
    measured_packets: u64,
    engine: EngineCounters,
    faults: FaultStats,
    basis_mib: f64,
    /// Index of this repetition's root span, in a traced repetition.
    root_span: Option<usize>,
    /// Sequential rerun host seconds, for a traced parallel repetition.
    sequential_s: Option<f64>,
}

impl Sample {
    fn of(rep: &Rep, root_span: Option<usize>, sequential_s: Option<f64>) -> Sample {
        Sample {
            wall_s: rep.wall_s,
            setup_s: rep.setup_s,
            run_s: rep.run_s,
            delivered: delivered(rep),
            injected: rep.injected,
            measured_packets: rep.res.delivered_packets,
            engine: rep.res.engine,
            faults: rep.res.faults,
            basis_mib: rep.basis_mib,
            root_span,
            sequential_s,
        }
    }

    fn ns_per_packet(&self) -> f64 {
        self.run_s * 1e9 / self.delivered.max(1) as f64
    }
}

fn end_to_end(samples: &[Sample], ok: bool) -> Vec<Metric> {
    let failed: u64 = samples.iter().map(|s| s.faults.failed).sum();
    let injected: u64 = samples.iter().map(|s| s.injected).sum();
    let unfailed = if ok {
        1.0 - failed as f64 / injected.max(1) as f64
    } else {
        0.0
    };
    vec![
        Metric::of_samples("wall_s", "s", samples.iter().map(|s| s.wall_s).collect()),
        Metric::of_samples("setup_s", "s", samples.iter().map(|s| s.setup_s).collect()),
        Metric::of_samples(
            "ns_per_packet",
            "ns",
            samples.iter().map(Sample::ns_per_packet).collect(),
        ),
        Metric::single("peak_rss_mib", "MiB", peak_rss_mib().unwrap_or(0.0)),
        Metric::single("unfailed_share", "share", unfailed),
    ]
}

fn per_layer(
    traced: &[Sample],
    untraced: &[Sample],
    spans: &[trace::Span],
    ns_per_decision: f64,
) -> Vec<Metric> {
    // Spans of each traced repetition: the root and its descendants.
    let rep_spans = |s: &Sample| -> Vec<trace::Span> {
        let root = s.root_span.expect("traced repetitions have a root span");
        let end = spans[root].end_s;
        spans[root + 1..]
            .iter()
            .take_while(|sp| sp.start_s < end)
            .cloned()
            .collect()
    };
    let layer = |name: &'static str, span: &str| {
        Metric::of_samples(
            name,
            "s",
            traced
                .iter()
                .map(|s| span_seconds(&rep_spans(s), span))
                .collect(),
        )
    };
    let count = |name: &'static str, unit: &'static str, f: &dyn Fn(&Sample) -> f64| {
        Metric::of_samples(name, unit, traced.iter().map(f).collect())
    };
    let mib = |bytes: f64| bytes / (1u64 << 20) as f64;
    let run_s = median(&traced.iter().map(|s| s.run_s).collect::<Vec<_>>());
    let vs_sequential = {
        let seq: Vec<f64> = traced.iter().filter_map(|s| s.sequential_s).collect();
        if seq.is_empty() {
            0.0
        } else {
            run_s / median(&seq)
        }
    };
    let traced_wall = median(&traced.iter().map(|s| s.wall_s).collect::<Vec<_>>());
    let untraced_wall = median(&untraced.iter().map(|s| s.wall_s).collect::<Vec<_>>());
    vec![
        layer("topology.build_s", "topology.build"),
        layer("simnet.network.build_s", "simnet.network.build"),
        layer("graph.cayley_oracle_s", "graph.cayley_oracle"),
        layer("graph.partition_s", "graph.partition"),
        layer("graph.spectral_s", "graph.spectral"),
        count("graph.spectral.basis_mib", "MiB", &|s| s.basis_mib),
        layer("simnet.workload.gen_s", "simnet.workload.gen"),
        layer("simnet.engine.run_s", "simnet.engine.run"),
        count("simnet.engine.ns_per_event", "ns", &|s| {
            s.run_s * 1e9 / s.engine.events.max(1) as f64
        }),
        count("simnet.engine.events_per_packet", "events/packet", &|s| {
            s.engine.events as f64 / s.delivered.max(1) as f64
        }),
        count("simnet.engine.blocked_parks", "count", &|s| {
            s.engine.blocked_parks as f64
        }),
        count("simnet.engine.wakeups", "count", &|s| {
            s.engine.wakeups as f64
        }),
        count("simnet.engine.arena_slots", "count", &|s| {
            s.engine.arena_slots as f64
        }),
        Metric::single("simnet.routing.ns_per_decision", "ns", ns_per_decision),
        count("simnet.stats.latency_log_mib", "MiB", &|s| {
            mib(8.0 * s.measured_packets as f64)
        }),
        count("simnet.fault.retransmits", "count", &|s| {
            s.faults.retransmits as f64
        }),
        count("simnet.fault.drops", "count", &|s| {
            s.faults.dropped_total() as f64
        }),
        Metric::single("simnet.parallel.vs_sequential", "ratio", vs_sequential),
        count("trace.span_coverage", "share", &|s| {
            let root = &spans[s.root_span.expect("traced")];
            let covered: f64 = spans
                .iter()
                .filter(|sp| sp.parent == s.root_span)
                .map(trace::Span::seconds)
                .sum();
            covered / root.seconds()
        }),
        Metric::single(
            "trace.overhead_share",
            "share",
            traced_wall / untraced_wall - 1.0,
        ),
    ]
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let kind = args.kind;
    let description = kind.describe(args.scale);
    // Keep git's repository search inside the directory the benchmark runs in.
    if let Some(parent) = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.to_path_buf()))
    {
        std::env::set_var("GIT_CEILING_DIRECTORIES", parent);
    }
    let stamp = Provenance::collect(
        &format!(
            "{:016x}",
            fnv64_str(&format!("{}: {description}", kind.name()))
        ),
        args.seed,
    );
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("workload {}: {description}", kind.name());
    println!(
        "host: nproc {nproc}, {}, git {}{}, {}",
        stamp.rustc,
        stamp.git_rev,
        if stamp.git_dirty { " (dirty)" } else { "" },
        stamp.host
    );
    println!("provenance {}", stamp.to_json());

    let mut tr = Tracer::new(args.trace);
    let mut traced: Vec<Sample> = Vec::new();
    let mut untraced: Vec<Sample> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let mut digest: Option<String> = None;
    let mut last: Option<Rep> = None;
    let start = Instant::now();
    loop {
        // A traced run alternates untraced and traced repetitions, so the
        // tracing overhead is measured under the same host conditions.
        let tracing = args.trace && untraced.len() > traced.len();
        let (rep, root) = if tracing {
            let root = tr.mark();
            let rep = tr.span("workload", |tr| {
                workloads::run(kind, args.scale, args.seed, tr)
            });
            (rep, Some(root))
        } else {
            let mut off = Tracer::new(false);
            (workloads::run(kind, args.scale, args.seed, &mut off), None)
        };
        for f in check(&rep) {
            failures.push(format!("rep {}: {f}", traced.len() + untraced.len()));
        }
        let d = rep.digest();
        match &digest {
            None => digest = Some(d),
            Some(first) if *first != d => failures.push(format!(
                "rep {}: results digest {d} differs from the first repetition's {first}",
                traced.len() + untraced.len()
            )),
            Some(_) => {}
        }
        let sequential_s = (tracing && rep.cfg.shards > 1).then(|| {
            let (secs, res) = rep.time_sequential();
            if res.faults.delivered + res.faults.failed > res.faults.injected {
                failures.push("sequential rerun: conservation violated".to_string());
            }
            secs
        });
        let sample = Sample::of(&rep, root, sequential_s);
        println!(
            "rep {:>3}{}: wall {:.4} s, setup {:.4} s, run {:.4} s, {} packets delivered, {} events",
            traced.len() + untraced.len(),
            if tracing { " (traced)" } else { "" },
            sample.wall_s,
            sample.setup_s,
            sample.run_s,
            sample.delivered,
            sample.engine.events,
        );
        if tracing {
            traced.push(sample);
            last = Some(rep);
        } else {
            untraced.push(sample);
        }
        let done_reps = if args.trace {
            traced.len().min(untraced.len())
        } else {
            untraced.len()
        };
        if done_reps >= MIN_REPS && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }

    let ok = failures.is_empty();
    let metrics = if args.trace {
        let rep = last.as_ref().expect("a traced run has traced repetitions");
        let decisions = match args.scale {
            Scale::Full => HARNESS_DECISIONS,
            Scale::Tiny => HARNESS_DECISIONS / 100,
        };
        let ns = rep.ns_per_decision(decisions);
        for s in tr.spans() {
            println!(
                "span {:<24} start {:>10.6} s  end {:>10.6} s  parent {}",
                s.name,
                s.start_s,
                s.end_s,
                s.parent.map_or("-".to_string(), |p| p.to_string())
            );
        }
        per_layer(&traced, &untraced, tr.spans(), ns)
    } else {
        end_to_end(&untraced, ok)
    };
    drop(last);

    if let Some(d) = &digest {
        println!("results digest {d}");
    }
    for m in &metrics {
        let tail = match tail(&m.samples) {
            Some((pct, v)) => format!("p{pct:.0} {v:.6}"),
            None => "no percentile with 10 samples above it".to_string(),
        };
        if m.samples.is_empty() {
            println!("metric {:<34} {:>14.6} {}", m.name, m.value, m.unit);
        } else {
            println!(
                "metric {:<34} {:>14.6} {} (median of {}; {tail})",
                m.name,
                m.value,
                m.unit,
                m.samples.len()
            );
        }
    }
    for f in &failures {
        println!("CHECK FAILED {f}");
    }

    let samples = if args.trace { &traced } else { &untraced };
    let attempted: u64 = samples.iter().map(|s| s.injected).sum();
    let failed: u64 = samples.iter().map(|s| s.faults.failed).sum();
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_number(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {ok}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
