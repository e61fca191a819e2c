//! Golden lock: `jobs = None` is the identity.
//!
//! The acceptance bar for the jobs subsystem is that job-less simulation is
//! **bit-identical** to the pre-jobs engine. The digests below were recorded
//! when the jobs subsystem landed, from code paths the subsystem does not
//! touch when `SimConfig::jobs` is `None` — so they pin the pre-jobs engines'
//! exact results across finite, offered-load, steady-state (template and
//! pattern destinations), and faulted runs. Any future change that perturbs a
//! legacy path — a tag check reordering RNG draws, a tenant-stats hook firing
//! for untagged traffic — drifts a digest here before it ever reaches the
//! recorded manifest baselines.
//!
//! Each engine is pinned separately: the sequential wakeup engine and the
//! sharded credit-model engine legitimately schedule congested runs
//! differently (see `pdes_equivalence.rs`), so "identical to the pre-jobs
//! engine" means identical to *itself* before the jobs subsystem, per engine.

use spectralfly_exp::digest_results;
use spectralfly_graph::CsrGraph;
use spectralfly_simnet::{
    try_simulate, FaultPlan, MeasurementWindows, SimConfig, SimNetwork, SimResults, Workload,
};

fn chordal_ring(n: usize, chords: &[(u32, u32)]) -> CsrGraph {
    let mut e: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect();
    e.extend_from_slice(chords);
    CsrGraph::from_edges(n, &e)
}

/// Digest one engine's result, asserting the job-less invariants first.
fn digest(label: &str, r: &SimResults) -> String {
    assert!(r.tenants.is_empty(), "{label}: job-less run grew tenants");
    digest_results(r)
}

/// Scenario battery × per-engine golden digests
/// `(scenario, sequential, parallel-2-shard)`. Recorded by this test itself
/// (on drift it prints the full replacement table), pinned ever since.
const GOLDEN: &[(&str, &str, &str)] = &[
    ("finite/minimal", "1fb5ba409550d47e", "37ecdb6c9d141f78"),
    ("offered/minimal", "74fcf712d21fe735", "2e8c0e65c72b3de4"),
    ("steady/minimal", "fa042ba0c26f901b", "81a5ab6c2789f2ac"),
    ("pattern/minimal", "e2c5efd5dabdbd60", "fb09278258fdb20d"),
    ("faulted/minimal", "ddaeaa158e2566fa", "84d59827de575bca"),
    ("finite/ugal-l", "2911fcd6fb899f8f", "d148da9a0dd87596"),
    ("offered/ugal-l", "f21d40a0b12c1620", "eeaea0f67ebc4f4c"),
    ("steady/ugal-l", "e7435949dee657ab", "9893cf0d76f29e57"),
    ("pattern/ugal-l", "0f57091931bfd40e", "ef64e720c9caca18"),
    ("faulted/ugal-l", "726a00359580c98c", "67e4cd85d099d4eb"),
];

#[test]
fn jobless_runs_reproduce_pre_jobs_golden_digests() {
    let graph = chordal_ring(12, &[(0, 6), (2, 9), (4, 10)]);
    let net = SimNetwork::new(graph.clone(), 2);
    let faulted =
        SimNetwork::with_faults(graph, 2, &FaultPlan::parse("link(0,6)+link(2,9)").unwrap())
            .expect("dropping two chords leaves the ring spine connected");

    let mut actual: Vec<(String, String, String)> = Vec::new();
    let mut record = |label: String,
                      net: &SimNetwork,
                      cfg: &SimConfig,
                      run: &dyn Fn(&SimNetwork, &SimConfig) -> SimResults| {
        let seq = run(net, cfg);
        let par = run(net, &cfg.clone().with_shards(2));
        actual.push((
            label.clone(),
            digest(&format!("{label}/seq"), &seq),
            digest(&format!("{label}/par"), &par),
        ));
    };

    for routing in ["minimal", "ugal-l"] {
        let mut cfg = SimConfig::default().with_routing(routing, net.diameter() as u32);
        cfg.seed = 0x901D;
        assert!(cfg.jobs.is_none(), "default config must be job-less");
        let wl = Workload::uniform_random(net.num_endpoints(), 4, 2048, cfg.seed);

        let finite = |net: &SimNetwork, cfg: &SimConfig| -> SimResults {
            try_simulate(net, cfg, &wl, None).unwrap()
        };
        let offered = |net: &SimNetwork, cfg: &SimConfig| -> SimResults {
            try_simulate(net, cfg, &wl, Some(0.4)).unwrap()
        };

        // Finite, workload-paced.
        record(format!("finite/{routing}"), &net, &cfg, &finite);

        // Finite, offered-load.
        record(format!("offered/{routing}"), &net, &cfg, &offered);

        // Steady-state, template destinations.
        let mut scfg = cfg.clone();
        scfg.windows = Some(MeasurementWindows::new(1_000_000, 8_000_000));
        record(format!("steady/{routing}"), &net, &scfg, &offered);

        // Steady-state, live pattern destinations.
        let mut pcfg = cfg.clone();
        pcfg.windows =
            Some(MeasurementWindows::new(1_000_000, 8_000_000).with_pattern("adversarial(4)"));
        record(format!("pattern/{routing}"), &net, &pcfg, &offered);

        // Steady-state on a statically degraded network.
        let mut fcfg = cfg.clone().with_routing(routing, faulted.diameter() as u32);
        fcfg.seed = cfg.seed;
        fcfg.windows = Some(MeasurementWindows::new(1_000_000, 8_000_000));
        record(format!("faulted/{routing}"), &faulted, &fcfg, &offered);
    }

    assert_eq!(GOLDEN.len(), actual.len(), "scenario battery size drifted");
    let drifted: Vec<String> = GOLDEN
        .iter()
        .zip(&actual)
        .filter_map(|(&(id, seq, par), (aid, aseq, apar))| {
            assert_eq!(id, aid.as_str(), "scenario battery order drifted");
            (seq != aseq || par != apar)
                .then(|| format!("    (\"{aid}\", \"{aseq}\", \"{apar}\"),"))
        })
        .collect();
    assert!(
        drifted.is_empty(),
        "job-less runs drifted from the pre-jobs golden digests; if the drift \
         is intended, the new table is:\n{}",
        drifted.join("\n")
    );
}

/// Jobs-mode golden digests `(scenario, sequential, parallel-2-shard)`.
///
/// The table above pins job-*less* runs; this one pins multi-tenant runs
/// bit-exactly on both engines — tenant accounting included, since
/// [`digest_results`] folds every tenant's counters, latencies and
/// collective outcome. The battery covers the three tenant kinds the jobs
/// driver executes (a ring allreduce, an alltoall and an open-loop
/// adversarial traffic tenant) under minimal and UGAL-L routing, plus one
/// link-churn run with no retransmission budget, where terminal packet loss
/// stalls a collective chain. Recorded by this test itself (on drift it
/// prints the full replacement table).
const JOBS_GOLDEN: &[(&str, &str, &str)] = &[
    ("jobs/minimal", "9becdc71e51d310c", "70d2ccd8c4a9d731"),
    ("jobs/ugal-l", "70802edb4d57b523", "b33e074d5c88e312"),
    ("churn/minimal", "1f0637f96d1bcd97", "4c447d91e5b86767"),
];

#[test]
fn jobs_runs_reproduce_golden_digests() {
    use spectralfly_simnet::FaultScript;

    let net = SimNetwork::new(chordal_ring(12, &[(0, 6), (2, 9), (4, 10)]), 2);
    let mix = "allreduce-ring(2048) x 8 + alltoall(2048) x 8 \
               + traffic(0.6, adversarial(4), 2048) x 8";
    let wl = Workload::uniform_random(net.num_endpoints(), 1, 256, 3);
    let run = |cfg: &SimConfig| -> SimResults {
        let res = try_simulate(&net, cfg, &wl, Some(1.0)).expect("jobs run completes");
        assert_eq!(res.tenants.len(), 3, "every tenant reports");
        res
    };

    let mut actual: Vec<(String, String, String)> = Vec::new();
    let mut record = |label: String, cfg: SimConfig| -> (SimResults, SimResults) {
        let seq = run(&cfg);
        let par = run(&cfg.clone().with_shards(2));
        actual.push((label, digest_results(&seq), digest_results(&par)));
        (seq, par)
    };

    for routing in ["minimal", "ugal-l"] {
        let mut cfg = SimConfig::default()
            .with_routing(routing, net.diameter() as u32)
            .with_windows(MeasurementWindows::new(1_000_000, 8_000_000))
            .with_jobs(mix);
        cfg.seed = 0x70B5;
        let (seq, par) = record(format!("jobs/{routing}"), cfg);
        for res in [&seq, &par] {
            for t in &res.tenants[..2] {
                let out = t.collective.as_ref().expect("collective outcome");
                assert!(out.completed, "{routing}/{}: collective stalled", t.name);
            }
        }
    }

    // Link churn with no retransmission budget: every drop is terminal, so
    // some collective message is lost and its destination rank's chain stalls.
    let mut cfg = SimConfig::default()
        .with_routing("minimal", net.diameter() as u32)
        .with_windows(MeasurementWindows::new(1_000_000, 8_000_000))
        .with_jobs(mix)
        .with_fault_script(
            FaultScript::parse("churn(500khz, 4us)")
                .unwrap()
                .with_seed(5),
        )
        .with_retransmit_budget(0);
    cfg.seed = 0x70B5;
    let (seq, par) = record("churn/minimal".to_string(), cfg);
    for res in [&seq, &par] {
        assert!(res.faults.failed > 0, "churn must terminally fail a packet");
        assert!(
            res.tenants[..2]
                .iter()
                .any(|t| !t.collective.as_ref().unwrap().completed),
            "terminal loss must stall a collective"
        );
    }

    let table: Vec<String> = actual
        .iter()
        .map(|(id, seq, par)| format!("    (\"{id}\", \"{seq}\", \"{par}\"),"))
        .collect();
    let pinned: Vec<String> = JOBS_GOLDEN
        .iter()
        .map(|(id, seq, par)| format!("    (\"{id}\", \"{seq}\", \"{par}\"),"))
        .collect();
    assert_eq!(
        pinned,
        table,
        "jobs runs drifted from the golden digests; if the drift is \
         intended, the new table is:\n{}",
        table.join("\n")
    );
}

/// Multi-phase finite golden digests `(scenario, sequential,
/// parallel-2-shard)`.
///
/// Every table above runs a single-phase workload, so nothing else pins the
/// per-phase path of the finite drain: each phase starts where the previous
/// one drained (`phase_start` carry-over), gets fresh engine and shard state,
/// and re-arms the fault runtime fast-forwarded to the phase boundary. One
/// three-phase workload on the chordal ring runs workload-paced, under an
/// offered load (Poisson packetization continues across phases), and under a
/// link-failure pulse whose fail and heal events both land inside phase 2
/// (phase 3 then arms past both), with a retransmission budget so dropped
/// packets recover. Recorded by this test itself (on drift it prints the
/// full replacement table).
const PHASED_GOLDEN: &[(&str, &str, &str)] = &[
    ("paced/minimal", "75fbf8228fab1073", "e8b0b1d466033a50"),
    ("offered/minimal", "b8479949ed3410c2", "396adc2d474154d0"),
    ("pulse/minimal", "da07de0e6426bb42", "dbc849a46be57ea0"),
    ("paced/ugal-l", "84229cf5087e4334", "ade284c2a9a2946c"),
    ("offered/ugal-l", "02418dc0977970b6", "f86164b20af80283"),
    ("pulse/ugal-l", "4514e6c8cfac3d94", "a99f70ef47c9cfda"),
];

#[test]
fn multi_phase_finite_runs_reproduce_golden_digests() {
    use spectralfly_simnet::FaultScript;

    let net = SimNetwork::new(chordal_ring(12, &[(0, 6), (2, 9), (4, 10)]), 2);
    let phase = |seed: u64| Workload::uniform_random(net.num_endpoints(), 4, 2048, seed).phases;
    let wl = Workload {
        phases: phase(11)
            .into_iter()
            .chain(phase(12))
            .chain(phase(13))
            .collect(),
        name: "three-phase".into(),
    };
    assert_eq!(wl.phases.len(), 3);

    let mut actual: Vec<(String, String, String)> = Vec::new();
    let mut record = |label: String, cfg: &SimConfig, load: Option<f64>| {
        let seq = try_simulate(&net, cfg, &wl, load).expect("phased run drains");
        let par =
            try_simulate(&net, &cfg.clone().with_shards(2), &wl, load).expect("phased run drains");
        for r in [&seq, &par] {
            assert_eq!(r.delivered_messages as usize, wl.num_messages(), "{label}");
            let f = &r.faults;
            assert_eq!(f.injected, f.delivered + f.failed, "{label}: conservation");
            if !cfg.fault_script.is_none() {
                assert!(f.retransmits > 0, "{label}: the pulse must drop and resend");
            }
        }
        let seq = digest(&format!("{label}/seq"), &seq);
        let par = digest(&format!("{label}/par"), &par);
        actual.push((label, seq, par));
    };

    for routing in ["minimal", "ugal-l"] {
        let mut cfg = SimConfig::default().with_routing(routing, net.diameter() as u32);
        cfg.seed = 0x3FA5;
        record(format!("paced/{routing}"), &cfg, None);
        record(format!("offered/{routing}"), &cfg, Some(0.4));
        // Phase 2 spans roughly 2.0–4.1 µs workload-paced on both engines.
        let fcfg = cfg
            .clone()
            .with_fault_script(
                FaultScript::parse("at(2500ns, links(0.25)) + at(3500ns, heal(all))")
                    .unwrap()
                    .with_seed(7),
            )
            .with_retransmit_budget(4);
        record(format!("pulse/{routing}"), &fcfg, None);
    }

    let table: Vec<String> = actual
        .iter()
        .map(|(id, seq, par)| format!("    (\"{id}\", \"{seq}\", \"{par}\"),"))
        .collect();
    let pinned: Vec<String> = PHASED_GOLDEN
        .iter()
        .map(|(id, seq, par)| format!("    (\"{id}\", \"{seq}\", \"{par}\"),"))
        .collect();
    assert_eq!(
        pinned,
        table,
        "multi-phase finite runs drifted from the golden digests; if the \
         drift is intended, the new table is:\n{}",
        table.join("\n")
    );
}
