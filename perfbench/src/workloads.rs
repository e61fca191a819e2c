//! The three benchmark workloads, each built from scratch on every repetition
//! through the library's public functions, with a span around every call into
//! a layer.
//!
//! Why these three (see also `perfbench/README.md`):
//!
//! * `lps-finite-ugal` is the roadmap's reference scenario: the paper's
//!   LPS(23,13)×8 fabric drained under UGAL-L. Time goes to the sequential
//!   event loop, next-hop-table routing and the dense-oracle build.
//! * `lps-tenants-churn` runs the same fabric in a steady window with three
//!   tenants and live link churn on the parallel engine: partitioning, barrier
//!   epochs, job bookkeeping, runtime faults and retransmission.
//! * `lps-large-cayley` is a 103,776-router fabric behind the Cayley oracle:
//!   group construction, in-loop oracle queries and, after the run, the
//!   Lanczos spectral summary, with a working set far larger than the other
//!   two.

use crate::trace::Tracer;
use spectralfly_exp::digest_results;
use spectralfly_graph::spectral_summary;
use spectralfly_simnet::job::{resolve_mix, JobCtx};
use spectralfly_simnet::{
    FaultScript, MeasurementWindows, ParallelSimulator, RoutingHarness, SimConfig, SimNetwork,
    SimResults, Simulator, Workload,
};
use spectralfly_topology::{LpsGraph, Topology};
use std::sync::Arc;
use std::time::Instant;

/// Message size of every workload: one 4 KiB packet per message.
const BYTES: u64 = 4096;
/// Lanczos iterations of the spectral step (the library's documented default).
const LANCZOS_ITERS: usize = 100;
/// Live link churn of the tenants workload: forces drops and retransmission.
const CHURN: &str = "churn(1mhz, 10us)";
/// Parallel-engine shards of the tenants workload, fixed so the workload is
/// the same on every host.
const SHARDS: usize = 2;

/// Problem size: `Full` is the benchmark; `Tiny` runs the same code paths in
/// well under a second for the smoke test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    FiniteUgal,
    TenantsChurn,
    LargeCayley,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::FiniteUgal, Kind::TenantsChurn, Kind::LargeCayley];

    pub fn name(self) -> &'static str {
        match self {
            Kind::FiniteUgal => "lps-finite-ugal",
            Kind::TenantsChurn => "lps-tenants-churn",
            Kind::LargeCayley => "lps-large-cayley",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// One-line description of the inputs, printed with every result.
    pub fn describe(self, scale: Scale) -> String {
        match self {
            Kind::FiniteUgal => {
                let (p, q, conc, msgs) = finite_params(scale);
                format!(
                    "LPS({p},{q})x{conc}, {msgs} x {BYTES} B uniform-random messages per endpoint, \
                     ugal-l, offered load 0.9, finite drain, sequential engine"
                )
            }
            Kind::TenantsChurn => {
                let t = tenants_params(scale);
                format!(
                    "LPS({},{})x{}, jobs {:?}, ugal-l, {}, warmup {} ns, measure {} ns, drain {} ns, \
                     parallel engine at {} shards",
                    t.p, t.q, t.conc, t.mix, CHURN, t.warmup_ns, t.measure_ns, t.drain_ns, SHARDS
                )
            }
            Kind::LargeCayley => {
                let (p, q) = large_params(scale);
                format!(
                    "LPS({p},{q})x1, Cayley oracle, one {BYTES} B message per endpoint, minimal, \
                     finite drain, sequential engine, then spectral_summary \
                     ({LANCZOS_ITERS} Lanczos iterations)"
                )
            }
        }
    }
}

fn finite_params(scale: Scale) -> (u64, u64, usize, usize) {
    match scale {
        Scale::Full => (23, 13, 8, 20),
        Scale::Tiny => (11, 7, 2, 2),
    }
}

struct TenantsParams {
    p: u64,
    q: u64,
    conc: usize,
    mix: &'static str,
    warmup_ns: u64,
    measure_ns: u64,
    /// Long enough after the sources stop for the collective to finish.
    drain_ns: u64,
}

fn tenants_params(scale: Scale) -> TenantsParams {
    match scale {
        Scale::Full => TenantsParams {
            p: 23,
            q: 13,
            conc: 8,
            mix: "allreduce-ring(4096) x 64 + traffic(0.5, random, 4096) x 2048 \
                  + traffic(0.9, adversarial(8), 4096) x 4096",
            warmup_ns: 2_000,
            measure_ns: 10_000,
            drain_ns: 40_000,
        },
        Scale::Tiny => TenantsParams {
            p: 11,
            q: 7,
            conc: 2,
            mix: "allreduce-ring(4096) x 8 + traffic(0.5, random, 4096) x 32 \
                  + traffic(0.9, adversarial(8), 4096) x 64",
            warmup_ns: 1_000,
            measure_ns: 2_000,
            drain_ns: 20_000,
        },
    }
}

fn large_params(scale: Scale) -> (u64, u64) {
    match scale {
        Scale::Full => (5, 47),
        Scale::Tiny => (5, 13),
    }
}

/// What one repetition of a workload produced and how long its parts took.
pub struct Rep {
    /// Host seconds from the first layer call to the end of the last.
    pub wall_s: f64,
    /// Host seconds before the first engine run call.
    pub setup_s: f64,
    /// Host seconds inside the engine run call.
    pub run_s: f64,
    pub res: SimResults,
    /// Packets the engine was handed.
    pub injected: u64,
    /// Messages a finite drain must deliver (`None` for steady windows).
    pub finite_messages: Option<u64>,
    /// `(λ₂, k)` of the spectral step, where the workload has one.
    pub spectral: Option<(f64, usize)>,
    /// Lanczos basis size in MiB (iterations × routers × 8 B), where the
    /// workload has a spectral step.
    pub basis_mib: f64,
    /// The inputs of the engine run, kept for the measurements a traced run
    /// takes after the workload.
    pub net: SimNetwork,
    pub cfg: SimConfig,
    pub wl: Workload,
    /// Offered load of the engine run; `None` runs workload-paced.
    pub load: Option<f64>,
}

impl Rep {
    pub fn digest(&self) -> String {
        digest_results(&self.res)
    }

    /// Rerun this repetition's engine call on the sequential engine: host
    /// seconds and results.
    pub fn time_sequential(&self) -> (f64, SimResults) {
        let cfg = self.cfg.clone().with_shards(1);
        let sim = Simulator::new(&self.net, &cfg);
        let t0 = Instant::now();
        let res = match self.load {
            Some(load) => sim.try_run_with_offered_load(&self.wl, load),
            None => sim.try_run(&self.wl),
        }
        .unwrap_or_else(|e| panic!("sequential rerun: {e}"));
        (t0.elapsed().as_secs_f64(), res)
    }

    /// Host ns per source-router decision of this repetition's routing
    /// algorithm on its network, over `decisions` round-robin pairs.
    pub fn ns_per_decision(&self, decisions: u64) -> f64 {
        let mut harness = RoutingHarness::new(&self.net, &self.cfg);
        harness.warm();
        let mut sink = 0usize;
        let t0 = Instant::now();
        for i in 0..decisions {
            sink ^= harness.decide_round_robin(std::hint::black_box(i));
        }
        let elapsed = t0.elapsed().as_secs_f64();
        std::hint::black_box(sink);
        elapsed * 1e9 / decisions as f64
    }
}

/// Run one repetition of `kind`.
pub fn run(kind: Kind, scale: Scale, seed: u64, tr: &mut Tracer) -> Rep {
    match kind {
        Kind::FiniteUgal => finite_ugal(scale, seed, tr),
        Kind::TenantsChurn => tenants_churn(scale, seed, tr),
        Kind::LargeCayley => large_cayley(scale, seed, tr),
    }
}

fn packets_of(wl: &Workload, cfg: &SimConfig) -> u64 {
    wl.phases
        .iter()
        .flat_map(|p| p.messages.iter())
        .map(|m| m.bytes.div_ceil(cfg.packet_size_bytes).max(1))
        .sum()
}

fn finite_ugal(scale: Scale, seed: u64, tr: &mut Tracer) -> Rep {
    let (p, q, conc, msgs) = finite_params(scale);
    let load = 0.9;
    let t0 = Instant::now();
    let lps = tr.span("topology.build", |_| {
        LpsGraph::new(p, q).expect("valid LPS parameters")
    });
    let net = tr.span("simnet.network.build", |_| {
        SimNetwork::new(lps.graph().clone(), conc)
    });
    let wl = tr.span("simnet.workload.gen", |_| {
        Workload::uniform_random(net.num_endpoints(), msgs, BYTES, seed)
    });
    let cfg = SimConfig {
        seed,
        ..SimConfig::default().with_routing("ugal-l", net.diameter() as u32)
    };
    let sim = tr.span("simnet.engine.new", |_| Simulator::new(&net, &cfg));
    let setup_s = t0.elapsed().as_secs_f64();
    let res = tr.span("simnet.engine.run", |_| {
        sim.run_with_offered_load(&wl, load)
    });
    let wall_s = t0.elapsed().as_secs_f64();
    drop(sim);
    Rep {
        wall_s,
        setup_s,
        run_s: wall_s - setup_s,
        injected: packets_of(&wl, &cfg),
        finite_messages: Some(wl.num_messages() as u64),
        res,
        spectral: None,
        basis_mib: 0.0,
        net,
        cfg,
        wl,
        load: Some(load),
    }
}

fn tenants_churn(scale: Scale, seed: u64, tr: &mut Tracer) -> Rep {
    let t = tenants_params(scale);
    // Jobs scale every tenant's own load by this global multiplier.
    let load = 1.0;
    let t0 = Instant::now();
    let lps = tr.span("topology.build", |_| {
        LpsGraph::new(t.p, t.q).expect("valid LPS parameters")
    });
    let net = tr.span("simnet.network.build", |_| {
        SimNetwork::new(lps.graph().clone(), t.conc)
    });
    // The engine resolves the mix again when it starts; resolving it here is
    // the job layer's check that the mix fits the fabric, and its cost is
    // what workload generation means for a jobs run.
    let script = tr.span("simnet.workload.gen", |_| {
        resolve_mix(t.mix, &JobCtx::new(), &net.alive_endpoints(), seed)
            .unwrap_or_else(|e| panic!("mix {:?}: {e}", t.mix));
        FaultScript::parse(CHURN)
            .unwrap_or_else(|e| panic!("fault script {CHURN:?}: {e}"))
            .with_seed(seed)
    });
    let cfg = SimConfig {
        seed,
        ..SimConfig::default().with_routing("ugal-l", net.diameter() as u32)
    }
    .with_jobs(t.mix)
    .with_fault_script(script)
    .with_shards(SHARDS)
    .with_windows(MeasurementWindows {
        drain_ps: t.drain_ns * 1000,
        ..MeasurementWindows::new(t.warmup_ns * 1000, t.measure_ns * 1000)
    });
    // Tenants draw their own traffic; the engine call still takes a workload.
    let wl = Workload::single_phase("jobs", Vec::new());
    let sim = tr.span("graph.partition", |_| ParallelSimulator::new(&net, &cfg));
    let setup_s = t0.elapsed().as_secs_f64();
    let res = tr.span("simnet.engine.run", |_| {
        sim.try_run_with_offered_load(&wl, load)
            .unwrap_or_else(|e| panic!("tenants run: {e}"))
    });
    let wall_s = t0.elapsed().as_secs_f64();
    drop(sim);
    Rep {
        wall_s,
        setup_s,
        run_s: wall_s - setup_s,
        injected: res.faults.injected,
        finite_messages: None,
        res,
        spectral: None,
        basis_mib: 0.0,
        net,
        cfg,
        wl,
        load: Some(load),
    }
}

fn large_cayley(scale: Scale, seed: u64, tr: &mut Tracer) -> Rep {
    let (p, q) = large_params(scale);
    let t0 = Instant::now();
    let lps = tr.span("topology.build", |_| {
        LpsGraph::new(p, q).expect("valid LPS parameters")
    });
    let oracle = tr.span("graph.cayley_oracle", |_| {
        lps.cayley_oracle()
            .expect("LPS graphs carry a Cayley structure")
    });
    let net = tr.span("simnet.network.build", |_| {
        SimNetwork::with_oracle(lps.graph().clone(), 1, Arc::new(oracle))
    });
    let wl = tr.span("simnet.workload.gen", |_| {
        Workload::uniform_random(net.num_endpoints(), 1, BYTES, seed)
    });
    let cfg = SimConfig {
        seed,
        ..SimConfig::default().with_routing("minimal", net.diameter() as u32)
    };
    let sim = tr.span("simnet.engine.new", |_| Simulator::new(&net, &cfg));
    let setup_s = t0.elapsed().as_secs_f64();
    let res = tr.span("simnet.engine.run", |_| sim.run(&wl));
    let run_s = t0.elapsed().as_secs_f64() - setup_s;
    // The spectral summary analyses the fabric; it is not set-up, so it runs
    // after the simulation, where a reproduction report computes it.
    let summary = tr.span("graph.spectral", |_| {
        spectral_summary(lps.graph(), LANCZOS_ITERS, seed)
    });
    let wall_s = t0.elapsed().as_secs_f64();
    drop(sim);
    let n = net.num_routers();
    Rep {
        wall_s,
        setup_s,
        run_s,
        injected: packets_of(&wl, &cfg),
        finite_messages: Some(wl.num_messages() as u64),
        res,
        spectral: Some((summary.lambda2, summary.k)),
        basis_mib: (LANCZOS_ITERS.min(n) * n * 8) as f64 / (1u64 << 20) as f64,
        net,
        cfg,
        wl,
        load: None,
    }
}
