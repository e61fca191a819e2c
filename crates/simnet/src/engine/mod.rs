//! The discrete-event simulation engine.
//!
//! Packets are routed store-and-forward across directed links. Every router owns one
//! output queue per directed link; per-router, per-virtual-channel buffer occupancy with
//! fixed capacity provides credit-style backpressure (a packet cannot start crossing a link
//! until the downstream router has a free slot in the next virtual channel). The virtual
//! channel index equals the packet's hop count, which makes the channel dependency graph
//! acyclic and the schedule deadlock-free (Section V-A of the paper).
//!
//! # The wakeup-driven hot path
//!
//! The engine is **wakeup-driven**: when a link's head packet finds the downstream
//! `(router, vc)` buffer full, the link parks itself on that slot's waiter list and
//! schedules *nothing*. The two places a slot can free — a packet transmitting out of
//! it, or delivering at its router — wake the FIFO-head link parked on the slot (one
//! wakeup per freed buffer unit; a woken link that loses the race to a newly arriving
//! packet re-parks, and the reclaimer's departure wakes the next waiter). There are no
//! time-based retry events at all (the polling engine this replaced
//! re-enqueued a `TryTransmit` every retry quantum per blocked link; under saturation
//! those retries dominated the event count). The retained polling implementation lives
//! in [`mod@reference`] as the equivalence oracle and performance baseline, and
//! [`crate::stats::EngineCounters`] makes the difference observable: `timed_retries`
//! is zero for this engine by construction, while `blocked_parks`/`wakeups` count the
//! waiter-list traffic.
//!
//! Event storage is a bucketed calendar queue with an overflow heap for far-future
//! events (the private `calendar` module), and packets live in an index arena with a free list so
//! steady-state runs recycle slots instead of growing without bound.
//!
//! # Steady-state measurement
//!
//! With [`crate::config::MeasurementWindows`] configured,
//! [`Simulator::run_with_offered_load`] switches from the finite drain-to-empty run to
//! continuous per-endpoint Poisson sources with warmup/measurement/drain windows — see
//! the type's documentation and DESIGN.md for the protocol.
//!
//! Both shapes run through one event loop. A finite run is one loop per workload
//! phase, with no deadline, no sample tick and no traffic feed: every packet is
//! scheduled before the loop starts and the loop drains to empty. A steady or jobs
//! run is one loop with the drain deadline, the `Sample` tick and one traffic feed
//! (the workload's steady sources or the jobs runtime). The same split drives the
//! [`parallel::ParallelSimulator`]'s one shard launcher.

mod calendar;
mod jobs;
pub mod parallel;
pub mod reference;

use crate::config::{MeasurementWindows, SimConfig};
use crate::fault::{FaultEvent, FaultEventKind, FaultTimeline};
use crate::job::{JobCtx, MixPlan, MsgTag};
use crate::network::SimNetwork;
use crate::pattern::{PatternCtx, TrafficPattern};
use crate::routing::{self, RouteScratch, Router, RoutingCtx, RoutingState};
use crate::stats::{EngineCounters, FaultStats, IntervalSample, SimResults, StatsCollector};
use crate::workload::{Phase, Workload};
use calendar::{CalendarQueue, Timed};
use jobs::JobsRuntime;
use parallel::ParallelSimulator;
use rand::{rngs::StdRng, Rng, SeedableRng};
use spectralfly_graph::csr::VertexId;
use std::collections::VecDeque;
use std::sync::Arc;

/// Why a run could not start or could not complete.
///
/// Returned by the `try_run*` entry points of every engine; the panicking
/// `run*` variants unwrap it. `Fault` rejections happen *before* any
/// simulation work; `Deadlock` is the wakeup engine's quiescence detection
/// turned into a value — degenerate configurations (tiny per-VC buffers under
/// saturation) degrade gracefully instead of aborting the process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// A fault plan or script made the run infeasible (dead endpoints,
    /// disconnected pairs, fragmented survivors, malformed script).
    Fault(crate::fault::FaultError),
    /// The run quiesced with undelivered packets: links parked in a cyclic
    /// head-of-line wait that no buffer free can ever break.
    Deadlock {
        /// Human-readable diagnosis (undelivered/parked/queued counts and the
        /// buffer-sizing hint).
        diagnosis: String,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Fault(e) => e.fmt(f),
            SimError::Deadlock { diagnosis } => f.write_str(diagnosis),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Fault(e) => Some(e),
            SimError::Deadlock { .. } => None,
        }
    }
}

impl From<crate::fault::FaultError> for SimError {
    fn from(e: crate::fault::FaultError) -> Self {
        SimError::Fault(e)
    }
}

/// Why a packet was dropped by the runtime fault machinery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum DropReason {
    /// The packet occupied or was queued on (or crossing) a link that died.
    LinkDown,
    /// The packet was at / injecting from / destined to a down router.
    RouterDown,
    /// No alive port made progress toward the packet's target.
    NoRoute,
    /// The packet exceeded the detour hop TTL.
    TtlExceeded,
}

/// Internal per-packet state.
#[derive(Clone, Debug)]
pub(crate) struct Packet {
    src_router: VertexId,
    dst_router: VertexId,
    bytes: u64,
    inject_time_ps: u64,
    hops: u32,
    /// Algorithm-owned routing state (e.g. a Valiant intermediate still to be visited).
    routing: RoutingState,
    /// Index of the owning message (for message-completion accounting).
    msg: usize,
    /// Directed link the packet is currently crossing (`u32::MAX` when not in
    /// flight on a link) — how the fault machinery detects mid-flight drops.
    via_link: u32,
    /// Retransmissions consumed so far (0 until the first drop).
    attempts: u32,
    /// Time of the packet's first drop (`u64::MAX` if never dropped), for the
    /// recovery-time statistics.
    first_drop_ps: u64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum EventKind {
    /// Endpoint NIC injects a packet at its source router.
    /// (`u32` indices keep the event 24 bytes — the queue moves millions.)
    Inject { packet: u32 },
    /// Try to transmit the head of a directed link's output queue.
    TryTransmit { link: u32 },
    /// A packet arrives at a router after crossing a link.
    Arrive { packet: u32, router: VertexId },
    /// A continuous source generates its next message (steady-state mode only).
    NextMessage { source: u32 },
    /// Record a steady-state time-series sample (steady-state mode only).
    Sample,
    /// Apply fault-timeline entry `idx` (then chain `idx + 1`). Fault events
    /// are self-chaining so at most one is ever queued — the calendar queue
    /// forbids out-of-order pushes, and a script's events span the whole run.
    Fault { idx: u32 },
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Event {
    time: u64,
    seq: u64,
    kind: EventKind,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Timed for Event {
    fn time(&self) -> u64 {
        self.time
    }
}

/// A phase's injection schedule, shared between the wakeup engine and the
/// polling reference so both see byte-identical packetization (and consume the
/// RNG identically in offered-load mode).
pub(crate) struct PhaseSchedule {
    pub packets: Vec<Packet>,
    /// Packet indices in injection-event push order (event time =
    /// `packets[i].inject_time_ps`).
    pub injections: Vec<usize>,
    pub msg_first_inject: Vec<u64>,
    pub msg_packets_left: Vec<u32>,
}

/// Split a message into per-packet `(payload_bytes, nic_serialization_ps)`
/// segments — the single source of truth for message segmentation, shared by
/// the finite schedule and the steady-state sources so the two paths can never
/// drift apart.
pub(crate) fn segment_message(cfg: &SimConfig, total_bytes: u64) -> Vec<(u64, u64)> {
    let npkts = total_bytes.div_ceil(cfg.packet_size_bytes).max(1);
    (0..npkts)
        .map(|k| {
            let sent = k * cfg.packet_size_bytes;
            let bytes = (total_bytes - sent.min(total_bytes))
                .min(cfg.packet_size_bytes)
                .max(1);
            (bytes, cfg.injection_serialization_ps(bytes))
        })
        .collect()
}

/// Packetize one phase and lay out its injection schedule (each source's
/// messages serialized through its NIC; Poisson-spaced under an offered load).
pub(crate) fn packetize_phase(
    net: &SimNetwork,
    cfg: &SimConfig,
    phase: &Phase,
    phase_start: u64,
    offered_load: Option<f64>,
    rng: &mut StdRng,
) -> PhaseSchedule {
    let mut sched = PhaseSchedule {
        packets: Vec::new(),
        injections: Vec::new(),
        msg_first_inject: vec![u64::MAX; phase.messages.len()],
        msg_packets_left: vec![0; phase.messages.len()],
    };
    // NIC-busy horizon per endpoint: a flat Vec keyed by endpoint id (endpoints are
    // dense small integers; a HashMap here cost a hash + probe per message).
    let mut nic_free: Vec<u64> = vec![phase_start; net.num_endpoints()];
    let mut order: Vec<usize> = (0..phase.messages.len()).collect();
    order.sort_by_key(|&i| (phase.messages[i].src, phase.messages[i].inject_offset_ps, i));
    for &mi in &order {
        let m = &phase.messages[mi];
        let segments = segment_message(cfg, m.bytes);
        sched.msg_packets_left[mi] = segments.len() as u32;
        let nic = &mut nic_free[m.src];
        let base = match offered_load {
            None => phase_start + m.inject_offset_ps,
            Some(load) => {
                let mean_gap = cfg.serialization_ps(cfg.packet_size_bytes) as f64 / load;
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                (*nic).max(phase_start) + (-u.ln() * mean_gap) as u64
            }
        };
        let mut t = base.max(*nic);
        for (bytes, nic_ser) in segments {
            let pi = sched.packets.len();
            sched.packets.push(Packet {
                src_router: net.router_of_endpoint(m.src),
                dst_router: net.router_of_endpoint(m.dst),
                bytes,
                inject_time_ps: t,
                hops: 0,
                routing: RoutingState::default(),
                msg: mi,
                via_link: u32::MAX,
                attempts: 0,
                first_drop_ps: u64::MAX,
            });
            sched.msg_first_inject[mi] = sched.msg_first_inject[mi].min(t);
            sched.injections.push(pi);
            t += nic_ser;
        }
        *nic = t;
    }
    sched
}

/// The construction-time checks every engine makes: at least one VC and one
/// buffer slot per VC, a registered routing algorithm (resolved here, once),
/// and a config fault plan matching the network's.
pub(crate) fn create_router(net: &SimNetwork, cfg: &SimConfig) -> Box<dyn Router> {
    assert!(cfg.num_vcs >= 1, "need at least one virtual channel");
    assert!(
        cfg.buffer_packets_per_vc >= 1,
        "need at least one buffer slot per VC"
    );
    let router = routing::create(&cfg.routing).unwrap_or_else(|| {
        panic!(
            "unknown routing algorithm {:?}; registered: {}",
            cfg.routing,
            routing::registered_names().join(", ")
        )
    });
    crate::fault::check_config_plan(net, &cfg.faults);
    router
}

/// Routing decision for a packet at `router` bound for `dst` after `hops`
/// hops, carrying algorithm-owned `state`: delegate to the configured
/// [`Router`] behind a [`RoutingCtx`] snapshot of the engine state. Shared by
/// every engine so a given queue state yields the same decision.
#[allow(clippy::too_many_arguments)]
pub(crate) fn choose_port(
    net: &SimNetwork,
    cfg: &SimConfig,
    algo: &dyn Router,
    state: &mut RoutingState,
    router: VertexId,
    dst: VertexId,
    hops: u32,
    link_qlen: &[u32],
    occupancy: &[u32],
    router_occ: &[u32],
    link_parked: &[bool],
    rng: &mut dyn rand::RngCore,
    scratch: &mut RouteScratch,
) -> usize {
    let mut ctx = RoutingCtx::new(
        net,
        link_qlen,
        occupancy,
        router_occ,
        link_parked,
        cfg.num_vcs,
        cfg.ugal_threshold,
        router,
        dst,
        hops,
        rng,
        scratch,
    );
    let port = algo.route(&mut ctx, state);
    // Hard assert (not debug_assert): Router is a third-party extension point, and
    // an out-of-range port would otherwise silently index into the next router's
    // link range and corrupt the run far from the buggy decision.
    assert!(
        port < net.graph().degree(router),
        "router {} returned out-of-range port {port} at router {router}",
        algo.name()
    );
    port
}

/// The surviving endpoint space of a degraded network (steady-state pattern
/// mode): `alive` lists the endpoints of up routers ascending, and `rank[e]`
/// is endpoint `e`'s index in `alive` (`u32::MAX` for dead endpoints). The
/// live traffic pattern runs over ranks — the surviving machine — and draws
/// are mapped back to physical endpoint ids at injection time.
struct AliveEndpoints {
    alive: Vec<usize>,
    rank: Vec<u32>,
}

impl AliveEndpoints {
    fn new(net: &SimNetwork) -> Self {
        let alive = net.alive_endpoints();
        let mut rank = vec![u32::MAX; net.num_endpoints()];
        for (i, &e) in alive.iter().enumerate() {
            rank[e] = i as u32;
        }
        AliveEndpoints { alive, rank }
    }
}

/// A steady run's live destination pattern
/// ([`MeasurementWindows::pattern`]). On a degraded network it runs over the
/// *surviving* machine (`alive`): its endpoint space is the alive endpoints,
/// and only those inject. Pristine networks skip the mapping entirely.
pub(crate) struct LivePattern {
    pattern: Box<dyn TrafficPattern>,
    alive: Option<AliveEndpoints>,
    /// The pattern's endpoint space.
    space: usize,
}

impl LivePattern {
    /// Whether endpoint `e` may inject (it is alive).
    fn injects(&self, e: usize) -> bool {
        self.alive.as_ref().is_none_or(|m| m.rank[e] != u32::MAX)
    }

    /// Draw the destination endpoint of a message from `src`: the source's
    /// rank goes in, the drawn rank is mapped back to a physical endpoint.
    fn dst(&self, src: usize, rng: &mut StdRng) -> usize {
        let src_rank = self.alive.as_ref().map_or(src, |m| m.rank[src] as usize);
        let drawn = self.pattern.dst(src_rank, rng);
        // Hard assert (not debug_assert): TrafficPattern is a third-party
        // extension point, and an out-of-range destination would otherwise
        // index past the endpoint map far from the buggy draw.
        assert!(
            drawn < self.space,
            "pattern {} returned out-of-range destination {drawn} (pattern space has {} endpoints)",
            self.pattern.name(),
            self.space
        );
        self.alive.as_ref().map_or(drawn, |m| m.alive[drawn])
    }
}

/// Exponential inter-arrival gap for a message of `bytes` at `load` of the
/// endpoint injection bandwidth.
fn exp_gap(cfg: &SimConfig, bytes: u64, load: f64, rng: &mut StdRng) -> u64 {
    let ser = cfg.injection_serialization_ps(bytes) as f64;
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    (-u.ln() * ser / load) as u64
}

/// Expand the configured fault script against the (possibly statically
/// degraded) topology, or `None` when no script is configured. The runtime
/// machinery is enabled whenever a script is present — even one whose
/// expansion drew no events — so the fault statistics (including the
/// conservation identity) are populated for every scripted run.
fn fault_timeline(
    net: &SimNetwork,
    cfg: &SimConfig,
    horizon_ps: u64,
) -> Result<Option<Arc<FaultTimeline>>, SimError> {
    if cfg.fault_script.is_none() {
        return Ok(None);
    }
    let tl = cfg.fault_script.expand(net.graph(), horizon_ps)?;
    Ok(Some(Arc::new(tl)))
}

/// A windowed run, once [`resolve_run`] has checked its preconditions:
/// continuous `traffic` at `load` under the measurement windows `w`, cut at
/// the drain deadline. Steady sources cycle through `workload`'s messages.
pub(crate) struct Window<'c> {
    workload: &'c Workload,
    load: f64,
    w: &'c MeasurementWindows,
    traffic: Traffic,
}

/// What a windowed run injects.
pub(crate) enum Traffic {
    /// The workload's per-endpoint Poisson sources; destinations come from
    /// the live pattern when one is configured, from the workload templates
    /// otherwise.
    Sources(Option<LivePattern>),
    /// The multi-tenant mix of [`SimConfig::jobs`], resolved once over the
    /// alive endpoints (deterministic in the seed, so every engine and shard
    /// count executes the identical plan).
    Jobs(MixPlan),
}

/// The front door of every engine's `try_run*`: pick the run mode from the
/// config and the offered load (`None` = workload-paced; a finite run comes
/// back as no [`Window`]), make every
/// precondition check and fault validation once, and expand the fault script
/// over the mode's horizon. Infeasible runs on a degraded network come back
/// as typed [`SimError::Fault`]s before any simulation work; malformed
/// inputs (a load outside `(0, 1]`, jobs without windows, an unknown pattern
/// or mix, out-of-range workload endpoints) panic.
pub(crate) fn resolve_run<'c>(
    net: &SimNetwork,
    cfg: &'c SimConfig,
    workload: &'c Workload,
    offered_load: Option<f64>,
) -> Result<(Option<Window<'c>>, Option<Arc<FaultTimeline>>), SimError> {
    if let Some(load) = offered_load {
        assert!(load > 0.0 && load <= 1.0, "offered load must be in (0, 1]");
    }
    let check_endpoints = || {
        if let Some(max_ep) = workload.max_endpoint() {
            assert!(
                max_ep < net.num_endpoints(),
                "workload references endpoint {max_ep} but the network has only {}",
                net.num_endpoints()
            );
        }
    };
    let (window, horizon) = match (offered_load, &cfg.windows) {
        (Some(load), Some(w)) => {
            if let Some(mix) = cfg.jobs.as_deref() {
                // Jobs mode supersedes both the workload templates and the
                // live destination pattern: tenants draw their own traffic.
                // Placement needs every surviving router reachable, exactly
                // like a live pattern.
                if net.has_faults() {
                    crate::fault::validate_steady_pattern(net)?;
                }
                let plan =
                    crate::job::resolve_mix(mix, &JobCtx::new(), &net.alive_endpoints(), cfg.seed)
                        .unwrap_or_else(|e| panic!("{e}"));
                let traffic = Traffic::Jobs(plan);
                let window = Window {
                    workload,
                    load,
                    w,
                    traffic,
                };
                (Some(window), w.deadline_ps())
            } else {
                if net.has_faults() {
                    if w.pattern.is_some() {
                        crate::fault::validate_steady_pattern(net)?;
                    } else {
                        crate::fault::validate_workload(net, workload)?;
                    }
                }
                check_endpoints();
                // Resolve the destination pattern once, up front — an unknown
                // spec fails loudly before any simulation work, mirroring
                // unknown routing names.
                let pattern = w.pattern.as_deref().map(|spec| {
                    let alive = net.has_faults().then(|| AliveEndpoints::new(net));
                    let n = alive
                        .as_ref()
                        .map_or(net.num_endpoints(), |m| m.alive.len());
                    let pattern = crate::pattern::create(spec, &PatternCtx::new(n))
                        .unwrap_or_else(|e| panic!("{e}"));
                    LivePattern {
                        pattern,
                        alive,
                        space: n,
                    }
                });
                let traffic = Traffic::Sources(pattern);
                let window = Window {
                    workload,
                    load,
                    w,
                    traffic,
                };
                (Some(window), w.deadline_ps())
            }
        }
        _ => {
            assert!(
                cfg.jobs.is_none(),
                "SimConfig::jobs requires steady-state measurement windows \
                 (SimConfig::with_windows)"
            );
            if net.has_faults() {
                crate::fault::validate_workload(net, workload)?;
            }
            check_endpoints();
            (None, cfg.fault_horizon_ps())
        }
    };
    Ok((window, fault_timeline(net, cfg, horizon)?))
}

/// One stretch of a run that an engine takes through its event loop.
pub(crate) enum Segment<'r> {
    /// A finite phase: every packet is scheduled before the loop starts, and
    /// the loop drains to empty. Phase `idx` starts at `start`, where the
    /// previous phase drained.
    Phase {
        idx: usize,
        start: u64,
        sched: PhaseSchedule,
    },
    /// A whole windowed run: the window's traffic feeds the loop, the
    /// `Sample` tick records the time series, and the loop stops at the
    /// drain deadline.
    Window(&'r Window<'r>),
}

/// What a run carries from segment to segment.
pub(crate) struct RunState {
    /// The run's seeded stream: packetization, and on the sequential engine
    /// also routing decisions and steady sources.
    pub rng: StdRng,
    pub stats: StatsCollector,
    pub faults: FaultStats,
    /// The expanded fault script, if one is configured.
    pub timeline: Option<Arc<FaultTimeline>>,
}

/// An event engine, as [`drive`] runs it.
pub(crate) trait Engine {
    /// Take one segment through the engine's event loop, fold its statistics
    /// into `rs`, and return the time of its last delivery (`0` if none).
    fn run_segment(&self, seg: Segment<'_>, rs: &mut RunState) -> Result<u64, SimError>;
}

/// Run `workload` on `engine`: resolve the run ([`resolve_run`]), then hand
/// the engine its segments — one per non-empty phase of a finite run, one for
/// a windowed run.
pub(crate) fn drive(
    engine: &impl Engine,
    net: &SimNetwork,
    cfg: &SimConfig,
    workload: &Workload,
    offered_load: Option<f64>,
) -> Result<SimResults, SimError> {
    let (window, timeline) = resolve_run(net, cfg, workload, offered_load)?;
    let mut rs = RunState {
        rng: StdRng::seed_from_u64(cfg.seed),
        stats: StatsCollector::default(),
        faults: FaultStats::default(),
        timeline,
    };
    match &window {
        None => {
            let mut start = 0;
            for (idx, phase) in workload.phases.iter().enumerate() {
                if phase.messages.is_empty() {
                    continue;
                }
                let sched = packetize_phase(net, cfg, phase, start, offered_load, &mut rs.rng);
                let end = engine.run_segment(Segment::Phase { idx, start, sched }, &mut rs)?;
                start = start.max(end);
            }
        }
        Some(window) => {
            let w = window.w;
            rs.stats = StatsCollector::with_window(w.measure_start_ps(), w.measure_end_ps());
            if let Traffic::Jobs(plan) = &window.traffic {
                rs.stats.init_tenants(plan.tenant_descs());
            }
            engine.run_segment(Segment::Window(window), &mut rs)?;
        }
    }
    let mut results = rs.stats.finish();
    results.faults = rs.faults;
    Ok(results)
}

/// Turn a drained run's undelivered packets into a diagnosis: a cyclic
/// head-of-line wait (links still parked) is a typed [`SimError::Deadlock`];
/// anything else is an engine bug and panics.
fn undelivered_error(
    undelivered: u64,
    parked: usize,
    in_queues: usize,
    pending: usize,
    occ: u32,
) -> SimError {
    assert!(
        parked > 0,
        "simulation ended with {undelivered} undelivered packets \
         (link queues: {in_queues}, pending injections: {pending}, \
         occupancy sum: {occ}) — engine invariant violated"
    );
    SimError::Deadlock {
        diagnosis: format!(
            "simulation deadlocked with {undelivered} undelivered packets and \
             {parked} links parked in a cyclic head-of-line wait (link queues: \
             {in_queues}, pending injections: {pending}, occupancy sum: {occ}); \
             single-FIFO link queues can deadlock across virtual channels when \
             buffer_packets_per_vc is very small — increase it"
        ),
    }
}

/// Run `wl` on the engine [`SimConfig::shards`] selects: the sequential
/// [`Simulator`] for one shard, the [`parallel::ParallelSimulator`] for more
/// (results are identical across shard counts of the parallel engine).
/// `load = None` is [`Simulator::try_run`], `Some(load)` is
/// [`Simulator::try_run_with_offered_load`].
pub fn try_simulate(
    net: &SimNetwork,
    cfg: &SimConfig,
    wl: &Workload,
    load: Option<f64>,
) -> Result<SimResults, SimError> {
    if cfg.shards > 1 {
        drive(&ParallelSimulator::new(net, cfg), net, cfg, wl, load)
    } else {
        drive(&Simulator::new(net, cfg), net, cfg, wl, load)
    }
}

/// What an engine supplies to the engine-independent traffic [`Feed`]: the
/// steady-state [`Source`]s and the jobs runtime ([`jobs::JobsRuntime`]).
pub(crate) trait Injector {
    /// Inject one message of `bytes` from `src_ep` to `dst_ep`, its first
    /// packet entering the network at `t`. Template and pattern traffic is
    /// [`UNTAGGED`]; jobs-mode messages carry their tenant's tag. Returns the
    /// time the NIC is free again, after the last packet's serialization.
    fn inject(&mut self, t: u64, src_ep: usize, dst_ep: usize, bytes: u64, tag: MsgTag) -> u64;

    /// Schedule source `source`, which sits on `endpoint`, to arrive at `t`.
    fn schedule_arrival(&mut self, t: u64, source: u32, endpoint: usize);

    /// The stream steady source `source` draws destinations and gaps from:
    /// the run's shared stream on the sequential engine, a per-endpoint
    /// stream on a shard.
    fn source_rng(&mut self, source: usize) -> &mut StdRng;

    /// Take one collective message the last event completed, as
    /// `(tag, delivery time)`.
    fn pop_completed(&mut self) -> Option<(MsgTag, u64)>;
}

/// The tag of template and pattern traffic: no tenant.
pub(crate) const UNTAGGED: MsgTag = MsgTag {
    tenant: u32::MAX,
    dst_rank: 0,
    round: u32::MAX,
};

/// A continuous Poisson source (steady-state mode): one per sending endpoint,
/// cycling through that endpoint's workload messages.
pub(crate) struct Source {
    endpoint: usize,
    /// `(dst endpoint, bytes)` templates drawn from the workload, cycled in order.
    templates: Vec<(usize, u64)>,
    next_template: usize,
    /// NIC-busy horizon of this endpoint.
    nic_free_ps: u64,
}

impl Source {
    /// The sources of `workload` on the endpoints `owns` accepts, in endpoint
    /// order: one per endpoint with at least one message, alive endpoints
    /// only under a live pattern. Phases are flattened: steady-state
    /// measurement is an open-loop experiment, not a bulk-synchronous
    /// application run.
    fn all(
        net: &SimNetwork,
        workload: &Workload,
        pattern: Option<&LivePattern>,
        owns: impl Fn(usize) -> bool,
    ) -> Vec<Source> {
        let mut templates: Vec<Vec<(usize, u64)>> = vec![Vec::new(); net.num_endpoints()];
        for m in workload.phases.iter().flat_map(|p| &p.messages) {
            templates[m.src].push((m.dst, m.bytes));
        }
        templates
            .into_iter()
            .enumerate()
            .filter(|(e, t)| !t.is_empty() && pattern.is_none_or(|p| p.injects(*e)) && owns(*e))
            .map(|(endpoint, templates)| Source {
                endpoint,
                templates,
                next_template: 0,
                nic_free_ps: 0,
            })
            .collect()
    }
}

/// The traffic that feeds one event loop (one per engine, or per shard).
pub(crate) enum Feed<'r, O> {
    /// A finite phase: every packet was scheduled before the loop started.
    Drain,
    /// The workload's steady Poisson sources on the owned endpoints.
    Sources {
        sources: Vec<Source>,
        /// Draws each message's destination when configured; the template
        /// cycle still supplies the size, so workloads keep controlling *how
        /// much* each endpoint sends while the pattern controls *where to*.
        pattern: Option<&'r LivePattern>,
        cfg: &'r SimConfig,
        load: f64,
        /// Sources fall silent at the end of the measurement window.
        measure_end_ps: u64,
    },
    /// The multi-tenant jobs runtime.
    Jobs(JobsRuntime<'r, O>),
}

impl<'r, O: Fn(usize) -> bool> Feed<'r, O> {
    /// The feed of `window` over the endpoints `owns` accepts.
    pub fn new(net: &SimNetwork, cfg: &'r SimConfig, window: &'r Window<'r>, owns: O) -> Self {
        let (load, w) = (window.load, window.w);
        match &window.traffic {
            Traffic::Sources(pattern) => Feed::Sources {
                sources: Source::all(net, window.workload, pattern.as_ref(), owns),
                pattern: pattern.as_ref(),
                cfg,
                load,
                measure_end_ps: w.measure_end_ps(),
            },
            Traffic::Jobs(plan) => {
                let n = net.num_endpoints();
                Feed::Jobs(JobsRuntime::new(plan, cfg, n, load, w, owns))
            }
        }
    }

    /// Start the feed at `t = 0`: schedule every steady source's first
    /// Poisson arrival, or start the jobs runtime.
    pub fn start(&mut self, inj: &mut impl Injector) {
        match self {
            Feed::Drain => {}
            Feed::Sources {
                sources,
                cfg,
                load,
                measure_end_ps,
                ..
            } => {
                for (si, s) in sources.iter().enumerate() {
                    let gap = exp_gap(cfg, s.templates[0].1, *load, inj.source_rng(si));
                    if gap < *measure_end_ps {
                        inj.schedule_arrival(gap, si as u32, s.endpoint);
                    }
                }
            }
            Feed::Jobs(jobs) => jobs.start(inj),
        }
    }

    /// One `NextMessage` arrival of source `source` at `now`. A steady source
    /// injects its next template message through the NIC and schedules its
    /// next arrival, drawing from its stream in a fixed order: pattern, then
    /// gap.
    pub fn arrive(&mut self, inj: &mut impl Injector, source: u32, now: u64) {
        match self {
            Feed::Drain => unreachable!("a finite phase has no sources"),
            Feed::Sources {
                sources,
                pattern,
                cfg,
                load,
                measure_end_ps,
            } => {
                let si = source as usize;
                let s = &mut sources[si];
                let (mut dst, bytes) = s.templates[s.next_template % s.templates.len()];
                s.next_template += 1;
                if let Some(p) = pattern {
                    dst = p.dst(s.endpoint, inj.source_rng(si));
                }
                let t = now.max(s.nic_free_ps);
                s.nic_free_ps = inj.inject(t, s.endpoint, dst, bytes, UNTAGGED);
                // Next arrival of the (open-loop) Poisson process, measured
                // from this arrival.
                let next = now + exp_gap(cfg, bytes, *load, inj.source_rng(si));
                if next < *measure_end_ps {
                    inj.schedule_arrival(next, source, s.endpoint);
                }
            }
            Feed::Jobs(jobs) => jobs.on_arrival(inj, source as usize, now),
        }
    }

    /// Hand the collective messages the last event completed to the jobs
    /// runtime, which releases whatever they unblock.
    pub fn release(&mut self, inj: &mut impl Injector) {
        if let Feed::Jobs(jobs) = self {
            while let Some((tag, t)) = inj.pop_completed() {
                jobs.on_delivered(inj, tag, t);
            }
        }
    }

    /// Report the jobs runtime's completed ranks once the loop has ended.
    pub fn finish(&self, stats: &mut StatsCollector) {
        if let Feed::Jobs(jobs) = self {
            jobs.report_ranks_completed(stats);
        }
    }
}

/// Shared runtime-liveness state for fault-script runs: which directed links
/// and routers are currently dead, when each link last died (for mid-flight
/// drop detection), and a per-router component label over the alive subgraph
/// (the cheap oracle re-patch — O(V+E) per fault event instead of a full
/// O(n·d) distance rebuild). Used identically by the sequential and PDES
/// engines so their liveness views can never diverge.
pub(crate) struct FaultRuntime {
    pub timeline: Arc<FaultTimeline>,
    /// Per-directed-link down *counters*: overlapping failures stack, so two
    /// downs need two ups (or a heal-all) before the link is alive again.
    link_down: Vec<u16>,
    /// Per-router down counters (same stacking semantics).
    router_down: Vec<u16>,
    /// Last time each directed link transitioned up→down (`0` = never): a
    /// packet whose flight window contains this instant was lost on the wire.
    pub last_down_ps: Vec<u64>,
    /// Connected-component label per router over the alive subgraph
    /// (`u32::MAX` for dead routers), refreshed after every fault event.
    comp: Vec<u32>,
    /// Detour hop budget: a packet exceeding it is dropped (`TtlExceeded`)
    /// rather than orbiting a degraded region forever.
    pub ttl: u32,
}

impl FaultRuntime {
    pub fn new(net: &SimNetwork, timeline: Arc<FaultTimeline>) -> Self {
        let g = net.graph();
        let mut fr = FaultRuntime {
            timeline,
            link_down: vec![0; net.num_directed_links()],
            router_down: vec![0; g.num_vertices()],
            last_down_ps: vec![0; net.num_directed_links()],
            comp: Vec::new(),
            ttl: 4 * (net.diameter().max(1) as u32) + 8,
        };
        fr.repatch(net);
        fr
    }

    #[inline]
    pub fn link_dead(&self, link: usize) -> bool {
        self.link_down[link] > 0
    }

    #[inline]
    pub fn link_alive(&self, link: usize) -> bool {
        self.link_down[link] == 0
    }

    #[inline]
    pub fn router_dead(&self, r: VertexId) -> bool {
        self.router_down[r as usize] > 0
    }

    /// Whether `a` and `b` sit in the same alive component (always true for
    /// `a == b` on an alive router).
    #[inline]
    pub fn reachable(&self, a: VertexId, b: VertexId) -> bool {
        let ca = self.comp[a as usize];
        ca != u32::MAX && ca == self.comp[b as usize]
    }

    /// Why a packet from router `src` to router `dst` must drop at its NIC:
    /// an endpoint router is down, or no alive path joins the two.
    pub fn inject_drop(&self, src: VertexId, dst: VertexId) -> Option<DropReason> {
        if self.router_dead(src) || self.router_dead(dst) {
            Some(DropReason::RouterDown)
        } else if !self.reachable(src, dst) {
            Some(DropReason::NoRoute)
        } else {
            None
        }
    }

    /// Why a packet resident at `router` after `hops` hops must drop instead
    /// of heading for `target`: it exceeded the detour TTL, or no alive path
    /// can exist (drop now instead of wandering).
    pub fn transit_drop(
        &self,
        hops: u32,
        router: VertexId,
        target: VertexId,
    ) -> Option<DropReason> {
        if hops >= self.ttl {
            Some(DropReason::TtlExceeded)
        } else if !self.reachable(router, target) {
            Some(DropReason::NoRoute)
        } else {
            None
        }
    }

    /// The link a packet at `router` takes toward `target` when its routing
    /// choice is dead: the best alive port, greedy on static distance and
    /// RNG-free, so the engines' decision streams are not perturbed. `via` is
    /// the link the packet arrived on (U-turn avoidance); `hops` and
    /// `attempts` salt the tie-break. `None` when every port toward the
    /// target is dead.
    pub fn detour_link(
        &self,
        net: &SimNetwork,
        router: VertexId,
        target: VertexId,
        via: u32,
        hops: u32,
        attempts: u32,
    ) -> Option<usize> {
        let prev = (via != u32::MAX).then(|| net.link_owner(via as usize).0);
        let salt = hops.wrapping_add(attempts.wrapping_mul(31));
        routing::best_alive_port(net, router, target, prev, salt, |l| {
            if !self.link_alive(l) {
                return false;
            }
            // Static distance can point into a component the damage has cut
            // off from the target — require the next hop to share the
            // target's alive component.
            let (r, p) = net.link_owner(l);
            self.reachable(net.link_target(r, p), target)
        })
        .map(|p| net.link_id(router, p))
    }

    /// Mark one directed link down, recording the transition time and
    /// returning whether this was an up→down edge (first down).
    fn down_link(&mut self, link: usize, now: u64, newly: &mut Vec<usize>) {
        self.link_down[link] += 1;
        if self.link_down[link] == 1 {
            self.last_down_ps[link] = now;
            newly.push(link);
        }
    }

    /// Apply one timeline event to the liveness masks. Returns the directed
    /// links that just transitioned up→down — the engine must flush their
    /// queues. Router events take their incident links down/up with them.
    pub fn apply(&mut self, net: &SimNetwork, ev: &FaultEvent, now: u64) -> Vec<usize> {
        let g = net.graph();
        let mut newly = Vec::new();
        match ev.kind {
            FaultEventKind::LinkDown { u, v } => {
                for (a, b) in [(u, v), (v, u)] {
                    if let Some(l) = net.directed_link_between(a, b) {
                        self.down_link(l, now, &mut newly);
                    }
                }
            }
            FaultEventKind::LinkUp { u, v } => {
                for (a, b) in [(u, v), (v, u)] {
                    if let Some(l) = net.directed_link_between(a, b) {
                        self.link_down[l] = self.link_down[l].saturating_sub(1);
                    }
                }
            }
            FaultEventKind::RouterDown { r } => {
                self.router_down[r as usize] += 1;
                for p in 0..g.degree(r) {
                    let nbr = g.neighbors(r)[p];
                    self.down_link(net.link_id(r, p), now, &mut newly);
                    if let Some(back) = net.directed_link_between(nbr, r) {
                        self.down_link(back, now, &mut newly);
                    }
                }
            }
            FaultEventKind::RouterUp { r } => {
                self.router_down[r as usize] = self.router_down[r as usize].saturating_sub(1);
                for p in 0..g.degree(r) {
                    let nbr = g.neighbors(r)[p];
                    let l = net.link_id(r, p);
                    self.link_down[l] = self.link_down[l].saturating_sub(1);
                    if let Some(back) = net.directed_link_between(nbr, r) {
                        self.link_down[back] = self.link_down[back].saturating_sub(1);
                    }
                }
            }
            FaultEventKind::HealAll => {
                self.link_down.fill(0);
                self.router_down.fill(0);
            }
        }
        self.repatch(net);
        newly
    }

    /// Arm a liveness view over `timeline`. A finite phase starting at
    /// `Some(phase_start)` begins fast-forwarded to that boundary: entries up
    /// to it apply as pure mask flips (no queue flushing — no packets exist
    /// yet). A steady run (`None`) schedules every entry as a live event.
    /// Returns the runtime and the first entry still to schedule live, as
    /// `(time, index)`.
    pub fn arm(
        net: &SimNetwork,
        timeline: &Arc<FaultTimeline>,
        phase_start: Option<u64>,
    ) -> (Box<Self>, Option<(u64, u32)>) {
        let mut fr = Box::new(FaultRuntime::new(net, Arc::clone(timeline)));
        let mut idx = 0;
        let events = &timeline.events;
        while idx < events.len() && phase_start.is_some_and(|t| events[idx].time_ps <= t) {
            fr.apply(net, &events[idx], events[idx].time_ps);
            idx += 1;
        }
        let first = events.get(idx).map(|e| (e.time_ps, idx as u32));
        (fr, first)
    }

    /// Recompute alive-component labels: one BFS sweep over the alive
    /// subgraph, O(V+E).
    fn repatch(&mut self, net: &SimNetwork) {
        let g = net.graph();
        let n = g.num_vertices();
        self.comp.clear();
        self.comp.resize(n, u32::MAX);
        let mut queue: VecDeque<VertexId> = VecDeque::new();
        let mut next_label = 0u32;
        for start in 0..n as VertexId {
            if self.comp[start as usize] != u32::MAX || self.router_down[start as usize] > 0 {
                continue;
            }
            let label = next_label;
            next_label += 1;
            self.comp[start as usize] = label;
            queue.push_back(start);
            while let Some(r) = queue.pop_front() {
                for p in 0..g.degree(r) {
                    let nbr = g.neighbors(r)[p];
                    if self.comp[nbr as usize] != u32::MAX
                        || self.router_down[nbr as usize] > 0
                        || self.link_down[net.link_id(r, p)] > 0
                    {
                        continue;
                    }
                    self.comp[nbr as usize] = label;
                    queue.push_back(nbr);
                }
            }
        }
    }
}

/// Mutable state of one event loop, grouped to keep borrows manageable.
struct EngineState {
    /// Packet arena; freed slots are recycled through `free`.
    packets: Vec<Packet>,
    free: Vec<usize>,
    link_queue: Vec<VecDeque<usize>>,
    /// Per-link queue depths, mirrored from `link_queue` on every push/pop: the
    /// flat array the routing hot path reads ([`RoutingCtx::queue_len`]) without
    /// touching the `VecDeque` headers.
    link_qlen: Vec<u32>,
    link_free_at: Vec<u64>,
    /// occupancy[router * num_vcs + vc]
    occupancy: Vec<u32>,
    /// Per-router sum of `occupancy` across VCs, maintained incrementally so the
    /// UGAL-G congestion signal is one read (verified against the per-VC sum in
    /// debug builds on every query — see [`RoutingCtx::router_occupancy`]).
    router_occ: Vec<u32>,
    /// Reused scan-fallback buffers for minimal-port queries.
    route_scratch: RouteScratch,
    /// waiters[router * num_vcs + vc]: links whose head packet is blocked on the slot.
    waiters: Vec<VecDeque<usize>>,
    /// Whether a link is currently parked on some waiter list.
    link_parked: Vec<bool>,
    parked_count: usize,
    pending_inject: Vec<VecDeque<usize>>,
    /// Per-router depths of `pending_inject`, so the admit check on every
    /// transmit/arrive is one cached read for the common empty case.
    pending_len: Vec<u32>,
    queue: CalendarQueue<Event>,
    seq: u64,
    msg_packets_left: Vec<u32>,
    msg_first_inject: Vec<u64>,
    /// Message slots recycled by the steady-state loops (finite runs never free).
    msg_free: Vec<usize>,
    /// Whether completed message slots return to `msg_free`.
    recycle_msgs: bool,
    /// Collective messages fully delivered during the current event, handed
    /// to the jobs runtime after it (empty unless [`SimConfig::jobs`] is set).
    jobs_completed: Vec<(MsgTag, u64)>,
    phase_end: u64,
    /// Running delivery totals (all packets), for the time-series samples.
    delivered_packets_total: u64,
    delivered_bytes_total: u64,
    /// Totals as of the previous sampling tick.
    sampled_packets: u64,
    sampled_bytes: u64,
    counters: EngineCounters,
    /// Runtime fault machinery — `None` unless a fault script is configured,
    /// so pristine runs skip every liveness check (and stay bit-identical to
    /// builds without this subsystem).
    fault: Option<Box<FaultRuntime>>,
    /// Drop / retransmission / recovery accounting for this loop.
    fstats: FaultStats,
    /// Whether a message lost a packet terminally (its completion must not be
    /// recorded as a delivered message).
    msg_failed: Vec<bool>,
    /// Jobs-mode tenant tag per message slot (empty unless [`SimConfig::jobs`]
    /// is set, so every other mode skips the tenant accounting entirely).
    msg_tag: Vec<MsgTag>,
}

impl EngineState {
    fn new(net: &SimNetwork, cfg: &SimConfig) -> Self {
        // Bucket the calendar around the packet serialization time — the natural
        // spacing of transmit/arrive events — with an ample ring so only genuinely
        // far-future events (distant injections) spill into the overflow heap.
        let width = (cfg.serialization_ps(cfg.packet_size_bytes) / 4).max(1);
        EngineState {
            packets: Vec::new(),
            free: Vec::new(),
            link_queue: vec![VecDeque::new(); net.num_directed_links()],
            link_qlen: vec![0; net.num_directed_links()],
            link_free_at: vec![0; net.num_directed_links()],
            occupancy: vec![0; net.num_routers() * cfg.num_vcs],
            router_occ: vec![0; net.num_routers()],
            route_scratch: RouteScratch::default(),
            waiters: vec![VecDeque::new(); net.num_routers() * cfg.num_vcs],
            link_parked: vec![false; net.num_directed_links()],
            parked_count: 0,
            pending_inject: vec![VecDeque::new(); net.num_routers()],
            pending_len: vec![0; net.num_routers()],
            queue: CalendarQueue::new(width, 1024),
            seq: 0,
            msg_packets_left: Vec::new(),
            msg_first_inject: Vec::new(),
            msg_free: Vec::new(),
            recycle_msgs: false,
            jobs_completed: Vec::new(),
            phase_end: 0,
            delivered_packets_total: 0,
            delivered_bytes_total: 0,
            sampled_packets: 0,
            sampled_bytes: 0,
            counters: EngineCounters::default(),
            fault: None,
            fstats: FaultStats::default(),
            msg_failed: Vec::new(),
            msg_tag: Vec::new(),
        }
    }

    fn push(&mut self, time: u64, kind: EventKind) {
        self.seq += 1;
        self.queue.push(Event {
            time,
            seq: self.seq,
            kind,
        });
    }

    /// Arm the fault runtime for a configured script (see
    /// [`FaultRuntime::arm`]) and chain its first live event.
    fn arm_faults(
        &mut self,
        net: &SimNetwork,
        timeline: &Option<Arc<FaultTimeline>>,
        phase_start: Option<u64>,
    ) {
        if let Some(tl) = timeline {
            let (fr, first) = FaultRuntime::arm(net, tl, phase_start);
            if let Some((t, idx)) = first {
                self.push(t, EventKind::Fault { idx });
            }
            self.fault = Some(fr);
        }
    }

    /// Enqueue a packet on a link's output queue, keeping the flat depth mirror
    /// in sync.
    #[inline]
    fn link_push(&mut self, link: usize, pi: usize) {
        self.link_queue[link].push_back(pi);
        self.link_qlen[link] += 1;
        debug_assert_eq!(self.link_qlen[link] as usize, self.link_queue[link].len());
    }

    /// Dequeue the head packet of a link's output queue, keeping the flat depth
    /// mirror in sync.
    #[inline]
    fn link_pop(&mut self, link: usize) -> Option<usize> {
        let head = self.link_queue[link].pop_front();
        if head.is_some() {
            self.link_qlen[link] -= 1;
        }
        debug_assert_eq!(self.link_qlen[link] as usize, self.link_queue[link].len());
        head
    }

    /// Increment a `(router, vc)` buffer slot together with the router's
    /// incremental occupancy total.
    #[inline]
    fn occ_inc(&mut self, router: VertexId, slot: usize) {
        self.occupancy[slot] += 1;
        self.router_occ[router as usize] += 1;
    }

    /// Decrement a `(router, vc)` buffer slot together with the router's total,
    /// mirroring the former `saturating_sub` exactly (a decrement of an empty slot
    /// is a no-op on both counters, so they can never diverge).
    #[inline]
    fn occ_dec(&mut self, router: VertexId, slot: usize) {
        if self.occupancy[slot] > 0 {
            self.occupancy[slot] -= 1;
            self.router_occ[router as usize] -= 1;
        }
    }

    /// Allocate a packet slot, reusing a freed one when available.
    fn alloc_packet(&mut self, p: Packet) -> usize {
        match self.free.pop() {
            Some(i) => {
                self.packets[i] = p;
                i
            }
            None => {
                // Event payloads index the arena as u32 (24-byte events); an
                // arena past 4G slots would be a >200 GB run, but fail loudly
                // rather than truncate.
                assert!(
                    self.packets.len() < u32::MAX as usize,
                    "packet arena exceeded u32 index space"
                );
                self.packets.push(p);
                self.packets.len() - 1
            }
        }
    }

    /// Wake the FIFO-head link parked on `slot` — exactly one, because exactly
    /// one buffer unit freed. Waking every waiter would be a thundering herd:
    /// all but one re-park, costing O(waiters²) events to drain a list. One
    /// wakeup per free loses nothing — if the woken link finds the slot
    /// reclaimed it re-parks at the back, and the reclaimer's own departure
    /// wakes the next waiter. Deterministic (FIFO park order).
    fn wake_waiters(&mut self, slot: usize, now: u64) {
        if let Some(link) = self.waiters[slot].pop_front() {
            self.link_parked[link] = false;
            self.parked_count -= 1;
            self.counters.wakeups += 1;
            let t = now.max(self.link_free_at[link]);
            self.push(t, EventKind::TryTransmit { link: link as u32 });
        }
    }
}

/// The packet-level simulator (wakeup-driven engine).
pub struct Simulator<'a> {
    net: &'a SimNetwork,
    cfg: &'a SimConfig,
    /// The routing algorithm, resolved once from the registry at construction.
    router: Box<dyn Router>,
}

/// The sequential engine's [`Injector`]: messages go through the packet
/// arena, arrivals are sequenced calendar events, and steady sources draw
/// from the run's shared stream.
struct SeqInjector<'s, 'a> {
    sim: &'s Simulator<'a>,
    st: &'s mut EngineState,
    stats: &'s mut StatsCollector,
    rng: &'s mut StdRng,
}

impl Injector for SeqInjector<'_, '_> {
    fn inject(&mut self, mut t: u64, src_ep: usize, dst_ep: usize, bytes: u64, tag: MsgTag) -> u64 {
        let SeqInjector { sim, st, stats, .. } = self;
        let segments = segment_message(sim.cfg, bytes);
        // Message slots are recycled on completion, so long runs stay bounded
        // by in-flight messages, mirroring the packet arena.
        let mi = match st.msg_free.pop() {
            Some(i) => {
                st.msg_packets_left[i] = segments.len() as u32;
                st.msg_first_inject[i] = t;
                st.msg_failed[i] = false;
                i
            }
            None => {
                st.msg_packets_left.push(segments.len() as u32);
                st.msg_first_inject.push(t);
                st.msg_failed.push(false);
                st.msg_packets_left.len() - 1
            }
        };
        if tag.tenant != u32::MAX {
            if mi == st.msg_tag.len() {
                st.msg_tag.push(tag);
            } else {
                st.msg_tag[mi] = tag;
            }
            stats.note_tenant_injection(tag.tenant, bytes, t);
        }
        for (pkt_bytes, nic_ser) in segments {
            let packet = Packet {
                src_router: sim.net.router_of_endpoint(src_ep),
                dst_router: sim.net.router_of_endpoint(dst_ep),
                bytes: pkt_bytes,
                inject_time_ps: t,
                hops: 0,
                routing: RoutingState::default(),
                msg: mi,
                via_link: u32::MAX,
                attempts: 0,
                first_drop_ps: u64::MAX,
            };
            let pi = st.alloc_packet(packet);
            if st.fault.is_some() {
                st.fstats.injected += 1;
            }
            stats.note_injection(t);
            st.push(t, EventKind::Inject { packet: pi as u32 });
            t += nic_ser;
        }
        t
    }

    fn schedule_arrival(&mut self, t: u64, source: u32, _endpoint: usize) {
        self.st.push(t, EventKind::NextMessage { source });
    }

    fn source_rng(&mut self, _source: usize) -> &mut StdRng {
        self.rng
    }

    fn pop_completed(&mut self) -> Option<(MsgTag, u64)> {
        self.st.jobs_completed.pop()
    }
}

impl Engine for Simulator<'_> {
    /// Run one [`Segment`] on fresh engine state. A finite phase loads its
    /// packetized schedule, arms the fault runtime fast-forwarded to the
    /// phase boundary, and must drain to empty. A windowed run arms every
    /// fault entry as a live event, starts its traffic feed and the sample
    /// tick, and abandons whatever is in flight at the drain deadline.
    fn run_segment(&self, seg: Segment<'_>, rs: &mut RunState) -> Result<u64, SimError> {
        let mut st = EngineState::new(self.net, self.cfg);
        let (mut feed, window) = match seg {
            Segment::Phase { start, sched, .. } => {
                st.msg_failed = vec![false; sched.msg_packets_left.len()];
                st.packets = sched.packets;
                st.msg_packets_left = sched.msg_packets_left;
                st.msg_first_inject = sched.msg_first_inject;
                for &pi in &sched.injections {
                    let t = st.packets[pi].inject_time_ps;
                    st.push(t, EventKind::Inject { packet: pi as u32 });
                }
                st.arm_faults(self.net, &rs.timeline, Some(start));
                if st.fault.is_some() {
                    st.fstats.injected = st.packets.len() as u64;
                }
                (Feed::Drain, None)
            }
            Segment::Window(window) => {
                st.recycle_msgs = true;
                st.arm_faults(self.net, &rs.timeline, None);
                let mut feed = Feed::new(self.net, self.cfg, window, |_| true);
                feed.start(&mut self.injector(&mut st, rs));
                let first_sample = window.w.sample_interval_ps.max(1);
                if first_sample <= window.w.deadline_ps() {
                    st.push(first_sample, EventKind::Sample);
                }
                (feed, Some(window.w))
            }
        };
        let deadline = window.map_or(u64::MAX, |w| w.deadline_ps());

        while let Some(ev) = st.queue.pop() {
            if ev.time > deadline {
                // Drain deadline: abandon whatever is still in flight (above
                // saturation the queues would never empty).
                break;
            }
            st.counters.events += 1;
            st.counters.arena_slots = st.counters.arena_slots.max(st.packets.len() as u64);
            match ev.kind {
                EventKind::NextMessage { source } => {
                    feed.arrive(&mut self.injector(&mut st, rs), source, ev.time)
                }
                EventKind::Sample => {
                    let w = window.expect("sample ticks run in windowed segments only");
                    self.record_sample(ev.time, w, &mut st, &mut rs.stats)
                }
                _ => self.handle_event(ev, &mut st, &mut rs.rng, &mut rs.stats),
            }
            if !st.jobs_completed.is_empty() {
                feed.release(&mut self.injector(&mut st, rs));
            }
        }
        feed.finish(&mut rs.stats);

        if window.is_none() {
            // Every packet must have been delivered (or, under a fault
            // script, terminally failed); anything else is an engine bug — or
            // a genuine buffer deadlock, which the wakeup engine turns into a
            // detectable quiescent state (the polling engine it replaced
            // would spin on retries forever).
            let undelivered: u32 = st.msg_packets_left.iter().sum();
            if undelivered > 0 {
                return Err(undelivered_error(
                    undelivered as u64,
                    st.parked_count,
                    st.link_queue.iter().map(|q| q.len()).sum(),
                    st.pending_inject.iter().map(|q| q.len()).sum(),
                    st.occupancy.iter().sum(),
                ));
            }
            debug_assert_eq!(st.parked_count, 0, "drained run left links parked");
        }
        rs.stats.record_engine(&st.counters);
        rs.faults.merge(&st.fstats);
        Ok(st.phase_end)
    }
}

impl<'a> Simulator<'a> {
    /// Create a simulator over a network with a configuration.
    ///
    /// # Panics
    /// If `cfg.routing` does not name a registered routing algorithm
    /// (see [`crate::routing`]).
    pub fn new(net: &'a SimNetwork, cfg: &'a SimConfig) -> Self {
        let router = create_router(net, cfg);
        Simulator { net, cfg, router }
    }

    /// Run the workload with message injections spaced exactly as the workload specifies
    /// (each source's messages additionally serialized through its NIC).
    ///
    /// Measurement windows, if configured, are ignored here: phased application
    /// workloads are finite by nature and run to completion.
    ///
    /// # Panics
    /// On a degraded network, if the workload is infeasible on the surviving
    /// graph — use [`Simulator::try_run`] to handle the [`crate::FaultError`]
    /// instead.
    pub fn run(&self, workload: &Workload) -> SimResults {
        self.try_run(workload).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Simulator::run`], rejecting workloads that a fault plan has made
    /// infeasible: a referenced endpoint on a down router yields
    /// [`crate::FaultError::RouterDown`], a message pair separated by the
    /// damage yields [`crate::FaultError::Disconnected`] — both *before* any
    /// simulation work, never as a hang or a mid-run panic. A run that
    /// quiesces with packets parked in a cyclic head-of-line wait yields
    /// [`SimError::Deadlock`]. On pristine networks without a fault script
    /// this never errs.
    pub fn try_run(&self, workload: &Workload) -> Result<SimResults, SimError> {
        drive(self, self.net, self.cfg, workload, None)
    }

    /// Run the workload with Poisson-spaced injections corresponding to an offered load in
    /// `(0, 1]` — the fraction of endpoint injection bandwidth the sources try to use
    /// (the x-axis of Figures 6–8 in the paper).
    ///
    /// Without [`SimConfig::windows`] this is a finite run: every workload message is
    /// injected once (Poisson-spaced) and the network drains to empty. With windows
    /// configured the run switches to **continuous per-endpoint Poisson sources** and
    /// steady-state measurement (see [`crate::config::MeasurementWindows`]).
    ///
    /// # Panics
    /// On a degraded network, if the run is infeasible on the surviving graph
    /// — use [`Simulator::try_run_with_offered_load`] to handle the
    /// [`crate::FaultError`] instead.
    pub fn run_with_offered_load(&self, workload: &Workload, offered_load: f64) -> SimResults {
        self.try_run_with_offered_load(workload, offered_load)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Simulator::run_with_offered_load`], rejecting runs that a fault plan
    /// has made infeasible. Finite runs validate every workload message pair
    /// (like [`Simulator::try_run`]). Steady-state runs with a live
    /// destination pattern ([`crate::config::MeasurementWindows::pattern`])
    /// instead require every surviving router to sit in one connected
    /// component ([`crate::FaultError::Fragmented`] otherwise): the pattern
    /// draws destinations across the whole surviving machine, and injection
    /// is restricted to the endpoints of alive routers.
    ///
    /// The pattern's endpoint space is the *compacted* alive-endpoint rank
    /// space. Uniform patterns are unaffected, but group-structured specs
    /// (`adversarial(g)`, `nearest-group(g)`) see group boundaries shift by
    /// however many endpoints died before them — once routers are down,
    /// treat group-aligned results as approximate (or pass a group size in
    /// surviving-rank units).
    pub fn try_run_with_offered_load(
        &self,
        workload: &Workload,
        offered_load: f64,
    ) -> Result<SimResults, SimError> {
        drive(self, self.net, self.cfg, workload, Some(offered_load))
    }

    /// The sequential engine's [`Injector`] over one loop's state.
    fn injector<'s>(
        &'s self,
        st: &'s mut EngineState,
        rs: &'s mut RunState,
    ) -> SeqInjector<'s, 'a> {
        SeqInjector {
            sim: self,
            st,
            stats: &mut rs.stats,
            rng: &mut rs.rng,
        }
    }

    /// Record one steady-state time-series tick and schedule the next.
    fn record_sample(
        &self,
        now: u64,
        w: &MeasurementWindows,
        st: &mut EngineState,
        stats: &mut StatsCollector,
    ) {
        let queued: usize = st.link_queue.iter().map(|q| q.len()).sum();
        let links = st.link_queue.len().max(1);
        stats.record_sample(IntervalSample {
            t_ps: now,
            delivered_bytes: st.delivered_bytes_total - st.sampled_bytes,
            delivered_packets: st.delivered_packets_total - st.sampled_packets,
            mean_queue_depth: queued as f64 / links as f64,
            blocked_links: st.parked_count,
        });
        st.sampled_bytes = st.delivered_bytes_total;
        st.sampled_packets = st.delivered_packets_total;
        let next = now + w.sample_interval_ps.max(1);
        if next <= w.deadline_ps() {
            st.push(next, EventKind::Sample);
        }
    }

    /// Process one core event (injection, transmission, arrival, fault).
    fn handle_event(
        &self,
        ev: Event,
        st: &mut EngineState,
        rng: &mut StdRng,
        stats: &mut StatsCollector,
    ) {
        let now = ev.time;
        let cap = self.cfg.buffer_packets_per_vc as u32;
        match ev.kind {
            EventKind::Inject { packet } => {
                let packet = packet as usize;
                let router = st.packets[packet].src_router;
                let drop = (st.fault.as_deref())
                    .and_then(|f| f.inject_drop(router, st.packets[packet].dst_router));
                if let Some(reason) = drop {
                    // The packet never entered a buffer — pure NIC-side drop.
                    self.drop_packet(packet, now, reason, st);
                    return;
                }
                let slot = router as usize * self.cfg.num_vcs;
                if st.occupancy[slot] < cap {
                    st.occ_inc(router, slot);
                    self.enter_router(packet, router, now, st, rng, stats);
                    self.admit_pending(router, now, st, cap);
                } else {
                    st.pending_inject[router as usize].push_back(packet);
                    st.pending_len[router as usize] += 1;
                }
            }
            EventKind::TryTransmit { link } => {
                let link = link as usize;
                if st.fault.as_deref().is_some_and(|fr| fr.link_dead(link)) {
                    // Defensive: the fault event flushed this queue, but a
                    // same-timestamp transmit may still have been in flight.
                    self.flush_dead_link(link, now, DropReason::LinkDown, st);
                    return;
                }
                if st.link_parked[link] {
                    // Already on a waiter list; the slot-free wakeup will retry.
                    return;
                }
                let Some(&pi) = st.link_queue[link].front() else {
                    return;
                };
                if st.link_free_at[link] > now {
                    let t = st.link_free_at[link];
                    st.push(t, EventKind::TryTransmit { link: link as u32 });
                    return;
                }
                let (src_router, port) = self.net.link_owner(link);
                let dst_router = self.net.link_target(src_router, port);
                let vc = (st.packets[pi].hops as usize).min(self.cfg.num_vcs - 1);
                let next_vc = (st.packets[pi].hops as usize + 1).min(self.cfg.num_vcs - 1);
                let down = dst_router as usize * self.cfg.num_vcs + next_vc;
                if st.occupancy[down] >= cap {
                    // Wakeup-driven backpressure: park on the downstream slot's
                    // waiter list; no timed retry is ever scheduled.
                    st.link_parked[link] = true;
                    st.parked_count += 1;
                    st.waiters[down].push_back(link);
                    st.counters.blocked_parks += 1;
                    return;
                }
                st.link_pop(link);
                let up = src_router as usize * self.cfg.num_vcs + vc;
                st.occ_dec(src_router, up);
                st.occ_inc(dst_router, down);
                if vc == 0 {
                    self.admit_pending(src_router, now, st, cap);
                }
                st.wake_waiters(up, now);
                let ser = self.cfg.serialization_ps(st.packets[pi].bytes);
                let start = now.max(st.link_free_at[link]);
                st.link_free_at[link] = start + ser;
                let arrive =
                    start + ser + self.cfg.link_latency_ps() + self.cfg.router_latency_ps();
                st.packets[pi].hops += 1;
                st.packets[pi].via_link = link as u32;
                st.push(
                    arrive,
                    EventKind::Arrive {
                        packet: pi as u32,
                        router: dst_router,
                    },
                );
                if !st.link_queue[link].is_empty() {
                    let t = st.link_free_at[link];
                    st.push(t, EventKind::TryTransmit { link: link as u32 });
                }
            }
            EventKind::Arrive { packet, router } => {
                let pi = packet as usize;
                if st.fault.is_some() {
                    let via = st.packets[pi].via_link;
                    let ser = self.cfg.serialization_ps(st.packets[pi].bytes);
                    let flight_start = now.saturating_sub(
                        ser + self.cfg.link_latency_ps() + self.cfg.router_latency_ps(),
                    );
                    let crossed_dead_link = via != u32::MAX
                        && st.fault.as_deref().unwrap().last_down_ps[via as usize] > flight_start;
                    if crossed_dead_link {
                        // The link died under the packet mid-flight: release the
                        // downstream buffer the transmit reserved, then drop.
                        let vc = (st.packets[pi].hops as usize).min(self.cfg.num_vcs - 1);
                        let slot = router as usize * self.cfg.num_vcs + vc;
                        st.occ_dec(router, slot);
                        st.wake_waiters(slot, now);
                        self.drop_packet(pi, now, DropReason::LinkDown, st);
                        self.admit_pending(router, now, st, cap);
                        return;
                    }
                    // `via_link` is deliberately left set: `enter_router`'s
                    // liveness fallback reads it as the arrival port (U-turn
                    // avoidance), and the next transmit overwrites it anyway.
                }
                self.enter_router(pi, router, now, st, rng, stats);
                self.admit_pending(router, now, st, cap);
            }
            EventKind::Fault { idx } => {
                self.apply_fault(idx as usize, now, st);
            }
            EventKind::NextMessage { .. } | EventKind::Sample => {
                unreachable!("feed and sample events are handled by the run loop")
            }
        }
    }

    /// Apply fault-timeline entry `idx`: flip the liveness masks, flush the
    /// queues of every link that just died (dropping their packets into the
    /// retransmission path), evict injections pending at a router that just
    /// died, and chain the next timeline entry.
    fn apply_fault(&self, idx: usize, now: u64, st: &mut EngineState) {
        let mut fr = st.fault.take().expect("fault event without fault runtime");
        st.fstats.fault_events += 1;
        let ev = fr.timeline.events[idx];
        let reason = match ev.kind {
            FaultEventKind::RouterDown { .. } => DropReason::RouterDown,
            _ => DropReason::LinkDown,
        };
        let newly_dead = fr.apply(self.net, &ev, now);
        if idx + 1 < fr.timeline.events.len() {
            let t = fr.timeline.events[idx + 1].time_ps;
            st.push(
                t,
                EventKind::Fault {
                    idx: idx as u32 + 1,
                },
            );
        }
        st.fault = Some(fr);
        for link in newly_dead {
            self.flush_dead_link(link, now, reason, st);
        }
        if let FaultEventKind::RouterDown { r } = ev.kind {
            while let Some(pi) = st.pending_inject[r as usize].pop_front() {
                st.pending_len[r as usize] -= 1;
                self.drop_packet(pi, now, DropReason::RouterDown, st);
            }
        }
    }

    /// Drop every packet occupying or queued on a dead directed link,
    /// releasing their upstream buffers (waking waiters exactly as a normal
    /// departure would) and un-parking the link itself if it was waiting on a
    /// downstream slot.
    fn flush_dead_link(&self, link: usize, now: u64, reason: DropReason, st: &mut EngineState) {
        let cap = self.cfg.buffer_packets_per_vc as u32;
        let (src_router, port) = self.net.link_owner(link);
        if st.link_parked[link] {
            // The single-FIFO wakeup protocol pops exactly one waiter per
            // buffer free; a dead link left on a waiter list would either eat
            // a wakeup meant for a live link or revive a flushed queue.
            let &head = st.link_queue[link]
                .front()
                .expect("parked link with an empty queue");
            let next_vc = (st.packets[head].hops as usize + 1).min(self.cfg.num_vcs - 1);
            let dst_router = self.net.link_target(src_router, port);
            let down = dst_router as usize * self.cfg.num_vcs + next_vc;
            let before = st.waiters[down].len();
            st.waiters[down].retain(|&l| l != link);
            debug_assert_eq!(
                st.waiters[down].len() + 1,
                before,
                "parked link not on its waiter list"
            );
            st.link_parked[link] = false;
            st.parked_count -= 1;
        }
        while let Some(pi) = st.link_pop(link) {
            let vc = (st.packets[pi].hops as usize).min(self.cfg.num_vcs - 1);
            let up = src_router as usize * self.cfg.num_vcs + vc;
            st.occ_dec(src_router, up);
            if vc == 0 {
                self.admit_pending(src_router, now, st, cap);
            }
            st.wake_waiters(up, now);
            self.drop_packet(pi, now, reason, st);
        }
    }

    /// A packet just lost its current traversal: count the typed drop, then
    /// either schedule a retransmission from its source NIC (capped
    /// exponential backoff) or retire it into the `Failed` terminal state.
    /// The caller has already released whatever buffer the packet occupied.
    fn drop_packet(&self, pi: usize, now: u64, reason: DropReason, st: &mut EngineState) {
        st.fstats.record_drop(reason);
        let (attempts, msg) = {
            let p = &mut st.packets[pi];
            if p.first_drop_ps == u64::MAX {
                p.first_drop_ps = now;
            }
            p.via_link = u32::MAX;
            (p.attempts, p.msg)
        };
        if attempts < self.cfg.retransmit_budget {
            let attempt = attempts + 1;
            {
                let p = &mut st.packets[pi];
                p.attempts = attempt;
                p.hops = 0;
                p.routing = RoutingState::default();
            }
            st.fstats.retransmits += 1;
            let t = now + self.cfg.retransmit_backoff_ps(attempt);
            st.push(t, EventKind::Inject { packet: pi as u32 });
        } else {
            st.fstats.failed += 1;
            st.free.push(pi);
            if let Some(f) = st.msg_failed.get_mut(msg) {
                *f = true;
            }
            st.msg_packets_left[msg] -= 1;
            if st.msg_packets_left[msg] == 0 && st.recycle_msgs {
                st.msg_free.push(msg);
            }
        }
    }

    /// Re-issue an injection for a waiting packet if the router now has VC-0 space.
    fn admit_pending(&self, router: VertexId, now: u64, st: &mut EngineState, cap: u32) {
        if st.pending_len[router as usize] == 0 {
            return;
        }
        let slot = router as usize * self.cfg.num_vcs;
        if st.occupancy[slot] < cap {
            if let Some(wpkt) = st.pending_inject[router as usize].pop_front() {
                st.pending_len[router as usize] -= 1;
                st.push(
                    now,
                    EventKind::Inject {
                        packet: wpkt as u32,
                    },
                );
            }
        }
    }

    /// A packet has just become resident at `router` (injection or arrival): deliver it if
    /// it is home, otherwise pick an output port and enqueue it.
    fn enter_router(
        &self,
        pi: usize,
        router: VertexId,
        now: u64,
        st: &mut EngineState,
        rng: &mut StdRng,
        stats: &mut StatsCollector,
    ) {
        st.packets[pi].routing.note_arrival(router);
        let target = st.packets[pi]
            .routing
            .current_target(st.packets[pi].dst_router);
        if target == router {
            let vc = (st.packets[pi].hops as usize).min(self.cfg.num_vcs - 1);
            let slot = router as usize * self.cfg.num_vcs + vc;
            st.occ_dec(router, slot);
            let latency = now - st.packets[pi].inject_time_ps;
            stats.record_packet(latency, st.packets[pi].hops, st.packets[pi].bytes, now);
            if let Some(tag) = st.msg_tag.get(st.packets[pi].msg) {
                // Jobs mode only (`msg_tag` is empty otherwise): attribute the
                // delivery to its tenant alongside the global accounting.
                stats.record_tenant_packet(tag.tenant, latency, st.packets[pi].bytes, now);
            }
            st.delivered_packets_total += 1;
            st.delivered_bytes_total += st.packets[pi].bytes;
            if st.fault.is_some() {
                st.fstats.record_delivery(st.packets[pi].first_drop_ps, now);
            }
            let m = st.packets[pi].msg;
            st.msg_packets_left[m] -= 1;
            if st.msg_packets_left[m] == 0 {
                // The delivery that zeroes the counter is by definition the
                // message's last delivery. A message that lost a packet
                // terminally is not a delivered message.
                if !st.msg_failed[m] {
                    let first = st.msg_first_inject[m];
                    let measured = stats.is_measured(first);
                    if measured {
                        stats.record_message(now.saturating_sub(first));
                    }
                    if let Some(&tag) = st.msg_tag.get(m) {
                        if measured {
                            stats.record_tenant_message(tag.tenant);
                        }
                        if tag.is_collective() {
                            stats.record_tenant_collective_delivery(tag.tenant, now);
                            st.jobs_completed.push((tag, now));
                        }
                    }
                }
                if st.recycle_msgs {
                    st.msg_free.push(m);
                }
            }
            st.phase_end = st.phase_end.max(now);
            st.free.push(pi);
            st.wake_waiters(slot, now);
            return;
        }
        let hops = st.packets[pi].hops;
        let drop = st
            .fault
            .as_deref()
            .and_then(|f| f.transit_drop(hops, router, target));
        if let Some(reason) = drop {
            let vc = (hops as usize).min(self.cfg.num_vcs - 1);
            let slot = router as usize * self.cfg.num_vcs + vc;
            st.occ_dec(router, slot);
            st.wake_waiters(slot, now);
            self.drop_packet(pi, now, reason, st);
            return;
        }
        let p = &mut st.packets[pi];
        let port = choose_port(
            self.net,
            self.cfg,
            self.router.as_ref(),
            &mut p.routing,
            router,
            p.dst_router,
            p.hops,
            &st.link_qlen,
            &st.occupancy,
            &st.router_occ,
            &st.link_parked,
            rng,
            &mut st.route_scratch,
        );
        // Liveness-aware port mask: only a dead routing choice falls back.
        let pristine = self.net.link_id(router, port);
        let link = match st.fault.as_deref() {
            Some(fr) if fr.link_dead(pristine) => {
                fr.detour_link(self.net, router, target, p.via_link, hops, p.attempts)
            }
            _ => Some(pristine),
        };
        let Some(link) = link else {
            // Every port toward the target is dead right now (the component
            // check above passed, so this is transient contention with the
            // fault timeline): recover through the retransmission path.
            let vc = (st.packets[pi].hops as usize).min(self.cfg.num_vcs - 1);
            let slot = router as usize * self.cfg.num_vcs + vc;
            st.occ_dec(router, slot);
            st.wake_waiters(slot, now);
            self.drop_packet(pi, now, DropReason::NoRoute, st);
            return;
        };
        // Schedule a transmit only when this enqueue makes the queue non-empty: a
        // non-empty queue already has exactly one driver in flight (a scheduled
        // TryTransmit, or a park that a wakeup will revive), and scheduling at
        // `max(now, free_at)` directly skips the pop-check-repush round-trip the
        // old schedule-at-now made against a still-serializing link.
        let was_empty = st.link_qlen[link] == 0;
        st.link_push(link, pi);
        if was_empty {
            let t = now.max(st.link_free_at[link]);
            st.push(t, EventKind::TryTransmit { link: link as u32 });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Message, Workload};
    use spectralfly_graph::CsrGraph;

    fn ring(n: usize) -> CsrGraph {
        let mut e: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        e.push((n as u32 - 1, 0));
        CsrGraph::from_edges(n, &e)
    }

    fn complete(n: usize) -> CsrGraph {
        let mut e = Vec::new();
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                e.push((u, v));
            }
        }
        CsrGraph::from_edges(n, &e)
    }

    #[test]
    fn single_packet_latency_is_deterministic_and_correct() {
        // One 4096-byte packet over exactly one hop on a 2-router network.
        let net = SimNetwork::new(complete(2), 1);
        let cfg = SimConfig::default();
        let wl = Workload::single_phase(
            "one",
            vec![Message {
                src: 0,
                dst: 1,
                bytes: 4096,
                inject_offset_ps: 0,
            }],
        );
        let res = Simulator::new(&net, &cfg).run(&wl);
        assert_eq!(res.delivered_packets, 1);
        assert_eq!(res.delivered_messages, 1);
        // Latency = serialization + link latency + router latency.
        let expected = cfg.serialization_ps(4096) + cfg.link_latency_ps() + cfg.router_latency_ps();
        assert_eq!(res.max_packet_latency_ps, expected);
        assert_eq!(res.mean_hops, 1.0);
    }

    #[test]
    fn all_packets_delivered_on_every_registered_routing_algorithm() {
        // Registry-driven conformance: every built-in algorithm must deliver every
        // packet and respect the VC/diameter hop bound implied by its own VC rule.
        // Iterates a freshly-built registry (not the process-global one) so the test
        // set cannot depend on what other tests registered concurrently.
        let net = SimNetwork::new(ring(8), 2);
        let wl = Workload::uniform_random(net.num_endpoints(), 10, 1024, 7);
        let names = routing::RouterRegistry::with_builtins().names();
        assert!(
            names.len() >= 4,
            "expected at least 4 built-ins, got {names:?}"
        );
        for name in names {
            let cfg = SimConfig::default().with_routing(name.clone(), net.diameter() as u32);
            let res = Simulator::new(&net, &cfg).run(&wl);
            assert_eq!(res.delivered_packets, 160, "{name}");
            assert_eq!(res.delivered_messages, 160, "{name}");
            assert!(res.completion_time_ps > 0, "{name}");
            assert!(
                (res.max_hops as usize) < cfg.num_vcs,
                "{name}: {} hops exceeds the VC bound {}",
                res.max_hops,
                cfg.num_vcs
            );
        }
    }

    #[test]
    fn message_segmentation_into_packets() {
        let net = SimNetwork::new(complete(3), 1);
        let cfg = SimConfig::default();
        // 10 KB message with 4 KB packets -> 3 packets, 1 message.
        let wl = Workload::single_phase(
            "big",
            vec![Message {
                src: 0,
                dst: 2,
                bytes: 10_240,
                inject_offset_ps: 0,
            }],
        );
        let res = Simulator::new(&net, &cfg).run(&wl);
        assert_eq!(res.delivered_packets, 3);
        assert_eq!(res.delivered_messages, 1);
        assert_eq!(res.delivered_bytes, 10_240);
    }

    #[test]
    fn minimal_routing_takes_shortest_paths_when_uncongested() {
        let net = SimNetwork::new(ring(10), 1);
        let cfg = SimConfig::default();
        let wl = Workload::single_phase(
            "far",
            vec![Message {
                src: 0,
                dst: 5,
                bytes: 512,
                inject_offset_ps: 0,
            }],
        );
        let res = Simulator::new(&net, &cfg).run(&wl);
        assert_eq!(res.max_hops, 5);
    }

    #[test]
    fn valiant_routes_are_longer_than_minimal() {
        let net = SimNetwork::new(ring(12), 1);
        let wl = Workload::uniform_random(12, 4, 512, 3);
        let d = net.diameter() as u32;
        let min_cfg = SimConfig::default().with_routing("minimal", d);
        let val_cfg = SimConfig::default().with_routing("valiant", d);
        let rmin = Simulator::new(&net, &min_cfg).run(&wl);
        let rval = Simulator::new(&net, &val_cfg).run(&wl);
        assert!(rval.mean_hops > rmin.mean_hops);
    }

    #[test]
    fn congestion_increases_latency_with_offered_load() {
        let net = SimNetwork::new(ring(8), 2);
        let cfg = SimConfig::default();
        let wl = Workload::uniform_random(net.num_endpoints(), 30, 4096, 5);
        let sim = Simulator::new(&net, &cfg);
        let light = sim.run_with_offered_load(&wl, 0.1);
        let heavy = sim.run_with_offered_load(&wl, 0.9);
        assert_eq!(light.delivered_packets, heavy.delivered_packets);
        assert!(
            heavy.mean_packet_latency_ps > light.mean_packet_latency_ps,
            "heavy {} vs light {}",
            heavy.mean_packet_latency_ps,
            light.mean_packet_latency_ps
        );
    }

    #[test]
    fn phased_workload_runs_phases_in_order() {
        let net = SimNetwork::new(complete(4), 1);
        let cfg = SimConfig::default();
        let phase = |src: usize, dst: usize| crate::workload::Phase {
            messages: vec![Message {
                src,
                dst,
                bytes: 2048,
                inject_offset_ps: 0,
            }],
        };
        let wl = Workload {
            phases: vec![phase(0, 1), phase(1, 2), phase(2, 3)],
            name: "phased".to_string(),
        };
        let res = Simulator::new(&net, &cfg).run(&wl);
        assert_eq!(res.delivered_messages, 3);
        // Three sequential phases take at least 3x the single-hop latency.
        let single = cfg.serialization_ps(2048) + cfg.link_latency_ps() + cfg.router_latency_ps();
        assert!(res.completion_time_ps >= 3 * single);
    }

    #[test]
    fn deterministic_given_seed() {
        let net = SimNetwork::new(ring(6), 2);
        let cfg = SimConfig::default().with_routing("ugal-l", net.diameter() as u32);
        let wl = Workload::uniform_random(net.num_endpoints(), 8, 1024, 11);
        let a = Simulator::new(&net, &cfg).run(&wl);
        let b = Simulator::new(&net, &cfg).run(&wl);
        assert_eq!(a.completion_time_ps, b.completion_time_ps);
        assert_eq!(a.max_packet_latency_ps, b.max_packet_latency_ps);
    }

    #[test]
    fn self_destination_on_same_router_is_delivered_without_hops() {
        // Two endpoints on the same router exchange a message: zero network hops.
        let net = SimNetwork::new(complete(2), 2);
        let cfg = SimConfig::default();
        let wl = Workload::single_phase(
            "local",
            vec![Message {
                src: 0,
                dst: 1,
                bytes: 256,
                inject_offset_ps: 0,
            }],
        );
        let res = Simulator::new(&net, &cfg).run(&wl);
        assert_eq!(res.delivered_packets, 1);
        assert_eq!(res.max_hops, 0);
    }

    /// The headline property of the wakeup engine: a congested run executes
    /// zero time-based retry re-enqueues — backpressure is handled entirely by
    /// waiter-list parks and wakeups (which must both be exercised here).
    #[test]
    fn congested_run_has_zero_timed_retries() {
        // A ring at offered load 0.9 with 4 endpoints per router is far beyond
        // saturation: downstream buffers fill and links block. (Buffers stay at
        // the default depth — very shallow buffers can genuinely deadlock this
        // single-FIFO-per-link model, in both engines.)
        let cfg = SimConfig::default();
        let net = SimNetwork::new(ring(8), 4);
        let wl = Workload::uniform_random(net.num_endpoints(), 100, 4096, 5);
        let res = Simulator::new(&net, &cfg).run_with_offered_load(&wl, 0.9);
        assert_eq!(
            res.engine.timed_retries, 0,
            "wakeup engine must never schedule a timed retry"
        );
        assert!(
            res.engine.blocked_parks > 0,
            "a saturated ring must actually block (got {} parks)",
            res.engine.blocked_parks
        );
        assert_eq!(
            res.engine.blocked_parks, res.engine.wakeups,
            "every parked link must be woken again in a drained run"
        );
        // Same run on the polling reference: it must retry on a timer.
        let ref_res = ReferenceSimulator::new(&net, &cfg).run_with_offered_load(&wl, 0.9);
        assert!(
            ref_res.engine.timed_retries > 0,
            "the reference engine polls under congestion"
        );
        assert_eq!(ref_res.engine.blocked_parks, 0);
    }

    use super::reference::ReferenceSimulator;

    /// Out-of-order delivery inside one message: adaptive minimal routing on a
    /// ring with an antipodal destination splits a message's packets across the
    /// two equal-length directions, so a later-injected packet can overtake an
    /// earlier one. Message latency must span first injection to last delivery.
    #[test]
    fn multi_packet_message_latency_spans_first_inject_to_last_delivery() {
        let net = SimNetwork::new(ring(8), 1);
        let cfg = SimConfig::default();
        // 10 packets from router 0 to the antipode (both directions minimal).
        let wl = Workload::single_phase(
            "antipodal",
            vec![Message {
                src: 0,
                dst: 4,
                bytes: 10 * 4096,
                inject_offset_ps: 0,
            }],
        );
        let res = Simulator::new(&net, &cfg).run(&wl);
        assert_eq!(res.delivered_packets, 10);
        assert_eq!(res.delivered_messages, 1);
        // First packet injected at t=0, so the message latency is exactly the
        // completion time, and it dominates every per-packet latency.
        assert_eq!(res.max_message_latency_ps, res.completion_time_ps);
        assert!(res.max_message_latency_ps >= res.max_packet_latency_ps);
    }

    /// Degraded topologies route around the damage: a ring with one down
    /// router still delivers everything among the survivors, the long way.
    #[test]
    fn degraded_ring_reroutes_and_delivers() {
        use crate::fault::{FaultError, FaultPlan};
        let plan = FaultPlan::parse("router(4)").unwrap();
        let net = SimNetwork::with_faults(ring(8), 1, &plan).unwrap();
        let cfg = SimConfig::default().with_routing("minimal", net.diameter() as u32);
        // 3 -> 5 minimally crossed router 4 (2 hops); now it rides the long arc.
        let wl = Workload::single_phase(
            "around",
            vec![Message {
                src: 3,
                dst: 5,
                bytes: 512,
                inject_offset_ps: 0,
            }],
        );
        let res = Simulator::new(&net, &cfg).try_run(&wl).unwrap();
        assert_eq!(res.delivered_packets, 1);
        assert_eq!(res.max_hops, 6);
        // Anything touching the down router's endpoint fails fast and typed.
        let dead = Workload::single_phase(
            "dead",
            vec![Message {
                src: 3,
                dst: 4,
                bytes: 512,
                inject_offset_ps: 0,
            }],
        );
        let err = Simulator::new(&net, &cfg).try_run(&dead).unwrap_err();
        assert_eq!(
            err,
            SimError::Fault(FaultError::RouterDown {
                endpoint: 4,
                router: 4
            })
        );
    }

    /// Steady-state live patterns on a degraded network run over the surviving
    /// machine: dead endpoints neither inject nor receive.
    #[test]
    fn degraded_steady_pattern_runs_over_survivors() {
        use crate::fault::{FaultError, FaultPlan};
        let plan = FaultPlan::parse("router(2)").unwrap();
        let net = SimNetwork::with_faults(ring(8), 2, &plan).unwrap();
        let mut cfg = SimConfig::default().with_routing("ugal-l", net.diameter() as u32);
        cfg.windows = Some(
            crate::config::MeasurementWindows::new(2_000_000, 20_000_000).with_pattern("random"),
        );
        let wl = Workload::uniform_random(net.num_endpoints(), 1, 4096, 5);
        let res = Simulator::new(&net, &cfg)
            .try_run_with_offered_load(&wl, 0.3)
            .unwrap();
        let m = res.measurement.expect("steady-state run has a summary");
        assert!(m.delivered_packets > 20, "got {}", m.delivered_packets);
        // A fragmented surviving graph is rejected up front for live patterns.
        let cut = FaultPlan::parse("link(0,7) + link(3,4)").unwrap();
        let frag = SimNetwork::with_faults(ring(8), 2, &cut).unwrap();
        let err = Simulator::new(&frag, &cfg)
            .try_run_with_offered_load(&wl, 0.3)
            .unwrap_err();
        assert_eq!(
            err,
            SimError::Fault(FaultError::Fragmented { components: 2 })
        );
    }

    /// A config that records a fault plan must be paired with a network built
    /// from that plan.
    #[test]
    #[should_panic(expected = "built pristine")]
    fn config_fault_plan_without_degraded_network_panics() {
        use crate::fault::FaultPlan;
        let net = SimNetwork::new(ring(8), 1);
        let cfg = SimConfig::default().with_fault_plan(FaultPlan::random_links(0.2));
        let _ = Simulator::new(&net, &cfg);
    }

    /// Same spec at a different seed is different damage — the config check
    /// compares the full cache key, not just the spelling.
    #[test]
    #[should_panic(expected = "does not match the network's")]
    fn config_fault_plan_with_wrong_seed_panics() {
        use crate::fault::FaultPlan;
        let net = SimNetwork::with_faults(ring(12), 1, &FaultPlan::random_links(0.2).with_seed(1))
            .unwrap();
        let cfg = SimConfig::default().with_fault_plan(FaultPlan::random_links(0.2).with_seed(2));
        let _ = Simulator::new(&net, &cfg);
    }

    /// A machine with every router down is as infeasible for a live pattern
    /// as a fragmented one — not a normal-looking zero-throughput run.
    #[test]
    fn all_routers_down_is_rejected_for_live_patterns() {
        use crate::fault::{FaultError, FaultPlan};
        let net = SimNetwork::with_faults(ring(6), 1, &FaultPlan::random_routers(6)).unwrap();
        let cfg = SimConfig::default().with_windows(
            crate::config::MeasurementWindows::new(1_000_000, 4_000_000).with_pattern("random"),
        );
        let wl = Workload::uniform_random(net.num_endpoints(), 1, 1024, 3);
        let err = Simulator::new(&net, &cfg)
            .try_run_with_offered_load(&wl, 0.3)
            .unwrap_err();
        assert_eq!(
            err,
            SimError::Fault(FaultError::Fragmented { components: 0 })
        );
    }

    /// The packet arena recycles delivered slots in steady-state mode instead of
    /// growing per injected packet.
    #[test]
    fn steady_state_arena_stays_bounded() {
        let net = SimNetwork::new(ring(6), 1);
        let cfg = SimConfig::default().with_windows(crate::config::MeasurementWindows::new(
            2_000_000, 30_000_000,
        ));
        let wl = Workload::uniform_random(net.num_endpoints(), 1, 4096, 9);
        let res = Simulator::new(&net, &cfg).run_with_offered_load(&wl, 0.3);
        let m = res.measurement.expect("steady-state run has a summary");
        assert!(m.delivered_packets > 50, "got {}", m.delivered_packets);
        // The arena's high-water mark tracks in-flight packets, not total
        // injections: the free list must have recycled slots many times over.
        assert!(
            res.engine.arena_slots < m.injected_packets,
            "arena grew to {} slots for {} measured injections",
            res.engine.arena_slots,
            m.injected_packets
        );
    }

    /// A runtime fault script injects failures mid-run, packets are dropped
    /// with typed reasons and recovered by retransmission, and the
    /// conservation identity (injected = delivered + failed + in-flight, with
    /// in-flight = 0 after a finite drain) holds exactly.
    #[test]
    fn fault_script_drops_retransmit_and_conserve_packets() {
        let net = SimNetwork::new(ring(8), 2);
        let script = crate::fault::FaultScript::parse("at(1us, links(0.25)) + at(60us, heal(all))")
            .unwrap()
            .with_seed(11);
        let cfg = SimConfig::default()
            .with_routing("minimal", net.diameter() as u32)
            .with_fault_script(script);
        let wl = Workload::uniform_random(net.num_endpoints(), 20, 4096, 7);
        let res = Simulator::new(&net, &cfg).try_run(&wl).unwrap();
        let f = res.faults;
        assert_eq!(f.injected, 20 * net.num_endpoints() as u64);
        assert_eq!(
            f.injected,
            f.delivered + f.failed,
            "finite drain left {} packets unaccounted",
            f.in_flight()
        );
        assert_eq!(f.in_flight(), 0);
        assert_eq!(f.dropped_total(), f.retransmits + f.failed);
        assert!(f.fault_events >= 2, "script events: {}", f.fault_events);
        assert!(
            f.dropped_total() > 0,
            "a quarter of a ring's links dying must drop something"
        );
        // Delivered totals include retransmitted survivors.
        assert_eq!(res.delivered_packets, f.delivered);
        if f.recovered > 0 {
            assert!(f.mean_recovery_ps() > 0.0);
            assert!(f.max_recovery_ps as f64 >= f.mean_recovery_ps());
        }
    }

    /// The same script with no packets in harm's way (events beyond the
    /// horizon) leaves the run untouched and the fault stats clean.
    #[test]
    fn fault_script_beyond_horizon_is_inert() {
        let net = SimNetwork::new(ring(6), 1);
        let script = crate::fault::FaultScript::parse("at(2ms, links(0.5))").unwrap();
        // Default fault horizon is 1 ms: the event is clipped at expansion.
        let cfg = SimConfig::default().with_fault_script(script);
        let wl = Workload::uniform_random(net.num_endpoints(), 5, 1024, 3);
        let res = Simulator::new(&net, &cfg).try_run(&wl).unwrap();
        assert_eq!(res.faults.fault_events, 0);
        assert_eq!(res.faults.dropped_total(), 0);
        assert_eq!(res.faults.injected, res.faults.delivered);
        let pristine_cfg = SimConfig::default();
        let pristine = Simulator::new(&net, &pristine_cfg).run(&wl);
        assert_eq!(res.delivered_packets, pristine.delivered_packets);
        assert_eq!(res.mean_packet_latency_ps, pristine.mean_packet_latency_ps);
    }

    /// Runtime router failure with recovery: packets to/from the down router
    /// are dropped (typed) while it is dark, and traffic completes after the
    /// heal — graceful degradation, never a hang.
    #[test]
    fn router_churn_recovers_after_heal() {
        let net = SimNetwork::new(complete(5), 1);
        let script =
            crate::fault::FaultScript::parse("at(500ns, router(2)) + at(30us, heal(all))").unwrap();
        let cfg = SimConfig::default().with_fault_script(script);
        let wl = Workload::uniform_random(net.num_endpoints(), 10, 2048, 5);
        let res = Simulator::new(&net, &cfg).try_run(&wl).unwrap();
        let f = res.faults;
        assert_eq!(f.injected, f.delivered + f.failed);
        assert_eq!(f.in_flight(), 0);
        assert_eq!(f.fault_events, 2);
    }

    /// The wakeup engine's quiescence detection surfaces as a typed
    /// [`SimError::Deadlock`] (with the diagnostic text preserved) instead of
    /// a process abort.
    #[test]
    fn hol_deadlock_is_a_typed_error() {
        // Single VC + single buffer slot on a ring forces the classic cyclic
        // head-of-line wait under all-to-all pressure.
        let net = SimNetwork::new(ring(8), 4);
        let cfg = SimConfig {
            num_vcs: 1,
            buffer_packets_per_vc: 1,
            ..SimConfig::default()
        };
        let wl = Workload::uniform_random(net.num_endpoints(), 30, 4096, 13);
        match Simulator::new(&net, &cfg).try_run(&wl) {
            Err(SimError::Deadlock { diagnosis }) => {
                assert!(
                    diagnosis.contains("cyclic head-of-line wait"),
                    "{diagnosis}"
                );
                assert!(diagnosis.contains("buffer_packets_per_vc"), "{diagnosis}");
            }
            Err(other) => panic!("expected a deadlock, got {other}"),
            Ok(_) => panic!("expected a deadlock, run completed"),
        }
    }
}
