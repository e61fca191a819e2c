//! The multi-tenant jobs runtime ([`crate::SimConfig::jobs`]), shared by both
//! event engines.
//!
//! A resolved [`MixPlan`] runs the same way on the sequential
//! [`super::Simulator`] and on every shard of the
//! [`super::parallel::ParallelSimulator`]. Open-loop tenants drive one
//! rate-process source per rank. Collective tenants fire their
//! dependency-ordered groups: round 0 at `t = 0`, later rounds when a delivery
//! releases them. Every injection is serialized through its endpoint's NIC.
//! Only two things differ between the engines, and they reach this module
//! through their [`Injector`]: how a message becomes packets (the sequential
//! packet arena vs the shard's stable `(endpoint << 40) | counter` ids), and
//! how a source's next arrival is scheduled (a sequenced calendar event vs a
//! stable-keyed one).
//!
//! The sharded engine runs one runtime per shard, built with its ownership
//! predicate; the sequential engine owns every endpoint. A runtime holds
//! sources only for owned ranks, fires only owned ranks' round-0 groups, and
//! reports only owned ranks as completed — while holding a full copy of each
//! collective's tracker (trivially complete ranks are complete in every copy,
//! so the merged total still counts each rank once). Collective releases need
//! no cross-shard state: every packet of a message delivers at the
//! destination rank's router, and the groups that delivery releases belong to
//! the same rank, so the sends they fire originate from an owned endpoint.

use super::Injector;
use crate::config::{MeasurementWindows, SimConfig};
use crate::job::{
    source_rng, CollectiveState, JobBehavior, MixPlan, MsgTag, RateProcess, RateRuntime,
};
use crate::stats::StatsCollector;
use rand::rngs::StdRng;
use std::sync::Arc;

/// One open-loop job rank, driving its tenant's [`RateProcess`] from a
/// per-endpoint RNG ([`source_rng`]): every engine and shard count draws the
/// identical arrival and destination streams.
struct OpenLoopSource {
    endpoint: usize,
    tenant: u32,
    rank: u32,
    bytes: u64,
    /// NIC serialization of one message at full injection bandwidth — the
    /// rate process's time base.
    ser_ps: u64,
    rate: RateProcess,
    rt: RateRuntime,
    rng: StdRng,
}

/// The engine-independent state of one jobs run (or one shard's part of it).
pub(crate) struct JobsRuntime<'p, O> {
    plan: &'p MixPlan,
    /// Whether an endpoint belongs to this runtime.
    owns: O,
    /// The run-level offered load, scaling every open-loop tenant's rates.
    load: f64,
    /// Sources fall silent at the end of the measurement window.
    measure_end_ps: u64,
    sources: Vec<OpenLoopSource>,
    /// `(tenant, tracker)` per collective tenant, in declaration order.
    collectives: Vec<(u32, CollectiveState)>,
    coll_of_tenant: Vec<Option<usize>>,
    /// NIC-busy horizon per endpoint, shared by collective and open-loop
    /// injections (an endpoint belongs to exactly one tenant).
    nic_free: Vec<u64>,
}

impl<'p, O: Fn(usize) -> bool> JobsRuntime<'p, O> {
    /// Arm the tenant table of `plan` for the endpoints `owns` accepts.
    pub fn new(
        plan: &'p MixPlan,
        cfg: &SimConfig,
        num_endpoints: usize,
        load: f64,
        w: &MeasurementWindows,
        owns: O,
    ) -> Self {
        let mut collectives = Vec::new();
        let mut coll_of_tenant = vec![None; plan.tenants.len()];
        let mut sources = Vec::new();
        for (ti, t) in plan.tenants.iter().enumerate() {
            match &t.behavior {
                JobBehavior::Collective(sched) => {
                    coll_of_tenant[ti] = Some(collectives.len());
                    collectives.push((ti as u32, CollectiveState::new(Arc::new(sched.clone()))));
                }
                JobBehavior::OpenLoop(spec) => {
                    for (rank, &ep) in t.endpoints.iter().enumerate() {
                        if owns(ep) {
                            sources.push(OpenLoopSource {
                                endpoint: ep,
                                tenant: ti as u32,
                                rank: rank as u32,
                                bytes: spec.bytes,
                                ser_ps: cfg.injection_serialization_ps(spec.bytes),
                                rate: spec.rate.clone(),
                                rt: RateRuntime::default(),
                                rng: source_rng(cfg.seed, ep),
                            });
                        }
                    }
                }
            }
        }
        JobsRuntime {
            plan,
            owns,
            load,
            measure_end_ps: w.measure_end_ps(),
            sources,
            collectives,
            coll_of_tenant,
            nic_free: vec![0; num_endpoints],
        }
    }

    /// Start the run at `t = 0`: schedule every source's first arrival, then
    /// fire every owned rank's round-0 groups.
    pub fn start(&mut self, inj: &mut impl Injector) {
        for (si, s) in self.sources.iter_mut().enumerate() {
            let t = s
                .rate
                .next_arrival_ps(&mut s.rt, 0, s.ser_ps, self.load, &mut s.rng);
            if t < self.measure_end_ps {
                inj.schedule_arrival(t, si as u32, s.endpoint);
            }
        }
        for ci in 0..self.collectives.len() {
            let (ti, cs) = &self.collectives[ci];
            let eps = &self.plan.tenants[*ti as usize].endpoints;
            for g in cs.ready_at_start(|rank| (self.owns)(eps[rank])) {
                self.fire(inj, ci, g, 0);
            }
        }
    }

    /// One open-loop arrival of source `si` at `now`: draw the destination
    /// rank from the tenant's pattern, inject the message, and schedule the
    /// source's next arrival from its rate process.
    pub fn on_arrival(&mut self, inj: &mut impl Injector, si: usize, now: u64) {
        let s = &mut self.sources[si];
        let tenant = &self.plan.tenants[s.tenant as usize];
        let JobBehavior::OpenLoop(spec) = &tenant.behavior else {
            unreachable!("open-loop source on a collective tenant")
        };
        let drawn = spec.pattern.dst(s.rank as usize, &mut s.rng);
        // Hard assert: TrafficPattern is a third-party extension point.
        assert!(
            drawn < tenant.endpoints.len(),
            "pattern {} returned out-of-range destination {drawn} (tenant has {} ranks)",
            spec.pattern.name(),
            tenant.endpoints.len()
        );
        let (src_ep, dst_ep, bytes) = (s.endpoint, tenant.endpoints[drawn], s.bytes);
        let tag = MsgTag::open_loop(s.tenant, drawn as u32);
        self.inject(inj, now, src_ep, dst_ep, bytes, tag);
        let s = &mut self.sources[si];
        let next = s
            .rate
            .next_arrival_ps(&mut s.rt, now, s.ser_ps, self.load, &mut s.rng);
        if next < self.measure_end_ps {
            inj.schedule_arrival(next, si as u32, src_ep);
        }
    }

    /// The last packet of collective message `tag` was delivered at `t`:
    /// release the destination rank's dependency and fire whatever rounds
    /// the delivery unblocks, at the delivery's own timestamp. (A terminally
    /// failed message never gets here, so it stalls its rank's chain:
    /// collective completion means delivery, not transmission.)
    pub fn on_delivered(&mut self, inj: &mut impl Injector, tag: MsgTag, t: u64) {
        let ci = self.coll_of_tenant[tag.tenant as usize]
            .expect("collective tag on a non-collective tenant");
        if let Some(g) = self.collectives[ci].1.on_delivered(tag.dst_rank, tag.round) {
            self.fire(inj, ci, g, t);
        }
    }

    /// Report the owned ranks that completed their collective.
    pub fn report_ranks_completed(&self, stats: &mut StatsCollector) {
        for (ti, cs) in &self.collectives {
            let eps = &self.plan.tenants[*ti as usize].endpoints;
            let n = cs.ranks_completed_among(|rank| (self.owns)(eps[rank]));
            stats.add_tenant_ranks_completed(*ti, n);
        }
    }

    /// Fire group `g` of collective `ci` at `now`: inject its sends and
    /// cascade through any same-rank follow-up groups the firing itself
    /// unblocks (rounds with no inbound dependencies).
    fn fire(&mut self, inj: &mut impl Injector, ci: usize, g: usize, now: u64) {
        let ti = self.collectives[ci].0;
        let plan = self.plan;
        let endpoints = &plan.tenants[ti as usize].endpoints;
        let rounds = self.collectives[ci].1.schedule().rounds;
        let mut ready = vec![g];
        while let Some(g) = ready.pop() {
            let (sends, next) = self.collectives[ci].1.fire(g);
            let round = (g % rounds) as u32;
            let src_ep = endpoints[g / rounds];
            for (dst_rank, bytes) in sends {
                let dst_ep = endpoints[dst_rank as usize];
                let tag = MsgTag {
                    tenant: ti,
                    dst_rank,
                    round,
                };
                self.inject(inj, now, src_ep, dst_ep, bytes, tag);
            }
            ready.extend(next);
        }
    }

    /// Inject through the endpoint's NIC: the message starts once the NIC is
    /// free and keeps it busy until its last packet is serialized.
    fn inject(
        &mut self,
        inj: &mut impl Injector,
        now: u64,
        src_ep: usize,
        dst_ep: usize,
        bytes: u64,
        tag: MsgTag,
    ) {
        let t = now.max(self.nic_free[src_ep]);
        self.nic_free[src_ep] = inj.inject(t, src_ep, dst_ep, bytes, tag);
    }
}
