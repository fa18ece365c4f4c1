//! Outside-in probes: wrappers implementing the public `DvfsPolicy` and
//! `ScenarioSource` traits, writing what they observe into per-pass tables.
//!
//! Every table is indexed by scenario index (or by CPU-decision slot, via the
//! scenario's offset), so worker interleaving never decides where a value
//! lands: folding a table in index order gives the same bits at any worker
//! count.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use soclearn_governors::OndemandGovernor;
use soclearn_imitation::{OnlineIlPolicy, OnlineIlStats};
use soclearn_runtime::{Observability, QueueStamp, ScenarioSource, ScenarioSpec};
use soclearn_soc_sim::{DvfsConfig, DvfsPolicy, PolicyDecision, SocPlatform};

/// The kinds of pass a traced run interleaves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// As in the timed run: only the decision-step timer.
    Plain,
    /// The probes also time `decide` alone, claims, stamps and policy
    /// builds, and flag retraining decides.
    Timed,
    /// Timed, with the `Observability` registry attached as well.
    Observed,
}

impl Mode {
    /// Pass `i` of a traced run cycles plain → timed → observed.
    pub fn nth(i: usize) -> Self {
        [Mode::Plain, Mode::Timed, Mode::Observed][i % 3]
    }

    pub fn timed(self) -> bool {
        self != Mode::Plain
    }

    /// A fresh registry for an observed pass.
    pub fn observability(self) -> Option<Observability> {
        (self == Mode::Observed).then(Observability::new)
    }
}

/// A CPU policy the probe can wrap; learning policies expose their stats so
/// the probe can tell a retraining decide from a plain one.
pub trait Learner: DvfsPolicy + Send + 'static {
    fn learning(&self) -> Option<OnlineIlStats> {
        None
    }
}

impl Learner for OnlineIlPolicy {
    fn learning(&self) -> Option<OnlineIlStats> {
        Some(self.stats())
    }
}

impl Learner for OndemandGovernor {}

/// Everything the probes record during one pass.
pub struct PassTables {
    /// `offsets[i]` is the first CPU-decision slot of scenario `i`.
    offsets: Arc<Vec<usize>>,
    traced: bool,
    /// Host nanoseconds of each CPU decision step — from `ScenarioDriver`'s
    /// `decide` call to its `observe_outcome` call, which follows the
    /// simulator's execution — by decision slot.
    step_ns: Vec<AtomicU32>,
    /// Host nanoseconds of each CPU `decide` alone (traced passes).
    decide_ns: Vec<AtomicU32>,
    /// Whether the decide in a slot retrained the policy (traced passes).
    retrained: Vec<AtomicBool>,
    /// Simulated CPU energy and time of each scenario, as `f64` bits.
    energy_bits: Vec<AtomicU64>,
    time_bits: Vec<AtomicU64>,
    /// Queue sojourn of each scenario, when the source stamps it.
    sojourn_ns: Vec<AtomicU64>,
    pub policies_built: AtomicUsize,
    pub build_ns: AtomicU64,
    pub labelled: AtomicUsize,
    pub agreements: AtomicUsize,
    pub retrains: AtomicUsize,
    pub claims: AtomicU64,
    pub claim_ns: AtomicU64,
    pub stamps: AtomicU64,
    pub stamp_ns: AtomicU64,
}

fn zeroed<T: Default>(n: usize) -> Vec<T> {
    (0..n).map(|_| T::default()).collect()
}

impl PassTables {
    pub fn new(offsets: &Arc<Vec<usize>>, mode: Mode) -> Arc<Self> {
        let traced = mode.timed();
        let scenarios = offsets.len() - 1;
        let slots = offsets[scenarios];
        Arc::new(Self {
            offsets: Arc::clone(offsets),
            traced,
            step_ns: zeroed(slots),
            decide_ns: if traced { zeroed(slots) } else { Vec::new() },
            retrained: if traced { zeroed(slots) } else { Vec::new() },
            energy_bits: zeroed(scenarios),
            time_bits: zeroed(scenarios),
            sojourn_ns: zeroed(scenarios),
            policies_built: AtomicUsize::new(0),
            build_ns: AtomicU64::new(0),
            labelled: AtomicUsize::new(0),
            agreements: AtomicUsize::new(0),
            retrains: AtomicUsize::new(0),
            claims: AtomicU64::new(0),
            claim_ns: AtomicU64::new(0),
            stamps: AtomicU64::new(0),
            stamp_ns: AtomicU64::new(0),
        })
    }

    /// The probe-wrapped policy for scenario `index`; `build` is the policy
    /// factory, timed in traced passes.
    pub fn policy<P: Learner>(
        self: &Arc<Self>,
        index: usize,
        build: impl FnOnce() -> P,
    ) -> Box<dyn DvfsPolicy + Send> {
        let inner = if self.traced {
            let started = Instant::now();
            let inner = build();
            self.build_ns.fetch_add(started.elapsed().as_nanos() as u64, Relaxed);
            inner
        } else {
            build()
        };
        self.policies_built.fetch_add(1, Relaxed);
        Box::new(ProbePolicy {
            inner,
            index,
            tables: Arc::clone(self),
            step: None,
            energy_j: 0.0,
            time_s: 0.0,
        })
    }

    /// Share of labelled decisions where the policy already agreed with its
    /// runtime Oracle label (`OnlineIlStats::agreement_rate`, pooled).
    pub fn label_agreement(&self) -> f64 {
        self.agreements.load(Relaxed) as f64 / self.labelled.load(Relaxed).max(1) as f64
    }

    pub fn build_ns_per_policy(&self) -> f64 {
        self.build_ns.load(Relaxed) as f64 / self.policies_built.load(Relaxed).max(1) as f64
    }

    pub fn claim_ns_per_claim(&self) -> f64 {
        self.claim_ns.load(Relaxed) as f64 / self.claims.load(Relaxed).max(1) as f64
    }

    pub fn stamp_ns_per_stamp(&self) -> f64 {
        self.stamp_ns.load(Relaxed) as f64 / self.stamps.load(Relaxed).max(1) as f64
    }

    pub fn step_ns(&self) -> Vec<u32> {
        self.step_ns.iter().map(|ns| ns.load(Relaxed)).collect()
    }

    pub fn decide_ns(&self) -> Vec<u32> {
        self.decide_ns.iter().map(|ns| ns.load(Relaxed)).collect()
    }

    /// Decide times split into (plain, retraining) decides.
    pub fn decide_ns_by_retrain(&self) -> (Vec<u32>, Vec<u32>) {
        let (mut plain, mut retrain) = (Vec::new(), Vec::new());
        for (ns, flag) in self.decide_ns.iter().zip(&self.retrained) {
            if flag.load(Relaxed) { &mut retrain } else { &mut plain }.push(ns.load(Relaxed));
        }
        (plain, retrain)
    }

    pub fn scenario_energy_j(&self) -> Vec<f64> {
        self.energy_bits.iter().map(|b| f64::from_bits(b.load(Relaxed))).collect()
    }

    pub fn scenario_time_s(&self) -> Vec<f64> {
        self.time_bits.iter().map(|b| f64::from_bits(b.load(Relaxed))).collect()
    }

    pub fn sojourn_ns(&self) -> Vec<u64> {
        self.sojourn_ns.iter().map(|ns| ns.load(Relaxed)).collect()
    }
}

/// Times every CPU decision step (and, traced, every `decide`) and sums the
/// scenario's simulated energy and time in `observe_outcome`; the sums land
/// in the tables when `ScenarioDriver` drops the policy at the end of the scenario.
struct ProbePolicy<P: Learner> {
    inner: P,
    index: usize,
    tables: Arc<PassTables>,
    /// Slot and start of the step whose outcome is pending.
    step: Option<(usize, Instant)>,
    energy_j: f64,
    time_s: f64,
}

fn elapsed_ns(started: Instant) -> u32 {
    started.elapsed().as_nanos().min(u32::MAX as u128) as u32
}

impl<P: Learner> DvfsPolicy for ProbePolicy<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&mut self, platform: &SocPlatform, decision: PolicyDecision<'_>) -> DvfsConfig {
        let slot = self.tables.offsets[self.index] + decision.snippet_index;
        let updates_before =
            if self.tables.traced { self.inner.learning().map(|s| s.policy_updates) } else { None };
        let started = Instant::now();
        let config = self.inner.decide(platform, decision);
        if self.tables.traced {
            self.tables.decide_ns[slot].store(elapsed_ns(started), Relaxed);
        }
        if let (Some(before), Some(after)) = (updates_before, self.inner.learning()) {
            if after.policy_updates > before {
                self.tables.retrained[slot].store(true, Relaxed);
            }
        }
        self.step = Some((slot, started));
        config
    }

    fn observe_outcome(&mut self, energy_j: f64, time_s: f64) {
        if let Some((slot, started)) = self.step.take() {
            self.tables.step_ns[slot].store(elapsed_ns(started), Relaxed);
        }
        self.energy_j += energy_j;
        self.time_s += time_s;
        self.inner.observe_outcome(energy_j, time_s);
    }
}

impl<P: Learner> Drop for ProbePolicy<P> {
    fn drop(&mut self) {
        let tables = &self.tables;
        tables.energy_bits[self.index].store(self.energy_j.to_bits(), Relaxed);
        tables.time_bits[self.index].store(self.time_s.to_bits(), Relaxed);
        if let Some(stats) = self.inner.learning() {
            tables.labelled.fetch_add(stats.decisions, Relaxed);
            tables.agreements.fetch_add(stats.agreements, Relaxed);
            tables.retrains.fetch_add(stats.policy_updates, Relaxed);
        }
    }
}

/// Passes claims and queue stamps through to `inner`, recording each stamp's
/// sojourn and, in traced passes, the host time spent in both calls.
pub struct ProbeSource<'a, S: ScenarioSource + ?Sized> {
    pub inner: &'a S,
    pub tables: &'a PassTables,
}

impl<S: ScenarioSource + ?Sized> ScenarioSource for ProbeSource<'_, S> {
    fn next_scenario(&self) -> Option<(usize, ScenarioSpec)> {
        if !self.tables.traced {
            return self.inner.next_scenario();
        }
        let started = Instant::now();
        let claimed = self.inner.next_scenario();
        self.tables.claim_ns.fetch_add(started.elapsed().as_nanos() as u64, Relaxed);
        if claimed.is_some() {
            self.tables.claims.fetch_add(1, Relaxed);
        }
        claimed
    }

    fn scenario_served(&self, index: usize, service_ns: u64) -> Option<QueueStamp> {
        let started = self.tables.traced.then(Instant::now);
        let stamp = self.inner.scenario_served(index, service_ns);
        if let Some(started) = started {
            self.tables.stamp_ns.fetch_add(started.elapsed().as_nanos() as u64, Relaxed);
            self.tables.stamps.fetch_add(1, Relaxed);
        }
        if let Some(stamp) = &stamp {
            self.tables.sojourn_ns[index].store(stamp.sojourn_ns(), Relaxed);
        }
        stamp
    }
}

/// CPU-decision slot offsets of a scenario list: `offsets[i]` is the number of
/// CPU decisions in scenarios `0..i`.
pub fn cpu_offsets(cpu_decisions: impl IntoIterator<Item = usize>) -> Arc<Vec<usize>> {
    let mut offsets = vec![0];
    let mut total = 0;
    for n in cpu_decisions {
        total += n;
        offsets.push(total);
    }
    Arc::new(offsets)
}
