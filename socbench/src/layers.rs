//! Per-layer probes: direct calls into one layer's public functions, timed
//! from outside.  Traced runs combine these with the in-situ numbers the
//! probe wrappers record during the workload's own passes.

use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

use soclearn_governors::OndemandGovernor;
use soclearn_imitation::features::POLICY_FEATURE_DIM;
use soclearn_online_learning::{Classifier, MlpBuilder, OnlineRegressor, RecursiveLeastSquares};
use soclearn_oracle::OracleObjective;
use soclearn_runtime::{
    replay_noc_window, GpuReplayer, GpuServing, NocServing, ScenarioDriver, ScenarioRecord,
    ScenarioSpec, SliceSource, SubstrateDecision, SubstratePolicies, SubstrateRecord, SweepCache,
    SweepEngine,
};
use soclearn_scenarios::{replay, Trace};
use soclearn_soc_sim::{ClusterKind, SocPlatform, SocSimulator};
use soclearn_workloads::SnippetProfile;

use crate::mix;
use crate::report::median;

/// Batches per microbenchmark; the reported figure is the median batch.
const BATCHES: usize = 7;

/// Median over `BATCHES` batches of the mean nanoseconds one `op` call takes.
pub fn ns_per_call(iters: usize, mut op: impl FnMut(usize)) -> f64 {
    let batches: Vec<f64> = (0..BATCHES)
        .map(|batch| {
            let started = Instant::now();
            for i in 0..iters {
                op(batch * iters + i);
            }
            started.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&batches)
}

/// Uniform `[0, 1)` value number `i` of stream `seed`.
fn unit(seed: u64, i: u64) -> f64 {
    (mix(seed, i) >> 11) as f64 / (1u64 << 53) as f64
}

fn samples(seed: u64, count: usize, dim: usize) -> Vec<Vec<f64>> {
    (0..count)
        .map(|s| (0..dim).map(|d| unit(seed, (s * dim + d) as u64)).collect())
        .collect()
}

/// One `Mlp::train_classification` step and one class prediction at the
/// online-IL policy's big-cluster network shape (features → 24 → levels).
pub fn mlp(seed: u64, platform: &SocPlatform) -> (f64, f64) {
    let classes = platform.level_count(ClusterKind::Big);
    let mut net = MlpBuilder::new(POLICY_FEATURE_DIM, classes)
        .hidden_layers(&[24])
        .learning_rate(0.02)
        .seed(seed)
        .build();
    let xs = samples(mix(seed, 1), 256, POLICY_FEATURE_DIM);
    let labels: Vec<usize> =
        (0..xs.len()).map(|i| (mix(seed, 2 + i as u64) as usize) % classes).collect();
    let sgd = ns_per_call(2_000, |i| {
        std::hint::black_box(net.train_classification(&xs[i % xs.len()], labels[i % xs.len()]));
    });
    let predict = ns_per_call(4_000, |i| {
        std::hint::black_box(net.predict_class(&xs[i % xs.len()]));
    });
    (sgd, predict)
}

/// One `RecursiveLeastSquares` update at the candidate-model dimension (9).
pub fn rls_update(seed: u64) -> f64 {
    let dim = soclearn_imitation::features::CANDIDATE_FEATURE_DIM;
    let mut rls = RecursiveLeastSquares::new(dim, 0.97);
    let xs = samples(mix(seed, 3), 256, dim);
    let ys: Vec<f64> = (0..xs.len()).map(|i| unit(mix(seed, 4), i as u64)).collect();
    ns_per_call(20_000, |i| rls.update(&xs[i % xs.len()], ys[i % xs.len()]))
}

/// `SweepEngine::oracle_run` per decision over `runs` on the warm `cache`
/// (one untimed pass warms it first).
pub fn oracle_reference(
    platform: &SocPlatform,
    cache: &Arc<SweepCache>,
    runs: &[Vec<SnippetProfile>],
) -> f64 {
    let mut engine = SweepEngine::with_cache(platform.clone(), Arc::clone(cache));
    let mut pass = || {
        for profiles in runs {
            engine.reset();
            std::hint::black_box(engine.oracle_run(profiles, OracleObjective::Energy));
        }
    };
    pass();
    ns_per_pass(runs.iter().map(Vec::len).sum(), pass)
}

/// `SocSimulator::execute_snippet` at the recorded configurations, one fresh
/// simulator per scenario; nanoseconds per call.
pub fn execute(platform: &SocPlatform, records: &[ScenarioRecord]) -> f64 {
    let calls = records
        .iter()
        .flat_map(|r| r.decisions.iter().filter_map(SubstrateRecord::as_cpu))
        .count();
    ns_per_pass(calls, || {
        for record in records {
            let mut sim = SocSimulator::new(platform.clone());
            for decision in record.decisions.iter().filter_map(SubstrateRecord::as_cpu) {
                std::hint::black_box(sim.execute_snippet(&decision.profile, decision.config));
            }
        }
    })
}

/// Cost of the record → encode → decode → replay path over one recording.
pub struct TraceCost {
    pub encode_ns: f64,
    pub decode_ns: f64,
    pub replay_ns: f64,
    pub bytes: usize,
    pub decisions: usize,
    /// Operations: one decode plus one replay per scenario.
    pub attempted: u64,
    /// Decode errors plus replays that were not bit-identical.
    pub failed: u64,
    /// Hash of the encoded trace, for cross-pass comparison.
    pub digest: u64,
    /// Per-scenario recorded energy, index order.
    pub scenario_energy_j: Vec<f64>,
}

impl TraceCost {
    pub fn encode_mb_per_s(&self) -> f64 {
        self.bytes as f64 / self.encode_ns * 1e3
    }

    pub fn decode_mb_per_s(&self) -> f64 {
        self.bytes as f64 / self.decode_ns * 1e3
    }

    pub fn replay_ns_per_decision(&self) -> f64 {
        self.replay_ns / self.decisions.max(1) as f64
    }
}

/// Encodes `records` as a trace, decodes it and replays every scenario on a
/// fresh simulator, timing each step.
pub fn trace(platform: &SocPlatform, records: &[ScenarioRecord]) -> TraceCost {
    let started = Instant::now();
    let jsonl = Trace::from_records(records).to_jsonl();
    let encode_ns = started.elapsed().as_nanos() as f64;
    let started = Instant::now();
    let decoded = Trace::from_jsonl(&jsonl);
    let decode_ns = started.elapsed().as_nanos() as f64;
    let mut cost = TraceCost {
        encode_ns,
        decode_ns,
        replay_ns: 0.0,
        bytes: jsonl.len(),
        decisions: 0,
        attempted: 1,
        failed: 0,
        digest: {
            let mut hasher = std::collections::hash_map::DefaultHasher::new();
            jsonl.hash(&mut hasher);
            hasher.finish()
        },
        scenario_energy_j: records
            .iter()
            .map(|r| r.decisions.iter().map(SubstrateDecision::energy_j).sum())
            .collect(),
    };
    let decoded = match decoded {
        Ok(trace) => trace,
        Err(error) => {
            eprintln!("socbench: trace decode failed: {error}");
            cost.failed += 1;
            return cost;
        }
    };
    let started = Instant::now();
    for (scenario, energy_j) in decoded.scenarios.iter().zip(&cost.scenario_energy_j) {
        let replayed = replay(scenario, platform);
        cost.attempted += 1;
        cost.decisions += replayed.decisions;
        if !replayed.bit_identical || replayed.total_energy_j.to_bits() != energy_j.to_bits() {
            cost.failed += 1;
        }
    }
    cost.replay_ns = started.elapsed().as_nanos() as f64;
    if decoded.scenarios.len() != records.len() {
        cost.failed += 1;
    }
    cost
}

/// Costs of the GPU and NoC substrates over a set of heterogeneous scenarios.
pub struct SubstrateCost {
    pub window_sim_ns: f64,
    pub frame_ns: f64,
    pub svr_serve_ns_per_decision: f64,
    pub nmpc_serve_ns_per_frame: f64,
}

/// Serves `specs` at one worker three ways: with the governor baselines on
/// both substrates, with the GPU controller swapped for NMPC, and with the
/// NoC model swapped for the SVR.  The pass differences are the NMPC and SVR
/// serving costs (fastest of five passes each, so host noise, which only
/// adds time, cancels best).  The learned bundle's recorded frames and
/// windows are then re-simulated alone.
pub fn substrates(platform: &SocPlatform, specs: &[ScenarioSpec]) -> SubstrateCost {
    let driver = ScenarioDriver::new(platform.clone(), 1);
    let serve = |gpu: GpuServing, noc: NocServing| {
        let policies =
            || SubstratePolicies { cpu: Box::new(OndemandGovernor::new(platform)), gpu, noc };
        (0..5)
            .map(|_| {
                let started = Instant::now();
                let _ = driver.run_recorded_mixed(&SliceSource::new(specs), |_, _| policies());
                started.elapsed().as_nanos() as f64
            })
            .fold(f64::MAX, f64::min)
    };
    let baseline = serve(GpuServing::Governor, NocServing::Analytical);
    let nmpc = serve(GpuServing::nmpc(), NocServing::Analytical);
    let svr = serve(GpuServing::Governor, NocServing::Learned);
    let (_, records) = driver.run_recorded_mixed(&SliceSource::new(specs), |_, _| {
        SubstratePolicies::learned(Box::new(OndemandGovernor::new(platform)))
    });
    let windows: Vec<_> = records
        .iter()
        .flat_map(|r| r.decisions.iter().filter_map(SubstrateRecord::as_noc))
        .collect();
    let frames: Vec<Vec<_>> = records
        .iter()
        .map(|r| r.decisions.iter().filter_map(SubstrateRecord::as_gpu).collect())
        .collect();
    let gpu_decisions: usize = frames.iter().map(Vec::len).sum();
    let window_sim_ns = ns_per_pass(windows.len(), || {
        for window in &windows {
            std::hint::black_box(replay_noc_window(window));
        }
    });
    let frame_ns = ns_per_pass(gpu_decisions, || {
        for scenario in &frames {
            let mut replayer = GpuReplayer::new();
            for frame in scenario {
                std::hint::black_box(replayer.replay_frame(frame));
            }
        }
    });
    SubstrateCost {
        window_sim_ns,
        frame_ns,
        svr_serve_ns_per_decision: (svr - baseline) / windows.len().max(1) as f64,
        nmpc_serve_ns_per_frame: (nmpc - baseline) / gpu_decisions.max(1) as f64,
    }
}

/// Median over three runs of `pass`, in nanoseconds per one of its `calls`.
fn ns_per_pass(calls: usize, mut pass: impl FnMut()) -> f64 {
    let runs: Vec<f64> = (0..3)
        .map(|_| {
            let started = Instant::now();
            pass();
            started.elapsed().as_nanos() as f64 / calls.max(1) as f64
        })
        .collect();
    median(&runs)
}

/// Share of CPU decisions in `records` whose big-cluster level matches the
/// Oracle's on the same snippet stream (fresh engine state per scenario, the
/// way `ScenarioDriver`'s Oracle reference scores it).
pub fn oracle_agreement(
    platform: &SocPlatform,
    cache: &Arc<SweepCache>,
    records: &[ScenarioRecord],
) -> (f64, usize) {
    let mut engine = SweepEngine::with_cache(platform.clone(), Arc::clone(cache));
    let (mut matches, mut total) = (0usize, 0usize);
    for record in records {
        let cpu: Vec<_> = record.decisions.iter().filter_map(SubstrateRecord::as_cpu).collect();
        let profiles: Vec<SnippetProfile> = cpu.iter().map(|d| d.profile.clone()).collect();
        engine.reset();
        let oracle = engine.oracle_run(&profiles, OracleObjective::Energy);
        total += cpu.len();
        matches += cpu
            .iter()
            .zip(&oracle.decisions)
            .filter(|(d, o)| d.config.big_idx == o.big_idx)
            .count();
    }
    (matches as f64 / total.max(1) as f64, total)
}

/// Lock wait (ns per decision) and contended share of one observed lock site.
pub fn lock_site(
    obs: &soclearn_runtime::Observability,
    site: &str,
    decisions: usize,
) -> (f64, f64) {
    let labels = [("site", site)];
    let wait_ns = obs.registry.sketch("lock_wait_ns", &labels).snapshot().sum_ns() as f64;
    let acquisitions = obs.registry.counter("lock_acquisitions_total", &labels).get();
    let contended = obs.registry.counter("lock_contended_total", &labels).get();
    (wait_ns / decisions.max(1) as f64, contended as f64 / acquisitions.max(1) as f64)
}

/// Every per-layer metric of a traced run.  In-situ figures a workload does
/// not exercise stay zero (the layer is bypassed); probe figures are measured
/// by every workload.
#[derive(Default)]
pub struct Layers {
    pub decide_ns: f64,
    pub retrain_decide_ns: f64,
    pub retrain_share: f64,
    pub retrains: f64,
    pub label_agreement: f64,
    pub policy_build_ns: f64,
    pub mlp_sgd_step_ns: f64,
    pub mlp_predict_ns: f64,
    pub rls_update_ns: f64,
    pub oracle_reference_ns_per_decision: f64,
    pub sweep_cache_hit_rate: f64,
    pub driver_residual_ns_per_decision: f64,
    pub queue_peak_resident: f64,
    pub execute_ns: f64,
    pub generate_ns_per_scenario: f64,
    pub claim_ns: f64,
    pub stamp_ns: f64,
    pub trace_encode_mb_per_s: f64,
    pub trace_decode_mb_per_s: f64,
    pub replay_ns_per_decision: f64,
    pub queue_lock_wait_ns: f64,
    pub calendar_lock_wait_ns: f64,
    pub queue_lock_contended_share: f64,
    pub calendar_lock_contended_share: f64,
    pub window_sim_ns: f64,
    pub svr_serve_ns_per_decision: f64,
    pub frame_ns: f64,
    pub nmpc_serve_ns_per_frame: f64,
    pub tracing_overhead_pct: f64,
    pub registry_overhead_pct: f64,
    pub layer_sum_ratio: f64,
}

impl Layers {
    /// Reports every per-layer metric; `passes` is the traced pass count the
    /// in-situ medians come from.
    pub fn emit(&self, report: &mut crate::report::Report, passes: usize) {
        let insitu = || format!("in-situ, median of {passes} timed passes");
        let probe = || "probe, median of batches".to_owned();
        let rows: [(&str, f64, &'static str, String); 31] = [
            ("imitation.decide_ns", self.decide_ns, "ns", insitu()),
            ("imitation.retrain_decide_ns", self.retrain_decide_ns, "ns", insitu()),
            ("imitation.retrain_share", self.retrain_share, "share", insitu()),
            ("imitation.retrains", self.retrains, "count", insitu()),
            ("imitation.label_agreement", self.label_agreement, "share", insitu()),
            ("imitation.policy_build_ns", self.policy_build_ns, "ns", insitu()),
            ("online_learning.mlp_sgd_step_ns", self.mlp_sgd_step_ns, "ns", probe()),
            ("online_learning.mlp_predict_ns", self.mlp_predict_ns, "ns", probe()),
            ("online_learning.rls_update_ns", self.rls_update_ns, "ns", probe()),
            (
                "oracle.reference_run_ns_per_decision",
                self.oracle_reference_ns_per_decision,
                "ns",
                probe(),
            ),
            ("runtime.sweep_cache_hit_rate", self.sweep_cache_hit_rate, "share", insitu()),
            (
                "runtime.driver_residual_ns_per_decision",
                self.driver_residual_ns_per_decision,
                "ns",
                insitu(),
            ),
            ("runtime.queue_peak_resident", self.queue_peak_resident, "count", insitu()),
            ("soc_sim.execute_ns", self.execute_ns, "ns", probe()),
            ("scenarios.generate_ns_per_scenario", self.generate_ns_per_scenario, "ns", probe()),
            ("scenarios.claim_ns", self.claim_ns, "ns", insitu()),
            ("scenarios.stamp_ns", self.stamp_ns, "ns", insitu()),
            ("scenarios.trace_encode_mb_per_s", self.trace_encode_mb_per_s, "MB/s", probe()),
            ("scenarios.trace_decode_mb_per_s", self.trace_decode_mb_per_s, "MB/s", probe()),
            ("scenarios.replay_ns_per_decision", self.replay_ns_per_decision, "ns", probe()),
            ("telemetry.lock_wait_ns.fleet_queue_model", self.queue_lock_wait_ns, "ns", insitu()),
            ("telemetry.lock_wait_ns.fleet_calendar", self.calendar_lock_wait_ns, "ns", insitu()),
            (
                "telemetry.lock_contended_share.fleet_queue_model",
                self.queue_lock_contended_share,
                "share",
                insitu(),
            ),
            (
                "telemetry.lock_contended_share.fleet_calendar",
                self.calendar_lock_contended_share,
                "share",
                insitu(),
            ),
            ("noc_sim.window_sim_ns", self.window_sim_ns, "ns", probe()),
            ("noc_sim.svr_serve_ns_per_decision", self.svr_serve_ns_per_decision, "ns", probe()),
            ("gpu_sim.frame_ns", self.frame_ns, "ns", probe()),
            ("nmpc.serve_ns_per_frame", self.nmpc_serve_ns_per_frame, "ns", probe()),
            (
                "bench.tracing_overhead_pct",
                self.tracing_overhead_pct,
                "%",
                "timed vs plain passes, interleaved medians".to_owned(),
            ),
            (
                "bench.registry_overhead_pct",
                self.registry_overhead_pct,
                "%",
                "observed vs plain passes, interleaved medians".to_owned(),
            ),
            (
                "bench.layer_sum_ratio",
                self.layer_sum_ratio,
                "ratio",
                "timed layer sum / plain ns per decision".to_owned(),
            ),
        ];
        for (name, value, unit, note) in rows {
            report.metric(name, value, unit, note);
        }
    }
}

/// Heterogeneous scenarios probed by workloads that serve no GPU or NoC work
/// themselves: seven of each family, generated from the benchmark seed.
const HETERO_SAMPLE: usize = 42;

/// Fills the GPU/NoC probe figures from a seeded heterogeneous sample.
pub fn hetero_sample(seed: u64, layers: &mut Layers) {
    let specs = soclearn_scenarios::ScenarioGenerator::heterogeneous(mix(seed, 5), 8)
        .scenarios(HETERO_SAMPLE);
    layers.fill_substrates(&substrates(&SocPlatform::small(), &specs));
}

impl Layers {
    pub fn fill_substrates(&mut self, cost: &SubstrateCost) {
        self.window_sim_ns = cost.window_sim_ns;
        self.svr_serve_ns_per_decision = cost.svr_serve_ns_per_decision;
        self.frame_ns = cost.frame_ns;
        self.nmpc_serve_ns_per_frame = cost.nmpc_serve_ns_per_frame;
    }
}
