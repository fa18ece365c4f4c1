//! `il-serving`: the paper's online-IL controller serving applications it was
//! not trained on.  Closed loop, one worker: 48 Full-length paper-suite users
//! (Mi-Bench/Cortex/PARSEC round-robin, each suite generated from a seed
//! derived from the benchmark seed) through `ScenarioDriver` with online IL
//! (`buffer_capacity: 15`), the Oracle reference on and a warm sweep cache.
//! The design-time artifacts stay pretrained on the fixed experiment seed.

use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Instant;

use soclearn_imitation::OnlineIlConfig;
use soclearn_oracle::OracleObjective;
use soclearn_runtime::{
    sequence_of, DriverTelemetry, ExperimentScale, ScenarioDriver, ScenarioRecord, ScenarioSpec,
    SliceSource, SweepCache, TrainingArtifacts,
};
use soclearn_soc_sim::SocPlatform;
use soclearn_workloads::{BenchmarkSuite, SuiteKind};

use crate::layers::{self, Layers};
use crate::probe::{cpu_offsets, Mode, PassTables, ProbeSource};
use crate::report::{fold, median, serial_sojourn, PassSummary, Report};
use crate::{mix, window, Args, SetupTimes, MIN_PASSES};

const USERS: usize = 48;

fn config() -> OnlineIlConfig {
    OnlineIlConfig { buffer_capacity: 15, ..OnlineIlConfig::default() }
}

/// User `u`'s application sequence: a full-length suite of kind `u mod 3`
/// generated from its own seed.
fn user(seed: u64, u: usize) -> ScenarioSpec {
    let kind = SuiteKind::ALL[u % SuiteKind::ALL.len()];
    let suite = BenchmarkSuite::generate(kind, mix(seed, u as u64));
    let benchmarks: Vec<_> = suite
        .benchmarks()
        .iter()
        .map(|b| (b.name().to_owned(), b.snippets().to_vec()))
        .collect();
    ScenarioSpec::from_sequence(format!("user-{u}"), &sequence_of(&benchmarks, kind))
}

struct Setup {
    platform: SocPlatform,
    artifacts: TrainingArtifacts,
    specs: Vec<ScenarioSpec>,
    offsets: Arc<Vec<usize>>,
    cache: Arc<SweepCache>,
}

struct Pass {
    mode: Mode,
    summary: PassSummary,
    tables: Arc<PassTables>,
    telemetry: DriverTelemetry,
    wall_s: f64,
}

impl Setup {
    /// Pretrains the artifacts, generates the users and warms a fresh sweep
    /// cache, sized for every sweep the Oracle reference takes, with one
    /// untimed pass.
    fn build(seed: u64) -> Self {
        let platform = SocPlatform::odroid_xu3();
        let artifacts = TrainingArtifacts::build(platform.clone(), ExperimentScale::Quick);
        let specs: Vec<_> = (0..USERS).map(|u| user(seed, u)).collect();
        let offsets = cpu_offsets(specs.iter().map(|s| s.cpu_profiles().len()));
        let capacity = (2 * offsets[USERS]).max(SweepCache::DEFAULT_CAPACITY);
        let cache = Arc::new(SweepCache::with_capacity(capacity));
        let setup = Self { platform, artifacts, specs, offsets, cache };
        setup.pass(1, Mode::Plain);
        setup
    }

    fn driver(&self, workers: usize) -> ScenarioDriver {
        ScenarioDriver::new(self.platform.clone(), workers)
            .with_cache(Arc::clone(&self.cache))
            .with_oracle_reference(OracleObjective::Energy)
    }

    fn pass(&self, workers: usize, mode: Mode) -> Pass {
        let tables = PassTables::new(&self.offsets, mode);
        let mut driver = self.driver(workers);
        if let Some(obs) = mode.observability() {
            driver = driver.with_observability(obs);
        }
        let slice = SliceSource::new(&self.specs);
        let source = ProbeSource { inner: &slice, tables: &tables };
        let started = Instant::now();
        let telemetry = driver.run_stream(&source, |i, _| {
            tables.policy(i, || self.artifacts.online_policy(config()))
        });
        let wall_s = started.elapsed().as_secs_f64();
        let (latency_p50_us, latency_p99_us, latency_samples) =
            PassSummary::latency(&mut tables.step_ns());
        let (sojourn_p50_s, sojourn_p99_s, sojourn_samples) =
            PassSummary::sojourn(&mut serial_sojourn(&tables.scenario_time_s()));
        let summary = PassSummary {
            decisions_per_s: telemetry.decisions as f64 / wall_s,
            latency_p50_us,
            latency_p99_us,
            latency_samples,
            energy_j: fold(&tables.scenario_energy_j()),
            oracle_agreement: telemetry.oracle_agreement,
            sojourn_p50_s,
            sojourn_p99_s,
            sojourn_samples,
        };
        Pass { mode, summary, tables, telemetry, wall_s }
    }

    fn recorded(&self) -> Vec<ScenarioRecord> {
        let tables = PassTables::new(&self.offsets, Mode::Plain);
        let slice = SliceSource::new(&self.specs);
        let source = ProbeSource { inner: &slice, tables: &tables };
        self.driver(1)
            .run_recorded(&source, |i, _| {
                tables.policy(i, || self.artifacts.online_policy(config()))
            })
            .1
    }
}

/// Checks shared by the timed and traced runs: decision counts, and energy at
/// two workers equal to the one-worker passes'.
fn check(setup: &Setup, report: &mut Report, passes: &[Pass]) {
    report.attempted += (passes.len() * USERS) as u64;
    let expected = setup.offsets[USERS];
    let counts_ok = passes.iter().all(|p| p.telemetry.decisions == expected);
    report.check("decision count matches the input", counts_ok, format!("{expected} per pass"));
    let two = setup.pass(2, Mode::Plain);
    report.attempted += USERS as u64;
    if let Some(first) = passes.first() {
        report.check(
            "energy_j equal at 1 and 2 workers",
            two.summary.energy_j.to_bits() == first.summary.energy_j.to_bits()
                && two.telemetry.decisions == expected,
            format!("{} J vs {} J", first.summary.energy_j, two.summary.energy_j),
        );
    }
}

pub fn run(args: &Args, report: &mut Report) {
    if args.traced {
        return traced(args, report);
    }
    let build = || Setup::build(args.seed);
    let (setup, mut setups) = SetupTimes::first(args.seconds, build);
    let passes = window(args.seconds, MIN_PASSES, USERS as u64, report, |i| {
        setups.between_passes(i, build);
        setup.pass(1, Mode::Plain)
    });
    let setup_s = setups.finish(build);
    check(&setup, report, &passes);
    let summaries: Vec<_> = passes.into_iter().map(|p| p.summary).collect();
    report.end_to_end(&summaries, None, &setup_s);
}

fn traced(args: &Args, report: &mut Report) {
    let setup = Setup::build(args.seed);
    let runs =
        window(args.seconds, 3 * MIN_PASSES, USERS as u64, report, |i| setup.pass(1, Mode::nth(i)));
    check(&setup, report, &runs);
    let of = |mode| runs.iter().filter(|p| p.mode == mode).collect::<Vec<_>>();
    let (plain, timed, observed) = (of(Mode::Plain), of(Mode::Timed), of(Mode::Observed));
    if plain.is_empty() || timed.is_empty() || observed.is_empty() {
        report.check("plain, timed and observed passes completed", false, String::new());
        return;
    }
    let med = |passes: &[&Pass], f: &dyn Fn(&Pass) -> f64| {
        median(&passes.iter().map(|p| f(p)).collect::<Vec<_>>())
    };
    let per_decision = |p: &Pass, ns: f64| ns / p.telemetry.decisions.max(1) as f64;
    let mut l = Layers {
        decide_ns: med(&timed, &|p| p50(p.tables.decide_ns_by_retrain().0)),
        retrain_decide_ns: med(&timed, &|p| p50(p.tables.decide_ns_by_retrain().1)),
        retrain_share: med(&timed, &|p| {
            let retrain_ns: u64 =
                p.tables.decide_ns_by_retrain().1.iter().map(|&ns| ns as u64).sum();
            retrain_ns as f64 / (p.wall_s * 1e9)
        }),
        retrains: med(&timed, &|p| p.tables.retrains.load(Relaxed) as f64),
        label_agreement: med(&timed, &|p| p.tables.label_agreement()),
        policy_build_ns: med(&timed, &|p| p.tables.build_ns_per_policy()),
        sweep_cache_hit_rate: med(&timed, &|p| {
            let l1 = &p.telemetry.l1;
            (l1.hits + l1.shared_hits) as f64 / (l1.hits + l1.shared_hits + l1.misses).max(1) as f64
        }),
        claim_ns: med(&timed, &|p| p.tables.claim_ns_per_claim()),
        ..Layers::default()
    };
    let records = setup.recorded();
    let platform = &setup.platform;
    (l.mlp_sgd_step_ns, l.mlp_predict_ns) = layers::mlp(args.seed, platform);
    l.rls_update_ns = layers::rls_update(args.seed);
    let cpu_runs: Vec<_> = setup.specs.iter().map(|s| s.cpu_profiles().into_owned()).collect();
    l.oracle_reference_ns_per_decision =
        layers::oracle_reference(platform, &setup.cache, &cpu_runs);
    l.execute_ns = layers::execute(platform, &records);
    l.generate_ns_per_scenario =
        layers::ns_per_call(USERS, |u| drop(std::hint::black_box(user(args.seed, u % USERS))));
    let trace = layers::trace(platform, &records);
    report.attempted += trace.attempted;
    report.failed += trace.failed;
    l.trace_encode_mb_per_s = trace.encode_mb_per_s();
    l.trace_decode_mb_per_s = trace.decode_mb_per_s();
    l.replay_ns_per_decision = trace.replay_ns_per_decision();
    layers::hetero_sample(args.seed, &mut l);
    // Per decision: decide + Oracle reference + simulator + claim + residual.
    let decide_ns =
        med(&timed, &|p| per_decision(p, p.tables.decide_ns().iter().map(|&ns| ns as f64).sum()));
    let claim_ns = med(&timed, &|p| per_decision(p, p.tables.claim_ns.load(Relaxed) as f64));
    let timed_ns = med(&timed, &|p| per_decision(p, p.wall_s * 1e9));
    l.driver_residual_ns_per_decision =
        timed_ns - decide_ns - l.oracle_reference_ns_per_decision - l.execute_ns - claim_ns;
    let plain_ns = med(&plain, &|p| per_decision(p, p.wall_s * 1e9));
    let observed_ns = med(&observed, &|p| per_decision(p, p.wall_s * 1e9));
    l.tracing_overhead_pct = (timed_ns / plain_ns - 1.0) * 100.0;
    l.registry_overhead_pct = (observed_ns / plain_ns - 1.0) * 100.0;
    l.layer_sum_ratio = timed_ns / plain_ns;
    l.emit(report, timed.len());
}

/// Exact p50 of decide times, 0 when there were none.
fn p50(mut ns: Vec<u32>) -> f64 {
    if ns.is_empty() {
        0.0
    } else {
        crate::report::percentile(&mut ns, 0.5) as f64
    }
}
