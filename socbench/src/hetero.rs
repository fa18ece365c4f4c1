//! `hetero-replay`: the GPU, NMPC and NoC substrates plus the trace
//! write-and-read path.  Generated `heterogeneous` families served closed
//! loop on one worker with `SubstratePolicies::learned` (CPU ondemand, GPU
//! NMPC, NoC SVR), recorded, encoded to a v3 trace, decoded, and every
//! scenario replayed; a pass is that whole pipeline.

use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Instant;

use soclearn_governors::OndemandGovernor;
use soclearn_runtime::{
    DecisionKind, ScenarioDriver, ScenarioRecord, ScenarioSpec, SliceSource, SubstrateDecision,
    SubstratePolicies, SubstrateRecord, SweepCache,
};
use soclearn_scenarios::ScenarioGenerator;
use soclearn_soc_sim::SocPlatform;

use crate::fleet::synthetic_families;
use crate::layers::{self, Layers, TraceCost};
use crate::probe::{cpu_offsets, Mode, PassTables, ProbeSource};
use crate::report::{fold, median, serial_sojourn, PassSummary, Report};
use crate::{window, Args, SetupTimes, MIN_PASSES};

/// Scenarios per pass: a whole number of rounds over the six families.
const SCENARIOS: usize = 300;
const SNIPPETS: usize = 8;
/// Scenarios served once during set-up to warm code and allocator.
const WARM_UP: usize = 60;

struct Setup {
    platform: SocPlatform,
    specs: Vec<ScenarioSpec>,
    offsets: Arc<Vec<usize>>,
}

/// What one pass leaves behind; its recording is dropped with the pass, so
/// memory stays one pass deep however many passes run.
struct Pass {
    mode: Mode,
    summary: PassSummary,
    tables: Arc<PassTables>,
    trace: TraceCost,
    decisions: usize,
    serve_s: f64,
    wall_s: f64,
    /// The CPU energy the policy observed equals the recording's, per scenario.
    cpu_energy_recorded: bool,
}

impl Setup {
    /// Generates the scenarios and warms up by serving, recording and
    /// replaying the first `WARM_UP` of them once, untimed.
    fn build(seed: u64) -> Self {
        let generator = synthetic_families(seed, ScenarioGenerator::heterogeneous(seed, SNIPPETS));
        let specs = generator.scenarios(SCENARIOS);
        let warm_up = Self::new(specs[..WARM_UP].to_vec());
        warm_up.pass(1, Mode::Plain);
        Self::new(specs)
    }

    fn new(specs: Vec<ScenarioSpec>) -> Self {
        let offsets = cpu_offsets(specs.iter().map(|s| s.cpu_profiles().len()));
        Self { platform: SocPlatform::small(), specs, offsets }
    }

    fn expected_decisions(&self) -> usize {
        self.specs.iter().map(ScenarioSpec::decision_count).sum()
    }

    /// Serves, records, encodes, decodes and replays every scenario.
    fn pass(&self, workers: usize, mode: Mode) -> Pass {
        self.recorded_pass(workers, mode).0
    }

    fn recorded_pass(&self, workers: usize, mode: Mode) -> (Pass, Vec<ScenarioRecord>) {
        let tables = PassTables::new(&self.offsets, mode);
        let mut driver = ScenarioDriver::new(self.platform.clone(), workers);
        if let Some(obs) = mode.observability() {
            driver = driver.with_observability(obs);
        }
        let slice = SliceSource::new(&self.specs);
        let source = ProbeSource { inner: &slice, tables: &tables };
        let started = Instant::now();
        let (telemetry, records) = driver.run_recorded_mixed(&source, |i, _| {
            SubstratePolicies::learned(tables.policy(i, || OndemandGovernor::new(&self.platform)))
        });
        let serve_s = started.elapsed().as_secs_f64();
        let trace = layers::trace(&self.platform, &records);
        let wall_s = started.elapsed().as_secs_f64();
        let (latency_p50_us, latency_p99_us, latency_samples) =
            PassSummary::latency(&mut tables.step_ns());
        let service_s: Vec<f64> = records
            .iter()
            .map(|r| r.decisions.iter().map(SubstrateDecision::service_time_s).sum())
            .collect();
        let (sojourn_p50_s, sojourn_p99_s, sojourn_samples) =
            PassSummary::sojourn(&mut serial_sojourn(&service_s));
        let summary = PassSummary {
            decisions_per_s: telemetry.decisions as f64 / wall_s,
            latency_p50_us,
            latency_p99_us,
            latency_samples,
            energy_j: fold(&trace.scenario_energy_j),
            oracle_agreement: None,
            sojourn_p50_s,
            sojourn_p99_s,
            sojourn_samples,
        };
        let recorded_cpu = records.iter().map(|r| {
            r.decisions
                .iter()
                .filter_map(SubstrateRecord::as_cpu)
                .fold(0.0, |sum, d| sum + d.energy_j)
        });
        let cpu_energy_recorded = tables
            .scenario_energy_j()
            .iter()
            .zip(recorded_cpu)
            .all(|(a, b)| a.to_bits() == b.to_bits());
        let pass = Pass {
            mode,
            summary,
            tables,
            trace,
            decisions: telemetry.decisions,
            serve_s,
            wall_s,
            cpu_energy_recorded,
        };
        (pass, records)
    }
}

/// Output checks of both runs, against an extra two-worker pass; returns the
/// Oracle agreement of its CPU decisions and its recording.
fn check(setup: &Setup, report: &mut Report, passes: &[Pass]) -> (f64, usize, Vec<ScenarioRecord>) {
    let (two, records) = setup.recorded_pass(2, Mode::Plain);
    let expected = setup.expected_decisions();
    for pass in passes.iter().chain([&two]) {
        report.attempted += SCENARIOS as u64 + pass.trace.attempted;
        report.failed += pass.trace.failed;
    }
    report.check(
        "decision count matches the input",
        passes.iter().all(|p| p.decisions == expected && p.trace.decisions == expected),
        format!("{expected} served and replayed per pass"),
    );
    report.check(
        "trace bytes equal across passes",
        passes.iter().all(|p| p.trace.digest == two.trace.digest),
        format!("{} bytes", two.trace.bytes),
    );
    report.check(
        "policy-observed CPU energy matches the recording",
        passes.iter().chain([&two]).all(|p| p.cpu_energy_recorded),
        format!("{SCENARIOS} scenarios"),
    );
    if let Some(first) = passes.first() {
        report.check(
            "energy_j and trace equal at 1 and 2 workers",
            two.summary.energy_j.to_bits() == first.summary.energy_j.to_bits()
                && two.trace.digest == first.trace.digest,
            format!("{} J vs {} J", first.summary.energy_j, two.summary.energy_j),
        );
    }
    let (agreement, scored) =
        layers::oracle_agreement(&setup.platform, &Arc::new(SweepCache::new()), &records);
    (agreement, scored, records)
}

pub fn run(args: &Args, report: &mut Report) {
    if args.traced {
        return traced(args, report);
    }
    let build = || Setup::build(args.seed);
    let (setup, mut setups) = SetupTimes::first(args.seconds, build);
    let passes = window(args.seconds, MIN_PASSES, SCENARIOS as u64, report, |i| {
        setups.between_passes(i, build);
        setup.pass(1, Mode::Plain)
    });
    let setup_s = setups.finish(build);
    let (agreement, scored, _) = check(&setup, report, &passes);
    let summaries: Vec<_> = passes.into_iter().map(|p| p.summary).collect();
    let note = format!("Oracle-scored, {scored} CPU decisions of the two-worker check pass");
    report.end_to_end(&summaries, Some((agreement, note)), &setup_s);
}

fn traced(args: &Args, report: &mut Report) {
    let setup = Setup::build(args.seed);
    let runs = window(args.seconds, 3 * MIN_PASSES, SCENARIOS as u64, report, |i| {
        setup.pass(1, Mode::nth(i))
    });
    let (_, _, records) = check(&setup, report, &runs);
    let of = |mode| runs.iter().filter(|p| p.mode == mode).collect::<Vec<_>>();
    let (plain, timed, observed) = (of(Mode::Plain), of(Mode::Timed), of(Mode::Observed));
    if plain.is_empty() || timed.is_empty() || observed.is_empty() {
        report.check("plain, timed and observed passes completed", false, String::new());
        return;
    }
    let med = |passes: &[&Pass], f: &dyn Fn(&Pass) -> f64| {
        median(&passes.iter().map(|p| f(p)).collect::<Vec<_>>())
    };
    let per_decision = |p: &Pass, ns: f64| ns / p.decisions.max(1) as f64;
    let mut l = Layers {
        claim_ns: med(&timed, &|p| p.tables.claim_ns_per_claim()),
        trace_encode_mb_per_s: med(&timed, &|p| p.trace.encode_mb_per_s()),
        trace_decode_mb_per_s: med(&timed, &|p| p.trace.decode_mb_per_s()),
        replay_ns_per_decision: med(&timed, &|p| p.trace.replay_ns_per_decision()),
        ..Layers::default()
    };
    let platform = &setup.platform;
    (l.mlp_sgd_step_ns, l.mlp_predict_ns) = layers::mlp(args.seed, platform);
    l.rls_update_ns = layers::rls_update(args.seed);
    let cpu_runs: Vec<_> = setup.specs.iter().map(|s| s.cpu_profiles().into_owned()).collect();
    l.oracle_reference_ns_per_decision =
        layers::oracle_reference(platform, &Arc::new(SweepCache::new()), &cpu_runs);
    l.execute_ns = layers::execute(platform, &records);
    let generator =
        synthetic_families(args.seed, ScenarioGenerator::heterogeneous(args.seed, SNIPPETS));
    l.generate_ns_per_scenario =
        layers::ns_per_call(SCENARIOS, |i| drop(std::hint::black_box(generator.scenario(i))));
    l.fill_substrates(&layers::substrates(platform, &setup.specs[..WARM_UP]));
    // Per decision, the serve step: decide + claim + CPU simulator + GPU
    // frames with NMPC + NoC windows with the SVR + residual; then the trace
    // encode, decode and replay, timed in-situ.
    let count =
        |kind| records.iter().flat_map(|r| &r.decisions).filter(|d| d.kind() == kind).count();
    let share = |kind| count(kind) as f64 / setup.expected_decisions() as f64;
    let decide_ns =
        med(&timed, &|p| per_decision(p, p.tables.decide_ns().iter().map(|&ns| ns as f64).sum()));
    let claim_ns = med(&timed, &|p| per_decision(p, p.tables.claim_ns.load(Relaxed) as f64));
    let serve_layers = decide_ns
        + claim_ns
        + l.execute_ns * share(DecisionKind::Cpu)
        + (l.frame_ns + l.nmpc_serve_ns_per_frame) * share(DecisionKind::Gpu)
        + (l.window_sim_ns + l.svr_serve_ns_per_decision) * share(DecisionKind::Noc);
    l.driver_residual_ns_per_decision =
        med(&timed, &|p| per_decision(p, p.serve_s * 1e9)) - serve_layers;
    let wall_ns = |p: &Pass| per_decision(p, p.wall_s * 1e9);
    let (timed_ns, plain_ns) = (med(&timed, &wall_ns), med(&plain, &wall_ns));
    l.tracing_overhead_pct = (timed_ns / plain_ns - 1.0) * 100.0;
    l.registry_overhead_pct = (med(&observed, &wall_ns) / plain_ns - 1.0) * 100.0;
    l.layer_sum_ratio = timed_ns / plain_ns;
    l.emit(report, timed.len());
}
