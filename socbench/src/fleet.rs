//! `fleet-drain`: the serving infrastructure under open-loop load.  Generated
//! `standard` families (8-snippet scenarios) served by `OndemandGovernor` on
//! two workers, on the virtual clock with service-time queueing over 16 user
//! slots.  Arrivals are Markov calm/storm bursts at a mean offered load of
//! 0.7 (storms offer 1.4, so they build a backlog); the fleet is drained
//! without recording.  The policy costs almost nothing and nothing retrains:
//! the generator, event calendar, queue model, `ScenarioDriver` bookkeeping and
//! simulator do the work.

use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::{Duration, Instant};

use soclearn_governors::OndemandGovernor;
use soclearn_runtime::{Clock, ScenarioDriver, ScenarioRecord, SliceSource, SweepCache};
use soclearn_scenarios::{ArrivalSchedule, FleetSource, ScenarioFamily, ScenarioGenerator};
use soclearn_soc_sim::SocPlatform;

use crate::layers::{self, Layers};
use crate::probe::{cpu_offsets, Mode, PassTables, ProbeSource};
use crate::report::{fold, median, PassSummary, Report};
use crate::{mix, window, Args, SetupTimes, MIN_PASSES};

const USERS: usize = 50_000;
const WORKERS: usize = 2;
const USER_SLOTS: usize = 16;
const SNIPPETS: usize = 8;
/// Mean offered load over the fleet, and the load a storm offers.
const MEAN_LOAD: f64 = 0.7;
const STORM_LOAD: f64 = 1.4;
/// Probability that the arrival process stays in its calm/storm state.
const PERSISTENCE: f64 = 0.9;
/// Scenarios the mean service time is probed on during set-up.
const SERVICE_PROBE: usize = 16_384;
/// Leading scenarios recorded after the window for the Oracle agreement, the
/// energy cross-check and the trace probes.
const RECORDED: usize = 2_048;

/// `generator` without its perturbed-suite family.  That family perturbs one
/// base suite generated from the seed, so the base shifts every scenario of
/// the family at once and fleet totals swing by ~10% from seed to seed; the
/// synthetic families draw every scenario independently.
pub fn synthetic_families(seed: u64, generator: ScenarioGenerator) -> ScenarioGenerator {
    let families = generator
        .families()
        .iter()
        .filter(|f| !matches!(f, ScenarioFamily::PerturbedSuite { .. }))
        .cloned()
        .collect();
    ScenarioGenerator::new(seed, families)
}

struct Setup {
    platform: SocPlatform,
    generator: Arc<ScenarioGenerator>,
    offsets: Arc<Vec<usize>>,
    schedule: ArrivalSchedule,
}

/// What one drain leaves behind; the per-decision tables are reduced as soon
/// as the pass ends, so memory stays one pass deep however many passes run.
struct Pass {
    mode: Mode,
    summary: PassSummary,
    decisions: usize,
    wall_s: f64,
    queue_peak_resident: usize,
    /// Wait ns per decision and contended share of the queue-model and
    /// calendar locks (observed passes only).
    queue_lock: (f64, f64),
    calendar_lock: (f64, f64),
    every_arrival_stamped: bool,
    /// Energy of the leading `RECORDED` scenarios, index order.
    leading_energy_j: Vec<f64>,
    decide_ns: f64,
    claim_ns_per_claim: f64,
    stamp_ns_per_stamp: f64,
    source_ns: f64,
}

impl Setup {
    /// Generates every scenario once (decision counts for the output checks),
    /// probes the mean service time and derives the calm/storm spacings.
    fn build(seed: u64) -> Self {
        let platform = SocPlatform::small();
        let generator =
            Arc::new(synthetic_families(seed, ScenarioGenerator::standard(seed, SNIPPETS)));
        let offsets = cpu_offsets((0..USERS).map(|i| {
            let spec = generator.scenario(i);
            assert_eq!(
                spec.cpu_profiles().len(),
                spec.decision_count(),
                "standard families are CPU-only"
            );
            spec.decision_count()
        }));
        let probe = ScenarioDriver::new(platform.clone(), 1)
            .run(&generator.scenarios(SERVICE_PROBE), |_, _| {
                Box::new(OndemandGovernor::new(&platform))
            });
        let mean_service_s = probe.simulated_time_s / SERVICE_PROBE as f64;
        let storm_s = mean_service_s / (USER_SLOTS as f64 * STORM_LOAD);
        let mean_s = mean_service_s / (USER_SLOTS as f64 * MEAN_LOAD);
        let schedule = ArrivalSchedule::Markov {
            calm: Duration::from_secs_f64(2.0 * mean_s - storm_s),
            storm: Duration::from_secs_f64(storm_s),
            persistence: PERSISTENCE,
            seed: mix(seed, 6),
        };
        Self { platform, generator, offsets, schedule }
    }

    fn pass(&self, workers: usize, mode: Mode) -> Pass {
        let tables = PassTables::new(&self.offsets, mode);
        let obs = mode.observability();
        let clock = Clock::virtual_clock();
        let mut driver = ScenarioDriver::new(self.platform.clone(), workers)
            .with_clock(clock.clone())
            .with_service_time(1.0);
        let fleet = FleetSource::new(Arc::clone(&self.generator), USERS, self.schedule)
            .with_clock(clock)
            .with_queueing(USER_SLOTS);
        if let Some(obs) = &obs {
            driver = driver.with_observability(obs.clone());
            fleet.attach_contention(&obs.registry);
        }
        let source = ProbeSource { inner: &fleet, tables: &tables };
        let started = Instant::now();
        let telemetry = driver
            .run_stream(&source, |i, _| tables.policy(i, || OndemandGovernor::new(&self.platform)));
        let wall_s = started.elapsed().as_secs_f64();
        let (latency_p50_us, latency_p99_us, latency_samples) =
            PassSummary::latency(&mut tables.step_ns());
        let mut sojourn_s: Vec<f64> =
            tables.sojourn_ns().iter().map(|&ns| ns as f64 / 1e9).collect();
        let (sojourn_p50_s, sojourn_p99_s, sojourn_samples) = PassSummary::sojourn(&mut sojourn_s);
        let summary = PassSummary {
            decisions_per_s: telemetry.decisions as f64 / wall_s,
            latency_p50_us,
            latency_p99_us,
            latency_samples,
            energy_j: fold(&tables.scenario_energy_j()),
            oracle_agreement: None,
            sojourn_p50_s,
            sojourn_p99_s,
            sojourn_samples,
        };
        let lock = |site| {
            obs.as_ref()
                .map_or((0.0, 0.0), |obs| layers::lock_site(obs, site, telemetry.decisions))
        };
        let mut leading_energy_j = tables.scenario_energy_j();
        leading_energy_j.truncate(RECORDED);
        Pass {
            mode,
            summary,
            decisions: telemetry.decisions,
            wall_s,
            queue_peak_resident: fleet.queue_peak_resident().unwrap_or(0),
            queue_lock: lock("fleet_queue_model"),
            calendar_lock: lock("fleet_calendar"),
            every_arrival_stamped: tables.sojourn_ns().iter().all(|&ns| ns > 0),
            leading_energy_j,
            decide_ns: tables.decide_ns().iter().map(|&ns| ns as f64).sum(),
            claim_ns_per_claim: tables.claim_ns_per_claim(),
            stamp_ns_per_stamp: tables.stamp_ns_per_stamp(),
            source_ns: (tables.claim_ns.load(Relaxed) + tables.stamp_ns.load(Relaxed)) as f64,
        }
    }

    /// Records the leading scenarios at one worker.
    fn recorded(&self) -> (Vec<ScenarioRecord>, Arc<PassTables>) {
        let specs = self.generator.scenarios(RECORDED);
        let tables =
            PassTables::new(&cpu_offsets(specs.iter().map(|s| s.decision_count())), Mode::Plain);
        let slice = SliceSource::new(&specs);
        let source = ProbeSource { inner: &slice, tables: &tables };
        let (_, records) = ScenarioDriver::new(self.platform.clone(), 1)
            .run_recorded(&source, |i, _| {
                tables.policy(i, || OndemandGovernor::new(&self.platform))
            });
        (records, tables)
    }
}

/// Output checks shared by both runs; returns the Oracle agreement of the
/// recorded leading scenarios and the recording itself.
fn check(setup: &Setup, report: &mut Report, passes: &[Pass]) -> (f64, usize, Vec<ScenarioRecord>) {
    report.attempted += (passes.len() * USERS) as u64;
    let expected = setup.offsets[USERS];
    report.check(
        "decision count matches the input",
        passes.iter().all(|p| p.decisions == expected),
        format!("{expected} per pass"),
    );
    report.check(
        "every arrival stamped",
        passes.iter().all(|p| p.every_arrival_stamped),
        format!("{USERS} per pass"),
    );
    let one = setup.pass(1, Mode::Plain);
    report.attempted += USERS as u64;
    let (records, recorded) = setup.recorded();
    report.attempted += RECORDED as u64;
    let cache = Arc::new(SweepCache::new());
    let (agreement, scored) = layers::oracle_agreement(&setup.platform, &cache, &records);
    if let Some(first) = passes.first() {
        let (a, b) = (&first.summary, &one.summary);
        report.check(
            "energy_j and sojourn equal at 1 and 2 workers",
            a.energy_j.to_bits() == b.energy_j.to_bits()
                && a.sojourn_p50_s.to_bits() == b.sojourn_p50_s.to_bits()
                && a.sojourn_p99_s.to_bits() == b.sojourn_p99_s.to_bits()
                && one.decisions == expected,
            format!("{} J vs {} J", a.energy_j, b.energy_j),
        );
        report.check(
            "recorded scenarios reproduce the drained energy",
            recorded
                .scenario_energy_j()
                .iter()
                .zip(&first.leading_energy_j)
                .all(|(r, d)| r.to_bits() == d.to_bits()),
            format!("{RECORDED} leading scenarios"),
        );
    }
    (agreement, scored, records)
}

pub fn run(args: &Args, report: &mut Report) {
    if args.traced {
        return traced(args, report);
    }
    let build = || Setup::build(args.seed);
    let (setup, mut setups) = SetupTimes::first(args.seconds, build);
    let passes = window(args.seconds, MIN_PASSES, USERS as u64, report, |i| {
        setups.between_passes(i, build);
        setup.pass(WORKERS, Mode::Plain)
    });
    let setup_s = setups.finish(build);
    let (agreement, scored, _) = check(&setup, report, &passes);
    let summaries: Vec<_> = passes.into_iter().map(|p| p.summary).collect();
    let note = format!("Oracle-scored, {scored} decisions of the first {RECORDED} scenarios");
    report.end_to_end(&summaries, Some((agreement, note)), &setup_s);
}

fn traced(args: &Args, report: &mut Report) {
    let setup = Setup::build(args.seed);
    let runs = window(args.seconds, 3 * MIN_PASSES, USERS as u64, report, |i| {
        setup.pass(WORKERS, Mode::nth(i))
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
    let mut l = Layers {
        claim_ns: med(&timed, &|p| p.claim_ns_per_claim),
        stamp_ns: med(&timed, &|p| p.stamp_ns_per_stamp),
        queue_peak_resident: med(&timed, &|p| p.queue_peak_resident as f64),
        queue_lock_wait_ns: med(&observed, &|p| p.queue_lock.0),
        queue_lock_contended_share: med(&observed, &|p| p.queue_lock.1),
        calendar_lock_wait_ns: med(&observed, &|p| p.calendar_lock.0),
        calendar_lock_contended_share: med(&observed, &|p| p.calendar_lock.1),
        ..Layers::default()
    };
    let platform = &setup.platform;
    (l.mlp_sgd_step_ns, l.mlp_predict_ns) = layers::mlp(args.seed, platform);
    l.rls_update_ns = layers::rls_update(args.seed);
    let cpu_runs: Vec<_> = records
        .iter()
        .map(|r| {
            r.decisions
                .iter()
                .filter_map(|d| d.as_cpu().map(|d| d.profile.clone()))
                .collect()
        })
        .collect();
    l.oracle_reference_ns_per_decision =
        layers::oracle_reference(platform, &Arc::new(SweepCache::new()), &cpu_runs);
    l.execute_ns = layers::execute(platform, &records);
    l.generate_ns_per_scenario = layers::ns_per_call(1_000, |i| {
        drop(std::hint::black_box(setup.generator.scenario(i)));
    });
    let trace = layers::trace(platform, &records);
    report.attempted += trace.attempted;
    report.failed += trace.failed;
    l.trace_encode_mb_per_s = trace.encode_mb_per_s();
    l.trace_decode_mb_per_s = trace.decode_mb_per_s();
    l.replay_ns_per_decision = trace.replay_ns_per_decision();
    layers::hetero_sample(args.seed, &mut l);
    // Worker time per decision (both workers' wall time over the pass):
    // decide + simulator + claim + stamp + residual.
    let worker_ns = |p: &Pass| p.wall_s * 1e9 * WORKERS as f64 / p.decisions.max(1) as f64;
    let decide_ns = med(&timed, &|p| p.decide_ns / p.decisions.max(1) as f64);
    let source_ns = med(&timed, &|p| p.source_ns / p.decisions.max(1) as f64);
    let timed_ns = med(&timed, &worker_ns);
    l.driver_residual_ns_per_decision = timed_ns - decide_ns - l.execute_ns - source_ns;
    let plain_ns = med(&plain, &worker_ns);
    l.tracing_overhead_pct = (timed_ns / plain_ns - 1.0) * 100.0;
    l.registry_overhead_pct = (med(&observed, &worker_ns) / plain_ns - 1.0) * 100.0;
    l.layer_sum_ratio = timed_ns / plain_ns;
    l.emit(report, timed.len());
}
