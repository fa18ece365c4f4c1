//! soclearn benchmark: one workload per invocation.
//!
//! ```text
//! socbench --workload <il-serving|fleet-drain|hetero-replay> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` is the timed run and prints the end-to-end metrics; `--trace 1`
//! is the traced run and prints the per-layer metrics.  Every layer is timed
//! from outside, through its public API (see `probe.rs` and `layers.rs`).
//! The last line of standard output is the result object
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`; the
//! process exits non-zero when any output check fails.

mod calibrate;
mod fleet;
mod hetero;
mod il;
mod layers;
mod probe;
mod report;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use calibrate::Calibration;
use report::Report;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

impl Args {
    fn parse() -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    seconds = Some(value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
                }
                "--trace" => trace = Some(value),
                other => return Err(format!("unknown flag {other}")),
            }
        }
        let seconds = seconds.unwrap_or(10.0);
        if !(seconds.is_finite() && seconds > 0.0) {
            return Err("--seconds must be positive".to_owned());
        }
        let traced = match trace.as_deref().unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        };
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            traced,
        })
    }
}

/// SplitMix64 of `seed` and `stream`: independent per-user / per-probe seeds
/// derived from the benchmark's one seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Set-ups a timed run times; `setup_s` is their median.
pub const SETUP_REPS: usize = 7;

/// Passes a timed run makes however short its window (a traced run makes
/// this many of each kind).
pub const MIN_PASSES: usize = 3;

/// Set-up times of a timed run.  The first set-up builds what the passes
/// use; the others are throwaway rebuilds spread evenly over the window, so
/// that one slow episode of the shared host cannot cover them all.
pub struct SetupTimes {
    window_s: f64,
    started: Instant,
    seconds: Vec<f64>,
}

impl SetupTimes {
    fn time<T>(&mut self, build: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let built = build();
        self.seconds.push(started.elapsed().as_secs_f64());
        built
    }

    /// Builds and times the set-up the run's passes use.
    pub fn first<T>(window_s: f64, build: impl FnOnce() -> T) -> (T, Self) {
        let mut times = Self { window_s, started: Instant::now(), seconds: Vec::new() };
        let built = times.time(build);
        times.started = Instant::now();
        (built, times)
    }

    /// Called before pass `pass`: once the first `MIN_PASSES` passes (and the
    /// peak-RSS reading after them) are done, times a throwaway set-up
    /// whenever the next one is due.
    pub fn between_passes<T>(&mut self, pass: usize, build: impl FnOnce() -> T) {
        let due = self.seconds.len() as f64 * self.window_s / SETUP_REPS as f64;
        if pass >= MIN_PASSES
            && self.seconds.len() < SETUP_REPS
            && self.started.elapsed().as_secs_f64() >= due
        {
            drop(self.time(build));
        }
    }

    /// Times the set-ups a short window left out; every set-up's seconds.
    pub fn finish<T>(mut self, build: impl Fn() -> T) -> Vec<f64> {
        while self.seconds.len() < SETUP_REPS {
            drop(self.time(&build));
        }
        self.seconds
    }
}

/// Runs passes until `seconds` have elapsed and at least `min_passes` ran.
/// A pass that panics is caught, counted as `scenarios` failed operations and
/// yields nothing; after three panics the window closes.  The peak resident
/// set is read once `min_passes` passes are done, so it measures a fixed
/// amount of work however many passes the host's speed fits in the window.
/// The calibration kernel runs between passes and around the window; each
/// pass is credited the mean of the runs just before and just after it.
pub fn window<T>(
    seconds: f64,
    min_passes: usize,
    scenarios: u64,
    report: &mut Report,
    mut pass: impl FnMut(usize) -> T,
) -> Vec<T> {
    let calibration = Calibration::new();
    let started = Instant::now();
    let mut results = Vec::new();
    let mut panics = 0;
    let mut i = 0;
    let mut before = calibration.run();
    while (results.len() < min_passes || started.elapsed().as_secs_f64() < seconds) && panics < 3 {
        let outcome = catch_unwind(AssertUnwindSafe(|| pass(i)));
        let after = calibration.run();
        match outcome {
            Ok(result) => {
                results.push(result);
                report.calibration_ns.push((before + after) / 2.0);
                if results.len() == min_passes {
                    report.peak_rss_mb = Some(peak_rss_mb());
                }
            }
            Err(_) => {
                panics += 1;
                report.attempted += scenarios;
                report.failed += scenarios;
            }
        }
        before = after;
        i += 1;
    }
    results
}

/// Peak resident set size of this process (`VmHWM`), megabytes.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn main() {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("socbench: {message}");
            std::process::exit(2);
        }
    };
    // Panics inside passes are caught and counted; keep their messages short.
    std::panic::set_hook(Box::new(|info| eprintln!("socbench: pass panicked: {info}")));
    let mut report = Report::default();
    match args.workload.as_str() {
        "il-serving" => il::run(&args, &mut report),
        "fleet-drain" => fleet::run(&args, &mut report),
        "hetero-replay" => hetero::run(&args, &mut report),
        other => {
            eprintln!("socbench: unknown workload {other}");
            std::process::exit(2);
        }
    }
    report.print();
    if !report.correct() {
        std::process::exit(1);
    }
}
