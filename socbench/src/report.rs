//! Statistics helpers and the benchmark's output: one line per metric with
//! its unit and sample count, one per output check, then the result object.

use std::fmt::Write as _;

/// Zero-based index of the nearest-rank `q` percentile in a sorted sample of
/// `n` values.
fn rank(n: usize, q: f64) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Nearest-rank percentile (`q` in `(0, 1]`) of `values`, exact.
pub fn percentile<T: Copy + Ord>(values: &mut [T], q: f64) -> T {
    *values.select_nth_unstable(rank(values.len(), q)).1
}

/// Percentile of 1 ns-resolution timings as a grouped-data percentile: the
/// exact nearest-rank value `v`, interpolated inside its 1 ns bin
/// `[v - 0.5, v + 0.5)` by where rank `q·n` falls among the samples equal to
/// `v`.  Nanosecond-scale calls tie heavily; the interpolation lets shifts
/// smaller than the timer's resolution show instead of reading one integer.
pub fn timing_percentile(values: &mut [u32], q: f64) -> f64 {
    let v = percentile(values, q);
    let below = values.iter().filter(|&&x| x < v).count();
    let equal = values.iter().filter(|&&x| x == v).count();
    let into_bin = (q * values.len() as f64 - below as f64) / equal as f64;
    v as f64 - 0.5 + into_bin.clamp(0.0, 1.0)
}

/// Nearest-rank `q` quantile (`q` in `(0, 1]`) of `values`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), q)]
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Sums `values` in index order — the fold that makes a total independent of
/// which worker served which scenario.
pub fn fold(values: &[f64]) -> f64 {
    values.iter().fold(0.0, |sum, v| sum + v)
}

/// Sojourn of each scenario when one server serves them in index order, all
/// admitted at time zero: the running sum of their service times.
pub fn serial_sojourn(service_s: &[f64]) -> Vec<f64> {
    service_s
        .iter()
        .scan(0.0, |done, s| {
            *done += s;
            Some(*done)
        })
        .collect()
}

/// Whether every value equals the first, bit for bit.
pub fn all_equal<T: PartialEq>(values: &[T]) -> bool {
    values.windows(2).all(|w| w[0] == w[1])
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: String,
}

struct Check {
    name: String,
    ok: bool,
    detail: String,
}

/// Everything one benchmark run reports.
#[derive(Default)]
pub struct Report {
    metrics: Vec<Metric>,
    checks: Vec<Check>,
    /// Operations attempted: scenarios served, traces decoded, scenarios
    /// replayed.
    pub attempted: u64,
    /// Operations failed: scenarios of a panicked pass, trace decode errors,
    /// replays that were not bit-identical.
    pub failed: u64,
    /// `VmHWM` after the window's first passes (see [`crate::window`]).
    pub peak_rss_mb: Option<f64>,
    /// Calibration kernel time around each pass of the window, ns (see
    /// [`crate::window`] and [`crate::calibrate`]).
    pub calibration_ns: Vec<f64>,
}

impl Report {
    /// Records a metric; `samples` states what the value was computed from.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: String) {
        self.metrics.push(Metric { name: name.to_owned(), value, unit, samples });
    }

    /// Records an output check.
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.checks.push(Check { name: name.to_owned(), ok, detail });
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.checks.iter().all(|c| c.ok)
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// Prints the human-readable lines and, last, the one-line result object.
    pub fn print(&self) {
        for m in &self.metrics {
            println!("metric {:<44} {:>18} {:<6} [{}]", m.name, m.value, m.unit, m.samples);
        }
        for c in &self.checks {
            println!("check  {:<44} {} ({})", c.name, if c.ok { "ok" } else { "FAILED" }, c.detail);
        }
        println!("ops    attempted {} failed {}", self.attempted, self.failed);
        let mut json = String::new();
        let _ = write!(
            json,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // Non-finite values have no JSON form; `correct` is already false.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

/// The end-to-end figures of one measured pass.
pub struct PassSummary {
    pub decisions_per_s: f64,
    /// Per-pass percentiles of the CPU decision-step times, µs.
    pub latency_p50_us: f64,
    pub latency_p99_us: f64,
    pub latency_samples: usize,
    /// Per-scenario energy folded in index order, joules.
    pub energy_j: f64,
    /// Oracle agreement of the pass, when `ScenarioDriver` scored it.
    pub oracle_agreement: Option<f64>,
    pub sojourn_p50_s: f64,
    pub sojourn_p99_s: f64,
    pub sojourn_samples: usize,
}

impl PassSummary {
    /// Latency percentiles of one pass's decision-step times.
    pub fn latency(decide_ns: &mut [u32]) -> (f64, f64, usize) {
        (
            timing_percentile(decide_ns, 0.50) / 1e3,
            timing_percentile(decide_ns, 0.99) / 1e3,
            decide_ns.len(),
        )
    }

    /// Nearest-rank sojourn percentiles of per-scenario seconds.
    pub fn sojourn(sojourn_s: &mut [f64]) -> (f64, f64, usize) {
        sojourn_s.sort_by(f64::total_cmp);
        let at = |q: f64| sojourn_s[rank(sojourn_s.len(), q)];
        (at(0.50), at(0.99), sojourn_s.len())
    }
}

impl Report {
    /// Reports the end-to-end metrics of a timed run — throughput, latency
    /// and set-up time as quantiles over `passes` and `setup_s`, scaled to
    /// the reference host speed (see [`crate::calibrate`]); the simulated outputs
    /// (which every pass must reproduce exactly) from the first pass — and
    /// checks the cross-pass equalities.  `agreement` overrides the passes'
    /// own Oracle agreement for workloads whose `ScenarioDriver` serves
    /// without an Oracle reference.
    pub fn end_to_end(
        &mut self,
        passes: &[PassSummary],
        agreement: Option<(f64, String)>,
        setup_s: &[f64],
    ) {
        let n = passes.len();
        let Some(first) = passes.first() else {
            self.check("at least one pass completed", false, "every pass panicked".to_owned());
            return;
        };
        let print = |name: &str, values: &mut dyn Iterator<Item = f64>| {
            let values: Vec<String> = values.map(|v| format!("{v}")).collect();
            println!("passes {name} [{}]", values.join(", "));
        };
        print("decisions_per_s", &mut passes.iter().map(|p| p.decisions_per_s));
        print("decision_latency_p50_us", &mut passes.iter().map(|p| p.latency_p50_us));
        print("decision_latency_p99_us", &mut passes.iter().map(|p| p.latency_p99_us));
        print("calibration_ns", &mut self.calibration_ns.iter().copied());
        print("setup_s", &mut setup_s.iter().copied());
        // A host `slowdown` of 2 means the kernel took twice its reference
        // time around a pass: the pass's host times are divided by it (the
        // p99 by its `TAIL_EXPONENT` power), its rate multiplied.
        assert_eq!(self.calibration_ns.len(), n, "one calibration per pass");
        let slowdown: Vec<f64> = self
            .calibration_ns
            .iter()
            .map(|ns| ns / crate::calibrate::REFERENCE_NS)
            .collect();
        let med = |f: fn(&PassSummary) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
        // The `q` quantile over passes of `f` divided by the slowdown to
        // `power` (1 scales a time, -1 a rate).  Throughput and p50 take the
        // faster quartile: besides the contention the kernel feels, the host
        // has episodes that slow il-serving's steps ~2x and leave the kernel
        // alone, covering 10-80% of a run's passes, and the faster quartile
        // stays clear of them more often than the median.  The tail takes
        // the median, which spread less than its faster quartile.
        let scaled = |f: fn(&PassSummary) -> f64, power: f64, q: f64| {
            let values: Vec<f64> =
                passes.iter().zip(&slowdown).map(|(p, s)| f(p) / s.powf(power)).collect();
            quantile(&values, q)
        };
        let raw = |name: &str, value: f64| println!("raw    {name} {value} (unscaled median)");
        raw("decisions_per_s", med(|p| p.decisions_per_s));
        raw("decision_latency_p50_us", med(|p| p.latency_p50_us));
        raw("decision_latency_p99_us", med(|p| p.latency_p99_us));
        raw("setup_s", median(setup_s));
        raw("calibration_ns", median(&self.calibration_ns));
        let scaled_n = |what: &str| {
            format!(
                "{what} of {n} passes scaled to the reference host speed, n={} CPU decision \
                 steps each",
                first.latency_samples
            )
        };
        self.metric(
            "decisions_per_s",
            scaled(|p| p.decisions_per_s, -1.0, 0.75),
            "1/s",
            format!("upper quartile of {n} passes scaled to the reference host speed"),
        );
        self.metric(
            "decision_latency_p50_us",
            scaled(|p| p.latency_p50_us, 1.0, 0.25),
            "us",
            scaled_n("lower quartile"),
        );
        self.metric(
            "decision_latency_p99_us",
            scaled(|p| p.latency_p99_us, crate::calibrate::TAIL_EXPONENT, 0.5),
            "us",
            scaled_n("median"),
        );
        self.metric("energy_j", first.energy_j, "J", format!("{n} passes, identical"));
        let (agreement, agreement_note) = match agreement {
            Some(given) => given,
            None => (first.oracle_agreement.unwrap_or(f64::NAN), format!("{n} passes, identical")),
        };
        self.metric("oracle_agreement", agreement, "share", agreement_note);
        let sojourn_n = format!("{n} passes, identical, n={} scenarios", first.sojourn_samples);
        self.metric("sojourn_p50_s", first.sojourn_p50_s, "s", sojourn_n.clone());
        self.metric("sojourn_p99_s", first.sojourn_p99_s, "s", sojourn_n);
        // Set-ups run between passes; they are scaled by the run's median
        // kernel time.
        self.metric(
            "setup_s",
            median(setup_s) / median(&slowdown),
            "s",
            format!("median of {} set-ups spread over the window, scaled", setup_s.len()),
        );
        let peak_rss_mb = self.peak_rss_mb.unwrap_or_else(crate::peak_rss_mb);
        self.metric(
            "peak_rss_mb",
            peak_rss_mb,
            "MB",
            format!("VmHWM after set-up and {} passes", crate::MIN_PASSES),
        );
        let bits = |f: fn(&PassSummary) -> f64| -> Vec<u64> {
            passes.iter().map(|p| f(p).to_bits()).collect()
        };
        self.check(
            "energy_j equal across passes",
            all_equal(&bits(|p| p.energy_j)),
            format!("{n} passes"),
        );
        self.check(
            "oracle_agreement equal across passes",
            all_equal(
                &passes.iter().map(|p| p.oracle_agreement.map(f64::to_bits)).collect::<Vec<_>>(),
            ),
            format!("{n} passes"),
        );
        self.check(
            "sojourn percentiles equal across passes",
            all_equal(&bits(|p| p.sojourn_p50_s)) && all_equal(&bits(|p| p.sojourn_p99_s)),
            format!("{n} passes"),
        );
    }
}
