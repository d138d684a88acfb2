//! The measuring method shared by every workload: fixed-work slices,
//! each bracketed by speed probes, restated at nominal machine speed,
//! and summarised by the least-disturbed tenth of the slices.

use crate::machine::{self, Probe};
use crate::stats::{quantile, quartiles, LogHist, Quartiles};

/// Slices per second of `--seconds`: the slice count is fixed by the
/// command line, never by how fast the machine happens to be, so a run
/// does the same work on every commit. Slices are sized to take about
/// 80 ms at nominal speed; the box's regimes last seconds, so a slice
/// mostly sits inside one and its two probes describe it.
pub const SLICES_PER_SECOND: u64 = 12;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// One slice as measured.
#[derive(Debug, Clone)]
pub struct Sample {
    pub probe_before_ms: f64,
    pub probe_after_ms: f64,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub checks: u64,
    pub p50_ns: f64,
    pub p99_ns: f64,
}

/// What a workload hands back from one slice.
#[derive(Debug)]
pub struct RawSlice {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub checks: u64,
    pub latency: LogHist,
}

/// Runs `slices` slices, probing the machine before the first and after
/// each, so that neighbouring slices share a probe.
pub fn measure<E>(
    probe: &mut Probe,
    slices: u64,
    mut run: impl FnMut(u64) -> Result<RawSlice, E>,
) -> Result<Vec<Sample>, E> {
    let mut samples = Vec::with_capacity(slices as usize);
    let mut before = probe.run();
    for i in 0..slices {
        let raw = run(i)?;
        let after = probe.run();
        samples.push(Sample {
            probe_before_ms: before,
            probe_after_ms: after,
            wall_s: raw.wall_s,
            cpu_s: raw.cpu_s,
            checks: raw.checks,
            p50_ns: raw.latency.quantile(0.5).unwrap_or(0.0),
            p99_ns: raw.latency.quantile(0.99).unwrap_or(0.0),
        });
        before = after;
    }
    Ok(samples)
}

/// Times `set_up` between two probes and restates it at nominal speed;
/// returns `(normalised seconds, raw seconds, what set_up built)`.
pub fn timed_setup<T, E>(
    probe: &mut Probe,
    excess: f64,
    set_up: impl FnOnce() -> Result<T, E>,
) -> Result<(f64, f64, T), E> {
    let before = probe.run();
    let start = std::time::Instant::now();
    let built = set_up()?;
    let raw = start.elapsed().as_secs_f64();
    let after = probe.run();
    Ok((machine::normalise(raw, excess, before, after), raw, built))
}

/// Which of a run's per-slice values stands for the run: the one a tenth
/// of the way in from the good end (the lower decile of a time, the
/// upper decile of a rate).
///
/// What the reference box adds to a slice is only ever time, and it adds
/// it in bursts: a vCPU is taken away for some milliseconds, the mean and
/// the tail of the slice's latencies rise, its median hardly moves. How
/// many slices of a run are hit changes from minute to minute, and the
/// median over slices moved with it; the least-disturbed tenth says what
/// the program itself costs and repeated about twice as well on recorded
/// runs (the README has the numbers). With 12 slices per second of
/// `--seconds` it is never the best slice, which may be a fluke.
pub const SLICE_QUANTILE: f64 = 0.10;

/// A metric as reported: [`SLICE_QUANTILE`] over slices of the normalised
/// per-slice value, with the quartiles over slices and the same quantile
/// of the un-normalised values beside it for the record.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub spread: Option<Quartiles>,
    pub raw: Option<f64>,
}

impl Metric {
    /// `setup_s`: the median over a run's set-ups, each restated at
    /// nominal speed, with their un-normalised median beside it.
    pub fn setup(normalised: &[f64], raw: &[f64]) -> Metric {
        let spread = quartiles(normalised);
        Metric {
            name: "setup_s",
            unit: "s",
            value: spread.median,
            spread: Some(spread),
            raw: Some(quartiles(raw).median),
        }
    }

    /// A metric that is a single reading, not taken over slices.
    pub fn plain(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            spread: None,
            raw: None,
        }
    }
}

fn slice_metric(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    samples: &[Sample],
    excess: f64,
    value: impl Fn(&Sample, f64) -> f64,
) -> Metric {
    // `value` gets the sample and the factor that restates a time
    // measured during it at nominal speed.
    let normalised: Vec<f64> = samples
        .iter()
        .map(|s| {
            value(
                s,
                machine::normalise(1.0, excess, s.probe_before_ms, s.probe_after_ms),
            )
        })
        .collect();
    let raw: Vec<f64> = samples.iter().map(|s| value(s, 1.0)).collect();
    let q = if higher_is_better {
        1.0 - SLICE_QUANTILE
    } else {
        SLICE_QUANTILE
    };
    Metric {
        name,
        unit,
        value: quantile(&normalised, q),
        spread: Some(quartiles(&normalised)),
        raw: Some(quantile(&raw, q)),
    }
}

/// The four slice-sampled end-to-end metrics.
pub fn slice_metrics(samples: &[Sample], excess: f64) -> Vec<Metric> {
    vec![
        slice_metric("checks_per_s", "1/s", true, samples, excess, |s, f| {
            s.checks as f64 / (s.wall_s * f)
        }),
        slice_metric("cpu_us_per_check", "us", false, samples, excess, |s, f| {
            s.cpu_s * f * 1e6 / s.checks as f64
        }),
        slice_metric("check_p50_us", "us", false, samples, excess, |s, f| {
            s.p50_ns * f / 1e3
        }),
        slice_metric("check_p99_us", "us", false, samples, excess, |s, f| {
            s.p99_ns * f / 1e3
        }),
    ]
}

/// Median probe time and its p90/p10 spread over a run's samples.
pub fn probe_summary(samples: &[Sample]) -> (f64, f64) {
    let probes: Vec<f64> = samples.iter().map(|s| s.probe_after_ms).collect();
    (
        quantile(&probes, 0.5),
        quantile(&probes, 0.9) / quantile(&probes, 0.1),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::PROBE_NOMINAL_MS;

    fn sample(probe_ms: f64, wall_s: f64) -> Sample {
        Sample {
            probe_before_ms: probe_ms,
            probe_after_ms: probe_ms,
            wall_s,
            cpu_s: 2.0 * wall_s,
            checks: 1_000,
            p50_ns: wall_s * 1e6,
            p99_ns: wall_s * 4e6,
        }
    }

    #[test]
    fn slow_regime_slices_are_restated_and_disturbed_ones_do_not_count() {
        // Ten slices at nominal speed, six in the slow regime, where the
        // probe takes 1.6× and this workload (excess 0.3) 1.3×, and four
        // hit by something the probes did not see.
        let mut samples = vec![sample(PROBE_NOMINAL_MS, 0.10); 10];
        samples.extend(vec![sample(1.6 * PROBE_NOMINAL_MS, 0.13); 6]);
        samples.extend(vec![sample(PROBE_NOMINAL_MS, 0.50); 4]);
        let metrics = slice_metrics(&samples, 0.3);
        let by_name = |n: &str| {
            metrics
                .iter()
                .find(|m| m.name == n)
                .expect("metric")
                .clone()
        };
        let rate = by_name("checks_per_s");
        assert!((rate.value - 10_000.0).abs() < 1e-6, "{}", rate.value);
        // The record beside it: the median over slices, and the raw decile.
        assert!((rate.spread.expect("quartiles").median - 10_000.0).abs() < 1e-6);
        assert!((rate.raw.expect("raw") - 10_000.0).abs() < 1e-6);
        assert!((by_name("cpu_us_per_check").value - 200.0).abs() < 1e-9);
        assert!((by_name("check_p50_us").value - 100.0).abs() < 1e-9);
        assert!((by_name("check_p99_us").value - 400.0).abs() < 1e-9);
        // A run spent wholly in the slow regime is restated, not excused.
        let slow = vec![sample(1.6 * PROBE_NOMINAL_MS, 0.13); 8];
        let rate = slice_metrics(&slow, 0.3)[0].clone();
        assert!((rate.value - 10_000.0).abs() < 1e-6, "{}", rate.value);
        assert!(rate.raw.expect("raw") < 8_000.0);
    }

    #[test]
    fn measure_shares_probes_between_neighbouring_slices() {
        let mut probe = Probe::default();
        let samples = measure::<()>(&mut probe, 3, |i| {
            let mut latency = LogHist::default();
            latency.record(1_000 * (i + 1));
            Ok(RawSlice {
                wall_s: 0.01,
                cpu_s: 0.01,
                checks: 10,
                latency,
            })
        })
        .expect("no slice fails");
        assert_eq!(samples.len(), 3);
        assert_eq!(samples[0].probe_after_ms, samples[1].probe_before_ms);
        assert_eq!(samples[1].probe_after_ms, samples[2].probe_before_ms);
        assert!((samples[2].p50_ns - 3_000.0).abs() / 3_000.0 < 0.01);
    }
}
