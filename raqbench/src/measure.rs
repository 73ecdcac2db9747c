//! The closed loop's clock and the statistics reported from it.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// The `q`-quantile of `sorted` by nearest rank (`q` in `0..=1`).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Probe time, in microseconds, that every time figure is scaled to. The
/// probe took 26–37 us at the median of a run on the 2-vCPU VM the figures
/// were first made on, so scaled figures read close to raw ones there.
pub const REFERENCE_PROBE_US: f64 = 30.0;

/// Time a fixed piece of work and return microseconds: the machine's speed
/// at this moment. The shared VM's speed swings by up to 2x for seconds to
/// minutes at a time, and the ops' latencies follow it with a slope of
/// about 1, so each op is scaled by the probes around it. The probe sorts
/// 2,048 integers twice and keeps the faster time, so a single interrupt
/// does not read as a slow machine.
pub fn speed_probe() -> f64 {
    (0..2)
        .map(|_| {
            let start = Instant::now();
            let mut v: Vec<u64> = (0..2048u64)
                .map(|i| {
                    let x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    (x ^ (x >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9)
                })
                .collect();
            v.sort_unstable();
            std::hint::black_box(&v);
            start.elapsed().as_secs_f64() * 1e6
        })
        .fold(f64::INFINITY, f64::min)
}

/// `raw` scaled to the reference speed, given the probes taken just before
/// and just after it.
fn scaled(raw: f64, before: f64, after: f64) -> f64 {
    raw * 2.0 * REFERENCE_PROBE_US / (before + after)
}

/// Run `setup` `reps` times and return the last state plus the median
/// set-up time in seconds, each repetition scaled to the reference speed.
pub fn repeat_setup<S>(reps: usize, mut setup: impl FnMut() -> S) -> (S, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut state = None;
    for _ in 0..reps {
        drop(state.take());
        let before = speed_probe();
        let start = Instant::now();
        state = Some(setup());
        let took = start.elapsed().as_secs_f64();
        times.push(scaled(took, before, speed_probe()));
    }
    (state.expect("at least one set-up repetition"), median(&times))
}

/// Windows a run is cut into for its figures.
const WINDOWS: usize = 10;
/// Ops after which the peak RSS is read. Caches and dictionaries grow with
/// the ops run, so reading it after a fixed amount of work keeps it
/// independent of how fast the machine is.
const RSS_MARK_OPS: usize = 250;

/// A single client's closed loop: the next op starts when the previous one
/// returns, until `budget` of measured time has passed and the current
/// round of the op mix is complete. Correctness checks and speed probes run
/// off the clock. Each op's latency is scaled to the reference speed by the
/// probes taken just before and just after it.
#[derive(Debug)]
pub struct Meter {
    budget: Duration,
    round_len: usize,
    start: Instant,
    off_clock: Duration,
    /// Every op's kind and latency in microseconds, in op order: raw while
    /// the loop runs, scaled to the reference speed once it stops.
    pub ops: Vec<(&'static str, f64)>,
    /// The probe taken before each op, and one after the last.
    probes: Vec<f64>,
    /// The raw latencies, kept for the summary once `ops` is scaled.
    raw: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    /// What went wrong, first few failures only.
    pub errors: Vec<String>,
    /// Measured time, frozen by [`Meter::stop`], and peak RSS.
    measured: Option<Duration>,
    pub peak_rss_mb: f64,
}

impl Meter {
    pub fn new(seconds: f64, round_len: usize) -> Self {
        Meter {
            budget: Duration::from_secs_f64(seconds),
            round_len: round_len.max(1),
            start: Instant::now(),
            off_clock: Duration::ZERO,
            ops: Vec::new(),
            probes: Vec::new(),
            raw: Vec::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            measured: None,
            peak_rss_mb: 0.0,
        }
    }

    /// Measured time so far, or in all once stopped.
    pub fn elapsed(&self) -> Duration {
        self.measured.unwrap_or_else(|| self.start.elapsed().saturating_sub(self.off_clock))
    }

    pub fn running(&self) -> bool {
        self.elapsed() < self.budget || !self.ops.len().is_multiple_of(self.round_len)
    }

    /// End the loop: freeze the measured time, scale every latency to the
    /// reference speed, and read the peak RSS if the run was too short to
    /// reach [`RSS_MARK_OPS`].
    pub fn stop(&mut self) {
        self.measured = Some(self.elapsed());
        if !self.ops.is_empty() {
            let last = self.off_clock(|_| speed_probe());
            self.probes.push(last);
            self.raw = self.ops.clone();
            for (i, op) in self.ops.iter_mut().enumerate() {
                op.1 = scaled(op.1, self.probes[i], self.probes[i + 1]);
            }
        }
        if self.ops.len() < RSS_MARK_OPS {
            self.peak_rss_mb = peak_rss_mb();
        }
    }

    /// Time `op` as one operation of kind `kind` and hand back its result;
    /// the caller reports a failed or wrong op with [`Meter::fail`].
    pub fn time<T>(&mut self, kind: &'static str, op: impl FnOnce() -> T) -> T {
        let probe = self.off_clock(|_| speed_probe());
        self.probes.push(probe);
        let start = Instant::now();
        let out = op();
        let took = start.elapsed();
        self.attempted += 1;
        self.ops.push((kind, took.as_secs_f64() * 1e6));
        if self.ops.len() == RSS_MARK_OPS {
            self.peak_rss_mb = peak_rss_mb();
        }
        out
    }

    /// Run `f` off the clock.
    pub fn off_clock<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        let start = Instant::now();
        let out = f(self);
        self.off_clock += start.elapsed();
        out
    }

    /// Count a failed or wrong-result op.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(why);
        }
    }

    /// The run cut into windows of whole rounds: [`WINDOWS`] of them, or
    /// up to twice as many when a window is a single round.
    fn windows(&self) -> Vec<&[(&'static str, f64)]> {
        let rounds = self.ops.len() / self.round_len;
        let per_window = (rounds / WINDOWS).max(1) * self.round_len;
        self.ops.chunks(per_window).filter(|w| w.len() == per_window).collect()
    }

    /// Ops per second of op time in each window, in op order.
    pub fn window_rates(&self) -> Vec<f64> {
        self.windows()
            .iter()
            .map(|w| w.len() as f64 / (w.iter().map(|&(_, l)| l).sum::<f64>() / 1e6))
            .collect()
    }

    /// The ops of the middle half of the windows, ranked by throughput.
    /// Scaling follows the machine's speed, but not a stall shorter than the
    /// gap between two probes; dropping the fastest and the slowest quarter
    /// of the windows keeps such outliers out, while a change that slows
    /// every round still shows.
    fn steady_ops(&self) -> Vec<(&'static str, f64)> {
        let windows = self.windows();
        if windows.len() < 4 {
            return self.ops.clone();
        }
        let rates = self.window_rates();
        let mut order: Vec<usize> = (0..windows.len()).collect();
        order.sort_by(|&a, &b| rates[a].total_cmp(&rates[b]));
        let quarter = windows.len() / 4;
        let mut middle = order[quarter..windows.len() - quarter].to_vec();
        middle.sort_unstable();
        middle.iter().flat_map(|&i| windows[i].iter().copied()).collect()
    }

    /// Latencies of one kind among `ops`, sorted.
    fn sorted(ops: &[(&'static str, f64)], kind: &str) -> Vec<f64> {
        let mut v: Vec<f64> = ops.iter().filter(|(k, _)| *k == kind).map(|&(_, l)| l).collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The geometric mean over op kinds of each kind's `q`-quantile
    /// latency in the middle half of the windows. Every kind counts once,
    /// whatever its share of the mix, and no quantile sits on the border
    /// between two kinds' latencies.
    pub fn latency_quantile(&self, q: f64) -> f64 {
        let ops = self.steady_ops();
        let kinds: BTreeSet<&str> = ops.iter().map(|&(k, _)| k).collect();
        let logs: Vec<f64> =
            kinds.iter().map(|k| quantile(&Self::sorted(&ops, k), q).max(1e-3).ln()).collect();
        if logs.is_empty() {
            return 0.0;
        }
        (logs.iter().sum::<f64>() / logs.len() as f64).exp()
    }

    /// Median latency of one op kind in the middle half of the windows.
    pub fn kind_p50(&self, kind: &str) -> f64 {
        quantile(&Self::sorted(&self.steady_ops(), kind), 0.5)
    }

    /// Ops per second of op time: the median over the windows.
    pub fn throughput(&self) -> f64 {
        let rates = self.window_rates();
        if rates.is_empty() {
            return self.ops.len() as f64 / self.elapsed().as_secs_f64();
        }
        median(&rates)
    }

    /// The median probe time of the run, in microseconds.
    pub fn probe_p50(&self) -> f64 {
        median(&self.probes)
    }

    /// Per op kind: raw latencies over the whole run, and scaled ones in
    /// the middle half of the windows, as the figures use them.
    pub fn kinds(&self) -> Vec<KindSummary> {
        let steady = self.steady_ops();
        let kinds: BTreeSet<&'static str> = self.raw.iter().map(|&(k, _)| k).collect();
        kinds
            .into_iter()
            .map(|kind| {
                let raw = Self::sorted(&self.raw, kind);
                let scaled = Self::sorted(&steady, kind);
                KindSummary {
                    kind,
                    ops: raw.len(),
                    raw_p50: quantile(&raw, 0.5),
                    raw_p90: quantile(&raw, 0.9),
                    raw_mean: raw.iter().sum::<f64>() / raw.len() as f64,
                    scaled_p50: quantile(&scaled, 0.5),
                    scaled_p90: quantile(&scaled, 0.9),
                }
            })
            .collect()
    }
}

/// One op kind's latencies in microseconds, for the summary.
#[derive(Debug)]
pub struct KindSummary {
    pub kind: &'static str,
    pub ops: usize,
    pub raw_p50: f64,
    pub raw_p90: f64,
    pub raw_mean: f64,
    pub scaled_p50: f64,
    pub scaled_p90: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 5.0);
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert_eq!(quantile(&v, 1.0), 10.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn off_clock_time_is_not_measured() {
        let mut m = Meter::new(60.0, 1);
        m.off_clock(|_| std::thread::sleep(Duration::from_millis(30)));
        assert!(m.elapsed() < Duration::from_millis(20));
        m.stop();
        let frozen = m.elapsed();
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(m.elapsed(), frozen);
        let r: Result<(), &str> = m.time("x", || Err("boom"));
        if let Err(e) = r {
            m.fail(e.to_string());
        }
        assert_eq!((m.attempted, m.failed), (1, 1));
    }

    #[test]
    fn the_loop_runs_whole_rounds_and_figures_skip_outlying_windows() {
        let mut m = Meter::new(0.0, 3);
        let mut n = 0;
        while m.running() || n == 0 {
            m.time("x", || ());
            n += 1;
        }
        assert_eq!(n, 3);
        // Ten windows of 100 ops: two slowed tenfold and two sped up
        // twofold by other tenants of the machine.
        let mut m = Meter::new(1.0, 10);
        for w in 0..10 {
            let lat = match w {
                3 | 7 => 10_000.0,
                0 | 5 => 500.0,
                _ => 1_000.0,
            };
            m.ops.extend(std::iter::repeat_n(("x", lat), 100));
        }
        assert!((m.throughput() - 1_000.0).abs() < 1e-6);
        assert!((m.latency_quantile(0.5) - 1_000.0).abs() < 1e-6);
        assert!((m.latency_quantile(0.9) - 1_000.0).abs() < 1e-6);
        assert_eq!(m.window_rates().len(), 10);
        m.ops.truncate(15);
        assert_eq!(m.window_rates().len(), 1);
    }

    #[test]
    fn latencies_scale_with_the_probes_around_them() {
        assert_eq!(scaled(100.0, REFERENCE_PROBE_US, REFERENCE_PROBE_US), 100.0);
        let slow = 2.0 * REFERENCE_PROBE_US;
        assert!((scaled(100.0, slow, slow) - 50.0).abs() < 1e-9);
        assert!((scaled(100.0, REFERENCE_PROBE_US, 3.0 * REFERENCE_PROBE_US) - 50.0).abs() < 1e-9);
        assert!(speed_probe() > 0.0);

        let mut m = Meter::new(0.0, 1);
        m.time("x", || std::thread::sleep(Duration::from_millis(2)));
        m.stop();
        let k = &m.kinds()[0];
        assert_eq!((k.kind, k.ops), ("x", 1));
        assert!(k.raw_p50 >= 2_000.0, "the summary keeps the raw latency");
        assert_eq!(m.probes.len(), 2, "one probe before the op and one after");
        assert!((m.ops[0].1 - scaled(k.raw_p50, m.probes[0], m.probes[1])).abs() < 1e-9);
        assert_eq!(k.scaled_p50, m.ops[0].1);
    }

    #[test]
    fn latency_quantiles_are_geometric_means_over_kinds() {
        // Rounds of nine fast ops and one slow one.
        let mut m = Meter::new(1.0, 10);
        for _ in 0..100 {
            m.ops.extend(std::iter::repeat_n(("fast", 100.0), 9));
            m.ops.push(("slow", 10_000.0));
        }
        assert!((m.latency_quantile(0.5) - 1_000.0).abs() < 1e-6);
        assert!((m.latency_quantile(0.9) - 1_000.0).abs() < 1e-6);
    }
}
