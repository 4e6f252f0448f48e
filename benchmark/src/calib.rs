//! The host-calibrated clock and the statistics helpers.
//!
//! This host's cores flip between speed regimes that last seconds, so a
//! wall time measures the neighbours as much as the program. Every timed
//! interval is therefore bracketed by a frozen reference kernel, and its
//! timings are reported as `wall / k`, `k` being how much slower than
//! nominal the kernel ran around that interval.

use std::time::Instant;

/// Reference-kernel table: 1 Mi `u32` = 4 MiB, larger than this host's
/// L2, because a pure ALU spin tracked the slow-downs poorly.
const TABLE_WORDS: usize = 1 << 20;
/// Read-modify-writes per kernel call (≈1 ms on a quiet core here).
const KERNEL_STEPS: u32 = 300_000;
/// What one kernel call takes on the reference host in its fast regime.
/// Changing the kernel or this constant re-baselines every calibrated
/// metric of the benchmark.
pub const REF_NOMINAL_MS: f64 = 1.0;
/// Checksum of the first kernel call on a fresh table.
pub const REF_CHECKSUM: u32 = 0x75aa_cf3f;

pub struct RefKernel {
    table: Vec<u32>,
}

impl Default for RefKernel {
    fn default() -> Self {
        RefKernel::new()
    }
}

impl RefKernel {
    pub fn new() -> RefKernel {
        RefKernel {
            table: (0..TABLE_WORDS as u32)
                .map(|i| i.wrapping_mul(0x9e37_79b1))
                .collect(),
        }
    }

    /// One frozen unit of work: xorshift-indexed read-modify-writes over
    /// the table. Returns the checksum of the values read.
    pub fn run(&mut self) -> u32 {
        let mut x: u32 = 0x2545_f491;
        let mut acc: u32 = 0;
        for _ in 0..KERNEL_STEPS {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            let slot = &mut self.table[x as usize & (TABLE_WORDS - 1)];
            acc = acc.rotate_left(1) ^ *slot;
            *slot = slot.wrapping_add(x);
        }
        acc
    }

    /// Times one kernel call, in milliseconds.
    pub fn time_ms(&mut self) -> f64 {
        let t0 = Instant::now();
        std::hint::black_box(self.run());
        t0.elapsed().as_secs_f64() * 1e3
    }
}

/// The slowdown factor of an interval from the kernel timings taken
/// immediately before and after it.
pub fn factor(before_ms: f64, after_ms: f64) -> f64 {
    (before_ms + after_ms) / 2.0 / REF_NOMINAL_MS
}

/// Brackets consecutive intervals with reference-kernel timings: the
/// sample that closes one interval opens the next.
pub struct Calibrator {
    kernel: RefKernel,
    last_ms: f64,
    /// Every kernel timing taken, for `host.ref_ms_*`.
    pub samples: Vec<f64>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator::new()
    }
}

impl Calibrator {
    pub fn new() -> Calibrator {
        let mut kernel = RefKernel::new();
        assert_eq!(kernel.run(), REF_CHECKSUM, "reference kernel was edited");
        kernel.time_ms(); // first timed call pays the page faults
        let last_ms = kernel.time_ms();
        Calibrator {
            kernel,
            last_ms,
            samples: vec![last_ms],
        }
    }

    /// One reading of the core's speed: the median of `n` kernel timings.
    /// The program under test evicts the table from the shared cache
    /// between readings, so an untimed call first brings it back: the
    /// reading then measures the core's speed, not the program's
    /// footprint.
    fn read(&mut self, n: usize) -> f64 {
        self.kernel.run();
        let timings: Vec<f64> = (0..n).map(|_| self.kernel.time_ms()).collect();
        self.samples.extend(&timings);
        median(&timings)
    }

    /// Opens an interval after a pause (takes a fresh "before" reading).
    pub fn open(&mut self) {
        self.last_ms = self.read(3);
    }

    /// Closes the interval opened by the previous `open`/`close` and
    /// returns its factor. Three kernel timings per reading: a single
    /// timing scatters by ±10 % with a tail of preempted ones several
    /// times as long, and a reading is shared by two rounds. What scatter
    /// is left averages out over the hundreds of rounds a run sums.
    pub fn close(&mut self) -> f64 {
        let before = self.last_ms;
        self.open();
        factor(before, self.last_ms)
    }

    /// `open` for an interval that is reported on its own (a set-up, a
    /// recovery trial, a checkpoint call): five timings per reading.
    pub fn open_single(&mut self) {
        self.last_ms = self.read(5);
    }

    /// `close` for an interval opened with [`Calibrator::open_single`].
    pub fn close_single(&mut self) -> f64 {
        let before = self.last_ms;
        self.open_single();
        factor(before, self.last_ms)
    }
}

/// Quantile by linear interpolation between order statistics (the
/// "inclusive" method): `q = 0.5` of an even-sized sample is the mean of
/// the middle pair. Panics on an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// What switching something on costs, from rounds run in adjacent pairs
/// (`on[i]` beside `off[i]`, the order within a pair alternating): the
/// median of the pairwise ratios minus 1, with the quartiles of those
/// ratios minus 1. Both sides of a pair met the same host speed and the
/// same history, so neither order effects nor state growth are mistaken
/// for the cost; a value inside its own quartiles' width of zero is
/// unresolved.
pub fn paired_overhead(on: &[f64], off: &[f64]) -> (f64, [f64; 2]) {
    let ratios: Vec<f64> = on.iter().zip(off).map(|(a, b)| a / b - 1.0).collect();
    (
        median(&ratios),
        [quantile(&ratios, 0.25), quantile(&ratios, 0.75)],
    )
}

/// Middle-half spread as a share of the median, with the quartiles of
/// Python's `statistics.quantiles(values, n=4)` (the "exclusive" method:
/// position `q·(n+1)`), which is what the driver computes.
pub fn iqr_share(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |q: f64| {
        let pos = q * (n + 1) as f64;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(0.75) - at(0.25)) / median(&v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ref_kernel_checksum_is_frozen() {
        assert_eq!(RefKernel::new().run(), REF_CHECKSUM);
    }

    #[test]
    fn ref_kernel_duration_window() {
        let mut k = RefKernel::new();
        k.run();
        let best = (0..20).map(|_| k.time_ms()).fold(f64::MAX, f64::min);
        // Generous: debug builds and slow hosts still land inside.
        assert!((0.2..60.0).contains(&best), "kernel took {best} ms");
    }

    #[test]
    fn common_slowdown_cancels() {
        // A payload of 40 ms measured while the kernel reads nominal...
        let fast = 40.0 / factor(REF_NOMINAL_MS, REF_NOMINAL_MS);
        // ...and the same payload with kernel and payload both 1.3x slower.
        let slow = (40.0 * 1.3) / factor(REF_NOMINAL_MS * 1.3, REF_NOMINAL_MS * 1.3);
        assert!((fast - slow).abs() < 1e-9, "{fast} vs {slow}");
        // A regime change inside the interval is split evenly.
        assert!((factor(1.0, 1.3) - 1.15).abs() < 1e-12);
    }

    #[test]
    fn quantiles_small_samples_and_ties() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.9), 4.6);
        assert_eq!(quantile(&[2.0, 2.0, 2.0, 2.0], 0.9), 2.0);
        assert_eq!(quantile(&[1.0, 2.0, 2.0, 2.0, 9.0], 0.5), 2.0);
        assert_eq!(quantile(&[1.0, 9.0], 0.0), 1.0);
        assert_eq!(quantile(&[1.0, 9.0], 1.0), 9.0);
    }

    #[test]
    fn paired_overhead_ignores_what_both_sides_share() {
        // Every pair 10 % dearer when on, whatever the pair's own speed.
        let off = [10.0, 13.0, 10.0, 14.0, 11.0];
        let on: Vec<f64> = off.iter().map(|t| t * 1.1).collect();
        let (share, [q1, q3]) = paired_overhead(&on, &off);
        assert!((share - 0.1).abs() < 1e-12 && (q3 - q1).abs() < 1e-12);
    }

    #[test]
    fn iqr_share_matches_python_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[4.0; 10]), 0.0);
    }
}
