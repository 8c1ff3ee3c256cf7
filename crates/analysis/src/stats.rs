//! Descriptive statistics and regression for experiment summaries.
//!
//! The Table 1 reproduction reports convergence times as means with
//! confidence intervals across seeded trials, and extracts *scaling
//! exponents* by least-squares regression of `log T` on `log n` — the
//! quantity compared against the paper's asymptotic bounds. For the
//! conformance reports of `slb validate`, [`power_law_fit_ci`] attaches a
//! 95% confidence interval to the fitted exponent: the union of a
//! stratified bootstrap percentile interval (trial noise) and the OLS
//! t-interval on the slope (ladder curvature, e.g. the `log` factors the
//! asymptotic exponents drop).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Summary statistics of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for singletons).
    pub std_dev: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Median (mean of middle two for even counts).
    pub median: f64,
    /// 50th percentile, nearest-rank (the ⌈0.50·n⌉-th smallest; unlike
    /// `median` it never interpolates, so it is always an observation).
    pub p50: f64,
    /// 95th percentile, nearest-rank.
    pub p95: f64,
    /// 99th percentile, nearest-rank.
    pub p99: f64,
}

/// The nearest-rank `q`-quantile of an ascending-sorted sample: the
/// `⌈q·n⌉`-th smallest observation (1-indexed), the `q → 0` limit being
/// the minimum. Always an element of the sample — no interpolation — so
/// quantiles of integer-valued samples (latencies in ticks, round counts)
/// stay exactly representable and artifact bytes stay platform-stable.
///
/// # Panics
///
/// Panics if `sorted` is empty or `q` is outside `[0, 1]`. Debug builds
/// additionally assert the sorted-input contract (ascending, NaN-free) —
/// a silently unsorted sample would misreport every quantile.
pub fn quantile_nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty sample");
    assert!(
        (0.0..=1.0).contains(&q),
        "quantile level {q} outside [0, 1]"
    );
    debug_assert!(
        sorted.iter().all(|v| !v.is_nan()),
        "quantile of sample containing NaN"
    );
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "quantile of unsorted sample"
    );
    sorted[nearest_rank_index(q, sorted.len())]
}

/// The 0-based index of the nearest-rank `q`-quantile in an ascending
/// sample of `len` observations: `⌈q·len⌉ − 1`, at least 0.
fn nearest_rank_index(q: f64, len: usize) -> usize {
    let rank = (q * len as f64).ceil() as usize;
    rank.max(1) - 1
}

impl Summary {
    /// Summarizes a sample.
    ///
    /// The mean and standard deviation are summed in input order. The
    /// seven order statistics come from successive selections
    /// (`select_nth_unstable_by`) on one copy of the sample, from the
    /// highest rank down: each selection leaves every smaller observation
    /// in the prefix before its rank, so the next, lower rank is selected
    /// within that prefix. That is O(n) in all, against O(n log n) for a
    /// sort, and reads the same values a sort would: observations that
    /// compare equal have the same bits, `±0.0` apart (no summarised
    /// quantity is `−0.0`). The quantiles use the ranks of
    /// [`quantile_nearest_rank`].
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty or contains NaN.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "summary of empty sample");
        assert!(
            values.iter().all(|v| !v.is_nan()),
            "summary of sample containing NaN"
        );
        let count = values.len();
        let mean = values.iter().sum::<f64>() / count as f64;
        let var = if count > 1 {
            values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (count as f64 - 1.0)
        } else {
            0.0
        };
        let mut scratch = values.to_vec();
        // `scratch[..end]` holds every observation below the last rank
        // selected, `end`; ranks are asked for in non-increasing order.
        let mut end = count;
        let mut at_rank = |rank: usize| {
            debug_assert!(rank <= end, "ranks are selected from the top down");
            if rank < end {
                scratch[..end]
                    .select_nth_unstable_by(rank, |a, b| a.partial_cmp(b).expect("no NaN"));
                end = rank;
            }
            scratch[rank]
        };
        let max = at_rank(count - 1);
        let p99 = at_rank(nearest_rank_index(0.99, count));
        let p95 = at_rank(nearest_rank_index(0.95, count));
        let upper_median = at_rank(count / 2);
        let lower_median = at_rank((count - 1) / 2);
        let p50 = at_rank(nearest_rank_index(0.50, count));
        let min = at_rank(0);
        let median = if count % 2 == 1 {
            upper_median
        } else {
            0.5 * (lower_median + upper_median)
        };
        Summary {
            count,
            mean,
            std_dev: var.sqrt(),
            min,
            max,
            median,
            p50,
            p95,
            p99,
        }
    }

    /// The all-zero summary of an empty sample (`count == 0`): the
    /// schema-stable placeholder for metrics with no observations —
    /// unsupported sweep cells, or cells whose every trial was censored.
    /// [`Summary::of`] rejects empty samples, so this is the only way an
    /// artifact row renders one.
    pub fn empty() -> Summary {
        Summary {
            count: 0,
            mean: 0.0,
            std_dev: 0.0,
            min: 0.0,
            max: 0.0,
            median: 0.0,
            p50: 0.0,
            p95: 0.0,
            p99: 0.0,
        }
    }

    /// Standard error of the mean.
    pub fn std_error(&self) -> f64 {
        self.std_dev / (self.count as f64).sqrt()
    }

    /// Half-width of the ~95% normal confidence interval
    /// (`1.96 · std_error`).
    pub fn ci95_half_width(&self) -> f64 {
        1.96 * self.std_error()
    }
}

/// An ordinary least-squares line fit `y ≈ slope·x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LineFit {
    /// Fitted slope.
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Coefficient of determination `R²` (1 for an exact fit; 0 when the
    /// fit explains nothing; defined as 1 when `y` is constant).
    pub r_squared: f64,
}

/// Least-squares fit of `y` on `x`.
///
/// # Panics
///
/// Panics if the slices differ in length, have fewer than 2 points, or `x`
/// is constant.
pub fn linear_fit(x: &[f64], y: &[f64]) -> LineFit {
    assert_eq!(x.len(), y.len(), "x/y length mismatch");
    assert!(x.len() >= 2, "need at least two points");
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let sxx: f64 = x.iter().map(|v| (v - mx) * (v - mx)).sum();
    assert!(sxx > 0.0, "x must not be constant");
    let sxy: f64 = x.iter().zip(y).map(|(a, b)| (a - mx) * (b - my)).sum();
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let ss_tot: f64 = y.iter().map(|v| (v - my) * (v - my)).sum();
    let ss_res: f64 = x
        .iter()
        .zip(y)
        .map(|(a, b)| {
            let p = slope * a + intercept;
            (b - p) * (b - p)
        })
        .sum();
    let r_squared = if ss_tot == 0.0 {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    };
    LineFit {
        slope,
        intercept,
        r_squared,
    }
}

/// Fits `T ∝ n^k` by regressing `ln T` on `ln n`; returns the exponent `k`
/// and the fit. Zero or negative *observations* are clamped to `floor` to
/// keep the logarithm defined (convergence times measured as 0 rounds mean
/// "already converged"). The sizes `n` are taken as given — they are the
/// ladder's x-axis and clamping them would silently bend the fit — and
/// must all be strictly positive.
///
/// # Panics
///
/// As [`linear_fit`]; additionally if `floor <= 0` or any size is
/// non-positive.
pub fn power_law_fit(n: &[f64], t: &[f64], floor: f64) -> LineFit {
    assert!(floor > 0.0, "floor must be positive");
    assert!(
        n.iter().all(|v| *v > 0.0),
        "ladder sizes must be strictly positive"
    );
    let lx: Vec<f64> = n.iter().map(|v| v.ln()).collect();
    let ly: Vec<f64> = t.iter().map(|v| v.max(floor).ln()).collect();
    linear_fit(&lx, &ly)
}

/// A power-law exponent fit with a 95% confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExponentFit {
    /// The fitted exponent `k` of `T ∝ n^k`.
    pub exponent: f64,
    /// Lower end of the 95% CI.
    pub ci_lo: f64,
    /// Upper end of the 95% CI.
    pub ci_hi: f64,
    /// `R²` of the log–log fit.
    pub r_squared: f64,
}

impl ExponentFit {
    /// Whether the CI brackets `value`.
    pub fn brackets(&self, value: f64) -> bool {
        self.ci_lo <= value && value <= self.ci_hi
    }
}

/// Two-sided 97.5% Student-t quantile for `df` degrees of freedom (the
/// multiplier of a 95% CI); falls back to the normal 1.96 beyond the
/// table.
fn t_quantile_975(df: usize) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    match df {
        0 => f64::INFINITY,
        d if d <= TABLE.len() => TABLE[d - 1],
        _ => 1.96,
    }
}

/// Fits `T ∝ n^k` as [`power_law_fit`] and attaches a deterministic 95%
/// confidence interval on the exponent: the **union** of
///
/// * a stratified bootstrap percentile interval — within every distinct
///   `n`, trials are resampled with replacement (`resamples` refits,
///   seeded from `seed`), capturing trial-to-trial noise, and
/// * the OLS t-interval `k ± t₀.₉₇₅(df)·SE(k)` with `df = N − 2`,
///   capturing deviation from power-law linearity (the dropped `log`
///   factors of the asymptotic predictions).
///
/// The union is intentionally conservative: a near-deterministic ladder
/// has a collapsed bootstrap interval but still carries curvature, and a
/// noisy one has residual-dominated trials — the reported CI covers both
/// failure modes.
///
/// # Panics
///
/// As [`power_law_fit`]; additionally if `resamples == 0`.
pub fn power_law_fit_ci(
    n: &[f64],
    t: &[f64],
    floor: f64,
    resamples: usize,
    seed: u64,
) -> ExponentFit {
    assert!(resamples > 0, "need at least one bootstrap resample");
    let base = power_law_fit(n, t, floor);

    // OLS t-interval on the log–log slope. Mirrors `power_law_fit`: only
    // the observations are floor-clamped, never the sizes.
    let lx: Vec<f64> = n.iter().map(|v| v.ln()).collect();
    let ly: Vec<f64> = t.iter().map(|v| v.max(floor).ln()).collect();
    let count = lx.len() as f64;
    let mx = lx.iter().sum::<f64>() / count;
    let sxx: f64 = lx.iter().map(|v| (v - mx) * (v - mx)).sum();
    let ss_res: f64 = lx
        .iter()
        .zip(&ly)
        .map(|(x, y)| {
            let p = base.slope * x + base.intercept;
            (y - p) * (y - p)
        })
        .sum();
    let df = lx.len().saturating_sub(2);
    let (mut lo, mut hi) = if df == 0 {
        // Two points fit exactly: the t-interval is undefined, leave the
        // bootstrap interval to carry the uncertainty.
        (base.slope, base.slope)
    } else {
        let se = (ss_res / df as f64 / sxx).sqrt();
        let half = t_quantile_975(df) * se;
        (base.slope - half, base.slope + half)
    };

    // Stratified bootstrap: resample trials within each distinct size.
    let mut groups: Vec<(f64, Vec<f64>)> = Vec::new();
    for (x, y) in lx.iter().zip(&ly) {
        match groups.iter_mut().find(|(gx, _)| gx == x) {
            Some((_, ys)) => ys.push(*y),
            None => groups.push((*x, vec![*y])),
        }
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut slopes = Vec::with_capacity(resamples);
    let mut bx = Vec::with_capacity(lx.len());
    let mut by = Vec::with_capacity(ly.len());
    for _ in 0..resamples {
        bx.clear();
        by.clear();
        for (x, ys) in &groups {
            for _ in 0..ys.len() {
                bx.push(*x);
                by.push(ys[rng.gen_range(0..ys.len())]);
            }
        }
        slopes.push(linear_fit(&bx, &by).slope);
    }
    slopes.sort_by(|a, b| a.partial_cmp(b).expect("no NaN slopes"));
    let pick = |q: f64| slopes[((slopes.len() - 1) as f64 * q).round() as usize];
    lo = lo.min(pick(0.025));
    hi = hi.max(pick(0.975));

    ExponentFit {
        exponent: base.slope,
        ci_lo: lo,
        ci_hi: hi,
        r_squared: base.r_squared,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn summary_basics() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count, 4);
        assert_close(s.mean, 2.5, 1e-12);
        assert_close(s.median, 2.5, 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        // var = (2.25+0.25+0.25+2.25)/3 = 5/3.
        assert_close(s.std_dev, (5.0f64 / 3.0).sqrt(), 1e-12);
        assert_close(s.std_error(), s.std_dev / 2.0, 1e-12);
        assert_close(s.ci95_half_width(), 1.96 * s.std_error(), 1e-12);
    }

    /// `Summary::of` as it stood before selection: a stable sort of the
    /// whole copy. The reference the selection must match bit for bit.
    mod reference {
        use super::super::{quantile_nearest_rank, Summary};

        pub(super) fn summary_of(values: &[f64]) -> Summary {
            let count = values.len();
            let mean = values.iter().sum::<f64>() / count as f64;
            let var = if count > 1 {
                values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (count as f64 - 1.0)
            } else {
                0.0
            };
            let mut sorted = values.to_vec();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
            let median = if count % 2 == 1 {
                sorted[count / 2]
            } else {
                0.5 * (sorted[count / 2 - 1] + sorted[count / 2])
            };
            Summary {
                count,
                mean,
                std_dev: var.sqrt(),
                min: sorted[0],
                max: sorted[count - 1],
                median,
                p50: quantile_nearest_rank(&sorted, 0.50),
                p95: quantile_nearest_rank(&sorted, 0.95),
                p99: quantile_nearest_rank(&sorted, 0.99),
            }
        }
    }

    /// The count and the bits of every float field.
    fn bits(s: &Summary) -> [u64; 9] {
        [
            s.count as u64,
            s.mean.to_bits(),
            s.std_dev.to_bits(),
            s.min.to_bits(),
            s.max.to_bits(),
            s.median.to_bits(),
            s.p50.to_bits(),
            s.p95.to_bits(),
            s.p99.to_bits(),
        ]
    }

    #[test]
    fn summary_matches_the_sorting_reference_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(31);
        for count in 1..=257 {
            // Distinct reals, heavy ties over a few integers (zeros
            // among them), one repeated value, and mostly `+0.0`.
            let samples: [Vec<f64>; 4] = [
                (0..count).map(|_| rng.gen_range(-1e3..1e3)).collect(),
                (0..count)
                    .map(|_| rng.gen_range(0..4usize) as f64)
                    .collect(),
                vec![2.5; count],
                (0..count)
                    .map(|_| {
                        if rng.gen_range(0.0..1.0) < 0.9 {
                            0.0
                        } else {
                            rng.gen_range(0.0..1.0)
                        }
                    })
                    .collect(),
            ];
            for values in &samples {
                assert_eq!(
                    bits(&Summary::of(values)),
                    bits(&reference::summary_of(values)),
                    "{values:?}"
                );
            }
        }
    }

    #[test]
    fn summary_odd_median_and_singleton() {
        assert_eq!(Summary::of(&[3.0, 1.0, 2.0]).median, 2.0);
        let s = Summary::of(&[7.0]);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.median, 7.0);
    }

    #[test]
    fn summary_single_trial_is_degenerate_but_complete() {
        // One trial (the smallest legal sweep cell): every statistic is
        // the observation itself and the spread is exactly zero, so CSV
        // rows never carry NaN.
        let s = Summary::of(&[42.5]);
        assert_eq!(s.count, 1);
        assert_eq!((s.mean, s.median, s.min, s.max), (42.5, 42.5, 42.5, 42.5));
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.std_error(), 0.0);
        assert_eq!(s.ci95_half_width(), 0.0);
    }

    #[test]
    fn summary_all_equal_samples_have_zero_spread() {
        // All-equal observations (e.g. a deterministic protocol swept over
        // identical seeds): zero variance with no floating-point residue.
        let s = Summary::of(&[13.0; 64]);
        assert_eq!(s.count, 64);
        assert_eq!(s.mean, 13.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.min, 13.0);
        assert_eq!(s.max, 13.0);
        assert_eq!(s.median, 13.0);
        assert_eq!(s.ci95_half_width(), 0.0);
    }

    #[test]
    #[should_panic(expected = "summary of sample containing NaN")]
    fn summary_rejects_nan() {
        let _ = Summary::of(&[1.0, f64::NAN]);
    }

    #[test]
    fn nearest_rank_quantiles_on_known_sample() {
        // 1..=100 sorted: rank ⌈q·100⌉ is exactly q·100 for these levels.
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(quantile_nearest_rank(&v, 0.50), 50.0);
        assert_eq!(quantile_nearest_rank(&v, 0.95), 95.0);
        assert_eq!(quantile_nearest_rank(&v, 0.99), 99.0);
        assert_eq!(quantile_nearest_rank(&v, 0.0), 1.0);
        assert_eq!(quantile_nearest_rank(&v, 1.0), 100.0);
        // Non-multiple counts round the rank up: ⌈0.5·5⌉ = 3.
        let odd = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(quantile_nearest_rank(&odd, 0.50), 30.0);
        assert_eq!(quantile_nearest_rank(&odd, 0.95), 50.0);
    }

    #[test]
    fn summary_quantiles_are_sample_elements_not_interpolations() {
        // Even count: median interpolates (2.5), nearest-rank p50 does
        // not (⌈0.5·4⌉ = 2nd smallest = 2).
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.median, 2.5);
        assert_eq!(s.p50, 2.0);
        assert_eq!(s.p95, 4.0);
        assert_eq!(s.p99, 4.0);
        // Singleton: every quantile is the observation itself.
        let one = Summary::of(&[7.5]);
        assert_eq!((one.p50, one.p95, one.p99), (7.5, 7.5, 7.5));
    }

    #[test]
    fn summary_quantiles_order_and_tail_behavior() {
        // A long-tailed sample: p50 ≤ p95 ≤ p99 ≤ max, and the tail
        // quantiles respond to the outlier while p50 does not.
        let mut v: Vec<f64> = (0..99).map(|i| i as f64 / 100.0).collect();
        v.push(1000.0);
        let s = Summary::of(&v);
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
        assert!(s.p50 < 1.0);
        assert_eq!(s.p99, 0.98);
        assert_eq!(s.max, 1000.0);
    }

    #[test]
    #[should_panic(expected = "quantile of empty sample")]
    fn quantile_of_empty_sample_panics() {
        let _ = quantile_nearest_rank(&[], 0.5);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn quantile_rejects_out_of_range_level() {
        let _ = quantile_nearest_rank(&[1.0], 1.5);
    }

    #[test]
    fn quantile_single_sample_is_that_sample_at_every_level() {
        // ⌈q·1⌉ is 1 for every q > 0, and the q → 0 limit is the
        // minimum: a singleton answers itself at every level.
        for q in [0.0, 0.25, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(quantile_nearest_rank(&[42.5], q), 42.5, "q = {q}");
        }
    }

    #[test]
    fn quantile_extreme_levels_are_min_and_max() {
        // q = 0 is the minimum (rank clamps up to 1), q = 1 the maximum
        // (⌈1·n⌉ = n) — on every sample size, including duplicates.
        for sample in [
            vec![3.0],
            vec![1.0, 2.0],
            vec![5.0, 5.0, 5.0],
            (0..17).map(|i| i as f64 * 0.5).collect::<Vec<_>>(),
        ] {
            assert_eq!(quantile_nearest_rank(&sample, 0.0), sample[0]);
            assert_eq!(
                quantile_nearest_rank(&sample, 1.0),
                sample[sample.len() - 1]
            );
        }
    }

    #[test]
    #[cfg_attr(
        not(debug_assertions),
        ignore = "contract checked in debug builds only"
    )]
    #[should_panic(expected = "quantile of sample containing NaN")]
    fn quantile_rejects_nan_in_debug_builds() {
        let _ = quantile_nearest_rank(&[1.0, f64::NAN, 3.0], 0.5);
    }

    #[test]
    #[cfg_attr(
        not(debug_assertions),
        ignore = "contract checked in debug builds only"
    )]
    #[should_panic(expected = "quantile of unsorted sample")]
    fn quantile_rejects_unsorted_input_in_debug_builds() {
        let _ = quantile_nearest_rank(&[3.0, 1.0, 2.0], 0.5);
    }

    #[test]
    fn exact_line_fit() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [3.0, 5.0, 7.0, 9.0];
        let f = linear_fit(&x, &y);
        assert_close(f.slope, 2.0, 1e-12);
        assert_close(f.intercept, 1.0, 1e-12);
        assert_close(f.r_squared, 1.0, 1e-12);
    }

    #[test]
    fn noisy_fit_has_lower_r2() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [2.0, 4.1, 5.9, 8.2, 9.8];
        let f = linear_fit(&x, &y);
        assert!(f.r_squared > 0.99);
        assert!((f.slope - 2.0).abs() < 0.1);
    }

    #[test]
    fn constant_y_r2_is_one() {
        let f = linear_fit(&[1.0, 2.0, 3.0], &[5.0, 5.0, 5.0]);
        assert_close(f.slope, 0.0, 1e-12);
        assert_close(f.r_squared, 1.0, 1e-12);
    }

    #[test]
    fn power_law_recovery() {
        // T = 3·n² exactly.
        let n = [8.0, 16.0, 32.0, 64.0];
        let t: Vec<f64> = n.iter().map(|v| 3.0 * v * v).collect();
        let f = power_law_fit(&n, &t, 1.0);
        assert_close(f.slope, 2.0, 1e-9);
        assert_close(f.intercept, 3.0f64.ln(), 1e-9);
        assert_close(f.r_squared, 1.0, 1e-9);
    }

    #[test]
    fn power_law_floor_clamps_zeros() {
        let n = [8.0, 16.0, 32.0];
        let t = [0.0, 2.0, 8.0];
        let f = power_law_fit(&n, &t, 1.0); // 0 clamped to 1
        assert!(f.slope > 0.0);
    }

    #[test]
    fn power_law_floor_never_clamps_sizes() {
        // Regression: the floor clamp used to apply to the sizes `n` as
        // well, so a ladder containing a size below the floor (here 0.5
        // with floor 1.0) had its x-value silently rewritten to the floor
        // — bending the fitted exponent. With T = 100·n² exactly (every
        // observation safely above the floor, the smallest *size* below
        // it), the fit must recover slope 2 regardless of where the floor
        // sits.
        let n = [0.5, 8.0, 16.0, 32.0];
        let t: Vec<f64> = n.iter().map(|v| 100.0 * v * v).collect();
        let f = power_law_fit(&n, &t, 1.0);
        assert_close(f.slope, 2.0, 1e-9);
        assert_close(f.r_squared, 1.0, 1e-9);
        // The CI variant shares the un-clamped x-axis: its t-interval is
        // recomputed from the same logs, so the exponent and a collapsed
        // interval must agree with the point fit.
        let fit = power_law_fit_ci(&n, &t, 1.0, 50, 3);
        assert_close(fit.exponent, 2.0, 1e-9);
        assert!(fit.brackets(2.0));
        assert_close(fit.ci_lo, 2.0, 1e-6);
        assert_close(fit.ci_hi, 2.0, 1e-6);
    }

    #[test]
    #[should_panic(expected = "strictly positive")]
    fn power_law_rejects_non_positive_sizes() {
        power_law_fit(&[0.0, 8.0], &[1.0, 2.0], 1.0);
    }

    #[test]
    fn exponent_ci_on_exact_power_law_is_tight_and_centered() {
        // T = 2·n³ with 3 "trials" per size, zero noise: exponent exact,
        // bootstrap interval collapsed, t-interval zero-width.
        let mut n = Vec::new();
        let mut t = Vec::new();
        for &size in &[8.0f64, 16.0, 32.0, 64.0] {
            for _ in 0..3 {
                n.push(size);
                t.push(2.0 * size * size * size);
            }
        }
        let fit = power_law_fit_ci(&n, &t, 1.0, 200, 7);
        assert_close(fit.exponent, 3.0, 1e-9);
        assert_close(fit.ci_lo, 3.0, 1e-9);
        assert_close(fit.ci_hi, 3.0, 1e-9);
        assert!(fit.brackets(3.0));
        assert!(!fit.brackets(2.9));
        assert_close(fit.r_squared, 1.0, 1e-9);
    }

    #[test]
    fn exponent_ci_widens_with_noise_and_brackets_truth() {
        // T = n²·(1 ± deterministic “noise”): the CI must cover 2.
        let mut n = Vec::new();
        let mut t = Vec::new();
        let noise = [0.8, 1.0, 1.25];
        for &size in &[8.0f64, 16.0, 32.0, 64.0] {
            for f in noise {
                n.push(size);
                t.push(size * size * f);
            }
        }
        let fit = power_law_fit_ci(&n, &t, 1.0, 400, 11);
        assert!(fit.brackets(2.0), "CI [{}, {}]", fit.ci_lo, fit.ci_hi);
        assert!(fit.ci_hi - fit.ci_lo > 0.01, "noise must widen the CI");
        assert!(fit.ci_lo <= fit.exponent && fit.exponent <= fit.ci_hi);
    }

    #[test]
    fn exponent_ci_covers_curvature_with_two_points_per_size() {
        // A ladder with log-factor curvature: T = n²·ln(n), one sample
        // per size. The bootstrap collapses (one trial per stratum), so
        // the t-interval must carry the uncertainty.
        let n = [8.0f64, 16.0, 32.0, 64.0];
        let t: Vec<f64> = n.iter().map(|v| v * v * v.ln()).collect();
        let fit = power_law_fit_ci(&n, &t, 1.0, 100, 3);
        // The log factor biases the point estimate above 2; the interval
        // must still reach down toward the asymptotic exponent.
        assert!(fit.exponent > 2.0);
        assert!(fit.ci_lo < fit.exponent);
    }

    #[test]
    fn exponent_ci_is_deterministic_in_the_seed() {
        let n = [8.0f64, 8.0, 16.0, 16.0, 32.0, 32.0];
        let t = [10.0, 14.0, 40.0, 52.0, 160.0, 230.0];
        let a = power_law_fit_ci(&n, &t, 1.0, 300, 42);
        let b = power_law_fit_ci(&n, &t, 1.0, 300, 42);
        assert_eq!(a, b);
        // (Different seeds may land on the same percentile slopes — the
        // bootstrap outcome space is small here — so only reproducibility
        // is part of the contract.)
    }

    #[test]
    fn t_table_monotone_toward_normal() {
        assert!(t_quantile_975(1) > t_quantile_975(2));
        assert!(t_quantile_975(30) > 1.96);
        assert_close(t_quantile_975(200), 1.96, 1e-12);
        assert!(t_quantile_975(0).is_infinite());
    }

    #[test]
    #[should_panic(expected = "at least one bootstrap resample")]
    fn zero_resamples_panics() {
        let _ = power_law_fit_ci(&[1.0, 2.0], &[1.0, 2.0], 1.0, 0, 1);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_summary_panics() {
        let _ = Summary::of(&[]);
    }

    #[test]
    #[should_panic(expected = "x must not be constant")]
    fn constant_x_panics() {
        let _ = linear_fit(&[2.0, 2.0], &[1.0, 3.0]);
    }
}
