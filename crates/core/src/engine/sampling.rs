//! Distribution sampling without external distribution crates.
//!
//! The count engine ([`CountSim`](crate::engine::count::CountSim))
//! replaces per-task Bernoulli draws with per-(node, class) multinomials,
//! sampled by [`sample_multinomial_each`] (which hands each destination's
//! count to a closure; [`sample_multinomial`] fills a row with them) as
//! chained conditional binomials over one binomial sampler: an exact
//! inverse-transform CDF walk for small means, switching to a clamped
//! rounded-normal approximation above
//! [`NORMAL_APPROX_THRESHOLD`] (documented substitution — at those counts
//! the relative error is far below the run-to-run variance of the
//! protocols themselves; `docs/ARCHITECTURE.md` § Engines lists it).
//!
//! # The underflow guard
//!
//! The CDF walk accumulates the pmf via the recurrence
//! `pmf(k+1) = pmf(k)·(n−k)/(k+1)·p/(1−p)`. Deep in the upper tail the pmf
//! underflows to exactly `0.0`, after which the accumulated CDF can never
//! grow — an unlucky uniform draw `u` above the stalled CDF would then walk
//! all the way to `k = n`, returning an absurd sample (for `n` in the
//! millions, a count nowhere near the mean). The walk therefore stops as
//! soon as the pmf underflows, and never proceeds past
//! `mean + 10·sd` (a point with true tail mass below `10⁻²⁰`, unreachable
//! by any representable `u` unless the recurrence has already degraded).
//!
//! The cap is computed lazily. Since `sd ≥ 0` it is never below
//! `min(n, ⌈mean⌉ + 1)`, so the walk only takes the `sqrt` for it once it
//! gets past that point; most walks (their mean result is below 2 in the
//! count engine's workloads) end before it.
//!
//! # The `k = 0` shortcut
//!
//! Near equilibrium most binomials have a tiny mean and return 0. The walk
//! returns 0 exactly when `u ≤ pmf(0)`, where `pmf(0) = exp(n·ln(1−p))` as
//! computed. [`sample_binomial`] draws its one uniform `u` as always and
//! returns 0 at once when `u < (1 − mean − n·ε)·(1 − 10⁻¹²)`
//! (`zero_draw_bound`, `ε` = `f64::EPSILON`), a certified lower bound on
//! that computed value. So the shortcut never changes a sample or the
//! number of draws; it only skips the `ln`, `exp` and `sqrt`. The bound,
//! with `q = fl(1−p)` and `n` standing for `n as f64`:
//!
//! * `1−p < 1` rounds by at most `ε/4`, so `q ≥ 1 − p − ε/4`, and by
//!   Bernoulli's inequality `qⁿ ≥ 1 − n·p − n·ε/4`.
//! * `mean = fl(n·p) ≥ n·p·(1 − ε/2) ≥ n·p − n·ε/4` (as `p ≤ 1/2`), so
//!   `1 − mean − n·ε ≤ qⁿ − n·ε/2`. The two subtractions that compute it
//!   round by at most `ε/4` each, inside that `n·ε/2 ≥ ε/2` of slack.
//! * The shortcut only fires for `mean < 1`, where `|n·ln q| < 1.4`: the
//!   `ln`, the product and the `exp` then err by a few ulp, a relative
//!   error below `10⁻¹⁵`. The factor `1 − 10⁻¹²` covers that, and the
//!   rounding of the final product, a thousand times over.
//!
//! # Dispatch in the multinomial chain
//!
//! Nearly every conditional binomial of [`sample_multinomial_each`] has
//! `0 < p ≤ 1/2` and a mean of at most [`NORMAL_APPROX_THRESHOLD`]. The
//! chain sends those straight to the exact small-mean path (one uniform,
//! the `k = 0` shortcut, the CDF walk) that [`sample_binomial`] ends in,
//! one private function shared by both, and leaves the rest to
//! [`sample_binomial`]. The branches skipped cannot be taken, so every
//! sample and every draw is the same as through [`sample_binomial`].

use rand::rngs::StdRng;
use rand::Rng;

/// Mean above which [`sample_binomial`] switches to the normal
/// approximation.
pub const NORMAL_APPROX_THRESHOLD: f64 = 64.0;

/// `x.ceil() as u64` without a call to `ceil`: truncate, then add one if
/// the truncation dropped a fraction. The baseline x86-64 target has no
/// SSE4.1 rounding instruction, so `f64::ceil` compiles to a library
/// call, while both casts stay inline. It saturates as the cast does:
/// NaN and every `x ≤ 0` give 0, every `x > u64::MAX` gives `u64::MAX`.
#[inline]
pub fn ceil_u64(x: f64) -> u64 {
    // A truncated `f64` is an integer-valued `f64`, so `whole as f64` is
    // exact wherever the cast did not saturate.
    #[allow(clippy::cast_possible_truncation)]
    let whole = x as u64;
    whole.saturating_add(u64::from((whole as f64) < x))
}

/// Samples a standard normal via Box–Muller.
pub fn sample_standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// The inverse-transform CDF walk for `Binomial(n, p)` at quantile `u`,
/// guarded against pmf underflow (see the module docs).
///
/// Requires `0 < p ≤ 1/2` (callers reduce to this range via the symmetry
/// `Bin(n, p) = n − Bin(n, 1−p)`). Exposed so the underflow guard can be
/// regression-tested with an adversarial `u`; use [`sample_binomial`] for
/// ordinary sampling.
pub fn binomial_inverse_cdf(n: u64, p: f64, u: f64) -> u64 {
    debug_assert!(p > 0.0 && p <= 0.5, "walk requires 0 < p ≤ 1/2");
    let mean = n as f64 * p;
    // The walk stops at `mean + 10·sd` (see the module docs), a cap that
    // is never below `min(n, ⌈mean⌉ + 1)` since `sd ≥ 0`. So the walk
    // starts out bounded by that, and pays for the `sqrt` only if it
    // gets past it.
    let mut bound = n.min(ceil_u64(mean) + 1);
    let mut capped = false;
    // pmf(0) = (1−p)^n, computed in log space to avoid underflow at k = 0.
    let mut pmf = ((n as f64) * (1.0 - p).ln()).exp();
    let mut cdf = pmf;
    let mut k = 0u64;
    let ratio = p / (1.0 - p);
    while u > cdf {
        if k >= bound {
            if capped {
                break;
            }
            // Hard cap at mean + 10·sd: the true mass beyond it is
            // < 10⁻²⁰, so reaching it means `u` lies above every
            // representable CDF value.
            let sd = (n as f64 * p * (1.0 - p)).sqrt();
            let cap = n.min(ceil_u64(mean + 10.0 * sd) + 1);
            (bound, capped) = (cap, true);
            continue;
        }
        k += 1;
        pmf *= (n - k + 1) as f64 / k as f64 * ratio;
        if pmf <= 0.0 {
            // The pmf underflowed: the CDF can never grow again, so
            // walking further would run to the cap (and, before the guard
            // existed, to `k = n`) without adding any probability mass.
            break;
        }
        cdf += pmf;
    }
    k
}

/// Samples `Binomial(n, p)`.
///
/// Exact inverse-transform walk ([`binomial_inverse_cdf`]) for means up to
/// [`NORMAL_APPROX_THRESHOLD`], skipped when the uniform lies below a
/// certified lower bound on the walk's `pmf(0)` (the `k = 0` shortcut of
/// the module docs); clamped
/// rounded normal beyond.
pub fn sample_binomial(n: u64, p: f64, rng: &mut StdRng) -> u64 {
    // A NaN `p` passes every range guard below (all comparisons are
    // false) and would fall through to the CDF walk, where only a
    // debug_assert stands between it and a garbage count in release
    // builds. Reject non-finite inputs loudly instead.
    assert!(
        p.is_finite(),
        "binomial probability must be finite, got {p}"
    );
    if n == 0 || p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    // Exploit symmetry to keep p ≤ 1/2 (shorter CDF walks).
    if p > 0.5 {
        return n - sample_binomial(n, 1.0 - p, rng);
    }
    let mean = n as f64 * p;
    if mean > NORMAL_APPROX_THRESHOLD {
        let sd = (n as f64 * p * (1.0 - p)).sqrt();
        let x = mean + sd * sample_standard_normal(rng);
        // The clamp pins `x` into `[0, n]` before the cast truncates.
        #[allow(clippy::cast_possible_truncation)]
        return x.round().clamp(0.0, n as f64) as u64;
    }
    binomial_small_mean(n, p, mean, rng)
}

/// The exact small-mean path of [`sample_binomial`] for `0 < p ≤ 1/2` and
/// `mean = n·p ≤` [`NORMAL_APPROX_THRESHOLD`]: one uniform, the `k = 0`
/// shortcut, then the CDF walk. [`sample_multinomial_each`] calls it
/// directly for conditionals in that range.
#[inline]
fn binomial_small_mean(n: u64, p: f64, mean: f64, rng: &mut StdRng) -> u64 {
    // pmf(0) cannot underflow here: with p ≤ 1/2, `−n·ln(1−p) ≤
    // 2·ln(2)·mean ≤ 89`, so pmf(0) = (1−p)^n ≥ e⁻⁸⁹ — the walk's own
    // guard covers everything past k = 0.
    let u: f64 = rng.gen_range(0.0..1.0);
    if u < zero_draw_bound(n, mean) {
        return 0;
    }
    binomial_inverse_cdf(n, p, u)
}

/// A certified lower bound on the `pmf(0)` that [`binomial_inverse_cdf`]
/// computes for `Binomial(n, p)` with `mean = n·p` (as [`sample_binomial`]
/// rounds it), `0 < p ≤ 1/2`: any `u` below it makes the walk return 0,
/// so the sampler can skip the walk's `ln`/`exp`/`sqrt` set-up (see the
/// module docs). Negative — never taken — once `mean + n·ε ≥ 1`.
fn zero_draw_bound(n: u64, mean: f64) -> f64 {
    (1.0 - mean - n as f64 * f64::EPSILON) * (1.0 - 1e-12)
}

/// Samples a multinomial over `probs` (success probabilities of one draw,
/// with an implicit "stay" remainder `1 − Σprobs`) for `count` independent
/// draws, via chained conditional binomials: given that a draw missed every
/// earlier destination, it hits destination `d` with probability
/// `probs[d] / (1 − Σ_{e<d} probs[e])`.
///
/// `out` is overwritten with one count per destination (resized to
/// `probs.len()`); the return value is the total across destinations. A
/// thin wrapper over [`sample_multinomial_each`], which runs the chain and
/// documents its guarantees.
pub fn sample_multinomial(count: u64, probs: &[f64], out: &mut Vec<u64>, rng: &mut StdRng) -> u64 {
    out.clear();
    out.resize(probs.len(), 0);
    sample_multinomial_each(count, probs, rng, |d, moved| out[d] = moved)
}

/// Samples the multinomial of [`sample_multinomial`] and hands each
/// destination that received draws to `on_draw(d, count)`, in ascending
/// `d`, instead of filling an output row; returns the total. The count
/// kernel applies the pairs straight to its deltas.
///
/// The chain stops early once every draw is spent, so trailing
/// destinations cost nothing. Destinations with `probs[d] ≤ 0` consume no
/// randomness (the conditional binomial short-circuits to 0 inside
/// [`sample_binomial`] without touching the RNG) — callers that filter
/// zero-probability destinations before the call draw the identical
/// sample sequence.
///
/// The per-destination draws inherit [`sample_binomial`]'s guarantees,
/// including the pmf-underflow cap of [`binomial_inverse_cdf`]: no
/// destination can receive a count beyond `mean + 10σ` of its conditional
/// binomial unless the exact walk is still accumulating real mass.
///
/// # Panics
///
/// Debug-asserts that `Σprobs ≤ 1` (within floating-point slack); the
/// conditional probabilities are clamped to 1, so release builds degrade
/// gracefully on marginal rounding excess.
#[inline]
pub fn sample_multinomial_each(
    count: u64,
    probs: &[f64],
    rng: &mut StdRng,
    mut on_draw: impl FnMut(usize, u64),
) -> u64 {
    debug_assert!(
        probs.iter().sum::<f64>() <= 1.0 + 1e-9,
        "multinomial probabilities exceed 1"
    );
    let mut remaining = count;
    let mut rem_prob = 1.0f64;
    for (d, &q) in probs.iter().enumerate() {
        if remaining == 0 {
            break;
        }
        // Guard the `1 − Σp` renormalization edge: when Σprobs reaches 1
        // (e.g. a re-scatter over all live neighbors) the running
        // remainder can land at 0 — or marginally below it under
        // floating-point cancellation — and the naive `q / rem_prob`
        // would hand a non-finite or negative conditional probability to
        // the binomial sampler. In that limit every remaining draw
        // belongs to the current destination, so the conditional is 1.
        let cond = if rem_prob > 0.0 {
            (q / rem_prob).clamp(0.0, 1.0)
        } else {
            1.0
        };
        // The common case goes straight to the exact small-mean path: the
        // branches of `sample_binomial` it skips cannot be taken here.
        let mean = remaining as f64 * cond;
        let moved = if cond > 0.0 && cond <= 0.5 && mean <= NORMAL_APPROX_THRESHOLD {
            binomial_small_mean(remaining, cond, mean, rng)
        } else {
            sample_binomial(remaining, cond, rng)
        };
        if moved > 0 {
            on_draw(d, moved);
            remaining -= moved;
        }
        rem_prob -= q;
    }
    count - remaining
}

/// Samples `Poisson(lambda)` — the per-round arrival totals of the
/// dynamic-scenario layer.
///
/// Knuth's product-of-uniforms method below [`NORMAL_APPROX_THRESHOLD`]
/// (its cost is O(λ), fine for small means); a clamped rounded normal
/// beyond, mirroring the binomial sampler's documented substitution (at
/// those means the relative error is far below protocol run-to-run
/// variance).
///
/// # Panics
///
/// If `lambda` is negative or non-finite.
pub fn sample_poisson(lambda: f64, rng: &mut StdRng) -> u64 {
    assert!(
        lambda.is_finite() && lambda >= 0.0,
        "Poisson rate must be finite and non-negative, got {lambda}"
    );
    if lambda == 0.0 {
        return 0;
    }
    if lambda > NORMAL_APPROX_THRESHOLD {
        let x = lambda + lambda.sqrt() * sample_standard_normal(rng);
        // 10σ above the mean carries ~no mass; the clamp only guards the
        // normal tail (and pins the value non-negative before the cast).
        #[allow(clippy::cast_possible_truncation)]
        return x.round().clamp(0.0, lambda + 10.0 * lambda.sqrt()) as u64;
    }
    poisson_product_walk(lambda, || rng.gen_range(0.0..1.0))
}

/// Knuth's product-of-uniforms walk for `Poisson(lambda)` in the
/// small-rate regime, over an explicit uniform source — the exact path of
/// [`sample_poisson`], exposed so the zero-draw guard can be
/// regression-tested with an adversarial stream (mirroring
/// [`binomial_inverse_cdf`]).
///
/// `uniform()` draws come from `[0, 1)`, and `gen_range(0.0..1.0)` *can*
/// return exactly `0.0`. An unguarded product treats that draw as the
/// entire remaining tail mass vanishing at once: the product collapses to
/// `0.0 ≤ e^{−λ}` and the walk terminates on the spot, biasing the sample
/// low (most visibly at small λ, where each draw's termination
/// probability is largest). A uniform of exactly 0 is the measure-zero
/// quantile the inverse transform never attains, so non-positive draws
/// are discarded and redrawn — streams that never draw 0 (every practical
/// seed) are untouched.
///
/// The caller keeps `0 < lambda ≤` [`NORMAL_APPROX_THRESHOLD`]
/// (debug-asserted); beyond that [`sample_poisson`] switches to the
/// normal approximation, and `e^{−λ}` would underflow the walk anyway.
pub fn poisson_product_walk(lambda: f64, mut uniform: impl FnMut() -> f64) -> u64 {
    debug_assert!(
        lambda > 0.0 && lambda <= NORMAL_APPROX_THRESHOLD,
        "product walk requires 0 < λ ≤ threshold, got {lambda}"
    );
    let mut positive = move || loop {
        let u = uniform();
        if u > 0.0 {
            return u;
        }
    };
    let limit = (-lambda).exp();
    let mut k = 0u64;
    let mut prod: f64 = positive();
    while prod > limit {
        k += 1;
        prod *= positive();
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn ceil_u64_matches_the_ceil_cast() {
        let two = |e: i32| 2f64.powi(e);
        let mut inputs = vec![
            0.0,
            -0.0,
            5e-324,
            f64::MIN_POSITIVE / 2.0,
            f64::MIN_POSITIVE,
            -5e-324,
            two(52) - 1.0,
            two(52) + 1.0,
            two(53),
            two(63),
            two(64) - 2048.0,
            two(64),
            1e300,
            f64::INFINITY,
            f64::NAN,
            -0.5,
            -1.0,
            -1e300,
            f64::NEG_INFINITY,
        ];
        for k in (0..=64).map(f64::from).chain([1e6, two(40), two(51)]) {
            inputs.extend([k - 0.5, k, k + 0.5, -k - 0.5]);
        }
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10_000 {
            let scale = two(rng.gen_range(-60..70));
            inputs.push(rng.gen_range(-1.0..1.0) * scale);
        }
        for x in inputs {
            assert_eq!(ceil_u64(x), x.ceil() as u64, "{x:e}");
        }
    }

    #[test]
    fn binomial_edge_cases() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(sample_binomial(0, 0.5, &mut rng), 0);
        assert_eq!(sample_binomial(10, 0.0, &mut rng), 0);
        assert_eq!(sample_binomial(10, 1.0, &mut rng), 10);
        for _ in 0..100 {
            let k = sample_binomial(10, 0.3, &mut rng);
            assert!(k <= 10);
        }
    }

    #[test]
    fn binomial_mean_is_right_small() {
        let mut rng = StdRng::seed_from_u64(2);
        let (n, p, trials) = (20u64, 0.25f64, 20000);
        let sum: u64 = (0..trials).map(|_| sample_binomial(n, p, &mut rng)).sum();
        let mean = sum as f64 / trials as f64;
        let expected = n as f64 * p;
        let sd = (n as f64 * p * (1.0 - p) / trials as f64).sqrt();
        assert!(
            (mean - expected).abs() < 5.0 * sd,
            "mean {mean} vs expected {expected}"
        );
    }

    #[test]
    fn binomial_mean_is_right_large() {
        let mut rng = StdRng::seed_from_u64(3);
        let (n, p, trials) = (100_000u64, 0.2f64, 2000);
        let sum: u64 = (0..trials).map(|_| sample_binomial(n, p, &mut rng)).sum();
        let mean = sum as f64 / trials as f64;
        let expected = n as f64 * p;
        let sd = (n as f64 * p * (1.0 - p) / trials as f64).sqrt();
        assert!(
            (mean - expected).abs() < 5.0 * sd,
            "mean {mean} vs expected {expected}"
        );
    }

    #[test]
    fn binomial_symmetry_branch() {
        let mut rng = StdRng::seed_from_u64(4);
        let trials = 20000;
        let sum: u64 = (0..trials)
            .map(|_| sample_binomial(12, 0.75, &mut rng))
            .sum();
        let mean = sum as f64 / trials as f64;
        assert!((mean - 9.0).abs() < 0.15, "mean {mean} vs 9.0");
    }

    #[test]
    fn cdf_walk_is_the_quantile_function_in_the_bulk() {
        // Sanity anchors: u below pmf(0) gives 0; the median of a
        // symmetric-ish binomial sits at the mean.
        let p0 = 0.9f64.powi(10);
        assert_eq!(binomial_inverse_cdf(10, 0.1, p0 * 0.5), 0);
        assert_eq!(binomial_inverse_cdf(40, 0.5, 0.5), 20);
    }

    /// `n` from 1 to 2⁵³ and `p` from 1e-300 to 1/2, log-spaced, where
    /// the exact walk runs (`mean ≤` [`NORMAL_APPROX_THRESHOLD`]); plus
    /// the adversarial `p = (2^e + 0.51)·ε/2`, whose `1 − p` rounds down
    /// by almost `ε/4` — the case the bound's `n·ε` term covers.
    fn exact_regime_grid() -> Vec<(u64, f64)> {
        let ns = (0..=53).flat_map(|e| [1u64 << e, (1u64 << e) + (1u64 << e) / 3]);
        let rounds_down = (0..40)
            .step_by(3)
            .map(|e| ((1u64 << e) as f64 + 0.51) * f64::EPSILON / 2.0);
        let ps: Vec<f64> = (0..=300)
            .step_by(3)
            .map(|e| 10f64.powi(-e))
            .chain(rounds_down)
            .chain([0.5, 0.3, 0.25, 1.0 / 3.0, 0.5f64.next_down()])
            .filter(|&p| p <= 0.5)
            .collect();
        ns.filter(|&n| n <= 1 << 53)
            .flat_map(|n| ps.iter().map(move |&p| (n, p)))
            .filter(|&(n, p)| n as f64 * p <= NORMAL_APPROX_THRESHOLD)
            .collect()
    }

    #[test]
    fn zero_draw_bound_never_exceeds_the_walks_pmf0() {
        // The shortcut returns 0 for every u below the bound; the walk is
        // monotone in u, so it agrees iff the walk returns 0 at the
        // largest such u, `next_down(bound)`. At and above the bound the
        // sampler runs the walk itself.
        let mut fired = 0;
        for (n, p) in exact_regime_grid() {
            let mean = n as f64 * p;
            let bound = zero_draw_bound(n, mean);
            if bound <= 0.0 {
                continue;
            }
            fired += 1;
            let below = bound.next_down();
            assert_eq!(binomial_inverse_cdf(n, p, below), 0, "n={n} p={p:e}");
            // Tight: the bound gives away only the certified slack.
            let pmf0 = ((n as f64) * (1.0 - p).ln()).exp();
            assert!(
                pmf0 - bound <= mean * mean + 2e-12 + n as f64 * 1e-15,
                "n={n} p={p:e}"
            );
            for u in [bound, bound.next_up()] {
                assert!(binomial_inverse_cdf(n, p, u) <= 1, "n={n} p={p:e} u={u}");
            }
        }
        assert!(
            fired > 1000,
            "the grid must exercise the shortcut ({fired})"
        );
    }

    #[test]
    fn binomial_shortcut_keeps_every_sample_and_draw() {
        // A twin stream supplies the sampler's uniform: every sample must
        // equal the walk at that quantile (mirrored for p > 1/2), and the
        // sampler must leave its RNG exactly where one draw leaves the
        // twin — so the shortcut changes no sample and no later draw.
        let mut rng = StdRng::seed_from_u64(19);
        let mut twin = rng.clone();
        for (n, p) in exact_regime_grid() {
            for p in [p, 1.0 - p] {
                // The mirrored probability the sampler walks at (`1 − p`
                // may round to 1, which draws nothing).
                let walked = if p > 0.5 { 1.0 - p } else { p };
                if p >= 1.0 || n as f64 * walked > NORMAL_APPROX_THRESHOLD {
                    continue;
                }
                for _ in 0..4 {
                    let k = sample_binomial(n, p, &mut rng);
                    let u: f64 = twin.gen_range(0.0..1.0);
                    let walk = binomial_inverse_cdf(n, walked, u);
                    let walk = if p > 0.5 { n - walk } else { walk };
                    assert_eq!(k, walk, "n={n} p={p:e} u={u}");
                    assert_eq!(rng, twin, "n={n} p={p:e}: draw count changed");
                }
            }
        }
    }

    /// The sampler as it stood before the inline dispatch and the lazy
    /// cap: the reference the current code must match draw for draw.
    mod reference {
        use super::super::{sample_standard_normal, zero_draw_bound, NORMAL_APPROX_THRESHOLD};
        use rand::rngs::StdRng;
        use rand::Rng;

        pub(super) fn binomial_inverse_cdf(n: u64, p: f64, u: f64) -> u64 {
            let mean = n as f64 * p;
            let sd = (n as f64 * p * (1.0 - p)).sqrt();
            let cap = n.min((mean + 10.0 * sd).ceil() as u64 + 1);
            let mut pmf = ((n as f64) * (1.0 - p).ln()).exp();
            let mut cdf = pmf;
            let mut k = 0u64;
            let ratio = p / (1.0 - p);
            while u > cdf && k < cap {
                k += 1;
                pmf *= (n - k + 1) as f64 / k as f64 * ratio;
                if pmf <= 0.0 {
                    break;
                }
                cdf += pmf;
            }
            k
        }

        pub(super) fn sample_binomial(n: u64, p: f64, rng: &mut StdRng) -> u64 {
            assert!(p.is_finite());
            if n == 0 || p <= 0.0 {
                return 0;
            }
            if p >= 1.0 {
                return n;
            }
            if p > 0.5 {
                return n - sample_binomial(n, 1.0 - p, rng);
            }
            let mean = n as f64 * p;
            if mean > NORMAL_APPROX_THRESHOLD {
                let sd = (n as f64 * p * (1.0 - p)).sqrt();
                let x = mean + sd * sample_standard_normal(rng);
                return x.round().clamp(0.0, n as f64) as u64;
            }
            let u: f64 = rng.gen_range(0.0..1.0);
            if u < zero_draw_bound(n, mean) {
                return 0;
            }
            binomial_inverse_cdf(n, p, u)
        }

        pub(super) fn sample_multinomial(
            count: u64,
            probs: &[f64],
            out: &mut Vec<u64>,
            rng: &mut StdRng,
        ) -> u64 {
            out.clear();
            out.resize(probs.len(), 0);
            let mut remaining = count;
            let mut rem_prob = 1.0f64;
            let mut total = 0u64;
            for (slot, &q) in out.iter_mut().zip(probs) {
                if remaining == 0 {
                    break;
                }
                let cond = if rem_prob > 0.0 {
                    (q / rem_prob).clamp(0.0, 1.0)
                } else {
                    1.0
                };
                let moved = sample_binomial(remaining, cond, rng);
                if moved > 0 {
                    *slot = moved;
                    total += moved;
                    remaining -= moved;
                }
                rem_prob -= q;
            }
            total
        }
    }

    #[test]
    fn lazy_cap_walk_matches_the_reference_walk() {
        // Every quantile the sampler can draw, plus the adversarial ones
        // past every representable CDF value (where the cap decides), on
        // the exact-regime grid and the pmf-underflow case.
        let mut rng = StdRng::seed_from_u64(23);
        let fixed = [
            0.0,
            f64::MIN_POSITIVE,
            1e-300,
            0.1,
            0.5,
            0.9,
            0.999_999,
            1.0 - 1e-12,
            1.0 - f64::EPSILON,
            1.0f64.next_down(),
            1.0,
        ];
        let mut cases = exact_regime_grid();
        cases.push((10_000_000, 5e-6));
        for (n, p) in cases {
            let drawn: Vec<f64> = (0..4).map(|_| rng.gen_range(0.0..1.0)).collect();
            for &u in fixed.iter().chain(&drawn) {
                assert_eq!(
                    binomial_inverse_cdf(n, p, u),
                    reference::binomial_inverse_cdf(n, p, u),
                    "n={n} p={p:e} u={u}"
                );
            }
        }
    }

    #[test]
    fn multinomial_matches_the_reference_draw_for_draw() {
        // Twin streams: every call must give the reference's counts and
        // total and leave the RNG where the reference leaves its twin; the
        // closure form must hand over the reference's nonzero
        // `(destination, count)` pairs in destination order.
        let mut cases: Vec<(u64, Vec<f64>)> = vec![
            // cond > 1/2 along the chain (the symmetry branch).
            (40, vec![0.6, 0.3]),
            (1_000, vec![0.2, 0.7, 0.05]),
            // Mean past the normal-approximation threshold.
            (1_000_000, vec![0.1, 0.05, 1e-6]),
            (65, vec![0.99]),
            // Σq = 1, exactly and after cancellation.
            (64, vec![0.25, 0.25, 0.25, 0.25]),
            (500, vec![0.1; 10]),
            (7, vec![1.0]),
            // The pmf-underflow regime.
            (10_000_000, vec![5e-6, 5e-6, 5e-6]),
            // Zero-probability destinations.
            (30, vec![0.0, 0.1, 0.0, 0.2]),
        ];
        for (n, p) in exact_regime_grid().into_iter().step_by(7) {
            cases.push((n, vec![p]));
            cases.push((n, vec![p / 2.0, p / 2.0, 0.5]));
        }
        let mut rng = StdRng::seed_from_u64(29);
        let mut twin = rng.clone();
        let mut each_rng = rng.clone();
        let (mut out, mut ref_out, mut pairs) = (Vec::new(), Vec::new(), Vec::new());
        for (count, probs) in &cases {
            for _ in 0..3 {
                let total = sample_multinomial(*count, probs, &mut out, &mut rng);
                let ref_total =
                    reference::sample_multinomial(*count, probs, &mut ref_out, &mut twin);
                assert_eq!((total, &out), (ref_total, &ref_out), "{count} {probs:?}");
                assert_eq!(rng, twin, "{count} {probs:?}: draw count changed");
                pairs.clear();
                let each_total =
                    sample_multinomial_each(*count, probs, &mut each_rng, |d, moved| {
                        pairs.push((d, moved));
                    });
                let ref_pairs: Vec<(usize, u64)> = ref_out
                    .iter()
                    .copied()
                    .enumerate()
                    .filter(|&(_, moved)| moved > 0)
                    .collect();
                assert_eq!(
                    (each_total, &pairs),
                    (ref_total, &ref_pairs),
                    "{count} {probs:?}"
                );
                assert_eq!(
                    each_rng, twin,
                    "{count} {probs:?}: closure form's draw count"
                );
            }
        }
        // The binomial sampler itself, on both sides of 1/2.
        for (n, p) in exact_regime_grid().into_iter().step_by(5) {
            for p in [p, 1.0 - p] {
                let k = sample_binomial(n, p, &mut rng);
                assert_eq!(k, reference::sample_binomial(n, p, &mut twin));
                assert_eq!(rng, twin, "n={n} p={p:e}");
            }
        }
    }

    #[test]
    fn multinomial_conserves_and_matches_marginals() {
        // Destination d's marginal is Binomial(count, probs[d]); check the
        // empirical means and that totals never exceed the draw count.
        let probs = [0.1f64, 0.05, 0.2];
        let count = 40u64;
        let trials = 20_000;
        let mut rng = StdRng::seed_from_u64(5);
        let mut out = Vec::new();
        let mut sums = [0u64; 3];
        for _ in 0..trials {
            let total = sample_multinomial(count, &probs, &mut out, &mut rng);
            assert_eq!(out.len(), 3);
            assert_eq!(out.iter().sum::<u64>(), total);
            assert!(total <= count);
            for (s, &o) in sums.iter_mut().zip(&out) {
                *s += o;
            }
        }
        for (d, &p) in probs.iter().enumerate() {
            let mean = sums[d] as f64 / trials as f64;
            let expected = count as f64 * p;
            let sd = (count as f64 * p * (1.0 - p) / trials as f64).sqrt();
            assert!(
                (mean - expected).abs() < 6.0 * sd,
                "destination {d}: mean {mean} vs expected {expected}"
            );
        }
    }

    #[test]
    fn multinomial_zero_probability_destinations_consume_no_randomness() {
        // Interleaving q = 0 destinations must not change the sample
        // stream: the conditional binomial short-circuits before the RNG.
        let mut a = StdRng::seed_from_u64(11);
        let mut b = StdRng::seed_from_u64(11);
        let mut out_a = Vec::new();
        let mut out_b = Vec::new();
        for _ in 0..50 {
            sample_multinomial(30, &[0.1, 0.2], &mut out_a, &mut a);
            sample_multinomial(30, &[0.0, 0.1, 0.0, 0.2, 0.0], &mut out_b, &mut b);
            assert_eq!(out_a[0], out_b[1]);
            assert_eq!(out_a[1], out_b[3]);
            assert_eq!(out_b[0] + out_b[2] + out_b[4], 0);
        }
    }

    #[test]
    fn multinomial_underflow_cap_regression() {
        // The multinomial chain inherits the binomial walk's pmf-underflow
        // guard: Binomial(10⁷, 5·10⁻⁶) per destination is exactly the
        // regime where the unguarded walk returned k = n (10⁷ tasks to one
        // neighbor). Every per-destination count must respect the far-tail
        // cap of its own conditional binomial, deterministically across
        // seeds.
        let (count, q) = (10_000_000u64, 5e-6);
        let probs = [q, q, q];
        let mut out = Vec::new();
        for seed in 0..500 {
            let mut rng = StdRng::seed_from_u64(seed);
            let total = sample_multinomial(count, &probs, &mut out, &mut rng);
            for (d, &moved) in out.iter().enumerate() {
                // The conditional p grows slightly along the chain; bound
                // every destination by the loosest (largest-p) cap.
                let p = (q / (1.0 - 2.0 * q)).min(0.5);
                let mean = count as f64 * p;
                let cap = (mean + 10.0 * (count as f64 * p * (1.0 - p)).sqrt()).ceil() as u64 + 1;
                assert!(
                    moved <= cap,
                    "seed {seed} destination {d}: {moved} escaped the cap {cap}"
                );
            }
            assert!(total <= 3 * ((count as f64 * q).ceil() as u64 * 2 + 200));
        }
    }

    #[test]
    #[should_panic(expected = "binomial probability must be finite")]
    fn binomial_rejects_nan_probability() {
        // Regression: NaN slipped past every range guard (`p <= 0`,
        // `p >= 1`, `p > 0.5` are all false for NaN) into the CDF walk,
        // where release builds produced a garbage count. Now it panics
        // deterministically.
        let mut rng = StdRng::seed_from_u64(1);
        sample_binomial(10, f64::NAN, &mut rng);
    }

    #[test]
    #[should_panic(expected = "binomial probability must be finite")]
    fn binomial_rejects_infinite_probability() {
        let mut rng = StdRng::seed_from_u64(1);
        sample_binomial(10, f64::INFINITY, &mut rng);
    }

    #[test]
    fn multinomial_survives_probabilities_summing_to_one() {
        // The `1 − Σp` renormalization edge: with Σprobs = 1 exactly, the
        // running remainder hits 0 (or dips marginally negative under
        // cancellation) at the last destination. The conditional there
        // must resolve to 1 — every remaining draw lands — rather than
        // dividing by a non-positive remainder and feeding NaN to the
        // binomial sampler.
        let mut rng = StdRng::seed_from_u64(6);
        let mut out = Vec::new();
        for probs in [
            vec![0.25f64, 0.25, 0.25, 0.25],
            vec![0.3f64, 0.3, 0.4],
            // Sums to 1.0 only after cancellation error accumulates.
            vec![0.1f64; 10],
            vec![1.0f64],
        ] {
            for _ in 0..200 {
                let total = sample_multinomial(64, &probs, &mut out, &mut rng);
                assert_eq!(total, 64, "all draws must land when Σp = 1");
                assert_eq!(out.iter().sum::<u64>(), 64);
            }
        }
    }

    #[test]
    fn poisson_edge_cases_and_mean() {
        let mut rng = StdRng::seed_from_u64(8);
        assert_eq!(sample_poisson(0.0, &mut rng), 0);
        // Small-mean regime (Knuth walk).
        let trials = 40_000;
        let lambda = 3.5;
        let sum: u64 = (0..trials).map(|_| sample_poisson(lambda, &mut rng)).sum();
        let mean = sum as f64 / trials as f64;
        let sd = (lambda / trials as f64).sqrt();
        assert!((mean - lambda).abs() < 5.0 * sd, "mean {mean} vs {lambda}");
        // Large-mean regime (normal approximation).
        let lambda = 400.0;
        let trials = 4000;
        let sum: u64 = (0..trials).map(|_| sample_poisson(lambda, &mut rng)).sum();
        let mean = sum as f64 / trials as f64;
        let sd = (lambda / trials as f64).sqrt();
        assert!((mean - lambda).abs() < 5.0 * sd, "mean {mean} vs {lambda}");
    }

    #[test]
    #[should_panic(expected = "Poisson rate must be finite")]
    fn poisson_rejects_nan_rate() {
        let mut rng = StdRng::seed_from_u64(1);
        sample_poisson(f64::NAN, &mut rng);
    }

    #[test]
    fn poisson_walk_guards_the_zero_draw() {
        // Regression: `gen_range(0.0..1.0)` can return exactly 0.0, and
        // the unguarded product walk treated it as instant termination.
        // Scripted stream [0.0, 0.9, 0.02] at λ = 3 (limit e⁻³ ≈ 0.0498):
        // the old walk saw prod = 0.0 ≤ limit and returned k = 0; the
        // guard discards the zero, continues with 0.9 (> limit, so k
        // increments), then 0.9·0.02 = 0.018 < limit stops at k = 1.
        let mut stream = [0.0, 0.9, 0.02].into_iter();
        let k = poisson_product_walk(3.0, || stream.next().expect("stream long enough"));
        assert_eq!(k, 1, "zero draw must be redrawn, not end the walk");
        // A zero appearing mid-walk is discarded the same way: with
        // [0.9, 0.0, 0.02] the zero sits where the unguarded walk would
        // have collapsed the product after the first increment.
        let mut stream = [0.9, 0.0, 0.02].into_iter();
        let k = poisson_product_walk(3.0, || stream.next().expect("stream long enough"));
        assert_eq!(k, 1);
        // Streams that never draw 0 are byte-for-byte the old walk: the
        // guard consumes no extra randomness.
        let mut direct = StdRng::seed_from_u64(77);
        let mut wrapped = StdRng::seed_from_u64(77);
        for _ in 0..2000 {
            let a = sample_poisson(2.5, &mut direct);
            let b = poisson_product_walk(2.5, || wrapped.gen_range(0.0..1.0));
            assert_eq!(a, b);
        }
    }

    #[test]
    fn poisson_small_lambda_chi_square() {
        // Distributional regression for the guarded walk: bin 50k draws
        // at λ = 3 against the exact pmf and require the χ² statistic
        // under the 0.999 quantile. A sampler biased toward k = 0 (the
        // zero-draw failure mode) or otherwise distorted fails loudly.
        let lambda = 3.0f64;
        let trials = 50_000usize;
        let bins = 9usize; // k = 0..8, plus a ≥ 9 tail bin.
        let mut observed = vec![0u64; bins + 1];
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..trials {
            let k = sample_poisson(lambda, &mut rng) as usize;
            observed[k.min(bins)] += 1;
        }
        // pmf(k) = e^{−λ} λ^k / k!, accumulated so the tail bin is exact.
        let mut expected = vec![0.0f64; bins + 1];
        let mut pmf = (-lambda).exp();
        let mut cdf = 0.0;
        for (k, slot) in expected.iter_mut().enumerate().take(bins) {
            if k > 0 {
                pmf *= lambda / k as f64;
            }
            *slot = pmf * trials as f64;
            cdf += pmf;
        }
        expected[bins] = (1.0 - cdf) * trials as f64;
        let chi2: f64 = observed
            .iter()
            .zip(&expected)
            .map(|(&o, &e)| (o as f64 - e) * (o as f64 - e) / e)
            .sum();
        // 0.999 quantile of χ² with 9 degrees of freedom.
        assert!(chi2 < 27.88, "χ² = {chi2} rejects the Poisson pmf");
    }

    #[test]
    fn cdf_walk_survives_pmf_underflow() {
        // Regression for the underflow bug: Binomial(10⁷, 5·10⁻⁶) has mean
        // 50 (exact-walk regime) but its pmf recurrence underflows to 0.0
        // around k ≈ 260, freezing the accumulated CDF strictly below any
        // u close enough to 1. The unguarded walk then ran to k = n = 10⁷
        // — an absurd sample 6 orders of magnitude past the mean. The
        // guard must stop at the far-tail cap instead, even for the most
        // adversarial quantile.
        let (n, p) = (10_000_000u64, 5e-6);
        let mean = n as f64 * p;
        let sd = (n as f64 * p * (1.0 - p)).sqrt();
        let cap = (mean + 10.0 * sd).ceil() as u64 + 1;
        for u in [1.0 - f64::EPSILON, 1.0] {
            let k = binomial_inverse_cdf(n, p, u);
            assert!(k <= cap, "k = {k} escaped the cap {cap} at u = {u}");
        }
        // Sampled values (the public API) stay sane too.
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..2000 {
            let k = sample_binomial(n, p, &mut rng);
            assert!(k <= cap, "sampled k = {k} beyond the cap {cap}");
        }
    }
}
