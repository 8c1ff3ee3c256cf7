//! Task-weight distributions on `(0, 1]`.
//!
//! §2 of the paper constrains weighted tasks to `w_ℓ ∈ (0, 1]`; the
//! variance bound of Lemma 4.3 (`w_ℓ² ≤ w_ℓ`) depends on it. Every
//! generator here returns weights already clamped into that interval, so
//! the resulting vectors always satisfy
//! [`TaskSet::weighted`](slb_core::model::TaskSet::weighted).

use rand::Rng;

/// A task-weight distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WeightDistribution {
    /// All weights exactly 1 (the uniform-task case as a weighted set).
    Unit,
    /// Independent uniform draws from `[lo, hi] ⊆ (0, 1]`.
    UniformRange {
        /// Lower bound (exclusive of 0).
        lo: f64,
        /// Upper bound (≤ 1).
        hi: f64,
    },
    /// Bounded Pareto (power law) with shape `alpha`, rescaled into
    /// `[min, 1]`: many light tasks, few heavy ones — the classic
    /// heavy-tailed job-size model.
    BoundedPowerLaw {
        /// Pareto shape (> 0); smaller = heavier tail.
        alpha: f64,
        /// Smallest weight (> 0).
        min: f64,
    },
    /// A two-point mixture: weight `light` with probability `1 − heavy_fraction`,
    /// else `heavy`.
    Bimodal {
        /// The light weight (in `(0, 1]`).
        light: f64,
        /// The heavy weight (in `(0, 1]`).
        heavy: f64,
        /// Probability of drawing `heavy`.
        heavy_fraction: f64,
    },
}

impl WeightDistribution {
    /// Samples `m` weights: `m` draws of the distribution's per-draw form,
    /// which the counts-first scenario builder streams instead.
    ///
    /// # Panics
    ///
    /// Panics on invalid parameters (bounds outside `(0, 1]`, `lo > hi`,
    /// non-positive `alpha`, fractions outside `[0, 1]`).
    pub fn sample<R: Rng + ?Sized>(self, m: usize, rng: &mut R) -> Vec<f64> {
        let sampler = self.sampler();
        (0..m).map(|_| sampler.draw(rng)).collect()
    }

    /// The per-draw form of the distribution, its parameters checked once.
    ///
    /// # Panics
    ///
    /// Panics on invalid parameters (bounds outside `(0, 1]`, `lo > hi`,
    /// non-positive `alpha`, fractions outside `[0, 1]`).
    pub(crate) fn sampler(self) -> WeightSampler {
        let mut lo_pow = 0.0;
        match self {
            WeightDistribution::Unit => {}
            WeightDistribution::UniformRange { lo, hi } => {
                assert!(lo > 0.0 && hi <= 1.0 && lo <= hi, "need 0 < lo ≤ hi ≤ 1");
            }
            WeightDistribution::BoundedPowerLaw { alpha, min } => {
                assert!(alpha > 0.0, "alpha must be positive");
                assert!(min > 0.0 && min < 1.0, "min must lie in (0, 1)");
                lo_pow = min.powf(-alpha);
            }
            WeightDistribution::Bimodal {
                light,
                heavy,
                heavy_fraction,
            } => {
                assert!(light > 0.0 && light <= 1.0, "light weight in (0, 1]");
                assert!(heavy > 0.0 && heavy <= 1.0, "heavy weight in (0, 1]");
                assert!((0.0..=1.0).contains(&heavy_fraction), "fraction in [0, 1]");
            }
        }
        WeightSampler { dist: self, lo_pow }
    }

    /// The weights the distribution draws, when there are finitely many
    /// (`unit`, `bimodal`; possibly repeated, in no order); `None` for the
    /// continuous ones.
    pub(crate) fn support(self) -> Option<Vec<f64>> {
        match self {
            WeightDistribution::Unit => Some(vec![1.0]),
            WeightDistribution::Bimodal { light, heavy, .. } => Some(vec![light, heavy]),
            WeightDistribution::UniformRange { .. }
            | WeightDistribution::BoundedPowerLaw { .. } => None,
        }
    }

    /// A short label for CSV output.
    pub fn label(self) -> &'static str {
        match self {
            WeightDistribution::Unit => "unit",
            WeightDistribution::UniformRange { .. } => "uniform-range",
            WeightDistribution::BoundedPowerLaw { .. } => "power-law",
            WeightDistribution::Bimodal { .. } => "bimodal",
        }
    }
}

/// One weight per [`WeightSampler::draw`] from a checked
/// [`WeightDistribution`]. [`WeightDistribution::sample`] collects `m`
/// draws and the counts-first scenario builder streams them, so both
/// consume the same random numbers in the same order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct WeightSampler {
    dist: WeightDistribution,
    /// `min^−α` of a bounded power law (unused by the other variants).
    lo_pow: f64,
}

impl WeightSampler {
    /// Draws one weight in `(0, 1]` (`unit` draws no randomness).
    #[inline]
    pub(crate) fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match self.dist {
            WeightDistribution::Unit => 1.0,
            WeightDistribution::UniformRange { lo, hi } => rng.gen_range(lo..=hi),
            WeightDistribution::BoundedPowerLaw { alpha, min } => {
                // Inverse-CDF of a Pareto truncated to [min, 1]:
                // F(x) = (min^-a − x^-a)/(min^-a − 1).
                let u: f64 = rng.gen_range(0.0..1.0);
                let x = (self.lo_pow - u * (self.lo_pow - 1.0)).powf(-1.0 / alpha);
                x.clamp(min, 1.0)
            }
            WeightDistribution::Bimodal {
                light,
                heavy,
                heavy_fraction,
            } => {
                // An indexed pick, not a branch: the coin is unpredictable.
                [light, heavy][usize::from(rng.gen_bool(heavy_fraction))]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use slb_core::model::TaskSet;

    fn valid_weights(dist: WeightDistribution, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let w = dist.sample(500, &mut rng);
        assert_eq!(w.len(), 500);
        assert!(
            w.iter().all(|&x| x > 0.0 && x <= 1.0),
            "{dist:?} left the (0, 1] interval"
        );
        // Every generated vector must be accepted by the model layer.
        TaskSet::weighted(w.clone()).unwrap();
        w
    }

    #[test]
    fn unit_weights() {
        let w = valid_weights(WeightDistribution::Unit, 1);
        assert!(w.iter().all(|&x| x == 1.0));
    }

    #[test]
    fn uniform_range_within_bounds() {
        let w = valid_weights(WeightDistribution::UniformRange { lo: 0.2, hi: 0.8 }, 2);
        assert!(w.iter().all(|&x| (0.2..=0.8).contains(&x)));
        let mean = w.iter().sum::<f64>() / w.len() as f64;
        assert!((mean - 0.5).abs() < 0.05);
    }

    #[test]
    fn power_law_is_heavy_tailed() {
        // Shape 0.5 keeps a fat tail: P(X > 0.5) ≈ 4.6% on [0.01, 1].
        let w = valid_weights(
            WeightDistribution::BoundedPowerLaw {
                alpha: 0.5,
                min: 0.01,
            },
            3,
        );
        let light = w.iter().filter(|&&x| x < 0.1).count();
        let heavy = w.iter().filter(|&&x| x > 0.5).count();
        assert!(
            light > heavy,
            "power law should skew light: {light} vs {heavy}"
        );
        assert!(heavy > 0, "but the tail should exist");
    }

    #[test]
    fn bimodal_mixes() {
        let w = valid_weights(
            WeightDistribution::Bimodal {
                light: 0.1,
                heavy: 1.0,
                heavy_fraction: 0.3,
            },
            4,
        );
        let heavy = w.iter().filter(|&&x| x == 1.0).count();
        assert!((100..200).contains(&heavy), "got {heavy} heavy of ~150");
        assert!(w.iter().all(|&x| x == 0.1 || x == 1.0));
    }

    #[test]
    fn labels_are_distinct() {
        let labels = [
            WeightDistribution::Unit.label(),
            WeightDistribution::UniformRange { lo: 0.1, hi: 1.0 }.label(),
            WeightDistribution::BoundedPowerLaw {
                alpha: 1.0,
                min: 0.1,
            }
            .label(),
            WeightDistribution::Bimodal {
                light: 0.1,
                heavy: 1.0,
                heavy_fraction: 0.5,
            }
            .label(),
        ];
        let set: std::collections::BTreeSet<_> = labels.iter().collect();
        assert_eq!(set.len(), labels.len());
    }

    #[test]
    #[should_panic(expected = "need 0 < lo ≤ hi ≤ 1")]
    fn bad_range_panics() {
        let mut rng = StdRng::seed_from_u64(5);
        let _ = WeightDistribution::UniformRange { lo: 0.9, hi: 0.1 }.sample(1, &mut rng);
    }

    #[test]
    #[should_panic(expected = "alpha must be positive")]
    fn bad_alpha_panics() {
        let mut rng = StdRng::seed_from_u64(6);
        let _ = WeightDistribution::BoundedPowerLaw {
            alpha: 0.0,
            min: 0.1,
        }
        .sample(1, &mut rng);
    }
}
