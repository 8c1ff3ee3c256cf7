//! Machine-speed distributions.
//!
//! Speeds drive two distinct knobs in the paper's bounds: `s_max` appears
//! polynomially in every theorem, and the *granularity* `ε` (speeds as
//! integer multiples of `ε`, §3.2) appears as `1/ε²` in Theorem 1.2. The
//! generators therefore emit [`SpeedVector`]s with the granularity declared
//! whenever it exists, so the theory calculator can evaluate the exact-NE
//! bound.

use rand::Rng;
use slb_core::model::SpeedVector;

/// A machine-speed distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpeedDistribution {
    /// All speeds 1 (uniform machines).
    Uniform,
    /// Integer speeds drawn uniformly from `1..=max` (granularity 1).
    IntegerUniform {
        /// Largest speed.
        max: u64,
    },
    /// Two machine classes: speed 1 with probability `1 − fast_fraction`,
    /// else integer speed `fast` (granularity 1).
    TwoClass {
        /// Speed of the fast class (≥ 1).
        fast: u64,
        /// Probability of a machine being fast.
        fast_fraction: f64,
    },
    /// A deterministic ramp: node `i` gets speed `1 + i·(max − 1)/(n − 1)`
    /// rounded to the granularity `ε` (so `s_max ≈ max`).
    Ramp {
        /// Largest speed.
        max: f64,
        /// Granularity to round to (in `(0, 1]`).
        granularity: f64,
    },
    /// Deterministic alternating classes: node `i` gets integer speed
    /// `1 + (i mod classes)` (granularity 1). `classes = 1` degenerates to
    /// uniform machines; draws no randomness, which keeps sweep cells that
    /// use it reproducible under any RNG-consumption order.
    Alternating {
        /// Number of speed classes (≥ 1); `s_max = classes`.
        classes: u64,
    },
}

impl SpeedDistribution {
    /// Samples a speed vector for `n` machines.
    ///
    /// # Panics
    ///
    /// Panics on invalid parameters (`max == 0`, fractions outside
    /// `[0, 1]`, granularity outside `(0, 1]`, `n == 0`).
    pub fn sample<R: Rng + ?Sized>(self, n: usize, rng: &mut R) -> SpeedVector {
        assert!(n > 0, "need at least one machine");
        match self {
            SpeedDistribution::Uniform => SpeedVector::uniform(n),
            SpeedDistribution::IntegerUniform { max } => {
                assert!(max >= 1, "max speed must be at least 1");
                let mut speeds: Vec<u64> = (0..n).map(|_| rng.gen_range(1..=max)).collect();
                // Guarantee s_min = 1 (the paper's normalization).
                speeds[0] = 1;
                SpeedVector::integer(speeds).expect("integer speeds are valid")
            }
            SpeedDistribution::TwoClass {
                fast,
                fast_fraction,
            } => {
                assert!(fast >= 1, "fast speed must be at least 1");
                assert!(
                    (0.0..=1.0).contains(&fast_fraction),
                    "fraction must lie in [0, 1]"
                );
                let mut speeds: Vec<u64> = (0..n)
                    .map(|_| if rng.gen_bool(fast_fraction) { fast } else { 1 })
                    .collect();
                speeds[0] = 1;
                SpeedVector::integer(speeds).expect("integer speeds are valid")
            }
            SpeedDistribution::Ramp { max, granularity } => {
                assert!(max >= 1.0, "max speed must be at least 1");
                assert!(
                    granularity > 0.0 && granularity <= 1.0,
                    "granularity must lie in (0, 1]"
                );
                let speeds: Vec<f64> = (0..n)
                    .map(|i| {
                        let t = if n == 1 {
                            0.0
                        } else {
                            i as f64 / (n - 1) as f64
                        };
                        let raw = 1.0 + t * (max - 1.0);
                        // Round to the granularity grid, staying ≥ 1.
                        ((raw / granularity).round() * granularity).max(1.0)
                    })
                    .collect();
                SpeedVector::with_granularity(speeds, granularity)
                    .expect("grid-rounded speeds respect the granularity")
            }
            SpeedDistribution::Alternating { classes } => {
                assert!(classes >= 1, "alternating needs at least one class");
                SpeedVector::integer((0..n as u64).map(|i| 1 + i % classes).collect())
                    .expect("integer speeds are valid")
            }
        }
    }

    /// A short label for CSV output.
    pub fn label(self) -> &'static str {
        match self {
            SpeedDistribution::Uniform => "uniform",
            SpeedDistribution::IntegerUniform { .. } => "integer-uniform",
            SpeedDistribution::TwoClass { .. } => "two-class",
            SpeedDistribution::Ramp { .. } => "ramp",
            SpeedDistribution::Alternating { .. } => "alternating",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_speeds() {
        let mut rng = StdRng::seed_from_u64(1);
        let s = SpeedDistribution::Uniform.sample(5, &mut rng);
        assert!(s.is_uniform());
        assert_eq!(s.granularity(), Some(1.0));
    }

    #[test]
    fn integer_uniform_in_range_with_smin_one() {
        let mut rng = StdRng::seed_from_u64(2);
        let s = SpeedDistribution::IntegerUniform { max: 5 }.sample(100, &mut rng);
        assert_eq!(s.min(), 1.0);
        assert!(s.max() <= 5.0);
        assert!(s.max() > 1.0, "with 100 draws some speed exceeds 1 a.s.");
        assert_eq!(s.granularity(), Some(1.0));
        for i in 0..100 {
            let v = s.speed(i);
            assert_eq!(v, v.round(), "integer speeds only");
        }
    }

    #[test]
    fn two_class_mixture() {
        let mut rng = StdRng::seed_from_u64(3);
        let s = SpeedDistribution::TwoClass {
            fast: 8,
            fast_fraction: 0.25,
        }
        .sample(400, &mut rng);
        let fast = (0..400).filter(|&i| s.speed(i) == 8.0).count();
        assert!((60..140).contains(&fast), "got {fast} fast of ~100");
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 8.0);
    }

    #[test]
    fn ramp_is_monotone_and_on_grid() {
        let mut rng = StdRng::seed_from_u64(4);
        let s = SpeedDistribution::Ramp {
            max: 4.0,
            granularity: 0.5,
        }
        .sample(7, &mut rng);
        assert_eq!(s.min(), 1.0);
        assert!((s.max() - 4.0).abs() < 0.5 + 1e-9);
        assert_eq!(s.granularity(), Some(0.5));
        for i in 1..7 {
            assert!(s.speed(i) >= s.speed(i - 1), "ramp must be nondecreasing");
        }
    }

    #[test]
    fn single_machine_ramp() {
        let mut rng = StdRng::seed_from_u64(5);
        let s = SpeedDistribution::Ramp {
            max: 9.0,
            granularity: 1.0,
        }
        .sample(1, &mut rng);
        assert_eq!(s.speed(0), 1.0);
    }

    #[test]
    fn alternating_is_deterministic_and_cyclic() {
        let mut rng = StdRng::seed_from_u64(7);
        let s = SpeedDistribution::Alternating { classes: 3 }.sample(7, &mut rng);
        let got: Vec<f64> = (0..7).map(|i| s.speed(i)).collect();
        assert_eq!(got, vec![1.0, 2.0, 3.0, 1.0, 2.0, 3.0, 1.0]);
        assert_eq!(s.granularity(), Some(1.0));
        // One class degenerates to uniform machines.
        let u = SpeedDistribution::Alternating { classes: 1 }.sample(4, &mut rng);
        assert!(u.is_uniform());
    }

    #[test]
    fn labels_are_distinct() {
        let labels = [
            SpeedDistribution::Uniform.label(),
            SpeedDistribution::Alternating { classes: 2 }.label(),
            SpeedDistribution::IntegerUniform { max: 2 }.label(),
            SpeedDistribution::TwoClass {
                fast: 2,
                fast_fraction: 0.5,
            }
            .label(),
            SpeedDistribution::Ramp {
                max: 2.0,
                granularity: 1.0,
            }
            .label(),
        ];
        let set: std::collections::BTreeSet<_> = labels.iter().collect();
        assert_eq!(set.len(), labels.len());
    }

    #[test]
    #[should_panic(expected = "max speed must be at least 1")]
    fn zero_max_panics() {
        let mut rng = StdRng::seed_from_u64(6);
        let _ = SpeedDistribution::IntegerUniform { max: 0 }.sample(2, &mut rng);
    }
}
