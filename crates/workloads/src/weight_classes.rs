//! Weight-class quantization for the count engine.
//!
//! The count engine ([`CountSim`](slb_core::engine::count::CountSim))
//! represents state as per-(node, class) counts, so it needs a *small*
//! set of distinct weights. Every distribution in [`crate::weights`] is
//! either finite-support (unit, bimodal — mapped losslessly) or
//! continuous (uniform range, bounded power law), which [`WeightClasses`]
//! quantizes to a bounded number of equal-width bins, each represented by
//! its midpoint. Quantization is the documented approximation of the
//! count engine on weighted tasks: per-task weights move to the nearest
//! class level, so aggregate weight is preserved to within half a bin
//! width per task (`(hi − lo)/(2·max_classes)`), and the engine's
//! `Ψ₀`/equilibrium predicates are evaluated against the quantized
//! weights.

use slb_core::model::TaskSet;

/// A small, sorted set of weight classes with a total map from sampled
/// weights to class indices.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightClasses {
    /// Class weights, ascending and distinct, all in `(0, 1]`.
    weights: Vec<f64>,
    /// Whether the mapping is lossless (every sample equals its class).
    exact: bool,
    /// Bin range for the quantized case.
    lo: f64,
    hi: f64,
}

impl WeightClasses {
    /// Default class budget: enough for every finite-support distribution
    /// in [`crate::weights`] with room to spare, small enough that the
    /// engine's per-round `O(|E| + n·k)` work stays |E|-dominated.
    pub const DEFAULT_MAX_CLASSES: usize = 16;

    /// Builds classes from sampled task weights: lossless when the sample
    /// has at most `max_classes` distinct values, otherwise `max_classes`
    /// equal-width bins over the sample range (midpoint representatives).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty, `max_classes == 0`, or any sample
    /// lies outside `(0, 1]`.
    pub fn from_samples(samples: &[f64], max_classes: usize) -> Self {
        assert!(!samples.is_empty(), "need at least one sampled weight");
        assert!(max_classes > 0, "need at least one class");
        assert!(
            samples
                .iter()
                .all(|&w| w > 0.0 && w <= 1.0 && w.is_finite()),
            "sampled weights must lie in (0, 1]"
        );
        let mut distinct = samples.to_vec();
        distinct.sort_by(|a, b| a.partial_cmp(b).expect("finite weights"));
        distinct.dedup();
        let (lo, hi) = (distinct[0], *distinct.last().expect("nonempty"));
        if distinct.len() <= max_classes {
            return WeightClasses {
                weights: distinct,
                exact: true,
                lo,
                hi,
            };
        }
        let k = max_classes;
        let width = (hi - lo) / k as f64;
        let weights = (0..k)
            .map(|c| (lo + (c as f64 + 0.5) * width).min(1.0))
            .collect();
        WeightClasses {
            weights,
            exact: false,
            lo,
            hi,
        }
    }

    /// The class weights, ascending.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Number of classes `k`.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Whether the set is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Whether the sample→class map is lossless.
    pub fn is_exact(&self) -> bool {
        self.exact
    }

    /// The class index of a weight: its exact position when lossless, its
    /// bin otherwise (out-of-range weights clamp to the outer bins).
    pub fn class_of(&self, w: f64) -> usize {
        if self.exact {
            // Nearest class (samples always match one exactly).
            return match self
                .weights
                .binary_search_by(|c| c.partial_cmp(&w).expect("finite weights"))
            {
                Ok(i) => i,
                Err(0) => 0,
                Err(i) if i == self.weights.len() => i - 1,
                Err(i) => {
                    if w - self.weights[i - 1] <= self.weights[i] - w {
                        i - 1
                    } else {
                        i
                    }
                }
            };
        }
        let k = self.weights.len();
        let span = self.hi - self.lo;
        if span <= 0.0 {
            return 0;
        }
        (((w - self.lo) / span * k as f64).floor() as usize).min(k - 1)
    }

    /// The class-level weight a sampled weight maps to.
    pub fn quantize(&self, w: f64) -> f64 {
        self.weights[self.class_of(w)]
    }

    /// Per-(node, class) counts for tasks assigned to nodes — the initial
    /// state of the weight-class engine. `task_nodes[t]` is the hosting
    /// node of the task with weight `task_weights[t]`.
    ///
    /// # Panics
    ///
    /// Panics if the two slices differ in length or a node index is out of
    /// range.
    pub fn node_class_counts(
        &self,
        task_weights: &[f64],
        task_nodes: &[usize],
        nodes: usize,
    ) -> Vec<Vec<u64>> {
        assert_eq!(
            task_weights.len(),
            task_nodes.len(),
            "one node per task weight"
        );
        let mut counts = vec![vec![0u64; self.len()]; nodes];
        for (&w, &v) in task_weights.iter().zip(task_nodes) {
            assert!(v < nodes, "task node {v} out of range");
            counts[v][self.class_of(w)] += 1;
        }
        counts
    }

    /// The quantized per-task weights as a [`TaskSet`] — what the count
    /// engine effectively simulates; useful for comparing against the
    /// per-task engines on the same (quantized) instance.
    ///
    /// # Errors
    ///
    /// Propagates [`TaskSet::weighted`] validation (cannot fail for
    /// classes built by [`WeightClasses::from_samples`]).
    pub fn quantized_task_set(
        &self,
        task_weights: &[f64],
    ) -> Result<TaskSet, slb_core::model::TaskError> {
        TaskSet::weighted(task_weights.iter().map(|&w| self.quantize(w)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weights::WeightDistribution;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn finite_support_is_lossless() {
        let mut rng = StdRng::seed_from_u64(1);
        let samples = WeightDistribution::Bimodal {
            light: 0.2,
            heavy: 1.0,
            heavy_fraction: 0.3,
        }
        .sample(500, &mut rng);
        let classes = WeightClasses::from_samples(&samples, WeightClasses::DEFAULT_MAX_CLASSES);
        assert!(classes.is_exact());
        assert!(!classes.is_empty());
        assert_eq!(classes.weights(), &[0.2, 1.0]);
        for &w in &samples {
            assert_eq!(classes.quantize(w), w);
        }
        // Unit weights collapse to one class.
        let unit = WeightClasses::from_samples(&[1.0; 10], 4);
        assert_eq!(unit.len(), 1);
        assert!(unit.is_exact());
        assert_eq!(unit.class_of(1.0), 0);
    }

    #[test]
    fn continuous_sample_quantizes_to_midpoints() {
        let mut rng = StdRng::seed_from_u64(2);
        let samples = WeightDistribution::UniformRange { lo: 0.1, hi: 0.9 }.sample(2000, &mut rng);
        let classes = WeightClasses::from_samples(&samples, 8);
        assert!(!classes.is_exact());
        assert_eq!(classes.len(), 8);
        // Midpoints ascend, stay inside (0, 1], and every sample maps to
        // a class within half a bin width.
        let width = (samples.iter().cloned().fold(f64::MIN, f64::max)
            - samples.iter().cloned().fold(f64::MAX, f64::min))
            / 8.0;
        for pair in classes.weights().windows(2) {
            assert!(pair[0] < pair[1]);
        }
        for &w in &samples {
            let q = classes.quantize(w);
            assert!(q > 0.0 && q <= 1.0);
            assert!(
                (q - w).abs() <= width / 2.0 + 1e-12,
                "sample {w} maps to distant class {q}"
            );
        }
        // The quantized TaskSet is valid and close in total weight.
        let total: f64 = samples.iter().sum();
        let qset = classes.quantized_task_set(&samples).unwrap();
        assert!((qset.total_weight() - total).abs() <= samples.len() as f64 * width / 2.0);
    }

    #[test]
    fn power_law_sample_stays_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(3);
        let samples = WeightDistribution::BoundedPowerLaw {
            alpha: 1.2,
            min: 0.05,
        }
        .sample(3000, &mut rng);
        let classes = WeightClasses::from_samples(&samples, WeightClasses::DEFAULT_MAX_CLASSES);
        assert_eq!(classes.len(), WeightClasses::DEFAULT_MAX_CLASSES);
        assert!(classes.weights().iter().all(|&w| w > 0.0 && w <= 1.0));
    }

    #[test]
    fn node_class_counts_shape() {
        let classes = WeightClasses::from_samples(&[0.25, 1.0, 0.25, 1.0], 4);
        let counts = classes.node_class_counts(&[0.25, 1.0, 0.25, 1.0], &[0, 0, 2, 1], 3);
        assert_eq!(counts, vec![vec![1, 1], vec![0, 1], vec![1, 0]]);
        let total: u64 = counts.iter().flatten().sum();
        assert_eq!(total, 4);
    }

    #[test]
    fn class_of_handles_between_and_out_of_range_queries() {
        let classes = WeightClasses::from_samples(&[0.2, 0.6, 1.0], 8);
        assert!(classes.is_exact());
        assert_eq!(classes.class_of(0.2), 0);
        assert_eq!(classes.class_of(0.35), 0); // nearer 0.2
        assert_eq!(classes.class_of(0.5), 1); // nearer 0.6
        assert_eq!(classes.class_of(0.05), 0);
        assert_eq!(classes.class_of(1.0), 2);
    }

    #[test]
    #[should_panic(expected = "sampled weights must lie in (0, 1]")]
    fn rejects_out_of_range_samples() {
        let _ = WeightClasses::from_samples(&[0.5, 1.5], 4);
    }

    #[test]
    #[should_panic(expected = "need at least one class")]
    fn rejects_zero_classes() {
        let _ = WeightClasses::from_samples(&[0.5], 0);
    }
}
