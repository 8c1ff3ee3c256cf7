//! The between-round event layer of [`CountSim`]: arrivals, completions,
//! node churn and time-varying speeds, injected directly into the class
//! counts before each kernel round.
//!
//! * **arrivals** ([`ArrivalProcess`]) — a Poisson or batch total per
//!   round, placed uniformly over the live nodes (each arrival is an
//!   independent uniform choice; the injection samples the equivalent
//!   multinomial via chained conditional binomials, see the χ² test);
//! * **completions** ([`CompletionProcess`]) — rate-based (each task
//!   completes with probability `μ` per round, a binomial per occupied
//!   `(node, class)` cell) or count-based (exactly `c` tasks per round,
//!   apportioned over cells proportionally to their counts by largest
//!   remainder — deterministic);
//! * **churn** ([`ChurnProcess`]) — per round every live node leaves and
//!   every dead node rejoins with probability `p`; a leaving node's tasks
//!   re-scatter uniformly over its live neighbors (falling back to the
//!   lowest-index live node if it has none) and the live topology becomes
//!   the subgraph induced on the live set (dead nodes stay in the index
//!   space with degree 0);
//! * **speed dynamics** ([`SpeedDynamics`]) — geometric drift, a one-round
//!   shock, or tauray-style feedback estimation where the kernel sees a
//!   per-round blended *estimate* `ŝ ← ŝ + η·(s − ŝ)` instead of the true
//!   speed; `α` re-resolves against the current speeds so `p_ij ≤ 1/4`
//!   keeps holding as they move.

use super::CountSim;
use crate::engine::kernel::StepTotals;
use crate::engine::sampling::{
    sample_binomial, sample_multinomial, sample_poisson, sample_standard_normal,
};
use crate::model::SpeedVector;
use crate::protocol::Alpha;
use crate::rng::{rng_for, streams};
use rand::Rng;
use slb_graphs::{Graph, NodeId};
use std::borrow::Cow;

/// How new tasks enter the system, per round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// `Poisson(rate · live nodes)` arrivals per round, placed uniformly
    /// over the live nodes (`rate` is the expected arrivals per node per
    /// round).
    Poisson {
        /// Expected arrivals per live node per round.
        rate: f64,
    },
    /// `size` tasks every `period` rounds (first batch at round 0),
    /// placed uniformly over the live nodes.
    Batch {
        /// Tasks per batch.
        size: u64,
        /// Rounds between batches.
        period: u64,
    },
}

/// How tasks leave the system, per round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CompletionProcess {
    /// Every task completes independently with probability `mu` per round
    /// (one binomial per occupied `(node, class)` cell).
    Rate {
        /// Per-task per-round completion probability.
        mu: f64,
    },
    /// Exactly `count` tasks complete per round (capped at the current
    /// population), apportioned over occupied cells proportionally to
    /// their counts by the largest-remainder method — fully
    /// deterministic.
    PerRound {
        /// Tasks completed per round.
        count: u64,
    },
}

/// Node join/leave dynamics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnProcess {
    /// Per-round probability that a live node leaves (and that a dead
    /// node rejoins). The engine never lets the last live node leave.
    pub rate: f64,
}

/// Time variation of the speed vector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpeedDynamics {
    /// Geometric random walk: each round every node's true speed is
    /// multiplied by `exp(sigma·z)` with `z ~ N(0,1)`, clamped to a fixed
    /// band around the initial speeds.
    Drift {
        /// Log-scale per-round step size.
        sigma: f64,
    },
    /// At round `round`, each node's true speed is quadrupled with
    /// probability `fraction` — a one-shot capacity shock whose recovery
    /// the steady-state metrics measure.
    Shock {
        /// The round the shock fires at.
        round: u64,
        /// Expected fraction of nodes hit.
        fraction: f64,
    },
    /// tauray-style feedback estimation: speeds are constant but the
    /// protocol only sees a per-round blended estimate
    /// `ŝ ← ŝ + eta·(s − ŝ)`, started from the uninformed all-ones guess.
    Feedback {
        /// Blend factor per round, in `(0, 1]`.
        eta: f64,
    },
}

/// The event layer of one count run; `Default` is the static instance.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DynamicConfig {
    /// Task arrivals, if any.
    pub arrivals: Option<ArrivalProcess>,
    /// Task completions, if any.
    pub completions: Option<CompletionProcess>,
    /// Node churn, if any.
    pub churn: Option<ChurnProcess>,
    /// Speed dynamics, if any.
    pub speed_dynamics: Option<SpeedDynamics>,
}

impl DynamicConfig {
    /// Whether any event process is configured.
    pub fn is_dynamic(&self) -> bool {
        self.arrivals.is_some()
            || self.completions.is_some()
            || self.churn.is_some()
            || self.speed_dynamics.is_some()
    }
}

impl CountSim<'_> {
    /// Runs the events of `cfg` before every round. Arrivals and
    /// completions decouple the population from the starting state's.
    ///
    /// # Panics
    ///
    /// If `alpha` is [`Alpha::Exact`] while speed dynamics are configured
    /// (a drifting vector has no granularity to resolve `α` against).
    pub fn with_dynamics(mut self, cfg: DynamicConfig) -> Self {
        assert!(
            !(cfg.speed_dynamics.is_some() && self.alpha_spec == Alpha::Exact),
            "Alpha::Exact requires a fixed speed granularity; \
             use Approximate (or Custom) under speed dynamics"
        );
        if let Some(dynamics) = cfg.speed_dynamics {
            self.true_speeds = self.speeds.as_slice().to_vec();
            let s_min = self
                .true_speeds
                .iter()
                .cloned()
                .fold(f64::INFINITY, f64::min);
            let s_max = self.true_speeds.iter().cloned().fold(0.0f64, f64::max);
            self.drift_floor = (s_min / 16.0).max(1e-9);
            self.drift_cap = s_max * 16.0;
            // Feedback runs start from the uninformed all-ones estimate.
            if let SpeedDynamics::Feedback { .. } = dynamics {
                let ones = vec![1.0; self.true_speeds.len()];
                self.set_speeds(ones);
                self.refresh_snapshot();
            }
        }
        if cfg.arrivals.is_some() {
            let total = self.state.total_tasks();
            let k = self.state.classes();
            self.class_mix = if total == 0 {
                vec![1.0 / k as f64; k]
            } else {
                (0..k)
                    .map(|c| self.state.class_total(c) as f64 / total as f64)
                    .collect()
            };
        }
        self.cfg = cfg;
        self
    }

    /// The event pipeline of one round (speeds → churn → completions →
    /// arrivals, each on its own RNG stream of this round); returns the
    /// event totals. The snapshot is refreshed once, after the last event:
    /// nothing reads it in between.
    pub(super) fn apply_events(&mut self) -> StepTotals {
        let mut totals = StepTotals::default();
        if !self.cfg.is_dynamic() {
            return totals;
        }
        self.update_speeds();
        self.apply_churn(&mut totals);
        self.apply_completions(&mut totals);
        self.apply_arrivals(&mut totals);
        self.refresh_snapshot();
        totals
    }

    /// Shows the protocol `speeds`, re-resolves `α` against them and
    /// rebuilds the kernel's tables.
    fn set_speeds(&mut self, speeds: Vec<f64>) {
        let speeds = SpeedVector::new(speeds).expect("speeds stay positive");
        self.alpha = self.alpha_spec.resolve(&speeds);
        self.speeds = Cow::Owned(speeds);
        self.rebuild_kernel_tables();
    }

    /// Applies this round's speed dynamics.
    fn update_speeds(&mut self) {
        let Some(dynamics) = self.cfg.speed_dynamics else {
            return;
        };
        let mut rng = rng_for(self.seed, self.round, streams::round::SPEED);
        let seen = match dynamics {
            SpeedDynamics::Drift { sigma } => {
                for s in self.true_speeds.iter_mut() {
                    let z = sample_standard_normal(&mut rng);
                    *s = (*s * (sigma * z).exp()).clamp(self.drift_floor, self.drift_cap);
                }
                self.true_speeds.clone()
            }
            SpeedDynamics::Shock { round, fraction } => {
                if self.round != round {
                    return;
                }
                for s in self.true_speeds.iter_mut() {
                    if rng.gen_range(0.0..1.0) < fraction {
                        *s = (*s * 4.0).min(self.drift_cap);
                    }
                }
                self.true_speeds.clone()
            }
            SpeedDynamics::Feedback { eta } => self
                .speeds
                .as_slice()
                .iter()
                .zip(&self.true_speeds)
                .map(|(&est, &truth)| est + eta * (truth - est))
                .collect(),
        };
        self.set_speeds(seen);
    }

    /// Samples this round's join/leave toggles, re-scatters the tasks of
    /// leaving nodes over their live neighbors, and rebuilds the induced
    /// live topology when membership changed.
    fn apply_churn(&mut self, totals: &mut StepTotals) {
        let Some(ChurnProcess { rate }) = self.cfg.churn else {
            return;
        };
        let n = self.alive.len();
        let mut rng = rng_for(self.seed, self.round, streams::round::CHURN);
        // Toggle draws in fixed node order (one uniform per node, live or
        // dead, so the stream position never depends on churn history).
        let mut leaving: Vec<usize> = Vec::new();
        let mut joined = 0u64;
        for v in 0..n {
            let u: f64 = rng.gen_range(0.0..1.0);
            if u >= rate {
                continue;
            }
            if self.alive[v] {
                leaving.push(v);
            } else {
                self.alive[v] = true;
                self.live_count += 1;
                joined += 1;
            }
        }
        // Never let the membership empty out: keep the lowest-index
        // would-be leaver alive instead.
        if !leaving.is_empty() && self.live_count == leaving.len() {
            leaving.remove(0);
        }
        for &v in &leaving {
            self.alive[v] = false;
            self.live_count -= 1;
        }
        totals.left = leaving.len() as u64;
        totals.joined = joined;
        if leaving.is_empty() && joined == 0 {
            return;
        }
        // Re-scatter each leaver's tasks uniformly over its live
        // base-graph neighbors (sequential conditional binomials — the
        // exact uniform multinomial), falling back to the lowest-index
        // live node when it has none.
        let k = self.state.classes();
        let fallback = self.alive.iter().position(|&a| a).expect("a live node");
        for &v in &leaving {
            let targets: Vec<usize> = self
                .base_graph
                .neighbors(NodeId(v))
                .iter()
                .map(|j| j.index())
                .filter(|&j| self.alive[j])
                .collect();
            let (_, counts) = self.state.kernel_view();
            for c in 0..k {
                let have = counts[v * k + c];
                if have == 0 {
                    continue;
                }
                counts[v * k + c] = 0;
                if targets.is_empty() {
                    counts[fallback * k + c] += have;
                    continue;
                }
                let mut remaining = have;
                for (idx, &j) in targets.iter().enumerate() {
                    if remaining == 0 {
                        break;
                    }
                    let rest = (targets.len() - idx) as f64;
                    let take = if idx + 1 == targets.len() {
                        remaining
                    } else {
                        sample_binomial(remaining, 1.0 / rest, &mut rng)
                    };
                    counts[j * k + c] += take;
                    remaining -= take;
                }
            }
        }
        // Remap the CSR structure: the subgraph induced on the live set,
        // over the unchanged node index space.
        let alive = &self.alive;
        self.graph = Cow::Owned(
            Graph::from_edges(
                n,
                self.base_graph
                    .edges()
                    .iter()
                    .filter(|(a, b)| alive[a.index()] && alive[b.index()])
                    .map(|(a, b)| (a.index(), b.index())),
            )
            .expect("induced subgraph of a valid graph is valid"),
        );
        self.rebuild_kernel_tables();
    }

    /// Removes this round's completed tasks from the class state.
    fn apply_completions(&mut self, totals: &mut StepTotals) {
        let Some(process) = self.cfg.completions else {
            return;
        };
        match process {
            CompletionProcess::Rate { mu } => {
                let mut rng = rng_for(self.seed, self.round, streams::round::COMPLETION);
                let (_, counts) = self.state.kernel_view();
                for cell in counts.iter_mut() {
                    if *cell == 0 {
                        continue;
                    }
                    let done = sample_binomial(*cell, mu, &mut rng);
                    *cell -= done;
                    totals.completed += done;
                }
            }
            CompletionProcess::PerRound { count } => {
                let total = self.state.total_tasks();
                let take = count.min(total);
                if take == 0 {
                    return;
                }
                // Largest-remainder apportionment proportional to the
                // cell counts: deterministic, exact total.
                let (_, counts) = self.state.kernel_view();
                let mut floors = 0u64;
                let mut fracs: Vec<(f64, usize)> = Vec::new();
                self.scratch_counts.clear();
                for (i, &cell) in counts.iter().enumerate() {
                    let quota = take as f64 * cell as f64 / total as f64;
                    // `quota` is finite and non-negative (`take ≤ total`),
                    // so the only inexactness is the float division —
                    // `.min(cell)` re-clamps it into the cell's range.
                    #[allow(clippy::cast_possible_truncation)]
                    let base = (quota.floor() as u64).min(cell);
                    self.scratch_counts.push(base);
                    floors += base;
                    if cell > base {
                        fracs.push((quota - base as f64, i));
                    }
                }
                // Distribute the leftover to the largest fractional
                // parts; ties break toward lower cell index. `total_cmp`
                // is a total order, so no NaN unwrap is needed (and the
                // fractional parts are finite by construction anyway).
                fracs.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
                let mut leftover = take - floors;
                for &(_, i) in &fracs {
                    if leftover == 0 {
                        break;
                    }
                    if counts[i] > self.scratch_counts[i] {
                        self.scratch_counts[i] += 1;
                        leftover -= 1;
                    }
                }
                for (cell, &done) in counts.iter_mut().zip(&self.scratch_counts) {
                    *cell -= done;
                    totals.completed += done;
                }
            }
        }
    }

    /// Injects this round's arrivals: a sampled total, placed uniformly
    /// over the live nodes, then split over weight classes by the initial
    /// class mix.
    fn apply_arrivals(&mut self, totals: &mut StepTotals) {
        let Some(process) = self.cfg.arrivals else {
            return;
        };
        let mut rng = rng_for(self.seed, self.round, streams::round::ARRIVAL);
        let total = match process {
            ArrivalProcess::Poisson { rate } => {
                sample_poisson(rate * self.live_count as f64, &mut rng)
            }
            ArrivalProcess::Batch { size, period } => {
                if self.round.is_multiple_of(period.max(1)) {
                    size
                } else {
                    0
                }
            }
        };
        if total == 0 {
            return;
        }
        totals.arrived = total;
        let k = self.state.classes();
        let class_mix = &self.class_mix;
        let mut class_out: Vec<u64> = Vec::new();
        let live = self.live_count;
        let n = self.alive.len();
        let (_, counts) = self.state.kernel_view();
        // Both placement regimes sample the same multinomial of `total`
        // independent uniform choices over the live nodes; the split
        // keeps placement cost `O(min(total, live))` so sparse Poisson
        // arrivals don't pay one binomial per node per round.
        if total <= live as u64 {
            // Sparse regime: draw each task's node directly. Per-node
            // totals are accumulated before the class split so classes
            // are assigned in node order — placement stays a pure
            // function of the arrival stream regardless of draw order.
            if k == 1 && live == n {
                for _ in 0..total {
                    let pick = rng.gen_range(0..live);
                    counts[pick] += 1;
                }
            } else {
                self.scratch_counts.clear();
                self.scratch_counts.resize(live, 0);
                for _ in 0..total {
                    let pick = rng.gen_range(0..live);
                    self.scratch_counts[pick] += 1;
                }
                let mut idx = 0usize;
                for v in 0..n {
                    if !self.alive[v] {
                        continue;
                    }
                    let here = self.scratch_counts[idx];
                    idx += 1;
                    if here == 0 {
                        continue;
                    }
                    if k == 1 {
                        counts[v] += here;
                    } else {
                        sample_multinomial(here, class_mix, &mut class_out, &mut rng);
                        for (c, &add) in class_out.iter().enumerate() {
                            counts[v * k + c] += add;
                        }
                    }
                }
            }
        } else {
            // Dense regime (large batches): sequential conditional
            // binomials — node v (the idx-th live node of L) receives
            // Binomial(remaining, 1/(L − idx)).
            let mut remaining = total;
            let mut idx = 0usize;
            for v in 0..n {
                if !self.alive[v] {
                    continue;
                }
                if remaining == 0 {
                    break;
                }
                let here = if idx + 1 == live {
                    remaining
                } else {
                    sample_binomial(remaining, 1.0 / (live - idx) as f64, &mut rng)
                };
                idx += 1;
                if here == 0 {
                    continue;
                }
                remaining -= here;
                if k == 1 {
                    counts[v] += here;
                } else {
                    sample_multinomial(here, class_mix, &mut class_out, &mut rng);
                    for (c, &add) in class_out.iter().enumerate() {
                        counts[v * k + c] += add;
                    }
                }
            }
        }
    }
}
