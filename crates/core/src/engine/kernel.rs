//! The shared count-based round kernel behind
//! [`CountSim`](crate::engine::count::CountSim).
//!
//! Every randomized protocol simulates the same synchronous-round
//! structure: every task on node `i` picks a uniform neighbor `j`, tests a
//! migration condition `ℓ_i − ℓ_j > θ/s_j`, and migrates with the shared
//! probability `p_ij` ([`migration_probability`]). The probability never
//! depends on the task's identity or weight, and the condition depends on
//! the task only through its weight class — so tasks of equal weight on a
//! node are exchangeable, and one round collapses to a multinomial per
//! `(node, weight class)` ([`sample_multinomial`]).
//!
//! The protocols differ **only** in the threshold numerator `θ`:
//! Algorithms 1 and 2 use the weight-independent `θ = 1` (the heaviest
//! possible task — the paper's §4 design point), while the \[6\] baseline
//! uses each task's own weight `θ = w`. The one
//! [`MigrationRule`] that the per-task [`Selfish`](crate::protocol::Selfish)
//! protocol also takes captures exactly that number:
//!
//! | protocol | [`MigrationRule`] | classes |
//! |---|---|---|
//! | Algorithm 1, unit weights | `Relaxed` | one (`w = 1`) |
//! | Algorithm 1, weighted | `Relaxed` | `k` |
//! | Algorithm 2 | `Relaxed` | `k` |
//! | \[6\] baseline | `OwnWeight` | `k` |
//!
//! # Sharded rounds
//!
//! A round is embarrassingly parallel: every node's multinomial reads only
//! the round-start snapshot (loads, node weights), so nodes can be drawn
//! concurrently as long as the count deltas merge deterministically. The
//! kernel partitions the node range into [`ROUND_SHARDS`] **fixed**
//! contiguous shards — a constant, *never* a function of the thread count —
//! and each shard draws from its own RNG stream
//! ([`crate::rng::rng_for_shard`], keyed by
//! `(seed, round, shard)`). Shards are fanned out over up to `threads`
//! workers via `std::thread::scope`, each writing
//!
//! * count deltas for *its own* node range into a disjoint `&mut` slice of
//!   the delta buffer (zero contention, no atomics), and
//! * deltas destined for *other* shards' nodes into a small per-shard
//!   spill vector, applied after the join in ascending shard order.
//!
//! Determinism argument: each shard's draws depend only on its seeded
//! stream and the immutable snapshot; integer deltas commute exactly; and
//! the one non-associative reduction (the `f64` migrated-weight total) is
//! summed in fixed shard order after the join. Hence the trajectory is a
//! pure function of `(seed, round)` — byte-identical at `--threads 1`,
//! `8`, or `64`.
//!
//! The kernel owns one reusable scratch block per shard (destination
//! probability rows in SoA layout, the per-class filtered view, the
//! multinomial output row, the spill), so a steady-state round performs no
//! heap allocation; neighbor scans run over the graph's CSR adjacency
//! slices. Per round the work is `O(|E| + n·k)` plus the sampled counts —
//! against `O(m)` for the per-task engine — and wall-clock divides by the
//! worker count up to [`ROUND_SHARDS`].

use crate::engine::sampling::sample_multinomial;
use crate::model::SpeedVector;
use crate::protocol::{migration_probability, MigrationRule};
use crate::rng::{rng_for_shard, streams};
use slb_graphs::{Graph, NodeId};
use std::ops::Range;

/// Fixed number of node shards per round. A constant — independent of
/// `--threads` — so the set of RNG streams consumed by a round, and hence
/// every artifact, is identical at any thread count. 64 bounds the useful
/// parallelism of one round and keeps per-shard scratch small.
pub const ROUND_SHARDS: usize = 64;

/// The contiguous node range owned by `shard` out of [`ROUND_SHARDS`] over
/// `n` nodes: `[s·n/S, (s+1)·n/S)`. Ranges partition `[0, n)` exactly;
/// when `n < ROUND_SHARDS` the tail shards are empty.
pub fn shard_range(shard: usize, n: usize) -> Range<usize> {
    debug_assert!(shard < ROUND_SHARDS);
    (shard * n / ROUND_SHARDS)..((shard + 1) * n / ROUND_SHARDS)
}

/// What one round of the count engine did: the kernel's migrations plus
/// the event totals injected before them (all zero in a static run).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StepTotals {
    /// Tasks that migrated.
    pub migrations: u64,
    /// Total weight that migrated.
    pub migrated_weight: f64,
    /// Tasks that arrived.
    pub arrived: u64,
    /// Tasks that completed.
    pub completed: u64,
    /// Nodes that left.
    pub left: u64,
    /// Nodes that rejoined.
    pub joined: u64,
}

/// Reusable per-shard scratch: the SoA destination row of the node being
/// processed, the per-class filtered view, the multinomial output, the
/// cross-shard spill, and the shard's own totals. One block per shard so
/// workers never share mutable state.
#[derive(Debug, Default)]
struct ShardScratch {
    /// Current node's candidate destinations (CSR neighbor order).
    dest_nodes: Vec<usize>,
    /// `q_j = p_ij/deg(i)` per candidate destination.
    dest_probs: Vec<f64>,
    /// `s_j` per candidate destination (for per-class conditions).
    dest_speeds: Vec<f64>,
    /// Per-class filtered destination view (tighter-threshold classes).
    class_dest_nodes: Vec<usize>,
    /// Probabilities of the filtered view.
    class_dest_probs: Vec<f64>,
    /// Multinomial output row.
    moved: Vec<u64>,
    /// Count deltas landing outside this shard's node range, as
    /// `(flat node·k+class index, delta)`; applied after the join in
    /// ascending shard order.
    spill: Vec<(u32, i64)>,
    /// This shard's migration totals, merged in shard order.
    totals: StepTotals,
    /// Whether this shard called [`sample_multinomial`] this round.
    drew: bool,
}

/// Reusable per-round scratch of the count engine. One instance lives
/// inside each simulator; all buffers are cleared and refilled in
/// place, so steady-state rounds allocate nothing.
#[derive(Debug, Default)]
pub(crate) struct CountKernel {
    /// Round-start `W_i`.
    node_weights: Vec<f64>,
    /// Round-start speed-normalized loads `ℓ_i = W_i/s_i`.
    loads: Vec<f64>,
    /// Count deltas of the committing round (node-major, `k` per node),
    /// split into disjoint per-shard slices during the parallel section.
    delta: Vec<i64>,
    /// `θ(w_c)` per class, computed once per round.
    class_thresholds: Vec<f64>,
    /// One scratch block per shard ([`ROUND_SHARDS`] entries).
    shards: Vec<ShardScratch>,
    /// Whether the last round called [`sample_multinomial`] at all. A
    /// round without a call drew nothing and moved nothing, so on the same
    /// instance every later round is the same no-op.
    drew: bool,
}

impl CountKernel {
    /// A fresh kernel (buffers grow to steady-state sizes on first use).
    pub(crate) fn new() -> Self {
        CountKernel::default()
    }

    /// Executes one synchronous round over node-major per-class `counts`
    /// (`counts[node·k + class]` tasks of weight `class_weights[class]`),
    /// committing all migrations simultaneously against the round-start
    /// snapshot. Randomness is drawn from the per-shard streams of
    /// `(seed, round)`; `threads` caps the worker fan-out and has **no**
    /// effect on the result.
    ///
    /// `graph` and `speeds` are passed per call rather than captured at
    /// construction: under churn and speed dynamics the count engine feeds
    /// a remapped graph and a per-round speed vector through the *same*
    /// kernel (and the same scratch buffers — nothing is re-allocated when
    /// either changes).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn step(
        &mut self,
        graph: &Graph,
        speeds: &SpeedVector,
        alpha: f64,
        rule: MigrationRule,
        class_weights: &[f64],
        counts: &mut [u64],
        seed: u64,
        round: u64,
        threads: usize,
    ) -> StepTotals {
        let g = graph;
        let k = class_weights.len();
        let n = g.node_count();
        debug_assert_eq!(counts.len(), n * k, "node-major counts, k per node");
        assert!(
            n * k <= u32::MAX as usize,
            "flat (node, class) index must fit the u32 spill encoding"
        );

        // Round-start aggregates, once per round into reused buffers: the
        // node weights and the speed-normalized loads every probability
        // below reads.
        self.node_weights.clear();
        if k == 1 {
            // Single-class form as a plain map: the steady-state rounds
            // of unit-weight runs are dominated by this preamble, so it
            // must vectorize.
            let w = class_weights[0];
            self.node_weights
                .extend(counts.iter().map(|&c| c as f64 * w));
        } else {
            self.node_weights.extend(counts.chunks_exact(k).map(|row| {
                row.iter()
                    .zip(class_weights)
                    .map(|(&c, &w)| c as f64 * w)
                    .sum::<f64>()
            }));
        }
        self.loads.clear();
        self.loads.extend(
            self.node_weights
                .iter()
                .zip(speeds.as_slice())
                .map(|(&w, &s)| w / s),
        );
        self.delta.clear();
        self.delta.resize(counts.len(), 0);
        self.class_thresholds.clear();
        self.class_thresholds
            .extend(class_weights.iter().map(|&w| rule.threshold(w)));
        if self.shards.is_empty() {
            self.shards.resize_with(ROUND_SHARDS, ShardScratch::default);
        }

        // Carve the delta buffer into one disjoint `&mut` slice per shard
        // (the shard ranges partition `[0, n)` in order), pair each with
        // its scratch block, and drop empty shards after resetting their
        // mergeable state.
        let mut jobs: Vec<(usize, Range<usize>, &mut [i64], &mut ShardScratch)> =
            Vec::with_capacity(ROUND_SHARDS);
        {
            let mut rest: &mut [i64] = &mut self.delta;
            let mut scratches = self.shards.iter_mut();
            for shard in 0..ROUND_SHARDS {
                let range = shard_range(shard, n);
                let scratch = scratches.next().expect("ROUND_SHARDS scratch blocks");
                let (slice, tail) = rest.split_at_mut(range.len() * k);
                rest = tail;
                if range.is_empty() {
                    scratch.spill.clear();
                    scratch.totals = StepTotals::default();
                    scratch.drew = false;
                } else {
                    jobs.push((shard, range, slice, scratch));
                }
            }
        }

        let inputs = RoundInputs {
            graph,
            speeds,
            alpha,
            class_weights,
            class_thresholds: &self.class_thresholds,
            node_weights: &self.node_weights,
            loads: &self.loads,
            counts,
            seed,
            round,
        };
        // The rule picks the shard loop's instantiation once per round, so
        // the per-node loop never branches on it.
        let run = if rule.is_class_dependent() {
            run_shard::<true>
        } else {
            run_shard::<false>
        };
        let workers = threads.clamp(1, jobs.len().max(1));
        if workers <= 1 {
            for (shard, range, delta, scratch) in jobs {
                run(&inputs, shard, range, delta, scratch);
            }
        } else {
            // Round-robin shards over workers. Assignment affects only
            // scheduling: every shard's draws come from its own stream and
            // land in its own buffers, so the result is worker-invariant.
            let mut batches: Vec<Vec<_>> = (0..workers).map(|_| Vec::new()).collect();
            for (idx, job) in jobs.into_iter().enumerate() {
                batches[idx % workers].push(job);
            }
            let inputs = &inputs;
            std::thread::scope(|scope| {
                for batch in batches {
                    scope.spawn(move || {
                        for (shard, range, delta, scratch) in batch {
                            run(inputs, shard, range, delta, scratch);
                        }
                    });
                }
            });
        }

        // Deterministic merge: spills and totals in ascending shard order
        // (the f64 weight total is the one order-sensitive reduction).
        let mut totals = StepTotals::default();
        self.drew = false;
        for scratch in &self.shards {
            for &(idx, d) in &scratch.spill {
                self.delta[idx as usize] += d;
            }
            totals.migrations += scratch.totals.migrations;
            totals.migrated_weight += scratch.totals.migrated_weight;
            self.drew |= scratch.drew;
        }
        for (count, &d) in counts.iter_mut().zip(&self.delta) {
            let updated = *count as i64 + d;
            debug_assert!(updated >= 0, "negative count after round");
            *count = updated as u64;
        }
        totals
    }

    /// Whether the last [`CountKernel::step`] called
    /// [`sample_multinomial`] at all (`false` before the first round).
    pub(crate) fn drew(&self) -> bool {
        self.drew
    }
}

/// The read-only inputs every shard of one round shares: the instance,
/// the round-start snapshot and the round's stream key.
struct RoundInputs<'r> {
    graph: &'r Graph,
    speeds: &'r SpeedVector,
    alpha: f64,
    class_weights: &'r [f64],
    /// `θ(w_c)` per class.
    class_thresholds: &'r [f64],
    node_weights: &'r [f64],
    loads: &'r [f64],
    counts: &'r [u64],
    seed: u64,
    round: u64,
}

/// Draws one shard's multinomials against the round-start snapshot.
/// Own-range deltas go into `delta` (this shard's disjoint slice, indexed
/// relative to `range.start`); deltas for other shards' nodes go into the
/// spill. Randomness comes exclusively from the `(seed, round, shard)`
/// stream, so the caller's scheduling cannot change the draws.
/// `CLASS_DEPENDENT` is [`MigrationRule::is_class_dependent`] of the
/// round's rule; `false` constant-folds away the per-node
/// loosest-threshold scan and the per-class destination filtering (every
/// class shares one row).
fn run_shard<const CLASS_DEPENDENT: bool>(
    inputs: &RoundInputs<'_>,
    shard: usize,
    range: Range<usize>,
    delta: &mut [i64],
    scratch: &mut ShardScratch,
) {
    let RoundInputs {
        graph,
        speeds,
        alpha,
        class_weights,
        class_thresholds,
        node_weights,
        loads,
        counts,
        seed,
        round,
    } = *inputs;
    let g = graph;
    let k = class_weights.len();
    let base = range.start;
    let mut rng = rng_for_shard(seed, round, streams::round::KERNEL, shard as u64);
    scratch.spill.clear();
    scratch.totals = StepTotals::default();
    scratch.drew = false;
    for ii in range {
        if node_weights[ii] <= 0.0 {
            continue;
        }
        let i = NodeId(ii);
        let deg = g.degree(i);
        // The loosest condition any class present on this node can
        // satisfy gates the (CSR-contiguous) neighbor scan: edges
        // failing it for every present class never price a
        // probability. Class-independent rules constant-fold the scan
        // away (every class shares the one threshold).
        let min_thr = if CLASS_DEPENDENT {
            let mut min_thr = f64::INFINITY;
            for c in 0..k {
                if counts[ii * k + c] > 0 && class_thresholds[c] < min_thr {
                    min_thr = class_thresholds[c];
                }
            }
            min_thr
        } else {
            class_thresholds[0]
        };
        scratch.dest_nodes.clear();
        scratch.dest_probs.clear();
        scratch.dest_speeds.clear();
        for &j in g.neighbors(i) {
            let jj = j.index();
            let s_j = speeds.speed(jj);
            if loads[ii] - loads[jj] <= min_thr / s_j {
                continue;
            }
            let p_ij = migration_probability(
                deg,
                g.d_max_endpoint(i, j),
                loads[ii],
                loads[jj],
                speeds.speed(ii),
                s_j,
                node_weights[ii],
                alpha,
            );
            // Joint destination probability of a single task.
            let q = p_ij / deg as f64;
            if q > 0.0 {
                scratch.dest_nodes.push(jj);
                scratch.dest_probs.push(q);
                if CLASS_DEPENDENT {
                    scratch.dest_speeds.push(s_j);
                }
            }
        }
        if scratch.dest_nodes.is_empty() {
            continue;
        }
        for c in 0..k {
            let count = counts[ii * k + c];
            if count == 0 {
                continue;
            }
            let thr = class_thresholds[c];
            // Classes at the loosest threshold reuse the shared
            // destination row as-is — always under a
            // weight-independent rule; tighter classes filter it. Both
            // thresholds are copies out of `class_thresholds`, so the
            // exact comparison is an identity test, not a tolerance.
            #[allow(clippy::float_cmp)]
            let (nodes, probs): (&[usize], &[f64]) = if !CLASS_DEPENDENT || thr == min_thr {
                (&scratch.dest_nodes, &scratch.dest_probs)
            } else {
                scratch.class_dest_nodes.clear();
                scratch.class_dest_probs.clear();
                for (d, &jj) in scratch.dest_nodes.iter().enumerate() {
                    if loads[ii] - loads[jj] > thr / scratch.dest_speeds[d] {
                        scratch.class_dest_nodes.push(jj);
                        scratch.class_dest_probs.push(scratch.dest_probs[d]);
                    }
                }
                (&scratch.class_dest_nodes, &scratch.class_dest_probs)
            };
            if nodes.is_empty() {
                continue;
            }
            scratch.drew = true;
            let moved_total = sample_multinomial(count, probs, &mut scratch.moved, &mut rng);
            if moved_total > 0 {
                delta[(ii - base) * k + c] -= moved_total as i64;
                for (&jj, &mv) in nodes.iter().zip(&scratch.moved) {
                    if mv > 0 {
                        if (base..base + delta.len() / k).contains(&jj) {
                            delta[(jj - base) * k + c] += mv as i64;
                        } else {
                            // Lossless: round entry asserts n·k ≤ u32::MAX.
                            #[allow(clippy::cast_possible_truncation)]
                            scratch.spill.push(((jj * k + c) as u32, mv as i64));
                        }
                    }
                }
                scratch.totals.migrations += moved_total;
                scratch.totals.migrated_weight += moved_total as f64 * class_weights[c];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_loop, StopCondition, StopReason};
    use crate::equilibrium::Threshold;
    use std::cell::RefCell;

    #[test]
    fn threshold_rules() {
        assert_eq!(MigrationRule::Relaxed.threshold(0.25), 1.0);
        assert_eq!(MigrationRule::Relaxed.threshold(1.0), 1.0);
        assert_eq!(MigrationRule::OwnWeight.threshold(0.25), 0.25);
        assert_eq!(MigrationRule::OwnWeight.threshold(1.0), 1.0);
        assert!(!MigrationRule::Relaxed.is_class_dependent());
        assert!(MigrationRule::OwnWeight.is_class_dependent());
    }

    #[test]
    fn shard_ranges_partition_exactly() {
        for n in [0usize, 1, 7, 63, 64, 65, 1000, 1 << 20] {
            let mut next = 0usize;
            for s in 0..ROUND_SHARDS {
                let r = shard_range(s, n);
                assert_eq!(r.start, next, "gap before shard {s} at n={n}");
                assert!(r.start <= r.end);
                next = r.end;
            }
            assert_eq!(next, n, "shards must cover [0, {n})");
        }
    }

    #[test]
    fn small_n_leaves_tail_shards_empty() {
        // n < ROUND_SHARDS: every node still lands in exactly one shard.
        let n = 5;
        let nonempty: Vec<Range<usize>> = (0..ROUND_SHARDS)
            .map(|s| shard_range(s, n))
            .filter(|r| !r.is_empty())
            .collect();
        assert_eq!(nonempty.iter().map(|r| r.len()).sum::<usize>(), n);
    }

    // The count engine steps through `engine::run_loop`; these pin its
    // contract on a bare step counter.

    #[test]
    fn run_loop_checks_before_first_round() {
        // A trivially satisfied stop rule must cost zero rounds and zero
        // steps.
        let mut steps = 0u32;
        let out = run_loop(
            &mut steps,
            StopCondition::Nash(Threshold::UnitWeight),
            100,
            |_, _| true,
            |s| {
                *s += 1;
                (1, false)
            },
        );
        assert_eq!(out.rounds, 0);
        assert_eq!(out.reason, StopReason::ConditionMet);
        assert_eq!(out.migrations, 0);
        assert_eq!(steps, 0);
    }

    #[test]
    fn run_loop_exhausts_budget_and_rechecks() {
        // Never-met stop: the loop runs the full budget, tallies
        // migrations, and checks the initial state, every round's start,
        // and the final state once more.
        let checked = RefCell::new(Vec::new());
        let mut steps = 0u32;
        let out = run_loop(
            &mut steps,
            StopCondition::Psi0Below(0.0),
            5,
            |s, _| {
                checked.borrow_mut().push(*s);
                false
            },
            |s| {
                *s += 1;
                (2, false)
            },
        );
        assert_eq!(out.rounds, 5);
        assert_eq!(out.reason, StopReason::BudgetExhausted);
        assert_eq!(out.migrations, 10);
        assert_eq!(steps, 5);
        assert_eq!(*checked.borrow(), vec![0, 1, 2, 3, 4, 5]);

        // A condition first met by the budget's last round is caught by
        // the recheck.
        let mut steps = 0u32;
        let out = run_loop(
            &mut steps,
            StopCondition::Psi0Below(0.0),
            5,
            |s, _| *s >= 5,
            |s| {
                *s += 1;
                (2, false)
            },
        );
        assert_eq!(out.rounds, 5);
        assert_eq!(out.reason, StopReason::ConditionMet);
        assert_eq!(out.migrations, 10);
    }
}
