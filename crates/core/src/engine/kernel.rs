//! The shared count-based round kernel behind
//! [`CountSim`](crate::engine::count::CountSim).
//!
//! Every randomized protocol simulates the same synchronous-round
//! structure: every task on node `i` picks a uniform neighbor `j`, tests a
//! migration condition `ℓ_i − ℓ_j > θ/s_j`, and migrates with the shared
//! probability `p_ij`
//! ([`migration_probability`](crate::protocol::migration_probability)).
//! The probability never depends on the task's identity or weight, and the
//! condition depends on the task only through its weight class — so tasks
//! of equal weight on a node are exchangeable, and one round collapses to a
//! multinomial per `(node, weight class)` ([`sample_multinomial_each`]).
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
//! ([`crate::rng::rng_for_shard`], keyed by `(seed, round, shard)`), seeded
//! on the shard's first draw. A round's unit of work is a *block*: one
//! contiguous run of shards per worker (a single block of every shard on
//! one worker), fanned out as one `std::thread::scope` spawn per block. A
//! worker walks its block's nodes once, switching stream at each shard
//! boundary, and writes
//!
//! * the count deltas of its own node range into a disjoint `&mut` slice
//!   of the delta buffer, straight from the multinomial chain
//!   ([`sample_multinomial_each`]) with no output row in between (zero
//!   contention, no atomics),
//! * the destination rows it prices into its own nodes' slots of the row
//!   cache (below), equally disjoint,
//! * each shard's migrated weight into that shard's slot of a
//!   [`ROUND_SHARDS`]-long array, and
//! * deltas destined for *other* blocks' nodes into the block's spill
//!   vector, applied after the join.
//!
//! Determinism argument: each shard's draws depend only on its seeded
//! stream and the immutable snapshot; integer deltas commute exactly; and
//! the one non-associative reduction (the `f64` migrated-weight total) is
//! summed per shard and then in fixed shard order after the join, however
//! the shards are grouped into blocks. Hence the trajectory is a pure
//! function of `(seed, round)` — byte-identical at `--threads 1`, `8`, or
//! `64`.
//!
//! The kernel owns one reusable scratch per worker (the per-class
//! filtered view, the spill), so a steady-state round on one worker
//! performs no heap allocation; a round fanned out over more workers
//! spawns their threads. A round's fixed cost grows with the worker
//! count, not with [`ROUND_SHARDS`]. Neighbor scans run over the graph's
//! CSR adjacency slices. Per round the work is `O(n·k)` (the row lookups
//! and the delta scan), plus `O(deg_i)` for each stale row `i` (see below)
//! and the sampled counts — `O(|E| + n·k)` when every row is stale,
//! against `O(m)` for the per-task engine — and wall-clock divides by the
//! worker count up to [`ROUND_SHARDS`].
//!
//! # Destination row cache
//!
//! A node's *destination row* is what one round draws its multinomials
//! from: the neighbors `j` that pass the migration condition of the
//! loosest class present on the node, in CSR order, each with the joint
//! probability `q_ij = p_ij/deg_i` of a single task. It depends on the
//! node's counts (`W_i`, `ℓ_i`, the loosest present class), on `ℓ_j` of
//! each neighbor, and on the per-run tables — nothing else. The kernel
//! keeps every row in an `O(|E|)` cache aligned with the CSR adjacency
//! (node `i`'s row fills the front of its slots
//! `row_start(i)..row_start(i + 1)`) and prices a row again only when it is
//! *stale*:
//!
//! * on the first round, after a table rebuild (new speeds, `α` or
//!   topology) and on every round of a run with events, every row is;
//! * otherwise the rows of the nodes whose counts the last round changed,
//!   and of their neighbors, are — the merge marks them from the nonzero
//!   deltas.
//!
//! Near equilibrium few counts move per round, so most rows are read as
//! they are. A full rebuild is the same code with every row stale, and a
//! row is priced from the same inputs by the same operations whenever it
//! is, so the draws — and every artifact — are the same as pricing every
//! row every round.
//!
//! # Per-run tables
//!
//! Between rounds of a static run only the loads change, so the kernel
//! keeps what the speeds and the topology fix in two tables
//! (`KernelTables`), `O(n·k)` memory and nothing per edge:
//!
//! * per node, `1/s_i` and the degree `deg_i`;
//! * per (class, node), the threshold `θ_c/s_j` of the migration condition
//!   (one row shared by every class under a class-independent rule).
//!
//! [`CountSim`](crate::engine::count::CountSim) rebuilds them at the only
//! two points that change their inputs: a new speed vector (which also
//! re-resolves `α`) and the churn rebuild of the live topology. A round
//! then tests `ℓ_i − ℓ_j > θ/s_j` by one lookup and prices
//! `p_ij = r·(ℓ_i − ℓ_j) / (α·(1/s_i + 1/s_j)·W_i)` with `r = 1` when
//! `deg_j ≤ deg_i` and `r = deg_i/deg_j` otherwise: the operations, in the
//! order, of [`migration_probability`](crate::protocol::migration_probability)
//! with `d_ij = max(deg_i, deg_j)`, so every probability is bit-identical
//! to it.
//!
//! The round-start node weights and loads come from the caller:
//! `CountSim` keeps them for its current state, so the stop check before a
//! round and the round itself read one snapshot, and refreshes them at the
//! nodes whose counts the last round changed.

use crate::engine::sampling::sample_multinomial_each;
use crate::model::SpeedVector;
use crate::protocol::MigrationRule;
use crate::rng::{rng_for_shard, streams};
use slb_graphs::{Graph, NodeId};
use std::ops::Range;

/// Fixed number of node shards per round. A constant — independent of
/// `--threads` — so the set of RNG streams consumed by a round, and hence
/// every artifact, is identical at any thread count. 64 bounds the useful
/// parallelism of one round.
pub const ROUND_SHARDS: usize = 64;

/// The contiguous node range owned by `shard` out of [`ROUND_SHARDS`] over
/// `n` nodes: `[s·n/S, (s+1)·n/S)`. Ranges partition `[0, n)` exactly;
/// when `n < ROUND_SHARDS` each node has a shard of its own and the other
/// shards are empty.
pub fn shard_range(shard: usize, n: usize) -> Range<usize> {
    debug_assert!(shard < ROUND_SHARDS);
    shard_start(shard, n)..shard_start(shard + 1, n)
}

/// The first node of `shard` over `n` nodes (`n` for `shard = S`).
fn shard_start(shard: usize, n: usize) -> usize {
    shard * n / ROUND_SHARDS
}

/// The shards of block `block` out of `blocks` over `n` nodes: the blocks
/// are contiguous runs that partition `0..ROUND_SHARDS` in order and deal
/// the `u = min(n, S)` units that own nodes — the shards when `n ≥ S`,
/// else the nodes, one per non-empty shard — out evenly. Block `b` starts
/// at unit `⌊b·u/blocks⌋`, i.e. at shard `⌈⌊b·u/blocks⌋·S/u⌉`, the first
/// shard whose range starts there; with `blocks ≤ u` every block owns a
/// node.
fn block_shards(block: usize, blocks: usize, n: usize) -> Range<usize> {
    let units = n.clamp(1, ROUND_SHARDS);
    let first = |b: usize| (b * units / blocks * ROUND_SHARDS).div_ceil(units);
    first(block)..first(block + 1)
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

/// What the kernel reads of one node besides its load: `1/s_i` and
/// `deg_i` (as `f64`, the form the probability divides by).
#[derive(Debug, Clone, Copy, PartialEq)]
struct NodeEntry {
    inv_speed: f64,
    degree: f64,
}

/// The per-run tables of the kernel (see the module docs): everything a
/// round reads that only the speeds, `α` and the topology determine.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct KernelTables {
    /// `α`, resolved against the speeds.
    alpha: f64,
    /// Whether the rule's threshold depends on the class.
    class_dependent: bool,
    /// `θ(w_c)` per class.
    class_thresholds: Vec<f64>,
    /// `1/s_i` and `deg_i` per node.
    nodes: Vec<NodeEntry>,
    /// `θ_c/s_j`, class-major (`[c·n + j]`); one row (class 0) under a
    /// class-independent rule.
    thresholds_over_speed: Vec<f64>,
}

impl KernelTables {
    /// Fills the tables for `graph`, `speeds`, `α` and `rule` over the
    /// classes of `class_weights`, reusing the buffers.
    fn rebuild(
        &mut self,
        graph: &Graph,
        speeds: &SpeedVector,
        alpha: f64,
        rule: MigrationRule,
        class_weights: &[f64],
    ) {
        let n = graph.node_count();
        debug_assert_eq!(speeds.len(), n, "one speed per node");
        self.alpha = alpha;
        self.class_dependent = rule.is_class_dependent();
        self.class_thresholds.clear();
        self.class_thresholds
            .extend(class_weights.iter().map(|&w| rule.threshold(w)));
        self.nodes.clear();
        self.nodes.extend(
            speeds
                .as_slice()
                .iter()
                .enumerate()
                .map(|(v, &s)| NodeEntry {
                    inv_speed: 1.0 / s,
                    degree: graph.degree(NodeId(v)) as f64,
                }),
        );
        let rows = if self.class_dependent {
            &self.class_thresholds[..]
        } else {
            &self.class_thresholds[..1]
        };
        self.thresholds_over_speed.clear();
        for &theta in rows {
            self.thresholds_over_speed
                .extend(speeds.as_slice().iter().map(|&s| theta / s));
        }
    }

    /// The tables of `graph`, `speeds`, `α` and `rule`.
    pub(crate) fn build(
        graph: &Graph,
        speeds: &SpeedVector,
        alpha: f64,
        rule: MigrationRule,
        class_weights: &[f64],
    ) -> Self {
        let mut tables = KernelTables::default();
        tables.rebuild(graph, speeds, alpha, rule, class_weights);
        tables
    }

    /// The `θ_c/s_j` row of class `class` (`0` under a class-independent
    /// rule).
    fn threshold_row(&self, class: usize) -> &[f64] {
        let n = self.nodes.len();
        &self.thresholds_over_speed[class * n..(class + 1) * n]
    }

    /// `p_ij` for a load gap `ℓ_i − ℓ_j > 0` out of a node of weight
    /// `W_i > 0`: the value [`migration_probability`](crate::protocol::migration_probability)
    /// returns, bit for bit (see the module docs).
    #[inline]
    fn probability(&self, i: NodeEntry, j: NodeEntry, gap: f64, node_weight_i: f64) -> f64 {
        let r = if j.degree <= i.degree {
            1.0
        } else {
            i.degree / j.degree
        };
        r * gap / (self.alpha * (i.inv_speed + j.inv_speed) * node_weight_i)
    }
}

/// Marks a cached destination row that must be priced again before a round
/// reads it (see [`RowCache`]).
const STALE: u32 = u32::MAX;

/// The destination row of every node, as the round that last priced it
/// left it (see the module docs): the neighbors `j` that pass the gate of
/// the node's loosest present class, in CSR order, each with
/// `q_ij = p_ij/deg_i`. Node `i`'s row fills the first `len[i]` of its
/// CSR slots `row_start(i)..row_start(i + 1)`, so the arrays split into
/// one contiguous piece per shard, like the delta buffer.
#[derive(Debug)]
struct RowCache {
    /// Destination `j` per CSR slot.
    dest: Vec<u32>,
    /// `q_ij` per CSR slot.
    prob: Vec<f64>,
    /// Row length per node, or [`STALE`].
    len: Vec<u32>,
}

impl RowCache {
    /// A cache for `graph` with every row stale. The slots start as
    /// untouched zeroed memory: a node's slots are written only when its
    /// row is first priced.
    fn new(graph: &Graph) -> Self {
        RowCache {
            dest: vec![0; graph.degree_sum()],
            prob: vec![0.0; graph.degree_sum()],
            len: vec![STALE; graph.node_count()],
        }
    }

    /// Sizes the cache for `graph` and marks every row stale.
    fn reset(&mut self, graph: &Graph) {
        self.dest.resize(graph.degree_sum(), 0);
        self.prob.resize(graph.degree_sum(), 0.0);
        self.len.clear();
        self.len.resize(graph.node_count(), STALE);
    }
}

/// Reusable per-block scratch: the per-class filtered view, the spill of
/// deltas leaving the block, and the block's totals. One per worker, so
/// workers never share mutable state.
#[derive(Debug, Default)]
struct BlockScratch {
    /// Per-class filtered destination view (tighter-threshold classes).
    class_dest_nodes: Vec<u32>,
    /// Probabilities of the filtered view.
    class_dest_probs: Vec<f64>,
    /// Count deltas landing outside this block's node range, as
    /// `(flat node·k+class index, delta)`; applied after the join.
    spill: Vec<(u32, i64)>,
    /// Tasks this block moved.
    migrations: u64,
    /// Whether this block called [`sample_multinomial_each`] this round.
    drew: bool,
}

/// The count engine's round kernel: the per-run tables, the destination
/// row cache and the reusable per-round scratch. One instance lives inside
/// each simulator; all buffers are cleared and refilled in place, so a
/// steady-state round on one worker allocates nothing (a round on more
/// workers allocates their batches and spawns their threads).
#[derive(Debug)]
pub(crate) struct CountKernel {
    tables: KernelTables,
    rows: RowCache,
    /// Count deltas of the committing round (node-major, `k` per node),
    /// split into disjoint per-block slices during the parallel section;
    /// all zero between rounds (the merge zeroes what it commits).
    delta: Vec<i64>,
    /// Migrated weight per shard, summed in shard order by the merge.
    shard_weights: [f64; ROUND_SHARDS],
    /// One scratch per worker (as many as the widest round used).
    blocks: Vec<BlockScratch>,
    /// The nodes whose counts the last round changed, ascending.
    changed: Vec<u32>,
    /// Whether the last round called [`sample_multinomial_each`] at all. A
    /// round without a call drew nothing and moved nothing, so on the same
    /// instance every later round is the same no-op.
    drew: bool,
}

impl CountKernel {
    /// A kernel whose tables hold `graph`, `speeds`, `α` and `rule` over
    /// the classes of `class_weights`, with every destination row stale
    /// (scratch buffers grow to steady-state sizes on first use).
    pub(crate) fn new(
        graph: &Graph,
        speeds: &SpeedVector,
        alpha: f64,
        rule: MigrationRule,
        class_weights: &[f64],
    ) -> Self {
        CountKernel {
            tables: KernelTables::build(graph, speeds, alpha, rule, class_weights),
            rows: RowCache::new(graph),
            delta: Vec::new(),
            shard_weights: [0.0; ROUND_SHARDS],
            blocks: Vec::new(),
            // Room for every node: a round never grows it.
            changed: Vec::with_capacity(graph.node_count()),
            drew: false,
        }
    }

    /// Rebuilds the per-run tables for new speeds, `α` or topology, and
    /// marks every destination row stale (each row reads the tables).
    pub(crate) fn rebuild_tables(
        &mut self,
        graph: &Graph,
        speeds: &SpeedVector,
        alpha: f64,
        rule: MigrationRule,
        class_weights: &[f64],
    ) {
        self.tables
            .rebuild(graph, speeds, alpha, rule, class_weights);
        self.rows.reset(graph);
    }

    /// Marks every destination row stale: the counts or loads changed
    /// other than by the kernel's own merge.
    pub(crate) fn invalidate_rows(&mut self) {
        self.rows.len.fill(STALE);
    }

    /// The per-run tables.
    #[cfg(test)]
    pub(crate) fn tables(&self) -> &KernelTables {
        &self.tables
    }

    /// The nodes whose cached destination row is not stale yet differs
    /// from a row priced from scratch against the given round-start state
    /// (empty while the cache is current).
    #[cfg(test)]
    pub(crate) fn outdated_rows(
        &self,
        graph: &Graph,
        node_weights: &[f64],
        loads: &[f64],
        class_weights: &[f64],
        counts: &[u64],
    ) -> Vec<usize> {
        let inputs = RoundInputs {
            graph,
            tables: &self.tables,
            class_weights,
            node_weights,
            loads,
            counts,
            seed: 0,
            round: 0,
        };
        let mut dest = vec![0u32; graph.max_degree()];
        let mut prob = vec![0.0; graph.max_degree()];
        (0..graph.node_count())
            .filter(|&v| {
                let len = self.rows.len[v];
                if len == STALE {
                    return false;
                }
                let fresh = if self.tables.class_dependent {
                    price_row::<true>(&inputs, v, &mut dest, &mut prob)
                } else {
                    price_row::<false>(&inputs, v, &mut dest, &mut prob)
                };
                let slots = graph.row_start(v)..graph.row_start(v) + len as usize;
                let fresh = fresh as usize;
                len as usize != fresh
                    || self.rows.dest[slots.clone()] != dest[..fresh]
                    || self.rows.prob[slots]
                        .iter()
                        .zip(&prob[..fresh])
                        .any(|(a, b)| a.to_bits() != b.to_bits())
            })
            .collect()
    }

    /// Executes one synchronous round over node-major per-class `counts`
    /// (`counts[node·k + class]` tasks of weight `class_weights[class]`),
    /// committing all migrations simultaneously against the round-start
    /// snapshot `node_weights` / `loads` of those counts. Randomness is
    /// drawn from the per-shard streams of `(seed, round)`; `threads` caps
    /// the worker fan-out (one block of shards per worker) and has **no**
    /// effect on the result.
    ///
    /// Only stale destination rows are priced; the others are read from
    /// the cache. After the merge the rows of every node whose counts
    /// changed, and of its neighbors, are stale ([`CountKernel::changed`]
    /// lists the former).
    ///
    /// `graph` must be the topology the tables were last built on: under
    /// churn the count engine feeds a remapped graph through the *same*
    /// kernel (and the same scratch buffers).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn step(
        &mut self,
        graph: &Graph,
        node_weights: &[f64],
        loads: &[f64],
        class_weights: &[f64],
        counts: &mut [u64],
        seed: u64,
        round: u64,
        threads: usize,
    ) -> StepTotals {
        let k = class_weights.len();
        let n = graph.node_count();
        debug_assert_eq!(counts.len(), n * k, "node-major counts, k per node");
        debug_assert_eq!(self.tables.nodes.len(), n, "tables of this graph");
        debug_assert_eq!(self.rows.len.len(), n, "row cache of this graph");
        debug_assert_eq!(self.tables.class_thresholds.len(), k, "one θ per class");
        debug_assert!(node_weights.len() == n && loads.len() == n, "snapshot");
        assert!(
            n * k <= u32::MAX as usize,
            "flat (node, class) index must fit the u32 spill encoding"
        );
        self.delta.resize(counts.len(), 0);
        // `min(n, ROUND_SHARDS)` shards own a node.
        let workers = threads.clamp(1, n.clamp(1, ROUND_SHARDS));
        if self.blocks.len() < workers {
            self.blocks.resize_with(workers, BlockScratch::default);
        }

        let inputs = RoundInputs {
            graph,
            tables: &self.tables,
            class_weights,
            node_weights,
            loads,
            counts,
            seed,
            round,
        };
        // The rule picks the block loop's instantiation once per round, so
        // the per-node loop never branches on it.
        let run = if self.tables.class_dependent {
            run_block::<true>
        } else {
            run_block::<false>
        };
        let jobs = block_jobs(
            graph,
            k,
            &mut self.delta,
            &mut self.rows,
            &mut self.shard_weights,
            &mut self.blocks[..workers],
        );
        if workers == 1 {
            // The one block runs on the calling thread: a scope would
            // allocate.
            for job in jobs {
                run(&inputs, job);
            }
        } else {
            // Which worker runs a block affects only scheduling: every
            // shard's draws come from its own stream and land in its
            // block's buffers, so the result is worker-invariant.
            let inputs = &inputs;
            std::thread::scope(|scope| {
                for job in jobs {
                    scope.spawn(move || run(inputs, job));
                }
            });
        }

        // Deterministic merge. Integer deltas and counts commute; the f64
        // weight total is the one order-sensitive reduction, so it sums
        // the per-shard totals in shard order, whatever the blocks.
        let mut totals = StepTotals::default();
        self.drew = false;
        for scratch in &self.blocks[..workers] {
            for &(idx, d) in &scratch.spill {
                self.delta[idx as usize] += d;
            }
            totals.migrations += scratch.migrations;
            self.drew |= scratch.drew;
        }
        for &weight in &self.shard_weights {
            totals.migrated_weight += weight;
        }
        // The nodes with a nonzero delta have their deltas committed and
        // zeroed for the next round. A node whose counts moved changes its
        // own row's inputs and the load its neighbors' rows read, so all
        // of those rows go stale.
        // Every node is pushed and the unchanged ones popped again, so the
        // scan takes no branch per node (`changed` has room for all).
        self.changed.clear();
        // Node ids fit a u32: round entry asserts n·k ≤ u32::MAX.
        for (v, deltas) in (0..).zip(self.delta.chunks_exact(k)) {
            self.changed.push(v);
            let unchanged = deltas.iter().fold(0, |any, &d| any | d) == 0;
            self.changed
                .truncate(self.changed.len() - usize::from(unchanged));
        }
        for &v in &self.changed {
            let v = v as usize;
            let rows = v * k..(v + 1) * k;
            for (count, d) in counts[rows.clone()].iter_mut().zip(&mut self.delta[rows]) {
                let updated = *count as i64 + *d;
                debug_assert!(updated >= 0, "negative count after round");
                *count = updated as u64;
                *d = 0;
            }
            self.rows.len[v] = STALE;
            for &j in graph.neighbors(NodeId(v)) {
                self.rows.len[j.index()] = STALE;
            }
        }
        totals
    }

    /// The nodes whose counts the last [`CountKernel::step`] changed, in
    /// ascending order (empty before the first round).
    pub(crate) fn changed(&self) -> &[u32] {
        &self.changed
    }

    /// Whether the last [`CountKernel::step`] called
    /// [`sample_multinomial_each`] at all (`false` before the first round).
    pub(crate) fn drew(&self) -> bool {
        self.drew
    }
}

/// The read-only inputs every block of one round shares: the instance's
/// tables, the round-start snapshot and the round's stream key.
struct RoundInputs<'r> {
    graph: &'r Graph,
    tables: &'r KernelTables,
    class_weights: &'r [f64],
    node_weights: &'r [f64],
    loads: &'r [f64],
    counts: &'r [u64],
    seed: u64,
    round: u64,
}

/// One worker's share of a round: a contiguous run of shards, its node
/// range, its disjoint pieces of the delta buffer, of the row cache and of
/// the per-shard weights, and its scratch block.
struct BlockJob<'a> {
    shards: Range<usize>,
    nodes: Range<usize>,
    /// Delta rows of the node range (`k` per node, relative to
    /// `nodes.start`).
    delta: &'a mut [i64],
    /// Row lengths of the node range.
    row_len: &'a mut [u32],
    /// CSR slots of the node range (relative to `row_start(nodes.start)`).
    row_dest: &'a mut [u32],
    row_prob: &'a mut [f64],
    /// Migrated weight of each shard of the run.
    shard_weights: &'a mut [f64],
    scratch: &'a mut BlockScratch,
}

/// Carves the round's buffers into one [`BlockJob`] per entry of `blocks`,
/// in shard order ([`block_shards`]). The blocks' node ranges partition
/// `[0, n)` in order, so each block's delta rows, row lengths and CSR
/// slots are one contiguous, disjoint piece of each buffer (zero
/// contention, no atomics).
fn block_jobs<'a>(
    graph: &'a Graph,
    k: usize,
    mut delta: &'a mut [i64],
    rows: &'a mut RowCache,
    mut shard_weights: &'a mut [f64],
    blocks: &'a mut [BlockScratch],
) -> impl Iterator<Item = BlockJob<'a>> {
    let n = graph.node_count();
    let count = blocks.len();
    let (mut len, mut dest, mut prob) = (&mut rows.len[..], &mut rows.dest[..], &mut rows.prob[..]);
    blocks.iter_mut().enumerate().map(move |(block, scratch)| {
        let shards = block_shards(block, count, n);
        let nodes = shard_start(shards.start, n)..shard_start(shards.end, n);
        let slots = graph.row_start(nodes.end) - graph.row_start(nodes.start);
        BlockJob {
            delta: take_front(&mut delta, nodes.len() * k),
            row_len: take_front(&mut len, nodes.len()),
            row_dest: take_front(&mut dest, slots),
            row_prob: take_front(&mut prob, slots),
            shard_weights: take_front(&mut shard_weights, shards.len()),
            shards,
            nodes,
            scratch,
        }
    })
}

/// Splits the first `len` items off `rest`.
fn take_front<'a, T>(rest: &mut &'a mut [T], len: usize) -> &'a mut [T] {
    let (front, tail) = std::mem::take(rest).split_at_mut(len);
    *rest = tail;
    front
}

/// The loosest class present in a node's count row and its threshold `θ`:
/// the gate of the node's destination row. Class-independent rules
/// constant-fold the scan away (every class shares the one threshold).
#[inline]
fn loosest_class<const CLASS_DEPENDENT: bool>(
    counts: &[u64],
    class_thresholds: &[f64],
) -> (usize, f64) {
    if !CLASS_DEPENDENT {
        return (0, class_thresholds[0]);
    }
    let (mut loosest, mut min_thr) = (0, f64::INFINITY);
    for (c, (&count, &thr)) in counts.iter().zip(class_thresholds).enumerate() {
        if count > 0 && thr < min_thr {
            (loosest, min_thr) = (c, thr);
        }
    }
    (loosest, min_thr)
}

/// Prices node `ii`'s destination row against the round-start snapshot
/// into the front of `dest`/`prob` (at least `deg_i` long) and returns its
/// length: 0 for an empty node. The loosest condition any class present
/// on the node can satisfy gates the (CSR-contiguous) neighbor scan, so
/// edges failing it for every present class never price a probability.
#[inline]
fn price_row<const CLASS_DEPENDENT: bool>(
    inputs: &RoundInputs<'_>,
    ii: usize,
    dest: &mut [u32],
    prob: &mut [f64],
) -> u32 {
    let RoundInputs {
        graph,
        tables,
        class_weights,
        node_weights,
        loads,
        counts,
        ..
    } = *inputs;
    let w_i = node_weights[ii];
    if w_i <= 0.0 {
        return 0;
    }
    let k = class_weights.len();
    let (loosest, _) =
        loosest_class::<CLASS_DEPENDENT>(&counts[ii * k..(ii + 1) * k], &tables.class_thresholds);
    let gate = tables.threshold_row(loosest);
    let node_i = tables.nodes[ii];
    let load_i = loads[ii];
    let mut len = 0u32;
    for &j in graph.neighbors(NodeId(ii)) {
        let jj = j.index();
        // `gate[jj] = θ/s_j ≥ 0`, so a passing gap is positive.
        let gap = load_i - loads[jj];
        if gap <= gate[jj] {
            continue;
        }
        let p_ij = tables.probability(node_i, tables.nodes[jj], gap, w_i);
        // Joint destination probability of a single task.
        let q = p_ij / node_i.degree;
        if q > 0.0 {
            // Lossless: round entry asserts n·k ≤ u32::MAX.
            #[allow(clippy::cast_possible_truncation)]
            let jj = jj as u32;
            dest[len as usize] = jj;
            prob[len as usize] = q;
            len += 1;
        }
    }
    len
}

/// Draws one block's multinomials against the round-start snapshot,
/// pricing the block's stale destination rows first. The block's nodes are
/// walked once, shard by shard; each shard draws from its own
/// `(seed, round, shard)` stream, so the caller's grouping of shards into
/// blocks and its scheduling cannot change the draws. Each destination's
/// count goes straight into the job's delta slice, or into the spill when
/// it lands outside the block. `CLASS_DEPENDENT` is
/// [`MigrationRule::is_class_dependent`] of the round's rule; `false`
/// constant-folds away the per-node loosest-threshold scan and the
/// per-class destination filtering (every class shares one row).
fn run_block<const CLASS_DEPENDENT: bool>(inputs: &RoundInputs<'_>, job: BlockJob<'_>) {
    let RoundInputs {
        graph,
        tables,
        class_weights,
        loads,
        counts,
        seed,
        round,
        ..
    } = *inputs;
    let BlockJob {
        shards,
        nodes,
        delta,
        row_len,
        row_dest,
        row_prob,
        shard_weights,
        scratch,
    } = job;
    let BlockScratch {
        class_dest_nodes,
        class_dest_probs,
        spill,
        migrations,
        drew,
    } = scratch;
    let n = graph.node_count();
    let k = class_weights.len();
    let class_thresholds = &tables.class_thresholds[..];
    let base = nodes.start;
    let slot_base = graph.row_start(base);
    spill.clear();
    *migrations = 0;
    *drew = false;
    for (shard, weight) in shards.zip(shard_weights.iter_mut()) {
        *weight = 0.0;
        // Seeded on the shard's first draw: a shard that draws nothing
        // (most of them near equilibrium) never needs its stream.
        let mut rng = None;
        for ii in shard_range(shard, n) {
            let len = &mut row_len[ii - base];
            if *len == 0 {
                continue;
            }
            let start = graph.row_start(ii) - slot_base;
            if *len == STALE {
                let slots = start..graph.row_start(ii + 1) - slot_base;
                *len = price_row::<CLASS_DEPENDENT>(
                    inputs,
                    ii,
                    &mut row_dest[slots.clone()],
                    &mut row_prob[slots],
                );
                if *len == 0 {
                    continue;
                }
            }
            let row = start..start + *len as usize;
            let (dest, prob) = (&row_dest[row.clone()], &row_prob[row]);
            let load_i = loads[ii];
            let node_counts = &counts[ii * k..(ii + 1) * k];
            let (_, min_thr) = loosest_class::<CLASS_DEPENDENT>(node_counts, class_thresholds);
            for (c, &count) in node_counts.iter().enumerate() {
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
                let (dests, probs): (&[u32], &[f64]) = if !CLASS_DEPENDENT || thr == min_thr {
                    (dest, prob)
                } else {
                    let gate = tables.threshold_row(c);
                    class_dest_nodes.clear();
                    class_dest_probs.clear();
                    for (&jj, &q) in dest.iter().zip(prob) {
                        if load_i - loads[jj as usize] > gate[jj as usize] {
                            class_dest_nodes.push(jj);
                            class_dest_probs.push(q);
                        }
                    }
                    (class_dest_nodes, class_dest_probs)
                };
                if dests.is_empty() {
                    continue;
                }
                *drew = true;
                let rng = rng.get_or_insert_with(|| {
                    rng_for_shard(seed, round, streams::round::KERNEL, shard as u64)
                });
                let moved_total = sample_multinomial_each(count, probs, rng, |d, moved| {
                    let jj = dests[d] as usize;
                    if nodes.contains(&jj) {
                        delta[(jj - base) * k + c] += moved as i64;
                    } else {
                        // Lossless: round entry asserts n·k ≤ u32::MAX.
                        #[allow(clippy::cast_possible_truncation)]
                        spill.push(((jj * k + c) as u32, moved as i64));
                    }
                });
                if moved_total > 0 {
                    delta[(ii - base) * k + c] -= moved_total as i64;
                    *migrations += moved_total;
                    *weight += moved_total as f64 * class_weights[c];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_loop, StopCondition, StopReason};
    use crate::equilibrium::Threshold;
    use crate::protocol::{migration_probability, Alpha};
    use slb_graphs::generators;
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
    fn table_probability_is_bit_identical_to_migration_probability() {
        // Star and path degrees (every edge joins unequal degrees on the
        // star, both orders on the path), speeds from 10⁻³ to 10³, each
        // form of α, and gaps and node weights across magnitudes.
        let grid = [1e-3, 0.25, 1.0, 3.5, 1e3, 0.007, 42.0, 2.0, 999.0];
        for graph in [generators::star(9), generators::path(8)] {
            let n = graph.node_count();
            for shift in 0..grid.len() {
                let speeds: Vec<f64> = (0..n).map(|v| grid[(v + shift) % grid.len()]).collect();
                let speeds = SpeedVector::with_granularity(speeds, 1e-3).unwrap();
                let s_max = speeds.max();
                for alpha in [Alpha::Approximate, Alpha::Exact, Alpha::Custom(7.3 * s_max)] {
                    let alpha = alpha.resolve(&speeds);
                    let tables =
                        KernelTables::build(&graph, &speeds, alpha, MigrationRule::Relaxed, &[1.0]);
                    for &(a, b) in graph.edges() {
                        for (i, j) in [(a, b), (b, a)] {
                            let (s_i, s_j) = (speeds.speed(i.index()), speeds.speed(j.index()));
                            for w_i in [1e-9, 0.3, 1.0, 17.0, 1e4, 1e12] {
                                for frac in [1e-15, 1e-6, 0.01, 0.5, 0.999, 1.0] {
                                    // ℓ_j ≥ 0, so the gap is at most ℓ_i.
                                    let load_i = w_i / s_i;
                                    let load_j = load_i * (1.0 - frac);
                                    let gap = load_i - load_j;
                                    let expected = migration_probability(
                                        graph.degree(i),
                                        graph.d_max_endpoint(i, j),
                                        load_i,
                                        load_j,
                                        s_i,
                                        s_j,
                                        w_i,
                                        alpha,
                                    );
                                    let got = tables.probability(
                                        tables.nodes[i.index()],
                                        tables.nodes[j.index()],
                                        gap,
                                        w_i,
                                    );
                                    assert_eq!(
                                        got.to_bits(),
                                        expected.to_bits(),
                                        "{i:?}→{j:?} s=({s_i}, {s_j}) α={alpha} W={w_i} gap={gap}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn tables_hold_speeds_degrees_and_thresholds() {
        let graph = generators::star(4);
        let speeds = SpeedVector::new(vec![2.0, 0.5, 1.0, 4.0]).unwrap();
        let classes = [0.25, 1.0];
        let own = KernelTables::build(&graph, &speeds, 16.0, MigrationRule::OwnWeight, &classes);
        let inv: Vec<f64> = own.nodes.iter().map(|e| e.inv_speed).collect();
        let deg: Vec<f64> = own.nodes.iter().map(|e| e.degree).collect();
        assert_eq!(inv, [0.5, 2.0, 1.0, 0.25]);
        assert_eq!(deg, [3.0, 1.0, 1.0, 1.0]);
        assert_eq!(own.threshold_row(0), [0.125, 0.5, 0.25, 0.0625]);
        assert_eq!(own.threshold_row(1), [0.5, 2.0, 1.0, 0.25]);
        // A class-independent rule keeps one row.
        let relaxed = KernelTables::build(&graph, &speeds, 16.0, MigrationRule::Relaxed, &classes);
        assert_eq!(relaxed.thresholds_over_speed, [0.5, 2.0, 1.0, 0.25]);
        assert_eq!(relaxed.class_thresholds, [1.0, 1.0]);
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

    #[test]
    fn blocks_partition_the_shards_and_each_owns_a_node() {
        // Every fan-out the kernel can pick (`1..=min(n, S)` workers).
        for n in (0..=200).chain([255, 256, 257, 1000, 4097, 1 << 20]) {
            for blocks in 1..=n.clamp(1, ROUND_SHARDS) {
                let mut next = 0;
                for block in 0..blocks {
                    let shards = block_shards(block, blocks, n);
                    assert_eq!(shards.start, next, "n={n} blocks={blocks} block={block}");
                    next = shards.end;
                    let nodes = shard_start(shards.start, n)..shard_start(shards.end, n);
                    assert!(
                        n == 0 || !nodes.is_empty(),
                        "n={n} blocks={blocks}: block {block} owns no node"
                    );
                }
                assert_eq!(next, ROUND_SHARDS, "n={n} blocks={blocks}");
            }
        }
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
