//! Pluggable routing policies for the service harness.
//!
//! A [`RoutePolicy`] decides, per job, which backend executes it. The
//! paper's protocols ([`PolicyKind::Alg1`], [`PolicyKind::Alg2`],
//! [`PolicyKind::Bhs`]) are *selfish*: the job lands on a uniformly
//! random entry node and performs one migration step of the count
//! kernel's rule — sample a neighbor, check the threshold condition
//! `ℓ_i − ℓ_j > θ/s_j` ([`MigrationRule`]), and move with the damped
//! probability `p_ij` ([`migration_probability`]). The practical
//! baselines (round-robin, greedy least-loaded, bandwidth softmax) see
//! the whole backend array, the way a fronting load balancer would.
//!
//! # Degraded signals
//!
//! Policies never touch live state: they read [`LoadSignal`] snapshots,
//! which in fresh mode mirror the live state exactly and under
//! `signal=stale:D+loss:P` are stale and partially missing (see
//! [`crate::faults`]). Every policy follows the same degradation
//! contract: backends whose signal is not `present` are skipped, and
//! when *no* backend is present the policy falls back to a uniform draw
//! ([`NodeView::uniform_known_live`]). The harness double-checks the
//! ground truth — routing to a backend that is actually dead costs a
//! retry, never a lost job.

use crate::faults::{LoadSignal, SignalBoard, Stored};
use rand::rngs::StdRng;
use rand::Rng;
use slb_core::model::SpeedVector;
use slb_core::protocol::{migration_probability, Alpha, MigrationRule};
use slb_graphs::Graph;
use slb_workloads::sweep::SweepParseError;

/// Read-only view of the backend state a policy may consult: one
/// [`LoadSignal`] snapshot per backend, materialized lazily by
/// [`signal`](NodeView::signal) (see the degradation contract in the
/// module docs).
///
/// In fresh mode (`NodeView::live`) each snapshot is read straight
/// from the live arrays at the accessed index — a routing decision only
/// pays for the backends it looks at, exactly like the
/// perfect-information harness. In stale mode (`NodeView::snapshots`)
/// the view replays the signal board's stored probes, computing each
/// signal's age at read time. The stored snapshots change only at probe
/// events, so a stale view also carries the board's probe count:
/// policies that scan every backend memoise the scan per probe count.
///
/// Loads come in two currencies: a signal's `value` (outstanding weight
/// observed at the probe — the serve analogue of the kernel's count
/// state) and [`backlog_units`](NodeView::backlog_units) (observed time
/// until the backend drains).
pub struct NodeView<'a> {
    /// The peer topology the selfish policies walk.
    pub graph: &'a Graph,
    /// Backend speeds.
    pub speeds: &'a SpeedVector,
    /// The current virtual time in ticks.
    pub now: u64,
    /// Ticks per unit of virtual time.
    pub ticks_per_unit: u64,
    signals: SignalsRef<'a>,
}

/// Where a view's snapshots come from.
enum SignalsRef<'a> {
    /// Fresh mode: the live state, read per accessed index.
    Live {
        outstanding: &'a [f64],
        free_at: &'a [u64],
        up: &'a [bool],
        /// O(1) "no backend is down" flag maintained by the fault
        /// schedule, so undegraded fast paths need not scan `up`.
        all_up: bool,
    },
    /// Stale mode: the signal board's stored probes.
    Stored {
        stored: &'a [Stored],
        /// Probe events applied to the board so far.
        probes: u64,
        /// Ascending indices of the present backends.
        present: &'a [usize],
    },
}

impl<'a> NodeView<'a> {
    /// Fresh-mode view over the live state (ages are zero, presence
    /// mirrors liveness).
    pub(crate) fn live(
        graph: &'a Graph,
        speeds: &'a SpeedVector,
        now: u64,
        outstanding: &'a [f64],
        free_at: &'a [u64],
        up: &'a [bool],
        all_up: bool,
    ) -> Self {
        debug_assert_eq!(all_up, up.iter().all(|&u| u));
        NodeView {
            graph,
            speeds,
            now,
            ticks_per_unit: crate::TICKS_PER_UNIT,
            signals: SignalsRef::Live {
                outstanding,
                free_at,
                up,
                all_up,
            },
        }
    }

    /// Stale-mode view replaying the signal board's stored probes.
    pub(crate) fn snapshots(
        graph: &'a Graph,
        speeds: &'a SpeedVector,
        now: u64,
        board: &'a SignalBoard,
    ) -> Self {
        NodeView {
            graph,
            speeds,
            now,
            ticks_per_unit: crate::TICKS_PER_UNIT,
            signals: SignalsRef::Stored {
                stored: board.stored(),
                probes: board.probes(),
                present: board.present(),
            },
        }
    }

    /// Number of backends.
    pub fn len(&self) -> usize {
        match self.signals {
            SignalsRef::Live { outstanding, .. } => outstanding.len(),
            SignalsRef::Stored { stored, .. } => stored.len(),
        }
    }

    /// Whether the system has no backends (never true in a run).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The [`LoadSignal`] snapshot for backend `b`, constructed on
    /// demand from whichever source backs the view.
    pub fn signal(&self, b: usize) -> LoadSignal {
        match self.signals {
            SignalsRef::Live {
                outstanding,
                free_at,
                up,
                ..
            } => LoadSignal {
                value: outstanding[b],
                backlog_ticks: free_at[b].saturating_sub(self.now),
                age_ticks: 0,
                present: up[b],
            },
            SignalsRef::Stored { stored, .. } => {
                let s = stored[b];
                LoadSignal {
                    value: s.value,
                    backlog_ticks: s.backlog_ticks,
                    age_ticks: self.now - s.probe_tick,
                    present: s.present,
                }
            }
        }
    }

    /// Backend `b`'s observed outstanding weight (the hot-path subset of
    /// [`signal`](NodeView::signal) — skips assembling the full snapshot).
    pub fn value(&self, b: usize) -> f64 {
        match self.signals {
            SignalsRef::Live { outstanding, .. } => outstanding[b],
            SignalsRef::Stored { stored, .. } => stored[b].value,
        }
    }

    /// Whether backend `b`'s snapshot reports it alive (the hot-path
    /// subset of [`signal`](NodeView::signal)).
    pub fn present(&self, b: usize) -> bool {
        match self.signals {
            SignalsRef::Live { up, .. } => up[b],
            SignalsRef::Stored { stored, .. } => stored[b].present,
        }
    }

    /// Whether every backend's snapshot reports it alive. O(1) in both
    /// modes: the fault schedule maintains the fresh-mode flag, and the
    /// signal board the stale-mode present list. Policies use it to take
    /// undegraded fast paths.
    pub fn all_present(&self) -> bool {
        match self.signals {
            SignalsRef::Live { all_up, .. } => all_up,
            SignalsRef::Stored {
                stored, present, ..
            } => present.len() == stored.len(),
        }
    }

    /// The signal board's probe count in stale mode — the snapshots are
    /// constant while it is — or `None` in fresh mode, where they track
    /// live state.
    fn probes(&self) -> Option<u64> {
        match self.signals {
            SignalsRef::Live { .. } => None,
            SignalsRef::Stored { probes, .. } => Some(probes),
        }
    }

    /// Observed time (in units) until backend `b`'s FIFO drains.
    pub fn backlog_units(&self, b: usize) -> f64 {
        self.signal(b).backlog_ticks as f64 / self.ticks_per_unit as f64
    }

    /// The graceful-degradation fallback: a uniform draw over the
    /// known-live (present) backends, or over *all* backends when the
    /// view is empty — a blind guess is still better than dropping the
    /// job, and the harness retries if the guess lands on a dead node.
    pub fn uniform_known_live(&self, coin: &mut StdRng) -> usize {
        // Stale mode indexes the board's present list: the same coin and
        // the same pick as the filtered walk below.
        if let SignalsRef::Stored { present, .. } = self.signals {
            if present.is_empty() {
                return coin.gen_range(0..self.len());
            }
            return present[coin.gen_range(0..present.len())];
        }
        let live = (0..self.len()).filter(|&b| self.present(b)).count();
        if live == 0 {
            return coin.gen_range(0..self.len());
        }
        let pick = coin.gen_range(0..live);
        (0..self.len())
            .filter(|&b| self.present(b))
            .nth(pick)
            .expect("pick is below the live count")
    }
}

/// A routing decision procedure. `entry` is the uniformly random node the
/// job arrived on (drawn from the job's coin by the harness), `weight`
/// the job's weight, and `coin` the job's private policy stream.
pub trait RoutePolicy {
    /// Chooses the backend that executes the job.
    fn route(&mut self, entry: usize, weight: f64, view: &NodeView<'_>, coin: &mut StdRng)
        -> usize;
}

/// The six built-in policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Algorithm 1: selfish one-step migration, speed-blind (loads are
    /// raw outstanding weights, `θ = 1`).
    Alg1,
    /// Algorithm 2: selfish one-step migration, speed-aware (loads are
    /// `W/s`, `θ = 1`).
    Alg2,
    /// The \[6\] (BHS) baseline rule: speed-aware with the job's own
    /// weight as threshold (`θ = w`).
    Bhs,
    /// Cycles through backends regardless of state.
    RoundRobin,
    /// Sends every job to the backend with the smallest time-to-drain.
    GreedyLeastLoaded,
    /// Samples a backend from a softmax over speed-proportional headroom
    /// (autodist-style entropy policy).
    BandwidthSoftmax,
}

impl PolicyKind {
    /// Every policy, in artifact row order.
    pub const ALL: [PolicyKind; 6] = [
        PolicyKind::Alg1,
        PolicyKind::Alg2,
        PolicyKind::Bhs,
        PolicyKind::RoundRobin,
        PolicyKind::GreedyLeastLoaded,
        PolicyKind::BandwidthSoftmax,
    ];

    /// The artifact/CLI label.
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::Alg1 => "alg1",
            PolicyKind::Alg2 => "alg2",
            PolicyKind::Bhs => "bhs",
            PolicyKind::RoundRobin => "round-robin",
            PolicyKind::GreedyLeastLoaded => "greedy-least-loaded",
            PolicyKind::BandwidthSoftmax => "bandwidth-softmax",
        }
    }

    /// Parses a CLI token.
    pub fn parse(token: &str) -> Result<Self, SweepParseError> {
        Self::ALL
            .into_iter()
            .find(|p| p.label() == token)
            .ok_or_else(|| SweepParseError::new(format!("unknown policy `{token}`")))
    }

    /// Builds the policy's decision procedure for a run over `speeds`.
    pub fn instantiate(self, speeds: &SpeedVector) -> Box<dyn RoutePolicy + Send> {
        match self {
            // Algorithm 1 sees a speed-blind world, so its damping uses
            // the unit-speed `α = 4·s_max = 4` of that view.
            PolicyKind::Alg1 => Box::new(Selfish {
                rule: MigrationRule::Relaxed,
                speed_blind: true,
                alpha: 4.0,
            }),
            PolicyKind::Alg2 => Box::new(Selfish {
                rule: MigrationRule::Relaxed,
                speed_blind: false,
                alpha: Alpha::Approximate.resolve(speeds),
            }),
            PolicyKind::Bhs => Box::new(Selfish {
                rule: MigrationRule::OwnWeight,
                speed_blind: false,
                alpha: Alpha::Approximate.resolve(speeds),
            }),
            PolicyKind::RoundRobin => Box::new(RoundRobin { next: 0 }),
            PolicyKind::GreedyLeastLoaded => Box::new(GreedyLeastLoaded::default()),
            PolicyKind::BandwidthSoftmax => Box::new(BandwidthSoftmax::default()),
        }
    }
}

/// One migration step of the count kernel's rule, applied at admission:
/// the job stands on its entry node `i` (its weight counted into `W_i`,
/// exactly like a task deciding in the round kernel), samples a uniform
/// neighbor `j` among the known-live ones, and moves iff the threshold
/// condition holds and the `p_ij` coin comes up. A dead entry node falls
/// back to the uniform-over-known-live draw; a live entry whose
/// neighborhood is entirely dead keeps the job.
struct Selfish {
    rule: MigrationRule,
    /// Algorithm 1's view: every speed reads as 1.
    speed_blind: bool,
    alpha: f64,
}

impl RoutePolicy for Selfish {
    fn route(
        &mut self,
        entry: usize,
        weight: f64,
        view: &NodeView<'_>,
        coin: &mut StdRng,
    ) -> usize {
        let i = entry;
        let all_present = view.all_present();
        if !all_present && !view.present(i) {
            return view.uniform_known_live(coin);
        }
        let deg_i = view.graph.degree(i.into());
        if deg_i == 0 {
            return i;
        }
        let neighbors = view.graph.neighbors(i.into());
        // With every backend present the filtered walk degenerates to the
        // undegraded uniform neighbor draw (`live == deg_i`), coin
        // sequence included — index directly instead of scanning.
        let j: usize = if all_present {
            neighbors[coin.gen_range(0..deg_i)].index()
        } else {
            let live = neighbors
                .iter()
                .filter(|&&nb| view.present(nb.index()))
                .count();
            if live == 0 {
                return i;
            }
            let pick = coin.gen_range(0..live);
            neighbors
                .iter()
                .filter(|&&nb| view.present(nb.index()))
                .nth(pick)
                .expect("pick is below the live neighbor count")
                .index()
        };
        let deg_j = view.graph.degree(j.into());
        let d_ij = deg_i.max(deg_j);
        // The deciding job counts into its own node's observed state.
        let w_i = view.value(i) + weight;
        let (s_i, s_j) = if self.speed_blind {
            (1.0, 1.0)
        } else {
            (view.speeds.speed(i), view.speeds.speed(j))
        };
        let (load_i, load_j) = (w_i / s_i, view.value(j) / s_j);
        if load_i - load_j <= self.rule.threshold(weight) / s_j {
            return i;
        }
        let p = migration_probability(deg_i, d_ij, load_i, load_j, s_i, s_j, w_i, self.alpha);
        if coin.gen_range(0.0..1.0) < p {
            j
        } else {
            i
        }
    }
}

/// State-blind cycling dispatcher (it does consult presence: dead
/// backends are skipped, preserving the cycle order over the live set).
struct RoundRobin {
    next: usize,
}

impl RoutePolicy for RoundRobin {
    fn route(
        &mut self,
        _entry: usize,
        _weight: f64,
        view: &NodeView<'_>,
        coin: &mut StdRng,
    ) -> usize {
        let n = view.len();
        for step in 0..n {
            let b = (self.next + step) % n;
            if view.present(b) {
                self.next = (b + 1) % n;
                return b;
            }
        }
        self.next = (self.next + 1) % n;
        view.uniform_known_live(coin)
    }
}

/// Argmin over observed time-to-drain among present backends (ties break
/// to the lowest index).
///
/// A stale view is constant between probes, so the argmin is memoised
/// per probe count: one O(n) walk per probe epoch, O(1) per job.
#[derive(Default)]
struct GreedyLeastLoaded {
    /// The probe count `best` was computed at (`None`: recompute).
    probes: Option<u64>,
    /// The present backend with the least backlog, if any.
    best: Option<usize>,
}

impl RoutePolicy for GreedyLeastLoaded {
    fn route(
        &mut self,
        _entry: usize,
        _weight: f64,
        view: &NodeView<'_>,
        coin: &mut StdRng,
    ) -> usize {
        // Undegraded fast path: the original direct slice scan (same
        // strict-< first-index tie-break as the general walk below).
        if let SignalsRef::Live {
            free_at,
            all_up: true,
            ..
        } = view.signals
        {
            let mut best = 0usize;
            let mut best_backlog = free_at[0].saturating_sub(view.now);
            for (b, &f) in free_at.iter().enumerate().skip(1) {
                let backlog = f.saturating_sub(view.now);
                if backlog < best_backlog {
                    best = b;
                    best_backlog = backlog;
                }
            }
            return best;
        }
        let probes = view.probes();
        if probes.is_none() || probes != self.probes {
            let mut best: Option<(usize, u64)> = None;
            for b in 0..view.len() {
                if !view.present(b) {
                    continue;
                }
                let backlog = view.signal(b).backlog_ticks;
                if best.is_none_or(|(_, held)| backlog < held) {
                    best = Some((b, backlog));
                }
            }
            self.best = best.map(|(b, _)| b);
            self.probes = probes;
        }
        match self.best {
            Some(b) => b,
            None => view.uniform_known_live(coin),
        }
    }
}

/// Softmax over per-backend headroom: the speed-proportional share of the
/// observed outstanding work minus what the backend is observed to hold,
/// over the present backends only. An empty system degenerates to a
/// uniform draw over the live set.
///
/// A stale view is constant between probes, so the cumulative weight
/// table is memoised per probe count: one O(n) pass (n exps) per probe
/// epoch, one O(log n) binary search per job.
#[derive(Default)]
struct BandwidthSoftmax {
    /// The probe count the table was built at (`None`: rebuild).
    probes: Option<u64>,
    /// `(backend, running weight total)` over the present backends, in
    /// ascending backend order; empty when no backend is present.
    cumulative: Vec<(usize, f64)>,
}

impl RoutePolicy for BandwidthSoftmax {
    fn route(
        &mut self,
        _entry: usize,
        _weight: f64,
        view: &NodeView<'_>,
        coin: &mut StdRng,
    ) -> usize {
        let n = view.len();
        // Undegraded fast path: vectorizable slice sum and the cached
        // speed total (both ascending-order sums, so they bit-match the
        // filtered walk below when every backend is present).
        if let SignalsRef::Live {
            outstanding,
            all_up: true,
            ..
        } = view.signals
        {
            let total_work: f64 = outstanding.iter().sum();
            let total_speed = view.speeds.total();
            let headroom =
                |b: usize| total_work * view.speeds.speed(b) / total_speed - outstanding[b];
            let max_h = (0..n).map(headroom).fold(f64::NEG_INFINITY, f64::max);
            let mut cumulative = Vec::with_capacity(n);
            let mut total = 0.0f64;
            for b in 0..n {
                total += (headroom(b) - max_h).exp();
                cumulative.push(total);
            }
            let r = coin.gen_range(0.0..1.0) * total;
            return cumulative.iter().position(|&c| r < c).unwrap_or(n - 1);
        }
        let probes = view.probes();
        if probes.is_none() || probes != self.probes {
            self.cumulative.clear();
            // Both sums run in ascending index order; with every backend
            // present they bit-match the undegraded totals (SpeedVector
            // accumulates its cached total in the same order).
            let total_work: f64 = (0..n)
                .filter(|&b| view.present(b))
                .map(|b| view.signal(b).value)
                .sum();
            let total_speed: f64 = (0..n)
                .filter(|&b| view.present(b))
                .map(|b| view.speeds.speed(b))
                .sum();
            let headroom =
                |b: usize| total_work * view.speeds.speed(b) / total_speed - view.signal(b).value;
            let max_h = (0..n)
                .filter(|&b| view.present(b))
                .map(headroom)
                .fold(f64::NEG_INFINITY, f64::max);
            let mut total = 0.0f64;
            for b in (0..n).filter(|&b| view.present(b)) {
                total += (headroom(b) - max_h).exp();
                self.cumulative.push((b, total));
            }
            self.probes = probes;
        }
        // No present backend leaves the table empty.
        let Some(&(last, total)) = self.cumulative.last() else {
            return view.uniform_known_live(coin);
        };
        let r = coin.gen_range(0.0..1.0) * total;
        // The table is non-decreasing, so the first entry with `r < c`
        // ends the prefix of entries with `c <= r`.
        let i = self.cumulative.partition_point(|&(_, c)| c <= r);
        self.cumulative.get(i).map_or(last, |&(b, _)| b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use slb_graphs::generators::Family;
    use slb_workloads::faults::parse_signal;

    /// Fresh-mode view over live state at `now = 0`: `free_at` is the
    /// observed backlog, ages are zero, `up` is the presence mask.
    fn view_over<'a>(
        graph: &'a Graph,
        speeds: &'a SpeedVector,
        free_at: &'a [u64],
        outstanding: &'a [f64],
        up: &'a [bool],
    ) -> NodeView<'a> {
        let all_up = up.iter().all(|&u| u);
        NodeView::live(graph, speeds, 0, outstanding, free_at, up, all_up)
    }

    #[test]
    fn policy_labels_roundtrip() {
        for kind in PolicyKind::ALL {
            assert_eq!(PolicyKind::parse(kind.label()).expect("roundtrip"), kind);
        }
        assert!(PolicyKind::parse("random").is_err());
    }

    #[test]
    fn policy_parse_rejects_near_misses_with_the_offending_token() {
        for token in ["", "alg3", "ALG1", "alg1 ", "greedy", "round_robin"] {
            let err = PolicyKind::parse(token).expect_err("must reject");
            assert!(
                err.to_string().contains(&format!("`{token}`")),
                "error should name the token: {err}"
            );
        }
    }

    #[test]
    fn round_robin_cycles_and_greedy_picks_the_emptiest() {
        let graph = Family::Ring { n: 4 }.build();
        let speeds = SpeedVector::uniform(4);
        let free_at = [5, 0, 9, 2];
        let outstanding = [1.0, 0.0, 3.0, 1.0];
        let view = view_over(&graph, &speeds, &free_at, &outstanding, &[true; 4]);
        let mut coin = StdRng::seed_from_u64(1);

        let mut rr = PolicyKind::RoundRobin.instantiate(&speeds);
        let picks: Vec<usize> = (0..6).map(|_| rr.route(0, 1.0, &view, &mut coin)).collect();
        assert_eq!(picks, vec![0, 1, 2, 3, 0, 1]);

        let mut greedy = PolicyKind::GreedyLeastLoaded.instantiate(&speeds);
        assert_eq!(greedy.route(3, 1.0, &view, &mut coin), 1);
    }

    #[test]
    fn selfish_stays_on_balanced_nodes_and_only_walks_edges() {
        let graph = Family::Ring { n: 8 }.build();
        let speeds = SpeedVector::uniform(8);
        let view = view_over(&graph, &speeds, &[0u64; 8], &[2.0f64; 8], &[true; 8]);
        for kind in [PolicyKind::Alg1, PolicyKind::Alg2, PolicyKind::Bhs] {
            let mut policy = kind.instantiate(&speeds);
            let mut coin = StdRng::seed_from_u64(9);
            // Balanced loads never satisfy ℓ_i − ℓ_j > θ/s_j: the job stays.
            for entry in 0..8 {
                assert_eq!(policy.route(entry, 1.0, &view, &mut coin), entry);
            }
        }

        // A hot entry node may shed to a neighbor, never further.
        let hot_outstanding = [40.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let hot = view_over(&graph, &speeds, &[0u64; 8], &hot_outstanding, &[true; 8]);
        let mut policy = PolicyKind::Alg2.instantiate(&speeds);
        let mut coin = StdRng::seed_from_u64(3);
        let mut moved = 0;
        for _ in 0..200 {
            let b = policy.route(0, 1.0, &hot, &mut coin);
            assert!([0usize, 1, 7].contains(&b), "left the neighborhood: {b}");
            if b != 0 {
                moved += 1;
            }
        }
        // p_ij ≤ 1/4, but a 40-vs-0 gap keeps it well above 0.
        assert!(moved > 0, "a hot node never shed load");
    }

    #[test]
    fn bhs_threshold_is_tighter_for_light_jobs() {
        // Gap of 0.8 with unit speeds: alg2 (θ = 1) never moves; bhs with
        // a light job (θ = w = 0.1) may.
        let graph = Family::Complete { n: 2 }.build();
        let speeds = SpeedVector::uniform(2);
        let outstanding = [0.7, 0.0];
        let view = view_over(&graph, &speeds, &[0u64; 2], &outstanding, &[true; 2]);

        let mut alg2 = PolicyKind::Alg2.instantiate(&speeds);
        let mut bhs = PolicyKind::Bhs.instantiate(&speeds);
        let mut coin = StdRng::seed_from_u64(5);
        let mut bhs_moved = 0;
        for _ in 0..400 {
            assert_eq!(
                alg2.route(0, 0.1, &view, &mut coin),
                0,
                "θ = 1 blocks this gap"
            );
            if bhs.route(0, 0.1, &view, &mut coin) == 1 {
                bhs_moved += 1;
            }
        }
        assert!(
            bhs_moved > 0,
            "own-weight threshold should admit light jobs"
        );
    }

    #[test]
    fn softmax_prefers_fast_idle_backends() {
        let graph = Family::Complete { n: 3 }.build();
        let speeds = SpeedVector::new(vec![4.0, 1.0, 1.0]).expect("valid speed vector");
        let outstanding = [0.0, 5.0, 0.0];
        let view = view_over(&graph, &speeds, &[0u64; 3], &outstanding, &[true; 3]);
        let mut policy = PolicyKind::BandwidthSoftmax.instantiate(&speeds);
        let mut coin = StdRng::seed_from_u64(11);
        let mut counts = [0usize; 3];
        for _ in 0..600 {
            counts[policy.route(0, 1.0, &view, &mut coin)] += 1;
        }
        // Backend 0 has the largest headroom (fast and idle), backend 1
        // holds all the work and should be avoided.
        assert!(counts[0] > counts[1] && counts[2] > counts[1], "{counts:?}");
    }

    #[test]
    fn every_policy_skips_dead_backends() {
        let graph = Family::Complete { n: 4 }.build();
        let speeds = SpeedVector::uniform(4);
        // Backend 2 is the only live one — and the worst-looking one, so
        // surviving this test requires presence to dominate load.
        let free_at = [0, 0, 50, 0];
        let outstanding = [0.0, 0.0, 50.0, 0.0];
        let up = [false, false, true, false];
        let view = view_over(&graph, &speeds, &free_at, &outstanding, &up);
        for kind in PolicyKind::ALL {
            let mut policy = kind.instantiate(&speeds);
            let mut coin = StdRng::seed_from_u64(13);
            for entry in 0..4 {
                for _ in 0..20 {
                    assert_eq!(
                        policy.route(entry, 1.0, &view, &mut coin),
                        2,
                        "{} routed to a dead backend",
                        kind.label()
                    );
                }
            }
        }
    }

    #[test]
    fn empty_views_degrade_to_a_uniform_guess_over_everything() {
        let graph = Family::Ring { n: 5 }.build();
        let speeds = SpeedVector::uniform(5);
        let view = view_over(&graph, &speeds, &[0u64; 5], &[0.0f64; 5], &[false; 5]);
        for kind in PolicyKind::ALL {
            let mut policy = kind.instantiate(&speeds);
            let mut coin = StdRng::seed_from_u64(17);
            let mut hit = [false; 5];
            for _ in 0..300 {
                hit[policy.route(1, 1.0, &view, &mut coin)] = true;
            }
            assert!(
                hit.iter().all(|&h| h),
                "{} never spread its blind guesses: {hit:?}",
                kind.label()
            );
        }
    }

    /// A lossless stale board over `n` backends.
    fn lossless_board(n: usize) -> SignalBoard {
        let spec = parse_signal("stale:1").expect("valid token");
        SignalBoard::new(spec, 23, n)
    }

    #[test]
    fn stale_views_replay_stored_probes_with_their_age() {
        let graph = Family::Complete { n: 2 }.build();
        let speeds = SpeedVector::uniform(2);
        let mut board = lossless_board(2);
        board.probe(0, 5, &[2.0, 9.0], &[8, 6], &[true, false]);
        let view = NodeView::snapshots(&graph, &speeds, 12, &board);
        let signal = view.signal(0);
        assert_eq!(signal.value, 2.0);
        assert_eq!(signal.backlog_ticks, 3);
        assert_eq!(signal.age_ticks, 7);
        assert!(signal.present);
        assert!(!view.present(1));
        assert!(!view.all_present());
        assert_eq!(view.probes(), Some(1));
    }

    #[test]
    fn memoised_stale_routing_matches_a_fresh_instance_per_decision() {
        // One greedy and one softmax instance ride a sequence of probed
        // boards; a fresh instance never hits a memo, so it is the
        // reference for every decision and for the coin state after it.
        // A fresh instance on a fresh-mode view of the probed state is a
        // second reference; alg1, stateless, rides along so that dead
        // entry nodes pin the stale view's present-list fallback to the
        // filtered walk.
        let n = 6;
        let graph = Family::Complete { n }.build();
        let speeds = SpeedVector::new(vec![1.0, 2.0, 1.0, 2.0, 1.0, 2.0]).expect("valid speeds");
        let alive = [true; 6];
        // (outstanding, backlog at the probe, up) per probe epoch.
        let boards: Vec<([f64; 6], [u64; 6], [bool; 6])> = vec![
            // Every backend absent: the uniform fallback draws per job.
            ([1.0; 6], [4; 6], [false; 6]),
            // A single present backend.
            ([0.0, 3.0, 0.0, 0.0, 0.0, 0.0], [0, 9, 0, 0, 0, 0], {
                let mut up = [false; 6];
                up[1] = true;
                up
            }),
            // Tied backlogs: the lowest index must win.
            ([2.0; 6], [7, 5, 9, 5, 5, 8], alive),
            // Headroom gaps far past exp's range: the cumulative table
            // has zero-weight plateaus between its live entries.
            (
                [0.0, 5000.0, 4000.0, 1.0, 6000.0, 0.5],
                [1, 9, 9, 1, 9, 2],
                alive,
            ),
            // The argmin moves: a memo that is never invalidated sticks
            // to the previous epoch's backend.
            ([3.0, 0.0, 1.0, 2.0, 2.0, 1.0], [6, 8, 7, 6, 3, 4], {
                let mut up = alive;
                up[0] = false;
                up
            }),
            ([3.0, 0.0, 1.0, 2.0, 2.0, 1.0], [6, 2, 7, 6, 3, 4], alive),
        ];
        let mut board = lossless_board(n);
        let mut greedy = PolicyKind::GreedyLeastLoaded.instantiate(&speeds);
        let mut softmax = PolicyKind::BandwidthSoftmax.instantiate(&speeds);
        let mut alg1 = PolicyKind::Alg1.instantiate(&speeds);
        let mut coin = StdRng::seed_from_u64(29);
        let mut greedy_picks = Vec::new();
        for (epoch, (outstanding, backlog, up)) in boards.iter().enumerate() {
            let probe_tick = 10 * epoch as u64;
            let free_at = backlog.map(|ticks| probe_tick + ticks);
            board.probe(epoch as u64, probe_tick, outstanding, &free_at, up);
            let mut picks = Vec::new();
            let all_up = up.iter().all(|&u| u);
            let live = NodeView::live(
                &graph,
                &speeds,
                probe_tick,
                outstanding,
                &free_at,
                up,
                all_up,
            );
            for job in 0..40u64 {
                let view = NodeView::snapshots(&graph, &speeds, probe_tick + job / 8, &board);
                let entry = job as usize % n;
                for (kind, policy) in [
                    (PolicyKind::GreedyLeastLoaded, &mut greedy),
                    (PolicyKind::BandwidthSoftmax, &mut softmax),
                    (PolicyKind::Alg1, &mut alg1),
                ] {
                    let (mut stale_coin, mut live_coin) = (coin.clone(), coin.clone());
                    let expected =
                        kind.instantiate(&speeds)
                            .route(entry, 1.0, &view, &mut stale_coin);
                    let on_live =
                        kind.instantiate(&speeds)
                            .route(entry, 1.0, &live, &mut live_coin);
                    let got = policy.route(entry, 1.0, &view, &mut coin);
                    assert_eq!(got, expected, "{} at epoch {epoch}", kind.label());
                    assert_eq!(got, on_live, "{} vs fresh mode", kind.label());
                    assert_eq!(coin, stale_coin, "{} coin state", kind.label());
                    assert_eq!(coin, live_coin, "{} coin vs fresh mode", kind.label());
                    if kind == PolicyKind::GreedyLeastLoaded {
                        picks.push(got);
                    }
                }
            }
            greedy_picks.push(picks);
        }
        // Spot-check the boards did what they claim.
        assert!(greedy_picks[0].iter().any(|&b| b != greedy_picks[0][0]));
        assert!(greedy_picks[1].iter().all(|&b| b == 1));
        assert!(greedy_picks[2].iter().all(|&b| b == 1));
        assert!(greedy_picks[4].iter().all(|&b| b == 4));
        assert!(greedy_picks[5].iter().all(|&b| b == 1));
    }

    #[test]
    fn selfish_ignores_dead_neighbors_when_choosing_a_peer() {
        // Entry 0's only live neighbor on the ring is 1; node 7 is dead.
        let graph = Family::Ring { n: 8 }.build();
        let speeds = SpeedVector::uniform(8);
        let outstanding = [40.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let mut up = [true; 8];
        up[7] = false;
        let view = view_over(&graph, &speeds, &[0u64; 8], &outstanding, &up);
        let mut policy = PolicyKind::Alg2.instantiate(&speeds);
        let mut coin = StdRng::seed_from_u64(19);
        for _ in 0..200 {
            let b = policy.route(0, 1.0, &view, &mut coin);
            assert!(
                b == 0 || b == 1,
                "walked to a dead or non-adjacent node: {b}"
            );
        }
    }
}
