//! Fault schedule and degraded load signals for the service harness.
//!
//! Two deterministic degradation mechanisms live here:
//!
//! * `FaultSchedule` — per-backend crash/recover alternating renewal
//!   processes. Backend `b` draws its exponential up/down durations from
//!   the private stream `rng_for(scenario_seed, b, streams::serve::FAULT)`,
//!   so the fault timeline is a pure function of the scenario seed: every
//!   policy of an invocation faces the *identical* outage schedule, and
//!   no event-processing order can perturb the draws (each backend owns
//!   its stream). Crashes are injected only within the horizon; pending
//!   recoveries still fire during the drain, so the run always ends with
//!   every backend up and every surviving job completed.
//! * `SignalBoard` — the snapshot store behind [`LoadSignal`]. In the
//!   default *fresh* mode the board is bypassed entirely: the
//!   [`crate::NodeView`] reads live state lazily, one backend per
//!   accessed index (ages are zero, presence mirrors liveness), which
//!   reproduces the perfect-information harness bit for bit at its
//!   original per-decision cost. With
//!   `signal=stale:D` the view instead replays the board's stored
//!   probes, which are refreshed by probe events
//!   every `D` units; probe epoch `k` draws its per-backend loss coins
//!   from `rng_for(scenario_seed, k, streams::serve::SIGNAL)` in backend
//!   order, and a lost probe leaves the previous (now older) snapshot in
//!   place. Probing stops at the horizon with the traffic; the board is
//!   frozen (and keeps aging) during the drain.
//!
//! Both streams are scenario-seeded by design: degradation is part of
//! the *environment*, not of a policy's coin sequence, so rows within an
//! artifact stay comparable. Retry backoff, which is a routing decision,
//! draws from the policy-seeded `streams::serve::RETRY` instead (see the
//! event loop in [`crate`]).

use crate::TICKS_PER_UNIT;
use rand::rngs::StdRng;
use rand::Rng;
use slb_core::rng::{rng_for, streams};
use slb_workloads::faults::{FaultSpec, SignalSpec};

/// What a routing policy knows about one backend: an explicit snapshot
/// instead of live state.
///
/// In fresh mode (`signal=none`) the snapshot equals the live state and
/// `age_ticks` is zero. Under `signal=stale:D+loss:P` the snapshot is
/// `age_ticks` old and `present` may be wrong in both directions: a
/// backend that died after the probe still looks alive, and one whose
/// probes keep getting lost is invisible even while serving.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadSignal {
    /// Outstanding weight observed at the probe (the serve analogue of
    /// the kernel's count state).
    pub value: f64,
    /// Time-to-drain observed at the probe, in ticks.
    pub backlog_ticks: u64,
    /// How old this snapshot is, in ticks (zero in fresh mode).
    pub age_ticks: u64,
    /// Whether the probe saw the backend alive. Policies must skip
    /// non-present backends and fall back to a uniform draw over the
    /// known-live set (or over everything when that set is empty).
    pub present: bool,
}

/// Draws one exponential duration with mean `mean` units, in ticks
/// (at least one tick so renewals always advance the clock).
fn exp_ticks(mean: f64, rng: &mut StdRng) -> u64 {
    let u: f64 = rng.gen_range(0.0..1.0);
    ((-(1.0 - u).ln()) * mean * TICKS_PER_UNIT as f64)
        .ceil()
        .max(1.0) as u64
}

/// Per-backend crash/recover renewal processes plus liveness bookkeeping.
///
/// The event loop owns the heap; this type owns the draws and the
/// up/downtime state.
pub(crate) struct FaultSchedule {
    spec: Option<FaultSpec>,
    horizon_ticks: u64,
    rngs: Vec<StdRng>,
    /// Liveness per backend (the ground truth policies may only see
    /// through [`LoadSignal::present`]).
    pub(crate) up: Vec<bool>,
    down_since: Vec<u64>,
    down_ticks: Vec<u64>,
    /// Number of currently-down backends, so the hot path can ask
    /// "everything up?" in O(1).
    down_count: usize,
}

impl FaultSchedule {
    pub(crate) fn new(
        spec: Option<FaultSpec>,
        scenario_seed: u64,
        horizon_ticks: u64,
        n: usize,
    ) -> Self {
        let rngs = if spec.is_some() {
            (0..n)
                .map(|b| rng_for(scenario_seed, b as u64, streams::serve::FAULT))
                .collect()
        } else {
            Vec::new()
        };
        FaultSchedule {
            spec,
            horizon_ticks,
            rngs,
            up: vec![true; n],
            down_since: vec![0; n],
            down_ticks: vec![0; n],
            down_count: 0,
        }
    }

    pub(crate) fn enabled(&self) -> bool {
        self.spec.is_some()
    }

    /// True when no backend is currently down — the undegraded fast
    /// paths key on this O(1) check instead of scanning `up`.
    pub(crate) fn all_up(&self) -> bool {
        self.down_count == 0
    }

    /// Draws every backend's first crash tick; ticks at or past the
    /// horizon are dropped (the backend never fails).
    pub(crate) fn initial_crash_ticks(&mut self) -> Vec<(usize, u64)> {
        let Some(spec) = self.spec else {
            return Vec::new();
        };
        let horizon = self.horizon_ticks;
        self.rngs
            .iter_mut()
            .enumerate()
            .filter_map(|(b, rng)| {
                let tick = exp_ticks(spec.mttf, rng);
                (tick < horizon).then_some((b, tick))
            })
            .collect()
    }

    /// Marks `backend` down at `now` and returns its recovery tick.
    pub(crate) fn crash(&mut self, backend: usize, now: u64) -> u64 {
        let spec = self.spec.expect("crash events exist only with faults on");
        debug_assert!(self.up[backend], "crash of an already-down backend");
        debug_assert!(now < self.horizon_ticks, "crashes are pre-horizon only");
        self.up[backend] = false;
        self.down_count += 1;
        self.down_since[backend] = now;
        now + exp_ticks(spec.mttr, &mut self.rngs[backend])
    }

    /// Marks `backend` up at `now`, accumulates its (horizon-clipped)
    /// downtime, and returns the next crash tick if it lands before the
    /// horizon.
    pub(crate) fn recover(&mut self, backend: usize, now: u64) -> Option<u64> {
        let spec = self.spec.expect("recover events exist only with faults on");
        debug_assert!(!self.up[backend], "recovery of an already-up backend");
        self.up[backend] = true;
        self.down_count -= 1;
        self.down_ticks[backend] +=
            now.min(self.horizon_ticks) - self.down_since[backend].min(self.horizon_ticks);
        let next = now + exp_ticks(spec.mttf, &mut self.rngs[backend]);
        (next < self.horizon_ticks).then_some(next)
    }

    /// Fraction of backend-time within `[0, horizon)` spent up. Exactly
    /// 1 with faults disabled. Valid only after the drain (every
    /// recovery has fired, so no open down interval remains).
    pub(crate) fn availability(&self) -> f64 {
        if !self.enabled() {
            return 1.0;
        }
        debug_assert!(self.up.iter().all(|&u| u), "availability before full drain");
        let down: u64 = self.down_ticks.iter().sum();
        let total = self.horizon_ticks * self.up.len() as u64;
        1.0 - down as f64 / total as f64
    }
}

/// One stored probe result. [`crate::NodeView`] replays these in stale
/// mode, computing each signal's age at read time.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Stored {
    pub(crate) value: f64,
    pub(crate) backlog_ticks: u64,
    pub(crate) probe_tick: u64,
    pub(crate) present: bool,
}

/// The snapshot store: per-backend [`Stored`] entries, refreshed by
/// probe events (stale mode only — the fresh-mode view never touches it).
///
/// [`probe`](SignalBoard::probe) is the only writer of the snapshots, so
/// between two probes the board is constant: `probes` counts the probe
/// events applied so far, and policies key per-board work on it (see
/// [`crate::policy`]).
pub(crate) struct SignalBoard {
    spec: SignalSpec,
    scenario_seed: u64,
    /// Probe interval in ticks, at least one (unused in fresh mode).
    pub(crate) stale_ticks: u64,
    stored: Vec<Stored>,
    /// Probe events applied so far.
    probes: u64,
    /// Ascending indices of the backends whose snapshot is present.
    present: Vec<usize>,
}

impl SignalBoard {
    pub(crate) fn new(spec: SignalSpec, scenario_seed: u64, n: usize) -> Self {
        // Prior before the first probe lands: empty and alive.
        let stored = vec![
            Stored {
                value: 0.0,
                backlog_ticks: 0,
                probe_tick: 0,
                present: true,
            };
            n
        ];
        SignalBoard {
            spec,
            scenario_seed,
            // An interval below half a tick would round to zero and
            // reschedule the probe at the same tick forever.
            stale_ticks: crate::to_ticks(spec.stale).max(1),
            stored,
            probes: 0,
            present: (0..n).collect(),
        }
    }

    /// The per-backend probe snapshots the stale-mode view replays.
    pub(crate) fn stored(&self) -> &[Stored] {
        &self.stored
    }

    /// Probe events applied so far; the snapshots change only when it
    /// does.
    pub(crate) fn probes(&self) -> u64 {
        self.probes
    }

    /// Ascending indices of the backends whose snapshot is present.
    pub(crate) fn present(&self) -> &[usize] {
        &self.present
    }

    /// Whether snapshots refresh on probe events instead of per decision.
    pub(crate) fn is_stale(&self) -> bool {
        self.spec.is_degraded()
    }

    /// Probe epoch `k` at `now`: per backend (in index order, from the
    /// epoch's private stream), either record the live state or lose the
    /// probe and keep the previous snapshot. Then bumps the probe count
    /// and rebuilds the present list.
    pub(crate) fn probe(
        &mut self,
        epoch: u64,
        now: u64,
        outstanding: &[f64],
        free_at: &[u64],
        up: &[bool],
    ) {
        let mut rng = rng_for(self.scenario_seed, epoch, streams::serve::SIGNAL);
        for b in 0..self.stored.len() {
            let lost: f64 = rng.gen_range(0.0..1.0);
            if lost < self.spec.loss {
                continue;
            }
            self.stored[b] = Stored {
                value: outstanding[b],
                backlog_ticks: free_at[b].saturating_sub(now),
                probe_tick: now,
                present: up[b],
            };
        }
        self.probes += 1;
        self.present.clear();
        self.present
            .extend((0..self.stored.len()).filter(|&b| self.stored[b].present));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slb_workloads::faults::{parse_faults, parse_signal};

    #[test]
    fn fault_schedule_is_a_pure_function_of_the_scenario_seed() {
        let spec = parse_faults("crash:4:1").expect("valid token");
        let horizon = 50 * TICKS_PER_UNIT;
        let mut a = FaultSchedule::new(spec, 7, horizon, 8);
        let mut b = FaultSchedule::new(spec, 7, horizon, 8);
        let first_a = a.initial_crash_ticks();
        assert_eq!(first_a, b.initial_crash_ticks());
        assert!(!first_a.is_empty(), "mttf 4 over 50 units must crash");
        // Replaying the same renewal sequence gives the same ticks
        // regardless of the order backends are advanced in.
        for &(backend, tick) in first_a.iter().rev() {
            let rec = a.crash(backend, tick);
            assert!(rec > tick);
            let next = a.recover(backend, rec.min(horizon - 1));
            if let Some(t) = next {
                assert!(t < horizon);
            }
        }
        for &(backend, tick) in &first_a {
            let rec = b.crash(backend, tick);
            let _ = b.recover(backend, rec.min(horizon - 1));
        }
        assert_eq!(a.down_ticks, b.down_ticks);
    }

    #[test]
    fn availability_is_one_without_faults_and_clips_to_the_horizon() {
        let horizon = 10 * TICKS_PER_UNIT;
        let off = FaultSchedule::new(None, 3, horizon, 4);
        assert_eq!(off.availability(), 1.0);

        let spec = parse_faults("crash:1000:1000").expect("valid token");
        let mut on = FaultSchedule::new(spec, 3, horizon, 1);
        // Force one outage spanning the horizon boundary.
        let recover_at = on.crash(0, horizon / 2);
        let _ = on.recover(0, recover_at.max(horizon + TICKS_PER_UNIT));
        // Only the pre-horizon half counts against availability.
        assert!((on.availability() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn probes_freeze_the_observed_state_until_the_next_epoch() {
        let outstanding = [2.0, 0.0];
        let free_at = [3 * TICKS_PER_UNIT, 0];
        let up = [true, false];

        let fresh = SignalBoard::new(SignalSpec::default(), 9, 2);
        assert!(!fresh.is_stale());

        let spec = parse_signal("stale:1").expect("valid token");
        let mut stale = SignalBoard::new(spec, 9, 2);
        assert!(stale.is_stale());
        stale.probe(0, TICKS_PER_UNIT, &outstanding, &free_at, &up);
        // The stored snapshot is the probed state, not whatever the live
        // arrays say afterwards.
        assert_eq!(stale.stored()[0].value, 2.0);
        assert_eq!(stale.stored()[0].backlog_ticks, 2 * TICKS_PER_UNIT);
        assert_eq!(stale.stored()[0].probe_tick, TICKS_PER_UNIT);
        assert!(!stale.stored()[1].present);
    }

    #[test]
    fn probe_intervals_below_a_tick_round_up_to_one() {
        // `stale:1e-9` is far below half a tick: rounding alone would
        // give a zero interval and a probe event that never advances.
        let spec = parse_signal("stale:1e-9").expect("valid token");
        assert_eq!(SignalBoard::new(spec, 3, 2).stale_ticks, 1);
        let spec = parse_signal("stale:0.5").expect("valid token");
        assert_eq!(SignalBoard::new(spec, 3, 2).stale_ticks, TICKS_PER_UNIT / 2);
    }

    #[test]
    fn probes_count_epochs_and_list_the_present_backends() {
        let spec = parse_signal("stale:1").expect("valid token");
        let mut board = SignalBoard::new(spec, 5, 4);
        // The prior shows every backend alive before the first probe.
        assert_eq!(board.probes(), 0);
        assert_eq!(board.present(), &[0, 1, 2, 3]);
        board.probe(0, 0, &[0.0; 4], &[0; 4], &[true, false, true, false]);
        assert_eq!(board.probes(), 1);
        assert_eq!(board.present(), &[0, 2]);
        board.probe(1, 1, &[0.0; 4], &[0; 4], &[false; 4]);
        assert_eq!(board.probes(), 2);
        assert!(board.present().is_empty());
    }

    #[test]
    fn lost_probes_keep_the_previous_snapshot() {
        let spec = parse_signal("stale:1+loss:0.999").expect("valid token");
        let mut board = SignalBoard::new(spec, 11, 4);
        let outstanding = [5.0; 4];
        let free_at = [7 * TICKS_PER_UNIT; 4];
        let up = [false; 4];
        // With loss ≈ 1 nearly every probe is lost: the near-certain
        // outcome over a few epochs is that some backend still shows its
        // optimistic prior while the live state says dead.
        for epoch in 0..3 {
            board.probe(epoch, epoch * TICKS_PER_UNIT, &outstanding, &free_at, &up);
        }
        assert!(
            board.stored().iter().any(|s| s.present),
            "a 0.999 loss rate should leave stale presence behind"
        );
    }
}
