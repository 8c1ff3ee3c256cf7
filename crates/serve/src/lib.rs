//! In-process service harness: the paper's protocols run as a load
//! balancer instead of a round loop.
//!
//! [`run`] drives one policy over one scenario: a synthetic job stream
//! (open-loop Poisson arrivals, closed-loop users, or both — see
//! [`slb_workloads::traffic`]) lands on a backend array whose speeds and
//! peer topology come from the same model layer as the simulators. Each
//! backend is a FIFO queue; a job of weight `w` on backend `b` takes
//! `w / s_b` units of service, so service times are driven by backend
//! speeds exactly like task processing in the paper's model.
//!
//! # Faults, degraded signals, and retries
//!
//! Three optional axes degrade the perfect-information harness (see
//! [`faults`] and [`slb_workloads::faults`]):
//!
//! * `faults=crash:MTTF:MTTR` — backends crash and recover on
//!   per-backend exponential renewal processes. A crash evicts the
//!   backend's whole FIFO (in-service work is lost); evicted and
//!   misrouted jobs go down the retry path.
//! * `signal=stale:D+loss:P` — policies observe [`LoadSignal`]
//!   snapshots refreshed every `D` units with per-backend probe loss
//!   `P` instead of live state.
//! * `retry=max:R:base:B` — a job that lands on a dead backend is
//!   resubmitted after an exponential backoff `B·2^(a−1)` with
//!   deterministic jitter, at most `R` times. A job exhausting its
//!   budget (or hitting a fault with `retry=none`) is a **failed** job:
//!   counted in [`ServeOutcome::failed_jobs`], excluded from latency
//!   records, never silently dropped.
//!
//! # Determinism
//!
//! Time is a **virtual clock**: integer ticks ([`TICKS_PER_UNIT`] per
//! unit of load), advanced only by events taken in one total
//! `(tick, sequence number)` order. No wall clock exists anywhere (clippy
//! rejects `Instant` and `SystemTime` in every crate under `crates/`),
//! so a run is a pure function of its seeds.
//!
//! The events live in three places, and the loop always takes the
//! smallest `(tick, seq)` of their three fronts:
//!
//! * an **arrival FIFO** holds the current unit slot's open-loop
//!   arrivals, which the slot's generator emits already sorted by tick;
//! * a **phase-in FIFO** holds the closed-loop users' first
//!   submissions. [`run`] draws every user's phase and takes its
//!   sequence number in user order, as a heap push would, then sorts
//!   them by `(tick, seq)` once;
//! * a **binary heap** holds everything whose order is not known in
//!   advance: closed-loop resubmissions, crashes, recoveries, probes,
//!   retries and completions. A backend's FIFO can only finish its
//!   head, so the heap holds at most one live completion per backend.
//!   Each job reserves its completion's sequence number at admission.
//!   When a head finishes with a job behind it, the head's completion
//!   is **rekeyed in place**: its heap slot takes the next job's
//!   reserved `(finish, seq)` (one sift, where a pop and a push took
//!   two). The order is thus the one a heap of every job's completion
//!   would give. A crash evicts the FIFO and strands the head's
//!   completion, which is skipped when it fires because its `seq` no
//!   longer names the backend's head.
//!
//! When no slot can draw an open-loop job (no `traffic=poisson:`, or a
//! rate so small that `e^{−rate}` rounds to 1 and the Poisson walk always
//! returns 0), the loop skips the slots and runs to the horizon in one
//! pass, so such a run costs its events, not its horizon. Probes and
//! crash renewals still fire up to the horizon, so stale-signal and
//! fault runs stay horizon-bound.
//!
//! The seeds:
//!
//! * the **scenario seed** drives the environment: open-loop slot `t`
//!   draws from `rng_for(scenario_seed, t, streams::serve::ARRIVAL)`,
//!   closed-loop user `u` from `rng_for(scenario_seed, u,
//!   streams::serve::CLOSED)`, backend `b`'s crash/recover renewals from
//!   `rng_for(scenario_seed, b, streams::serve::FAULT)`, and probe epoch
//!   `k`'s loss coins from `rng_for(scenario_seed, k,
//!   streams::serve::SIGNAL)`. Every policy of a `slb serve` invocation
//!   shares the scenario seed, so all policies face the *identical* job
//!   stream, outage schedule, and probe-loss pattern.
//! * the **policy seed** drives routing: job `k` flips its coins from
//!   `rng_for(policy_seed, k, streams::serve::POLICY)`, and retry
//!   attempt `a` of job `k` from `rng_for(policy_seed, k·S + a,
//!   streams::serve::RETRY)` (with `S =`
//!   [`streams::serve::RETRY_ATTEMPT_STRIDE`]) — one private stream per
//!   decision, so outcomes depend only on the job, the attempt, and the
//!   observed state, never on how runs are scheduled onto threads.
//!
//! The harness runs each policy sequentially; `slb serve --threads T`
//! fans *policies* across workers, which cannot change any per-policy
//! trajectory. Artifacts are therefore byte-identical at any `--threads`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// A library panic states its invariant (`expect`, never `unwrap`).
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod faults;
pub mod policy;

pub use faults::LoadSignal;
pub use policy::{NodeView, PolicyKind, RoutePolicy};

use faults::{FaultSchedule, SignalBoard};
use rand::rngs::StdRng;
use rand::Rng;
use slb_core::engine::sampling::{ceil_u64, sample_poisson};
use slb_core::equilibrium::nash_gap_loads;
use slb_core::model::SpeedVector;
use slb_core::rng::{rng_for, streams};
use slb_graphs::Graph;
use slb_workloads::faults::{FaultSpec, RetrySpec, SignalSpec};
use slb_workloads::weights::WeightDistribution;
use slb_workloads::TrafficSpec;
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};

/// Virtual-clock resolution: ticks per unit of load/time. A power of two
/// keeps unit↔tick conversions exact for the usual rates.
pub const TICKS_PER_UNIT: u64 = 1 << 20;

/// One serve scenario: everything but the routing policy.
///
/// `scenario_seed` is shared across the policies of an invocation (same
/// traffic and faults for everyone), `policy_seed` is unique per policy
/// run.
pub struct ServeConfig<'a> {
    /// Peer topology (selfish policies migrate along its edges).
    pub graph: &'a Graph,
    /// Backend speeds.
    pub speeds: &'a SpeedVector,
    /// The synthetic traffic to offer.
    pub traffic: TrafficSpec,
    /// Job-weight distribution (service time = weight / speed).
    pub weights: WeightDistribution,
    /// Crash/recover schedule; `None` keeps every backend up forever.
    pub faults: Option<FaultSpec>,
    /// Signal degradation; the default is the fresh (perfect) view.
    pub signal: SignalSpec,
    /// Retry budget for fault-hit jobs; `None` fails them immediately.
    pub retry: Option<RetrySpec>,
    /// Units of virtual time during which traffic is generated. The run
    /// then drains: every surviving job completes (crashes are injected
    /// only within the horizon, pending recoveries still fire).
    pub horizon: u64,
    /// Master seed of the environment streams (shared across policies).
    pub scenario_seed: u64,
    /// Master seed of the per-job routing coins (unique per policy).
    pub policy_seed: u64,
}

/// Arrival/completion times of one completed job, in ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobRecord {
    /// Submission tick.
    pub arrival: u64,
    /// Completion tick (`finish − arrival` is the job's latency).
    pub finish: u64,
}

/// Everything a serve run measures. The analysis layer turns this into
/// artifact rows; keeping raw per-job records here lets it apply
/// measurement windows and quantiles without re-running.
pub struct ServeOutcome {
    /// Jobs submitted (open- plus closed-loop) within the horizon.
    pub jobs_offered: u64,
    /// Per-job arrival/finish ticks of **completed** jobs, in completion
    /// order. Every offered job either completes or fails, so this has
    /// exactly `jobs_offered − failed_jobs` entries after the drain.
    pub jobs: Vec<JobRecord>,
    /// Jobs that exhausted their retry budget (or hit a fault with no
    /// retry configured). Zero whenever faults are disabled.
    pub failed_jobs: u64,
    /// Retry resubmissions scheduled over the whole run.
    pub retries_total: u64,
    /// Fraction of backend-time within `[0, horizon)` spent up; exactly
    /// 1 with faults disabled.
    pub availability: f64,
    /// Per-backend busy ticks within `[0, horizon)`. Service time lost
    /// to a crash still counts as busy up to the crash tick.
    pub busy_ticks: Vec<u64>,
    /// Per-backend jobs in flight at the horizon boundary.
    pub in_flight_at_horizon: Vec<u64>,
    /// Per-backend outstanding weight at the horizon boundary.
    pub outstanding_at_horizon: Vec<f64>,
    /// Per-backend liveness at the horizon boundary.
    pub alive_at_horizon: Vec<bool>,
    /// Jobs completed by the horizon boundary.
    pub completed_at_horizon: u64,
    /// Jobs failed by the horizon boundary.
    pub failed_at_horizon: u64,
    /// Jobs waiting in retry backoff at the horizon boundary.
    pub retrying_at_horizon: u64,
    /// Nash gap of the backlog state at the horizon: loads `W_b/s_b`
    /// over the serve topology, unit threshold weights, backends with
    /// jobs in flight marked occupied. Ignores liveness (a dead backend
    /// reads as empty).
    pub nash_gap_at_horizon: f64,
    /// Nash gap restricted to backends alive at the horizon: dead
    /// backends are no migration target (infinite load) and no source
    /// (unoccupied). Equals `nash_gap_at_horizon` with faults disabled.
    pub nash_gap_live_at_horizon: f64,
}

/// Where a job came from (closed-loop jobs respawn their user, an index
/// below the 2^24-user population limit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    Open,
    Closed(u32),
}

/// One job sitting in a backend's FIFO (admitted, not yet completed),
/// 56 bytes: a deep queue holds one per job in flight.
///
/// `seq` is the sequence number of the job's completion event, taken at
/// admission. Only the FIFO head's completion sits in the heap; the
/// others wait here with their `(finish, seq)` until they become head.
/// The head's service start is kept per backend (`Loop::head_start`):
/// every job behind it starts when the one before it finishes.
struct Queued {
    job_id: u64,
    arrival: u64,
    finish: u64,
    seq: u64,
    weight: f64,
    source: Source,
    attempt: u32,
}

/// What an event does. Every payload is at most 16 bytes, so a heap
/// entry is 32: the heap moves entries on every push and pop.
enum EventKind {
    /// An open-loop submission (arrival FIFO only); `entry` is a node
    /// index, below the 2^24-node graph limit.
    Open {
        entry: u32,
        weight: f64,
    },
    /// Closed-loop user `user` submits (from the heap, or as a phase-in
    /// from the phase-in FIFO). The job's entry node and weight come
    /// from the user's private stream when the event fires; a user has
    /// at most one submission pending, so the draws come in the same
    /// order as if they were taken at scheduling time.
    Closed {
        user: usize,
    },
    /// The head of `backend`'s FIFO finishes — if that head is still the
    /// job that reserved this event's `seq`. A crash evicts the job and
    /// strands the event, which is then skipped. The heap holds at most
    /// one live completion per backend: the head's.
    Completion {
        backend: usize,
    },
    Crash {
        backend: usize,
    },
    Recover {
        backend: usize,
    },
    /// Stale-mode probe refresh (epoch `k` fires at `k · stale_ticks`).
    Probe {
        epoch: u64,
    },
    /// A fault-hit job re-enters routing. Boxed so the rare retry
    /// payload (with its 32-byte rng) does not widen every heap event.
    Retry(Box<RetryJob>),
}

/// Payload of [`EventKind::Retry`]: the resubmitted job plus `coin`,
/// its private (job, attempt) stream, already past the jitter draw.
struct RetryJob {
    job_id: u64,
    arrival: u64,
    weight: f64,
    source: Source,
    attempt: u32,
    coin: StdRng,
}

/// Heap or arrival-FIFO entry: ordered by `(time, seq)` so simultaneous
/// events fire in the order their sequence numbers were taken — a total,
/// deterministic order.
struct Event {
    time: u64,
    seq: u64,
    kind: EventKind,
}

impl Event {
    /// `(time, seq)` as one integer: one compare, with no branch for the
    /// heap's sift loops to mispredict.
    fn key(&self) -> u128 {
        (u128::from(self.time) << 64) | u128::from(self.seq)
    }
}

/// A closed-loop user's first submission, waiting in the phase-in FIFO:
/// 16 bytes, where a heap event takes 32. The phase-ins take the first
/// sequence numbers after the initial probe and crashes (at most
/// `1 + 2^24` of them), and there are at most 2^24 users, so both fit
/// `u32`.
struct PhaseIn {
    time: u64,
    seq: u32,
    user: u32,
}

impl PhaseIn {
    /// `(time, seq)` as one integer, as [`Event::key`].
    fn key(&self) -> u128 {
        (u128::from(self.time) << 64) | u128::from(self.seq)
    }
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// Converts a duration in units to ticks, rounding to nearest.
pub(crate) fn to_ticks(units: f64) -> u64 {
    (units * TICKS_PER_UNIT as f64).round() as u64
}

/// Service duration of a job of weight `w` on a backend of speed `s`:
/// `w/s` units, at least one tick so every job occupies its backend.
fn service_ticks(weight: f64, speed: f64) -> u64 {
    ceil_u64((weight / speed) * TICKS_PER_UNIT as f64).max(1)
}

/// Whether a unit slot at Poisson rate `rate` can draw a job. The small
/// rate walk (`slb_core::engine::sampling::poisson_product_walk`) stops
/// once a product of uniforms in `(0, 1)` is at most `e^{−rate}`; when
/// that limit rounds to 1 the first factor already stops it, at 0 jobs.
fn slots_can_draw(rate: f64) -> bool {
    (-rate).exp() != 1.0
}

struct Loop<'a> {
    config: &'a ServeConfig<'a>,
    policy: Box<dyn RoutePolicy + Send>,
    heap: BinaryHeap<Reverse<Event>>,
    /// The current slot's open-loop arrivals, in `(time, seq)` order.
    arrivals: VecDeque<Event>,
    /// The closed-loop users' first submissions not yet taken, in
    /// `(time, seq)` order.
    phase_ins: VecDeque<PhaseIn>,
    next_seq: u64,
    next_job: u64,
    horizon_ticks: u64,
    // Per-backend state.
    free_at: Vec<u64>,
    outstanding: Vec<f64>,
    busy_ticks: Vec<u64>,
    queues: Vec<VecDeque<Queued>>,
    /// Service start of each backend's FIFO head.
    head_start: Vec<u64>,
    // Degradation state.
    schedule: FaultSchedule,
    board: SignalBoard,
    // Per-user closed-loop streams.
    user_rngs: Vec<StdRng>,
    // Measurements.
    jobs_offered: u64,
    jobs: Vec<JobRecord>,
    failed_jobs: u64,
    retries_total: u64,
    retry_pending: u64,
}

impl<'a> Loop<'a> {
    /// A loop at tick 0 with its first events scheduled: the initial
    /// probe, every backend's first crash and every closed-loop user's
    /// first submission.
    fn new(config: &'a ServeConfig<'a>, kind: PolicyKind) -> Self {
        let n = config.graph.node_count();
        let horizon_ticks = config
            .horizon
            .checked_mul(TICKS_PER_UNIT)
            .expect("the horizon fits the tick clock: at most u64::MAX / TICKS_PER_UNIT units");
        let users = config.traffic.closed.map_or(0, |c| c.users);
        let mut state = Loop {
            config,
            policy: kind.instantiate(config.speeds),
            heap: BinaryHeap::new(),
            arrivals: VecDeque::new(),
            phase_ins: VecDeque::new(),
            next_seq: 0,
            next_job: 0,
            horizon_ticks,
            free_at: vec![0; n],
            outstanding: vec![0.0; n],
            busy_ticks: vec![0; n],
            queues: (0..n).map(|_| VecDeque::new()).collect(),
            head_start: vec![0; n],
            schedule: FaultSchedule::new(config.faults, config.scenario_seed, horizon_ticks, n),
            board: SignalBoard::new(config.signal, config.scenario_seed, n),
            user_rngs: (0..users)
                .map(|u| rng_for(config.scenario_seed, u as u64, streams::serve::CLOSED))
                .collect(),
            jobs_offered: 0,
            jobs: Vec::new(),
            failed_jobs: 0,
            retries_total: 0,
            retry_pending: 0,
        };

        // Degradation events seed the heap first: the initial probe
        // observes tick 0 before any arrival routes on it.
        if state.board.is_stale() {
            state.push(0, EventKind::Probe { epoch: 0 });
        }
        for (backend, tick) in state.schedule.initial_crash_ticks() {
            state.push(tick, EventKind::Crash { backend });
        }

        // Closed-loop users phase in uniformly over their first think
        // window. The phases are drawn and their sequence numbers taken
        // in user order, then sorted into the phase-in FIFO.
        if let Some(closed) = config.traffic.closed {
            let mut phase_ins = Vec::with_capacity(closed.users);
            for user in 0..closed.users {
                let phase: f64 = state.user_rngs[user].gen_range(0.0..closed.think);
                let time = to_ticks(phase);
                if time < state.horizon_ticks {
                    let seq = state.reserve_seq();
                    phase_ins.push(PhaseIn {
                        time,
                        seq: u32::try_from(seq)
                            .expect("phase-ins follow at most 1 + 2^24 events, so a seq fits u32"),
                        user: u32::try_from(user)
                            .expect("closed-loop populations stay below 2^24 users"),
                    });
                }
            }
            phase_ins.sort_unstable_by_key(PhaseIn::key);
            state.phase_ins = phase_ins.into();
        }
        state
    }

    /// Takes the next sequence number.
    fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    fn push(&mut self, time: u64, kind: EventKind) {
        let seq = self.reserve_seq();
        self.heap.push(Reverse(Event { time, seq, kind }));
    }

    /// Schedules `user`'s next submission, unless it would start past
    /// the horizon.
    fn submit_closed(&mut self, user: usize, time: u64) {
        if time < self.horizon_ticks {
            self.push(time, EventKind::Closed { user });
        }
    }

    /// Generates slot `slot`'s open-loop arrivals from the slot's private
    /// stream: a Poisson count, then per job an offset within the slot,
    /// a weight, and an entry node. They go to the arrival FIFO in tick
    /// order, each taking its sequence number as a heap push would.
    fn push_open_arrivals(&mut self, slot: u64) {
        debug_assert!(self.arrivals.is_empty(), "the last slot was drained");
        let Some(open) = self.config.traffic.open else {
            return;
        };
        let mut rng = rng_for(self.config.scenario_seed, slot, streams::serve::ARRIVAL);
        let k = sample_poisson(open.rate, &mut rng);
        if k == 0 {
            return;
        }
        let base = slot * TICKS_PER_UNIT;
        let mut offsets: Vec<u64> = (0..k).map(|_| rng.gen_range(0..TICKS_PER_UNIT)).collect();
        offsets.sort_unstable();
        let weights = self.config.weights.sample(k as usize, &mut rng);
        let n = self.config.graph.node_count();
        for (idx, off) in offsets.into_iter().enumerate() {
            let entry = u32::try_from(rng.gen_range(0..n))
                .expect("graphs stay below 2^24 nodes, so a node index fits u32");
            let seq = self.reserve_seq();
            self.arrivals.push_back(Event {
                time: base + off,
                seq,
                kind: EventKind::Open {
                    entry,
                    weight: weights[idx],
                },
            });
        }
    }

    /// Offers a new job at `now` and routes it on its first attempt.
    fn submit(&mut self, now: u64, entry: usize, weight: f64, source: Source) {
        let job_id = self.next_job;
        self.next_job += 1;
        self.jobs_offered += 1;
        let mut coin = rng_for(self.config.policy_seed, job_id, streams::serve::POLICY);
        self.dispatch(now, entry, weight, source, job_id, now, 0, &mut coin);
    }

    /// Routes one (possibly retried) job at `now` and admits it onto the
    /// chosen backend — or sends it down the retry path if that backend
    /// is actually dead.
    #[allow(clippy::too_many_arguments)]
    fn dispatch(
        &mut self,
        now: u64,
        entry: usize,
        weight: f64,
        source: Source,
        job_id: u64,
        arrival: u64,
        attempt: u32,
        coin: &mut StdRng,
    ) {
        let view = if self.board.is_stale() {
            NodeView::snapshots(self.config.graph, self.config.speeds, now, &self.board)
        } else {
            NodeView::live(
                self.config.graph,
                self.config.speeds,
                now,
                &self.outstanding,
                &self.free_at,
                &self.schedule.up,
                self.schedule.all_up(),
            )
        };
        let b = self.policy.route(entry, weight, &view, coin);
        if self.schedule.enabled() && !self.schedule.up[b] {
            // The signal lied (stale or lost probe): the job bounced off
            // a dead backend before service.
            self.reschedule(now, job_id, arrival, weight, source, attempt);
            return;
        }
        let start = self.free_at[b].max(now);
        let finish = start.saturating_add(service_ticks(weight, self.config.speeds.speed(b)));
        self.free_at[b] = finish;
        self.outstanding[b] += weight;
        let seq = self.reserve_seq();
        let queue = &mut self.queues[b];
        debug_assert!(
            queue.back().is_none_or(|last| last.finish == start),
            "a queued job starts when the one before it finishes"
        );
        queue.push_back(Queued {
            job_id,
            arrival,
            finish,
            seq,
            weight,
            source,
            attempt,
        });
        if queue.len() == 1 {
            // The job is the head: its completion goes on the heap now.
            // A job behind it waits for the head's completion to hand
            // over its heap slot (`take_top`).
            self.head_start[b] = start;
            self.heap.push(Reverse(Event {
                time: finish,
                seq,
                kind: EventKind::Completion { backend: b },
            }));
        }
    }

    /// Books one finished job: backend counters, the latency record, and
    /// the closed-loop user respawn.
    fn complete(&mut self, backend: usize, arrival: u64, weight: f64, source: Source, finish: u64) {
        // Clamp float cancellation so an emptied backend reads exactly
        // zero outstanding work (the finished job is already off its FIFO).
        self.outstanding[backend] = if self.queues[backend].is_empty() {
            0.0
        } else {
            self.outstanding[backend] - weight
        };
        self.jobs.push(JobRecord { arrival, finish });
        if let Source::Closed(user) = source {
            let think = self
                .config
                .traffic
                .closed
                .expect("a closed-loop job implies a closed-loop spec");
            self.submit_closed(user as usize, finish + to_ticks(think.think));
        }
    }

    /// A job bounced off a dead backend (misroute or eviction): schedule
    /// its next attempt, or fail it if the budget is spent. Failed jobs
    /// are counted, and a failed closed-loop job still releases its user
    /// (the user thinks, then submits fresh work).
    fn reschedule(
        &mut self,
        now: u64,
        job_id: u64,
        arrival: u64,
        weight: f64,
        source: Source,
        attempt: u32,
    ) {
        let next_attempt = attempt + 1;
        match self.config.retry {
            Some(retry) if next_attempt <= retry.max => {
                let axis = job_id * streams::serve::RETRY_ATTEMPT_STRIDE + u64::from(next_attempt);
                let mut coin = rng_for(self.config.policy_seed, axis, streams::serve::RETRY);
                // Equal jitter: half the exponential step is guaranteed,
                // half is scaled by the attempt's private coin.
                let jitter: f64 = coin.gen_range(0.0..1.0);
                let step = retry.base * (1u64 << (next_attempt - 1)) as f64;
                let delay = to_ticks(step * (0.5 + 0.5 * jitter)).max(1);
                self.retries_total += 1;
                self.retry_pending += 1;
                self.push(
                    now + delay,
                    EventKind::Retry(Box::new(RetryJob {
                        job_id,
                        arrival,
                        weight,
                        source,
                        attempt: next_attempt,
                        coin,
                    })),
                );
            }
            _ => {
                self.failed_jobs += 1;
                if let Source::Closed(user) = source {
                    let think = self
                        .config
                        .traffic
                        .closed
                        .expect("a closed-loop job implies a closed-loop spec");
                    self.submit_closed(user as usize, now + to_ticks(think.think));
                }
            }
        }
    }

    /// Takes the next event strictly before `boundary`: the smallest
    /// `(time, seq)` of the arrival FIFO's front, the phase-in FIFO's
    /// front and the heap's top.
    fn next_event(&mut self, boundary: u64) -> Option<Event> {
        // An empty source reads as past every boundary.
        const NONE: u128 = u128::MAX;
        let arrival = self.arrivals.front().map_or(NONE, Event::key);
        let phase_in = self.phase_ins.front().map_or(NONE, PhaseIn::key);
        let top = self.heap.peek().map_or(NONE, |Reverse(event)| event.key());
        let next = arrival.min(phase_in).min(top);
        if next >> 64 >= u128::from(boundary) {
            return None;
        }
        if next == arrival {
            self.arrivals.pop_front()
        } else if next == phase_in {
            let PhaseIn { time, seq, user } = self.phase_ins.pop_front()?;
            Some(Event {
                time,
                seq: u64::from(seq),
                kind: EventKind::Closed {
                    user: user as usize,
                },
            })
        } else {
            self.take_top()
        }
    }

    /// Takes the heap's top. A live completion with a job queued behind
    /// the head hands its slot to that job's completion, under the
    /// `(finish, seq)` the job reserved at admission: one sift instead
    /// of a pop and a push, and the same heap after [`Loop::handle`]
    /// pops the finished head.
    fn take_top(&mut self) -> Option<Event> {
        let mut top = self.heap.peek_mut()?;
        let Reverse(event) = &*top;
        if let EventKind::Completion { backend } = event.kind {
            let queue = &self.queues[backend];
            if let (Some(head), Some(next)) = (queue.front(), queue.get(1)) {
                if head.seq == event.seq {
                    let finished = Event {
                        time: event.time,
                        seq: event.seq,
                        kind: EventKind::Completion { backend },
                    };
                    // Dropping `top` sifts the rekeyed entry down.
                    let Reverse(slot) = &mut *top;
                    (slot.time, slot.seq) = (next.finish, next.seq);
                    return Some(finished);
                }
            }
        }
        Some(PeekMut::pop(top).0)
    }

    /// Handles every event strictly before `boundary`.
    fn process_until(&mut self, boundary: u64) {
        while let Some(event) = self.next_event(boundary) {
            self.handle(event);
        }
    }

    fn handle(&mut self, event: Event) {
        match event.kind {
            EventKind::Open { entry, weight } => {
                self.submit(event.time, entry as usize, weight, Source::Open);
            }
            EventKind::Closed { user } => {
                let n = self.config.graph.node_count();
                let rng = &mut self.user_rngs[user];
                let entry = rng.gen_range(0..n);
                let weight = self.config.weights.sample(1, rng)[0];
                let user = u32::try_from(user)
                    .expect("closed-loop populations stay below 2^24 users, so an index fits u32");
                self.submit(event.time, entry, weight, Source::Closed(user));
            }
            EventKind::Completion { backend } => {
                if self.queues[backend].front().map(|head| head.seq) != Some(event.seq) {
                    // A crash evicted the job after this was scheduled;
                    // it already went down the retry path.
                    return;
                }
                let job = self.queues[backend]
                    .pop_front()
                    .expect("a live completion implies a queued job");
                debug_assert_eq!(job.finish, event.time);
                self.busy_ticks[backend] += job.finish.min(self.horizon_ticks)
                    - self.head_start[backend].min(self.horizon_ticks);
                // The next head, if any, starts now; `take_top` already
                // put its completion in this one's heap slot.
                self.head_start[backend] = job.finish;
                self.complete(backend, job.arrival, job.weight, job.source, event.time);
            }
            EventKind::Crash { backend } => {
                let recover_at = self.schedule.crash(backend, event.time);
                // Drain through a taken queue so the backend keeps its
                // buffer while `reschedule` borrows the loop.
                let mut evicted = std::mem::take(&mut self.queues[backend]);
                if !evicted.is_empty() {
                    // The head's partial work still occupied the backend
                    // (nothing, if it was admitted at this tick).
                    let start = self.head_start[backend];
                    debug_assert!(start <= event.time, "the head started by now");
                    self.busy_ticks[backend] +=
                        event.time.min(self.horizon_ticks) - start.min(self.horizon_ticks);
                }
                self.outstanding[backend] = 0.0;
                self.free_at[backend] = event.time;
                for job in evicted.drain(..) {
                    self.reschedule(
                        event.time,
                        job.job_id,
                        job.arrival,
                        job.weight,
                        job.source,
                        job.attempt,
                    );
                }
                self.queues[backend] = evicted;
                self.push(recover_at, EventKind::Recover { backend });
            }
            EventKind::Recover { backend } => {
                self.free_at[backend] = event.time;
                if let Some(next_crash) = self.schedule.recover(backend, event.time) {
                    self.push(next_crash, EventKind::Crash { backend });
                }
            }
            EventKind::Probe { epoch } => {
                self.board.probe(
                    epoch,
                    event.time,
                    &self.outstanding,
                    &self.free_at,
                    &self.schedule.up,
                );
                let next = event.time + self.board.stale_ticks;
                if next <= self.horizon_ticks {
                    self.push(next, EventKind::Probe { epoch: epoch + 1 });
                }
            }
            EventKind::Retry(job) => {
                let RetryJob {
                    job_id,
                    arrival,
                    weight,
                    source,
                    attempt,
                    mut coin,
                } = *job;
                self.retry_pending -= 1;
                // A retried job re-enters anywhere: fresh entry node from
                // the attempt's own stream.
                let entry = coin.gen_range(0..self.config.graph.node_count());
                self.dispatch(
                    event.time, entry, weight, source, job_id, arrival, attempt, &mut coin,
                );
            }
        }
    }
}

/// Runs one policy over one scenario to completion (horizon plus drain).
///
/// # Panics
///
/// Panics if the config has no backends, no traffic, a zero horizon, or a
/// horizon whose ticks overflow `u64`.
pub fn run(config: &ServeConfig<'_>, kind: PolicyKind) -> ServeOutcome {
    let n = config.graph.node_count();
    assert!(n > 0, "serve needs at least one backend");
    assert!(!config.traffic.is_empty(), "serve needs a traffic source");
    assert!(config.horizon > 0, "serve needs a positive horizon");

    let mut state = Loop::new(config, kind);

    // Generate each slot's arrivals lazily, then drain past the horizon.
    // A run whose slots cannot draw a job goes to the horizon in one
    // pass: the slots would add nothing between their boundaries.
    if config
        .traffic
        .open
        .is_some_and(|open| slots_can_draw(open.rate))
    {
        for slot in 0..config.horizon {
            state.push_open_arrivals(slot);
            state.process_until((slot + 1) * TICKS_PER_UNIT);
        }
    } else {
        state.process_until(state.horizon_ticks);
    }
    let in_flight_at_horizon: Vec<u64> = state.queues.iter().map(|q| q.len() as u64).collect();
    let outstanding_at_horizon = state.outstanding.clone();
    let alive_at_horizon = state.schedule.up.clone();
    let completed_at_horizon = state.jobs.len() as u64;
    let failed_at_horizon = state.failed_jobs;
    let retrying_at_horizon = state.retry_pending;
    // Conservation at the horizon: every offered job is completed,
    // failed, queued on a backend, or waiting out a retry backoff.
    debug_assert_eq!(
        state.jobs_offered,
        completed_at_horizon
            + failed_at_horizon
            + in_flight_at_horizon.iter().sum::<u64>()
            + retrying_at_horizon,
    );
    state.process_until(u64::MAX);
    // Conservation at the drain: completed plus failed, nothing pending.
    debug_assert_eq!(
        state.jobs.len() as u64 + state.failed_jobs,
        state.jobs_offered
    );
    debug_assert_eq!(state.retry_pending, 0);
    debug_assert!(state.queues.iter().all(|q| q.is_empty()));

    let unit_weights = vec![1.0; n];
    let loads: Vec<f64> = outstanding_at_horizon
        .iter()
        .enumerate()
        .map(|(b, &w)| w / config.speeds.speed(b))
        .collect();
    let occupied: Vec<bool> = in_flight_at_horizon.iter().map(|&c| c > 0).collect();
    let nash_gap_at_horizon = nash_gap_loads(
        config.graph,
        config.speeds,
        &loads,
        &unit_weights,
        &occupied,
    );

    // The live gap: dead backends are no target (infinite load keeps
    // every improvement negative) and no source (unoccupied).
    let loads_live: Vec<f64> = loads
        .iter()
        .zip(&alive_at_horizon)
        .map(|(&l, &alive)| if alive { l } else { f64::INFINITY })
        .collect();
    let occupied_live: Vec<bool> = occupied
        .iter()
        .zip(&alive_at_horizon)
        .map(|(&o, &alive)| o && alive)
        .collect();
    let nash_gap_live_at_horizon = nash_gap_loads(
        config.graph,
        config.speeds,
        &loads_live,
        &unit_weights,
        &occupied_live,
    );

    ServeOutcome {
        jobs_offered: state.jobs_offered,
        jobs: state.jobs,
        failed_jobs: state.failed_jobs,
        retries_total: state.retries_total,
        availability: state.schedule.availability(),
        busy_ticks: state.busy_ticks,
        in_flight_at_horizon,
        outstanding_at_horizon,
        alive_at_horizon,
        completed_at_horizon,
        failed_at_horizon,
        retrying_at_horizon,
        nash_gap_at_horizon,
        nash_gap_live_at_horizon,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slb_graphs::generators::Family;
    use slb_workloads::faults::{parse_faults, parse_retry, parse_signal};
    use slb_workloads::traffic::{parse_closed, parse_traffic};

    fn config<'a>(
        graph: &'a Graph,
        speeds: &'a SpeedVector,
        traffic: TrafficSpec,
        horizon: u64,
    ) -> ServeConfig<'a> {
        ServeConfig {
            graph,
            speeds,
            traffic,
            weights: WeightDistribution::Unit,
            faults: None,
            signal: SignalSpec::default(),
            retry: None,
            horizon,
            scenario_seed: 7,
            policy_seed: 11,
        }
    }

    fn degraded<'a>(
        graph: &'a Graph,
        speeds: &'a SpeedVector,
        traffic: TrafficSpec,
        horizon: u64,
    ) -> ServeConfig<'a> {
        ServeConfig {
            faults: parse_faults("crash:6:2").expect("valid faults"),
            signal: parse_signal("stale:0.5+loss:0.1").expect("valid signal"),
            retry: parse_retry("max:3:base:0.25").expect("valid retry"),
            ..config(graph, speeds, traffic, horizon)
        }
    }

    fn open_traffic(rate: &str) -> TrafficSpec {
        TrafficSpec {
            open: parse_traffic(rate).expect("valid traffic token"),
            closed: None,
        }
    }

    #[test]
    fn runs_are_reproducible_and_complete_every_job() {
        let graph = Family::Ring { n: 8 }.build();
        let speeds = SpeedVector::uniform(8);
        let cfg = config(&graph, &speeds, open_traffic("poisson:4"), 50);
        for kind in PolicyKind::ALL {
            let a = run(&cfg, kind);
            let b = run(&cfg, kind);
            assert_eq!(a.jobs_offered, b.jobs_offered);
            assert_eq!(a.jobs, b.jobs);
            assert_eq!(a.busy_ticks, b.busy_ticks);
            assert_eq!(a.jobs.len() as u64, a.jobs_offered, "{}", kind.label());
            assert!(a.jobs_offered > 0);
            assert_eq!(a.failed_jobs, 0, "no faults, no failures");
            assert_eq!(a.retries_total, 0);
            assert_eq!(a.availability, 1.0);
            assert_eq!(a.nash_gap_at_horizon, a.nash_gap_live_at_horizon);
            assert!(a.alive_at_horizon.iter().all(|&u| u));
            for job in &a.jobs {
                assert!(job.finish > job.arrival);
            }
        }
    }

    #[test]
    fn policies_share_the_open_loop_job_stream() {
        let graph = Family::Ring { n: 8 }.build();
        let speeds = SpeedVector::uniform(8);
        let cfg = config(&graph, &speeds, open_traffic("poisson:3"), 40);
        let offered: Vec<u64> = PolicyKind::ALL
            .iter()
            .map(|&kind| run(&cfg, kind).jobs_offered)
            .collect();
        assert!(
            offered.windows(2).all(|w| w[0] == w[1]),
            "open-loop offered load must not depend on the policy: {offered:?}"
        );
    }

    #[test]
    fn closed_loop_bounds_concurrency() {
        let graph = Family::Complete { n: 4 }.build();
        let speeds = SpeedVector::uniform(4);
        let traffic = TrafficSpec {
            open: None,
            closed: parse_closed("3:0.5").expect("valid closed token"),
        };
        let cfg = config(&graph, &speeds, traffic, 30);
        let outcome = run(&cfg, PolicyKind::GreedyLeastLoaded);
        assert!(outcome.jobs_offered > 3, "users resubmit after thinking");
        // At most `users` closed-loop jobs can ever overlap; verify via
        // a sweep over the completion records.
        let mut events: Vec<(u64, i64)> = Vec::new();
        for job in &outcome.jobs {
            events.push((job.arrival, 1));
            events.push((job.finish, -1));
        }
        events.sort_unstable();
        let mut live = 0i64;
        let mut peak = 0i64;
        for (_, delta) in events {
            live += delta;
            peak = peak.max(live);
        }
        assert!(peak <= 3, "closed loop exceeded its population: {peak}");
    }

    #[test]
    fn greedy_on_uniform_speeds_balances_utilization() {
        let graph = Family::Ring { n: 4 }.build();
        let speeds = SpeedVector::uniform(4);
        let cfg = config(&graph, &speeds, open_traffic("poisson:3"), 80);
        let outcome = run(&cfg, PolicyKind::GreedyLeastLoaded);
        let min = outcome.busy_ticks.iter().min().copied().unwrap_or(0);
        let max = outcome.busy_ticks.iter().max().copied().unwrap_or(0);
        assert!(min > 0, "every backend should see work");
        assert!(
            (max - min) as f64 / max as f64 <= 0.5,
            "greedy spread too uneven: {:?}",
            outcome.busy_ticks
        );
    }

    #[test]
    fn overload_shows_up_in_the_nash_gap_and_backlog() {
        // A ring of slow backends at 4× their capacity: round-robin ends
        // the horizon with work outstanding everywhere.
        let graph = Family::Ring { n: 4 }.build();
        let speeds = SpeedVector::uniform(4);
        let cfg = config(&graph, &speeds, open_traffic("poisson:16"), 20);
        let outcome = run(&cfg, PolicyKind::RoundRobin);
        let backlog: f64 = outcome.outstanding_at_horizon.iter().sum();
        assert!(backlog > 0.0, "4× overload must leave a backlog");
        assert!(outcome.nash_gap_at_horizon >= 0.0);
        assert!(outcome.in_flight_at_horizon.iter().any(|&c| c > 0));
    }

    #[test]
    fn faulty_runs_conserve_jobs_and_stay_reproducible() {
        let graph = Family::Ring { n: 8 }.build();
        let speeds = SpeedVector::uniform(8);
        let traffic = TrafficSpec {
            open: parse_traffic("poisson:4").expect("valid traffic"),
            closed: parse_closed("2:1.0").expect("valid closed"),
        };
        for kind in PolicyKind::ALL {
            let cfg = degraded(&graph, &speeds, traffic, 40);
            let a = run(&cfg, kind);
            let b = run(&cfg, kind);
            assert_eq!(a.jobs, b.jobs, "{}", kind.label());
            assert_eq!(a.failed_jobs, b.failed_jobs);
            assert_eq!(a.retries_total, b.retries_total);
            // Conservation after the drain: completed plus failed is
            // exactly the offered load — nothing silently dropped.
            assert_eq!(
                a.jobs.len() as u64 + a.failed_jobs,
                a.jobs_offered,
                "{} lost jobs",
                kind.label()
            );
            // Conservation at the horizon: offered splits into the four
            // visible states.
            assert_eq!(
                a.jobs_offered,
                a.completed_at_horizon
                    + a.failed_at_horizon
                    + a.in_flight_at_horizon.iter().sum::<u64>()
                    + a.retrying_at_horizon,
                "{} conservation at horizon",
                kind.label()
            );
            assert!(a.availability < 1.0, "mttf 6 over 40 units must crash");
            assert!(a.availability > 0.0);
            assert!(a.nash_gap_live_at_horizon >= 0.0);
        }
    }

    #[test]
    fn without_retry_every_fault_hit_job_fails() {
        let graph = Family::Ring { n: 4 }.build();
        let speeds = SpeedVector::uniform(4);
        let mut cfg = config(&graph, &speeds, open_traffic("poisson:6"), 60);
        cfg.faults = parse_faults("crash:3:2").expect("valid faults");
        let outcome = run(&cfg, PolicyKind::RoundRobin);
        assert_eq!(outcome.retries_total, 0);
        assert!(outcome.failed_jobs > 0, "mttf 3 over 60 units must evict");
        assert_eq!(
            outcome.jobs.len() as u64 + outcome.failed_jobs,
            outcome.jobs_offered
        );
        assert!(outcome.availability < 1.0);
    }

    #[test]
    fn retries_rescue_jobs_that_would_otherwise_fail() {
        let graph = Family::Ring { n: 4 }.build();
        let speeds = SpeedVector::uniform(4);
        let mut without = config(&graph, &speeds, open_traffic("poisson:6"), 60);
        without.faults = parse_faults("crash:3:2").expect("valid faults");
        let mut with = config(&graph, &speeds, open_traffic("poisson:6"), 60);
        with.faults = parse_faults("crash:3:2").expect("valid faults");
        with.retry = parse_retry("max:5:base:0.1").expect("valid retry");
        let dropped = run(&without, PolicyKind::GreedyLeastLoaded);
        let retried = run(&with, PolicyKind::GreedyLeastLoaded);
        assert!(retried.retries_total > 0, "faults must trigger retries");
        assert!(
            retried.failed_jobs < dropped.failed_jobs,
            "retries should rescue jobs: {} vs {}",
            retried.failed_jobs,
            dropped.failed_jobs
        );
        // Identical scenario seed, identical fault timeline.
        assert_eq!(dropped.availability, retried.availability);
    }

    #[test]
    fn stale_signals_degrade_greedy_routing() {
        // Fresh greedy balances a ring; a 5-unit-stale view makes it
        // dogpile whichever backend looked empty at the last probe.
        let graph = Family::Ring { n: 4 }.build();
        let speeds = SpeedVector::uniform(4);
        let fresh_cfg = config(&graph, &speeds, open_traffic("poisson:6"), 40);
        let mut stale_cfg = config(&graph, &speeds, open_traffic("poisson:6"), 40);
        stale_cfg.signal = parse_signal("stale:5").expect("valid signal");
        let fresh = run(&fresh_cfg, PolicyKind::GreedyLeastLoaded);
        let stale = run(&stale_cfg, PolicyKind::GreedyLeastLoaded);
        assert_eq!(fresh.jobs_offered, stale.jobs_offered);
        let spread = |o: &ServeOutcome| {
            let min = o.busy_ticks.iter().min().copied().unwrap_or(0);
            let max = o.busy_ticks.iter().max().copied().unwrap_or(0);
            max - min
        };
        assert!(
            spread(&stale) > spread(&fresh),
            "staleness should unbalance greedy: {:?} vs {:?}",
            stale.busy_ticks,
            fresh.busy_ticks
        );
    }

    #[test]
    fn degraded_signals_without_faults_lose_no_jobs() {
        // Staleness and probe loss alone (all backends alive) must not
        // create failures — only worse decisions.
        let graph = Family::Ring { n: 8 }.build();
        let speeds = SpeedVector::uniform(8);
        let mut cfg = config(&graph, &speeds, open_traffic("poisson:4"), 30);
        cfg.signal = parse_signal("stale:2+loss:0.3").expect("valid signal");
        for kind in PolicyKind::ALL {
            let outcome = run(&cfg, kind);
            assert_eq!(outcome.failed_jobs, 0, "{}", kind.label());
            assert_eq!(outcome.jobs.len() as u64, outcome.jobs_offered);
        }
    }

    /// `(time, seq, kind)` of an event, for order checks.
    fn label(event: &Event) -> (u64, u64, &'static str) {
        let kind = match event.kind {
            EventKind::Open { .. } => "arrival",
            EventKind::Closed { .. } => "closed",
            EventKind::Completion { .. } => "completion",
            EventKind::Crash { .. } => "crash",
            EventKind::Recover { .. } => "recover",
            EventKind::Probe { .. } => "probe",
            EventKind::Retry(_) => "retry",
        };
        (event.time, event.seq, kind)
    }

    /// Appends an open-loop arrival at `time` to the arrival FIFO, taking
    /// the next sequence number.
    fn fifo_arrival(state: &mut Loop<'_>, time: u64) {
        let seq = state.reserve_seq();
        state.arrivals.push_back(Event {
            time,
            seq,
            kind: EventKind::Open {
                entry: 0,
                weight: 1.0,
            },
        });
    }

    /// Appends closed-loop user `user`'s phase-in at `time` to the
    /// phase-in FIFO, taking the next sequence number.
    fn phase_in(state: &mut Loop<'_>, time: u64, user: u32) {
        let seq = u32::try_from(state.reserve_seq()).expect("a test takes few seqs");
        state.phase_ins.push_back(PhaseIn { time, seq, user });
    }

    /// Runs `state` the way [`run`] does, slot by slot when `per_slot`
    /// (else to the horizon in one pass), then drains; calls `inspect`
    /// with each event before handling it and with the loop after.
    fn drive(
        state: &mut Loop<'_>,
        per_slot: bool,
        mut inspect: impl FnMut(Option<&Event>, &Loop<'_>),
    ) {
        let horizon = state.config.horizon;
        let mut run_to = |state: &mut Loop<'_>, boundary: u64| {
            while let Some(event) = state.next_event(boundary) {
                inspect(Some(&event), state);
                state.handle(event);
                inspect(None, state);
            }
        };
        if per_slot {
            for slot in 0..horizon {
                state.push_open_arrivals(slot);
                run_to(state, (slot + 1) * TICKS_PER_UNIT);
            }
        } else {
            run_to(state, horizon * TICKS_PER_UNIT);
        }
        run_to(state, u64::MAX);
    }

    #[test]
    fn events_at_a_shared_tick_fire_in_seq_order() {
        // Unit jobs on unit speeds take exactly one unit of service, and
        // probes refresh every half unit, so a probe, a completion,
        // closed-loop phase-ins and arrivals from the arrival FIFO and
        // from the heap all meet at tick T.
        let graph = Family::Ring { n: 4 }.build();
        let speeds = SpeedVector::uniform(4);
        let traffic = TrafficSpec {
            open: parse_traffic("poisson:1").expect("valid traffic"),
            closed: parse_closed("2:1.0").expect("valid closed"),
        };
        let mut cfg = config(&graph, &speeds, traffic, 4);
        cfg.signal = parse_signal("stale:0.5").expect("valid signal");
        let t = TICKS_PER_UNIT;
        let mut state = Loop::new(&cfg, PolicyKind::RoundRobin);
        // The probe at tick 0 took seq 0 and the two users' drawn
        // phase-ins seqs 1 and 2; the test places its own phase-ins.
        state.phase_ins.clear();
        // The probe at tick 0 schedules the next one (seq 3).
        state.process_until(1);
        fifo_arrival(&mut state, t); // seq 4
        phase_in(&mut state, t, 0); // seq 5
        state.push(
            t,
            EventKind::Open {
                entry: 0,
                weight: 1.0,
            },
        ); // seq 6, from the heap
        fifo_arrival(&mut state, t); // seq 7
        phase_in(&mut state, t, 1); // seq 8
        state.push(
            0,
            EventKind::Open {
                entry: 0,
                weight: 1.0,
            },
        ); // seq 9: admitted at tick 0, its completion (seq 10) lands at T
        let mut fired = Vec::new();
        let mut seen_at_t_probe = None;
        let mut handed_over = None;
        drive(&mut state, false, |event, state| match event {
            Some(event) => {
                if let (EventKind::Completion { backend }, true) = (&event.kind, event.time == t) {
                    // Taken, not yet handled: the job behind the head
                    // already holds the completion's heap slot.
                    let behind = &state.queues[*backend][1];
                    let key = (behind.finish, behind.seq);
                    let in_heap = state.heap.iter().any(|Reverse(e)| (e.time, e.seq) == key);
                    handed_over = Some((key, in_heap));
                }
                fired.push(label(event));
            }
            None => {
                if fired.last() == Some(&(t, 11, "probe")) {
                    seen_at_t_probe =
                        Some(state.board.stored().iter().map(|s| s.value).sum::<f64>());
                }
            }
        });
        assert!(
            fired
                .windows(2)
                .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)),
            "events left the (time, seq) order: {fired:?}"
        );
        let at_t: Vec<_> = fired.iter().filter(|e| e.0 == t).copied().collect();
        // The probe at T (seq 11) was pushed by the probe at T/2, after
        // the tick-0 admission had reserved the completion's seq 10.
        assert_eq!(
            at_t,
            vec![
                (t, 4, "arrival"),
                (t, 5, "closed"),
                (t, 6, "arrival"),
                (t, 7, "arrival"),
                (t, 8, "closed"),
                (t, 10, "completion"),
                (t, 11, "probe"),
            ]
        );
        // The probe saw the five admitted jobs, not the finished one.
        assert_eq!(seen_at_t_probe, Some(5.0));
        // Round-robin put the fourth job at T (admitted under seq 15)
        // behind the tick-0 job, so the completion at T handed its heap
        // slot to that job's completion, one unit later.
        assert_eq!(handed_over, Some(((2 * t, 15), true)));
        assert!(fired.contains(&(2 * t, 15, "completion")), "{fired:?}");
    }

    /// Checks that the heap holds exactly one live completion per
    /// backend with a non-empty FIFO, under the head's reserved
    /// `(finish, seq)`, none for an idle backend, and none for a queued
    /// job behind the head. Returns the number of stranded completions
    /// (their job was evicted by a crash).
    fn check_one_completion_per_backend(state: &Loop<'_>) -> usize {
        let mut live = vec![Vec::new(); state.queues.len()];
        let mut stranded = 0;
        for Reverse(event) in state.heap.iter() {
            if let EventKind::Completion { backend } = event.kind {
                let queue = &state.queues[backend];
                if queue.front().map(|head| head.seq) == Some(event.seq) {
                    live[backend].push((event.time, event.seq));
                } else {
                    assert!(
                        queue.iter().all(|job| job.seq != event.seq),
                        "backend {backend}: a job behind the head has its completion in the heap"
                    );
                    stranded += 1;
                }
            }
        }
        for (backend, queue) in state.queues.iter().enumerate() {
            let head: Vec<_> = queue
                .front()
                .map(|h| (h.finish, h.seq))
                .into_iter()
                .collect();
            assert_eq!(live[backend], head, "backend {backend}");
        }
        stranded
    }

    #[test]
    fn heap_and_queue_entries_stay_small() {
        // Every push and pop moves whole entries through the heap, so a
        // payload wider than 16 bytes costs every event; a deep backend
        // FIFO holds one entry per job in flight.
        assert_eq!(std::mem::size_of::<Event>(), 32);
        assert_eq!(std::mem::size_of::<PhaseIn>(), 16);
        assert_eq!(std::mem::size_of::<Queued>(), 56);
    }

    #[test]
    fn heap_holds_one_live_completion_per_backend() {
        let graph = Family::Ring { n: 8 }.build();
        let speeds = SpeedVector::uniform(8);
        let traffic = TrafficSpec {
            open: parse_traffic("poisson:12").expect("valid traffic"),
            closed: parse_closed("2:1.0").expect("valid closed"),
        };
        // Fault-free 1.5× overload builds deep queues; the degraded run
        // adds crashes that strand the evicted heads' completions.
        for (cfg, faulty) in [
            (config(&graph, &speeds, traffic, 30), false),
            (degraded(&graph, &speeds, traffic, 30), true),
        ] {
            for kind in PolicyKind::ALL {
                let mut state = Loop::new(&cfg, kind);
                let mut deepest = 0;
                let mut stranded = 0;
                drive(&mut state, true, |event, state| {
                    if event.is_none() {
                        stranded = stranded.max(check_one_completion_per_backend(state));
                        deepest =
                            deepest.max(state.queues.iter().map(VecDeque::len).max().unwrap_or(0));
                    }
                });
                assert!(deepest > 3, "{}: queues stayed shallow", kind.label());
                assert_eq!(stranded > 0, faulty, "{}", kind.label());
                assert!(state.heap.is_empty() && state.arrivals.is_empty());
                assert_eq!(
                    state.jobs.len() as u64 + state.failed_jobs,
                    state.jobs_offered
                );
            }
        }
    }

    /// FNV-1a over every field of `outcome`, floats by their bits.
    fn digest(outcome: &ServeOutcome, mut hash: u64) -> u64 {
        let mut words = vec![
            outcome.jobs_offered,
            outcome.failed_jobs,
            outcome.retries_total,
            outcome.availability.to_bits(),
            outcome.completed_at_horizon,
            outcome.failed_at_horizon,
            outcome.retrying_at_horizon,
            outcome.nash_gap_at_horizon.to_bits(),
            outcome.nash_gap_live_at_horizon.to_bits(),
        ];
        words.extend(outcome.jobs.iter().flat_map(|j| [j.arrival, j.finish]));
        words.extend(&outcome.busy_ticks);
        words.extend(&outcome.in_flight_at_horizon);
        words.extend(outcome.outstanding_at_horizon.iter().map(|w| w.to_bits()));
        words.extend(outcome.alive_at_horizon.iter().map(|&up| u64::from(up)));
        for word in words {
            for byte in word.to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        hash
    }

    #[test]
    fn closed_loop_heavy_degraded_runs_keep_their_outcome() {
        // Many closed-loop users next to a light open stream, with
        // crashes, stale lossy probes and retries: phase-ins, respawns,
        // retries and completions interleave at every tick. The digest
        // pins every field of every policy's outcome.
        let graph = Family::Ring { n: 8 }.build();
        let speeds =
            SpeedVector::new((0..8).map(|b| [1.0, 2.0][b % 2]).collect()).expect("valid speeds");
        let traffic = TrafficSpec {
            open: parse_traffic("poisson:2").expect("valid traffic"),
            closed: parse_closed("48:0.5").expect("valid closed"),
        };
        let cfg = ServeConfig {
            weights: WeightDistribution::UniformRange { lo: 0.5, hi: 1.0 },
            signal: parse_signal("stale:0.5+loss:0.2").expect("valid signal"),
            ..degraded(&graph, &speeds, traffic, 40)
        };
        let mut hash = 0xcbf2_9ce4_8422_2325;
        for kind in PolicyKind::ALL {
            let outcome = run(&cfg, kind);
            assert!(outcome.retries_total > 0, "{}", kind.label());
            assert!(outcome.availability < 1.0);
            hash = digest(&outcome, hash);
        }
        assert_eq!(hash, 18_020_863_662_824_991_103);
    }

    #[test]
    fn slots_that_cannot_draw_are_skipped_without_changing_the_run() {
        // `e^{-1e-320}` rounds to 1: no slot can draw a job.
        assert!(!slots_can_draw(1e-320));
        assert!(slots_can_draw(1e-15));
        let graph = Family::Ring { n: 4 }.build();
        let speeds = SpeedVector::uniform(4);
        let traffic = TrafficSpec {
            open: parse_traffic("poisson:1e-320").expect("valid traffic"),
            closed: parse_closed("3:0.5").expect("valid closed"),
        };
        let cfg = degraded(&graph, &speeds, traffic, 40);
        for kind in PolicyKind::ALL {
            let outcomes: Vec<_> = [true, false]
                .into_iter()
                .map(|per_slot| {
                    let mut state = Loop::new(&cfg, kind);
                    let mut fired = Vec::new();
                    drive(&mut state, per_slot, |event, _| {
                        fired.extend(event.map(label))
                    });
                    (fired, state.jobs, state.busy_ticks, state.failed_jobs)
                })
                .collect();
            assert!(!outcomes[0].1.is_empty(), "closed-loop users submit");
            assert!(
                outcomes[0] == outcomes[1],
                "{}: skipping slots changed the run",
                kind.label()
            );
        }
        let outcome = run(&cfg, PolicyKind::Alg1);
        assert_eq!(
            outcome.jobs.len() as u64 + outcome.failed_jobs,
            outcome.jobs_offered
        );
    }
}
