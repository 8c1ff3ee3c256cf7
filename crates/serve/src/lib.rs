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
//! unit of load), advanced only by a binary event heap ordered by
//! `(tick, sequence number)`. No wall clock exists anywhere (clippy
//! rejects `Instant` and `SystemTime` in every crate under `crates/`),
//! so a run is a pure function of its seeds:
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
use slb_core::engine::sampling::sample_poisson;
use slb_core::equilibrium::nash_gap_loads;
use slb_core::model::SpeedVector;
use slb_core::rng::{rng_for, streams};
use slb_graphs::Graph;
use slb_workloads::faults::{FaultSpec, RetrySpec, SignalSpec};
use slb_workloads::weights::WeightDistribution;
use slb_workloads::TrafficSpec;
use std::cmp::Reverse;
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

/// Where a job came from (closed-loop jobs respawn their user).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    Open,
    Closed(usize),
}

/// One job sitting in a backend's FIFO (admitted, not yet completed).
struct Queued {
    job_id: u64,
    arrival: u64,
    start: u64,
    finish: u64,
    weight: f64,
    source: Source,
    attempt: u32,
}

enum EventKind {
    Arrival {
        entry: usize,
        weight: f64,
        source: Source,
    },
    /// The front of `backend`'s FIFO finishes — if the epoch still
    /// matches; a crash bumps the epoch and strands these events.
    Completion {
        backend: usize,
        epoch: u64,
    },
    /// Faults-off completion: no crash can evict or strand it, so it
    /// carries its payload inline and the job skips the backend FIFO
    /// entirely — the hot path when the fault schedule is disabled.
    DirectCompletion {
        backend: usize,
        arrival: u64,
        weight: f64,
        source: Source,
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

/// Heap entry: ordered by `(time, seq)` so simultaneous events fire in
/// insertion order — a total, deterministic order.
struct Event {
    time: u64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
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
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// Converts a duration in units to ticks, rounding to nearest.
pub(crate) fn to_ticks(units: f64) -> u64 {
    (units * TICKS_PER_UNIT as f64).round() as u64
}

/// Service duration of a job of weight `w` on a backend of speed `s`:
/// `w/s` units, at least one tick so every job occupies its backend.
fn service_ticks(weight: f64, speed: f64) -> u64 {
    ((weight / speed) * TICKS_PER_UNIT as f64).ceil().max(1.0) as u64
}

struct Loop<'a> {
    config: &'a ServeConfig<'a>,
    policy: Box<dyn RoutePolicy + Send>,
    heap: BinaryHeap<Reverse<Event>>,
    next_seq: u64,
    next_job: u64,
    horizon_ticks: u64,
    // Per-backend state.
    free_at: Vec<u64>,
    in_flight: Vec<u64>,
    outstanding: Vec<f64>,
    busy_ticks: Vec<u64>,
    queues: Vec<VecDeque<Queued>>,
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

impl Loop<'_> {
    fn push(&mut self, time: u64, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Event { time, seq, kind }));
    }

    /// Draws one closed-loop submission for `user` from its private
    /// stream and schedules it, unless it would start past the horizon.
    fn submit_closed(&mut self, user: usize, time: u64) {
        if time >= self.horizon_ticks {
            return;
        }
        let n = self.config.graph.node_count();
        let rng = &mut self.user_rngs[user];
        let entry = rng.gen_range(0..n);
        let weight = self.config.weights.sample(1, rng)[0];
        self.push(
            time,
            EventKind::Arrival {
                entry,
                weight,
                source: Source::Closed(user),
            },
        );
    }

    /// Generates slot `slot`'s open-loop arrivals from the slot's private
    /// stream: a Poisson count, then per job an offset within the slot,
    /// a weight, and an entry node.
    fn push_open_arrivals(&mut self, slot: u64) {
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
            let entry = rng.gen_range(0..n);
            self.push(
                base + off,
                EventKind::Arrival {
                    entry,
                    weight: weights[idx],
                    source: Source::Open,
                },
            );
        }
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
        self.in_flight[b] += 1;
        self.outstanding[b] += weight;
        if self.schedule.enabled() {
            self.queues[b].push_back(Queued {
                job_id,
                arrival,
                start,
                finish,
                weight,
                source,
                attempt,
            });
            self.push(
                finish,
                EventKind::Completion {
                    backend: b,
                    epoch: self.schedule.epoch[b],
                },
            );
        } else {
            // No crash can void this work: credit busy time at admission
            // and skip the FIFO round trip.
            self.busy_ticks[b] += finish.min(self.horizon_ticks) - start.min(self.horizon_ticks);
            self.push(
                finish,
                EventKind::DirectCompletion {
                    backend: b,
                    arrival,
                    weight,
                    source,
                },
            );
        }
    }

    /// Books one finished job: backend counters, the latency record, and
    /// the closed-loop user respawn.
    fn complete(&mut self, backend: usize, arrival: u64, weight: f64, source: Source, finish: u64) {
        self.in_flight[backend] -= 1;
        // Clamp float cancellation so an emptied backend reads exactly
        // zero outstanding work.
        self.outstanding[backend] = if self.in_flight[backend] == 0 {
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
            self.submit_closed(user, finish + to_ticks(think.think));
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
                    self.submit_closed(user, now + to_ticks(think.think));
                }
            }
        }
    }

    /// Pops and handles every event strictly before `boundary`.
    fn process_until(&mut self, boundary: u64) {
        while let Some(Reverse(head)) = self.heap.peek() {
            if head.time >= boundary {
                return;
            }
            let Some(Reverse(event)) = self.heap.pop() else {
                return;
            };
            match event.kind {
                EventKind::Arrival {
                    entry,
                    weight,
                    source,
                } => {
                    let job_id = self.next_job;
                    self.next_job += 1;
                    self.jobs_offered += 1;
                    let mut coin = rng_for(self.config.policy_seed, job_id, streams::serve::POLICY);
                    self.dispatch(
                        event.time, entry, weight, source, job_id, event.time, 0, &mut coin,
                    );
                }
                EventKind::Completion { backend, epoch } => {
                    if epoch != self.schedule.epoch[backend] {
                        // The backend crashed after this was scheduled;
                        // the job already went down the retry path.
                        continue;
                    }
                    let job = self.queues[backend]
                        .pop_front()
                        .expect("a live completion implies a queued job");
                    debug_assert_eq!(job.finish, event.time);
                    self.busy_ticks[backend] +=
                        job.finish.min(self.horizon_ticks) - job.start.min(self.horizon_ticks);
                    self.complete(backend, job.arrival, job.weight, job.source, event.time);
                }
                EventKind::DirectCompletion {
                    backend,
                    arrival,
                    weight,
                    source,
                } => {
                    // Busy time was credited at admission.
                    self.complete(backend, arrival, weight, source, event.time);
                }
                EventKind::Crash { backend } => {
                    let recover_at = self.schedule.crash(backend, event.time);
                    let evicted: Vec<Queued> = self.queues[backend].drain(..).collect();
                    self.in_flight[backend] = 0;
                    self.outstanding[backend] = 0.0;
                    self.free_at[backend] = event.time;
                    for job in evicted {
                        if job.start < event.time {
                            // The in-service job's partial work still
                            // occupied the backend.
                            self.busy_ticks[backend] += event.time.min(self.horizon_ticks)
                                - job.start.min(self.horizon_ticks);
                        }
                        self.reschedule(
                            event.time,
                            job.job_id,
                            job.arrival,
                            job.weight,
                            job.source,
                            job.attempt,
                        );
                    }
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
                    // A retried job re-enters anywhere: fresh entry node
                    // from the attempt's own stream.
                    let entry = coin.gen_range(0..self.config.graph.node_count());
                    self.dispatch(
                        event.time, entry, weight, source, job_id, arrival, attempt, &mut coin,
                    );
                }
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

    let horizon_ticks = config
        .horizon
        .checked_mul(TICKS_PER_UNIT)
        .expect("the horizon fits the tick clock: at most u64::MAX / TICKS_PER_UNIT units");
    let users = config.traffic.closed.map_or(0, |c| c.users);
    let mut state = Loop {
        config,
        policy: kind.instantiate(config.speeds),
        heap: BinaryHeap::new(),
        next_seq: 0,
        next_job: 0,
        horizon_ticks,
        free_at: vec![0; n],
        in_flight: vec![0; n],
        outstanding: vec![0.0; n],
        busy_ticks: vec![0; n],
        queues: (0..n).map(|_| VecDeque::new()).collect(),
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

    // Degradation events seed the heap first: the initial probe observes
    // tick 0 before any arrival routes on it.
    if state.board.is_stale() {
        state.push(0, EventKind::Probe { epoch: 0 });
    }
    for (backend, tick) in state.schedule.initial_crash_ticks() {
        state.push(tick, EventKind::Crash { backend });
    }

    // Closed-loop users phase in uniformly over their first think window.
    if let Some(closed) = config.traffic.closed {
        for user in 0..closed.users {
            let phase: f64 = state.user_rngs[user].gen_range(0.0..closed.think);
            state.submit_closed(user, to_ticks(phase));
        }
    }

    // Generate each slot's arrivals lazily, then drain past the horizon.
    for slot in 0..config.horizon {
        state.push_open_arrivals(slot);
        state.process_until((slot + 1) * TICKS_PER_UNIT);
    }
    let in_flight_at_horizon = state.in_flight.clone();
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
}
