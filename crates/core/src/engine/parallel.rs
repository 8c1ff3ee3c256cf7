//! Deterministic multithreaded execution of the per-task protocol
//! [`Selfish`].
//!
//! The protocols are "concurrent" in the paper's sense: within a round,
//! every task decides independently against the round-start snapshot. That
//! independence is exactly what makes the decision phase parallelizable.
//! [`ParallelSimulation`] partitions the task range into fixed-size chunks,
//! seeds every chunk's generator from `(master seed, round, chunk index)`
//! (see [`crate::rng`]), and fans the chunks out over a thread pool built
//! with `crossbeam::thread::scope`.
//!
//! Because chunk seeds do not depend on the thread count, the resulting
//! trajectory is a pure function of `(seed, chunk_size)` — run it on 1
//! thread or 16 and you get the same states. The test suite pins this down
//! by comparing against a sequential execution of the same chunk schedule.

use crate::model::{Move, System, TaskState};
use crate::protocol::{commit, RoundReport, Selfish, Snapshot};
use crate::rng::rng_for;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Default number of tasks per decision chunk.
pub const DEFAULT_CHUNK_SIZE: usize = 4096;

/// A multithreaded, deterministic simulation of a [`Selfish`] protocol.
#[derive(Debug)]
pub struct ParallelSimulation<'a> {
    system: &'a System,
    protocol: Selfish,
    state: TaskState,
    master_seed: u64,
    round: u64,
    chunk_size: usize,
    threads: usize,
}

impl<'a> ParallelSimulation<'a> {
    /// Creates a parallel simulation with the default chunk size and as
    /// many worker threads as available parallelism (at least 1).
    pub fn new(system: &'a System, protocol: Selfish, state: TaskState, seed: u64) -> Self {
        let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
        Self::with_layout(system, protocol, state, seed, DEFAULT_CHUNK_SIZE, threads)
    }

    /// Creates a parallel simulation with explicit chunk size and thread
    /// count.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size == 0` or `threads == 0`.
    pub fn with_layout(
        system: &'a System,
        protocol: Selfish,
        state: TaskState,
        seed: u64,
        chunk_size: usize,
        threads: usize,
    ) -> Self {
        assert!(chunk_size > 0, "chunk size must be positive");
        assert!(threads > 0, "thread count must be positive");
        ParallelSimulation {
            system,
            protocol,
            state,
            master_seed: seed,
            round: 0,
            chunk_size,
            threads,
        }
    }

    /// The current state.
    pub fn state(&self) -> &TaskState {
        &self.state
    }

    /// Consumes the simulation, returning the final state.
    pub fn into_state(self) -> TaskState {
        self.state
    }

    /// Rounds executed so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Executes one round: parallel decision phase, then a serial commit.
    pub fn step(&mut self) -> RoundReport {
        let snapshot = Snapshot::capture(self.system, &self.state);
        let m = self.system.task_count();
        let chunk_count = m.div_ceil(self.chunk_size);
        let next_chunk = AtomicUsize::new(0);
        let slots: Vec<Mutex<Vec<Move>>> =
            (0..chunk_count).map(|_| Mutex::new(Vec::new())).collect();

        let system = self.system;
        let state = &self.state;
        let protocol = &self.protocol;
        let chunk_size = self.chunk_size;
        let master = self.master_seed;
        let round = self.round;
        let snapshot_ref = &snapshot;
        let slots_ref = &slots;
        let next_ref = &next_chunk;

        crossbeam::thread::scope(|scope| {
            for _ in 0..self.threads.min(chunk_count.max(1)) {
                scope.spawn(move |_| loop {
                    let chunk = next_ref.fetch_add(1, Ordering::Relaxed);
                    if chunk >= chunk_count {
                        break;
                    }
                    let lo = chunk * chunk_size;
                    let hi = (lo + chunk_size).min(m);
                    let mut rng = rng_for(master, round, chunk as u64);
                    let mut local = Vec::new();
                    protocol.decide(system, snapshot_ref, state, lo..hi, &mut rng, &mut local);
                    *slots_ref[chunk].lock() = local;
                });
            }
        })
        .expect("worker thread panicked");

        // Merge in chunk order for a canonical commit sequence.
        let mut moves = Vec::new();
        for slot in slots {
            moves.extend(slot.into_inner());
        }
        let report = commit(self.system, &mut self.state, &moves);
        self.round += 1;
        report
    }

    /// Executes `rounds` rounds, returning total migrations.
    pub fn run(&mut self, rounds: u64) -> u64 {
        let mut total = 0u64;
        for _ in 0..rounds {
            total += self.step().migrations as u64;
        }
        total
    }
}

/// Reference implementation of the *same* chunked schedule on one thread;
/// exists to pin down the determinism contract in tests and to debug
/// the protocol under the parallel seeding.
pub fn sequential_chunked_round(
    system: &System,
    protocol: &Selfish,
    state: &mut TaskState,
    master_seed: u64,
    round: u64,
    chunk_size: usize,
) -> RoundReport {
    assert!(chunk_size > 0, "chunk size must be positive");
    let snapshot = Snapshot::capture(system, state);
    let m = system.task_count();
    let chunk_count = m.div_ceil(chunk_size);
    let mut moves = Vec::new();
    for chunk in 0..chunk_count {
        let lo = chunk * chunk_size;
        let hi = (lo + chunk_size).min(m);
        let mut rng = rng_for(master_seed, round, chunk as u64);
        protocol.decide(system, &snapshot, state, lo..hi, &mut rng, &mut moves);
    }
    commit(system, state, &moves)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{SpeedVector, TaskSet};
    use crate::protocol::MigrationRule::Relaxed;
    use slb_graphs::{generators, NodeId};

    fn sys(m: usize) -> System {
        System::new(
            generators::torus(4, 4),
            SpeedVector::uniform(16),
            TaskSet::uniform(m),
        )
        .unwrap()
    }

    #[test]
    fn parallel_matches_sequential_chunked() {
        let s = sys(10_000);
        let mut par = ParallelSimulation::with_layout(
            &s,
            Selfish::new(Relaxed),
            TaskState::all_on_node(&s, NodeId(0)),
            77,
            512,
            4,
        );
        let mut seq_state = TaskState::all_on_node(&s, NodeId(0));
        for round in 0..10u64 {
            let a = par.step();
            let b = sequential_chunked_round(
                &s,
                &Selfish::new(Relaxed),
                &mut seq_state,
                77,
                round,
                512,
            );
            assert_eq!(a, b, "round {round} reports differ");
        }
        assert_eq!(par.state(), &seq_state);
    }

    #[test]
    fn thread_count_does_not_change_trajectory() {
        let s = sys(5_000);
        let run = |threads: usize| {
            let mut sim = ParallelSimulation::with_layout(
                &s,
                Selfish::new(Relaxed),
                TaskState::all_on_node(&s, NodeId(3)),
                5,
                256,
                threads,
            );
            sim.run(8);
            sim.into_state()
        };
        let a = run(1);
        let b = run(4);
        let c = run(13);
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    #[test]
    fn weighted_protocol_parallel_conservation() {
        use rand::{Rng, SeedableRng};
        let mut wrng = rand::rngs::StdRng::seed_from_u64(1);
        let s = System::new(
            generators::hypercube(4),
            SpeedVector::integer(vec![1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2]).unwrap(),
            TaskSet::weighted((0..2000).map(|_| wrng.gen_range(0.01..=1.0)).collect()).unwrap(),
        )
        .unwrap();
        let mut sim = ParallelSimulation::new(
            &s,
            Selfish::new(Relaxed),
            TaskState::all_on_node(&s, NodeId(0)),
            9,
        );
        sim.run(25);
        assert_eq!(sim.round(), 25);
        sim.state().check_invariants(&s).unwrap();
    }

    #[test]
    fn more_chunks_than_threads_and_vice_versa() {
        let s = sys(100);
        // chunk_size larger than m → single chunk, many threads.
        let mut a = ParallelSimulation::with_layout(
            &s,
            Selfish::new(Relaxed),
            TaskState::all_on_node(&s, NodeId(0)),
            1,
            1_000_000,
            8,
        );
        a.run(3);
        a.state().check_invariants(&s).unwrap();
        // chunk_size 1 → 100 chunks, 2 threads.
        let mut b = ParallelSimulation::with_layout(
            &s,
            Selfish::new(Relaxed),
            TaskState::all_on_node(&s, NodeId(0)),
            1,
            1,
            2,
        );
        b.run(3);
        b.state().check_invariants(&s).unwrap();
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn zero_chunk_size_panics() {
        let s = sys(10);
        let _ = ParallelSimulation::with_layout(
            &s,
            Selfish::new(Relaxed),
            TaskState::all_on_node(&s, NodeId(0)),
            0,
            0,
            1,
        );
    }
}
