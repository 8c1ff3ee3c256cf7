//! Deterministic randomness plumbing.
//!
//! Every simulation is driven by a single master seed; per-round and
//! per-shard generators are derived with a SplitMix64 mix so that
//!
//! * the same seed reproduces the same trajectory bit-for-bit,
//! * the sharded round kernel is deterministic *independent of thread
//!   count* (shard seeds depend only on `(master, round, stream, shard)`),
//! * distinct rounds/shards get statistically independent streams.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// SplitMix64 finalizer: a bijective 64-bit mix with good avalanche,
/// the standard choice for seed derivation.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derives a child seed from `(master, round, stream)`.
pub fn derive_seed(master: u64, round: u64, stream: u64) -> u64 {
    let a = splitmix64(master ^ 0xa076_1d64_78bd_642f);
    let b = splitmix64(a ^ round);
    splitmix64(b ^ stream.wrapping_mul(0xe703_7ed1_a0b4_28db))
}

/// A seeded [`StdRng`] for `(master, round, stream)`.
pub fn rng_for(master: u64, round: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(derive_seed(master, round, stream))
}

/// Derives a child seed from `(master, round, stream, shard)` — the
/// four-dimensional extension of [`derive_seed`] behind the sharded round
/// kernel.
///
/// Each shard of a round draws from its own stream, a pure function of
/// this quadruple, so the round's trajectory is independent of how shards
/// are scheduled onto worker threads (and therefore of `--threads`). The
/// shard axis is mixed through one extra SplitMix64 finalization, so
/// `derive_seed_sharded(m, a, b, 0) != derive_seed(m, a, b)`: sharded and
/// unsharded consumers of the same `(master, a, b)` triple never alias.
pub fn derive_seed_sharded(master: u64, round: u64, stream: u64, shard: u64) -> u64 {
    splitmix64(derive_seed(master, round, stream) ^ shard.wrapping_mul(0x9fb2_1c65_1e98_df25))
}

/// A seeded [`StdRng`] for `(master, round, stream, shard)`.
pub fn rng_for_shard(master: u64, round: u64, stream: u64, shard: u64) -> StdRng {
    StdRng::seed_from_u64(derive_seed_sharded(master, round, stream, shard))
}

/// Central registry of every RNG stream id used in the workspace.
///
/// The determinism contract (artifacts byte-identical at any `--threads`)
/// rests on distinct consumers of the same master seed drawing from
/// distinct streams. Scattering the ids as magic integers made collisions
/// a code-review problem; this module makes them a machine-checked one:
///
/// * every `derive_seed*` / `rng_for*` call site must name a constant
///   from this registry, and every constant must appear in its
///   namespace's `ALL` table (both checked by the workspace's
///   `tests/source_rules.rs`),
/// * ids must be unique within their namespace (the property tests
///   below walk every `ALL` table).
///
/// A *namespace* groups the streams that share a master-seed lineage;
/// ids in different namespaces never mix because their masters differ
/// (e.g. [`streams::trial::SIM`] derives the per-trial simulation seed that then
/// serves as the master for the whole [`streams::round`] namespace).
pub mod streams {
    /// Per-round streams. Master = the trial's simulation seed, first
    /// derivation axis = round index. [`round::KERNEL`] is consumed through the
    /// *sharded* derivation, the event streams through the unsharded
    /// one; the extra SplitMix64 finalization in
    /// [`derive_seed_sharded`](super::derive_seed_sharded) keeps the two
    /// families from aliasing even at equal ids.
    pub mod round {
        /// The sharded migration kernel
        /// ([`rng_for_shard`](crate::rng::rng_for_shard)): one stream
        /// per (round, shard) pair.
        pub const KERNEL: u64 = 0;
        /// Arrival totals and their placement (the count engine's event layer).
        pub const ARRIVAL: u64 = 1;
        /// Rate-based completion draws (the count engine's event layer).
        pub const COMPLETION: u64 = 2;
        /// Churn toggles and orphan re-scattering (the count engine's event layer).
        pub const CHURN: u64 = 3;
        /// Speed drift/shock draws (the count engine's event layer).
        pub const SPEED: u64 = 4;
        /// Every id in this namespace, for exhaustive collision tests.
        pub const ALL: &[(&str, u64)] = &[
            ("KERNEL", KERNEL),
            ("ARRIVAL", ARRIVAL),
            ("COMPLETION", COMPLETION),
            ("CHURN", CHURN),
            ("SPEED", SPEED),
        ];
    }

    /// Per-trial split streams. Master = the trial seed handed out by
    /// the sweep/validate runner (`derive_seed(base, cell, trial)`),
    /// round axis pinned to 0.
    pub mod trial {
        /// Scenario construction: speeds/weights/placement sampling.
        pub const SCENARIO: u64 = 0;
        /// The simulation itself (becomes the master seed of the
        /// [`round`](super::round) namespace).
        pub const SIM: u64 = 1;
        /// Every id in this namespace, for exhaustive collision tests.
        pub const ALL: &[(&str, u64)] = &[("SCENARIO", SCENARIO), ("SIM", SIM)];
    }

    /// Post-hoc analysis streams. Master = the run's base seed, first
    /// axis = report-row index.
    pub mod analysis {
        /// Stratified bootstrap resampling in the exponent fit.
        pub const BOOTSTRAP: u64 = 0xB007;
        /// Every id in this namespace, for exhaustive collision tests.
        pub const ALL: &[(&str, u64)] = &[("BOOTSTRAP", BOOTSTRAP)];
    }

    /// Service-harness (`slb serve`) streams. Two master lineages:
    /// [`serve::ARRIVAL`] and [`serve::CLOSED`] derive from the run's
    /// *scenario* seed (shared by every policy, so all policies face the
    /// identical open-loop job stream), with the first axis the time slot
    /// or closed-loop user index respectively; [`serve::POLICY`] derives
    /// from the *per-policy* seed with the first axis the job index, so
    /// routing coins are independent of event-loop interleaving.
    pub mod serve {
        /// Open-loop traffic: per-slot Poisson counts, arrival offsets,
        /// entry nodes, and job weights.
        pub const ARRIVAL: u64 = 0;
        /// Closed-loop traffic: one stream per user (initial phase,
        /// entry nodes, job weights).
        pub const CLOSED: u64 = 1;
        /// Route-policy coin flips, one stream per routed job.
        pub const POLICY: u64 = 2;
        /// Fault injection: per-backend crash/recover renewal processes
        /// (exponential MTTF/MTTR draws), one stream per backend.
        /// Scenario-seeded, so every policy faces the identical fault
        /// schedule.
        pub const FAULT: u64 = 3;
        /// Signal degradation: per-probe-epoch loss coins (one draw per
        /// backend per refresh). Scenario-seeded, so every policy
        /// observes through the identical probe-loss pattern.
        pub const SIGNAL: u64 = 4;
        /// Retry routing: backoff jitter plus re-route coins, one stream
        /// per (job, attempt) pair (encoded as
        /// `job · RETRY_ATTEMPT_STRIDE + attempt` on the derivation
        /// axis). Policy-seeded like [`POLICY`].
        pub const RETRY: u64 = 5;
        /// Stride of the [`RETRY`] derivation axis: attempt `a` of job
        /// `k` draws from axis `k · RETRY_ATTEMPT_STRIDE + a`. Retry
        /// budgets must stay below this stride so (job, attempt) pairs
        /// never collide on the axis.
        pub const RETRY_ATTEMPT_STRIDE: u64 = 32;
        /// Every id in this namespace, for exhaustive collision tests.
        pub const ALL: &[(&str, u64)] = &[
            ("ARRIVAL", ARRIVAL),
            ("CLOSED", CLOSED),
            ("POLICY", POLICY),
            ("FAULT", FAULT),
            ("SIGNAL", SIGNAL),
            ("RETRY", RETRY),
        ];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn splitmix_is_deterministic_and_mixing() {
        assert_eq!(splitmix64(0), splitmix64(0));
        assert_ne!(splitmix64(0), splitmix64(1));
        // Avalanche sanity: flipping one input bit flips many output bits.
        let a = splitmix64(42);
        let b = splitmix64(43);
        assert!((a ^ b).count_ones() >= 16);
    }

    #[test]
    fn derived_seeds_differ_across_axes() {
        let base = derive_seed(1, 2, 3);
        assert_ne!(base, derive_seed(2, 2, 3));
        assert_ne!(base, derive_seed(1, 3, 3));
        assert_ne!(base, derive_seed(1, 2, 4));
        assert_eq!(base, derive_seed(1, 2, 3));
    }

    #[test]
    fn derived_seeds_do_not_collide_across_cell_trial_pairs() {
        // The sweep runner keys trial seeds by (cell index, trial index);
        // any collision would silently correlate two grid cells. Check a
        // grid far larger than any practical sweep: 128 × 128 pairs per
        // base seed, across several base seeds.
        use std::collections::BTreeSet;
        for base in [0u64, 42, 0xdead_beef] {
            let mut seen = BTreeSet::new();
            for cell in 0..128u64 {
                for trial in 0..128u64 {
                    assert!(
                        seen.insert(derive_seed(base, cell, trial)),
                        "collision at base {base}, cell {cell}, trial {trial}"
                    );
                }
            }
        }
    }

    #[test]
    fn sharded_seeds_do_not_collide_across_cell_trial_shard_triples() {
        // The sharded kernel keys shard streams by (cell, trial, shard);
        // a collision would correlate two shards' multinomial draws. Walk
        // a grid of adjacent triples far denser than any practical run
        // (32 × 32 cells/trials × 64 shards), across several base seeds,
        // and also check the sharded derivation never aliases the
        // unsharded one for the same (cell, trial) pair.
        use std::collections::BTreeSet;
        for base in [0u64, 42, 0xdead_beef] {
            let mut seen = BTreeSet::new();
            for cell in 0..32u64 {
                for trial in 0..32u64 {
                    assert!(
                        seen.insert(derive_seed(base, cell, trial)),
                        "unsharded collision at base {base}, cell {cell}, trial {trial}"
                    );
                    for shard in 0..64u64 {
                        assert!(
                            seen.insert(derive_seed_sharded(base, cell, trial, shard)),
                            "collision at base {base}, cell {cell}, trial {trial}, \
                             shard {shard}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn sharded_seeds_differ_across_every_axis() {
        let base = derive_seed_sharded(1, 2, 3, 4);
        assert_ne!(base, derive_seed_sharded(2, 2, 3, 4));
        assert_ne!(base, derive_seed_sharded(1, 3, 3, 4));
        assert_ne!(base, derive_seed_sharded(1, 2, 4, 4));
        assert_ne!(base, derive_seed_sharded(1, 2, 3, 5));
        assert_eq!(base, derive_seed_sharded(1, 2, 3, 4));
    }

    #[test]
    fn registry_namespaces_hold_unique_ids() {
        // Uniqueness within each namespace is the registry's whole point;
        // check the declared tables directly (tests/source_rules.rs keeps
        // every constant in its table).
        for (namespace, table) in [
            ("round", streams::round::ALL),
            ("trial", streams::trial::ALL),
            ("analysis", streams::analysis::ALL),
            ("serve", streams::serve::ALL),
        ] {
            for (i, &(name_a, id_a)) in table.iter().enumerate() {
                for &(name_b, id_b) in &table[i + 1..] {
                    assert_ne!(
                        id_a, id_b,
                        "streams::{namespace}::{name_a} and \
                         streams::{namespace}::{name_b} share id {id_a}"
                    );
                }
            }
        }
    }

    #[test]
    fn registry_streams_never_collide_pairwise_or_sharded() {
        // Exhaustive over the registry: for a spread of (master, round)
        // pairs, the derived seeds of every round-namespace stream — each
        // id both unsharded and through all 64 shards of the sharded
        // derivation — and of every trial-namespace stream must be
        // pairwise distinct. This is the machine-checked form of the
        // "streams never alias" argument the engines rely on.
        use std::collections::BTreeMap;
        for master in [0u64, 42, 0xdead_beef, u64::MAX] {
            for round_idx in [0u64, 1, 7, 1 << 40] {
                let mut seen: BTreeMap<u64, String> = BTreeMap::new();
                let mut check = |seed: u64, label: String| {
                    if let Some(prev) = seen.insert(seed, label.clone()) {
                        panic!(
                            "seed collision at master {master}, round {round_idx}: \
                             {prev} == {label}"
                        );
                    }
                };
                for &(name, id) in streams::round::ALL {
                    check(derive_seed(master, round_idx, id), format!("round::{name}"));
                    for shard in 0..64u64 {
                        check(
                            derive_seed_sharded(master, round_idx, id, shard),
                            format!("round::{name}[shard {shard}]"),
                        );
                    }
                }
                // The trial and serve namespaces share their masters with
                // nothing above (their lineages differ), but pairwise
                // distinctness within each namespace must still hold —
                // trial pins the round axis to 0, serve fans it over
                // slots/users/jobs.
                for (namespace, table, axis) in [
                    ("trial", streams::trial::ALL, 0),
                    ("serve", streams::serve::ALL, round_idx),
                ] {
                    let seeds: Vec<u64> = table
                        .iter()
                        .map(|&(_, id)| derive_seed(master, axis, id))
                        .collect();
                    for (i, a) in seeds.iter().enumerate() {
                        for b in &seeds[i + 1..] {
                            assert_ne!(a, b, "{namespace}-namespace streams collide");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn rng_streams_reproduce() {
        let mut a = rng_for(7, 1, 0);
        let mut b = rng_for(7, 1, 0);
        let mut c = rng_for(7, 1, 1);
        let xa: u64 = a.gen();
        let xb: u64 = b.gen();
        let xc: u64 = c.gen();
        assert_eq!(xa, xb);
        assert_ne!(xa, xc);
    }
}
