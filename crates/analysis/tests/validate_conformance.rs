//! Statistical conformance of the validation ladders against Table 1:
//! the repo's core scientific deliverable, asserted as a test.
//!
//! The fast tests run Algorithm 1 and Algorithm 2 on ring and complete
//! ladders in the Theorem 1.1/1.3 regime (`load=delta:2`, so `m = 16n³`
//! and the reached `Ψ₀ ≤ 4ψ_c` state carries a real `2/(1+δ)`
//! approximation guarantee) and assert that the fitted exponent's 95% CI
//! brackets the Table 1 prediction within the spec's declared exponent
//! tolerance — the prediction being the bound shape evaluated over the
//! same ladder (`pred_ladder`), which carries the `log` factors the
//! asymptotic exponents drop. The alg2 ladders became runnable at these
//! depths when alg2 moved onto the count engine `CountSim` (one
//! multinomial per node and weight class instead of `O(m)` per-task
//! work per round).
//!
//! The deeper ladders (one more size doubling, both regimes — Theorem
//! 1.2's exact column included — and the alg2/bhs speed-aware rows) used
//! to be `#[ignore]`-gated for a manual slow profile. With the sharded
//! round kernel and the optimized dev builds of the numeric crates
//! (`profile.dev.package.*` in the workspace root) they finish in
//! seconds, so they now run un-gated in plain `cargo test -q` — as does
//! the alg1 hypercube ladder, which reaches n = 4096.

use slb_analysis::validate::{run_validate, RowResult, ValidateConfig};
use slb_workloads::{Regime, ValidateSpec};

/// The CI, widened by the spec's declared exponent tolerance, must
/// bracket the finite-size Table 1 prediction.
fn assert_brackets_within_tolerance(row: &RowResult, exp_tol: f64) {
    let pred = row
        .predicted_shape
        .expect("paper protocols carry a Table 1 prediction");
    let (lo, hi) = (row.fit.ci_lo - exp_tol, row.fit.ci_hi + exp_tol);
    assert!(
        lo <= pred && pred <= hi,
        "{} × {} {}: prediction {pred:.3} outside CI±tol [{lo:.3}, {hi:.3}] \
         (fitted {:.3}, CI [{:.3}, {:.3}])",
        row.spec.protocol.grid_label(),
        row.spec.family.label(),
        row.spec.regime.label(),
        row.fit.exponent,
        row.fit.ci_lo,
        row.fit.ci_hi,
    );
    assert_eq!(row.exponent_ok, Some(true), "exponent check must pass");
    assert_eq!(row.bound_ok, Some(true), "theorem bound check must pass");
}

#[test]
fn alg1_ring_and_complete_exponents_bracket_table1() {
    let spec = ValidateSpec::parse(&[
        "family=ring,complete",
        "n=8..32:x2",
        "load=delta:2",
        "protocol=alg1",
        "regime=approx",
        "trials=3",
        "max-rounds=500000",
    ])
    .unwrap();
    let out = run_validate(&spec, ValidateConfig::parallel(0xA11CE)).unwrap();
    assert_eq!(out.rows.len(), 2);
    for row in &out.rows {
        assert!(!row.censored(), "{} censored", row.spec.family.label());
        assert_brackets_within_tolerance(row, spec.exp_tol);
        // δ = 2 > 1: the 2/(1+δ) quality guarantee is non-vacuous here,
        // and must hold with a large margin.
        assert_eq!(row.gap_ok, Some(true));
        for p in &row.points {
            assert!((p.eps_delta - 2.0 / 3.0).abs() < 0.01, "δ must be 2");
            assert!(p.gap.mean < p.eps_delta, "gap {} too large", p.gap.mean);
        }
        assert!(row.conforms());
    }
    // The two families are distinguishable: ring scales ≈ n², complete
    // ≈ log n — the measured exponents must be far apart.
    let ring = &out.rows[0];
    let complete = &out.rows[1];
    assert!(
        ring.fit.exponent > complete.fit.exponent + 1.0,
        "ring ({}) must scale visibly faster than complete ({})",
        ring.fit.exponent,
        complete.fit.exponent,
    );
}

/// The alg2 ladder at the same depth as the alg1 fast test — previously
/// out of reach (the per-task engine pays `O(m) = O(16n³)` per round;
/// the count engine `CountSim` pays `O(|E| + n·k)`). Weighted bimodal
/// tasks put the row in the Theorem 1.3 regime: the Ψ₀ hitting-time
/// exponent must bracket Table 1's approximate column and the reached
/// state must satisfy the `2/(1+δ)` quality guarantee per trial.
#[test]
fn alg2_weighted_ring_and_complete_exponents_bracket_table1() {
    let spec = ValidateSpec::parse(&[
        "family=ring,complete",
        "n=8..32:x2",
        "load=delta:2",
        "protocol=alg2",
        "weights=bimodal:0.25:1:0.5",
        "regime=approx",
        "trials=3",
        "max-rounds=500000",
    ])
    .unwrap();
    let out = run_validate(&spec, ValidateConfig::parallel(0xA11CE)).unwrap();
    assert_eq!(out.rows.len(), 2);
    for row in &out.rows {
        assert!(!row.censored(), "{} censored", row.spec.family.label());
        assert_brackets_within_tolerance(row, spec.exp_tol);
        // The Theorem 1.3 gap guarantee is checked per trial against each
        // trial's own sampled instance.
        assert_eq!(row.gap_ok, Some(true));
        for p in &row.points {
            assert!(p.gap.mean <= p.eps_delta + 1e-9, "gap {}", p.gap.mean);
        }
        assert!(row.conforms());
    }
}

#[test]
fn alg1_deep_ladder_conformance_including_exact() {
    let spec = ValidateSpec::parse(&[
        "family=ring,complete",
        "n=8..64:x2",
        "load=delta:2",
        "protocol=alg1",
        "regime=approx,exact",
        "trials=3",
        "max-rounds=2000000",
    ])
    .unwrap();
    let out = run_validate(&spec, ValidateConfig::parallel(0xA11CE)).unwrap();
    for row in &out.rows {
        if row.spec.regime == Regime::Approx {
            assert!(!row.censored());
            assert_brackets_within_tolerance(row, spec.exp_tol);
        } else if !row.censored() {
            // Exact-NE hitting times sit far below the (loose) exact
            // column; the one-sided consistency check must still pass.
            assert_eq!(row.exponent_ok, Some(true));
        }
    }
}

/// Algorithm 1 two orders of magnitude past the old ladders: hypercubes
/// of n = 256, 1024, 4096 nodes at a fixed per-node load. With m/n fixed
/// the Table 1 approximate bound reduces to `Θ(log n · log(m/n))`, so
/// the fitted hitting-time exponent must be *tiny* — this is the ladder
/// that tells a polylog family apart from a polynomial one, and it is
/// only tractable because the count engine pays `O(|E| + n)` per round.
#[test]
fn alg1_hypercube_ladder_reaches_4096_nodes() {
    let spec = ValidateSpec::parse(&[
        "family=hypercube",
        "n=256..4096:x4",
        "load=16",
        "protocol=alg1",
        "regime=approx",
        "trials=3",
        "max-rounds=200000",
    ])
    .unwrap();
    let out = run_validate(&spec, ValidateConfig::parallel(42)).unwrap();
    assert_eq!(out.rows.len(), 1);
    let row = &out.rows[0];
    assert!(!row.censored(), "hypercube ladder censored");
    assert_brackets_within_tolerance(row, spec.exp_tol);
    assert!(row.conforms());
    // Polylog, not polynomial: even with the tolerance the fitted
    // exponent must sit far below the slowest polynomial family (n¹).
    assert!(
        row.fit.ci_hi + spec.exp_tol < 1.0,
        "hypercube exponent CI [{:.3}, {:.3}] is not polylog-small",
        row.fit.ci_lo,
        row.fit.ci_hi,
    );
    assert_eq!(row.points.last().unwrap().n, 4096);
}

/// The speed-aware protocols on the deep ladder (`n` up to 64, `m` up to
/// 2²² tasks): unreachable on the per-task engines, routine on
/// `CountSim`. alg2 rows bracket the Table 1 approximate column
/// (Thm 1.3 bound shape); bhs rows check the exact regime's one-sided
/// consistency with the \[6\] column — Theorem 1.2's exact-NE territory.
///
/// The approximate regime runs the full ladder to n = 64. The exact
/// regime stops one doubling earlier: alg2's exact-NE absorption time in
/// the `delta:2` regime grows with `m = 16n³`, and the n = 64 point
/// alone costs ~2 CPU-minutes while refining nothing the n ≤ 32 fit has
/// not already pinned — that single point is why this ladder was
/// `#[ignore]`-gated before.
#[test]
fn speed_aware_deep_ladder_conformance() {
    let approx = ValidateSpec::parse(&[
        "family=ring,complete",
        "n=8..64:x2",
        "load=delta:2",
        "protocol=alg2,bhs",
        "weights=bimodal:0.25:1:0.5",
        "regime=approx",
        "trials=3",
        "max-rounds=2000000",
    ])
    .unwrap();
    let exact = ValidateSpec::parse(&[
        "family=ring,complete",
        "n=8..32:x2",
        "load=delta:2",
        "protocol=alg2,bhs",
        "weights=bimodal:0.25:1:0.5",
        "regime=exact",
        "trials=3",
        "max-rounds=2000000",
    ])
    .unwrap();
    for (spec, rows_expected) in [(&approx, 4), (&exact, 4)] {
        let out = run_validate(spec, ValidateConfig::parallel(0xA11CE)).unwrap();
        assert_eq!(out.rows.len(), rows_expected);
        for row in &out.rows {
            match (row.spec.protocol.grid_label(), row.spec.regime) {
                ("alg2", Regime::Approx) => {
                    assert!(!row.censored(), "alg2 approx censored");
                    assert_brackets_within_tolerance(row, spec.exp_tol);
                }
                // Remaining rows: the one-sided consistency check against
                // the (loose) Table 1 column must pass wherever a
                // prediction exists and no trial was censored.
                _ if !row.censored() && row.predicted_shape.is_some() => {
                    assert_eq!(row.exponent_ok, Some(true));
                }
                _ => {}
            }
        }
    }
}
