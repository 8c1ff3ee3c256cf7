//! Synthetic traffic specifications for the `slb serve` harness.
//!
//! A [`TrafficSpec`] combines up to two job sources:
//!
//! * an **open loop** — jobs arrive at a fixed offered rate regardless of
//!   how the system is doing (Poisson counts per unit time slot, the
//!   classic M/·/· arrival side), and
//! * a **closed loop** — a bounded population of users, each submitting
//!   one job, waiting for its completion, thinking for a fixed time, and
//!   submitting again (bounded concurrency: at most `users` closed-loop
//!   jobs are ever outstanding).
//!
//! The grammar mirrors the sweep grid tokens: `traffic=poisson:RATE` or
//! `traffic=none`, and `closed=USERS:THINK` or `closed=none`. At least
//! one source must be active for a runnable spec. Both sides are capped
//! at [`MAX_PER_TASK_POPULATION`] (2²⁴): the open loop's rate, in jobs per
//! unit, and the closed loop's users, since the harness holds per-slot
//! arrival offsets and one RNG per user.

use crate::sweep::SweepParseError;
use slb_graphs::generators::MAX_PER_TASK_POPULATION;

/// Open-loop arrival side: Poisson counts at `rate` jobs per unit time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenLoop {
    /// Offered load in jobs per unit of virtual time (positive, at most
    /// [`MAX_PER_TASK_POPULATION`]).
    pub rate: f64,
}

/// Closed-loop side: `users` clients cycling submit → wait → think.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClosedLoop {
    /// Concurrent user population (bounds outstanding closed-loop jobs;
    /// at most [`MAX_PER_TASK_POPULATION`]).
    pub users: usize,
    /// Think time between a job's completion and the user's next
    /// submission, in units of virtual time (must be positive).
    pub think: f64,
}

/// A complete traffic specification: open loop, closed loop, or both.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TrafficSpec {
    /// The open-loop side, if any.
    pub open: Option<OpenLoop>,
    /// The closed-loop side, if any.
    pub closed: Option<ClosedLoop>,
}

impl TrafficSpec {
    /// Does this spec generate any jobs at all?
    pub fn is_empty(&self) -> bool {
        self.open.is_none() && self.closed.is_none()
    }
}

/// Parses the open-loop token: `poisson:RATE` or `none`, with `RATE` in
/// `(0, 2²⁴]`.
pub fn parse_traffic(token: &str) -> Result<Option<OpenLoop>, SweepParseError> {
    if token == "none" {
        return Ok(None);
    }
    let bad = || SweepParseError::new(format!("invalid traffic `{token}`"));
    let rest = token.strip_prefix("poisson:").ok_or_else(bad)?;
    let rate: f64 = rest.parse().map_err(|_| bad())?;
    if !(rate.is_finite() && rate > 0.0) {
        return Err(SweepParseError::new(format!(
            "traffic rate must be positive and finite, got `{rest}`"
        )));
    }
    if rate > MAX_PER_TASK_POPULATION as f64 {
        return Err(SweepParseError::new(format!(
            "`traffic={token}`: rate {rest} is past 2^24 = {MAX_PER_TASK_POPULATION} jobs \
             per unit (the harness holds one arrival offset per job of a slot)"
        )));
    }
    Ok(Some(OpenLoop { rate }))
}

/// Parses the closed-loop token: `USERS:THINK` or `none`, with `USERS` in
/// `1..=2²⁴`.
pub fn parse_closed(token: &str) -> Result<Option<ClosedLoop>, SweepParseError> {
    if token == "none" {
        return Ok(None);
    }
    let bad = || SweepParseError::new(format!("invalid closed loop `{token}`"));
    let (users, think) = token.split_once(':').ok_or_else(bad)?;
    let users: usize = users.parse().map_err(|_| bad())?;
    let think: f64 = think.parse().map_err(|_| bad())?;
    if users == 0 {
        return Err(SweepParseError::new(
            "closed loop needs at least one user".to_string(),
        ));
    }
    if users as u64 > MAX_PER_TASK_POPULATION {
        return Err(SweepParseError::new(format!(
            "`closed={token}`: {users} users is past 2^24 = {MAX_PER_TASK_POPULATION} users \
             (the harness holds one RNG per user)"
        )));
    }
    if !(think.is_finite() && think > 0.0) {
        return Err(SweepParseError::new(format!(
            "think time must be positive and finite, got `{think}`"
        )));
    }
    Ok(Some(ClosedLoop { users, think }))
}

/// Round-trip label of the open-loop side (the `traffic=` token).
pub fn traffic_label(open: Option<OpenLoop>) -> String {
    match open {
        None => "none".to_string(),
        Some(OpenLoop { rate }) => format!("poisson:{rate}"),
    }
}

/// Round-trip label of the closed-loop side (the `closed=` token).
pub fn closed_label(closed: Option<ClosedLoop>) -> String {
    match closed {
        None => "none".to_string(),
        Some(ClosedLoop { users, think }) => format!("{users}:{think}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_tokens_roundtrip() {
        for token in ["none", "poisson:2.5", "poisson:1000"] {
            let parsed = parse_traffic(token).expect("valid token");
            assert_eq!(traffic_label(parsed), token);
        }
        for token in ["none", "4:2.5", "16:1"] {
            let parsed = parse_closed(token).expect("valid token");
            assert_eq!(closed_label(parsed), token);
        }
    }

    #[test]
    fn traffic_rejects_degenerate_rates() {
        assert!(parse_traffic("poisson:0").is_err());
        assert!(parse_traffic("poisson:-1").is_err());
        assert!(parse_traffic("poisson:inf").is_err());
        assert!(parse_traffic("uniform:3").is_err());
        assert!(parse_traffic("poisson:").is_err());
    }

    #[test]
    fn closed_rejects_degenerate_populations() {
        assert!(parse_closed("0:1.0").is_err());
        assert!(parse_closed("4:0").is_err());
        assert!(parse_closed("4:-2").is_err());
        assert!(parse_closed("4").is_err());
        assert!(parse_closed("x:1").is_err());
    }

    #[test]
    fn traffic_and_closed_cap_at_two_to_the_24() {
        let limit = MAX_PER_TASK_POPULATION;
        assert_eq!(limit, 1 << 24);
        let open = parse_traffic(&format!("poisson:{limit}")).expect("rate 2^24 is allowed");
        assert_eq!(open, Some(OpenLoop { rate: limit as f64 }));
        let err = parse_traffic(&format!("poisson:{}", limit + 1)).unwrap_err();
        assert!(err.to_string().contains("`traffic=poisson:"), "{err}");
        let err = parse_traffic("poisson:1e12").unwrap_err();
        assert!(err.to_string().contains("past 2^24"), "{err}");
        let closed = parse_closed(&format!("{limit}:1")).expect("2^24 users are allowed");
        assert_eq!(closed.map(|c| c.users as u64), Some(limit));
        let err = parse_closed(&format!("{}:1", limit + 1)).unwrap_err();
        assert!(err.to_string().contains("`closed="), "{err}");
        assert!(err.to_string().contains("past 2^24"), "{err}");
    }

    #[test]
    fn empty_spec_is_detected() {
        assert!(TrafficSpec::default().is_empty());
        let open = TrafficSpec {
            open: parse_traffic("poisson:1").expect("valid"),
            closed: None,
        };
        assert!(!open.is_empty());
        let closed = TrafficSpec {
            open: None,
            closed: parse_closed("2:1.0").expect("valid"),
        };
        assert!(!closed.is_empty());
    }
}
