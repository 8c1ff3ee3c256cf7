//! In-memory spans around the calls the replay makes into each layer.
//!
//! A span records its layer, start and end (nanoseconds since the tracer
//! was created) and one count measured at the same boundary (tasks moved
//! by a round, jobs offered to a serve run). A disabled tracer records
//! nothing, so the same replay code runs with tracing off and on, and the
//! difference in wall time is the tracing overhead.

use std::time::Instant;

/// The layer boundary a span wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One trial of a sweep cell or ladder point (`analysis::runner`).
    Trial,
    /// `Family::build`.
    GraphBuild,
    /// `scenario::build`, or the speed sample of a serve run.
    Scenario,
    /// Per-task weights collapsed into a count state (`WeightClasses`).
    ClassState,
    /// One engine round (`step`); the count is the tasks it moved.
    Step,
    /// The stop rule evaluated before a round (`is_nash` / `psi0`).
    StopCheck,
    /// One `slb_serve::run` of the policy with this index; the count is
    /// the jobs offered.
    ServeRun(usize),
    /// One `analysis::serve::run_serve` of a single policy.
    RunServe,
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    pub count: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span, returned by [`Tracer::enter`] and closed by
/// [`Tracer::exit`].
#[must_use]
pub struct Open(Option<usize>);

/// The span recorder.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span of `layer`.
    pub fn enter(&mut self, layer: Layer) -> Open {
        if !self.enabled {
            return Open(None);
        }
        self.spans.push(Span {
            layer,
            start_ns: self.now_ns(),
            end_ns: 0,
            count: 0,
        });
        Open(Some(self.spans.len() - 1))
    }

    /// Closes `open` with the count measured at its boundary.
    pub fn exit(&mut self, open: Open, count: u64) {
        let Some(index) = open.0 else { return };
        let end = self.now_ns();
        let span = &mut self.spans[index];
        span.end_ns = end;
        span.count = count;
    }

    /// Runs `f` inside a span of `layer` whose count is `count(&result)`.
    pub fn time<R>(&mut self, layer: Layer, f: impl FnOnce() -> R, count: impl Fn(&R) -> u64) -> R {
        let open = self.enter(layer);
        let result = f();
        self.exit(open, count(&result));
        result
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}
