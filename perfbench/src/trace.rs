//! Layer spans recorded from outside the simulator.
//!
//! Every call the benchmark makes into a layer's public functions goes
//! through [`Tracer::span`]. With tracing off the closure runs bare; with
//! tracing on the tracer records the call's name, start, end and parent span,
//! keeps the records in memory, and hands them back when the run ends.

use std::time::Instant;

/// One recorded call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call name, e.g. `simnet.engine.run`.
    pub name: &'static str,
    /// Seconds from the tracer's epoch to the call.
    pub start_s: f64,
    /// Seconds from the tracer's epoch to the return.
    pub end_s: f64,
    /// Index of the enclosing span in [`Tracer::spans`], if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Host seconds spent inside the call.
    pub fn seconds(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Span recorder; a no-op unless built with `enabled`.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_s: self.epoch.elapsed().as_secs_f64(),
            end_s: 0.0,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_s = self.epoch.elapsed().as_secs_f64();
        out
    }

    /// Every span recorded so far, in call order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Index the next recorded span will get; spans from this index on belong
    /// to whatever runs after the call.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }
}
