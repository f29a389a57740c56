//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files only: around shadow
//! calls (read-only calls made just before the real one) and inside
//! wrapper types that forward to the real implementation. Each span's
//! duration is kept as a sample under its layer name; the time of every
//! span since the last [`Tracer::take_children`] is also summed, so an
//! enclosing call's self time is its wall time minus its children's.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Default)]
pub struct Tracer {
    spans: BTreeMap<&'static str, Vec<f64>>,
    values: BTreeMap<&'static str, f64>,
    children_us: f64,
}

impl Tracer {
    /// Run `f` as a span named `name`, recording its wall time in µs.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        let us = t.elapsed().as_secs_f64() * 1e6;
        self.spans.entry(name).or_default().push(us);
        self.children_us += us;
        out
    }

    /// Record a duration measured elsewhere (not a child of anything).
    pub fn record(&mut self, name: &'static str, us: f64) {
        self.spans.entry(name).or_default().push(us);
    }

    /// Span time accumulated since the last call, µs.
    pub fn take_children(&mut self) -> f64 {
        std::mem::take(&mut self.children_us)
    }

    /// Samples recorded under `name` (across all traced rounds).
    pub fn samples(&self, name: &str) -> &[f64] {
        self.spans.get(name).map_or(&[], Vec::as_slice)
    }

    /// Mean of the samples under `name` (0 when there are none).
    pub fn mean(&self, name: &str) -> f64 {
        crate::mean(self.samples(name))
    }

    /// Set a per-layer metric (the last round's value wins).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn into_metrics(self) -> BTreeMap<&'static str, f64> {
        self.values
    }
}
