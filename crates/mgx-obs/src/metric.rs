//! Scalar metrics ([`Counter`], [`Gauge`]) and the [`Span`] timer.

use crate::histogram::Histogram;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Instant;

/// A monotonic counter. Updates are single relaxed atomic RMWs; reads are
/// relaxed loads. Shareable across threads behind an `Arc` (the
/// [`crate::Registry`] hands them out that way).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A fresh counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous signed value (queue depth, in-flight requests).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A fresh gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overwrites the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may go negative; gauges are signed).
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A wall-clock timer that records its elapsed nanoseconds into a
/// [`Histogram`] — explicitly via [`Span::stop`], or on drop if the span
/// is simply let go (RAII style).
///
/// ```
/// use mgx_obs::Histogram;
/// let hist = Histogram::new();
/// {
///     let _span = hist.span(); // records on scope exit
/// }
/// let ns = hist.span().stop(); // records and returns the elapsed ns
/// assert_eq!(hist.snapshot().count, 2);
/// let _ = ns;
/// ```
pub struct Span<'a> {
    hist: &'a Histogram,
    start: Instant,
    armed: bool,
}

impl<'a> Span<'a> {
    pub(crate) fn start(hist: &'a Histogram) -> Self {
        Self { hist, start: Instant::now(), armed: true }
    }

    /// Stops the timer, records the elapsed nanoseconds, and returns them.
    pub fn stop(mut self) -> u64 {
        self.armed = false;
        let ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.hist.record(ns);
        ns
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if self.armed {
            let ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.hist.record(ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        let g = Gauge::new();
        g.set(5);
        g.sub(7);
        g.add(1);
        assert_eq!(g.get(), -1);
    }

    #[test]
    fn span_records_on_drop_and_on_stop() {
        let h = Histogram::new();
        drop(h.span());
        let ns = h.span().stop();
        let snap = h.snapshot();
        assert_eq!(snap.count, 2);
        assert!(snap.sum >= ns);
    }
}
