//! Timing adapters at the program's public seams, used only in traced runs.
//!
//! * [`TimedSource`] wraps any [`KpiSource`] (the batch pipeline's read
//!   contract) and counts calls, cloned bytes and time spent in `series`,
//!   `mask` and `coverage`. Its counters are atomics, so it stays `Sync`
//!   for the assessment engine's worker fan-out.
//! * [`TimedHooks`] wraps [`DurableHooks`] (the collector's durability
//!   seam) and times the WAL append of every accepted frame.

use bytes::Bytes;
use funnel_core::KpiSource;
use funnel_resilience::DurableHooks;
use funnel_sim::collector::{Collector, IngestAbort, IngestHooks};
use funnel_sim::kpi::KpiKey;
use funnel_timeseries::mask::CoverageMask;
use funnel_timeseries::series::{MinuteBin, TimeSeries};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Read counters of a [`TimedSource`]. Every field is a statistic that
/// publishes no other data, so `Relaxed` ordering suffices.
#[derive(Debug, Default)]
pub struct ReadCounters {
    calls: AtomicU64,
    bytes: AtomicU64,
    nanos: AtomicU64,
}

impl ReadCounters {
    fn record(&self, started: Instant, bytes: usize) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Calls into the wrapped source.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Bytes of series values and mask bins cloned out of the source.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Time spent inside the wrapped source, summed over threads.
    pub fn busy(&self) -> Duration {
        Duration::from_nanos(self.nanos.load(Ordering::Relaxed))
    }
}

/// A [`KpiSource`] that forwards to `inner` and records every read.
#[derive(Debug)]
pub struct TimedSource<'a, S> {
    inner: &'a S,
    counters: ReadCounters,
}

impl<'a, S: KpiSource> TimedSource<'a, S> {
    /// Wraps `inner` with zeroed counters.
    pub fn new(inner: &'a S) -> Self {
        Self {
            inner,
            counters: ReadCounters::default(),
        }
    }

    /// The counters recorded so far.
    pub fn counters(&self) -> &ReadCounters {
        &self.counters
    }
}

impl<S: KpiSource> KpiSource for TimedSource<'_, S> {
    fn series(&self, key: &KpiKey) -> Option<TimeSeries> {
        let started = Instant::now();
        let series = self.inner.series(key);
        let bytes = series.as_ref().map_or(0, |s| s.len() * 8);
        self.counters.record(started, bytes);
        series
    }

    fn coverage(&self, key: &KpiKey, from: MinuteBin, to: MinuteBin) -> f64 {
        let started = Instant::now();
        let coverage = self.inner.coverage(key, from, to);
        self.counters.record(started, 0);
        coverage
    }

    fn mask(&self, key: &KpiKey) -> Option<CoverageMask> {
        let started = Instant::now();
        let mask = self.inner.mask(key);
        let bytes = mask.as_ref().map_or(0, CoverageMask::len);
        self.counters.record(started, bytes);
        mask
    }
}

/// [`DurableHooks`] with the WAL append of every accepted frame timed and
/// its payload bytes summed.
#[derive(Debug)]
pub struct TimedHooks {
    inner: DurableHooks,
    /// Time spent in `on_accepted_frame` (the WAL append).
    pub append: Duration,
    /// Frame payload bytes handed to the WAL.
    pub bytes: u64,
}

impl TimedHooks {
    /// Wraps `inner` with zeroed counters.
    pub fn new(inner: DurableHooks) -> Self {
        Self {
            inner,
            append: Duration::ZERO,
            bytes: 0,
        }
    }

    /// The wrapped hooks (for their parked I/O error).
    pub fn inner(&self) -> &DurableHooks {
        &self.inner
    }
}

impl IngestHooks for TimedHooks {
    fn on_accepted_frame(&mut self, raw: &Bytes) -> Result<(), IngestAbort> {
        let started = Instant::now();
        let result = self.inner.on_accepted_frame(raw);
        self.append += started.elapsed();
        self.bytes += raw.len() as u64;
        result
    }

    fn after_commit(&mut self, collector: &Collector<'_>) -> Result<(), IngestAbort> {
        self.inner.after_commit(collector)
    }

    fn on_end_of_stream(&mut self, collector: &Collector<'_>) -> Result<(), IngestAbort> {
        self.inner.on_end_of_stream(collector)
    }
}
