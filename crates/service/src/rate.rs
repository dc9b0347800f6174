//! [`RateMeter`]: a lock-free sliding-window event-rate gauge.
//!
//! Operators size a table by a *rate* — "this table ingests 40k
//! rows/s", not "the ingest counter is at 1.2M". Cumulative counters
//! can't provide it without the reader keeping history, so the serving
//! layer meters its hot paths through this gauge: a ring of per-second
//! buckets updated with relaxed atomics (no locks, no allocation, a
//! handful of nanoseconds per `record`), read back as events-per-second
//! over the trailing [`RATE_WINDOW_SECS`]-second window. The readouts
//! are reported through `Stats` only; admission control (the server's
//! token buckets and estimate gate) reads none of them.
//!
//! The gauge is deliberately approximate at bucket boundaries: two
//! threads racing a second rollover may land a few events in the wrong
//! bucket. That skews a rate readout by at most one bucket's worth of
//! smear — irrelevant for a dashboard — in exchange for keeping
//! `record` off every lock. Counters that feed *correctness* (ingested
//! rows, versions) stay exact and separate.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// Ring capacity; must exceed [`RATE_WINDOW_SECS`] so the slots being
/// summed are never the ones being overwritten.
const RING: usize = 8;

/// Seconds of trailing history a [`RateMeter::per_second`] readout
/// averages over (the current partial second plus the preceding
/// complete ones).
pub const RATE_WINDOW_SECS: u64 = 5;

struct Slot {
    /// 1-based second stamp this slot's count belongs to; 0 = never used.
    sec: AtomicU64,
    count: AtomicU64,
}

/// A sliding-window events-per-second gauge. `Sync`, lock-free, and
/// cheap enough for per-estimate hot paths. See the module docs.
pub struct RateMeter {
    epoch: Instant,
    slots: [Slot; RING],
}

impl Default for RateMeter {
    fn default() -> Self {
        Self::new()
    }
}

impl RateMeter {
    /// A fresh gauge; the window starts empty.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            slots: std::array::from_fn(|_| Slot {
                sec: AtomicU64::new(0),
                count: AtomicU64::new(0),
            }),
        }
    }

    /// Records `n` events at the current instant.
    pub fn record(&self, n: u64) {
        if n == 0 {
            return;
        }
        let sec = self.epoch.elapsed().as_secs() + 1;
        let slot = &self.slots[(sec % RING as u64) as usize];
        let stamped = slot.sec.load(Relaxed);
        if stamped != sec && slot.sec.compare_exchange(stamped, sec, Relaxed, Relaxed).is_ok() {
            // This thread won the rollover; retire the stale count.
            slot.count.store(0, Relaxed);
        }
        slot.count.fetch_add(n, Relaxed);
    }

    /// Events per second over the trailing window: the current partial
    /// second plus up to [`RATE_WINDOW_SECS`]` - 1` complete ones
    /// (clamped to the gauge's own age, so a freshly created meter
    /// reports the rate over its actual lifetime instead of diluting it
    /// across seconds that never happened).
    pub fn per_second(&self) -> f64 {
        let elapsed = self.epoch.elapsed();
        let now_sec = elapsed.as_secs() + 1;
        let oldest = now_sec.saturating_sub(RATE_WINDOW_SECS - 1).max(1);
        let mut total = 0u64;
        for slot in &self.slots {
            let sec = slot.sec.load(Relaxed);
            if sec >= oldest && sec <= now_sec {
                total += slot.count.load(Relaxed);
            }
        }
        // Seconds actually covered: the complete buckets plus the lived
        // fraction of the current one.
        let frac = elapsed.as_secs_f64() - (now_sec - 1) as f64;
        let denom = ((now_sec - oldest) as f64 + frac).max(1e-3);
        total as f64 / denom
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_meter_reads_zero() {
        assert_eq!(RateMeter::new().per_second(), 0.0);
    }

    #[test]
    fn recorded_events_show_up_in_the_rate() {
        let m = RateMeter::new();
        m.record(500);
        m.record(250);
        let rate = m.per_second();
        // 750 events within the first (partial) second: the rate is at
        // least 750/window and realistically far higher.
        assert!(rate >= 750.0 / RATE_WINDOW_SECS as f64, "rate {rate}");
    }

    #[test]
    fn zero_count_records_are_free() {
        let m = RateMeter::new();
        m.record(0);
        assert_eq!(m.per_second(), 0.0);
    }

    #[test]
    fn concurrent_recording_loses_nothing_within_a_second() {
        let m = std::sync::Arc::new(RateMeter::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let m = std::sync::Arc::clone(&m);
                s.spawn(move || {
                    for _ in 0..1000 {
                        m.record(1);
                    }
                });
            }
        });
        // All 4000 events land inside the window (the test runs in far
        // less than RATE_WINDOW_SECS); rollover smear cannot shrink the
        // in-window total because every touched bucket is in-window.
        let rate = m.per_second();
        assert!(rate >= 4000.0 / RATE_WINDOW_SECS as f64, "rate {rate}");
    }
}
