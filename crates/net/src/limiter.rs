//! Admission control primitives: a token bucket for feedback-ingest
//! *rates* and a concurrency gate for estimate traffic.
//!
//! The serving layer's backpressure story is rate-shaped on purpose:
//! "this table may ingest 50k rows/s with a 10k burst" and "at most N
//! estimate requests execute at once" are statements an operator can
//! size against hardware, and the matching pushback (`Retry{after_ms}`)
//! tells a client *when* capacity returns instead of just that it was
//! refused. Both primitives are self-contained: they read none of the
//! rate gauges in [`quicksel_service::ServiceStats`], which are reported
//! through `Stats` only.

use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Arc;
use std::time::Instant;

/// A classic token bucket: `rate` tokens refill per second up to
/// `burst`, and each admitted unit of work takes one token. A take
/// larger than `burst` is admitted from a full bucket and leaves it in
/// debt (negative tokens) that the refill repays, so the long-run rate
/// holds whatever the batch size. Not
/// thread-safe by itself — the server keys one bucket per table behind
/// a mutex (admission is a few arithmetic ops; the lock is never the
/// bottleneck next to the work it admits).
#[derive(Debug)]
pub struct TokenBucket {
    rate: f64,
    burst: f64,
    tokens: f64,
    last_refill: Instant,
}

/// Ceiling on the `Retry{after_ms}` hint: one minute. An extreme
/// rate/burst ratio (a near-zero refill rate against a huge deficit)
/// would otherwise quote a retry time of days — or saturate the `u64`
/// outright via `f64::INFINITY as u64` — which clients treat as "never
/// retry". Capacity estimates that far out are fiction anyway; a capped
/// hint keeps the client politely probing.
pub const MAX_RETRY_AFTER_MS: u64 = 60_000;

impl TokenBucket {
    /// A bucket refilling `rate` tokens/s, holding at most `burst`
    /// (starts full). A non-finite or non-positive `rate` disables
    /// limiting: every take is admitted.
    pub fn new(rate: f64, burst: f64) -> Self {
        Self { rate, burst: burst.max(1.0), tokens: burst.max(1.0), last_refill: Instant::now() }
    }

    /// True when this bucket never refuses (unlimited rate).
    pub fn is_unlimited(&self) -> bool {
        !self.rate.is_finite() || self.rate <= 0.0
    }

    fn refill(&mut self) {
        let now = Instant::now();
        let elapsed = now.duration_since(self.last_refill).as_secs_f64();
        self.last_refill = now;
        self.tokens = (self.tokens + elapsed * self.rate).min(self.burst);
    }

    /// Tries to take `n` tokens. The bucket admits once it holds
    /// `min(n, burst)` tokens and then charges all `n`, so a take larger
    /// than the burst is admitted from a full bucket instead of never.
    /// `Ok(())` admits the work; `Err(ms)` refuses it and reports how
    /// many milliseconds until the bucket will have refilled enough (the
    /// `Retry{after_ms}` the client sees). Refused work takes nothing — a
    /// retried request is charged once, when it is admitted.
    pub fn try_take(&mut self, n: u64) -> Result<(), u64> {
        if self.is_unlimited() {
            return Ok(());
        }
        self.refill();
        let need = n as f64;
        let admit_at = need.min(self.burst);
        if self.tokens >= admit_at {
            self.tokens -= need;
            return Ok(());
        }
        // Time until the deficit (including any debt from an oversized
        // take) refills; clamped to at least 1ms so a client never
        // busy-spins on a zero backoff, and to [`MAX_RETRY_AFTER_MS`] so
        // an extreme rate/burst ratio can't quote an astronomic (or
        // `u64`-saturated) retry time.
        let deficit = admit_at - self.tokens;
        let ms = (deficit / self.rate * 1000.0).ceil();
        let ms = if ms.is_finite() {
            ms.min(MAX_RETRY_AFTER_MS as f64) as u64
        } else {
            MAX_RETRY_AFTER_MS
        };
        Err(ms.max(1))
    }
}

/// A global concurrency limit expressed as an RAII permit counter:
/// [`try_acquire`](ConcurrencyGate::try_acquire) either admits the
/// request (the permit releases its slot on drop, panic-safe) or
/// refuses without blocking — saturation becomes a typed `Retry`, never
/// a queue of stuck connections.
#[derive(Debug)]
pub struct ConcurrencyGate {
    active: Arc<AtomicU64>,
    limit: u64,
}

impl ConcurrencyGate {
    /// A gate admitting at most `limit` concurrent holders (`0` means
    /// unlimited).
    pub fn new(limit: u64) -> Self {
        Self { active: Arc::new(AtomicU64::new(0)), limit }
    }

    /// Currently held permits.
    pub fn active(&self) -> u64 {
        self.active.load(SeqCst)
    }

    /// Tries to take a slot; `None` means the gate is saturated.
    pub fn try_acquire(&self) -> Option<GatePermit> {
        if self.limit == 0 {
            return Some(GatePermit { active: Arc::clone(&self.active), counted: false });
        }
        // CAS loop: never overshoot the limit, even under contention.
        let mut current = self.active.load(SeqCst);
        loop {
            if current >= self.limit {
                return None;
            }
            match self.active.compare_exchange(current, current + 1, SeqCst, SeqCst) {
                Ok(_) => {
                    return Some(GatePermit { active: Arc::clone(&self.active), counted: true })
                }
                Err(now) => current = now,
            }
        }
    }
}

/// An admitted slot in a [`ConcurrencyGate`]; dropping it frees the
/// slot.
#[derive(Debug)]
pub struct GatePermit {
    active: Arc<AtomicU64>,
    counted: bool,
}

impl Drop for GatePermit {
    fn drop(&mut self) {
        if self.counted {
            self.active.fetch_sub(1, SeqCst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_admits_within_burst_then_refuses_with_backoff() {
        let mut b = TokenBucket::new(1000.0, 10.0);
        assert!(b.try_take(10).is_ok(), "burst admits");
        let backoff = b.try_take(10).unwrap_err();
        assert!(backoff >= 1, "refusal carries a positive backoff");
        // 10 tokens at 1000/s refill in ~10ms; the hint must not wildly
        // overshoot that.
        assert!(backoff <= 1000, "backoff hint {backoff}ms is unreasonable");
    }

    #[test]
    fn oversized_batch_is_admitted_from_a_full_bucket_and_charged_in_full() {
        let mut b = TokenBucket::new(100.0, 10.0);
        assert!(b.try_take(25).is_ok(), "a full bucket admits a take larger than its burst");
        // All 25 were charged: the next burst-sized take waits for the
        // 15-token debt plus 10 tokens (250ms), not for 10 alone (100ms).
        let backoff = b.try_take(10).unwrap_err();
        assert!(backoff > 100, "debt not charged: hint {backoff}ms");
        // The quoted hint comes true.
        std::thread::sleep(std::time::Duration::from_millis(backoff));
        assert!(b.try_take(10).is_ok(), "refused after waiting the {backoff}ms hint");
    }

    #[test]
    fn refused_takes_are_not_charged() {
        let mut b = TokenBucket::new(1e9, 100.0);
        assert!(b.try_take(100).is_ok());
        let _ = b.try_take(100); // refused (or admitted after refill); either way:
                                 // After a refused take the bucket must still refill to its full
                                 // burst — nothing was deducted.
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(b.try_take(100).is_ok(), "bucket refilled to burst");
    }

    #[test]
    fn extreme_rate_ratio_backoff_is_clamped() {
        // A trickle rate against a huge deficit: the honest refill time
        // is ~3 years; the hint must cap at the retry ceiling instead of
        // quoting it (or saturating u64 on an infinite intermediate).
        let mut b = TokenBucket::new(1e-6, 1e8);
        assert!(b.try_take(100_000_000).is_ok(), "burst admits");
        let backoff = b.try_take(100_000_000).unwrap_err();
        assert_eq!(backoff, MAX_RETRY_AFTER_MS);

        // Subnormal rate: deficit / rate overflows to infinity.
        let mut b = TokenBucket::new(f64::MIN_POSITIVE, 10.0);
        assert!(b.try_take(10).is_ok());
        let backoff = b.try_take(10).unwrap_err();
        assert!((1..=MAX_RETRY_AFTER_MS).contains(&backoff), "backoff {backoff} out of range");
    }

    #[test]
    fn non_positive_rate_means_unlimited() {
        let mut b = TokenBucket::new(f64::INFINITY, 1.0);
        assert!(b.is_unlimited());
        for _ in 0..1000 {
            assert!(b.try_take(1_000_000).is_ok());
        }
        assert!(TokenBucket::new(0.0, 1.0).is_unlimited());
    }

    #[test]
    fn gate_caps_concurrent_permits_and_releases_on_drop() {
        let gate = ConcurrencyGate::new(2);
        let a = gate.try_acquire().expect("slot 1");
        let _b = gate.try_acquire().expect("slot 2");
        assert!(gate.try_acquire().is_none(), "saturated");
        assert_eq!(gate.active(), 2);
        drop(a);
        assert_eq!(gate.active(), 1);
        assert!(gate.try_acquire().is_some(), "slot freed by drop");
    }

    #[test]
    fn zero_limit_gate_is_unlimited() {
        let gate = ConcurrencyGate::new(0);
        let permits: Vec<_> = (0..64).map(|_| gate.try_acquire().expect("unlimited")).collect();
        assert_eq!(gate.active(), 0, "unlimited permits are not counted");
        drop(permits);
    }
}
