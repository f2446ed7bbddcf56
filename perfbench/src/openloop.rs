//! Open-loop load accounting.
//!
//! Requests are due in bursts of `burst` that share one due time; burst
//! `k` is due `k · burst / rate` seconds after the phase starts, whether
//! or not earlier replies have arrived (`burst = 1` is a smooth stream). Latency is
//! measured from the due time, not the send time, so a late generator or
//! a stalled server shows up as latency instead of silently thinning the
//! offered load (coordinated omission). Lateness — send minus due — is
//! reported beside it as a validity check on the generator itself.

use crate::stats::Summary;

/// What became of one request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Outcome {
    /// Never answered (still pending when the phase closed).
    #[default]
    Missing,
    /// Answered with an `Ok` status and an output that passed its check.
    Ok,
    /// Answered with a non-`Ok` status or an output that failed its check.
    Failed,
}

/// Per-request send and reply times of one open-loop phase, in
/// nanoseconds since the phase start.
#[derive(Debug, Clone)]
pub struct Ledger {
    interval_ns: f64,
    burst: usize,
    sent_ns: Vec<Option<u64>>,
    replied: Vec<(Outcome, u64)>,
}

impl Ledger {
    /// A phase of `requests` requests offered at `rate` per second in
    /// bursts of `burst`.
    ///
    /// # Panics
    ///
    /// Panics unless `rate` is positive and finite and `burst` nonzero.
    pub fn new(requests: usize, rate: f64, burst: usize) -> Ledger {
        assert!(rate > 0.0 && rate.is_finite(), "rate must be positive");
        assert!(burst > 0, "burst must be nonzero");
        Ledger {
            interval_ns: 1e9 / rate,
            burst,
            sent_ns: vec![None; requests],
            replied: vec![(Outcome::Missing, 0); requests],
        }
    }

    /// Requests in the phase.
    pub fn len(&self) -> usize {
        self.sent_ns.len()
    }

    /// Due time of request `i`.
    pub fn due_ns(&self, i: usize) -> u64 {
        ((i - i % self.burst) as f64 * self.interval_ns).round() as u64
    }

    /// Records that request `i` left the generator at `at_ns`.
    pub fn sent(&mut self, i: usize, at_ns: u64) {
        self.sent_ns[i] = Some(at_ns);
    }

    /// Records the reply to request `i` arriving at `at_ns`.
    pub fn replied(&mut self, i: usize, at_ns: u64, outcome: Outcome) {
        self.replied[i] = (outcome, at_ns);
    }

    /// Folds the ledger into latency and lateness summaries.
    pub fn summarize(&self) -> PhaseLoad {
        let mut latency_ms = Vec::with_capacity(self.len());
        let mut late_ms = Vec::with_capacity(self.len());
        let (mut ok, mut failed, mut missing) = (0usize, 0usize, 0usize);
        for (i, (sent, &(outcome, at))) in self.sent_ns.iter().zip(&self.replied).enumerate() {
            let due = self.due_ns(i);
            if let Some(s) = sent {
                late_ms.push(s.saturating_sub(due) as f64 * 1e-6);
            }
            match outcome {
                Outcome::Ok => {
                    ok += 1;
                    latency_ms.push(at.saturating_sub(due) as f64 * 1e-6);
                }
                Outcome::Failed => failed += 1,
                Outcome::Missing => missing += 1,
            }
        }
        PhaseLoad {
            offered: self.len(),
            ok,
            failed,
            missing,
            latency_ms: Summary::of(&latency_ms),
            late_ms: Summary::of(&late_ms),
        }
    }
}

/// The load-side outcome of one open-loop phase.
#[derive(Debug, Clone)]
pub struct PhaseLoad {
    /// Requests offered.
    pub offered: usize,
    /// Replies that were `Ok` and passed their output check.
    pub ok: usize,
    /// Replies that failed (non-`Ok` status or a failed check).
    pub failed: usize,
    /// Requests that never got a reply.
    pub missing: usize,
    /// Due-time-to-reply latency of the `Ok` replies, ms.
    pub latency_ms: Summary,
    /// Generator lateness (send minus due) of every sent request, ms.
    pub late_ms: Summary,
}

impl PhaseLoad {
    /// Failures in the sense of the benchmark's `failed` count.
    pub fn failures(&self) -> usize {
        self.failed + self.missing
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_follow_the_rate() {
        let l = Ledger::new(4, 1000.0, 1);
        let due: Vec<u64> = (0..4).map(|i| l.due_ns(i)).collect();
        assert_eq!(due, vec![0, 1_000_000, 2_000_000, 3_000_000]);
        let third = Ledger::new(3, 3000.0, 1);
        assert_eq!(third.due_ns(2), 666_667);
        // Bursts of 4 at 1000/s: four requests every 4 ms.
        let bursty = Ledger::new(9, 1000.0, 4);
        let due: Vec<u64> = (0..9).map(|i| bursty.due_ns(i)).collect();
        assert_eq!(
            due,
            vec![0, 0, 0, 0, 4_000_000, 4_000_000, 4_000_000, 4_000_000, 8_000_000]
        );
    }

    #[test]
    fn latency_is_measured_from_due_time_not_send_time() {
        // 100 req/s: due at 0, 10, 20 ms. The generator sends request 1
        // five ms late; its reply lands 1 ms after the send.
        let mut l = Ledger::new(3, 100.0, 1);
        l.sent(0, 0);
        l.replied(0, 2_000_000, Outcome::Ok);
        l.sent(1, 15_000_000);
        l.replied(1, 16_000_000, Outcome::Ok);
        l.sent(2, 20_000_000);
        l.replied(2, 23_000_000, Outcome::Ok);
        let s = l.summarize();
        let mut lat = vec![2.0, 6.0, 3.0];
        lat.sort_by(f64::total_cmp);
        assert_eq!(s.latency_ms, Summary::of(&lat));
        assert_eq!(s.latency_ms.median, 3.0);
        assert_eq!(s.late_ms, Summary::of(&[0.0, 5.0, 0.0]));
        assert_eq!((s.ok, s.failures()), (3, 0));
    }

    #[test]
    fn missing_and_failed_replies_are_failures_without_latency() {
        let mut l = Ledger::new(4, 1000.0, 1);
        for i in 0..4 {
            l.sent(i, l.due_ns(i));
        }
        l.replied(0, 500_000, Outcome::Ok);
        l.replied(1, 1_900_000, Outcome::Failed);
        // 2 and 3 never answered.
        let s = l.summarize();
        assert_eq!((s.offered, s.ok, s.failed, s.missing), (4, 1, 1, 2));
        assert_eq!(s.failures(), 3);
        assert_eq!(s.latency_ms.n, 1);
        assert_eq!(s.latency_ms.median, 0.5);
        assert_eq!(s.late_ms.n, 4);
        assert_eq!(s.late_ms.median, 0.0);
    }
}
