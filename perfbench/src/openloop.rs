//! Open-loop request scheduling.
//!
//! An open loop sends request `i` when it is due (`start + i · period`),
//! whether or not earlier replies have come back. With one synchronous
//! connection a stalled reply delays every later send, so latency is timed
//! from the *due* time, not the actual send: the wait a stall imposes on the
//! requests queued behind it shows in their latency, and the generator's
//! lateness (`sent − due`) is reported on its own.

use std::time::{Duration, Instant};

/// A time source the schedule waits on; the wall clock in runs, a fake
/// clock in tests.
pub trait Clock {
    /// Nanoseconds since the clock's origin.
    fn now(&mut self) -> u64;
    /// Blocks until `now() >= t`.
    fn wait_until(&mut self, t: u64);
}

/// The wall clock, timing against a shared origin.
#[derive(Debug, Clone, Copy)]
pub struct Wall {
    /// Instant that reads as 0.
    pub origin: Instant,
}

impl Clock for Wall {
    fn now(&mut self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn wait_until(&mut self, t: u64) {
        let now = self.now();
        if t > now {
            std::thread::sleep(Duration::from_nanos(t - now));
        }
    }
}

/// A fixed-rate schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schedule {
    /// Due time of request 0, ns since the clock origin.
    pub start: u64,
    /// Gap between due times, ns.
    pub period: u64,
}

/// When one request was due, sent and completed (ns since the origin).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timing {
    /// Scheduled send time.
    pub due: u64,
    /// Actual send time (after waiting for the due time and for earlier
    /// requests on the same connection).
    pub sent: u64,
    /// Reply received.
    pub done: u64,
}

impl Timing {
    /// Open-loop latency: due time to reply.
    pub fn latency(&self) -> u64 {
        self.done - self.due
    }

    /// How late the generator sent the request.
    pub fn late(&self) -> u64 {
        self.sent - self.due
    }
}

impl Schedule {
    /// Due time of request `i`.
    pub fn due(&self, i: usize) -> u64 {
        self.start + i as u64 * self.period
    }

    /// Requests due strictly before `end`.
    pub fn count_before(&self, end: u64) -> usize {
        if end <= self.start {
            0
        } else {
            (end - self.start).div_ceil(self.period) as usize
        }
    }

    /// Runs requests `0..n` on one synchronous connection: waits for each
    /// due time, calls `send(clock, i)`, and returns every request's timing.
    pub fn run<C: Clock>(
        &self,
        clock: &mut C,
        n: usize,
        mut send: impl FnMut(&mut C, usize),
    ) -> Vec<Timing> {
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let due = self.due(i);
            clock.wait_until(due);
            let sent = clock.now();
            send(clock, i);
            out.push(Timing { due, sent, done: clock.now() });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A clock that only moves when waited on or when a request is served.
    struct Fake(u64);

    impl Clock for Fake {
        fn now(&mut self) -> u64 {
            self.0
        }
        fn wait_until(&mut self, t: u64) {
            self.0 = self.0.max(t);
        }
    }

    #[test]
    fn a_stalled_reply_shows_in_the_latency_of_later_requests() {
        let schedule = Schedule { start: 100, period: 10 };
        // Every request takes 2 ns, except request 1, which stalls for 35.
        let timings =
            schedule.run(&mut Fake(0), 6, |clock, i| clock.0 += if i == 1 { 35 } else { 2 });
        let latency: Vec<u64> = timings.iter().map(Timing::latency).collect();
        let late: Vec<u64> = timings.iter().map(Timing::late).collect();
        // Request 2 was due at 120 but could only be sent at 145, when the
        // stall ended: its latency carries the 25 ns it queued behind it.
        assert_eq!(latency, vec![2, 35, 27, 19, 11, 3]);
        assert_eq!(late, vec![0, 0, 25, 17, 9, 1]);
        // Timing from the actual send instead would hide the stall.
        assert!(timings[2..].iter().all(|t| t.done - t.sent == 2));
    }

    #[test]
    fn schedule_counts_requests_due_before_an_end_time() {
        let s = Schedule { start: 100, period: 10 };
        assert_eq!(s.count_before(100), 0);
        assert_eq!(s.count_before(101), 1);
        assert_eq!(s.count_before(200), 10);
        assert_eq!(s.due(3), 130);
    }
}
