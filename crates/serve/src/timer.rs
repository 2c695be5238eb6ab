//! Deadlines for the event-loop I/O core.
//!
//! The loop owns three kinds of deadlines — idle reaping, admission-queue
//! parking, and write-stall detection — one to three per connection, most
//! cancelled before they fire. One ordered map keyed by `(deadline,
//! sequence)` holds them all, and that key is the [`TimerId`]: cancel
//! removes it, the next deadline is the first key, and expiry pops keys
//! from the front. Cancelling a timer that has fired or was cancelled
//! finds no key, so it is a no-op by construction.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Handle returned by [`Timers::insert`]: the deadline plus an insertion
/// sequence, so ids are unique and order by deadline, then arming order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct TimerId(Instant, u64);

/// Armed timers in deadline order; `T` is the payload handed back on
/// expiry.
#[derive(Debug)]
pub struct Timers<T> {
    armed: BTreeMap<TimerId, T>,
    next_seq: u64,
}

impl<T> Default for Timers<T> {
    fn default() -> Self {
        Timers {
            armed: BTreeMap::new(),
            next_seq: 0,
        }
    }
}

impl<T> Timers<T> {
    /// Arm a timer to fire `after` from `now`.
    pub fn insert(&mut self, now: Instant, after: Duration, payload: T) -> TimerId {
        let id = TimerId(now + after, self.next_seq);
        self.next_seq += 1;
        self.armed.insert(id, payload);
        id
    }

    /// Cancel a timer. Cancelling an already-fired or already-cancelled
    /// id is a no-op.
    pub fn cancel(&mut self, id: TimerId) {
        self.armed.remove(&id);
    }

    /// Time until the earliest deadline, or `None` when nothing is armed.
    pub fn next_deadline(&self, now: Instant) -> Option<Duration> {
        let TimerId(deadline, _) = self.armed.keys().next()?;
        Some(deadline.saturating_duration_since(now))
    }

    /// Drain every timer whose deadline is at or before `now` into `out`
    /// as `(id, payload)` pairs, in deadline order.
    pub fn poll_expired(&mut self, now: Instant, out: &mut Vec<(TimerId, T)>) {
        out.clear();
        while let Some(entry) = self.armed.first_entry() {
            if entry.key().0 > now {
                break;
            }
            out.push(entry.remove_entry());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn timers_fire_after_their_deadline_not_before() {
        let t0 = Instant::now();
        let mut timers = Timers::default();
        timers.insert(t0, 20 * MS, 1u32);
        let mut out = Vec::new();

        timers.poll_expired(t0 + 10 * MS, &mut out);
        assert!(out.is_empty(), "fired early: {out:?}");

        timers.poll_expired(t0 + 40 * MS, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1, 1);
        assert_eq!(timers.armed.len(), 0);
    }

    #[test]
    fn cancelled_timers_never_fire() {
        let t0 = Instant::now();
        let mut timers = Timers::default();
        let a = timers.insert(t0, 10 * MS, 'a');
        let _b = timers.insert(t0, 10 * MS, 'b');
        timers.cancel(a);
        assert_eq!(timers.armed.len(), 1);
        let mut out = Vec::new();
        timers.poll_expired(t0 + 60 * MS, &mut out);
        assert_eq!(out.iter().map(|&(_, p)| p).collect::<Vec<_>>(), ['b']);
        // Double-cancel and cancel-after-fire are no-ops.
        timers.cancel(a);
        assert_eq!(timers.armed.len(), 0);
    }

    /// The event loop cancels a connection's timers when it closes the
    /// connection, including the idle timer whose firing closed it.
    #[test]
    fn cancelling_a_fired_timer_leaves_later_timers_armed() {
        let t0 = Instant::now();
        let mut timers = Timers::default();
        let first = timers.insert(t0, 100 * MS, 1u32);
        timers.insert(t0 + 50 * MS, 100 * MS, 2);
        let mut out = Vec::new();
        timers.poll_expired(t0 + 120 * MS, &mut out);
        assert_eq!(out, [(first, 1)]);
        timers.cancel(first);
        assert_eq!(timers.armed.len(), 1);
        assert_eq!(timers.next_deadline(t0 + 120 * MS), Some(30 * MS));
        timers.poll_expired(t0 + 150 * MS, &mut out);
        assert_eq!(out.iter().map(|&(_, p)| p).collect::<Vec<_>>(), [2]);
        assert_eq!(timers.armed.len(), 0);
    }

    #[test]
    fn next_deadline_tracks_the_earliest_live_timer() {
        let t0 = Instant::now();
        let mut timers: Timers<u32> = Timers::default();
        assert_eq!(timers.next_deadline(t0), None);
        let near = timers.insert(t0, 10 * MS, 1);
        timers.insert(t0, 200 * MS, 2);
        assert_eq!(timers.next_deadline(t0), Some(10 * MS));
        timers.cancel(near);
        assert_eq!(timers.next_deadline(t0), Some(200 * MS));
    }

    #[test]
    fn many_interleaved_arms_and_cancels_stay_consistent() {
        let t0 = Instant::now();
        let mut timers = Timers::default();
        let mut ids = Vec::new();
        for i in 0..100u32 {
            ids.push(timers.insert(t0, (5 + (i % 7) * 10) * MS, i));
        }
        for id in ids.iter().step_by(2) {
            timers.cancel(*id);
        }
        assert_eq!(timers.armed.len(), 50);
        let mut out = Vec::new();
        timers.poll_expired(t0 + 500 * MS, &mut out);
        assert_eq!(out.len(), 50);
        assert!(out.iter().all(|&(_, p)| p % 2 == 1));
        assert_eq!(timers.armed.len(), 0);
        assert_eq!(timers.next_deadline(t0 + 500 * MS), None);
    }
}
