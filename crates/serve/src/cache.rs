//! Content-addressed result cache with single-flight admission.
//!
//! Keys are stable 64-bit content digests (the service composes
//! [`mve_core::sim::fnv1a_64`] over a request-kind tag, the kernel or
//! artefact id, and [`mve_core::sim::SimConfig::canonical_bytes`]); values
//! are completed artefact/report bytes. The cache guarantees the service's
//! exactly-once property: for any key, at most one worker computes while
//! every concurrent requester of the same key blocks until the result is
//! published ("single flight"). Completed entries are bounded by an LRU
//! cap; in-flight reservations are never evicted.

use std::collections::HashMap;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Monotonic counters describing cache behaviour. `hits + waits + misses`
/// equals the number of [`ResultCache::fetch`] calls, and `misses` equals
/// the number of unique keys computed — the "simulated exactly once"
/// evidence the integration tests assert on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Fetches answered immediately from a completed entry.
    pub hits: u64,
    /// Fetches that blocked on another worker's in-flight computation and
    /// were answered when it published.
    pub waits: u64,
    /// Fetches that reserved the key for computation.
    pub misses: u64,
    /// Completed entries evicted by the LRU cap.
    pub evictions: u64,
}

impl CacheStats {
    /// Fraction of fetches served without a fresh computation
    /// (`(hits + waits) / (hits + waits + misses)`).
    ///
    /// A fresh daemon has made no fetches yet; dividing there would yield
    /// NaN, which the JSON layer renders as `null` and breaks every
    /// numeric consumer of the metrics line. Clamped to `0.0` instead, so
    /// the field is always a finite number in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.waits + self.misses;
        if total == 0 {
            0.0
        } else {
            (self.hits + self.waits) as f64 / total as f64
        }
    }
}

#[derive(Debug)]
enum Slot {
    /// A worker holds the reservation and is computing.
    InFlight,
    /// Published bytes, with the LRU tick of the last touch.
    Ready {
        bytes: std::sync::Arc<Vec<u8>>,
        last_used: u64,
    },
}

#[derive(Debug, Default)]
struct Inner {
    slots: HashMap<u64, Slot>,
    ready_count: usize,
    tick: u64,
    stats: CacheStats,
}

/// The outcome of [`ResultCache::fetch`].
#[derive(Debug)]
pub enum Fetch {
    /// The key's published bytes (possibly after waiting on an in-flight
    /// computation).
    Hit(std::sync::Arc<Vec<u8>>),
    /// The caller now holds the key's reservation and MUST either
    /// [`ResultCache::fulfill`] or [`ResultCache::abandon`] it, or waiters
    /// hang forever. The server meets this obligation in one place, its
    /// private `cached` helper.
    Miss,
}

/// The content-addressed, single-flight, LRU-bounded result cache.
#[derive(Debug)]
pub struct ResultCache {
    inner: Mutex<Inner>,
    published: Condvar,
    cap: usize,
}

impl ResultCache {
    /// A cache holding at most `cap` completed entries (clamped to ≥ 1).
    pub fn new(cap: usize) -> Self {
        Self {
            inner: Mutex::new(Inner::default()),
            published: Condvar::new(),
            cap: cap.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // A worker panicking never leaves Inner inconsistent (all mutations
        // are single assignments), so poisoning is not propagated.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks up `key`: a completed entry is a hit; an in-flight entry
    /// blocks until published (a "wait"); an absent entry reserves the key
    /// and returns [`Fetch::Miss`] — see its obligations.
    pub fn fetch(&self, key: u64) -> Fetch {
        let mut inner = self.lock();
        let mut waited = false;
        loop {
            match inner.slots.get_mut(&key) {
                Some(Slot::Ready { bytes, .. }) => {
                    let bytes = bytes.clone();
                    inner.tick += 1;
                    let tick = inner.tick;
                    if let Some(Slot::Ready { last_used, .. }) = inner.slots.get_mut(&key) {
                        *last_used = tick;
                    }
                    if !waited {
                        inner.stats.hits += 1;
                    }
                    return Fetch::Hit(bytes);
                }
                Some(Slot::InFlight) => {
                    if !waited {
                        inner.stats.waits += 1;
                        waited = true;
                    }
                    inner = self
                        .published
                        .wait(inner)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                None => {
                    // Either a plain miss, or the in-flight worker we were
                    // waiting on abandoned the key — this caller takes over.
                    inner.slots.insert(key, Slot::InFlight);
                    inner.stats.misses += 1;
                    return Fetch::Miss;
                }
            }
        }
    }

    /// Publishes `bytes` under `key`, waking every waiter, and applies the
    /// LRU bound. Valid on reserved keys (the normal path) and unreserved
    /// ones (pre-warming).
    pub fn fulfill(&self, key: u64, bytes: Vec<u8>) -> std::sync::Arc<Vec<u8>> {
        let bytes = std::sync::Arc::new(bytes);
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let prev = inner.slots.insert(
            key,
            Slot::Ready {
                bytes: bytes.clone(),
                last_used: tick,
            },
        );
        if !matches!(prev, Some(Slot::Ready { .. })) {
            inner.ready_count += 1;
        }
        while inner.ready_count > self.cap {
            let victim = inner
                .slots
                .iter()
                .filter_map(|(&k, slot)| match slot {
                    Slot::Ready { last_used, .. } if k != key => Some((*last_used, k)),
                    _ => None,
                })
                .min()
                .map(|(_, k)| k);
            // The just-inserted key is exempt, so a cap of 1 still serves.
            let Some(victim) = victim else { break };
            inner.slots.remove(&victim);
            inner.ready_count -= 1;
            inner.stats.evictions += 1;
        }
        drop(inner);
        self.published.notify_all();
        bytes
    }

    /// Drops an unfulfilled reservation (the computing worker failed).
    /// Waiters wake and retry; one of them becomes the next computer.
    pub fn abandon(&self, key: u64) {
        let mut inner = self.lock();
        if matches!(inner.slots.get(&key), Some(Slot::InFlight)) {
            inner.slots.remove(&key);
        }
        drop(inner);
        self.published.notify_all();
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        self.lock().stats
    }

    /// Completed entries currently resident.
    pub fn len(&self) -> usize {
        self.lock().ready_count
    }

    /// Whether no completed entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn fetch_fulfill_hit_cycle() {
        let cache = ResultCache::new(8);
        assert!(matches!(cache.fetch(1), Fetch::Miss));
        cache.fulfill(1, b"one".to_vec());
        match cache.fetch(1) {
            Fetch::Hit(b) => assert_eq!(&**b, b"one"),
            Fetch::Miss => panic!("expected hit"),
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.waits, s.misses), (1, 0, 1));
    }

    #[test]
    fn concurrent_fetches_compute_each_key_exactly_once() {
        let cache = Arc::new(ResultCache::new(64));
        let computed = Arc::new(AtomicU64::new(0));
        let keys: Vec<u64> = (0..4).collect();
        std::thread::scope(|s| {
            for t in 0..16 {
                let cache = Arc::clone(&cache);
                let computed = Arc::clone(&computed);
                let keys = keys.clone();
                s.spawn(move || {
                    for &key in &keys {
                        match cache.fetch(key) {
                            Fetch::Hit(b) => {
                                assert_eq!(*b, key.to_le_bytes().to_vec());
                            }
                            Fetch::Miss => {
                                computed.fetch_add(1, Ordering::SeqCst);
                                // Give other threads time to pile up on the
                                // in-flight slot.
                                std::thread::sleep(std::time::Duration::from_millis(2));
                                cache.fulfill(key, key.to_le_bytes().to_vec());
                            }
                        }
                    }
                    let _ = t;
                });
            }
        });
        assert_eq!(computed.load(Ordering::SeqCst), 4, "one compute per key");
        let s = cache.stats();
        assert_eq!(s.misses, 4);
        assert_eq!(s.hits + s.waits, 16 * 4 - 4);
    }

    #[test]
    fn abandoned_reservations_hand_over_to_a_waiter() {
        let cache = Arc::new(ResultCache::new(8));
        assert!(matches!(cache.fetch(9), Fetch::Miss));
        let waiter = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || match cache.fetch(9) {
                Fetch::Hit(_) => panic!("leader abandoned; waiter must take over"),
                Fetch::Miss => {
                    cache.fulfill(9, b"recovered".to_vec());
                }
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(10));
        cache.abandon(9);
        waiter.join().expect("waiter");
        match cache.fetch(9) {
            Fetch::Hit(b) => assert_eq!(&**b, b"recovered"),
            Fetch::Miss => panic!("must be published"),
        }
    }

    #[test]
    fn lru_cap_evicts_least_recently_used_ready_entries() {
        let cache = ResultCache::new(2);
        for key in [1, 2] {
            assert!(matches!(cache.fetch(key), Fetch::Miss));
            cache.fulfill(key, vec![key as u8]);
        }
        // Touch 1 so 2 is the LRU victim when 3 arrives.
        assert!(matches!(cache.fetch(1), Fetch::Hit(_)));
        assert!(matches!(cache.fetch(3), Fetch::Miss));
        cache.fulfill(3, vec![3]);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        assert!(matches!(cache.fetch(1), Fetch::Hit(_)), "1 was touched");
        assert!(matches!(cache.fetch(2), Fetch::Miss), "2 was evicted");
        cache.abandon(2);
    }

    #[test]
    fn in_flight_reservations_are_never_evicted() {
        let cache = ResultCache::new(1);
        assert!(matches!(cache.fetch(7), Fetch::Miss)); // in flight
        for key in [8, 9] {
            assert!(matches!(cache.fetch(key), Fetch::Miss));
            cache.fulfill(key, vec![key as u8]);
        }
        // The reservation survived both inserts; publishing it works.
        cache.fulfill(7, b"late".to_vec());
        match cache.fetch(7) {
            Fetch::Hit(b) => assert_eq!(&**b, b"late"),
            Fetch::Miss => panic!("reservation must have survived"),
        }
    }
}
