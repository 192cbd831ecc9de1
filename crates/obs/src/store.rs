//! The one concurrent memo store behind every cache level.
//!
//! [`Store<K, V>`] is a sharded `K → Arc<V>` map with three properties the
//! evaluation caches share:
//!
//! * **Bounded on request.** An optional element budget caps what the
//!   store holds; each value weighs what its `weigh` function says (one
//!   element per `f64` for signal buffers, one per entry for results).
//!   Over-budget inserts evict the oldest entries of the shard first, in
//!   O(1) each via a per-shard FIFO. The just-inserted entry is never
//!   evicted, so a single oversized value still inserts and overshoots the
//!   budget by at most itself.
//! * **Single-flight builds.** [`Store::get_or_insert_with`] builds a
//!   missing value outside the shard lock. Callers for the same key wait
//!   for that one build and share its `Arc`; callers for other keys are
//!   never blocked by it. A build that panics leaves the key absent, so the
//!   next caller builds it afresh.
//! * **Counted.** Every store keeps its own hit/miss/eviction counts
//!   ([`Store::stats`]) and mirrors each event into the global registry
//!   counters `<name>.hit`, `<name>.miss` and `<name>.evict`.
//!
//! Values must be pure functions of their keys: eviction and rebuilds then
//! cost only time, never a different result.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use crate::metrics::Counter;

/// Independently locked shards per store; bounds worker contention.
const SHARDS: usize = 16;

/// Hit/miss/eviction/occupancy counts of one [`Store`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Lookups served from the store (including callers that waited for a
    /// concurrent build of the same key).
    pub hits: u64,
    /// Lookups that found nothing; for [`Store::get_or_insert_with`] this
    /// is exactly the number of builds.
    pub misses: u64,
    /// Entries dropped by the element budget.
    pub evictions: u64,
    /// Entries currently held.
    pub entries: usize,
    /// Budget elements currently held.
    pub elements: usize,
}

impl StoreStats {
    /// Fraction of lookups served from the store (0 when idle).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

enum Slot<V> {
    Ready(Arc<V>),
    /// A caller is building the value outside the lock.
    Building,
}

struct Shard<K, V> {
    map: HashMap<K, Slot<V>>,
    /// Ready keys with their weights, oldest first.
    fifo: VecDeque<(K, usize)>,
    elements: usize,
}

struct ShardLock<K, V> {
    shard: Mutex<Shard<K, V>>,
    /// Signalled whenever a build on this shard finishes or fails.
    built: Condvar,
}

/// A sharded, optionally bounded, single-flight `K → Arc<V>` store (see
/// the module docs).
pub struct Store<K, V> {
    shards: Vec<ShardLock<K, V>>,
    /// Element budget per shard (total / [`SHARDS`], at least 1).
    shard_budget: Option<usize>,
    weigh: fn(&V) -> usize,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    obs_hits: Arc<Counter>,
    obs_misses: Arc<Counter>,
    obs_evictions: Arc<Counter>,
}

impl<K, V> std::fmt::Debug for Store<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("shard_budget", &self.shard_budget)
            .field("hits", &self.hits.get())
            .field("misses", &self.misses.get())
            .field("evictions", &self.evictions.get())
            .finish_non_exhaustive()
    }
}

/// Every update under a shard lock leaves the shard consistent (builds run
/// outside it), so a guard poisoned by an unrelated panic is safe to reuse.
fn lock<K, V>(s: &ShardLock<K, V>) -> MutexGuard<'_, Shard<K, V>> {
    s.shard.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<K: Hash + Eq + Clone, V> Store<K, V> {
    /// An unbounded store whose registry counters are `<name>.hit`,
    /// `<name>.miss` and `<name>.evict`. Every entry weighs one element.
    #[must_use]
    pub fn new(name: &str) -> Self {
        Self::build(name, None, |_| 1)
    }

    /// A store capped at `budget` elements, each value weighing
    /// `weigh(value)`. The budget splits evenly across the shards.
    #[must_use]
    pub fn bounded(name: &str, budget: usize, weigh: fn(&V) -> usize) -> Self {
        Self::build(name, Some((budget / SHARDS).max(1)), weigh)
    }

    fn build(name: &str, shard_budget: Option<usize>, weigh: fn(&V) -> usize) -> Self {
        let obs = crate::global();
        Self {
            shards: (0..SHARDS)
                .map(|_| ShardLock {
                    shard: Mutex::new(Shard {
                        map: HashMap::new(),
                        fifo: VecDeque::new(),
                        elements: 0,
                    }),
                    built: Condvar::new(),
                })
                .collect(),
            shard_budget,
            weigh,
            hits: Counter::new(),
            misses: Counter::new(),
            evictions: Counter::new(),
            obs_hits: obs.counter(&format!("{name}.hit")),
            obs_misses: obs.counter(&format!("{name}.miss")),
            obs_evictions: obs.counter(&format!("{name}.evict")),
        }
    }

    fn shard(&self, key: &K) -> &ShardLock<K, V> {
        // A fixed-key hasher: the shard of a key, and so the eviction
        // order, is the same in every process.
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() % SHARDS as u64) as usize]
    }

    fn hit(&self) {
        self.hits.incr();
        self.obs_hits.incr();
    }

    fn miss(&self) {
        self.misses.incr();
        self.obs_misses.incr();
    }

    /// The value held under `key`, counting the hit or miss. Never waits:
    /// a key whose build is in flight counts as a miss.
    #[must_use]
    pub fn get(&self, key: &K) -> Option<Arc<V>> {
        let found = match lock(self.shard(key)).map.get(key) {
            Some(Slot::Ready(v)) => Some(Arc::clone(v)),
            _ => None,
        };
        if found.is_some() {
            self.hit();
        } else {
            self.miss();
        }
        found
    }

    /// Stores `value` under `key` and returns the held handle. A value
    /// already held under `key` is kept (values are pure functions of
    /// their keys, so both are the same).
    pub fn insert(&self, key: K, value: V) -> Arc<V> {
        self.publish(&mut lock(self.shard(&key)), key, Arc::new(value))
    }

    /// The value under `key`, built by `build` on a miss. Concurrent
    /// callers for the same key wait for one build and share its result;
    /// the build runs outside the shard lock. If `build` panics, the key
    /// stays absent and the panic propagates to this caller only.
    pub fn get_or_insert_with(&self, key: &K, build: impl FnOnce() -> V) -> Arc<V> {
        let s = self.shard(key);
        let mut shard = lock(s);
        loop {
            match shard.map.get(key) {
                Some(Slot::Ready(v)) => {
                    self.hit();
                    return Arc::clone(v);
                }
                Some(Slot::Building) => {
                    shard = s.built.wait(shard).unwrap_or_else(PoisonError::into_inner);
                }
                None => break,
            }
        }
        shard.map.insert(key.clone(), Slot::Building);
        drop(shard);
        let flight = Flight { shard: s, key };
        self.miss();
        let value = Arc::new(build());
        let held = self.publish(&mut lock(s), key.clone(), value);
        // After the shard lock is released: wakes the waiters.
        drop(flight);
        held
    }

    /// Makes `value` the ready entry for `key` (unless one is already
    /// ready) and evicts oldest-first while the shard is over budget.
    fn publish(&self, shard: &mut Shard<K, V>, key: K, value: Arc<V>) -> Arc<V> {
        if let Some(Slot::Ready(held)) = shard.map.get(&key) {
            return Arc::clone(held);
        }
        let weight = (self.weigh)(&value);
        shard.elements += weight;
        shard
            .map
            .insert(key.clone(), Slot::Ready(Arc::clone(&value)));
        shard.fifo.push_back((key, weight));
        let mut evicted = 0;
        if let Some(budget) = self.shard_budget {
            while shard.elements > budget && shard.fifo.len() > 1 {
                let Some((old, w)) = shard.fifo.pop_front() else {
                    break;
                };
                shard.map.remove(&old);
                shard.elements -= w;
                evicted += 1;
            }
        }
        if evicted > 0 {
            self.evictions.add(evicted);
            self.obs_evictions.add(evicted);
        }
        value
    }

    /// Every held entry, in no particular order.
    #[must_use]
    pub fn entries(&self) -> Vec<(K, Arc<V>)> {
        let mut out = Vec::new();
        for s in &self.shards {
            let shard = lock(s);
            out.extend(
                shard
                    .fifo
                    .iter()
                    .filter_map(|(k, _)| match shard.map.get(k) {
                        Some(Slot::Ready(v)) => Some((k.clone(), Arc::clone(v))),
                        _ => None,
                    }),
            );
        }
        out
    }

    /// Number of held entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).fifo.len()).sum()
    }

    /// `true` when nothing is held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current counts of this store (the registry mirrors are separate and
    /// process-wide).
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        let (mut entries, mut elements) = (0, 0);
        for s in &self.shards {
            let shard = lock(s);
            entries += shard.fifo.len();
            elements += shard.elements;
        }
        StoreStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
            entries,
            elements,
        }
    }

    /// Zeroes the hit/miss/eviction counts; entries stay held.
    pub fn reset_stats(&self) {
        self.hits.reset();
        self.misses.reset();
        self.evictions.reset();
    }

    /// Drops every held entry and zeroes the counts. Builds in flight
    /// still complete and insert their values.
    pub fn clear(&self) {
        for s in &self.shards {
            let mut shard = lock(s);
            shard.map.retain(|_, slot| matches!(slot, Slot::Building));
            shard.fifo.clear();
            shard.elements = 0;
        }
        self.reset_stats();
    }
}

/// An in-flight build. Dropping it — after the value is published, or
/// while a panicking build unwinds — removes a leftover `Building` marker
/// and wakes every caller waiting on the shard.
struct Flight<'a, K: Hash + Eq, V> {
    shard: &'a ShardLock<K, V>,
    key: &'a K,
}

impl<K: Hash + Eq, V> Drop for Flight<'_, K, V> {
    fn drop(&mut self) {
        let mut shard = lock(self.shard);
        if matches!(shard.map.get(self.key), Some(Slot::Building)) {
            shard.map.remove(self.key);
        }
        drop(shard);
        self.shard.built.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    #[test]
    fn eviction_is_oldest_first_and_stays_within_budget() {
        // 16 elements per shard; 4-element values hold four per shard.
        let store: Store<u64, Vec<f64>> = Store::bounded("test.store.evict", 16 * 16, Vec::len);
        for k in 0..640 {
            store.insert(k, vec![0.5; 4]);
        }
        let s = store.stats();
        assert!(s.elements <= 16 * 16, "held {} elements", s.elements);
        assert_eq!(s.elements, 4 * s.entries);
        assert_eq!(s.evictions as usize + s.entries, 640);
        // Per shard, the survivors are exactly the newest keys inserted.
        for shard in &store.shards {
            let shard = lock(shard);
            let held: Vec<u64> = shard.fifo.iter().map(|(k, _)| *k).collect();
            let newest = {
                let mut mine: Vec<u64> = (0..640)
                    .filter(|k| std::ptr::eq(store.shard(k), store.shard(&held[0])))
                    .collect();
                mine.split_off(mine.len() - held.len())
            };
            assert_eq!(held, newest);
        }
        // Evicted keys miss; the last insert is held.
        assert!(store.get(&0).is_none());
        assert!(store.get(&639).is_some());
    }

    #[test]
    fn an_oversized_value_still_inserts() {
        let store: Store<u64, Vec<f64>> = Store::bounded("test.store.oversized", 16, Vec::len);
        store.insert(1, vec![0.0; 4]);
        let big = store.get_or_insert_with(&2, || vec![0.0; 1000]);
        assert_eq!(big.len(), 1000);
        assert!(store.get(&2).is_some(), "the new entry is never evicted");
        assert!(store.stats().elements <= 1000 + 4);
    }

    #[test]
    fn racing_callers_share_one_build() {
        const THREADS: usize = 8;
        let store: Store<u64, Vec<f64>> = Store::new("test.store.race");
        let builds = AtomicUsize::new(0);
        let arrived = AtomicUsize::new(0);
        let start = Barrier::new(THREADS);
        let handles: Vec<Arc<Vec<f64>>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        arrived.fetch_add(1, Ordering::SeqCst);
                        store.get_or_insert_with(&7, || {
                            builds.fetch_add(1, Ordering::SeqCst);
                            // Hold the build open until every racer is at
                            // the store, plus a margin to reach the wait.
                            while arrived.load(Ordering::SeqCst) < THREADS {
                                std::thread::yield_now();
                            }
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            vec![1.0, 2.0]
                        })
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("racer completes"))
                .collect()
        });
        assert_eq!(builds.load(Ordering::SeqCst), 1, "exactly one build");
        assert!(handles.iter().all(|h| Arc::ptr_eq(h, &handles[0])));
        let s = store.stats();
        assert_eq!((s.misses, s.hits, s.entries), (1, THREADS as u64 - 1, 1));
    }

    #[test]
    fn a_build_in_flight_never_blocks_other_keys() {
        let store: Store<u64, u64> = Store::new("test.store.other_keys");
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let store = &store;
        std::thread::scope(|scope| {
            let slow = scope.spawn(move || {
                store.get_or_insert_with(&1, || {
                    started_tx.send(()).expect("main thread listens");
                    release_rx.recv().expect("main thread releases the build");
                    10
                })
            });
            started_rx.recv().expect("slow build starts");
            // Every other key, on any shard, builds while key 1 is held
            // open (a blocked lookup would deadlock this test).
            for k in 2..64 {
                assert_eq!(*store.get_or_insert_with(&k, || k * 10), k * 10);
            }
            release_tx.send(()).expect("slow build waits");
            assert_eq!(*slow.join().expect("slow build completes"), 10);
        });
    }

    #[test]
    fn a_panicking_build_leaves_the_key_buildable() {
        let store: Store<u64, u64> = Store::new("test.store.panic");
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.get_or_insert_with(&3, || panic!("build fails"))
        }));
        assert!(caught.is_err());
        assert!(store.is_empty());
        assert_eq!(store.stats().misses, 1);
        let v = store.get_or_insert_with(&3, || 42);
        assert_eq!(*v, 42);
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 2, 1));
    }

    #[test]
    fn stats_reset_and_clear_behave_as_documented() {
        let store: Store<u64, Vec<f64>> = Store::new("test.store.stats");
        assert!(store.get(&1).is_none());
        let a = store.insert(1, vec![1.0; 3]);
        let b = store.insert(1, vec![2.0; 3]);
        assert!(Arc::ptr_eq(&a, &b), "insert keeps the held value");
        assert!(store.get(&1).is_some());
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 1, 0));
        // Unbounded stores weigh one element per entry.
        assert_eq!((s.entries, s.elements), (1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(StoreStats::default().hit_rate(), 0.0);
        // reset_stats zeroes the counts and keeps the entries.
        store.reset_stats();
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 0, 1));
        // clear drops the entries and zeroes the counts.
        let _ = store.get(&1);
        store.clear();
        assert_eq!(store.stats(), StoreStats::default());
        assert!(store.get(&1).is_none());
        assert!(store.entries().is_empty());
    }

    #[test]
    fn counts_are_mirrored_into_the_registry() {
        let store: Store<u64, Vec<f64>> = Store::bounded("test.store.mirror", 16, Vec::len);
        let before = |event: &str| crate::global().counter(&format!("test.store.mirror.{event}"));
        let (h0, m0, e0) = (
            before("hit").get(),
            before("miss").get(),
            before("evict").get(),
        );
        store.get_or_insert_with(&1, || vec![0.0; 8]);
        store.get_or_insert_with(&1, || vec![0.0; 8]);
        // Fill key 1's shard past its one-element budget.
        let same_shard = (2..).find(|k| std::ptr::eq(store.shard(k), store.shard(&1)));
        let k = same_shard.unwrap_or(2);
        store.insert(k, vec![0.0; 8]);
        assert_eq!(before("hit").get() - h0, 1);
        assert_eq!(before("miss").get() - m0, 1);
        assert_eq!(before("evict").get() - e0, 1);
        assert_eq!(store.stats().evictions, 1);
    }
}
