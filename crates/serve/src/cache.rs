//! Sharded LRU response cache.
//!
//! Keys are hashed to one of `N` shards; each shard is an independent
//! LRU behind its own `std::sync::Mutex` (no `parking_lot` in this
//! offline workspace — short critical sections plus sharding fill the
//! same role of keeping contention negligible). Recency is tracked with
//! a monotonically increasing per-shard tick; eviction scans for the
//! minimum tick, which is O(shard capacity) but shards are small and
//! eviction is off the common hit path.
//!
//! [`ShardedLruCache::get_or_compute`] coalesces concurrent misses: the
//! first caller to miss a key computes it, and callers that miss the same
//! key meanwhile wait for that result instead of computing it again.
//!
//! The cache has no invalidation. A server keeps one cache per served
//! model and a hot-swap starts a fresh one beside the new model, so a
//! response can never outlive the model it was computed from.

use lesm_core::{fnv1a64, Fnv1a};
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// FNV-1a ([`Fnv1a`]) picks the shard and hashes inside each shard's
/// map. Cache keys are short request paths, where it hashes several
/// times faster than `DefaultHasher`'s SipHash; keys come from our own
/// route table, not an attacker, so HashDoS resistance buys nothing
/// here.
type FnvBuildHasher = BuildHasherDefault<Fnv1a>;

/// Where a [`ShardedLruCache::get_or_compute`] answer came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fetched {
    /// The key was cached.
    Hit,
    /// Another caller was computing the key; this one waited for it.
    Joined,
    /// This caller computed the value.
    Computed,
}

/// One in-progress computation of a key, which later callers wait on.
struct Flight<V> {
    /// `None` while running; `Some(None)` if the computing caller
    /// unwound without a value.
    outcome: Mutex<Option<Option<Arc<V>>>>,
    done: Condvar,
}

impl<V> Flight<V> {
    fn new() -> Self {
        Self { outcome: Mutex::new(None), done: Condvar::new() }
    }

    fn finish(&self, value: Option<Arc<V>>) {
        *self.outcome.lock().unwrap_or_else(|poisoned| poisoned.into_inner()) = Some(value);
        self.done.notify_all();
    }

    /// Blocks until the flight lands; `None` if it was abandoned.
    fn wait(&self) -> Option<Arc<V>> {
        let mut outcome = self.outcome.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        loop {
            if let Some(value) = outcome.as_ref() {
                return value.clone();
            }
            outcome = self.done.wait(outcome).unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }
}

struct Shard<V> {
    map: HashMap<String, (u64, Arc<V>), FnvBuildHasher>,
    /// Keys being computed right now.
    pending: HashMap<String, Arc<Flight<V>>, FnvBuildHasher>,
    tick: u64,
    capacity: usize,
}

impl<V> Shard<V> {
    fn get(&mut self, key: &str) -> Option<Arc<V>> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|slot| {
            slot.0 = tick;
            Arc::clone(&slot.1)
        })
    }

    fn put(&mut self, key: String, value: Arc<V>) {
        self.tick += 1;
        if !self.map.contains_key(&key) && self.map.len() >= self.capacity {
            // Ticks are unique per operation (`get` and `put` both advance
            // the counter first), so the minimum is a single entry and map
            // iteration order cannot change which key gets evicted.
            // lesm-lint: allow(D2) — per-operation ticks are unique; min-by-tick has exactly one winner
            let oldest = self.map.iter().min_by_key(|(_, (tick, _))| *tick).map(|(k, _)| k.clone());
            if let Some(oldest) = oldest {
                self.map.remove(&oldest);
            }
        }
        self.map.insert(key, (self.tick, value));
    }
}

/// A thread-safe string-keyed LRU cache split into lock shards.
///
/// `capacity == 0` disables caching entirely (`get` always misses, `put`
/// is a no-op) — used by benchmarks to measure uncached latency.
pub struct ShardedLruCache<V> {
    shards: Vec<Mutex<Shard<V>>>,
    // Decided once at construction: the hit path must not touch any
    // shard lock other than the key's own. (An earlier revision derived
    // this by locking *every* shard on every get/put, which made cached
    // lookups slower than recomputing the response.)
    disabled: bool,
}

impl<V> ShardedLruCache<V> {
    /// A cache holding at most `capacity` entries across `shards` shards.
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let per_shard = capacity.div_ceil(shards);
        Self {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        map: HashMap::default(),
                        pending: HashMap::default(),
                        tick: 0,
                        capacity: per_shard,
                    })
                })
                .collect(),
            disabled: capacity == 0,
        }
    }

    fn shard(&self, key: &str) -> &Mutex<Shard<V>> {
        &self.shards[(fnv1a64(key.as_bytes()) as usize) % self.shards.len()]
    }

    // Shard locks recover from poisoning (`into_inner`) instead of
    // panicking: a worker that died holding a shard leaves at worst a
    // stale recency ordering, which only affects which entry gets
    // evicted next — never correctness of cached responses.

    fn lock(&self, key: &str) -> MutexGuard<'_, Shard<V>> {
        self.shard(key).lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&self, key: &str) -> Option<Arc<V>> {
        if self.disabled {
            return None;
        }
        self.lock(key).get(key)
    }

    /// Returns the cached value of `key`, or computes it once: while one
    /// caller runs `compute`, later callers missing the same key wait for
    /// its value ([`Fetched::Joined`]) instead of computing it again. The
    /// value is cached only when `cacheable` accepts it, but waiters get
    /// it either way. If the computing caller unwinds, its waiters retry.
    /// A disabled cache computes on every call.
    pub fn get_or_compute(
        &self,
        key: &str,
        compute: impl FnOnce() -> V,
        cacheable: impl FnOnce(&V) -> bool,
    ) -> (Arc<V>, Fetched) {
        if self.disabled {
            return (Arc::new(compute()), Fetched::Computed);
        }
        let flight = loop {
            let joined = {
                let mut shard = self.lock(key);
                if let Some(hit) = shard.get(key) {
                    return (hit, Fetched::Hit);
                }
                match shard.pending.get(key) {
                    Some(flight) => Arc::clone(flight),
                    None => {
                        let flight = Arc::new(Flight::new());
                        shard.pending.insert(key.to_string(), Arc::clone(&flight));
                        break flight;
                    }
                }
            };
            if let Some(value) = joined.wait() {
                return (value, Fetched::Joined);
            }
        };
        let landing = Landing { cache: self, key, flight, landed: false };
        let value = Arc::new(compute());
        let keep = cacheable(&value);
        landing.land(Arc::clone(&value), keep);
        (value, Fetched::Computed)
    }

    /// Inserts `key`, evicting the shard's least recently used entry when
    /// the shard is full.
    pub fn put(&self, key: String, value: Arc<V>) {
        if self.disabled {
            return;
        }
        self.shard(&key).lock().unwrap_or_else(|poisoned| poisoned.into_inner()).put(key, value);
    }

    /// Total entries currently cached (for tests and metrics).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|poisoned| poisoned.into_inner()).map.len())
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The computing caller's side of a flight. Landing caches the value
/// (when it is cacheable), retires the pending slot and wakes the
/// waiters; dropping it unlanded — the computation unwound — retires the
/// slot and wakes them empty-handed. The pending slot is always the
/// lander's own: only its lander removes it.
struct Landing<'a, V> {
    cache: &'a ShardedLruCache<V>,
    key: &'a str,
    flight: Arc<Flight<V>>,
    landed: bool,
}

impl<V> Landing<'_, V> {
    fn land(mut self, value: Arc<V>, cacheable: bool) {
        self.landed = true;
        self.retire(cacheable.then(|| Arc::clone(&value)), Some(value));
    }

    fn retire(&self, cached: Option<Arc<V>>, outcome: Option<Arc<V>>) {
        {
            let mut shard = self.cache.lock(self.key);
            shard.pending.remove(self.key);
            if let Some(value) = cached {
                shard.put(self.key.to_string(), value);
            }
        }
        self.flight.finish(outcome);
    }
}

impl<V> Drop for Landing<'_, V> {
    fn drop(&mut self) {
        if !self.landed {
            self.retire(None, None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_put_miss_before() {
        let cache: ShardedLruCache<String> = ShardedLruCache::new(8, 2);
        assert!(cache.get("a").is_none());
        cache.put("a".into(), Arc::new("va".into()));
        assert_eq!(cache.get("a").as_deref(), Some(&"va".to_string()));
    }

    #[test]
    fn evicts_least_recently_used_within_a_shard() {
        // One shard so the eviction order is fully observable.
        let cache: ShardedLruCache<u32> = ShardedLruCache::new(2, 1);
        cache.put("a".into(), Arc::new(1));
        cache.put("b".into(), Arc::new(2));
        assert!(cache.get("a").is_some()); // refresh "a"; "b" is now LRU
        cache.put("c".into(), Arc::new(3));
        assert!(cache.get("b").is_none(), "b should have been evicted");
        assert!(cache.get("a").is_some());
        assert!(cache.get("c").is_some());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache: ShardedLruCache<u32> = ShardedLruCache::new(0, 4);
        cache.put("a".into(), Arc::new(1));
        assert!(cache.get("a").is_none());
        assert!(cache.is_empty());
    }

    #[test]
    fn updating_an_existing_key_does_not_evict() {
        let cache: ShardedLruCache<u32> = ShardedLruCache::new(2, 1);
        cache.put("a".into(), Arc::new(1));
        cache.put("b".into(), Arc::new(2));
        cache.put("a".into(), Arc::new(10));
        assert_eq!(cache.get("a").as_deref(), Some(&10));
        assert_eq!(cache.get("b").as_deref(), Some(&2));
    }

    /// References to `key`'s in-flight computation: the pending slot, the
    /// computing caller, and one per waiter.
    fn flight_refs<V>(cache: &ShardedLruCache<V>, key: &str) -> usize {
        cache.lock(key).pending.get(key).map_or(0, Arc::strong_count)
    }

    /// Spins until `key`'s flight has `refs` references: the callers the
    /// test started are then computing or waiting, not about to.
    fn await_flight_refs<V>(cache: &ShardedLruCache<V>, key: &str, refs: usize) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while flight_refs(cache, key) < refs {
            assert!(std::time::Instant::now() < deadline, "{key}: never reached {refs} flight refs");
            std::thread::yield_now();
        }
    }

    /// Starts computing `key` on a thread whose computation blocks until
    /// the returned sender fires (or is dropped, which makes it unwind).
    fn blocked_flight<'scope>(
        scope: &'scope std::thread::Scope<'scope, '_>,
        cache: &Arc<ShardedLruCache<u32>>,
        key: &'static str,
        value: u32,
        cacheable: bool,
    ) -> (std::sync::mpsc::Sender<()>, std::thread::ScopedJoinHandle<'scope, Option<Fetched>>) {
        let (release, gate) = std::sync::mpsc::channel::<()>();
        let shared = Arc::clone(cache);
        let leader = scope.spawn(move || {
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                shared.get_or_compute(key, || { gate.recv().expect("released"); value }, |_| cacheable)
            }));
            run.ok().map(|(_, fetched)| fetched)
        });
        await_flight_refs(cache, key, 2);
        (release, leader)
    }

    #[test]
    fn concurrent_misses_compute_once_and_waiters_share_the_value() {
        for cacheable in [true, false] {
            let cache = Arc::new(ShardedLruCache::<u32>::new(8, 2));
            let computed = std::sync::atomic::AtomicUsize::new(0);
            std::thread::scope(|scope| {
                let (release, leader) = blocked_flight(scope, &cache, "k", 7, cacheable);
                let waiters: Vec<_> = (0..4)
                    .map(|_| {
                        let cache = Arc::clone(&cache);
                        let computed = &computed;
                        scope.spawn(move || {
                            cache.get_or_compute(
                                "k",
                                || {
                                    computed.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                                    0
                                },
                                |_| true,
                            )
                        })
                    })
                    .collect();
                await_flight_refs(&cache, "k", 6);
                release.send(()).expect("leader waits");
                assert_eq!(leader.join().expect("leader"), Some(Fetched::Computed));
                for w in waiters {
                    let (value, fetched) = w.join().expect("waiter");
                    assert_eq!((*value, fetched), (7, Fetched::Joined));
                }
            });
            assert_eq!(computed.into_inner(), 0, "waiters must not compute");
            // Only a cacheable value stays behind.
            assert_eq!(cache.get("k").as_deref(), cacheable.then_some(&7));
            assert_eq!(flight_refs(&cache, "k"), 0);
        }
    }

    #[test]
    fn an_unwound_computation_lets_its_waiters_retry() {
        let cache = Arc::new(ShardedLruCache::<u32>::new(8, 2));
        std::thread::scope(|scope| {
            let (release, leader) = blocked_flight(scope, &cache, "k", 7, true);
            let waiter = {
                let cache = Arc::clone(&cache);
                scope.spawn(move || cache.get_or_compute("k", || 9, |_| true))
            };
            await_flight_refs(&cache, "k", 3);
            drop(release); // the leader's computation panics
            assert_eq!(leader.join().expect("leader thread"), None);
            let (value, fetched) = waiter.join().expect("waiter");
            assert_eq!((*value, fetched), (9, Fetched::Computed));
        });
        assert_eq!(cache.get("k").as_deref(), Some(&9));
    }

    #[test]
    fn disabled_cache_computes_every_time() {
        let cache: ShardedLruCache<u32> = ShardedLruCache::new(0, 2);
        assert_eq!(cache.get_or_compute("k", || 1, |_| true).1, Fetched::Computed);
        assert_eq!(cache.get_or_compute("k", || 2, |_| true), (Arc::new(2), Fetched::Computed));
    }

    #[test]
    fn concurrent_access_is_safe() {
        let cache: Arc<ShardedLruCache<usize>> = Arc::new(ShardedLruCache::new(64, 8));
        std::thread::scope(|scope| {
            for t in 0..4 {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..200 {
                        let key = format!("k{}", (t * 31 + i) % 50);
                        cache.put(key.clone(), Arc::new(i));
                        let _ = cache.get(&key);
                    }
                });
            }
        });
        assert!(cache.len() <= 64);
    }
}
