//! A concurrent memo table with in-flight deduplication.
//!
//! [`Memo::get_or_compute`] guarantees each key's value is computed at most
//! once even when many worker threads request it simultaneously: the first
//! caller computes while later callers block on a condition variable until
//! the value is published. The compute closure runs *outside* the lock, so
//! long simulations never serialize unrelated lookups.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash};
use std::sync::{Condvar, Mutex};

enum Slot<V> {
    /// A thread is computing this entry; waiters sleep on the condvar.
    InFlight,
    Ready(V),
}

/// Thread-safe map from `K` to lazily computed `V`, hashing keys with `S`.
pub struct Memo<K, V, S = RandomState> {
    inner: Mutex<HashMap<K, Slot<V>, S>>,
    ready: Condvar,
}

impl<K: Eq + Hash + Clone, V: Clone, S: BuildHasher + Default> Memo<K, V, S> {
    /// An empty memo table.
    #[must_use]
    pub fn new() -> Memo<K, V, S> {
        Memo {
            inner: Mutex::new(HashMap::default()),
            ready: Condvar::new(),
        }
    }

    /// The value for `key`, computing it with `f` exactly once across all
    /// threads. Returns the value and whether *this call* computed it.
    ///
    /// # Panics
    /// Propagates a panic from `f`; the in-flight marker is removed first so
    /// other threads retry instead of deadlocking.
    pub fn get_or_compute(&self, key: K, f: impl FnOnce() -> V) -> (V, bool) {
        {
            let mut map = self.inner.lock().unwrap();
            loop {
                match map.get(&key) {
                    Some(Slot::Ready(v)) => return (v.clone(), false),
                    Some(Slot::InFlight) => map = self.ready.wait(map).unwrap(),
                    None => break,
                }
            }
            map.insert(key.clone(), Slot::InFlight);
        }
        // Clear the in-flight marker if `f` panics, so waiters recompute
        // rather than sleeping forever.
        struct Unpoison<'a, K: Eq + Hash, V, S: BuildHasher> {
            memo: &'a Memo<K, V, S>,
            key: Option<&'a K>,
        }
        impl<K: Eq + Hash, V, S: BuildHasher> Drop for Unpoison<'_, K, V, S> {
            fn drop(&mut self) {
                if let Some(key) = self.key.take() {
                    if let Ok(mut map) = self.memo.inner.lock() {
                        map.remove(key);
                    }
                    self.memo.ready.notify_all();
                }
            }
        }
        let mut guard = Unpoison {
            memo: self,
            key: Some(&key),
        };
        let v = f();
        guard.key = None;
        drop(guard);
        let mut map = self.inner.lock().unwrap();
        map.insert(key, Slot::Ready(v.clone()));
        drop(map);
        self.ready.notify_all();
        (v, true)
    }

    /// The value for `key` if it is already computed.
    #[must_use]
    pub fn peek(&self, key: &K) -> Option<V> {
        match self.inner.lock().unwrap().get(key) {
            Some(Slot::Ready(v)) => Some(v.clone()),
            _ => None,
        }
    }

    /// Whether `key` has a ready value, after inserting the value `f`
    /// returns if the key has no entry at all (used to move entries of a
    /// persisted cache in on first request). `f` runs under the memo's
    /// lock, so it never races a computation of the same key.
    pub fn seed_with(&self, key: &K, f: impl FnOnce() -> Option<V>) -> bool {
        let mut map = self.inner.lock().unwrap();
        match map.get(key) {
            Some(Slot::Ready(_)) => true,
            Some(Slot::InFlight) => false,
            None => match f() {
                Some(v) => {
                    map.insert(key.clone(), Slot::Ready(v));
                    true
                }
                None => false,
            },
        }
    }

    /// Number of ready entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap()
            .values()
            .filter(|s| matches!(s, Slot::Ready(_)))
            .count()
    }

    /// Whether no entries are ready.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every ready entry, in unspecified order.
    #[must_use]
    pub fn entries(&self) -> Vec<(K, V)> {
        self.inner
            .lock()
            .unwrap()
            .iter()
            .filter_map(|(k, s)| match s {
                Slot::Ready(v) => Some((k.clone(), v.clone())),
                Slot::InFlight => None,
            })
            .collect()
    }
}

impl<K: Eq + Hash + Clone, V: Clone, S: BuildHasher + Default> Default for Memo<K, V, S> {
    fn default() -> Self {
        Memo::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn computes_once_and_shares() {
        let memo: Memo<u32, u32> = Memo::new();
        let calls = AtomicUsize::new(0);
        let (v, computed) = memo.get_or_compute(7, || {
            calls.fetch_add(1, Ordering::SeqCst);
            42
        });
        assert_eq!((v, computed), (42, true));
        let (v, computed) = memo.get_or_compute(7, || {
            calls.fetch_add(1, Ordering::SeqCst);
            99
        });
        assert_eq!((v, computed), (42, false));
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn concurrent_requests_dedup() {
        let memo: Memo<u32, u32> = Memo::new();
        let calls = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    memo.get_or_compute(1, || {
                        calls.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_millis(10));
                        5
                    })
                });
            }
        });
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn panic_unblocks_waiters() {
        let memo: Memo<u32, u32> = Memo::new();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            memo.get_or_compute(3, || panic!("boom"));
        }));
        assert!(r.is_err());
        // The key is free again: a retry computes normally.
        let (v, computed) = memo.get_or_compute(3, || 11);
        assert_eq!((v, computed), (11, true));
    }

    #[test]
    fn seed_with_fills_only_absent_keys() {
        let memo: Memo<u32, u32> = Memo::new();
        assert!(!memo.seed_with(&1, || None));
        assert!(memo.seed_with(&1, || Some(10)));
        assert!(memo.seed_with(&1, || unreachable!()));
        assert_eq!(memo.peek(&1), Some(10));
        assert_eq!(memo.entries(), vec![(1, 10)]);
    }
}
