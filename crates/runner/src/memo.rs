//! A concurrent memo table with in-flight deduplication.
//!
//! [`Memo::get_or_compute`] guarantees each key's value is computed at most
//! once even when many worker threads request it simultaneously: the first
//! caller computes while later callers block on a condition variable until
//! the value is published. The compute closure runs *outside* the lock, so
//! long simulations never serialize unrelated lookups.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Condvar, Mutex};

enum Slot<V> {
    /// A thread is computing this entry; waiters sleep on the condvar.
    InFlight,
    Ready(V),
}

/// Thread-safe map from `K` to lazily computed `V`.
pub struct Memo<K, V> {
    inner: Mutex<HashMap<K, Slot<V>>>,
    ready: Condvar,
}

impl<K: Eq + Hash + Clone, V: Clone> Memo<K, V> {
    /// An empty memo table.
    #[must_use]
    pub fn new() -> Memo<K, V> {
        Memo {
            inner: Mutex::new(HashMap::new()),
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
        struct Unpoison<'a, K: Eq + Hash, V> {
            memo: &'a Memo<K, V>,
            key: Option<K>,
        }
        impl<K: Eq + Hash, V> Drop for Unpoison<'_, K, V> {
            fn drop(&mut self) {
                if let Some(key) = self.key.take() {
                    if let Ok(mut map) = self.memo.inner.lock() {
                        map.remove(&key);
                    }
                    self.memo.ready.notify_all();
                }
            }
        }
        let mut guard = Unpoison {
            memo: self,
            key: Some(key.clone()),
        };
        let v = f();
        guard.key = None;
        let mut map = self.inner.lock().unwrap();
        map.insert(key, Slot::Ready(v.clone()));
        drop(map);
        self.ready.notify_all();
        (v, true)
    }

    /// The value for `key` if it is already computed.
    #[must_use]
    pub fn peek(&self, key: &K) -> Option<V> {
        self.peek_with(key, V::clone)
    }

    /// `f` applied to the value for `key`, if it is already computed,
    /// without cloning the value. `f` runs under the memo's lock.
    pub fn peek_with<R>(&self, key: &K, f: impl FnOnce(&V) -> R) -> Option<R> {
        match self.inner.lock().unwrap().get(key) {
            Some(Slot::Ready(v)) => Some(f(v)),
            _ => None,
        }
    }

    /// Insert a precomputed value (used when loading a persisted cache).
    /// Existing entries are left untouched.
    pub fn seed(&self, key: K, value: V) {
        self.inner
            .lock()
            .unwrap()
            .entry(key)
            .or_insert(Slot::Ready(value));
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

    /// The keys of all ready entries, in unspecified order.
    #[must_use]
    pub fn keys(&self) -> Vec<K> {
        self.inner
            .lock()
            .unwrap()
            .iter()
            .filter(|(_, s)| matches!(s, Slot::Ready(_)))
            .map(|(k, _)| k.clone())
            .collect()
    }
}

impl<K: Eq + Hash + Clone, V: Clone> Default for Memo<K, V> {
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
    fn seed_does_not_overwrite() {
        let memo: Memo<u32, u32> = Memo::new();
        memo.seed(1, 10);
        memo.seed(1, 20);
        assert_eq!(memo.peek(&1), Some(10));
        assert_eq!(memo.keys(), vec![1]);
    }
}
