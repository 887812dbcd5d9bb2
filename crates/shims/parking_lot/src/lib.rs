//! Offline shim for [`parking_lot`](https://crates.io/crates/parking_lot).
//!
//! The build environment has no crates.io access, so this crate provides the
//! subset of the parking_lot API the workspace uses, backed by `std::sync`
//! primitives. Semantics match parking_lot where it matters to callers:
//! `lock()`/`read()`/`write()` return guards directly (no poisoning — a
//! poisoned std lock is transparently recovered, mirroring parking_lot's
//! poison-free behavior), and `Condvar::wait*` operate on `&mut MutexGuard`.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::time::Duration;

/// Mutual exclusion primitive (parking_lot-compatible subset).
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

/// RAII guard for [`Mutex`].
pub struct MutexGuard<'a, T: ?Sized> {
    // `Option` so `Condvar::wait*` can move the std guard out and back in
    // while the caller keeps holding `&mut MutexGuard`.
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// Create a new mutex.
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the mutex, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let guard = match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        MutexGuard { inner: Some(guard) }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present")
    }
}

/// Reader-writer lock (parking_lot-compatible subset).
pub struct RwLock<T: ?Sized> {
    inner: std::sync::RwLock<T>,
}

/// RAII shared-read guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockReadGuard<'a, T>,
}

/// RAII exclusive-write guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockWriteGuard<'a, T>,
}

impl<T> RwLock<T> {
    /// Create a new reader-writer lock.
    pub const fn new(value: T) -> Self {
        RwLock {
            inner: std::sync::RwLock::new(value),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire a shared read lock, blocking until available.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let inner = match self.inner.read() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        RwLockReadGuard { inner }
    }

    /// Acquire the exclusive write lock, blocking until available.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let inner = match self.inner.write() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        RwLockWriteGuard { inner }
    }

    /// Try to acquire the exclusive write lock without blocking.
    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        match self.inner.try_write() {
            Ok(g) => Some(RwLockWriteGuard { inner: g }),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(RwLockWriteGuard {
                inner: p.into_inner(),
            }),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// Result of a timed [`Condvar`] wait.
#[derive(Debug, Clone, Copy)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    /// True if the wait ended because the timeout elapsed.
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

/// Condition variable operating on [`MutexGuard`]s in place.
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    /// Create a new condition variable.
    pub const fn new() -> Self {
        Condvar {
            inner: std::sync::Condvar::new(),
        }
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wake all waiters.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }

    /// Block until notified, releasing the guarded mutex while waiting.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let std_guard = guard.inner.take().expect("guard present");
        let std_guard = match self.inner.wait(std_guard) {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        guard.inner = Some(std_guard);
    }

    /// Block until notified or `timeout` elapses.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let std_guard = guard.inner.take().expect("guard present");
        let (std_guard, res) = match self.inner.wait_timeout(std_guard, timeout) {
            Ok((g, r)) => (g, r),
            Err(p) => p.into_inner(),
        };
        guard.inner = Some(std_guard);
        WaitTimeoutResult {
            timed_out: res.timed_out(),
        }
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1u32);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_try_write_blocked_by_reader() {
        let l = RwLock::new(0u32);
        let r = l.read();
        assert!(l.try_write().is_none());
        drop(r);
        assert!(l.try_write().is_some());
    }

    #[test]
    fn condvar_wait_for_times_out() {
        let m = Mutex::new(false);
        let cv = Condvar::new();
        let mut g = m.lock();
        let res = cv.wait_for(&mut g, Duration::from_millis(5));
        assert!(res.timed_out());
        assert!(!*g);
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let h = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut done = m.lock();
            while !*done {
                cv.wait(&mut done);
            }
        });
        {
            let (m, cv) = &*pair;
            *m.lock() = true;
            cv.notify_all();
        }
        h.join().unwrap();
    }
}
