//! Offline shim for `parking_lot`: a [`Mutex`] and [`RwLock`] whose lock
//! methods never return a poison error, backed by their `std::sync`
//! counterparts. Only the API the workspace uses is provided.

pub use std::sync::{MutexGuard, RwLockReadGuard, RwLockWriteGuard};

/// Non-poisoning mutex.
#[derive(Debug, Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Wrap a value.
    pub fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Acquire the lock, ignoring poisoning (parking_lot has none).
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Try to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(g),
            Err(std::sync::TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

/// Non-poisoning reader-writer lock.
#[derive(Debug, Default)]
pub struct RwLock<T>(std::sync::RwLock<T>);

impl<T> RwLock<T> {
    /// Wrap a value.
    pub fn new(value: T) -> Self {
        RwLock(std::sync::RwLock::new(value))
    }

    /// Acquire a shared read guard, ignoring poisoning.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Acquire the exclusive write guard, ignoring poisoning.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_round_trip() {
        let m = Mutex::new(5);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 6);
        assert_eq!(m.into_inner(), 6);
    }

    #[test]
    fn try_lock_contended() {
        let m = Mutex::new(1);
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn rwlock_round_trip() {
        let l = RwLock::new(3);
        {
            let a = l.read();
            let b = l.read();
            assert_eq!(*a + *b, 6);
        }
        *l.write() += 1;
        assert_eq!(*l.read(), 4);
        assert_eq!(l.into_inner(), 4);
    }
}
