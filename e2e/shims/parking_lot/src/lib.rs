//! Offline stand-in for `parking_lot` 0.12: `Mutex`, `RwLock`, `Condvar` and
//! the `arc_lock` owned guards, as poison-ignoring wrappers over `std::sync`.
//! Only the calls the engine crates make are provided.

use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::sync::{self, Arc, PoisonError, TryLockError};
use std::time::Duration;

/// Marker naming the lock implementation in the owned-guard types.
pub struct RawRwLock;

#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

pub struct MutexGuard<'a, T: ?Sized>(Option<sync::MutexGuard<'a, T>>);

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }

    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(Some(self.0.lock().unwrap_or_else(PoisonError::into_inner)))
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(MutexGuard(Some(g))),
            Err(TryLockError::Poisoned(e)) => Some(MutexGuard(Some(e.into_inner()))),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.0.as_ref().expect("guard present outside Condvar::wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.0.as_mut().expect("guard present outside Condvar::wait")
    }
}

pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

#[derive(Debug, Default)]
pub struct Condvar(sync::Condvar);

impl Condvar {
    pub const fn new() -> Self {
        Condvar(sync::Condvar::new())
    }

    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let g = guard.0.take().expect("guard present");
        guard.0 = Some(self.0.wait(g).unwrap_or_else(PoisonError::into_inner));
    }

    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let g = guard.0.take().expect("guard present");
        let (g, r) = self
            .0
            .wait_timeout(g, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        guard.0 = Some(g);
        WaitTimeoutResult(r.timed_out())
    }

    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(sync::RwLock<T>);

pub struct RwLockReadGuard<'a, T: ?Sized>(sync::RwLockReadGuard<'a, T>);
pub struct RwLockWriteGuard<'a, T: ?Sized>(sync::RwLockWriteGuard<'a, T>);

impl<T> RwLock<T> {
    pub const fn new(value: T) -> Self {
        RwLock(sync::RwLock::new(value))
    }

    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard(self.0.read().unwrap_or_else(PoisonError::into_inner))
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard(self.0.write().unwrap_or_else(PoisonError::into_inner))
    }

    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        match self.0.try_read() {
            Ok(g) => Some(RwLockReadGuard(g)),
            Err(TryLockError::Poisoned(e)) => Some(RwLockReadGuard(e.into_inner())),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        match self.0.try_write() {
            Ok(g) => Some(RwLockWriteGuard(g)),
            Err(TryLockError::Poisoned(e)) => Some(RwLockWriteGuard(e.into_inner())),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

/// Extends a guard's borrow of the lock to `'static`.
///
/// # Safety
/// The caller must keep the `Arc` that owns the lock alive for as long as the
/// returned guard exists, and drop the guard before that `Arc`.
unsafe fn extend_read<T: 'static>(
    g: RwLockReadGuard<'_, T>,
) -> sync::RwLockReadGuard<'static, T> {
    // SAFETY: only the lifetime parameter changes; the caller upholds it.
    unsafe { std::mem::transmute(g.0) }
}

/// See [`extend_read`].
///
/// # Safety
/// As for [`extend_read`].
unsafe fn extend_write<T: 'static>(
    g: RwLockWriteGuard<'_, T>,
) -> sync::RwLockWriteGuard<'static, T> {
    // SAFETY: only the lifetime parameter changes; the caller upholds it.
    unsafe { std::mem::transmute(g.0) }
}

/// A read guard that owns a reference to its lock. Field order matters: the
/// guard is declared, and so dropped, before the `Arc` it borrows from.
pub struct ArcRwLockReadGuard<R, T: 'static> {
    guard: sync::RwLockReadGuard<'static, T>,
    _lock: Arc<RwLock<T>>,
    _raw: PhantomData<R>,
}

/// A write guard that owns a reference to its lock; see
/// [`ArcRwLockReadGuard`] for the field order.
pub struct ArcRwLockWriteGuard<R, T: 'static> {
    guard: sync::RwLockWriteGuard<'static, T>,
    _lock: Arc<RwLock<T>>,
    _raw: PhantomData<R>,
}

impl<T: 'static> RwLock<T> {
    pub fn read_arc(self: &Arc<Self>) -> ArcRwLockReadGuard<RawRwLock, T> {
        let lock = Arc::clone(self);
        // SAFETY: `lock` is stored beside the guard and dropped after it.
        let guard = unsafe { extend_read(lock.read()) };
        ArcRwLockReadGuard {
            guard,
            _lock: lock,
            _raw: PhantomData,
        }
    }

    pub fn write_arc(self: &Arc<Self>) -> ArcRwLockWriteGuard<RawRwLock, T> {
        let lock = Arc::clone(self);
        // SAFETY: `lock` is stored beside the guard and dropped after it.
        let guard = unsafe { extend_write(lock.write()) };
        ArcRwLockWriteGuard {
            guard,
            _lock: lock,
            _raw: PhantomData,
        }
    }

    pub fn try_read_arc(self: &Arc<Self>) -> Option<ArcRwLockReadGuard<RawRwLock, T>> {
        let lock = Arc::clone(self);
        // SAFETY: `lock` is stored beside the guard and dropped after it.
        let guard = unsafe { extend_read(lock.try_read()?) };
        Some(ArcRwLockReadGuard {
            guard,
            _lock: lock,
            _raw: PhantomData,
        })
    }

    pub fn try_write_arc(self: &Arc<Self>) -> Option<ArcRwLockWriteGuard<RawRwLock, T>> {
        let lock = Arc::clone(self);
        // SAFETY: `lock` is stored beside the guard and dropped after it.
        let guard = unsafe { extend_write(lock.try_write()?) };
        Some(ArcRwLockWriteGuard {
            guard,
            _lock: lock,
            _raw: PhantomData,
        })
    }
}

impl<R, T: 'static> Deref for ArcRwLockReadGuard<R, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<R, T: 'static> Deref for ArcRwLockWriteGuard<R, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<R, T: 'static> DerefMut for ArcRwLockWriteGuard<R, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}
