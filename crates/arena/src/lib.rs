//! Reset-per-tick scratch allocator for the simulation hot loops.
//!
//! The `cargo xtask analyze` pass A008 proves which allocation sites in
//! the hot paths are *scope-local temporaries* — buffers that are filled,
//! read, and dropped inside one call, never returned, stored, or captured.
//! This crate is where those buffers go instead of the global allocator:
//! an [`Arena<B>`] keeps a pool of reusable buffers, [`Arena::take`] hands
//! out an **empty** one (recycled if the pool has one, freshly defaulted
//! otherwise), and [`Arena::give`] (or a dropped [`Scope`] guard) clears
//! it and returns it to the pool. After a short warm-up every take is a
//! pool hit and the steady state performs zero heap allocation.
//!
//! # Determinism
//!
//! Recycling is invisible to results by construction: a taken buffer is
//! always empty, so the only thing reuse changes is *capacity* — never
//! contents. Code converted to the arena produces byte-identical output
//! to its allocating form at any `ANUBIS_THREADS` setting (the arena is
//! single-threaded; parallel workers own one arena each, mirroring the
//! `anubis-parallel` chunk contract).
//!
//! # Discipline
//!
//! Functions converted to arena scratch are registered `ArenaClean` in
//! the analyzer's `alloc_entries`; any direct allocation reappearing in
//! them is an *enforced* A008 finding the baseline never absorbs. Calls into this
//! crate are sanctioned — pooled growth inside the arena does not count
//! against the caller.
//!
//! [`Arena::reset`] marks a tick boundary: it publishes per-epoch debug
//! stats (takes, pool misses, high-water live count) through
//! `anubis-obs` counters in debug builds and starts a new epoch. All
//! scopes must have ended by then; the live count going into a reset is
//! observable via [`Arena::live`].
//!
//! # Examples
//!
//! ```
//! use anubis_arena::Arena;
//!
//! let arena: Arena<Vec<u32>> = Arena::new();
//! {
//!     let mut scratch = arena.scope();
//!     scratch.extend([1, 2, 3]);
//!     assert_eq!(scratch.len(), 3);
//! } // scope drops: buffer is cleared and pooled
//! let reused = arena.take();
//! assert!(reused.is_empty());
//! assert!(reused.capacity() >= 3, "capacity survives the round-trip");
//! arena.give(reused);
//! ```

// Panic-freedom: this crate runs in the fleet-facing validation path, so
// clippy rejects unwrap/expect/panic! in its library code (tests may
// unwrap freely).
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

// The pool is the one sanctioned `Cell`/`RefCell` user: arenas are
// per-thread (`!Sync`), so the cells never cross a worker boundary.
#[allow(clippy::disallowed_types)]
use std::cell::{Cell, RefCell};
use std::ops::{Deref, DerefMut};

/// A poolable scratch buffer: constructible empty, clearable in place
/// (keeping its backing storage), and able to report that storage for
/// high-water statistics.
pub trait Scratch: Default {
    /// Empties the buffer without releasing its backing storage.
    fn reset(&mut self);
    /// Backing storage currently held, in elements (or bytes for
    /// [`String`]). Only used for statistics.
    fn capacity_units(&self) -> usize;
}

impl<T> Scratch for Vec<T> {
    fn reset(&mut self) {
        self.clear();
    }
    fn capacity_units(&self) -> usize {
        self.capacity()
    }
}

impl Scratch for String {
    fn reset(&mut self) {
        self.clear();
    }
    fn capacity_units(&self) -> usize {
        self.capacity()
    }
}

/// A pool of reusable scratch buffers of one type.
///
/// Interior mutability (the pool is a `RefCell`, counters are `Cell`s)
/// lets several [`Scope`] guards from the same arena overlap; the type is
/// deliberately `!Sync` — share arenas per thread, never across threads.
#[derive(Debug, Default)]
#[allow(clippy::disallowed_types)] // the sanctioned pool cells
pub struct Arena<B: Scratch> {
    free: RefCell<Vec<B>>,
    live: Cell<usize>,
    high_water: Cell<usize>,
    takes: Cell<i64>,
    misses: Cell<i64>,
}

impl<B: Scratch> Arena<B> {
    /// An empty arena; the pool fills as buffers are given back.
    #[must_use]
    #[allow(clippy::disallowed_types)] // the sanctioned pool cells
    pub fn new() -> Self {
        Self {
            free: RefCell::new(Vec::new()),
            live: Cell::new(0),
            high_water: Cell::new(0),
            takes: Cell::new(0),
            misses: Cell::new(0),
        }
    }

    /// An arena pre-warmed with `n` default (empty) buffers, so even the
    /// first tick takes pool hits.
    #[must_use]
    pub fn with_pool(n: usize) -> Self {
        let arena = Self::new();
        if let Ok(mut free) = arena.free.try_borrow_mut() {
            free.resize_with(n, B::default);
        }
        arena
    }

    /// Hands out an empty buffer: recycled from the pool when one is
    /// available, freshly defaulted otherwise (a *pool miss*).
    pub fn take(&self) -> B {
        let recycled = self.free.try_borrow_mut().ok().and_then(|mut f| f.pop());
        let buf = match recycled {
            Some(buf) => buf,
            None => {
                self.misses.set(self.misses.get().saturating_add(1));
                B::default()
            }
        };
        self.takes.set(self.takes.get().saturating_add(1));
        let live = self.live.get() + 1;
        self.live.set(live);
        if live > self.high_water.get() {
            self.high_water.set(live);
        }
        buf
    }

    /// Clears `buf` and returns it to the pool.
    pub fn give(&self, mut buf: B) {
        buf.reset();
        self.live.set(self.live.get().saturating_sub(1));
        if let Ok(mut free) = self.free.try_borrow_mut() {
            free.push(buf);
        }
    }

    /// Takes a buffer wrapped in an RAII guard that gives it back on
    /// drop. Guards from the same arena may overlap.
    pub fn scope(&self) -> Scope<'_, B> {
        Scope {
            arena: self,
            buf: self.take(),
        }
    }

    /// Buffers currently handed out (taken and not yet given back).
    #[must_use]
    pub fn live(&self) -> usize {
        self.live.get()
    }

    /// Buffers currently resting in the pool.
    #[must_use]
    pub fn pooled(&self) -> usize {
        self.free.try_borrow().map_or(0, |f| f.len())
    }

    /// Highest simultaneous live count this epoch.
    #[must_use]
    pub fn high_water(&self) -> usize {
        self.high_water.get()
    }

    /// Takes this epoch that missed the pool and hit the allocator.
    #[must_use]
    pub fn misses(&self) -> i64 {
        self.misses.get()
    }

    /// Total backing storage resting in the pool, in
    /// [`Scratch::capacity_units`].
    #[must_use]
    pub fn pooled_capacity_units(&self) -> usize {
        self.free
            .try_borrow()
            .map_or(0, |f| f.iter().map(Scratch::capacity_units).sum())
    }

    /// Tick boundary: publishes this epoch's debug counters (debug builds
    /// only — release and result bytes are unaffected) and starts a new
    /// epoch. Call once per simulation tick, after all scopes have ended.
    pub fn reset(&self) {
        #[cfg(debug_assertions)]
        {
            anubis_obs::counter!("arena.takes", self.takes.get());
            anubis_obs::counter!("arena.misses", self.misses.get());
            let hw = i64::try_from(self.high_water.get()).unwrap_or(i64::MAX);
            anubis_obs::counter!("arena.high_water_sum", hw);
        }
        self.takes.set(0);
        self.misses.set(0);
        self.high_water.set(self.live.get());
    }
}

/// RAII guard for one taken buffer: derefs to the buffer and gives it
/// back (cleared) to its [`Arena`] on drop.
#[derive(Debug)]
pub struct Scope<'a, B: Scratch> {
    arena: &'a Arena<B>,
    buf: B,
}

impl<B: Scratch> Deref for Scope<'_, B> {
    type Target = B;
    fn deref(&self) -> &B {
        &self.buf
    }
}

impl<B: Scratch> DerefMut for Scope<'_, B> {
    fn deref_mut(&mut self) -> &mut B {
        &mut self.buf
    }
}

impl<B: Scratch> Drop for Scope<'_, B> {
    fn drop(&mut self) {
        self.arena.give(std::mem::take(&mut self.buf));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_is_always_empty_and_recycles_capacity() {
        let arena: Arena<Vec<u64>> = Arena::new();
        let mut a = arena.take();
        a.extend(0..100);
        let cap = a.capacity();
        arena.give(a);
        let b = arena.take();
        assert!(b.is_empty(), "recycled buffers must come back empty");
        assert_eq!(b.capacity(), cap, "capacity survives the round-trip");
        arena.give(b);
    }

    #[test]
    fn pool_miss_then_hit_accounting() {
        let arena: Arena<String> = Arena::new();
        let s = arena.take();
        assert_eq!(arena.misses(), 1, "empty pool: first take misses");
        arena.give(s);
        let s = arena.take();
        assert_eq!(arena.misses(), 1, "second take is a pool hit");
        arena.give(s);
        assert_eq!(arena.pooled(), 1);
    }

    #[test]
    fn with_pool_prewarms() {
        let arena: Arena<Vec<u8>> = Arena::with_pool(3);
        assert_eq!(arena.pooled(), 3);
        let a = arena.take();
        let b = arena.take();
        let c = arena.take();
        assert_eq!(arena.misses(), 0, "all three takes hit the pool");
        assert_eq!(arena.live(), 3);
        assert_eq!(arena.high_water(), 3);
        arena.give(a);
        arena.give(b);
        arena.give(c);
        assert_eq!(arena.live(), 0);
    }

    #[test]
    fn overlapping_scopes_share_the_arena() {
        let arena: Arena<Vec<u32>> = Arena::new();
        {
            let mut xs = arena.scope();
            let mut ys = arena.scope();
            xs.push(1);
            ys.push(2);
            assert_eq!(arena.live(), 2);
            assert_eq!((xs[0], ys[0]), (1, 2));
        }
        assert_eq!(arena.live(), 0);
        assert_eq!(arena.pooled(), 2);
    }

    #[test]
    fn reset_starts_a_new_epoch() {
        let arena: Arena<Vec<u32>> = Arena::new();
        let a = arena.take();
        arena.give(a);
        assert_eq!(arena.high_water(), 1);
        arena.reset();
        assert_eq!(arena.high_water(), 0, "high-water restarts at live");
        assert_eq!(arena.misses(), 0);
    }

    #[test]
    fn string_scratch_capacity_units() {
        let arena: Arena<String> = Arena::new();
        let mut s = arena.take();
        s.push_str("hello world");
        let cap = s.capacity();
        arena.give(s);
        assert_eq!(arena.pooled_capacity_units(), cap);
    }
}
