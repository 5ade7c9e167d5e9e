//! Pooled packet buffers and the byte sink codecs write into.
//!
//! The per-character receive path of the gateway (§3 of the paper) runs
//! millions of times per simulated minute, so the layer boundaries must not
//! allocate on the fast path. This module provides the two pieces every
//! datapath API is built on:
//!
//! * [`PacketBuf`] — a growable byte buffer with *headroom* (cheap header
//!   prepend) and *cheap slicing* (advancing the start without copying),
//!   leased from a reference-counted [`BufPool`] and automatically recycled
//!   on drop.
//! * [`ByteSink`] — the byte-granular output the codecs' `encode_into`
//!   paths write into: a `Vec<u8>` or a [`PacketBuf`].
//!
//! The pool exposes hit/miss/high-water counters ([`PoolStats`]) so the
//! experiment harnesses can report allocation behaviour alongside
//! chars/interrupts.

use std::cell::RefCell;
use std::fmt;
use std::ops::Deref;
use std::rc::Rc;

use crate::stats::Counter;

/// Allocation counters for a [`BufPool`].
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolStats {
    /// Leases served from the free list (no heap allocation).
    pub hits: Counter,
    /// Leases that had to allocate a fresh buffer.
    pub misses: Counter,
    /// Buffers returned to the free list on drop.
    pub recycled: Counter,
    /// Buffers currently leased out.
    pub live: u64,
    /// Maximum simultaneously leased buffers ever observed.
    pub high_water: u64,
}

struct PoolInner {
    free: Vec<Vec<u8>>,
    buf_capacity: usize,
    max_free: usize,
    stats: PoolStats,
}

/// A reference-counted pool of byte buffers.
///
/// Cloning the handle is cheap and shares the pool. Buffers leased with
/// [`BufPool::take`] return to the free list when the [`PacketBuf`] drops,
/// so a steady-state datapath performs zero heap allocations.
///
/// # Examples
///
/// ```
/// use sim::{BufPool, PacketBuf};
///
/// let pool = BufPool::new(256);
/// {
///     let mut b = pool.take();
///     b.extend_from_slice(b"hello");
///     assert_eq!(&b[..], b"hello");
/// } // drop recycles the storage
/// let again = pool.take();
/// assert_eq!(pool.stats().hits.get(), 1); // second lease reused the first
/// assert_eq!(pool.stats().misses.get(), 1);
/// drop(again);
/// ```
#[derive(Clone)]
pub struct BufPool(Rc<RefCell<PoolInner>>);

impl fmt::Debug for BufPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.0.borrow();
        f.debug_struct("BufPool")
            .field("free", &inner.free.len())
            .field("buf_capacity", &inner.buf_capacity)
            .field("stats", &inner.stats)
            .finish()
    }
}

impl BufPool {
    /// Default cap on buffers retained in the free list.
    pub const DEFAULT_MAX_FREE: usize = 64;

    /// Creates a pool whose fresh buffers start with `buf_capacity` bytes
    /// of capacity.
    pub fn new(buf_capacity: usize) -> BufPool {
        BufPool(Rc::new(RefCell::new(PoolInner {
            free: Vec::new(),
            buf_capacity,
            max_free: Self::DEFAULT_MAX_FREE,
            stats: PoolStats::default(),
        })))
    }

    /// Leases an empty buffer (no headroom).
    #[inline]
    pub fn take(&self) -> PacketBuf {
        self.take_with_headroom(0)
    }

    /// Leases an empty buffer whose first `headroom` bytes are reserved for
    /// later [`PacketBuf::prepend`] calls.
    pub fn take_with_headroom(&self, headroom: usize) -> PacketBuf {
        let mut inner = self.0.borrow_mut();
        let mut storage = match inner.free.pop() {
            Some(v) => {
                inner.stats.hits.incr();
                v
            }
            None => {
                inner.stats.misses.incr();
                Vec::with_capacity(inner.buf_capacity.max(headroom))
            }
        };
        inner.stats.live += 1;
        inner.stats.high_water = inner.stats.high_water.max(inner.stats.live);
        storage.clear();
        storage.resize(headroom, 0);
        PacketBuf {
            storage,
            start: headroom,
            pool: Some(BufPool(Rc::clone(&self.0))),
        }
    }

    /// Current allocation counters.
    pub fn stats(&self) -> PoolStats {
        self.0.borrow().stats
    }

    fn recycle(&self, mut storage: Vec<u8>) {
        let mut inner = self.0.borrow_mut();
        inner.stats.live = inner.stats.live.saturating_sub(1);
        if inner.free.len() < inner.max_free {
            storage.clear();
            inner.stats.recycled.incr();
            inner.free.push(storage);
        }
    }
}

/// A byte buffer with headroom and cheap front-slicing, optionally leased
/// from a [`BufPool`].
///
/// The live bytes are `storage[start..]`; `start` both implements headroom
/// (lease with [`BufPool::take_with_headroom`], then [`prepend`] headers
/// without moving the payload) and cheap slicing ([`advance`] strips a
/// parsed header without copying the remainder).
///
/// [`prepend`]: PacketBuf::prepend
/// [`advance`]: PacketBuf::advance
///
/// # Examples
///
/// ```
/// use sim::{BufPool, PacketBuf};
///
/// let pool = BufPool::new(64);
/// let mut b = pool.take_with_headroom(2);
/// b.extend_from_slice(b"payload");
/// b.prepend(b"hh");            // uses the headroom, no copy of "payload"
/// assert_eq!(&b[..], b"hhpayload");
/// b.advance(2);                // strip the header again, no copy
/// assert_eq!(&b[..], b"payload");
/// ```
pub struct PacketBuf {
    storage: Vec<u8>,
    start: usize,
    pool: Option<BufPool>,
}

impl PacketBuf {
    /// Creates an empty, unpooled buffer.
    pub fn new() -> PacketBuf {
        PacketBuf {
            storage: Vec::new(),
            start: 0,
            pool: None,
        }
    }

    /// Creates an empty, unpooled buffer with reserved capacity.
    pub fn with_capacity(cap: usize) -> PacketBuf {
        PacketBuf {
            storage: Vec::with_capacity(cap),
            start: 0,
            pool: None,
        }
    }

    /// Wraps an owned `Vec` (no pool; the storage frees normally on drop).
    pub fn from_vec(v: Vec<u8>) -> PacketBuf {
        PacketBuf {
            storage: v,
            start: 0,
            pool: None,
        }
    }

    /// Number of live bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.storage.len() - self.start
    }

    /// True when no live bytes remain.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes available for [`prepend`](PacketBuf::prepend) without copying.
    pub fn headroom(&self) -> usize {
        self.start
    }

    /// The live bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.storage[self.start..]
    }

    /// Appends one byte.
    #[inline]
    pub fn push(&mut self, byte: u8) {
        self.storage.push(byte);
    }

    /// Appends a slice.
    #[inline]
    pub fn extend_from_slice(&mut self, bytes: &[u8]) {
        self.storage.extend_from_slice(bytes);
    }

    /// Prepends `bytes` before the live data. Free when `bytes.len() <=
    /// headroom()`; otherwise the payload shifts right once to make room.
    pub fn prepend(&mut self, bytes: &[u8]) {
        if bytes.len() <= self.start {
            self.start -= bytes.len();
            self.storage[self.start..self.start + bytes.len()].copy_from_slice(bytes);
        } else {
            // Slow path: grow and shift the live bytes right.
            let need = bytes.len() - self.start;
            let old_len = self.storage.len();
            self.storage.resize(old_len + need, 0);
            self.storage.copy_within(self.start..old_len, bytes.len());
            self.storage[..bytes.len()].copy_from_slice(bytes);
            self.start = 0;
        }
    }

    /// Drops the first `n` live bytes without copying (cheap slicing).
    ///
    /// # Panics
    ///
    /// Panics if `n > len()`.
    #[inline]
    pub fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance past end");
        self.start += n;
    }

    /// Shortens the live bytes to `n` (no-op if already shorter).
    #[inline]
    pub fn truncate(&mut self, n: usize) {
        if n < self.len() {
            self.storage.truncate(self.start + n);
        }
    }

    /// Clears all live bytes and headroom; capacity is retained.
    #[inline]
    pub fn clear(&mut self) {
        self.storage.clear();
        self.start = 0;
    }

    /// Copies the live bytes into a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl Default for PacketBuf {
    fn default() -> PacketBuf {
        PacketBuf::new()
    }
}

impl Drop for PacketBuf {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.take() {
            pool.recycle(std::mem::take(&mut self.storage));
        }
    }
}

impl Clone for PacketBuf {
    /// Clones the live bytes. A pooled buffer clones through its pool (the
    /// copy is leased, so it recycles on drop like the original).
    fn clone(&self) -> PacketBuf {
        let mut out = match &self.pool {
            Some(pool) => pool.take(),
            None => PacketBuf::with_capacity(self.len()),
        };
        out.extend_from_slice(self.as_slice());
        out
    }
}

impl Deref for PacketBuf {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for PacketBuf {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl fmt::Debug for PacketBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PacketBuf({} bytes)", self.len())
    }
}

impl PartialEq for PacketBuf {
    fn eq(&self, other: &PacketBuf) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for PacketBuf {}

impl PartialEq<[u8]> for PacketBuf {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for PacketBuf {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl From<Vec<u8>> for PacketBuf {
    fn from(v: Vec<u8>) -> PacketBuf {
        PacketBuf::from_vec(v)
    }
}

impl From<&[u8]> for PacketBuf {
    fn from(v: &[u8]) -> PacketBuf {
        PacketBuf::from_vec(v.to_vec())
    }
}

/// Byte-granular output used by the codecs' `encode_into` paths.
pub trait ByteSink {
    /// Appends one byte.
    fn put(&mut self, byte: u8);
    /// Appends a slice.
    fn put_slice(&mut self, bytes: &[u8]);
}

impl ByteSink for Vec<u8> {
    #[inline]
    fn put(&mut self, byte: u8) {
        self.push(byte);
    }
    #[inline]
    fn put_slice(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

impl ByteSink for PacketBuf {
    #[inline]
    fn put(&mut self, byte: u8) {
        self.push(byte);
    }
    #[inline]
    fn put_slice(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_reuses_buffers() {
        let pool = BufPool::new(128);
        let a = pool.take();
        drop(a);
        let b = pool.take();
        let s = pool.stats();
        assert_eq!(s.misses.get(), 1);
        assert_eq!(s.hits.get(), 1);
        assert_eq!(s.live, 1);
        assert_eq!(s.high_water, 1);
        drop(b);
        assert_eq!(pool.stats().recycled.get(), 2);
        assert_eq!(pool.stats().live, 0);
    }

    #[test]
    fn high_water_tracks_simultaneous_leases() {
        let pool = BufPool::new(16);
        let a = pool.take();
        let b = pool.take();
        let c = pool.take();
        drop((a, b, c));
        assert_eq!(pool.stats().high_water, 3);
        assert_eq!(pool.stats().live, 0);
    }

    #[test]
    fn prepend_uses_headroom_without_shifting() {
        let pool = BufPool::new(64);
        let mut b = pool.take_with_headroom(4);
        b.extend_from_slice(b"data");
        assert_eq!(b.headroom(), 4);
        b.prepend(b"hd");
        assert_eq!(&b[..], b"hddata");
        assert_eq!(b.headroom(), 2);
    }

    #[test]
    fn prepend_slow_path_shifts_payload() {
        let mut b = PacketBuf::new();
        b.extend_from_slice(b"xyz");
        b.prepend(b"abcd"); // no headroom at all
        assert_eq!(&b[..], b"abcdxyz");
    }

    #[test]
    fn advance_and_truncate_slice_cheaply() {
        let mut b = PacketBuf::from(vec![1, 2, 3, 4, 5]);
        b.advance(2);
        assert_eq!(&b[..], &[3, 4, 5]);
        b.truncate(2);
        assert_eq!(&b[..], &[3, 4]);
        assert_eq!(b.headroom(), 2);
    }

    #[test]
    fn clone_of_pooled_buffer_is_pooled() {
        let pool = BufPool::new(32);
        let mut a = pool.take();
        a.extend_from_slice(b"abc");
        let b = a.clone();
        assert_eq!(a, b);
        drop(a);
        drop(b);
        assert_eq!(pool.stats().live, 0);
        assert_eq!(pool.stats().recycled.get(), 2);
    }

    #[test]
    fn recycled_buffer_comes_back_empty() {
        let pool = BufPool::new(32);
        let mut a = pool.take_with_headroom(8);
        a.extend_from_slice(b"junk");
        drop(a);
        let b = pool.take();
        assert!(b.is_empty());
        assert_eq!(b.headroom(), 0);
    }

    #[test]
    fn byte_sink_works_for_vec_and_pktbuf() {
        let mut v: Vec<u8> = Vec::new();
        v.put(1);
        v.put_slice(&[2, 3]);
        assert_eq!(v, vec![1, 2, 3]);
        let mut p = PacketBuf::new();
        p.put(1);
        p.put_slice(&[2, 3]);
        assert_eq!(&p[..], &[1, 2, 3]);
    }
}
