//! Packet buffers with headroom, and the byte sink codecs write into.
//!
//! * [`PacketBuf`] — a growable byte buffer with *headroom* (cheap header
//!   prepend) and *cheap slicing* (advancing the start without copying).
//!   It is a plain owned buffer: nothing recycles it on drop. The host's
//!   datapath trades `Vec<u8>`s through its one `netstack::pool::DgramPool`
//!   (DESIGN.md §6); `PacketBuf` remains for `encap`'s in-place IPIP pair
//!   and the radio driver's `rint_slice`, which only the benchmark harness
//!   calls (ROADMAP 2(a)).
//! * [`ByteSink`] — the byte-granular output the codecs' `encode_into`
//!   paths write into: a `Vec<u8>` or a [`PacketBuf`].

use std::fmt;
use std::ops::Deref;

use crate::stats::Counter;

/// Always zero: nothing pools a [`PacketBuf`].
#[doc(hidden)] // serves benchmarks/src/layers.rs:82-85 (ROADMAP 2(a))
#[derive(Debug, Default)]
pub struct PoolStats {
    pub hits: Counter,
    pub misses: Counter,
    pub high_water: u64,
}

/// Hands out fresh [`PacketBuf`]s; every take allocates.
#[doc(hidden)] // serves benchmarks/src/probes.rs:359-361 (ROADMAP 2(a))
#[derive(Debug)]
pub struct BufPool(usize);

impl BufPool {
    pub fn new(buf_capacity: usize) -> BufPool {
        BufPool(buf_capacity)
    }

    pub fn take_with_headroom(&self, headroom: usize) -> PacketBuf {
        PacketBuf::with_headroom(headroom, self.0.saturating_sub(headroom))
    }
}

/// A byte buffer with headroom and cheap front-slicing.
///
/// The live bytes are `storage[start..]`; `start` both implements headroom
/// (build with [`with_headroom`], then [`prepend`] headers without moving
/// the payload) and cheap slicing ([`advance`] strips a parsed header
/// without copying the remainder).
///
/// [`with_headroom`]: PacketBuf::with_headroom
/// [`prepend`]: PacketBuf::prepend
/// [`advance`]: PacketBuf::advance
///
/// # Examples
///
/// ```
/// use sim::PacketBuf;
///
/// let mut b = PacketBuf::with_headroom(2, 64);
/// b.extend_from_slice(b"payload");
/// b.prepend(b"hh");            // uses the headroom, no copy of "payload"
/// assert_eq!(&b[..], b"hhpayload");
/// b.advance(2);                // strip the header again, no copy
/// assert_eq!(&b[..], b"payload");
/// ```
#[derive(Clone, Default)]
pub struct PacketBuf {
    storage: Vec<u8>,
    start: usize,
}

impl PacketBuf {
    /// Creates an empty buffer.
    pub fn new() -> PacketBuf {
        PacketBuf::default()
    }

    /// Creates an empty buffer whose first `headroom` bytes are reserved
    /// for later [`prepend`](PacketBuf::prepend) calls, with room for
    /// `capacity` live bytes behind them.
    pub fn with_headroom(headroom: usize, capacity: usize) -> PacketBuf {
        let mut storage = Vec::with_capacity(headroom + capacity);
        storage.resize(headroom, 0);
        PacketBuf {
            storage,
            start: headroom,
        }
    }

    /// Wraps an owned `Vec`.
    pub fn from_vec(v: Vec<u8>) -> PacketBuf {
        PacketBuf {
            storage: v,
            start: 0,
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

    /// Prepends `bytes` before the live data. Free when they fit in the
    /// headroom; otherwise the payload shifts right once to make room.
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
    fn prepend_uses_headroom_without_shifting() {
        let mut b = PacketBuf::with_headroom(4, 64);
        b.extend_from_slice(b"data");
        assert_eq!(b.start, 4);
        let payload = b.as_slice().as_ptr();
        b.prepend(b"hd");
        assert_eq!(&b[..], b"hddata");
        assert_eq!(b.start, 2);
        assert_eq!(b[2..].as_ptr(), payload, "the payload did not move");
    }

    #[test]
    fn prepend_slow_path_shifts_payload() {
        let mut b = PacketBuf::new();
        b.extend_from_slice(b"xyz");
        b.prepend(b"abcd"); // no headroom at all
        assert_eq!(&b[..], b"abcdxyz");
        // More than the headroom there is: the rest shifts in once.
        let mut b = PacketBuf::with_headroom(2, 8);
        b.extend_from_slice(b"xyz");
        b.prepend(b"abcd");
        assert_eq!(&b[..], b"abcdxyz");
        assert_eq!(b.start, 0);
    }

    #[test]
    fn advance_and_truncate_slice_cheaply() {
        let mut b = PacketBuf::from(vec![1, 2, 3, 4, 5]);
        b.advance(2);
        assert_eq!(&b[..], &[3, 4, 5]);
        b.truncate(2);
        assert_eq!(&b[..], &[3, 4]);
        assert_eq!(b.start, 2);
        b.truncate(9); // longer than the live bytes: no-op
        assert_eq!(&b[..], &[3, 4]);
        b.prepend(&[7, 8]); // the advanced-past bytes are headroom again
        assert_eq!(&b[..], &[7, 8, 3, 4]);
    }

    #[test]
    fn clone_copies_the_live_bytes_into_storage_of_its_own() {
        let mut a = PacketBuf::with_headroom(3, 16);
        a.extend_from_slice(b"abcdef");
        a.advance(1);
        let mut b = a.clone();
        assert_eq!(a, b);
        assert_ne!(a.as_slice().as_ptr(), b.as_slice().as_ptr());
        b.truncate(2);
        b.prepend(b"zz");
        assert_eq!(&a[..], b"bcdef", "the original is untouched");
        assert_eq!(&b[..], b"zzbc");
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
