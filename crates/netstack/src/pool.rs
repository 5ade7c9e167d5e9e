//! The host's one datagram-buffer pool (DESIGN.md §6, born once, traded
//! after).
//!
//! §2.2's Ultrix driver takes its buffers from the kernel's mbuf pool, one
//! per machine. Here every host's [`crate::stack::NetStack`] owns one
//! [`DgramPool`] and lends it by `&mut` to the host's link drivers: they
//! copy a received datagram into one of its buffers and build their ARP
//! packets in them, the stack encodes its TCP segments into them, and
//! whoever is done with a datagram gives the allocation back — the stack
//! once input has delivered or dropped it or `recvfrom` has lent it out of
//! a UDP socket's queue, a driver once the bytes are on its link.
//!
//! The pool is a free list of constant depth [`DEPTH`]. It keeps the
//! roomiest buffers it is given and hands out any free one, grown if it is
//! too small. A buffer it has to allocate or grow is born at working size,
//! [`BUF_LEN`].

use crate::ip::HEADER_LEN;

/// Buffers the free list holds at most.
pub const DEPTH: usize = 2;

/// Octets a buffer the pool allocates or grows gets at least: a full
/// datagram of the radio link (256 octets, the AX.25 MTU) and room for two
/// more IP headers behind it, so whatever the radio side carries fits the
/// first buffer it lands in, tunnel header and all.
pub const BUF_LEN: usize = 256 + 2 * HEADER_LEN;

/// A bounded free list of datagram buffers. See the [module docs](self).
#[derive(Debug, Default)]
pub struct DgramPool {
    /// Free buffers; an unallocated `Vec` is an empty slot.
    free: [Vec<u8>; DEPTH],
}

impl DgramPool {
    /// An empty pool.
    pub fn new() -> DgramPool {
        DgramPool::default()
    }

    /// Takes an emptied buffer with room for `len` octets: a free one, else
    /// a fresh allocation. One that is too small grows once, like a fresh
    /// one, to `len` or [`BUF_LEN`] octets, whichever is more. Whatever a
    /// buffer held is gone; it leaves the free list.
    pub fn take(&mut self, len: usize) -> Vec<u8> {
        let slot = self.free.iter_mut().find(|b| b.capacity() > 0);
        let mut buf = slot.map(std::mem::take).unwrap_or_default();
        buf.clear();
        if buf.capacity() < len {
            buf.reserve_exact(len.max(BUF_LEN));
        }
        buf
    }

    /// A copy of `datagram` in a pool buffer, with room behind it for one
    /// more IP header — the outer one, should it be forwarded into a
    /// tunnel — so it is never reallocated on its way out again.
    pub fn copy(&mut self, datagram: &[u8]) -> Vec<u8> {
        let mut buf = self.take(datagram.len() + HEADER_LEN);
        buf.extend_from_slice(datagram);
        buf
    }

    /// Gives back a buffer whose datagram is finished with; what it holds
    /// does not matter. It takes the place of the smallest free buffer if
    /// it is roomier; otherwise (or when it has no allocation) it is
    /// freed.
    pub fn give(&mut self, buf: Vec<u8>) {
        let smallest = self.free.iter_mut().min_by_key(|b| b.capacity());
        if let Some(slot) = smallest.filter(|slot| buf.capacity() > slot.capacity()) {
            *slot = buf;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Buffers on `pool`'s free list.
    fn free(pool: &DgramPool) -> usize {
        pool.free.iter().filter(|b| b.capacity() > 0).count()
    }

    #[test]
    fn a_buffer_is_handed_out_once_emptied_and_the_depth_is_bounded() {
        let mut pool = DgramPool::new();
        assert_eq!(free(&pool), 0);
        assert_eq!(pool.take(0).capacity(), 0, "nothing to hand out yet");
        // A 576-octet datagram's buffer comes back; a 20-octet one rides
        // in it next and is exactly its own 20 octets.
        let big = vec![0xAA; 576];
        let ptr = big.as_ptr();
        pool.give(big);
        let small = pool.copy(&[7; 20]);
        assert_eq!(small, [7; 20]);
        assert_eq!(small.as_ptr(), ptr, "the allocation given, not a new one");
        assert_eq!(free(&pool), 0, "handed out once");
        assert_eq!(pool.take(0).capacity(), 0);
        // A fresh copy is born at working size, room for one more IP
        // header behind it whatever its length.
        let fresh = pool.copy(&[1; 100]);
        assert!(fresh.capacity() >= BUF_LEN);
        assert!(pool.copy(&[2; 700]).capacity() >= 700 + HEADER_LEN);
        // However much comes back, the list holds DEPTH buffers: the
        // roomiest, each of them once, every one handed out emptied.
        for cap in [40, 300, 60, 500, 10] {
            let mut b = Vec::with_capacity(cap);
            b.extend_from_slice(&[9; 8]);
            pool.give(b);
            assert!(free(&pool) <= DEPTH);
        }
        pool.give(Vec::new());
        assert_eq!(free(&pool), DEPTH, "an unallocated Vec is no buffer");
        let (a, b) = (pool.take(0), pool.take(0));
        assert_eq!(free(&pool), 0);
        assert_ne!(a.as_ptr(), b.as_ptr(), "two buffers, not one twice");
        let mut caps = [a.capacity(), b.capacity()];
        caps.sort_unstable();
        assert_eq!(caps, [300, 500]);
        assert!(a.is_empty() && b.is_empty());
        // A free buffer too small for the request is the one that grows.
        pool.give(Vec::with_capacity(64));
        assert!(pool.take(576).capacity() >= 576);
        assert_eq!(free(&pool), 0);
    }
}
