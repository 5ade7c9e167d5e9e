//! Bounds-checked big-endian wire codec helpers.
//!
//! Every frame and packet codec in the workspace (KISS, AX.25, Ethernet,
//! IPv4, ICMP, UDP, TCP, ARP) builds on these two types so that malformed
//! input can never panic — a truncated packet decodes to a
//! [`WireError::Truncated`] instead.

use std::fmt;

/// Errors produced while reading from the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the requested field.
    Truncated,
    /// A length field pointed outside the buffer.
    BadLength,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated packet"),
            WireError::BadLength => write!(f, "length field out of range"),
        }
    }
}

impl std::error::Error for WireError {}

/// A cursor over a byte slice with big-endian accessors.
///
/// # Examples
///
/// ```
/// use sim::wire::Reader;
///
/// let buf = [0x12, 0x34, 0x56];
/// let mut r = Reader::new(&buf);
/// assert_eq!(r.u16().unwrap(), 0x1234);
/// assert_eq!(r.u8().unwrap(), 0x56);
/// assert!(r.u8().is_err());
/// ```
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader positioned at the start of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes remaining after the cursor.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current offset from the start of the buffer.
    #[inline]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Reads one octet.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, WireError> {
        let b = *self.buf.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads a big-endian 16-bit value.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, WireError> {
        let bytes = self.take(2)?;
        Ok(u16::from_be_bytes([bytes[0], bytes[1]]))
    }

    /// Reads a big-endian 32-bit value.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let bytes = self.take(4)?;
        Ok(u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]))
    }

    /// Reads exactly `n` bytes, advancing the cursor.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads all bytes to the end of the buffer.
    #[inline]
    pub fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }

    /// Skips `n` bytes.
    #[inline]
    pub fn skip(&mut self, n: usize) -> Result<(), WireError> {
        self.take(n).map(|_| ())
    }
}

/// An append-only builder with big-endian writers.
///
/// # Examples
///
/// ```
/// use sim::wire::Writer;
///
/// let mut w = Writer::new();
/// w.u16(0x1234);
/// w.u8(0x56);
/// assert_eq!(w.into_bytes(), vec![0x12, 0x34, 0x56]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Writer {
        Writer { buf: Vec::new() }
    }

    /// Creates a writer with pre-reserved capacity.
    pub fn with_capacity(n: usize) -> Writer {
        Writer {
            buf: Vec::with_capacity(n),
        }
    }

    /// Appends one octet.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a big-endian 16-bit value.
    #[inline]
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian 32-bit value.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a byte slice.
    #[inline]
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Current length in octets.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Overwrites a big-endian 16-bit value at `offset` (for checksums and
    /// length fields patched after the fact).
    ///
    /// # Panics
    ///
    /// Panics if `offset + 2` exceeds the current length.
    pub fn patch_u16(&mut self, offset: usize, v: u16) {
        let b = v.to_be_bytes();
        self.buf[offset] = b[0];
        self.buf[offset + 1] = b[1];
    }

    /// Consumes the writer, returning the accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Borrows the accumulated bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }
}

/// The ones-complement checksum used by IPv4, ICMP, UDP, and TCP (RFC 1071).
///
/// Big-endian 16-bit words summed over the concatenation of `parts`, so a
/// part boundary may split a word; an odd total length pads with a zero
/// byte. The sum is folded until no carry remains, then complemented.
///
/// # Examples
///
/// ```
/// use sim::wire::internet_checksum;
///
/// // Checksumming a buffer that already contains its own checksum yields 0.
/// let data = [0x45, 0x00, 0x00, 0x1c];
/// let sum = internet_checksum(&[&data]);
/// let mut with_sum = data.to_vec();
/// with_sum.extend_from_slice(&sum.to_be_bytes());
/// assert_eq!(internet_checksum(&[&with_sum]), 0);
/// ```
pub fn internet_checksum(parts: &[&[u8]]) -> u16 {
    let mut sum: u64 = 0;
    let mut leftover: Option<u8> = None;
    for part in parts {
        for &byte in part.iter() {
            match leftover.take() {
                None => leftover = Some(byte),
                Some(hi) => sum += u64::from(u16::from_be_bytes([hi, byte])),
            }
        }
    }
    if let Some(hi) = leftover {
        sum += u64::from(u16::from_be_bytes([hi, 0]));
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_roundtrip() {
        let mut w = Writer::new();
        w.u8(0xAB);
        w.u16(0xCDEF);
        w.u32(0x01234567);
        w.bytes(b"hi");
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.u16().unwrap(), 0xCDEF);
        assert_eq!(r.u32().unwrap(), 0x01234567);
        assert_eq!(r.rest(), b"hi");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn reader_truncation_errors() {
        let buf = [0x01];
        let mut r = Reader::new(&buf);
        assert!(r.u16().is_err());
        assert_eq!(r.u8().unwrap(), 0x01);
        assert!(r.u8().is_err());
        assert!(r.take(1).is_err());
    }

    #[test]
    fn reader_skip_and_position() {
        let buf = [1, 2, 3, 4];
        let mut r = Reader::new(&buf);
        r.skip(2).unwrap();
        assert_eq!(r.position(), 2);
        assert_eq!(r.u8().unwrap(), 3);
        assert!(r.skip(2).is_err());
    }

    #[test]
    fn writer_patch() {
        let mut w = Writer::new();
        w.u16(0);
        w.u16(0xBEEF);
        w.patch_u16(0, 0xDEAD);
        assert_eq!(w.as_slice(), &[0xDE, 0xAD, 0xBE, 0xEF]);
    }

    #[test]
    fn checksum_known_vector() {
        // RFC 1071 example: 0001 f203 f4f5 f6f7 sums to ddf2 -> checksum 220d.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(internet_checksum(&[&data]), 0x220d);
    }

    #[test]
    fn checksum_odd_length_pads_with_zero() {
        let even = internet_checksum(&[&[0x12, 0x34, 0xAB, 0x00]]);
        let odd = internet_checksum(&[&[0x12, 0x34, 0xAB]]);
        assert_eq!(even, odd);
    }

    #[test]
    fn checksum_split_across_parts_is_identical() {
        let whole = internet_checksum(&[&[1, 2, 3, 4, 5, 6]]);
        let split = internet_checksum(&[&[1, 2, 3], &[4, 5, 6]]);
        assert_eq!(whole, split);
    }

    #[test]
    fn checksum_verifies_to_zero() {
        let data = [0x45, 0x00, 0x01, 0x02, 0x99, 0xAB];
        let sum = internet_checksum(&[&data]);
        let check = internet_checksum(&[&data, &sum.to_be_bytes()]);
        assert_eq!(check, 0);
    }

    #[test]
    fn checksum_of_a_known_header() {
        // A random 20-byte header and an all-ones buffer, pinned to their
        // RFC 1071 checksums.
        let header = [
            0xd0, 0xe4, 0x75, 0xd4, 0xf3, 0xef, 0xbb, 0x06, 0x55, 0x2c, 0x60, 0x63, 0x7b, 0xfb,
            0xd9, 0xc4, 0x71, 0xb1, 0x55, 0x1b,
        ];
        assert_eq!(internet_checksum(&[&header]), 0x3833);
        assert_eq!(internet_checksum(&[&[0xFF; 24]]), 0x0000);
    }

    #[test]
    fn checksum_folds_until_no_carry_remains() {
        // ffff + ffff + 0001 = 1ffff; one fold gives 10000, which still
        // carries, and only the second fold reaches 0001.
        let data = [0xFF, 0xFF, 0xFF, 0xFF, 0x00, 0x01];
        assert_eq!(internet_checksum(&[&data]), 0xFFFE);
    }
}
