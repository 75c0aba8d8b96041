//! LEB128-style unsigned variable-length integers, and the byte [`Reader`]
//! built on them.
//!
//! Used by the LZ token stream, the wire protocol framing and the storage
//! snapshot format. Small values (lengths, offsets, row counts) dominate
//! all three, so the 1-byte fast path matters.

/// Errors returned while decoding a varint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarintError {
    /// Input ended before the terminating byte.
    UnexpectedEof,
    /// More than 10 continuation bytes (would overflow a u64).
    Overflow,
}

impl std::fmt::Display for VarintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VarintError::UnexpectedEof => write!(f, "varint: unexpected end of input"),
            VarintError::Overflow => write!(f, "varint: value overflows u64"),
        }
    }
}

impl std::error::Error for VarintError {}

/// Append the varint encoding of `value` to `out`.
pub fn write_u64(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Decode a varint from the front of `input`.
///
/// Returns the value and the number of bytes consumed.
pub fn read_u64(input: &[u8]) -> Result<(u64, usize), VarintError> {
    let mut value: u64 = 0;
    let mut shift = 0u32;
    for (i, &byte) in input.iter().enumerate() {
        if i == 10 {
            return Err(VarintError::Overflow);
        }
        let low = (byte & 0x7f) as u64;
        if shift == 63 && low > 1 {
            return Err(VarintError::Overflow);
        }
        value |= low << shift;
        if byte & 0x80 == 0 {
            return Ok((value, i + 1));
        }
        shift += 7;
    }
    Err(VarintError::UnexpectedEof)
}

/// Encoded length in bytes of `value`.
pub fn encoded_len(value: u64) -> usize {
    if value == 0 {
        1
    } else {
        (64 - value.leading_zeros() as usize).div_ceil(7)
    }
}

/// Append the zigzag varint encoding of `v` (small magnitudes of either
/// sign stay short).
pub fn write_zigzag(out: &mut Vec<u8>, v: i64) {
    write_u64(out, ((v << 1) ^ (v >> 63)) as u64);
}

/// Append `b` (bytes or a string) prefixed with its varint length.
pub fn write_bytes(out: &mut Vec<u8>, b: impl AsRef<[u8]>) {
    let b = b.as_ref();
    write_u64(out, b.len() as u64);
    out.extend_from_slice(b);
}

/// Why a [`Reader`] could not read the next item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadError {
    /// A malformed varint.
    Varint(VarintError),
    /// Fewer bytes remain than the item needs.
    Truncated,
    /// A length-prefixed string is not UTF-8.
    Utf8,
}

/// A cursor over untrusted bytes that reads varints, zigzag `i64`s, single
/// bytes and length-prefixed byte strings, never past the end of its
/// buffer: a declared length larger than what remains is
/// [`ReadError::Truncated`], whatever its size.
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    /// The next varint.
    pub fn varint(&mut self) -> Result<u64, ReadError> {
        let (v, used) = read_u64(&self.data[self.pos..]).map_err(ReadError::Varint)?;
        self.pos += used;
        Ok(v)
    }

    /// The next zigzag-coded `i64` (see [`write_zigzag`]).
    pub fn zigzag(&mut self) -> Result<i64, ReadError> {
        let z = self.varint()?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], ReadError> {
        if n > self.remaining() {
            return Err(ReadError::Truncated);
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// The next byte.
    pub fn byte(&mut self) -> Result<u8, ReadError> {
        Ok(self.take(1)?[0])
    }

    /// The next length-prefixed byte string (see [`write_bytes`]).
    pub fn bytes(&mut self) -> Result<&'a [u8], ReadError> {
        let n = usize::try_from(self.varint()?).map_err(|_| ReadError::Truncated)?;
        self.take(n)
    }

    /// The next length-prefixed UTF-8 string (see [`write_bytes`]).
    pub fn str(&mut self) -> Result<&'a str, ReadError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| ReadError::Utf8)
    }

    /// Bytes not yet read — the plausibility bound for a declared count,
    /// so a hostile count never sizes an allocation the buffer could not
    /// hold.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Whether every byte has been read.
    pub fn is_done(&self) -> bool {
        self.pos == self.data.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encodes_small_values_in_one_byte() {
        for v in 0..128u64 {
            let mut buf = Vec::new();
            write_u64(&mut buf, v);
            assert_eq!(buf, vec![v as u8]);
        }
    }

    #[test]
    fn round_trips_boundary_values() {
        for v in [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            write_u64(&mut buf, v);
            let (decoded, used) = read_u64(&buf).unwrap();
            assert_eq!(decoded, v);
            assert_eq!(used, buf.len());
            assert_eq!(used, encoded_len(v));
        }
    }

    #[test]
    fn decodes_with_trailing_bytes() {
        let mut buf = Vec::new();
        write_u64(&mut buf, 300);
        buf.extend_from_slice(b"rest");
        let (v, used) = read_u64(&buf).unwrap();
        assert_eq!(v, 300);
        assert_eq!(used, 2);
    }

    #[test]
    fn errors_on_truncation() {
        let mut buf = Vec::new();
        write_u64(&mut buf, u64::MAX);
        buf.pop();
        assert_eq!(read_u64(&buf), Err(VarintError::UnexpectedEof));
        assert_eq!(read_u64(&[]), Err(VarintError::UnexpectedEof));
    }

    #[test]
    fn errors_on_overflow() {
        // 11 continuation bytes.
        let buf = [0xffu8; 11];
        assert_eq!(read_u64(&buf), Err(VarintError::Overflow));
        // 10 bytes but the last one pushes past 64 bits.
        let buf = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02];
        assert_eq!(read_u64(&buf), Err(VarintError::Overflow));
    }
}
