//! LEB128 variable-length integers and a bounds-checked byte reader.
//!
//! Both on-disk formats in this crate (WAL record payloads and snapshot
//! bodies) are built from three primitives: unsigned varints, zigzag
//! signed varints, and length-prefixed byte strings. Decoding never
//! panics: every read is bounds-checked and malformed input surfaces as a
//! [`CodecError`].

/// A decoding failure. Encoding is infallible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the value it promised.
    Truncated,
    /// The input is structurally invalid (bad tag, out-of-range id, …).
    Corrupt(String),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "input truncated mid-value"),
            CodecError::Corrupt(why) => write!(f, "corrupt input: {why}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Appends `v` as an LEB128 varint (1–10 bytes).
pub fn write_u64(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Appends `v` zigzag-encoded, so small magnitudes of either sign stay
/// short.
pub fn write_i64(out: &mut Vec<u8>, v: i64) {
    write_u64(out, ((v << 1) ^ (v >> 63)) as u64);
}

/// Appends a length-prefixed UTF-8 string.
pub fn write_str(out: &mut Vec<u8>, s: &str) {
    write_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// A cursor over a byte slice with bounds-checked primitive reads.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Starts reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Reads one byte.
    #[inline]
    pub fn read_u8(&mut self) -> Result<u8, CodecError> {
        let b = *self.buf.get(self.pos).ok_or(CodecError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads an LEB128 varint.
    ///
    /// The overwhelming majority of varints in both on-disk formats are
    /// dictionary indices and small deltas that fit in one or two bytes,
    /// so those two cases are decoded straight-line before falling back
    /// to the general loop.
    #[inline]
    pub fn read_u64(&mut self) -> Result<u64, CodecError> {
        if let [b0, rest @ ..] = &self.buf[self.pos..] {
            if b0 & 0x80 == 0 {
                self.pos += 1;
                return Ok(u64::from(*b0));
            }
            if let [b1, ..] = rest {
                if b1 & 0x80 == 0 {
                    self.pos += 2;
                    return Ok(u64::from(b0 & 0x7F) | u64::from(*b1) << 7);
                }
            }
        }
        self.read_u64_slow()
    }

    fn read_u64_slow(&mut self) -> Result<u64, CodecError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.read_u8()?;
            if shift == 63 && byte > 1 {
                return Err(CodecError::Corrupt("varint overflows u64".into()));
            }
            v |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(CodecError::Corrupt("varint longer than 10 bytes".into()));
            }
        }
    }

    /// Reads a zigzag-encoded signed varint.
    #[inline]
    pub fn read_i64(&mut self) -> Result<i64, CodecError> {
        let z = self.read_u64()?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn read_str(&mut self) -> Result<String, CodecError> {
        self.read_str_borrowed().map(str::to_owned)
    }

    /// Reads a length-prefixed UTF-8 string as a slice of the input,
    /// without allocating. Bulk decoders (the snapshot dictionary) use
    /// this to hand strings straight to the interner.
    pub fn read_str_borrowed(&mut self) -> Result<&'a str, CodecError> {
        let len = self.read_u64()?;
        let len = usize::try_from(len)
            .map_err(|_| CodecError::Corrupt("string length overflows usize".into()))?;
        if len > self.remaining() {
            return Err(CodecError::Truncated);
        }
        let bytes = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        std::str::from_utf8(bytes)
            .map_err(|_| CodecError::Corrupt("string is not valid UTF-8".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_round_trips_edges() {
        for v in [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            write_u64(&mut buf, v);
            let mut r = Reader::new(&buf);
            assert_eq!(r.read_u64().unwrap(), v);
            assert!(r.is_empty());
        }
    }

    #[test]
    fn i64_round_trips_edges() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            let mut buf = Vec::new();
            write_i64(&mut buf, v);
            let mut r = Reader::new(&buf);
            assert_eq!(r.read_i64().unwrap(), v);
        }
    }

    #[test]
    fn strings_round_trip() {
        for s in ["", "a", "çéç — naïve ☃", "line\nbreak\tand \"quotes\""] {
            let mut buf = Vec::new();
            write_str(&mut buf, s);
            let mut r = Reader::new(&buf);
            assert_eq!(r.read_str().unwrap(), s);
        }
    }

    #[test]
    fn truncation_and_corruption_are_errors() {
        let mut buf = Vec::new();
        write_u64(&mut buf, u64::MAX);
        buf.pop();
        assert_eq!(Reader::new(&buf).read_u64(), Err(CodecError::Truncated));

        // 11 continuation bytes can never be a valid u64 varint.
        let over = [0xFFu8; 11];
        assert!(matches!(
            Reader::new(&over).read_u64(),
            Err(CodecError::Corrupt(_))
        ));

        // A string whose length prefix exceeds the buffer.
        let mut buf = Vec::new();
        write_u64(&mut buf, 100);
        buf.extend_from_slice(b"short");
        assert_eq!(Reader::new(&buf).read_str(), Err(CodecError::Truncated));

        // Invalid UTF-8 in a string body.
        let mut buf = Vec::new();
        write_u64(&mut buf, 2);
        buf.extend_from_slice(&[0xFF, 0xFE]);
        assert!(matches!(
            Reader::new(&buf).read_str(),
            Err(CodecError::Corrupt(_))
        ));
    }
}
