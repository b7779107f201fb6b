//! The one reader every on-disk format of the workspace decodes through:
//! a [`Section`] checks each read, and each length a field claims, against
//! what is left of an input of known length before it touches the reader
//! or allocates. f64 and u32 runs go through one fixed 4 KiB buffer.

use std::io::{self, Read, Write};

/// Bytes of the one buffer f64 and u32 runs convert through.
const BUF_BYTES: usize = 4096;

/// Writes `values` as little-endian f64s through one fixed buffer.
pub fn write_f64s<W: Write + ?Sized>(w: &mut W, values: &[f64]) -> io::Result<()> {
    let mut buf = [0u8; BUF_BYTES];
    for chunk in values.chunks(BUF_BYTES / 8) {
        for (dst, v) in buf.chunks_exact_mut(8).zip(chunk) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
        w.write_all(&buf[..chunk.len() * 8])?;
    }
    Ok(())
}

/// Why a [`Section`] read failed.
#[derive(Debug)]
pub enum SectionError {
    /// The section is shorter than the read, or a claimed length overflows.
    Short,
    /// The reader failed.
    Io(io::Error),
}

/// The unread part of one section of known length in a reader.
pub struct Section<'r, R: ?Sized> {
    r: &'r mut R,
    left: u64,
}

impl<'r, R: Read + ?Sized> Section<'r, R> {
    /// The next `len` bytes of `r`.
    pub fn new(r: &'r mut R, len: u64) -> Self {
        Self { r, left: len }
    }

    /// Bytes not yet read.
    pub fn left(&self) -> u64 {
        self.left
    }

    /// `count` as a `usize`, if `count` items of `size` bytes are left.
    pub fn need(&self, count: u64, size: u64) -> Result<usize, SectionError> {
        match count.checked_mul(size) {
            Some(n) if n <= self.left => usize::try_from(count).map_err(|_| SectionError::Short),
            _ => Err(SectionError::Short),
        }
    }

    /// Fills `buf` from the section.
    pub fn fill(&mut self, buf: &mut [u8]) -> Result<(), SectionError> {
        self.need(buf.len() as u64, 1)?;
        self.r.read_exact(buf).map_err(SectionError::Io)?;
        self.left -= buf.len() as u64;
        Ok(())
    }

    /// The next `N` bytes.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], SectionError> {
        let mut b = [0u8; N];
        self.fill(&mut b)?;
        Ok(b)
    }

    /// The next little-endian u64.
    pub fn u64(&mut self) -> Result<u64, SectionError> {
        self.array().map(u64::from_le_bytes)
    }

    /// The next little-endian f64.
    pub fn f64(&mut self) -> Result<f64, SectionError> {
        self.array().map(f64::from_le_bytes)
    }

    /// `n` little-endian f64s, allocated once the section is known to
    /// hold them.
    pub fn f64s(&mut self, n: u64) -> Result<Vec<f64>, SectionError> {
        self.run(n, f64::from_le_bytes)
    }

    /// `n` little-endian u32s, allocated likewise.
    pub fn u32s(&mut self, n: u64) -> Result<Vec<u32>, SectionError> {
        self.run(n, u32::from_le_bytes)
    }

    /// `decode` is a generic parameter rather than a `fn` pointer so it
    /// inlines: through a pointer, loading a 150 MB snapshot took ~20%
    /// longer.
    fn run<T, const W: usize>(
        &mut self,
        n: u64,
        decode: impl Fn([u8; W]) -> T,
    ) -> Result<Vec<T>, SectionError> {
        let count = self.need(n, W as u64)?;
        let mut out = Vec::with_capacity(count);
        let mut buf = [0u8; BUF_BYTES];
        while out.len() < count {
            let bytes = &mut buf[..(count - out.len()).min(BUF_BYTES / W) * W];
            self.fill(bytes)?;
            out.extend(bytes.chunks_exact(W).map(|b| decode(b.try_into().expect("W bytes"))));
        }
        Ok(out)
    }

    /// Hands the next `len` bytes to a nested codec, which must consume
    /// exactly them.
    pub fn nested(&mut self, len: u64) -> Result<&mut R, SectionError> {
        self.need(len, 1)?;
        self.left -= len;
        Ok(self.r)
    }

    /// Consumes what the section holds past its last field.
    pub fn skip_rest(&mut self) -> Result<(), SectionError> {
        let rest = std::mem::take(&mut self.left);
        if io::copy(&mut (&mut *self.r).take(rest), &mut io::sink()).map_err(SectionError::Io)?
            != rest
        {
            return Err(SectionError::Io(io::ErrorKind::UnexpectedEof.into()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claimed_lengths_are_checked_before_the_reader_is_touched() {
        let data = [7u8; 16];
        let mut r = &data[..];
        let mut s = Section::new(&mut r, 12);
        assert!(matches!(s.f64s(1 << 61), Err(SectionError::Short)), "2^61 · 8 overflows");
        assert!(matches!(s.u32s(4), Err(SectionError::Short)));
        assert!(matches!(s.nested(13), Err(SectionError::Short)));
        assert_eq!(s.u64().unwrap(), u64::from_le_bytes([7; 8]));
        assert!(matches!(s.u64(), Err(SectionError::Short)));
        s.skip_rest().unwrap();
        assert_eq!(s.left(), 0);
        assert_eq!(r.len(), 4, "exactly the section was consumed");
    }

    #[test]
    fn runs_roundtrip_across_buffer_boundaries() {
        let values: Vec<f64> = (0..1500).map(|i| i as f64 * 0.25 - 7.0).collect();
        let mut bytes = Vec::new();
        write_f64s(&mut bytes, &values).unwrap();
        let perm: Vec<u32> = (0..1500).rev().collect();
        for x in &perm {
            bytes.extend(x.to_le_bytes());
        }
        let (len, mut r) = (bytes.len() as u64, &bytes[..]);
        let mut s = Section::new(&mut r, len);
        assert_eq!(s.f64s(1500).unwrap(), values);
        assert_eq!(s.u32s(1500).unwrap(), perm);
        assert_eq!(s.left(), 0);
    }
}
