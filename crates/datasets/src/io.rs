//! `.fvecs` / `.ivecs` readers and writers (the TEXMEX corpus format used by
//! Sift1M/Gist/Deep1M): every vector is a little-endian `i32` dimension
//! followed by `dim` little-endian values (`f32` or `i32`).
//!
//! These exist so that readers holding the real corpora can reproduce the
//! experiments on them: load with [`read_fvecs`], wrap in
//! [`crate::Dataset::from_parts`].

use ppann_linalg::{Section, SectionError};
use std::io::{self, BufReader, BufWriter, Write};
use std::path::Path;

/// Reads up to `limit` records of a `.fvecs`/`.ivecs` file as raw 4-byte
/// words, each passed through `convert`. A dimension the file cannot hold
/// is an error, not an allocation; up to 3 trailing bytes are ignored.
fn read_records<T>(
    path: &Path,
    limit: Option<usize>,
    convert: fn(Vec<u32>) -> T,
) -> io::Result<Vec<T>> {
    let file = std::fs::File::open(path)?;
    let len = file.metadata()?.len();
    let mut reader = BufReader::new(file);
    let mut data = Section::new(&mut reader, len);
    let mut out = Vec::new();
    while data.left() >= 4 && limit.is_none_or(|l| out.len() < l) {
        let dim = i32::from_le_bytes(data.array().map_err(eof)?);
        let words = u64::try_from(dim).map_err(|_| SectionError::Short).and_then(|n| data.u32s(n));
        out.push(convert(words.map_err(eof)?));
    }
    Ok(out)
}

/// A record the file cannot hold reads as the end of the file.
fn eof(e: SectionError) -> io::Error {
    match e {
        SectionError::Short => io::ErrorKind::UnexpectedEof.into(),
        SectionError::Io(e) => e,
    }
}

/// Reads an entire `.fvecs` file (optionally capping the number of vectors).
pub fn read_fvecs(path: &Path, limit: Option<usize>) -> io::Result<Vec<Vec<f64>>> {
    read_records(path, limit, |v| v.into_iter().map(|b| f32::from_bits(b) as f64).collect())
}

/// Writes vectors as `.fvecs` (values stored as `f32`).
pub fn write_fvecs(path: &Path, vectors: &[Vec<f64>]) -> io::Result<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    for v in vectors {
        w.write_all(&(v.len() as i32).to_le_bytes())?;
        for x in v {
            w.write_all(&(*x as f32).to_le_bytes())?;
        }
    }
    w.flush()
}

/// Reads an `.ivecs` file (e.g. ground-truth id lists).
pub fn read_ivecs(path: &Path, limit: Option<usize>) -> io::Result<Vec<Vec<u32>>> {
    read_records(path, limit, |ids| ids)
}

/// Writes id lists as `.ivecs`.
pub fn write_ivecs(path: &Path, lists: &[Vec<u32>]) -> io::Result<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    for ids in lists {
        w.write_all(&(ids.len() as i32).to_le_bytes())?;
        for id in ids {
            w.write_all(&(*id as i32).to_le_bytes())?;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fvecs_roundtrip() {
        let path = std::env::temp_dir().join("ppanns_io_test.fvecs");
        let vecs = vec![vec![1.0, 2.5, -3.0], vec![0.0, 4.0, 5.0]];
        write_fvecs(&path, &vecs).unwrap();
        let back = read_fvecs(&path, None).unwrap();
        assert_eq!(back, vecs);
        let capped = read_fvecs(&path, Some(1)).unwrap();
        assert_eq!(capped.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn ivecs_roundtrip() {
        let path = std::env::temp_dir().join("ppanns_io_test.ivecs");
        let lists = vec![vec![1, 2, 3], vec![7]];
        write_ivecs(&path, &lists).unwrap();
        assert_eq!(read_ivecs(&path, None).unwrap(), lists);
        std::fs::remove_file(&path).ok();
    }

    /// A record whose dimension is negative, or more than the file holds,
    /// is an error rather than a panic or an allocation of that size.
    #[test]
    fn impossible_dimensions_are_errors() {
        let path = std::env::temp_dir().join(format!("ppanns_io_bad_{}.fvecs", std::process::id()));
        for dim in [-1i32, i32::MAX] {
            let mut bytes = dim.to_le_bytes().to_vec();
            bytes.extend(1.0f32.to_le_bytes());
            std::fs::write(&path, bytes).unwrap();
            let err = read_fvecs(&path, None).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "dim {dim}");
        }
        std::fs::remove_file(&path).ok();
    }
}
