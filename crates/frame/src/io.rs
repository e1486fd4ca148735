//! Minimal Netpbm (PGM) reading and writing.
//!
//! Examples use these to emit viewable artifacts — e.g. the Figure 4
//! complementary frame pairs — without pulling an image crate into the
//! workspace. Only the binary grayscale variant (`P5`) with 8-bit depth is
//! supported, which is all the reproduction needs.

use crate::plane::Plane;
use crate::{FrameError, Result};
use std::io::{BufRead, Write};
use std::path::Path;

/// Writes a grayscale plane as binary PGM (`P5`).
///
/// Samples are rounded and clamped to `[0, 255]`.
///
/// # Errors
/// Propagates I/O failures.
pub fn write_pgm(path: impl AsRef<Path>, plane: &Plane<f32>) -> Result<()> {
    let mut f = std::fs::File::create(path)?;
    write_pgm_to(&mut f, plane)
}

/// Writes a grayscale plane as binary PGM to any writer.
///
/// # Errors
/// Propagates I/O failures.
pub fn write_pgm_to(w: &mut impl Write, plane: &Plane<f32>) -> Result<()> {
    writeln!(w, "P5\n{} {}\n255", plane.width(), plane.height())?;
    let bytes: Vec<u8> = plane
        .samples()
        .iter()
        .map(|&v| v.round().clamp(0.0, 255.0) as u8)
        .collect();
    w.write_all(&bytes)?;
    Ok(())
}

/// Reads a binary PGM from any reader.
///
/// # Errors
/// Returns [`FrameError::Parse`] on malformed headers or truncated data.
pub fn read_pgm_from(r: &mut impl BufRead) -> Result<Plane<f32>> {
    let (magic, w, h, maxval) = read_header(r)?;
    if magic != "P5" {
        return Err(FrameError::Parse(format!("expected P5, got {magic}")));
    }
    if maxval != 255 {
        return Err(FrameError::Parse(format!("unsupported maxval {maxval}")));
    }
    let mut data = vec![0u8; w * h];
    r.read_exact(&mut data)
        .map_err(|e| FrameError::Parse(format!("truncated pixel data: {e}")))?;
    Plane::from_vec(w, h, data.into_iter().map(|b| b as f32).collect())
}

/// Parses a Netpbm header: magic, width, height, maxval. Handles `#`
/// comments and arbitrary whitespace, consuming exactly one whitespace byte
/// after maxval (per the spec).
fn read_header(r: &mut impl BufRead) -> Result<(String, usize, usize, u32)> {
    let magic = next_token(r)?;
    let w: usize = next_token(r)?
        .parse()
        .map_err(|_| FrameError::Parse("bad width".into()))?;
    let h: usize = next_token(r)?
        .parse()
        .map_err(|_| FrameError::Parse("bad height".into()))?;
    let maxval: u32 = next_token(r)?
        .parse()
        .map_err(|_| FrameError::Parse("bad maxval".into()))?;
    Ok((magic, w, h, maxval))
}

/// Reads the next whitespace-delimited token, skipping `#` comment lines.
fn next_token(r: &mut impl BufRead) -> Result<String> {
    let mut tok = String::new();
    let mut in_comment = false;
    loop {
        let mut byte = [0u8; 1];
        if r.read(&mut byte)? == 0 {
            if tok.is_empty() {
                return Err(FrameError::Parse("unexpected end of header".into()));
            }
            return Ok(tok);
        }
        let c = byte[0] as char;
        if in_comment {
            if c == '\n' {
                in_comment = false;
            }
            continue;
        }
        if c == '#' {
            in_comment = true;
            continue;
        }
        if c.is_ascii_whitespace() {
            if !tok.is_empty() {
                return Ok(tok);
            }
            continue;
        }
        tok.push(c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufReader, Cursor};

    #[test]
    fn pgm_roundtrip_in_memory() {
        let p = Plane::from_fn(7, 5, |x, y| ((x * 40 + y * 9) % 256) as f32);
        let mut buf = Vec::new();
        write_pgm_to(&mut buf, &p).unwrap();
        let q = read_pgm_from(&mut Cursor::new(buf)).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn header_comments_are_skipped() {
        let data = b"P5\n# a comment\n2 1\n# another\n255\n\x10\x20";
        let p = read_pgm_from(&mut Cursor::new(&data[..])).unwrap();
        assert_eq!(p.samples(), &[16.0, 32.0]);
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let data = b"P4\n2 1\n255\n\x00\x00";
        assert!(read_pgm_from(&mut Cursor::new(&data[..])).is_err());
    }

    #[test]
    fn truncated_data_is_rejected() {
        let data = b"P5\n4 4\n255\n\x00";
        assert!(read_pgm_from(&mut Cursor::new(&data[..])).is_err());
    }

    #[test]
    fn non_255_maxval_is_rejected() {
        let data = b"P5\n1 1\n65535\n\x00\x00";
        assert!(read_pgm_from(&mut Cursor::new(&data[..])).is_err());
    }

    #[test]
    fn values_clamp_on_write() {
        let p = Plane::from_vec(2, 1, vec![-10.0f32, 300.0]).unwrap();
        let mut buf = Vec::new();
        write_pgm_to(&mut buf, &p).unwrap();
        let q = read_pgm_from(&mut Cursor::new(buf)).unwrap();
        assert_eq!(q.samples(), &[0.0, 255.0]);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("inframe_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.pgm");
        let p = Plane::from_fn(4, 4, |x, y| (x + y * 4) as f32);
        write_pgm(&path, &p).unwrap();
        let mut r = BufReader::new(std::fs::File::open(&path).unwrap());
        let q = read_pgm_from(&mut r).unwrap();
        assert_eq!(p, q);
        std::fs::remove_file(&path).ok();
    }
}
