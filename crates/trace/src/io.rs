//! Trace serialization: compact binary and human-readable text formats.
//!
//! Experiments normally drive simulators directly from generators, but the
//! ability to persist and replay a trace makes runs reproducible across
//! machines and lets external tools inspect generated workloads.
//!
//! Reading is **streaming**: [`read_binary_iter`] and [`read_text_iter`]
//! yield one [`MemAccess`] at a time without buffering the whole trace, so a
//! multi-gigabyte file can feed a simulation directly (this is the path
//! [`TraceSource`](crate::source::TraceSource) uses).  The whole-`Vec`
//! convenience wrappers [`read_binary`] and [`read_text`] are built on top of
//! the iterators.

use crate::access::{AccessKind, MemAccess};
use std::io::{self, BufRead, Read, Write};

/// Magic bytes identifying the binary trace format.
pub const MAGIC: &[u8; 4] = b"SMST";
/// Version of the binary trace format.
pub const VERSION: u8 = 1;
/// Bytes per binary record: cpu (1), kind (1), pc (8), addr (8).
pub const RECORD_BYTES: usize = 18;

/// Writes a trace in the compact binary format.
///
/// Each record is [`RECORD_BYTES`] bytes: cpu (1), kind (1), pc (8),
/// addr (8).
///
/// # Errors
///
/// Returns any I/O error from the underlying writer.
pub fn write_binary<W: Write>(mut w: W, accesses: &[MemAccess]) -> io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&[VERSION])?;
    w.write_all(&(accesses.len() as u64).to_le_bytes())?;
    for a in accesses {
        w.write_all(&[a.cpu, if a.kind.is_write() { 1 } else { 0 }])?;
        w.write_all(&a.pc.to_le_bytes())?;
        w.write_all(&a.addr.to_le_bytes())?;
    }
    Ok(())
}

/// A streaming reader over a binary trace: an iterator of
/// `io::Result<MemAccess>` that validates the header eagerly (in
/// [`read_binary_iter`]) and then decodes one record per `next` call.
///
/// After a record-level error the iterator fuses: subsequent `next` calls
/// return `None`.
#[derive(Debug)]
pub struct BinaryTraceReader<R> {
    reader: R,
    remaining: u64,
    failed: bool,
}

impl<R: Read> BinaryTraceReader<R> {
    /// Number of records the header promises are still unread.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    fn read_record(&mut self) -> io::Result<MemAccess> {
        let mut buf = [0u8; RECORD_BYTES];
        self.reader.read_exact(&mut buf).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("trace truncated with {} records unread", self.remaining),
                )
            } else {
                e
            }
        })?;
        let mut pc = [0u8; 8];
        pc.copy_from_slice(&buf[2..10]);
        let mut addr = [0u8; 8];
        addr.copy_from_slice(&buf[10..18]);
        Ok(MemAccess {
            cpu: buf[0],
            kind: if buf[1] == 1 {
                AccessKind::Write
            } else {
                AccessKind::Read
            },
            pc: u64::from_le_bytes(pc),
            addr: u64::from_le_bytes(addr),
        })
    }
}

impl<R: Read> Iterator for BinaryTraceReader<R> {
    type Item = io::Result<MemAccess>;

    fn next(&mut self) -> Option<io::Result<MemAccess>> {
        if self.failed || self.remaining == 0 {
            return None;
        }
        let record = self.read_record();
        match &record {
            Ok(_) => self.remaining -= 1,
            Err(_) => self.failed = true,
        }
        Some(record)
    }
}

/// Opens a streaming reader over a trace written with [`write_binary`].
///
/// The header (magic, version, record count) is validated immediately; the
/// records themselves are decoded lazily, one per iterator step, so the
/// whole trace is never buffered in memory.
///
/// # Errors
///
/// Returns `InvalidData` if the header is malformed; each iterator item can
/// further yield `InvalidData` (truncation) or an underlying I/O error.
pub fn read_binary_iter<R: Read>(mut r: R) -> io::Result<BinaryTraceReader<R>> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "bad trace magic",
        ));
    }
    let mut version = [0u8; 1];
    r.read_exact(&mut version)?;
    if version[0] != VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "unsupported trace version",
        ));
    }
    let mut len_bytes = [0u8; 8];
    r.read_exact(&mut len_bytes)?;
    Ok(BinaryTraceReader {
        reader: r,
        remaining: u64::from_le_bytes(len_bytes),
        failed: false,
    })
}

/// Reads a whole trace previously written with [`write_binary`].
///
/// # Errors
///
/// Returns `InvalidData` if the header is malformed or the stream is
/// truncated, and propagates underlying I/O errors.
pub fn read_binary<R: Read>(r: R) -> io::Result<Vec<MemAccess>> {
    read_binary_iter(r)?.collect()
}

/// Writes a trace as one whitespace-separated record per line:
/// `cpu kind pc addr` with `pc`/`addr` in hex.
///
/// # Errors
///
/// Returns any I/O error from the underlying writer.
pub fn write_text<W: Write>(mut w: W, accesses: &[MemAccess]) -> io::Result<()> {
    for a in accesses {
        writeln!(w, "{} {} {:#x} {:#x}", a.cpu, a.kind, a.pc, a.addr)?;
    }
    Ok(())
}

/// A streaming reader over a text trace: an iterator of
/// `io::Result<MemAccess>` that parses one line per `next` call, skipping
/// blank lines and `#` comments.
///
/// After a parse or I/O error the iterator fuses: subsequent `next` calls
/// return `None`.
#[derive(Debug)]
pub struct TextTraceReader<R> {
    lines: io::Lines<R>,
    lineno: usize,
    failed: bool,
}

impl<R: BufRead> Iterator for TextTraceReader<R> {
    type Item = io::Result<MemAccess>;

    fn next(&mut self) -> Option<io::Result<MemAccess>> {
        if self.failed {
            return None;
        }
        loop {
            let line = match self.lines.next()? {
                Ok(line) => line,
                Err(e) => {
                    self.failed = true;
                    return Some(Err(e));
                }
            };
            self.lineno += 1;
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let parsed = parse_text_record(line, self.lineno);
            if parsed.is_err() {
                self.failed = true;
            }
            return Some(parsed);
        }
    }
}

/// Opens a streaming reader over a trace in the format written by
/// [`write_text`].  Parse errors surface as `InvalidData` items naming the
/// offending line.
pub fn read_text_iter<R: BufRead>(r: R) -> TextTraceReader<R> {
    TextTraceReader {
        lines: r.lines(),
        lineno: 0,
        failed: false,
    }
}

/// Reads a whole trace in the text format produced by [`write_text`].
///
/// # Errors
///
/// Returns `InvalidData` for malformed lines and propagates I/O errors.
pub fn read_text<R: BufRead>(r: R) -> io::Result<Vec<MemAccess>> {
    read_text_iter(r).collect()
}

fn parse_text_record(line: &str, lineno: usize) -> io::Result<MemAccess> {
    let mut parts = line.split_whitespace();
    let mut next_field = |what: &str| {
        parts.next().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("line {lineno}: missing {what}"),
            )
        })
    };
    let cpu: u8 = next_field("cpu")?.parse().map_err(bad_line(lineno))?;
    let kind = match next_field("access kind")? {
        "R" => AccessKind::Read,
        "W" => AccessKind::Write,
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("line {lineno}: bad access kind {other:?}"),
            ))
        }
    };
    let pc = parse_hex(next_field("pc")?).map_err(bad_line(lineno))?;
    let addr = parse_hex(next_field("addr")?).map_err(bad_line(lineno))?;
    Ok(MemAccess {
        cpu,
        pc,
        addr,
        kind,
    })
}

fn parse_hex(s: &str) -> Result<u64, std::num::ParseIntError> {
    if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        s.parse()
    }
}

fn bad_line<E: std::fmt::Display>(lineno: usize) -> impl Fn(E) -> io::Error {
    move |e| io::Error::new(io::ErrorKind::InvalidData, format!("line {lineno}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<MemAccess> {
        vec![
            MemAccess::read(0, 0x4000, 0x1_0000),
            MemAccess::write(3, 0x4010, 0x1_0040),
            MemAccess::read(15, 0xdead_beef, 0xffff_ffff_0000),
        ]
    }

    #[test]
    fn binary_round_trip() {
        let trace = sample();
        let mut buf = Vec::new();
        write_binary(&mut buf, &trace).unwrap();
        let back = read_binary(buf.as_slice()).unwrap();
        assert_eq!(trace, back);
    }

    #[test]
    fn binary_iter_streams_without_buffering() {
        let trace = sample();
        let mut buf = Vec::new();
        write_binary(&mut buf, &trace).unwrap();
        let mut iter = read_binary_iter(buf.as_slice()).unwrap();
        assert_eq!(iter.remaining(), 3);
        assert_eq!(iter.next().unwrap().unwrap(), trace[0]);
        assert_eq!(iter.remaining(), 2);
        let rest: Vec<MemAccess> = iter.map(Result::unwrap).collect();
        assert_eq!(rest, trace[1..]);
    }

    #[test]
    fn text_round_trip() {
        let trace = sample();
        let mut buf = Vec::new();
        write_text(&mut buf, &trace).unwrap();
        let back = read_text(buf.as_slice()).unwrap();
        assert_eq!(trace, back);
    }

    #[test]
    fn text_ignores_comments_and_blank_lines() {
        let text = "# comment\n\n0 R 0x10 0x40\n";
        let back = read_text(text.as_bytes()).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].addr, 0x40);
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let err = read_binary(&b"XXXX\x01\0\0\0\0\0\0\0\0"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn binary_rejects_bad_version() {
        let err = read_binary(&b"SMST\x7f\0\0\0\0\0\0\0\0"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn binary_truncation_is_an_error_not_a_panic() {
        let trace = sample();
        let mut buf = Vec::new();
        write_binary(&mut buf, &trace).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read_binary(buf.as_slice()).is_err());

        // The streaming reader yields the intact records, then the error,
        // then fuses.
        let mut iter = read_binary_iter(buf.as_slice()).unwrap();
        assert_eq!(iter.next().unwrap().unwrap(), trace[0]);
        assert_eq!(iter.next().unwrap().unwrap(), trace[1]);
        let err = iter.next().unwrap().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(iter.next().is_none(), "reader must fuse after an error");
    }

    #[test]
    fn binary_header_alone_is_an_empty_trace() {
        let mut buf = Vec::new();
        write_binary(&mut buf, &[]).unwrap();
        let mut iter = read_binary_iter(buf.as_slice()).unwrap();
        assert_eq!(iter.remaining(), 0);
        assert!(iter.next().is_none());
    }

    #[test]
    fn binary_corrupt_header_count_reports_truncation() {
        // A header that promises more records than the stream contains.
        let mut buf = Vec::new();
        write_binary(&mut buf, &sample()).unwrap();
        buf[5] = 200; // inflate the little-endian record count
        let err = read_binary(buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("truncated"));
    }

    #[test]
    fn text_rejects_bad_kind() {
        let err = read_text("0 Q 0x1 0x2\n".as_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn text_iter_reports_line_numbers_and_fuses() {
        let text = "0 R 0x10 0x40\nnot a record\n0 R 0x10 0x80\n";
        let mut iter = read_text_iter(text.as_bytes());
        assert!(iter.next().unwrap().is_ok());
        let err = iter.next().unwrap().unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        assert!(iter.next().is_none(), "reader must fuse after an error");
    }

    #[test]
    fn text_rejects_missing_fields() {
        let err = read_text("0 R 0x1\n".as_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("missing"));
    }
}
