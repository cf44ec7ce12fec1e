//! Snapshot codec primitives.
//!
//! Every stateful component in the pipeline serializes its *dynamic* state
//! (counters, cache entries, reducer accumulators) through these two types so
//! a restarted control plane can resume bitwise-identically mid-stream.
//!
//! Design rules (see DESIGN.md "State management"):
//!
//! - **Little-endian fixed-width fields.** No varints: snapshot size is
//!   dominated by f64 accumulators that don't compress anyway, and fixed
//!   layout keeps the reader branch-free and the format auditable.
//! - **Structure is rebuilt, not stored.** Snapshots never carry compiled
//!   programs or table geometry; the restorer reconstructs those from the
//!   policy source and *then* fills in dynamic state. Geometry fields that
//!   do appear (bucket counts, register widths) are validation checks, not
//!   construction inputs — a mismatch is a load error, never a resize.
//! - **Versioned envelopes.** Each top-level snapshot starts with a magic +
//!   version header; readers reject unknown versions instead of guessing.
//! - **Truncation-safe reads.** Every `get_*` returns `Option`; a short or
//!   corrupt buffer surfaces as `None`, never a panic or partial state.

use crate::key::{FiveTuple, Granularity, GroupKey};

/// Append-only byte sink for snapshot serialization.
#[derive(Debug, Default)]
pub struct StateWriter {
    buf: Vec<u8>,
}

impl StateWriter {
    /// An empty writer.
    pub fn new() -> Self {
        StateWriter::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the serialized bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern — exact round-trip, so
    /// restored accumulators are bitwise-identical, including NaN payloads
    /// and signed zeros.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a `bool` as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends a length-prefixed (`u32`) byte slice.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Appends a nested, length-prefixed section produced by `f` — lets a
    /// reader skip or bounds-check a component's state without
    /// understanding its layout.
    pub fn put_section(&mut self, f: impl FnOnce(&mut StateWriter)) {
        let mut inner = StateWriter::new();
        f(&mut inner);
        self.put_bytes(&inner.buf);
    }
}

/// Cursor over serialized snapshot bytes. All reads are truncation-safe.
/// Cloning a reader forks the cursor (a second pass over the same bytes).
#[derive(Clone, Debug)]
pub struct StateReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> StateReader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        StateReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the whole buffer has been consumed — loaders assert this to
    /// catch layout drift between writer and reader.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Some(s)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    /// Reads a little-endian `u16`.
    pub fn get_u16(&mut self) -> Option<u16> {
        self.take(2).map(|s| u16::from_le_bytes([s[0], s[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|s| u64::from_le_bytes([s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]]))
    }

    /// Reads a little-endian `i64`.
    pub fn get_i64(&mut self) -> Option<i64> {
        self.get_u64().map(|v| v as i64)
    }

    /// Reads an `f64` stored as its bit pattern.
    pub fn get_f64(&mut self) -> Option<f64> {
        self.get_u64().map(f64::from_bits)
    }

    /// Reads a `bool`; any nonzero byte is `true`.
    pub fn get_bool(&mut self) -> Option<bool> {
        self.get_u8().map(|v| v != 0)
    }

    /// Reads a length-prefixed byte slice.
    pub fn get_bytes(&mut self) -> Option<&'a [u8]> {
        let n = self.get_u32()? as usize;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Option<&'a str> {
        std::str::from_utf8(self.get_bytes()?).ok()
    }

    /// Reads a nested section written by [`StateWriter::put_section`] and
    /// hands `f` a reader scoped to exactly its bytes. Fails when `f` fails
    /// or leaves section bytes unconsumed (layout drift).
    pub fn get_section<T>(
        &mut self,
        f: impl FnOnce(&mut StateReader<'_>) -> Option<T>,
    ) -> Option<T> {
        let bytes = self.get_bytes()?;
        let mut inner = StateReader::new(bytes);
        let v = f(&mut inner)?;
        if !inner.is_empty() {
            return None;
        }
        Some(v)
    }
}

impl FiveTuple {
    /// Serializes the tuple (13 bytes, the wire layout).
    pub fn save_state(&self, w: &mut StateWriter) {
        w.buf.extend_from_slice(&self.to_bytes());
    }

    /// Reads a tuple written by [`FiveTuple::save_state`].
    pub fn load_state(r: &mut StateReader<'_>) -> Option<Self> {
        let b = r.take(13)?;
        Some(FiveTuple {
            src_ip: u32::from_be_bytes([b[0], b[1], b[2], b[3]]),
            dst_ip: u32::from_be_bytes([b[4], b[5], b[6], b[7]]),
            src_port: u16::from_be_bytes([b[8], b[9]]),
            dst_port: u16::from_be_bytes([b[10], b[11]]),
            proto: b[12],
        })
    }
}

impl Granularity {
    /// One-byte granularity tag.
    pub fn save_state(self, w: &mut StateWriter) {
        w.put_u8(match self {
            Granularity::Flow => 0,
            Granularity::Host => 1,
            Granularity::Channel => 2,
            Granularity::Socket => 3,
        });
    }

    /// Reads a tag written by [`Granularity::save_state`].
    pub fn load_state(r: &mut StateReader<'_>) -> Option<Self> {
        Some(match r.get_u8()? {
            0 => Granularity::Flow,
            1 => Granularity::Host,
            2 => Granularity::Channel,
            3 => Granularity::Socket,
            _ => return None,
        })
    }
}

impl GroupKey {
    /// Tagged key serialization (1 tag byte + granularity-sized payload).
    pub fn save_state(&self, w: &mut StateWriter) {
        self.granularity().save_state(w);
        match self {
            GroupKey::Host(h) => w.put_u32(*h),
            GroupKey::Channel(s, d) => {
                w.put_u32(*s);
                w.put_u32(*d);
            }
            GroupKey::Socket(ft) | GroupKey::Flow(ft) => ft.save_state(w),
        }
    }

    /// Reads a key written by [`GroupKey::save_state`].
    pub fn load_state(r: &mut StateReader<'_>) -> Option<Self> {
        Some(match Granularity::load_state(r)? {
            Granularity::Flow => GroupKey::Flow(FiveTuple::load_state(r)?),
            Granularity::Host => GroupKey::Host(r.get_u32()?),
            Granularity::Channel => GroupKey::Channel(r.get_u32()?, r.get_u32()?),
            Granularity::Socket => GroupKey::Socket(FiveTuple::load_state(r)?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trip() {
        let mut w = StateWriter::new();
        w.put_u8(7);
        w.put_u16(0xBEEF);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 3);
        w.put_i64(-42);
        w.put_f64(-0.0);
        w.put_f64(f64::NAN);
        w.put_bool(true);
        w.put_bytes(b"abc");
        w.put_str("déjà");
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        assert_eq!(r.get_u8(), Some(7));
        assert_eq!(r.get_u16(), Some(0xBEEF));
        assert_eq!(r.get_u32(), Some(0xDEAD_BEEF));
        assert_eq!(r.get_u64(), Some(u64::MAX - 3));
        assert_eq!(r.get_i64(), Some(-42));
        assert_eq!(r.get_f64().map(f64::to_bits), Some((-0.0f64).to_bits()));
        assert_eq!(r.get_f64().map(f64::to_bits), Some(f64::NAN.to_bits()));
        assert_eq!(r.get_bool(), Some(true));
        assert_eq!(r.get_bytes(), Some(&b"abc"[..]));
        assert_eq!(r.get_str(), Some("déjà"));
        assert!(r.is_empty());
    }

    #[test]
    fn truncated_reads_return_none() {
        let mut w = StateWriter::new();
        w.put_u32(5);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes[..3]);
        assert_eq!(r.get_u32(), None);
        // A length prefix pointing past the end also fails cleanly.
        let mut w = StateWriter::new();
        w.put_u32(1000);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        assert_eq!(r.get_bytes(), None);
    }

    #[test]
    #[allow(clippy::redundant_closure_for_method_calls)]
    fn sections_scope_reads() {
        let mut w = StateWriter::new();
        w.put_section(|w| w.put_u64(11));
        w.put_u8(9);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        assert_eq!(r.get_section(|r| r.get_u64()), Some(11));
        assert_eq!(r.get_u8(), Some(9));
        // A reader that under-consumes its section is an error.
        let mut r = StateReader::new(&bytes);
        assert_eq!(r.get_section(|r| r.get_u32()), None);
    }

    #[test]
    fn key_round_trip_all_variants() {
        let ft = FiveTuple {
            src_ip: 0x0A00_0001,
            dst_ip: 0xC0A8_0001,
            src_port: 443,
            dst_port: 51234,
            proto: 6,
        };
        let keys = [
            GroupKey::Host(7),
            GroupKey::Channel(1, 2),
            GroupKey::Socket(ft),
            GroupKey::Flow(ft),
        ];
        let mut w = StateWriter::new();
        for k in &keys {
            k.save_state(&mut w);
        }
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        for k in &keys {
            assert_eq!(GroupKey::load_state(&mut r), Some(*k));
        }
        assert!(r.is_empty());
    }

    #[test]
    fn unknown_granularity_tag_rejected() {
        let mut r = StateReader::new(&[9]);
        assert!(Granularity::load_state(&mut r).is_none());
    }
}
