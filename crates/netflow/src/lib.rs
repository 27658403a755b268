//! NetFlow v5 export: serialize collected flow records into the classic
//! datagram format (RFC-less but universally implemented; Cisco NetFlow
//! Services Export v5), and parse such datagrams back.
//!
//! The paper positions HashFlow as a better *collection* stage for
//! NetFlow-style monitoring (§I); this crate closes the loop for a
//! downstream user: records drained from any `FlowMonitor` at the end of a
//! measurement epoch can be shipped to an unmodified NetFlow collector.
//! [`NetFlowV5Sink`] plugs that wire format into the collector pipeline's
//! sink layer (`hashflow_monitor::RecordSink`), so epoch rotators and the
//! `hashflow-collector` facade stream sealed epochs here directly.
//!
//! A v5 datagram is a 24-byte header followed by up to 30 fixed 48-byte
//! records, all fields big-endian.
//!
//! # Examples
//!
//! ```
//! use hashflow_types::{FlowKey, FlowRecord};
//! use netflow_export::{decode_datagrams, ExportMeta, Exporter};
//!
//! let records = vec![FlowRecord::new(FlowKey::from_index(1), 42)];
//! let mut exporter = Exporter::new(ExportMeta::default());
//! let datagrams = exporter.export(&records);
//! let parsed = decode_datagrams(datagrams.iter().map(Vec::as_slice))?;
//! assert_eq!(parsed[0].key(), records[0].key());
//! assert_eq!(parsed[0].count(), 42);
//! # Ok::<(), netflow_export::DecodeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hashflow_monitor::{EpochSnapshot, RecordSink};
use hashflow_types::{FlowKey, FlowRecord};
use std::error::Error;
use std::fmt;
use std::io::{self, Write};

/// NetFlow export version implemented by this crate.
pub const VERSION: u16 = 5;

/// Header length in bytes.
pub const HEADER_LEN: usize = 24;

/// Record length in bytes.
pub const RECORD_LEN: usize = 48;

/// Maximum records per datagram (v5 limit).
pub const MAX_RECORDS_PER_DATAGRAM: usize = 30;

/// Exporter-level metadata stamped into datagram headers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExportMeta {
    /// Milliseconds since device boot.
    pub sys_uptime_ms: u32,
    /// Export wall-clock time, seconds.
    pub unix_secs: u32,
    /// Export wall-clock time, residual nanoseconds.
    pub unix_nsecs: u32,
    /// Engine type field.
    pub engine_type: u8,
    /// Engine id field.
    pub engine_id: u8,
    /// Sampling mode and interval (0 = unsampled).
    pub sampling_interval: u16,
}

/// Stateful v5 exporter: maintains the running `flow_sequence` counter
/// across datagrams, as a real exporter must.
#[derive(Debug, Clone, Default)]
pub struct Exporter {
    meta: ExportMeta,
    flow_sequence: u32,
}

impl Exporter {
    /// Creates an exporter with the given header metadata.
    pub fn new(meta: ExportMeta) -> Self {
        Exporter {
            meta,
            flow_sequence: 0,
        }
    }

    /// Total flows exported so far (the next header's sequence number).
    pub const fn flow_sequence(&self) -> u32 {
        self.flow_sequence
    }

    /// Mutable access to the header metadata (sinks restamp per-epoch
    /// timing between exports).
    pub fn meta_mut(&mut self) -> &mut ExportMeta {
        &mut self.meta
    }

    /// Serializes `records` into one or more v5 datagrams of at most 30
    /// records each.
    pub fn export(&mut self, records: &[FlowRecord]) -> Vec<Vec<u8>> {
        records
            .chunks(MAX_RECORDS_PER_DATAGRAM)
            .map(|chunk| {
                let mut buf = Vec::with_capacity(HEADER_LEN + chunk.len() * RECORD_LEN);
                self.write_header(&mut buf, chunk.len() as u16);
                for rec in chunk {
                    write_record(&mut buf, rec);
                }
                self.flow_sequence = self.flow_sequence.wrapping_add(chunk.len() as u32);
                buf
            })
            .collect()
    }

    fn write_header(&self, buf: &mut Vec<u8>, count: u16) {
        buf.extend_from_slice(&VERSION.to_be_bytes());
        buf.extend_from_slice(&count.to_be_bytes());
        buf.extend_from_slice(&self.meta.sys_uptime_ms.to_be_bytes());
        buf.extend_from_slice(&self.meta.unix_secs.to_be_bytes());
        buf.extend_from_slice(&self.meta.unix_nsecs.to_be_bytes());
        buf.extend_from_slice(&self.flow_sequence.to_be_bytes());
        buf.push(self.meta.engine_type);
        buf.push(self.meta.engine_id);
        buf.extend_from_slice(&self.meta.sampling_interval.to_be_bytes());
    }
}

fn write_record(buf: &mut Vec<u8>, rec: &FlowRecord) {
    let key = rec.key();
    buf.extend_from_slice(&key.src_ip().octets());
    buf.extend_from_slice(&key.dst_ip().octets());
    buf.extend_from_slice(&[0; 4]); // nexthop
    buf.extend_from_slice(&[0; 2]); // input if
    buf.extend_from_slice(&[0; 2]); // output if
    buf.extend_from_slice(&rec.count().to_be_bytes()); // dPkts
                                                       // dOctets: we track packets, not bytes; report packets * 0 is useless,
                                                       // so export a conventional 64-byte-minimum estimate.
    buf.extend_from_slice(&rec.count().saturating_mul(64).to_be_bytes());
    buf.extend_from_slice(&[0; 4]); // first
    buf.extend_from_slice(&[0; 4]); // last
    buf.extend_from_slice(&key.src_port().to_be_bytes());
    buf.extend_from_slice(&key.dst_port().to_be_bytes());
    buf.push(0); // pad1
    buf.push(0); // tcp_flags
    buf.push(key.protocol());
    buf.push(0); // tos
    buf.extend_from_slice(&[0; 2]); // src_as
    buf.extend_from_slice(&[0; 2]); // dst_as
    buf.push(0); // src_mask
    buf.push(0); // dst_mask
    buf.extend_from_slice(&[0; 2]); // pad2
}

/// Streaming [`RecordSink`]: serializes every sealed epoch into NetFlow
/// v5 datagrams and writes them to the wrapped writer (a file, a socket,
/// a `Vec<u8>` buffer).
///
/// The sink owns a stateful [`Exporter`], so `flow_sequence` numbers run
/// continuously across epochs — exactly what a downstream v5 collector
/// uses to detect datagram loss. Epoch timing is stamped into the header:
/// `sys_uptime_ms` carries the epoch's last observed packet timestamp
/// (ns truncated to ms) when known.
///
/// # Examples
///
/// ```
/// use hashflow_monitor::{EpochSnapshot, RecordSink};
/// use hashflow_types::{FlowKey, FlowRecord};
/// use netflow_export::{decode_datagrams, NetFlowV5Sink};
///
/// let snapshot = EpochSnapshot::from_parts(
///     0, None, None,
///     vec![FlowRecord::new(FlowKey::from_index(7), 9)],
///     1.0, Default::default(),
/// );
/// let mut sink = NetFlowV5Sink::new(Vec::new());
/// sink.export_epoch(&snapshot)?;
/// let bytes = sink.into_inner();
/// let parsed = decode_datagrams(std::iter::once(bytes.as_slice()))?;
/// assert_eq!(parsed[0].count(), 9);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct NetFlowV5Sink<W: Write> {
    writer: W,
    exporter: Exporter,
    datagrams: u64,
}

impl<W: Write> NetFlowV5Sink<W> {
    /// Wraps a writer with default header metadata.
    pub fn new(writer: W) -> Self {
        Self::with_meta(writer, ExportMeta::default())
    }

    /// Wraps a writer, stamping `meta` into every datagram header.
    pub fn with_meta(writer: W, meta: ExportMeta) -> Self {
        NetFlowV5Sink {
            writer,
            exporter: Exporter::new(meta),
            datagrams: 0,
        }
    }

    /// Total flows exported so far (the running v5 sequence number).
    pub const fn flow_sequence(&self) -> u32 {
        self.exporter.flow_sequence()
    }

    /// Datagrams written so far.
    pub const fn datagrams_written(&self) -> u64 {
        self.datagrams
    }

    /// Unwraps the sink, returning the underlying writer.
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: Write> RecordSink for NetFlowV5Sink<W> {
    fn export_epoch(&mut self, snapshot: &EpochSnapshot) -> io::Result<()> {
        // v5 headers carry an export timestamp; reuse the epoch's end as
        // the uptime reference so consumers can order epochs.
        if let Some(end_ns) = snapshot.end_ns() {
            self.exporter.meta_mut().sys_uptime_ms = (end_ns / 1_000_000) as u32;
        }
        let records: Vec<FlowRecord> = snapshot.records().copied().collect();
        for datagram in self.exporter.export(&records) {
            self.writer.write_all(&datagram)?;
            self.datagrams += 1;
        }
        Ok(())
    }

    fn finish(&mut self) -> io::Result<()> {
        self.writer.flush()
    }
}

/// Error raised while decoding a v5 datagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The datagram is shorter than a v5 header.
    Truncated,
    /// The version field is not 5.
    WrongVersion(u16),
    /// The header's record count disagrees with the datagram length.
    CountMismatch {
        /// Records promised by the header.
        declared: u16,
        /// Records the byte length can actually hold.
        available: usize,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "datagram shorter than a netflow v5 header"),
            DecodeError::WrongVersion(v) => write!(f, "unsupported netflow version {v}"),
            DecodeError::CountMismatch {
                declared,
                available,
            } => write!(
                f,
                "header declares {declared} records but payload holds {available}"
            ),
        }
    }
}

impl Error for DecodeError {}

/// Decodes one v5 datagram into flow records.
///
/// # Errors
///
/// Returns [`DecodeError`] on truncation, wrong version, or a count
/// mismatch.
pub fn decode_datagram(bytes: &[u8]) -> Result<Vec<FlowRecord>, DecodeError> {
    if bytes.len() < HEADER_LEN {
        return Err(DecodeError::Truncated);
    }
    let version = u16::from_be_bytes([bytes[0], bytes[1]]);
    if version != VERSION {
        return Err(DecodeError::WrongVersion(version));
    }
    let declared = u16::from_be_bytes([bytes[2], bytes[3]]);
    let available = (bytes.len() - HEADER_LEN) / RECORD_LEN;
    if usize::from(declared) != available || bytes.len() != HEADER_LEN + available * RECORD_LEN {
        return Err(DecodeError::CountMismatch {
            declared,
            available,
        });
    }
    let mut records = Vec::with_capacity(available);
    for i in 0..available {
        let r = &bytes[HEADER_LEN + i * RECORD_LEN..HEADER_LEN + (i + 1) * RECORD_LEN];
        let src: [u8; 4] = r[0..4].try_into().expect("4 bytes");
        let dst: [u8; 4] = r[4..8].try_into().expect("4 bytes");
        let packets = u32::from_be_bytes(r[16..20].try_into().expect("4 bytes"));
        let src_port = u16::from_be_bytes([r[32], r[33]]);
        let dst_port = u16::from_be_bytes([r[34], r[35]]);
        let protocol = r[38];
        records.push(FlowRecord::new(
            FlowKey::new(src.into(), dst.into(), src_port, dst_port, protocol),
            packets,
        ));
    }
    Ok(records)
}

/// Decodes a sequence of datagrams, concatenating their records.
///
/// # Errors
///
/// Fails on the first malformed datagram.
pub fn decode_datagrams<'a, I: IntoIterator<Item = &'a [u8]>>(
    datagrams: I,
) -> Result<Vec<FlowRecord>, DecodeError> {
    let mut out = Vec::new();
    for d in datagrams {
        out.extend(decode_datagram(d)?);
    }
    Ok(out)
}

/// Splits a concatenated v5 byte stream — what [`NetFlowV5Sink`] writes,
/// or a capture of back-to-back export packets — into its individual
/// datagrams, using each header's record count to find the next
/// boundary.
///
/// # Errors
///
/// Returns [`DecodeError`] if a header is truncated, carries the wrong
/// version, or declares more records than the remaining bytes hold
/// (trailing garbage surfaces as a [`DecodeError::CountMismatch`] or
/// [`DecodeError::Truncated`] at the offending offset).
pub fn split_datagrams(bytes: &[u8]) -> Result<Vec<&[u8]>, DecodeError> {
    let mut out = Vec::new();
    let mut rest = bytes;
    while !rest.is_empty() {
        if rest.len() < HEADER_LEN {
            return Err(DecodeError::Truncated);
        }
        let version = u16::from_be_bytes([rest[0], rest[1]]);
        if version != VERSION {
            return Err(DecodeError::WrongVersion(version));
        }
        let declared = u16::from_be_bytes([rest[2], rest[3]]);
        let len = HEADER_LEN + usize::from(declared) * RECORD_LEN;
        if rest.len() < len {
            return Err(DecodeError::CountMismatch {
                declared,
                available: (rest.len() - HEADER_LEN) / RECORD_LEN,
            });
        }
        let (datagram, tail) = rest.split_at(len);
        out.push(datagram);
        rest = tail;
    }
    Ok(out)
}

/// [`split_datagrams`] + [`decode_datagrams`] in one call: decodes every
/// record of a concatenated v5 byte stream.
///
/// # Errors
///
/// Fails on the first malformed datagram.
pub fn decode_stream(bytes: &[u8]) -> Result<Vec<FlowRecord>, DecodeError> {
    decode_datagrams(split_datagrams(bytes)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn records(n: usize) -> Vec<FlowRecord> {
        (0..n as u64)
            .map(|i| FlowRecord::new(FlowKey::from_index(i), (i % 1000 + 1) as u32))
            .collect()
    }

    #[test]
    fn round_trip_single_datagram() {
        let recs = records(7);
        let mut ex = Exporter::default();
        let dgrams = ex.export(&recs);
        assert_eq!(dgrams.len(), 1);
        assert_eq!(dgrams[0].len(), HEADER_LEN + 7 * RECORD_LEN);
        let parsed = decode_datagram(&dgrams[0]).unwrap();
        assert_eq!(parsed, recs);
    }

    #[test]
    fn chunks_at_thirty_records() {
        let recs = records(65);
        let mut ex = Exporter::default();
        let dgrams = ex.export(&recs);
        assert_eq!(dgrams.len(), 3);
        assert_eq!(ex.flow_sequence(), 65);
        let parsed = decode_datagrams(dgrams.iter().map(Vec::as_slice)).unwrap();
        assert_eq!(parsed, recs);
    }

    #[test]
    fn sequence_numbers_accumulate() {
        let mut ex = Exporter::default();
        ex.export(&records(30));
        let second = ex.export(&records(1));
        // flow_sequence field of the second datagram's header is 30.
        let seq = u32::from_be_bytes(second[0][16..20].try_into().unwrap());
        assert_eq!(seq, 30);
    }

    #[test]
    fn header_fields_stamped() {
        let meta = ExportMeta {
            sys_uptime_ms: 1234,
            unix_secs: 5678,
            unix_nsecs: 99,
            engine_type: 1,
            engine_id: 2,
            sampling_interval: 0x0102,
        };
        let dgram = &Exporter::new(meta).export(&records(1))[0];
        assert_eq!(u16::from_be_bytes([dgram[0], dgram[1]]), 5);
        assert_eq!(u32::from_be_bytes(dgram[4..8].try_into().unwrap()), 1234);
        assert_eq!(u32::from_be_bytes(dgram[8..12].try_into().unwrap()), 5678);
        assert_eq!(dgram[20], 1);
        assert_eq!(dgram[21], 2);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(decode_datagram(&[0u8; 10]), Err(DecodeError::Truncated));
        let mut wrong_version = vec![0u8; HEADER_LEN];
        wrong_version[1] = 9;
        assert_eq!(
            decode_datagram(&wrong_version),
            Err(DecodeError::WrongVersion(9))
        );
        let mut bad_count = Exporter::default().export(&records(2)).remove(0);
        bad_count[3] = 7; // claims 7 records, has 2
        assert!(matches!(
            decode_datagram(&bad_count),
            Err(DecodeError::CountMismatch {
                declared: 7,
                available: 2
            })
        ));
        // Trailing garbage that is not a whole record.
        let mut ragged = Exporter::default().export(&records(1)).remove(0);
        ragged.extend_from_slice(&[0; 5]);
        assert!(decode_datagram(&ragged).is_err());
    }

    #[test]
    fn empty_export_produces_nothing() {
        let mut ex = Exporter::default();
        assert!(ex.export(&[]).is_empty());
        assert_eq!(ex.flow_sequence(), 0);
    }

    #[test]
    fn sink_round_trips_epochs_with_running_sequence() {
        use hashflow_monitor::EpochSnapshot;

        let epoch = |n: u64, count: usize| {
            EpochSnapshot::from_parts(
                n,
                Some(n * 1_000_000),
                Some(n * 1_000_000 + 500_000),
                records(count),
                count as f64,
                Default::default(),
            )
        };
        let mut sink = NetFlowV5Sink::new(Vec::new());
        sink.export_epoch(&epoch(0, 35)).unwrap();
        sink.export_epoch(&epoch(1, 3)).unwrap();
        sink.finish().unwrap();
        assert_eq!(sink.flow_sequence(), 38);
        assert_eq!(sink.datagrams_written(), 3); // 30 + 5, then 3
        let bytes = sink.into_inner();

        // Re-parse the concatenated byte stream datagram by datagram.
        assert_eq!(split_datagrams(&bytes).unwrap().len(), 3);
        let parsed = decode_stream(&bytes).unwrap();
        let mut expected = records(35);
        expected.extend(records(3));
        assert_eq!(parsed, expected);
    }

    #[test]
    fn sink_stamps_epoch_timing_into_headers() {
        use hashflow_monitor::EpochSnapshot;
        let snapshot = EpochSnapshot::from_parts(
            4,
            Some(0),
            Some(7_000_000_000), // 7 s
            records(1),
            1.0,
            Default::default(),
        );
        let mut sink = NetFlowV5Sink::new(Vec::new());
        sink.export_epoch(&snapshot).unwrap();
        let bytes = sink.into_inner();
        let uptime = u32::from_be_bytes(bytes[4..8].try_into().unwrap());
        assert_eq!(uptime, 7_000);
    }

    #[test]
    fn error_messages_are_informative() {
        assert!(DecodeError::Truncated.to_string().contains("header"));
        assert!(DecodeError::WrongVersion(1).to_string().contains('1'));
    }
}
