//! The compact binary event codec: the same [`Event`] stream the JSONL
//! sink writes, at a fraction of the serialization cost and byte size.
//!
//! Layout (DESIGN.md §15):
//!
//! - **File header**: the 4-byte magic `RMTB`, a little-endian `u32`
//!   schema version ([`BIN_SCHEMA_VERSION`]), one flags byte, and —
//!   when the sampled flag is set — the sample rate (`f64` bits, LE)
//!   and sampling seed (`u64`, LE). The header is what format
//!   auto-detection keys on: a JSONL log can never start with `RMTB`
//!   (it would have to be a line of invalid JSON).
//! - **Records**: one per event — a `u8` kind tag (the [`Event`]
//!   variant's declaration index), a varint payload length, then the
//!   payload. Integers are LEB128 varints, signed fields are zigzag
//!   varints, floats are 8 fixed little-endian IEEE-754 bytes, strings
//!   are varint-length-prefixed UTF-8, and sub-enums are one tag byte.
//!
//! The layout table below is the one place that defines each kind's tag
//! and field order: one row per kind generates its encoder and decoder
//! arms, and each field type's `Field` impl holds both directions of
//! its encoding. Adding a kind is an [`Event`] variant plus one row with
//! the next tag; a kind or field missing from the table, or a duplicate
//! tag, does not compile.
//!
//! The explicit payload length is what buys tolerance: an unknown kind
//! tag from a newer engine is skipped whole (counted, like the JSONL
//! parser's unknown kinds), and a record cut short by a mid-write kill
//! is reported as a torn tail with the byte offset that heals it —
//! truncating the file there leaves exactly the whole-record prefix.
//!
//! Encoding is deterministic (no maps, no float formatting), so a
//! seeded run writes a byte-identical binary log on every replay, and
//! the JSONL⇄binary converters are lossless in both directions.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use crate::event::{Action, Event, QueueId, ShedCause};
use crate::reader::{EventReader, Format, ReadError};
use crate::sink::{Latched, LogFile, ParsedLog, StreamHeader, TelemetrySink};

/// Magic bytes a binary telemetry stream starts with.
pub const BIN_MAGIC: [u8; 4] = *b"RMTB";

/// Version of the binary record schema written by [`BinSink`]. Bumped
/// when a record's shape changes incompatibly; it tracks the JSONL
/// schema (the record *contents* are the same events).
pub const BIN_SCHEMA_VERSION: u32 = 1;

/// Header flag bit: the stream was written through a sampling sink and
/// carries its rate + seed in the header.
pub(crate) const FLAG_SAMPLED: u8 = 0b0000_0001;

/// True when `bytes` starts with the binary stream magic — the format
/// auto-detection used by `ramsis-cli` for `--telemetry` paths and
/// `telemetry convert` inputs.
pub fn is_binary_stream(bytes: &[u8]) -> bool {
    bytes.len() >= BIN_MAGIC.len() && bytes[..BIN_MAGIC.len()] == BIN_MAGIC
}

// ---------------------------------------------------------------------
// Field codecs
// ---------------------------------------------------------------------

/// Both directions of one payload field type's encoding. `get` reads
/// from the front of the remaining payload and advances it; `Err(())`
/// means the payload is malformed.
trait Field: Sized {
    fn put(&self, buf: &mut Vec<u8>);
    fn get(input: &mut &[u8]) -> Result<Self, ()>;
}

/// Splits the next `n` bytes off the payload.
fn take<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8], ()> {
    let (head, rest) = input.split_at_checked(n).ok_or(())?;
    *input = rest;
    Ok(head)
}

fn byte(input: &mut &[u8]) -> Result<u8, ()> {
    Ok(take(input, 1)?[0])
}

/// LEB128 varint.
impl Field for u64 {
    fn put(&self, buf: &mut Vec<u8>) {
        let mut v = *self;
        while v >= 0x80 {
            buf.push((v & 0x7f) as u8 | 0x80);
            v >>= 7;
        }
        buf.push(v as u8);
    }

    fn get(input: &mut &[u8]) -> Result<Self, ()> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let b = byte(input)?;
            if shift >= 64 || (shift == 63 && b > 1) {
                return Err(()); // overlong encoding
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }
}

/// A varint that must fit in 32 bits.
impl Field for u32 {
    fn put(&self, buf: &mut Vec<u8>) {
        u64::from(*self).put(buf);
    }

    fn get(input: &mut &[u8]) -> Result<Self, ()> {
        u32::try_from(u64::get(input)?).map_err(|_| ())
    }
}

/// Zigzag varint.
impl Field for i64 {
    fn put(&self, buf: &mut Vec<u8>) {
        (((self << 1) ^ (self >> 63)) as u64).put(buf);
    }

    fn get(input: &mut &[u8]) -> Result<Self, ()> {
        let v = u64::get(input)?;
        Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
    }
}

/// IEEE-754 bits, little-endian.
impl Field for f64 {
    fn put(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_bits().to_le_bytes());
    }

    fn get(input: &mut &[u8]) -> Result<Self, ()> {
        let bytes = take(input, 8)?.try_into().expect("8 bytes");
        Ok(f64::from_bits(u64::from_le_bytes(bytes)))
    }
}

impl Field for bool {
    fn put(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }

    fn get(input: &mut &[u8]) -> Result<Self, ()> {
        match byte(input)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(()),
        }
    }
}

/// Varint byte length, then UTF-8.
impl Field for String {
    fn put(&self, buf: &mut Vec<u8>) {
        (self.len() as u64).put(buf);
        buf.extend_from_slice(self.as_bytes());
    }

    fn get(input: &mut &[u8]) -> Result<Self, ()> {
        let len = usize::try_from(u64::get(input)?).map_err(|_| ())?;
        String::from_utf8(take(input, len)?.to_vec()).map_err(|_| ())
    }
}

impl Field for QueueId {
    fn put(&self, buf: &mut Vec<u8>) {
        match self {
            QueueId::Central => buf.push(0),
            QueueId::Worker(w) => {
                buf.push(1);
                w.put(buf);
            }
            QueueId::Limbo => buf.push(2),
        }
    }

    fn get(input: &mut &[u8]) -> Result<Self, ()> {
        match byte(input)? {
            0 => Ok(QueueId::Central),
            1 => Ok(QueueId::Worker(u32::get(input)?)),
            2 => Ok(QueueId::Limbo),
            _ => Err(()),
        }
    }
}

impl Field for Action {
    fn put(&self, buf: &mut Vec<u8>) {
        match self {
            Action::Serve { model, batch } => {
                buf.push(0);
                model.put(buf);
                batch.put(buf);
            }
            Action::Drop { count } => {
                buf.push(1);
                count.put(buf);
            }
            Action::Idle => buf.push(2),
        }
    }

    fn get(input: &mut &[u8]) -> Result<Self, ()> {
        match byte(input)? {
            0 => Ok(Action::Serve {
                model: u32::get(input)?,
                batch: u32::get(input)?,
            }),
            1 => Ok(Action::Drop {
                count: u32::get(input)?,
            }),
            2 => Ok(Action::Idle),
            _ => Err(()),
        }
    }
}

impl Field for ShedCause {
    fn put(&self, buf: &mut Vec<u8>) {
        buf.push(match self {
            ShedCause::Hopeless => 0,
            ShedCause::QueueDepth => 1,
            ShedCause::Policy => 2,
            ShedCause::RetryExhausted => 3,
        });
    }

    fn get(input: &mut &[u8]) -> Result<Self, ()> {
        match byte(input)? {
            0 => Ok(ShedCause::Hopeless),
            1 => Ok(ShedCause::QueueDepth),
            2 => Ok(ShedCause::Policy),
            3 => Ok(ShedCause::RetryExhausted),
            _ => Err(()),
        }
    }
}

// ---------------------------------------------------------------------
// The layout table
// ---------------------------------------------------------------------

/// Generates the record codec from one row per kind: `tag Kind { fields
/// in payload order }`. The struct patterns and literals have no `..`,
/// so a kind or field left out does not compile, and the tags must count
/// up from 0 in row order, so a repeated or skipped tag does not compile
/// either.
macro_rules! layout {
    ($($tag:literal $kind:ident { $($field:ident),* })*) => {
        /// The highest kind tag this build knows; a record tagged above
        /// it is a newer writer's, skipped and counted rather than
        /// rejected.
        pub(crate) const MAX_KIND: u8 = {
            let tags = [$($tag),*];
            let mut i = 0;
            while i < tags.len() {
                assert!(tags[i] as usize == i, "kind tags count up from 0");
                i += 1;
            }
            tags[tags.len() - 1]
        };

        /// Appends `event`'s payload to `buf` and returns its kind tag.
        fn encode_payload(buf: &mut Vec<u8>, event: &Event) -> u8 {
            match event {
                $(Event::$kind { $($field),* } => {
                    $($field.put(buf);)*
                    $tag
                })*
            }
        }

        /// Decodes one payload of kind `kind`. Struct literal fields are
        /// evaluated in the order written, which is the payload order.
        pub(crate) fn decode_payload(kind: u8, mut input: &[u8]) -> Result<Event, ()> {
            let event = match kind {
                $($tag => Event::$kind { $($field: Field::get(&mut input)?),* },)*
                _ => return Err(()),
            };
            if input.is_empty() {
                Ok(event)
            } else {
                Err(()) // trailing payload bytes: not a record this build wrote
            }
        }
    };
}

layout! {
    0 Arrival { at, query, deadline }
    1 Enqueue { at, query, queue, depth }
    2 Dispatch { at, worker, model, batch, depth }
    3 Complete { at, query, worker, model, response_ns, violated }
    4 Shed { at, query, cause }
    5 Drop { at, query }
    6 CrashRequeue { at, query, from }
    7 PolicyDecision { at, worker, queued, slack_ns, action }
    8 RegimeSwap { at, from, to, detection_delay_ns }
    9 LazySolve { at, regime }
    10 FallbackEngaged { at, worker }
    11 Timeout { at, query, worker, attempt }
    12 Retry { at, query, attempt, delay_ns }
    13 HedgeIssued { at, primary, hedge, model, batch }
    14 HedgeCancelled { at, worker, winner }
    15 Admission { at, query, queue, depth, sojourn_ns }
    16 ScaleUp { at, worker, live }
    17 ScaleDown { at, worker, live, handoffs }
    18 WorkerWarm { at, worker, live }
    19 DrainComplete { at, worker }
    20 BrownoutEnter { at, rung, load_qps, capacity_qps }
    21 BrownoutExit { at, rung, load_qps, capacity_qps }
    22 ProbeSent { at, worker }
    23 ProbeFailed { at, worker }
    24 Suspect { at, worker, genuine, lag_ns }
    25 Reinstate { at, worker, suspected_ns }
    26 BreakerOpen { at, worker }
    27 BreakerHalfOpen { at, worker }
    28 BreakerClose { at, worker }
}

/// Appends one whole record (kind, length, payload) to `buf`.
fn encode_record(buf: &mut Vec<u8>, scratch: &mut Vec<u8>, event: &Event) {
    scratch.clear();
    let kind = encode_payload(scratch, event);
    buf.push(kind);
    (scratch.len() as u64).put(buf);
    buf.extend_from_slice(scratch);
}

/// Serializes the binary file header.
fn encode_header(sampling: Option<(f64, u64)>) -> Vec<u8> {
    let mut buf = Vec::with_capacity(24);
    buf.extend_from_slice(&BIN_MAGIC);
    buf.extend_from_slice(&BIN_SCHEMA_VERSION.to_le_bytes());
    match sampling {
        None => buf.push(0),
        Some((rate, seed)) => {
            buf.push(FLAG_SAMPLED);
            buf.extend_from_slice(&rate.to_bits().to_le_bytes());
            buf.extend_from_slice(&seed.to_le_bytes());
        }
    }
    buf
}

// ---------------------------------------------------------------------
// The sink
// ---------------------------------------------------------------------

/// A sink writing the compact binary record stream to any writer.
///
/// Shares [`crate::JsonlSink`]'s writer and contract: deterministic
/// bytes for a seeded run, I/O errors latched and surfaced by
/// [`BinSink::finish`] rather than panicking mid-run. Every constructor
/// writes the file header first, so any stream a `BinSink` produces is
/// auto-detectable by [`is_binary_stream`].
#[derive(Debug)]
pub struct BinSink<W: Write> {
    out: Latched<W>,
    /// Reused per-record encode buffer (kind + length + payload), so
    /// steady-state recording allocates nothing.
    buf: Vec<u8>,
    scratch: Vec<u8>,
}

impl BinSink<BufWriter<File>> {
    /// Opens (truncating) `path` for buffered binary output and writes
    /// the unsampled file header.
    ///
    /// # Errors
    ///
    /// Propagates the underlying file-creation error.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        Ok(Self::new(BufWriter::new(File::create(path)?)))
    }

    /// Like [`BinSink::create`], stamping the header with the sampling
    /// rate and seed of the [`crate::SamplingSink`] wrapping this sink.
    ///
    /// # Errors
    ///
    /// Propagates the underlying file-creation error.
    pub fn create_sampled<P: AsRef<Path>>(path: P, rate: f64, seed: u64) -> io::Result<Self> {
        Ok(Self::with_sampling(
            BufWriter::new(File::create(path)?),
            rate,
            seed,
        ))
    }
}

impl<W: Write> BinSink<W> {
    /// Wraps a writer and writes the unsampled header.
    pub fn new(out: W) -> Self {
        Self::with_header(out, None)
    }

    /// Wraps a writer and writes a header carrying sampling metadata.
    pub fn with_sampling(out: W, rate: f64, seed: u64) -> Self {
        Self::with_header(out, Some((rate, seed)))
    }

    fn with_header(out: W, sampling: Option<(f64, u64)>) -> Self {
        let mut out = Latched::new(out);
        out.write(&encode_header(sampling));
        Self {
            out,
            buf: Vec::with_capacity(64),
            scratch: Vec::with_capacity(64),
        }
    }

    /// Records successfully written so far (the header not counted).
    pub fn records(&self) -> u64 {
        self.out.records()
    }

    /// True once any write or flush has failed; further records are
    /// dropped.
    pub fn write_failed(&self) -> bool {
        self.out.write_failed()
    }

    /// Takes the latched I/O error, if any; the sink stays failed.
    pub fn take_error(&mut self) -> Option<io::Error> {
        self.out.take_error()
    }

    /// Flushes and returns the writer, or the first latched I/O error.
    ///
    /// # Errors
    ///
    /// Returns the first write or flush error encountered.
    pub fn finish(self) -> io::Result<W> {
        self.out.finish()
    }
}

impl<W: Write> LogFile for BinSink<W> {
    fn records(&self) -> u64 {
        self.out.records()
    }

    fn close(self) -> io::Result<u64> {
        self.out.close()
    }
}

impl<W: Write> TelemetrySink for BinSink<W> {
    fn record(&mut self, event: &Event) {
        if self.out.write_failed() {
            return;
        }
        self.buf.clear();
        encode_record(&mut self.buf, &mut self.scratch, event);
        self.out.record(&self.buf);
    }

    fn flush(&mut self) {
        self.out.flush();
    }
}

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

/// Parses a binary telemetry stream tolerantly — the binary mirror of
/// [`crate::parse_jsonl_tolerant`], and the streaming
/// [`crate::EventReader`] collected.
///
/// Whole known records parse into events; unknown kind tags (a stream
/// from a newer engine) are skipped whole and counted, with the first
/// few described in [`ParsedLog::unknown_samples`]; a record cut short
/// by a mid-write kill is reported as the torn tail with the byte
/// offset that heals it. Sampling metadata in the header surfaces as
/// [`ParsedLog::sample_rate`] / [`ParsedLog::sample_seed`].
///
/// # Errors
///
/// Returns a message when the stream does not start with the `RMTB`
/// magic, or a *complete* record's payload is malformed — corruption in
/// the middle of a stream is real damage, never silently skipped.
pub fn parse_bin_tolerant(bytes: &[u8]) -> Result<ParsedLog, String> {
    EventReader::open(bytes, Format::Binary)
        .and_then(EventReader::collect_log)
        .map_err(|e| e.to_string())
}

/// Parses a trace in either encoding: binary streams are recognized by
/// the `RMTB` magic, anything else is treated as (possibly headerless
/// v0) JSONL. Tooling that accepts "a trace file" goes through here so
/// `.bin` and `.jsonl` are interchangeable everywhere.
pub fn parse_tolerant(bytes: &[u8]) -> Result<ParsedLog, String> {
    EventReader::new(bytes)
        .and_then(EventReader::collect_log)
        .map_err(|e| match e {
            ReadError::NotUtf8 { .. } => {
                format!("trace is neither RMTB binary nor UTF-8 JSONL: {e}")
            }
            e => e.to_string(),
        })
}

// ---------------------------------------------------------------------
// Lossless converters
// ---------------------------------------------------------------------

/// Serializes events (plus optional sampling metadata) as a complete
/// binary stream — header and all. The exact bytes a [`BinSink`] fed
/// the same events would write.
pub fn write_bin(events: &[Event], sampling: Option<(f64, u64)>) -> Vec<u8> {
    let mut buf = encode_header(sampling);
    let mut scratch = Vec::with_capacity(64);
    for e in events {
        encode_record(&mut buf, &mut scratch, e);
    }
    buf
}

/// Serializes events (plus optional sampling metadata) as a complete
/// v1 JSONL stream — schema header and all. The exact bytes a
/// [`crate::JsonlSink`] opened with `create`/`create_sampled` and fed
/// the same events would write.
pub fn write_jsonl(events: &[Event], sampling: Option<(f64, u64)>) -> String {
    let mut out = String::new();
    out.push_str(
        &serde_json::to_string(&StreamHeader::schema::<Event>()).expect("header serializes"),
    );
    out.push('\n');
    if let Some((rate, seed)) = sampling {
        out.push_str(
            &serde_json::to_string(&StreamHeader::Sampling { rate, seed })
                .expect("header serializes"),
        );
        out.push('\n');
    }
    for e in events {
        out.push_str(&serde_json::to_string(e).expect("events always serialize"));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::every_variant;
    use crate::sink::{parse_jsonl_tolerant, UNKNOWN_SAMPLE_CAP};

    #[test]
    fn binary_round_trips_every_variant() {
        let events = every_variant();
        let bytes = write_bin(&events, None);
        assert!(is_binary_stream(&bytes));
        let parsed = parse_bin_tolerant(&bytes).unwrap();
        assert_eq!(parsed.events, events);
        assert_eq!(parsed.torn_tail, None);
        assert_eq!(parsed.unknown_events, 0);
        assert_eq!(parsed.schema_version, Some(BIN_SCHEMA_VERSION));
        assert_eq!(parsed.sample_rate, None);
        // Determinism: encoding twice gives identical bytes.
        assert_eq!(bytes, write_bin(&events, None));
    }

    #[test]
    fn bin_sink_matches_write_bin_and_counts_records() {
        let events = every_variant();
        let mut sink = BinSink::new(Vec::new());
        for e in &events {
            sink.record(e);
        }
        assert_eq!(sink.records(), events.len() as u64);
        let bytes = sink.finish().unwrap();
        assert_eq!(bytes, write_bin(&events, None));
    }

    #[test]
    fn sampling_metadata_survives_the_header() {
        let events = every_variant();
        let bytes = write_bin(&events, Some((0.01, 0xFEED)));
        let parsed = parse_bin_tolerant(&bytes).unwrap();
        assert_eq!(parsed.sample_rate, Some(0.01));
        assert_eq!(parsed.sample_seed, Some(0xFEED));
        assert_eq!(parsed.events, events);
        let mut sink = BinSink::with_sampling(Vec::new(), 0.01, 0xFEED);
        for e in &events {
            sink.record(e);
        }
        assert_eq!(sink.finish().unwrap(), bytes);
    }

    #[test]
    fn torn_tail_is_healed_at_the_reported_offset() {
        let events = every_variant();
        let full = write_bin(&events, None);
        // Cut inside the last record's payload.
        for cut in [full.len() - 1, full.len() - 3] {
            let torn = &full[..cut];
            let parsed = parse_bin_tolerant(torn).unwrap();
            assert_eq!(parsed.events, events[..events.len() - 1], "cut at {cut}");
            let at = parsed.torn_tail_offset.expect("offset reported");
            assert!(parsed.torn_tail.is_some());
            // Truncating at the offset leaves exactly the whole-record
            // prefix: re-parsing it is clean.
            let healed = parse_bin_tolerant(&torn[..at]).unwrap();
            assert_eq!(healed.events, events[..events.len() - 1]);
            assert_eq!(healed.torn_tail, None);
        }
        // A stream cut inside the header is an error, not a torn tail.
        assert!(parse_bin_tolerant(&full[..6]).is_err());
        // A cut right after a whole record is clean.
        let parsed = parse_bin_tolerant(&full).unwrap();
        assert_eq!(parsed.torn_tail, None);
    }

    #[test]
    fn unknown_kinds_are_skipped_counted_and_sampled() {
        let events = vec![every_variant()[0].clone()];
        let mut bytes = write_bin(&events, None);
        // Append 7 records of kinds a newer writer might use (3-byte
        // payloads), the first right above this build's highest tag,
        // then one more known record.
        for tag in [MAX_KIND + 1, 77, 77, 77, 77, 77, u8::MAX] {
            bytes.push(tag);
            bytes.push(3);
            bytes.extend_from_slice(&[1, 2, 3]);
        }
        let mut scratch = Vec::new();
        encode_record(&mut bytes, &mut scratch, &events[0]);
        let parsed = parse_bin_tolerant(&bytes).unwrap();
        assert_eq!(parsed.unknown_events, 7);
        assert_eq!(
            parsed.unknown_samples.len(),
            UNKNOWN_SAMPLE_CAP.min(7),
            "samples are capped"
        );
        let first = format!("kind {}", MAX_KIND + 1);
        assert!(parsed.unknown_samples[0].contains(&first));
        assert_eq!(parsed.events, [&events[..], &events[..]].concat());
    }

    /// 64-bit FNV-1a.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// The byte format across versions: every other codec test is a
    /// round trip through one build, which an encoder and decoder that
    /// drift together would pass. Recorded once; never edit them.
    #[test]
    fn binary_bytes_match_pinned_digests() {
        let events = every_variant();
        assert_eq!(fnv1a(&write_bin(&events, None)), PINNED_PLAIN);
        assert_eq!(fnv1a(&write_bin(&events, Some((0.25, 9)))), PINNED_SAMPLED);
    }

    const PINNED_PLAIN: u64 = 0x41de_9263_7bf0_0866;
    const PINNED_SAMPLED: u64 = 0xf006_e2df_fd31_ff8b;

    #[test]
    fn complete_but_malformed_record_is_corruption_not_tolerated() {
        // (case, kind, a well-formed payload, the same with one defect)
        let cases: &[(&str, u8, &[u8], &[u8])] = &[
            ("truncated payload", 3, &[0, 0, 0, 0, 0, 0], &[0xff, 0xff]),
            ("trailing payload bytes", 5, &[1, 2], &[1, 2, 0]),
            (
                "overlong varint",
                5,
                &[
                    0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 0,
                ],
                &[
                    0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 0,
                ],
            ),
            (
                "varint above u64::MAX",
                5,
                &[
                    0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 0,
                ],
                &[
                    0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02, 0,
                ],
            ),
            (
                "u32 field above u32::MAX",
                2,
                &[0, 0xff, 0xff, 0xff, 0xff, 0x0f, 0, 0, 0],
                &[0, 0x80, 0x80, 0x80, 0x80, 0x10, 0, 0, 0],
            ),
            ("bool byte 2", 3, &[0, 0, 0, 0, 0, 1], &[0, 0, 0, 0, 0, 2]),
            ("QueueId tag 3", 1, &[0, 0, 2, 0], &[0, 0, 3, 0]),
            ("Action tag 3", 7, &[0, 0, 0, 0, 2], &[0, 0, 0, 0, 3]),
            ("ShedCause tag 4", 4, &[0, 0, 3], &[0, 0, 4]),
            ("string not UTF-8", 9, &[0, 1, b'a'], &[0, 1, 0xff]),
        ];
        let events = vec![every_variant()[0].clone()];
        let mut scratch = Vec::new();
        let mut rec = Vec::new();
        encode_record(&mut rec, &mut scratch, &events[0]);
        // The record under test sits between two valid ones, so it is
        // complete and never the tail.
        let stream = |kind: u8, payload: &[u8]| {
            let mut bytes = write_bin(&events, None);
            bytes.push(kind);
            bytes.push(u8::try_from(payload.len()).unwrap());
            bytes.extend_from_slice(payload);
            bytes.extend_from_slice(&rec);
            bytes
        };
        for &(case, kind, good, bad) in cases {
            let parsed = parse_bin_tolerant(&stream(kind, good))
                .unwrap_or_else(|e| panic!("{case}: the well-formed twin fails: {e}"));
            assert_eq!(parsed.events.len(), 3, "{case}");
            let err = parse_bin_tolerant(&stream(kind, bad)).unwrap_err();
            assert!(err.contains("malformed payload"), "{case}: {err}");
        }
    }

    #[test]
    fn jsonl_and_binary_converters_are_lossless() {
        let events = every_variant();
        // JSONL -> binary -> JSONL is byte-identical.
        let jsonl = write_jsonl(&events, None);
        let parsed = parse_jsonl_tolerant(&jsonl).unwrap();
        let bin = write_bin(&parsed.events, None);
        let back = parse_bin_tolerant(&bin).unwrap();
        assert_eq!(write_jsonl(&back.events, None), jsonl);
        // Binary -> JSONL -> binary is byte-identical, sampling
        // metadata included.
        let bin = write_bin(&events, Some((0.1, 7)));
        let parsed = parse_bin_tolerant(&bin).unwrap();
        let sampling = parsed.sample_rate.map(|r| (r, parsed.sample_seed.unwrap()));
        let jsonl = write_jsonl(&parsed.events, sampling);
        let reparsed = parse_jsonl_tolerant(&jsonl).unwrap();
        assert_eq!(reparsed.sample_rate, Some(0.1));
        assert_eq!(reparsed.sample_seed, Some(7));
        let sampling = reparsed
            .sample_rate
            .map(|r| (r, reparsed.sample_seed.unwrap()));
        assert_eq!(write_bin(&reparsed.events, sampling), bin);
    }

    #[test]
    fn binary_is_substantially_smaller_than_jsonl() {
        let events = every_variant();
        let jsonl = write_jsonl(&events, None);
        let bin = write_bin(&events, None);
        assert!(
            bin.len() * 3 < jsonl.len(),
            "binary {} bytes vs JSONL {} bytes",
            bin.len(),
            jsonl.len()
        );
    }

    #[test]
    fn zigzag_and_varint_edge_values_round_trip() {
        fn round_trip<T: Field + PartialEq + std::fmt::Debug>(v: T) {
            let mut buf = Vec::new();
            v.put(&mut buf);
            let mut input = &buf[..];
            assert_eq!(T::get(&mut input).unwrap(), v);
            assert!(input.is_empty(), "{v:?} left bytes unread");
        }
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -123_456_789] {
            round_trip(v);
        }
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX] {
            round_trip(v);
        }
    }
}
