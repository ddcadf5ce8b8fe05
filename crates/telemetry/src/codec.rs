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

/// The highest kind tag this build knows; a record tagged above it is a
/// newer writer's, skipped and counted rather than rejected.
pub(crate) const MAX_KIND: u8 = 28;

/// True when `bytes` starts with the binary stream magic — the format
/// auto-detection used by `ramsis-cli` for `--telemetry` paths and
/// `telemetry convert` inputs.
pub fn is_binary_stream(bytes: &[u8]) -> bool {
    bytes.len() >= BIN_MAGIC.len() && bytes[..BIN_MAGIC.len()] == BIN_MAGIC
}

// ---------------------------------------------------------------------
// Primitive encoders
// ---------------------------------------------------------------------

fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

fn put_zigzag(buf: &mut Vec<u8>, v: i64) {
    put_varint(buf, ((v << 1) ^ (v >> 63)) as u64);
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_bool(buf: &mut Vec<u8>, v: bool) {
    buf.push(u8::from(v));
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

fn put_queue(buf: &mut Vec<u8>, q: QueueId) {
    match q {
        QueueId::Central => buf.push(0),
        QueueId::Worker(w) => {
            buf.push(1);
            put_varint(buf, u64::from(w));
        }
        QueueId::Limbo => buf.push(2),
    }
}

fn put_action(buf: &mut Vec<u8>, a: Action) {
    match a {
        Action::Serve { model, batch } => {
            buf.push(0);
            put_varint(buf, u64::from(model));
            put_varint(buf, u64::from(batch));
        }
        Action::Drop { count } => {
            buf.push(1);
            put_varint(buf, u64::from(count));
        }
        Action::Idle => buf.push(2),
    }
}

// ---------------------------------------------------------------------
// Primitive decoders (byte-slice cursor; Err(()) = malformed payload)
// ---------------------------------------------------------------------

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn byte(&mut self) -> Result<u8, ()> {
        let b = *self.buf.get(self.pos).ok_or(())?;
        self.pos += 1;
        Ok(b)
    }

    fn varint(&mut self) -> Result<u64, ()> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let b = self.byte()?;
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

    fn u32(&mut self) -> Result<u32, ()> {
        u32::try_from(self.varint()?).map_err(|_| ())
    }

    fn zigzag(&mut self) -> Result<i64, ()> {
        let v = self.varint()?;
        Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
    }

    fn f64(&mut self) -> Result<f64, ()> {
        let end = self.pos.checked_add(8).ok_or(())?;
        let bytes: [u8; 8] = self.buf.get(self.pos..end).ok_or(())?.try_into().unwrap();
        self.pos = end;
        Ok(f64::from_bits(u64::from_le_bytes(bytes)))
    }

    fn bool(&mut self) -> Result<bool, ()> {
        match self.byte()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(()),
        }
    }

    fn string(&mut self) -> Result<String, ()> {
        let len = usize::try_from(self.varint()?).map_err(|_| ())?;
        let end = self.pos.checked_add(len).ok_or(())?;
        let bytes = self.buf.get(self.pos..end).ok_or(())?;
        self.pos = end;
        String::from_utf8(bytes.to_vec()).map_err(|_| ())
    }

    fn queue(&mut self) -> Result<QueueId, ()> {
        match self.byte()? {
            0 => Ok(QueueId::Central),
            1 => Ok(QueueId::Worker(self.u32()?)),
            2 => Ok(QueueId::Limbo),
            _ => Err(()),
        }
    }

    fn action(&mut self) -> Result<Action, ()> {
        match self.byte()? {
            0 => Ok(Action::Serve {
                model: self.u32()?,
                batch: self.u32()?,
            }),
            1 => Ok(Action::Drop { count: self.u32()? }),
            2 => Ok(Action::Idle),
            _ => Err(()),
        }
    }
}

// ---------------------------------------------------------------------
// Event (de)serialization
// ---------------------------------------------------------------------

/// Kind tags follow [`Event`]'s declaration order; new variants append.
fn kind_of(event: &Event) -> u8 {
    match event {
        Event::Arrival { .. } => 0,
        Event::Enqueue { .. } => 1,
        Event::Dispatch { .. } => 2,
        Event::Complete { .. } => 3,
        Event::Shed { .. } => 4,
        Event::Drop { .. } => 5,
        Event::CrashRequeue { .. } => 6,
        Event::PolicyDecision { .. } => 7,
        Event::RegimeSwap { .. } => 8,
        Event::LazySolve { .. } => 9,
        Event::FallbackEngaged { .. } => 10,
        Event::Timeout { .. } => 11,
        Event::Retry { .. } => 12,
        Event::HedgeIssued { .. } => 13,
        Event::HedgeCancelled { .. } => 14,
        Event::Admission { .. } => 15,
        Event::ScaleUp { .. } => 16,
        Event::ScaleDown { .. } => 17,
        Event::WorkerWarm { .. } => 18,
        Event::DrainComplete { .. } => 19,
        Event::BrownoutEnter { .. } => 20,
        Event::BrownoutExit { .. } => 21,
        Event::ProbeSent { .. } => 22,
        Event::ProbeFailed { .. } => 23,
        Event::Suspect { .. } => 24,
        Event::Reinstate { .. } => 25,
        Event::BreakerOpen { .. } => 26,
        Event::BreakerHalfOpen { .. } => 27,
        Event::BreakerClose { .. } => 28,
    }
}

fn encode_payload(buf: &mut Vec<u8>, event: &Event) {
    match *event {
        Event::Arrival {
            at,
            query,
            deadline,
        } => {
            put_varint(buf, at);
            put_varint(buf, query);
            put_varint(buf, deadline);
        }
        Event::Enqueue {
            at,
            query,
            queue,
            depth,
        } => {
            put_varint(buf, at);
            put_varint(buf, query);
            put_queue(buf, queue);
            put_varint(buf, u64::from(depth));
        }
        Event::Dispatch {
            at,
            worker,
            model,
            batch,
            depth,
        } => {
            put_varint(buf, at);
            put_varint(buf, u64::from(worker));
            put_varint(buf, u64::from(model));
            put_varint(buf, u64::from(batch));
            put_varint(buf, u64::from(depth));
        }
        Event::Complete {
            at,
            query,
            worker,
            model,
            response_ns,
            violated,
        } => {
            put_varint(buf, at);
            put_varint(buf, query);
            put_varint(buf, u64::from(worker));
            put_varint(buf, u64::from(model));
            put_varint(buf, response_ns);
            put_bool(buf, violated);
        }
        Event::Shed { at, query, cause } => {
            put_varint(buf, at);
            put_varint(buf, query);
            buf.push(match cause {
                ShedCause::Hopeless => 0,
                ShedCause::QueueDepth => 1,
                ShedCause::Policy => 2,
                ShedCause::RetryExhausted => 3,
            });
        }
        Event::Drop { at, query } => {
            put_varint(buf, at);
            put_varint(buf, query);
        }
        Event::CrashRequeue { at, query, from } => {
            put_varint(buf, at);
            put_varint(buf, query);
            put_varint(buf, u64::from(from));
        }
        Event::PolicyDecision {
            at,
            worker,
            queued,
            slack_ns,
            action,
        } => {
            put_varint(buf, at);
            put_varint(buf, u64::from(worker));
            put_varint(buf, u64::from(queued));
            put_zigzag(buf, slack_ns);
            put_action(buf, action);
        }
        Event::RegimeSwap {
            at,
            ref from,
            ref to,
            detection_delay_ns,
        } => {
            put_varint(buf, at);
            put_str(buf, from);
            put_str(buf, to);
            put_varint(buf, detection_delay_ns);
        }
        Event::LazySolve { at, ref regime } => {
            put_varint(buf, at);
            put_str(buf, regime);
        }
        Event::FallbackEngaged { at, worker }
        | Event::DrainComplete { at, worker }
        | Event::ProbeSent { at, worker }
        | Event::ProbeFailed { at, worker }
        | Event::BreakerOpen { at, worker }
        | Event::BreakerHalfOpen { at, worker }
        | Event::BreakerClose { at, worker } => {
            put_varint(buf, at);
            put_varint(buf, u64::from(worker));
        }
        Event::Timeout {
            at,
            query,
            worker,
            attempt,
        } => {
            put_varint(buf, at);
            put_varint(buf, query);
            put_varint(buf, u64::from(worker));
            put_varint(buf, u64::from(attempt));
        }
        Event::Retry {
            at,
            query,
            attempt,
            delay_ns,
        } => {
            put_varint(buf, at);
            put_varint(buf, query);
            put_varint(buf, u64::from(attempt));
            put_varint(buf, delay_ns);
        }
        Event::HedgeIssued {
            at,
            primary,
            hedge,
            model,
            batch,
        } => {
            put_varint(buf, at);
            put_varint(buf, u64::from(primary));
            put_varint(buf, u64::from(hedge));
            put_varint(buf, u64::from(model));
            put_varint(buf, u64::from(batch));
        }
        Event::HedgeCancelled { at, worker, winner } => {
            put_varint(buf, at);
            put_varint(buf, u64::from(worker));
            put_varint(buf, u64::from(winner));
        }
        Event::Admission {
            at,
            query,
            queue,
            depth,
            sojourn_ns,
        } => {
            put_varint(buf, at);
            put_varint(buf, query);
            put_queue(buf, queue);
            put_varint(buf, u64::from(depth));
            put_varint(buf, sojourn_ns);
        }
        Event::ScaleUp { at, worker, live } | Event::WorkerWarm { at, worker, live } => {
            put_varint(buf, at);
            put_varint(buf, u64::from(worker));
            put_varint(buf, u64::from(live));
        }
        Event::ScaleDown {
            at,
            worker,
            live,
            handoffs,
        } => {
            put_varint(buf, at);
            put_varint(buf, u64::from(worker));
            put_varint(buf, u64::from(live));
            put_varint(buf, u64::from(handoffs));
        }
        Event::BrownoutEnter {
            at,
            rung,
            load_qps,
            capacity_qps,
        }
        | Event::BrownoutExit {
            at,
            rung,
            load_qps,
            capacity_qps,
        } => {
            put_varint(buf, at);
            put_varint(buf, u64::from(rung));
            put_f64(buf, load_qps);
            put_f64(buf, capacity_qps);
        }
        Event::Suspect {
            at,
            worker,
            genuine,
            lag_ns,
        } => {
            put_varint(buf, at);
            put_varint(buf, u64::from(worker));
            put_bool(buf, genuine);
            put_varint(buf, lag_ns);
        }
        Event::Reinstate {
            at,
            worker,
            suspected_ns,
        } => {
            put_varint(buf, at);
            put_varint(buf, u64::from(worker));
            put_varint(buf, suspected_ns);
        }
    }
}

pub(crate) fn decode_payload(kind: u8, payload: &[u8]) -> Result<Event, ()> {
    let mut c = Cursor::new(payload);
    let event = match kind {
        0 => Event::Arrival {
            at: c.varint()?,
            query: c.varint()?,
            deadline: c.varint()?,
        },
        1 => Event::Enqueue {
            at: c.varint()?,
            query: c.varint()?,
            queue: c.queue()?,
            depth: c.u32()?,
        },
        2 => Event::Dispatch {
            at: c.varint()?,
            worker: c.u32()?,
            model: c.u32()?,
            batch: c.u32()?,
            depth: c.u32()?,
        },
        3 => Event::Complete {
            at: c.varint()?,
            query: c.varint()?,
            worker: c.u32()?,
            model: c.u32()?,
            response_ns: c.varint()?,
            violated: c.bool()?,
        },
        4 => Event::Shed {
            at: c.varint()?,
            query: c.varint()?,
            cause: match c.byte()? {
                0 => ShedCause::Hopeless,
                1 => ShedCause::QueueDepth,
                2 => ShedCause::Policy,
                3 => ShedCause::RetryExhausted,
                _ => return Err(()),
            },
        },
        5 => Event::Drop {
            at: c.varint()?,
            query: c.varint()?,
        },
        6 => Event::CrashRequeue {
            at: c.varint()?,
            query: c.varint()?,
            from: c.u32()?,
        },
        7 => Event::PolicyDecision {
            at: c.varint()?,
            worker: c.u32()?,
            queued: c.u32()?,
            slack_ns: c.zigzag()?,
            action: c.action()?,
        },
        8 => Event::RegimeSwap {
            at: c.varint()?,
            from: c.string()?,
            to: c.string()?,
            detection_delay_ns: c.varint()?,
        },
        9 => Event::LazySolve {
            at: c.varint()?,
            regime: c.string()?,
        },
        10 => Event::FallbackEngaged {
            at: c.varint()?,
            worker: c.u32()?,
        },
        11 => Event::Timeout {
            at: c.varint()?,
            query: c.varint()?,
            worker: c.u32()?,
            attempt: c.u32()?,
        },
        12 => Event::Retry {
            at: c.varint()?,
            query: c.varint()?,
            attempt: c.u32()?,
            delay_ns: c.varint()?,
        },
        13 => Event::HedgeIssued {
            at: c.varint()?,
            primary: c.u32()?,
            hedge: c.u32()?,
            model: c.u32()?,
            batch: c.u32()?,
        },
        14 => Event::HedgeCancelled {
            at: c.varint()?,
            worker: c.u32()?,
            winner: c.u32()?,
        },
        15 => Event::Admission {
            at: c.varint()?,
            query: c.varint()?,
            queue: c.queue()?,
            depth: c.u32()?,
            sojourn_ns: c.varint()?,
        },
        16 => Event::ScaleUp {
            at: c.varint()?,
            worker: c.u32()?,
            live: c.u32()?,
        },
        17 => Event::ScaleDown {
            at: c.varint()?,
            worker: c.u32()?,
            live: c.u32()?,
            handoffs: c.u32()?,
        },
        18 => Event::WorkerWarm {
            at: c.varint()?,
            worker: c.u32()?,
            live: c.u32()?,
        },
        19 => Event::DrainComplete {
            at: c.varint()?,
            worker: c.u32()?,
        },
        20 => Event::BrownoutEnter {
            at: c.varint()?,
            rung: c.u32()?,
            load_qps: c.f64()?,
            capacity_qps: c.f64()?,
        },
        21 => Event::BrownoutExit {
            at: c.varint()?,
            rung: c.u32()?,
            load_qps: c.f64()?,
            capacity_qps: c.f64()?,
        },
        22 => Event::ProbeSent {
            at: c.varint()?,
            worker: c.u32()?,
        },
        23 => Event::ProbeFailed {
            at: c.varint()?,
            worker: c.u32()?,
        },
        24 => Event::Suspect {
            at: c.varint()?,
            worker: c.u32()?,
            genuine: c.bool()?,
            lag_ns: c.varint()?,
        },
        25 => Event::Reinstate {
            at: c.varint()?,
            worker: c.u32()?,
            suspected_ns: c.varint()?,
        },
        26 => Event::BreakerOpen {
            at: c.varint()?,
            worker: c.u32()?,
        },
        27 => Event::BreakerHalfOpen {
            at: c.varint()?,
            worker: c.u32()?,
        },
        28 => Event::BreakerClose {
            at: c.varint()?,
            worker: c.u32()?,
        },
        _ => return Err(()),
    };
    if c.done() {
        Ok(event)
    } else {
        Err(()) // trailing payload bytes: not a record this build wrote
    }
}

/// Appends one whole record (kind, length, payload) to `buf`.
fn encode_record(buf: &mut Vec<u8>, scratch: &mut Vec<u8>, event: &Event) {
    scratch.clear();
    encode_payload(scratch, event);
    buf.push(kind_of(event));
    put_varint(buf, scratch.len() as u64);
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
    use crate::sink::{parse_jsonl_tolerant, UNKNOWN_SAMPLE_CAP};

    /// One of every variant — the same exhaustive list the event-model
    /// serde test pins, so a codec gap on any variant fails here.
    fn every_variant() -> Vec<Event> {
        vec![
            Event::Arrival {
                at: 1,
                query: 0,
                deadline: 150_000_001,
            },
            Event::Enqueue {
                at: 1,
                query: 0,
                queue: QueueId::Worker(3),
                depth: 2,
            },
            Event::Enqueue {
                at: 2,
                query: 1,
                queue: QueueId::Central,
                depth: 1,
            },
            Event::Enqueue {
                at: 3,
                query: 2,
                queue: QueueId::Limbo,
                depth: 1,
            },
            Event::Dispatch {
                at: 5,
                worker: 3,
                model: 7,
                batch: 2,
                depth: 2,
            },
            Event::Complete {
                at: 9,
                query: 0,
                worker: 3,
                model: 7,
                response_ns: 8,
                violated: false,
            },
            Event::Shed {
                at: 10,
                query: 4,
                cause: ShedCause::Hopeless,
            },
            Event::Drop { at: 11, query: 5 },
            Event::CrashRequeue {
                at: 12,
                query: 6,
                from: 1,
            },
            Event::PolicyDecision {
                at: 13,
                worker: 0,
                queued: 4,
                slack_ns: -2_000,
                action: Action::Drop { count: 1 },
            },
            Event::PolicyDecision {
                at: 13,
                worker: 1,
                queued: 4,
                slack_ns: i64::MIN,
                action: Action::Serve { model: 2, batch: 8 },
            },
            Event::PolicyDecision {
                at: 13,
                worker: 2,
                queued: 0,
                slack_ns: i64::MAX,
                action: Action::Idle,
            },
            Event::RegimeSwap {
                at: 14,
                from: "le120qps-poisson".into(),
                to: "gt120qps-bursty".into(),
                detection_delay_ns: 2_000_000_000,
            },
            Event::LazySolve {
                at: 15,
                regime: String::new(),
            },
            Event::FallbackEngaged { at: 16, worker: 2 },
            Event::Timeout {
                at: 17,
                query: 7,
                worker: 1,
                attempt: 1,
            },
            Event::Retry {
                at: 17,
                query: 7,
                attempt: 1,
                delay_ns: 5_000_000,
            },
            Event::HedgeIssued {
                at: 18,
                primary: 0,
                hedge: 2,
                model: 3,
                batch: 4,
            },
            Event::HedgeCancelled {
                at: 19,
                worker: 2,
                winner: 0,
            },
            Event::Admission {
                at: 20,
                query: 8,
                queue: QueueId::Worker(1),
                depth: 64,
                sojourn_ns: 30_000_000,
            },
            Event::ScaleUp {
                at: 22,
                worker: 4,
                live: 2,
            },
            Event::ScaleDown {
                at: 23,
                worker: 4,
                live: 1,
                handoffs: 3,
            },
            Event::WorkerWarm {
                at: 24,
                worker: 4,
                live: 3,
            },
            Event::DrainComplete { at: 25, worker: 4 },
            Event::BrownoutEnter {
                at: 26,
                rung: 1,
                load_qps: 420.25,
                capacity_qps: 300.0,
            },
            Event::BrownoutExit {
                at: 27,
                rung: 1,
                load_qps: 0.125,
                capacity_qps: f64::MAX,
            },
            Event::ProbeSent { at: 28, worker: 1 },
            Event::ProbeFailed { at: 29, worker: 1 },
            Event::Suspect {
                at: 30,
                worker: 1,
                genuine: true,
                lag_ns: 40_000_000,
            },
            Event::Reinstate {
                at: 33,
                worker: 2,
                suspected_ns: 2_000_000,
            },
            Event::BreakerOpen { at: 31, worker: 2 },
            Event::BreakerHalfOpen { at: 32, worker: 2 },
            Event::BreakerClose { at: 33, worker: 2 },
            Event::Arrival {
                at: u64::MAX,
                query: u64::MAX,
                deadline: u64::MAX,
            },
        ]
    }

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
        // Append 7 records of a future kind (tag 77, 3-byte payload).
        for _ in 0..7 {
            bytes.push(77);
            bytes.push(3);
            bytes.extend_from_slice(&[1, 2, 3]);
        }
        let good = write_bin(&events, None);
        bytes.extend_from_slice(&good[good.len() - (good.len() - 9).min(good.len())..]);
        // Simpler: append one more known record manually.
        let mut scratch = Vec::new();
        let mut rec = Vec::new();
        encode_record(&mut rec, &mut scratch, &events[0]);
        bytes.extend_from_slice(&rec);
        let parsed = parse_bin_tolerant(&bytes).unwrap();
        assert_eq!(parsed.unknown_events, 7);
        assert_eq!(
            parsed.unknown_samples.len(),
            UNKNOWN_SAMPLE_CAP.min(7),
            "samples are capped"
        );
        assert!(parsed.unknown_samples[0].contains("kind 77"));
        assert!(parsed.events.len() >= 2, "known records still parse");
    }

    #[test]
    fn complete_but_malformed_record_is_corruption_not_tolerated() {
        let events = vec![every_variant()[0].clone()];
        let mut bytes = write_bin(&events, None);
        // A known kind (3 = Complete) with a garbage 2-byte payload,
        // followed by a valid record so it is not the tail.
        bytes.push(3);
        bytes.push(2);
        bytes.extend_from_slice(&[0xff, 0xff]);
        let mut scratch = Vec::new();
        let mut rec = Vec::new();
        encode_record(&mut rec, &mut scratch, &events[0]);
        bytes.extend_from_slice(&rec);
        let err = parse_bin_tolerant(&bytes).unwrap_err();
        assert!(err.contains("malformed payload"), "{err}");
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
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -123_456_789] {
            let mut buf = Vec::new();
            put_zigzag(&mut buf, v);
            assert_eq!(Cursor::new(&buf).zigzag().unwrap(), v);
        }
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert_eq!(Cursor::new(&buf).varint().unwrap(), v);
        }
    }
}
