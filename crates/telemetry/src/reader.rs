//! The streaming read path: one [`EventReader`] over both event codecs
//! and the decision log.
//!
//! A reader pulls records one at a time from any [`Read`], so what an
//! analysis holds is its own fold state, never the file. The stream's
//! header — schema version, sampling rate and seed — is read when the
//! reader is built, before the first record. What the tolerant contract
//! reports about the stream as a whole (a torn tail and the byte offset
//! that heals it, unknown records with capped previews) is known once
//! the last record has been read, from [`EventReader::summary`].
//! Mid-stream corruption ends the stream with an error.
//!
//! The slice parsers ([`crate::parse_tolerant`],
//! [`crate::parse_bin_tolerant`], [`crate::parse_jsonl_tolerant`],
//! [`crate::parse_decisions_tolerant`]) are this reader collected into a
//! [`ParsedLog`], so each codec has exactly one decoder.

use std::fmt;
use std::io::{self, Read};
use std::marker::PhantomData;

use serde::Deserialize;

use crate::codec::{BIN_MAGIC, FLAG_SAMPLED, MAX_KIND};
use crate::event::Event;
use crate::sink::{ParsedLog, Record, StreamHeader, UNKNOWN_SAMPLE_CAP};

/// Why a stream could not be read.
#[derive(Debug)]
pub enum ReadError {
    /// The underlying reader failed.
    Io(io::Error),
    /// A JSONL stream holds bytes that are not UTF-8: `valid_up_to` is
    /// the stream offset of the first bad byte, `error_len` the length
    /// of the bad sequence (`None` when the stream ends inside it).
    NotUtf8 {
        /// Offset of the first byte that is not UTF-8.
        valid_up_to: usize,
        /// Length of the invalid sequence, when it is complete.
        error_len: Option<u8>,
    },
    /// The stream is damaged: a bad binary header, or a record that is
    /// complete but does not decode.
    Malformed(String),
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::Io(e) => write!(f, "{e}"),
            // Worded as `std::str::Utf8Error` words it, with the offset
            // counted from the start of the stream.
            ReadError::NotUtf8 {
                valid_up_to,
                error_len: Some(len),
            } => write!(
                f,
                "invalid utf-8 sequence of {len} bytes from index {valid_up_to}"
            ),
            ReadError::NotUtf8 {
                valid_up_to,
                error_len: None,
            } => write!(f, "incomplete utf-8 byte sequence from index {valid_up_to}"),
            ReadError::Malformed(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for ReadError {}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> Self {
        ReadError::Io(e)
    }
}

/// What the tolerant contract reports about a stream once it has been
/// read to the end.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StreamSummary {
    /// The unparseable final record, verbatim for JSONL, described for
    /// binary (`None` for a clean stream).
    pub torn_tail: Option<String>,
    /// Byte offset of the torn tail: truncating the file there leaves
    /// exactly the whole-record prefix.
    pub torn_tail_offset: Option<usize>,
    /// Records skipped as unknown (a newer writer's kinds, another
    /// stream's header).
    pub unknown_events: u64,
    /// Previews of the first [`UNKNOWN_SAMPLE_CAP`] unknown records.
    pub unknown_samples: Vec<String>,
    /// The schema version from the stream header (`None`: a headerless
    /// v0 JSONL log).
    pub schema_version: Option<u32>,
    /// The sampling rate from the stream header (`None`: complete).
    pub sample_rate: Option<f64>,
    /// The sampling hash seed accompanying the rate.
    pub sample_seed: Option<u64>,
}

impl StreamSummary {
    /// The sampling rate and seed (`None`: a complete stream).
    pub fn sampling(&self) -> Option<(f64, u64)> {
        self.sample_rate.zip(self.sample_seed)
    }

    fn unknown(&mut self, preview: impl FnOnce() -> String) {
        self.unknown_events += 1;
        if self.unknown_samples.len() < UNKNOWN_SAMPLE_CAP {
            self.unknown_samples.push(preview());
        }
    }
}

/// Which decoder a reader runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Format {
    /// Binary when the stream starts with [`BIN_MAGIC`] and the record
    /// type has a binary codec, JSONL otherwise.
    Detect,
    Jsonl,
    Binary,
}

/// A byte source with its own buffer, so the decoders can look ahead
/// across however the underlying reader chunks its bytes.
#[derive(Debug)]
struct Input<R> {
    inner: R,
    /// `buf[start..end]` is unread; `buf[end..]` is room to read into.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// Stream offset of `buf[start]`.
    offset: usize,
    eof: bool,
}

/// Bytes asked of the underlying reader per read.
const CHUNK: usize = 64 * 1024;

impl<R: Read> Input<R> {
    fn new(inner: R) -> Self {
        Self {
            inner,
            buf: Vec::new(),
            start: 0,
            end: 0,
            offset: 0,
            eof: false,
        }
    }

    fn unread(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }

    /// Reads one more chunk; `false` at end of stream. One read per
    /// call, so the decoders see the stream chunked as the reader hands
    /// it out.
    fn more(&mut self) -> io::Result<bool> {
        if self.eof {
            return Ok(false);
        }
        if self.start > 0 && self.start >= self.end / 2 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.buf.len() < self.end + CHUNK {
            self.buf.resize(self.end + CHUNK, 0);
        }
        let n = loop {
            match self.inner.read(&mut self.buf[self.end..]) {
                Ok(n) => break n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        };
        self.end += n;
        self.eof = n == 0;
        Ok(n > 0)
    }

    /// Buffers at least `n` unread bytes; `false` when the stream ends
    /// first.
    fn fill(&mut self, n: usize) -> io::Result<bool> {
        while self.unread().len() < n {
            if !self.more()? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    fn consume(&mut self, n: usize) {
        self.start += n;
        self.offset += n;
    }

    /// The buffer range of the next raw line, its `\n` included when
    /// present, with its stream offset; `None` at end of stream.
    fn line(&mut self) -> io::Result<Option<(usize, std::ops::Range<usize>)>> {
        let mut searched = 0;
        let len = loop {
            let unread = self.unread();
            if let Some(i) = find_newline(&unread[searched..]) {
                break searched + i + 1;
            }
            searched = unread.len();
            if !self.more()? {
                break self.unread().len();
            }
        };
        if len == 0 {
            return Ok(None);
        }
        let at = self.offset;
        self.consume(len);
        Ok(Some((at, self.start - len..self.start)))
    }
}

/// Index of the first `\n` in `bytes`, eight bytes at a time.
fn find_newline(bytes: &[u8]) -> Option<usize> {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    const NL: u64 = LO * b'\n' as u64;
    let mut chunks = bytes.chunks_exact(8);
    let mut at = 0;
    for chunk in &mut chunks {
        let x = u64::from_le_bytes(chunk.try_into().expect("eight bytes")) ^ NL;
        // A zero byte in `x` is a newline in `chunk`.
        if (x.wrapping_sub(LO) & !x & HI) != 0 {
            break;
        }
        at += 8;
    }
    bytes[at..].iter().position(|&b| b == b'\n').map(|i| at + i)
}

/// Per-codec decoder state.
#[derive(Debug)]
enum Codec {
    Jsonl {
        /// Index of the next raw line (blank lines counted).
        line: usize,
    },
    Binary,
}

/// A streaming reader of one recorded stream: the event log in either
/// encoding (JSONL or `RMTB` binary, detected from the first bytes) or
/// the decision log (`EventReader<R, DecisionRecord>`, JSONL only).
///
/// It yields whole records in log order, skips unknown ones (counting
/// them), and stops at a torn final record; [`EventReader::summary`]
/// then reports what it skipped. An error ends the stream.
#[derive(Debug)]
pub struct EventReader<R, T = Event> {
    input: Input<R>,
    codec: Codec,
    summary: StreamSummary,
    /// The first record, read while looking for a JSONL header.
    peeked: Option<T>,
    done: bool,
    records: u64,
    record: PhantomData<fn() -> T>,
}

impl<R: Read, T: Record> EventReader<R, T> {
    /// Opens a stream and reads its header: an event stream in either
    /// encoding, a decision stream as JSONL.
    ///
    /// # Errors
    ///
    /// Fails on a read error, a binary header cut short, or a first
    /// record that is corrupt rather than torn.
    pub fn new(inner: R) -> Result<Self, ReadError> {
        Self::open(inner, Format::Detect)
    }

    /// Opens a stream of `T` records with the given decoder and reads
    /// its header.
    pub(crate) fn open(inner: R, format: Format) -> Result<Self, ReadError> {
        let mut input = Input::new(inner);
        let binary = match format {
            Format::Jsonl => false,
            Format::Binary => true,
            Format::Detect => {
                T::BINARY && input.fill(BIN_MAGIC.len())? && input.unread()[..4] == BIN_MAGIC
            }
        };
        let mut reader = Self {
            input,
            codec: if binary {
                Codec::Binary
            } else {
                Codec::Jsonl { line: 0 }
            },
            summary: StreamSummary::default(),
            peeked: None,
            done: false,
            records: 0,
            record: PhantomData,
        };
        if binary {
            reader.read_bin_header()?;
        } else {
            // Headers lead a JSONL stream: reading up to the first
            // record makes them known before it is yielded.
            reader.peeked = reader.next_jsonl()?;
        }
        Ok(reader)
    }

    /// True when the stream is the binary codec.
    pub fn is_binary(&self) -> bool {
        matches!(self.codec, Codec::Binary)
    }

    /// The header's schema version (`None`: a headerless v0 log).
    pub fn schema_version(&self) -> Option<u32> {
        self.summary.schema_version
    }

    /// The header's sampling rate and seed (`None`: a complete stream).
    pub fn sampling(&self) -> Option<(f64, u64)> {
        self.summary.sampling()
    }

    /// The header's sampling rate (`None`: a complete stream).
    pub fn sample_rate(&self) -> Option<f64> {
        self.summary.sample_rate
    }

    /// Records yielded so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Bytes consumed from the stream so far.
    pub fn bytes_read(&self) -> usize {
        self.input.offset
    }

    /// What the tolerant contract reports about the stream. Complete
    /// once the reader has returned `None`.
    pub fn summary(&self) -> &StreamSummary {
        &self.summary
    }

    /// Reads the rest of the stream into a [`ParsedLog`].
    ///
    /// # Errors
    ///
    /// The first read error or mid-stream corruption.
    pub fn collect_log(mut self) -> Result<ParsedLog<T>, ReadError> {
        let mut events = Vec::new();
        for record in &mut self {
            events.push(record?);
        }
        let s = self.summary;
        Ok(ParsedLog {
            events,
            torn_tail: s.torn_tail,
            torn_tail_offset: s.torn_tail_offset,
            unknown_events: s.unknown_events,
            unknown_samples: s.unknown_samples,
            schema_version: s.schema_version,
            sample_rate: s.sample_rate,
            sample_seed: s.sample_seed,
        })
    }

    fn read_bin_header(&mut self) -> Result<(), ReadError> {
        let header_err =
            || ReadError::Malformed("binary stream truncated inside its file header".into());
        let magic = BIN_MAGIC.len();
        if !self.input.fill(magic)? || self.input.unread()[..magic] != BIN_MAGIC {
            return Err(ReadError::Malformed(
                "not a binary telemetry stream (missing RMTB magic)".into(),
            ));
        }
        if !self.input.fill(magic + 5)? {
            return Err(header_err());
        }
        let head = self.input.unread();
        let version = u32::from_le_bytes(head[magic..magic + 4].try_into().unwrap());
        let flags = head[magic + 4];
        self.input.consume(magic + 5);
        self.summary.schema_version = Some(version);
        if flags & FLAG_SAMPLED != 0 {
            if !self.input.fill(16)? {
                return Err(header_err());
            }
            let head = self.input.unread();
            let rate = f64::from_bits(u64::from_le_bytes(head[..8].try_into().unwrap()));
            let seed = u64::from_le_bytes(head[8..16].try_into().unwrap());
            self.input.consume(16);
            self.summary.sample_rate = Some(rate);
            self.summary.sample_seed = Some(seed);
        }
        Ok(())
    }

    /// Reports the record starting at `start` as the torn tail.
    fn torn_bin(&mut self, start: usize) -> Result<Option<T>, ReadError> {
        // Everything from `start` to the end of the stream is the tail.
        while self.input.more()? {}
        self.input.consume(self.input.unread().len());
        let end = self.input.offset;
        self.summary.torn_tail = Some(format!(
            "{} trailing bytes of a torn binary record",
            end - start
        ));
        self.summary.torn_tail_offset = Some(start);
        Ok(None)
    }

    fn next_bin(&mut self) -> Result<Option<T>, ReadError> {
        loop {
            if !self.input.fill(1)? {
                return Ok(None);
            }
            let start = self.input.offset;
            // Kind tag, then a varint payload length; running out of
            // bytes anywhere in a record is a torn tail, not corruption.
            let mut pos = 1;
            let mut len: u64 = 0;
            let mut shift = 0u32;
            let len = loop {
                if !self.input.fill(pos + 1)? {
                    return self.torn_bin(start);
                }
                let b = self.input.unread()[pos];
                pos += 1;
                if shift >= 64 {
                    return Err(ReadError::Malformed(format!(
                        "byte {start}: malformed record length (varint overflow)"
                    )));
                }
                len |= u64::from(b & 0x7f) << shift;
                if b & 0x80 == 0 {
                    break len;
                }
                shift += 7;
            };
            let Ok(len) = usize::try_from(len) else {
                return Err(ReadError::Malformed(format!(
                    "byte {start}: absurd record length {len}"
                )));
            };
            let Some(total) = pos.checked_add(len) else {
                return self.torn_bin(start);
            };
            if !self.input.fill(total)? {
                return self.torn_bin(start);
            }
            let kind = self.input.unread()[0];
            let decoded = T::from_bin(kind, &self.input.unread()[pos..total]);
            self.input.consume(total);
            match decoded {
                Some(record) => return Ok(Some(record)),
                None if kind > MAX_KIND => {
                    // A kind tag this build has never heard of: a stream
                    // from a newer engine. Skip the whole record, count it.
                    self.summary
                        .unknown(|| format!("kind {kind} ({len} bytes)"));
                }
                None => {
                    return Err(ReadError::Malformed(format!(
                        "byte {start}: malformed payload for record kind {kind}"
                    )));
                }
            }
        }
    }

    fn next_jsonl(&mut self) -> Result<Option<T>, ReadError> {
        let Codec::Jsonl { line: lines } = &mut self.codec else {
            unreachable!("JSONL records are read from JSONL streams only")
        };
        let summary = &mut self.summary;
        while let Some((i, at, line)) = next_line(&mut self.input, lines)? {
            // One JSON parse per line; the header and record shapes are
            // then tried against the parsed tree.
            let value = match serde_json::from_str::<serde::Value>(line) {
                Ok(value) => value,
                Err(e) => {
                    // Unparseable: a torn tail when no other record
                    // follows, corruption otherwise.
                    let line = line.to_string();
                    if next_line(&mut self.input, lines)?.is_some() {
                        return Err(ReadError::Malformed(format!("line {}: {e}", i + 1)));
                    }
                    summary.torn_tail = Some(line);
                    summary.torn_tail_offset = Some(at);
                    return Ok(None);
                }
            };
            // Stream headers are metadata: surface this stream's first
            // schema version and the first sampling provenance, count
            // any other as foreign.
            match StreamHeader::from_value(&value) {
                Ok(StreamHeader::Schema { stream, version })
                    if summary.schema_version.is_none() && stream == T::STREAM =>
                {
                    summary.schema_version = Some(version);
                }
                Ok(StreamHeader::Sampling { rate, seed }) if summary.sample_rate.is_none() => {
                    summary.sample_rate = Some(rate);
                    summary.sample_seed = Some(seed);
                }
                Ok(_) => summary.unknown(|| line.chars().take(80).collect()),
                // Valid JSON that is not a record we know: a future
                // kind, anywhere in the log. Skip and count.
                Err(_) => match T::from_value(&value) {
                    Ok(record) => return Ok(Some(record)),
                    Err(_) => summary.unknown(|| line.chars().take(80).collect()),
                },
            }
        }
        Ok(None)
    }
}

/// The next non-blank line of `input` with its raw-line index (counted
/// in `lines`, blank lines included) and stream offset, CR/LF stripped.
/// It is checked as UTF-8 with its `\n`, so a sequence cut by a line end
/// reads as invalid, as it does in the whole stream.
fn next_line<'a, R: Read>(
    input: &'a mut Input<R>,
    lines: &mut usize,
) -> Result<Option<(usize, usize, &'a str)>, ReadError> {
    let (i, at, raw) = loop {
        let Some((at, raw)) = input.line()? else {
            return Ok(None);
        };
        let i = *lines;
        *lines += 1;
        if !blank(&input.buf[raw.clone()], at)? {
            break (i, at, raw);
        }
    };
    let text = utf8(&input.buf[raw], at)?;
    let line = text.strip_suffix('\n').unwrap_or(text);
    Ok(Some((i, at, line.strip_suffix('\r').unwrap_or(line))))
}

/// `raw`, starting at stream offset `at`, as UTF-8.
fn utf8(raw: &[u8], at: usize) -> Result<&str, ReadError> {
    std::str::from_utf8(raw).map_err(|e| ReadError::NotUtf8 {
        valid_up_to: at + e.valid_up_to(),
        error_len: e.error_len().map(|n| n as u8),
    })
}

/// Whether a raw line is all whitespace; ASCII lines are judged by
/// their bytes, any other is decoded first.
fn blank(raw: &[u8], at: usize) -> Result<bool, ReadError> {
    for &b in raw {
        match b {
            b' ' | b'\t' | b'\n' | b'\r' | 0x0b | 0x0c => {}
            0..=0x7f => return Ok(false),
            _ => return Ok(utf8(raw, at)?.trim().is_empty()),
        }
    }
    Ok(true)
}

impl<R: Read, T: Record> Iterator for EventReader<R, T> {
    type Item = Result<T, ReadError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let next = match self.peeked.take() {
            Some(record) => Ok(Some(record)),
            None => match self.codec {
                Codec::Binary => self.next_bin(),
                Codec::Jsonl { .. } => self.next_jsonl(),
            },
        };
        match next {
            Ok(Some(record)) => {
                self.records += 1;
                Some(Ok(record))
            }
            Ok(None) => {
                self.done = true;
                None
            }
            Err(e) => {
                self.done = true;
                Some(Err(e))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{write_bin, write_jsonl};

    fn events() -> Vec<Event> {
        (0..4)
            .map(|q| Event::Arrival {
                at: q,
                query: q,
                deadline: q + 100,
            })
            .collect()
    }

    #[test]
    fn the_header_is_known_before_the_first_record() {
        for bytes in [
            write_bin(&events(), Some((0.25, 9))),
            write_jsonl(&events(), Some((0.25, 9))).into_bytes(),
        ] {
            let mut reader: EventReader<_> = EventReader::new(bytes.as_slice()).unwrap();
            assert_eq!(reader.sampling(), Some((0.25, 9)));
            assert_eq!(reader.schema_version(), Some(1));
            assert_eq!(reader.records(), 0);
            assert_eq!(reader.next().unwrap().unwrap(), events()[0]);
        }
    }

    #[test]
    fn a_torn_stream_is_read_to_its_last_byte() {
        for bytes in [
            write_bin(&events(), None),
            write_jsonl(&events(), None).into_bytes(),
        ] {
            let torn = &bytes[..bytes.len() - 3];
            let mut reader: EventReader<_> = EventReader::new(torn).unwrap();
            assert_eq!(reader.by_ref().count(), 3);
            assert!(reader.summary().torn_tail.is_some());
            assert_eq!(reader.bytes_read(), torn.len());
        }
    }
}
