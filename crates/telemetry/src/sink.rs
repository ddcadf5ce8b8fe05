//! Event sinks: where a traced run's [`Event`] stream goes.
//!
//! The engine takes a `&mut dyn TelemetrySink` and checks
//! [`TelemetrySink::enabled`] once per run; with the default
//! [`NullSink`] every emission site is skipped entirely, so an
//! untraced run pays nothing beyond one branch per site (the
//! `null_sink` row of the `perf_baseline` layer matrix pins this
//! contract).

use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::event::Event;

/// Version of the JSONL stream schema written by this build's file
/// sinks (telemetry and decisions). Bumped when a record's shape
/// changes incompatibly; headerless logs are treated as version 0.
pub const JSONL_SCHEMA_VERSION: u32 = 1;

/// The stream tag telemetry logs carry in their schema header.
pub const TELEMETRY_STREAM: &str = "telemetry";

/// How many unknown-record previews a tolerant parser retains in
/// [`ParsedLog::unknown_samples`]. Everything past the cap is counted
/// in [`ParsedLog::unknown_events`] but not stored, so a
/// version-skewed 100M-event log cannot flood tooling output — the CLI
/// prints the retained few and a "+N more suppressed" summary.
pub const UNKNOWN_SAMPLE_CAP: usize = 5;

/// The metadata record a JSONL file stream starts with, e.g.
/// `{"Schema":{"stream":"telemetry","version":1}}`. It shares the
/// line-oriented format but is not an [`Event`]: parsers surface it as
/// [`ParsedLog::schema_version`] instead of counting it as a record,
/// and v0 logs (written before headers existed) parse fine without
/// one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StreamHeader {
    /// The stream's identity and schema version.
    Schema {
        /// Which stream this is (`"telemetry"` or `"decisions"`).
        stream: String,
        /// Schema version of the records that follow.
        version: u32,
    },
    /// Sampling provenance: the stream was written through a
    /// [`crate::SamplingSink`] at this rate with this hash seed.
    /// Emitted right after the schema header; unsampled streams carry
    /// none, so its absence means the log is complete.
    Sampling {
        /// Fraction of boring queries kept (interesting ones are
        /// always kept regardless).
        rate: f64,
        /// Seed of the splitmix64 query-id hash deciding keeps.
        seed: u64,
    },
}

impl StreamHeader {
    /// The header a telemetry log starts with.
    pub fn telemetry() -> Self {
        StreamHeader::Schema {
            stream: TELEMETRY_STREAM.to_string(),
            version: JSONL_SCHEMA_VERSION,
        }
    }
}

/// A consumer of trace events.
pub trait TelemetrySink {
    /// Whether the sink wants events at all. The engine reads this once
    /// per run and skips event construction when `false`.
    fn enabled(&self) -> bool {
        true
    }

    /// Consumes one event.
    fn record(&mut self, event: &Event);

    /// Flushes any buffered output (no-op for in-memory sinks).
    fn flush(&mut self) {}
}

/// The default sink: drops everything, reports itself disabled.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TelemetrySink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _event: &Event) {}
}

/// An unbounded in-memory sink (tests and short runs).
#[derive(Debug, Clone, Default)]
pub struct VecSink {
    events: Vec<Event>,
}

impl VecSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded events, in emission order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Consumes the sink, returning its events.
    pub fn into_events(self) -> Vec<Event> {
        self.events
    }
}

impl TelemetrySink for VecSink {
    fn record(&mut self, event: &Event) {
        self.events.push(event.clone());
    }
}

/// A sink writing one JSON object per line (JSONL) to any writer.
///
/// Serialization is deterministic — field order is declaration order
/// and floats use shortest-round-trip formatting — so a seeded run
/// produces a byte-identical log on every replay. I/O errors are
/// latched and surfaced by [`JsonlSink::finish`] rather than panicking
/// mid-run.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    out: W,
    lines: u64,
    error: Option<io::Error>,
    failed: bool,
}

impl JsonlSink<BufWriter<File>> {
    /// Opens (truncating) `path` for buffered JSONL output and writes
    /// the schema header as the first line (not counted in
    /// [`JsonlSink::lines`]).
    ///
    /// # Errors
    ///
    /// Propagates the underlying file-creation error.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        let mut sink = Self::new(BufWriter::new(File::create(path)?));
        sink.write_header(&StreamHeader::telemetry());
        Ok(sink)
    }

    /// Like [`JsonlSink::create`], additionally stamping the stream
    /// with the sampling rate and seed of the [`crate::SamplingSink`]
    /// wrapping this sink, as a second header line.
    ///
    /// # Errors
    ///
    /// Propagates the underlying file-creation error.
    pub fn create_sampled<P: AsRef<Path>>(path: P, rate: f64, seed: u64) -> io::Result<Self> {
        let mut sink = Self::create(path)?;
        sink.write_header(&StreamHeader::Sampling { rate, seed });
        Ok(sink)
    }

    /// Reopens an existing log for a resumed run: truncates `path` to
    /// the byte offset just past its first `lines` whole records —
    /// healing any torn tail a mid-write kill left behind — and appends
    /// from there. The returned sink reports [`JsonlSink::lines`] as
    /// `lines`, so line accounting continues as if the run were never
    /// interrupted.
    ///
    /// # Errors
    ///
    /// Fails if the file cannot be opened, or holds fewer than `lines`
    /// whole newline-terminated records — resuming from a checkpoint
    /// the log never reached would fabricate a gap, not heal a tear.
    pub fn resume_at<P: AsRef<Path>>(path: P, lines: u64) -> io::Result<Self> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;
        let mut offset = 0usize;
        // A v1 log leads with metadata headers (schema, and sampling
        // provenance when present); they are not among the `lines`
        // records, so skip them before counting (v0 logs have none and
        // start counting at byte 0).
        while let Some(i) = buf[offset..].iter().position(|&b| b == b'\n') {
            let line = String::from_utf8_lossy(&buf[offset..offset + i]);
            if serde_json::from_str::<StreamHeader>(&line).is_err() {
                break;
            }
            offset += i + 1;
        }
        let mut whole = 0u64;
        while whole < lines {
            match buf[offset..].iter().position(|&b| b == b'\n') {
                Some(i) => {
                    offset += i + 1;
                    whole += 1;
                }
                None => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "log holds {whole} whole records, checkpoint expects {lines}: \
                             refusing to resume past the end of the log"
                        ),
                    ))
                }
            }
        }
        file.set_len(offset as u64)?;
        file.seek(SeekFrom::Start(offset as u64))?;
        let mut sink = Self::new(BufWriter::new(file));
        sink.lines = lines;
        Ok(sink)
    }
}

impl<W: Write> JsonlSink<W> {
    /// Wraps an arbitrary writer.
    pub fn new(out: W) -> Self {
        Self {
            out,
            lines: 0,
            error: None,
            failed: false,
        }
    }

    /// Writes a metadata header line (not counted in
    /// [`JsonlSink::lines`]), latching any I/O error.
    fn write_header(&mut self, header: &StreamHeader) {
        if self.failed {
            return;
        }
        let line = serde_json::to_string(header).expect("header serializes");
        if let Err(e) = writeln!(self.out, "{line}") {
            self.error = Some(e);
            self.failed = true;
        }
    }

    /// Lines successfully written so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// True once any write or flush has failed; further records are
    /// dropped. Callers that keep the sink alive (rather than calling
    /// [`JsonlSink::finish`]) use this to fail loudly instead of
    /// reporting a silently truncated log as success.
    pub fn write_failed(&self) -> bool {
        self.failed
    }

    /// Takes the latched I/O error, if any. The sink stays failed —
    /// [`JsonlSink::write_failed`] remains `true` and subsequent
    /// records are still dropped; only ownership of the error moves.
    pub fn take_error(&mut self) -> Option<io::Error> {
        self.error.take()
    }

    /// Flushes and returns the writer, or the first latched I/O error.
    ///
    /// # Errors
    ///
    /// Returns the first write or flush error encountered.
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.out.flush()?;
        Ok(self.out)
    }
}

impl<W: Write> TelemetrySink for JsonlSink<W> {
    fn record(&mut self, event: &Event) {
        if self.failed {
            return;
        }
        let line = serde_json::to_string(event).expect("events always serialize");
        if let Err(e) = writeln!(self.out, "{line}") {
            self.error = Some(e);
            self.failed = true;
            return;
        }
        self.lines += 1;
    }

    fn flush(&mut self) {
        if !self.failed {
            if let Err(e) = self.out.flush() {
                self.error = Some(e);
                self.failed = true;
            }
        }
    }
}

/// Parses a JSONL event log back into events (blank lines skipped).
///
/// # Errors
///
/// Returns a message naming the first offending line. A log truncated
/// mid-write (crashed run) fails on its torn last record — use
/// [`parse_jsonl_tolerant`] to salvage everything before it.
pub fn parse_jsonl(text: &str) -> Result<Vec<Event>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        // Schema headers are stream metadata, not events.
        .filter(|(_, l)| serde_json::from_str::<StreamHeader>(l).is_err())
        .map(|(i, l)| serde_json::from_str(l).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

/// A JSONL log parsed tolerantly: all whole records, plus the torn
/// trailing fragment (if any) reported rather than swallowed.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedLog {
    /// Every successfully parsed event, in log order.
    pub events: Vec<Event>,
    /// The unparseable final line of a truncated log, verbatim
    /// (`None` for a clean log).
    pub torn_tail: Option<String>,
    /// Byte offset of the torn tail's first byte within the parsed
    /// text (`None` for a clean log). Truncating the file to this
    /// offset heals the tear: everything before it is whole records.
    pub torn_tail_offset: Option<usize>,
    /// Lines holding well-formed JSON that is not a known event kind —
    /// a log written by a newer engine with event variants this build
    /// does not know. They are skipped, not fatal, so old tooling can
    /// still analyze new logs; callers should warn when non-zero.
    pub unknown_events: u64,
    /// Previews of the first few unknown records (at most
    /// [`UNKNOWN_SAMPLE_CAP`]); the rest are only counted, so tooling
    /// warns with "+N more suppressed" instead of flooding output.
    pub unknown_samples: Vec<String>,
    /// The schema header's version when the log carries one; `None`
    /// for headerless logs written before headers existed (treated as
    /// version 0 by tooling).
    pub schema_version: Option<u32>,
    /// The sampling rate from the stream's sampling header, when the
    /// log was written through a [`crate::SamplingSink`]. `None` means
    /// the stream is complete and analytics are exact.
    pub sample_rate: Option<f64>,
    /// The sampling hash seed accompanying [`ParsedLog::sample_rate`].
    pub sample_seed: Option<u64>,
}

/// Parses a JSONL event log, tolerating a truncated final record — the
/// signature of a run that crashed or was killed mid-write — and
/// unknown event kinds — the signature of a log from a newer engine.
/// Every whole known record is returned; the torn fragment is reported
/// in [`ParsedLog::torn_tail`] and skipped foreign records are counted
/// in [`ParsedLog::unknown_events`] so callers can surface both.
///
/// # Errors
///
/// Returns a message naming the offending line when a *non-final* line
/// is not even valid JSON: corruption in the middle of a log is real
/// damage, not a torn write or a forward-compat gap, and is never
/// silently skipped.
pub fn parse_jsonl_tolerant(text: &str) -> Result<ParsedLog, String> {
    // (line number, byte offset of line start, line content) for every
    // non-blank line; offsets are tracked by hand because `str::lines`
    // discards them and the torn-tail offset is part of the contract.
    let mut lines: Vec<(usize, usize, &str)> = Vec::new();
    let mut offset = 0usize;
    for (i, raw) in text.split_inclusive('\n').enumerate() {
        let line = raw.strip_suffix('\n').unwrap_or(raw);
        let line = line.strip_suffix('\r').unwrap_or(line);
        if !line.trim().is_empty() {
            lines.push((i, offset, line));
        }
        offset += raw.len();
    }
    let mut events = Vec::with_capacity(lines.len());
    let mut torn_tail = None;
    let mut torn_tail_offset = None;
    let mut unknown_events = 0;
    let mut unknown_samples: Vec<String> = Vec::new();
    let mut schema_version = None;
    let mut sample_rate = None;
    let mut sample_seed = None;
    let last = lines.len().saturating_sub(1);
    let note_unknown = |samples: &mut Vec<String>, count: &mut u64, l: &str| {
        *count += 1;
        if samples.len() < UNKNOWN_SAMPLE_CAP {
            let preview: String = l.chars().take(80).collect();
            samples.push(preview);
        }
    };
    for (k, (i, at, l)) in lines.iter().enumerate() {
        // Stream headers are metadata: surface the first telemetry
        // schema's version and the first sampling provenance, count
        // any other as foreign.
        match serde_json::from_str::<StreamHeader>(l) {
            Ok(StreamHeader::Schema { stream, version }) => {
                if schema_version.is_none() && stream == TELEMETRY_STREAM {
                    schema_version = Some(version);
                } else {
                    note_unknown(&mut unknown_samples, &mut unknown_events, l);
                }
                continue;
            }
            Ok(StreamHeader::Sampling { rate, seed }) => {
                if sample_rate.is_none() {
                    sample_rate = Some(rate);
                    sample_seed = Some(seed);
                } else {
                    note_unknown(&mut unknown_samples, &mut unknown_events, l);
                }
                continue;
            }
            Err(_) => {}
        }
        match serde_json::from_str(l) {
            Ok(e) => events.push(e),
            // Valid JSON that is not an Event we know: a future event
            // kind, anywhere in the log. Skip and count.
            Err(_) if serde_json::from_str::<serde::Value>(l).is_ok() => {
                note_unknown(&mut unknown_samples, &mut unknown_events, l);
            }
            Err(_) if k == last => {
                torn_tail = Some((*l).to_string());
                torn_tail_offset = Some(*at);
            }
            Err(e) => return Err(format!("line {}: {e}", i + 1)),
        }
    }
    Ok(ParsedLog {
        events,
        torn_tail,
        torn_tail_offset,
        unknown_events,
        unknown_samples,
        schema_version,
        sample_rate,
        sample_seed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ShedCause;

    fn ev(at: u64) -> Event {
        Event::Shed {
            at,
            query: at,
            cause: ShedCause::Policy,
        }
    }

    #[test]
    fn null_sink_is_disabled() {
        let mut s = NullSink;
        assert!(!s.enabled());
        s.record(&ev(1)); // no-op, no panic
    }

    #[test]
    fn vec_sink_keeps_order() {
        let mut s = VecSink::new();
        assert!(s.enabled());
        for t in 0..5 {
            s.record(&ev(t));
        }
        let ats: Vec<u64> = s.events().iter().map(Event::at).collect();
        assert_eq!(ats, [0, 1, 2, 3, 4]);
        assert_eq!(s.into_events().len(), 5);
    }

    #[test]
    fn jsonl_round_trips_and_is_deterministic() {
        let events: Vec<Event> = (0..4).map(ev).collect();
        let write_all = || {
            let mut sink = JsonlSink::new(Vec::new());
            for e in &events {
                sink.record(e);
            }
            assert_eq!(sink.lines(), 4);
            String::from_utf8(sink.finish().unwrap()).unwrap()
        };
        let a = write_all();
        let b = write_all();
        assert_eq!(a, b, "identical inputs must give identical bytes");
        assert_eq!(parse_jsonl(&a).unwrap(), events);
    }

    #[test]
    fn parse_reports_bad_lines() {
        let err = parse_jsonl("{\"nope\":1}\n").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
    }

    #[test]
    fn tolerant_parse_salvages_torn_last_record() {
        // A crashed run truncates the log mid-record; the strict parser
        // rejects the whole file, the tolerant one returns every whole
        // record and reports the fragment.
        let events: Vec<Event> = (0..3).map(ev).collect();
        let mut sink = JsonlSink::new(Vec::new());
        for e in &events {
            sink.record(e);
        }
        let full = String::from_utf8(sink.finish().unwrap()).unwrap();
        let torn = &full[..full.len() - 9]; // cut into the last record
        assert!(parse_jsonl(torn).is_err());
        let parsed = parse_jsonl_tolerant(torn).unwrap();
        assert_eq!(parsed.events, events[..2]);
        let tail = parsed.torn_tail.expect("fragment reported");
        assert!(full.lines().nth(2).unwrap().starts_with(&tail));
    }

    #[test]
    fn tolerant_parse_of_clean_log_has_no_tail() {
        let events: Vec<Event> = (0..3).map(ev).collect();
        let mut sink = JsonlSink::new(Vec::new());
        for e in &events {
            sink.record(e);
        }
        let full = String::from_utf8(sink.finish().unwrap()).unwrap();
        let parsed = parse_jsonl_tolerant(&full).unwrap();
        assert_eq!(parsed.events, events);
        assert_eq!(parsed.torn_tail, None);
        // Trailing blank lines do not count as a torn tail.
        let padded = format!("{full}\n\n");
        assert_eq!(parse_jsonl_tolerant(&padded).unwrap().torn_tail, None);
        // The empty log parses to nothing.
        let empty = parse_jsonl_tolerant("").unwrap();
        assert!(empty.events.is_empty() && empty.torn_tail.is_none());
    }

    #[test]
    fn tolerant_parse_of_only_a_torn_record_is_empty_with_warning() {
        // A run that crashed during its very first write leaves a file
        // holding nothing but a fragment. That is still a torn tail —
        // not mid-log corruption — so the parse succeeds with zero
        // events and the fragment surfaced for the caller to warn on.
        let mut sink = JsonlSink::new(Vec::new());
        sink.record(&ev(0));
        let full = String::from_utf8(sink.finish().unwrap()).unwrap();
        let torn = &full[..full.len() / 2];
        assert!(parse_jsonl(torn).is_err());
        let parsed = parse_jsonl_tolerant(torn).unwrap();
        assert!(parsed.events.is_empty(), "no whole record survived");
        assert_eq!(parsed.torn_tail.as_deref(), Some(torn.trim_end()));
    }

    #[test]
    fn tolerant_parse_still_rejects_mid_file_corruption() {
        let good = serde_json::to_string(&ev(1)).unwrap();
        let text = format!("{good}\nnot json at all\n{good}\n");
        let err = parse_jsonl_tolerant(&text).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn tolerant_parse_skips_unknown_event_kinds_with_count() {
        // Forward compatibility: a log written by a newer engine may
        // hold event kinds this build has never heard of. They are
        // well-formed JSON, so they are counted and skipped — anywhere
        // in the log, not just at the tail — instead of failing the
        // whole parse.
        let good = serde_json::to_string(&ev(1)).unwrap();
        let text = format!(
            "{good}\n\
             {{\"TeleportDone\":{{\"at\":9,\"worker\":3}}}}\n\
             {good}\n\
             {{\"AnotherFutureKind\":null}}\n"
        );
        let parsed = parse_jsonl_tolerant(&text).unwrap();
        assert_eq!(parsed.events, vec![ev(1), ev(1)]);
        assert_eq!(parsed.unknown_events, 2);
        assert_eq!(parsed.torn_tail, None);
        // The strict parser still refuses foreign records outright.
        assert!(parse_jsonl(&text).is_err());
        // Unknown kinds and a torn tail can coexist: the torn final
        // fragment is not valid JSON, so it is reported as torn while
        // the foreign record is counted.
        let both = format!("{good}\n{{\"FutureKind\":1}}\n{{\"Shed\":{{\"at");
        let parsed = parse_jsonl_tolerant(&both).unwrap();
        assert_eq!(parsed.events, vec![ev(1)]);
        assert_eq!(parsed.unknown_events, 1);
        assert!(parsed.torn_tail.is_some());
    }

    #[test]
    fn tolerant_parse_reports_the_torn_tail_byte_offset() {
        let mut sink = JsonlSink::new(Vec::new());
        for t in 0..3 {
            sink.record(&ev(t));
        }
        let full = String::from_utf8(sink.finish().unwrap()).unwrap();
        let cut = full.len() - 9;
        let torn = &full[..cut];
        let parsed = parse_jsonl_tolerant(torn).unwrap();
        let at = parsed.torn_tail_offset.expect("offset reported");
        // The offset points at the start of the torn record: truncating
        // there leaves exactly the whole-record prefix.
        assert_eq!(&torn[..at], {
            let two_lines: usize = full.lines().take(2).map(|l| l.len() + 1).sum();
            &full[..two_lines]
        });
        assert_eq!(&torn[at..], parsed.torn_tail.as_deref().unwrap());
        // Clean logs report no offset.
        assert_eq!(parse_jsonl_tolerant(&full).unwrap().torn_tail_offset, None);
    }

    /// A writer that fails once `ok_lines` whole lines have gone
    /// through (a record may arrive as several `write` calls).
    struct FlakyWriter {
        ok_lines: usize,
        seen: usize,
    }

    impl Write for FlakyWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.seen >= self.ok_lines {
                return Err(io::Error::other("disk full"));
            }
            self.seen += buf.iter().filter(|&&b| b == b'\n').count();
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn jsonl_sink_latches_and_surfaces_write_failures() {
        let mut sink = JsonlSink::new(FlakyWriter {
            ok_lines: 2,
            seen: 0,
        });
        assert!(!sink.write_failed());
        for t in 0..5 {
            sink.record(&ev(t));
        }
        assert!(sink.write_failed());
        assert_eq!(sink.lines(), 2, "only the successful writes count");
        let err = sink.take_error().expect("first error surfaced");
        assert_eq!(err.to_string(), "disk full");
        // Taking the error does not un-fail the sink.
        assert!(sink.write_failed());
        assert!(sink.take_error().is_none(), "error moves out once");
        sink.record(&ev(9));
        assert_eq!(sink.lines(), 2, "failed sinks drop further records");
    }

    #[test]
    fn schema_headers_are_surfaced_not_counted() {
        let good = serde_json::to_string(&ev(1)).unwrap();
        let header = serde_json::to_string(&StreamHeader::telemetry()).unwrap();
        let text = format!("{header}\n{good}\n{good}\n");
        // The tolerant parser surfaces the version; the strict parser
        // skips the header as metadata.
        let parsed = parse_jsonl_tolerant(&text).unwrap();
        assert_eq!(parsed.schema_version, Some(JSONL_SCHEMA_VERSION));
        assert_eq!(parsed.events, vec![ev(1), ev(1)]);
        assert_eq!(parsed.unknown_events, 0);
        assert_eq!(parse_jsonl(&text).unwrap(), vec![ev(1), ev(1)]);
        // Headerless v0 logs parse with no version.
        let v0 = format!("{good}\n");
        assert_eq!(parse_jsonl_tolerant(&v0).unwrap().schema_version, None);
        // A foreign stream's header is a future record, not ours.
        let foreign = "{\"Schema\":{\"stream\":\"decisions\",\"version\":1}}";
        let text = format!("{foreign}\n{good}\n");
        let parsed = parse_jsonl_tolerant(&text).unwrap();
        assert_eq!(parsed.schema_version, None);
        assert_eq!(parsed.unknown_events, 1);
    }

    #[test]
    fn create_writes_the_header_and_resume_skips_it() {
        let dir = std::env::temp_dir().join(format!("ramsis-sink-hdr-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let mut sink = JsonlSink::create(&path).unwrap();
        sink.record(&ev(0));
        sink.record(&ev(1));
        assert_eq!(sink.lines(), 2, "header is not a record");
        drop(sink.finish().unwrap());
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("{\"Schema\":"), "{text}");
        let parsed = parse_jsonl_tolerant(&text).unwrap();
        assert_eq!(parsed.schema_version, Some(JSONL_SCHEMA_VERSION));
        assert_eq!(parsed.events, vec![ev(0), ev(1)]);
        // Resuming after 1 record keeps the header and the first
        // record, discarding the second.
        let mut resumed = JsonlSink::resume_at(&path, 1).unwrap();
        assert_eq!(resumed.lines(), 1);
        resumed.record(&ev(1));
        drop(resumed.finish().unwrap());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_at_heals_the_torn_tail_and_continues_the_log() {
        let dir = std::env::temp_dir().join(format!("ramsis-sink-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("resume.jsonl");

        // A "killed" run: three whole records plus a torn fragment.
        let mut sink = JsonlSink::create(&path).unwrap();
        for t in 0..3 {
            sink.record(&ev(t));
        }
        drop(sink.finish().unwrap());
        let clean = std::fs::read_to_string(&path).unwrap();
        let mut torn = clean.clone();
        torn.push_str("{\"Shed\":{\"at");
        std::fs::write(&path, &torn).unwrap();

        // Resume from a checkpoint taken after 2 events: the third
        // record AND the fragment are both past the checkpoint, so
        // truncation discards them before appending.
        let mut resumed = JsonlSink::resume_at(&path, 2).unwrap();
        assert_eq!(resumed.lines(), 2);
        resumed.record(&ev(2));
        drop(resumed.finish().unwrap());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), clean);

        // A checkpoint past the log's whole records is refused.
        std::fs::write(&path, &torn).unwrap();
        let err = JsonlSink::resume_at(&path, 4).unwrap_err();
        assert!(err.to_string().contains("3 whole records"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sampling_header_round_trips_and_is_not_an_event() {
        let dir = std::env::temp_dir().join(format!("ramsis-sink-smp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sampled.jsonl");
        let mut sink = JsonlSink::create_sampled(&path, 0.01, 0xFEED).unwrap();
        sink.record(&ev(0));
        assert_eq!(sink.lines(), 1, "headers are not records");
        drop(sink.finish().unwrap());
        let text = std::fs::read_to_string(&path).unwrap();
        let parsed = parse_jsonl_tolerant(&text).unwrap();
        assert_eq!(parsed.sample_rate, Some(0.01));
        assert_eq!(parsed.sample_seed, Some(0xFEED));
        assert_eq!(parsed.schema_version, Some(JSONL_SCHEMA_VERSION));
        assert_eq!(parsed.events, vec![ev(0)]);
        assert_eq!(parsed.unknown_events, 0);
        // The strict parser skips both header lines as metadata.
        assert_eq!(parse_jsonl(&text).unwrap(), vec![ev(0)]);
        // Unsampled logs report no rate.
        let plain = parse_jsonl_tolerant("").unwrap();
        assert_eq!(plain.sample_rate, None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_previews_are_capped_with_the_rest_only_counted() {
        let good = serde_json::to_string(&ev(1)).unwrap();
        let mut text = format!("{good}\n");
        for i in 0..(UNKNOWN_SAMPLE_CAP + 7) {
            text.push_str(&format!("{{\"FutureKind{i}\":{i}}}\n"));
        }
        let parsed = parse_jsonl_tolerant(&text).unwrap();
        assert_eq!(parsed.unknown_events, (UNKNOWN_SAMPLE_CAP + 7) as u64);
        assert_eq!(parsed.unknown_samples.len(), UNKNOWN_SAMPLE_CAP);
        assert!(parsed.unknown_samples[0].contains("FutureKind0"));
        // Previews are truncated so one giant record cannot flood.
        let long = format!("{{\"Huge\":\"{}\"}}\n", "x".repeat(4000));
        let parsed = parse_jsonl_tolerant(&long).unwrap();
        assert!(parsed.unknown_samples[0].chars().count() <= 80);
    }
}
