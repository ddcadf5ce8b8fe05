//! Property tests for the compact binary event codec (ISSUE 10
//! satellite): over random event sequences — covering every field
//! shape the model has (varint ints, signed slack, strings, floats,
//! nested enums) — JSONL ⇄ binary ⇄ JSONL must be lossless and
//! byte-identical, truncating a binary stream anywhere must heal to a
//! whole-record prefix, sampling metadata must survive both
//! encodings, and the streaming reader must read any chunking of any
//! stream, cut anywhere, exactly as the slice parser reads it whole.

use proptest::prelude::*;

use ramsis_telemetry::{
    is_binary_stream, parse_bin_tolerant, parse_decisions_tolerant, parse_tolerant, write_bin,
    write_jsonl, Action, CandidateAction, ChosenAction, DecisionRecord, DecisionSink,
    DecisionState, Event, EventReader, JsonlDecisionSink, ParsedLog, QueueId, ReasonCode,
    ShedCause,
};

/// Builds one event from raw samples. `kind` picks the variant and the
/// three integers (plus a flag) fill its fields, stretched across the
/// encoder's whole field-type zoo: u64/u32 varints (including the
/// full-width extremes), zig-zag i64, bool, String, f64, and the
/// nested `QueueId` / `ShedCause` / `Action` enums.
fn event_of(kind: u64, a: u64, b: u64, c: u64, flag: bool) -> Event {
    let at = a;
    let query = b;
    let worker = (c & 0xffff_ffff) as u32;
    let small = (c >> 32) as u32;
    let queue = match c % 3 {
        0 => QueueId::Central,
        1 => QueueId::Worker(worker),
        _ => QueueId::Limbo,
    };
    let cause = match c % 4 {
        0 => ShedCause::Hopeless,
        1 => ShedCause::QueueDepth,
        2 => ShedCause::Policy,
        _ => ShedCause::RetryExhausted,
    };
    let action = match c % 3 {
        0 => Action::Serve {
            model: small,
            batch: worker,
        },
        1 => Action::Drop { count: small },
        _ => Action::Idle,
    };
    // Finite non-negative floats: the engine only records magnitudes,
    // so the canonical stream never carries a negative zero (which the
    // JSONL side's shortest-round-trip formatting cannot preserve).
    let qps = (b % 10_000_000) as f64 / 1000.0;
    let label = |n: u64| format!("regime-{}", n % 100);
    match kind % 16 {
        0 => Event::Arrival {
            at,
            query,
            deadline: c,
        },
        1 => Event::Enqueue {
            at,
            query,
            queue,
            depth: small,
        },
        2 => Event::Dispatch {
            at,
            worker,
            model: small,
            batch: small ^ 1,
            depth: small >> 3,
        },
        3 => Event::Complete {
            at,
            query,
            worker,
            model: small,
            response_ns: c,
            violated: flag,
        },
        4 => Event::Shed { at, query, cause },
        5 => Event::Drop { at, query },
        6 => Event::CrashRequeue {
            at,
            query,
            from: worker,
        },
        7 => Event::PolicyDecision {
            at,
            worker,
            queued: small,
            // Zig-zag coverage: both signs, both extremes.
            slack_ns: i64::from_le_bytes(b.to_le_bytes()),
            action,
        },
        8 => Event::RegimeSwap {
            at,
            from: label(b),
            to: label(c),
            detection_delay_ns: c,
        },
        9 => Event::Timeout {
            at,
            query,
            worker,
            attempt: small,
        },
        10 => Event::Retry {
            at,
            query,
            attempt: small,
            delay_ns: c,
        },
        11 => Event::HedgeIssued {
            at,
            primary: worker,
            hedge: small,
            model: small >> 7,
            batch: worker & 0xff,
        },
        12 => Event::Admission {
            at,
            query,
            queue,
            depth: small,
            sojourn_ns: c,
        },
        13 => Event::BrownoutEnter {
            at,
            rung: small % 8,
            load_qps: qps,
            capacity_qps: qps * 0.75,
        },
        14 => Event::Suspect {
            at,
            worker,
            genuine: flag,
            lag_ns: if flag { c } else { 0 },
        },
        _ => Event::ScaleUp {
            at,
            worker,
            live: small,
        },
    }
}

/// Expands raw samples into an event stream.
fn stream_of(samples: &[(u64, u64, u64, u64, bool)]) -> Vec<Event> {
    samples
        .iter()
        .map(|&(kind, a, b, c, flag)| event_of(kind, a, b, c, flag))
        .collect()
}

/// Sampling metadata from raw samples: `None` for one third of draws,
/// otherwise a rate in (0, 1] with an arbitrary seed.
fn sampling_of(sel: u64, seed: u64) -> Option<(f64, u64)> {
    match sel % 3 {
        0 => None,
        1 => Some((1.0, seed)),
        _ => Some(((sel % 1000 + 1) as f64 / 1000.0, seed)),
    }
}

/// One raw sample: variant selector, three full-width integers (so
/// varint encodings hit 1-byte through 10-byte lengths), and a flag.
type RawSample = (
    std::ops::Range<u64>,
    Any<u64>,
    Any<u64>,
    Any<u64>,
    Any<bool>,
);

/// The strategy behind every test.
fn samples() -> proptest::collection::VecStrategy<RawSample> {
    proptest::collection::vec(
        (
            0u64..16,
            proptest::num::u64::ANY,
            proptest::num::u64::ANY,
            proptest::num::u64::ANY,
            proptest::bool::ANY,
        ),
        0..60,
    )
}

use proptest::Any;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Binary encode → tolerant decode is the identity on events and
    /// sampling metadata, and the stream self-identifies by magic.
    #[test]
    fn binary_encoding_round_trips(
        raw in samples(),
        sel in 0u64..6,
        seed in proptest::num::u64::ANY,
    ) {
        let events = stream_of(&raw);
        let sampling = sampling_of(sel, seed);
        let bin = write_bin(&events, sampling);
        prop_assert!(is_binary_stream(&bin));
        let parsed = parse_bin_tolerant(&bin).unwrap();
        prop_assert_eq!(&parsed.events, &events);
        prop_assert!(parsed.torn_tail.is_none());
        prop_assert_eq!(parsed.unknown_events, 0);
        prop_assert_eq!(parsed.sample_rate, sampling.map(|(r, _)| r));
        prop_assert_eq!(parsed.sample_seed, sampling.map(|(_, s)| s));
        // The auto-detecting entry point agrees exactly.
        prop_assert_eq!(parse_tolerant(&bin).unwrap(), parsed);
    }

    /// JSONL ⇄ binary ⇄ JSONL is lossless: converting a stream to the
    /// other encoding and back reproduces the original bytes exactly,
    /// in both directions.
    #[test]
    fn jsonl_binary_jsonl_conversion_is_byte_identical(
        raw in samples(),
        sel in 0u64..6,
        seed in proptest::num::u64::ANY,
    ) {
        let events = stream_of(&raw);
        let sampling = sampling_of(sel, seed);
        let jsonl = write_jsonl(&events, sampling);
        let parsed = parse_tolerant(jsonl.as_bytes()).unwrap();
        prop_assert_eq!(&parsed.events, &events);
        let meta = parsed.sample_rate.zip(parsed.sample_seed);
        prop_assert_eq!(meta, sampling);

        let bin = write_bin(&parsed.events, meta);
        let back = parse_tolerant(&bin).unwrap();
        let jsonl2 = write_jsonl(&back.events, back.sample_rate.zip(back.sample_seed));
        prop_assert_eq!(&jsonl2, &jsonl, "JSONL → binary → JSONL must be identity");

        // And binary-first: the binary bytes regenerate exactly too.
        let bin2 = write_bin(&back.events, back.sample_rate.zip(back.sample_seed));
        prop_assert_eq!(bin2, bin, "binary → JSONL → binary must be identity");
    }

    /// Chopping a binary stream at any byte boundary past the header
    /// heals to a whole-record prefix: no parse error, no partial
    /// event, and the torn tail's reported offset truncates cleanly.
    #[test]
    fn truncated_binary_stream_heals_to_a_prefix(
        raw in samples(),
        cut_frac in 0.0f64..1.0,
    ) {
        let events = stream_of(&raw);
        let bin = write_bin(&events, None);
        let header_len = write_bin(&[], None).len();
        let cut = header_len + ((bin.len() - header_len) as f64 * cut_frac) as usize;
        let parsed = parse_bin_tolerant(&bin[..cut]).unwrap();
        prop_assert!(parsed.events.len() <= events.len());
        prop_assert_eq!(
            &parsed.events[..],
            &events[..parsed.events.len()],
            "healed prefix must be exactly the leading whole records"
        );
        if let Some(offset) = parsed.torn_tail_offset {
            prop_assert!(parsed.torn_tail.is_some());
            let healed = parse_bin_tolerant(&bin[..offset]).unwrap();
            prop_assert!(healed.torn_tail.is_none());
            prop_assert_eq!(healed.events, parsed.events);
        } else {
            // Clean cut on a record boundary: nothing was torn.
            prop_assert!(parsed.torn_tail.is_none());
        }
    }
}

/// A reader handing out its bytes in chunks of the given sizes, in
/// turn: the chunk boundaries a pipe or a slow disk might produce.
struct Chunked<'a> {
    bytes: &'a [u8],
    sizes: &'a [usize],
    reads: usize,
}

impl std::io::Read for Chunked<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let size = self.sizes[self.reads % self.sizes.len()];
        self.reads += 1;
        let n = size.min(buf.len()).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

/// The event stream read through [`Chunked`], collected.
fn read_chunked(bytes: &[u8], sizes: &[usize]) -> Result<ParsedLog, String> {
    let chunks = Chunked {
        bytes,
        sizes,
        reads: 0,
    };
    EventReader::new(chunks)
        .and_then(EventReader::collect_log)
        .map_err(|e| e.to_string())
}

/// The slice parser's view, with its errors worded as the reader's.
fn read_whole(bytes: &[u8]) -> Result<ParsedLog, String> {
    parse_tolerant(bytes).map_err(|e| {
        e.trim_start_matches("trace is neither RMTB binary nor UTF-8 JSONL: ")
            .to_string()
    })
}

/// Chunk sizes from raw samples: 1 to `max` bytes each.
fn chunk_sizes(raw: &[u64], max: u64) -> Vec<usize> {
    let sizes: Vec<usize> = raw.iter().map(|&r| (r % max + 1) as usize).collect();
    if sizes.is_empty() {
        vec![1]
    } else {
        sizes
    }
}

/// A JSONL stream with the shapes a hand-edited or foreign log has:
/// CRLF line endings, blank lines, unknown records, and the sampling
/// header after the first record.
fn messy_jsonl(events: &[Event], sampling: Option<(f64, u64)>, shape: u64) -> Vec<u8> {
    let text = write_jsonl(events, None);
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    if let Some((rate, seed)) = sampling {
        let header = format!("{{\"Sampling\":{{\"rate\":{rate},\"seed\":{seed}}}}}");
        lines.insert(lines.len().min(2), header);
    }
    if shape & 1 != 0 {
        lines.insert(lines.len() / 2, String::new());
        lines.insert(lines.len() / 3, "   ".to_string());
    }
    if shape & 2 != 0 {
        lines.insert(lines.len() / 2, "{\"FutureKind\":{\"at\":3}}".to_string());
    }
    let newline = if shape & 4 != 0 { "\r\n" } else { "\n" };
    let mut out = lines.join(newline);
    out.push_str(newline);
    out.into_bytes()
}

/// A binary stream with unknown-kind records spliced in.
fn bin_with_unknowns(events: &[Event], sampling: Option<(f64, u64)>, unknowns: u64) -> Vec<u8> {
    let mut bytes = write_bin(&events[..events.len() / 2], sampling);
    for i in 0..unknowns {
        bytes.extend_from_slice(&[77 + i as u8, 2, 9, 9]);
    }
    let header = write_bin(&[], sampling).len();
    bytes.extend_from_slice(&write_bin(&events[events.len() / 2..], sampling)[header..]);
    bytes
}

fn decision(k: u64, seed: u64) -> DecisionRecord {
    DecisionRecord {
        k,
        at: k * 1_000 + seed % 1_000,
        event: 3 * k,
        query: (!seed.is_multiple_of(3)).then_some(k),
        worker: (seed % 4) as u32,
        state: (!seed.is_multiple_of(5)).then_some(DecisionState {
            load_qps: (seed % 100_000) as f64 / 100.0,
            queued: (seed % 7) as u32,
            slack_ns: -((seed % 9_000) as i64),
            live_workers: 2,
        }),
        regime: seed
            .is_multiple_of(2)
            .then(|| format!("regime-{}", seed % 10)),
        candidates: (0..seed % 3)
            .map(|m| CandidateAction {
                model: m as u32,
                batch: 4,
                expected_slack_ns: 1_000 - (m as i64) * 700,
                value: 0.5 + m as f64 / 10.0,
            })
            .collect(),
        chosen: ChosenAction::Serve { model: 1, batch: 4 },
        effective: None,
        reason: ReasonCode::PolicyLookup,
    }
}

fn decision_log(n: u64, seed: u64) -> Vec<u8> {
    let mut sink = JsonlDecisionSink::new(Vec::new());
    let header = "{\"Schema\":{\"stream\":\"decisions\",\"version\":1}}\n";
    for k in 0..n {
        sink.record(&decision(k, seed.wrapping_mul(k + 1)));
    }
    let mut bytes = header.as_bytes().to_vec();
    bytes.extend_from_slice(&sink.finish().unwrap());
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The streaming reader gives what the slice parser gives, however
    /// its input is chunked: records, torn tail and its offset, unknown
    /// records and their previews, schema version and sampling header —
    /// for both event codecs, messy JSONL, and every truncation point.
    #[test]
    fn chunked_reading_matches_the_slice_parser(
        raw in samples(),
        sel in 0u64..6,
        seed in proptest::num::u64::ANY,
        shape in 0u64..8,
        sizes in proptest::collection::vec(proptest::num::u64::ANY, 0..12),
    ) {
        let events = stream_of(&raw);
        let sampling = sampling_of(sel, seed);
        let sizes = chunk_sizes(&sizes, 1 + seed % 97);
        let streams = [
            write_bin(&events, sampling),
            bin_with_unknowns(&events, sampling, shape),
            write_jsonl(&events, sampling).into_bytes(),
            messy_jsonl(&events, sampling, shape),
        ];
        for bytes in &streams {
            prop_assert_eq!(read_chunked(bytes, &sizes), read_whole(bytes));
        }
        // Every truncation point of a short stream.
        let short = &events[..events.len().min(4)];
        for bytes in [write_bin(short, sampling), messy_jsonl(short, sampling, shape)] {
            for cut in 0..=bytes.len() {
                let torn = &bytes[..cut];
                prop_assert_eq!(read_chunked(torn, &sizes), read_whole(torn), "cut at {}", cut);
            }
        }
    }

    /// The decision log reads the same way: chunked or whole, cut
    /// anywhere.
    #[test]
    fn chunked_decision_log_matches_the_slice_parser(
        n in 0u64..6,
        seed in proptest::num::u64::ANY,
        sizes in proptest::collection::vec(proptest::num::u64::ANY, 0..12),
    ) {
        let sizes = chunk_sizes(&sizes, 1 + seed % 61);
        let bytes = decision_log(n, seed);
        for cut in 0..=bytes.len() {
            let torn = &bytes[..cut];
            let text = std::str::from_utf8(torn).expect("decision logs are ASCII");
            let chunks = Chunked { bytes: torn, sizes: &sizes, reads: 0 };
            let streamed: Result<ParsedLog<DecisionRecord>, String> = EventReader::new(chunks)
                .and_then(EventReader::collect_log)
                .map_err(|e| e.to_string());
            prop_assert_eq!(streamed, parse_decisions_tolerant(text), "cut at {}", cut);
        }
    }
}
