//! Unstructured-byte fuzzing of the wire: request framing
//! (`CappedLineReader`) and request parsing (`parse_request`). Hostile
//! bytes must produce a line, an `Oversized` report, a clean I/O error or
//! an `error:`-bound `Malformed` parse — never a panic, and never a line
//! longer than `MAX_LINE_BYTES`.

use proptest::prelude::*;
use std::io::Read;
use tim_server::{parse_request, CappedLine, CappedLineReader, ParsedRequest, MAX_LINE_BYTES};

const CAP: usize = MAX_LINE_BYTES as usize;

/// A byte stream that hands out its data in pseudo-random chunks of 1 to
/// 8192 bytes, so lines straddle the reader's buffer refills.
struct Chunked {
    data: Vec<u8>,
    pos: usize,
    rng: u64,
}

impl Read for Chunked {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let want = (self.rng % 8192) as usize + 1;
        let n = want.min(buf.len()).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// One line of a generated stream: its content (never a `\n`) and its
/// terminator (`\n`, `\r\n`, or none on the last line).
struct Segment {
    content: Vec<u8>,
    terminator: &'static [u8],
}

/// Builds a line of `len` bytes: a filler byte with arbitrary bytes
/// sprinkled in, every `\n` replaced so the line stays one line.
fn content(len: usize, fill: u8, sprinkle: &[u8]) -> Vec<u8> {
    let mut bytes = vec![fill; len];
    for (i, &b) in sprinkle.iter().enumerate() {
        if len > 0 {
            bytes[(i * 7919) % len] = b;
        }
    }
    for b in &mut bytes {
        if *b == b'\n' {
            *b = b'x';
        }
    }
    bytes
}

/// Lengths drawn around the cap as often as below it: short lines, lines
/// within two bytes of the cap, and lines well over it.
fn length(kind: u8, offset: usize) -> usize {
    match kind {
        0 => offset % 64,
        1 => CAP - 2 + offset % 5,
        _ => CAP + 3 + offset % 4096,
    }
}

/// What the reader must yield for `segment`: the line with a CRLF's `\r`
/// stripped, `None` for a line over the cap.
fn expected(segment: &Segment) -> Option<Vec<u8>> {
    let mut line = segment.content.clone();
    if segment.terminator == b"\n" && line.last() == Some(&b'\r') {
        line.pop();
    }
    (line.len() <= CAP).then_some(line)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn capped_reader_never_returns_an_over_long_line(
        lines in proptest::collection::vec(
            (0u8..3, 0usize..100_000, 0u32..256, proptest::collection::vec(0u32..256, 0..16), 0u8..3),
            1..4,
        ),
        chunk_seed in 1u64..u64::MAX,
    ) {
        let count = lines.len();
        let segments: Vec<Segment> = lines
            .iter()
            .enumerate()
            .map(|(i, (kind, offset, fill, sprinkle, end))| {
                let sprinkle: Vec<u8> = sprinkle.iter().map(|&b| b as u8).collect();
                let terminator: &'static [u8] = match end {
                    0 if i + 1 == count => b"",
                    1 => b"\r\n",
                    _ => b"\n",
                };
                Segment {
                    content: content(length(*kind, *offset), *fill as u8, &sprinkle),
                    terminator,
                }
            })
            .collect();
        let mut data = Vec::new();
        for s in &segments {
            data.extend_from_slice(&s.content);
            data.extend_from_slice(s.terminator);
        }
        let mut reader = CappedLineReader::new(Chunked { data, pos: 0, rng: chunk_seed });
        let mut line = String::new();
        for segment in &segments {
            if segment.terminator.is_empty() && segment.content.is_empty() {
                break; // nothing left to read: Eof below
            }
            let got = reader.read_line(&mut line);
            match expected(segment) {
                None => {
                    prop_assert!(matches!(got, Ok(CappedLine::Oversized)), "want Oversized");
                    prop_assert!(line.len() <= CAP, "the prefix stays within the cap");
                    return; // the session ends on an oversized line
                }
                Some(want) => match got {
                    Ok(CappedLine::Line) => {
                        prop_assert!(line.len() <= CAP);
                        prop_assert_eq!(line.as_bytes(), &want[..]);
                    }
                    // Arbitrary bytes need not be UTF-8: a clean error
                    // ends the session.
                    Err(e) => {
                        prop_assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
                        prop_assert!(std::str::from_utf8(&want).is_err());
                        return;
                    }
                    Ok(other) => panic!("want a line, got {other:?}"),
                },
            }
        }
        prop_assert!(matches!(reader.read_line(&mut line), Ok(CappedLine::Eof)));
    }

    #[test]
    fn arbitrary_bytes_frame_and_parse_without_panicking(
        bytes in proptest::collection::vec(0u32..256, 0..2048),
        chunk_seed in 1u64..u64::MAX,
    ) {
        let data: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
        let mut reader = CappedLineReader::new(Chunked { data, pos: 0, rng: chunk_seed });
        let mut line = String::new();
        while let Ok(CappedLine::Line) = reader.read_line(&mut line) {
            prop_assert!(line.len() <= CAP);
            let parsed = parse_request(&line);
            let blank = line.trim().is_empty() || line.trim().starts_with('#');
            prop_assert_eq!(blank, parsed == ParsedRequest::Empty);
        }
    }

    #[test]
    fn parse_request_survives_arbitrary_token_soup(
        words in proptest::collection::vec((0usize..TOKENS.len(), 0u32..256), 0..12),
    ) {
        // Real verbs and argument shapes at the edges of their ranges, so
        // the parse reaches every verb's argument checks.
        let line: Vec<String> = words
            .iter()
            .map(|&(t, b)| match TOKENS[t] {
                "<byte>" => char::from_u32(b).unwrap_or('?').to_string(),
                token => token.to_string(),
            })
            .collect();
        let line = line.join(" ");
        match parse_request(&line) {
            ParsedRequest::Malformed(reason) => prop_assert!(!reason.is_empty()),
            ParsedRequest::Empty => prop_assert!(line.trim().is_empty() || line.trim().starts_with('#')),
            ParsedRequest::Request(_) => {}
        }
    }
}

const TOKENS: &[&str] = &[
    "select",
    "eval",
    "marginal",
    "use",
    "graphs",
    "stats",
    "pools",
    "batch",
    "ping",
    "attach",
    "detach",
    "persist",
    "fast",
    "#",
    "eps=0",
    "eps=NaN",
    "eps=1e309",
    "ell=-1",
    "ell=inf",
    "eps=0.5",
    "0",
    "1",
    "-1",
    "4294967295",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "1,2,3",
    ",,",
    "1,",
    "g=/tmp/x",
    "g=x::eps=0.2",
    "g=x::k=0",
    "g=::",
    "k=9999999999999999999999",
    "weights=const:2",
    "model=lt",
    "seed=-3",
    "<byte>",
];
