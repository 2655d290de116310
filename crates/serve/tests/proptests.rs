//! Property tests for the HTTP layer. Reading: arbitrary byte streams,
//! delivered in short reads of arbitrary sizes, never panic, and a
//! well-formed request parses the same however it is split. Writing: a
//! response leaves in one write, byte for byte as the header-by-header
//! rendering it replaced, and arrives whole through short writes.

use std::io::{self, BufReader, Read, Write};

use alex_serve::http::{read_request, HttpError, Request, Response};
use proptest::prelude::*;

/// Hands out `data` in reads of at most `sizes[i]` bytes, cycling through
/// `sizes`, so request boundaries fall at arbitrary points.
struct ShortReads {
    data: Vec<u8>,
    pos: usize,
    sizes: Vec<usize>,
    next: usize,
}

impl Read for ShortReads {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let size = self.sizes[self.next % self.sizes.len()];
        self.next += 1;
        let n = size.min(buf.len()).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

fn short_reads(data: Vec<u8>, sizes: Vec<usize>, capacity: usize) -> BufReader<ShortReads> {
    BufReader::with_capacity(
        capacity,
        ShortReads {
            data,
            pos: 0,
            sizes,
            next: 0,
        },
    )
}

/// A well-formed request with a `Content-Length` body.
fn arb_request() -> impl Strategy<Value = Vec<u8>> {
    (
        prop_oneof!["GET", "POST", "DELETE"],
        proptest::collection::vec("[a-z0-9_-]{1,8}", 1..4),
        proptest::collection::vec(("[a-z]{1,8}", "[ -~]{0,24}"), 0..5),
        proptest::collection::vec(any::<u8>(), 0..300),
    )
        .prop_map(|(method, segments, headers, body)| {
            let path: String = segments.iter().map(|s| format!("/{s}")).collect();
            let mut text = format!("{method} {path}?k=v HTTP/1.1\r\nHost: t\r\n");
            for (name, value) in headers {
                text.push_str(&format!("x-{name}: {value}\r\n"));
            }
            text.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
            let mut bytes = text.into_bytes();
            bytes.extend_from_slice(&body);
            bytes
        })
}

/// A byte stream: garbage, a request cut short and followed by garbage,
/// or a request with one byte overwritten.
fn arb_stream() -> impl Strategy<Value = Vec<u8>> {
    (
        arb_request(),
        proptest::collection::vec(any::<u8>(), 0..400),
        any::<usize>(),
        0u8..3,
    )
        .prop_map(|(request, garbage, at, shape)| match shape {
            0 => garbage,
            1 => {
                let mut bytes = request[..at % (request.len() + 1)].to_vec();
                bytes.extend_from_slice(&garbage);
                bytes
            }
            _ => {
                let mut bytes = request;
                let i = at % bytes.len();
                bytes[i] = garbage.first().copied().unwrap_or(b'\n');
                bytes
            }
        })
}

fn sizes() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(1usize..40, 1..8)
}

fn parse_whole(bytes: &[u8]) -> Result<Request, HttpError> {
    read_request(&mut BufReader::new(bytes))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes in arbitrary short reads: every request on the
    /// stream parses or fails with a typed error, and the parser never
    /// panics or reports an I/O failure the reader never produced.
    #[test]
    fn arbitrary_streams_never_panic(
        stream in arb_stream(),
        sizes in sizes(),
        capacity in 1usize..64,
    ) {
        let mut reader = short_reads(stream, sizes, capacity);
        for _ in 0..4 {
            match read_request(&mut reader) {
                Ok(_) => continue,
                Err(HttpError::Io(e)) => panic!("I/O error from an infallible reader: {e}"),
                Err(HttpError::Timeout { .. }) => panic!("timeout from an infallible reader"),
                Err(_) => break,
            }
        }
    }

    /// A well-formed request split at arbitrary points parses equal to
    /// the unsplit request, and the stream is empty after it.
    #[test]
    fn split_requests_parse_like_whole_ones(
        request in arb_request(),
        sizes in sizes(),
        capacity in 1usize..64,
    ) {
        let whole = parse_whole(&request).expect("well-formed request parses");
        let mut reader = short_reads(request, sizes, capacity);
        let split = read_request(&mut reader).expect("split request parses");
        prop_assert_eq!(&split, &whole);
        prop_assert!(matches!(read_request(&mut reader), Err(HttpError::Closed)));
    }
}

/// Accepts at most `sizes[i]` bytes per `write`, cycling through `sizes`,
/// and counts the calls.
struct ShortWrites {
    out: Vec<u8>,
    sizes: Vec<usize>,
    writes: usize,
}

impl Write for ShortWrites {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.sizes[self.writes % self.sizes.len()].min(buf.len());
        self.writes += 1;
        self.out.extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The response framing as `Response::write_to` wrote it before it
/// rendered into one buffer: one `write!` per header line.
fn reference_rendering(resp: &Response, keep_alive: bool) -> Vec<u8> {
    let mut w = Vec::new();
    let keep = keep_alive && !resp.close;
    write!(
        w,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        resp.status,
        Response::reason(resp.status),
        resp.content_type,
        resp.body.len(),
        if keep { "keep-alive" } else { "close" },
    )
    .unwrap();
    for (name, value) in &resp.extra_headers {
        write!(w, "{name}: {value}\r\n").unwrap();
    }
    w.write_all(b"\r\n").unwrap();
    w.write_all(&resp.body).unwrap();
    w
}

const CONTENT_TYPES: [&str; 2] = ["text/plain; charset=utf-8", "application/json"];
const HEADER_NAMES: [&str; 3] = ["X-Request-Id", "X-Trace", "Retry-After"];

/// A response with any status (unknown codes too), 0–3 extra headers, a
/// 0–64 KiB body, and a forced close or not.
fn arb_response() -> impl Strategy<Value = Response> {
    (
        prop_oneof![
            100u16..600,
            prop_oneof![200u16..201, 400u16..401, 404u16..405, 503u16..504]
        ],
        0..CONTENT_TYPES.len(),
        proptest::collection::vec((0..HEADER_NAMES.len(), "[ -~]{0,40}"), 0..4),
        proptest::collection::vec(any::<u8>(), 0..64 * 1024),
        any::<bool>(),
    )
        .prop_map(|(status, content_type, headers, body, close)| Response {
            status,
            content_type: CONTENT_TYPES[content_type],
            body,
            close,
            extra_headers: (headers.into_iter())
                .map(|(name, value)| (HEADER_NAMES[name], value))
                .collect(),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A writer that accepts everything gets the whole response in one
    /// `write`, equal to the reference rendering.
    #[test]
    fn a_response_leaves_in_one_write_with_the_reference_bytes(
        resp in arb_response(),
        keep_alive: bool,
    ) {
        let mut w = ShortWrites { out: Vec::new(), sizes: vec![usize::MAX], writes: 0 };
        resp.write_to(&mut w, keep_alive).unwrap();
        prop_assert_eq!(w.writes, 1);
        prop_assert!(w.out == reference_rendering(&resp, keep_alive), "bytes differ");
    }

    /// A writer that takes a few bytes at a time still receives every
    /// byte, in order.
    #[test]
    fn short_writes_receive_the_whole_response(
        resp in arb_response(),
        keep_alive: bool,
        sizes in proptest::collection::vec(1usize..4096, 1..8),
    ) {
        let mut w = ShortWrites { out: Vec::new(), sizes, writes: 0 };
        resp.write_to(&mut w, keep_alive).unwrap();
        prop_assert!(w.out == reference_rendering(&resp, keep_alive), "bytes differ");
    }
}
