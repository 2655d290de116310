//! Property tests for the HTTP request parser: arbitrary byte streams,
//! delivered in short reads of arbitrary sizes, never panic, and a
//! well-formed request parses the same however it is split.

use std::io::{self, BufReader, Read};

use alex_serve::http::{read_request, HttpError, Request};
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
