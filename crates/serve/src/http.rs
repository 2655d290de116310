//! A minimal HTTP/1.1 implementation over blocking sockets.
//!
//! Hand-rolled on purpose: the curation API needs exactly request parsing,
//! keep-alive, timeouts, and response framing — no TLS, no chunked bodies,
//! no routing DSL — and the build environment is offline, so the server
//! stands on `std::net` alone.
//!
//! Limits are fixed and small (the API exchanges short JSON documents):
//! 32 KiB of headers, 16 MiB of body. Requests with larger framing are
//! rejected before the body is read.

use std::io::{self, BufRead, Read, Write};

use serde_json::Value;

/// Maximum accepted size of the request line plus all headers.
pub const MAX_HEAD_BYTES: usize = 32 * 1024;
/// Maximum accepted `Content-Length`.
pub const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// One parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Upper-case method, e.g. `GET`.
    pub method: String,
    /// Request path without the query string.
    pub path: String,
    /// Raw query string (after `?`), if any.
    pub query: Option<String>,
    /// `true` for `HTTP/1.1`, `false` for `HTTP/1.0`.
    pub http11: bool,
    /// Headers with lower-cased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// Request body (may be empty).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header, by case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the connection should stay open after responding:
    /// HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close, and an explicit
    /// `Connection` header overrides either.
    pub fn wants_keep_alive(&self) -> bool {
        match self.header("connection").map(|v| v.to_ascii_lowercase()) {
            Some(v) if v.contains("close") => false,
            Some(v) if v.contains("keep-alive") => true,
            _ => self.http11,
        }
    }

    /// The body parsed as a JSON value, or a human-readable error.
    pub fn json_body(&self) -> Result<Value, String> {
        let text = std::str::from_utf8(&self.body).map_err(|_| "body is not UTF-8".to_string())?;
        if text.trim().is_empty() {
            return Err("empty body (expected a JSON object)".into());
        }
        serde_json::parse_value_str(text).map_err(|e| format!("invalid JSON body: {e}"))
    }

    /// The query string split into `key=value` pairs, percent-decoded
    /// (`+` decodes to space, as browsers send form data). Pairs without
    /// `=` get an empty value; escapes were validated at parse time, so
    /// decoding here cannot fail.
    pub fn query_params(&self) -> Vec<(String, String)> {
        let Some(query) = &self.query else {
            return Vec::new();
        };
        query
            .split('&')
            .filter(|p| !p.is_empty())
            .map(|pair| {
                let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
                (
                    percent_decode(k, true).unwrap_or_else(|_| k.to_string()),
                    percent_decode(v, true).unwrap_or_else(|_| v.to_string()),
                )
            })
            .collect()
    }
}

/// Decodes `%XX` escapes (and, for query components, `+` as space).
/// Rejects truncated or non-hex escapes and sequences that do not decode
/// to UTF-8.
pub fn percent_decode(raw: &str, plus_as_space: bool) -> Result<String, String> {
    let mut out = Vec::with_capacity(raw.len());
    let bytes = raw.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes
                    .get(i + 1..i + 3)
                    .and_then(|h| std::str::from_utf8(h).ok())
                    .and_then(|h| u8::from_str_radix(h, 16).ok())
                    .ok_or_else(|| format!("invalid percent escape in {raw:?}"))?;
                out.push(hex);
                i += 3;
            }
            b'+' if plus_as_space => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).map_err(|_| format!("percent escapes in {raw:?} are not UTF-8"))
}

/// Why reading a request failed.
#[derive(Debug)]
pub enum HttpError {
    /// The peer closed the connection cleanly before sending anything —
    /// the normal end of a keep-alive connection.
    Closed,
    /// The socket read timed out. `started` tells whether any bytes of a
    /// request had arrived (→ 408) or the connection was merely idle.
    Timeout {
        /// Whether a partial request had started arriving.
        started: bool,
    },
    /// Request line or headers were syntactically invalid.
    Malformed(String),
    /// Head or declared body exceeded the fixed limits.
    TooLarge(&'static str),
    /// Any other socket error.
    Io(io::Error),
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Reads one request from `reader` (a buffered socket with a read
/// timeout installed). Blocks until a full request, EOF, or timeout.
pub fn read_request<R: BufRead>(reader: &mut R) -> Result<Request, HttpError> {
    let mut head_len = 0;
    // Request line.
    let first = read_line(reader, &mut head_len, false)?;
    let (method, path_q, http11) = parse_request_line(&first)?;

    // Headers until the blank line.
    let mut headers = Vec::new();
    loop {
        let line = read_line(reader, &mut head_len, true)?;
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("header without ':': {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    // Body, if Content-Length says so. Chunked encoding is not supported.
    // Duplicate Content-Length headers are rejected outright (even when
    // the copies agree): ambiguous framing is how request smuggling
    // starts, and no legitimate client sends two.
    let mut body = Vec::new();
    let lengths: Vec<&str> = headers
        .iter()
        .filter(|(n, _)| n == "content-length")
        .map(|(_, v)| v.as_str())
        .collect();
    if lengths.len() > 1 {
        return Err(HttpError::Malformed(format!(
            "{} Content-Length headers in one request",
            lengths.len()
        )));
    }
    let content_length = lengths
        .first()
        .map(|v| v.parse::<usize>())
        .transpose()
        .map_err(|_| HttpError::Malformed("Content-Length is not a number".into()))?;
    if headers
        .iter()
        .any(|(n, v)| n == "transfer-encoding" && v.contains("chunked"))
    {
        return Err(HttpError::Malformed(
            "chunked transfer encoding is not supported".into(),
        ));
    }
    if let Some(len) = content_length {
        if len > MAX_BODY_BYTES {
            return Err(HttpError::TooLarge("body"));
        }
        body.resize(len, 0);
        let mut filled = 0;
        while filled < len {
            match reader.read(&mut body[filled..]) {
                Ok(0) => {
                    return Err(HttpError::Malformed(
                        "body shorter than Content-Length".into(),
                    ))
                }
                Ok(n) => filled += n,
                Err(e) if is_timeout(&e) => return Err(HttpError::Timeout { started: true }),
                Err(e) => return Err(HttpError::Io(e)),
            }
        }
    }

    // Percent-decode the path so escaped segments (`%20` and friends)
    // route like their literal spelling. The query string stays raw —
    // decoding it wholesale would corrupt `&`/`=` inside values — but its
    // escapes are validated here so `query_params()` cannot fail later.
    let (raw_path, query) = match path_q.split_once('?') {
        Some((p, q)) => (p.to_string(), Some(q.to_string())),
        None => (path_q, None),
    };
    let path = percent_decode(&raw_path, false).map_err(HttpError::Malformed)?;
    if let Some(q) = &query {
        for part in q.split('&') {
            let (k, v) = part.split_once('=').unwrap_or((part, ""));
            percent_decode(k, true).map_err(HttpError::Malformed)?;
            percent_decode(v, true).map_err(HttpError::Malformed)?;
        }
    }
    Ok(Request {
        method,
        path,
        query,
        http11,
        headers,
        body,
    })
}

/// Reads one CRLF-terminated line, adding its raw length to `head_len`
/// for the size cap. The read stops one byte past the head budget still
/// left, so a line with no newline cannot make it consume (or buffer) more
/// than [`MAX_HEAD_BYTES`] in all. `started` is whether earlier request
/// bytes already arrived (distinguishes idle-timeout from mid-request
/// timeout, and clean close from truncation).
fn read_line<R: BufRead>(
    reader: &mut R,
    head_len: &mut usize,
    started: bool,
) -> Result<String, HttpError> {
    let mut line = Vec::new();
    // `head_len` never exceeds the cap between calls: a line that takes
    // it past is an error.
    let budget = (MAX_HEAD_BYTES + 1 - *head_len) as u64;
    match reader.take(budget).read_until(b'\n', &mut line) {
        Ok(0) => {
            if started || *head_len > 0 {
                Err(HttpError::Malformed("unexpected end of stream".into()))
            } else {
                Err(HttpError::Closed)
            }
        }
        Ok(_) => {
            *head_len += line.len();
            if *head_len > MAX_HEAD_BYTES {
                return Err(HttpError::TooLarge("headers"));
            }
            while line.last() == Some(&b'\n') || line.last() == Some(&b'\r') {
                line.pop();
            }
            String::from_utf8(line).map_err(|_| HttpError::Malformed("non-UTF-8 header".into()))
        }
        Err(e) if is_timeout(&e) => Err(HttpError::Timeout {
            started: started || *head_len > 0,
        }),
        Err(e) => Err(HttpError::Io(e)),
    }
}

fn parse_request_line(line: &str) -> Result<(String, String, bool), HttpError> {
    let mut parts = line.split_whitespace();
    let (Some(method), Some(path), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::Malformed(format!("bad request line: {line:?}")));
    };
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        other => {
            return Err(HttpError::Malformed(format!(
                "unsupported version {other:?}"
            )))
        }
    };
    if !path.starts_with('/') {
        return Err(HttpError::Malformed(format!("bad path: {path:?}")));
    }
    Ok((method.to_ascii_uppercase(), path.to_string(), http11))
}

/// One response ready to be framed onto the wire.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: Vec<u8>,
    /// Forces `Connection: close` regardless of the request's preference.
    pub close: bool,
    /// Additional headers (name, value), written after the standard set.
    /// Used for per-request metadata such as `X-Request-Id`.
    pub extra_headers: Vec<(&'static str, String)>,
}

impl Response {
    /// A `text/plain` response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into().into_bytes(),
            close: false,
            extra_headers: Vec::new(),
        }
    }

    /// An `application/json` response from a value tree.
    pub fn json(status: u16, value: &Value) -> Self {
        let mut body = value.to_json_string(false);
        body.push('\n');
        Response {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
            close: false,
            extra_headers: Vec::new(),
        }
    }

    /// A JSON error envelope: `{"error": message}`.
    pub fn error(status: u16, message: impl Into<String>) -> Self {
        Response::json(
            status,
            &Value::Object(vec![("error".into(), Value::String(message.into()))]),
        )
    }

    /// Standard reason phrase for the status codes this server emits.
    pub fn reason(status: u16) -> &'static str {
        match status {
            200 => "OK",
            201 => "Created",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            413 => "Payload Too Large",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// Writes the full response in one `write_all`: the head and the body
    /// are rendered into one buffer first, so a `TCP_NODELAY` socket sends
    /// the response as one burst instead of a segment per header line.
    /// `keep_alive` decides the `Connection` header (overridden by
    /// [`Response::close`]).
    pub fn write_to<W: Write>(&self, w: &mut W, keep_alive: bool) -> io::Result<()> {
        let keep = keep_alive && !self.close;
        // The fixed head is under 160 bytes; 256 leaves room for
        // `X-Request-Id` without a regrow.
        let mut out = Vec::with_capacity(256 + self.body.len());
        write!(
            out,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            Self::reason(self.status),
            self.content_type,
            self.body.len(),
            if keep { "keep-alive" } else { "close" },
        )?;
        for (name, value) in &self.extra_headers {
            write!(out, "{name}: {value}\r\n")?;
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
        w.write_all(&out)?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(text: &str) -> Result<Request, HttpError> {
        read_request(&mut BufReader::new(text.as_bytes()))
    }

    #[test]
    fn parses_get_with_query_and_headers() {
        let req =
            parse("GET /sessions/s1/links?limit=5 HTTP/1.1\r\nHost: x\r\nAccept: */*\r\n\r\n")
                .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/sessions/s1/links");
        assert_eq!(req.query.as_deref(), Some("limit=5"));
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("HOST"), Some("x"));
        assert!(req.wants_keep_alive(), "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn parses_post_body_by_content_length() {
        let req =
            parse("POST /sessions HTTP/1.1\r\nContent-Length: 11\r\n\r\n{\"a\": true}").unwrap();
        assert_eq!(req.body, b"{\"a\": true}");
        assert_eq!(
            req.json_body().unwrap().get("a").unwrap().as_bool(),
            Some(true)
        );
    }

    #[test]
    fn connection_header_overrides_default() {
        let req = parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!req.wants_keep_alive());
        let req = parse("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(req.wants_keep_alive());
        let req = parse("GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!req.wants_keep_alive(), "HTTP/1.0 defaults to close");
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        assert!(matches!(
            parse("NOT-HTTP\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET x HTTP/1.1\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET / HTTP/2\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nbroken header\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nContent-Length: ten\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        // Truncated body.
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort"),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn duplicate_content_length_is_rejected() {
        // Conflicting copies: classic request-smuggling framing.
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 11\r\n\r\n{\"a\": true}"),
            Err(HttpError::Malformed(m)) if m.contains("Content-Length")
        ));
        // Even identical copies are refused — framing must be unambiguous.
        assert!(matches!(
            parse(
                "POST / HTTP/1.1\r\nContent-Length: 11\r\nContent-Length: 11\r\n\r\n{\"a\": true}"
            ),
            Err(HttpError::Malformed(_))
        ));
        // A single header still works as before.
        let req = parse("POST / HTTP/1.1\r\nContent-Length: 11\r\n\r\n{\"a\": true}").unwrap();
        assert_eq!(req.body, b"{\"a\": true}");
    }

    #[test]
    fn paths_are_percent_decoded_before_routing() {
        let req = parse("GET /sessions/my%20session/links HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.path, "/sessions/my session/links");
        // UTF-8 escapes decode to the character, not raw bytes.
        let req = parse("GET /caf%C3%A9 HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.path, "/café");
        // `+` is NOT a space in the path component.
        let req = parse("GET /a+b HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.path, "/a+b");
        // Truncated and non-hex escapes are malformed, not passed through.
        assert!(matches!(
            parse("GET /bad%2 HTTP/1.1\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET /bad%zz HTTP/1.1\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        // Escapes that decode to invalid UTF-8 are rejected too.
        assert!(matches!(
            parse("GET /bad%ff%fe HTTP/1.1\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn query_strings_are_percent_decoded_per_parameter() {
        let req = parse("GET /links?name=a%26b&page=1+2&flag HTTP/1.1\r\n\r\n").unwrap();
        // The raw query survives untouched...
        assert_eq!(req.query.as_deref(), Some("name=a%26b&page=1+2&flag"));
        // ...and decoding happens per key/value, so `%26` does not split.
        assert_eq!(
            req.query_params(),
            vec![
                ("name".to_string(), "a&b".to_string()),
                ("page".to_string(), "1 2".to_string()),
                ("flag".to_string(), String::new()),
            ]
        );
        // Bad escapes in the query are caught at parse time.
        assert!(matches!(
            parse("GET /links?x=%G1 HTTP/1.1\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn clean_eof_is_closed_not_error() {
        assert!(matches!(parse(""), Err(HttpError::Closed)));
        // EOF mid-request is truncation, not a clean close.
        assert!(matches!(parse("GET / HT"), Err(HttpError::Malformed(_))));
    }

    #[test]
    fn oversized_declarations_are_refused() {
        let big = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(parse(&big), Err(HttpError::TooLarge("body"))));
        let huge_header = format!(
            "GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "y".repeat(MAX_HEAD_BYTES)
        );
        assert!(matches!(
            parse(&huge_header),
            Err(HttpError::TooLarge("headers"))
        ));
    }

    /// A 4 MiB request line with no newline, counting what is read.
    struct LongLine {
        remaining: usize,
        consumed: usize,
    }

    impl Read for LongLine {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(self.remaining);
            buf[..n].fill(b'a');
            self.remaining -= n;
            self.consumed += n;
            Ok(n)
        }
    }

    #[test]
    fn an_unterminated_line_is_refused_within_the_head_budget() {
        let mut reader = BufReader::new(LongLine {
            remaining: 4 << 20,
            consumed: 0,
        });
        let capacity = reader.capacity();
        assert!(matches!(
            read_request(&mut reader),
            Err(HttpError::TooLarge("headers"))
        ));
        let consumed = reader.get_ref().consumed;
        assert!(
            consumed <= MAX_HEAD_BYTES + capacity,
            "read {consumed} bytes for a {MAX_HEAD_BYTES}-byte head budget"
        );
    }

    #[test]
    fn response_framing_is_complete() {
        let mut out = Vec::new();
        Response::text(200, "ok\n")
            .write_to(&mut out, true)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 3\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\nok\n"));

        let mut out = Vec::new();
        Response::error(503, "queue full")
            .write_to(&mut out, true)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.ends_with("{\"error\":\"queue full\"}\n"));
    }

    #[test]
    fn extra_headers_are_written_before_the_blank_line() {
        let mut resp = Response::text(200, "ok\n");
        resp.extra_headers.push(("X-Request-Id", "r42".into()));
        let mut out = Vec::new();
        resp.write_to(&mut out, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("X-Request-Id: r42\r\n"));
        let head_end = text.find("\r\n\r\n").unwrap();
        assert!(text.find("X-Request-Id").unwrap() < head_end);
        assert!(text.ends_with("\r\n\r\nok\n"));
    }

    #[test]
    fn forced_close_wins_over_keep_alive() {
        let mut resp = Response::text(200, "bye");
        resp.close = true;
        let mut out = Vec::new();
        resp.write_to(&mut out, true).unwrap();
        assert!(String::from_utf8(out)
            .unwrap()
            .contains("Connection: close\r\n"));
    }
}
