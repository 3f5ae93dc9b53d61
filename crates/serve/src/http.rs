//! Minimal HTTP/1.1 request parsing and response writing.
//!
//! Hand-rolled over `std::io` in the same spirit as the workspace's
//! vendored stand-ins — the request line and headers are parsed with
//! explicit size caps, bodies are read only up to a hard cap (`POST
//! /query` is the single body-carrying endpoint), and responses always
//! close the connection (`Connection: close`), which keeps the
//! worker-pool accounting trivial.

use std::io::{BufRead, IoSlice, Write};

/// Cap on the request line plus all header lines, in bytes.
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Cap on the number of header lines.
const MAX_HEADERS: usize = 100;
/// Cap on a request body (`POST /query` payloads), in bytes.
pub const MAX_BODY_BYTES: usize = 64 * 1024;

/// A parsed request head.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The method verb, e.g. `GET`.
    pub method: String,
    /// Decoded path component, e.g. `/topics/3`.
    pub path: String,
    /// Raw query string (no leading `?`; empty when absent).
    pub raw_query: String,
    /// Request body (empty for bodyless requests; UTF-8, lossy).
    pub body: String,
}

impl Request {
    /// The request target as received (path plus `?query` when present).
    pub fn target(&self) -> String {
        if self.raw_query.is_empty() {
            self.path.clone()
        } else {
            format!("{}?{}", self.path, self.raw_query)
        }
    }

    /// The response-cache key: the target, plus the body for
    /// body-carrying requests so distinct `POST /query` payloads never
    /// collide. Body-carrying keys start `/query\n`, a prefix no
    /// cacheable GET endpoint routes to, so the two key spaces are
    /// disjoint.
    pub fn cache_key(&self) -> String {
        if self.body.is_empty() {
            self.target()
        } else {
            format!("{}\n{}", self.target(), self.body)
        }
    }

    /// Decoded value of query parameter `name`, if present.
    pub fn query_param(&self, name: &str) -> Option<String> {
        self.raw_query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (percent_decode(k) == name).then(|| percent_decode(v))
        })
    }
}

/// Why a request could not be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpParseError {
    /// The peer closed or timed out before a full head arrived.
    Incomplete,
    /// The request line was not `METHOD TARGET HTTP/1.x`.
    BadRequestLine(String),
    /// The head exceeded [`MAX_HEAD_BYTES`] or [`MAX_HEADERS`].
    TooLarge,
    /// A `Content-Length` header did not parse as an integer.
    BadContentLength,
    /// The declared body length exceeded [`MAX_BODY_BYTES`].
    BodyTooLarge,
}

impl std::fmt::Display for HttpParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpParseError::Incomplete => write!(f, "connection closed mid-request"),
            HttpParseError::BadRequestLine(line) => write!(f, "bad request line {line:?}"),
            HttpParseError::TooLarge => write!(f, "request head too large"),
            HttpParseError::BadContentLength => write!(f, "bad content-length header"),
            HttpParseError::BodyTooLarge => write!(f, "request body too large"),
        }
    }
}

/// Decodes `%XX` escapes and `+` (space) in a URL component. Invalid
/// escapes are kept literally; invalid UTF-8 is replaced.
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                let hex = bytes.get(i + 1..i + 3);
                match hex.and_then(|h| u8::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok()) {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Reads and parses one request head from `reader`.
pub fn parse_request<R: BufRead>(reader: &mut R) -> Result<Request, HttpParseError> {
    let mut head_bytes = 0usize;
    let mut line = String::new();
    if read_line(reader, &mut line, &mut head_bytes)? == 0 {
        return Err(HttpParseError::Incomplete);
    }
    let request_line = line.trim_end_matches(['\r', '\n']).to_string();
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && v.starts_with("HTTP/1.") => {
            (m.to_string(), t.to_string(), v)
        }
        _ => return Err(HttpParseError::BadRequestLine(request_line)),
    };
    let _ = version;
    // Drain headers up to the blank line. Only `Content-Length` is
    // interpreted (it frames the body of `POST /query`); everything else
    // must still be consumed for well-formed clients.
    let mut content_length = 0usize;
    for _ in 0..MAX_HEADERS {
        line.clear();
        if read_line(reader, &mut line, &mut head_bytes)? == 0 {
            return Err(HttpParseError::Incomplete);
        }
        if line == "\r\n" || line == "\n" {
            let body = read_body(reader, content_length)?;
            let (raw_path, raw_query) =
                target.split_once('?').unwrap_or((target.as_str(), ""));
            return Ok(Request {
                method,
                path: percent_decode(raw_path),
                raw_query: raw_query.to_string(),
                body,
            });
        }
        let trimmed = line.trim_end_matches(['\r', '\n']);
        if let Some((name, value)) = trimmed.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length =
                    value.trim().parse().map_err(|_| HttpParseError::BadContentLength)?;
            }
        }
    }
    Err(HttpParseError::TooLarge)
}

/// Reads exactly `content_length` body bytes (UTF-8, invalid sequences
/// replaced by U+FFFD), enforcing
/// [`MAX_BODY_BYTES`] *before* allocating or reading anything.
fn read_body<R: BufRead>(reader: &mut R, content_length: usize) -> Result<String, HttpParseError> {
    if content_length == 0 {
        return Ok(String::new());
    }
    if content_length > MAX_BODY_BYTES {
        return Err(HttpParseError::BodyTooLarge);
    }
    let mut buf = vec![0u8; content_length];
    reader.read_exact(&mut buf).map_err(|_| HttpParseError::Incomplete)?;
    // Valid UTF-8 (every well-formed `/query` body) is kept as read; only
    // an invalid body pays for the lossy copy.
    Ok(String::from_utf8(buf)
        .unwrap_or_else(|invalid| String::from_utf8_lossy(invalid.as_bytes()).into_owned()))
}

fn read_line<R: BufRead>(
    reader: &mut R,
    line: &mut String,
    head_bytes: &mut usize,
) -> Result<usize, HttpParseError> {
    let n = reader.read_line(line).map_err(|_| HttpParseError::Incomplete)?;
    *head_bytes += n;
    if *head_bytes > MAX_HEAD_BYTES {
        return Err(HttpParseError::TooLarge);
    }
    Ok(n)
}

/// A response ready to serialize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A 200 with a `text/plain` body.
    pub fn ok(body: impl Into<Vec<u8>>) -> Self {
        Self { status: 200, content_type: "text/plain; charset=utf-8", body: body.into() }
    }

    /// A 200 with an `application/json` body.
    pub fn json(body: impl Into<Vec<u8>>) -> Self {
        Self { status: 200, content_type: "application/json", body: body.into() }
    }

    /// An error response with a plain-text message body.
    pub fn error(status: u16, message: &str) -> Self {
        Self {
            status,
            content_type: "text/plain; charset=utf-8",
            body: format!("{message}\n").into_bytes(),
        }
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            503 => "Service Unavailable",
            _ => "Internal Server Error",
        }
    }

    /// Serializes status line, headers, and body to `writer` with one
    /// vectored write of the head and the body, so a socket sees one
    /// `writev(2)` (unless the kernel takes the bytes in parts) and the
    /// peer one segment train rather than a segment per header field.
    /// The body is not copied.
    pub fn write_to<W: Write>(&self, writer: &mut W) -> std::io::Result<()> {
        let mut head = Vec::with_capacity(HEAD_CAPACITY);
        // Writing into a `Vec` cannot fail.
        let _ = write!(
            head,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len()
        );
        let mut parts = [IoSlice::new(&head), IoSlice::new(&self.body)];
        let mut parts = &mut parts[..];
        // `Write::write_all_vectored` is unstable; this is its loop.
        while !parts.is_empty() {
            match writer.write_vectored(parts) {
                Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
                Ok(n) => IoSlice::advance_slices(&mut parts, n),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        writer.flush()
    }
}

/// Room for the response head: the status line and three headers take
/// under 128 bytes for every status and content type we send.
const HEAD_CAPACITY: usize = 128;

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &str) -> Result<Request, HttpParseError> {
        parse_request(&mut raw.as_bytes())
    }

    #[test]
    fn parses_request_line_and_query() {
        let req = parse("GET /search?q=query+processing&top=5 HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/search");
        assert_eq!(req.query_param("q").as_deref(), Some("query processing"));
        assert_eq!(req.query_param("top").as_deref(), Some("5"));
        assert_eq!(req.query_param("missing"), None);
        assert_eq!(req.target(), "/search?q=query+processing&top=5");
        assert!(req.body.is_empty());
        assert_eq!(req.cache_key(), req.target());
    }

    #[test]
    fn parses_post_body_by_content_length() {
        let raw = "POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: 9\r\n\r\n{\"a\":[]}\ntrailing ignored";
        let req = parse(raw).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/query");
        assert_eq!(req.body, "{\"a\":[]}\n");
        assert_eq!(req.cache_key(), "/query\n{\"a\":[]}\n");
    }

    #[test]
    fn body_limits_are_typed() {
        let huge = format!("POST /query HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        assert!(matches!(parse(&huge), Err(HttpParseError::BodyTooLarge)));
        assert!(matches!(
            parse("POST /query HTTP/1.1\r\nContent-Length: nope\r\n\r\n"),
            Err(HttpParseError::BadContentLength)
        ));
        // Declared length longer than the stream: incomplete, not a hang.
        assert!(matches!(
            parse("POST /query HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort"),
            Err(HttpParseError::Incomplete)
        ));
    }

    #[test]
    fn an_invalid_utf8_body_decodes_lossily_as_before() {
        let body: &[u8] = b"{\"q\":\"a\xffb\xc3\"}\xe2\x82";
        let mut raw = format!("POST /query HTTP/1.1\r\nContent-Length: {}\r\n\r\n", body.len())
            .into_bytes();
        raw.extend_from_slice(body);
        let req = parse_request(&mut raw.as_slice()).unwrap();
        assert_eq!(req.body, String::from_utf8_lossy(body));
        assert_eq!(req.body, "{\"q\":\"a\u{fffd}b\u{fffd}\"}\u{fffd}");
        // Valid multi-byte UTF-8 is kept as sent.
        let raw = "POST /query HTTP/1.1\r\nContent-Length: 9\r\n\r\ncaf\u{e9} \u{2713}";
        assert_eq!(parse(raw).unwrap().body, "caf\u{e9} \u{2713}");
    }

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("a%20b%2Fc"), "a b/c");
        assert_eq!(percent_decode("a+b"), "a b");
        assert_eq!(percent_decode("100%"), "100%"); // invalid escape kept
        assert_eq!(percent_decode("%zz"), "%zz");
    }

    #[test]
    fn rejects_malformed_heads() {
        assert!(matches!(parse(""), Err(HttpParseError::Incomplete)));
        assert!(matches!(
            parse("GARBAGE\r\n\r\n"),
            Err(HttpParseError::BadRequestLine(_))
        ));
        assert!(matches!(
            parse("GET /x HTTP/1.1\r\nHost: x\r\n"), // missing blank line
            Err(HttpParseError::Incomplete)
        ));
        let huge = format!("GET /x HTTP/1.1\r\n{}\r\n", "A: b\r\n".repeat(200));
        assert!(matches!(parse(&huge), Err(HttpParseError::TooLarge)));
    }

    #[test]
    fn response_serialization_includes_length_and_close() {
        let mut out = Vec::new();
        Response::ok("body\n").write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 5\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\nbody\n"));
        let mut err = Vec::new();
        Response::error(404, "no such topic").write_to(&mut err).unwrap();
        assert!(String::from_utf8(err).unwrap().starts_with("HTTP/1.1 404 Not Found\r\n"));
        let mut shed = Vec::new();
        Response::error(503, "overloaded").write_to(&mut shed).unwrap();
        assert!(String::from_utf8(shed)
            .unwrap()
            .starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
    }

    /// A writer that records every write call it receives and, like a
    /// socket with room in its send buffer, takes every byte offered.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.writes += 1;
            for buf in bufs {
                self.bytes.extend_from_slice(buf);
            }
            Ok(bufs.iter().map(|b| b.len()).sum())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_response_is_written_in_one_write_call() {
        let cases = [
            (
                Response::ok("body\n"),
                "HTTP/1.1 200 OK\r\nContent-Type: text/plain; charset=utf-8\r\n\
                 Content-Length: 5\r\nConnection: close\r\n\r\nbody\n",
            ),
            (
                Response::error(400, "missing query parameter q"),
                "HTTP/1.1 400 Bad Request\r\nContent-Type: text/plain; charset=utf-8\r\n\
                 Content-Length: 26\r\nConnection: close\r\n\r\nmissing query parameter q\n",
            ),
            (
                Response::error(503, "server overloaded, retry later"),
                "HTTP/1.1 503 Service Unavailable\r\nContent-Type: text/plain; charset=utf-8\r\n\
                 Content-Length: 31\r\nConnection: close\r\n\r\nserver overloaded, retry later\n",
            ),
        ];
        for (response, wire) in cases {
            let mut out = CountingWriter::default();
            response.write_to(&mut out).unwrap();
            assert_eq!(out.writes, 1, "status {}", response.status);
            assert_eq!(String::from_utf8(out.bytes).unwrap(), wire);
        }
        // A body far larger than the head reserve still goes out in one call.
        let big = Response::json(vec![b'x'; 64 * 1024]);
        let mut out = CountingWriter::default();
        big.write_to(&mut out).unwrap();
        assert_eq!(out.writes, 1);
        assert!(out.bytes.ends_with(&big.body));
    }

    /// A writer that takes at most 5 bytes per call, as a socket with a
    /// full send buffer may.
    struct TrickleWriter(Vec<u8>);

    impl Write for TrickleWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let n = buf.len().min(5);
            self.0.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_response_taken_in_parts_is_written_whole() {
        for response in [Response::ok("body\n"), Response::ok(""), Response::json(vec![b'x'; 1000])] {
            let mut whole = Vec::new();
            response.write_to(&mut whole).unwrap();
            let mut parts = TrickleWriter(Vec::new());
            response.write_to(&mut parts).unwrap();
            assert_eq!(parts.0, whole);
            assert!(whole.ends_with(&response.body));
        }
    }
}
