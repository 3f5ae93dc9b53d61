//! A minimal blocking HTTP/1.1 client for shard fan-out and for tests.
//!
//! Just enough protocol for talking to our own server: one `GET` or
//! `POST`, a status line, headers (only `Content-Length` is interpreted),
//! a body, `Connection: close` semantics. Hand-rolled over `std::net`
//! because the workspace is dependency-free; the front tier controls both
//! ends of the wire, so tolerance for exotic peers is not a goal, but a
//! hostile peer still gets a typed error, never a panic.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A response fetched from a shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FetchedResponse {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value (empty when the peer sent none).
    pub content_type: String,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl FetchedResponse {
    /// Body as UTF-8 text (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Issues `GET {target}` against `addr` (e.g. `127.0.0.1:8080`) with the
/// given timeout applied to connect, read, and write independently.
pub fn http_get(addr: &str, target: &str, timeout: Duration) -> std::io::Result<FetchedResponse> {
    exchange(addr, &request_bytes("GET", target, addr, None), timeout)
}

/// Issues `POST {target}` with a body (framed by `Content-Length`)
/// against `addr`. Used for `POST /query`.
pub fn http_post(
    addr: &str,
    target: &str,
    body: &str,
    timeout: Duration,
) -> std::io::Result<FetchedResponse> {
    exchange(addr, &request_bytes("POST", target, addr, Some(body)), timeout)
}

/// One request's bytes, head and body in one buffer, so it leaves in
/// one write. A body is always JSON (`POST /query` is the only
/// body-carrying request).
fn request_bytes(method: &str, target: &str, addr: &str, body: Option<&str>) -> Vec<u8> {
    // The fixed header text takes under 128 bytes.
    let mut wire =
        Vec::with_capacity(128 + target.len() + addr.len() + body.map_or(0, str::len));
    // Writing into a `Vec` cannot fail.
    let _ = write!(wire, "{method} {target} HTTP/1.1\r\nHost: {addr}\r\n");
    if let Some(body) = body {
        let _ = write!(
            wire,
            "Content-Type: application/json\r\nContent-Length: {}\r\n",
            body.len()
        );
    }
    wire.extend_from_slice(b"Connection: close\r\n\r\n");
    wire.extend_from_slice(body.unwrap_or("").as_bytes());
    wire
}

/// Connects, sends `request` in one write and reads the response.
fn exchange(addr: &str, request: &[u8], timeout: Duration) -> std::io::Result<FetchedResponse> {
    let stream = connect(addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    (&stream).write_all(request)?;
    read_response(&mut BufReader::new(stream))
}

fn connect(addr: &str, timeout: Duration) -> std::io::Result<TcpStream> {
    use std::net::ToSocketAddrs;
    let mut last = None;
    for sock in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&sock, timeout) {
            Ok(s) => return Ok(s),
            Err(e) => last = Some(e),
        }
    }
    Err(last.unwrap_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, format!("no address for {addr}"))
    }))
}

fn bad(what: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, what.into())
}

fn read_response<R: BufRead>(reader: &mut R) -> std::io::Result<FetchedResponse> {
    let mut line = String::new();
    reader.read_line(&mut line)?;
    // "HTTP/1.1 200 OK"
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad(format!("bad status line {line:?}")))?;
    let mut content_type = String::new();
    let mut content_length: Option<usize> = None;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(bad("connection closed inside headers"));
        }
        let trimmed = line.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-type") {
                content_type = value.to_string();
            } else if name.eq_ignore_ascii_case("content-length") {
                content_length =
                    Some(value.parse().map_err(|_| bad(format!("bad content-length {value:?}")))?);
            }
        }
    }
    // The body grows as bytes arrive: a peer's Content-Length is only an
    // upper bound, never an allocation size. Without one, read to close
    // (the HTTP/1.1 fallback; our server always sends it).
    let mut body = Vec::new();
    match content_length {
        Some(n) => {
            reader.by_ref().take(u64::try_from(n).unwrap_or(u64::MAX)).read_to_end(&mut body)?;
            if body.len() < n {
                return Err(bad(format!("body ended after {} of {n} bytes", body.len())));
            }
            // `Connection: close`: the exchange ends when the peer closes,
            // which our server does once it has finished the request, its
            // metrics included. A byte past the body is a framing error; a
            // peer holding the connection open costs one read timeout.
            if matches!(reader.read(&mut [0u8; 1]), Ok(1..)) {
                return Err(bad(format!("bytes after the {n}-byte body")));
            }
        }
        None => {
            reader.read_to_end(&mut body)?;
        }
    }
    Ok(FetchedResponse { status, content_type, body })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_response() {
        let raw = b"HTTP/1.1 404 Not Found\r\nContent-Type: text/plain\r\nContent-Length: 6\r\n\r\nnope\n!";
        let resp = read_response(&mut &raw[..]).unwrap();
        assert_eq!(resp.status, 404);
        assert_eq!(resp.content_type, "text/plain");
        assert_eq!(resp.body, b"nope\n!");
    }

    #[test]
    fn missing_length_reads_to_close() {
        let raw = b"HTTP/1.1 200 OK\r\n\r\nrest of stream";
        let resp = read_response(&mut &raw[..]).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.text(), "rest of stream");
    }

    #[test]
    fn garbage_is_a_typed_io_error() {
        assert!(read_response(&mut &b"not http at all\r\n\r\n"[..]).is_err());
        assert!(read_response(&mut &b"HTTP/1.1 200 OK\r\nContent-Length: 99\r\n\r\nshort"[..]).is_err());
        // A length no body could have is a short body, not an allocation.
        let huge = b"HTTP/1.1 200 OK\r\nContent-Length: 18446744073709551615\r\n\r\nshort";
        let err = read_response(&mut &huge[..]).expect_err("short body");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let long = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nlong";
        assert!(read_response(&mut &long[..]).is_err());
    }

    #[test]
    fn request_bytes_are_pinned() {
        assert_eq!(
            request_bytes("GET", "/search?q=a+b&top=3", "127.0.0.1:9", None),
            b"GET /search?q=a+b&top=3 HTTP/1.1\r\nHost: 127.0.0.1:9\r\nConnection: close\r\n\r\n"
        );
        assert_eq!(
            request_bytes("POST", "/query", "127.0.0.1:9", Some(r#"{"steps":[]}"#)),
            b"POST /query HTTP/1.1\r\nHost: 127.0.0.1:9\r\nContent-Type: application/json\r\n\
              Content-Length: 12\r\nConnection: close\r\n\r\n{\"steps\":[]}"
        );
    }

    #[test]
    fn get_and_post_send_exactly_the_pinned_bytes() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let expected = [
            request_bytes("GET", "/healthz", &addr, None),
            request_bytes("POST", "/query", &addr, Some(r#"{"steps":[]}"#)),
        ];
        let peer = {
            let expected = expected.clone();
            std::thread::spawn(move || {
                for want in expected {
                    let (mut stream, _) = listener.accept().expect("accept");
                    let mut got = vec![0u8; want.len()];
                    stream.read_exact(&mut got).expect("request");
                    assert_eq!(got, want);
                    stream.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nok\n").expect("reply");
                }
            })
        };
        let timeout = Duration::from_secs(10);
        assert_eq!(http_get(&addr, "/healthz", timeout).expect("GET").body, b"ok\n");
        assert_eq!(
            http_post(&addr, "/query", r#"{"steps":[]}"#, timeout).expect("POST").body,
            b"ok\n"
        );
        peer.join().expect("peer");
    }
}
