//! A minimal, panic-free HTTP/1.1 layer over `std::io` streams.
//!
//! The campaign service speaks just enough HTTP for its clients: request
//! lines, headers, `Content-Length` bodies, keep-alive, and chunked
//! transfer encoding for streamed adaptive responses.  The parser is held
//! to the same discipline as the simulator's persistence codecs — it is
//! linted under the P1 (panic-freedom) and C1 (cast-audit) rules of
//! `randmod-lint` — because its input is an arbitrary byte stream from
//! the network: every malformed, truncated, oversized or hostile input
//! must surface as a contextual [`HttpError`] (answered with a
//! well-formed error response, or a close), never as a panic inside a
//! connection thread.
//!
//! The reader is deliberately byte-at-a-time over a caller-supplied
//! buffered stream: it never reads past the end of the request head, so
//! the body (and any pipelined next request) stays in the stream for the
//! next read, and a `Content-Length` is enforced against the configured
//! body cap *before* a single body byte is buffered.

use std::fmt;
use std::io::{self, Read, Write};

/// Parser limits: the maximum size of a request head (request line plus
/// headers) and of a request body.  Head overruns and oversized bodies
/// are refused before the offending bytes are buffered.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum bytes of request line + headers (including terminators).
    pub max_head: usize,
    /// Maximum accepted `Content-Length`.
    pub max_body: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_head: 16 * 1024,
            max_body: 64 * 1024 * 1024,
        }
    }
}

/// A parsed request: method, target, headers and the complete body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The request method (`GET`, `POST`, …), as sent.
    pub method: String,
    /// The request target (path), as sent.
    pub target: String,
    /// Header name/value pairs in arrival order, values trimmed.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    /// Whether the client asked for the connection to close after this
    /// request (`Connection: close`, or HTTP/1.0 without keep-alive).
    pub close: bool,
}

impl Request {
    /// The first header with the given name, ASCII-case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read.  Every variant except [`Io`] maps to
/// a well-formed HTTP error response; [`Io`] (including read timeouts
/// armed against slow-loris connections) closes the connection.
///
/// [`Io`]: HttpError::Io
#[derive(Debug)]
pub enum HttpError {
    /// The request head or body violates the protocol; the detail names
    /// the offending construct.  Answered with `400 Bad Request`.
    Malformed(String),
    /// The declared `Content-Length` exceeds the configured cap.
    /// Answered with `413 Content Too Large` before the body is read.
    BodyTooLarge {
        /// The configured cap the declaration exceeded.
        limit: usize,
    },
    /// The request head grew past the configured cap.  Answered with
    /// `431 Request Header Fields Too Large`.
    HeadTooLarge {
        /// The configured cap the head exceeded.
        limit: usize,
    },
    /// The version is not HTTP/1.0 or HTTP/1.1.  Answered with `505`.
    UnsupportedVersion(String),
    /// The underlying stream failed (or timed out, for slow-loris
    /// connections); the connection is closed without a response.
    Io(io::Error),
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Malformed(detail) => write!(f, "malformed request: {detail}"),
            HttpError::BodyTooLarge { limit } => {
                write!(f, "declared body exceeds the {limit}-byte cap")
            }
            HttpError::HeadTooLarge { limit } => {
                write!(f, "request head exceeds the {limit}-byte cap")
            }
            HttpError::UnsupportedVersion(version) => {
                write!(f, "unsupported protocol version {version:?}")
            }
            HttpError::Io(err) => write!(f, "connection error: {err}"),
        }
    }
}

impl HttpError {
    /// The status code of the error response this error maps to, or
    /// `None` when the connection must simply close ([`HttpError::Io`]).
    pub fn status(&self) -> Option<u16> {
        match self {
            HttpError::Malformed(_) => Some(400),
            HttpError::BodyTooLarge { .. } => Some(413),
            HttpError::HeadTooLarge { .. } => Some(431),
            HttpError::UnsupportedVersion(_) => Some(505),
            HttpError::Io(_) => None,
        }
    }
}

/// Reads one byte, distinguishing clean EOF (`None`) from transport
/// errors.
fn read_byte<R: Read>(stream: &mut R) -> Result<Option<u8>, HttpError> {
    let mut buf = [0u8; 1];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => return Ok(None),
            Ok(_) => return Ok(buf.first().copied()),
            Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
            Err(err) => return Err(HttpError::Io(err)),
        }
    }
}

/// Reads the request head — every byte up to and including the blank
/// line — without consuming any body byte.  Returns `None` on a clean
/// EOF before the first byte (the peer closed an idle connection).
fn read_head<R: Read>(stream: &mut R, limits: &Limits) -> Result<Option<Vec<u8>>, HttpError> {
    let mut head: Vec<u8> = Vec::with_capacity(256);
    loop {
        let Some(byte) = read_byte(stream)? else {
            if head.is_empty() {
                return Ok(None);
            }
            return Err(HttpError::Malformed("connection closed mid-head".into()));
        };
        if head.len() >= limits.max_head {
            return Err(HttpError::HeadTooLarge {
                limit: limits.max_head,
            });
        }
        head.push(byte);
        if head.ends_with(b"\r\n\r\n") || head.ends_with(b"\n\n") {
            return Ok(Some(head));
        }
    }
}

/// Parses the request line `METHOD SP TARGET SP HTTP/x.y`.
fn parse_request_line(line: &str) -> Result<(String, String, bool), HttpError> {
    let mut parts = line.split(' ').filter(|part| !part.is_empty());
    let method = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("empty request line".into()))?;
    let target = parts
        .next()
        .ok_or_else(|| HttpError::Malformed(format!("request line {line:?} has no target")))?;
    let version = parts
        .next()
        .ok_or_else(|| HttpError::Malformed(format!("request line {line:?} has no version")))?;
    if parts.next().is_some() {
        return Err(HttpError::Malformed(format!(
            "request line {line:?} has trailing fields"
        )));
    }
    if !method
        .bytes()
        .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
        || method.is_empty()
    {
        return Err(HttpError::Malformed(format!("invalid method {method:?}")));
    }
    let keep_alive_default = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        other => return Err(HttpError::UnsupportedVersion(other.to_string())),
    };
    Ok((method.to_string(), target.to_string(), keep_alive_default))
}

/// Parses one `Name: value` header line.
fn parse_header_line(line: &str) -> Result<(String, String), HttpError> {
    let (name, value) = line
        .split_once(':')
        .ok_or_else(|| HttpError::Malformed(format!("header line {line:?} has no colon")))?;
    let name = name.trim();
    if name.is_empty() || name.contains(' ') {
        return Err(HttpError::Malformed(format!(
            "invalid header name in {line:?}"
        )));
    }
    Ok((name.to_string(), value.trim().to_string()))
}

/// Reads and parses one request from the stream.
///
/// Returns `Ok(None)` when the peer closed the connection cleanly before
/// sending a byte (the normal end of a keep-alive session).
///
/// # Errors
///
/// Returns [`HttpError`] for malformed heads, unsupported versions or
/// transfer encodings, oversized heads or bodies, and transport
/// failures.  The parser never panics, whatever the input bytes.
pub fn read_request<R: Read>(
    stream: &mut R,
    limits: &Limits,
) -> Result<Option<Request>, HttpError> {
    let Some(head) = read_head(stream, limits)? else {
        return Ok(None);
    };
    let text = String::from_utf8_lossy(&head);
    let mut lines = text.split("\r\n").flat_map(|part| part.split('\n'));
    let request_line = lines
        .next()
        .ok_or_else(|| HttpError::Malformed("empty request head".into()))?;
    let (method, target, keep_alive_default) = parse_request_line(request_line)?;
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        headers.push(parse_header_line(line)?);
    }
    let header = |name: &str| {
        headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    };
    if header("transfer-encoding").is_some() {
        return Err(HttpError::Malformed(
            "request bodies must use Content-Length, not Transfer-Encoding".into(),
        ));
    }
    let content_length = match header("content-length") {
        None => 0usize,
        Some(raw) => {
            let declared: u64 = raw
                .parse()
                .map_err(|_| HttpError::Malformed(format!("unparsable Content-Length {raw:?}")))?;
            if declared > limits.max_body as u64 {
                return Err(HttpError::BodyTooLarge {
                    limit: limits.max_body,
                });
            }
            // randmod: allow(C1, the value was just bounds-checked against max_body, a usize, so it fits usize on every target)
            declared as usize
        }
    };
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body).map_err(|err| {
        if err.kind() == io::ErrorKind::UnexpectedEof {
            HttpError::Malformed("connection closed mid-body".into())
        } else {
            HttpError::Io(err)
        }
    })?;
    let close = match header("connection") {
        Some(value) if value.eq_ignore_ascii_case("close") => true,
        Some(value) if value.eq_ignore_ascii_case("keep-alive") => false,
        _ => !keep_alive_default,
    };
    Ok(Some(Request {
        method,
        target,
        headers,
        body,
        close,
    }))
}

/// The canonical reason phrase of the status codes the service emits.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Content Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Response",
    }
}

/// Writes a complete fixed-length response: status line, the given
/// headers, `Content-Length`, and the body.
///
/// # Errors
///
/// Returns the underlying transport error, which closes the connection.
pub fn write_response<W: Write>(
    stream: &mut W,
    status: u16,
    headers: &[(&str, String)],
    body: &[u8],
) -> io::Result<()> {
    let mut out = format!("HTTP/1.1 {status} {}\r\n", status_reason(status));
    for (name, value) in headers {
        out.push_str(name);
        out.push_str(": ");
        out.push_str(value);
        out.push_str("\r\n");
    }
    out.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
    stream.write_all(out.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// Writes the head of a chunked response (status line, headers,
/// `Transfer-Encoding: chunked`, blank line).  Follow with
/// [`write_chunk`] calls and one [`finish_chunks`].
///
/// # Errors
///
/// Returns the underlying transport error, which closes the connection.
pub fn write_chunked_head<W: Write>(
    stream: &mut W,
    status: u16,
    headers: &[(&str, String)],
) -> io::Result<()> {
    let mut out = format!("HTTP/1.1 {status} {}\r\n", status_reason(status));
    for (name, value) in headers {
        out.push_str(name);
        out.push_str(": ");
        out.push_str(value);
        out.push_str("\r\n");
    }
    out.push_str("Transfer-Encoding: chunked\r\n\r\n");
    stream.write_all(out.as_bytes())
}

/// Writes one chunk of a chunked response (empty chunks are skipped:
/// an empty chunk would terminate the stream).
///
/// # Errors
///
/// Returns the underlying transport error, which closes the connection.
pub fn write_chunk<W: Write>(stream: &mut W, data: &[u8]) -> io::Result<()> {
    if data.is_empty() {
        return Ok(());
    }
    stream.write_all(format!("{:x}\r\n", data.len()).as_bytes())?;
    stream.write_all(data)?;
    stream.write_all(b"\r\n")?;
    stream.flush()
}

/// Terminates a chunked response (zero-length chunk plus final CRLF).
///
/// # Errors
///
/// Returns the underlying transport error, which closes the connection.
pub fn finish_chunks<W: Write>(stream: &mut W) -> io::Result<()> {
    stream.write_all(b"0\r\n\r\n")?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(bytes: &[u8]) -> Result<Option<Request>, HttpError> {
        read_request(&mut &bytes[..], &Limits::default())
    }

    #[test]
    fn parses_a_post_with_body() {
        let raw = b"POST /campaign HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd";
        let request = parse(raw).unwrap().unwrap();
        assert_eq!(request.method, "POST");
        assert_eq!(request.target, "/campaign");
        assert_eq!(request.body, b"abcd");
        assert!(!request.close);
        assert_eq!(request.header("host"), Some("x"));
        assert_eq!(request.header("HOST"), Some("x"));
    }

    #[test]
    fn clean_eof_is_none_and_truncation_is_malformed() {
        assert!(parse(b"").unwrap().is_none());
        let err = parse(b"GET / HTTP/1.1\r\n").unwrap_err();
        assert!(matches!(err, HttpError::Malformed(_)), "{err}");
        let err = parse(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc").unwrap_err();
        assert!(matches!(err, HttpError::Malformed(_)), "{err}");
    }

    #[test]
    fn oversized_declarations_are_refused_before_buffering() {
        let limits = Limits {
            max_head: 64,
            max_body: 8,
        };
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n123456789";
        let err = read_request(&mut &raw[..], &limits).unwrap_err();
        assert!(matches!(err, HttpError::BodyTooLarge { limit: 8 }), "{err}");
        let raw = [b'A'; 128];
        let err = read_request(&mut &raw[..], &limits).unwrap_err();
        assert!(
            matches!(err, HttpError::HeadTooLarge { limit: 64 }),
            "{err}"
        );
    }

    #[test]
    fn version_and_encoding_refusals() {
        let err = parse(b"GET / HTTP/2.0\r\n\r\n").unwrap_err();
        assert!(matches!(err, HttpError::UnsupportedVersion(_)), "{err}");
        assert_eq!(err.status(), Some(505));
        let err = parse(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n").unwrap_err();
        assert_eq!(err.status(), Some(400));
    }

    #[test]
    fn connection_close_semantics() {
        let keep = parse(b"GET / HTTP/1.1\r\n\r\n").unwrap().unwrap();
        assert!(!keep.close);
        let close = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(close.close);
        let old = parse(b"GET / HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert!(old.close);
        let old_keep = parse(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!old_keep.close);
    }

    #[test]
    fn response_writers_emit_wellformed_http() {
        let mut out = Vec::new();
        write_response(&mut out, 200, &[("X-Test", "1".to_string())], b"hi").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("X-Test: 1\r\n"));
        assert!(text.contains("Content-Length: 2\r\n\r\nhi"));

        let mut out = Vec::new();
        write_chunked_head(&mut out, 200, &[]).unwrap();
        write_chunk(&mut out, b"abc").unwrap();
        write_chunk(&mut out, b"").unwrap();
        finish_chunks(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.contains("Transfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n"),
            "{text}"
        );
    }

    #[test]
    fn pipelined_requests_leave_the_next_one_in_the_stream() {
        let raw: &[u8] = b"POST /a HTTP/1.1\r\nContent-Length: 2\r\n\r\nxyGET /b HTTP/1.1\r\n\r\n";
        let mut cursor = raw;
        let first = read_request(&mut cursor, &Limits::default())
            .unwrap()
            .unwrap();
        assert_eq!(first.target, "/a");
        assert_eq!(first.body, b"xy");
        let second = read_request(&mut cursor, &Limits::default())
            .unwrap()
            .unwrap();
        assert_eq!(second.target, "/b");
        assert!(read_request(&mut cursor, &Limits::default())
            .unwrap()
            .is_none());
    }
}
