//! Protocol robustness battery: the HTTP layer must be total over
//! hostile bytes.
//!
//! The parser ([`randmod_server::http::read_request`]) is fed arbitrary
//! byte streams, truncations of a valid request at every length, and
//! single-byte corruptions at every position; in every case it must
//! return a contextual [`HttpError`] or a well-formed request — never
//! panic, and never buffer a body the declared limits refuse.  The
//! socket-level tests then point real TCP clients at a running server:
//! pipelined requests each get a response, and a slow-loris peer that
//! dribbles its head slower than the read timeout gets disconnected
//! instead of pinning a thread.
//!
//! Case counts scale with the `PROTOCOL_FUZZ_CASES` environment
//! variable (default 48; CI turns it up).

use proptest::prelude::*;
use randmod_server::http::{read_request, HttpError, Limits};
use randmod_server::{start, ResultStore, ServerConfig};
use std::io::{Cursor, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn cases() -> u32 {
    std::env::var("PROTOCOL_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(48)
}

fn tight_limits() -> Limits {
    Limits {
        max_head: 1024,
        max_body: 4096,
    }
}

/// A canonical valid request, body included.
fn valid_request_bytes() -> Vec<u8> {
    b"POST /campaign HTTP/1.1\r\nHost: t\r\nContent-Length: 11\r\n\r\nhello bytes".to_vec()
}

/// Parses from an in-memory stream; the return value only matters in
/// that producing it must not panic.
fn parse(
    bytes: &[u8],
    limits: &Limits,
) -> Result<Option<randmod_server::http::Request>, HttpError> {
    read_request(&mut Cursor::new(bytes), limits)
}

#[test]
fn truncations_of_a_valid_request_never_panic() {
    let bytes = valid_request_bytes();
    let limits = tight_limits();
    for cut in 0..=bytes.len() {
        let outcome = parse(&bytes[..cut], &limits);
        match outcome {
            Ok(Some(request)) => {
                // Only the full request parses completely.
                assert_eq!(cut, bytes.len());
                assert_eq!(request.body, b"hello bytes");
            }
            Ok(None) => assert_eq!(cut, 0, "only empty input is a clean EOF"),
            Err(err) => {
                assert!(!err.to_string().is_empty());
            }
        }
    }
}

#[test]
fn every_single_byte_flip_is_handled() {
    let bytes = valid_request_bytes();
    let limits = tight_limits();
    for index in 0..bytes.len() {
        for flip in [0x01u8, 0x80, 0xFF] {
            let mut mutated = bytes.clone();
            mutated[index] ^= flip;
            // No panic, and any accepted request respects the limits.
            if let Ok(Some(request)) = parse(&mutated, &limits) {
                assert!(request.body.len() <= limits.max_body);
            }
        }
    }
}

#[test]
fn oversized_declarations_are_refused_with_context() {
    let limits = tight_limits();
    let head = format!(
        "POST /campaign HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        limits.max_body + 1
    );
    match parse(head.as_bytes(), &limits) {
        Err(HttpError::BodyTooLarge { limit }) => assert_eq!(limit, limits.max_body),
        other => panic!("expected BodyTooLarge, got {other:?}"),
    }

    let huge_head = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(limits.max_head + 8));
    match parse(huge_head.as_bytes(), &limits) {
        Err(HttpError::HeadTooLarge { limit }) => assert_eq!(limit, limits.max_head),
        other => panic!("expected HeadTooLarge, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Arbitrary byte soup: the parser returns, it does not panic.
    #[test]
    fn arbitrary_streams_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..600)) {
        let _ = parse(&bytes, &tight_limits());
    }

    /// Byte soup that starts like a request line: exercises the header
    /// and body machinery past the first-line checks.
    #[test]
    fn request_shaped_streams_never_panic(
        tail in prop::collection::vec(any::<u8>(), 0..400),
    ) {
        let mut bytes = b"POST /campaign HTTP/1.1\r\n".to_vec();
        bytes.extend_from_slice(&tail);
        let _ = parse(&bytes, &tight_limits());
    }

    /// Corruption at a random position with a random mask, over the
    /// valid request (denser coverage than the exhaustive three-mask
    /// sweep above).
    #[test]
    fn random_corruption_never_panics(index in 0usize..58, mask in 1u8..=255) {
        let mut bytes = valid_request_bytes();
        let at = index % bytes.len();
        bytes[at] ^= mask;
        let _ = parse(&bytes, &tight_limits());
    }
}

// ---------------------------------------------------------------------------
// Socket-level behaviour against a live server
// ---------------------------------------------------------------------------

fn temp_store(tag: &str) -> (ResultStore, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("randmod_protocol_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    (ResultStore::in_dir(&dir).unwrap(), dir)
}

#[test]
fn pipelined_requests_each_get_a_response() {
    let (store, dir) = temp_store("pipeline");
    let handle = start(
        ServerConfig {
            read_timeout: Duration::from_secs(5),
            ..ServerConfig::default()
        },
        store,
    )
    .unwrap();

    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    // Two health checks in one write: both must be answered, in order.
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\nGET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut response = Vec::new();
    stream.read_to_end(&mut response).unwrap();
    let text = String::from_utf8_lossy(&response);
    let ok_count = text.matches("HTTP/1.1 200 OK").count();
    assert_eq!(
        ok_count, 2,
        "both pipelined requests must be answered: {text}"
    );

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn slow_loris_is_disconnected_by_the_read_timeout() {
    let (store, dir) = temp_store("loris");
    let handle = start(
        ServerConfig {
            read_timeout: Duration::from_millis(150),
            ..ServerConfig::default()
        },
        store,
    )
    .unwrap();

    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    // Dribble a partial request head, then stall past the deadline.
    stream.write_all(b"GET /healthz HT").unwrap();
    std::thread::sleep(Duration::from_millis(600));
    // The server must have dropped us: the read observes EOF (possibly
    // after an error response) rather than hanging.
    let mut buf = Vec::new();
    let outcome = stream.read_to_end(&mut buf);
    assert!(
        outcome.is_ok(),
        "expected EOF from a dropped connection, got {outcome:?}"
    );

    // And the server is still healthy for well-behaved clients.
    let mut client = randmod_server::Client::connect(handle.addr()).unwrap();
    assert_eq!(client.get("/healthz").unwrap().status, 200);

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn protocol_refusals_are_wellformed_error_responses() {
    let (store, dir) = temp_store("refusal");
    let handle = start(ServerConfig::default(), store).unwrap();

    // An unparseable request line gets a 400 and a close.
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.write_all(b"NONSENSE\r\n\r\n").unwrap();
    let mut response = Vec::new();
    stream.read_to_end(&mut response).unwrap();
    let text = String::from_utf8_lossy(&response);
    assert!(text.starts_with("HTTP/1.1 400 "), "{text}");

    // An unsupported version gets a 505.
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.write_all(b"GET / HTTP/2.0\r\n\r\n").unwrap();
    let mut response = Vec::new();
    stream.read_to_end(&mut response).unwrap();
    let text = String::from_utf8_lossy(&response);
    assert!(text.starts_with("HTTP/1.1 505 "), "{text}");

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
