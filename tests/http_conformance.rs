//! HTTP/1.1 framing conformance under adversarial byte arrival: the
//! multiplexed gateway must be insensitive to *how* request bytes reach
//! it. Proptest drives three layers:
//!
//! 1. the incremental parser fed arbitrary chunk splits agrees, request
//!    for request and byte for byte, with single-shot parsing of the
//!    same stream;
//! 2. a live gateway served a pipelined burst split at arbitrary byte
//!    boundaries answers byte-identically to the same burst delivered
//!    in one write, request tracing included (every request carries the
//!    same client `X-Request-Id`, and every extraction response echoes
//!    it);
//! 3. many multiplexed connections interleaving their partial writes
//!    concurrently each still get exactly their own responses.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use proptest::sample;

use lixto::http::{parse_request, GatewayConfig, HttpGateway, Limits, Request};
use lixto::server::{ExtractionServer, ServerConfig, WrapperRegistry};

// ---------------------------------------------------------------------
// Layer 1: the parser itself, no sockets
// ---------------------------------------------------------------------

/// Drain every complete request currently at the front of `buf`.
fn drain_requests(buf: &mut Vec<u8>, limits: &Limits) -> Vec<(Request, usize)> {
    let mut out = Vec::new();
    loop {
        match parse_request(buf, limits).expect("generated streams are well-formed") {
            Some((request, consumed)) => {
                buf.drain(..consumed);
                out.push((request, consumed));
            }
            None => return out,
        }
    }
}

/// One syntactically valid request with assorted framing features.
fn arb_request() -> impl Strategy<Value = Vec<u8>> {
    let method = sample::select(vec!["GET", "POST", "PUT", "DELETE"]);
    let path = sample::select(vec![
        "/healthz",
        "/metrics",
        "/extract",
        "/extract/batch",
        "/wrappers/shop",
        "/deeply/nested/none?q=1&r=2",
    ]);
    let pad = proptest::collection::vec(0u8..26, 0..40);
    let body = proptest::collection::vec(0u8..255, 0..200);
    let leading_crlf = 0usize..3;
    (method, path, pad, body, leading_crlf).prop_map(|(method, path, pad, body, crlfs)| {
        let pad: String = pad.iter().map(|b| (b'a' + b) as char).collect();
        let mut raw = Vec::new();
        for _ in 0..crlfs {
            raw.extend_from_slice(b"\r\n");
        }
        raw.extend_from_slice(
            format!(
                "{method} {path} HTTP/1.1\r\nhost: conformance\r\nx-pad: {pad}\r\ncontent-length: {}\r\n\r\n",
                body.len()
            )
            .as_bytes(),
        );
        raw.extend_from_slice(&body);
        raw
    })
}

/// Split points for a byte stream of length `len` (indices may repeat
/// and arrive unsorted; the splitter normalizes).
fn chunks_of(stream: &[u8], cuts: &[usize]) -> Vec<Vec<u8>> {
    let mut points: Vec<usize> = cuts.iter().map(|c| c % (stream.len() + 1)).collect();
    points.push(0);
    points.push(stream.len());
    points.sort_unstable();
    points.dedup();
    points
        .windows(2)
        .map(|w| stream[w[0]..w[1]].to_vec())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Chunked arrival at arbitrary byte boundaries yields exactly the
    /// requests of single-shot parsing — same fields, same bodies, same
    /// consumed counts, regardless of where the cuts fall (mid request
    /// line, mid header, mid body).
    #[test]
    fn parser_is_split_invariant(
        requests in proptest::collection::vec(arb_request(), 1..6),
        cuts in proptest::collection::vec(0usize..10_000, 0..24),
    ) {
        let limits = Limits::default();
        let stream: Vec<u8> = requests.concat();

        // Reference: the whole burst in one buffer.
        let mut whole = stream.clone();
        let reference = drain_requests(&mut whole, &limits);
        prop_assert_eq!(reference.len(), requests.len());
        prop_assert!(whole.is_empty(), "reference parse must consume the stream");

        // Incremental: feed the same bytes chunk by chunk.
        let mut buf: Vec<u8> = Vec::new();
        let mut incremental = Vec::new();
        for chunk in chunks_of(&stream, &cuts) {
            buf.extend_from_slice(&chunk);
            incremental.extend(drain_requests(&mut buf, &limits));
        }
        prop_assert!(buf.is_empty(), "incremental parse must consume the stream");
        prop_assert_eq!(incremental.len(), reference.len());
        for ((got, got_consumed), (want, want_consumed)) in
            incremental.iter().zip(reference.iter())
        {
            prop_assert_eq!(got, want, "request diverged under splitting");
            prop_assert_eq!(got_consumed, want_consumed);
        }
    }
}

// ---------------------------------------------------------------------
// Layers 2 & 3: a live gateway under split and interleaved arrival
// ---------------------------------------------------------------------

fn test_gateway() -> (HttpGateway, Arc<ExtractionServer>) {
    let registry = Arc::new(WrapperRegistry::new());
    registry
        .register_source(
            "shop",
            r#"offer(S, X) :- document("http://shop/", S), subelem(S, (?.li, []), X)."#,
            lixto::core::XmlDesign::new().root("offers"),
        )
        .unwrap();
    let server = Arc::new(ExtractionServer::start(
        ServerConfig::default(),
        registry,
        Arc::new(lixto::elog::StaticWeb::new()),
    ));
    let gateway = HttpGateway::bind(
        "127.0.0.1:0",
        GatewayConfig {
            event_loops: 2,
            idle_timeout: Duration::from_secs(30),
            read_timeout: Duration::from_secs(30),
            ..GatewayConfig::default()
        },
        server.clone(),
    )
    .unwrap();
    (gateway, server)
}

/// The client `X-Request-Id` every burst request carries. The gateway
/// mints a fresh id for a request without one, so a fixed client id is
/// what keeps traced responses comparable byte for byte.
const REQUEST_ID: &str = "conformance-burst";

/// A pipelined burst whose responses are deterministic (no timing or
/// counter fields), ending in `Connection: close` so the full response
/// stream has a defined end.
fn deterministic_burst(requests: &[&str]) -> Vec<u8> {
    let mut raw = Vec::new();
    for (i, line) in requests.iter().enumerate() {
        let close = i + 1 == requests.len();
        let (target, body) = match line.split_once(' ') {
            Some(("POST", rest)) => (format!("POST {}", path_of(rest)), body_of(rest)),
            _ => (line.to_string(), String::new()),
        };
        let head = format!("{target} HTTP/1.1\r\nhost: c\r\nx-request-id: {REQUEST_ID}\r\n");
        raw.extend_from_slice(head.as_bytes());
        if close {
            raw.extend_from_slice(b"connection: close\r\n");
        }
        raw.extend_from_slice(format!("content-length: {}\r\n\r\n{}", body.len(), body).as_bytes());
    }
    raw
}

fn path_of(rest: &str) -> &str {
    rest.split_once('|').map_or(rest, |(p, _)| p)
}

fn body_of(rest: &str) -> String {
    rest.split_once('|')
        .map_or(String::new(), |(_, b)| b.to_string())
}

/// Requests whose responses do not vary run to run: health, routing
/// errors, parse errors, deterministic extraction errors, and inline
/// extractions (their `latency_us` field is scrubbed below).
const BURST: &[&str] = &[
    "GET /healthz",
    "GET /no/such/path",
    "DELETE /extract",
    r#"POST /extract|{broken"#,
    r#"POST /extract|{"wrapper":"ghost","url":"u"}"#,
    r#"POST /extract|{"wrapper":"shop","url":"http://shop/","html":"<ul><li>a</li></ul>"}"#,
    r#"POST /extract/batch|[{"wrapper":"ghost","url":"u"},{"wrapper":"shop","url":"http://shop/","html":"<ul><li>a</li></ul>"}]"#,
    "GET /healthz",
];

/// Write `stream` in the given chunking (tiny sleeps between chunks so
/// the server genuinely observes partial requests) and read the full
/// response stream until the server closes.
fn exchange_chunked(addr: std::net::SocketAddr, chunks: &[Vec<u8>]) -> Vec<u8> {
    let mut socket = TcpStream::connect(addr).unwrap();
    socket
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    socket.set_nodelay(true).unwrap();
    for (i, chunk) in chunks.iter().enumerate() {
        if !chunk.is_empty() {
            socket.write_all(chunk).unwrap();
        }
        if i % 3 == 0 {
            std::thread::sleep(Duration::from_micros(300));
        }
    }
    let mut received = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match socket.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => received.extend_from_slice(&buf[..n]),
            Err(_) => break,
        }
    }
    received
}

/// Collapse the digit run following every occurrence of `needle` to a
/// single `0` — used to erase the two volatile values in otherwise
/// deterministic responses: `"latency_us":<n>` (timing noise) and the
/// `content-length:` that shifts with its digit count. Everything else,
/// including the response *count* and ordering, stays byte-compared.
fn collapse_digits_after(stream: &[u8], needle: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(stream.len());
    let mut i = 0;
    while i < stream.len() {
        if stream[i..].starts_with(needle) {
            out.extend_from_slice(needle);
            i += needle.len();
            let run_start = i;
            while i < stream.len() && stream[i].is_ascii_digit() {
                i += 1;
            }
            if i > run_start {
                out.push(b'0');
            }
        } else {
            out.push(stream[i]);
            i += 1;
        }
    }
    out
}

fn scrub_volatile(stream: &[u8]) -> Vec<u8> {
    let scrubbed = collapse_digits_after(stream, b"\"latency_us\":");
    collapse_digits_after(&scrubbed, b"content-length: ")
}

/// Assert that the response stream echoes [`REQUEST_ID`] once per
/// extraction request of [`BURST`] (the only traced endpoints), and no
/// other id.
fn assert_echoes_the_request_id(stream: &[u8]) {
    let text = String::from_utf8_lossy(stream);
    let echoed: Vec<&str> = text
        .split("\r\n")
        .filter_map(|line| line.strip_prefix("x-request-id: "))
        .collect();
    let traced = BURST
        .iter()
        .filter(|line| line.starts_with("POST /extract"))
        .count();
    assert_eq!(echoed, vec![REQUEST_ID; traced], "echoed ids in {text}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The live gateway answers a pipelined burst split at arbitrary
    /// byte boundaries byte-identically to the single-write path.
    #[test]
    fn gateway_responses_are_split_invariant(
        cuts in proptest::collection::vec(0usize..100_000, 1..16),
    ) {
        let (gateway, server) = test_gateway();
        let addr = gateway.addr();
        let stream = deterministic_burst(BURST);

        // Warm the result cache so both measured exchanges see the same
        // cache state (`cache_hit` is part of the response body).
        exchange_chunked(addr, std::slice::from_ref(&stream));
        let single_shot = exchange_chunked(addr, std::slice::from_ref(&stream));
        let split = exchange_chunked(addr, &chunks_of(&stream, &cuts));

        prop_assert!(!single_shot.is_empty());
        assert_echoes_the_request_id(&single_shot);
        assert_echoes_the_request_id(&split);
        let want = scrub_volatile(&single_shot);
        let got = scrub_volatile(&split);
        prop_assert_eq!(
            String::from_utf8_lossy(&want),
            String::from_utf8_lossy(&got),
            "split arrival changed the response stream"
        );
        gateway.shutdown();
        server.initiate_shutdown();
    }
}

#[test]
fn interleaved_partial_writes_across_multiplexed_connections_stay_isolated() {
    let (gateway, server) = test_gateway();
    let addr = gateway.addr();
    let stream = deterministic_burst(BURST);
    // Warm the result cache first: every measured exchange then reports
    // the same `cache_hit` values.
    exchange_chunked(addr, std::slice::from_ref(&stream));
    let reference = scrub_volatile(&exchange_chunked(addr, std::slice::from_ref(&stream)));

    // 16 connections over 2 event loops, each trickling its burst in a
    // different chunking, all concurrently: every connection must get
    // exactly the reference response stream — no cross-talk, no
    // reordering, no lost pipelined request.
    std::thread::scope(|scope| {
        let mut sessions = Vec::new();
        for i in 0..16usize {
            let stream = stream.clone();
            sessions.push(scope.spawn(move || {
                let cuts: Vec<usize> = (0..8).map(|k| (i * 131 + k * 977) % stream.len()).collect();
                exchange_chunked(addr, &chunks_of(&stream, &cuts))
            }));
        }
        for session in sessions {
            let received = session.join().expect("session thread");
            assert_echoes_the_request_id(&received);
            let received = scrub_volatile(&received);
            assert_eq!(
                String::from_utf8_lossy(&received),
                String::from_utf8_lossy(&reference),
                "a multiplexed connection saw a diverging response stream"
            );
        }
    });
    let stats = gateway.shutdown();
    assert_eq!(stats.connections, 18, "warm-up + reference + 16 sessions");
    assert_eq!(stats.requests, 18 * BURST.len() as u64);
    server.initiate_shutdown();
}
