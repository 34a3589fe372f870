//! HTTP/1.1 wire format: incremental request parsing with size limits,
//! and response serialization.
//!
//! The parser is pull-based over a byte buffer the connection handler
//! owns: [`parse_request`] either yields a complete request plus the
//! number of bytes it consumed (leftover bytes belong to the *next*
//! pipelined request), asks for more input, or reports a protocol error
//! that maps to a 4xx status. Bodies are framed by `Content-Length`
//! only; `Transfer-Encoding` is not supported (the gateway's clients
//! always know their body size up front).

use crate::json::{decimal, Json};

/// One parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, …).
    pub method: String,
    /// Path component, query string stripped.
    pub path: String,
    /// Raw query string (without `?`), if any.
    pub query: Option<String>,
    /// True for `HTTP/1.1`, false for `HTTP/1.0` (the two accepted
    /// versions) — they default to opposite connection persistence.
    pub http_1_1: bool,
    /// `(name, value)` headers in arrival order; names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The request body.
    pub body: Vec<u8>,
}

impl Request {
    /// First value of header `name` (lower-case).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// True when `Connection` carries `token` (comma-separated list,
    /// case-insensitive).
    fn connection_has(&self, token: &str) -> bool {
        self.header("connection")
            .is_some_and(|v| v.split(',').any(|t| t.trim().eq_ignore_ascii_case(token)))
    }

    /// Whether the connection persists after this exchange: HTTP/1.1
    /// defaults to keep-alive unless `Connection: close`; HTTP/1.0
    /// defaults to close unless `Connection: keep-alive`.
    pub fn keep_alive(&self) -> bool {
        if self.http_1_1 {
            !self.connection_has("close")
        } else {
            self.connection_has("keep-alive")
        }
    }

    /// The body as UTF-8, or `None` when it is not valid UTF-8.
    pub fn body_utf8(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }
}

/// Parser size limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Maximum size of the request line + headers, in bytes.
    pub max_header_bytes: usize,
    /// Maximum declared `Content-Length`, in bytes.
    pub max_body_bytes: usize,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits {
            max_header_bytes: 16 * 1024,
            max_body_bytes: 1024 * 1024,
        }
    }
}

/// Why a request could not be parsed. Each variant maps to the 4xx the
/// handler should answer with before (usually) closing the connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// Request line or header section malformed → 400.
    Malformed(&'static str),
    /// Header section exceeds [`Limits::max_header_bytes`] → 431.
    HeadersTooLarge,
    /// Declared body exceeds [`Limits::max_body_bytes`] → 413. Carries
    /// the framing the parser already established so the handler can
    /// drain the body and keep the connection without re-deriving it.
    BodyTooLarge {
        /// The declared `Content-Length`.
        declared: usize,
        /// Offset of the body's first byte in the caller's buffer.
        body_start: usize,
    },
    /// `Transfer-Encoding` framing is not supported → 501.
    UnsupportedTransferEncoding,
}

impl RequestError {
    /// The status code this protocol error answers with.
    pub fn status(&self) -> u16 {
        match self {
            RequestError::Malformed(_) => 400,
            RequestError::HeadersTooLarge => 431,
            RequestError::BodyTooLarge { .. } => 413,
            RequestError::UnsupportedTransferEncoding => 501,
        }
    }

    /// Human-readable detail for the error body.
    pub fn message(&self) -> String {
        match self {
            RequestError::Malformed(what) => format!("malformed request: {what}"),
            RequestError::HeadersTooLarge => "request header section too large".to_string(),
            RequestError::BodyTooLarge { declared, .. } => {
                format!("request body of {declared} bytes exceeds the limit")
            }
            RequestError::UnsupportedTransferEncoding => {
                "transfer-encoding is not supported; use content-length".to_string()
            }
        }
    }
}

/// Try to parse one request from the front of `buf`.
///
/// * `Ok(Some((request, consumed)))` — a complete request; the caller
///   drains `consumed` bytes and keeps the rest for the next pipelined
///   request.
/// * `Ok(None)` — incomplete; read more bytes and retry.
/// * `Err(_)` — protocol error; answer with [`RequestError::status`].
pub fn parse_request(
    buf: &[u8],
    limits: &Limits,
) -> Result<Option<(Request, usize)>, RequestError> {
    parse_request_with_body_limit(buf, limits, &|_, _| limits.max_body_bytes)
}

/// [`parse_request`] with a per-route body limit: once the request line
/// and headers are in, `body_limit_for(method, path)` decides the
/// maximum acceptable `Content-Length` for *that* route instead of the
/// blanket [`Limits::max_body_bytes`]. The gateway uses this to let
/// `POST /extract/batch` carry a whole array of documents while every
/// other endpoint keeps the tight single-document limit. Header limits
/// are unaffected.
pub fn parse_request_with_body_limit(
    buf: &[u8],
    limits: &Limits,
    body_limit_for: &dyn Fn(&str, &str) -> usize,
) -> Result<Option<(Request, usize)>, RequestError> {
    // Tolerate a couple of CRLFs before the request line (RFC 9112 §2.2
    // says to ignore at least one) — keep-alive clients historically
    // send a stray one between requests. The count is capped so a CRLF
    // flood hits the normal header-size limit instead of growing the
    // connection buffer unboundedly.
    let mut skipped = 0;
    while skipped < 4 && buf[skipped..].starts_with(b"\r\n") {
        skipped += 2;
    }
    let buf = &buf[skipped..];
    let Some(header_end) = find_header_end(buf, limits.max_header_bytes)? else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..header_end])
        .map_err(|_| RequestError::Malformed("not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty() && m.bytes().all(|b| b.is_ascii_alphabetic()))
        .ok_or(RequestError::Malformed("bad request line"))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .filter(|t| t.starts_with('/'))
        .ok_or(RequestError::Malformed("bad request target"))?;
    let version = parts
        .next()
        .ok_or(RequestError::Malformed("missing HTTP version"))?;
    if parts.next().is_some() || !matches!(version, "HTTP/1.1" | "HTTP/1.0") {
        return Err(RequestError::Malformed("unsupported HTTP version"));
    }
    let http_1_1 = version == "HTTP/1.1";
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), Some(q.to_string())),
        None => (target.to_string(), None),
    };
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(RequestError::Malformed("bad header line"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let mut request = Request {
        method,
        path,
        query,
        http_1_1,
        headers,
        body: Vec::new(),
    };
    if request.header("transfer-encoding").is_some() {
        return Err(RequestError::UnsupportedTransferEncoding);
    }
    // Duplicate Content-Length headers are a request-smuggling vector
    // (RFC 9112 §6.3): reject rather than pick one.
    if request
        .headers
        .iter()
        .filter(|(n, _)| n == "content-length")
        .count()
        > 1
    {
        return Err(RequestError::Malformed("duplicate content-length"));
    }
    let content_length = match request.header("content-length") {
        None => 0,
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| RequestError::Malformed("bad content-length"))?,
    };
    if content_length > body_limit_for(&request.method, &request.path) {
        return Err(RequestError::BodyTooLarge {
            declared: content_length,
            body_start: skipped + header_end + 4,
        });
    }
    let body_start = header_end + 4;
    if buf.len() < body_start + content_length {
        return Ok(None);
    }
    request.body = buf[body_start..body_start + content_length].to_vec();
    Ok(Some((request, skipped + body_start + content_length)))
}

/// Index of `\r\n\r\n` terminating the header section, or `None` if it
/// has not arrived yet, or an error once the section exceeds the limit.
fn find_header_end(buf: &[u8], max: usize) -> Result<Option<usize>, RequestError> {
    let window = &buf[..buf.len().min(max + 4)];
    match window.windows(4).position(|w| w == b"\r\n\r\n") {
        Some(i) if i <= max => Ok(Some(i)),
        Some(_) => Err(RequestError::HeadersTooLarge),
        None if buf.len() > max + 4 => Err(RequestError::HeadersTooLarge),
        None => Ok(None),
    }
}

/// The standard reason phrase for the status codes the gateway emits.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// An outgoing response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Extra headers (name, value) beyond the standard set.
    pub extra_headers: Vec<(&'static str, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, value: &Json) -> Response {
        Response::json_encoded(status, value.dump())
    }

    /// A JSON response whose body is already encoded (a document
    /// streamed straight into a buffer, without a [`Json`] tree).
    pub fn json_encoded(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            extra_headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            extra_headers: Vec::new(),
            body: body.into().into_bytes(),
        }
    }

    /// The uniform error body: `{"error": code, "message": detail}`.
    pub fn error(status: u16, code: &str, message: &str) -> Response {
        Response::json(
            status,
            &crate::json::obj([("error", code.into()), ("message", message.into())]),
        )
    }

    /// Append a header.
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Response {
        self.extra_headers.push((name, value.into()));
        self
    }

    /// Serialize into `out`, with the connection-persistence header.
    pub fn write_to(&self, out: &mut Vec<u8>, keep_alive: bool) {
        self.write_with_headers(out, keep_alive, &[]);
    }

    /// [`write_to`](Response::write_to) plus `more` headers after the
    /// response's own, borrowed from the caller — for a value the caller
    /// still needs afterwards (the gateway's `x-request-id` goes on to
    /// name a span record), so it is not copied into the response.
    pub fn write_with_headers(&self, out: &mut Vec<u8>, keep_alive: bool, more: &[(&str, &str)]) {
        let mut digits = [0; 20];
        out.reserve(160 + self.body.len());
        out.extend_from_slice(b"HTTP/1.1 ");
        out.extend_from_slice(decimal(u64::from(self.status), &mut digits).as_bytes());
        out.push(b' ');
        out.extend_from_slice(status_reason(self.status).as_bytes());
        out.extend_from_slice(b"\r\ncontent-type: ");
        out.extend_from_slice(self.content_type.as_bytes());
        out.extend_from_slice(b"\r\ncontent-length: ");
        out.extend_from_slice(decimal(self.body.len() as u64, &mut digits).as_bytes());
        out.extend_from_slice(if keep_alive {
            b"\r\nconnection: keep-alive\r\n"
        } else {
            b"\r\nconnection: close\r\n"
        });
        let own = self.extra_headers.iter().map(|(n, v)| (*n, v.as_str()));
        for (name, value) in own.chain(more.iter().copied()) {
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(b": ");
            out.extend_from_slice(value.as_bytes());
            out.extend_from_slice(b"\r\n");
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn limits() -> Limits {
        Limits::default()
    }

    #[test]
    fn parses_a_complete_request_and_reports_consumed_bytes() {
        let raw =
            b"POST /extract?x=1 HTTP/1.1\r\nHost: a\r\nContent-Length: 5\r\n\r\nhelloGET /next";
        let (req, consumed) = parse_request(raw, &limits()).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/extract");
        assert_eq!(req.query.as_deref(), Some("x=1"));
        assert_eq!(req.header("host"), Some("a"));
        assert_eq!(req.body, b"hello");
        assert_eq!(&raw[consumed..], b"GET /next");
        assert!(req.keep_alive());
    }

    #[test]
    fn connection_persistence_follows_version_and_token_lists() {
        let parse = |raw: &[u8]| parse_request(raw, &limits()).unwrap().unwrap().0;
        // HTTP/1.1 defaults to keep-alive; a `close` token anywhere in
        // the Connection list ends it.
        assert!(parse(b"GET / HTTP/1.1\r\n\r\n").keep_alive());
        assert!(!parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").keep_alive());
        assert!(!parse(b"GET / HTTP/1.1\r\nConnection: close, te\r\n\r\n").keep_alive());
        // HTTP/1.0 defaults to close; only an explicit keep-alive
        // persists.
        assert!(!parse(b"GET / HTTP/1.0\r\n\r\n").keep_alive());
        assert!(parse(b"GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n").keep_alive());
    }

    #[test]
    fn leading_crlf_between_requests_is_tolerated() {
        let raw = b"\r\n\r\nGET /a HTTP/1.1\r\n\r\n";
        let (req, consumed) = parse_request(raw, &limits()).unwrap().unwrap();
        assert_eq!(req.path, "/a");
        assert_eq!(consumed, raw.len(), "skipped CRLFs count as consumed");
    }

    #[test]
    fn asks_for_more_bytes_until_complete() {
        let raw = b"GET / HTTP/1.1\r\nContent-Length: 4\r\n\r\nab";
        assert_eq!(parse_request(&raw[..10], &limits()).unwrap(), None);
        assert_eq!(parse_request(raw, &limits()).unwrap(), None); // body short
        let full = b"GET / HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd";
        let (req, consumed) = parse_request(full, &limits()).unwrap().unwrap();
        assert_eq!(req.body, b"abcd");
        assert_eq!(consumed, full.len());
    }

    #[test]
    fn pipelined_requests_parse_one_at_a_time() {
        let raw = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\nConnection: close\r\n\r\n";
        let (first, consumed) = parse_request(raw, &limits()).unwrap().unwrap();
        assert_eq!(first.path, "/a");
        let (second, consumed2) = parse_request(&raw[consumed..], &limits()).unwrap().unwrap();
        assert_eq!(second.path, "/b");
        assert!(!second.keep_alive());
        assert_eq!(consumed + consumed2, raw.len());
    }

    #[test]
    fn enforces_header_and_body_limits() {
        let tight = Limits {
            max_header_bytes: 64,
            max_body_bytes: 10,
        };
        let huge_header = format!("GET / HTTP/1.1\r\nx-pad: {}\r\n\r\n", "a".repeat(100));
        assert_eq!(
            parse_request(huge_header.as_bytes(), &tight).unwrap_err(),
            RequestError::HeadersTooLarge
        );
        // Header section not yet terminated but already over the limit.
        let unterminated = format!("GET / HTTP/1.1\r\nx-pad: {}", "a".repeat(100));
        assert_eq!(
            parse_request(unterminated.as_bytes(), &tight).unwrap_err(),
            RequestError::HeadersTooLarge
        );
        let big_body = b"POST / HTTP/1.1\r\nContent-Length: 11\r\n\r\n";
        assert_eq!(
            parse_request(big_body, &tight).unwrap_err(),
            RequestError::BodyTooLarge {
                declared: 11,
                body_start: big_body.len(),
            }
        );
    }

    #[test]
    fn per_route_body_limits_override_the_blanket_limit() {
        let tight = Limits {
            max_header_bytes: 1024,
            max_body_bytes: 8,
        };
        let batchy = |method: &str, path: &str| {
            if method == "POST" && path == "/extract/batch" {
                1024
            } else {
                tight.max_body_bytes
            }
        };
        let batch =
            b"POST /extract/batch HTTP/1.1\r\nContent-Length: 20\r\n\r\n[xxxxxxxxxxxxxxxxxx]";
        let (req, consumed) = parse_request_with_body_limit(batch, &tight, &batchy)
            .unwrap()
            .unwrap();
        assert_eq!(req.path, "/extract/batch");
        assert_eq!(req.body.len(), 20);
        assert_eq!(consumed, batch.len());
        // The same declared length on any other route still trips the
        // blanket limit...
        let single = b"POST /extract HTTP/1.1\r\nContent-Length: 20\r\n\r\n";
        assert!(matches!(
            parse_request_with_body_limit(single, &tight, &batchy).unwrap_err(),
            RequestError::BodyTooLarge { declared: 20, .. }
        ));
        // ...and the plain entry point never consults routes at all.
        assert!(matches!(
            parse_request(batch, &tight).unwrap_err(),
            RequestError::BodyTooLarge { declared: 20, .. }
        ));
    }

    #[test]
    fn crlf_flood_is_bounded_by_the_header_limit() {
        // The stray-CRLF tolerance is capped: a flood of bare CRLFs must
        // be rejected (closing the connection) rather than buffered
        // forever waiting for a request line.
        let flood = b"\r\n".repeat(64);
        assert!(parse_request(&flood, &limits()).is_err());
    }

    #[test]
    fn rejects_malformed_and_unsupported_requests() {
        for raw in [
            &b"BANANA% / HTTP/1.1\r\n\r\n"[..],
            b" / HTTP/1.1\r\n\r\n",
            b"GET noslash HTTP/1.1\r\n\r\n",
            b"GET / HTTP/2.0\r\n\r\n",
            b"GET / HTTP/1.1 extra\r\n\r\n",
            b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n",
            b"GET / HTTP/1.1\r\nContent-Length: pony\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: 0\r\nContent-Length: 44\r\n\r\n",
        ] {
            let err = parse_request(raw, &limits()).unwrap_err();
            assert_eq!(err.status(), 400, "{raw:?}");
        }
        assert_eq!(
            parse_request(
                b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
                &limits()
            )
            .unwrap_err(),
            RequestError::UnsupportedTransferEncoding
        );
    }

    #[test]
    fn responses_serialize_with_framing_headers() {
        let mut out = Vec::new();
        Response::json(200, &Json::parse(r#"{"ok":true}"#).unwrap()).write_to(&mut out, true);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 11\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));

        let mut out = Vec::new();
        Response::error(429, "backpressure", "queue full")
            .with_header("retry-after", "1")
            .write_to(&mut out, false);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.contains("retry-after: 1\r\n"));
        assert!(text.contains(r#""error":"backpressure""#));

        // Borrowed headers follow the response's own; the bytes are what
        // the response would write with them as its own headers.
        let response = Response::text(404, "gone").with_header("retry-after", "1");
        let mut borrowed = Vec::new();
        response.write_with_headers(&mut borrowed, true, &[("x-request-id", "r-1")]);
        let mut owned = Vec::new();
        response
            .clone()
            .with_header("x-request-id", "r-1")
            .write_to(&mut owned, true);
        assert_eq!(borrowed, owned);
        assert_eq!(
            String::from_utf8(borrowed).unwrap(),
            "HTTP/1.1 404 Not Found\r\ncontent-type: text/plain; charset=utf-8\r\n\
             content-length: 4\r\nconnection: keep-alive\r\nretry-after: 1\r\n\
             x-request-id: r-1\r\n\r\ngone"
        );
    }
}
