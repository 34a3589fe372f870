//! A minimal blocking HTTP/1.1 client with keep-alive, for driving the
//! gateway from tests, benches and examples (and anything else that
//! wants to talk to it without external dependencies).
//!
//! The client can retry transient rejections for you: pass a
//! [`RetryPolicy`] to [`HttpClient::request_with_retry`] and `429 Too
//! Many Requests` / `503 Service Unavailable` responses are retried
//! with exponential backoff, honoring the server's `Retry-After` header
//! when present — the polite way to ride out the gateway's
//! backpressure instead of hammering it.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::json::{decimal, Json, JsonError};

/// How [`HttpClient::request_with_retry`] treats 429/503 responses and
/// transient connection failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (the first try included); the last attempt's
    /// response (or error) is returned as-is. Clamped to ≥ 1.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per retry.
    pub base_backoff: Duration,
    /// Upper bound for any one sleep — also caps an honored
    /// `Retry-After`, so a misbehaving server cannot park the client.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
        }
    }
}

impl RetryPolicy {
    /// The sleep before retry number `retry` (0-based), honoring a
    /// `Retry-After` value (seconds) when the server sent one.
    fn backoff(&self, retry: u32, retry_after: Option<u64>) -> Duration {
        let chosen = match retry_after {
            Some(secs) => Duration::from_secs(secs),
            None => self.base_backoff.saturating_mul(1u32 << retry.min(16)),
        };
        chosen.min(self.max_backoff)
    }
}

/// A parsed HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// `(name, value)` headers, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The response body.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// First value of header `name` (lower-case).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (lossy never needed for our own gateway).
    pub fn text(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("")
    }

    /// Parse the body as JSON.
    pub fn json(&self) -> Result<Json, JsonError> {
        Json::parse(self.text())
    }
}

/// One keep-alive connection to an HTTP server.
pub struct HttpClient {
    stream: TcpStream,
    /// The resolved peer, kept for reconnects after the server closes
    /// the connection (e.g. a `Connection: close` on a 503 drain).
    peer: SocketAddr,
    buf: Vec<u8>,
    /// The outgoing request, framed in place and reused across requests.
    out: Vec<u8>,
}

/// Capacity a client keeps in its request buffer between requests; one
/// large body does not pin its size for the connection's lifetime.
const RETAINED_OUT_BYTES: usize = 64 * 1024;

impl HttpClient {
    /// Connect with a 30 s read timeout.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<HttpClient> {
        let stream = TcpStream::connect(addr)?;
        let peer = stream.peer_addr()?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_nodelay(true)?;
        Ok(HttpClient {
            stream,
            peer,
            buf: Vec::with_capacity(4096),
            out: Vec::new(),
        })
    }

    /// Drop the current connection and dial the same peer again.
    pub fn reconnect(&mut self) -> std::io::Result<()> {
        let stream = TcpStream::connect(self.peer)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_nodelay(true)?;
        self.stream = stream;
        self.buf.clear();
        Ok(())
    }

    /// Issue one request and read the full response. The connection
    /// stays usable afterwards unless the server said
    /// `Connection: close`.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: Option<&[u8]>,
    ) -> std::io::Result<HttpResponse> {
        let body = body.unwrap_or_default();
        let out = &mut self.out;
        out.clear();
        out.reserve(256 + body.len());
        for piece in [method, " ", path, " HTTP/1.1\r\nhost: lixto\r\n"] {
            out.extend_from_slice(piece.as_bytes());
        }
        for (name, value) in headers {
            for piece in [name, ": ", value, "\r\n"] {
                out.extend_from_slice(piece.as_bytes());
            }
        }
        out.extend_from_slice(b"content-length: ");
        out.extend_from_slice(decimal(body.len() as u64, &mut [0; 20]).as_bytes());
        out.extend_from_slice(b"\r\n\r\n");
        out.extend_from_slice(body);
        let sent = self.stream.write_all(out);
        if out.capacity() > RETAINED_OUT_BYTES {
            *out = Vec::new();
        }
        sent?;
        self.read_response()
    }

    /// Issue a request, retrying 429/503 responses per `policy`. Sleeps
    /// the server's `Retry-After` when sent, else exponential backoff;
    /// reconnects when the server closed the connection alongside the
    /// rejection. Returns the first non-retryable response, or the
    /// final attempt's outcome once attempts are exhausted.
    ///
    /// Rejection retries are always safe: a 429/503 means the server
    /// refused the work without doing it. I/O *errors* are retried only
    /// for `GET`/`HEAD` — a lost response (timeout, connection drop) on
    /// any other method may mean the server already did the work, and
    /// re-sending would duplicate a non-idempotent operation (every
    /// accepted `PUT /wrappers` registers a new version, for one).
    pub fn request_with_retry(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: Option<&[u8]>,
        policy: RetryPolicy,
    ) -> std::io::Result<HttpResponse> {
        let attempts = policy.max_attempts.max(1);
        let retry_io = matches!(method, "GET" | "HEAD");
        let mut retry = 0;
        loop {
            let last = retry + 1 >= attempts;
            match self.request(method, path, headers, body) {
                Ok(response) if matches!(response.status, 429 | 503) && !last => {
                    let retry_after = response
                        .header("retry-after")
                        .and_then(|v| v.trim().parse::<u64>().ok());
                    let closing = response.header("connection") == Some("close");
                    std::thread::sleep(policy.backoff(retry, retry_after));
                    if closing {
                        self.reconnect()?;
                    }
                }
                Ok(response) => return Ok(response),
                Err(e) if retry_io && !last => {
                    // The peer may have closed a kept-alive connection
                    // under us; dial again after the backoff.
                    std::thread::sleep(policy.backoff(retry, None));
                    if self.reconnect().is_err() {
                        return Err(e);
                    }
                }
                Err(e) => return Err(e),
            }
            retry += 1;
        }
    }

    /// `POST path` with a JSON body, retrying per `policy` — the
    /// backpressure-friendly way to drive `/extract`.
    pub fn post_json_with_retry(
        &mut self,
        path: &str,
        body: &str,
        policy: RetryPolicy,
    ) -> std::io::Result<HttpResponse> {
        self.request_with_retry(
            "POST",
            path,
            &[("content-type", "application/json")],
            Some(body.as_bytes()),
            policy,
        )
    }

    /// `GET path`.
    pub fn get(&mut self, path: &str) -> std::io::Result<HttpResponse> {
        self.request("GET", path, &[], None)
    }

    /// `GET path` with an `Accept` header.
    pub fn get_accept(&mut self, path: &str, accept: &str) -> std::io::Result<HttpResponse> {
        self.request("GET", path, &[("accept", accept)], None)
    }

    /// `POST path` with a JSON body.
    pub fn post_json(&mut self, path: &str, body: &str) -> std::io::Result<HttpResponse> {
        self.request(
            "POST",
            path,
            &[("content-type", "application/json")],
            Some(body.as_bytes()),
        )
    }

    /// `PUT path` with a JSON body.
    pub fn put_json(&mut self, path: &str, body: &str) -> std::io::Result<HttpResponse> {
        self.request(
            "PUT",
            path,
            &[("content-type", "application/json")],
            Some(body.as_bytes()),
        )
    }

    fn read_response(&mut self) -> std::io::Result<HttpResponse> {
        let malformed = |what: &str| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("bad response: {what}"),
            )
        };
        // Bytes before `searched` are known not to start the head's
        // terminator, so each read only scans what it added (plus the
        // three bytes a terminator split across reads may start in).
        let mut searched = 0;
        loop {
            if let Some(at) = self.buf[searched..]
                .windows(4)
                .position(|w| w == b"\r\n\r\n")
            {
                let header_end = searched + at;
                let head = std::str::from_utf8(&self.buf[..header_end])
                    .map_err(|_| malformed("not UTF-8"))?;
                let mut lines = head.split("\r\n");
                let status_line = lines.next().unwrap_or("");
                let status = status_line
                    .split(' ')
                    .nth(1)
                    .and_then(|s| s.parse::<u16>().ok())
                    .ok_or_else(|| malformed("status line"))?;
                let headers: Vec<(String, String)> = lines
                    .filter_map(|line| line.split_once(':'))
                    .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_string()))
                    .collect();
                let content_length = headers
                    .iter()
                    .find(|(n, _)| n == "content-length")
                    .and_then(|(_, v)| v.parse::<usize>().ok())
                    .ok_or_else(|| malformed("missing content-length"))?;
                let body_start = header_end + 4;
                let total = body_start + content_length;
                while self.buf.len() < total {
                    self.fill()?;
                }
                let body = self.buf[body_start..total].to_vec();
                self.buf.drain(..total);
                return Ok(HttpResponse {
                    status,
                    headers,
                    body,
                });
            }
            searched = self.buf.len().saturating_sub(3);
            self.fill()?;
        }
    }

    fn fill(&mut self) -> std::io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection mid-response",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// A scripted server: each accepted connection serves requests off
    /// the script (status, retry-after), one script entry per request,
    /// closing the connection after every response (`Connection:
    /// close`) so the client's reconnect path is exercised too.
    fn scripted_server(script: Vec<(u16, Option<u64>)>) -> (SocketAddr, Arc<AtomicUsize>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let served = Arc::new(AtomicUsize::new(0));
        let count = served.clone();
        std::thread::spawn(move || {
            for (status, retry_after) in script {
                let Ok((mut stream, _)) = listener.accept() else {
                    return;
                };
                // Read the request head (our client always sends
                // content-length, and these tests use empty bodies).
                let mut buf = Vec::new();
                let mut chunk = [0u8; 1024];
                while !buf.windows(4).any(|w| w == b"\r\n\r\n") {
                    match stream.read(&mut chunk) {
                        Ok(0) | Err(_) => return,
                        Ok(n) => buf.extend_from_slice(&chunk[..n]),
                    }
                }
                // Status 0 scripts a server that accepts the request and
                // drops the connection without answering (lost response).
                if status == 0 {
                    count.fetch_add(1, Ordering::SeqCst);
                    drop(stream);
                    continue;
                }
                let body = format!("{{\"status\":{status}}}");
                let retry_after = retry_after
                    .map(|s| format!("retry-after: {s}\r\n"))
                    .unwrap_or_default();
                let reason = match status {
                    200 => "OK",
                    429 => "Too Many Requests",
                    _ => "Service Unavailable",
                };
                // Count before writing: the client may observe the
                // response (and assert on the count) the instant the
                // bytes land, so the increment must already be visible.
                count.fetch_add(1, Ordering::SeqCst);
                let _ = stream.write_all(
                    format!(
                        "HTTP/1.1 {status} {reason}\r\n{retry_after}content-length: {}\r\nconnection: close\r\n\r\n{body}",
                        body.len()
                    )
                    .as_bytes(),
                );
            }
        });
        (addr, served)
    }

    fn fast_policy(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(20),
        }
    }

    #[test]
    fn retries_429_until_success_honoring_retry_after() {
        let (addr, served) = scripted_server(vec![(429, Some(0)), (429, Some(0)), (200, None)]);
        let mut client = HttpClient::connect(addr).unwrap();
        let response = client
            .request_with_retry("GET", "/x", &[], None, fast_policy(5))
            .unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(
            served.load(Ordering::SeqCst),
            3,
            "two retries, then the hit"
        );
    }

    #[test]
    fn attempts_are_capped_and_the_last_rejection_is_returned() {
        let (addr, served) = scripted_server(vec![(503, None); 8]);
        let mut client = HttpClient::connect(addr).unwrap();
        let response = client
            .request_with_retry("GET", "/x", &[], None, fast_policy(3))
            .unwrap();
        assert_eq!(response.status, 503, "gave up with the server's answer");
        assert_eq!(
            served.load(Ordering::SeqCst),
            3,
            "exactly max_attempts requests hit the server"
        );
    }

    #[test]
    fn non_retryable_statuses_return_immediately() {
        let (addr, served) = scripted_server(vec![(200, None), (200, None)]);
        let mut client = HttpClient::connect(addr).unwrap();
        let response = client
            .request_with_retry("GET", "/x", &[], None, fast_policy(5))
            .unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(served.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn lost_responses_retry_gets_but_never_non_idempotent_methods() {
        // GET: a dropped response is retried (safe to re-issue).
        let (addr, served) = scripted_server(vec![(0, None), (200, None)]);
        let mut client = HttpClient::connect(addr).unwrap();
        let response = client
            .request_with_retry("GET", "/x", &[], None, fast_policy(3))
            .unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(served.load(Ordering::SeqCst), 2);

        // POST: the server may already have done the work, so a lost
        // response surfaces as an error instead of a duplicate send.
        let (addr, served) = scripted_server(vec![(0, None), (200, None)]);
        let mut client = HttpClient::connect(addr).unwrap();
        let err = client
            .request_with_retry("POST", "/x", &[], Some(b"{}"), fast_policy(3))
            .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        assert_eq!(served.load(Ordering::SeqCst), 1, "no duplicate POST");
    }

    #[test]
    fn a_head_arriving_one_byte_per_read_parses() {
        // The server writes the response one byte at a time with a pause
        // between bytes, so the client's reads end mid-head and split
        // the terminator at every point (a read that happens to take
        // several bytes only makes the case easier).
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let response = "HTTP/1.1 200 OK\r\nx-pad: abc\r\ncontent-length: 5\r\n\r\nhello";
        let expected: &[u8] =
            b"POST /p HTTP/1.1\r\nhost: lixto\r\nx-a: 1\r\ncontent-length: 2\r\n\r\n{}";
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            stream.set_nodelay(true).unwrap();
            let mut request = vec![0u8; expected.len()];
            stream.read_exact(&mut request).unwrap();
            for byte in response.as_bytes() {
                stream.write_all(std::slice::from_ref(byte)).unwrap();
                std::thread::sleep(Duration::from_millis(1));
            }
            request
        });
        let mut client = HttpClient::connect(addr).unwrap();
        let answer = client
            .request("POST", "/p", &[("x-a", "1")], Some(b"{}"))
            .unwrap();
        assert_eq!(answer.status, 200);
        assert_eq!(answer.header("x-pad"), Some("abc"));
        assert_eq!(answer.body, b"hello");
        assert!(client.buf.is_empty(), "nothing left over");
        assert_eq!(server.join().unwrap(), expected, "the framed request");
    }

    #[test]
    fn backoff_caps_and_retry_after_priority() {
        let p = RetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::from_millis(100),
            max_backoff: Duration::from_millis(300),
        };
        assert_eq!(p.backoff(0, None), Duration::from_millis(100));
        assert_eq!(p.backoff(1, None), Duration::from_millis(200));
        assert_eq!(p.backoff(2, None), Duration::from_millis(300), "capped");
        assert_eq!(p.backoff(0, Some(0)), Duration::ZERO, "Retry-After wins");
        assert_eq!(
            p.backoff(0, Some(3600)),
            Duration::from_millis(300),
            "a huge Retry-After is capped too"
        );
    }
}
