//! The allocation budget of a loop-served `/extract` hit.
//!
//! A counting global allocator tallies every heap allocation the whole
//! process makes while a raw `TcpStream` client — pre-built request
//! bytes out, a fixed buffer in, so the client itself allocates nothing
//! — drives keep-alive `POST /extract` hits against a gateway in its
//! shipped configuration: tracing, the monitor's sampler and the watch
//! scheduler all run. Their background ticks allocate too, but the
//! budget applies to the cheapest of five windows, so a tick that lands
//! in one window does not count. Every request is answered from the hot tier on the event loop, so
//! the count is what one hit costs the gateway: request framing, JSON
//! decode, the hot-tier lookup, the response body and its framing, and
//! the span record.
//!
//! This file holds a single test on purpose: the counter is
//! process-wide, and a second test running beside it would be counted
//! too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use lixto::core::XmlDesign;
use lixto::elog::StaticWeb;
use lixto::http::{GatewayConfig, HttpGateway};
use lixto::server::{ExtractionServer, ServerConfig, WrapperRegistry};
use lixto::workloads::{http_traffic, traffic};

/// Heap allocations (fresh blocks and resizes) per loop-served hit may
/// not exceed this. Measured at 25.0 on the mix below, down from 47.1
/// before escaped strings were decoded in a reused buffer, the
/// `/extract` body was reserved once, numbers and response heads were
/// written without `format!`, the memo took over the provenance key and
/// the trace id stopped being copied per consumer. What remains is the
/// parsed request's owned method, path, headers and body, the decoded
/// `/extract` fields, the trace id and its copy for the pool, the pool's
/// hit response, and the span record.
const BUDGET_PER_HIT: u64 = 25;

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to `System` unchanged; the counter is the
// only addition and never touches the returned memory.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Send one pre-built request and read its response into `buf`,
/// allocation-free; returns the status code.
fn round_trip(stream: &mut TcpStream, request: &[u8], buf: &mut [u8]) -> u16 {
    stream.write_all(request).unwrap();
    let mut filled = 0;
    loop {
        let n = stream.read(&mut buf[filled..]).unwrap();
        assert!(n > 0, "gateway closed the connection");
        filled += n;
        let Some(head_end) = buf[..filled].windows(4).position(|w| w == b"\r\n\r\n") else {
            continue;
        };
        let head = std::str::from_utf8(&buf[..head_end]).unwrap();
        let length: usize = head
            .split("\r\n")
            .find_map(|line| line.strip_prefix("content-length: "))
            .expect("content-length header")
            .parse()
            .unwrap();
        if filled >= head_end + 4 + length {
            assert_eq!(filled, head_end + 4 + length, "one response per request");
            return head[9..12].parse().unwrap();
        }
    }
}

#[test]
fn a_loop_served_hit_stays_within_its_allocation_budget() {
    let registry = Arc::new(WrapperRegistry::new());
    let profiles = traffic::profiles();
    for p in &profiles {
        let design = p
            .auxiliary
            .iter()
            .fold(XmlDesign::new().root(p.root), |d, a| d.auxiliary(a));
        registry.register_source(p.name, p.program, design).unwrap();
    }
    let server = Arc::new(ExtractionServer::start(
        ServerConfig::default(),
        registry,
        Arc::new(StaticWeb::new()),
    ));
    let gateway = HttpGateway::bind(
        "127.0.0.1:0",
        GatewayConfig {
            event_loops: 1,
            idle_timeout: Duration::from_secs(60),
            ..GatewayConfig::default()
        },
        server.clone(),
    )
    .unwrap();

    // One request per wrapper, framed as `HttpClient` frames them.
    let requests: Vec<Vec<u8>> = profiles
        .iter()
        .map(|p| {
            let html = traffic::page_for(p.name, 1, 0);
            let body = http_traffic::extract_body(p.name, p.entry_url, &html);
            let mut request = format!(
                "POST /extract HTTP/1.1\r\nhost: lixto\r\ncontent-type: application/json\r\n\
                 content-length: {}\r\n\r\n",
                body.len()
            )
            .into_bytes();
            request.extend_from_slice(body.as_bytes());
            request
        })
        .collect();
    let mut stream = TcpStream::connect(gateway.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut buf = vec![0u8; 64 * 1024];
    // Warm-up: the first round misses and fills the hot tier, later
    // rounds fill each entry's memo and settle every reusable buffer.
    for _ in 0..20 {
        for request in &requests {
            assert_eq!(round_trip(&mut stream, request, &mut buf), 200);
        }
    }

    // Five windows of 200 hits each; the budget applies to the cheapest
    // window, so one stray allocation by an idle thread (a timer sweep,
    // say) cannot fail the test, while any per-hit cost shows in all.
    let rounds_per_window = 40u64;
    let hits_per_window = rounds_per_window * requests.len() as u64;
    let mut per_hit = Vec::with_capacity(5);
    for _ in 0..5 {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for _ in 0..rounds_per_window {
            for request in &requests {
                assert_eq!(round_trip(&mut stream, request, &mut buf), 200);
            }
        }
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        per_hit.push(allocations as f64 / hits_per_window as f64);
    }
    eprintln!(
        "allocations per loop-served hit, five windows of {hits_per_window} hits: {per_hit:?}"
    );
    assert_eq!(
        server.metrics().cache.hits,
        (19 + 5 * rounds_per_window) * requests.len() as u64,
        "every request after the first round was a hit"
    );
    let cheapest = per_hit.iter().copied().fold(f64::INFINITY, f64::min);
    assert!(
        cheapest <= BUDGET_PER_HIT as f64,
        "{cheapest:.2} allocations per hit exceed the budget of {BUDGET_PER_HIT}"
    );

    drop(stream);
    gateway.shutdown();
    server.initiate_shutdown();
}
