//! # lixto-http
//!
//! The HTTP/JSON gateway that turns the `lixto_server` extraction pool
//! into a network service — the missing front half of the paper's §6
//! Transformation Server story, where wrappers built visually are
//! "served to applications over the web". Everything is built on the
//! standard library (`std::net::TcpListener` and hand-rolled HTTP/JSON),
//! because this environment has no registry access:
//!
//! * [`json`] — a small JSON value type with a parser and serializer
//!   (full escaping both ways, insertion-ordered objects);
//! * [`http`] — HTTP/1.1 framing: incremental, pipelining-aware request
//!   parsing with header/body size limits, and response serialization;
//! * [`poll`] — readiness notification: a dependency-free safe wrapper
//!   over the `poll(2)` syscall plus a [`SelfPipe`](poll::SelfPipe)
//!   waker, the two primitives the multiplexer is built on;
//! * [`gateway`] — the [`HttpGateway`]: an event-driven M:N connection
//!   multiplexer (a few event-loop threads, each owning many
//!   non-blocking keep-alive connections as per-connection state
//!   machines) with graceful drain shutdown, exposing `POST /extract`
//!   and `POST /extract/batch`, `PUT`/`GET /wrappers`,
//!   `GET /provenance/{key}` (the persisted derivation record of a
//!   cached extraction), `GET /metrics` (Prometheus text or JSON, both
//!   rendered by [`MetricInputs`] from one schema that lists every
//!   metric once: pool, cache and store counters, per-stage latency
//!   summaries, `lixto_rule_*` per-rule series, alerts and watches),
//!   `GET /debug/wrappers/{name}` / `GET /debug/slow` /
//!   `GET /debug/requests/{id}` (request tracing: every extraction
//!   carries an `X-Request-Id`, minted or client-supplied, with a
//!   retained per-stage span record), the continuous-extraction
//!   subscription layer (`PUT`/`GET`/`DELETE /watches/{id}` plus
//!   `GET /watches/{id}/events`, a chunked ndjson stream of
//!   instance-level diffs computed each scheduler tick) and
//!   `POST /admin/shutdown` over an
//!   [`ExtractionServer`](lixto_server::ExtractionServer);
//! * [`client`] — a blocking keep-alive [`HttpClient`] for tests,
//!   benches and command-line use.

// `unsafe` is denied crate-wide; the only exception is the raw syscall
// transcription in [`poll`], which opts back in item-locally.
#![deny(unsafe_code)]

pub mod client;
pub mod gateway;
pub mod http;
pub mod json;
mod metrics;
mod monitor;
pub mod poll;

pub use client::{HttpClient, HttpResponse, RetryPolicy};
pub use gateway::{GatewayConfig, GatewayObservations, GatewayStats, HttpGateway, LoopGauges};
pub use http::{parse_request, Limits, Request, RequestError, Response};
pub use json::{obj, Json, JsonError};
pub use lixto_obs::{RuleSnapshot, Severity};
pub use metrics::{MetricInputs, WatchSample};
pub use monitor::AlertsSnapshot;
