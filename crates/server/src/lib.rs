//! # randmod-server
//!
//! Campaign-as-a-service: a persistent analysis server that accepts
//! measurement-campaign specifications — a packed trace, a platform
//! configuration, and either a fixed placement-seed schedule or a
//! convergence criterion — executes them on the `randmod-sim`
//! lane-batched campaign engine, and content-addresses finished results
//! by the campaign fingerprint into a checksummed on-disk store.
//! Re-submitting a finished campaign is a cache hit: the byte-identical
//! payload comes back without touching the simulator.
//!
//! The stack is dependency-free by construction (this reproduction
//! builds with no registry access): a hand-rolled, panic-free HTTP/1.1
//! layer over [`std::net::TcpListener`], binary request/response bodies
//! built on the same audited wire primitives as the simulator's
//! checkpoint codec, and JSON only for small control fields (health,
//! errors, streamed convergence checkpoints).
//!
//! * [`http`] — the bounded, panic-free HTTP/1.1 request parser and
//!   response/chunk writers.
//! * [`body`] — the `RMSPEC01` campaign-spec codec and the adaptive
//!   convergence-record codec.
//! * [`store`] — the content-addressed result cache over
//!   [`randmod_sim::checkpoint`] containers: damaged entries fail
//!   checksum validation and are recomputed, never served.
//! * [`service`] — routing, validation with contextual refusals,
//!   campaign execution, worker-pool backpressure (`429` +
//!   `Retry-After`).
//! * [`server`] — the TCP front end: keep-alive connections, read
//!   timeouts, graceful shutdown that drains in-flight campaigns.
//! * [`client`] — a minimal blocking client (used by the load harness
//!   and the test batteries, including the experiments' end-to-end
//!   Figure 1 pin).
//!
//! ## Protocol sketch
//!
//! ```text
//! POST /campaign            body: RMSPEC01 spec (see `body`)
//!   -> 200 application/octet-stream   fixed: encode_solo_runs payload
//!   -> 200 application/x-ndjson      adaptive: chunked trajectory
//!   -> 400 {"error": ...}             malformed/invalid spec
//!   -> 429 Retry-After: 1             every worker slot busy
//! GET /healthz -> 200 {"status":"ok", ...}
//! ```
//!
//! Responses carry `X-Randmod-Cache: hit|miss` and the cache key in
//! `X-Randmod-Key`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[warn(clippy::unwrap_used, clippy::expect_used)]
pub mod body;
pub mod client;
#[warn(clippy::unwrap_used, clippy::expect_used)]
pub mod http;
pub mod server;
pub mod service;
pub mod store;

pub use body::{encode_spec, AdaptiveRecord, CampaignSpec, SpecMode};
pub use client::{Client, ClientResponse};
pub use server::{start, ServerConfig, ServerHandle};
pub use service::Service;
pub use store::ResultStore;
