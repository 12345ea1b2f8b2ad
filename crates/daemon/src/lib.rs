//! # thrifty-daemon — the `thriftyd` control plane
//!
//! Everything else in this workspace runs as a batch replay that exits;
//! this crate turns the library into an *operable service* in the spirit
//! of the paper's always-on provider. The `thriftyd` binary hosts a
//! [`thrifty::service::ThriftyService`] plus its
//! [`Reconsolidator`](thrifty::reconsolidation::Reconsolidator) behind a
//! [`ClockSource`](thrifty::clock::ClockSource) adapter and drives them
//! from a single-threaded event loop ([`server`]) that sleeps only in
//! `poll(2)`, after a short busy-poll window that follows every event:
//! an idle `--sim-clock` daemon wakes only on socket I/O or `SIGHUP`, a
//! wall-clock one also every `daemon.tick_ms`.
//!
//! * **Clock adapter** — the core stays clock-free (lint rule L2); this
//!   crate is the one place allowed to read ambient time. The daemon runs
//!   on [`WallClock`](clock::WallClock) in production and on
//!   [`SimClock`](thrifty::clock::SimClock) under `--sim-clock`, where
//!   time moves only via explicit `advance` requests — which is what
//!   makes the daemon path byte-comparable to a direct library replay.
//! * **Operator protocol** — line-delimited JSON over a unix socket
//!   ([`protocol`]): `status`, `tenant register`/`deregister`, `cutover
//!   status`, `telemetry` (the full
//!   [`TelemetrySnapshot`](thrifty::telemetry::TelemetrySnapshot)),
//!   `reload`, `stop`. Replies go out nonblocking, so a peer that stops
//!   reading stalls only its own connection, and a request line is capped
//!   at [`server::MAX_LINE_BYTES`].
//! * **Config hot-reload** — on `SIGHUP` (whose handler wakes the loop
//!   through a self-pipe, [`signal`]) or a `reload` request the daemon
//!   re-reads its JSON config ([`config::DaemonConfig`]), re-validates the
//!   service section through `ServiceConfigBuilder`, applies the safe
//!   knob subset via
//!   [`ThriftyService::apply_config`](thrifty::service::ThriftyService::apply_config),
//!   and reports the rejected rest with structured reasons.
//!
//! The library half of the crate ([`runtime::DaemonCore`]) is
//! socket-free and clock-generic so tests and the `fault_fuzz --daemon`
//! harness can host the identical event loop deterministically.

#![warn(missing_docs)]

pub mod client;
pub mod clock;
pub mod config;
pub mod error;
pub mod protocol;
pub mod runtime;
pub mod server;
pub mod signal;

pub use client::DaemonClient;
pub use config::DaemonConfig;
pub use error::{DaemonError, DaemonResult};
pub use runtime::DaemonCore;
