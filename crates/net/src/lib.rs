//! # sedna-net
//!
//! The client-server network layer of the Sedna reproduction (Figure 1
//! of the paper): Sedna "is implemented on the client-server
//! architecture"; clients connect to a listener, the governor
//! establishes the connection, and a per-client session component serves
//! statements. This crate provides:
//!
//! * [`protocol`] — the length-prefixed binary wire protocol (v2):
//!   message codes for session control (with credential
//!   authentication), transactions, statement execution, out-of-band
//!   `Cancel`, and item-at-a-time result streaming (`FetchNext`), plus
//!   a structured error envelope;
//! * [`server`] — the non-blocking readiness-loop listener: one event
//!   thread owns every socket (epoll-only, so the crate builds on Linux
//!   only), parses frames incrementally, and feeds a bounded
//!   worker pool; supports per-connection request pipelining with
//!   in-order responses, admission control, and graceful
//!   drain-to-checkpoint shutdown;
//! * [`client`] — [`SednaClient`], a blocking Rust client;
//! * [`metrics`] — the `sedna_net_*` metric family, registered into the
//!   governor's registry and exported through
//!   `Governor::render_prometheus`.
//!
//! The `sednad` binary (in `src/bin/`) ties these together into a
//! standalone server process, optionally serving several databases at
//! once (`--db a,b,c`).

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
mod conn;
pub mod metrics;
mod poller;
pub mod protocol;
pub mod server;

pub use client::{ClientError, ExecReply, SednaClient};
pub use metrics::NetMetrics;
pub use protocol::{
    ActivityRow, Request, Response, SlowLogRow, DEFAULT_MAX_FRAME, PROTOCOL_VERSION,
};
pub use server::{error_kind, Credentials, NetConfig, Server, ServerHandle};
