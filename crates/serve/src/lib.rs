//! # rap-serve — multi-tenant streaming scan service
//!
//! The paper's fabric (§3.3) is built for always-on streaming
//! inspection: ping-pong bank input pages feed per-array FIFOs, and
//! match reports ride output FIFOs back to the host over interrupts.
//! This crate puts a service on top of the reproduction's modeled
//! fabric: a software control plane that admits, groups, and
//! demultiplexes many concurrent tenant streams, each scanned on its
//! producer's own thread.
//!
//! The design follows the software–hardware split end to end:
//!
//! - **Registration** runs the full pipeline (compile → analyze → map →
//!   verify → bound → admit), warm-started from the pipeline's plan
//!   cache — a pattern set the server has already planned performs
//!   zero compile-stage work.
//! - **Placement** lands each tenant on the least-loaded shard. A shard
//!   is an admission group, not a thread: its residents share one
//!   certified [`rap_admit::ComposedPlan`], re-admitted on every join
//!   and leave.
//! - **Streaming** steps each chunk, inside [`Session::send`] on the
//!   producer's thread, through the session's own resumable simulator
//!   state (`rap_sim::StreamState`) over the tenant's solo plan, and
//!   delivers its match events before `send` returns. Admission
//!   certifies that a tenant's matches in the composition equal its solo
//!   run, so no tenant's scan ever touches another tenant's arrays or
//!   traffic, and a session's state does not grow with its stream. The
//!   arrays of §3.3 scan independently in the same way.
//! - **Backpressure** budgets come from certified quantities (the bank
//!   ping-pong input window and `rap-bound`'s B002 worst-case output
//!   occupancy), scaled by [`ServeConfig::queue_pages`] — not from
//!   ad-hoc constants.
//! - **Telemetry** is the ops surface: `rap_serve_*` counters, gauges,
//!   and latency histograms land in the shared registry and export
//!   through the existing Prometheus/JSONL paths.
//!
//! Producers are either in-process ([`Server::register`] →
//! [`Session`]) or remote over a framed `std::net` TCP protocol
//! ([`Server::listen`] + [`Client`], one thread per connection); no
//! async runtime is involved.
//!
//! ```
//! use rap_pipeline::{BenchConfig, PatternSet, Pipeline};
//! use rap_serve::{ServeConfig, Server};
//!
//! let server = Server::new(Pipeline::new(BenchConfig::default()), ServeConfig::default());
//! let patterns = PatternSet::parse(&["abc".to_string()]).unwrap();
//! let session = server.register("tenant-a", &patterns).unwrap();
//! session.send(b"xxabcxx").unwrap();
//! session.finish();
//! let events = session.drain();
//! assert_eq!(events.len(), 1);
//! assert_eq!(events[0].end, 5);
//! ```

mod config;
mod metrics;
mod net;
mod rules;
mod server;
mod session;

pub use config::ServeConfig;
pub use metrics::ServeMetrics;
pub use net::{
    Client, RegisterReply, OP_ACCEPTED, OP_ACK, OP_BYE, OP_CHUNK, OP_EVENTS, OP_FINISH,
    OP_REGISTER, OP_REJECTED, OP_SWAP,
};
pub use rules::{Report, Rule};
pub use server::{ServeError, Server};
pub use session::{SendOutcome, Session, SessionStats};
