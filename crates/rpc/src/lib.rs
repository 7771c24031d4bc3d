//! # amc-rpc
//!
//! The networked federation runtime: the paper's integrated system as it
//! actually deploys — a central coordinator talking to independent local
//! systems over a network, not over function calls.
//!
//! * [`wire`] — the length-prefixed framed codec (version byte +
//!   hand-rolled binary body) over the `amc-net` [`amc_net::Payload`]
//!   vocabulary, so the simulator and the networked runtime share one
//!   message grammar;
//! * [`event_loop`] — the **site server** ([`EventServer`]): one epoll
//!   thread multiplexing every connection, incremental frame decode,
//!   batched reply writes, a worker pool dispatching each request to the
//!   same `LocalCommManager` the in-process runtime uses, and explicit
//!   per-connection backpressure (excess requests are shed with
//!   `BufferExhausted`, not queued). Malformed frames kill their
//!   connection, never the server;
//! * [`coord`] — the TCP **coordinator server** + client: one
//!   [`amc_core::Federation`] shard slot behind a listener speaking the
//!   coordinator frames (kinds `5`/`6`), so a remote router or load
//!   generator drives whole global transactions in one round trip;
//! * [`mux`] — the **RPC client** ([`MuxClient`]): one shared
//!   connection per site, any number of concurrent callers, replies
//!   matched to callers by request id in whatever order the server
//!   finishes them; per-request deadlines, capped exponential-backoff
//!   retries ([`RetryPolicy`]) and automatic reconnect, all surfaced as
//!   `amc-obs` events so `explain` works on networked runs;
//! * [`transport`] — the [`amc_net::transport::FederationTransport`] impl
//!   ([`TcpTransport`]) gluing one client per site into
//!   `amc_core::Federation::with_transport`;
//! * [`recovery`] — durable restart: a site started with `--wal-dir`
//!   persists its engine WAL and work journal there, and
//!   [`SiteRecoveryManager`] rebuilds both after a `kill -9`, resolving
//!   in-doubt transactions through the coordinator's inquiry path.
//!
//! There is one server runtime and one client. The coordinator sends a
//! transaction's messages one at a time in ascending site order, so every
//! transaction takes its L0 locks in the same order and no lock cycle
//! can form across sites.
//!
//! The root package's binaries (`amc-site-server`, `amc-loadgen`,
//! `amc-coord-server`, `amc-paxos-coord`) run the same pieces as
//! separate OS processes; experiment E10 measures what the wire costs
//! relative to the in-process dispatcher.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod coord;
pub mod event_loop;
pub mod mux;
pub mod recovery;
pub mod transport;
pub mod wire;

pub use coord::{CoordClient, CoordInfo, CoordServer, ExecReport};
pub use event_loop::{EventServer, EventServerStats, MAX_IN_FLIGHT_PER_CONN, MAX_WBUF_BYTES};
pub use mux::{MuxClient, RetryPolicy};
pub use recovery::{FileWorkJournal, SiteRecoveryManager};
pub use transport::TcpTransport;
pub use wire::{Frame, FrameBuffer, FrameReadError, WireError, MAX_FRAME_LEN, WIRE_VERSION};
