//! The coordinator server and its client: the router↔coordinator
//! surface of the sharded topology.
//!
//! A [`CoordServer`] fronts one [`Federation`] coordinator — one shard
//! slot of the multi-coordinator deployment — behind a loopback listener
//! speaking frame kinds `5`/`6` of the wire codec. A remote router (or
//! `amc-loadgen --coordinators`) discovers the coordinator's identity
//! with [`CoordRequest::Describe`] and drives whole global transactions
//! through [`CoordRequest::Exec`]: the per-site operation buckets travel
//! in one frame, the coordinator runs the full commit protocol against
//! its site fleet, and one [`CoordReply::Done`] comes back with the
//! outcome and the coordinator-side measurements.
//!
//! Both halves reuse the site runtime. The server is an [`EventServer`]
//! with a coordinator handler, so it gets the same epoll loop, worker
//! pool, load shedding and panic isolation; each `Exec` holds one worker
//! for a whole commit protocol run. The client is a [`MuxClient`]
//! addressed as [`SiteId::CENTRAL`]. Frames of the wrong kind close
//! their own connection and nothing else. Application failures travel as
//! `ErrorReply` frames — the transport stays healthy; the answer is an
//! error.
//!
//! **Concurrency limit.** A [`CoordClient`] is one connection, so it has
//! at most [`MAX_IN_FLIGHT_PER_CONN`] requests dispatched at once; any
//! more are shed (and the client retries them after a backoff). The
//! server runs at most its worker count (16–32) of those at once; the
//! rest queue, and the queue wait counts against the client's
//! `request_timeout` — an `exec` that times out there is not retried and
//! reports `SiteDown(CENTRAL)` although the server still runs it. Size
//! `request_timeout` for the concurrency you drive
//! (`amc-loadgen --coordinators` caps `--clients` at
//! [`MAX_IN_FLIGHT_PER_CONN`]).
//!
//! [`MAX_IN_FLIGHT_PER_CONN`]: crate::MAX_IN_FLIGHT_PER_CONN
//!
//! [`Federation`]: amc_core::Federation

use crate::event_loop::{EventServer, EventServerStats, Handler};
use crate::mux::{MuxClient, RetryPolicy};
use crate::wire::{CoordReply, CoordRequest, Frame};
use amc_core::{Federation, TxnOutcome};
use amc_obs::ObsSink;
use amc_types::{AmcError, AmcResult, GlobalTxnId, Operation, SiteId};
use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;

/// A coordinator's advertised identity: what [`CoordRequest::Describe`]
/// answers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoordInfo {
    /// The coordinator's id-range slot.
    pub slot: u32,
    /// Total coordinator count in the topology.
    pub coordinators: u32,
    /// The shard-map epoch this coordinator serves. The TCP lane runs a
    /// fixed topology, so this is static for the server's lifetime.
    pub epoch: u64,
    /// The site fleet the coordinator drives, ascending.
    pub sites: Vec<SiteId>,
}

/// One finished [`CoordRequest::Exec`], as reported by the coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecReport {
    /// The global transaction id the attempt ran under.
    pub gtx: GlobalTxnId,
    /// What happened.
    pub outcome: TxnOutcome,
    /// End-to-end latency at the coordinator, microseconds.
    pub latency_us: u64,
    /// Messages the coordinator exchanged with its sites.
    pub messages: u64,
}

/// A running coordinator server. Dropping it (or calling
/// [`CoordServer::shutdown`]) stops the loop and its workers.
pub struct CoordServer {
    server: EventServer,
}

impl CoordServer {
    /// Bind `listen` (e.g. `127.0.0.1:0`) and serve `federation` on it,
    /// advertising `info` to [`CoordRequest::Describe`]. The federation's
    /// configuration must match `info` (same slot/width via
    /// [`FederationConfig::sharded`]) — the server only reports, never
    /// checks.
    ///
    /// [`FederationConfig::sharded`]: amc_core::FederationConfig::sharded
    pub fn spawn(
        federation: Arc<Federation>,
        info: CoordInfo,
        listen: &str,
    ) -> io::Result<CoordServer> {
        let handler = CoordHandler { federation, info };
        let server = EventServer::serve(SiteId::CENTRAL, listen, handler)?;
        Ok(CoordServer { server })
    }

    /// The address the server actually listens on.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Current loop counters.
    pub fn stats(&self) -> EventServerStats {
        self.server.stats()
    }

    /// Stop the loop and the workers, dropping every connection.
    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

/// The coordinator handler: answers coordinator frames from one
/// federation.
struct CoordHandler {
    federation: Arc<Federation>,
    info: CoordInfo,
}

impl Handler for CoordHandler {
    type Req = CoordRequest;

    fn accept(&self, frame: Frame) -> Option<(u64, CoordRequest)> {
        match frame {
            Frame::CoordRequest { req_id, req } => Some((req_id, req)),
            _ => None,
        }
    }

    fn handle(&self, req_id: u64, req: CoordRequest) -> Frame {
        let reply = match req {
            CoordRequest::Ping => CoordReply::Pong,
            CoordRequest::Describe => CoordReply::Coord {
                slot: self.info.slot,
                coordinators: self.info.coordinators,
                epoch: self.info.epoch,
                sites: self.info.sites.clone(),
            },
            CoordRequest::Exec { per_site } => match self.federation.run_transaction(&per_site) {
                Ok(report) => CoordReply::Done {
                    gtx: report.gtx,
                    outcome: report.outcome,
                    latency_us: report.latency.as_micros() as u64,
                    messages: report.messages,
                },
                Err(error) => return Frame::ErrorReply { req_id, error },
            },
        };
        Frame::CoordReply { req_id, reply }
    }
}

// ---------------------------------------------------------------- client --

/// A client for one coordinator server: typed requests over a
/// [`MuxClient`], so any number of threads share one connection.
///
/// [`CoordClient::ping`] and [`CoordClient::describe`] retry with the
/// policy's backoff (they are idempotent); [`CoordClient::exec`] makes
/// exactly **one** transport attempt — a transaction is not idempotent,
/// and a transport failure after the frame left leaves the outcome
/// unknown, so the client surfaces `SiteDown(CENTRAL)` and lets the
/// caller decide (the load generator counts it as an error, never as a
/// silent retry that could double-apply). A load-shed answer is retried
/// even for `exec`: the server never dispatched that request.
pub struct CoordClient {
    mux: MuxClient,
}

impl CoordClient {
    /// A client for the coordinator at `addr`. No connection is made
    /// until the first call.
    pub fn new(addr: SocketAddr, policy: RetryPolicy) -> Self {
        CoordClient {
            mux: MuxClient::new(SiteId::CENTRAL, addr, policy, ObsSink::disabled()),
        }
    }

    /// Liveness probe, retried per the policy.
    pub fn ping(&self) -> AmcResult<()> {
        match self.call(CoordRequest::Ping, true)? {
            CoordReply::Pong => Ok(()),
            other => Err(unexpected("ping", other)),
        }
    }

    /// Ask the coordinator who it is, retried per the policy.
    pub fn describe(&self) -> AmcResult<CoordInfo> {
        match self.call(CoordRequest::Describe, true)? {
            CoordReply::Coord {
                slot,
                coordinators,
                epoch,
                sites,
            } => Ok(CoordInfo {
                slot,
                coordinators,
                epoch,
                sites,
            }),
            other => Err(unexpected("describe", other)),
        }
    }

    /// Run one global transaction through the coordinator. Exactly one
    /// transport attempt (see the type docs).
    pub fn exec(&self, per_site: BTreeMap<SiteId, Vec<Operation>>) -> AmcResult<ExecReport> {
        match self.call(CoordRequest::Exec { per_site }, false)? {
            CoordReply::Done {
                gtx,
                outcome,
                latency_us,
                messages,
            } => Ok(ExecReport {
                gtx,
                outcome,
                latency_us,
                messages,
            }),
            other => Err(unexpected("exec", other)),
        }
    }

    fn call(&self, req: CoordRequest, idempotent: bool) -> AmcResult<CoordReply> {
        let make_frame = |req_id| Frame::CoordRequest {
            req_id,
            req: req.clone(),
        };
        match self.mux.request(make_frame, idempotent)? {
            Frame::CoordReply { reply, .. } => Ok(reply),
            other => Err(AmcError::Protocol(format!(
                "coordinator sent a non-coordinator frame {other:?}"
            ))),
        }
    }
}

fn unexpected(request: &str, reply: CoordReply) -> AmcError {
    AmcError::Protocol(format!("coordinator answered {request} with {reply:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use amc_core::{FederationConfig, ProtocolKind};
    use amc_types::{ObjectId, Value};
    use std::time::Duration;

    fn spawn_coord(slot: u32, coordinators: u32) -> (CoordServer, Arc<Federation>) {
        spawn_coord_with(
            FederationConfig::uniform(2, ProtocolKind::TwoPhaseCommit).sharded(slot, coordinators),
        )
    }

    fn spawn_coord_with(cfg: FederationConfig) -> (CoordServer, Arc<Federation>) {
        let (slot, coordinators) = cfg
            .coordinator
            .as_ref()
            .map_or((0, 1), |id| (id.slot, id.coordinators));
        let mut fed = Federation::new(cfg);
        fed.set_recording(false, false);
        let fed = Arc::new(fed);
        let info = CoordInfo {
            slot,
            coordinators,
            epoch: 1,
            sites: vec![SiteId::new(1), SiteId::new(2)],
        };
        let srv = CoordServer::spawn(Arc::clone(&fed), info, "127.0.0.1:0").unwrap();
        (srv, fed)
    }

    #[test]
    fn serves_describe_and_exec_over_tcp() {
        let (srv, fed) = spawn_coord(2, 4);
        let obj = ObjectId::new(77);
        fed.load_site(SiteId::new(1), &[(obj, Value::counter(10))])
            .unwrap();

        let client = CoordClient::new(srv.addr(), RetryPolicy::default());
        client.ping().unwrap();
        let info = client.describe().unwrap();
        assert_eq!(info.slot, 2);
        assert_eq!(info.coordinators, 4);
        assert_eq!(info.sites, vec![SiteId::new(1), SiteId::new(2)]);

        let report = client
            .exec(BTreeMap::from([(
                SiteId::new(1),
                vec![Operation::Increment { obj, delta: 5 }],
            )]))
            .unwrap();
        assert_eq!(report.outcome, TxnOutcome::Committed);
        // The gtx landed in slot 2's id range.
        assert_eq!(amc_core::coord_slot_of(report.gtx), 2);
        srv.shutdown();
    }

    #[test]
    fn failed_transactions_come_back_as_aborted_not_poisoned() {
        let (srv, _fed) = spawn_coord(0, 1);
        let client = CoordClient::new(srv.addr(), RetryPolicy::default());
        // Incrementing a missing object makes the site vote no: the
        // commit protocol aborts globally and the reply says so.
        let report = client
            .exec(BTreeMap::from([(
                SiteId::new(1),
                vec![Operation::Increment {
                    obj: ObjectId::new(999),
                    delta: 1,
                }],
            )]))
            .unwrap();
        assert_eq!(report.outcome, TxnOutcome::Aborted);
        // The connection survives the abort.
        client.ping().unwrap();
        srv.shutdown();
    }

    #[test]
    fn exec_past_the_request_timeout_is_central_down_after_one_dispatch() {
        // Every site message takes 100 ms, so a two-site 2PC transaction
        // runs ~800 ms — far past the client's 100 ms request deadline.
        let mut cfg = FederationConfig::uniform(2, ProtocolKind::TwoPhaseCommit);
        cfg.message_delay = Duration::from_millis(100);
        let (srv, fed) = spawn_coord_with(cfg);
        let obj = |s: u32| ObjectId::new(u64::from(s) << 32);
        for s in 1..=2 {
            fed.load_site(SiteId::new(s), &[(obj(s), Value::counter(10))])
                .unwrap();
        }
        let policy = RetryPolicy {
            request_timeout: Duration::from_millis(100),
            max_attempts: 5,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(2),
            ..RetryPolicy::default()
        };
        let client = CoordClient::new(srv.addr(), policy);
        let transfer = BTreeMap::from([
            (
                SiteId::new(1),
                vec![Operation::Increment {
                    obj: obj(1),
                    delta: -1,
                }],
            ),
            (
                SiteId::new(2),
                vec![Operation::Increment {
                    obj: obj(2),
                    delta: 1,
                }],
            ),
        ]);
        let err = client.exec(transfer).unwrap_err();
        assert_eq!(err, AmcError::SiteDown(SiteId::CENTRAL));
        // Exactly one Exec reached the coordinator: a transaction whose
        // outcome is unknown is never sent again.
        assert_eq!(srv.stats().dispatched, 1);
        srv.shutdown();
    }

    #[test]
    fn more_concurrent_execs_than_workers_all_commit() {
        // Each transaction holds a worker for ~24 ms (6 messages, 2 ms
        // per leg). The pool has at most 32 workers, so the 64 requests —
        // one connection's full in-flight allowance — queue for several
        // rounds; every one must still commit within the default deadline.
        let clients = crate::MAX_IN_FLIGHT_PER_CONN as u64;
        let mut cfg = FederationConfig::uniform(2, ProtocolKind::TwoPhaseCommit);
        cfg.message_delay = Duration::from_millis(2);
        let (srv, fed) = spawn_coord_with(cfg);
        let obj = |s: u32, i: u64| ObjectId::new((u64::from(s) << 32) | i);
        for s in 1..=2 {
            let objs: Vec<_> = (0..clients)
                .map(|i| (obj(s, i), Value::counter(10)))
                .collect();
            fed.load_site(SiteId::new(s), &objs).unwrap();
        }
        let client = CoordClient::new(srv.addr(), RetryPolicy::default());
        let start = std::sync::Barrier::new(clients as usize);
        let outcomes: Vec<AmcResult<ExecReport>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|i| {
                    let (client, start) = (&client, &start);
                    scope.spawn(move || {
                        start.wait();
                        client.exec(BTreeMap::from([
                            (
                                SiteId::new(1),
                                vec![Operation::Increment {
                                    obj: obj(1, i),
                                    delta: -1,
                                }],
                            ),
                            (
                                SiteId::new(2),
                                vec![Operation::Increment {
                                    obj: obj(2, i),
                                    delta: 1,
                                }],
                            ),
                        ]))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for outcome in outcomes {
            assert_eq!(outcome.unwrap().outcome, TxnOutcome::Committed);
        }
        let stats = srv.stats();
        assert_eq!(stats.dispatched, clients);
        assert_eq!(stats.load_sheds, 0);
        srv.shutdown();
    }
}
