//! The TCP coordinator server and its client: the router↔coordinator
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
//! Concurrency model: thread-per-connection (a router holds few,
//! long-lived connections, and each `Exec` blocks its thread for a whole
//! commit protocol run). Malformed frames kill their own connection and
//! nothing else. Application failures travel as `ErrorReply` frames —
//! the transport stays healthy; the answer is an error.
//!
//! [`Federation`]: amc_core::Federation

use crate::event_loop::bind_with_retry;
use crate::mux::RetryPolicy;
use crate::wire::{read_frame, write_frame, CoordReply, CoordRequest, Frame, FrameBuffer};
use amc_core::{Federation, TxnOutcome};
use amc_types::{AmcError, AmcResult, GlobalTxnId, Operation, SiteId};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::io::{self, Read as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How often a blocked connection read wakes up to check the stop flag.
const STOP_POLL: Duration = Duration::from_millis(100);

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
/// [`CoordServer::shutdown`]) stops the listener and joins every
/// connection thread.
pub struct CoordServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
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
        let listener: TcpListener = bind_with_retry(listen)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept_thread = {
            let stop = Arc::clone(&stop);
            let conn_threads = Arc::clone(&conn_threads);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let federation = Arc::clone(&federation);
                    let info = info.clone();
                    let stop = Arc::clone(&stop);
                    let handle = std::thread::spawn(move || {
                        serve_coord_connection(stream, &federation, &info, &stop);
                    });
                    let mut threads = conn_threads.lock();
                    threads.retain(|h: &JoinHandle<()>| !h.is_finished());
                    threads.push(handle);
                }
            })
        };
        Ok(CoordServer {
            addr,
            stop,
            accept_thread: Some(accept_thread),
            conn_threads,
        })
    }

    /// The address the server actually listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, close the listener, and join every thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        for h in self.conn_threads.lock().drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for CoordServer {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.stop_and_join();
        }
    }
}

/// Serve one coordinator request: run it and build the reply frame.
/// `None` for frames a coordinator must never receive (drop the
/// connection).
fn coord_reply_for_frame(frame: Frame, federation: &Federation, info: &CoordInfo) -> Option<Frame> {
    let Frame::CoordRequest { req_id, req } = frame else {
        return None;
    };
    Some(match req {
        CoordRequest::Ping => Frame::CoordReply {
            req_id,
            reply: CoordReply::Pong,
        },
        CoordRequest::Describe => Frame::CoordReply {
            req_id,
            reply: CoordReply::Coord {
                slot: info.slot,
                coordinators: info.coordinators,
                epoch: info.epoch,
                sites: info.sites.clone(),
            },
        },
        CoordRequest::Exec { per_site } => match federation.run_transaction(&per_site) {
            Ok(report) => Frame::CoordReply {
                req_id,
                reply: CoordReply::Done {
                    gtx: report.gtx,
                    outcome: report.outcome,
                    latency_us: report.latency.as_micros() as u64,
                    messages: report.messages,
                },
            },
            Err(error) => Frame::ErrorReply { req_id, error },
        },
    })
}

/// One connection's request loop. Reads go through a [`FrameBuffer`], so
/// a frame split across read-timeout ticks still parses.
fn serve_coord_connection(
    mut stream: TcpStream,
    federation: &Federation,
    info: &CoordInfo,
    stop: &AtomicBool,
) {
    if stream.set_read_timeout(Some(STOP_POLL)).is_err() {
        return;
    }
    let _ = stream.set_nodelay(true);
    let mut buf = FrameBuffer::new();
    let mut chunk = [0u8; 64 * 1024];
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return, // peer closed
            Ok(n) => buf.extend(&chunk[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(_) => return,
        }
        loop {
            let frame = match buf.next_frame() {
                Ok(Some(frame)) => frame,
                // Partial frame: wait for more bytes.
                Ok(None) => break,
                // Garbage: frame boundaries are gone — drop the
                // connection (never the server).
                Err(_) => return,
            };
            let Some(reply) = coord_reply_for_frame(frame, federation, info) else {
                return;
            };
            if write_frame(&mut stream, &reply).is_err() {
                return;
            }
        }
    }
}

// ---------------------------------------------------------------- client --

/// A blocking client for one coordinator server.
///
/// [`CoordClient::ping`] and [`CoordClient::describe`] retry with the
/// policy's backoff (they are idempotent); [`CoordClient::exec`] makes
/// exactly **one** attempt — a transaction is not idempotent, and a
/// transport failure after the frame left leaves the outcome unknown, so
/// the client surfaces `SiteDown` and lets the caller decide (the load
/// generator counts it as an error, never as a silent retry that could
/// double-apply).
pub struct CoordClient {
    addr: SocketAddr,
    policy: RetryPolicy,
    pool: Mutex<Vec<TcpStream>>,
    next_req: AtomicU64,
}

impl CoordClient {
    /// A client for the coordinator at `addr`.
    pub fn new(addr: SocketAddr, policy: RetryPolicy) -> Self {
        CoordClient {
            addr,
            policy,
            pool: Mutex::new(Vec::new()),
            next_req: AtomicU64::new(1),
        }
    }

    /// The address this client dials.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Liveness probe, retried per the policy.
    pub fn ping(&self) -> AmcResult<()> {
        match self.with_retries(CoordRequest::Ping, self.policy.max_attempts)? {
            CoordReply::Pong => Ok(()),
            other => Err(AmcError::Protocol(format!(
                "coordinator answered ping with {other:?}"
            ))),
        }
    }

    /// Ask the coordinator who it is, retried per the policy.
    pub fn describe(&self) -> AmcResult<CoordInfo> {
        match self.with_retries(CoordRequest::Describe, self.policy.max_attempts)? {
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
            other => Err(AmcError::Protocol(format!(
                "coordinator answered describe with {other:?}"
            ))),
        }
    }

    /// Run one global transaction through the coordinator. Exactly one
    /// attempt (see the type docs).
    pub fn exec(&self, per_site: BTreeMap<SiteId, Vec<Operation>>) -> AmcResult<ExecReport> {
        match self.with_retries(CoordRequest::Exec { per_site }, 1)? {
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
            other => Err(AmcError::Protocol(format!(
                "coordinator answered exec with {other:?}"
            ))),
        }
    }

    fn with_retries(&self, req: CoordRequest, max_attempts: u32) -> AmcResult<CoordReply> {
        for attempt in 1..=max_attempts {
            let req_id = self.next_req.fetch_add(1, Ordering::Relaxed);
            let frame = Frame::CoordRequest {
                req_id,
                req: req.clone(),
            };
            match self.roundtrip(&frame) {
                Ok(Frame::CoordReply { reply, .. }) => return Ok(reply),
                Ok(Frame::ErrorReply { error, .. }) => return Err(error),
                Ok(other) => {
                    return Err(AmcError::Protocol(format!(
                        "coordinator sent a non-coordinator frame {other:?}"
                    )))
                }
                Err(()) if attempt < max_attempts => {
                    std::thread::sleep(self.policy.backoff_after(attempt));
                }
                Err(()) => break,
            }
        }
        // The coordinator is unreachable; reuse the SiteDown shape with
        // the CENTRAL sentinel (a coordinator is the central system).
        Err(AmcError::SiteDown(SiteId::CENTRAL))
    }

    /// One attempt: check out (or dial) a connection, write the frame,
    /// read the matching reply. Any failure discards the connection.
    fn roundtrip(&self, frame: &Frame) -> Result<Frame, ()> {
        let mut conn = match self.pool.lock().pop() {
            Some(c) => c,
            None => self.dial()?,
        };
        conn.set_read_timeout(Some(self.policy.request_timeout))
            .map_err(|_| ())?;
        conn.set_write_timeout(Some(self.policy.request_timeout))
            .map_err(|_| ())?;
        write_frame(&mut conn, frame).map_err(|_| ())?;
        let reply = read_frame(&mut conn).map_err(|_| ())?;
        if reply.req_id() != frame.req_id() {
            return Err(());
        }
        self.pool.lock().push(conn);
        Ok(reply)
    }

    fn dial(&self) -> Result<TcpStream, ()> {
        let conn =
            TcpStream::connect_timeout(&self.addr, self.policy.connect_timeout).map_err(|_| ())?;
        let _ = conn.set_nodelay(true);
        Ok(conn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amc_core::{FederationConfig, ProtocolKind};
    use amc_types::{ObjectId, Operation, Value};

    fn spawn_coord(slot: u32, coordinators: u32) -> (CoordServer, Arc<Federation>) {
        let cfg =
            FederationConfig::uniform(2, ProtocolKind::TwoPhaseCommit).sharded(slot, coordinators);
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
}
