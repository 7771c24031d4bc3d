//! The multiplexed, pipelining RPC client.
//!
//! A [`MuxClient`] fronts one server — a site, or a coordinator addressed
//! as [`SiteId::CENTRAL`] — and shares **one** connection among every
//! caller. Each request is tagged with a fresh id and written to
//! the shared socket; a dedicated reader thread decodes replies
//! incrementally (through a [`FrameBuffer`], so partial frames survive
//! read-timeout ticks) and completes whichever caller's id each reply
//! names — in whatever order the server finished them. That is the
//! client half of pipelining: many requests in flight on one stream,
//! out-of-order completion, no head-of-line coupling between callers.
//!
//! Every request gets a per-request deadline and up to
//! [`RetryPolicy::max_attempts`] tries separated by capped, jittered
//! exponential backoff. A request that cannot be delivered or answered
//! inside the deadline counts one attempt; a dead connection is torn
//! down (failing *every* pending request, each of which retries
//! independently), and the next attempt redials. Application errors
//! carried in an `ErrorReply` frame are NOT retried — the site answered;
//! the answer is an error — except a load-shed `BufferExhausted`, which
//! is backed off and retried. Retrying protocol messages is safe by
//! construction: every manager handler is idempotent (work map,
//! tombstones, durable markers), which is exactly the property the
//! paper's inquiry/repetition machinery already depends on. A request
//! that is not idempotent — a coordinator's `Exec` runs a whole
//! transaction — gets one transport attempt through
//! [`MuxClient::request`].

use crate::wire::{write_frame, Frame, FrameBuffer};
use amc_net::transport::{AdminReply, AdminRequest};
use amc_net::Payload;
use amc_obs::{EventKind, ObsSink};
use amc_types::{AmcError, AmcResult, SiteId};
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::io::Read as _;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often the reader thread's blocked read wakes to check for
/// shutdown.
const READ_TICK: Duration = Duration::from_millis(100);

/// Deadlines and retry shape for one client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Deadline for establishing a connection.
    pub connect_timeout: Duration,
    /// Per-request deadline (applies to the write and to the reply read).
    pub request_timeout: Duration,
    /// Total attempts before the site is declared down.
    pub max_attempts: u32,
    /// Backoff before the 2nd attempt; doubles per attempt.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            connect_timeout: Duration::from_millis(500),
            request_timeout: Duration::from_secs(2),
            max_attempts: 10,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(200),
        }
    }
}

impl RetryPolicy {
    /// The backoff *envelope* after failed attempt number `attempt`
    /// (1-based): base · 2^(attempt−1), capped. The client sleeps a
    /// jittered value inside `[envelope/2, envelope]` (equal jitter) so
    /// that the many clients a coordinator runs — one per site — do not
    /// re-dial a recovering site in lockstep after a shared outage.
    pub fn backoff_after(&self, attempt: u32) -> Duration {
        let exp = attempt.saturating_sub(1).min(16);
        self.backoff_base
            .saturating_mul(1u32 << exp)
            .min(self.backoff_cap)
    }

    /// Apply equal jitter to an envelope: uniform in `[d/2, d]`, driven
    /// by `r` (any uniformly distributed word).
    pub fn jittered(d: Duration, r: u64) -> Duration {
        let nanos = d.as_nanos() as u64;
        let half = nanos / 2;
        if half == 0 {
            return d;
        }
        Duration::from_nanos(half + r % (nanos - half + 1))
    }
}

/// One caller's parking spot: its own mutex + condvar, so completing a
/// reply wakes exactly that caller — never the whole herd of waiters.
struct Slot {
    reply: Mutex<Option<Frame>>,
    cv: Condvar,
}

impl Slot {
    fn new() -> Arc<Slot> {
        Arc::new(Slot {
            reply: Mutex::new(None),
            cv: Condvar::new(),
        })
    }
}

/// One live multiplexed connection: the shared write half, the pending
/// table the reader thread completes into, and the reader itself.
struct Channel {
    /// Writers serialize frame writes through this lock; a frame is
    /// written atomically, so interleaved callers never corrupt framing.
    writer: Mutex<TcpStream>,
    /// `req_id` → the caller waiting for that reply.
    pending: Mutex<HashMap<u64, Arc<Slot>>>,
    /// The reader saw EOF/garbage/reset: nothing further will complete.
    dead: AtomicBool,
    stop: AtomicBool,
}

impl Channel {
    /// Kill the channel and wake every waiter so they can fail fast.
    fn poison(&self) {
        self.dead.store(true, Ordering::SeqCst);
        for (_, slot) in self.pending.lock().drain() {
            // Lock-then-notify: the waiter either holds the slot lock
            // (and will observe `dead` on its next check) or is parked
            // in `wait_for` (and this wakes it).
            let _guard = slot.reply.lock();
            slot.cv.notify_one();
        }
    }
}

/// Reader thread: pump bytes into a [`FrameBuffer`], route each decoded
/// frame to its pending slot by request id.
fn reader_loop(mut stream: TcpStream, chan: Arc<Channel>) {
    if stream.set_read_timeout(Some(READ_TICK)).is_err() {
        chan.poison();
        return;
    }
    let mut buf = FrameBuffer::new();
    let mut chunk = [0u8; 64 * 1024];
    loop {
        if chan.stop.load(Ordering::SeqCst) {
            chan.poison();
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                chan.poison();
                return;
            }
            Ok(n) => buf.extend(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::Interrupted =>
            {
                continue
            }
            Err(_) => {
                chan.poison();
                return;
            }
        }
        loop {
            match buf.next_frame() {
                Ok(Some(frame)) => {
                    // An id nobody waits for is a reply whose caller
                    // already timed out and withdrew: drop it.
                    let slot = chan.pending.lock().remove(&frame.req_id());
                    if let Some(slot) = slot {
                        // Notify while holding the slot lock so the
                        // caller cannot slip into `wait_for` between the
                        // fill and the wakeup.
                        let mut reply = slot.reply.lock();
                        *reply = Some(frame);
                        slot.cv.notify_one();
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    chan.poison();
                    return;
                }
            }
        }
    }
}

/// A multiplexed pipelining client for one site.
///
/// Cheap to clone-share via `Arc`; any number of threads may
/// [`MuxClient::call`] concurrently and their requests share one
/// connection. Round-trip against a real [`EventServer`] on an ephemeral
/// loopback port:
///
/// ```
/// use amc_engine::{TplConfig, TwoPLEngine};
/// use amc_net::{AdminReply, AdminRequest, EngineHandle, LocalCommManager, SubmitMode};
/// use amc_obs::ObsSink;
/// use amc_rpc::{EventServer, MuxClient, RetryPolicy};
/// use amc_types::SiteId;
/// use std::sync::Arc;
///
/// let site = SiteId::new(1);
/// let engine = Arc::new(TwoPLEngine::new(TplConfig::default()));
/// let manager = Arc::new(LocalCommManager::new(site, EngineHandle::Preparable(engine)));
/// let server = EventServer::spawn(
///     site, manager, SubmitMode::CommitBefore, "127.0.0.1:0", ObsSink::disabled(),
/// )?;
///
/// let client = MuxClient::new(site, server.addr(), RetryPolicy::default(), ObsSink::disabled());
/// assert!(matches!(client.admin(AdminRequest::Ping)?, AdminReply::Pong));
/// drop(client);
/// server.shutdown();
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// [`EventServer`]: crate::EventServer
pub struct MuxClient {
    site: SiteId,
    addr: Mutex<SocketAddr>,
    policy: RetryPolicy,
    /// The current channel, lazily (re)dialed. Dead channels are
    /// replaced on the next call.
    chan: Mutex<Option<Arc<Channel>>>,
    reader: Mutex<Option<std::thread::JoinHandle<()>>>,
    next_req: AtomicU64,
    ever_connected: AtomicBool,
    jitter_state: AtomicU64,
    sheds: AtomicU64,
    obs: ObsSink,
}

impl MuxClient {
    /// A client for `site` at `addr`. No connection is made until the
    /// first call.
    pub fn new(site: SiteId, addr: SocketAddr, policy: RetryPolicy, obs: ObsSink) -> Self {
        MuxClient {
            site,
            addr: Mutex::new(addr),
            policy,
            chan: Mutex::new(None),
            reader: Mutex::new(None),
            next_req: AtomicU64::new(1),
            ever_connected: AtomicBool::new(false),
            jitter_state: AtomicU64::new(
                0xD1B5_4A32_D192_ED03u64.wrapping_mul(u64::from(site.raw()) + 1),
            ),
            sheds: AtomicU64::new(0),
            obs,
        }
    }

    /// The site this client fronts.
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// How many requests the site answered with a load-shed
    /// (`BufferExhausted`) since this client was created — retried and
    /// terminal sheds both count.
    pub fn sheds(&self) -> u64 {
        self.sheds.load(Ordering::Relaxed)
    }

    /// Point the client at a new address; the current channel (if any)
    /// is torn down.
    pub fn set_addr(&self, addr: SocketAddr) {
        *self.addr.lock() = addr;
        if let Some(chan) = self.chan.lock().take() {
            chan.stop.store(true, Ordering::SeqCst);
            chan.poison();
        }
    }

    /// Next backoff jitter word (SplitMix64, seeded per site, so two
    /// clients retrying the same outage desynchronise).
    fn jitter_word(&self) -> u64 {
        let x = self
            .jitter_state
            .fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed)
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Send one protocol message and wait for the site's reply.
    pub fn call(&self, payload: Payload) -> AmcResult<Payload> {
        let gtx = payload.gtx();
        let label = payload.label();
        let reply = self.request(
            |req_id| Frame::Request {
                req_id,
                payload: payload.clone(),
            },
            true,
        )?;
        match reply {
            Frame::Reply { payload, .. } => {
                self.obs.emit(
                    Some(gtx),
                    SiteId::CENTRAL,
                    EventKind::MsgDeliver {
                        label: payload.label(),
                        from: self.site,
                    },
                );
                Ok(payload)
            }
            other => Err(AmcError::Protocol(format!(
                "site answered {label} with a non-protocol frame {other:?}"
            ))),
        }
    }

    /// Send one admin request and wait for the site's reply.
    pub fn admin(&self, req: AdminRequest) -> AmcResult<AdminReply> {
        let reply = self.request(
            |req_id| Frame::AdminRequest {
                req_id,
                req: req.clone(),
            },
            true,
        )?;
        match reply {
            Frame::AdminReply { reply, .. } => Ok(reply),
            other => Err(AmcError::Protocol(format!(
                "site answered admin with a non-admin frame {other:?}"
            ))),
        }
    }

    /// Send one request frame — `make_frame` stamps it with a fresh
    /// request id per attempt — and wait for the reply frame. An
    /// `ErrorReply` comes back as its error.
    ///
    /// A load-shed reply is always backed off and retried: the server
    /// never dispatched that request. A transport failure is retried only
    /// when the request is `idempotent`; otherwise the one attempt's
    /// outcome is unknown and the call fails with `SiteDown`, so a
    /// request that may already have run never runs twice.
    pub(crate) fn request(
        &self,
        make_frame: impl Fn(u64) -> Frame,
        idempotent: bool,
    ) -> AmcResult<Frame> {
        for attempt in 1..=self.policy.max_attempts {
            let req_id = self.next_req.fetch_add(1, Ordering::Relaxed);
            let frame = make_frame(req_id);
            let gtx = match &frame {
                Frame::Request { payload, .. } => Some(payload.gtx()),
                _ => None,
            };
            match self.one_attempt(&frame) {
                Ok(reply) => return Ok(reply),
                // The server shedding load is an answer, not a transport
                // failure — but it IS retryable: back off and try again
                // rather than bubbling an overload spike up as an abort.
                // Every shed is counted and traced distinctly from a
                // transport retry so backpressure stays observable.
                Err(Some(AmcError::BufferExhausted)) => {
                    self.sheds.fetch_add(1, Ordering::Relaxed);
                    self.obs.emit(
                        gtx,
                        SiteId::CENTRAL,
                        EventKind::RpcShed {
                            to: self.site,
                            attempt,
                        },
                    );
                    if attempt == self.policy.max_attempts {
                        return Err(AmcError::BufferExhausted);
                    }
                    std::thread::sleep(RetryPolicy::jittered(
                        self.policy.backoff_after(attempt),
                        self.jitter_word(),
                    ));
                }
                Err(None) if idempotent && attempt < self.policy.max_attempts => {
                    self.obs.emit(
                        gtx,
                        SiteId::CENTRAL,
                        EventKind::RpcRetry {
                            to: self.site,
                            attempt,
                        },
                    );
                    std::thread::sleep(RetryPolicy::jittered(
                        self.policy.backoff_after(attempt),
                        self.jitter_word(),
                    ));
                }
                Err(Some(err)) => return Err(err),
                Err(None) => break,
            }
        }
        Err(AmcError::SiteDown(self.site))
    }

    /// One attempt over the shared channel. `Err(None)` is a transport
    /// failure (retry, redial); `Err(Some(e))` is the site's answer.
    fn one_attempt(&self, frame: &Frame) -> Result<Frame, Option<AmcError>> {
        let chan = self.channel().ok_or(None)?;
        let req_id = frame.req_id();
        let slot = Slot::new();
        chan.pending.lock().insert(req_id, Arc::clone(&slot));
        if let Frame::Request { payload, .. } = frame {
            self.obs.emit(
                Some(payload.gtx()),
                SiteId::CENTRAL,
                EventKind::MsgSend {
                    label: payload.label(),
                    from: SiteId::CENTRAL,
                    to: self.site,
                },
            );
        }
        {
            let mut writer = chan.writer.lock();
            if write_frame(&mut *writer, frame).is_err() {
                drop(writer);
                chan.pending.lock().remove(&req_id);
                self.discard(&chan);
                return Err(None);
            }
        }
        let deadline = Instant::now() + self.policy.request_timeout;
        let mut reply = slot.reply.lock();
        loop {
            if let Some(frame) = reply.take() {
                return match frame {
                    Frame::ErrorReply { error, .. } => Err(Some(error)),
                    other => Ok(other),
                };
            }
            if chan.dead.load(Ordering::SeqCst) {
                drop(reply);
                chan.pending.lock().remove(&req_id);
                self.discard(&chan);
                return Err(None);
            }
            let now = Instant::now();
            if now >= deadline {
                // Withdraw only this request: the connection and every
                // other pending request stay healthy. A late reply to
                // this id is dropped by the reader.
                drop(reply);
                if chan.pending.lock().remove(&req_id).is_some() {
                    return Err(None);
                }
                // The withdraw lost a race: this id is no longer pending
                // because the reader (or poison) already claimed it. The
                // reader fills the slot right after unpending, so the
                // reply is ours — reporting a timeout here would discard
                // an answer that arrived in time and retry a request the
                // site already served.
                reply = slot.reply.lock();
                loop {
                    if let Some(frame) = reply.take() {
                        return match frame {
                            Frame::ErrorReply { error, .. } => Err(Some(error)),
                            other => Ok(other),
                        };
                    }
                    if chan.dead.load(Ordering::SeqCst) {
                        // Poison drained the table without a fill.
                        drop(reply);
                        self.discard(&chan);
                        return Err(None);
                    }
                    slot.cv.wait_for(&mut reply, READ_TICK);
                }
            }
            slot.cv.wait_for(&mut reply, deadline - now);
        }
    }

    /// The live channel, dialing a fresh one if there is none or the
    /// current one is dead.
    fn channel(&self) -> Option<Arc<Channel>> {
        let mut slot = self.chan.lock();
        if let Some(chan) = slot.as_ref() {
            if !chan.dead.load(Ordering::SeqCst) {
                return Some(Arc::clone(chan));
            }
        }
        // (Re)dial. Join the previous reader first so dead readers don't
        // pile up across reconnects.
        if let Some(h) = self.reader.lock().take() {
            let _ = h.join();
        }
        let addr = *self.addr.lock();
        let stream = TcpStream::connect_timeout(&addr, self.policy.connect_timeout).ok()?;
        let _ = stream.set_nodelay(true);
        let read_half = stream.try_clone().ok()?;
        if self.ever_connected.swap(true, Ordering::Relaxed) {
            self.obs.emit(
                None,
                SiteId::CENTRAL,
                EventKind::RpcReconnect { to: self.site },
            );
        }
        let chan = Arc::new(Channel {
            writer: Mutex::new(stream),
            pending: Mutex::new(HashMap::new()),
            dead: AtomicBool::new(false),
            stop: AtomicBool::new(false),
        });
        let reader_chan = Arc::clone(&chan);
        *self.reader.lock() = Some(std::thread::spawn(move || {
            reader_loop(read_half, reader_chan);
        }));
        *slot = Some(Arc::clone(&chan));
        Some(chan)
    }

    /// Drop `chan` if it is still the current channel (a racing caller
    /// may already have redialed).
    fn discard(&self, chan: &Arc<Channel>) {
        chan.poison();
        let mut slot = self.chan.lock();
        if let Some(current) = slot.as_ref() {
            if Arc::ptr_eq(current, chan) {
                *slot = None;
            }
        }
    }
}

impl Drop for MuxClient {
    fn drop(&mut self) {
        if let Some(chan) = self.chan.lock().take() {
            chan.stop.store(true, Ordering::SeqCst);
            chan.poison();
        }
        if let Some(h) = self.reader.lock().take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(100),
            ..RetryPolicy::default()
        };
        assert_eq!(p.backoff_after(1), Duration::from_millis(10));
        assert_eq!(p.backoff_after(2), Duration::from_millis(20));
        assert_eq!(p.backoff_after(3), Duration::from_millis(40));
        assert_eq!(p.backoff_after(4), Duration::from_millis(80));
        assert_eq!(p.backoff_after(5), Duration::from_millis(100));
        assert_eq!(p.backoff_after(30), Duration::from_millis(100));
    }

    #[test]
    fn jitter_stays_in_the_equal_jitter_band() {
        let d = Duration::from_millis(100);
        for r in [0u64, 1, 49, 50, 51, 99, u64::MAX, 0xDEAD_BEEF] {
            let j = RetryPolicy::jittered(d, r);
            assert!(j >= d / 2 && j <= d, "{j:?} outside [{:?}, {d:?}]", d / 2);
        }
        // Degenerate envelopes pass through unchanged.
        assert_eq!(RetryPolicy::jittered(Duration::ZERO, 7), Duration::ZERO);
        assert_eq!(
            RetryPolicy::jittered(Duration::from_nanos(1), 7),
            Duration::from_nanos(1)
        );
    }

    #[test]
    fn jitter_words_differ_across_draws_and_clients() {
        let addr = "127.0.0.1:1".parse().unwrap();
        let a = MuxClient::new(
            SiteId::new(1),
            addr,
            RetryPolicy::default(),
            ObsSink::disabled(),
        );
        let b = MuxClient::new(
            SiteId::new(2),
            addr,
            RetryPolicy::default(),
            ObsSink::disabled(),
        );
        assert_ne!(a.jitter_word(), a.jitter_word());
        assert_ne!(a.jitter_word(), b.jitter_word());
    }

    #[test]
    fn unreachable_site_is_down_after_bounded_attempts() {
        // A port nothing listens on: every attempt fails to connect, and
        // the client gives up with SiteDown after max_attempts.
        let policy = RetryPolicy {
            connect_timeout: Duration::from_millis(50),
            request_timeout: Duration::from_millis(50),
            max_attempts: 3,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(2),
        };
        // Bind-then-drop to get a port that is closed right now.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let client = MuxClient::new(SiteId::new(1), addr, policy, ObsSink::disabled());
        let err = client
            .call(Payload::Prepare {
                gtx: amc_types::GlobalTxnId::new(1),
            })
            .unwrap_err();
        assert!(matches!(err, AmcError::SiteDown(s) if s == SiteId::new(1)));
    }

    /// The timeout-withdraw vs reader-completion race, replayed by hand:
    /// the reader has already pulled the caller's id out of `pending`
    /// (so the withdraw at the deadline finds nothing) but the slot fill
    /// lands only after the deadline — exactly what happens when the
    /// reply's bytes arrive while the caller holds the slot lock for its
    /// final deadline check. The caller must claim the reply rather than
    /// report a timeout for a request the site answered.
    #[test]
    fn timed_out_caller_claims_a_reply_the_reader_already_unpended() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let policy = RetryPolicy {
            request_timeout: Duration::from_millis(50),
            max_attempts: 1,
            ..RetryPolicy::default()
        };
        let client = Arc::new(MuxClient::new(
            SiteId::new(1),
            addr,
            policy,
            ObsSink::disabled(),
        ));
        let caller = {
            let client = Arc::clone(&client);
            std::thread::spawn(move || client.admin(AdminRequest::Ping))
        };
        // Act as the server: accept and read the request, which proves
        // the caller's slot is registered (insert happens before write).
        let (mut conn, _) = listener.accept().unwrap();
        let frame = crate::wire::read_frame(&mut conn).unwrap();
        let req_id = frame.req_id();
        // The reader's winning interleaving: unpend before the caller's
        // deadline, fill only after it.
        let chan = client.chan.lock().clone().expect("channel dialed");
        let slot = chan
            .pending
            .lock()
            .remove(&req_id)
            .expect("caller is pending");
        std::thread::sleep(Duration::from_millis(120));
        {
            let mut reply = slot.reply.lock();
            *reply = Some(Frame::AdminReply {
                req_id,
                reply: AdminReply::Pong,
            });
            slot.cv.notify_one();
        }
        let got = caller.join().unwrap();
        assert_eq!(got.unwrap(), AdminReply::Pong);
    }

    /// Load-shed replies are retried away, but never invisibly: every
    /// `BufferExhausted` answer bumps the client's shed counter and lands
    /// in the observability log as a distinct `rpc-shed` event.
    #[test]
    fn shed_replies_are_counted_and_traced_even_when_the_retry_succeeds() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let policy = RetryPolicy {
            request_timeout: Duration::from_millis(500),
            max_attempts: 3,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(2),
            ..RetryPolicy::default()
        };
        let obs = ObsSink::enabled(64);
        let client = Arc::new(MuxClient::new(SiteId::new(1), addr, policy, obs.clone()));
        let caller = {
            let client = Arc::clone(&client);
            std::thread::spawn(move || client.admin(AdminRequest::Ping))
        };
        // Act as the server on one persistent connection: shed the first
        // two attempts, answer the third.
        let (mut conn, _) = listener.accept().unwrap();
        for attempt in 0..3 {
            let frame = crate::wire::read_frame(&mut conn).unwrap();
            let req_id = frame.req_id();
            let reply = if attempt < 2 {
                Frame::ErrorReply {
                    req_id,
                    error: AmcError::BufferExhausted,
                }
            } else {
                Frame::AdminReply {
                    req_id,
                    reply: AdminReply::Pong,
                }
            };
            crate::wire::write_frame(&mut conn, &reply).unwrap();
        }
        let got = caller.join().unwrap();
        assert_eq!(got.unwrap(), AdminReply::Pong);
        assert_eq!(client.sheds(), 2, "both shed answers must be counted");
        let shed_events = obs
            .snapshot()
            .events()
            .filter(|e| matches!(e.kind, EventKind::RpcShed { .. }))
            .count();
        assert_eq!(shed_events, 2, "each shed must be traced as rpc-shed");
    }
}
