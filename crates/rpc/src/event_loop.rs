//! The event-loop server runtime, shared by site servers and
//! coordinator servers.
//!
//! One epoll thread owns every socket; a small worker pool owns every
//! dispatch. What a server answers is its request handler, chosen once at
//! spawn time: [`EventServer::spawn`] mounts the site handler, and
//! [`CoordServer::spawn`](crate::CoordServer::spawn) mounts the
//! coordinator handler on the same loop. The loop never blocks on I/O or
//! on the engine:
//!
//! - **Reads** are nonblocking and incremental. Bytes land in a
//!   per-connection [`FrameBuffer`]; a frame that arrives in ten pieces
//!   is ten cheap appends and one decode. There is no `read_exact`
//!   anywhere, so there is no way for a timeout to eat half a frame.
//! - **Dispatch** happens off-loop. Each decoded request becomes a job
//!   for the worker pool, so a dispatch that blocks (a WAL fsync, a lock
//!   wait) stalls one worker, not the loop — and concurrent workers
//!   hitting the WAL together are exactly what
//!   [`amc_wal::GroupCommitter`] needs to merge their fsyncs.
//! - **Writes** are batched. Finished replies are serialized into the
//!   connection's write buffer; whatever has accumulated by the time the
//!   socket is writable goes out in one syscall. A slow reader causes
//!   `EPOLLOUT`-driven flushing, never a blocked thread.
//! - **Backpressure** is per connection and explicit. At most
//!   [`MAX_IN_FLIGHT_PER_CONN`] requests may be dispatched concurrently
//!   per connection; excess requests are not queued but *shed* with an
//!   [`ErrorReply`](Frame::ErrorReply) carrying
//!   [`AmcError::BufferExhausted`], so an overloaded server stays
//!   responsive and the client learns immediately instead of timing out.
//! - **A handler panic** costs one request, not a worker: the worker
//!   catches it and answers that request with an `ErrorReply`.
//!
//! Replies are written in completion order, not arrival order: the
//! request id — echoed verbatim in every reply — is what lets a
//! pipelining client match them up again.

use crate::wire::{encode_frame, Frame, FrameBuffer};
use amc_epoll::{Interest, Poller, Waker};
use amc_net::transport::{admin_to_manager, dispatch_to_manager, AdminRequest};
use amc_net::{LocalCommManager, Payload, SubmitMode};
use amc_obs::{EventKind, ObsSink};
use amc_paxos::AcceptorHost;
use amc_types::{AmcError, SiteId};
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Max requests dispatched concurrently per connection before load
/// shedding kicks in. Small on purpose: a well-behaved pipelining client
/// keeps fewer in flight, and anything past this bound is better
/// answered "overloaded" now than queued towards a timeout.
pub const MAX_IN_FLIGHT_PER_CONN: usize = 64;

/// Cap on bytes buffered as un-flushed replies for one connection. A
/// peer that keeps sending requests while never reading replies piles
/// output up here; past this bound the connection is closed (its
/// unread replies are dropped with it) rather than letting one stalled
/// reader grow the server's memory without limit. Honest clients never
/// get near it: [`MAX_IN_FLIGHT_PER_CONN`] bounds outstanding real
/// replies, and shed replies only accumulate while the peer floods
/// without reading — exactly the behaviour this cap punishes.
pub const MAX_WBUF_BYTES: usize = 256 * 1024;

/// Epoll tokens 0/1 are the listener and the waker; connections start
/// above them.
const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
const TOKEN_FIRST_CONN: u64 = 2;

/// How long one epoll wait sleeps before re-checking the stop flag.
const WAIT_TICK: Duration = Duration::from_millis(100);

/// Counters the loop maintains; cheap enough to read any time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventServerStats {
    /// Connections currently registered with the poller.
    pub current_connections: u64,
    /// High-water mark of concurrently registered connections.
    pub peak_connections: u64,
    /// Requests answered with a load-shed `ErrorReply` instead of being
    /// dispatched.
    pub load_sheds: u64,
    /// Requests dispatched to the worker pool.
    pub dispatched: u64,
    /// Connections closed because a stalled reader let its write buffer
    /// exceed [`MAX_WBUF_BYTES`].
    pub wbuf_overflows: u64,
    /// Requests whose handler panicked; each was answered with an
    /// `ErrorReply` and its worker kept serving.
    pub handler_panics: u64,
}

#[derive(Default)]
struct SharedStats {
    current: AtomicU64,
    peak: AtomicU64,
    load_sheds: AtomicU64,
    dispatched: AtomicU64,
    wbuf_overflows: AtomicU64,
    handler_panics: AtomicU64,
}

/// What an [`EventServer`] answers. Every worker shares one handler.
pub(crate) trait Handler: Send + Sync + 'static {
    /// A request this server answers, taken out of its frame.
    type Req: Send + 'static;

    /// Take `frame` apart into its request id and request, or `None` when
    /// it is not a request this server answers. Such a frame (a reply, or
    /// a request meant for the other kind of server) means the peer is
    /// confused, and its connection is closed.
    fn accept(&self, frame: Frame) -> Option<(u64, Self::Req)>;

    /// Answer one request that [`Handler::accept`] took apart.
    fn handle(&self, req_id: u64, req: Self::Req) -> Frame;
}

/// A dispatch job: which connection asked, and what it asked.
struct Job<R> {
    conn: u64,
    req_id: u64,
    req: R,
}

/// A finished dispatch: which connection to answer, and the reply frame.
struct Completion {
    conn: u64,
    reply: Frame,
}

/// Worker-pool plumbing: a bounded job queue the loop pushes into and a
/// completion queue the workers push back, with the eventfd waker as the
/// loop's doorbell.
struct Pool<R> {
    jobs: Mutex<VecDeque<Job<R>>>,
    jobs_cv: Condvar,
    completions: Mutex<Vec<Completion>>,
    waker: Waker,
    stop: AtomicBool,
}

/// What shutdown needs from a [`Pool`], whatever its request type.
trait PoolControl: Send + Sync {
    /// Ring the loop's doorbell.
    fn wake_loop(&self);
    /// Tell every worker to exit.
    fn stop_workers(&self);
}

impl<R: Send> PoolControl for Pool<R> {
    fn wake_loop(&self) {
        self.waker.wake();
    }

    fn stop_workers(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.jobs_cv.notify_all();
    }
}

/// Per-connection state owned by the event loop.
struct Conn {
    stream: TcpStream,
    rbuf: FrameBuffer,
    /// Batched outgoing bytes; `wpos` is how much has already been
    /// written. Replies append here and are flushed together.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Requests currently dispatched to the pool for this connection.
    in_flight: usize,
    /// The interest currently registered with the poller.
    interest: Interest,
    /// Reads hit EOF or a fatal decode error; the connection closes as
    /// soon as the write buffer drains and the in-flight count is zero.
    closing: bool,
}

/// A running server: a site's engine + communication manager, or a
/// coordinator, behind a loopback (or any) TCP listener. Dropping it (or
/// calling [`EventServer::shutdown`]) stops the loop and the workers.
pub struct EventServer {
    site: SiteId,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    pool: Arc<dyn PoolControl>,
    stats: Arc<SharedStats>,
    loop_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl EventServer {
    /// Bind `listen` (e.g. `127.0.0.1:0` for an ephemeral loopback port)
    /// and serve `manager` on it. `mode` selects how submits run — it must
    /// match the protocol the coordinator drives.
    ///
    /// Binding retries briefly on `AddrInUse`: a site restarted **in
    /// place** (same port, after a crash or shutdown) can race the kernel
    /// reclaiming the old listener. The retry lives here, not in callers,
    /// so every embedding gets restart-in-place for free.
    pub fn spawn(
        site: SiteId,
        manager: Arc<LocalCommManager>,
        mode: SubmitMode,
        listen: &str,
        obs: ObsSink,
    ) -> io::Result<EventServer> {
        Self::spawn_with_acceptor(site, manager, mode, listen, obs, None)
    }

    /// Like [`EventServer::spawn`], additionally mounting a co-located
    /// Paxos Commit acceptor: Paxos messages are answered from the
    /// acceptor's durable log, vote replies are run through the
    /// vote-as-accept hook before they leave the process, and a
    /// participant's `Decision` closes its acceptor instances.
    pub fn spawn_with_acceptor(
        site: SiteId,
        manager: Arc<LocalCommManager>,
        mode: SubmitMode,
        listen: &str,
        obs: ObsSink,
        acceptor: Option<Arc<AcceptorHost>>,
    ) -> io::Result<EventServer> {
        let handler = SiteHandler {
            site,
            manager,
            mode,
            obs,
            acceptor,
        };
        Self::serve(site, listen, handler)
    }

    /// Bind `listen` and answer every connection's requests with
    /// `handler`. `site` is what [`EventServer::site`] reports.
    pub(crate) fn serve<H: Handler>(
        site: SiteId,
        listen: &str,
        handler: H,
    ) -> io::Result<EventServer> {
        let handler = Arc::new(handler);
        let listener = bind_with_retry(listen)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(SharedStats::default());
        let pool = Arc::new(Pool {
            jobs: Mutex::new(VecDeque::new()),
            jobs_cv: Condvar::new(),
            completions: Mutex::new(Vec::new()),
            waker: Waker::new()?,
            stop: AtomicBool::new(false),
        });

        // Workers spend most of their life *waiting* — on locks, on the
        // group committer's fsync — not computing, so the pool is sized
        // well past the core count: enough that a burst of wedged
        // dispatches (every worker parked on the same hot lock) still
        // leaves hands free for the requests behind it, few enough that
        // hundreds of connections don't mean hundreds of threads.
        let n_workers = (2 * std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4))
        .clamp(16, 32);
        let mut workers = Vec::with_capacity(n_workers);
        for _ in 0..n_workers {
            let pool = Arc::clone(&pool);
            let handler = Arc::clone(&handler);
            let stats = Arc::clone(&stats);
            workers.push(std::thread::spawn(move || {
                worker_loop(&pool, &*handler, &stats);
            }));
        }

        let loop_thread = {
            let stop = Arc::clone(&stop);
            let handler = Arc::clone(&handler);
            let pool = Arc::clone(&pool);
            let stats = Arc::clone(&stats);
            std::thread::spawn(move || {
                // A loop that cannot set itself up serves nothing; every
                // connection attempt will see ECONNREFUSED once the
                // listener drops.
                let _ = event_loop(listener, stop, pool, &*handler, stats);
            })
        };

        Ok(EventServer {
            site,
            addr,
            stop,
            pool,
            stats,
            loop_thread: Some(loop_thread),
            workers,
        })
    }

    /// The site this server fronts ([`SiteId::CENTRAL`] for a
    /// coordinator).
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// The address the server actually listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current loop counters.
    pub fn stats(&self) -> EventServerStats {
        EventServerStats {
            current_connections: self.stats.current.load(Ordering::Relaxed),
            peak_connections: self.stats.peak.load(Ordering::Relaxed),
            load_sheds: self.stats.load_sheds.load(Ordering::Relaxed),
            dispatched: self.stats.dispatched.load(Ordering::Relaxed),
            wbuf_overflows: self.stats.wbuf_overflows.load(Ordering::Relaxed),
            handler_panics: self.stats.handler_panics.load(Ordering::Relaxed),
        }
    }

    /// Stop the loop and the workers, dropping every connection.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.pool.wake_loop();
        if let Some(h) = self.loop_thread.take() {
            let _ = h.join();
        }
        self.pool.stop_workers();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for EventServer {
    fn drop(&mut self) {
        if self.loop_thread.is_some() {
            self.stop_and_join();
        }
    }
}

/// Bounded `AddrInUse` retry around [`TcpListener::bind`] (see
/// [`EventServer::spawn`]). Ephemeral-port binds (`:0`) never collide and
/// return on the first attempt.
pub(crate) fn bind_with_retry(listen: &str) -> io::Result<TcpListener> {
    const ATTEMPTS: u32 = 50;
    let mut last = None;
    for attempt in 0..ATTEMPTS {
        if attempt > 0 {
            std::thread::sleep(Duration::from_millis(100));
        }
        match TcpListener::bind(listen) {
            Ok(l) => return Ok(l),
            Err(e) if e.kind() == io::ErrorKind::AddrInUse => last = Some(e),
            Err(e) => return Err(e),
        }
    }
    Err(last.expect("loop ran at least once"))
}

/// Normal dispatch wrapped with acceptor interception (when one is
/// mounted): Paxos messages are answered by the acceptor, and a vote
/// reply is durably accepted at ballot 0 — or refused, surfacing as an
/// error — before it is released.
fn dispatch_with_acceptor(
    manager: &LocalCommManager,
    payload: amc_net::Payload,
    mode: SubmitMode,
    acceptor: Option<&AcceptorHost>,
) -> amc_types::AmcResult<amc_net::Payload> {
    let Some(host) = acceptor else {
        return dispatch_to_manager(manager, payload, mode);
    };
    if let Some(reply) = host.pre_dispatch(&payload)? {
        return Ok(reply);
    }
    let reply = dispatch_to_manager(manager, payload, mode)?;
    host.post_dispatch(&reply)?;
    Ok(reply)
}

/// The site handler: protocol messages and admin requests against one
/// local system's communication manager.
struct SiteHandler {
    site: SiteId,
    manager: Arc<LocalCommManager>,
    mode: SubmitMode,
    obs: ObsSink,
    acceptor: Option<Arc<AcceptorHost>>,
}

/// What a site server answers: a protocol message or an admin request.
enum SiteReq {
    Protocol(Payload),
    Admin(AdminRequest),
}

impl Handler for SiteHandler {
    type Req = SiteReq;

    fn accept(&self, frame: Frame) -> Option<(u64, SiteReq)> {
        match frame {
            Frame::Request { req_id, payload } => Some((req_id, SiteReq::Protocol(payload))),
            Frame::AdminRequest { req_id, req } => Some((req_id, SiteReq::Admin(req))),
            _ => None,
        }
    }

    fn handle(&self, req_id: u64, req: SiteReq) -> Frame {
        let SiteHandler {
            site,
            manager,
            mode,
            obs,
            acceptor,
        } = self;
        let acceptor = acceptor.as_deref();
        match req {
            SiteReq::Protocol(payload) => {
                obs.emit(
                    Some(payload.gtx()),
                    *site,
                    EventKind::MsgDeliver {
                        label: payload.label(),
                        from: SiteId::CENTRAL,
                    },
                );
                match dispatch_with_acceptor(manager, payload, *mode, acceptor) {
                    Ok(payload) => {
                        obs.emit(
                            Some(payload.gtx()),
                            *site,
                            EventKind::MsgSend {
                                label: payload.label(),
                                from: *site,
                                to: SiteId::CENTRAL,
                            },
                        );
                        Frame::Reply { req_id, payload }
                    }
                    Err(error) => Frame::ErrorReply { req_id, error },
                }
            }
            SiteReq::Admin(req) => {
                let handled = acceptor.and_then(|h| h.admin_pre(&req));
                let result = match handled {
                    Some(reply) => Ok(reply),
                    None => admin_to_manager(manager, req),
                };
                match result {
                    Ok(reply) => Frame::AdminReply { req_id, reply },
                    Err(error) => Frame::ErrorReply { req_id, error },
                }
            }
        }
    }
}

/// One worker: pull a job, answer it through the handler, hand the
/// reply back to the loop, ring the doorbell. A panicking handler costs
/// its request an `ErrorReply`, never the worker.
fn worker_loop<H: Handler>(pool: &Pool<H::Req>, handler: &H, stats: &SharedStats) {
    loop {
        let job = {
            let mut jobs = pool.jobs.lock();
            loop {
                if let Some(job) = jobs.pop_front() {
                    break job;
                }
                if pool.stop.load(Ordering::SeqCst) {
                    return;
                }
                pool.jobs_cv.wait(&mut jobs);
            }
        };
        let Job { conn, req_id, req } = job;
        let reply =
            catch_unwind(AssertUnwindSafe(|| handler.handle(req_id, req))).unwrap_or_else(|_| {
                stats.handler_panics.fetch_add(1, Ordering::Relaxed);
                Frame::ErrorReply {
                    req_id,
                    error: AmcError::Protocol("request handler panicked".into()),
                }
            });
        pool.completions.lock().push(Completion { conn, reply });
        pool.waker.wake();
    }
}

/// The loop itself: accept, read/decode, hand out jobs, collect
/// completions, batch-write replies.
fn event_loop<H: Handler>(
    listener: TcpListener,
    stop: Arc<AtomicBool>,
    pool: Arc<Pool<H::Req>>,
    handler: &H,
    stats: Arc<SharedStats>,
) -> io::Result<()> {
    let poller = Poller::new()?;
    poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
    poller.register(pool.waker.fd(), TOKEN_WAKER, Interest::READ)?;

    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token = TOKEN_FIRST_CONN;
    let mut events = Vec::new();
    let mut chunk = [0u8; 64 * 1024];

    while !stop.load(Ordering::SeqCst) {
        poller.wait(&mut events, Some(WAIT_TICK))?;
        // Tokens whose connection state changed this round and may need
        // closing or interest updates.
        for ev in events.clone() {
            match ev.token {
                TOKEN_LISTENER => {
                    accept_ready(&listener, &poller, &mut conns, &mut next_token, &stats);
                }
                TOKEN_WAKER => {
                    pool.waker.drain();
                    drain_completions(&pool, &poller, &mut conns, &stats);
                }
                token => {
                    let Some(conn) = conns.get_mut(&token) else {
                        continue;
                    };
                    let mut dead = ev.error;
                    if ev.readable && !dead {
                        dead = read_ready(conn, token, &mut chunk, &pool, handler, &stats);
                    }
                    if ev.writable && !dead {
                        dead = flush(conn).is_err();
                    }
                    finish_or_update(&poller, &mut conns, token, dead, &stats);
                }
            }
        }
    }

    // Shutdown: deregister and drop everything.
    for (_, conn) in conns.drain() {
        poller.deregister(conn.stream.as_raw_fd());
    }
    poller.deregister(listener.as_raw_fd());
    poller.deregister(pool.waker.fd());
    Ok(())
}

/// Accept every pending connection (the listener is level-triggered and
/// nonblocking).
fn accept_ready(
    listener: &TcpListener,
    poller: &Poller,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
    stats: &SharedStats,
) {
    loop {
        let (stream, _) = match listener.accept() {
            Ok(s) => s,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(_) => return,
        };
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        let _ = stream.set_nodelay(true);
        let token = *next_token;
        *next_token += 1;
        if poller
            .register(stream.as_raw_fd(), token, Interest::READ)
            .is_err()
        {
            continue;
        }
        conns.insert(
            token,
            Conn {
                stream,
                rbuf: FrameBuffer::new(),
                wbuf: Vec::new(),
                wpos: 0,
                in_flight: 0,
                interest: Interest::READ,
                closing: false,
            },
        );
        let now = conns.len() as u64;
        stats.current.store(now, Ordering::Relaxed);
        stats.peak.fetch_max(now, Ordering::Relaxed);
    }
}

/// Drain the socket into the frame buffer and decode every complete
/// frame. Returns `true` when the connection must die *immediately*
/// (poisoned stream, or a frame the handler does not accept).
fn read_ready<H: Handler>(
    conn: &mut Conn,
    token: u64,
    chunk: &mut [u8],
    pool: &Pool<H::Req>,
    handler: &H,
    stats: &SharedStats,
) -> bool {
    loop {
        match conn.stream.read(chunk) {
            // EOF: no new requests, but in-flight replies still get
            // written back before the close.
            Ok(0) => {
                conn.closing = true;
                break;
            }
            Ok(n) => conn.rbuf.extend(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return true,
        }
    }
    let mut jobs = Vec::new();
    loop {
        match conn.rbuf.next_frame() {
            Ok(Some(frame)) => {
                // A peer sending replies, or requests for the other kind
                // of server, is broken.
                let Some((req_id, req)) = handler.accept(frame) else {
                    return true;
                };
                if conn.in_flight >= MAX_IN_FLIGHT_PER_CONN {
                    // Load shed: answer now, dispatch never. The reply
                    // goes through the same batched write path.
                    stats.load_sheds.fetch_add(1, Ordering::Relaxed);
                    let shed = Frame::ErrorReply {
                        req_id,
                        error: AmcError::BufferExhausted,
                    };
                    conn.wbuf.extend_from_slice(&encode_frame(&shed));
                } else {
                    conn.in_flight += 1;
                    stats.dispatched.fetch_add(1, Ordering::Relaxed);
                    jobs.push(Job {
                        conn: token,
                        req_id,
                        req,
                    });
                }
            }
            Ok(None) => break,
            Err(_) => return true,
        }
    }
    // Shed replies landed in the write buffer above; a peer that floods
    // requests while never reading replies must not grow it without
    // bound. Give the socket one chance to take the backlog, then close.
    if conn.wbuf.len() - conn.wpos > MAX_WBUF_BYTES
        && (flush(conn).is_err() || conn.wbuf.len() - conn.wpos > MAX_WBUF_BYTES)
    {
        stats.wbuf_overflows.fetch_add(1, Ordering::Relaxed);
        return true;
    }
    if !jobs.is_empty() {
        let n = jobs.len();
        let mut q = pool.jobs.lock();
        q.extend(jobs);
        drop(q);
        // Wake one worker per job, not the whole pool: `notify_all` here
        // stampedes every idle worker onto one queue lock per request.
        for _ in 0..n {
            pool.jobs_cv.notify_one();
        }
    }
    false
}

/// Serialize finished replies into their connections' write buffers and
/// flush what the sockets will take.
fn drain_completions<R>(
    pool: &Pool<R>,
    poller: &Poller,
    conns: &mut HashMap<u64, Conn>,
    stats: &SharedStats,
) {
    let completions = std::mem::take(&mut *pool.completions.lock());
    let mut touched: Vec<u64> = Vec::new();
    for c in completions {
        // The connection may have died while its request was in flight;
        // the reply is then undeliverable and simply dropped.
        let Some(conn) = conns.get_mut(&c.conn) else {
            continue;
        };
        conn.in_flight -= 1;
        conn.wbuf.extend_from_slice(&encode_frame(&c.reply));
        if !touched.contains(&c.conn) {
            touched.push(c.conn);
        }
    }
    // One flush per touched connection: replies that completed together
    // leave in one write.
    for token in touched {
        let dead = {
            let conn = conns.get_mut(&token).expect("touched conns exist");
            if flush(conn).is_err() {
                true
            } else if conn.wbuf.len() - conn.wpos > MAX_WBUF_BYTES {
                // The socket would not take the backlog: the peer has
                // stopped reading. Close rather than buffer without
                // bound; its unread replies die with the connection.
                stats.wbuf_overflows.fetch_add(1, Ordering::Relaxed);
                true
            } else {
                false
            }
        };
        finish_or_update(poller, conns, token, dead, stats);
    }
}

/// Write as much buffered output as the socket takes right now.
fn flush(conn: &mut Conn) -> io::Result<()> {
    while conn.wpos < conn.wbuf.len() {
        match conn.stream.write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => conn.wpos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    if conn.wpos == conn.wbuf.len() {
        conn.wbuf.clear();
        conn.wpos = 0;
    } else if conn.wpos > 64 * 1024 {
        conn.wbuf.drain(..conn.wpos);
        conn.wpos = 0;
    }
    Ok(())
}

/// Close a connection that is done (or dead), or fix up its poller
/// interest to match whether output is pending.
fn finish_or_update(
    poller: &Poller,
    conns: &mut HashMap<u64, Conn>,
    token: u64,
    dead: bool,
    stats: &SharedStats,
) {
    let Some(conn) = conns.get_mut(&token) else {
        return;
    };
    let drained = conn.wpos == conn.wbuf.len();
    let done = conn.closing && drained && conn.in_flight == 0;
    if dead || done {
        poller.deregister(conn.stream.as_raw_fd());
        conns.remove(&token);
        stats.current.store(conns.len() as u64, Ordering::Relaxed);
        return;
    }
    let want = if drained {
        Interest::READ
    } else {
        Interest::READ_WRITE
    };
    if want != conn.interest
        && poller
            .reregister(conn.stream.as_raw_fd(), token, want)
            .is_ok()
    {
        conn.interest = want;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{read_frame, write_frame};
    use amc_engine::{TplConfig, TwoPLEngine};
    use amc_net::comm::EngineHandle;
    use amc_net::transport::{AdminReply, AdminRequest};
    use amc_types::{GlobalTxnId, ObjectId, Operation, Value};

    fn server() -> EventServer {
        let site = SiteId::new(1);
        let engine = Arc::new(TwoPLEngine::new(TplConfig::default()));
        let manager = Arc::new(LocalCommManager::new(
            site,
            EngineHandle::Preparable(engine),
        ));
        EventServer::spawn(
            site,
            manager,
            SubmitMode::CommitBefore,
            "127.0.0.1:0",
            ObsSink::disabled(),
        )
        .expect("bind loopback")
    }

    fn roundtrip(stream: &mut TcpStream, frame: &Frame) -> Frame {
        write_frame(stream, frame).unwrap();
        loop {
            match read_frame(stream) {
                Ok(f) => return f,
                Err(e) if e.is_timeout() => continue,
                Err(e) => panic!("read: {e}"),
            }
        }
    }

    #[test]
    fn serves_a_submit_over_tcp() {
        let srv = server();
        let mut conn = TcpStream::connect(srv.addr()).unwrap();
        let reply = roundtrip(
            &mut conn,
            &Frame::AdminRequest {
                req_id: 1,
                req: AdminRequest::Load(vec![(ObjectId::new(1), Value::counter(10))]),
            },
        );
        assert_eq!(
            reply,
            Frame::AdminReply {
                req_id: 1,
                reply: AdminReply::Loaded
            }
        );
        let reply = roundtrip(
            &mut conn,
            &Frame::Request {
                req_id: 2,
                payload: amc_net::Payload::Submit {
                    gtx: GlobalTxnId::new(1),
                    ops: vec![Operation::Increment {
                        obj: ObjectId::new(1),
                        delta: 5,
                    }],
                },
            },
        );
        match reply {
            Frame::Reply {
                req_id: 2,
                payload: amc_net::Payload::Vote { vote, .. },
            } => assert!(vote.is_yes()),
            other => panic!("unexpected {other:?}"),
        }
        srv.shutdown();
    }

    #[test]
    fn garbage_frame_drops_only_that_connection() {
        let srv = server();
        // A healthy connection established first.
        let mut healthy = TcpStream::connect(srv.addr()).unwrap();
        // A hostile connection: oversized length prefix.
        let mut hostile = TcpStream::connect(srv.addr()).unwrap();
        hostile.write_all(&u32::MAX.to_le_bytes()).unwrap();
        // The hostile connection gets dropped: the next read sees EOF.
        hostile
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut buf = [0u8; 1];
        assert_eq!(hostile.read(&mut buf).unwrap_or(0), 0, "must be closed");
        // The healthy connection still serves.
        let reply = roundtrip(
            &mut healthy,
            &Frame::AdminRequest {
                req_id: 7,
                req: AdminRequest::Ping,
            },
        );
        assert_eq!(
            reply,
            Frame::AdminReply {
                req_id: 7,
                reply: AdminReply::Pong
            }
        );
        srv.shutdown();
    }

    /// Panics on every protocol request; answers admin pings.
    struct PanicsOnRequests;

    impl Handler for PanicsOnRequests {
        /// Whether the request is an admin ping.
        type Req = bool;

        fn accept(&self, frame: Frame) -> Option<(u64, bool)> {
            match frame {
                Frame::Request { req_id, .. } => Some((req_id, false)),
                Frame::AdminRequest { req_id, .. } => Some((req_id, true)),
                _ => None,
            }
        }

        fn handle(&self, req_id: u64, ping: bool) -> Frame {
            assert!(ping, "injected handler fault");
            Frame::AdminReply {
                req_id,
                reply: AdminReply::Pong,
            }
        }
    }

    #[test]
    fn a_handler_panic_costs_its_request_an_error_reply_not_a_worker() {
        let srv = EventServer::serve(SiteId::new(1), "127.0.0.1:0", PanicsOnRequests)
            .expect("bind loopback");
        // Twice as many panics as workers: without isolation every worker
        // would be dead before the second half is even picked up.
        let n = 2 * srv.workers.len() as u64;
        let mut conn = TcpStream::connect(srv.addr()).unwrap();
        for req_id in 1..=n {
            let request = Frame::Request {
                req_id,
                payload: amc_net::Payload::Prepare {
                    gtx: GlobalTxnId::new(req_id),
                },
            };
            write_frame(&mut conn, &request).unwrap();
        }
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut answered = std::collections::BTreeSet::new();
        for _ in 0..n {
            match read_frame(&mut conn).expect("every request is answered") {
                Frame::ErrorReply { req_id, error } => {
                    assert_eq!(error, AmcError::Protocol("request handler panicked".into()));
                    answered.insert(req_id);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(answered.len() as u64, n);
        let reply = roundtrip(
            &mut conn,
            &Frame::AdminRequest {
                req_id: n + 1,
                req: AdminRequest::Ping,
            },
        );
        assert_eq!(
            reply,
            Frame::AdminReply {
                req_id: n + 1,
                reply: AdminReply::Pong
            }
        );
        assert_eq!(srv.stats().handler_panics, n);
        srv.shutdown();
    }
}
