//! The traced run's span recorder and the decorators that feed it.
//!
//! Spans are recorded from the benchmark's own code, around calls into the
//! program's public interfaces: [`TracedTransport`] wraps the
//! `FederationTransport` the coordinator talks through, [`TracedEngine`]
//! wraps each site's `TwoPLEngine`, and [`TracedJournal`] wraps each
//! durable site's work journal. The client loop adds
//! the `run_transaction` attempt spans. Spans stay in memory; analysis
//! happens after the phase ends.

use amc_engine::{EngineStats, LocalEngine, PreparableEngine, RecoveryReport, TwoPLEngine};
use amc_net::transport::{AdminReply, AdminRequest, FederationTransport};
use amc_net::{LocalCommManager, Payload, WorkEntry, WorkJournal};
use amc_obs::ObsSink;
use amc_types::{
    AbortReason, AmcResult, GlobalTxnId, LocalRunState, LocalTxnId, ObjectId, OpResult, Operation,
    SiteId, Value,
};
use amc_wal::LogStats;
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Message kinds the per-kind metrics use.
pub const KINDS: [&str; 7] = [
    "submit",
    "submit-prepare",
    "prepare",
    "decision",
    "redo",
    "undo",
    "paxos",
];

/// The [`KINDS`] index of a request payload.
pub fn kind_of(p: &Payload) -> usize {
    match p {
        Payload::Submit { .. } => 0,
        Payload::SubmitPrepare { .. } => 1,
        Payload::Prepare { .. } => 2,
        Payload::Decision { .. } => 3,
        Payload::Redo { .. } => 4,
        Payload::Undo { .. } => 5,
        _ => 6,
    }
}

fn gtx_of(p: &Payload) -> Option<GlobalTxnId> {
    match p {
        Payload::Submit { gtx, .. }
        | Payload::SubmitPrepare { gtx, .. }
        | Payload::Prepare { gtx }
        | Payload::Decision { gtx, .. }
        | Payload::Redo { gtx, .. }
        | Payload::Undo { gtx, .. }
        | Payload::PaxosRegister { gtx, .. }
        | Payload::PaxosP1a { gtx, .. }
        | Payload::PaxosP2a { gtx, .. }
        | Payload::PaxosDecided { gtx, .. } => Some(*gtx),
        _ => None,
    }
}

/// Site-side calls the decorators time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteOp {
    /// `begin`.
    Begin,
    /// `execute` of one operation.
    Execute,
    /// `prepare` (or `apply_and_prepare`), including its WAL force.
    Prepare,
    /// `commit`, including its WAL force.
    Commit,
    /// `abort`.
    Abort,
    /// One synced work-journal record.
    Journal,
}

/// One transport call: coordinator → site → reply.
#[derive(Debug, Clone)]
pub struct CallSpan {
    /// Unique id (engine spans on the calling thread point at it).
    pub id: u64,
    /// The transaction the message belongs to.
    pub gtx: Option<GlobalTxnId>,
    /// Destination site.
    pub site: SiteId,
    /// [`KINDS`] index.
    pub kind: usize,
    /// Start and end, ns since the tracer's origin.
    pub start: u64,
    /// End, ns.
    pub end: u64,
}

/// One engine entry-point call or journal record.
#[derive(Debug, Clone)]
pub struct SiteSpan {
    /// The site.
    pub site: SiteId,
    /// The local transaction, when known.
    pub ltx: Option<LocalTxnId>,
    /// The global transaction, when known (journal records carry it).
    pub gtx: Option<GlobalTxnId>,
    /// Which call.
    pub op: SiteOp,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
    /// The transport call running on this thread, when the site runs on
    /// the caller's thread (in-process transports).
    pub call: Option<u64>,
}

/// One `run_transaction` attempt as the client saw it.
#[derive(Debug, Clone)]
pub struct AttemptSpan {
    /// The attempt's transaction id.
    pub gtx: GlobalTxnId,
    /// The program this attempt belongs to (client-side index).
    pub program: u64,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
}

/// One committed program: latency measured from its first attempt.
#[derive(Debug, Clone)]
pub struct ProgramSpan {
    /// Client-side index.
    pub program: u64,
    /// First attempt start, ns.
    pub start: u64,
    /// Commit, ns.
    pub end: u64,
}

/// Payload pairs a traced phase keeps for the wire-codec re-run.
const PAYLOAD_CAP: usize = 20_000;

thread_local! {
    static CURRENT_CALL: Cell<Option<u64>> = const { Cell::new(None) };
}

/// In-memory span store shared by every decorator of one traced phase.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    /// Transport call spans.
    pub calls: Mutex<Vec<CallSpan>>,
    /// Engine and journal spans.
    pub site: Mutex<Vec<SiteSpan>>,
    /// Client attempt spans.
    pub attempts: Mutex<Vec<AttemptSpan>>,
    /// Committed programs.
    pub programs: Mutex<Vec<ProgramSpan>>,
    /// `(site, local txn) → global txn`, learned after each submit reply.
    pub ltx_map: Mutex<HashMap<(SiteId, LocalTxnId), GlobalTxnId>>,
    /// Request/reply payload pairs kept for the wire-codec re-run (the
    /// first [`PAYLOAD_CAP`]).
    pub payloads: Mutex<Vec<(Payload, Payload)>>,
    /// Whether spans are being recorded (off during warm-up).
    enabled: std::sync::atomic::AtomicBool,
}

impl Tracer {
    /// An empty tracer.
    pub fn new() -> Arc<Self> {
        Arc::new(Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            calls: Mutex::new(Vec::new()),
            site: Mutex::new(Vec::new()),
            attempts: Mutex::new(Vec::new()),
            programs: Mutex::new(Vec::new()),
            ltx_map: Mutex::new(HashMap::new()),
            payloads: Mutex::new(Vec::new()),
            enabled: std::sync::atomic::AtomicBool::new(false),
        })
    }

    /// Start or stop recording.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    fn on(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Nanoseconds since the tracer's origin.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record one client attempt.
    pub fn attempt(&self, gtx: GlobalTxnId, program: u64, start: Instant, end: Instant) {
        if self.on() {
            let span = AttemptSpan {
                gtx,
                program,
                start: self.ns(start),
                end: self.ns(end),
            };
            self.attempts.lock().expect("tracer lock").push(span);
        }
    }

    /// Record one committed program.
    pub fn program(&self, program: u64, start: Instant, end: Instant) {
        if self.on() {
            let span = ProgramSpan {
                program,
                start: self.ns(start),
                end: self.ns(end),
            };
            self.programs.lock().expect("tracer lock").push(span);
        }
    }

    fn site_span(
        &self,
        site: SiteId,
        ltx: Option<LocalTxnId>,
        gtx: Option<GlobalTxnId>,
        op: SiteOp,
        start: Instant,
    ) {
        if self.on() {
            let span = SiteSpan {
                site,
                ltx,
                gtx,
                op,
                start: self.ns(start),
                end: self.ns(Instant::now()),
                call: CURRENT_CALL.with(Cell::get),
            };
            self.site.lock().expect("tracer lock").push(span);
        }
    }
}

/// A `FederationTransport` decorator recording one span per call.
pub struct TracedTransport {
    inner: Arc<dyn FederationTransport>,
    tracer: Arc<Tracer>,
    /// The sites' managers (every site runs in this process), used to
    /// learn which local transaction a submit ran under.
    managers: BTreeMap<SiteId, Arc<LocalCommManager>>,
}

impl TracedTransport {
    /// Wrap `inner`.
    pub fn new(
        inner: Arc<dyn FederationTransport>,
        tracer: Arc<Tracer>,
        managers: BTreeMap<SiteId, Arc<LocalCommManager>>,
    ) -> Self {
        TracedTransport {
            inner,
            tracer,
            managers,
        }
    }
}

impl FederationTransport for TracedTransport {
    fn sites(&self) -> Vec<SiteId> {
        self.inner.sites()
    }

    fn call(&self, to: SiteId, payload: Payload) -> AmcResult<Payload> {
        if !self.tracer.on() {
            return self.inner.call(to, payload);
        }
        let id = self.tracer.next_id.fetch_add(1, Ordering::Relaxed);
        let kind = kind_of(&payload);
        let gtx = gtx_of(&payload);
        let keep = {
            let kept = self.tracer.payloads.lock().expect("tracer lock").len();
            (kept < PAYLOAD_CAP).then(|| payload.clone())
        };
        let outer = CURRENT_CALL.with(|c| c.replace(Some(id)));
        let start = Instant::now();
        let reply = self.inner.call(to, payload);
        let end = Instant::now();
        CURRENT_CALL.with(|c| c.set(outer));
        if let (Some(gtx), 0 | 1) = (gtx, kind) {
            if let Some(ltx) = self.managers.get(&to).and_then(|m| m.local_txn_of(gtx)) {
                self.tracer
                    .ltx_map
                    .lock()
                    .expect("tracer lock")
                    .insert((to, ltx), gtx);
            }
        }
        if let (Some(req), Ok(rep)) = (keep, &reply) {
            self.tracer
                .payloads
                .lock()
                .expect("tracer lock")
                .push((req, rep.clone()));
        }
        let span = CallSpan {
            id,
            gtx,
            site: to,
            kind,
            start: self.tracer.ns(start),
            end: self.tracer.ns(end),
        };
        self.tracer.calls.lock().expect("tracer lock").push(span);
        reply
    }

    fn admin(&self, to: SiteId, req: AdminRequest) -> AmcResult<AdminReply> {
        self.inner.admin(to, req)
    }

    fn supports_pipelining(&self) -> bool {
        self.inner.supports_pipelining()
    }

    fn load_sheds(&self) -> u64 {
        self.inner.load_sheds()
    }
}

/// A `LocalEngine` + `PreparableEngine` decorator around one site's
/// `TwoPLEngine`, timing every transactional entry point.
pub struct TracedEngine {
    inner: Arc<TwoPLEngine>,
    site: SiteId,
    tracer: Arc<Tracer>,
}

impl TracedEngine {
    /// Wrap `inner`, serving `site`.
    pub fn new(inner: Arc<TwoPLEngine>, site: SiteId, tracer: Arc<Tracer>) -> Self {
        TracedEngine {
            inner,
            site,
            tracer,
        }
    }

    fn timed<R>(&self, ltx: LocalTxnId, op: SiteOp, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        self.tracer.site_span(self.site, Some(ltx), None, op, start);
        r
    }
}

impl LocalEngine for TracedEngine {
    fn begin(&self) -> AmcResult<LocalTxnId> {
        let start = Instant::now();
        let r = self.inner.begin();
        if let Ok(ltx) = r {
            self.tracer
                .site_span(self.site, Some(ltx), None, SiteOp::Begin, start);
        }
        r
    }

    fn execute(&self, txn: LocalTxnId, op: &Operation) -> AmcResult<OpResult> {
        self.timed(txn, SiteOp::Execute, || self.inner.execute(txn, op))
    }

    fn commit(&self, txn: LocalTxnId) -> AmcResult<()> {
        self.timed(txn, SiteOp::Commit, || self.inner.commit(txn))
    }

    fn abort(&self, txn: LocalTxnId, reason: AbortReason) -> AmcResult<()> {
        self.timed(txn, SiteOp::Abort, || self.inner.abort(txn, reason))
    }

    fn state_of(&self, txn: LocalTxnId) -> Option<LocalRunState> {
        self.inner.state_of(txn)
    }

    fn is_up(&self) -> bool {
        self.inner.is_up()
    }

    fn crash(&self) {
        self.inner.crash()
    }

    fn crash_partial(&self, keep_frames: u32, torn_frame: bool) {
        self.inner.crash_partial(keep_frames, torn_frame)
    }

    fn recover(&self) -> AmcResult<RecoveryReport> {
        self.inner.recover()
    }

    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn stats(&self) -> EngineStats {
        self.inner.stats()
    }

    fn dump(&self) -> AmcResult<BTreeMap<ObjectId, Value>> {
        self.inner.dump()
    }

    fn bulk_load(&self, data: &[(ObjectId, Value)]) -> AmcResult<()> {
        self.inner.bulk_load(data)
    }

    fn log_stats(&self) -> LogStats {
        self.inner.log_stats()
    }

    fn attach_obs(&self, sink: ObsSink, site: SiteId) {
        self.inner.attach_obs(sink, site)
    }
}

impl PreparableEngine for TracedEngine {
    fn prepare(&self, txn: LocalTxnId) -> AmcResult<()> {
        self.timed(txn, SiteOp::Prepare, || self.inner.prepare(txn))
    }

    fn apply_and_prepare(&self, txn: LocalTxnId, ops: &[Operation]) -> AmcResult<Vec<OpResult>> {
        self.timed(txn, SiteOp::Prepare, || {
            self.inner.apply_and_prepare(txn, ops)
        })
    }
}

/// A `WorkJournal` decorator timing each (synced) record.
pub struct TracedJournal {
    inner: Box<dyn WorkJournal>,
    site: SiteId,
    tracer: Arc<Tracer>,
}

impl TracedJournal {
    /// Wrap `inner`, the journal of `site`.
    pub fn new(inner: Box<dyn WorkJournal>, site: SiteId, tracer: Arc<Tracer>) -> Self {
        TracedJournal {
            inner,
            site,
            tracer,
        }
    }
}

impl WorkJournal for TracedJournal {
    fn record(&self, entry: &WorkEntry) {
        let start = Instant::now();
        self.inner.record(entry);
        self.tracer.site_span(
            self.site,
            entry.ltx,
            Some(entry.gtx),
            SiteOp::Journal,
            start,
        );
    }
}
