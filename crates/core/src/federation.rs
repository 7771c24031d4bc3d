//! The threaded federation runtime.
//!
//! This is the "real machine" driver: communication-manager calls are
//! synchronous function calls (zero network latency), many worker threads
//! push global transactions through the same [`Coordinator`] state machine
//! the simulator uses, and the engines' blocking lock managers provide the
//! contention. It exists for the throughput experiments (E1–E3, E7), where
//! wall-clock concurrency — not failure behaviour — is the measured
//! quantity. Crashes belong to the discrete-event driver.
//!
//! Global concurrency control: for the two portable protocols, every L1
//! lock of a global transaction is acquired (in canonical object order)
//! *before* any engine work and released only at global end — the strict
//! L1 two-phase discipline of §4.3 that discharges both serializability
//! requirements. The 2PC baseline runs without an L1 layer; distributed
//! 2PL at L0 (page locks held to the global end) is its isolation story,
//! and participants are always submitted in ascending site order so
//! cross-site lock cycles cannot form.

use crate::config::{FederationConfig, PaxosCommitConfig};
use crate::coordinator::{CoordAction, CoordEvent, Coordinator};
use crate::metrics::RunMetrics;
use amc_mlt::L1LockManager;
use amc_net::comm::SubmitMode;
use amc_net::transport::{AdminReply, AdminRequest, FederationTransport, InProcessTransport};
use amc_net::{Envelope, LocalCommManager, MessageTrace, Payload};
use amc_paxos::{majority, AcceptorHost, AcceptorTransport, CommitLedger, ReplicaDriver};
use amc_types::{
    AbortReason, AmcError, AmcResult, GlobalTxnId, GlobalVerdict, LocalVote, ObjectId, Operation,
    ProtocolKind, SimTime, SiteId, Value,
};
use amc_verify::{History, OpEvent};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Outcome of one global transaction attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnOutcome {
    /// Globally committed.
    Committed,
    /// Globally aborted (a participant voted no).
    Aborted,
    /// Rejected at L1 lock acquisition before any engine work; the caller
    /// should retry.
    L1Rejected(AbortReason),
}

/// Per-transaction measurements returned to the driver loop.
#[derive(Debug, Clone)]
pub struct TxnReport {
    /// The global transaction id this attempt ran under (oracle mapping).
    pub gtx: GlobalTxnId,
    /// What happened.
    pub outcome: TxnOutcome,
    /// End-to-end latency of the attempt.
    pub latency: Duration,
    /// L0 lock tenures per participating site (first submit → local
    /// release), only populated for committed transactions.
    pub l0_holds: Vec<Duration>,
    /// Messages exchanged (requests + replies).
    pub messages: u64,
}

/// A final-state message the coordinator still owes a site that was down
/// when it was first sent (§3.1: the coordinator must eventually inform
/// every local system of the decision; §3.2/§3.3 make the retransmission
/// idempotent through markers).
#[derive(Debug, Clone)]
struct PendingObligation {
    gtx: GlobalTxnId,
    site: SiteId,
    payload: Payload,
    /// The transaction's L1 locks are retained until discharge (§4.3
    /// strictness: redo/undo obligations are part of the transaction).
    holds_l1: bool,
}

/// The submit mode a protocol uses on the wire.
pub fn submit_mode_for(protocol: ProtocolKind) -> SubmitMode {
    match protocol {
        ProtocolKind::TwoPhaseCommit => SubmitMode::TwoPhase,
        ProtocolKind::CommitAfter => SubmitMode::CommitAfter,
        ProtocolKind::CommitBefore => SubmitMode::CommitBefore,
    }
}

/// A running federation: central system + communication managers + sealed
/// engines.
pub struct Federation {
    cfg: FederationConfig,
    managers: BTreeMap<SiteId, Arc<LocalCommManager>>,
    transport: Arc<dyn FederationTransport>,
    l1: L1LockManager,
    next_gtx: AtomicU64,
    history: Mutex<History>,
    trace: Mutex<MessageTrace>,
    seq: AtomicU64,
    record_history: bool,
    record_trace: bool,
    unresolved: Mutex<Vec<PendingObligation>>,
    /// In-process acceptor group (Paxos federations built by
    /// [`Federation::new`] only — TCP deployments mount acceptors in
    /// their site servers).
    paxos_transport: Option<Arc<AcceptorTransport<InProcessTransport>>>,
    /// Fault injection: simulate the incumbent coordinator dying after
    /// this many more replicated votes, leaving the transaction in doubt.
    paxos_crash_after: Mutex<Option<u32>>,
}

impl Federation {
    /// Build a federation (fresh engines) from `cfg`.
    ///
    /// # Panics
    /// When `cfg` is not runnable (2PC over a non-preparable engine) — the
    /// paper's point is that such deployments cannot exist.
    pub fn new(cfg: FederationConfig) -> Self {
        assert!(
            cfg.is_runnable(),
            "2PC cannot run on a federation with non-preparable engines (§3.1)"
        );
        let managers: BTreeMap<SiteId, Arc<LocalCommManager>> = cfg
            .build_managers()
            .into_iter()
            .map(|m| (m.site(), m))
            .collect();
        let inner = InProcessTransport::new(
            managers.clone(),
            submit_mode_for(cfg.protocol),
            cfg.message_delay,
        );
        let Some(px) = &cfg.paxos else {
            let transport = Arc::new(inner);
            return Self::assemble(cfg, managers, transport);
        };
        // Replicated coordination: mount a durable acceptor at each
        // configured site by decorating the transport — the same
        // interception the TCP site server performs.
        assert_eq!(
            cfg.protocol,
            ProtocolKind::TwoPhaseCommit,
            "Paxos Commit replicates the 2PC prepare/decision structure; the \
             portable protocols have no prepared state to make durable"
        );
        assert!(
            px.acceptors.iter().all(|a| managers.contains_key(a)),
            "acceptors must be co-located with existing sites"
        );
        std::fs::create_dir_all(&px.log_dir).expect("create acceptor log dir");
        let hosts: BTreeMap<SiteId, AcceptorHost> = px
            .acceptors
            .iter()
            .map(|a| {
                let path = px.log_dir.join(format!("acceptor-{}.log", a.raw()));
                let host = AcceptorHost::open_with_linger(*a, path, px.acceptor_linger)
                    .expect("open acceptor log");
                (*a, host)
            })
            .collect();
        let decorated = Arc::new(AcceptorTransport::new(inner, hosts));
        let mut fed = Self::assemble(
            cfg,
            managers,
            Arc::clone(&decorated) as Arc<dyn FederationTransport>,
        );
        fed.paxos_transport = Some(decorated);
        fed
    }

    /// Build a federation whose sites are reached through an externally
    /// supplied transport (e.g. the TCP transport of `amc-rpc`). The sites'
    /// engines live behind the transport; [`Federation::manager`] returns
    /// `None` for every site.
    pub fn with_transport(cfg: FederationConfig, transport: Arc<dyn FederationTransport>) -> Self {
        Self::assemble(cfg, BTreeMap::new(), transport)
    }

    fn assemble(
        cfg: FederationConfig,
        managers: BTreeMap<SiteId, Arc<LocalCommManager>>,
        transport: Arc<dyn FederationTransport>,
    ) -> Self {
        let l1 = L1LockManager::new(cfg.policy, cfg.l1_timeout);
        // A sharded coordinator allocates from its slot's disjoint id
        // range; slot 0 (and every unsharded federation) starts at 1.
        let first_gtx = match &cfg.coordinator {
            Some(id) => u64::from(id.slot) * crate::config::COORD_GTX_SPAN + 1,
            None => 1,
        };
        Federation {
            cfg,
            managers,
            transport,
            l1,
            next_gtx: AtomicU64::new(first_gtx),
            history: Mutex::new(History::new()),
            trace: Mutex::new(MessageTrace::new()),
            seq: AtomicU64::new(1),
            record_history: true,
            record_trace: true,
            unresolved: Mutex::new(Vec::new()),
            paxos_transport: None,
            paxos_crash_after: Mutex::new(None),
        }
    }

    /// Disable oracle/trace recording (benchmark hot paths).
    pub fn set_recording(&mut self, history: bool, trace: bool) {
        self.record_history = history;
        self.record_trace = trace;
    }

    /// The configuration.
    pub fn config(&self) -> &FederationConfig {
        &self.cfg
    }

    /// The communication manager of `site` — only available when the
    /// federation runs in-process (transports hide remote managers).
    pub fn manager(&self, site: SiteId) -> Option<&Arc<LocalCommManager>> {
        self.managers.get(&site)
    }

    /// The transport sites are reached through.
    pub fn transport(&self) -> &Arc<dyn FederationTransport> {
        &self.transport
    }

    /// Load initial data into a site's engine.
    pub fn load_site(&self, site: SiteId, data: &[(ObjectId, Value)]) -> AmcResult<()> {
        match self
            .transport
            .admin(site, AdminRequest::Load(data.to_vec()))?
        {
            AdminReply::Loaded => Ok(()),
            other => Err(AmcError::Protocol(format!(
                "unexpected admin reply {other:?}"
            ))),
        }
    }

    /// Final committed state of every site (markers included).
    pub fn dumps(&self) -> AmcResult<BTreeMap<SiteId, BTreeMap<ObjectId, Value>>> {
        self.transport
            .sites()
            .into_iter()
            .map(|s| match self.transport.admin(s, AdminRequest::Dump)? {
                AdminReply::Dump(d) => Ok((s, d)),
                other => Err(AmcError::Protocol(format!(
                    "unexpected admin reply {other:?}"
                ))),
            })
            .collect()
    }

    /// Snapshot of the recorded history (oracle input).
    pub fn history(&self) -> History {
        self.history.lock().clone()
    }

    /// Snapshot of the message trace.
    pub fn trace(&self) -> MessageTrace {
        self.trace.lock().clone()
    }

    /// Aggregate communication-manager counters.
    pub fn comm_stats(&self) -> amc_net::CommStats {
        let mut total = amc_net::CommStats::default();
        for site in self.transport.sites() {
            let Ok(AdminReply::CommStats(s)) = self.transport.admin(site, AdminRequest::CommStats)
            else {
                continue;
            };
            total.submits += s.submits;
            total.votes_ready += s.votes_ready;
            total.votes_aborted += s.votes_aborted;
            total.redo_runs += s.redo_runs;
            total.undo_runs += s.undo_runs;
            total.pre_vote_retries += s.pre_vote_retries;
            total.marker_checks += s.marker_checks;
        }
        total
    }

    /// Aggregate engine log counters (E4).
    pub fn log_stats(&self) -> amc_wal::LogStats {
        let mut total = amc_wal::LogStats::default();
        for site in self.transport.sites() {
            let Ok(AdminReply::LogStats(s)) = self.transport.admin(site, AdminRequest::LogStats)
            else {
                continue;
            };
            total.appends += s.appends;
            total.forces += s.forces;
            total.group_forces += s.group_forces;
            total.batched_commits += s.batched_commits;
            total.stable_records += s.stable_records;
            total.stable_bytes += s.stable_bytes;
        }
        total
    }

    /// L1 lock-manager counters.
    pub fn l1_stats(&self) -> amc_lock::LockStats {
        self.l1.stats()
    }

    fn record_envelope(&self, from: SiteId, to: SiteId, payload: &Payload) {
        if self.record_trace {
            self.trace
                .lock()
                .record(SimTime::ZERO, Envelope::new(from, to, payload.clone()));
        }
    }

    /// Dispatch one coordinator message through the transport and return
    /// the reply.
    fn dispatch(&self, site: SiteId, payload: Payload) -> AmcResult<Payload> {
        self.record_envelope(SiteId::CENTRAL, site, &payload);
        let reply = self.transport.call(site, payload)?;
        self.record_envelope(site, SiteId::CENTRAL, &reply);
        Ok(reply)
    }

    /// Record the final-state messages still owed to sites that were down
    /// when `gtx` finished, translating each into the form a *restarted*
    /// site can act on.
    fn queue_obligations(
        &self,
        gtx: GlobalTxnId,
        verdict: GlobalVerdict,
        per_site: &BTreeMap<SiteId, Vec<Operation>>,
        crashed_voters: &[SiteId],
        deferred: Vec<(SiteId, Payload)>,
    ) {
        let holds_l1 = self.cfg.protocol != ProtocolKind::TwoPhaseCommit;
        let mut obligations = Vec::new();
        // A coordinator that already tried to send the crashed voter its
        // abort in the finish round deferred that payload too; the
        // synthetic obligation below supersedes it (for commit-before it
        // is the stronger message — an undo rather than a bare decision).
        let deferred: Vec<(SiteId, Payload)> = deferred
            .into_iter()
            .filter(|(site, _)| !crashed_voters.contains(site))
            .collect();
        for &site in crashed_voters {
            // A vote-phase crash forced the abort verdict, but the site may
            // have gotten further than its lost reply shows: a forced 2PC
            // prepare awaiting the decision, or a commit-before local
            // commit whose vote never arrived. Either way it must learn
            // the abort — as an undo for commit-before (its journal holds
            // the inverses), as a plain abort decision otherwise.
            debug_assert_eq!(verdict, GlobalVerdict::Abort);
            let payload = match self.cfg.protocol {
                ProtocolKind::CommitBefore => Payload::Undo {
                    gtx,
                    inverse_ops: Vec::new(),
                },
                _ => Payload::Decision {
                    gtx,
                    verdict: GlobalVerdict::Abort,
                },
            };
            obligations.push(PendingObligation {
                gtx,
                site,
                payload,
                holds_l1,
            });
        }
        for (site, payload) in deferred {
            // A restarted commit-after site has lost the running local
            // transaction a commit decision would land on; re-ship the
            // program as a redo instead (§3.2) — the forward marker makes
            // the repetition exactly-once even if the site never died.
            let payload = match (self.cfg.protocol, &payload) {
                (
                    ProtocolKind::CommitAfter,
                    Payload::Decision {
                        verdict: GlobalVerdict::Commit,
                        ..
                    },
                ) => Payload::Redo {
                    gtx,
                    ops: per_site.get(&site).cloned().unwrap_or_default(),
                },
                _ => payload,
            };
            obligations.push(PendingObligation {
                gtx,
                site,
                payload,
                holds_l1,
            });
        }
        self.unresolved.lock().extend(obligations);
    }

    /// Number of final-state messages still owed to unreachable sites.
    pub fn pending_obligations(&self) -> usize {
        self.unresolved.lock().len()
    }

    /// Retry delivery of every owed final-state message — the coordinator
    /// side of a recovered site's inquiry (§3.1): once the site answers
    /// again, it learns the verdict it missed, redoes or undoes as the
    /// protocol demands, and the transaction's retained L1 locks are
    /// finally released.
    ///
    /// One delivery attempt per obligation per call; obligations whose
    /// site is still down stay queued. Returns how many were discharged.
    pub fn resolve_pending(&self) -> AmcResult<usize> {
        let pending = std::mem::take(&mut *self.unresolved.lock());
        if pending.is_empty() {
            return Ok(0);
        }
        let batch: Vec<(GlobalTxnId, bool)> = pending.iter().map(|o| (o.gtx, o.holds_l1)).collect();
        let mut kept = Vec::new();
        let mut discharged = 0usize;
        for ob in pending {
            match self.dispatch(ob.site, ob.payload.clone()) {
                Ok(_) => discharged += 1,
                Err(AmcError::SiteDown(_)) | Err(AmcError::TransientIo(_)) => kept.push(ob),
                Err(e) => {
                    // A delivered-but-rejected obligation is a protocol
                    // bug, not an outage: surface it, keep the rest.
                    self.unresolved.lock().extend(kept);
                    return Err(e);
                }
            }
        }
        let mut unresolved = self.unresolved.lock();
        unresolved.extend(kept);
        for (gtx, holds_l1) in batch {
            if holds_l1 && !unresolved.iter().any(|o| o.gtx == gtx) {
                self.l1.release_all(gtx);
            }
        }
        Ok(discharged)
    }

    /// The in-process acceptor group, when this federation was built with
    /// a [`PaxosCommitConfig`] (fault-injection switchboard for tests and
    /// experiments).
    pub fn paxos_transport(&self) -> Option<&Arc<AcceptorTransport<InProcessTransport>>> {
        self.paxos_transport.as_ref()
    }

    /// A recovery driver speaking as coordinator replica `replica` over
    /// this federation's acceptor group.
    ///
    /// # Panics
    /// When the federation has no Paxos configuration.
    pub fn replica_driver(&self, replica: u32) -> ReplicaDriver<'_> {
        let px = self.cfg.paxos.as_ref().expect("paxos not configured");
        ReplicaDriver::new(&*self.transport, px.acceptors.clone(), replica)
    }

    /// Fault injection: the incumbent coordinator "dies" (the current
    /// `run_transaction` returns an error without delivering a decision)
    /// right after the `votes`-th replicated prepare vote — leaving the
    /// transaction in doubt for a standby to finish.
    pub fn inject_coordinator_crash_after_votes(&self, votes: u32) {
        *self.paxos_crash_after.lock() = Some(votes.max(1));
    }

    fn paxos_crash_due(&self) -> bool {
        let mut slot = self.paxos_crash_after.lock();
        if let Some(n) = slot.as_mut() {
            *n -= 1;
            if *n == 0 {
                *slot = None;
                return true;
            }
        }
        false
    }

    /// Open `gtx`'s Paxos instances at the acceptor group (*BeginCommit*).
    /// Returns the acceptors that durably acknowledged the registration.
    fn paxos_register(
        &self,
        gtx: GlobalTxnId,
        participants: &[SiteId],
        px: &PaxosCommitConfig,
        messages: &mut u64,
    ) -> AmcResult<Vec<SiteId>> {
        let mut acked = Vec::new();
        for a in &px.acceptors {
            *messages += 2;
            let payload = Payload::PaxosRegister {
                gtx,
                participants: participants.to_vec(),
            };
            match self.dispatch(*a, payload) {
                Ok(Payload::PaxosAck { .. }) => acked.push(*a),
                Ok(other) => {
                    return Err(AmcError::Protocol(format!(
                        "unexpected registration reply {other}"
                    )))
                }
                Err(AmcError::SiteDown(_)) | Err(AmcError::TransientIo(_)) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(acked)
    }

    /// Cross-replicate one prepare vote at ballot 0. The voting site's
    /// co-located acceptor already holds the accept (the vote reply *was*
    /// the accept — co-location); the other acceptors get an explicit
    /// phase-2a message. Successful Prepared accepts feed the commit gate.
    #[allow(clippy::too_many_arguments)]
    fn paxos_replicate_vote(
        &self,
        gtx: GlobalTxnId,
        site: SiteId,
        prepared: bool,
        px: &PaxosCommitConfig,
        registered_at: &[SiteId],
        ledger: &mut CommitLedger,
        messages: &mut u64,
    ) {
        for a in &px.acceptors {
            if *a == site && registered_at.contains(a) {
                if prepared {
                    ledger.record_prepared(site, *a);
                }
                continue;
            }
            *messages += 2;
            let payload = Payload::PaxosP2a {
                gtx,
                site,
                ballot: 0,
                prepared,
            };
            // A non-accept (a recovery ballot superseded 0, the acceptor is
            // unreachable, or the reply is malformed) just means the instance
            // is not chosen at this acceptor — the commit gate decides what
            // that means.
            let accepted = matches!(
                self.dispatch(*a, payload),
                Ok(Payload::PaxosP2b { accepted: true, .. })
            );
            if prepared && accepted {
                ledger.record_prepared(site, *a);
            }
        }
    }

    /// Whether the 1PC fast path applies to this federation's runs.
    fn fast_path_active(&self) -> bool {
        self.cfg.fast_path
            && self.cfg.protocol == ProtocolKind::TwoPhaseCommit
            && self.cfg.paxos.is_none()
    }

    /// The single-site bypass: a transaction touching one site needs no
    /// global round at all. The combined op+prepare dispatch carries
    /// `solo`, telling the site to commit locally at once (through the
    /// commit-before machinery: forward marker, captured inverses,
    /// journal); the coordinator records the presumed outcome from the
    /// single reply. A lost reply presumes abort and leaves the site an
    /// undo obligation, discharged by [`Federation::resolve_pending`]
    /// exactly as a commit-before crash race is.
    fn run_single_site(
        &self,
        gtx: GlobalTxnId,
        site: SiteId,
        ops: &[Operation],
        start: Instant,
    ) -> AmcResult<TxnReport> {
        let t0 = Instant::now();
        let payload = Payload::SubmitPrepare {
            gtx,
            ops: ops.to_vec(),
            solo: true,
        };
        let (verdict, l0_holds) = match self.dispatch(site, payload) {
            Ok(Payload::Vote { vote, .. }) => {
                if vote.is_yes() {
                    if self.record_history {
                        let per_site = BTreeMap::from([(site, ops.to_vec())]);
                        self.record_site_ops(gtx, site, &per_site);
                    }
                    // The site committed locally at its vote: its L0
                    // tenure is the single exchange.
                    (GlobalVerdict::Commit, vec![t0.elapsed()])
                } else {
                    (GlobalVerdict::Abort, Vec::new())
                }
            }
            Ok(other) => return Err(AmcError::Protocol(format!("unexpected reply {other}"))),
            Err(AmcError::SiteDown(_)) | Err(AmcError::TransientIo(_)) => {
                // Presume abort. The site may in fact have committed
                // locally before the reply was lost (§3.3's crash race);
                // the empty-inverse undo makes the recovered site consult
                // its own journal, and its markers make the repair
                // exactly-once.
                self.unresolved.lock().push(PendingObligation {
                    gtx,
                    site,
                    payload: Payload::Undo {
                        gtx,
                        inverse_ops: Vec::new(),
                    },
                    holds_l1: false,
                });
                (GlobalVerdict::Abort, Vec::new())
            }
            Err(e) => return Err(e),
        };
        if self.record_history {
            self.history.lock().set_outcome(gtx, verdict);
        }
        Ok(TxnReport {
            gtx,
            outcome: match verdict {
                GlobalVerdict::Commit => TxnOutcome::Committed,
                GlobalVerdict::Abort => TxnOutcome::Aborted,
            },
            latency: start.elapsed(),
            l0_holds,
            messages: 2,
        })
    }

    /// Run one global transaction to completion.
    pub fn run_transaction(
        &self,
        per_site: &BTreeMap<SiteId, Vec<Operation>>,
    ) -> AmcResult<TxnReport> {
        let start = Instant::now();
        let gtx = GlobalTxnId::new(self.next_gtx.fetch_add(1, Ordering::Relaxed));
        if self.fast_path_active() && per_site.len() == 1 {
            let (&site, ops) = per_site.iter().next().expect("one site");
            return self.run_single_site(gtx, site, ops, start);
        }

        // --- L1 acquisition (portable protocols only) ---------------------
        if self.cfg.protocol != ProtocolKind::TwoPhaseCommit {
            // The whole lock set is known before execution starts, so fold
            // each object's accesses into one *strongest* mode and acquire
            // in canonical object order. Ordered acquisition removes lock
            // cycles across objects; one-shot strongest-mode acquisition
            // removes upgrade deadlocks on the same object. L1 deadlock is
            // impossible by construction (timeouts remain the overload
            // safety valve).
            use amc_lock::LockMode;
            let mut needed: BTreeMap<ObjectId, amc_lock::SemanticMode> = BTreeMap::new();
            for op in per_site.values().flatten() {
                let mode = self.cfg.policy.mode_for(op);
                needed
                    .entry(op.object())
                    .and_modify(|m| *m = m.combine(mode))
                    .or_insert(mode);
            }
            for (obj, mode) in needed {
                use amc_lock::blocking::AcquireResult;
                match self.l1.acquire_mode(gtx, obj, mode) {
                    AcquireResult::Granted => {}
                    AcquireResult::Deadlock => {
                        self.l1.release_all(gtx);
                        return Ok(TxnReport {
                            gtx,
                            outcome: TxnOutcome::L1Rejected(AbortReason::Deadlock),
                            latency: start.elapsed(),
                            l0_holds: Vec::new(),
                            messages: 0,
                        });
                    }
                    AcquireResult::Timeout => {
                        self.l1.release_all(gtx);
                        return Ok(TxnReport {
                            gtx,
                            outcome: TxnOutcome::L1Rejected(AbortReason::LockTimeout),
                            latency: start.elapsed(),
                            l0_holds: Vec::new(),
                            messages: 0,
                        });
                    }
                }
            }
        }

        // --- Drive the coordinator synchronously --------------------------
        let mut coordinator = Coordinator::new(gtx, self.cfg.protocol, per_site.clone());
        if self.fast_path_active() {
            coordinator = coordinator.with_piggyback();
        }
        let mut queue = std::collections::VecDeque::from([CoordEvent::Start]);
        let mut messages = 0u64;
        let mut submit_started: BTreeMap<SiteId, Instant> = BTreeMap::new();
        let mut l0_released: BTreeMap<SiteId, Instant> = BTreeMap::new();
        let mut final_verdict: Option<GlobalVerdict> = None;
        // Sites that went down mid-protocol. A vote-phase failure counts
        // as a no vote; a finish-phase failure leaves a final-state
        // message the coordinator still owes the site once it recovers.
        let mut crashed_voters: Vec<SiteId> = Vec::new();
        let mut deferred: Vec<(SiteId, Payload)> = Vec::new();
        // Paxos Commit bookkeeping (2PC + replicated coordination only).
        let paxos = self.cfg.paxos.as_ref();
        let participants: Vec<SiteId> = per_site.keys().copied().collect();
        let mut registration_done = false;
        let mut registered_at: Vec<SiteId> = Vec::new();
        let mut ledger = CommitLedger::new();
        let mut override_verdict: Option<GlobalVerdict> = None;
        let result: AmcResult<()> = (|| {
            'drive: while let Some(event) = queue.pop_front() {
                let actions = coordinator.on_event(event);
                // Sends go out one at a time, in the coordinator's
                // emission order — ascending site order — so every
                // transaction takes its L0 locks in the same site order
                // and no lock cycle can form across sites.
                //
                // Once a work-round send comes back as a no vote (or its
                // site is unreachable) the transaction is doomed, so the
                // rest of the batch's work sends are skipped: a site that
                // never ran its operations cannot hold stock or locks a
                // concurrent transaction needs. The abort path reaches
                // those sites anyway — a decision leaves a tombstone, and
                // a commit-before site with no vote gets an inquiry.
                let mut work_doomed = false;
                for action in actions {
                    match action {
                        CoordAction::Send { site, payload } => {
                            let work_send = matches!(
                                payload,
                                Payload::Submit { .. } | Payload::SubmitPrepare { .. }
                            );
                            if work_doomed && work_send {
                                continue;
                            }
                            // Replicated coordination opens the instance
                            // set between the work and prepare rounds:
                            // prepare-round votes (and only those) then
                            // double as ballot-0 accepts.
                            if let (Some(px), Payload::Prepare { .. }) = (paxos, &payload) {
                                if !registration_done {
                                    registration_done = true;
                                    registered_at =
                                        self.paxos_register(gtx, &participants, px, &mut messages)?;
                                    if registered_at.len() < majority(px.acceptors.len()) {
                                        // The instances cannot be opened
                                        // durably; abort before any site
                                        // prepares (a pre-prepare abort
                                        // is unilateral-safe: no acceptor
                                        // can ever choose Prepared).
                                        override_verdict = Some(GlobalVerdict::Abort);
                                        break 'drive;
                                    }
                                }
                            }
                            if work_send {
                                submit_started.insert(site, Instant::now());
                            }
                            let was_prepare = matches!(payload, Payload::Prepare { .. });
                            let vote_phase = work_send || was_prepare;
                            messages += 2; // request + reply
                            let reply = match self.dispatch(site, payload.clone()) {
                                Ok(reply) => reply,
                                Err(AmcError::SiteDown(_)) | Err(AmcError::TransientIo(_)) => {
                                    if vote_phase {
                                        // An unreachable site cannot promise
                                        // anything: count it as a no vote and
                                        // reconcile after the verdict (§3.3's
                                        // crash race: it may in fact have
                                        // committed locally before dying).
                                        crashed_voters.push(site);
                                        work_doomed |= work_send;
                                        queue.push_back(CoordEvent::Vote {
                                            site,
                                            vote: LocalVote::Aborted,
                                        });
                                    } else {
                                        // The decision stands; the site learns
                                        // it through the inquiry path when it
                                        // comes back (resolve_pending).
                                        deferred.push((site, payload));
                                        queue.push_back(CoordEvent::Finished { site });
                                    }
                                    continue;
                                }
                                Err(e) => return Err(e),
                            };
                            // L0 release points: commit-before releases at
                            // local commit (submit reply); the others at the
                            // decision/redo/undo reply.
                            match (&reply, self.cfg.protocol) {
                                (Payload::Vote { .. }, ProtocolKind::CommitBefore) => {
                                    l0_released.insert(site, Instant::now());
                                }
                                (Payload::Finished { .. }, _) => {
                                    l0_released.insert(site, Instant::now());
                                }
                                _ => {}
                            }
                            match reply {
                                Payload::Vote { vote, .. } => {
                                    if vote.is_yes() && self.record_history {
                                        self.record_site_ops(gtx, site, per_site);
                                    }
                                    work_doomed |= work_send && !vote.is_yes();
                                    if let Some(px) = paxos {
                                        if was_prepare && registration_done {
                                            self.paxos_replicate_vote(
                                                gtx,
                                                site,
                                                vote.is_yes(),
                                                px,
                                                &registered_at,
                                                &mut ledger,
                                                &mut messages,
                                            );
                                            if self.paxos_crash_due() {
                                                return Err(AmcError::InvalidState(format!(
                                                    "injected coordinator crash: {gtx} left in doubt"
                                                )));
                                            }
                                        }
                                    }
                                    queue.push_back(CoordEvent::Vote { site, vote });
                                }
                                Payload::Finished { .. } => {
                                    queue.push_back(CoordEvent::Finished { site });
                                }
                                other => {
                                    return Err(AmcError::Protocol(format!(
                                        "unexpected reply {other}"
                                    )))
                                }
                            }
                        }
                        CoordAction::Decided(v) => {
                            let Some(px) = paxos else { continue };
                            if !registration_done {
                                // Work-round abort: nothing was ever
                                // registered, no acceptor can choose
                                // Prepared — unilateral abort is safe.
                                continue;
                            }
                            let fast_commit = v == GlobalVerdict::Commit
                                && ledger.all_chosen(&participants, px.acceptors.len());
                            if fast_commit {
                                // Every instance chose Prepared at a
                                // majority at ballot 0: the commit is
                                // already the replicated, durable fact.
                                continue;
                            }
                            // Anything else after registration — an abort,
                            // or a commit whose ballot-0 replication fell
                            // short — must be run through a recovery
                            // ballot: a unilateral decision could
                            // contradict what a standby reads from the
                            // acceptor logs.
                            messages +=
                                2 * px.acceptors.len() as u64 * (1 + participants.len() as u64);
                            let driver = ReplicaDriver::new(
                                &*self.transport,
                                px.acceptors.clone(),
                                px.replica,
                            );
                            let (verdict, _) = driver.decide(gtx, &participants)?;
                            if verdict != v {
                                // The replicated verdict departs from the
                                // coordinator's local one (e.g. a crashed
                                // voter whose durable Prepared survived
                                // it): the acceptors win — abandon the
                                // state machine and deliver their verdict.
                                override_verdict = Some(verdict);
                                break 'drive;
                            }
                        }
                        CoordAction::Done(v) => final_verdict = Some(v),
                    }
                }
            }
            // The replicated decision departs from (or pre-empts) the
            // coordinator's: deliver it ourselves, with the usual
            // down-site deferral.
            if let Some(v) = override_verdict {
                for &s in per_site.keys() {
                    messages += 2;
                    let payload = Payload::Decision { gtx, verdict: v };
                    match self.dispatch(s, payload.clone()) {
                        Ok(_) => {}
                        Err(AmcError::SiteDown(_)) | Err(AmcError::TransientIo(_)) => {
                            deferred.push((s, payload));
                        }
                        Err(e) => return Err(e),
                    }
                }
                // Every crashed voter was just re-driven (or queued as an
                // obligation) with the *replicated* verdict; drop the
                // synthesized-abort bookkeeping.
                crashed_voters.clear();
                final_verdict = Some(v);
            }
            Ok(())
        })();

        let has_obligations = !crashed_voters.is_empty() || !deferred.is_empty();
        // Strict L1 2PL: release only after every obligation (redo/undo)
        // has been discharged. A transaction that still owes a crashed
        // site its final state keeps its L1 locks until resolve_pending
        // delivers it (§4.3: the obligation is part of the transaction).
        if self.cfg.protocol != ProtocolKind::TwoPhaseCommit && !(result.is_ok() && has_obligations)
        {
            self.l1.release_all(gtx);
        }
        result?;

        let verdict =
            final_verdict.ok_or_else(|| AmcError::Protocol("coordinator never finished".into()))?;
        // Close the instances at acceptors that are not participants —
        // participants' co-located acceptors noted the decision when the
        // `Decision` payload passed through them. Best-effort: a missed
        // note keeps the transaction "open" there, and re-finishing an
        // already-decided transaction is idempotent.
        if let Some(px) = paxos {
            if registration_done {
                for a in &px.acceptors {
                    if !per_site.contains_key(a) {
                        messages += 2;
                        let _ = self.dispatch(*a, Payload::PaxosDecided { gtx, verdict });
                    }
                }
            }
        }
        if has_obligations {
            self.queue_obligations(gtx, verdict, per_site, &crashed_voters, deferred);
        }
        if self.record_history {
            self.history.lock().set_outcome(gtx, verdict);
        }

        // 2PC and commit-after hold L0 locks until the decision round; the
        // sites that never saw a finish (commit-before commit path) already
        // released at their vote.
        let l0_holds = if verdict == GlobalVerdict::Commit {
            submit_started
                .iter()
                .filter_map(|(site, t0)| l0_released.get(site).map(|t1| t1.duration_since(*t0)))
                .collect()
        } else {
            Vec::new()
        };

        Ok(TxnReport {
            gtx,
            outcome: match verdict {
                GlobalVerdict::Commit => TxnOutcome::Committed,
                GlobalVerdict::Abort => TxnOutcome::Aborted,
            },
            latency: start.elapsed(),
            l0_holds,
            messages,
        })
    }

    fn record_site_ops(
        &self,
        gtx: GlobalTxnId,
        site: SiteId,
        per_site: &BTreeMap<SiteId, Vec<Operation>>,
    ) {
        if let Some(ops) = per_site.get(&site) {
            let mut history = self.history.lock();
            // An inquiry retry can re-fetch a site's cached yes vote;
            // recording its ops twice would fabricate conflict edges.
            if history.has_events_for(gtx, site) {
                return;
            }
            for op in ops {
                let seq = self.seq.fetch_add(1, Ordering::Relaxed);
                history.record_op(OpEvent {
                    gtx,
                    site,
                    seq,
                    op: *op,
                });
            }
        }
    }

    /// Run a batch of programs on `threads` worker threads. Each program is
    /// `(per-site ops, intends_abort)`; erroneous global rejections *and*
    /// erroneous global aborts (an abort of a program that did not intend
    /// one) are retried (bounded); intended aborts are not.
    pub fn run_concurrent(
        self: &Arc<Self>,
        programs: Vec<(BTreeMap<SiteId, Vec<Operation>>, bool)>,
        threads: usize,
    ) -> RunMetrics {
        let mut metrics = RunMetrics::new(self.cfg.protocol);
        // FIFO: workers take programs in submission order (a `Vec::pop`
        // here once drained the batch back-to-front, starving early
        // submissions under bounded drivers).
        let queue = Arc::new(Mutex::new(
            programs
                .into_iter()
                .collect::<std::collections::VecDeque<_>>(),
        ));
        let results: Arc<Mutex<Vec<(TxnReport, bool)>>> = Arc::new(Mutex::new(Vec::new()));
        let sheds_before = self.transport.load_sheds();
        let start = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..threads.max(1) {
                let fed = Arc::clone(self);
                let queue = Arc::clone(&queue);
                let results = Arc::clone(&results);
                scope.spawn(move || loop {
                    let Some((program, intends_abort)) = queue.lock().pop_front() else {
                        return;
                    };
                    let mut attempts = 0;
                    loop {
                        attempts += 1;
                        match fed.run_transaction(&program) {
                            Ok(report) => {
                                let erroneous_abort =
                                    report.outcome == TxnOutcome::Aborted && !intends_abort;
                                let retry = (matches!(report.outcome, TxnOutcome::L1Rejected(_))
                                    || erroneous_abort)
                                    && attempts < 10;
                                results.lock().push((report, intends_abort));
                                if retry {
                                    continue;
                                }
                            }
                            Err(e) => panic!("federation error: {e}"),
                        }
                        break;
                    }
                });
            }
        });
        metrics.wall = start.elapsed();
        metrics.load_sheds = self.transport.load_sheds().saturating_sub(sheds_before);
        for (report, intends_abort) in results.lock().drain(..) {
            metrics.messages += report.messages;
            match report.outcome {
                TxnOutcome::Committed => {
                    metrics.committed += 1;
                    metrics.total_commit_latency += report.latency;
                    metrics.latency_us.record(report.latency.as_micros() as u64);
                    for h in &report.l0_holds {
                        metrics.total_l0_hold += *h;
                        metrics.l0_hold_count += 1;
                        metrics.l0_hold_us.record(h.as_micros() as u64);
                    }
                }
                TxnOutcome::Aborted => {
                    if intends_abort {
                        metrics.aborted_intended += 1;
                    } else {
                        metrics.aborted_erroneous += 1;
                    }
                }
                TxnOutcome::L1Rejected(_) => metrics.l1_rejections += 1,
            }
        }
        let comm = self.comm_stats();
        metrics.redo_runs = comm.redo_runs;
        metrics.undo_runs = comm.undo_runs;
        metrics.pre_vote_retries = comm.pre_vote_retries;
        let log = self.log_stats();
        metrics.log_forces = log.forces;
        metrics.log_bytes = log.stable_bytes;
        metrics.group_forces = log.group_forces;
        metrics.batched_commits = log.batched_commits;
        metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amc_net::marker::is_marker;
    use amc_verify::history::ConflictDefinition;

    fn site(n: u32) -> SiteId {
        SiteId::new(n)
    }
    fn obj(site_n: u32, idx: u64) -> ObjectId {
        // Mirror the workload naming scheme without depending on it.
        ObjectId::new(u64::from(site_n) * (1 << 32) + idx)
    }
    fn v(n: i64) -> Value {
        Value::counter(n)
    }

    fn loaded(protocol: ProtocolKind, sites: u32) -> Arc<Federation> {
        let fed = Federation::new(FederationConfig::uniform(sites, protocol));
        for s in 1..=sites {
            let data: Vec<(ObjectId, Value)> = (0..50).map(|i| (obj(s, i), v(100))).collect();
            fed.load_site(site(s), &data).unwrap();
        }
        Arc::new(fed)
    }

    fn transfer(from_site: u32, to_site: u32, amount: i64) -> BTreeMap<SiteId, Vec<Operation>> {
        BTreeMap::from([
            (
                site(from_site),
                vec![Operation::Increment {
                    obj: obj(from_site, 0),
                    delta: -amount,
                }],
            ),
            (
                site(to_site),
                vec![Operation::Increment {
                    obj: obj(to_site, 0),
                    delta: amount,
                }],
            ),
        ])
    }

    fn user_sum(fed: &Federation) -> i64 {
        fed.dumps()
            .unwrap()
            .values()
            .flat_map(|d| d.iter())
            .filter(|(o, _)| !is_marker(**o))
            .map(|(_, val)| val.counter)
            .sum()
    }

    #[test]
    fn all_protocols_commit_a_simple_transfer() {
        for protocol in ProtocolKind::ALL {
            let fed = loaded(protocol, 2);
            let report = fed.run_transaction(&transfer(1, 2, 30)).unwrap();
            assert_eq!(report.outcome, TxnOutcome::Committed, "{protocol}");
            let dumps = fed.dumps().unwrap();
            assert_eq!(dumps[&site(1)][&obj(1, 0)], v(70), "{protocol}");
            assert_eq!(dumps[&site(2)][&obj(2, 0)], v(130), "{protocol}");
            assert!(report.messages >= 4);
        }
    }

    #[test]
    fn intended_abort_leaves_no_net_effect_under_all_protocols() {
        for protocol in ProtocolKind::ALL {
            let fed = loaded(protocol, 2);
            let mut program = transfer(1, 2, 30);
            // Site 2's program additionally reads a missing object: the
            // transaction logic fails there.
            program.get_mut(&site(2)).unwrap().push(Operation::Read {
                obj: obj(2, 999_999),
            });
            let report = fed.run_transaction(&program).unwrap();
            assert_eq!(report.outcome, TxnOutcome::Aborted, "{protocol}");
            // Atomicity: no site shows any effect (commit-before undid
            // site 1 via the inverse transaction).
            assert_eq!(user_sum(&fed), 100 * 2 * 50, "{protocol}");
            let dumps = fed.dumps().unwrap();
            assert_eq!(dumps[&site(1)][&obj(1, 0)], v(100), "{protocol}");
        }
    }

    /// An in-process transport whose sites can be taken "down": calls to a
    /// down site fail like a dead TCP peer, while admin (used by
    /// `load_site`/`dumps`) keeps working so tests can observe state.
    struct FlakyTransport {
        inner: InProcessTransport,
        down: Mutex<std::collections::BTreeSet<SiteId>>,
        fail_finish_for: Mutex<Option<SiteId>>,
    }

    impl FederationTransport for FlakyTransport {
        fn sites(&self) -> Vec<SiteId> {
            self.inner.sites()
        }
        fn call(&self, site: SiteId, payload: Payload) -> AmcResult<Payload> {
            if self.down.lock().contains(&site) {
                return Err(AmcError::SiteDown(site));
            }
            let finish = matches!(
                payload,
                Payload::Decision { .. } | Payload::Redo { .. } | Payload::Undo { .. }
            );
            if finish && *self.fail_finish_for.lock() == Some(site) {
                return Err(AmcError::SiteDown(site));
            }
            self.inner.call(site, payload)
        }
        fn admin(&self, site: SiteId, request: AdminRequest) -> AmcResult<AdminReply> {
            self.inner.admin(site, request)
        }
    }

    fn flaky(protocol: ProtocolKind, sites: u32) -> (Arc<Federation>, Arc<FlakyTransport>) {
        flaky_with(FederationConfig::uniform(sites, protocol))
    }

    fn flaky_with(cfg: FederationConfig) -> (Arc<Federation>, Arc<FlakyTransport>) {
        let sites = cfg.site_count();
        let protocol = cfg.protocol;
        let managers: BTreeMap<SiteId, Arc<LocalCommManager>> = cfg
            .build_managers()
            .into_iter()
            .map(|m| (m.site(), m))
            .collect();
        let transport = Arc::new(FlakyTransport {
            inner: InProcessTransport::new(managers, submit_mode_for(protocol), cfg.message_delay),
            down: Mutex::new(Default::default()),
            fail_finish_for: Mutex::new(None),
        });
        let fed = Federation::with_transport(cfg, transport.clone());
        for s in 1..=sites {
            let data: Vec<(ObjectId, Value)> = (0..50).map(|i| (obj(s, i), v(100))).collect();
            fed.load_site(site(s), &data).unwrap();
        }
        (Arc::new(fed), transport)
    }

    #[test]
    fn down_site_during_votes_forces_abort_and_queues_an_obligation() {
        for protocol in ProtocolKind::ALL {
            let (fed, transport) = flaky(protocol, 2);
            transport.down.lock().insert(site(2));
            let report = fed.run_transaction(&transfer(1, 2, 30)).unwrap();
            assert_eq!(report.outcome, TxnOutcome::Aborted, "{protocol}");
            // The crashed voter is owed the abort it never heard.
            assert_eq!(fed.pending_obligations(), 1, "{protocol}");
            // While it stays down the obligation stays queued.
            assert_eq!(fed.resolve_pending().unwrap(), 0, "{protocol}");
            assert_eq!(fed.pending_obligations(), 1, "{protocol}");
            // Recovery: the site answers again, the abort lands, locks free.
            transport.down.lock().remove(&site(2));
            assert_eq!(fed.resolve_pending().unwrap(), 1, "{protocol}");
            assert_eq!(fed.pending_obligations(), 0, "{protocol}");
            assert_eq!(user_sum(&fed), 100 * 2 * 50, "{protocol}");
            // The released L1 locks admit new transactions on the same set.
            let report = fed.run_transaction(&transfer(1, 2, 30)).unwrap();
            assert_eq!(report.outcome, TxnOutcome::Committed, "{protocol}");
            assert_eq!(user_sum(&fed), 100 * 2 * 50, "{protocol}");
        }
    }

    #[test]
    fn down_site_during_finish_defers_the_decision_and_resolves_on_recovery() {
        for protocol in ProtocolKind::ALL {
            let (fed, transport) = flaky(protocol, 2);
            *transport.fail_finish_for.lock() = Some(site(2));
            let report = fed.run_transaction(&transfer(1, 2, 30)).unwrap();
            // Every vote was yes before the crash: the decision stands.
            assert_eq!(report.outcome, TxnOutcome::Committed, "{protocol}");
            let expect_pending = match protocol {
                // Commit-before's commit path sends no finish message to
                // make idempotent later — the site already committed at
                // submit, so the deferred ack (if any) still counts.
                ProtocolKind::CommitBefore => fed.pending_obligations(),
                _ => 1,
            };
            assert_eq!(fed.pending_obligations(), expect_pending, "{protocol}");
            *transport.fail_finish_for.lock() = None;
            fed.resolve_pending().unwrap();
            assert_eq!(fed.pending_obligations(), 0, "{protocol}");
            // Exactly-once: the transfer shows on both sides, once.
            let dumps = fed.dumps().unwrap();
            assert_eq!(dumps[&site(1)][&obj(1, 0)], v(70), "{protocol}");
            assert_eq!(dumps[&site(2)][&obj(2, 0)], v(130), "{protocol}");
            assert_eq!(user_sum(&fed), 100 * 2 * 50, "{protocol}");
        }
    }

    /// A 2PC federation with Paxos Commit: `acceptors` durable acceptors
    /// co-located with the first sites, logs under a per-test temp dir.
    fn paxos_loaded(sites: u32, acceptors: u32, tag: &str) -> Arc<Federation> {
        let dir = std::env::temp_dir().join(format!("amc-fed-paxos-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = FederationConfig::uniform(sites, ProtocolKind::TwoPhaseCommit)
            .with_paxos_commit(acceptors, &dir);
        let fed = Federation::new(cfg);
        for s in 1..=sites {
            let data: Vec<(ObjectId, Value)> = (0..50).map(|i| (obj(s, i), v(100))).collect();
            fed.load_site(site(s), &data).unwrap();
        }
        Arc::new(fed)
    }

    #[test]
    fn paxos_commit_happy_path_replicates_and_commits() {
        let fed = paxos_loaded(3, 3, "happy");
        let report = fed.run_transaction(&transfer(1, 2, 30)).unwrap();
        assert_eq!(report.outcome, TxnOutcome::Committed);
        let dumps = fed.dumps().unwrap();
        assert_eq!(dumps[&site(1)][&obj(1, 0)], v(70));
        assert_eq!(dumps[&site(2)][&obj(2, 0)], v(130));
        // Every acceptor — the participants' co-located ones (which saw
        // the Decision pass through) and the bystander at site 3 (which
        // got an explicit PaxosDecided) — holds the commit durably and
        // reports no open instances.
        let transport = fed.paxos_transport().unwrap();
        for a in 1..=3 {
            let host = transport.host(site(a)).unwrap();
            host.with_acceptor(|acc| {
                assert_eq!(
                    acc.state().decision(report.gtx),
                    Some(GlobalVerdict::Commit),
                    "acceptor {a}"
                );
                assert!(acc.state().open_entries().is_empty(), "acceptor {a}");
                assert!(acc.frame_count() > 0, "acceptor {a} must have logged");
            });
        }
        // The prepare votes of the two participants were accepted at a
        // majority at ballot 0, so the commit took the fast path — but it
        // still paid for registration and cross-replication.
        assert!(report.messages > 8, "{}", report.messages);
    }

    #[test]
    fn paxos_registration_minority_aborts_before_any_prepare() {
        // Acceptors at sites 1–3; two of them unreachable means the
        // instance set cannot be opened durably at a majority, and the
        // transaction (on the disjoint sites 4 and 5) aborts cleanly
        // before any site prepares.
        let fed = paxos_loaded(5, 3, "minority");
        let transport = fed.paxos_transport().unwrap();
        transport.set_down(site(2), true);
        transport.set_down(site(3), true);
        let report = fed.run_transaction(&transfer(4, 5, 30)).unwrap();
        assert_eq!(report.outcome, TxnOutcome::Aborted);
        transport.set_down(site(2), false);
        transport.set_down(site(3), false);
        assert_eq!(user_sum(&fed), 100 * 5 * 50);
        // With the acceptor majority back, the same program commits.
        let report = fed.run_transaction(&transfer(4, 5, 30)).unwrap();
        assert_eq!(report.outcome, TxnOutcome::Committed);
        assert_eq!(user_sum(&fed), 100 * 5 * 50);
    }

    #[test]
    fn standby_replica_aborts_a_partially_prepared_in_doubt_transaction() {
        // The incumbent dies right after replicating the FIRST prepare
        // vote: site 1 is prepared and in doubt, site 2 never saw a
        // prepare. A standby surveys the acceptors — instance 2 is free,
        // so presume-abort — and finishes the transaction itself.
        let fed = paxos_loaded(3, 3, "standby-abort");
        fed.inject_coordinator_crash_after_votes(1);
        let err = fed.run_transaction(&transfer(1, 2, 30)).unwrap_err();
        assert!(matches!(err, AmcError::InvalidState(_)), "{err}");
        let finished = fed.replica_driver(7).run_once().unwrap();
        assert_eq!(finished, vec![(GlobalTxnId::new(1), GlobalVerdict::Abort)]);
        assert_eq!(user_sum(&fed), 100 * 3 * 50);
        // Nothing stays wedged: the prepared site released its locks, so
        // the same accounts accept the next transfer.
        let report = fed.run_transaction(&transfer(1, 2, 30)).unwrap();
        assert_eq!(report.outcome, TxnOutcome::Committed);
        assert_eq!(user_sum(&fed), 100 * 3 * 50);
    }

    #[test]
    fn standby_replica_commits_a_fully_replicated_in_doubt_transaction() {
        // The incumbent dies after BOTH prepare votes were replicated:
        // every instance already chose Prepared at a majority, so the
        // standby must conclude commit — aborting here would contradict
        // the replicated decision.
        let fed = paxos_loaded(3, 3, "standby-commit");
        fed.inject_coordinator_crash_after_votes(2);
        let err = fed.run_transaction(&transfer(1, 2, 30)).unwrap_err();
        assert!(matches!(err, AmcError::InvalidState(_)), "{err}");
        let finished = fed.replica_driver(7).run_once().unwrap();
        assert_eq!(finished, vec![(GlobalTxnId::new(1), GlobalVerdict::Commit)]);
        // Exactly-once: the transfer shows on both sides, once.
        let dumps = fed.dumps().unwrap();
        assert_eq!(dumps[&site(1)][&obj(1, 0)], v(70));
        assert_eq!(dumps[&site(2)][&obj(2, 0)], v(130));
        assert_eq!(user_sum(&fed), 100 * 3 * 50);
        // And the group remembers: a second standby sweep finds nothing.
        assert!(fed.replica_driver(8).run_once().unwrap().is_empty());
    }

    fn fast_loaded(sites: u32) -> Arc<Federation> {
        let cfg = FederationConfig::uniform(sites, ProtocolKind::TwoPhaseCommit).with_fast_path();
        let fed = Federation::new(cfg);
        for s in 1..=sites {
            let data: Vec<(ObjectId, Value)> = (0..50).map(|i| (obj(s, i), v(100))).collect();
            fed.load_site(site(s), &data).unwrap();
        }
        Arc::new(fed)
    }

    #[test]
    fn fast_path_piggyback_saves_the_prepare_round() {
        let classic = loaded(ProtocolKind::TwoPhaseCommit, 2);
        let classic_report = classic.run_transaction(&transfer(1, 2, 30)).unwrap();
        let fast = fast_loaded(2);
        let fast_report = fast.run_transaction(&transfer(1, 2, 30)).unwrap();
        assert_eq!(fast_report.outcome, TxnOutcome::Committed);
        let dumps = fast.dumps().unwrap();
        assert_eq!(dumps[&site(1)][&obj(1, 0)], v(70));
        assert_eq!(dumps[&site(2)][&obj(2, 0)], v(130));
        // Classic 2PC: work + prepare + decision = 3 rounds × 2 sites × 2
        // legs = 12. Piggyback folds prepare into work: 8 — one round trip
        // per site saved.
        assert_eq!(classic_report.messages, 12);
        assert_eq!(fast_report.messages, 8);
    }

    #[test]
    fn fast_path_single_site_commits_with_no_global_round() {
        let classic = loaded(ProtocolKind::TwoPhaseCommit, 1);
        let program = BTreeMap::from([(
            site(1),
            vec![Operation::Increment {
                obj: obj(1, 0),
                delta: 5,
            }],
        )]);
        let classic_report = classic.run_transaction(&program).unwrap();
        let fast = fast_loaded(1);
        let report = fast.run_transaction(&program).unwrap();
        assert_eq!(report.outcome, TxnOutcome::Committed);
        assert_eq!(fast.dumps().unwrap()[&site(1)][&obj(1, 0)], v(105));
        // One exchange total: the combined dispatch and its vote-reply.
        assert_eq!(report.messages, 2);
        assert_eq!(classic_report.messages, 6);
    }

    #[test]
    fn fast_path_abort_vote_leaves_no_net_effect() {
        let fed = fast_loaded(2);
        let mut program = transfer(1, 2, 30);
        program.get_mut(&site(2)).unwrap().push(Operation::Read {
            obj: obj(2, 999_999),
        });
        let report = fed.run_transaction(&program).unwrap();
        assert_eq!(report.outcome, TxnOutcome::Aborted);
        // Site 1's piggybacked prepare must have seen the abort decision.
        assert_eq!(user_sum(&fed), 100 * 2 * 50);
        assert_eq!(fed.dumps().unwrap()[&site(1)][&obj(1, 0)], v(100));
    }

    #[test]
    fn fast_path_single_site_lost_reply_presumes_abort_and_owes_an_undo() {
        let cfg = FederationConfig::uniform(2, ProtocolKind::TwoPhaseCommit).with_fast_path();
        let (fed, transport) = flaky_with(cfg);
        transport.down.lock().insert(site(1));
        let program = BTreeMap::from([(
            site(1),
            vec![Operation::Increment {
                obj: obj(1, 0),
                delta: 5,
            }],
        )]);
        let report = fed.run_transaction(&program).unwrap();
        assert_eq!(report.outcome, TxnOutcome::Aborted);
        assert_eq!(fed.pending_obligations(), 1);
        // The site recovers; the undo obligation lands and the presumed
        // abort becomes fact (the site never committed, so the undo is a
        // no-op guarded by its journal).
        transport.down.lock().remove(&site(1));
        assert_eq!(fed.resolve_pending().unwrap(), 1);
        assert_eq!(user_sum(&fed), 100 * 2 * 50);
        // The same program now commits in one exchange.
        let report = fed.run_transaction(&program).unwrap();
        assert_eq!(report.outcome, TxnOutcome::Committed);
        assert_eq!(report.messages, 2);
        assert_eq!(fed.dumps().unwrap()[&site(1)][&obj(1, 0)], v(105));
    }

    #[test]
    fn fast_path_down_voter_forces_abort_and_the_prepared_site_learns_it() {
        let cfg = FederationConfig::uniform(2, ProtocolKind::TwoPhaseCommit).with_fast_path();
        let (fed, transport) = flaky_with(cfg);
        transport.down.lock().insert(site(2));
        let report = fed.run_transaction(&transfer(1, 2, 30)).unwrap();
        assert_eq!(report.outcome, TxnOutcome::Aborted);
        // Site 1 holds a piggybacked prepare and was told to abort in the
        // decision round; site 2 is owed the abort it never heard.
        assert_eq!(fed.pending_obligations(), 1);
        transport.down.lock().remove(&site(2));
        assert_eq!(fed.resolve_pending().unwrap(), 1);
        assert_eq!(user_sum(&fed), 100 * 2 * 50);
        let report = fed.run_transaction(&transfer(1, 2, 30)).unwrap();
        assert_eq!(report.outcome, TxnOutcome::Committed);
    }

    #[test]
    fn fast_path_concurrent_transfers_preserve_the_invariant() {
        let fed = fast_loaded(3);
        let programs: Vec<(BTreeMap<SiteId, Vec<Operation>>, bool)> = (0..60)
            .map(|i| {
                if i % 2 == 0 {
                    // Single-site: exercises the bypass under concurrency.
                    let s = 1 + (i % 3) as u32;
                    (
                        BTreeMap::from([(
                            site(s),
                            vec![Operation::Increment {
                                obj: obj(s, 1),
                                delta: 0,
                            }],
                        )]),
                        false,
                    )
                } else {
                    let a = 1 + (i % 3) as u32;
                    let b = 1 + ((i + 1) % 3) as u32;
                    (transfer(a, b, 1 + (i % 7) as i64), false)
                }
            })
            .collect();
        let metrics = fed.run_concurrent(programs, 4);
        assert_eq!(metrics.committed, 60, "{metrics:?}");
        assert_eq!(user_sum(&fed), 100 * 3 * 50);
        fed.history()
            .check_serializable(amc_verify::history::ConflictDefinition::Commutativity)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn commit_before_uses_fewest_messages_on_the_commit_path() {
        let mut counts = BTreeMap::new();
        for protocol in ProtocolKind::ALL {
            let fed = loaded(protocol, 2);
            let report = fed.run_transaction(&transfer(1, 2, 5)).unwrap();
            counts.insert(protocol.label(), report.messages);
        }
        // E4's shape: commit-before (4: 2×submit/vote) < commit-after (8)
        // < 2PC (12: work + prepare + decision rounds).
        assert!(counts["commit-before"] < counts["commit-after"]);
        assert!(counts["commit-after"] < counts["2pc"]);
    }

    #[test]
    fn concurrent_transfers_preserve_the_invariant() {
        for protocol in ProtocolKind::ALL {
            let fed = loaded(protocol, 3);
            let programs: Vec<(BTreeMap<SiteId, Vec<Operation>>, bool)> = (0..60)
                .map(|i| {
                    let a = 1 + (i % 3) as u32;
                    let b = 1 + ((i + 1) % 3) as u32;
                    (transfer(a, b, 1 + (i % 7) as i64), false)
                })
                .collect();
            let metrics = fed.run_concurrent(programs, 4);
            assert_eq!(metrics.committed, 60, "{protocol}: {metrics:?}");
            // Money conservation across the federation.
            assert_eq!(user_sum(&fed), 100 * 3 * 50, "{protocol}");
            // Oracle: conflict-serializable.
            fed.history()
                .check_serializable(ConflictDefinition::Commutativity)
                .unwrap_or_else(|e| panic!("{protocol}: {e}"));
        }
    }

    #[test]
    fn history_and_equivalence_oracle_pass_end_to_end() {
        let fed = loaded(ProtocolKind::CommitBefore, 2);
        let initial: BTreeMap<ObjectId, Value> = (1..=2u32)
            .flat_map(|s| (0..50).map(move |i| (obj(s, i), v(100))))
            .collect();
        let mut programs_by_gtx: BTreeMap<GlobalTxnId, Vec<Operation>> = BTreeMap::new();
        for i in 0..20 {
            let p = transfer(1, 2, i % 5);
            let report = fed.run_transaction(&p).unwrap();
            assert_eq!(report.outcome, TxnOutcome::Committed);
            let gtx = GlobalTxnId::new(i as u64 + 1);
            programs_by_gtx.insert(gtx, p.values().flatten().copied().collect());
        }
        let history = fed.history();
        let order = history
            .check_serializable(ConflictDefinition::Commutativity)
            .unwrap();
        let merged: BTreeMap<ObjectId, Value> = fed
            .dumps()
            .unwrap()
            .into_values()
            .flat_map(|d| d.into_iter())
            .collect();
        let divergences =
            amc_verify::check_state_equivalence(&initial, &order, &programs_by_gtx, &merged);
        assert!(divergences.is_empty(), "{divergences:?}");
    }

    #[test]
    fn fig8_interleaving_commits_under_commit_before_semantic_locks() {
        // Two global increments on the same objects, concurrently: must
        // both commit without L1 rejections under the semantic policy.
        let fed = loaded(ProtocolKind::CommitBefore, 2);
        let programs = vec![(transfer(1, 2, 3), false); 20];
        let metrics = fed.run_concurrent(programs, 8);
        assert_eq!(metrics.committed, 20);
        assert_eq!(metrics.l1_rejections, 0, "increments never conflict at L1");
    }

    #[test]
    fn run_concurrent_drains_programs_in_submission_order() {
        // Regression: the work queue was drained LIFO (`Vec::pop`), so the
        // last-submitted program ran first. With one worker thread the
        // execution order is exactly the drain order; make each program
        // overwrite the same object and require the *last submitted* write
        // to be the survivor.
        let fed = loaded(ProtocolKind::CommitBefore, 1);
        let n = 12i64;
        let programs: Vec<(BTreeMap<SiteId, Vec<Operation>>, bool)> = (0..n)
            .map(|i| {
                (
                    BTreeMap::from([(
                        site(1),
                        vec![Operation::Write {
                            obj: obj(1, 0),
                            value: v(1000 + i),
                        }],
                    )]),
                    false,
                )
            })
            .collect();
        let metrics = fed.run_concurrent(programs, 1);
        assert_eq!(metrics.committed, n as u64);
        assert_eq!(
            fed.dumps().unwrap()[&site(1)][&obj(1, 0)],
            v(1000 + n - 1),
            "FIFO: the last-submitted write must win"
        );
    }

    #[test]
    fn message_delay_applies_to_both_legs() {
        // Regression: only the request leg slept, so a transaction of n
        // modelled hops cost n/2 delays. Every hop must pay.
        let delay = Duration::from_millis(4);
        let mut cfg = FederationConfig::uniform(1, ProtocolKind::CommitBefore);
        cfg.message_delay = delay;
        let fed = Federation::new(cfg);
        fed.load_site(site(1), &[(obj(1, 0), v(100))]).unwrap();
        let report = fed
            .run_transaction(&BTreeMap::from([(
                site(1),
                vec![Operation::Increment {
                    obj: obj(1, 0),
                    delta: 1,
                }],
            )]))
            .unwrap();
        assert_eq!(report.outcome, TxnOutcome::Committed);
        assert!(
            report.latency >= delay * report.messages as u32,
            "latency {:?} must cover {} hops × {:?}",
            report.latency,
            report.messages,
            delay
        );
    }

    #[test]
    fn trace_respects_star_topology() {
        let fed = loaded(ProtocolKind::CommitAfter, 2);
        fed.run_transaction(&transfer(1, 2, 1)).unwrap();
        for entry in fed.trace().entries() {
            assert!(entry.envelope.respects_star_topology());
        }
    }

    #[test]
    #[should_panic(expected = "2PC cannot run")]
    fn two_pc_panics_on_heterogeneous_federation() {
        Federation::new(FederationConfig::heterogeneous(
            2,
            ProtocolKind::TwoPhaseCommit,
        ));
    }

    #[test]
    fn heterogeneous_federation_works_under_portable_protocols() {
        for protocol in [ProtocolKind::CommitAfter, ProtocolKind::CommitBefore] {
            let cfg = FederationConfig::heterogeneous(2, protocol);
            let fed = Federation::new(cfg);
            for s in 1..=2u32 {
                let data: Vec<(ObjectId, Value)> = (0..10).map(|i| (obj(s, i), v(100))).collect();
                fed.load_site(site(s), &data).unwrap();
            }
            let fed = Arc::new(fed);
            let report = fed.run_transaction(&transfer(1, 2, 9)).unwrap();
            assert_eq!(report.outcome, TxnOutcome::Committed, "{protocol}");
            let dumps = fed.dumps().unwrap();
            assert_eq!(dumps[&site(2)][&obj(2, 0)], v(109));
        }
    }
}
