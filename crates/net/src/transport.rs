//! The federation transport abstraction.
//!
//! The coordinator's view of a local system is two request/reply surfaces:
//! the *protocol* surface (submit / prepare / decision / redo / undo, each
//! answered with a vote or a finished ack) and a small *admin* surface
//! (load, dump, counters) that experiments and tests use around runs. A
//! [`FederationTransport`] carries both. Two implementations exist:
//!
//! * [`InProcessTransport`] — the historical runtime: the manager lives in
//!   the same address space and a "message" is a function call, with
//!   `message_delay` slept on each leg to model the wire;
//! * `TcpTransport` (in `amc-rpc`) — each site is a separate TCP server
//!   and messages really cross the OS socket layer, with deadlines,
//!   retries, and reconnects.
//!
//! Both speak the same [`Payload`] vocabulary, so the deterministic
//! simulator, the threaded in-process federation, and the networked
//! runtime share one message grammar.

use crate::comm::{CommStats, LocalCommManager, SubmitMode};
use crate::journal::RecoveryStats;
use crate::message::Payload;
use amc_types::{AmcError, AmcResult, ObjectId, SiteId, Value};
use amc_wal::LogStats;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// Out-of-band requests a driver sends to a site around protocol runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdminRequest {
    /// Liveness probe.
    Ping,
    /// Bulk-load initial data into the site's engine.
    Load(Vec<(ObjectId, Value)>),
    /// Dump the committed state (markers included).
    Dump,
    /// Fetch the communication-manager counters.
    CommStats,
    /// Fetch the engine's WAL counters.
    LogStats,
    /// Fetch the stats of the site's last restart recovery pass.
    Recovery,
    /// Ask the site's co-located Paxos acceptor for every registered
    /// transaction that has no durably noted decision. A recovery replica
    /// unions these across a majority of acceptors to find the in-doubt
    /// transactions it must finish.
    PaxosOpen,
}

/// One in-doubt transaction reported by an acceptor's durable log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PaxosOpenEntry {
    /// The registered transaction.
    pub gtx: amc_types::GlobalTxnId,
    /// Its participant sites (one Paxos instance each).
    pub participants: Vec<SiteId>,
}

/// Replies to [`AdminRequest`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdminReply {
    /// The site is alive.
    Pong,
    /// The load completed.
    Loaded,
    /// The committed state.
    Dump(BTreeMap<ObjectId, Value>),
    /// Communication-manager counters.
    CommStats(CommStats),
    /// WAL counters.
    LogStats(LogStats),
    /// Stats of the last restart recovery pass (None if this site process
    /// started fresh rather than recovering from durable state).
    Recovery(Option<RecoveryStats>),
    /// The acceptor's registered-but-undecided transactions.
    PaxosOpen(Vec<PaxosOpenEntry>),
}

/// A bidirectional request/reply channel from the central system to every
/// site of the federation.
pub trait FederationTransport: Send + Sync {
    /// The sites reachable through this transport, ascending.
    fn sites(&self) -> Vec<SiteId>;

    /// Send one protocol message to `to` and wait for its reply.
    fn call(&self, to: SiteId, payload: Payload) -> AmcResult<Payload>;

    /// Send one admin request to `to` and wait for its reply.
    fn admin(&self, to: SiteId, req: AdminRequest) -> AmcResult<AdminReply>;

    /// Whether concurrent [`FederationTransport::call`]s from different
    /// callers may overlap in flight on this transport (the networked
    /// transport multiplexes them over one connection per site; the
    /// in-process transport's modelled delays assume serial delivery).
    /// This describes the transport only: the coordinator always sends
    /// a transaction's messages one at a time, in ascending site order.
    /// Defaults to `false`.
    fn supports_pipelining(&self) -> bool {
        false
    }

    /// How many requests the sites answered with a load-shed
    /// (`BufferExhausted`) since this transport was created. The
    /// in-process transport never sheds; networked transports report
    /// their clients' counters so a run's backpressure is visible in the
    /// run-metric aggregates instead of being silently retried away.
    fn load_sheds(&self) -> u64 {
        0
    }
}

/// Run one protocol message against a local communication manager. This is
/// the single dispatch point shared by the in-process transport and the
/// TCP site server, so both runtimes interpret the vocabulary identically.
pub fn dispatch_to_manager(
    manager: &LocalCommManager,
    payload: Payload,
    mode: SubmitMode,
) -> AmcResult<Payload> {
    match payload {
        Payload::Submit { gtx, ops } => manager.handle_submit(gtx, ops, mode),
        Payload::SubmitPrepare { gtx, ops, solo } => {
            manager.handle_submit_prepare(gtx, ops, solo, mode)
        }
        Payload::Prepare { gtx } => manager.handle_prepare(gtx),
        Payload::Decision { gtx, verdict } => manager.handle_decision(gtx, verdict),
        Payload::Redo { gtx, ops } => manager.handle_redo(gtx, ops),
        Payload::Undo { gtx, inverse_ops } => manager.handle_undo(gtx, inverse_ops),
        Payload::Vote { .. } | Payload::Finished { .. } => {
            Err(AmcError::Protocol("central received its own reply".into()))
        }
        // Paxos messages address a site's co-located *acceptor*, not its
        // communication manager. Runtimes that host acceptors (the TCP
        // site server, the in-process acceptor decorator) intercept them
        // before this dispatch; reaching here means the site has none.
        Payload::PaxosRegister { .. }
        | Payload::PaxosP1a { .. }
        | Payload::PaxosP2a { .. }
        | Payload::PaxosDecided { .. } => {
            Err(AmcError::Protocol("site hosts no Paxos acceptor".into()))
        }
        Payload::PaxosAck { .. } | Payload::PaxosP1b { .. } | Payload::PaxosP2b { .. } => {
            Err(AmcError::Protocol("central received its own reply".into()))
        }
    }
}

/// Run one admin request against a local communication manager (shared by
/// the in-process transport and the TCP site server).
pub fn admin_to_manager(manager: &LocalCommManager, req: AdminRequest) -> AmcResult<AdminReply> {
    match req {
        AdminRequest::Ping => Ok(AdminReply::Pong),
        AdminRequest::Load(data) => {
            manager.handle().engine().bulk_load(&data)?;
            Ok(AdminReply::Loaded)
        }
        AdminRequest::Dump => Ok(AdminReply::Dump(manager.handle().engine().dump()?)),
        AdminRequest::CommStats => Ok(AdminReply::CommStats(manager.stats())),
        AdminRequest::LogStats => Ok(AdminReply::LogStats(manager.handle().engine().log_stats())),
        AdminRequest::Recovery => Ok(AdminReply::Recovery(manager.recovery_stats())),
        // As with the Paxos payloads above: answered by the acceptor host,
        // never by the bare communication manager.
        AdminRequest::PaxosOpen => Err(AmcError::Protocol("site hosts no Paxos acceptor".into())),
    }
}

/// The in-process transport: managers live in the same address space and a
/// message is a function call, with `message_delay` slept on each leg so a
/// `messages` count of *n* means *n* modelled hops.
pub struct InProcessTransport {
    managers: BTreeMap<SiteId, Arc<LocalCommManager>>,
    mode: SubmitMode,
    message_delay: Duration,
}

impl InProcessTransport {
    /// Wrap `managers`; protocol submits will use `mode`.
    pub fn new(
        managers: BTreeMap<SiteId, Arc<LocalCommManager>>,
        mode: SubmitMode,
        message_delay: Duration,
    ) -> Self {
        InProcessTransport {
            managers,
            mode,
            message_delay,
        }
    }

    fn manager(&self, site: SiteId) -> AmcResult<&Arc<LocalCommManager>> {
        self.managers.get(&site).ok_or(AmcError::SiteDown(site))
    }
}

impl FederationTransport for InProcessTransport {
    fn sites(&self) -> Vec<SiteId> {
        self.managers.keys().copied().collect()
    }

    fn call(&self, to: SiteId, payload: Payload) -> AmcResult<Payload> {
        let manager = self.manager(to)?;
        // Request leg.
        if !self.message_delay.is_zero() {
            std::thread::sleep(self.message_delay);
        }
        let reply = dispatch_to_manager(manager, payload, self.mode)?;
        // Reply leg: the model charges both directions of the exchange.
        if !self.message_delay.is_zero() {
            std::thread::sleep(self.message_delay);
        }
        Ok(reply)
    }

    fn admin(&self, to: SiteId, req: AdminRequest) -> AmcResult<AdminReply> {
        admin_to_manager(self.manager(to)?, req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::EngineHandle;
    use amc_engine::{TplConfig, TwoPLEngine};
    use amc_types::{GlobalTxnId, GlobalVerdict, Operation};

    fn transport(sites: u32) -> InProcessTransport {
        let managers = (1..=sites)
            .map(|s| {
                let site = SiteId::new(s);
                let engine = Arc::new(TwoPLEngine::new(TplConfig::default()));
                (
                    site,
                    Arc::new(LocalCommManager::new(
                        site,
                        EngineHandle::Preparable(engine),
                    )),
                )
            })
            .collect();
        InProcessTransport::new(managers, SubmitMode::CommitBefore, Duration::ZERO)
    }

    #[test]
    fn sites_are_ascending() {
        let t = transport(3);
        assert_eq!(
            t.sites(),
            vec![SiteId::new(1), SiteId::new(2), SiteId::new(3)]
        );
    }

    #[test]
    fn admin_load_then_dump_round_trips() {
        let t = transport(1);
        let site = SiteId::new(1);
        let data = vec![(ObjectId::new(7), Value::counter(42))];
        assert_eq!(
            t.admin(site, AdminRequest::Load(data)).unwrap(),
            AdminReply::Loaded
        );
        match t.admin(site, AdminRequest::Dump).unwrap() {
            AdminReply::Dump(d) => assert_eq!(d[&ObjectId::new(7)], Value::counter(42)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn call_runs_a_commit_before_submit_to_a_vote() {
        let t = transport(1);
        let site = SiteId::new(1);
        t.admin(
            site,
            AdminRequest::Load(vec![(ObjectId::new(1), Value::counter(10))]),
        )
        .unwrap();
        let gtx = GlobalTxnId::new(1);
        let reply = t
            .call(
                site,
                Payload::Submit {
                    gtx,
                    ops: vec![Operation::Increment {
                        obj: ObjectId::new(1),
                        delta: 5,
                    }],
                },
            )
            .unwrap();
        assert!(matches!(reply, Payload::Vote { vote, .. } if vote.is_yes()));
        let fin = t
            .call(
                site,
                Payload::Decision {
                    gtx,
                    verdict: GlobalVerdict::Commit,
                },
            )
            .unwrap();
        assert!(matches!(fin, Payload::Finished { .. }));
    }

    #[test]
    fn call_to_unknown_site_is_site_down() {
        let t = transport(1);
        let err = t
            .call(
                SiteId::new(9),
                Payload::Prepare {
                    gtx: GlobalTxnId::new(1),
                },
            )
            .unwrap_err();
        assert!(matches!(err, AmcError::SiteDown(s) if s == SiteId::new(9)));
    }

    #[test]
    fn reply_payloads_are_rejected_as_requests() {
        let t = transport(1);
        let err = t
            .call(
                SiteId::new(1),
                Payload::Finished {
                    gtx: GlobalTxnId::new(1),
                },
            )
            .unwrap_err();
        assert!(matches!(err, AmcError::Protocol(_)));
    }
}
