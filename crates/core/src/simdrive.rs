//! The deterministic discrete-event federation runtime.
//!
//! Same managers, same engines, same [`crate::Coordinator`] —
//! but messages travel through the seeded [`amc_net::Router`] with latency
//! and loss, sites crash and restart on a [`amc_sim::FailurePlan`], and all
//! timing is virtual. This driver produces the golden message traces
//! (F2–F5), the crash/blocking experiment (E5) and exact message accounting
//! (E4).
//!
//! Modelling notes:
//!
//! * A local handler runs at message-delivery time; its reply is shipped
//!   after a fixed *service time* (engine work is modelled as instantaneous
//!   state change plus virtual delay — the protocols only care about
//!   ordering).
//! * The coordinator re-arms a retransmission timer per transaction until
//!   the protocol completes. Messages to a down site are dropped by the
//!   router; the timer is what eventually gets the protocol unstuck, which
//!   is exactly the paper's "the global transaction manager has to wait for
//!   the local system to come up again" (§3.3).
//! * This driver runs one simulation thread; it relies on workload design
//!   (not the L1 lock manager) to keep concurrent global transactions
//!   conflict-free, because a blocking L1 acquisition would stall the
//!   event loop. Contention experiments belong to the threaded
//!   [`Federation`](crate::Federation).

use crate::config::FederationConfig;
use crate::coordinator::{CoordAction, CoordEvent, Coordinator};
use crate::federation::submit_mode_for;
use amc_net::router::{NetStats, RouterConfig, Routing};
use amc_net::transport::dispatch_to_manager;
use amc_net::{Envelope, LocalCommManager, MessageTrace, Payload, Router};
use amc_obs::{EventKind, EventLog, ObsSink};
use amc_sim::{EventQueue, FailurePlan, FaultEvent, FaultKind, FaultPlan, LinkDir, SimRng};
use amc_types::{AmcError, GlobalTxnId, GlobalVerdict, Operation, SimDuration, SimTime, SiteId};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Federation to build.
    pub federation: FederationConfig,
    /// Network behaviour.
    pub router: RouterConfig,
    /// RNG seed (drives latency and loss).
    pub seed: u64,
    /// Crash/restart schedule (E5 legacy form; merged with `faults`).
    pub failures: FailurePlan,
    /// Composed nemesis schedule: crashes (optionally with torn WAL
    /// tails), link partitions, loss bursts.
    pub faults: FaultPlan,
    /// Local handler service time (per message).
    pub service_time: SimDuration,
    /// Coordinator retransmission period.
    pub retransmit_every: SimDuration,
    /// Hard stop for the virtual clock.
    pub horizon: SimDuration,
    /// **Chaos-harness knob, deliberately unsafe**: skip forcing global
    /// decisions to the central decision log. A central crash then forgets
    /// decided-commit transactions and presumed abort tears them apart —
    /// exactly the bug the chaos sweep + shrinker demo must catch. Never
    /// set outside tests.
    pub unsafe_skip_decision_log: bool,
    /// Retention bound for the structured event log (ring buffer; the
    /// oldest events are evicted past this). Events are stamped with the
    /// virtual clock, so equal seeds give bit-identical logs.
    pub event_cap: usize,
}

impl SimConfig {
    /// Sensible defaults over `federation`: 0.5 ms latency, 0.2 ms service
    /// time, 20 ms retransmit, 10 s horizon, no failures.
    pub fn new(mut federation: FederationConfig) -> Self {
        // The event loop is single-threaded: an engine lock wait blocks the
        // whole simulation, so make accidental conflicts fail fast instead
        // of stalling for the default 2 s.
        federation.tpl.lock_timeout = std::time::Duration::from_millis(50);
        SimConfig {
            federation,
            router: RouterConfig::default(),
            seed: 42,
            failures: FailurePlan::none(),
            faults: FaultPlan::none(),
            service_time: SimDuration::from_micros(200),
            retransmit_every: SimDuration::from_millis(20),
            horizon: SimDuration::from_millis(10_000),
            unsafe_skip_decision_log: false,
            event_cap: amc_obs::log::DEFAULT_EVENT_CAP,
        }
    }

    /// The legacy crash/restart schedule and the composed fault schedule
    /// merged into one time-ordered plan.
    fn merged_faults(&self) -> FaultPlan {
        let mut events = FaultPlan::from(&self.failures).events();
        events.extend(self.faults.events());
        FaultPlan::from_events(events)
    }
}

/// What one simulated run produced.
#[derive(Debug)]
pub struct SimReport {
    /// Verdict per global transaction (missing = unresolved at horizon).
    pub outcomes: BTreeMap<GlobalTxnId, GlobalVerdict>,
    /// Virtual start→done duration per transaction.
    pub resolution: BTreeMap<GlobalTxnId, SimDuration>,
    /// Every message that entered the network.
    pub trace: MessageTrace,
    /// Messages admitted / dropped by the router.
    pub sent: u64,
    /// Dropped by loss or down sites.
    pub dropped: u64,
    /// Full network accounting (supersets `sent`/`dropped`, which stay for
    /// compatibility): duplications and partition-caused drops included.
    pub net: NetStats,
    /// Coordinator timer firings that retransmitted something.
    pub retransmissions: u64,
    /// Transactions unresolved when the horizon hit.
    pub unresolved: Vec<GlobalTxnId>,
    /// Handler errors observed (site-down races are expected; anything
    /// else indicates a bug).
    pub errors: Vec<String>,
    /// Final virtual time.
    pub end_time: SimTime,
    /// Structured event log: every protocol transition, message fate,
    /// fault and recovery step, stamped with the virtual clock. Feed to
    /// [`EventLog::timeline`] / [`EventLog::derive`] for per-transaction
    /// explanations and histogram metrics.
    pub events: EventLog,
}

#[derive(Debug)]
enum Event {
    Deliver(Envelope),
    Fault(FaultEvent),
    Start(GlobalTxnId),
    Timer(GlobalTxnId),
}

struct TxnState {
    coordinator: Coordinator,
    done: bool,
}

/// The discrete-event federation.
pub struct SimFederation {
    cfg: SimConfig,
    managers: BTreeMap<SiteId, Arc<LocalCommManager>>,
    router: Router,
    queue: EventQueue<Event>,
    txns: BTreeMap<GlobalTxnId, TxnState>,
    programs: BTreeMap<GlobalTxnId, BTreeMap<SiteId, Vec<Operation>>>,
    trace: MessageTrace,
    retransmissions: u64,
    errors: Vec<String>,
    /// Central-system crash support. The central system is itself a
    /// database system (the paper's VODAK): its decisions are *forced to
    /// its own log* before any decision message leaves, so a restarted
    /// coordinator can resume finish rounds and presume abort for
    /// everything undecided.
    central_down: bool,
    central_log: BTreeMap<GlobalTxnId, GlobalVerdict>,
    central_log_forces: u64,
    start_times: BTreeMap<GlobalTxnId, SimTime>,
    completed: BTreeMap<GlobalTxnId, (GlobalVerdict, SimTime)>,
    /// Master observability sink: shared (via clone) with the router, the
    /// managers (and through them engines and WALs) and every coordinator.
    obs: ObsSink,
}

impl SimFederation {
    /// Build engines, managers, router and queue from `cfg`.
    pub fn new(cfg: SimConfig) -> Self {
        assert!(cfg.federation.is_runnable(), "unrunnable federation");
        cfg.failures.validate().expect("invalid failure plan");
        cfg.merged_faults().validate().expect("invalid fault plan");
        let obs = ObsSink::enabled(cfg.event_cap);
        let managers: BTreeMap<SiteId, Arc<LocalCommManager>> = cfg
            .federation
            .build_managers()
            .into_iter()
            .map(|mut m| {
                Arc::get_mut(&mut m)
                    .expect("freshly built manager is unshared")
                    .set_obs(obs.clone());
                (m.site(), m)
            })
            .collect();
        let mut rng = SimRng::new(cfg.seed);
        let mut router = Router::new(cfg.router.clone(), rng.fork());
        router.attach_obs(obs.clone());
        SimFederation {
            cfg,
            managers,
            router,
            queue: EventQueue::new(),
            txns: BTreeMap::new(),
            programs: BTreeMap::new(),
            trace: MessageTrace::new(),
            retransmissions: 0,
            errors: Vec::new(),
            central_down: false,
            central_log: BTreeMap::new(),
            central_log_forces: 0,
            start_times: BTreeMap::new(),
            completed: BTreeMap::new(),
            obs,
        }
    }

    /// Access a site's manager (setup: loading data).
    pub fn manager(&self, site: SiteId) -> &Arc<LocalCommManager> {
        &self.managers[&site]
    }

    /// Load initial data into a site.
    pub fn load_site(&self, site: SiteId, data: &[(amc_types::ObjectId, amc_types::Value)]) {
        self.managers[&site]
            .handle()
            .engine()
            .bulk_load(data)
            .expect("bulk load");
    }

    fn send(&mut self, from: SiteId, to: SiteId, payload: Payload) {
        let env = Envelope::new(from, to, payload);
        self.trace.record(self.queue.now(), env.clone());
        match self.router.route(&env) {
            Routing::Deliver(latency) => {
                self.queue.schedule_after(latency, Event::Deliver(env));
            }
            Routing::DeliverTwice(a, b) => {
                self.queue.schedule_after(a, Event::Deliver(env.clone()));
                self.queue.schedule_after(b, Event::Deliver(env));
            }
            Routing::Dropped => {}
        }
    }

    fn apply_actions(&mut self, gtx: GlobalTxnId, actions: Vec<CoordAction>) {
        for action in actions {
            match action {
                CoordAction::Send { site, payload } => {
                    self.send(SiteId::CENTRAL, site, payload);
                }
                CoordAction::Decided(v) => {
                    // Force the decision to the central log *before* the
                    // decision messages leave (they are queued behind this
                    // in `actions`, so the order is faithful). The unsafe
                    // chaos knob omits the force: a central crash then
                    // presumes abort for a decision other sites may already
                    // have applied — the atomicity bug the shrinker hunts.
                    if !self.cfg.unsafe_skip_decision_log {
                        self.central_log.insert(gtx, v);
                        self.central_log_forces += 1;
                    }
                }
                CoordAction::Done(v) => {
                    let now = self.queue.now();
                    self.completed.insert(gtx, (v, now));
                    if let Some(t) = self.txns.get_mut(&gtx) {
                        t.done = true;
                    }
                }
            }
        }
    }

    fn handle_at_site(&mut self, site: SiteId, payload: Payload) {
        let manager = Arc::clone(&self.managers[&site]);
        if !manager.handle().engine().is_up() {
            return; // crashed between routing and delivery
        }
        let mode = submit_mode_for(self.cfg.federation.protocol);
        match dispatch_to_manager(&manager, payload, mode) {
            Ok(reply) => {
                // Service time then network back to the central system.
                let service = self.cfg.service_time;
                let env = Envelope::new(site, SiteId::CENTRAL, reply);
                self.trace.record(self.queue.now(), env.clone());
                match self.router.route(&env) {
                    Routing::Deliver(latency) => {
                        self.queue
                            .schedule_after(service + latency, Event::Deliver(env));
                    }
                    Routing::DeliverTwice(a, b) => {
                        self.queue
                            .schedule_after(service + a, Event::Deliver(env.clone()));
                        self.queue.schedule_after(service + b, Event::Deliver(env));
                    }
                    Routing::Dropped => {}
                }
            }
            Err(AmcError::SiteDown(_)) => {} // crash race: timer will retry
            Err(e) => self.errors.push(format!("{site}: {e}")),
        }
    }

    fn handle_at_central(&mut self, payload: Payload, from: SiteId) {
        if self.central_down {
            return; // the coordinator is dead; retransmission will recover
        }
        let gtx = payload.gtx();
        let event = match payload {
            Payload::Vote { vote, .. } => CoordEvent::Vote { site: from, vote },
            Payload::Finished { .. } => CoordEvent::Finished { site: from },
            other => {
                self.errors.push(format!("central got {other}"));
                return;
            }
        };
        let actions = match self.txns.get_mut(&gtx) {
            Some(t) if !t.done => t.coordinator.on_event(event),
            _ => Vec::new(),
        };
        self.apply_actions(gtx, actions);
    }

    /// Central restart: resume every unfinished transaction from the
    /// durable decision log (presumed abort where no decision survived).
    fn resume_central(&mut self) {
        self.central_down = false;
        self.router.site_up(SiteId::CENTRAL);
        let unfinished: Vec<GlobalTxnId> = self
            .programs
            .keys()
            .filter(|g| !self.completed.contains_key(g) && self.start_times.contains_key(g))
            .copied()
            .collect();
        for gtx in unfinished {
            let program = self.programs[&gtx].clone();
            let logged = self.central_log.get(&gtx).copied();
            self.obs
                .emit(Some(gtx), SiteId::CENTRAL, EventKind::Resume { logged });
            let (mut coordinator, actions) =
                Coordinator::resume(gtx, self.cfg.federation.protocol, program, logged);
            coordinator.set_obs(self.obs.clone());
            let done = coordinator.is_done();
            self.txns.insert(gtx, TxnState { coordinator, done });
            self.apply_actions(gtx, actions);
            if !done {
                self.queue
                    .schedule_after(self.cfg.retransmit_every, Event::Timer(gtx));
            }
        }
    }

    /// Run `programs` (each starting at its given virtual time) to
    /// completion or horizon.
    pub fn run(
        mut self,
        programs: Vec<(SimDuration, BTreeMap<SiteId, Vec<Operation>>)>,
    ) -> SimReport {
        // Seed starts, failures.
        for (i, (at, program)) in programs.into_iter().enumerate() {
            let gtx = GlobalTxnId::new(i as u64 + 1);
            self.programs.insert(gtx, program);
            self.queue
                .schedule_at(SimTime::ZERO + at, Event::Start(gtx));
        }
        let mut pending_failures = 0u32;
        for ev in self.cfg.merged_faults().events() {
            self.queue.schedule_at(ev.at, Event::Fault(ev));
            pending_failures += 1;
        }

        let horizon = SimTime::ZERO + self.cfg.horizon;
        while let Some((at, event)) = self.queue.pop() {
            if at > horizon {
                break;
            }
            // Mirror the virtual clock into the sink so every emission —
            // including those from managers and engines that never see the
            // queue — carries the event's time.
            self.obs.set_now(at);
            match event {
                Event::Start(gtx) => {
                    if self.central_down {
                        // The client retries against a dead central system.
                        self.queue
                            .schedule_after(self.cfg.retransmit_every, Event::Start(gtx));
                        continue;
                    }
                    let program = self.programs[&gtx].clone();
                    self.obs
                        .emit(Some(gtx), SiteId::CENTRAL, EventKind::TxnStart);
                    let mut coordinator =
                        Coordinator::new(gtx, self.cfg.federation.protocol, program);
                    if self.cfg.federation.fast_path {
                        coordinator = coordinator.with_piggyback();
                    }
                    coordinator.set_obs(self.obs.clone());
                    let actions = coordinator.on_event(CoordEvent::Start);
                    self.start_times.insert(gtx, at);
                    self.txns.insert(
                        gtx,
                        TxnState {
                            coordinator,
                            done: false,
                        },
                    );
                    self.apply_actions(gtx, actions);
                    self.queue
                        .schedule_after(self.cfg.retransmit_every, Event::Timer(gtx));
                }
                Event::Timer(gtx) => {
                    if self.central_down {
                        continue; // timers die with the coordinator
                    }
                    let actions = match self.txns.get_mut(&gtx) {
                        Some(t) if !t.done => t.coordinator.on_event(CoordEvent::Timer),
                        _ => continue,
                    };
                    if !actions.is_empty() {
                        self.retransmissions += 1;
                    }
                    self.apply_actions(gtx, actions);
                    self.queue
                        .schedule_after(self.cfg.retransmit_every, Event::Timer(gtx));
                }
                Event::Deliver(env) => {
                    self.obs.emit(
                        Some(env.payload.gtx()),
                        env.to,
                        EventKind::MsgDeliver {
                            label: env.payload.label(),
                            from: env.from,
                        },
                    );
                    if env.to.is_central() {
                        self.handle_at_central(env.payload, env.from);
                    } else {
                        self.handle_at_site(env.to, env.payload);
                    }
                }
                Event::Fault(ev) => {
                    pending_failures -= 1;
                    match ev.kind {
                        FaultKind::Crash { torn } => self.obs.emit(
                            None,
                            ev.site,
                            EventKind::Crash {
                                torn: torn.is_some(),
                            },
                        ),
                        FaultKind::Restart => self.obs.emit(None, ev.site, EventKind::Restart),
                        _ => {}
                    }
                    match (ev.kind, ev.site.is_central()) {
                        (FaultKind::Crash { .. }, true) => {
                            // Central crash: volatile coordinator state is
                            // lost; the decision log survives. A torn local
                            // WAL tail has no analogue here — the decision
                            // log force is modelled as atomic.
                            self.central_down = true;
                            self.router.site_down(SiteId::CENTRAL);
                            self.txns.clear();
                        }
                        (FaultKind::Restart, true) => {
                            self.resume_central();
                        }
                        (FaultKind::Crash { torn }, false) => {
                            self.router.site_down(ev.site);
                            let manager = &self.managers[&ev.site];
                            match torn {
                                Some(t) => {
                                    manager.handle().engine().crash_partial(t.keep_frames, true)
                                }
                                None => manager.handle().engine().crash(),
                            }
                        }
                        (FaultKind::Restart, false) => {
                            self.router.site_up(ev.site);
                            if let Err(e) = self.managers[&ev.site].handle().engine().recover() {
                                self.errors.push(format!("recovery at {}: {e}", ev.site));
                            }
                        }
                        (FaultKind::PartitionStart { dir }, _) => match dir {
                            LinkDir::ToCentral => {
                                self.router.partition(ev.site, SiteId::CENTRAL);
                            }
                            LinkDir::FromCentral => {
                                self.router.partition(SiteId::CENTRAL, ev.site);
                            }
                            LinkDir::Both => {
                                self.router.partition_both(ev.site, SiteId::CENTRAL);
                            }
                        },
                        (FaultKind::PartitionHeal, _) => {
                            // Heal whatever direction(s) the start severed.
                            self.router.heal_both(ev.site, SiteId::CENTRAL);
                        }
                        (FaultKind::LossBurstStart { probability }, _) => {
                            self.router.set_loss_burst(probability);
                        }
                        (FaultKind::LossBurstEnd, _) => {
                            self.router.clear_loss_burst();
                        }
                        // The discrete-event runtime models one logical
                        // coordinator, so replica-crash lanes degenerate
                        // to a central outage: volatile state lost, the
                        // takeover resumes from the durable decision log
                        // exactly as a restarted central would. The
                        // replicated (threaded) runtime gives these events
                        // their full Paxos semantics.
                        (FaultKind::CoordinatorCrash { .. }, _) => {
                            self.central_down = true;
                            self.router.site_down(SiteId::CENTRAL);
                            self.txns.clear();
                        }
                        (FaultKind::CoordinatorTakeover { .. }, _) => {
                            self.resume_central();
                        }
                    }
                }
            }
            // Early exit: everything resolved — but only after every
            // scheduled failure has fired, so sites end the run recovered
            // (a dump of a crashed, unrecovered site would show stale
            // pages: committed work lives in its log until restart).
            if pending_failures == 0 && self.completed.len() == self.programs.len() {
                break;
            }
        }

        let net = self.router.stats();
        let mut outcomes = BTreeMap::new();
        let mut resolution = BTreeMap::new();
        let mut unresolved = Vec::new();
        for gtx in self.programs.keys() {
            match self.completed.get(gtx) {
                Some((v, done_at)) => {
                    outcomes.insert(*gtx, *v);
                    let started = self.start_times.get(gtx).copied().unwrap_or(SimTime::ZERO);
                    resolution.insert(*gtx, done_at.since(started));
                }
                None => unresolved.push(*gtx),
            }
        }
        SimReport {
            outcomes,
            resolution,
            trace: self.trace,
            sent: net.sent,
            dropped: net.dropped,
            net,
            retransmissions: self.retransmissions,
            unresolved,
            errors: self.errors,
            end_time: self.queue.now(),
            events: self.obs.snapshot(),
        }
    }

    /// Final committed state per site (post-run inspection is done through
    /// the report; this helper serves tests built around `run`).
    pub fn dumps(
        managers: &BTreeMap<SiteId, Arc<LocalCommManager>>,
    ) -> BTreeMap<SiteId, BTreeMap<amc_types::ObjectId, amc_types::Value>> {
        managers
            .iter()
            .map(|(s, m)| (*s, m.handle().engine().dump().expect("dump")))
            .collect()
    }

    /// Clone the manager map (so callers can inspect state after `run`
    /// consumed the federation).
    pub fn managers(&self) -> BTreeMap<SiteId, Arc<LocalCommManager>> {
        self.managers.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amc_types::{ObjectId, ProtocolKind, Value};

    fn site(n: u32) -> SiteId {
        SiteId::new(n)
    }
    fn obj(s: u32, i: u64) -> ObjectId {
        ObjectId::new(u64::from(s) * (1 << 32) + i)
    }

    fn transfer(a: u32, b: u32, amt: i64) -> BTreeMap<SiteId, Vec<Operation>> {
        BTreeMap::from([
            (
                site(a),
                vec![Operation::Increment {
                    obj: obj(a, 0),
                    delta: -amt,
                }],
            ),
            (
                site(b),
                vec![Operation::Increment {
                    obj: obj(b, 0),
                    delta: amt,
                }],
            ),
        ])
    }

    fn sim(protocol: ProtocolKind, failures: FailurePlan) -> SimFederation {
        let mut cfg = SimConfig::new(FederationConfig::uniform(2, protocol));
        cfg.failures = failures;
        let fed = SimFederation::new(cfg);
        for s in 1..=2u32 {
            let data: Vec<(ObjectId, Value)> =
                (0..10).map(|i| (obj(s, i), Value::counter(100))).collect();
            fed.load_site(site(s), &data);
        }
        fed
    }

    #[test]
    fn failure_free_run_commits_under_all_protocols() {
        for protocol in ProtocolKind::ALL {
            let fed = sim(protocol, FailurePlan::none());
            let managers = fed.managers();
            let report = fed.run(vec![(SimDuration::ZERO, transfer(1, 2, 30))]);
            assert!(report.errors.is_empty(), "{protocol}: {:?}", report.errors);
            assert_eq!(
                report.outcomes.get(&GlobalTxnId::new(1)),
                Some(&GlobalVerdict::Commit),
                "{protocol}"
            );
            assert!(report.unresolved.is_empty());
            let dumps = SimFederation::dumps(&managers);
            assert_eq!(
                dumps[&site(1)][&obj(1, 0)],
                Value::counter(70),
                "{protocol}"
            );
            assert_eq!(
                dumps[&site(2)][&obj(2, 0)],
                Value::counter(130),
                "{protocol}"
            );
        }
    }

    #[test]
    fn golden_trace_commit_before_matches_fig6_commit_path() {
        let fed = sim(ProtocolKind::CommitBefore, FailurePlan::none());
        let report = fed.run(vec![(SimDuration::ZERO, transfer(1, 2, 5))]);
        // §3.3 commit path: work ships, locals commit and report; the
        // coordinator needs no further messages ("does not need to start
        // further actions").
        assert_eq!(
            report.trace.labels_for(GlobalTxnId::new(1)),
            vec!["submit:0->1", "submit:0->2", "ready:1->0", "ready:2->0",]
        );
    }

    #[test]
    fn golden_trace_2pc_matches_fig2() {
        let fed = sim(ProtocolKind::TwoPhaseCommit, FailurePlan::none());
        let report = fed.run(vec![(SimDuration::ZERO, transfer(1, 2, 5))]);
        assert_eq!(
            report.trace.labels_for(GlobalTxnId::new(1)),
            vec![
                "submit:0->1",
                "submit:0->2",
                "ready:1->0",
                "ready:2->0",
                "prepare:0->1",
                "prepare:0->2",
                "ready:1->0",
                "ready:2->0",
                "commit:0->1",
                "commit:0->2",
                "finished:1->0",
                "finished:2->0",
            ]
        );
    }

    fn sim_fast(failures: FailurePlan) -> SimFederation {
        let mut cfg = SimConfig::new(
            FederationConfig::uniform(2, ProtocolKind::TwoPhaseCommit).with_fast_path(),
        );
        cfg.failures = failures;
        let fed = SimFederation::new(cfg);
        for s in 1..=2u32 {
            let data: Vec<(ObjectId, Value)> =
                (0..10).map(|i| (obj(s, i), Value::counter(100))).collect();
            fed.load_site(site(s), &data);
        }
        fed
    }

    #[test]
    fn golden_trace_fast_path_2pc_cuts_the_prepare_round() {
        // Vote piggyback: the submit carries PREPARE, so the work ack *is*
        // the vote — 8 messages instead of the classic 12 (fig. 2 minus the
        // explicit prepare round).
        let fed = sim_fast(FailurePlan::none());
        let managers = fed.managers();
        let report = fed.run(vec![(SimDuration::ZERO, transfer(1, 2, 5))]);
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        assert_eq!(
            report.trace.labels_for(GlobalTxnId::new(1)),
            vec![
                "submit-prepare:0->1",
                "submit-prepare:0->2",
                "ready:1->0",
                "ready:2->0",
                "commit:0->1",
                "commit:0->2",
                "finished:1->0",
                "finished:2->0",
            ]
        );
        let dumps = SimFederation::dumps(&managers);
        assert_eq!(dumps[&site(1)][&obj(1, 0)], Value::counter(95));
        assert_eq!(dumps[&site(2)][&obj(2, 0)], Value::counter(105));
    }

    #[test]
    fn fast_path_lost_vote_is_reinquired_with_classic_prepare() {
        // Site 2 applies the piggybacked op (prepare is durable) but its
        // READY is severed by a one-way partition. The coordinator's timer
        // re-inquires with a *classic* PREPARE, which the already-prepared
        // manager answers idempotently — commit, one RTT late.
        let mut cfg = SimConfig::new(
            FederationConfig::uniform(2, ProtocolKind::TwoPhaseCommit).with_fast_path(),
        );
        cfg.faults = FaultPlan::none().partition_window(
            site(2),
            SimTime(100),
            SimDuration::from_millis(30),
            LinkDir::ToCentral,
        );
        let fed = SimFederation::new(cfg);
        load(&fed);
        let managers = fed.managers();
        let report = fed.run(vec![(SimDuration::ZERO, transfer(1, 2, 30))]);
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        assert_eq!(
            report.outcomes.get(&GlobalTxnId::new(1)),
            Some(&GlobalVerdict::Commit),
            "unresolved: {:?}",
            report.unresolved
        );
        assert!(report.net.partitioned_drops > 0, "the partition never bit");
        assert!(report.retransmissions > 0, "the lost vote needed the timer");
        let labels = report.trace.labels_for(GlobalTxnId::new(1));
        assert!(
            labels.iter().any(|l| l == "prepare:0->2"),
            "re-inquiry must use the classic prepare: {labels:?}"
        );
        let dumps = SimFederation::dumps(&managers);
        assert_eq!(dumps[&site(1)][&obj(1, 0)], Value::counter(70));
        assert_eq!(dumps[&site(2)][&obj(2, 0)], Value::counter(130));
    }

    #[test]
    fn fast_path_runs_are_deterministic() {
        let run = || {
            let failures =
                FailurePlan::none().outage(site(2), SimTime(300), SimDuration::from_millis(10));
            let fed = sim_fast(failures);
            let report = fed.run(vec![
                (SimDuration::ZERO, transfer(1, 2, 3)),
                (SimDuration::from_millis(1), transfer(2, 1, 7)),
            ]);
            (
                report.outcomes,
                report.sent,
                report.dropped,
                report.end_time,
                report.trace.render(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn participant_crash_before_commit_aborts_commit_before_txn() {
        // Site 2 crashes just after the submit leaves the central system
        // but before executing it, and restarts later; §3.3: the answer to
        // the post-recovery inquiry is abort, and site 1 gets undone.
        let failures =
            FailurePlan::none().outage(site(2), SimTime(100), SimDuration::from_millis(50));
        let fed = sim(ProtocolKind::CommitBefore, failures);
        let managers = fed.managers();
        let report = fed.run(vec![(SimDuration::ZERO, transfer(1, 2, 30))]);
        assert_eq!(
            report.outcomes.get(&GlobalTxnId::new(1)),
            Some(&GlobalVerdict::Abort),
            "unresolved: {:?}, errors: {:?}",
            report.unresolved,
            report.errors
        );
        let dumps = SimFederation::dumps(&managers);
        // Undone at site 1, never applied at site 2.
        assert_eq!(dumps[&site(1)][&obj(1, 0)], Value::counter(100));
        assert_eq!(dumps[&site(2)][&obj(2, 0)], Value::counter(100));
        assert!(report.retransmissions > 0, "recovery needed the timer");
    }

    #[test]
    fn participant_crash_after_decision_still_commits_commit_after_txn() {
        // Crash site 2 *after* the votes are in (decision made) but while
        // the commit decision is in flight; the Redo retransmission must
        // finish the job after restart (§3.2).
        let failures = FailurePlan::none().outage(
            site(2),
            SimTime(1_200), // after both votes (~2×(500+200) ≈ 1400us)... tuned below
            SimDuration::from_millis(30),
        );
        let fed = sim(ProtocolKind::CommitAfter, failures);
        let managers = fed.managers();
        let report = fed.run(vec![(SimDuration::ZERO, transfer(1, 2, 30))]);
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        let outcome = report.outcomes.get(&GlobalTxnId::new(1)).copied();
        // Depending on where the crash lands relative to the votes the
        // transaction either commits (crash after decision, redo repairs)
        // or aborts (crash before site 2 voted). Both are atomic; neither
        // may leave a partial transfer.
        let dumps = SimFederation::dumps(&managers);
        let v1 = dumps[&site(1)][&obj(1, 0)].counter;
        let v2 = dumps[&site(2)][&obj(2, 0)].counter;
        match outcome {
            Some(GlobalVerdict::Commit) => {
                assert_eq!((v1, v2), (70, 130), "committed everywhere");
            }
            Some(GlobalVerdict::Abort) => {
                assert_eq!((v1, v2), (100, 100), "aborted everywhere");
            }
            None => panic!("unresolved: {:?}", report.unresolved),
        }
    }

    fn load(fed: &SimFederation) {
        for s in 1..=2u32 {
            let data: Vec<(ObjectId, Value)> =
                (0..10).map(|i| (obj(s, i), Value::counter(100))).collect();
            fed.load_site(site(s), &data);
        }
    }

    #[test]
    fn partition_window_delays_but_does_not_prevent_commit() {
        // Sever both directions of site 2's link mid-protocol while both
        // endpoints stay live; retransmission after the heal finishes the
        // job. This is the non-crash failure 2PC's blocking argument is
        // really about.
        let mut cfg = SimConfig::new(FederationConfig::uniform(2, ProtocolKind::TwoPhaseCommit));
        cfg.faults = FaultPlan::none().partition_window(
            site(2),
            SimTime(100),
            SimDuration::from_millis(30),
            LinkDir::Both,
        );
        let fed = SimFederation::new(cfg);
        load(&fed);
        let managers = fed.managers();
        let report = fed.run(vec![(SimDuration::ZERO, transfer(1, 2, 30))]);
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        assert_eq!(
            report.outcomes.get(&GlobalTxnId::new(1)),
            Some(&GlobalVerdict::Commit),
            "unresolved: {:?}",
            report.unresolved
        );
        assert!(report.net.partitioned_drops > 0, "the partition never bit");
        assert!(report.retransmissions > 0, "the heal needed the timer");
        let dumps = SimFederation::dumps(&managers);
        assert_eq!(dumps[&site(1)][&obj(1, 0)], Value::counter(70));
        assert_eq!(dumps[&site(2)][&obj(2, 0)], Value::counter(130));
    }

    #[test]
    fn torn_tail_crash_mid_txn_still_ends_atomic() {
        // Site 2 crashes mid-force while the transfer is in flight: one
        // tail frame becomes durable, the next lands torn. Restart recovery
        // truncates the tear, the protocol repairs, and whatever the
        // verdict is the transfer must be all-or-nothing.
        let mut cfg = SimConfig::new(FederationConfig::uniform(2, ProtocolKind::CommitAfter));
        cfg.faults = FaultPlan::none()
            .crash_torn(site(2), SimTime(800), 1)
            .restart(site(2), SimTime(30_000));
        let fed = SimFederation::new(cfg);
        load(&fed);
        let managers = fed.managers();
        let report = fed.run(vec![(SimDuration::ZERO, transfer(1, 2, 30))]);
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        let dumps = SimFederation::dumps(&managers);
        let v1 = dumps[&site(1)][&obj(1, 0)].counter;
        let v2 = dumps[&site(2)][&obj(2, 0)].counter;
        assert_eq!(v1 + v2, 200, "conservation violated: {v1} + {v2}");
        match report.outcomes.get(&GlobalTxnId::new(1)) {
            Some(GlobalVerdict::Commit) => assert_eq!((v1, v2), (70, 130)),
            Some(GlobalVerdict::Abort) => assert_eq!((v1, v2), (100, 100)),
            None => panic!("unresolved: {:?}", report.unresolved),
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            let failures =
                FailurePlan::none().outage(site(2), SimTime(300), SimDuration::from_millis(10));
            let fed = sim(ProtocolKind::CommitBefore, failures);
            let report = fed.run(vec![
                (SimDuration::ZERO, transfer(1, 2, 3)),
                (SimDuration::from_millis(1), transfer(2, 1, 7)),
            ]);
            (
                report.outcomes,
                report.sent,
                report.dropped,
                report.end_time,
                report.trace.render(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn message_counts_per_protocol_match_e4_shape() {
        let mut per_protocol = BTreeMap::new();
        for protocol in ProtocolKind::ALL {
            let fed = sim(protocol, FailurePlan::none());
            let report = fed.run(vec![(SimDuration::ZERO, transfer(1, 2, 1))]);
            per_protocol.insert(protocol.label(), report.sent);
        }
        assert_eq!(per_protocol["commit-before"], 4);
        assert_eq!(per_protocol["commit-after"], 8);
        assert_eq!(per_protocol["2pc"], 12);
    }
}
