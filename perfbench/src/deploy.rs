//! The four workloads and how each one's federation is stood up.
//!
//! Every lane runs with zero modelled delay. Durable lanes open their
//! sites through `SiteRecoveryManager` (real WAL and work-journal fsync in
//! the run directory); TCP lanes serve each site from an in-process
//! `EventServer` and reach it through `TcpTransport::new_mux` (one
//! connection per site). A traced deployment builds the same thing with
//! the engine and transport decorators of [`crate::trace`] inserted.

use crate::trace::{TracedEngine, TracedJournal, TracedTransport, Tracer};
use amc_core::{submit_mode_for, Federation, FederationConfig, PaxosCommitConfig};
use amc_engine::{TplConfig, TwoPLEngine};
use amc_net::transport::{FederationTransport, InProcessTransport};
use amc_net::{EngineHandle, LocalCommManager};
use amc_obs::ObsSink;
use amc_paxos::{AcceptorHost, AcceptorTransport};
use amc_rpc::{EventServer, FileWorkJournal, RetryPolicy, SiteRecoveryManager, TcpTransport};
use amc_types::{AmcError, AmcResult, ObjectId, ProtocolKind, SiteId, Value};
use amc_workload::{MixKind, MixSpec};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// One benchmark workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// `--workload` name.
    pub name: &'static str,
    /// Commit protocol.
    pub protocol: ProtocolKind,
    /// Program mix.
    pub mix: MixKind,
    /// Mix parameters (site count, key range, skew, abort dial, fan-out).
    pub spec: MixSpec,
    /// Sites keep a WAL and work journal on disk.
    pub durable: bool,
    /// Sites are reached over loopback TCP.
    pub tcp: bool,
    /// Paxos Commit acceptors at the first three sites.
    pub paxos: bool,
    /// Engine tuning: page-store buckets vs buffer-pool frames.
    pub tpl: TplConfig,
    /// Offered rates of the open-loop phases (`low`, `mid`, `high`), 1/s.
    pub rates: [f64; 3],
    /// Units every counter starts with, when not `MixSpec`'s default.
    pub stock: Option<i64>,
    /// Programs of the seeded stream skipped before the run's first one.
    pub skip: usize,
}

fn tpl(buckets: u32, pool_frames: usize) -> TplConfig {
    TplConfig {
        buckets,
        pool_frames,
        ..TplConfig::default()
    }
}

/// Every workload, in `BENCHMARK.json` order.
pub fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "tcp-2pc-transfer",
            protocol: ProtocolKind::TwoPhaseCommit,
            mix: MixKind::Transfer,
            spec: MixSpec {
                sites: 2,
                objects_per_site: 8192,
                theta: 0.0,
                intended_abort_prob: 0.0,
                max_fanout: 2,
            },
            durable: false,
            tcp: true,
            paxos: false,
            // One object per page, all pages resident: the L0 locks see
            // (almost) no conflicts. Two transfers whose pages collide at
            // both sites can deadlock across sites, because the pipelined
            // submit fan-out does not keep the ascending site order; at
            // 8192 pages per site that takes hours of running to occur.
            tpl: tpl(8192, 8192),
            rates: [150.0, 300.0, 450.0],
            stock: None,
            skip: 0,
        },
        Workload {
            name: "durable-cb-tpcc",
            protocol: ProtocolKind::CommitBefore,
            mix: MixKind::TpccLite,
            spec: MixSpec {
                sites: 2,
                objects_per_site: 512,
                theta: 0.9,
                intended_abort_prob: 0.05,
                max_fanout: 2,
            },
            durable: true,
            tcp: false,
            paxos: false,
            tpl: tpl(64, 128),
            rates: [100.0, 200.0, 300.0],
            // The mix's order-record write stores the generator's program
            // counter over a uniformly chosen counter, escrow stock
            // included. Starting the stream 50,000 programs in and every
            // counter at 1,000,000 units keeps every reserve within its
            // stock for a whole run, so no program fails on an empty bin.
            stock: Some(1_000_000),
            skip: 50_000,
        },
        Workload {
            name: "open-ca-readheavy",
            protocol: ProtocolKind::CommitAfter,
            mix: MixKind::ReadHeavy,
            spec: MixSpec {
                sites: 2,
                objects_per_site: 8192,
                theta: 0.8,
                intended_abort_prob: 0.0,
                max_fanout: 2,
            },
            durable: true,
            tcp: true,
            paxos: false,
            tpl: tpl(512, 64),
            rates: [100.0, 200.0, 300.0],
            stock: None,
            skip: 0,
        },
        Workload {
            name: "paxos-2pc-hotkey",
            protocol: ProtocolKind::TwoPhaseCommit,
            mix: MixKind::HotKey,
            spec: MixSpec {
                sites: 3,
                objects_per_site: 256,
                theta: 0.6,
                intended_abort_prob: 0.0,
                max_fanout: 2,
            },
            durable: false,
            tcp: false,
            paxos: true,
            tpl: tpl(64, 128),
            rates: [50.0, 100.0, 150.0],
            stock: None,
            skip: 0,
        },
    ]
}

/// A running federation plus everything it is built from.
pub struct Deployment {
    /// The coordinator.
    pub fed: Arc<Federation>,
    /// Site managers (all sites run in this process).
    pub managers: BTreeMap<SiteId, Arc<LocalCommManager>>,
    /// The raw engines, when the deployment built them itself (traced
    /// runs and in-memory lanes) — for lock, buffer and WAL counters.
    pub engines: BTreeMap<SiteId, Arc<TwoPLEngine>>,
    /// Paxos acceptor hosts' transport, for fsync and frame counters.
    pub acceptors: Option<Arc<AcceptorTransport<InProcessTransport>>>,
    /// The outermost transport the federation uses.
    pub transport: Arc<dyn FederationTransport>,
    /// Site servers of TCP lanes.
    pub servers: Vec<EventServer>,
    /// Where WALs, journals and acceptor logs live.
    pub dir: PathBuf,
}

impl Deployment {
    /// Stop the servers and drop every handle, closing the logs.
    pub fn shutdown(self) {
        let Deployment {
            fed,
            managers,
            engines,
            acceptors,
            transport,
            servers,
            ..
        } = self;
        drop(fed);
        drop(transport);
        drop(acceptors);
        for s in servers {
            s.shutdown();
        }
        drop(engines);
        drop(managers);
    }
}

/// Open one durable site the way `SiteRecoveryManager::open` does, but
/// with the engine and the work journal wrapped in their decorators.
fn open_traced_durable(
    srm: &SiteRecoveryManager,
    site: SiteId,
    cfg: TplConfig,
    tracer: &Arc<Tracer>,
) -> AmcResult<(Arc<LocalCommManager>, Arc<TwoPLEngine>)> {
    let (engine, _report) = TwoPLEngine::open_durable(cfg, site, srm.wal_path(site))?;
    let engine = Arc::new(engine);
    let (journal, entries) = FileWorkJournal::open(srm.journal_path(site))?;
    let traced = TracedEngine::new(Arc::clone(&engine), site, Arc::clone(tracer));
    let mut manager = LocalCommManager::new(site, EngineHandle::Preparable(Arc::new(traced)));
    let journal = TracedJournal::new(Box::new(journal), site, Arc::clone(tracer));
    manager.set_journal(Box::new(journal));
    let manager = Arc::new(manager);
    manager.restore_work(entries)?;
    Ok((manager, engine))
}

/// Stand up `w` in `dir` (created fresh) and bulk-load it. With a tracer,
/// the engine and transport decorators are inserted.
pub fn deploy(w: &Workload, dir: &Path, tracer: Option<&Arc<Tracer>>) -> AmcResult<Deployment> {
    std::fs::create_dir_all(dir)
        .map_err(|e| AmcError::TransientIo(format!("create {}: {e}", dir.display())))?;
    let mode = submit_mode_for(w.protocol);
    let mut managers = BTreeMap::new();
    let mut engines = BTreeMap::new();
    let srm = SiteRecoveryManager::new(dir);
    for s in 1..=w.spec.sites {
        let site = SiteId::new(s);
        let manager = match (w.durable, tracer) {
            (true, None) => srm.open(site, w.tpl.clone(), ObsSink::disabled())?.0,
            (true, Some(t)) => {
                let (m, e) = open_traced_durable(&srm, site, w.tpl.clone(), t)?;
                engines.insert(site, e);
                m
            }
            (false, _) => {
                let engine = Arc::new(TwoPLEngine::new_at(w.tpl.clone(), site));
                engines.insert(site, Arc::clone(&engine));
                let handle: Arc<dyn amc_engine::PreparableEngine> = match tracer {
                    Some(t) => Arc::new(TracedEngine::new(engine, site, Arc::clone(t))),
                    None => engine,
                };
                Arc::new(LocalCommManager::new(
                    site,
                    EngineHandle::Preparable(handle),
                ))
            }
        };
        managers.insert(site, manager);
    }

    let mut servers = Vec::new();
    let mut acceptors = None;
    let inner: Arc<dyn FederationTransport> = if w.tcp {
        let mut addrs = BTreeMap::new();
        for (&site, m) in &managers {
            let srv = EventServer::spawn(
                site,
                Arc::clone(m),
                mode,
                "127.0.0.1:0",
                ObsSink::disabled(),
            )
            .map_err(|e| AmcError::TransientIo(format!("spawn site {site}: {e}")))?;
            addrs.insert(site, srv.addr());
            servers.push(srv);
        }
        Arc::new(TcpTransport::new_mux(
            addrs,
            RetryPolicy::default(),
            ObsSink::disabled(),
        ))
    } else {
        let local = InProcessTransport::new(managers.clone(), mode, Duration::ZERO);
        if w.paxos {
            // The same construction `Federation::new` performs for a Paxos
            // configuration: one durable acceptor per hosting site, mounted
            // by decorating the in-process transport.
            let mut hosts = BTreeMap::new();
            for s in 1..=3 {
                let site = SiteId::new(s);
                let path = dir.join(format!("acceptor-{s}.log"));
                hosts.insert(site, AcceptorHost::open(site, path)?);
            }
            let px = Arc::new(AcceptorTransport::new(local, hosts));
            acceptors = Some(Arc::clone(&px));
            px
        } else {
            Arc::new(local)
        }
    };
    let transport: Arc<dyn FederationTransport> = match tracer {
        Some(t) => Arc::new(TracedTransport::new(inner, Arc::clone(t), managers.clone())),
        None => inner,
    };

    let mut cfg = FederationConfig::uniform(w.spec.sites, w.protocol);
    if w.paxos {
        let group = (1..=3).map(SiteId::new).collect();
        cfg.paxos = Some(PaxosCommitConfig::new(group, dir));
    }
    let mut fed = Federation::with_transport(cfg, Arc::clone(&transport));
    fed.set_recording(false, false);
    for s in 1..=w.spec.sites {
        let site = SiteId::new(s);
        let mut data = w.spec.initial_data(site);
        if let Some(units) = w.stock {
            data.iter_mut()
                .for_each(|(_, v)| *v = Value::counter(units));
        }
        fed.load_site(site, &data)?;
    }
    Ok(Deployment {
        fed: Arc::new(fed),
        managers,
        engines,
        acceptors,
        transport,
        servers,
        dir: dir.to_path_buf(),
    })
}

/// Every site's committed state after the run, markers included.
pub type Dumps = BTreeMap<SiteId, BTreeMap<ObjectId, Value>>;

/// Reopen every durable site of `w` from `dir` through
/// `SiteRecoveryManager::open` and return the recovered dumps.
pub fn reopen(w: &Workload, dir: &Path) -> AmcResult<Dumps> {
    let srm = SiteRecoveryManager::new(dir);
    let mut out = BTreeMap::new();
    for s in 1..=w.spec.sites {
        let site = SiteId::new(s);
        let (m, _) = srm.open(site, w.tpl.clone(), ObsSink::disabled())?;
        out.insert(site, m.handle().engine().dump()?);
    }
    Ok(out)
}
