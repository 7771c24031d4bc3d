//! End-to-end networked federation: the coordinator drives real site
//! servers over loopback TCP, through the framed codec and the
//! deadline/retry client — including a site restart mid-run.
//!
//! For each protocol: spawn one [`EventServer`] per site (ephemeral
//! loopback ports), run a mixed transfer workload through
//! `Federation::with_transport`, then kill one site's server, crash and
//! recover its engine, and respawn the server **in place on the same
//! port** — exactly what a restarted production process does, leaning on
//! the server's bind retry to ride out the old listener's TIME_WAIT. The
//! run must commit transactions both before and after the restart, the
//! client must log a reconnect, and the global sum must be conserved at
//! the end — the paper's atomicity guarantee surviving an actual socket
//! teardown, not a simulated one.

use amc::core::{Federation, FederationConfig, TxnOutcome};
use amc::engine::{LocalEngine, TplConfig, TwoPLEngine};
use amc::net::comm::EngineHandle;
use amc::net::transport::FederationTransport;
use amc::net::LocalCommManager;
use amc::obs::{EventKind, ObsSink};
use amc::rpc::{EventServer, RetryPolicy, TcpTransport};
use amc::types::{ObjectId, Operation, ProtocolKind, SiteId, Value};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SITES: u32 = 2;
const OBJS: u64 = 8;
const PER_OBJ: i64 = 100;

fn obj(site: u32, i: u64) -> ObjectId {
    ObjectId::new(u64::from(site) * (1 << 32) + i)
}

/// Test-speed deadlines: a dead site is declared down in well under a
/// second instead of the production policy's many seconds.
fn fast_policy() -> RetryPolicy {
    RetryPolicy {
        connect_timeout: Duration::from_millis(200),
        request_timeout: Duration::from_secs(2),
        max_attempts: 6,
        backoff_base: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(40),
    }
}

/// One site's independently owned stack: engine + manager, fronted by a
/// restartable TCP server.
struct Site {
    engine: Arc<TwoPLEngine>,
    manager: Arc<LocalCommManager>,
    server: Option<EventServer>,
}

struct Cluster {
    mode: amc::net::SubmitMode,
    sites: BTreeMap<SiteId, Site>,
    transport: Arc<TcpTransport>,
    obs: ObsSink,
}

impl Cluster {
    fn spawn(protocol: ProtocolKind) -> Cluster {
        let mode = amc::core::submit_mode_for(protocol);
        let obs = ObsSink::enabled(1 << 16);
        let mut sites = BTreeMap::new();
        let mut addrs = BTreeMap::new();
        for s in 1..=SITES {
            let site = SiteId::new(s);
            let cfg = TplConfig {
                lock_timeout: Duration::from_millis(200),
                deadlock_check: Duration::from_millis(1),
                ..TplConfig::default()
            };
            let engine = Arc::new(TwoPLEngine::new(cfg));
            let manager = Arc::new(LocalCommManager::new(
                site,
                EngineHandle::Preparable(Arc::clone(&engine) as _),
            ));
            let server = EventServer::spawn(
                site,
                Arc::clone(&manager),
                mode,
                "127.0.0.1:0",
                ObsSink::disabled(),
            )
            .expect("bind loopback");
            addrs.insert(site, server.addr());
            sites.insert(
                site,
                Site {
                    engine,
                    manager,
                    server: Some(server),
                },
            );
        }
        let transport = Arc::new(TcpTransport::new_mux(addrs, fast_policy(), obs.clone()));
        Cluster {
            mode,
            sites,
            transport,
            obs,
        }
    }

    /// Tear the site's server down (sockets die), crash + recover its
    /// engine, and bring a new server up **in place** — same port, so the
    /// transport needs no repointing. `EventServer::spawn` retries the
    /// bind through whatever TIME_WAIT the dead listener left behind.
    fn restart_site(&mut self, site: SiteId) {
        let entry = self.sites.get_mut(&site).expect("known site");
        let server = entry.server.take().expect("server running");
        let addr = server.addr();
        server.shutdown();
        entry.engine.crash();
        entry.engine.recover().expect("recovery");
        let server = EventServer::spawn(
            site,
            Arc::clone(&entry.manager),
            self.mode,
            &addr.to_string(),
            ObsSink::disabled(),
        )
        .expect("rebind loopback in place");
        assert_eq!(server.addr(), addr, "restart must reuse the same port");
        entry.server = Some(server);
    }
}

/// A two-site transfer program; `i` picks the objects and direction.
fn transfer(i: u64) -> BTreeMap<SiteId, Vec<Operation>> {
    let (from, to) = if i.is_multiple_of(2) {
        (1u32, 2u32)
    } else {
        (2, 1)
    };
    let amt = 1 + (i % 5) as i64;
    BTreeMap::from([
        (
            SiteId::new(from),
            vec![Operation::Increment {
                obj: obj(from, i % OBJS),
                delta: -amt,
            }],
        ),
        (
            SiteId::new(to),
            vec![Operation::Increment {
                obj: obj(to, (i + 3) % OBJS),
                delta: amt,
            }],
        ),
    ])
}

/// Run `n` transfers starting at `base`, retrying transport-level
/// failures (a restart in progress) a bounded number of times. Returns
/// how many committed.
fn drive(fed: &Arc<Federation>, base: u64, n: u64) -> u64 {
    let mut committed = 0;
    for i in base..base + n {
        let program = transfer(i);
        for attempt in 0..8 {
            match fed.run_transaction(&program) {
                Ok(report) => {
                    if report.outcome == TxnOutcome::Committed {
                        committed += 1;
                    }
                    break;
                }
                Err(_) if attempt < 7 => {
                    std::thread::sleep(Duration::from_millis(50));
                }
                Err(e) => panic!("transaction {i} never got through: {e}"),
            }
        }
    }
    committed
}

fn restart_run(protocol: ProtocolKind) {
    let mut cluster = Cluster::spawn(protocol);
    let cfg = FederationConfig::uniform(SITES, protocol);
    let fed = Arc::new(Federation::with_transport(
        cfg,
        Arc::clone(&cluster.transport) as Arc<dyn FederationTransport>,
    ));
    for s in 1..=SITES {
        let data: Vec<(ObjectId, Value)> = (0..OBJS)
            .map(|i| (obj(s, i), Value::counter(PER_OBJ)))
            .collect();
        fed.load_site(SiteId::new(s), &data).expect("load");
    }

    let before = drive(&fed, 0, 15);
    assert!(before > 0, "{protocol:?}: nothing committed before restart");

    cluster.restart_site(SiteId::new(2));

    let after = drive(&fed, 100, 15);
    assert!(after > 0, "{protocol:?}: nothing committed after restart");

    // The client must have survived the socket teardown by reconnecting.
    let log = cluster.obs.snapshot();
    let reconnected = log
        .events()
        .any(|e| matches!(e.kind, EventKind::RpcReconnect { to } if to == SiteId::new(2)));
    assert!(
        reconnected,
        "{protocol:?}: no rpc-reconnect event to the restarted site"
    );

    // Atomicity across the restart: transfers conserve the global sum.
    let dumps = fed.dumps().expect("dumps");
    let sum: i64 = dumps
        .values()
        .flat_map(|d| d.values())
        .map(|v| v.counter)
        .sum();
    assert_eq!(
        sum,
        i64::from(SITES) * OBJS as i64 * PER_OBJ,
        "{protocol:?}: global sum not conserved across restart"
    );
}

#[test]
fn two_phase_commit_survives_site_restart() {
    restart_run(ProtocolKind::TwoPhaseCommit);
}

#[test]
fn commit_after_survives_site_restart() {
    restart_run(ProtocolKind::CommitAfter);
}

#[test]
fn commit_before_survives_site_restart() {
    restart_run(ProtocolKind::CommitBefore);
}

/// Classic 2PC over one-page sites: every pair of transfers collides at
/// both sites. The coordinator sends each round one message at a time in
/// ascending site order, so every transaction locks site 1's page before
/// site 2's and no lock cycle can form across the two sites. Eight
/// concurrent clients must therefore commit every program without a
/// single attempt waiting out the L0 lock timeout. Sending a round's
/// submits in parallel instead lets one transaction lock site 2 while
/// another holds site 1; each then waits for the other, a cycle no local
/// deadlock detector sees, until the lock timeout aborts one of them.
#[test]
fn two_phase_commit_never_deadlocks_across_sites() {
    const CLIENTS: u64 = 8;
    const PER_CLIENT: u64 = 25;
    let protocol = ProtocolKind::TwoPhaseCommit;
    let mode = amc::core::submit_mode_for(protocol);
    let mut engines = Vec::new();
    let mut servers = Vec::new();
    let mut addrs = BTreeMap::new();
    for s in 1..=SITES {
        let site = SiteId::new(s);
        let engine = Arc::new(TwoPLEngine::new(TplConfig {
            buckets: 1,
            lock_timeout: Duration::from_millis(500),
            deadlock_check: Duration::from_millis(1),
            ..TplConfig::default()
        }));
        let manager = Arc::new(LocalCommManager::new(
            site,
            EngineHandle::Preparable(Arc::clone(&engine) as _),
        ));
        let server = EventServer::spawn(site, manager, mode, "127.0.0.1:0", ObsSink::disabled())
            .expect("bind loopback");
        addrs.insert(site, server.addr());
        engines.push(engine);
        servers.push(server);
    }
    // A request deadline far past the lock timeout: a lock wait shows up
    // as an abort vote, never as a resend.
    let policy = RetryPolicy {
        request_timeout: Duration::from_secs(10),
        ..fast_policy()
    };
    let transport = Arc::new(TcpTransport::new_mux(addrs, policy, ObsSink::disabled()));
    let fed = Arc::new(Federation::with_transport(
        FederationConfig::uniform(SITES, protocol),
        transport as Arc<dyn FederationTransport>,
    ));
    for s in 1..=SITES {
        let data: Vec<(ObjectId, Value)> = (0..OBJS)
            .map(|i| (obj(s, i), Value::counter(PER_OBJ)))
            .collect();
        fed.load_site(SiteId::new(s), &data).expect("load");
    }

    let started = Instant::now();
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let fed = Arc::clone(&fed);
            std::thread::spawn(move || {
                let mut committed = 0u64;
                for k in 0..PER_CLIENT {
                    let program = transfer(c * PER_CLIENT + k);
                    for _ in 0..10 {
                        let report = fed.run_transaction(&program).expect("transport up");
                        if report.outcome == TxnOutcome::Committed {
                            committed += 1;
                            break;
                        }
                    }
                }
                committed
            })
        })
        .collect();
    let committed: u64 = clients.into_iter().map(|h| h.join().unwrap()).sum();
    let elapsed = started.elapsed();

    // An engine aborts on its own only for a deadlock victim or a lock
    // timeout; whatever is not a victim timed out.
    let lock_timeouts: u64 = engines
        .iter()
        .map(|e| e.stats().erroneous_aborts - e.lock_stats().victims)
        .sum();
    assert_eq!(lock_timeouts, 0, "attempts aborted with LockTimeout");
    assert_eq!(committed, CLIENTS * PER_CLIENT, "every program must commit");
    assert!(
        elapsed < Duration::from_secs(60),
        "run stalled for {elapsed:?}"
    );
    let sum: i64 = fed
        .dumps()
        .expect("dumps")
        .values()
        .flat_map(|d| d.values())
        .map(|v| v.counter)
        .sum();
    assert_eq!(sum, i64::from(SITES) * OBJS as i64 * PER_OBJ, "sum drifted");
    drop(fed);
    for srv in servers {
        srv.shutdown();
    }
}
