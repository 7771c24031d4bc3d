//! **E10 — the wire: loopback TCP vs in-process dispatch** (amc-rpc).
//!
//! Run the same mixed workload through the same coordinator against the
//! same engines, swapping only the [`FederationTransport`]: direct
//! in-process function calls vs the real framed codec over loopback TCP
//! (event-loop site servers, multiplexed deadline/retry client). Sweep
//! client concurrency and report committed-transaction throughput with
//! p50/p99 commit latency per protocol.
//!
//! The claimed shapes:
//!
//! * the wire costs real latency — every TCP p50 sits above its
//!   in-process twin (syscalls, framing, socket round trips per
//!   protocol message are not free);
//! * message complexity shows on the wire — 2PC's extra voting round
//!   buys it a higher TCP commit p50 than commit-before (the paper's
//!   protocol) at every client count, the E4 message-count ordering
//!   re-observed as socket round trips.

use crate::setup::program_batch;
use crate::table::{opt2, TextTable};
use amc_core::{submit_mode_for, Federation, FederationConfig};
use amc_engine::{TplConfig, TwoPLEngine};
use amc_mlt::ConflictPolicy;
use amc_net::comm::EngineHandle;
use amc_net::transport::{FederationTransport, InProcessTransport};
use amc_net::{LocalCommManager, SubmitMode};
use amc_obs::ObsSink;
use amc_rpc::{EventServer, RetryPolicy, TcpTransport};
use amc_types::{ProtocolKind, SiteId};
use amc_workload::{OpMix, WorkloadSpec};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// Which wire the coordinator speaks over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wire {
    /// Direct dispatch into the managers (the simulator's transport).
    InProcess,
    /// Framed codec over loopback TCP through `amc-rpc`.
    TcpLoopback,
}

impl Wire {
    /// Short label for the table.
    pub fn label(self) -> &'static str {
        match self {
            Wire::InProcess => "in-process",
            Wire::TcpLoopback => "tcp-loopback",
        }
    }

    /// A transport reaching `managers` over this wire, plus the site
    /// servers it talks to (none in-process). The servers must outlive
    /// the run; shut them down after dropping the federation.
    pub fn transport(
        self,
        managers: &BTreeMap<SiteId, Arc<LocalCommManager>>,
        mode: SubmitMode,
    ) -> (Arc<dyn FederationTransport>, Vec<EventServer>) {
        match self {
            Wire::InProcess => (
                Arc::new(InProcessTransport::new(
                    managers.clone(),
                    mode,
                    Duration::ZERO,
                )),
                Vec::new(),
            ),
            Wire::TcpLoopback => {
                let servers: Vec<EventServer> = managers
                    .iter()
                    .map(|(&site, manager)| {
                        EventServer::spawn(
                            site,
                            Arc::clone(manager),
                            mode,
                            "127.0.0.1:0",
                            ObsSink::disabled(),
                        )
                        .expect("bind loopback")
                    })
                    .collect();
                let addrs = servers.iter().map(|s| (s.site(), s.addr())).collect();
                let transport =
                    TcpTransport::new_mux(addrs, RetryPolicy::default(), ObsSink::disabled());
                (Arc::new(transport), servers)
            }
        }
    }
}

/// One measured point.
#[derive(Debug, Clone)]
pub struct Row {
    /// Client (driver thread) concurrency.
    pub clients: usize,
    /// Protocol under test.
    pub protocol: ProtocolKind,
    /// Transport under test.
    pub wire: Wire,
    /// Commits achieved.
    pub committed: u64,
    /// Committed txns per second.
    pub throughput: Option<f64>,
    /// Median commit latency, ms.
    pub p50_ms: Option<f64>,
    /// Tail commit latency, ms.
    pub p99_ms: Option<f64>,
}

/// Low contention, increment-heavy, 2-site transactions: the measured
/// cost is the message path, not lock queueing.
fn spec() -> WorkloadSpec {
    WorkloadSpec {
        sites: 3,
        objects_per_site: 64,
        zipf_theta: 0.0,
        ops_per_txn: 4,
        sites_per_txn: 2,
        mix: OpMix {
            write: 0.0,
            increment: 0.9,
            reserve: 0.0,
        },
        intended_abort_prob: 0.0,
    }
}

/// Engines with no modelled delays: real syscall + scheduling cost is the
/// thing E10 measures, so nothing synthetic is added on either wire.
fn managers(sites: u32) -> BTreeMap<SiteId, Arc<LocalCommManager>> {
    (1..=sites)
        .map(|s| {
            let site = SiteId::new(s);
            let cfg = TplConfig {
                lock_timeout: Duration::from_millis(100),
                deadlock_check: Duration::from_millis(1),
                ..TplConfig::default()
            };
            let engine = Arc::new(TwoPLEngine::new(cfg));
            (
                site,
                Arc::new(LocalCommManager::new(
                    site,
                    EngineHandle::Preparable(engine),
                )),
            )
        })
        .collect()
}

/// Run one (protocol, wire, clients) cell and return its row.
fn run_cell(protocol: ProtocolKind, wire: Wire, clients: usize, txns: usize) -> Row {
    let spec = spec();
    let mode = submit_mode_for(protocol);
    let managers = managers(spec.sites);

    let (transport, servers) = wire.transport(&managers, mode);

    let mut cfg = FederationConfig::uniform(spec.sites, protocol);
    cfg.policy = ConflictPolicy::Semantic;
    cfg.l1_timeout = Duration::from_millis(500);
    let mut fed = Federation::with_transport(cfg, transport);
    fed.set_recording(false, false);
    let fed = Arc::new(fed);
    for s in 1..=spec.sites {
        let site = SiteId::new(s);
        fed.load_site(site, &spec.initial_data(site)).expect("load");
    }

    let batch = program_batch(&spec, 10_000 + clients as u64, txns);
    let m = fed.run_concurrent(batch, clients);
    drop(fed);
    for srv in servers {
        srv.shutdown();
    }
    Row {
        clients,
        protocol,
        wire,
        committed: m.committed,
        throughput: m.throughput(),
        p50_ms: m.latency_p50_ms(),
        p99_ms: m.latency_p99_ms(),
    }
}

/// Run the sweep.
pub fn run(txns: usize, client_counts: &[usize]) -> Vec<Row> {
    let mut rows = Vec::new();
    for protocol in ProtocolKind::ALL {
        for wire in [Wire::InProcess, Wire::TcpLoopback] {
            for &clients in client_counts {
                rows.push(run_cell(protocol, wire, clients, txns));
            }
        }
    }
    rows
}

/// Render as the report table.
pub fn table(rows: &[Row]) -> TextTable {
    let mut t = TextTable::new(
        "E10 — the wire: loopback TCP (amc-rpc) vs in-process dispatch",
        &[
            "clients", "protocol", "wire", "commits", "txn/s", "p50 ms", "p99 ms",
        ],
    );
    for r in rows {
        t.row(vec![
            r.clients.to_string(),
            r.protocol.label().to_string(),
            r.wire.label().to_string(),
            r.committed.to_string(),
            opt2(r.throughput),
            opt2(r.p50_ms),
            opt2(r.p99_ms),
        ]);
    }
    t
}

// ----------------------------------------------- high concurrency --

/// One high-concurrency measurement.
#[derive(Debug, Clone)]
pub struct HcRow {
    /// Driver-thread concurrency.
    pub clients: usize,
    /// Commits achieved.
    pub committed: u64,
    /// Committed txns per second.
    pub throughput: Option<f64>,
    /// Median commit latency, ms.
    pub p50_ms: Option<f64>,
    /// Tail commit latency, ms.
    pub p99_ms: Option<f64>,
    /// Load-shed (`BufferExhausted`) replies the clients absorbed — the
    /// backpressure the event runtime applied past its in-flight cap.
    pub sheds: u64,
    /// Sheds per committed transaction.
    pub sheds_per_txn: Option<f64>,
    /// Peak server-side connections, summed across site servers.
    pub connections: u64,
    /// `connections` per available core — the "how many sockets does a
    /// core carry" figure the event loop exists to improve.
    pub conns_per_core: f64,
}

/// Run the high-concurrency cell: `clients` driver threads (the profile
/// pins `clients >= 200`) hammering commit-before (the paper's protocol,
/// the cheapest message path — the transport is the bottleneck under
/// test) over loopback TCP.
pub fn run_high_concurrency(txns: usize, clients: usize) -> HcRow {
    let protocol = ProtocolKind::CommitBefore;
    let spec = spec();
    let mode = submit_mode_for(protocol);
    let managers = managers(spec.sites);
    let (transport, servers) = Wire::TcpLoopback.transport(&managers, mode);

    let mut cfg = FederationConfig::uniform(spec.sites, protocol);
    cfg.policy = ConflictPolicy::Semantic;
    cfg.l1_timeout = Duration::from_millis(500);
    let mut fed = Federation::with_transport(cfg, transport);
    fed.set_recording(false, false);
    let fed = Arc::new(fed);
    for s in 1..=spec.sites {
        let site = SiteId::new(s);
        fed.load_site(site, &spec.initial_data(site)).expect("load");
    }

    let batch = program_batch(&spec, 20_000 + clients as u64, txns);
    let m = fed.run_concurrent(batch, clients);
    drop(fed);
    // The loop's connection high-water mark, read before teardown.
    let connections: u64 = servers.iter().map(|s| s.stats().peak_connections).sum();
    for srv in servers {
        srv.shutdown();
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1) as f64;
    HcRow {
        clients,
        committed: m.committed,
        throughput: m.throughput(),
        p50_ms: m.latency_p50_ms(),
        p99_ms: m.latency_p99_ms(),
        sheds: m.load_sheds,
        sheds_per_txn: m.sheds_per_commit(),
        connections,
        conns_per_core: connections as f64 / cores,
    }
}

/// Render the high-concurrency table.
pub fn hc_table(r: &HcRow) -> TextTable {
    let mut t = TextTable::new(
        "E10 — high concurrency: event-loop servers + mux client over loopback TCP",
        &[
            "clients",
            "commits",
            "txn/s",
            "p50 ms",
            "p99 ms",
            "shed/txn",
            "conns",
            "conns/core",
        ],
    );
    t.row(vec![
        r.clients.to_string(),
        r.committed.to_string(),
        opt2(r.throughput),
        opt2(r.p50_ms),
        opt2(r.p99_ms),
        opt2(r.sheds_per_txn),
        r.connections.to_string(),
        format!("{:.2}", r.conns_per_core),
    ]);
    t
}

/// Shape checks for the high-concurrency profile.
pub fn hc_verdicts(r: &HcRow) -> Vec<String> {
    vec![
        // E10-4: the stack serves hundreds of concurrent clients.
        format!(
            "[{}] E10-4: the event-loop+mux stack commits at >=200 concurrent clients ({} clients)",
            if r.clients >= 200 && r.committed > 0 {
                "PASS"
            } else {
                "FAIL"
            },
            r.clients,
        ),
        // E10-5: multiplexing bounds the connection count — one shared
        // connection per site, however many clients drive it.
        format!(
            "[{}] E10-5: event-loop+mux rides <=1 connection per site (mux {} for {} sites)",
            if r.connections <= u64::from(spec().sites) {
                "PASS"
            } else {
                "FAIL"
            },
            r.connections,
            spec().sites,
        ),
    ]
}

/// The shape checks for this experiment.
pub fn verdicts(rows: &[Row]) -> Vec<String> {
    let mut out = Vec::new();
    // E10-1: every cell commits — all three protocols complete the
    // workload over real sockets at every client count.
    let all_commit = rows.iter().all(|r| r.committed > 0);
    out.push(format!(
        "[{}] E10-1: every (protocol, wire, clients) cell commits transactions ({} cells)",
        if all_commit { "PASS" } else { "FAIL" },
        rows.len(),
    ));
    // E10-2: the wire costs latency — per (protocol, clients), TCP p50 is
    // at least the in-process p50.
    let mut pairs = 0;
    let mut costly = 0;
    for r in rows.iter().filter(|r| r.wire == Wire::TcpLoopback) {
        let twin = rows.iter().find(|q| {
            q.wire == Wire::InProcess && q.protocol == r.protocol && q.clients == r.clients
        });
        if let (Some(tcp), Some(inp)) = (r.p50_ms, twin.and_then(|q| q.p50_ms)) {
            pairs += 1;
            if tcp >= inp {
                costly += 1;
            }
        }
    }
    out.push(format!(
        "[{}] E10-2: tcp-loopback p50 >= in-process p50 in every pair ({costly}/{pairs})",
        if pairs > 0 && costly == pairs {
            "PASS"
        } else {
            "FAIL"
        },
    ));
    // E10-3: message complexity shows on the wire — at every client
    // count, 2PC's extra voting round costs it at least commit-before's
    // TCP p50 (E4's message ordering, re-observed as socket round trips).
    let p50 = |protocol: ProtocolKind, clients: usize| {
        rows.iter()
            .find(|r| r.wire == Wire::TcpLoopback && r.protocol == protocol && r.clients == clients)
            .and_then(|r| r.p50_ms)
    };
    let mut counts: Vec<usize> = rows
        .iter()
        .filter(|r| r.wire == Wire::TcpLoopback)
        .map(|r| r.clients)
        .collect();
    counts.sort_unstable();
    counts.dedup();
    let mut ordered = !counts.is_empty();
    let mut shown = Vec::new();
    for &c in &counts {
        match (
            p50(ProtocolKind::TwoPhaseCommit, c),
            p50(ProtocolKind::CommitBefore, c),
        ) {
            (Some(two_pc), Some(cb)) => {
                if two_pc < cb {
                    ordered = false;
                }
                shown.push(format!("{c}c {two_pc:.2}/{cb:.2}"));
            }
            _ => ordered = false,
        }
    }
    out.push(format!(
        "[{}] E10-3: tcp p50(2pc) >= tcp p50(commit-before) at every client count (2pc/cb ms: {})",
        if ordered { "PASS" } else { "FAIL" },
        shown.join(", "),
    ));
    out
}
