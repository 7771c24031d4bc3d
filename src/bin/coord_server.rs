//! `amc-coord-server` — one shard-slot coordinator as an independent TCP
//! server: the scale-out deployment's unit of commit capacity, and the
//! leading coordinator replica of a Paxos Commit deployment.
//!
//! ```text
//! amc-coord-server --slot 0 --coordinators 4 \
//!     --sites 127.0.0.1:7101,127.0.0.1:7102 --protocol 2pc \
//!     --listen 127.0.0.1:7201 [--acceptors 3 [--crash-after-votes 4]]
//! ```
//!
//! Site *i* (1-based) is the *i*-th address; every coordinator of a
//! deployment must list the **same fleet in the same order**. The
//! process embeds one [`Federation`] pinned to id-range slot `--slot` of
//! `--coordinators` (so the N coordinator processes mint disjoint
//! transaction ids with no coordination), fronts it with a
//! [`CoordServer`], and serves until killed. With `--listen host:0` the
//! kernel picks the port; the chosen address is printed as
//! `listening on <addr>` so an orchestrator can parse it.
//!
//! A driver (`amc-loadgen --coordinators`, or any [`CoordClient`]) routes
//! each transaction to the coordinator owning its minimum key and sends
//! the per-site operation buckets in one `Exec` frame.
//!
//! `--acceptors n` (2PC only) runs the commit through Paxos Commit: the
//! first `n` sites must have been started with `--acceptor-log`, and the
//! prepare votes and decisions are replicated to their acceptors, so a
//! standby replica can finish any transaction this process leaves in
//! doubt. A replacement for a dead coordinator takes a different
//! `--slot`, which gives it an id range its predecessor never used.
//!
//! `--crash-after-votes k` is the incumbent-crash hook for chaos drills:
//! right after the *k*-th prepare vote this process replicates (counted
//! from start), the coordinator "dies" inside that transaction. The
//! prepared sites stay in doubt, no decision is sent, and the `Exec` is
//! answered with an error naming the transaction. The harness then
//! delivers the real `kill -9`.
//!
//! [`CoordClient`]: amc_rpc::CoordClient
//! [`CoordServer`]: amc_rpc::CoordServer
//! [`Federation`]: amc_core::Federation

use amc_core::{Federation, FederationConfig};
use amc_net::transport::FederationTransport;
use amc_obs::ObsSink;
use amc_rpc::{CoordInfo, CoordServer, RetryPolicy, TcpTransport};
use amc_types::{ProtocolKind, SiteId};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: amc-coord-server --slot <k> --coordinators <n> \
         --sites <addr,addr,...> --protocol <2pc|commit-after|commit-before> \
         [--listen <host:port>] [--acceptors <n> [--crash-after-votes <k>]]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut slot = None;
    let mut coordinators = None;
    let mut addrs: Vec<SocketAddr> = Vec::new();
    let mut protocol = None;
    let mut listen = String::from("127.0.0.1:0");
    let mut acceptors = 0u32;
    let mut crash_after_votes = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--slot" => {
                i += 1;
                slot = args.get(i).and_then(|v| v.parse::<u32>().ok());
            }
            "--coordinators" => {
                i += 1;
                coordinators = args.get(i).and_then(|v| v.parse::<u32>().ok());
            }
            "--sites" => {
                i += 1;
                let list = args.get(i).unwrap_or_else(|| usage());
                addrs = list
                    .split(',')
                    .map(|a| a.parse().unwrap_or_else(|_| usage()))
                    .collect();
            }
            "--protocol" => {
                i += 1;
                protocol = match args.get(i).map(String::as_str) {
                    Some("2pc") => Some(ProtocolKind::TwoPhaseCommit),
                    Some("commit-after") => Some(ProtocolKind::CommitAfter),
                    Some("commit-before") => Some(ProtocolKind::CommitBefore),
                    _ => usage(),
                };
            }
            "--listen" => {
                i += 1;
                listen = args.get(i).cloned().unwrap_or_else(|| usage());
            }
            "--acceptors" => {
                i += 1;
                acceptors = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--crash-after-votes" => {
                i += 1;
                crash_after_votes = Some(
                    args.get(i)
                        .and_then(|v| v.parse::<u32>().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            _ => usage(),
        }
        i += 1;
    }
    let Some(slot) = slot else { usage() };
    let Some(coordinators) = coordinators else {
        usage()
    };
    let Some(protocol) = protocol else { usage() };
    if addrs.is_empty() || slot >= coordinators {
        usage();
    }
    let paxos = acceptors > 0;
    if paxos && (protocol != ProtocolKind::TwoPhaseCommit || acceptors as usize > addrs.len()) {
        usage();
    }
    if crash_after_votes.is_some() && !paxos {
        usage();
    }

    let sites = addrs.len() as u32;
    let addr_map: BTreeMap<SiteId, SocketAddr> = addrs
        .iter()
        .enumerate()
        .map(|(i, a)| (SiteId::new(i as u32 + 1), *a))
        .collect();
    let policy = RetryPolicy {
        connect_timeout: Duration::from_millis(500),
        request_timeout: Duration::from_secs(5),
        max_attempts: 6,
        backoff_base: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(50),
    };
    let transport = Arc::new(TcpTransport::new_mux(addr_map, policy, ObsSink::disabled()));
    let mut cfg = FederationConfig::uniform(sites, protocol).sharded(slot, coordinators);
    if paxos {
        // The acceptor logs live in the *site servers*; the log_dir only
        // matters for in-process deployments and stays unused over TCP.
        cfg = cfg.with_paxos_commit(
            acceptors,
            std::env::temp_dir().join("amc-coord-server-unused"),
        );
    }
    let mut fed = Federation::with_transport(cfg, transport as Arc<dyn FederationTransport>);
    fed.set_recording(false, false);
    if let Some(votes) = crash_after_votes {
        fed.inject_coordinator_crash_after_votes(votes);
    }
    let info = CoordInfo {
        slot,
        coordinators,
        epoch: 1,
        sites: (1..=sites).map(SiteId::new).collect(),
    };
    let server = match CoordServer::spawn(Arc::new(fed), info, &listen) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bind {listen}: {e}");
            std::process::exit(1);
        }
    };
    println!("coordinator slot {slot}/{coordinators}, {sites} sites, {protocol:?}");
    // Last line: an orchestrator may stop reading (and close the pipe)
    // once it has the address.
    println!("listening on {}", server.addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    // Serve until killed.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}
