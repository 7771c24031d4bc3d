//! `amc-paxos-coord` — the *incumbent coordinator replica* of a Paxos
//! Commit deployment, as its own killable OS process.
//!
//! ```text
//! amc-paxos-coord --sites 127.0.0.1:7101,127.0.0.1:7102,127.0.0.1:7103 \
//!     --acceptors 3 --txns 20 [--crash-at-txn 9 --crash-after-votes 2]
//! ```
//!
//! Site *i* (1-based) is the *i*-th address; the first `--acceptors`
//! sites must have been started with `--acceptor-log` so the replicated
//! prepare/decision state lands in their durable acceptor logs. The
//! process loads initial counters (unless `--no-load`), then drives
//! `--txns` sequential cross-site transfers, printing one `txn <i>
//! <outcome>` line each.
//!
//! With `--crash-at-txn j --crash-after-votes k` the incumbent "dies"
//! mid-transaction *j*: after the *k*-th prepare vote has been
//! replicated to the acceptor group — prepared sites wedged in doubt,
//! decision never sent — it prints `in-doubt gtx=<n>` and parks
//! forever. The chaos harness then delivers the real `kill -9` and a
//! standby replica finishes the transaction from the acceptor logs.

use amc_core::{Federation, FederationConfig, TxnOutcome};
use amc_net::transport::FederationTransport;
use amc_obs::ObsSink;
use amc_rpc::{RetryPolicy, TcpTransport};
use amc_types::{ObjectId, Operation, ProtocolKind, SiteId, Value};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: amc-paxos-coord --sites <addr,addr,...> --acceptors <n> \
         [--txns <n>] [--objects <n>] [--no-load] [--first-gtx <n>] \
         [--crash-at-txn <i> --crash-after-votes <k>]"
    );
    std::process::exit(2);
}

fn obj(site: u32, idx: u64) -> ObjectId {
    ObjectId::new(u64::from(site) * (1 << 32) + idx)
}

/// Transfer `i`: site pair and object pair cycle deterministically so the
/// harness can reconstruct the expected books from the printed outcomes.
fn transfer(i: u64, sites: u32, objects: u64) -> BTreeMap<SiteId, Vec<Operation>> {
    let from = 1 + (i % u64::from(sites)) as u32;
    let to = 1 + (from % sites);
    let amt = 1 + (i % 5) as i64;
    BTreeMap::from([
        (
            SiteId::new(from),
            vec![Operation::Increment {
                obj: obj(from, i % objects),
                delta: -amt,
            }],
        ),
        (
            SiteId::new(to),
            vec![Operation::Increment {
                obj: obj(to, (i + 3) % objects),
                delta: amt,
            }],
        ),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addrs: Vec<SocketAddr> = Vec::new();
    let mut acceptors = 0u32;
    let mut txns = 20u64;
    let mut objects = 8u64;
    let mut load = true;
    let mut first_gtx = 1u64;
    let mut crash_at_txn: Option<u64> = None;
    let mut crash_after_votes = 1u32;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--sites" => {
                i += 1;
                let list = args.get(i).unwrap_or_else(|| usage());
                addrs = list
                    .split(',')
                    .map(|a| a.parse().unwrap_or_else(|_| usage()))
                    .collect();
            }
            "--acceptors" => {
                i += 1;
                acceptors = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--txns" => {
                i += 1;
                txns = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--objects" => {
                i += 1;
                objects = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--no-load" => load = false,
            "--first-gtx" => {
                i += 1;
                first_gtx = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--crash-at-txn" => {
                i += 1;
                crash_at_txn = args.get(i).and_then(|v| v.parse().ok());
                if crash_at_txn.is_none() {
                    usage();
                }
            }
            "--crash-after-votes" => {
                i += 1;
                crash_after_votes = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            _ => usage(),
        }
        i += 1;
    }
    if addrs.is_empty() || acceptors == 0 || acceptors as usize > addrs.len() {
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
    // The acceptor logs live in the *site servers*; the log_dir here only
    // matters for in-process deployments and stays unused over TCP.
    let cfg = FederationConfig::uniform(sites, ProtocolKind::TwoPhaseCommit).with_paxos_commit(
        acceptors,
        std::env::temp_dir().join("amc-paxos-coord-unused"),
    );
    let fed = Federation::with_transport(cfg, transport as Arc<dyn FederationTransport>);
    fed.set_first_gtx(first_gtx);

    if load {
        for s in 1..=sites {
            let data: Vec<(ObjectId, Value)> = (0..objects)
                .map(|i| (obj(s, i), Value::counter(100)))
                .collect();
            if let Err(e) = fed.load_site(SiteId::new(s), &data) {
                eprintln!("load site {s}: {e}");
                std::process::exit(1);
            }
        }
        println!("loaded {sites} sites x {objects} objects");
    }

    let (mut committed, mut aborted) = (0u64, 0u64);
    for i in 0..txns {
        if crash_at_txn == Some(i) {
            fed.inject_coordinator_crash_after_votes(crash_after_votes);
        }
        match fed.run_transaction(&transfer(i, sites, objects)) {
            Ok(report) => {
                match report.outcome {
                    TxnOutcome::Committed => committed += 1,
                    _ => aborted += 1,
                }
                println!("txn {i} {:?}", report.outcome);
            }
            Err(e) if crash_at_txn == Some(i) => {
                // The injected death: the transaction is in doubt at the
                // acceptor group and this replica will never decide it.
                // Park (don't exit) so the harness's kill -9 is what
                // actually ends the incumbent — no destructors, no
                // good-byes, exactly like a real crash.
                println!("in-doubt gtx={} ({e})", first_gtx + i);
                use std::io::Write as _;
                let _ = std::io::stdout().flush();
                loop {
                    std::thread::sleep(Duration::from_secs(3600));
                }
            }
            Err(e) => {
                eprintln!("txn {i}: {e}");
                std::process::exit(1);
            }
        }
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
    }
    println!("done committed={committed} aborted={aborted}");
    std::process::exit(if committed > 0 { 0 } else { 1 });
}
