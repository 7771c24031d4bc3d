//! `amc-site-server` — one local system as an independent TCP server.
//!
//! ```text
//! amc-site-server --site 1 --listen 127.0.0.1:7101 --protocol commit-before
//! ```
//!
//! The server owns its engine + WAL and serves protocol and admin frames
//! until killed. It starts empty; the load generator (or any driver)
//! pushes initial data through the admin `Load` request. With `--listen
//! host:0` the kernel picks the port; the chosen address is printed as
//! `listening on <addr>` so an orchestrator can parse it.
//!
//! With `--wal-dir <dir>` the engine WAL and the communication manager's
//! work journal are persisted to `<dir>/site-N.wal` / `<dir>/site-N.jrn`,
//! and startup becomes a recovery pass: committed state is replayed,
//! losers are rolled back, and in-doubt transactions are resurrected to
//! await the coordinator's final state. A `recovered <summary>` line is
//! printed after the replay. Without the flag the site is purely
//! in-memory, as before.

use amc_engine::{TplConfig, TwoPLEngine};
use amc_net::comm::EngineHandle;
use amc_net::{LocalCommManager, SubmitMode};
use amc_obs::ObsSink;
use amc_paxos::AcceptorHost;
use amc_rpc::{EventServer, SiteRecoveryManager};
use amc_types::SiteId;
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: amc-site-server --site <n> --listen <host:port> \
         --protocol <2pc|commit-after|commit-before> [--lock-timeout-ms <ms>] \
         [--wal-dir <dir>] [--acceptor-log <path>]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut site = None;
    let mut listen = String::from("127.0.0.1:0");
    let mut mode = None;
    let mut lock_timeout = Duration::from_millis(500);
    let mut wal_dir: Option<String> = None;
    let mut acceptor_log: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--site" => {
                i += 1;
                site = args.get(i).and_then(|v| v.parse::<u32>().ok());
            }
            "--listen" => {
                i += 1;
                listen = args.get(i).cloned().unwrap_or_else(|| usage());
            }
            "--protocol" => {
                i += 1;
                mode = match args.get(i).map(String::as_str) {
                    Some("2pc") => Some(SubmitMode::TwoPhase),
                    Some("commit-after") => Some(SubmitMode::CommitAfter),
                    Some("commit-before") => Some(SubmitMode::CommitBefore),
                    _ => usage(),
                };
            }
            "--lock-timeout-ms" => {
                i += 1;
                let ms = args.get(i).and_then(|v| v.parse::<u64>().ok());
                lock_timeout = Duration::from_millis(ms.unwrap_or_else(|| usage()));
            }
            "--wal-dir" => {
                i += 1;
                wal_dir = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--acceptor-log" => {
                i += 1;
                acceptor_log = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            _ => usage(),
        }
        i += 1;
    }
    let Some(site_n) = site else { usage() };
    let Some(mode) = mode else { usage() };
    if site_n == 0 {
        eprintln!("site 0 is the central system, not a local site");
        std::process::exit(2);
    }
    let site = SiteId::new(site_n);
    let cfg = TplConfig {
        lock_timeout,
        deadlock_check: Duration::from_millis(1),
        ..TplConfig::default()
    };
    let manager = match &wal_dir {
        Some(dir) => match SiteRecoveryManager::new(dir).open(site, cfg, ObsSink::disabled()) {
            Ok((manager, stats)) => {
                println!(
                    "recovered site {site_n}: {} committed, {} rolled back, \
                         {} in doubt, {} records replayed, {} work entries restored{}",
                    stats.committed,
                    stats.rolled_back,
                    stats.in_doubt,
                    stats.replayed,
                    stats.restored_entries,
                    if stats.torn_tail {
                        " (torn tail truncated)"
                    } else {
                        ""
                    }
                );
                manager
            }
            Err(e) => {
                eprintln!("recovery from {dir}: {e}");
                std::process::exit(1);
            }
        },
        None => {
            let engine = Arc::new(TwoPLEngine::new(cfg));
            Arc::new(LocalCommManager::new(
                site,
                EngineHandle::Preparable(engine),
            ))
        }
    };

    // With --acceptor-log the site co-hosts a Paxos Commit acceptor:
    // opening the log replays any previous incarnation's promises and
    // accepts, so a restarted acceptor keeps its word.
    let acceptor = acceptor_log.map(|path| match AcceptorHost::open(site, &path) {
        Ok(host) => {
            println!("acceptor mounted at {path}");
            Arc::new(host)
        }
        Err(e) => {
            eprintln!("acceptor log {path}: {e}");
            std::process::exit(1);
        }
    });

    // The server retries AddrInUse internally, so a restart in place
    // (same port) survives the kernel's TIME_WAIT on the old listener.
    let addr = match EventServer::spawn_with_acceptor(
        site,
        manager,
        mode,
        &listen,
        ObsSink::disabled(),
        acceptor,
    ) {
        Ok(s) => {
            let addr = s.addr();
            // Leak: the server lives for the process.
            std::mem::forget(s);
            addr
        }
        Err(e) => {
            eprintln!("bind {listen}: {e}");
            std::process::exit(1);
        }
    };
    println!("listening on {addr}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    // Serve until killed.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}
