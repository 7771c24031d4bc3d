//! Durable site recovery, end to end: `kill -9` a real site-server
//! process mid-run and bring it back from its `--wal-dir`.
//!
//! For each protocol: two `amc-site-server` processes on loopback, a
//! transfer workload through `Federation::with_transport`, then SIGKILL
//! one site. Transactions during the outage abort (an unreachable site
//! cannot vote yes) and each leaves the coordinator owing the dead site
//! its final state. The site restarts **in place** — same port, same WAL
//! directory — replays its log, restores its work journal, and the
//! coordinator's `resolve_pending` discharges every owed message. The
//! global sum must be conserved through all of it, and the admin
//! `Recovery` frame must report the replay.
//!
//! The property tests below pin the durable-log contract itself: any
//! frame-boundary prefix of a WAL replays to a consistent store (the
//! committed prefix, losers rolled back), a torn final frame is silently
//! truncated, and corruption *inside* the log stays fatal.

use amc::core::{Federation, FederationConfig, TxnOutcome};
use amc::engine::{LocalEngine, TplConfig, TwoPLEngine};
use amc::net::marker::is_marker;
use amc::net::transport::{AdminReply, AdminRequest, FederationTransport};
use amc::obs::ObsSink;
use amc::rpc::{RetryPolicy, TcpTransport};
use amc::types::{ObjectId, Operation, ProtocolKind, SiteId, Value};
use amc::wal::durable::{DurableFile, FRAME_HEADER};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::io::BufRead;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const SITES: u32 = 2;
const OBJS: u64 = 8;
const PER_OBJ: i64 = 100;

fn obj(site: u32, i: u64) -> ObjectId {
    ObjectId::new(u64::from(site) * (1 << 32) + i)
}

fn fresh_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "amc-durable-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

// --- process-level kill -9 ------------------------------------------------

/// Deadlines tuned so a dead site is declared down in well under a second.
fn fast_policy() -> RetryPolicy {
    RetryPolicy {
        connect_timeout: Duration::from_millis(200),
        request_timeout: Duration::from_secs(2),
        max_attempts: 6,
        backoff_base: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(40),
    }
}

/// One spawned site-server process; killed on drop so failed assertions
/// do not leak children.
struct SiteProc {
    child: Child,
    addr: SocketAddr,
    recovered_line: Option<String>,
}

impl Drop for SiteProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_site(site: u32, protocol: ProtocolKind, wal_dir: &Path, listen: &str) -> SiteProc {
    let mut child = Command::new(env!("CARGO_BIN_EXE_amc-site-server"))
        .args([
            "--site",
            &site.to_string(),
            "--listen",
            listen,
            "--protocol",
            protocol.label(),
            "--lock-timeout-ms",
            "200",
            "--wal-dir",
            wal_dir.to_str().expect("utf-8 wal dir"),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn amc-site-server");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = std::io::BufReader::new(stdout);
    let mut recovered_line = None;
    let mut addr = None;
    for _ in 0..10 {
        let mut line = String::new();
        if reader.read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        let line = line.trim();
        if line.starts_with("recovered site ") {
            recovered_line = Some(line.to_string());
        }
        if let Some(rest) = line.strip_prefix("listening on ") {
            addr = Some(rest.parse().expect("printed socket addr"));
            break;
        }
    }
    SiteProc {
        child,
        addr: addr.expect("server never printed its listening address"),
        recovered_line,
    }
}

/// A two-site transfer over an explicit object-index pair.
fn transfer_on(from: u32, to: u32, fi: u64, ti: u64, amt: i64) -> BTreeMap<SiteId, Vec<Operation>> {
    BTreeMap::from([
        (
            SiteId::new(from),
            vec![Operation::Increment {
                obj: obj(from, fi),
                delta: -amt,
            }],
        ),
        (
            SiteId::new(to),
            vec![Operation::Increment {
                obj: obj(to, ti),
                delta: amt,
            }],
        ),
    ])
}

fn transfer(i: u64) -> BTreeMap<SiteId, Vec<Operation>> {
    let (from, to) = if i.is_multiple_of(2) {
        (1u32, 2u32)
    } else {
        (2, 1)
    };
    transfer_on(from, to, i % OBJS, (i + 3) % OBJS, 1 + (i % 5) as i64)
}

/// Run `n` transfers; returns how many committed.
fn drive(fed: &Federation, base: u64, n: u64) -> u64 {
    let mut committed = 0;
    for i in base..base + n {
        let report = fed
            .run_transaction(&transfer(i))
            .unwrap_or_else(|e| panic!("transaction {i}: {e}"));
        if report.outcome == TxnOutcome::Committed {
            committed += 1;
        }
    }
    committed
}

fn user_sum(fed: &Federation) -> i64 {
    fed.dumps()
        .expect("dumps")
        .values()
        .flat_map(|d| d.iter())
        .filter(|(o, _)| !is_marker(**o))
        .map(|(_, v)| v.counter)
        .sum()
}

fn kill9_run(protocol: ProtocolKind) {
    let wal_dir = fresh_dir(protocol.label());
    let mut procs: BTreeMap<SiteId, SiteProc> = (1..=SITES)
        .map(|s| {
            (
                SiteId::new(s),
                spawn_site(s, protocol, &wal_dir, "127.0.0.1:0"),
            )
        })
        .collect();
    let addrs: BTreeMap<SiteId, SocketAddr> = procs.iter().map(|(s, p)| (*s, p.addr)).collect();
    let obs = ObsSink::enabled(1 << 16);
    let transport = Arc::new(TcpTransport::new_mux(addrs.clone(), fast_policy(), obs));
    let fed = Federation::with_transport(
        FederationConfig::uniform(SITES, protocol),
        Arc::clone(&transport) as Arc<dyn FederationTransport>,
    );
    for s in 1..=SITES {
        let data: Vec<(ObjectId, Value)> = (0..OBJS)
            .map(|i| (obj(s, i), Value::counter(PER_OBJ)))
            .collect();
        fed.load_site(SiteId::new(s), &data).expect("load");
    }

    // Phase 1: both sites up; commits land and are journaled durably.
    let before = drive(&fed, 0, 12);
    assert!(
        before > 0,
        "{protocol:?}: nothing committed before the kill"
    );

    // Phase 2: SIGKILL site 2 mid-run. Transfers that need it abort, and
    // every abort leaves the dead site owed its final state. Disjoint
    // object pairs keep the retained L1 locks from stalling each other.
    let victim = SiteId::new(2);
    procs.remove(&victim).expect("victim running"); // Drop kills -9.
    for k in 0..3u64 {
        let program = transfer_on(1, 2, 2 * k, 2 * k + 1, 5);
        let report = fed.run_transaction(&program).expect("absorbed outage");
        assert_eq!(
            report.outcome,
            TxnOutcome::Aborted,
            "{protocol:?}: a transfer through a dead site cannot commit"
        );
    }
    assert!(
        fed.pending_obligations() > 0,
        "{protocol:?}: the dead site is owed its aborts"
    );
    // Still down: nothing can be discharged.
    assert_eq!(fed.resolve_pending().expect("resolve while down"), 0);

    // Phase 3: restart in place — same port, same WAL directory.
    let addr = addrs[&victim];
    let revived = spawn_site(victim.raw(), protocol, &wal_dir, &addr.to_string());
    assert_eq!(revived.addr, addr, "restart must reuse the same port");
    let recovered = revived
        .recovered_line
        .as_deref()
        .expect("restart printed a recovery summary");
    assert!(
        recovered.contains("work entries restored"),
        "unexpected recovery line: {recovered}"
    );
    procs.insert(victim, revived);

    // Phase 4: the coordinator discharges every owed final-state message.
    for _ in 0..50 {
        if fed.pending_obligations() == 0 {
            break;
        }
        fed.resolve_pending().expect("resolve after restart");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(
        fed.pending_obligations(),
        0,
        "{protocol:?}: obligations never drained after restart"
    );

    // Phase 5: the revived site serves commits again.
    let after = drive(&fed, 200, 12);
    assert!(after > 0, "{protocol:?}: nothing committed after recovery");

    // The admin frame reports the replay: phase-1 commits were redone and
    // the journal survived the kill.
    match transport.admin(victim, AdminRequest::Recovery) {
        Ok(AdminReply::Recovery(Some(stats))) => {
            assert!(stats.committed > 0, "{protocol:?}: no replayed commits");
            assert!(
                stats.restored_entries > 0,
                "{protocol:?}: work journal did not survive"
            );
        }
        other => panic!("{protocol:?}: unexpected recovery reply {other:?}"),
    }

    // Atomicity through kill -9 + recovery: the global sum is conserved.
    assert_eq!(
        user_sum(&fed),
        i64::from(SITES) * OBJS as i64 * PER_OBJ,
        "{protocol:?}: global sum not conserved across the kill"
    );
    drop(procs);
    let _ = std::fs::remove_dir_all(&wal_dir);
}

#[test]
fn two_phase_commit_survives_kill_9() {
    kill9_run(ProtocolKind::TwoPhaseCommit);
}

/// The fast-path acceptance pin: a site killed -9 while holding a
/// *piggybacked* prepare (`SubmitPrepare` applied + prepared, vote sent,
/// decision still pending) must recover identically to one holding a
/// classic prepare. The test plays coordinator itself over the raw
/// transport so the in-doubt window is deterministic, runs the same
/// transaction through both prepare flavours, and compares every
/// observable: the resurrected in-doubt count, the re-inquiry vote, and
/// the final committed state.
#[test]
fn killed_piggybacked_prepare_recovers_identically_to_classic() {
    use amc::net::Payload;
    use amc::types::{GlobalTxnId, GlobalVerdict, LocalVote};

    let protocol = ProtocolKind::TwoPhaseCommit;
    let site = SiteId::new(1);
    let gtx = GlobalTxnId::new(7);
    let ops = vec![Operation::Increment {
        obj: obj(1, 0),
        delta: 5,
    }];

    let ready = |p: &Payload| {
        matches!(
            p,
            Payload::Vote {
                vote: LocalVote::Ready,
                ..
            }
        )
    };
    let run_lane = |tag: &str, piggyback: bool| -> (u64, BTreeMap<ObjectId, Value>) {
        let wal_dir = fresh_dir(tag);
        let proc = spawn_site(site.raw(), protocol, &wal_dir, "127.0.0.1:0");
        let addrs = BTreeMap::from([(site, proc.addr)]);
        let transport = TcpTransport::new_mux(addrs.clone(), fast_policy(), ObsSink::disabled());
        let data: Vec<(ObjectId, Value)> = (0..OBJS)
            .map(|i| (obj(1, i), Value::counter(PER_OBJ)))
            .collect();
        transport
            .admin(site, AdminRequest::Load(data))
            .expect("load");
        let vote = if piggyback {
            transport
                .call(
                    site,
                    Payload::SubmitPrepare {
                        gtx,
                        ops: ops.clone(),
                        solo: false,
                    },
                )
                .expect("submit-prepare")
        } else {
            let ack = transport
                .call(
                    site,
                    Payload::Submit {
                        gtx,
                        ops: ops.clone(),
                    },
                )
                .expect("submit");
            assert!(ready(&ack), "{tag}: work ack {ack:?}");
            transport
                .call(site, Payload::Prepare { gtx })
                .expect("prepare")
        };
        assert!(ready(&vote), "{tag}: vote {vote:?}");

        // kill -9 inside the in-doubt window, then restart in place.
        let addr = proc.addr;
        drop(proc);
        let revived = spawn_site(site.raw(), protocol, &wal_dir, &addr.to_string());
        assert_eq!(revived.addr, addr, "{tag}: restart must reuse the port");
        let transport = TcpTransport::new_mux(addrs, fast_policy(), ObsSink::disabled());
        let stats = match transport.admin(site, AdminRequest::Recovery) {
            Ok(AdminReply::Recovery(Some(stats))) => stats,
            other => panic!("{tag}: unexpected recovery reply {other:?}"),
        };
        // The coordinator's re-inquiry lands on the resurrected prepare...
        let vote = transport
            .call(site, Payload::Prepare { gtx })
            .expect("re-inquiry");
        assert!(ready(&vote), "{tag}: post-recovery vote {vote:?}");
        // ...and the retransmitted decision completes the transaction.
        let fin = transport
            .call(
                site,
                Payload::Decision {
                    gtx,
                    verdict: GlobalVerdict::Commit,
                },
            )
            .expect("decision");
        assert!(matches!(fin, Payload::Finished { .. }), "{tag}: {fin:?}");
        let dump = match transport.admin(site, AdminRequest::Dump) {
            Ok(AdminReply::Dump(d)) => d,
            other => panic!("{tag}: unexpected dump reply {other:?}"),
        };
        drop(revived);
        let _ = std::fs::remove_dir_all(&wal_dir);
        (stats.in_doubt, dump)
    };

    let (fast_in_doubt, fast_dump) = run_lane("fastpath-kill", true);
    let (classic_in_doubt, classic_dump) = run_lane("classic-kill", false);
    assert_eq!(
        fast_in_doubt, 1,
        "the piggybacked prepare must be resurrected in doubt"
    );
    assert_eq!(fast_in_doubt, classic_in_doubt);
    assert_eq!(
        fast_dump, classic_dump,
        "recovery outcomes diverge between prepare flavours"
    );
    assert_eq!(
        fast_dump.get(&obj(1, 0)),
        Some(&Value::counter(PER_OBJ + 5))
    );
}

#[test]
fn commit_after_survives_kill_9() {
    kill9_run(ProtocolKind::CommitAfter);
}

#[test]
fn commit_before_survives_kill_9() {
    kill9_run(ProtocolKind::CommitBefore);
}

// --- durable-log properties ----------------------------------------------

/// Build a WAL: bulk-load three counters at 100, then one committed
/// increment per delta. Returns the log's bytes and frame boundaries.
fn build_log(dir: &Path, deltas: &[(u8, i64)]) -> (PathBuf, Vec<usize>, Vec<u8>) {
    let path = dir.join("engine.wal");
    {
        let (engine, report) =
            TwoPLEngine::open_durable(TplConfig::default(), SiteId::new(1), &path).unwrap();
        assert_eq!(report.committed.len(), 0);
        engine
            .bulk_load(&[
                (ObjectId::new(0), Value::counter(PER_OBJ)),
                (ObjectId::new(1), Value::counter(PER_OBJ)),
                (ObjectId::new(2), Value::counter(PER_OBJ)),
            ])
            .unwrap();
        for (idx, delta) in deltas {
            let t = engine.begin().unwrap();
            engine
                .execute(
                    t,
                    &Operation::Increment {
                        obj: ObjectId::new(u64::from(idx % 3)),
                        delta: *delta,
                    },
                )
                .unwrap();
            engine.commit(t).unwrap();
        }
    }
    let opened = DurableFile::open(&path).unwrap();
    assert!(!opened.torn_truncated);
    let mut bounds = vec![0usize];
    for f in &opened.frames {
        bounds.push(bounds.last().unwrap() + f.len());
    }
    drop(opened);
    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(bytes.len(), *bounds.last().unwrap());
    (path, bounds, bytes)
}

/// The store a committed prefix must produce: the bulk load (commit #1)
/// then the first `c - 1` deltas; no commits at all ⇒ an empty store.
fn expected_after(deltas: &[(u8, i64)], commits: usize) -> BTreeMap<ObjectId, Value> {
    if commits == 0 {
        return BTreeMap::new();
    }
    let mut vals = [PER_OBJ, PER_OBJ, PER_OBJ];
    for (idx, delta) in deltas.iter().take(commits - 1) {
        vals[usize::from(idx % 3)] += delta;
    }
    (0u64..3)
        .map(|i| (ObjectId::new(i), Value::counter(vals[i as usize])))
        .collect()
}

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(24))]

    /// Replaying any frame-boundary prefix of a durable log yields a
    /// consistent store: exactly the transactions whose commit record
    /// survived, in order; losers rolled back; no torn-tail report.
    #[test]
    fn any_frame_prefix_replays_to_a_consistent_store(
        deltas in proptest::collection::vec((any::<u8>(), -9i64..10), 1..16),
        cut in any::<u64>(),
    ) {
        let dir = fresh_dir("prefix");
        let (path, bounds, bytes) = build_log(&dir, &deltas);
        let keep = (cut as usize) % bounds.len();
        std::fs::write(&path, &bytes[..bounds[keep]]).unwrap();
        let (engine, report) =
            TwoPLEngine::open_durable(TplConfig::default(), SiteId::new(1), &path).unwrap();
        prop_assert!(!report.torn_tail, "a frame-boundary cut is not torn");
        let commits = report.committed.len();
        prop_assert!(commits <= deltas.len() + 1);
        prop_assert_eq!(engine.dump().unwrap(), expected_after(&deltas, commits));
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A torn final frame — the crash landed mid-append — is truncated
    /// away and reported; the surviving prefix replays as usual.
    #[test]
    fn torn_final_frame_truncates_to_the_previous_boundary(
        deltas in proptest::collection::vec((any::<u8>(), -9i64..10), 1..16),
        cut in any::<u64>(),
        torn in any::<u64>(),
    ) {
        let dir = fresh_dir("torn");
        let (path, bounds, bytes) = build_log(&dir, &deltas);
        let keep = (cut as usize) % (bounds.len() - 1); // at least one frame cut
        let frame_len = bounds[keep + 1] - bounds[keep];
        let extra = 1 + (torn as usize) % (frame_len - 1); // strictly partial
        std::fs::write(&path, &bytes[..bounds[keep] + extra]).unwrap();
        let (engine, report) =
            TwoPLEngine::open_durable(TplConfig::default(), SiteId::new(1), &path).unwrap();
        prop_assert!(report.torn_tail, "a partial final frame must be reported torn");
        let commits = report.committed.len();
        prop_assert_eq!(engine.dump().unwrap(), expected_after(&deltas, commits));
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Corruption *before* the tail is not a crash artifact — it is data
    /// loss, and recovery must refuse rather than silently drop suffix
    /// transactions that were acknowledged as durable.
    #[test]
    fn mid_log_corruption_stays_fatal(
        deltas in proptest::collection::vec((any::<u8>(), -9i64..10), 1..16),
        pick in any::<u64>(),
    ) {
        let dir = fresh_dir("corrupt");
        let (path, bounds, mut bytes) = build_log(&dir, &deltas);
        let frames = bounds.len() - 1;
        prop_assert!(frames >= 2, "need a non-final frame to corrupt");
        let victim = (pick as usize) % (frames - 1); // never the last frame
        let frame_len = bounds[victim + 1] - bounds[victim];
        prop_assert!(frame_len > FRAME_HEADER, "records have payload");
        // Flip the frame's final payload byte: the checksum must catch it,
        // and a valid frame after it proves this is not a torn tail.
        bytes[bounds[victim + 1] - 1] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let result = TwoPLEngine::open_durable(TplConfig::default(), SiteId::new(1), &path);
        prop_assert!(result.is_err(), "mid-log corruption must refuse recovery");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
