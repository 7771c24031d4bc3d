//! Paxos Commit, end to end: the non-blocking replicated coordinator.
//!
//! Four layers of guarantees:
//!
//! * **Golden wire bytes**: the v1 layout of every Paxos payload
//!   (`PaxosRegister` … `PaxosP2b`) is pinned byte-for-byte, same
//!   contract as `wire_codec.rs` pins for the classical payloads.
//! * **Durable acceptor log**: any frame-boundary prefix of an
//!   acceptor's log replays to exactly the state the pure
//!   [`AcceptorState::replay`] computes over the decoded prefix records
//!   — the on-disk codec, the boundary scan, and the replay agree.
//! * **Nemesis sweep**: 100+ seeded fault schedules — acceptor
//!   partitions, leading-coordinator-replica crashes mid-replication,
//!   standby takeovers — against an in-process Paxos federation. After
//!   the final standby sweep no transaction is open at any acceptor and
//!   the global sum is conserved, every seed.
//! * **kill -9 over TCP**: a real `amc-paxos-coord` process dies by
//!   SIGKILL with a transaction fully prepared but undecided; a standby
//!   replica in this test finishes it *Commit* from the acceptor logs
//!   alone, a replacement coordinator process keeps committing, and the
//!   books balance.

use amc::core::{Federation, FederationConfig};
use amc::net::marker::is_marker;
use amc::net::transport::{AdminReply, AdminRequest, FederationTransport};
use amc::net::Payload;
use amc::obs::ObsSink;
use amc::paxos::{AcceptorState, Ballot, DurableAcceptor, Record, ReplicaDriver};
use amc::rpc::wire::{decode_frame, encode_frame, Frame};
use amc::rpc::{RetryPolicy, TcpTransport, WIRE_VERSION};
use amc::sim::{generate_faults, FaultKind, NemesisConfig};
use amc::types::{GlobalTxnId, GlobalVerdict, ObjectId, Operation, ProtocolKind, SiteId, Value};
use amc::wal::durable::unframe;
use amc::wal::DurableFile;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::io::BufRead;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn site(n: u32) -> SiteId {
    SiteId::new(n)
}

fn obj(site: u32, i: u64) -> ObjectId {
    ObjectId::new(u64::from(site) * (1 << 32) + i)
}

fn fresh_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "amc-paxos-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

// ------------------------------------------------- golden wire bytes --

/// `PaxosRegister` (tag 7): gtx, then the participant list as
/// `u32 count` + `u32` per site — the layout every acceptor log entry
/// is keyed by.
#[test]
fn golden_bytes_paxos_register_v1() {
    let frame = Frame::Request {
        req_id: 3,
        payload: Payload::PaxosRegister {
            gtx: GlobalTxnId::new(9),
            participants: vec![site(1), site(2)],
        },
    };
    let mut expect: Vec<u8> = Vec::new();
    expect.extend_from_slice(&31u32.to_le_bytes()); // length of the rest
    expect.push(WIRE_VERSION);
    expect.push(0); // frame kind 0 = request
    expect.extend_from_slice(&3u64.to_le_bytes()); // req id
    expect.push(7); // payload tag 7 = paxos-register
    expect.extend_from_slice(&9u64.to_le_bytes()); // gtx
    expect.extend_from_slice(&2u32.to_le_bytes()); // participant count
    expect.extend_from_slice(&1u32.to_le_bytes()); // site 1
    expect.extend_from_slice(&2u32.to_le_bytes()); // site 2
    assert_eq!(encode_frame(&frame), expect);
    assert_eq!(decode_frame(&expect).expect("decode"), frame);
}

/// `PaxosAck` (tag 8) and `PaxosP1a` (tag 9): the short frames of the
/// registration round trip and the phase-1 opener.
#[test]
fn golden_bytes_paxos_ack_and_p1a_v1() {
    let ack = Frame::Reply {
        req_id: 4,
        payload: Payload::PaxosAck {
            gtx: GlobalTxnId::new(9),
        },
    };
    let mut expect: Vec<u8> = Vec::new();
    expect.extend_from_slice(&19u32.to_le_bytes());
    expect.push(WIRE_VERSION);
    expect.push(1); // frame kind 1 = reply
    expect.extend_from_slice(&4u64.to_le_bytes());
    expect.push(8); // payload tag 8 = paxos-ack
    expect.extend_from_slice(&9u64.to_le_bytes());
    assert_eq!(encode_frame(&ack), expect);
    assert_eq!(decode_frame(&expect).expect("decode"), ack);

    // Ballots travel packed: round << 32 | replica.
    let ballot = (2u64 << 32) | 5;
    let p1a = Frame::Request {
        req_id: 5,
        payload: Payload::PaxosP1a {
            gtx: GlobalTxnId::new(9),
            ballot,
        },
    };
    let mut expect: Vec<u8> = Vec::new();
    expect.extend_from_slice(&27u32.to_le_bytes());
    expect.push(WIRE_VERSION);
    expect.push(0);
    expect.extend_from_slice(&5u64.to_le_bytes());
    expect.push(9); // payload tag 9 = paxos-p1a
    expect.extend_from_slice(&9u64.to_le_bytes());
    expect.extend_from_slice(&ballot.to_le_bytes());
    assert_eq!(encode_frame(&p1a), expect);
    assert_eq!(decode_frame(&expect).expect("decode"), p1a);
}

/// `PaxosP1b` (tag 10) — the richest frame: promise flag, high-water
/// ballot, durable participant list, and per-instance accepted values as
/// `(u32 site, u64 ballot, u8 prepared)` triples.
#[test]
fn golden_bytes_paxos_p1b_v1() {
    let frame = Frame::Reply {
        req_id: 6,
        payload: Payload::PaxosP1b {
            gtx: GlobalTxnId::new(9),
            ballot: (1u64 << 32) | 2,
            promised: true,
            promised_up_to: (1u64 << 32) | 2,
            participants: vec![site(1), site(2)],
            accepted: vec![(site(1), 0, true)],
        },
    };
    let mut expect: Vec<u8> = Vec::new();
    expect.extend_from_slice(&65u32.to_le_bytes());
    expect.push(WIRE_VERSION);
    expect.push(1);
    expect.extend_from_slice(&6u64.to_le_bytes());
    expect.push(10); // payload tag 10 = paxos-p1b
    expect.extend_from_slice(&9u64.to_le_bytes()); // gtx
    expect.extend_from_slice(&((1u64 << 32) | 2).to_le_bytes()); // ballot
    expect.push(1); // promised = true
    expect.extend_from_slice(&((1u64 << 32) | 2).to_le_bytes()); // promised_up_to
    expect.extend_from_slice(&2u32.to_le_bytes()); // participant count
    expect.extend_from_slice(&1u32.to_le_bytes());
    expect.extend_from_slice(&2u32.to_le_bytes());
    expect.extend_from_slice(&1u32.to_le_bytes()); // accepted count
    expect.extend_from_slice(&1u32.to_le_bytes()); // instance site 1
    expect.extend_from_slice(&0u64.to_le_bytes()); // accepted at ballot 0
    expect.push(1); // prepared = true
    assert_eq!(encode_frame(&frame), expect);
    assert_eq!(decode_frame(&expect).expect("decode"), frame);
}

/// `PaxosP2a`/`PaxosP2b` (tags 11/12) share a body shape — gtx, u32
/// instance site, packed ballot, one flag byte — and `PaxosDecided`
/// (tag 13) reuses the classical verdict tag (0 commit, 1 abort).
#[test]
fn golden_bytes_paxos_p2_and_decided_v1() {
    let ballot = (3u64 << 32) | 1;
    let p2a = Frame::Request {
        req_id: 7,
        payload: Payload::PaxosP2a {
            gtx: GlobalTxnId::new(9),
            site: site(2),
            ballot,
            prepared: false,
        },
    };
    let mut expect: Vec<u8> = Vec::new();
    expect.extend_from_slice(&32u32.to_le_bytes());
    expect.push(WIRE_VERSION);
    expect.push(0);
    expect.extend_from_slice(&7u64.to_le_bytes());
    expect.push(11); // payload tag 11 = paxos-p2a
    expect.extend_from_slice(&9u64.to_le_bytes());
    expect.extend_from_slice(&2u32.to_le_bytes()); // instance site
    expect.extend_from_slice(&ballot.to_le_bytes());
    expect.push(0); // prepared = false (an abort value)
    assert_eq!(encode_frame(&p2a), expect);
    assert_eq!(decode_frame(&expect).expect("decode"), p2a);

    let p2b = Frame::Reply {
        req_id: 7,
        payload: Payload::PaxosP2b {
            gtx: GlobalTxnId::new(9),
            site: site(2),
            ballot,
            accepted: true,
        },
    };
    let mut expect: Vec<u8> = Vec::new();
    expect.extend_from_slice(&32u32.to_le_bytes());
    expect.push(WIRE_VERSION);
    expect.push(1);
    expect.extend_from_slice(&7u64.to_le_bytes());
    expect.push(12); // payload tag 12 = paxos-p2b
    expect.extend_from_slice(&9u64.to_le_bytes());
    expect.extend_from_slice(&2u32.to_le_bytes());
    expect.extend_from_slice(&ballot.to_le_bytes());
    expect.push(1); // accepted = true
    assert_eq!(encode_frame(&p2b), expect);
    assert_eq!(decode_frame(&expect).expect("decode"), p2b);

    let decided = Frame::Request {
        req_id: 8,
        payload: Payload::PaxosDecided {
            gtx: GlobalTxnId::new(9),
            verdict: GlobalVerdict::Commit,
        },
    };
    let mut expect: Vec<u8> = Vec::new();
    expect.extend_from_slice(&20u32.to_le_bytes());
    expect.push(WIRE_VERSION);
    expect.push(0);
    expect.extend_from_slice(&8u64.to_le_bytes());
    expect.push(13); // payload tag 13 = paxos-decided
    expect.extend_from_slice(&9u64.to_le_bytes());
    expect.push(0); // verdict 0 = commit
    assert_eq!(encode_frame(&decided), expect);
    assert_eq!(decode_frame(&expect).expect("decode"), decided);
}

// --------------------------------------- acceptor-log prefix replay --

/// One operation against a durable acceptor, over a small universe so
/// the interesting collisions (re-registration, stale ballots, accepts
/// after decisions) actually happen.
#[derive(Debug, Clone)]
enum AccOp {
    Register {
        gtx: u64,
        mask: u8,
    },
    Promise {
        gtx: u64,
        round: u32,
        replica: u32,
    },
    Accept {
        gtx: u64,
        site: u32,
        round: u32,
        replica: u32,
        prepared: bool,
    },
    Decide {
        gtx: u64,
        commit: bool,
    },
}

fn arb_acc_op() -> impl Strategy<Value = AccOp> {
    (0u8..4, 1u64..4, 1u8..8, 1u32..4, 0u32..9, any::<bool>()).prop_map(
        |(tag, gtx, mask, s, ballot, flag)| {
            let (round, replica) = (ballot / 3, ballot % 3);
            match tag {
                0 => AccOp::Register { gtx, mask },
                1 => AccOp::Promise {
                    gtx,
                    round,
                    replica,
                },
                2 => AccOp::Accept {
                    gtx,
                    site: s,
                    round,
                    replica,
                    prepared: flag,
                },
                _ => AccOp::Decide { gtx, commit: flag },
            }
        },
    )
}

fn apply_acc_op(acc: &mut DurableAcceptor, op: &AccOp) {
    match op {
        AccOp::Register { gtx, mask } => {
            let participants: Vec<SiteId> = (1..=3u32)
                .filter(|s| mask & (1 << s) != 0)
                .map(site)
                .collect();
            let participants = if participants.is_empty() {
                vec![site(1)]
            } else {
                participants
            };
            acc.register(GlobalTxnId::new(*gtx), &participants);
        }
        AccOp::Promise {
            gtx,
            round,
            replica,
        } => {
            acc.promise(GlobalTxnId::new(*gtx), Ballot::new(*round, *replica));
        }
        AccOp::Accept {
            gtx,
            site: s,
            round,
            replica,
            prepared,
        } => {
            acc.accept(
                GlobalTxnId::new(*gtx),
                site(*s),
                Ballot::new(*round, *replica),
                *prepared,
            );
        }
        AccOp::Decide { gtx, commit } => {
            acc.note_decision(
                GlobalTxnId::new(*gtx),
                if *commit {
                    GlobalVerdict::Commit
                } else {
                    GlobalVerdict::Abort
                },
            );
        }
    }
}

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(24))]

    /// Any frame-boundary prefix of an acceptor's durable log replays
    /// consistently: reopening the truncated file yields exactly the
    /// state the pure `AcceptorState::replay` computes over the decoded
    /// prefix records, and the full log round-trips to the live state.
    /// This is the promise a recovery ballot leans on — whatever an
    /// acceptor said before the crash, its restarted incarnation still
    /// says.
    #[test]
    fn any_frame_prefix_of_the_acceptor_log_replays_consistently(
        ops in proptest::collection::vec(arb_acc_op(), 1..40),
        cut in any::<u64>(),
    ) {
        let dir = fresh_dir("prefix");
        let path = dir.join("acceptor.log");
        let mut acc = DurableAcceptor::open(&path).unwrap();
        for op in &ops {
            apply_acc_op(&mut acc, op);
        }
        let live = acc.state().clone();
        let frames = acc.frame_count();
        drop(acc);

        // Full-log reopen must reproduce the live state exactly.
        let reopened = DurableAcceptor::open(&path).unwrap();
        prop_assert_eq!(reopened.state(), &live);
        prop_assert_eq!(reopened.frame_count(), frames);
        drop(reopened);

        // Cut at an arbitrary frame boundary; the prefix must decode and
        // replay to the same state a pure fold over its records gives.
        let opened = DurableFile::open(&path).unwrap();
        prop_assert!(!opened.torn_truncated);
        let mut bounds = vec![0usize];
        for f in &opened.frames {
            bounds.push(bounds.last().unwrap() + f.len());
        }
        let keep = (cut as usize) % bounds.len();
        let records: Vec<Record> = opened.frames[..keep]
            .iter()
            .map(|f| Record::decode(unframe(f).unwrap()).unwrap())
            .collect();
        drop(opened);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bounds[keep]]).unwrap();

        let truncated = DurableAcceptor::open(&path).unwrap();
        prop_assert_eq!(truncated.frame_count(), keep);
        prop_assert_eq!(truncated.state(), &AcceptorState::replay(&records));
        drop(truncated);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ------------------------------------------------ nemesis chaos sweep --

const SWEEP_SITES: u32 = 5; // 1..=3 host acceptors; 4 and 5 trade
const ACCEPTORS: u32 = 3; // f = 1
const SWEEP_TXNS: u64 = 12;
const PER_OBJ: i64 = 100;

fn sweep_config() -> NemesisConfig {
    NemesisConfig {
        // Partitions sever acceptor links — that is where Paxos majority
        // math gets exercised. Classical site crashes stay off: the
        // threaded federation's fault surface here is the acceptor group
        // and the coordinator replicas themselves.
        sites: vec![site(1), site(2), site(3)],
        allow_crashes: false,
        allow_torn_tails: false,
        allow_partitions: true,
        allow_loss_bursts: false,
        include_central_crash: false,
        allow_coordinator_crashes: true,
        coordinator_replicas: ACCEPTORS,
        ..NemesisConfig::default()
    }
}

/// Transfer `i`: site 4 pays site 5 over object pair `i` — disjoint per
/// transaction, so a transaction wedged in doubt (holding its locks)
/// never stalls the rest of the schedule.
fn sweep_transfer(i: u64) -> BTreeMap<SiteId, Vec<Operation>> {
    let amt = 1 + (i % 5) as i64;
    BTreeMap::from([
        (
            site(4),
            vec![Operation::Increment {
                obj: obj(4, i),
                delta: -amt,
            }],
        ),
        (
            site(5),
            vec![Operation::Increment {
                obj: obj(5, i),
                delta: amt,
            }],
        ),
    ])
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

/// Run one seeded schedule; returns the per-transaction outcome labels
/// and the final (healed, drained) dumps for determinism comparison.
fn run_sweep_seed(seed: u64) -> (Vec<String>, BTreeMap<SiteId, BTreeMap<ObjectId, Value>>) {
    let dir = fresh_dir(&format!("sweep-{seed}"));
    let cfg = FederationConfig::uniform(SWEEP_SITES, ProtocolKind::TwoPhaseCommit)
        .with_paxos_commit(ACCEPTORS, &dir);
    let fed = Federation::new(cfg);
    for s in 1..=SWEEP_SITES {
        let data: Vec<(ObjectId, Value)> = (0..SWEEP_TXNS)
            .map(|i| (obj(s, i), Value::counter(PER_OBJ)))
            .collect();
        fed.load_site(site(s), &data).expect("load");
    }

    let ncfg = sweep_config();
    let horizon = ncfg.fault_horizon.0.max(1);
    let mut events = generate_faults(&ncfg, seed).events();
    events.sort_by_key(|e| e.at);
    // The threaded federation has no virtual clock; map each fault's
    // virtual time onto the transaction schedule instead.
    let slot = |at: u64| -> u64 { (at * SWEEP_TXNS / horizon).min(SWEEP_TXNS - 1) };

    let pt = fed.paxos_transport().expect("paxos transport").clone();
    let apply = |kind: &FaultKind, s: SiteId| match kind {
        FaultKind::PartitionStart { .. } => pt.set_down(s, true),
        FaultKind::PartitionHeal => pt.set_down(s, false),
        FaultKind::CoordinatorCrash { after_votes } => {
            // Cap at the participant count: every transfer replicates at
            // most two prepare votes.
            fed.inject_coordinator_crash_after_votes((*after_votes).min(2));
        }
        FaultKind::CoordinatorTakeover { replica } => {
            // A standby claims leadership and sweeps. It may fail —
            // e.g. two acceptors partitioned away leave no majority —
            // and that is a legal outcome: the in-doubt transactions
            // simply wait for the final healed sweep.
            let _ = fed.replica_driver(*replica).run_once();
        }
        other => unreachable!("sweep config cannot generate {other:?}"),
    };

    let mut outcomes = Vec::new();
    let mut next = 0usize;
    for i in 0..SWEEP_TXNS {
        while next < events.len() && slot(events[next].at.0) <= i {
            apply(&events[next].kind, events[next].site);
            next += 1;
        }
        match fed.run_transaction(&sweep_transfer(i)) {
            Ok(report) => outcomes.push(format!("{:?}", report.outcome)),
            // A fired coordinator crash (or an acceptor majority lost
            // mid-decision) leaves the transaction in doubt for a
            // standby to finish.
            Err(_) => outcomes.push("InDoubt".to_string()),
        }
    }
    while next < events.len() {
        apply(&events[next].kind, events[next].site);
        next += 1;
    }

    // Heal everything and let a fresh standby finish whatever is open.
    for a in 1..=ACCEPTORS {
        pt.set_down(site(a), false);
    }
    let swept = fed
        .replica_driver(9)
        .run_once()
        .expect("healed sweep has a majority");
    outcomes.push(format!("swept:{}", swept.len()));

    // Non-blocking: nothing is left open at any acceptor.
    for a in 1..=ACCEPTORS {
        let open = pt
            .host(site(a))
            .expect("acceptor host")
            .with_acceptor(|acc| acc.state().open_entries());
        assert!(
            open.is_empty(),
            "seed {seed}: acceptor {a} still has open transactions {open:?}"
        );
    }
    let sum = user_sum(&fed);
    assert_eq!(
        sum,
        i64::from(SWEEP_SITES) * SWEEP_TXNS as i64 * PER_OBJ,
        "seed {seed}: global sum not conserved (outcomes {outcomes:?})"
    );
    let dumps = fed.dumps().expect("dumps");
    let _ = std::fs::remove_dir_all(&dir);
    (outcomes, dumps)
}

/// 110 seeded schedules of acceptor partitions + coordinator-replica
/// crashes and takeovers: every in-doubt window closes, the sum is
/// conserved, and no acceptor reports an open transaction at the end.
#[test]
fn nemesis_sweep_coordinator_crashes_never_block() {
    let mut crashes_seen = 0u64;
    for seed in 0..110u64 {
        let plan = generate_faults(&sweep_config(), seed);
        crashes_seen += plan
            .events()
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::CoordinatorCrash { .. }))
            .count() as u64;
        run_sweep_seed(seed);
    }
    // The sweep must actually exercise the tentpole: the generator's
    // coordinator lane has to produce real incumbent deaths.
    assert!(
        crashes_seen >= 20,
        "only {crashes_seen} coordinator crashes across the sweep"
    );
}

/// The same seed twice gives byte-identical outcome sequences and final
/// states — the chaos schedule, the backoff jitter, and the standby
/// sweeps are all deterministic in (config, seed).
#[test]
fn nemesis_sweep_is_deterministic_per_seed() {
    for seed in [0u64, 1, 2, 3, 5, 8, 13, 21, 34, 55] {
        let (o1, d1) = run_sweep_seed(seed);
        let (o2, d2) = run_sweep_seed(seed);
        assert_eq!(o1, o2, "seed {seed}: outcome sequence diverged");
        assert_eq!(d1, d2, "seed {seed}: final state diverged");
    }
}

// ------------------------------------------------- kill -9 over TCP --

const TCP_SITES: u32 = 3;
const TCP_OBJS: u64 = 8;
const CRASH_TXN: u64 = 6;

struct Proc {
    child: Child,
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_acceptor_site(s: u32, dir: &std::path::Path) -> (Proc, SocketAddr) {
    let log = dir.join(format!("acceptor-{s}.log"));
    let mut child = Command::new(env!("CARGO_BIN_EXE_amc-site-server"))
        .args([
            "--site",
            &s.to_string(),
            "--listen",
            "127.0.0.1:0",
            "--protocol",
            "2pc",
            "--lock-timeout-ms",
            "200",
            "--acceptor-log",
            log.to_str().expect("utf-8 path"),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn amc-site-server");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = std::io::BufReader::new(stdout);
    let mut addr = None;
    for _ in 0..10 {
        let mut line = String::new();
        if reader.read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        if let Some(rest) = line.trim().strip_prefix("listening on ") {
            addr = Some(rest.parse().expect("printed socket addr"));
            break;
        }
    }
    (
        Proc { child },
        addr.expect("server never printed its listening address"),
    )
}

fn fast_policy() -> RetryPolicy {
    RetryPolicy {
        connect_timeout: Duration::from_millis(200),
        request_timeout: Duration::from_secs(2),
        max_attempts: 6,
        backoff_base: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(40),
    }
}

/// The incumbent coordinator replica is `kill -9`ed with transaction 7
/// fully prepared but undecided — the classical 2PC blocking window. A
/// standby replica reads the acceptor logs, finds the in-doubt
/// transaction, decides *Commit* (both instances chose Prepared at a
/// majority), and delivers it; a replacement coordinator process then
/// keeps committing against the same sites; the global sum is conserved.
#[test]
fn kill_9_of_the_leading_coordinator_replica_does_not_block() {
    let dir = fresh_dir("kill9");
    let mut procs = Vec::new();
    let mut addrs = Vec::new();
    for s in 1..=TCP_SITES {
        let (p, a) = spawn_acceptor_site(s, &dir);
        procs.push(p);
        addrs.push(a);
    }
    let addr_list = addrs
        .iter()
        .map(|a| a.to_string())
        .collect::<Vec<_>>()
        .join(",");

    // The incumbent: crashes (parks for our SIGKILL) mid-transaction 6,
    // after both prepare votes are replicated to the acceptor group.
    let mut coord = Command::new(env!("CARGO_BIN_EXE_amc-paxos-coord"))
        .args([
            "--sites",
            &addr_list,
            "--acceptors",
            &TCP_SITES.to_string(),
            "--txns",
            &format!("{}", CRASH_TXN + 6),
            "--objects",
            &TCP_OBJS.to_string(),
            "--crash-at-txn",
            &CRASH_TXN.to_string(),
            "--crash-after-votes",
            "2",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn amc-paxos-coord");
    let stdout = coord.stdout.take().expect("piped stdout");
    let mut reader = std::io::BufReader::new(stdout);
    let mut committed_before = 0u64;
    let mut in_doubt: Option<u64> = None;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        let line = line.trim();
        if line.starts_with("txn ") && line.ends_with("Committed") {
            committed_before += 1;
        }
        if let Some(rest) = line.strip_prefix("in-doubt gtx=") {
            let gtx: String = rest.chars().take_while(char::is_ascii_digit).collect();
            in_doubt = Some(gtx.parse().expect("gtx number"));
            break;
        }
    }
    let in_doubt = GlobalTxnId::new(in_doubt.expect("incumbent never reported the in-doubt gtx"));
    assert!(
        committed_before > 0,
        "nothing committed before the incumbent died"
    );
    // The real death: SIGKILL, no destructors, no goodbyes.
    coord.kill().expect("kill -9 the incumbent");
    coord.wait().expect("reap the incumbent");

    // The standby (ballot id 7): the acceptor logs alone name the
    // in-doubt transaction and both of its Prepared instances — the
    // verdict must be Commit, never a presumed abort.
    let addr_map: BTreeMap<SiteId, SocketAddr> = addrs
        .iter()
        .enumerate()
        .map(|(i, a)| (site(i as u32 + 1), *a))
        .collect();
    let transport = Arc::new(TcpTransport::new_mux(
        addr_map,
        fast_policy(),
        ObsSink::disabled(),
    ));
    let acceptors: Vec<SiteId> = (1..=TCP_SITES).map(site).collect();
    let driver = ReplicaDriver::new(&*transport, acceptors.clone(), 7);
    let swept = driver.run_once().expect("standby sweep");
    assert_eq!(
        swept,
        vec![(in_doubt, GlobalVerdict::Commit)],
        "the fully prepared transaction must finish Commit"
    );
    // Idempotent: a second standby finds nothing open.
    let driver2 = ReplicaDriver::new(&*transport, acceptors, 8);
    assert!(driver2.run_once().expect("second sweep").is_empty());

    // A replacement coordinator (fresh gtx range, no reload) keeps the
    // federation moving — the in-doubt window held no locks hostage.
    let out = Command::new(env!("CARGO_BIN_EXE_amc-paxos-coord"))
        .args([
            "--sites",
            &addr_list,
            "--acceptors",
            &TCP_SITES.to_string(),
            "--txns",
            "6",
            "--objects",
            &TCP_OBJS.to_string(),
            "--no-load",
            "--first-gtx",
            "1000",
        ])
        .output()
        .expect("run replacement amc-paxos-coord");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "replacement coordinator failed: {stdout}"
    );
    assert!(
        stdout.contains("done committed="),
        "replacement coordinator never finished: {stdout}"
    );

    // Conservation across the kill: every site's books, summed, are
    // exactly the initial load.
    let mut sum = 0i64;
    for s in 1..=TCP_SITES {
        match transport.admin(site(s), AdminRequest::Dump) {
            Ok(AdminReply::Dump(state)) => {
                sum += state
                    .iter()
                    .filter(|(o, _)| !is_marker(**o))
                    .map(|(_, v)| v.counter)
                    .sum::<i64>();
            }
            other => panic!("dump site {s}: {other:?}"),
        }
    }
    assert_eq!(
        sum,
        i64::from(TCP_SITES) * TCP_OBJS as i64 * 100,
        "global sum not conserved across the coordinator kill"
    );
    drop(procs);
    let _ = std::fs::remove_dir_all(&dir);
}
