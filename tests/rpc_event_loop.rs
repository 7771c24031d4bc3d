//! The event-loop runtime and the framing/leak fixes it rides with.
//!
//! Four families:
//!
//! 1. **Slow-writer framing** — a client dribbling a valid frame one
//!    byte per 110 ms (longer than the loop's 100 ms wait tick) must
//!    still be served: the consumed prefix stays buffered in the
//!    connection's frame buffer until the frame completes.
//! 2. **Connection churn** — hundreds of sequential short-lived
//!    connections must not leave hundreds of registered connections
//!    behind; the loop closes each on its peer's EOF.
//! 3. **Pipelining on the event loop** — many requests written
//!    back-to-back on one connection all get answered, matched by
//!    request id regardless of completion order; flooding past the
//!    per-connection in-flight bound is answered with explicit
//!    `BufferExhausted` load-shed replies, not queueing or collapse.
//! 4. **End-to-end over mux** — the full coordinator stack over
//!    [`TcpTransport::new_mux`] against [`EventServer`]s: concurrent
//!    transfer workloads commit, conserve the global sum, and survive a
//!    site-server restart in place.
//! 5. **Misdirected frames** — site servers and coordinator servers share
//!    the loop and differ only in their handler; a frame meant for the
//!    other kind of server closes its own connection, and every other
//!    connection keeps being served.

use amc::core::{submit_mode_for, Federation, FederationConfig, TxnOutcome};
use amc::engine::{LocalEngine, TplConfig, TwoPLEngine};
use amc::net::comm::EngineHandle;
use amc::net::transport::{AdminReply, AdminRequest, FederationTransport};
use amc::net::{LocalCommManager, Payload, SubmitMode};
use amc::obs::ObsSink;
use amc::rpc::wire::{encode_frame, read_frame, write_frame, CoordRequest};
use amc::rpc::{
    CoordClient, CoordInfo, CoordServer, EventServer, Frame, MuxClient, RetryPolicy, TcpTransport,
    MAX_IN_FLIGHT_PER_CONN,
};
use amc::types::{AmcError, GlobalTxnId, ObjectId, Operation, ProtocolKind, SiteId, Value};
use std::collections::BTreeMap;
use std::io::{Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn obj(site: u32, i: u64) -> ObjectId {
    ObjectId::new(u64::from(site) * (1 << 32) + i)
}

fn manager(site: SiteId, lock_timeout: Duration) -> Arc<LocalCommManager> {
    let cfg = TplConfig {
        lock_timeout,
        deadlock_check: Duration::from_millis(1),
        ..TplConfig::default()
    };
    let engine = Arc::new(TwoPLEngine::new(cfg));
    Arc::new(LocalCommManager::new(
        site,
        EngineHandle::Preparable(engine),
    ))
}

fn read_until(stream: &mut TcpStream, deadline: Instant) -> Frame {
    loop {
        match read_frame(stream) {
            Ok(f) => return f,
            Err(e) if e.is_timeout() && Instant::now() < deadline => continue,
            Err(e) => panic!("read: {e}"),
        }
    }
}

// ------------------------------------------------- slow-writer framing --

/// A frame fed one byte per (server) wait-tick window must parse; the
/// consumed prefix survives every tick in between.
#[test]
fn event_server_survives_one_byte_per_timeout_window() {
    let site = SiteId::new(1);
    let srv = EventServer::spawn(
        site,
        manager(site, Duration::from_millis(200)),
        SubmitMode::CommitBefore,
        "127.0.0.1:0",
        ObsSink::disabled(),
    )
    .expect("bind loopback");

    let mut conn = TcpStream::connect(srv.addr()).unwrap();
    let bytes = amc::rpc::wire::encode_frame(&Frame::AdminRequest {
        req_id: 9,
        req: AdminRequest::Ping,
    });
    // One byte per 110 ms: every byte lands in a different 100 ms server
    // wait window, so the loop sees ~as many idle ticks as bytes while
    // the frame accumulates.
    for b in &bytes {
        conn.write_all(std::slice::from_ref(b)).unwrap();
        conn.flush().unwrap();
        std::thread::sleep(Duration::from_millis(110));
    }
    conn.set_read_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    let reply = read_until(&mut conn, Instant::now() + Duration::from_secs(5));
    assert_eq!(
        reply,
        Frame::AdminReply {
            req_id: 9,
            reply: AdminReply::Pong
        }
    );
    srv.shutdown();
}

// ----------------------------------------------------------- churn leak --

/// Several hundred sequential connections must not leave several hundred
/// connections registered with the loop.
#[test]
fn connection_churn_keeps_registered_connections_bounded() {
    let site = SiteId::new(1);
    let srv = EventServer::spawn(
        site,
        manager(site, Duration::from_millis(200)),
        SubmitMode::CommitBefore,
        "127.0.0.1:0",
        ObsSink::disabled(),
    )
    .expect("bind loopback");

    const CHURN: usize = 300;
    for i in 0..CHURN {
        let mut conn = TcpStream::connect(srv.addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        write_frame(
            &mut conn,
            &Frame::AdminRequest {
                req_id: i as u64,
                req: AdminRequest::Ping,
            },
        )
        .unwrap();
        let reply = read_until(&mut conn, Instant::now() + Duration::from_secs(5));
        assert_eq!(reply.req_id(), i as u64);
        // Dropping `conn` closes it; the loop sees EOF and deregisters.
    }
    // Give the loop a moment to process the last few EOFs.
    let deadline = Instant::now() + Duration::from_secs(5);
    while srv.stats().current_connections > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let registered = srv.stats().current_connections;
    assert!(
        registered < (CHURN / 4) as u64,
        "{registered} connections still registered after churning {CHURN} connections"
    );
    srv.shutdown();
}

// ------------------------------------------------ event-loop pipelining --

/// N requests written back-to-back on one connection all come back,
/// matched by request id, regardless of the order the workers finish.
#[test]
fn event_server_answers_pipelined_requests_by_id() {
    let site = SiteId::new(1);
    let srv = EventServer::spawn(
        site,
        manager(site, Duration::from_millis(200)),
        SubmitMode::CommitBefore,
        "127.0.0.1:0",
        ObsSink::disabled(),
    )
    .expect("bind loopback");

    let mut conn = TcpStream::connect(srv.addr()).unwrap();
    conn.set_read_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    // Fewer than the in-flight bound, so none shed. A mix of instant
    // pings and real submits keeps worker completion order honest.
    const N: u64 = 32;
    let mut batch = Vec::new();
    for i in 0..N {
        let frame = if i.is_multiple_of(2) {
            Frame::AdminRequest {
                req_id: 1000 + i,
                req: AdminRequest::Ping,
            }
        } else {
            Frame::Request {
                req_id: 1000 + i,
                payload: Payload::Submit {
                    gtx: GlobalTxnId::new(i),
                    ops: vec![Operation::Read { obj: obj(1, 0) }],
                },
            }
        };
        batch.extend_from_slice(&amc::rpc::wire::encode_frame(&frame));
    }
    conn.write_all(&batch).unwrap();

    let deadline = Instant::now() + Duration::from_secs(10);
    let mut seen = std::collections::BTreeSet::new();
    while seen.len() < N as usize {
        let reply = read_until(&mut conn, deadline);
        assert!(
            (1000..1000 + N).contains(&reply.req_id()),
            "reply to unknown id {}",
            reply.req_id()
        );
        assert!(seen.insert(reply.req_id()), "duplicate reply");
        match reply {
            Frame::AdminReply { .. } | Frame::Reply { .. } => {}
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(srv.stats().load_sheds, 0, "nothing should have shed");
    srv.shutdown();
}

/// Flooding one connection far past the in-flight bound while every
/// worker is wedged behind a lock produces explicit `BufferExhausted`
/// load-shed replies for the excess — the server answers instead of
/// queueing without bound.
#[test]
fn event_server_sheds_load_past_the_in_flight_bound() {
    let site = SiteId::new(1);
    // Two-phase mode: a submit executes and *holds its locks* until the
    // decision, so one committed-to-lock transaction wedges every later
    // submit on the same object for the whole lock timeout.
    let srv = EventServer::spawn(
        site,
        manager(site, Duration::from_secs(3)),
        SubmitMode::TwoPhase,
        "127.0.0.1:0",
        ObsSink::disabled(),
    )
    .expect("bind loopback");

    let mut conn = TcpStream::connect(srv.addr()).unwrap();
    conn.set_read_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    write_frame(
        &mut conn,
        &Frame::Request {
            req_id: 1,
            payload: Payload::Submit {
                gtx: GlobalTxnId::new(1),
                ops: vec![Operation::Increment {
                    obj: obj(1, 0),
                    delta: 1,
                }],
            },
        },
    )
    .unwrap();
    let first = read_until(&mut conn, Instant::now() + Duration::from_secs(5));
    assert!(matches!(first, Frame::Reply { req_id: 1, .. }), "{first:?}");

    // The lock on obj(1,0) is now held. Flood: every one of these blocks
    // a worker (or waits dispatched); past the bound they must shed.
    const FLOOD: u64 = 3 * MAX_IN_FLIGHT_PER_CONN as u64;
    let mut batch = Vec::new();
    for i in 0..FLOOD {
        batch.extend_from_slice(&amc::rpc::wire::encode_frame(&Frame::Request {
            req_id: 100 + i,
            payload: Payload::Submit {
                gtx: GlobalTxnId::new(100 + i),
                ops: vec![Operation::Increment {
                    obj: obj(1, 0),
                    delta: 1,
                }],
            },
        }));
    }
    conn.write_all(&batch).unwrap();

    let deadline = Instant::now() + Duration::from_secs(30);
    let mut shed = 0u64;
    let mut answered = 0u64;
    while answered < FLOOD {
        let reply = read_until(&mut conn, deadline);
        answered += 1;
        if matches!(
            reply,
            Frame::ErrorReply {
                error: AmcError::BufferExhausted,
                ..
            }
        ) {
            shed += 1;
        }
    }
    assert!(
        shed > 0,
        "flooding {FLOOD} requests past the {MAX_IN_FLIGHT_PER_CONN} bound shed nothing"
    );
    assert_eq!(srv.stats().load_sheds, shed, "stats disagree with the wire");
    // Unwedge: abort the lock holder so shutdown isn't stuck behind it.
    write_frame(
        &mut conn,
        &Frame::Request {
            req_id: 2,
            payload: Payload::Decision {
                gtx: GlobalTxnId::new(1),
                verdict: amc::types::GlobalVerdict::Abort,
            },
        },
    )
    .unwrap();
    srv.shutdown();
}

/// A peer that floods requests while never reading a single reply must
/// not grow the server's per-connection write buffer without bound: past
/// `MAX_WBUF_BYTES` of unread replies the server closes the connection —
/// and keeps serving everyone else. Mirrors the slow-writer test above,
/// from the other side of the socket.
#[test]
fn event_server_closes_a_stalled_reader_instead_of_buffering_without_bound() {
    let site = SiteId::new(1);
    let mgr = manager(site, Duration::from_millis(200));
    let srv = EventServer::spawn(
        site,
        Arc::clone(&mgr),
        SubmitMode::CommitBefore,
        "127.0.0.1:0",
        ObsSink::disabled(),
    )
    .expect("bind loopback");
    // A large committed state makes every Dump reply big, so a few
    // unread replies overflow the bound even past the kernel's socket
    // buffers.
    let data: Vec<(ObjectId, Value)> = (0..40_000)
        .map(|i| (obj(1, i), Value::counter(i as i64)))
        .collect();
    mgr.handle().engine().bulk_load(&data).unwrap();

    let mut stalled = TcpStream::connect(srv.addr()).unwrap();
    const DUMPS: u64 = 32;
    let mut batch = Vec::new();
    for i in 0..DUMPS {
        batch.extend_from_slice(&amc::rpc::wire::encode_frame(&Frame::AdminRequest {
            req_id: i,
            req: AdminRequest::Dump,
        }));
    }
    stalled.write_all(&batch).unwrap();
    // Never read. The replies pile up server-side until the bound trips.
    let deadline = Instant::now() + Duration::from_secs(30);
    while srv.stats().wbuf_overflows == 0 {
        assert!(
            Instant::now() < deadline,
            "server never shed the stalled reader: {:?}",
            srv.stats()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    // The stalled connection was closed: draining what the kernel
    // already buffered must end in EOF or a reset, not more replies
    // forever.
    stalled
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut sink = [0u8; 64 * 1024];
    loop {
        match stalled.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => continue,
        }
    }
    // Everyone else is still served.
    let mut probe = TcpStream::connect(srv.addr()).unwrap();
    probe
        .set_read_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    write_frame(
        &mut probe,
        &Frame::AdminRequest {
            req_id: 99,
            req: AdminRequest::Ping,
        },
    )
    .unwrap();
    let reply = read_until(&mut probe, Instant::now() + Duration::from_secs(5));
    assert_eq!(
        reply,
        Frame::AdminReply {
            req_id: 99,
            reply: AdminReply::Pong
        }
    );
    srv.shutdown();
}

// ------------------------------------------------------ mux end-to-end --

/// Hammer the mux client's timeout path: a server whose reply delays
/// straddle the client's request timeout forces constant races between
/// the caller's deadline withdraw and the reader thread's completion.
/// Every call must eventually succeed (retries absorb the genuinely
/// late replies), none may panic, cross replies, or wedge the channel.
#[test]
fn mux_client_survives_short_timeouts_racing_delayed_replies() {
    // A hand-rolled server so the reply delay is controllable: each
    // request is answered from its own thread after a deterministic
    // per-request delay spanning 2..26 ms around the client's 12 ms
    // deadline. Accepts any number of connections so a client redial
    // (poisoned channel) is also served.
    use std::sync::atomic::{AtomicBool, Ordering};
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let server = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            listener.set_nonblocking(true).unwrap();
            std::thread::scope(|scope| {
                while !stop.load(Ordering::Relaxed) {
                    let (stream, _) = match listener.accept() {
                        Ok(s) => s,
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(5));
                            continue;
                        }
                        Err(_) => return,
                    };
                    let stop = Arc::clone(&stop);
                    scope.spawn(move || {
                        stream.set_nonblocking(false).unwrap();
                        let write_half =
                            std::sync::Mutex::new(stream.try_clone().expect("clone socket"));
                        let mut read_half = stream;
                        read_half
                            .set_read_timeout(Some(Duration::from_millis(100)))
                            .unwrap();
                        std::thread::scope(|replies| loop {
                            if stop.load(Ordering::Relaxed) {
                                return;
                            }
                            let frame = match amc::rpc::wire::read_frame(&mut read_half) {
                                Ok(f) => f,
                                Err(e) if e.is_timeout() => continue,
                                Err(_) => return,
                            };
                            let req_id = frame.req_id();
                            let write_half = &write_half;
                            replies.spawn(move || {
                                std::thread::sleep(Duration::from_millis(2 + (req_id * 7) % 25));
                                let _ = write_frame(
                                    &mut *write_half.lock().unwrap(),
                                    &Frame::AdminReply {
                                        req_id,
                                        reply: AdminReply::Pong,
                                    },
                                );
                            });
                        });
                    });
                }
            });
        })
    };

    let policy = RetryPolicy {
        connect_timeout: Duration::from_millis(500),
        request_timeout: Duration::from_millis(12),
        max_attempts: 40,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(4),
    };
    let client = Arc::new(MuxClient::new(
        SiteId::new(1),
        addr,
        policy,
        ObsSink::disabled(),
    ));
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let client = Arc::clone(&client);
            scope.spawn(move || {
                for _ in 0..40 {
                    let reply = client.admin(AdminRequest::Ping).expect("eventually served");
                    assert_eq!(reply, AdminReply::Pong);
                }
            });
        }
    });
    stop.store(true, Ordering::Relaxed);
    drop(client); // closes the socket; the connection handler sees EOF
    server.join().unwrap();
}

/// Many threads calling through ONE `MuxClient` — one socket — all get
/// their own answers back.
#[test]
fn mux_client_multiplexes_concurrent_callers() {
    let site = SiteId::new(1);
    let srv = EventServer::spawn(
        site,
        manager(site, Duration::from_millis(500)),
        SubmitMode::CommitBefore,
        "127.0.0.1:0",
        ObsSink::disabled(),
    )
    .expect("bind loopback");

    let client = Arc::new(MuxClient::new(
        site,
        srv.addr(),
        RetryPolicy::default(),
        ObsSink::disabled(),
    ));
    client
        .admin(AdminRequest::Load(vec![(obj(1, 0), Value::counter(0))]))
        .expect("load");

    std::thread::scope(|scope| {
        for t in 0..16u64 {
            let client = Arc::clone(&client);
            scope.spawn(move || {
                for i in 0..20u64 {
                    let gtx = GlobalTxnId::new(1 + t * 100 + i);
                    let reply = client
                        .call(Payload::Submit {
                            gtx,
                            ops: vec![Operation::Increment {
                                obj: obj(1, 0),
                                delta: 1,
                            }],
                        })
                        .expect("submit");
                    match reply {
                        Payload::Vote { gtx: g, vote } => {
                            assert_eq!(g, gtx, "reply crossed to the wrong caller");
                            assert!(vote.is_yes());
                        }
                        other => panic!("unexpected {other}"),
                    }
                }
            });
        }
    });
    // 16 threads × 20 increments over one socket: all applied.
    match client.admin(AdminRequest::Dump).expect("dump") {
        AdminReply::Dump(d) => assert_eq!(d.get(&obj(1, 0)).map(|v| v.counter), Some(320)),
        other => panic!("unexpected {other:?}"),
    }
    // All of that rode exactly one connection.
    assert_eq!(srv.stats().peak_connections, 1);
    srv.shutdown();
}

/// The full coordinator stack over the mux transport against event-loop
/// servers: concurrent transfers commit, the sum is conserved, and a
/// server restart in place is survived.
#[test]
fn federation_over_mux_and_event_servers_conserves_and_survives_restart() {
    const SITES: u32 = 2;
    const OBJS: u64 = 8;
    const PER_OBJ: i64 = 100;
    let protocol = ProtocolKind::TwoPhaseCommit;
    let mode = submit_mode_for(protocol);

    let mut engines = BTreeMap::new();
    let mut managers = BTreeMap::new();
    let mut servers: BTreeMap<SiteId, EventServer> = BTreeMap::new();
    let mut addrs = BTreeMap::new();
    for s in 1..=SITES {
        let site = SiteId::new(s);
        let cfg = TplConfig {
            lock_timeout: Duration::from_millis(200),
            deadlock_check: Duration::from_millis(1),
            ..TplConfig::default()
        };
        let engine = Arc::new(TwoPLEngine::new(cfg));
        let mgr = Arc::new(LocalCommManager::new(
            site,
            EngineHandle::Preparable(Arc::clone(&engine) as _),
        ));
        let srv = EventServer::spawn(
            site,
            Arc::clone(&mgr),
            mode,
            "127.0.0.1:0",
            ObsSink::disabled(),
        )
        .expect("bind loopback");
        addrs.insert(site, srv.addr());
        engines.insert(site, engine);
        managers.insert(site, mgr);
        servers.insert(site, srv);
    }
    let policy = RetryPolicy {
        connect_timeout: Duration::from_millis(200),
        request_timeout: Duration::from_secs(2),
        max_attempts: 6,
        backoff_base: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(40),
    };
    let transport = Arc::new(TcpTransport::new_mux(addrs, policy, ObsSink::disabled()));
    assert!(transport.supports_pipelining());
    let fed = Arc::new(Federation::with_transport(
        FederationConfig::uniform(SITES, protocol),
        Arc::clone(&transport) as Arc<dyn FederationTransport>,
    ));
    for s in 1..=SITES {
        let data: Vec<(ObjectId, Value)> = (0..OBJS)
            .map(|i| (obj(s, i), Value::counter(PER_OBJ)))
            .collect();
        fed.load_site(SiteId::new(s), &data).expect("load");
    }

    let run = |base: u64, n: u64| {
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for t in 0..4u64 {
                let fed = Arc::clone(&fed);
                handles.push(scope.spawn(move || {
                    let mut committed = 0u64;
                    for i in 0..n {
                        let k = base + t * n + i;
                        let amt = 1 + (k % 5) as i64;
                        let (a, b) = if k.is_multiple_of(2) {
                            (1u32, 2u32)
                        } else {
                            (2, 1)
                        };
                        let program = BTreeMap::from([
                            (
                                SiteId::new(a),
                                vec![Operation::Increment {
                                    obj: obj(a, k % OBJS),
                                    delta: -amt,
                                }],
                            ),
                            (
                                SiteId::new(b),
                                vec![Operation::Increment {
                                    obj: obj(b, (k + 3) % OBJS),
                                    delta: amt,
                                }],
                            ),
                        ]);
                        for attempt in 0..8 {
                            match fed.run_transaction(&program) {
                                Ok(r) => {
                                    if r.outcome == TxnOutcome::Committed {
                                        committed += 1;
                                    }
                                    break;
                                }
                                Err(_) if attempt < 7 => {
                                    std::thread::sleep(Duration::from_millis(50))
                                }
                                Err(e) => panic!("txn {k} never got through: {e}"),
                            }
                        }
                    }
                    committed
                }));
            }
            handles.into_iter().map(|h| h.join().unwrap()).sum::<u64>()
        })
    };

    let before = run(0, 8);
    assert!(before > 0, "nothing committed before restart");

    // Restart site 2's server in place: same manager, same port. The mux
    // client must redial through its retry path.
    let site2 = SiteId::new(2);
    let old = servers.remove(&site2).unwrap();
    let addr = old.addr();
    old.shutdown();
    engines[&site2].crash();
    engines[&site2].recover().expect("recovery");
    let srv = EventServer::spawn(
        site2,
        Arc::clone(&managers[&site2]),
        mode,
        &addr.to_string(),
        ObsSink::disabled(),
    )
    .expect("rebind in place");
    assert_eq!(srv.addr(), addr);
    servers.insert(site2, srv);

    let after = run(1000, 8);
    assert!(after > 0, "nothing committed after restart");

    let dumps = fed.dumps().expect("dumps");
    let sum: i64 = dumps
        .values()
        .flat_map(|d| d.values())
        .map(|v| v.counter)
        .sum();
    assert_eq!(sum, i64::from(SITES) * OBJS as i64 * PER_OBJ);
}

// --------------------------------------------------- misdirected frames --

/// Send `frame` on a fresh connection to `addr` and assert the server
/// closes that connection without answering.
fn assert_misdirected_frame_closes_its_connection(addr: std::net::SocketAddr, frame: &Frame) {
    let mut confused = TcpStream::connect(addr).unwrap();
    confused.write_all(&encode_frame(frame)).unwrap();
    confused
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut buf = [0u8; 1];
    assert_eq!(confused.read(&mut buf).unwrap_or(0), 0, "must be closed");
}

#[test]
fn coordinator_frame_to_a_site_server_closes_only_that_connection() {
    let site = SiteId::new(1);
    let srv = EventServer::spawn(
        site,
        manager(site, Duration::from_millis(200)),
        SubmitMode::CommitBefore,
        "127.0.0.1:0",
        ObsSink::disabled(),
    )
    .expect("bind loopback");
    let client = MuxClient::new(
        site,
        srv.addr(),
        RetryPolicy::default(),
        ObsSink::disabled(),
    );
    assert_eq!(client.admin(AdminRequest::Ping).unwrap(), AdminReply::Pong);
    assert_misdirected_frame_closes_its_connection(
        srv.addr(),
        &Frame::CoordRequest {
            req_id: 1,
            req: CoordRequest::Ping,
        },
    );
    // The established connection is still served, and the coordinator
    // frame never reached a worker.
    assert_eq!(client.admin(AdminRequest::Ping).unwrap(), AdminReply::Pong);
    assert_eq!(srv.stats().dispatched, 2);
    drop(client);
    srv.shutdown();
}

#[test]
fn site_request_to_a_coordinator_server_closes_only_that_connection() {
    let fed = Arc::new(Federation::new(FederationConfig::uniform(
        2,
        ProtocolKind::TwoPhaseCommit,
    )));
    let info = CoordInfo {
        slot: 0,
        coordinators: 1,
        epoch: 1,
        sites: vec![SiteId::new(1), SiteId::new(2)],
    };
    let srv = CoordServer::spawn(fed, info, "127.0.0.1:0").expect("bind loopback");
    let client = CoordClient::new(srv.addr(), RetryPolicy::default());
    client.ping().unwrap();
    assert_misdirected_frame_closes_its_connection(
        srv.addr(),
        &Frame::Request {
            req_id: 1,
            payload: Payload::Prepare {
                gtx: GlobalTxnId::new(1),
            },
        },
    );
    client.ping().unwrap();
    assert_eq!(srv.stats().dispatched, 2);
    drop(client);
    srv.shutdown();
}
