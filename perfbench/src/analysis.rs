//! Turns a traced phase's spans and counter deltas into per-layer metrics.

use crate::deploy::Deployment;
use crate::stats::{percentile, self_time, union_len};
use crate::trace::{CallSpan, SiteOp, SiteSpan, Tracer, KINDS};
use amc_rpc::wire::{decode_frame, encode_frame, Frame};
use amc_types::{GlobalTxnId, SiteId};
use std::collections::HashMap;
use std::time::Instant;

/// A named metric with its unit and an optional sample note.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Percentile and sample count, for percentile metrics.
    pub note: String,
}

/// An ordered list of metrics.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// A plain value.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
            note: String::new(),
        });
    }

    /// A percentile of `samples` (0 with n=0 when empty), by the rule in
    /// [`percentile`].
    pub fn pct(&mut self, name: impl Into<String>, samples: &[f64], q: f64, unit: &'static str) {
        let (value, note) = match percentile(samples, q) {
            Some(p) => (p.value, format!("p{:.1} n={}", p.pct, p.n)),
            None => (0.0, "n=0".to_string()),
        };
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
            note,
        });
    }

    /// The value of `name` (0 if absent).
    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    }
}

/// Counters read from the deployment around the traced phase.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    l1: amc_lock::LockStats,
    comm: amc_net::CommStats,
    log: amc_wal::LogStats,
    l0_waits: u64,
    l0_victims: u64,
    buf_hits: u64,
    buf_misses: u64,
    paxos_frames: u64,
    paxos_fsyncs: u64,
    sheds: u64,
}

/// Read every counter the per-layer metrics use.
pub fn counters(dep: &Deployment) -> Counters {
    let mut c = Counters {
        l1: dep.fed.l1_stats(),
        comm: dep.fed.comm_stats(),
        log: dep.fed.log_stats(),
        sheds: dep.transport.load_sheds(),
        ..Counters::default()
    };
    for e in dep.engines.values() {
        let l = e.lock_stats();
        c.l0_waits += l.waits;
        c.l0_victims += l.victims;
        let (_, buf) = e.io_stats();
        c.buf_hits += buf.hits;
        c.buf_misses += buf.misses;
    }
    if let Some(px) = &dep.acceptors {
        for s in 1..=3 {
            if let Some(h) = px.host(SiteId::new(s)) {
                // Without a linger (the benchmark's setting) every frame
                // paid its own fsync and `group_fsyncs` stays 0.
                let frames = h.log_frames() as u64;
                c.paxos_frames += frames;
                c.paxos_fsyncs += match h.group_fsyncs() {
                    0 => frames,
                    g => g,
                };
            }
        }
    }
    c
}

/// What the traced phase measured, besides the spans.
pub struct PhaseFacts {
    /// Committed programs in the traced phase.
    pub committed: u64,
    /// Programs begun.
    pub programs: u64,
    /// `run_transaction` calls.
    pub attempts: u64,
    /// Messages over all attempts.
    pub messages: u64,
    /// Whether sites sit behind loopback TCP.
    pub tcp: bool,
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Find the call a site span belongs to: the call running on its thread,
/// else a call of its global transaction (carried, or learned from its
/// local transaction) at its site that contains it, else the only call at
/// its site that contains it.
fn attribute(
    span: &SiteSpan,
    by_id: &HashMap<u64, usize>,
    by_gtx_site: &HashMap<(GlobalTxnId, SiteId), Vec<usize>>,
    by_site: &HashMap<SiteId, Vec<usize>>,
    ltx_map: &HashMap<(SiteId, amc_types::LocalTxnId), GlobalTxnId>,
    calls: &[CallSpan],
) -> Option<usize> {
    let contains = |c: &CallSpan| c.start <= span.start && span.end <= c.end;
    if let Some(i) = span.call.and_then(|id| by_id.get(&id)) {
        return Some(*i);
    }
    let gtx = span
        .gtx
        .or_else(|| span.ltx.and_then(|l| ltx_map.get(&(span.site, l)).copied()));
    if let Some(gtx) = gtx {
        if let Some(v) = by_gtx_site.get(&(gtx, span.site)) {
            if let Some(i) = v.iter().find(|&&i| contains(&calls[i])) {
                return Some(*i);
            }
        }
    }
    let site_calls = by_site.get(&span.site)?;
    // Calls sorted by start: scan back from the last one that began
    // before the span, over a bounded window.
    let upto = site_calls.partition_point(|&i| calls[i].start <= span.start);
    let mut found = None;
    for &i in site_calls[..upto].iter().rev().take(64) {
        if contains(&calls[i]) {
            if found.is_some() {
                return None;
            }
            found = Some(i);
        }
    }
    found
}

/// Per-layer metrics from the spans in `tr` plus counter deltas.
pub fn layer_metrics(
    tr: &Tracer,
    facts: &PhaseFacts,
    before: &Counters,
    after: &Counters,
    m: &mut Metrics,
) {
    let calls = tr.calls.lock().expect("tracer lock").clone();
    let site_spans = tr.site.lock().expect("tracer lock").clone();
    let attempts = tr.attempts.lock().expect("tracer lock").clone();
    let programs = tr.programs.lock().expect("tracer lock").clone();
    let ltx_map = tr.ltx_map.lock().expect("tracer lock").clone();
    let per_commit = |x: f64| x / facts.committed.max(1) as f64;

    let mut by_id = HashMap::new();
    let mut by_gtx_site: HashMap<(GlobalTxnId, SiteId), Vec<usize>> = HashMap::new();
    let mut by_gtx: HashMap<GlobalTxnId, Vec<usize>> = HashMap::new();
    let mut by_site: HashMap<SiteId, Vec<usize>> = HashMap::new();
    for (i, c) in calls.iter().enumerate() {
        by_id.insert(c.id, i);
        if let Some(g) = c.gtx {
            by_gtx_site.entry((g, c.site)).or_default().push(i);
            by_gtx.entry(g).or_default().push(i);
        }
        by_site.entry(c.site).or_default().push(i);
    }
    for v in by_site.values_mut() {
        v.sort_by_key(|&i| calls[i].start);
    }

    // Engine and journal spans, grouped under the call that ran them.
    let mut under: Vec<Vec<(u64, u64)>> = vec![Vec::new(); calls.len()];
    let mut journal_under: Vec<Vec<(u64, u64)>> = vec![Vec::new(); calls.len()];
    let mut unattributed = 0u64;
    for e in &site_spans {
        match attribute(e, &by_id, &by_gtx_site, &by_site, &ltx_map, &calls) {
            Some(i) if e.op == SiteOp::Journal => journal_under[i].push((e.start, e.end)),
            Some(i) => under[i].push((e.start, e.end)),
            None => unattributed += 1,
        }
    }

    // Calls: per-kind latency and count, and self time net of site work.
    let mut per_kind: Vec<Vec<f64>> = vec![Vec::new(); KINDS.len()];
    let mut call_self = Vec::with_capacity(calls.len());
    for (i, c) in calls.iter().enumerate() {
        per_kind[c.kind].push(us(c.end - c.start));
        let children: Vec<(u64, u64)> = under[i].iter().chain(&journal_under[i]).copied().collect();
        call_self.push(us(self_time((c.start, c.end), &children)));
    }
    for (k, name) in KINDS.iter().enumerate() {
        m.pct(format!("net.call_us.{name}.p50"), &per_kind[k], 0.5, "us");
        m.pct(format!("net.call_us.{name}.p99"), &per_kind[k], 0.99, "us");
    }
    for (k, name) in KINDS.iter().enumerate() {
        m.put(
            format!("net.calls_per_commit.{name}"),
            per_commit(per_kind[k].len() as f64),
            "count",
        );
    }
    let none: [f64; 0] = [];
    let (comm_self, rpc_self) = if facts.tcp {
        (&none[..], &call_self[..])
    } else {
        (&call_self[..], &none[..])
    };
    m.pct("net.comm_self_us.p50", comm_self, 0.5, "us");
    m.put(
        "net.undo_runs_per_commit",
        per_commit((after.comm.undo_runs - before.comm.undo_runs) as f64),
        "count",
    );
    m.put(
        "net.redo_runs_per_commit",
        per_commit((after.comm.redo_runs - before.comm.redo_runs) as f64),
        "count",
    );
    m.put(
        "net.pre_vote_retries_per_commit",
        per_commit((after.comm.pre_vote_retries - before.comm.pre_vote_retries) as f64),
        "count",
    );
    m.pct("rpc.overhead_us.p50", rpc_self, 0.5, "us");
    m.pct("rpc.overhead_us.p99", rpc_self, 0.99, "us");

    // Attempts: the run_transaction span and its self time.
    let mut attempt_us = Vec::with_capacity(attempts.len());
    let mut attempt_self = Vec::with_capacity(attempts.len());
    for a in &attempts {
        let children: Vec<(u64, u64)> = by_gtx
            .get(&a.gtx)
            .map(|v| v.iter().map(|&i| (calls[i].start, calls[i].end)).collect())
            .unwrap_or_default();
        attempt_us.push(us(a.end - a.start));
        attempt_self.push(us(self_time((a.start, a.end), &children)));
    }
    m.pct("core.attempt_us.p50", &attempt_us, 0.5, "us");
    m.pct("core.attempt_us.p99", &attempt_us, 0.99, "us");
    m.pct("core.self_us.p50", &attempt_self, 0.5, "us");
    m.pct("core.self_us.p99", &attempt_self, 0.99, "us");
    m.put(
        "core.msgs_per_commit",
        per_commit(facts.messages as f64),
        "count",
    );
    m.put(
        "loadgen.attempts_per_program",
        facts.attempts as f64 / facts.programs.max(1) as f64,
        "count",
    );

    // Engine entry points and journal records.
    let site_us = |op: SiteOp| -> Vec<f64> {
        site_spans
            .iter()
            .filter(|e| e.op == op)
            .map(|e| us(e.end - e.start))
            .collect()
    };
    let exec = site_us(SiteOp::Execute);
    let commit = site_us(SiteOp::Commit);
    m.pct("engine.execute_us.p50", &exec, 0.5, "us");
    m.pct("engine.execute_us.p99", &exec, 0.99, "us");
    m.pct(
        "engine.prepare_us.p50",
        &site_us(SiteOp::Prepare),
        0.5,
        "us",
    );
    m.pct("engine.commit_us.p50", &commit, 0.5, "us");
    m.pct("engine.commit_us.p99", &commit, 0.99, "us");
    m.pct("engine.abort_us.p50", &site_us(SiteOp::Abort), 0.5, "us");
    let journal = site_us(SiteOp::Journal);
    m.pct("net.journal_us.p50", &journal, 0.5, "us");
    m.pct("net.journal_us.p99", &journal, 0.99, "us");

    // Split each committed program's latency across the layers: engine
    // spans, journal records, the rest of the transport calls, the rest of
    // the attempts (coordinator driver, L1 locks), and time no span covers.
    let mut attempts_of: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, a) in attempts.iter().enumerate() {
        attempts_of.entry(a.program).or_default().push(i);
    }
    let (mut total, mut att_cov, mut call_cov, mut eng_cov, mut site_cov) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for p in &programs {
        let mut a_iv = Vec::new();
        let mut c_iv = Vec::new();
        let mut e_iv = Vec::new();
        let mut j_iv = Vec::new();
        for &ai in attempts_of.get(&p.program).map_or(&[][..], Vec::as_slice) {
            let a = &attempts[ai];
            a_iv.push((a.start, a.end));
            for &ci in by_gtx.get(&a.gtx).map_or(&[][..], Vec::as_slice) {
                c_iv.push((calls[ci].start, calls[ci].end));
                e_iv.extend(under[ci].iter().copied());
                j_iv.extend(journal_under[ci].iter().copied());
            }
        }
        let clip = |iv: &[(u64, u64)]| -> Vec<(u64, u64)> {
            iv.iter()
                .map(|&(s, e)| (s.max(p.start), e.min(p.end)))
                .collect()
        };
        total += p.end - p.start;
        att_cov += union_len(&clip(&a_iv));
        call_cov += union_len(&clip(&c_iv));
        eng_cov += union_len(&clip(&e_iv));
        e_iv.extend(j_iv);
        site_cov += union_len(&clip(&e_iv));
    }
    let share = |x: u64| 100.0 * x as f64 / total.max(1) as f64;
    m.put("trace.engine_pct", share(eng_cov), "%");
    m.put("trace.journal_pct", share(site_cov - eng_cov), "%");
    m.put(
        "trace.call_self_pct",
        share(call_cov.saturating_sub(site_cov)),
        "%",
    );
    m.put(
        "trace.core_self_pct",
        share(att_cov.saturating_sub(call_cov)),
        "%",
    );
    m.put("trace.unexplained_pct", share(total - att_cov), "%");
    m.put(
        "trace.unattributed_site_spans",
        unattributed as f64,
        "count",
    );

    // Counters.
    let d = |a: u64, b: u64| a.saturating_sub(b) as f64;
    m.put(
        "mlt.l1_requests_per_commit",
        per_commit(d(after.l1.requests, before.l1.requests)),
        "count",
    );
    m.put(
        "mlt.l1_waits_per_commit",
        per_commit(d(after.l1.waits, before.l1.waits)),
        "count",
    );
    m.put(
        "lock.l0_waits_per_commit",
        per_commit(d(after.l0_waits, before.l0_waits)),
        "count",
    );
    m.put(
        "lock.l0_victims",
        d(after.l0_victims, before.l0_victims),
        "count",
    );
    let hits = d(after.buf_hits, before.buf_hits);
    let misses = d(after.buf_misses, before.buf_misses);
    m.put(
        "storage.buffer_hit_ratio",
        hits / (hits + misses).max(1.0),
        "ratio",
    );
    m.put(
        "wal.forces_per_commit",
        per_commit(d(after.log.forces, before.log.forces)),
        "count",
    );
    m.put(
        "wal.commits_per_group_force",
        d(after.log.batched_commits, before.log.batched_commits)
            / d(after.log.group_forces, before.log.group_forces).max(1.0),
        "count",
    );
    m.put(
        "wal.bytes_per_commit",
        per_commit(d(after.log.stable_bytes, before.log.stable_bytes)),
        "bytes",
    );
    m.put(
        "paxos.fsyncs_per_commit",
        per_commit(d(after.paxos_fsyncs, before.paxos_fsyncs)),
        "count",
    );
    m.put(
        "paxos.log_frames_per_commit",
        per_commit(d(after.paxos_frames, before.paxos_frames)),
        "count",
    );
    m.put("rpc.sheds", d(after.sheds, before.sheds), "count");

    // Wire codec: re-run every kept payload pair through the frame codec.
    let pairs = tr.payloads.lock().expect("tracer lock").clone();
    let (mut enc, mut dec, mut bytes) = (Vec::new(), Vec::new(), 0usize);
    if facts.tcp {
        for (i, (req, rep)) in pairs.into_iter().enumerate() {
            let frames = [
                Frame::Request {
                    req_id: i as u64,
                    payload: req,
                },
                Frame::Reply {
                    req_id: i as u64,
                    payload: rep,
                },
            ];
            for f in &frames {
                let t0 = Instant::now();
                let b = std::hint::black_box(encode_frame(std::hint::black_box(f)));
                enc.push(t0.elapsed().as_nanos() as f64);
                let t1 = Instant::now();
                let back = decode_frame(std::hint::black_box(&b)).expect("own frame decodes");
                dec.push(t1.elapsed().as_nanos() as f64);
                assert_eq!(&back, f, "wire codec round trip");
                bytes += b.len();
            }
        }
    }
    m.pct("rpc.encode_ns.p50", &enc, 0.5, "ns");
    m.pct("rpc.decode_ns.p50", &dec, 0.5, "ns");
    let per_call = bytes as f64 / (enc.len() / 2).max(1) as f64;
    m.put(
        "rpc.bytes_per_commit",
        if facts.tcp {
            per_call * per_commit(calls.len() as f64)
        } else {
            0.0
        },
        "bytes",
    );
}
