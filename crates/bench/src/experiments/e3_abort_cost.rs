//! **E3 — intended-abort crossover** (§4.3 / claim C3-b).
//!
//! "The only drawback of commitment before global decision is the overhead
//! in case of an intended local transaction abort ... Intended transaction
//! aborts are handled better if local transactions are committed after the
//! global decision is made." Sweep the intended-abort rate and measure both
//! portable protocols: commit-before pays inverse transactions per abort;
//! commit-after aborts running locals for free. The shape to reproduce: the
//! commit-before advantage shrinks (or inverts) as the abort rate grows.
//!
//! Where the failing read sits matters. The shared generator files it at
//! the transaction's *first* participant; the coordinator contacts sites
//! in ascending order and stops the work round at the first no vote, so
//! by then no other site has run anything and commit-before has nothing to
//! undo. A second lane moves the failing read to the *last* participant,
//! after every other site has run and (under commit-before) committed its
//! local transaction — the case the paper's undo cost is about. C3b-1..3
//! judge the shared generator's lane; C3b-4/5 judge the last-site lane.

use crate::setup::{build_federation, program_batch, ProgramBatch};
use crate::table::{f2, f3, opt2, TextTable};
use amc_mlt::ConflictPolicy;
use amc_types::{Operation, ProtocolKind};
use amc_workload::{object, OpMix, WorkloadSpec};

/// Which participant an intended abort's failing read is filed at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailAt {
    /// The first participant, as the shared generator files it.
    FirstSite,
    /// The last participant, after every other site has run.
    LastSite,
}

impl FailAt {
    fn label(self) -> &'static str {
        match self {
            FailAt::FirstSite => "first",
            FailAt::LastSite => "last",
        }
    }
}

/// One measured point.
#[derive(Debug, Clone)]
pub struct Row {
    /// Where intended aborts fail.
    pub fail_at: FailAt,
    /// Protocol.
    pub protocol: ProtocolKind,
    /// Intended abort probability in the workload.
    pub abort_rate: f64,
    /// All-transaction completion rate (commits + aborts) per second —
    /// aborted work still costs time.
    pub completions_per_s: f64,
    /// Inverse transactions executed per intended abort.
    pub undos_per_abort: f64,
    /// Median commit latency (ms); `None` when nothing committed.
    pub latency_p50_ms: Option<f64>,
    /// Tail (p99) commit latency (ms); `None` when nothing committed.
    pub latency_p99_ms: Option<f64>,
    /// Commits achieved.
    pub committed: u64,
    /// Intended aborts observed.
    pub aborted: u64,
}

fn spec(abort_prob: f64) -> WorkloadSpec {
    WorkloadSpec {
        sites: 3,
        objects_per_site: 512,
        zipf_theta: 0.0,
        ops_per_txn: 6,
        sites_per_txn: 2,
        mix: OpMix::MIXED,
        intended_abort_prob: abort_prob,
    }
}

/// The generator's failing-read index, far beyond anything ever loaded.
fn poison_index(spec: &WorkloadSpec) -> u64 {
    spec.objects_per_site + 1_000_000
}

/// Move every intended-abort program's failing read from its first
/// participant, where the shared generator files it, to its last.
fn fail_at_last_site(batch: &mut ProgramBatch, spec: &WorkloadSpec) {
    for (per_site, _) in batch.iter_mut().filter(|(_, intends_abort)| *intends_abort) {
        let first = *per_site.keys().next().expect("programs are never empty");
        let last = *per_site
            .keys()
            .next_back()
            .expect("programs are never empty");
        if first == last {
            continue;
        }
        let ops = per_site.get_mut(&first).expect("first participant");
        assert_eq!(
            ops.pop(),
            Some(Operation::Read {
                obj: object(first, poison_index(spec))
            }),
            "the generator files the failing read last at the first participant",
        );
        if ops.is_empty() {
            per_site.remove(&first);
        }
        per_site
            .get_mut(&last)
            .expect("last participant")
            .push(Operation::Read {
                obj: object(last, poison_index(spec)),
            });
    }
}

/// Run the sweep, both failure placements.
pub fn run(txns: usize, threads: usize, abort_rates: &[f64]) -> Vec<Row> {
    let mut rows = Vec::new();
    for fail_at in [FailAt::FirstSite, FailAt::LastSite] {
        for &rate in abort_rates {
            for protocol in [ProtocolKind::CommitBefore, ProtocolKind::CommitAfter] {
                rows.push(run_one(fail_at, protocol, rate, txns, threads));
            }
        }
    }
    rows
}

fn run_one(fail_at: FailAt, protocol: ProtocolKind, rate: f64, txns: usize, threads: usize) -> Row {
    let spec = spec(rate);
    let fed = build_federation(protocol, ConflictPolicy::Semantic, &spec);
    let mut batch = program_batch(&spec, 3_000, txns);
    if fail_at == FailAt::LastSite {
        fail_at_last_site(&mut batch, &spec);
    }
    let m = fed.run_concurrent(batch, threads);
    let aborted = m.aborted_intended;
    Row {
        fail_at,
        protocol,
        abort_rate: rate,
        completions_per_s: if m.wall.is_zero() {
            0.0
        } else {
            (m.committed + m.aborted_intended + m.aborted_erroneous) as f64 / m.wall.as_secs_f64()
        },
        undos_per_abort: if aborted > 0 {
            m.undo_runs as f64 / aborted as f64
        } else {
            0.0
        },
        latency_p50_ms: m.latency_p50_ms(),
        latency_p99_ms: m.latency_p99_ms(),
        committed: m.committed,
        aborted,
    }
}

/// Render the report table.
pub fn table(rows: &[Row]) -> TextTable {
    let mut t = TextTable::new(
        "E3 — intended-abort handling: commit-before pays undo, commit-after aborts for free",
        &[
            "fails at",
            "abort-rate",
            "protocol",
            "completions/s",
            "undos/abort",
            "lat p50 ms",
            "lat p99 ms",
            "commits",
            "aborts",
        ],
    );
    for r in rows {
        t.row(vec![
            r.fail_at.label().to_string(),
            f2(r.abort_rate),
            r.protocol.label().to_string(),
            f2(r.completions_per_s),
            f3(r.undos_per_abort),
            opt2(r.latency_p50_ms),
            opt2(r.latency_p99_ms),
            r.committed.to_string(),
            r.aborted.to_string(),
        ]);
    }
    t
}

/// Shape checks: C3b-1..3 on the shared generator's lane (failure at
/// the first participant), C3b-4/5 on the last-site lane.
pub fn verdicts(rows: &[Row]) -> Vec<String> {
    let lane = |fail_at: FailAt| -> Vec<Row> {
        rows.iter()
            .filter(|r| r.fail_at == fail_at)
            .cloned()
            .collect()
    };
    let first = lane(FailAt::FirstSite);
    let last = lane(FailAt::LastSite);
    let mut out = Vec::new();
    if let Some((cb, ca)) = high_rate_pair(&first) {
        out.push(format!(
            "[{}] C3b-1: commit-before runs inverse txns on intended aborts ({:.2}/abort)",
            pass(cb.undos_per_abort > 0.0),
            cb.undos_per_abort,
        ));
        out.push(format!(
            "[{}] C3b-2: commit-after needs no undo machinery ({:.2}/abort)",
            pass(ca.undos_per_abort == 0.0),
            ca.undos_per_abort,
        ));
    }
    if let (Some(lo), Some(hi)) = (edge_at(&first, true), edge_at(&first, false)) {
        out.push(format!(
            "[{}] C3b-3: commit-before's edge shrinks as the abort rate grows (ratio {:.2} -> {:.2})",
            pass(hi < lo),
            lo,
            hi,
        ));
    }
    if let Some((cb, _)) = high_rate_pair(&last) {
        out.push(format!(
            "[{}] C3b-4: failing at the last site, commit-before runs inverse txns ({:.2}/abort)",
            pass(cb.undos_per_abort > 0.0),
            cb.undos_per_abort,
        ));
    }
    if let (Some(lo), Some(hi)) = (edge_at(&last, true), edge_at(&last, false)) {
        out.push(format!(
            "[{}] C3b-5: failing at the last site, commit-before's edge shrinks (ratio {:.2} -> {:.2})",
            pass(hi < lo),
            lo,
            hi,
        ));
    }
    out
}

fn pass(ok: bool) -> &'static str {
    if ok {
        "PASS"
    } else {
        "FAIL"
    }
}

/// The (commit-before, commit-after) rows at the first rate >= 0.3.
/// Commit-before must run >= 1 inverse transaction per intended abort
/// with committed locals; commit-after must run none.
fn high_rate_pair(rows: &[Row]) -> Option<(&Row, &Row)> {
    let pick = |p: ProtocolKind| rows.iter().find(|r| r.protocol == p && r.abort_rate >= 0.3);
    Some((
        pick(ProtocolKind::CommitBefore)?,
        pick(ProtocolKind::CommitAfter)?,
    ))
}

/// Commit-before's completion rate over commit-after's, at the lowest
/// (<= 0.01) or a high (>= 0.3) abort rate. The gap must shrink as
/// aborts rise.
fn edge_at(rows: &[Row], rate_lo: bool) -> Option<f64> {
    let pick = |p: ProtocolKind| {
        rows.iter().filter(|r| r.protocol == p).find(|r| {
            if rate_lo {
                r.abort_rate <= 0.01
            } else {
                r.abort_rate >= 0.3
            }
        })
    };
    let cb = pick(ProtocolKind::CommitBefore)?;
    let ca = pick(ProtocolKind::CommitAfter)?;
    Some(cb.completions_per_s / ca.completions_per_s.max(1e-9))
}

#[cfg(test)]
mod tests {
    use super::*;
    use amc_types::SiteId;

    #[test]
    fn the_last_site_lane_moves_only_the_failing_read() {
        let spec = spec(0.5);
        let shared = program_batch(&spec, 3_000, 64);
        let mut moved = shared.clone();
        fail_at_last_site(&mut moved, &spec);
        let poison = |site: SiteId| Operation::Read {
            obj: object(site, poison_index(&spec)),
        };
        let mut aborts = 0;
        for ((before, intends_abort), (after, _)) in shared.iter().zip(&moved) {
            if !intends_abort {
                assert_eq!(before, after);
                continue;
            }
            aborts += 1;
            let first = *before.keys().next().unwrap();
            let last = *before.keys().next_back().unwrap();
            assert_eq!(before[&first].last(), Some(&poison(first)));
            assert_eq!(after[&last].last(), Some(&poison(last)));
            assert!(after
                .get(&first)
                .is_none_or(|ops| !ops.contains(&poison(first))));
        }
        assert!(aborts > 0);
    }
}
