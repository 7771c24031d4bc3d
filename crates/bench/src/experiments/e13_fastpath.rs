//! **E13 — the fast-path commit layer: vote piggyback + single-site
//! bypass** (amc-core).
//!
//! Sweep the single-site fraction of a disjoint transfer workload from 0%
//! to 100% and run each point through four commit layers: fast-path 2PC
//! (the tentpole: `SubmitPrepare` piggybacks the vote on the final op
//! dispatch, and single-site transactions bypass the global round
//! entirely) against the three baselines — classic 2PC, commit-after and
//! commit-before — on both wires (in-process dispatch and loopback TCP).
//!
//! The claimed shapes:
//!
//! * the piggyback saves one round trip per multi-site transaction —
//!   fast-path msgs/txn sits below classic 2PC at **every** sweep point
//!   (8 vs 12 for a pure 2-site mix), and the gap is at least the two
//!   messages of the folded prepare round;
//! * a 100%-single-site mix commits with **zero** global rounds — the
//!   solo dispatch and its reply are the only messages (2/txn, against
//!   classic 2PC's 6).

use crate::setup::ProgramBatch;
use crate::table::{opt2, TextTable};
use amc_core::{submit_mode_for, Federation, FederationConfig};
use amc_engine::{TplConfig, TwoPLEngine};
use amc_mlt::ConflictPolicy;
use amc_net::comm::EngineHandle;
use amc_net::LocalCommManager;
use amc_types::{ObjectId, Operation, ProtocolKind, SiteId, Value};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

pub use super::e10_rpc::Wire;

const SITES: u32 = 2;
const PER_OBJ: i64 = 100;

/// The commit layer a cell runs: the fast path or one of its baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// 2PC with the fast path on: vote piggyback + single-site bypass.
    FastPath,
    /// Classic 2PC — explicit work, prepare and decision rounds.
    Classic2pc,
    /// Commit-after (redo recovery), the paper's §3.2 baseline.
    CommitAfter,
    /// Commit-before (undo recovery), the paper's §3.3 baseline.
    CommitBefore,
}

impl Layer {
    /// Every layer, fast path first.
    pub const ALL: [Layer; 4] = [
        Layer::FastPath,
        Layer::Classic2pc,
        Layer::CommitAfter,
        Layer::CommitBefore,
    ];

    /// Short label for the table.
    pub fn label(self) -> &'static str {
        match self {
            Layer::FastPath => "2pc+fast-path",
            Layer::Classic2pc => "2pc",
            Layer::CommitAfter => "commit-after",
            Layer::CommitBefore => "commit-before",
        }
    }

    fn protocol(self) -> ProtocolKind {
        match self {
            Layer::FastPath | Layer::Classic2pc => ProtocolKind::TwoPhaseCommit,
            Layer::CommitAfter => ProtocolKind::CommitAfter,
            Layer::CommitBefore => ProtocolKind::CommitBefore,
        }
    }
}

/// One measured point.
#[derive(Debug, Clone)]
pub struct Row {
    /// Percentage of single-site transactions in the mix.
    pub pct_single: usize,
    /// Commit layer under test.
    pub layer: Layer,
    /// Transport under test.
    pub wire: Wire,
    /// Commits achieved.
    pub committed: u64,
    /// Protocol messages per committed transaction.
    pub msgs_per_txn: Option<f64>,
    /// Median commit latency, ms.
    pub p50_ms: Option<f64>,
    /// Tail commit latency, ms.
    pub p99_ms: Option<f64>,
}

fn obj(site: u32, i: u64) -> ObjectId {
    ObjectId::new(u64::from(site) * (1 << 32) + i)
}

/// Disjoint sum-neutral programs: transaction *i* touches only its own
/// objects, so the measured cost is the message path, not lock queueing.
/// `pct_single` percent of the mix (interleaved, not front-loaded) are
/// single-site two-op updates; the rest are 2-site transfers.
fn programs(txns: usize, pct_single: usize) -> ProgramBatch {
    (0..txns)
        .map(|i| {
            let i_u = i as u64;
            let per_site = if (i % 100) < pct_single {
                let s = (i as u32 % SITES) + 1;
                BTreeMap::from([(
                    SiteId::new(s),
                    vec![
                        Operation::Increment {
                            obj: obj(s, i_u),
                            delta: 3,
                        },
                        Operation::Increment {
                            obj: obj(s, txns as u64 + i_u),
                            delta: -3,
                        },
                    ],
                )])
            } else {
                BTreeMap::from([
                    (
                        SiteId::new(1),
                        vec![Operation::Increment {
                            obj: obj(1, i_u),
                            delta: -3,
                        }],
                    ),
                    (
                        SiteId::new(2),
                        vec![Operation::Increment {
                            obj: obj(2, i_u),
                            delta: 3,
                        }],
                    ),
                ])
            };
            (per_site, false)
        })
        .collect()
}

/// Engines with no modelled delays, as in E10: the fast path's win is
/// fewer message rounds, so nothing synthetic is added on either wire.
fn managers() -> BTreeMap<SiteId, Arc<LocalCommManager>> {
    (1..=SITES)
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

/// Run one (layer, wire, single-site fraction) cell and return its row.
fn run_cell(layer: Layer, wire: Wire, pct_single: usize, txns: usize, clients: usize) -> Row {
    let protocol = layer.protocol();
    let mode = submit_mode_for(protocol);
    let managers = managers();

    let (transport, servers) = wire.transport(&managers, mode);

    let mut cfg = FederationConfig::uniform(SITES, protocol);
    if layer == Layer::FastPath {
        cfg = cfg.with_fast_path();
    }
    cfg.policy = ConflictPolicy::Semantic;
    cfg.l1_timeout = Duration::from_millis(500);
    let mut fed = Federation::with_transport(cfg, transport);
    fed.set_recording(false, false);
    let fed = Arc::new(fed);
    for s in 1..=SITES {
        let data: Vec<(ObjectId, Value)> = (0..2 * txns as u64)
            .map(|i| (obj(s, i), Value::counter(PER_OBJ)))
            .collect();
        fed.load_site(SiteId::new(s), &data).expect("load");
    }

    let m = fed.run_concurrent(programs(txns, pct_single), clients);
    drop(fed);
    for srv in servers {
        srv.shutdown();
    }
    Row {
        pct_single,
        layer,
        wire,
        committed: m.committed,
        msgs_per_txn: m.messages_per_commit(),
        p50_ms: m.latency_p50_ms(),
        p99_ms: m.latency_p99_ms(),
    }
}

/// The sweep points: single-site fraction 0% → 100%.
pub const SWEEP: [usize; 5] = [0, 25, 50, 75, 100];

/// Run the sweep.
pub fn run(txns: usize, clients: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    for wire in [Wire::InProcess, Wire::TcpLoopback] {
        for pct in SWEEP {
            for layer in Layer::ALL {
                rows.push(run_cell(layer, wire, pct, txns, clients));
            }
        }
    }
    rows
}

/// Render as the report table.
pub fn table(rows: &[Row]) -> TextTable {
    let mut t = TextTable::new(
        "E13 — fast-path commit layer: vote piggyback + single-site bypass",
        &[
            "single %", "layer", "wire", "commits", "msg/txn", "p50 ms", "p99 ms",
        ],
    );
    for r in rows {
        t.row(vec![
            r.pct_single.to_string(),
            r.layer.label().to_string(),
            r.wire.label().to_string(),
            r.committed.to_string(),
            opt2(r.msgs_per_txn),
            opt2(r.p50_ms),
            opt2(r.p99_ms),
        ]);
    }
    t
}

/// The shape checks for this experiment.
pub fn verdicts(rows: &[Row]) -> Vec<String> {
    let mut out = Vec::new();
    let cell = |layer: Layer, wire: Wire, pct: usize| {
        rows.iter()
            .find(|r| r.layer == layer && r.wire == wire && r.pct_single == pct)
    };

    // E13-1: every (layer, wire, fraction) cell commits.
    let all_commit = rows.iter().all(|r| r.committed > 0);
    out.push(format!(
        "[{}] E13-1: every (layer, wire, fraction) cell commits transactions ({} cells)",
        if all_commit { "PASS" } else { "FAIL" },
        rows.len(),
    ));

    // E13-2: the piggyback saves at least one round trip per multi-site
    // transaction — fast-path msgs/txn < classic 2PC at EVERY sweep
    // point on both wires, by >= 2 messages whenever the mix has
    // multi-site transactions.
    let mut points = 0;
    let mut saved = 0;
    for wire in [Wire::InProcess, Wire::TcpLoopback] {
        for pct in SWEEP {
            let (fast, classic) = (
                cell(Layer::FastPath, wire, pct).and_then(|r| r.msgs_per_txn),
                cell(Layer::Classic2pc, wire, pct).and_then(|r| r.msgs_per_txn),
            );
            if let (Some(f), Some(c)) = (fast, classic) {
                points += 1;
                let margin = if pct < 100 { 2.0 } else { 0.0 };
                if f < c && c - f >= margin {
                    saved += 1;
                }
            }
        }
    }
    out.push(format!(
        "[{}] E13-2: fast-path msgs/txn < classic 2pc at every sweep point ({saved}/{points})",
        if points == 10 && saved == points {
            "PASS"
        } else {
            "FAIL"
        },
    ));

    // E13-3: a 100%-single-site mix commits with zero global rounds —
    // the solo dispatch and its reply are the only messages.
    let mut solo_ok = true;
    for wire in [Wire::InProcess, Wire::TcpLoopback] {
        match cell(Layer::FastPath, wire, 100).and_then(|r| r.msgs_per_txn) {
            Some(m) if m <= 2.0 + 1e-9 => {}
            _ => solo_ok = false,
        }
    }
    out.push(format!(
        "[{}] E13-3: 100% single-site commits at 2 msgs/txn — no global round ({} / {})",
        if solo_ok { "PASS" } else { "FAIL" },
        opt2(cell(Layer::FastPath, Wire::InProcess, 100).and_then(|r| r.msgs_per_txn)),
        opt2(cell(Layer::FastPath, Wire::TcpLoopback, 100).and_then(|r| r.msgs_per_txn)),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_pins_the_fast_path_shapes() {
        let rows = run(40, 4);
        assert_eq!(rows.len(), 2 * SWEEP.len() * Layer::ALL.len());
        for v in verdicts(&rows) {
            assert!(v.starts_with("[PASS]"), "{v}");
        }
        // The exact failure-free message counts: a pure 2-site mix costs
        // the fast path 8 msgs/txn against classic 2PC's 12; a pure
        // single-site mix costs 2 against 6.
        let cell = |layer: Layer, pct: usize| {
            rows.iter()
                .find(|r| r.layer == layer && r.wire == Wire::InProcess && r.pct_single == pct)
                .and_then(|r| r.msgs_per_txn)
                .unwrap()
        };
        assert_eq!(cell(Layer::FastPath, 0), 8.0);
        assert_eq!(cell(Layer::Classic2pc, 0), 12.0);
        assert_eq!(cell(Layer::FastPath, 100), 2.0);
        assert_eq!(cell(Layer::Classic2pc, 100), 6.0);
    }
}
