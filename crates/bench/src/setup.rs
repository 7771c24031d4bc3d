//! Shared experiment setup: build loaded federations and program batches.

use amc_core::{Federation, FederationConfig, ProtocolKind};
use amc_engine::TplConfig;
use amc_mlt::ConflictPolicy;
use amc_types::{Operation, SiteId};
use amc_wal::GroupCommitConfig;
use amc_workload::{GlobalProgram, MixGen, MixKind, MixSpec, WorkloadGen, WorkloadSpec};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// A program batch in the form `run_concurrent` consumes.
pub type ProgramBatch = Vec<(BTreeMap<SiteId, Vec<Operation>>, bool)>;

/// The benchmark tuning every throughput experiment shares: short lock
/// timeouts so contention resolves quickly, modelled 1991-scale service
/// and message costs so protocol lock tenure matters. Factored out so
/// E15 can apply identical tuning to `MixSpec`-driven federations.
pub fn tuned_config(
    sites: u32,
    protocol: ProtocolKind,
    policy: ConflictPolicy,
) -> FederationConfig {
    let mut cfg = FederationConfig::uniform(sites, protocol);
    cfg.policy = policy;
    cfg.tpl = TplConfig {
        buckets: 128,
        pool_frames: 256,
        // Short: timed-out waiters retry or give up quickly, so the rare
        // cross-site lock cycle between a mandatory redo and a pre-vote
        // submit resolves in milliseconds.
        lock_timeout: Duration::from_millis(100),
        deadlock_check: Duration::from_millis(1),
        // Local work is not free in 1991: ~50 µs per operation, so a
        // repeated execution (redo) has a visible cost.
        op_service_time: Duration::from_micros(50),
        // Commit-record forces cost a modelled ~0.5 ms of "disk" (a 1991
        // fsync is not free either), and leaders linger briefly so
        // concurrent committers share one force — the group-commit
        // amortization E9 measures.
        group_commit: GroupCommitConfig {
            force_latency: Duration::from_micros(500),
            max_wait: Duration::from_micros(200),
            ..GroupCommitConfig::default()
        },
    };
    cfg.l1_timeout = Duration::from_millis(500);
    // One coordinator<->site exchange costs ~0.15 ms *per leg* (the delay
    // applies to the request and the reply symmetrically, so a round trip
    // is ~0.3 ms) — the 1991-scale ratio of communication to local work
    // that makes lock tenure matter.
    cfg.message_delay = Duration::from_micros(150);
    cfg
}

/// Build a federation for `protocol` with `policy`, engines tuned for
/// benchmarking ([`tuned_config`]), and every site pre-loaded with the
/// spec's initial data.
pub fn build_federation(
    protocol: ProtocolKind,
    policy: ConflictPolicy,
    spec: &WorkloadSpec,
) -> Arc<Federation> {
    let cfg = tuned_config(spec.sites, protocol, policy);
    let mut fed = Federation::new(cfg);
    // Benchmarks skip the oracle bookkeeping; correctness runs (E6)
    // re-enable it explicitly.
    fed.set_recording(false, false);
    for s in 1..=spec.sites {
        let site = SiteId::new(s);
        fed.load_site(site, &spec.initial_data(site)).expect("load");
    }
    Arc::new(fed)
}

/// Same, with recording on (oracle experiments).
pub fn build_recording_federation(
    protocol: ProtocolKind,
    policy: ConflictPolicy,
    spec: &WorkloadSpec,
) -> Arc<Federation> {
    let mut cfg = FederationConfig::uniform(spec.sites, protocol);
    cfg.policy = policy;
    cfg.l1_timeout = Duration::from_millis(500);
    cfg.tpl.lock_timeout = Duration::from_millis(500);
    let fed = Federation::new(cfg);
    for s in 1..=spec.sites {
        let site = SiteId::new(s);
        fed.load_site(site, &spec.initial_data(site)).expect("load");
    }
    Arc::new(fed)
}

/// Generate `n` programs as a batch.
pub fn program_batch(spec: &WorkloadSpec, seed: u64, n: usize) -> ProgramBatch {
    let mut gen = WorkloadGen::new(spec.clone(), seed);
    gen.programs(n)
        .into_iter()
        .map(|p: GlobalProgram| (p.per_site, p.intends_abort))
        .collect()
}

/// Generate `n` programs of a contention-aware mix as a batch (E15).
pub fn mix_batch(kind: MixKind, spec: &MixSpec, seed: u64, n: usize) -> ProgramBatch {
    let mut gen = MixGen::new(kind, spec.clone(), seed);
    gen.programs(n)
        .into_iter()
        .map(|p: GlobalProgram| (p.per_site, p.intends_abort))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_run_smoke() {
        let spec = WorkloadSpec {
            sites: 2,
            objects_per_site: 50,
            ops_per_txn: 4,
            ..WorkloadSpec::default()
        };
        let fed = build_federation(ProtocolKind::CommitBefore, ConflictPolicy::Semantic, &spec);
        let batch = program_batch(&spec, 1, 10);
        assert_eq!(batch.len(), 10);
        let metrics = fed.run_concurrent(batch, 2);
        assert!(metrics.committed > 0);
    }
}
