//! Sandbox probes taken before each run, so a run on a noisy machine can
//! be told apart: one real fsync in the run directory and one idle
//! loopback round trip.

use crate::stats::median;
use amc_engine::{TplConfig, TwoPLEngine};
use amc_net::comm::SubmitMode;
use amc_net::transport::AdminRequest;
use amc_net::{EngineHandle, LocalCommManager};
use amc_obs::ObsSink;
use amc_rpc::{EventServer, MuxClient, RetryPolicy};
use amc_types::{AmcError, AmcResult, SiteId};
use amc_wal::DurableFile;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Median µs of `n` `DurableFile` append+force rounds in `dir`.
pub fn device_fsync_us(dir: &Path, n: usize) -> AmcResult<f64> {
    let path = dir.join("fsync-probe.dat");
    let mut file = DurableFile::open(&path)?.file;
    let frame = amc_wal::durable::frame(&[0u8; 64]);
    let mut samples = Vec::with_capacity(n);
    for _ in 0..n {
        file.append(&frame);
        let t0 = Instant::now();
        file.sync();
        samples.push(t0.elapsed().as_nanos() as f64 / 1e3);
    }
    drop(file);
    let _ = std::fs::remove_file(&path);
    Ok(median(&samples))
}

/// Median µs of `n` admin `Ping`s to an idle in-process `EventServer`
/// over one multiplexed loopback connection.
pub fn idle_ping_us(n: usize) -> AmcResult<f64> {
    let site = SiteId::new(1);
    let engine = Arc::new(TwoPLEngine::new_at(TplConfig::default(), site));
    let manager = Arc::new(LocalCommManager::new(
        site,
        EngineHandle::Preparable(engine),
    ));
    let server = EventServer::spawn(
        site,
        manager,
        SubmitMode::TwoPhase,
        "127.0.0.1:0",
        ObsSink::disabled(),
    )
    .map_err(|e| AmcError::TransientIo(format!("probe server: {e}")))?;
    let client = MuxClient::new(
        site,
        server.addr(),
        RetryPolicy::default(),
        ObsSink::disabled(),
    );
    // The first call dials the connection; keep it out of the samples.
    client.admin(AdminRequest::Ping)?;
    let mut samples = Vec::with_capacity(n);
    for _ in 0..n {
        let t0 = Instant::now();
        client.admin(AdminRequest::Ping)?;
        samples.push(t0.elapsed().as_nanos() as f64 / 1e3);
    }
    drop(client);
    server.shutdown();
    Ok(median(&samples))
}
