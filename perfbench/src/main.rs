//! Real-cost commit benchmark for the amc federation.
//!
//! ```text
//! amc-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process: it stands the workload's federation up (in-process site
//! servers, real fsync, loopback TCP where the workload says so), drives
//! it from at most two client threads, checks the final state, and
//! prints every metric as `name = value unit`, then one JSON line.
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the
//! traced phase and prints the per-layer metrics. See README.md.

mod analysis;
mod deploy;
mod driver;
mod probe;
mod stats;
mod trace;

use amc_workload::{fingerprint, GlobalProgram};
use analysis::{counters, layer_metrics, Metrics, PhaseFacts};
use deploy::{deploy, reopen, workloads, Deployment, Dumps, Workload};
use driver::{closed_loop, open_loop, Open, Tally};
use stats::{median, poisson_schedule, schedule_hash};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use trace::{Tracer, KINDS};

/// Client threads (closed loop) and generator threads (open loop).
const CLIENTS: usize = 2;
/// Set-ups per end-to-end run: at least `SETUPS_MIN`, more while they
/// have taken less than `SETUP_BUDGET`, at most `SETUPS_MAX`. `setup_s`
/// is their median, so a set-up of a few ms is timed as often as one of a
/// few hundred.
const SETUPS_MIN: usize = 5;
const SETUPS_MAX: usize = 60;
const SETUP_BUDGET: Duration = Duration::from_secs(1);
/// Rounds of the end-to-end run.
const ROUNDS: usize = 8;
/// Programs generated for a closed-loop phase (reused round-robin if a
/// phase ever runs through them).
const POOL: usize = 40_000;
/// Latency limit of the open-loop SLO, ms.
const SLO_P99_MS: f64 = 20.0;
/// Untimed warm-up before measuring.
const WARMUP: Duration = Duration::from_millis(400);
/// A run that has not finished by now is stuck: give up with an error
/// rather than hang past the 180 s a run may take.
const DEADLINE: Duration = Duration::from_secs(170);
/// Rate level names, in `Workload::rates` order.
const LEVELS: [&str; 3] = ["low", "mid", "high"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(val.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if !(1.0..=60.0).contains(&seconds) {
        return Err("--seconds must be within 1..=60".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The seeded inputs of one run, generated before any timing starts.
struct Inputs {
    warmup: Vec<GlobalProgram>,
    closed: Vec<GlobalProgram>,
    /// Per round, per rate level: arrival schedule and the programs it
    /// sends.
    open: Vec<Vec<(Vec<u64>, Vec<GlobalProgram>)>>,
}

fn inputs(w: &Workload, seed: u64, rounds: usize, open_secs: f64) -> Inputs {
    // One continuous stream: warm-up, the closed-loop pool, then each
    // open-loop request, so the mix's program counter keeps rising.
    let mut gen = amc_workload::MixGen::new(w.mix, w.spec.clone(), seed);
    for _ in 0..w.skip {
        gen.next_program();
    }
    let warmup = gen.programs(4_000);
    let closed = gen.programs(POOL);
    let mut arrivals = stats::SplitMix::new(seed ^ 0x0a11_c0de);
    let open = (0..rounds)
        .map(|_| {
            w.rates
                .iter()
                .map(|&rate| {
                    let schedule = poisson_schedule(rate, open_secs, arrivals.next_u64());
                    let programs = gen.programs(schedule.len());
                    (schedule, programs)
                })
                .collect()
        })
        .collect();
    Inputs {
        warmup,
        closed,
        open,
    }
}

/// Each metric's median over the rounds, noting every round's sample.
fn median_of_rounds(rounds: &[Metrics]) -> Metrics {
    let mut out = Metrics::default();
    for first in &rounds[0].0 {
        let values: Vec<f64> = rounds.iter().map(|m| m.get(&first.name)).collect();
        let notes: Vec<&str> = rounds
            .iter()
            .flat_map(|m| m.0.iter().filter(|x| x.name == first.name))
            .map(|x| x.note.as_str())
            .filter(|n| !n.is_empty())
            .collect();
        out.put(first.name.clone(), median(&values), first.unit);
        let last = out.0.last_mut().expect("just pushed");
        last.note = format!("median of {} rounds [{}]", values.len(), notes.join("; "));
    }
    out
}

fn print_inputs(inputs: &Inputs) {
    println!(
        "# inputs: closed fingerprint {:016x} ({} programs), warm-up {:016x}",
        fingerprint(&inputs.closed),
        inputs.closed.len(),
        fingerprint(&inputs.warmup)
    );
    for (l, level) in LEVELS.iter().enumerate() {
        let programs: Vec<GlobalProgram> = inputs
            .open
            .iter()
            .flat_map(|round| round[l].1.iter().cloned())
            .collect();
        let schedule: Vec<u64> = inputs
            .open
            .iter()
            .flat_map(|round| round[l].0.iter().copied())
            .collect();
        println!(
            "# inputs: open {level} fingerprint {:016x} schedule {:016x} ({} arrivals)",
            fingerprint(&programs),
            schedule_hash(&schedule),
            schedule.len()
        );
    }
}

fn user_counters(d: &Dumps) -> impl Iterator<Item = i64> + '_ {
    d.values()
        .flat_map(|site| site.iter())
        .filter(|(o, _)| !amc_net::marker::is_marker(**o))
        .map(|(_, v)| v.counter)
}

/// The post-run gate: the federation-wide counter sum for mixes that
/// conserve it, no negative stock otherwise, and for durable sites a reopen
/// that must reproduce the dumps. Returns each violation and the reopen
/// time.
fn check_state(w: &Workload, dep: Deployment) -> Result<(Vec<String>, f64), String> {
    let dumps = dep.fed.dumps().map_err(|e| format!("dump: {e}"))?;
    let mut bad = Vec::new();
    if w.mix.conserves_sum() {
        let sum: i64 = user_counters(&dumps).sum();
        if sum != w.spec.initial_sum() {
            bad.push(format!(
                "counter sum {sum} != initial sum {}",
                w.spec.initial_sum()
            ));
        }
    } else {
        // tpcc-lite: escrow reserves must never take stock below zero.
        let neg = user_counters(&dumps).filter(|&c| c < 0).count();
        if neg > 0 {
            bad.push(format!("{neg} stock counters below zero"));
        }
    }
    let dir = dep.dir.clone();
    dep.shutdown();
    let mut reopen_ms = 0.0;
    if w.durable {
        let t0 = Instant::now();
        let back = reopen(w, &dir).map_err(|e| format!("reopen: {e}"))?;
        reopen_ms = t0.elapsed().as_secs_f64() * 1e3;
        if back != dumps {
            bad.push("recovered dumps differ from the pre-shutdown dumps".into());
        }
    }
    Ok((bad, reopen_ms))
}

fn fresh_dir(base: &Path, name: &str) -> PathBuf {
    let d = base.join(name);
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn warm(dep: &Deployment, inputs: &Inputs) {
    closed_loop(
        &dep.fed,
        &inputs.warmup,
        &AtomicUsize::new(0),
        CLIENTS,
        WARMUP,
        None,
    );
}

/// Everything a run accumulates towards its JSON line.
struct Run {
    m: Metrics,
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
}

impl Run {
    fn count(&mut self, t: &Tally) {
        self.attempted += t.attempted;
        self.failed += t.failed;
    }

    fn gate(&mut self, w: &Workload, dep: Deployment) -> Result<f64, String> {
        let (bad, reopen_ms) = check_state(w, dep)?;
        self.violations.extend(bad);
        Ok(reopen_ms)
    }
}

/// The end-to-end run: set up several times, then `ROUNDS` rounds on
/// the last deployment, each a closed-loop phase followed by one
/// open-loop phase per offered rate. Interleaving spreads any slow spell
/// of the machine over every metric; each metric is the median of its
/// per-round values.
fn end_to_end(w: &Workload, args: &Args, base: &Path, run: &mut Run) -> Result<(), String> {
    let round_secs = args.seconds / ROUNDS as f64;
    let closed_secs = round_secs * 0.4;
    let open_secs = round_secs * 0.2;
    let inputs = inputs(w, args.seed, ROUNDS, open_secs);
    print_inputs(&inputs);
    let mut setups = Vec::new();
    let mut dep = None;
    let started = Instant::now();
    for k in 0..SETUPS_MAX {
        if k >= SETUPS_MIN && started.elapsed() >= SETUP_BUDGET {
            break;
        }
        let dir = fresh_dir(base, &format!("setup-{k}"));
        let t0 = Instant::now();
        let d = deploy(w, &dir, None).map_err(|e| format!("deploy: {e}"))?;
        setups.push(t0.elapsed().as_secs_f64());
        if let Some(old) = dep.replace(d) {
            let old_dir = old.dir.clone();
            Deployment::shutdown(old);
            let _ = std::fs::remove_dir_all(old_dir);
        }
    }
    let dep = dep.expect("at least one set-up");
    warm(&dep, &inputs);
    let cursor = AtomicUsize::new(0);
    // Per-round values of the result's metrics, and of the latencies that
    // are printed but left out of the result.
    let mut rounds: Vec<Metrics> = Vec::new();
    let mut tail_rounds: Vec<Metrics> = Vec::new();
    for (r, open_inputs) in inputs.open.iter().enumerate() {
        let mut m = Metrics::default();
        let mut tails = Metrics::default();
        let span = Duration::from_secs_f64(closed_secs);
        let c = closed_loop(&dep.fed, &inputs.closed, &cursor, CLIENTS, span, None);
        run.count(&c.tally);
        let secs = c.wall.as_secs_f64();
        m.put("txn_per_s", c.tally.committed as f64 / secs, "1/s");
        m.pct("commit_p50_ms", &c.tally.commit_ms, 0.5, "ms");
        tails.pct("commit_p99_ms", &c.tally.commit_ms, 0.99, "ms");
        println!(
            "# round {r} closed: {} programs, {} committed, {} intended aborts, {} failed, {secs:.3} s",
            c.tally.attempted, c.tally.committed, c.tally.intended, c.tally.failed
        );
        if c.wrapped {
            println!("# note: the closed-loop pool of {POOL} programs wrapped around");
        }
        let mut slo = 0.0;
        for (level, (schedule, programs)) in LEVELS.iter().zip(open_inputs) {
            let open = open_loop(&dep.fed, programs, schedule, CLIENTS);
            run.count(&open.tally);
            let lat = &open.tally.commit_ms;
            tails.pct(format!("open_p50_ms.{level}"), lat, 0.5, "ms");
            tails.pct(format!("open_p99_ms.{level}"), lat, 0.99, "ms");
            let p99 = tails.get(&format!("open_p99_ms.{level}"));
            let achieved = open.tally.committed as f64 / open.wall.as_secs_f64();
            let meets = p99 <= SLO_P99_MS && open.tally.failed == 0 && !open.lateness.growing;
            println!(
                "# round {r} open {level}: offered {:.0}/s achieved {achieved:.1}/s \
                 p99 {p99:.3} ms (n={}) backlog_max {} growing {} failed {} -> {}",
                schedule.len() as f64 / open_secs,
                lat.len(),
                open.lateness.backlog_max,
                open.lateness.growing,
                open.tally.failed,
                if meets { "meets SLO" } else { "misses SLO" }
            );
            if meets {
                slo = achieved;
            }
        }
        m.put("slo_txn_per_s", slo, "1/s");
        rounds.push(m);
        tail_rounds.push(tails);
    }
    run.m = median_of_rounds(&rounds);
    run.m.put("setup_s", median(&setups), "s");
    run.m.0.last_mut().expect("just pushed").note = format!("median of {} set-ups", setups.len());
    // The closed-loop p99 and the open-loop latencies are printed but not
    // part of the result: on a shared 2-core machine their run-to-run
    // spread exceeds any bound the result may carry (see README.md).
    for t in median_of_rounds(&tail_rounds).0 {
        println!("# {} = {} {} {}", t.name, t.value, t.unit, t.note);
    }
    let reopen_ms = run.gate(w, dep)?;
    println!("# wal.recovery_reopen_ms = {reopen_ms:.3} ms");
    Ok(())
}

/// The traced run: an untraced closed phase, the same phase traced, and
/// an untraced open phase at the `high` rate for generator lateness.
fn traced(
    w: &Workload,
    args: &Args,
    base: &Path,
    run: &mut Run,
    probes: (f64, f64),
) -> Result<(), String> {
    let phase = args.seconds / 3.0;
    let inputs = inputs(w, args.seed, 1, phase);
    print_inputs(&inputs);
    let span = Duration::from_secs_f64(phase);

    // Untraced: closed phase for the overhead baseline, then the open
    // phase at the high rate.
    let dep = deploy(w, &fresh_dir(base, "untraced"), None).map_err(|e| format!("deploy: {e}"))?;
    warm(&dep, &inputs);
    let plain = closed_loop(
        &dep.fed,
        &inputs.closed,
        &AtomicUsize::new(0),
        CLIENTS,
        span,
        None,
    );
    run.count(&plain.tally);
    let (schedule, programs) = &inputs.open[0][2];
    let open: Open = open_loop(&dep.fed, programs, schedule, CLIENTS);
    run.count(&open.tally);
    let late_ms: Vec<f64> = open
        .lateness
        .late_ns
        .iter()
        .map(|&n| n as f64 / 1e6)
        .collect();
    let reopen_plain = run.gate(w, dep)?;

    // Traced.
    let tracer = Tracer::new();
    let dep =
        deploy(w, &fresh_dir(base, "traced"), Some(&tracer)).map_err(|e| format!("deploy: {e}"))?;
    warm(&dep, &inputs);
    let before = counters(&dep);
    tracer.set_enabled(true);
    let stop = AtomicBool::new(false);
    let mut pings = Vec::new();
    let closed = std::thread::scope(|scope| {
        let sampler = w.tcp.then(|| {
            scope.spawn(|| {
                let mut out = Vec::new();
                let site = amc_types::SiteId::new(1);
                while !stop.load(Ordering::Relaxed) {
                    let t0 = Instant::now();
                    if dep
                        .transport
                        .admin(site, amc_net::AdminRequest::Ping)
                        .is_ok()
                    {
                        out.push(t0.elapsed().as_nanos() as f64 / 1e3);
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
                out
            })
        });
        let cursor = AtomicUsize::new(0);
        let closed = closed_loop(
            &dep.fed,
            &inputs.closed,
            &cursor,
            CLIENTS,
            span,
            Some(&tracer),
        );
        stop.store(true, Ordering::Relaxed);
        if let Some(h) = sampler {
            pings = h.join().expect("ping sampler");
        }
        closed
    });
    tracer.set_enabled(false);
    let after = counters(&dep);
    run.count(&closed.tally);
    let reopen_traced = run.gate(w, dep)?;

    let m = &mut run.m;
    m.pct("loadgen.late_p99_ms", &late_ms, 0.99, "ms");
    m.put(
        "loadgen.backlog_max",
        open.lateness.backlog_max as f64,
        "count",
    );
    let facts = PhaseFacts {
        committed: closed.tally.committed,
        programs: closed.tally.attempted,
        attempts: closed.tally.attempts,
        messages: closed.tally.messages,
        tcp: w.tcp,
    };
    layer_metrics(&tracer, &facts, &before, &after, m);
    m.pct("rpc.ping_us.p50", &pings, 0.5, "us");
    let tps_plain = plain.tally.committed as f64 / plain.wall.as_secs_f64();
    let tps_traced = closed.tally.committed as f64 / closed.wall.as_secs_f64();
    m.put(
        "trace.overhead_pct",
        100.0 * (tps_plain - tps_traced) / tps_plain.max(1e-9),
        "%",
    );
    // Cost model: Σ calls × per-call p50 plus the client-side self time,
    // against the untraced phase's measured commit p50.
    let mut predicted_us = m.get("core.self_us.p50");
    for k in KINDS {
        predicted_us +=
            m.get(&format!("net.calls_per_commit.{k}")) * m.get(&format!("net.call_us.{k}.p50"));
    }
    let measured_ms = stats::percentile(&plain.tally.commit_ms, 0.5).map_or(0.0, |p| p.value);
    println!(
        "# cost model: predicted commit_p50 {:.4} ms, measured {measured_ms:.4} ms",
        predicted_us / 1e3
    );
    m.put(
        "trace.model_residue_pct",
        100.0 * (measured_ms - predicted_us / 1e3) / measured_ms.max(1e-9),
        "%",
    );
    let fails = plain.tally.failed + open.tally.failed + closed.tally.failed;
    let tried = plain.tally.attempted + open.tally.attempted + closed.tally.attempted;
    m.put("failed_ratio", fails as f64 / tried.max(1) as f64, "ratio");
    m.put("wal.device_fsync_us.p50", probes.0, "us");
    m.put("rpc.ping_idle_us.p50", probes.1, "us");
    m.put(
        "wal.recovery_reopen_ms",
        median(&[reopen_plain, reopen_traced]),
        "ms",
    );
    Ok(())
}

fn json_line(run: &Run) -> String {
    let metrics: Vec<String> = run
        .m
        .0
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.violations.is_empty(),
        run.attempted.max(1),
        run.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("amc-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let all = workloads();
    let Some(w) = all.iter().find(|w| w.name == args.workload) else {
        let names: Vec<&str> = all.iter().map(|w| w.name).collect();
        eprintln!("amc-perfbench: unknown workload; one of {names:?}");
        return ExitCode::from(2);
    };
    let base = PathBuf::from(".bench_run").join(format!("{}-{}", w.name, std::process::id()));
    {
        let base = base.clone();
        std::thread::spawn(move || {
            std::thread::sleep(DEADLINE);
            eprintln!("amc-perfbench: run exceeded {DEADLINE:?}; giving up");
            let _ = std::fs::remove_dir_all(&base);
            std::process::exit(3);
        });
    }
    let _ = std::fs::create_dir_all(&base);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let probes = match (probe::device_fsync_us(&base, 50), probe::idle_ping_us(200)) {
        (Ok(f), Ok(p)) => (f, p),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("amc-perfbench: sandbox probe failed: {e}");
            return ExitCode::from(1);
        }
    };
    println!(
        "# workload {} seed {} seconds {} trace {} clients {CLIENTS} nproc {nproc}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# sandbox: wal.device_fsync_us.p50 {:.1} us, rpc.ping_idle_us.p50 {:.1} us",
        probes.0, probes.1
    );
    let mut run = Run {
        m: Metrics::default(),
        attempted: 0,
        failed: 0,
        violations: Vec::new(),
    };
    let outcome = if args.trace {
        traced(w, &args, &base, &mut run, probes)
    } else {
        end_to_end(w, &args, &base, &mut run)
    };
    let _ = std::fs::remove_dir_all(&base);
    if let Err(e) = outcome {
        eprintln!("amc-perfbench: {e}");
        return ExitCode::from(1);
    }
    for m in &run.m.0 {
        println!("{} = {} {} {}", m.name, m.value, m.unit, m.note);
    }
    for v in &run.violations {
        println!("# CORRECTNESS VIOLATION: {v}");
    }
    println!("{}", json_line(&run));
    if run.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
