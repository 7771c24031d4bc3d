//! The client loops: closed (each client waits for its reply) and open
//! (Poisson arrivals, timed from each request's scheduled send time).
//!
//! A program is retried the way `Federation::run_concurrent` retries it:
//! up to ten attempts, on an L1 rejection or an abort the program did not
//! intend. Latency runs from the first attempt, so retry time counts.

use crate::stats::{lateness, Lateness};
use crate::trace::Tracer;
use amc_core::{Federation, TxnOutcome};
use amc_workload::GlobalProgram;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Attempts per program, as in `run_concurrent`.
pub const MAX_ATTEMPTS: u32 = 10;

/// What became of one program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Committed.
    Committed,
    /// Aborted through its own logic, as it was built to.
    IntendedAbort,
    /// Not the intended outcome after every retry, or an error.
    Failed,
}

/// One finished program.
#[derive(Debug, Clone, Copy)]
pub struct Done {
    /// Outcome.
    pub fate: Fate,
    /// First attempt to final reply, ns.
    pub latency_ns: u64,
    /// `run_transaction` calls made.
    pub attempts: u32,
    /// Messages over all attempts (from the coordinator's reports).
    pub messages: u64,
}

/// Run `prog` to its final outcome. `index` names it in the trace.
pub fn run_program(
    fed: &Federation,
    prog: &GlobalProgram,
    index: u64,
    tracer: Option<&Tracer>,
) -> Done {
    let first = Instant::now();
    let mut attempts = 0;
    let mut messages = 0;
    let fate = loop {
        attempts += 1;
        let t0 = Instant::now();
        let report = match fed.run_transaction(&prog.per_site) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("run_transaction error: {e}");
                break Fate::Failed;
            }
        };
        if let Some(t) = tracer {
            t.attempt(report.gtx, index, t0, Instant::now());
        }
        messages += report.messages;
        let retry = match report.outcome {
            TxnOutcome::Committed => break Fate::Committed,
            TxnOutcome::Aborted if prog.intends_abort => break Fate::IntendedAbort,
            TxnOutcome::Aborted | TxnOutcome::L1Rejected(_) => attempts < MAX_ATTEMPTS,
        };
        if !retry {
            break Fate::Failed;
        }
    };
    let end = Instant::now();
    if let (Some(t), Fate::Committed) = (tracer, fate) {
        t.program(index, first, end);
    }
    Done {
        fate,
        latency_ns: end.duration_since(first).as_nanos() as u64,
        attempts,
        messages,
    }
}

/// Totals over a set of finished programs.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Programs begun.
    pub attempted: u64,
    /// Committed programs.
    pub committed: u64,
    /// Intended aborts.
    pub intended: u64,
    /// Failures.
    pub failed: u64,
    /// `run_transaction` calls.
    pub attempts: u64,
    /// Messages.
    pub messages: u64,
    /// Latencies of committed programs, ms.
    pub commit_ms: Vec<f64>,
}

impl Tally {
    fn add(&mut self, d: &Done) {
        self.attempted += 1;
        self.attempts += u64::from(d.attempts);
        self.messages += d.messages;
        match d.fate {
            Fate::Committed => {
                self.committed += 1;
                self.commit_ms.push(d.latency_ns as f64 / 1e6);
            }
            Fate::IntendedAbort => self.intended += 1,
            Fate::Failed => self.failed += 1,
        }
    }
}

/// A closed-loop phase's result.
#[derive(Debug, Clone)]
pub struct Closed {
    /// Totals.
    pub tally: Tally,
    /// Phase wall time.
    pub wall: Duration,
    /// Whether the program pool wrapped around.
    pub wrapped: bool,
}

/// `clients` threads each run programs back to back for `duration`,
/// taking them from `programs` in order at `cursor`.
pub fn closed_loop(
    fed: &Arc<Federation>,
    programs: &[GlobalProgram],
    cursor: &AtomicUsize,
    clients: usize,
    duration: Duration,
    tracer: Option<&Tracer>,
) -> Closed {
    let tally = Mutex::new(Tally::default());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| {
                let mut mine = Tally::default();
                while start.elapsed() < duration {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let d = run_program(fed, &programs[i % programs.len()], i as u64, tracer);
                    mine.add(&d);
                }
                let mut t = tally.lock().expect("tally lock");
                t.attempted += mine.attempted;
                t.committed += mine.committed;
                t.intended += mine.intended;
                t.failed += mine.failed;
                t.attempts += mine.attempts;
                t.messages += mine.messages;
                t.commit_ms.extend(mine.commit_ms);
            });
        }
    });
    let wall = start.elapsed();
    Closed {
        tally: tally.into_inner().expect("tally lock"),
        wall,
        wrapped: cursor.load(Ordering::Relaxed) > programs.len(),
    }
}

/// An open-loop phase's result.
#[derive(Debug, Clone)]
pub struct Open {
    /// Totals; latencies are timed from each request's due time.
    pub tally: Tally,
    /// Generator lateness and backlog.
    pub lateness: Lateness,
    /// First due time to last reply.
    pub wall: Duration,
}

/// `generators` threads work through `schedule` (due times, ns from the
/// phase start): each takes the next request, sleeps until it is due, and
/// runs it to completion. Request `i` runs `programs[i]`.
pub fn open_loop(
    fed: &Arc<Federation>,
    programs: &[GlobalProgram],
    schedule: &[u64],
    generators: usize,
) -> Open {
    assert!(programs.len() >= schedule.len());
    let next = AtomicUsize::new(0);
    let started: Vec<AtomicUsize> = schedule.iter().map(|_| AtomicUsize::new(0)).collect();
    let done: Mutex<Vec<(usize, Done)>> = Mutex::new(Vec::with_capacity(schedule.len()));
    let origin = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..generators {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= schedule.len() {
                    return;
                }
                let due = origin + Duration::from_nanos(schedule[i]);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let begun = Instant::now();
                started[i].store(
                    begun.duration_since(origin).as_nanos() as usize,
                    Ordering::Relaxed,
                );
                let mut d = run_program(fed, &programs[i], i as u64, None);
                // Time from the scheduled send, so a stall counts against
                // every request queued behind it.
                d.latency_ns = Instant::now().duration_since(due).as_nanos() as u64;
                done.lock().expect("done lock").push((i, d));
            });
        }
    });
    let wall = origin.elapsed();
    let mut tally = Tally::default();
    for (_, d) in done.into_inner().expect("done lock") {
        tally.add(&d);
    }
    let started: Vec<u64> = started
        .iter()
        .map(|s| s.load(Ordering::Relaxed) as u64)
        .collect();
    Open {
        tally,
        lateness: lateness(schedule, &started, crate::SLO_P99_MS as u64 * 1_000_000),
        wall,
    }
}
