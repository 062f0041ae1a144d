//! One benchmark run: set-up, the timed wire phase, and the post phase
//! (verification reads, replica catch-up, checkpoint, restart, checks).

use std::collections::HashMap;
use std::path::Path;
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

use chronicle_db::pipeline::{ShardedPipeline, ShardedPipelineHandle, WalRequest, WalResponse};
use chronicle_db::{DbStats, DurabilityOptions, ShardedDb};
use chronicle_net::{Client, RemoteOutcome, Replica, RetryClient, RetryPolicy, Server, WireStats};
use chronicle_types::Value;

use crate::calib;
use crate::gen::{Inputs, Op, SHARDS};
use crate::model::Model;
use crate::trace::SpanLog;
use crate::util::{process_cpu, thread_cpu, Hist};

/// Set-ups per run, half before the timed phase and half after the post
/// phase, so that their median speaks for the whole run; the reported
/// set-up time is that median.
pub const SETUPS: usize = 11;
/// Reopens per run; the reported restart CPU time is their median.
const RESTARTS: usize = 11;
/// Replica catch-ups per run, as many as fit in the budget (at least
/// one); the reported CPU time per tuple is their median.
pub const CATCHUPS: usize = 5;
pub const CATCHUP_BUDGET_S: f64 = 5.0;
/// Catch-up must finish within this long.
const CATCHUP_TIMEOUT: Duration = Duration::from_secs(120);

/// Span names of client calls: appends and point reads.
pub const APPEND_SPAN: &str = "RetryClient::sql";
pub const READ_SPAN: &str = "RetryClient::sql(read)";
/// The span enclosing the timed phase.
pub const TIMED_SPAN: &str = "phase.timed";

pub type Res<T> = std::result::Result<T, String>;

/// Failed output checks of a run. A failed check makes the result
/// `correct: false`; the run still goes on to report its metrics.
#[derive(Debug, Default)]
pub struct Checks(Vec<String>);

impl Checks {
    pub fn check(&mut self, outcome: Res<()>) {
        if let Err(e) = outcome {
            eprintln!("wirebench: check failed: {e}");
            self.0.push(e);
        }
    }

    pub fn ok(&self) -> bool {
        self.0.is_empty()
    }
}

/// A database's `snapshot_views()`: every view's name and encoded state.
pub type Views = Vec<(String, Vec<u8>)>;

fn err<E: std::fmt::Display>(what: &str) -> impl FnOnce(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// A durable leader: a `ShardedDb` behind a `ShardedPipeline` behind a
/// `Server` on a loopback port.
pub struct Leader {
    pipeline: ShardedPipeline,
    server: Server,
    pub addr: String,
}

impl Leader {
    /// Open a fresh durable database in `dir`, define the schema and
    /// bulk-load the preload with fsync off, reopen it with `opts`, and
    /// start serving. The first flush of the served phase syncs the WAL
    /// segment that holds the bulk load.
    pub fn start(inputs: &Inputs, dir: &Path, opts: DurabilityOptions) -> Res<Leader> {
        let bulk = DurabilityOptions {
            fsync: false,
            ..opts
        };
        let mut db = ShardedDb::open_with(dir, SHARDS, bulk).map_err(err("open leader"))?;
        for sql in &inputs.ddl {
            db.execute(sql).map_err(err(sql))?;
        }
        for op in &inputs.preload {
            db.execute(op.sql()).map_err(err("preload"))?;
        }
        drop(db);
        let db = ShardedDb::open_with(dir, SHARDS, opts).map_err(err("reopen leader"))?;
        let pipeline = ShardedPipeline::start(db, 64);
        let server = Server::start(pipeline.handle(), "127.0.0.1:0").map_err(err("server"))?;
        let addr = server.addr().to_string();
        Ok(Leader {
            pipeline,
            server,
            addr,
        })
    }

    pub fn handle(&self) -> ShardedPipelineHandle {
        self.pipeline.handle()
    }

    /// Stop serving and hand back the database.
    pub fn stop(self) -> ShardedDb {
        self.server.stop();
        self.pipeline.shutdown()
    }
}

/// Durable-leader options of a workload: fsync on.
pub fn leader_opts(inputs: &Inputs) -> DurabilityOptions {
    DurabilityOptions {
        fsync: true,
        auto_checkpoint_records: inputs.auto_checkpoint,
        ..Default::default()
    }
}

/// The server's own statistics, fetched over a short-lived session.
pub fn wire_stats(addr: &str) -> Res<WireStats> {
    let mut c = Client::connect(addr).map_err(err("stats connect"))?;
    let s = c.stats().map_err(err("stats"))?;
    c.goodbye();
    Ok(s)
}

/// Whole-phase figures of one or more sessions' timed statements.
#[derive(Debug, Default, Clone, Copy)]
pub struct Summary {
    /// Items per second (tuples for appends, statements otherwise) from
    /// the start to the last acknowledgement.
    pub rate: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    /// Timed statements behind the percentiles.
    pub samples: u64,
}

/// Summarise the timed statements of `runs`, started at `start`.
pub fn summarize(runs: &[&SessionRun], start: Instant, count_tuples: bool) -> Summary {
    let mut lat = Hist::default();
    let mut items = 0u64;
    let mut end = start;
    for r in runs {
        lat.merge(&r.lat);
        lat.merge(&r.lat_traced);
        items += if count_tuples { r.tuples } else { r.timed };
        end = end.max(r.last_ack.unwrap_or(start));
    }
    let span = end.duration_since(start).as_secs_f64().max(1e-9);
    Summary {
        rate: items as f64 / span,
        p50_us: lat.percentile_us(0.50),
        p99_us: lat.percentile_us(0.99),
        samples: lat.len(),
    }
}

/// What one client session did.
pub struct SessionRun {
    /// Statements sent, warm-up included (all acknowledged unless
    /// `failed > 0`).
    pub sent: usize,
    /// Timed statements acknowledged, and the rows they carried.
    pub timed: u64,
    pub tuples: u64,
    /// Latencies of the timed statements sent outside a span, and inside.
    pub lat: Hist,
    pub lat_traced: Hist,
    pub last_ack: Option<Instant>,
    pub retries: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub log: SpanLog,
    /// CPU time of the session's own thread over the timed phase (the
    /// client side: statement text, framing, socket calls).
    pub cpu: Duration,
    /// Open-loop writer only: how late the generator ran, worst case.
    pub max_late: Duration,
}

impl SessionRun {
    fn new(epoch: Instant, thread: u64) -> SessionRun {
        SessionRun {
            sent: 0,
            timed: 0,
            tuples: 0,
            lat: Hist::default(),
            lat_traced: Hist::default(),
            last_ack: None,
            retries: 0,
            failed: 0,
            errors: Vec::new(),
            log: SpanLog::new(epoch, thread),
            cpu: Duration::ZERO,
            max_late: Duration::ZERO,
        }
    }

    /// Send one statement carrying `tuples` rows; `from` is when the
    /// latency clock starts (the send time, or the due time in an open
    /// loop), `None` for an untimed statement. Every other timed statement
    /// is traced when tracing is on, so the untraced half measures the
    /// tracer's own cost.
    fn send(
        &mut self,
        client: &mut RetryClient,
        sql: &str,
        tuples: usize,
        from: Option<Instant>,
        trace: Option<(&'static str, u64)>,
    ) -> Option<RemoteOutcome> {
        let traced = trace.is_some() && self.timed.is_multiple_of(2);
        let out = match trace {
            Some((name, parent)) if traced => self.log.time(name, parent, || client.sql(sql)),
            _ => client.sql(sql),
        };
        let end = Instant::now();
        self.sent += 1;
        match out {
            Ok(o) => {
                if let Some(from) = from {
                    self.timed += 1;
                    self.tuples += tuples as u64;
                    let lat = if traced {
                        &mut self.lat_traced
                    } else {
                        &mut self.lat
                    };
                    lat.record(end.duration_since(from));
                    self.last_ack = Some(end);
                }
                Some(o)
            }
            Err(e) => {
                self.failed += 1;
                self.errors.push(format!("{sql:.80}: {e}"));
                None
            }
        }
    }
}

/// Timed-phase result.
pub struct Timed {
    pub sessions: Vec<SessionRun>,
    pub start: Instant,
    /// Statements the leader served in the timed phase (warm-up excluded,
    /// untimed relation updates included), and the CPU time the process
    /// spent on them outside the client sessions' threads.
    pub served: u64,
    pub server_cpu: Duration,
    /// DbStats / WireStats at the start and end of the timed phase.
    pub db_before: DbStats,
    pub db_after: DbStats,
    pub wire_before: WireStats,
    pub wire_after: WireStats,
}

fn stats_pair(
    leader: &Leader,
    log: &mut SpanLog,
    parent: u64,
    at: &str,
    trace: bool,
) -> Res<(DbStats, WireStats)> {
    let db = leader.handle().stats().map_err(err("pipeline stats"))?;
    let wire = if trace {
        log.time("Client::stats", parent, || wire_stats(&leader.addr))?
    } else {
        wire_stats(&leader.addr)?
    };
    if trace {
        log.counters(at, counters(&db, &wire));
    }
    Ok((db, wire))
}

fn counters(db: &DbStats, wire: &WireStats) -> Vec<(&'static str, f64)> {
    vec![
        ("db.appends", db.appends as f64),
        ("db.tuples_appended", db.tuples_appended as f64),
        ("db.maintenance_nanos", db.maintenance_nanos as f64),
        ("db.views_maintained", db.views_maintained as f64),
        ("db.skipped_by_guard", db.skipped_by_guard as f64),
        ("db.vectorized_views", db.vectorized_views as f64),
        ("db.work_total", db.work.total() as f64),
        ("db.wal_records", db.wal_records as f64),
        ("db.wal_bytes", db.wal_bytes as f64),
        ("db.wal_flushes", db.wal_flushes as f64),
        ("db.checkpoints", db.checkpoints as f64),
        ("wire.requests", wire.net_requests as f64),
        ("wire.frames_in", wire.net_frames_in as f64),
        ("wire.frames_out", wire.net_frames_out as f64),
        ("wire.shipped_bytes", wire.net_shipped_bytes as f64),
        ("wire.session_replays", wire.session_replays as f64),
        (
            "wire.overload_rejections",
            wire.net_overload_rejections as f64,
        ),
        ("wire.latency_p50_ns", wire.net_latency_p50_nanos as f64),
        ("wire.latency_p99_ns", wire.net_latency_p99_nanos as f64),
    ]
}

/// CPU time of the process and of the calling thread at one moment:
/// what the program under test spent between two marks is the process's
/// CPU minus that of the benchmark's own threads.
#[derive(Debug, Clone, Copy)]
pub struct CpuMark {
    process: Duration,
    thread: Duration,
}

impl CpuMark {
    pub fn now() -> CpuMark {
        CpuMark {
            process: process_cpu(),
            thread: thread_cpu(),
        }
    }

    /// CPU time since `self` of every thread but the calling one and the
    /// benchmark's `others`, whose CPU time over the interval is given.
    pub fn server_since(self, others: Duration) -> Duration {
        let now = CpuMark::now();
        (now.process - self.process)
            .saturating_sub(now.thread - self.thread)
            .saturating_sub(others)
    }
}

/// Wait at the start gate, run `f`, and charge the thread's CPU time from
/// the gate on to `run.cpu`.
fn session<F: FnOnce(&mut SessionRun, Instant)>(
    run: &mut SessionRun,
    gate: &Barrier,
    start_at: &OnceLock<Instant>,
    f: F,
) {
    gate.wait();
    gate.wait();
    let cpu0 = thread_cpu();
    f(
        run,
        *start_at.get().expect("start set before the gate opens"),
    );
    run.cpu = thread_cpu() - cpu0;
}

/// The closed-loop timed phase: each session sends its pool cyclically,
/// warm-up first, then for `secs` seconds.
pub fn closed_loop(
    inputs: &Inputs,
    leader: &Leader,
    secs: f64,
    log: &mut SpanLog,
    trace: bool,
) -> Res<Timed> {
    let n = inputs.sessions.len();
    let gate = Barrier::new(n + 1);
    let start_at: OnceLock<Instant> = OnceLock::new();
    let phase = if trace { log.open(TIMED_SPAN, 0) } else { 0 };
    let epoch = log.epoch();
    let (sessions, before, after, server_cpu) = std::thread::scope(|scope| -> Res<_> {
        let workers: Vec<_> = inputs
            .sessions
            .iter()
            .enumerate()
            .map(|(s, pool)| {
                let (gate, start_at, addr) = (&gate, &start_at, &leader.addr);
                scope.spawn(move || {
                    let mut run = SessionRun::new(epoch, s as u64 + 1);
                    let mut client =
                        RetryClient::new(&[addr.as_str()], s as u64 + 1, RetryPolicy::default());
                    for op in pool.iter().cycle().take(inputs.warmup) {
                        run.send(&mut client, op.sql(), 0, None, None);
                    }
                    session(&mut run, gate, start_at, |run, start| {
                        let end = start + Duration::from_secs_f64(secs);
                        let mut i = inputs.warmup;
                        while Instant::now() < end && run.failed == 0 {
                            let op = &pool[i % pool.len()];
                            let now = Instant::now();
                            let span = trace.then_some((APPEND_SPAN, phase));
                            run.send(&mut client, op.sql(), op.tuples(), Some(now), span);
                            i += 1;
                        }
                        run.retries = client.retries();
                        client.goodbye();
                    });
                    run
                })
            })
            .collect();
        gate.wait();
        // Open the gate even if the snapshot failed: the sessions wait on
        // it, and the scope joins them before the error can return.
        let before = stats_pair(leader, log, phase, "timed.start", trace);
        start_at.set(Instant::now()).expect("set once");
        let cpu = CpuMark::now();
        gate.wait();
        let mut sessions: Vec<SessionRun> = workers
            .into_iter()
            .map(|w| w.join().expect("session thread"))
            .collect();
        let server_cpu = cpu.server_since(sessions.iter().map(|s| s.cpu).sum());
        for s in &mut sessions {
            log.absorb(&mut s.log);
        }
        let after = stats_pair(leader, log, phase, "timed.end", trace)?;
        Ok((sessions, before?, after, server_cpu))
    })?;
    if trace {
        log.close(phase);
    }
    let served = sessions
        .iter()
        .map(|s| (s.sent - inputs.warmup) as u64)
        .sum();
    Ok(Timed {
        sessions,
        start: *start_at.get().expect("start set"),
        served,
        server_cpu,
        db_before: before.0,
        db_after: after.0,
        wire_before: before.1,
        wire_after: after.1,
    })
}

/// Highest COUNT each key's point reads returned within the reader
/// session, after checking that every read returned the key's single row
/// and that the COUNT never went down.
pub type ReadCounts = HashMap<(usize, i64), i64>;

fn note_read(counts: &mut ReadCounts, group: usize, acct: i64, out: &RemoteOutcome) -> Res<()> {
    let rows = match out {
        RemoteOutcome::Rows(rows) => rows,
        other => return Err(format!("read answered {other:?}")),
    };
    if rows.len() != 1 {
        return Err(format!(
            "read of group {group} acct {acct} returned {} rows",
            rows.len()
        ));
    }
    let n = match rows[0].get(1) {
        Value::Int(n) => *n,
        v => return Err(format!("read of group {group} acct {acct}: COUNT is {v:?}")),
    };
    let prev = counts.insert((group, acct), n).unwrap_or(1);
    if n < prev {
        return Err(format!("group {group} acct {acct}: COUNT {n} after {prev}"));
    }
    Ok(())
}

/// The windowed timed phase: an open-loop writer on a fixed schedule and
/// a closed-loop Zipf point reader, for `secs` seconds. Also returns the
/// reader's per-key counts and the first read that failed a check.
pub fn window_mix(
    inputs: &Inputs,
    leader: &Leader,
    secs: f64,
    log: &mut SpanLog,
    trace: bool,
) -> Res<(Timed, ReadCounts, Res<()>)> {
    let gate = Barrier::new(3);
    let start_at: OnceLock<Instant> = OnceLock::new();
    let phase = if trace { log.open(TIMED_SPAN, 0) } else { 0 };
    let epoch = log.epoch();
    let period = Duration::from_micros(inputs.writer_period_us);
    let (sessions, reads, before, after, server_cpu) = std::thread::scope(|scope| -> Res<_> {
        let (gate_w, start_w, addr_w) = (&gate, &start_at, &leader.addr);
        let writer = scope.spawn(move || {
            let mut run = SessionRun::new(epoch, 1);
            let mut client = RetryClient::new(&[addr_w.as_str()], 1, RetryPolicy::default());
            session(&mut run, gate_w, start_w, |run, start| {
                for (i, op) in inputs.sessions[0].iter().enumerate() {
                    let due = start + period * i as u32;
                    let now = Instant::now();
                    if now < due {
                        std::thread::sleep(due - now);
                    } else {
                        run.max_late = run.max_late.max(now - due);
                    }
                    match op {
                        Op::Append { .. } => {
                            let span = trace.then_some((APPEND_SPAN, phase));
                            run.send(&mut client, op.sql(), op.tuples(), Some(due), span);
                        }
                        // Relation updates are broadcasts; they are part of
                        // the schedule but not of the append latency.
                        _ => {
                            run.send(&mut client, op.sql(), 0, None, None);
                        }
                    }
                    if run.failed > 0 {
                        break;
                    }
                }
                run.retries = client.retries();
                client.goodbye();
            });
            run
        });
        let (gate_r, start_r, addr_r) = (&gate, &start_at, &leader.addr);
        let reader = scope.spawn(move || {
            let mut run = SessionRun::new(epoch, 2);
            let mut client = RetryClient::new(&[addr_r.as_str()], 2, RetryPolicy::default());
            let mut counts = ReadCounts::new();
            let mut checked = Ok(());
            session(&mut run, gate_r, start_r, |run, start| {
                let end = start + Duration::from_secs_f64(secs);
                let mut i = 0;
                while Instant::now() < end && run.failed == 0 {
                    let read = &inputs.reads[i % inputs.reads.len()];
                    let now = Instant::now();
                    let span = trace.then_some((READ_SPAN, phase));
                    if let Some(out) = run.send(&mut client, &read.sql, 0, Some(now), span) {
                        if checked.is_ok() {
                            checked = note_read(&mut counts, read.group, read.acct, &out);
                        }
                    }
                    i += 1;
                }
                run.retries = client.retries();
                client.goodbye();
            });
            (run, counts, checked)
        });
        gate.wait();
        // Open the gate even if the snapshot failed: the sessions wait on
        // it, and the scope joins them before the error can return.
        let before = stats_pair(leader, log, phase, "timed.start", trace);
        start_at.set(Instant::now()).expect("set once");
        let cpu = CpuMark::now();
        gate.wait();
        let mut w = writer.join().expect("writer thread");
        let (mut r, counts, checked) = reader.join().expect("reader thread");
        let server_cpu = cpu.server_since(w.cpu + r.cpu);
        log.absorb(&mut w.log);
        log.absorb(&mut r.log);
        let after = stats_pair(leader, log, phase, "timed.end", trace)?;
        Ok((vec![w, r], (counts, checked), before?, after, server_cpu))
    })?;
    if trace {
        log.close(phase);
    }
    let served = sessions.iter().map(|s| s.sent as u64).sum();
    let timed = Timed {
        sessions,
        start: *start_at.get().expect("start set"),
        served,
        server_cpu,
        db_before: before.0,
        db_after: after.0,
        wire_before: before.1,
        wire_after: after.1,
    };
    Ok((timed, reads.0, reads.1))
}

/// Rounds the post-phase read pass is cut into; the reported CPU time per
/// read is the median round's.
const READ_ROUNDS: usize = 5;

/// Post-phase point reads: one fresh session, checked row by row against
/// the (now final) model, in `READ_ROUNDS` equal rounds. Returns the
/// session and, per round, the CPU µs the program spent per read, scaled
/// to the reference speed.
pub fn post_reads(
    inputs: &Inputs,
    leader: &Leader,
    model: &Model,
    checks: &mut Checks,
    log: &mut SpanLog,
    trace: bool,
) -> Res<(SessionRun, Vec<f64>)> {
    let phase = if trace { log.open("phase.reads", 0) } else { 0 };
    let mut run = SessionRun::new(log.epoch(), 3);
    let mut client = RetryClient::new(&[leader.addr.as_str()], 3, RetryPolicy::default());
    let per_round = inputs.post_reads / READ_ROUNDS;
    let mut reads = inputs.reads.iter().cycle();
    let mut rounds = Vec::with_capacity(READ_ROUNDS);
    for _ in 0..READ_ROUNDS {
        let calib = calib::Calib::start();
        let cpu = CpuMark::now();
        for read in reads.by_ref().take(per_round) {
            let now = Instant::now();
            match run.send(
                &mut client,
                &read.sql,
                0,
                Some(now),
                trace.then_some((READ_SPAN, phase)),
            ) {
                Some(RemoteOutcome::Rows(rows)) => {
                    checks.check(model.check_read(read.group, read.acct, &rows));
                }
                Some(other) => checks.check(Err(format!("read answered {other:?}"))),
                None => {}
            }
        }
        let server = cpu.server_since(Duration::ZERO);
        let (scale, spent) = calib.stop();
        rounds.push(server.saturating_sub(spent).as_secs_f64() * 1e6 * scale / per_round as f64);
    }
    run.retries = client.retries();
    client.goodbye();
    log.absorb(&mut run.log);
    if trace {
        log.close(phase);
    }
    Ok((run, rounds))
}

/// The windowed reader's highest COUNT per key lies between 1 and the
/// key's final count.
pub fn check_window_reads(counts: &ReadCounts, model: &Model) -> Res<()> {
    for (&(g, acct), &n) in counts {
        let fin = model.acct[g].get(&acct).map_or(0, |a| a.n);
        if n > fin {
            return Err(format!(
                "group {g} acct {acct}: read COUNT {n}, final {fin}"
            ));
        }
    }
    Ok(())
}

/// Replica catch-up: a fresh follower attaches over TCP and replays the
/// leader's whole WAL. Returns the seconds and the CPU time (leader and
/// follower) it took, the follower's view snapshot and the records it
/// applied.
pub fn catch_up(
    leader: &Leader,
    dir: &Path,
    log: &mut SpanLog,
    trace: bool,
) -> Res<(f64, Duration, Views, u64)> {
    let handle = leader.handle();
    let mut target = Vec::with_capacity(SHARDS);
    for shard in 0..SHARDS {
        match handle.wal(shard, WalRequest::LastDurableLsn) {
            Ok(WalResponse::Lsn(l)) => target.push(l),
            other => return Err(format!("durable lsn of shard {shard}: {other:?}")),
        }
    }
    // The follower does not fsync: catch-up measures shipping and replay,
    // not the host disk (the leader keeps fsync on).
    let opts = DurabilityOptions::default();
    let t0 = Instant::now();
    let cpu = CpuMark::now();
    let replica = Replica::start(&leader.addr, dir, opts).map_err(err("replica start"))?;
    // Wait in short slices so a follower whose ingest thread died is
    // reported at once, with its error, instead of after the timeout.
    let wait = || -> Res<()> {
        while !replica.wait_applied(&target, Duration::from_millis(100)) {
            if !replica.connected() || t0.elapsed() > CATCHUP_TIMEOUT {
                return Err(format!(
                    "replica stopped at {:?} short of {target:?}",
                    replica.applied_lsns()
                ));
            }
        }
        Ok(())
    };
    let reached = if trace {
        log.time("Replica::wait_applied", 0, wait)
    } else {
        wait()
    };
    let secs = t0.elapsed().as_secs_f64();
    let cpu = cpu.server_since(Duration::ZERO);
    if let Err(e) = reached {
        let cause = replica
            .stop()
            .err()
            .map(|e| e.to_string())
            .unwrap_or_default();
        return Err(format!("{e}: {cause}"));
    }
    let follower = replica.stop().map_err(err("replica stop"))?;
    let records = follower.applied_lsns().iter().sum();
    Ok((secs, cpu, follower.snapshot_views(), records))
}

/// Reopen the stopped leader `RESTARTS` times; every reopen must recover
/// exactly `want`. Returns each reopen as a [`Step`], and the records
/// replayed.
pub fn restarts(
    dir: &Path,
    opts: DurabilityOptions,
    want: &Views,
    checks: &mut Checks,
    log: &mut SpanLog,
    trace: bool,
) -> Res<(Vec<Step>, u64)> {
    let mut steps = Vec::new();
    let mut replayed = 0;
    for _ in 0..RESTARTS {
        let (db, s) = step(|| {
            if trace {
                log.time("ShardedDb::open_with", 0, || {
                    ShardedDb::open_with(dir, SHARDS, opts)
                })
            } else {
                ShardedDb::open_with(dir, SHARDS, opts)
            }
            .map_err(err("reopen leader"))
        })?;
        steps.push(s);
        if db.snapshot_views() != *want {
            checks.check(Err(
                "reopened leader's views differ from the leader's".into()
            ));
        }
        replayed = db.stats().recovery_replayed_records;
    }
    Ok((steps, replayed))
}

/// One timed sequential step: its wall and CPU seconds, and the factor
/// that scales them to the reference machine speed (measured just before).
#[derive(Debug, Clone, Copy)]
pub struct Step {
    pub wall: f64,
    pub cpu: f64,
    pub scale: f64,
}

/// Time `f` as one [`Step`].
fn step<T>(f: impl FnOnce() -> Res<T>) -> Res<(T, Step)> {
    let scale = calib::step_scale();
    let t0 = Instant::now();
    let cpu0 = process_cpu();
    let out = f()?;
    let step = Step {
        wall: t0.elapsed().as_secs_f64(),
        cpu: (process_cpu() - cpu0).as_secs_f64(),
        scale,
    };
    Ok((out, step))
}

/// Set up one leader in the fresh directory `dir`: start it and make a
/// first round trip, so that the server is accepting and answering.
pub fn setup(inputs: &Inputs, dir: &Path) -> Res<(Leader, Step)> {
    step(|| {
        let leader = Leader::start(inputs, dir, leader_opts(inputs))?;
        wire_stats(&leader.addr)?;
        Ok(leader)
    })
}

/// Set up `n` throw-away leaders in fresh directories under `base`, each
/// stopped and deleted again.
pub fn extra_setups(inputs: &Inputs, base: &Path, n: usize) -> Res<Vec<Step>> {
    let mut steps = Vec::new();
    for i in 0..n {
        let dir = base.join(format!("setup-{i}"));
        let (leader, s) = setup(inputs, &dir)?;
        steps.push(s);
        drop(leader.stop());
        std::fs::remove_dir_all(&dir).map_err(err("remove set-up dir"))?;
    }
    Ok(steps)
}

/// Median latency in µs over the timed statements of `runs` that were
/// traced (`true`) or not (`false`).
pub fn p50_traced(runs: &[&SessionRun], traced: bool) -> f64 {
    let mut lat = Hist::default();
    for r in runs {
        lat.merge(if traced { &r.lat_traced } else { &r.lat });
    }
    lat.percentile_us(0.5)
}
