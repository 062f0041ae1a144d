//! End-to-end wire benchmark for the chronicle engine.
//!
//! ```text
//! cargo run --release --offline --manifest-path wirebench/Cargo.toml -- \
//!     --workload <append_row|append_batch|window_read_mix> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Each run starts a durable two-shard leader (`ShardedDb` with fsync on,
//! behind a `ShardedPipeline` and a `Server` on loopback TCP), drives it
//! with `RetryClient` sessions for `--seconds`, then reads back, attaches a
//! fresh `Replica`, checkpoints, restarts the leader, and checks every view
//! against the benchmark's own model. The end-to-end metrics are CPU times
//! per unit of work, scaled to a reference machine speed (`calib`); the
//! wall-clock figures are printed as `info` lines. The last line of
//! standard output is the result: `{"correct", "attempted", "failed",
//! "metrics"}` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. See README.md for what each metric means.

mod calib;
mod gen;
mod layers;
mod model;
mod run;
mod trace;
mod util;

use std::path::{Path, PathBuf};
use std::time::Instant;

use chronicle_db::ShardedDb;
use chronicle_durability::WalRecord;
use gen::{Inputs, Kind};
use model::Model;
use run::{Res, Timed};
use trace::SpanLog;
use util::{median, Metric};

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut kind, mut seed, mut seconds, mut trace) = (None, 1u64, 10u64, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                kind =
                    Some(Kind::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => trace = value.parse::<u8>().map_err(bad)? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds: seconds.max(1),
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wirebench: {e}");
            eprintln!("usage: wirebench --workload <append_row|append_batch|window_read_mix> --seed N --seconds S --trace <0|1>");
            std::process::exit(2);
        }
    };
    let base = PathBuf::from(".bench_out").join(format!(
        "{}-{}-{}",
        args.kind.name(),
        args.seed,
        std::process::id()
    ));
    let out = std::fs::create_dir_all(&base)
        .map_err(|e| format!("{}: {e}", base.display()))
        .and_then(|_| bench(&args, &base));
    let _ = std::fs::remove_dir_all(&base);
    match out {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("wirebench: {e}");
            std::process::exit(1);
        }
    }
}

/// Everything the post phase measured.
struct Post {
    /// The post-phase read pass, and the CPU µs the program spent per read
    /// in each of its rounds, scaled to the reference speed.
    reads: run::SessionRun,
    reads_start: Instant,
    read_rounds: Vec<f64>,
    /// Wall time of each catch-up, and its CPU time scaled to the
    /// reference speed.
    catchup_s: Vec<f64>,
    catchup_cpu_s: Vec<f64>,
    catchup_records: u64,
    leader_tuples: u64,
    shipped_bytes: u64,
    checkpoint_ms: f64,
    /// Each reopen.
    restarts: Vec<run::Step>,
    replayed: u64,
    /// Traced run only: the newest WAL records of each shard of the
    /// stopped leader, before the restart measurement truncates its log.
    wal_records: Vec<WalRecord>,
    wire_end: chronicle_net::WireStats,
    ops: u64,
    failed: u64,
    checks: run::Checks,
}

fn bench(args: &Args, base: &Path) -> Res<String> {
    let inputs = gen::generate(args.kind, args.seed, args.seconds);
    let epoch = Instant::now();
    let mut log = SpanLog::new(epoch, 0);
    println!(
        "wirebench {} seed={} seconds={} trace={}",
        args.kind.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    println!("fingerprint: {}", util::fingerprint(base, true));

    let mut setups = run::extra_setups(&inputs, base, run::SETUPS / 2)?;
    let leader_dir = base.join("leader");
    let (leader, first) = run::setup(&inputs, &leader_dir)?;
    setups.push(first);
    let mut model = Model::new(&inputs);
    for op in &inputs.preload {
        model.apply(op);
    }

    let secs = args.seconds as f64;
    let steal = util::CpuSteal::start();
    let calib = calib::Calib::start();
    let (mut timed, window_reads) = match args.kind {
        Kind::WindowReadMix => {
            let (timed, counts, checked) =
                run::window_mix(&inputs, &leader, secs, &mut log, args.trace)?;
            (timed, Some((counts, checked)))
        }
        _ => (
            run::closed_loop(&inputs, &leader, secs, &mut log, args.trace)?,
            None,
        ),
    };
    let (timed_scale, calib_cpu) = calib.stop();
    timed.server_cpu = timed.server_cpu.saturating_sub(calib_cpu);
    println!(
        "cpu steal during the timed phase: {:.1}% of the machine",
        steal.percent()
    );
    // Peak memory of the serving system: set-up plus the timed phase, before
    // the post phase starts replicas and reopens inside this process.
    let peak_rss_mb = util::peak_rss_mb();
    let mut failed: u64 = timed.sessions.iter().map(|s| s.failed).sum();
    for s in &timed.sessions {
        for e in &s.errors {
            eprintln!("wirebench: failed operation: {e}");
        }
    }
    if let Some(w) = timed
        .sessions
        .first()
        .filter(|_| args.kind == Kind::WindowReadMix)
    {
        println!(
            "open-loop writer ran at most {:.1} ms late",
            w.max_late.as_secs_f64() * 1e3
        );
    }
    // Fold every acknowledged statement into the model, in send order.
    let sent: Vec<usize> = match args.kind {
        Kind::WindowReadMix => vec![timed.sessions[0].sent],
        _ => timed.sessions.iter().map(|s| s.sent).collect(),
    };
    for (s, pool) in inputs.sessions.iter().enumerate() {
        for op in pool.iter().cycle().take(sent[s]) {
            model.apply(op);
        }
    }

    let mut post = post_phase(
        &inputs,
        leader,
        &leader_dir,
        base,
        &mut model,
        &mut log,
        args.trace,
    )?;
    if let Some((counts, checked)) = &window_reads {
        post.checks.check(checked.clone());
        post.checks.check(run::check_window_reads(counts, &model));
    }
    failed += post.failed;
    setups.extend(run::extra_setups(
        &inputs,
        base,
        run::SETUPS - setups.len(),
    )?);
    let attempted = timed.sessions.iter().map(|s| s.sent as u64).sum::<u64>() + post.ops;

    let metrics = if args.trace {
        let layers = layers::replay(
            &inputs,
            &sent,
            &post.wal_records,
            base,
            ratio(
                timed.db_after.wal_records - timed.db_before.wal_records,
                timed.db_after.wal_flushes - timed.db_before.wal_flushes,
            ),
            &mut log,
        )?;
        let path = PathBuf::from(".bench_out").join(format!(
            "trace-{}-{}.jsonl",
            args.kind.name(),
            args.seed
        ));
        log.write(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "trace: {} spans written to {}",
            log.spans.len(),
            path.display()
        );
        per_layer(&inputs, &timed, &post, &layers, &log)
    } else {
        end_to_end(&inputs, &timed, timed_scale, &post, &setups, peak_rss_mb)
    };
    for m in &metrics {
        println!("metric {:<32} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!("attempted={attempted} failed={failed}");
    Ok(util::result_json(
        post.checks.ok(),
        attempted,
        failed,
        &metrics,
    ))
}

fn ratio(a: u64, b: u64) -> f64 {
    a as f64 / b.max(1) as f64
}

fn post_phase(
    inputs: &Inputs,
    leader: run::Leader,
    leader_dir: &Path,
    base: &Path,
    model: &mut Model,
    log: &mut SpanLog,
    trace: bool,
) -> Res<Post> {
    let mut ops = 0u64;
    let mut failed = 0u64;
    let mut checks = run::Checks::default();
    // Replica catch-up over TCP; every follower's views must equal the
    // leader's.
    let wire_pre = run::wire_stats(&leader.addr)?;
    let (mut catchup_s, mut catchup_cpu_s) = (Vec::new(), Vec::new());
    let mut follower_views = Vec::new();
    let mut catchup_records = 0;
    while catchup_s.len() < run::CATCHUPS && catchup_s.iter().sum::<f64>() < run::CATCHUP_BUDGET_S {
        let dir = base.join(format!("follower-{}", catchup_s.len()));
        let calib = calib::Calib::start();
        let (secs, cpu, views, records) = run::catch_up(&leader, &dir, log, trace)?;
        let (scale, calib_cpu) = calib.stop();
        std::fs::remove_dir_all(&dir).map_err(|e| format!("remove follower dir: {e}"))?;
        catchup_s.push(secs);
        catchup_cpu_s.push(cpu.saturating_sub(calib_cpu).as_secs_f64() * scale);
        follower_views.push(views);
        catchup_records = records;
    }
    let wire_end = run::wire_stats(&leader.addr)?;
    // Point reads against the final state, one fresh session. They follow
    // the catch-ups, which give the host time to write back the timed
    // phase's WAL pages first.
    let reads_start = Instant::now();
    let (reads, read_rounds) = run::post_reads(inputs, &leader, model, &mut checks, log, trace)?;
    ops += reads.sent as u64;
    failed += reads.failed;
    let leader_tuples = leader
        .handle()
        .stats()
        .map_err(|e| format!("stats: {e}"))?
        .tuples_appended;
    let mut db = leader.stop();
    let leader_views = db.snapshot_views();
    if follower_views.iter().any(|v| *v != leader_views) {
        checks.check(Err("follower views differ from the leader's".into()));
    }

    let t0 = Instant::now();
    if trace {
        log.time("ShardedDb::checkpoint", 0, || db.checkpoint())
    } else {
        db.checkpoint()
    }
    .map_err(|e| format!("checkpoint: {e}"))?;
    let checkpoint_ms = t0.elapsed().as_secs_f64() * 1e3;
    drop(db);
    // The serving leader pinned its whole WAL for followers, so the log
    // still holds every record of the run.
    let wal_records = if trace {
        layers::newest_records(leader_dir)?
    } else {
        Vec::new()
    };

    // Opening validates every retained segment. Reopen once, checkpoint
    // again (no follower pins the log now, so it is truncated), then
    // append a fixed tail: the timed restarts load one checkpoint and
    // replay that tail, the same work whatever the timed phase achieved.
    let opts = run::leader_opts(inputs);
    let mut db =
        ShardedDb::open_with(leader_dir, gen::SHARDS, opts).map_err(|e| format!("reopen: {e}"))?;
    if db.snapshot_views() != leader_views {
        checks.check(Err(
            "reopened leader's views differ from the leader's".into()
        ));
    }
    db.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
    for op in &inputs.tail {
        ops += 1;
        match db.execute(op.sql()) {
            Ok(_) => model.apply(op),
            Err(e) => {
                failed += 1;
                eprintln!("wirebench: tail statement failed: {e}");
            }
        }
    }
    checks.check(model.check_db(&db));
    for (what, wrong) in model.perturbed() {
        if wrong.check_db(&db).is_ok() {
            checks.check(Err(format!(
                "self-test: the check accepted a model with {what}"
            )));
        }
    }
    let views = db.snapshot_views();
    drop(db);
    let (restarts, replayed) = run::restarts(leader_dir, opts, &views, &mut checks, log, trace)?;
    Ok(Post {
        reads,
        reads_start,
        read_rounds,
        catchup_s,
        catchup_cpu_s,
        catchup_records,
        leader_tuples,
        shipped_bytes: wire_end.net_shipped_bytes - wire_pre.net_shipped_bytes,
        checkpoint_ms,
        restarts,
        replayed,
        wal_records,
        wire_end,
        ops,
        failed,
        checks,
    })
}

fn appends<'a>(inputs: &Inputs, timed: &'a Timed) -> Vec<&'a run::SessionRun> {
    match inputs.kind {
        Kind::WindowReadMix => vec![&timed.sessions[0]],
        _ => timed.sessions.iter().collect(),
    }
}

fn end_to_end(
    inputs: &Inputs,
    timed: &Timed,
    timed_scale: f64,
    post: &Post,
    setups: &[run::Step],
    peak_rss_mb: f64,
) -> Vec<Metric> {
    let appended = run::summarize(&appends(inputs, timed), timed.start, true);
    // The windowed mix reads during the timed phase; the other workloads
    // only in the post phase.
    let reads = match inputs.kind {
        Kind::WindowReadMix => run::summarize(&[&timed.sessions[1]], timed.start, false),
        _ => run::summarize(&[&post.reads], post.reads_start, false),
    };
    let (before, after) = (&timed.db_before, &timed.db_after);
    let scaled = |steps: &[run::Step], f: fn(&run::Step) -> f64| -> f64 {
        median(&steps.iter().map(|s| f(s) * s.scale).collect::<Vec<_>>())
    };
    let stmt_cpu_us = timed.server_cpu.as_secs_f64() * 1e6 / timed.served.max(1) as f64;
    // Unscaled figures, and the wall-clock ones: wall-clock figures follow
    // the machine's CPU steal and the host disk's fsync speed from run to
    // run, further than any bound the benchmark may set, so they are
    // printed, not reported (see README.md). The open-loop writer's rate
    // is its fixed schedule, not the leader's throughput; its lateness is
    // printed instead.
    let append_rate = match inputs.kind {
        Kind::WindowReadMix => None,
        _ => Some(("append_tuples_per_s", appended.rate)),
    };
    let info = [
        ("machine_scale", timed_scale),
        (
            "setup_wall_s",
            median(&setups.iter().map(|s| s.wall).collect::<Vec<_>>()),
        ),
        ("stmt_cpu_us_unscaled", stmt_cpu_us),
        ("append_p50_us", appended.p50_us),
        ("append_p99_us", appended.p99_us),
        ("append_samples", appended.samples as f64),
        ("read_p50_us", reads.p50_us),
        ("read_p99_us", reads.p99_us),
        ("reads_per_s", reads.rate),
        ("read_samples", reads.samples as f64),
        (
            "catchup_tuples_per_s",
            post.leader_tuples as f64 / median(&post.catchup_s),
        ),
        (
            "restart_s",
            median(&post.restarts.iter().map(|s| s.wall).collect::<Vec<_>>()),
        ),
    ];
    for (name, value) in append_rate.into_iter().chain(info) {
        println!("info {name} {value:.4}");
    }
    let m = |name, unit, value| Metric { name, unit, value };
    vec![
        m("setup_s", "s", scaled(setups, |s| s.wall)),
        m("stmt_cpu_us", "us", stmt_cpu_us * timed_scale),
        m("read_cpu_us", "us", median(&post.read_rounds)),
        m(
            "catchup_cpu_us_per_tuple",
            "us",
            median(&post.catchup_cpu_s) * 1e6 / post.leader_tuples.max(1) as f64,
        ),
        m(
            "restart_cpu_ms",
            "ms",
            scaled(&post.restarts, |s| s.cpu) * 1e3,
        ),
        m(
            "wal_bytes_per_tuple",
            "bytes",
            ratio(
                after.wal_bytes - before.wal_bytes,
                after.tuples_appended - before.tuples_appended,
            ),
        ),
        m("peak_rss_mb", "MiB", peak_rss_mb),
    ]
}

fn per_layer(
    inputs: &Inputs,
    timed: &Timed,
    post: &Post,
    layers: &layers::Layers,
    log: &SpanLog,
) -> Vec<Metric> {
    let (db0, db1) = (&timed.db_before, &timed.db_after);
    let (w0, w1) = (&timed.wire_before, &post.wire_end);
    let appends_n = db1.appends - db0.appends;
    let records_per_flush = ratio(
        db1.wal_records - db0.wal_records,
        db1.wal_flushes - db0.wal_flushes,
    );
    let server_p50 = timed.wire_after.net_latency_p50_nanos as f64 / 1e3;
    // The server's service-time sample covers every request of the timed
    // phase, so the client side is taken over the same mix: appends and,
    // in the windowed workload, point reads.
    let mut client_spans = log.self_times_us(run::APPEND_SPAN, run::TIMED_SPAN);
    client_spans.extend(log.self_times_us(run::READ_SPAN, run::TIMED_SPAN));
    let client = util::median(&client_spans);
    let writers = appends(inputs, timed);
    let traced = run::p50_traced(&writers, true);
    let untraced = run::p50_traced(&writers, false);
    let records_per_stmt = ratio(db1.wal_records - db0.wal_records, appends_n);
    let append_path = layers.parse_us
        + layers.apply_us
        + layers.encode_us * records_per_stmt
        + layers.flush_us / records_per_flush.max(1e-9);
    let reads_n = match inputs.kind {
        Kind::WindowReadMix => timed.sessions[1].sent as f64,
        _ => 0.0,
    };
    let writes_n = writers.iter().map(|s| s.sent).sum::<usize>() as f64;
    let write_share = writes_n / (writes_n + reads_n);
    let attributed = write_share * append_path + (1.0 - write_share) * layers.select_us;
    let unattributed = server_p50 - attributed;
    let transport = client - server_p50;
    println!(
        "accounting: client p50 {client:.1} us = transport {transport:.1} + server service p50 {server_p50:.1}; \
         service = {:.0}% appends x (parse {:.1} + apply {:.1} + encode {:.1} + flush share {:.1}) \
         + {:.0}% reads x select {:.1} + unattributed {unattributed:.1}",
        write_share * 100.0,
        layers.parse_us,
        layers.apply_us,
        layers.encode_us * records_per_stmt,
        layers.flush_us / records_per_flush.max(1e-9),
        (1.0 - write_share) * 100.0,
        layers.select_us,
    );
    println!(
        "tracing overhead: traced p50 {traced:.1} us vs untraced p50 {untraced:.1} us ({:+.2}%)",
        (traced - untraced) / untraced * 100.0
    );
    let retries: u64 = timed.sessions.iter().map(|s| s.retries).sum();
    let m = |name, unit, value| Metric { name, unit, value };
    vec![
        m("sql.parse_us", "us", layers.parse_us),
        m(
            "sql.stmt_bytes_per_tuple",
            "bytes",
            layers.stmt_bytes_per_tuple,
        ),
        m("net.transport_p50_us", "us", transport),
        m("net.server_service_p50_us", "us", server_p50),
        m(
            "net.frames_per_stmt",
            "count",
            ratio(
                (w1.net_frames_in + w1.net_frames_out) - (w0.net_frames_in + w0.net_frames_out),
                w1.net_requests - w0.net_requests,
            ),
        ),
        m("net.client_retries", "count", retries as f64),
        m(
            "net.overload_rejections",
            "count",
            (w1.net_overload_rejections - w0.net_overload_rejections) as f64,
        ),
        m(
            "net.ship_mb_per_s",
            "MB/s",
            post.shipped_bytes as f64 / 1e6 / post.catchup_s.iter().sum::<f64>(),
        ),
        m("core.apply_us", "us", layers.apply_us),
        m("core.unattributed_p50_us", "us", unattributed),
        m("core.select_us", "us", layers.select_us),
        m(
            "session.replays",
            "count",
            (w1.session_replays - w0.session_replays) as f64,
        ),
        m(
            "views.maintain_us_per_append",
            "us",
            ratio(db1.maintenance_nanos - db0.maintenance_nanos, appends_n) / 1e3,
        ),
        m(
            "views.maintained_per_append",
            "count",
            ratio(db1.views_maintained - db0.views_maintained, appends_n),
        ),
        m(
            "views.guard_skips_per_append",
            "count",
            ratio(db1.skipped_by_guard - db0.skipped_by_guard, appends_n),
        ),
        m(
            "views.vectorized_share",
            "ratio",
            ratio(
                db1.vectorized_views - db0.vectorized_views,
                db1.views_maintained - db0.views_maintained,
            ),
        ),
        m("views.key_lookup_us", "us", layers.key_lookup_us),
        m(
            "algebra.work_per_tuple",
            "count",
            ratio(
                db1.work.total() - db0.work.total(),
                db1.tuples_appended - db0.tuples_appended,
            ),
        ),
        m("durability.flush_us", "us", layers.flush_us),
        m("durability.records_per_flush", "count", records_per_flush),
        m("durability.encode_us", "us", layers.encode_us),
        m(
            "durability.wal_bytes_per_record",
            "bytes",
            ratio(
                db1.wal_bytes - db0.wal_bytes,
                db1.wal_records - db0.wal_records,
            ),
        ),
        m("durability.checkpoint_ms", "ms", post.checkpoint_ms),
        m("durability.replayed_records", "count", post.replayed as f64),
        m(
            "follower.apply_records_per_s",
            "1/s",
            post.catchup_records as f64 / median(&post.catchup_s),
        ),
        m("trace.client_p50_us", "us", client),
        m("trace.layer_sum_us", "us", client - unattributed),
        m(
            "trace.overhead_pct",
            "%",
            (traced - untraced) / untraced * 100.0,
        ),
    ]
}
