//! Layer replays of the traced run: the workload's own statements and WAL
//! records, fed to one layer's public function at a time, each call inside
//! a span.

use std::path::Path;
use std::time::{Duration, Instant};

use chronicle_db::{DurabilityOptions, ShardedDb};
use chronicle_durability::{Wal, WalRecord};
use chronicle_types::Value;

use crate::gen::{Inputs, Op, SHARDS};
use crate::run::Res;
use crate::trace::SpanLog;
use crate::util::median;

/// Statements replayed per layer at most.
const MAX_STMTS: usize = 4096;
/// Point reads replayed at most.
const MAX_READS: usize = 1000;
/// WAL records read back per shard at most.
const MAX_RECORDS: usize = 2048;
/// Time budget of each replay loop.
const BUDGET: Duration = Duration::from_millis(1500);

/// Per-call medians of each replayed layer, in µs.
#[derive(Debug, Default)]
pub struct Layers {
    pub parse_us: f64,
    pub stmt_bytes_per_tuple: f64,
    pub apply_us: f64,
    pub select_us: f64,
    pub key_lookup_us: f64,
    pub encode_us: f64,
    pub flush_us: f64,
}

/// The acknowledged statements in (approximately) the order the leader
/// saw them: the sessions' streams interleaved round-robin.
fn stream<'a>(inputs: &'a Inputs, sent: &[usize]) -> Vec<&'a Op> {
    let mut out = Vec::new();
    let longest = sent.iter().copied().max().unwrap_or(0);
    'outer: for i in 0..longest {
        for (s, pool) in inputs.sessions.iter().enumerate() {
            if i < sent[s] {
                out.push(&pool[i % pool.len()]);
                if out.len() == MAX_STMTS {
                    break 'outer;
                }
            }
        }
    }
    out
}

/// Time `f` inside a span; returns its result and duration in µs.
fn timed<T>(log: &mut SpanLog, name: &'static str, parent: u64, f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = log.time(name, parent, f);
    (out, t0.elapsed().as_secs_f64() * 1e6)
}

/// The newest WAL records of every shard of the stopped durable database
/// under `root`, read and validated by `Wal::open`.
pub fn newest_records(root: &Path) -> Res<Vec<WalRecord>> {
    let mut out = Vec::new();
    for shard in 0..SHARDS {
        let dir = root.join(format!("shard-{shard:03}")).join("wal");
        let (_, records) = Wal::open(&dir, DurabilityOptions::default(), 0)
            .map_err(|e| format!("{}: {e}", dir.display()))?;
        let skip = records.len().saturating_sub(MAX_RECORDS);
        out.extend(records.into_iter().skip(skip).map(|(_, rec)| rec));
    }
    Ok(out)
}

/// Replay the workload through each layer. `sent` is how many statements
/// each session had acknowledged; `records` the leader's own newest WAL
/// records; `records_per_flush` the leader's measured group-commit size.
pub fn replay(
    inputs: &Inputs,
    sent: &[usize],
    records: &[WalRecord],
    scratch: &Path,
    records_per_flush: f64,
    log: &mut SpanLog,
) -> Res<Layers> {
    let phase = log.open("phase.layers", 0);
    let stmts = stream(inputs, sent);
    let mut layers = Layers::default();

    // sql: parse every replayed statement.
    let (mut parse, mut bytes, mut tuples) = (Vec::new(), 0usize, 0usize);
    let t0 = Instant::now();
    for op in &stmts {
        let (out, us) = timed(log, "chronicle_sql::parse", phase, || {
            chronicle_sql::parse(op.sql())
        });
        out.map_err(|e| format!("parse: {e}"))?;
        if let Op::Append { rows, sql, .. } = op {
            parse.push(us);
            bytes += sql.len();
            tuples += rows.len();
        }
        if t0.elapsed() > BUDGET {
            break;
        }
    }
    layers.parse_us = median(&parse);
    layers.stmt_bytes_per_tuple = bytes as f64 / tuples.max(1) as f64;

    // core: stamped apply on an in-memory engine with the same schema.
    let mut db = ShardedDb::new(SHARDS).map_err(|e| format!("in-memory db: {e}"))?;
    for sql in &inputs.ddl {
        db.execute(sql).map_err(|e| format!("{sql}: {e}"))?;
    }
    for op in &inputs.preload {
        db.execute(op.sql()).map_err(|e| format!("preload: {e}"))?;
    }
    let mut apply = Vec::new();
    let t0 = Instant::now();
    for (k, op) in stmts.iter().enumerate() {
        let (out, us) = timed(log, "ShardedDb::execute_stamped", phase, || {
            db.execute_stamped(op.sql(), 1, k as u64 + 1)
        });
        out.map_err(|e| format!("apply: {e}"))?;
        if matches!(op, Op::Append { .. }) {
            apply.push(us);
        }
        if t0.elapsed() > BUDGET {
            break;
        }
    }
    layers.apply_us = median(&apply);

    // views / core: the read path, as a key lookup and as a SELECT.
    let (mut lookup, mut select) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    for read in inputs.reads.iter().take(MAX_READS) {
        let view = format!("{}_acct", inputs.groups[read.group]);
        let (out, us) = timed(log, "ShardedDb::query_view_key", phase, || {
            db.query_view_key(&view, &[Value::Int(read.acct)])
        });
        out.map_err(|e| format!("lookup: {e}"))?;
        lookup.push(us);
        let (out, us) = timed(log, "ShardedDb::execute(SELECT)", phase, || {
            db.execute(&read.sql)
        });
        out.map_err(|e| format!("select: {e}"))?;
        select.push(us);
        if t0.elapsed() > BUDGET {
            break;
        }
    }
    layers.key_lookup_us = median(&lookup);
    layers.select_us = median(&select);
    drop(db);

    // durability: encode the leader's own records, then append and flush
    // them with fsync in groups of the leader's group-commit size.
    let mut encode = Vec::new();
    for rec in records {
        let (_, us) = timed(log, "WalRecord::encode", phase, || rec.encode());
        encode.push(us);
    }
    layers.encode_us = median(&encode);
    let opts = DurabilityOptions {
        fsync: true,
        ..Default::default()
    };
    let (mut wal, _) =
        Wal::open(scratch.join("wal"), opts, 0).map_err(|e| format!("wal open: {e}"))?;
    let group = (records_per_flush.round() as usize).max(1);
    let mut flush = Vec::new();
    let t0 = Instant::now();
    for chunk in records.chunks(group) {
        for rec in chunk {
            log.time("Wal::append", phase, || wal.append(rec))
                .map_err(|e| format!("wal append: {e}"))?;
        }
        let (out, us) = timed(log, "Wal::flush", phase, || wal.flush());
        out.map_err(|e| format!("wal flush: {e}"))?;
        flush.push(us);
        if t0.elapsed() > BUDGET {
            break;
        }
    }
    layers.flush_us = median(&flush);
    log.close(phase);
    Ok(layers)
}
