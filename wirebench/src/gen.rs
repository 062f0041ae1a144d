//! Seeded workload inputs.
//!
//! Everything a run sends — schema, preload, every session's statement
//! stream, the read keys and the post-phase tail — is generated here from
//! `--seed` before anything is timed. The program under test only ever
//! sees the generated SQL text; the reference model in [`crate::model`]
//! sees the same rows as numbers.

use chronicle_db::shard_of_group;
use chronicle_testkit::{Rng, SeedableRng, SmallRng, Zipf};

/// Shards behind the leader.
pub const SHARDS: usize = 2;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Two closed-loop sessions, single-row appends, fsync per statement.
    AppendRow,
    /// Two closed-loop sessions, 256-row appends, auto-checkpointing on.
    AppendBatch,
    /// One open-loop writer (sliding-window views, relation updates) and
    /// one closed-loop Zipf point reader.
    WindowReadMix,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "append_row" => Some(Kind::AppendRow),
            "append_batch" => Some(Kind::AppendBatch),
            "window_read_mix" => Some(Kind::WindowReadMix),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::AppendRow => "append_row",
            Kind::AppendBatch => "append_batch",
            Kind::WindowReadMix => "window_read_mix",
        }
    }
}

/// One generated chronicle row. `amount` is `cents / 100`, spelled in the
/// SQL text with exactly two decimals, so the model can sum it exactly.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    pub acct: i64,
    pub qty: i64,
    pub cents: i64,
}

/// One generated statement.
#[derive(Debug, Clone)]
pub enum Op {
    /// `APPEND INTO <group>_c [AT at] VALUES …`.
    Append {
        sql: String,
        group: usize,
        at: Option<i64>,
        rows: Vec<Row>,
    },
    /// `UPDATE customers SET region = … WHERE cid = …` (a broadcast).
    Update { sql: String, cid: i64, region: i64 },
    /// `INSERT INTO customers VALUES …` (preload only).
    Customers { sql: String, rows: Vec<(i64, i64)> },
}

impl Op {
    pub fn sql(&self) -> &str {
        match self {
            Op::Append { sql, .. } | Op::Update { sql, .. } | Op::Customers { sql, .. } => sql,
        }
    }

    pub fn tuples(&self) -> usize {
        match self {
            Op::Append { rows, .. } => rows.len(),
            _ => 0,
        }
    }
}

/// A point read: `SELECT * FROM <group>_acct WHERE acct = k`.
#[derive(Debug, Clone)]
pub struct Read {
    pub sql: String,
    pub group: usize,
    pub acct: i64,
}

/// Sliding-window calendar of the windowed workload's periodic views.
pub const WINDOW_WIDTH: i64 = 30;
pub const WINDOW_STEP: i64 = 1;
pub const WINDOW_EXPIRE: i64 = 30;

/// Everything one run sends.
#[derive(Debug)]
pub struct Inputs {
    pub kind: Kind,
    /// Group names; group `g` owns chronicle `<name>_c` and views
    /// `<name>_acct`, `<name>_big`/`<name>_win` and `<name>_region`.
    pub groups: Vec<String>,
    pub ddl: Vec<String>,
    /// Applied in-process during set-up.
    pub preload: Vec<Op>,
    /// Closed-loop workloads: one statement pool per session, sent
    /// cyclically. Windowed workload: one entry, the writer's schedule.
    pub sessions: Vec<Vec<Op>>,
    /// Statements per session sent before timing starts.
    pub warmup: usize,
    /// Point reads, sent cyclically.
    pub reads: Vec<Read>,
    /// Post-phase reads for the closed-loop workloads.
    pub post_reads: usize,
    /// Applied in-process after the explicit checkpoint: the WAL tail a
    /// restart replays.
    pub tail: Vec<Op>,
    /// Windowed workload: the writer's period between statements.
    pub writer_period_us: u64,
    /// Leader auto-checkpoint interval (records per shard).
    pub auto_checkpoint: Option<u64>,
}

fn amount(cents: i64) -> String {
    format!("{}.{:02}", cents / 100, cents % 100)
}

fn append_sql(group: &str, at: Option<i64>, rows: &[Row]) -> String {
    let mut s = format!("APPEND INTO {group}_c ");
    if let Some(t) = at {
        s.push_str(&format!("AT {t} "));
    }
    s.push_str("VALUES ");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&format!("({}, {}, {})", r.acct, r.qty, amount(r.cents)));
    }
    s
}

/// `n` group names, `n / SHARDS` of them on each shard under the static
/// hash placement, so both shard workers carry equal load.
fn balanced_groups(prefix: &str, n: usize) -> Vec<String> {
    let per = n / SHARDS;
    let mut taken = [0usize; SHARDS];
    let mut out = Vec::new();
    let mut i = 0;
    while out.len() < n {
        let name = format!("{prefix}{i}");
        let s = shard_of_group(&name, SHARDS);
        if taken[s] < per {
            taken[s] += 1;
            out.push(name);
        }
        i += 1;
    }
    out
}

fn random_row(rng: &mut SmallRng, acct: i64) -> Row {
    Row {
        acct,
        qty: 1 + (rng.next_u64() % 100) as i64,
        cents: 1 + (rng.next_u64() % 100_000) as i64,
    }
}

fn append_op(groups: &[String], g: usize, at: Option<i64>, rows: Vec<Row>) -> Op {
    Op::Append {
        sql: append_sql(&groups[g], at, &rows),
        group: g,
        at,
        rows,
    }
}

fn schema(
    groups: &[String],
    accounts: i64,
    regions: i64,
    windowed: bool,
) -> (Vec<String>, Vec<Op>) {
    let mut ddl =
        vec!["CREATE RELATION customers (cid INT, region INT, PRIMARY KEY (cid))".to_string()];
    for g in groups {
        ddl.push(format!("CREATE GROUP {g}"));
        ddl.push(format!(
            "CREATE CHRONICLE {g}_c (sn SEQ, acct INT, qty INT, amount FLOAT) IN GROUP {g}"
        ));
        ddl.push(format!(
            "CREATE VIEW {g}_acct AS SELECT acct, COUNT(*) AS n, SUM(qty) AS q, SUM(amount) AS s \
             FROM {g}_c GROUP BY acct"
        ));
        ddl.push(format!(
            "CREATE VIEW {g}_region AS SELECT region, COUNT(*) AS n, SUM(qty) AS q \
             FROM {g}_c JOIN customers ON acct = cid GROUP BY region"
        ));
        if windowed {
            ddl.push(format!(
                "CREATE PERIODIC VIEW {g}_win AS SELECT acct, COUNT(*) AS n, SUM(amount) AS s \
                 FROM {g}_c GROUP BY acct \
                 OVER CALENDAR SLIDING {WINDOW_WIDTH} STEP {WINDOW_STEP} EXPIRE AFTER {WINDOW_EXPIRE}"
            ));
        } else {
            ddl.push(format!(
                "CREATE VIEW {g}_big AS SELECT acct, COUNT(*) AS n, SUM(amount) AS s \
                 FROM {g}_c WHERE amount > 990.0 GROUP BY acct"
            ));
        }
    }
    // Every account is a customer, so every appended row joins.
    let mut customers = Vec::new();
    let mut cid = 0;
    while cid < accounts {
        let rows: Vec<(i64, i64)> = (cid..(cid + 256).min(accounts))
            .map(|c| (c, c % regions))
            .collect();
        let body: Vec<String> = rows.iter().map(|(c, r)| format!("({c}, {r})")).collect();
        customers.push(Op::Customers {
            sql: format!("INSERT INTO customers VALUES {}", body.join(", ")),
            rows,
        });
        cid += 256;
    }
    (ddl, customers)
}

/// One row per account per group, so every point read finds its row.
fn preload_accounts(
    rng: &mut SmallRng,
    groups: &[String],
    accounts: i64,
    at: Option<i64>,
) -> Vec<Op> {
    let mut ops = Vec::new();
    for g in 0..groups.len() {
        let mut acct = 0;
        while acct < accounts {
            let rows: Vec<Row> = (acct..(acct + 256).min(accounts))
                .map(|a| random_row(rng, a))
                .collect();
            ops.push(append_op(groups, g, at, rows));
            acct += 256;
        }
    }
    ops
}

fn reads(rng: &mut SmallRng, groups: &[String], accounts: i64, n: usize) -> Vec<Read> {
    let zipf = Zipf::new(accounts as usize, 0.99);
    (0..n)
        .map(|_| {
            let group = (rng.next_u64() % groups.len() as u64) as usize;
            // Popular ranks map to scattered account ids.
            let rank = zipf.sample(rng) as i64;
            let acct = (rank * 7919) % accounts;
            Read {
                sql: format!("SELECT * FROM {}_acct WHERE acct = {acct}", groups[group]),
                group,
                acct,
            }
        })
        .collect()
}

/// Generate the inputs of `kind` for a run of `seconds` from `seed`.
pub fn generate(kind: Kind, seed: u64, seconds: u64) -> Inputs {
    let mut rng =
        SmallRng::seed_from_u64(seed ^ (kind as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    match kind {
        Kind::AppendRow | Kind::AppendBatch => {
            let batch = if kind == Kind::AppendRow { 1 } else { 256 };
            let pool = if kind == Kind::AppendRow { 8192 } else { 256 };
            let accounts = 1000;
            let regions = 16;
            let groups = balanced_groups("g", 8);
            let (ddl, mut preload) = schema(&groups, accounts, regions, false);
            preload.extend(preload_accounts(&mut rng, &groups, accounts, None));
            let gen_stmt = |rng: &mut SmallRng| {
                let g = (rng.next_u64() % groups.len() as u64) as usize;
                let rows = (0..batch)
                    .map(|_| {
                        let a = (rng.next_u64() % accounts as u64) as i64;
                        random_row(rng, a)
                    })
                    .collect();
                append_op(&groups, g, None, rows)
            };
            let sessions: Vec<Vec<Op>> = (0..2)
                .map(|_| (0..pool).map(|_| gen_stmt(&mut rng)).collect())
                .collect();
            let tail_len = if kind == Kind::AppendRow { 8192 } else { 128 };
            let tail = (0..tail_len).map(|_| gen_stmt(&mut rng)).collect();
            let reads = reads(&mut rng, &groups, accounts, 2048);
            Inputs {
                kind,
                groups,
                ddl,
                preload,
                sessions,
                warmup: if kind == Kind::AppendRow { 64 } else { 8 },
                reads,
                post_reads: 6000,
                tail,
                writer_period_us: 0,
                auto_checkpoint: (kind == Kind::AppendBatch).then_some(2048),
            }
        }
        Kind::WindowReadMix => {
            let accounts = 4096;
            let regions = 16;
            let period_us = 8000;
            let groups = balanced_groups("w", 4);
            let (ddl, mut preload) = schema(&groups, accounts, regions, true);
            preload.extend(preload_accounts(&mut rng, &groups, accounts, Some(1)));
            // The writer's schedule: one statement every `period_us`; every
            // 50th is a proactive customer update. Chronons follow the
            // statement index, so every group's clock only moves forward.
            let n = (seconds * 1_000_000 / period_us) as i64;
            let mut at = 1;
            let mut writer = Vec::with_capacity(n as usize);
            let next = |rng: &mut SmallRng, i: i64, at: &mut i64| -> Op {
                if i % 50 == 49 {
                    let cid = (rng.next_u64() % accounts as u64) as i64;
                    let region = (rng.next_u64() % regions as u64) as i64;
                    return Op::Update {
                        sql: format!("UPDATE customers SET region = {region} WHERE cid = {cid}"),
                        cid,
                        region,
                    };
                }
                *at += 1;
                let g = (i % groups.len() as i64) as usize;
                let rows = (0..8)
                    .map(|_| {
                        let a = (rng.next_u64() % accounts as u64) as i64;
                        random_row(rng, a)
                    })
                    .collect();
                append_op(&groups, g, Some(*at), rows)
            };
            for i in 0..n {
                writer.push(next(&mut rng, i, &mut at));
            }
            let tail = (n..n + 1024).map(|i| next(&mut rng, i, &mut at)).collect();
            let reads = reads(&mut rng, &groups, accounts, 1 << 16);
            Inputs {
                kind,
                groups,
                ddl,
                preload,
                sessions: vec![writer],
                warmup: 0,
                reads,
                post_reads: 1500,
                tail,
                writer_period_us: period_us,
                auto_checkpoint: None,
            }
        }
    }
}
