//! The reference model: what every view must hold, computed by the
//! benchmark itself from the statements it generated and saw acknowledged.
//!
//! COUNTs and INT sums are exact integers. Amounts are generated as whole
//! cents, so the exact FLOAT sum is an integer number of cents; a view's
//! FLOAT sum is accepted when it lies within the summation error bound
//! `(n + 2)·ε·Σ|x|` of it — any order of naive `f64` addition meets that
//! bound, and so does an exact accumulator. Sliding windows and the join
//! view are recomputed from the row stream and the writer's own history of
//! the `customers` relation.

use std::collections::BTreeMap;

use chronicle_db::ShardedDb;
use chronicle_types::{Tuple, Value};

use crate::gen::{Inputs, Op, Row, WINDOW_EXPIRE, WINDOW_STEP, WINDOW_WIDTH};

/// Exact aggregate of a set of rows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    pub n: i64,
    pub q: i64,
    pub cents: i128,
    pub abs_cents: i128,
}

impl Agg {
    fn add(&mut self, r: &Row) {
        self.n += 1;
        self.q += r.qty;
        self.cents += r.cents as i128;
        self.abs_cents += (r.cents as i128).abs();
    }
}

/// Reference state of every view the workloads define.
#[derive(Debug, Clone)]
pub struct Model {
    groups: Vec<String>,
    windowed: bool,
    /// Per group: `acct → agg` of `<g>_acct`.
    pub acct: Vec<BTreeMap<i64, Agg>>,
    /// Per group: `acct → agg` of `<g>_big` (rows with amount > 990.00).
    big: Vec<BTreeMap<i64, Agg>>,
    /// Per group: `region → agg` of `<g>_region`, joined with the
    /// customer's region as of the append.
    region: Vec<BTreeMap<i64, Agg>>,
    /// Per group: `(chronon, row)` of every append, for the windows.
    stream: Vec<Vec<(i64, Row)>>,
    customers: BTreeMap<i64, i64>,
    /// Highest chronon appended anywhere.
    last_at: i64,
}

fn int(v: &Value) -> Option<i64> {
    match v {
        Value::Int(i) => Some(*i),
        _ => None,
    }
}

fn float(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}

/// Is `got` within the summation error bound of the exact cent sum?
fn float_ok(got: f64, agg: &Agg) -> bool {
    let exact = agg.cents as f64 / 100.0;
    let bound = (agg.n as f64 + 2.0) * f64::EPSILON * (agg.abs_cents as f64 / 100.0);
    (got - exact).abs() <= bound
}

impl Model {
    pub fn new(inputs: &Inputs) -> Model {
        let n = inputs.groups.len();
        Model {
            groups: inputs.groups.clone(),
            windowed: inputs.kind == crate::gen::Kind::WindowReadMix,
            acct: vec![BTreeMap::new(); n],
            big: vec![BTreeMap::new(); n],
            region: vec![BTreeMap::new(); n],
            stream: vec![Vec::new(); n],
            customers: BTreeMap::new(),
            last_at: 0,
        }
    }

    /// Apply one acknowledged statement, in the order the engine saw it
    /// (order matters only across relation updates, which only the
    /// single windowed writer sends).
    pub fn apply(&mut self, op: &Op) {
        match op {
            Op::Customers { rows, .. } => {
                for &(cid, region) in rows {
                    self.customers.insert(cid, region);
                }
            }
            Op::Update { cid, region, .. } => {
                self.customers.insert(*cid, *region);
            }
            Op::Append {
                group, at, rows, ..
            } => {
                let g = *group;
                for r in rows {
                    self.acct[g].entry(r.acct).or_default().add(r);
                    if r.cents > 99_000 {
                        self.big[g].entry(r.acct).or_default().add(r);
                    }
                    if let Some(&region) = self.customers.get(&r.acct) {
                        self.region[g].entry(region).or_default().add(r);
                    }
                    if let Some(t) = at {
                        self.stream[g].push((*t, *r));
                        self.last_at = self.last_at.max(*t);
                    }
                }
            }
        }
    }

    /// Check one point-read answer `(acct, n, q, s)` against the model.
    pub fn check_read(&self, group: usize, acct: i64, rows: &[Tuple]) -> Result<(), String> {
        if rows.len() != 1 {
            return Err(format!(
                "read of {}_acct acct={acct} returned {} rows",
                self.groups[group],
                rows.len()
            ));
        }
        let want = self.acct[group].get(&acct).copied().unwrap_or_default();
        check_acct_row(&self.groups[group], &rows[0], acct, &want)
    }

    /// Check every view of the leader (or any engine holding the same
    /// state) against the model.
    pub fn check_db(&self, db: &ShardedDb) -> Result<(), String> {
        for (g, name) in self.groups.iter().enumerate() {
            let view = format!("{name}_acct");
            let rows = db.query_view(&view).map_err(|e| format!("{view}: {e}"))?;
            if rows.len() != self.acct[g].len() {
                return Err(format!(
                    "{view}: {} rows, model has {}",
                    rows.len(),
                    self.acct[g].len()
                ));
            }
            for row in &rows {
                let acct = int(row.get(0)).ok_or_else(|| format!("{view}: bad key {row:?}"))?;
                let want = self.acct[g]
                    .get(&acct)
                    .ok_or_else(|| format!("{view}: unexpected acct {acct}"))?;
                check_acct_row(name, row, acct, want)?;
            }
            check_keyed(
                db,
                &format!("{name}_region"),
                &self.region[g],
                |row, want| int(row.get(2)) == Some(want.q),
            )?;
            if self.windowed {
                self.check_windows(db, g)?;
            } else {
                check_keyed(db, &format!("{name}_big"), &self.big[g], |row, want| {
                    float(row.get(2)).is_some_and(|s| float_ok(s, want))
                })?;
            }
        }
        Ok(())
    }

    fn check_windows(&self, db: &ShardedDb, g: usize) -> Result<(), String> {
        let name = format!("{}_win", self.groups[g]);
        let chron = format!("{}_c", self.groups[g]);
        let shard = db
            .shard_of_chronicle(&chron)
            .map_err(|e| format!("{chron}: {e}"))?;
        let set = db
            .shard(shard)
            .periodic_view(&name)
            .map_err(|e| format!("{name}: {e}"))?;
        let mut stream = self.stream[g].clone();
        stream.sort_by_key(|(t, _)| *t);
        let in_range = |lo: i64, hi: i64| {
            let a = stream.partition_point(|(t, _)| *t < lo);
            let b = stream.partition_point(|(t, _)| *t < hi);
            &stream[a..b]
        };
        let mut present = std::collections::BTreeSet::new();
        for (&idx, state) in set.live_views().chain(set.closed_views()) {
            let start = idx as i64 * WINDOW_STEP;
            let (lo, hi) = (state.interval.start.0, state.interval.end.0);
            if (lo, hi) != (start, start + WINDOW_WIDTH) {
                return Err(format!(
                    "{name}[{idx}]: interval [{lo}, {hi}) is not [{start}, {})",
                    start + WINDOW_WIDTH
                ));
            }
            let mut want: BTreeMap<i64, Agg> = BTreeMap::new();
            for (_, r) in in_range(lo, hi) {
                want.entry(r.acct).or_default().add(r);
            }
            let rows = state.view.rows();
            if rows.len() != want.len() {
                return Err(format!(
                    "{name}[{idx}]: {} rows, recomputation has {}",
                    rows.len(),
                    want.len()
                ));
            }
            for row in &rows {
                let acct = int(row.get(0)).ok_or_else(|| format!("{name}: bad key {row:?}"))?;
                let w = want
                    .get(&acct)
                    .ok_or_else(|| format!("{name}[{idx}]: unexpected acct {acct}"))?;
                if int(row.get(1)) != Some(w.n)
                    || !float(row.get(2)).is_some_and(|s| float_ok(s, w))
                {
                    return Err(format!(
                        "{name}[{idx}] acct {acct}: got {row:?}, want {w:?}"
                    ));
                }
            }
            present.insert(idx as i64);
        }
        // Every window that holds data and cannot have expired yet — its
        // end plus the grace period lies beyond the newest chronon — must
        // still be there.
        for (t, _) in &stream {
            let first = ((t - WINDOW_WIDTH).div_euclid(WINDOW_STEP) + 1).max(0);
            for idx in first..=t.div_euclid(WINDOW_STEP) {
                let end = idx * WINDOW_STEP + WINDOW_WIDTH;
                if end + WINDOW_EXPIRE > self.last_at && !present.contains(&idx) {
                    return Err(format!("{name}[{idx}]: missing, holds chronon {t}"));
                }
            }
        }
        Ok(())
    }

    /// Copies of the model with one deliberate error each, for the
    /// self-test: the checks must reject every one of them.
    pub fn perturbed(&self) -> Vec<(&'static str, Model)> {
        let mut out = Vec::new();
        let first_key = |m: &BTreeMap<i64, Agg>| m.keys().next().copied();
        if let Some(k) = first_key(&self.acct[0]) {
            let mut m = self.clone();
            m.acct[0].get_mut(&k).expect("key").n += 1;
            out.push(("acct count + 1", m));
            let mut m = self.clone();
            m.acct[0].get_mut(&k).expect("key").cents += 1;
            out.push(("acct float sum + 0.01", m));
        }
        if let Some(k) = first_key(&self.region[0]) {
            let mut m = self.clone();
            m.region[0].get_mut(&k).expect("key").q += 1;
            out.push(("join view int sum + 1", m));
        }
        if self.windowed {
            let mut m = self.clone();
            // Drop the newest row: it sits in live windows.
            if let Some(pos) = m.stream[0]
                .iter()
                .enumerate()
                .max_by_key(|(_, (t, _))| *t)
                .map(|(i, _)| i)
            {
                m.stream[0].remove(pos);
                out.push(("window stream minus one row", m));
            }
        } else if let Some(k) = first_key(&self.big[0]) {
            let mut m = self.clone();
            m.big[0].remove(&k);
            out.push(("guarded view minus one key", m));
        }
        out
    }
}

fn check_acct_row(group: &str, row: &Tuple, acct: i64, want: &Agg) -> Result<(), String> {
    let ok = int(row.get(0)) == Some(acct)
        && int(row.get(1)) == Some(want.n)
        && int(row.get(2)) == Some(want.q)
        && float(row.get(3)).is_some_and(|s| float_ok(s, want));
    if ok {
        Ok(())
    } else {
        Err(format!(
            "{group}_acct acct {acct}: got {row:?}, want {want:?}"
        ))
    }
}

/// Rows `(key, n, x)` of `view` against `want`: same key set, exact
/// COUNT, and `x` accepted by `sum_ok`.
fn check_keyed(
    db: &ShardedDb,
    view: &str,
    want: &BTreeMap<i64, Agg>,
    sum_ok: impl Fn(&Tuple, &Agg) -> bool,
) -> Result<(), String> {
    let rows = db.query_view(view).map_err(|e| format!("{view}: {e}"))?;
    if rows.len() != want.len() {
        return Err(format!(
            "{view}: {} rows, model has {}",
            rows.len(),
            want.len()
        ));
    }
    for row in &rows {
        let key = int(row.get(0)).ok_or_else(|| format!("{view}: bad key {row:?}"))?;
        let w = want
            .get(&key)
            .ok_or_else(|| format!("{view}: unexpected key {key}"))?;
        if int(row.get(1)) != Some(w.n) || !sum_ok(row, w) {
            return Err(format!("{view} key {key}: got {row:?}, want {w:?}"));
        }
    }
    Ok(())
}
