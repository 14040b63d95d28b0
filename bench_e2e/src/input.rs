//! Resident inputs, the scan that feeds them to a query, and the
//! sort-then-take-`k` oracle every output is checked against.

use std::hash::{DefaultHasher, Hasher};
use std::sync::Arc;

use histok_exec::QueryResult;
use histok_types::{F64Key, Result, Row};
use histok_workload::{Distribution, Workload, LINEITEM_PAYLOAD_BYTES};

/// Bytes one input row stands for: 8-byte key + 82-byte `lineitem` payload.
pub const ROW_BYTES: u64 = 8 + LINEITEM_PAYLOAD_BYTES as u64;

/// One generated table, held in memory for the whole run.
pub type Table = Arc<Vec<Row<F64Key>>>;

/// Generates `rows` lineitem rows with keys drawn from `dist`.
pub fn generate(rows: u64, dist: Distribution, seed: u64) -> Table {
    let workload = Workload::uniform(rows, seed)
        .with_distribution(dist)
        .with_payload_bytes(LINEITEM_PAYLOAD_BYTES);
    Arc::new(workload.rows().collect())
}

/// The table scan: clones one row at a time out of the resident table.
/// That clone is the scan's whole cost and is inside every timed region.
pub struct Scan {
    table: Table,
    next: usize,
}

impl Scan {
    pub fn new(table: &Table) -> Self {
        Scan { table: table.clone(), next: 0 }
    }
}

impl Iterator for Scan {
    type Item = Row<F64Key>;

    fn next(&mut self) -> Option<Row<F64Key>> {
        let row = self.table.get(self.next)?.clone();
        self.next += 1;
        Some(row)
    }
}

/// Only has to tell payloads apart; the default hasher's keys are fixed.
fn payload_hash(bytes: &[u8]) -> u64 {
    let mut hasher = DefaultHasher::new();
    hasher.write(bytes);
    hasher.finish()
}

/// The expected output of one query shape over one table.
pub struct Oracle {
    /// Expected rows in output order: key and payload hash.
    expected: Vec<(F64Key, u64)>,
    /// `dedup` queries promise distinct keys only; which duplicate's
    /// payload represents a group is the operator's choice.
    keys_only: bool,
}

impl Oracle {
    /// Sorts every key of `table`, takes the first `k` (distinct keys when
    /// `dedup`). Plain queries run on tables of distinct keys, so the
    /// expected payload is unambiguous.
    pub fn new(table: &Table, k: u64, dedup: bool) -> Self {
        let mut order: Vec<(F64Key, u32)> =
            table.iter().enumerate().map(|(i, row)| (row.key, i as u32)).collect();
        order.sort_unstable();
        if dedup {
            order.dedup_by_key(|(key, _)| *key);
        }
        order.truncate(k as usize);
        let expected = order
            .into_iter()
            .map(|(key, i)| (key, payload_hash(&table[i as usize].payload)))
            .collect();
        Oracle { expected, keys_only: dedup }
    }

    /// Makes the oracle wrong in one row (the `--corrupt-oracle` self-test).
    pub fn corrupt(&mut self) {
        if let Some(row) = self.expected.get_mut(0) {
            row.0 = F64Key(row.0.get() - 0.5);
        }
    }

    /// Checks row count, key sequence and payloads; `Err` says where the
    /// output first departs from the oracle.
    fn check(&self, rows: &[Row<F64Key>]) -> std::result::Result<(), String> {
        for (i, (row, (key, hash))) in rows.iter().zip(&self.expected).enumerate() {
            if row.key != *key {
                return Err(format!(
                    "row {i}: key {} where the oracle has {}",
                    row.key.get(),
                    key.get()
                ));
            }
            if !self.keys_only && payload_hash(&row.payload) != *hash {
                return Err(format!("row {i}: payload differs (key {})", key.get()));
            }
        }
        if rows.len() != self.expected.len() {
            return Err(format!(
                "{} rows where the oracle has {}",
                rows.len(),
                self.expected.len()
            ));
        }
        Ok(())
    }
}

/// Anything that ends in output rows.
pub trait Output {
    fn rows(&self) -> &[Row<F64Key>];
}

impl Output for QueryResult<F64Key> {
    fn rows(&self) -> &[Row<F64Key>] {
        &self.rows
    }
}

/// Counts queries against their oracle and prints each miss with the
/// workload, the query and the first differing row.
pub struct Checker {
    workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
}

impl Checker {
    pub fn new(workload: &'static str) -> Self {
        Checker { workload, attempted: 0, failed: 0 }
    }

    /// An `Err` counts as a miss, like a wrong answer.
    pub fn check<T: Output>(&mut self, label: &str, oracle: &Oracle, result: &Result<T>) {
        self.attempted += 1;
        let miss = match result {
            Ok(output) => oracle.check(output.rows()).err(),
            Err(e) => Some(format!("error: {e}")),
        };
        if let Some(miss) = miss {
            self.failed += 1;
            eprintln!("MISMATCH {} {label}: {miss}", self.workload);
        }
    }

    /// Folds in the counts of a checker another thread kept.
    pub fn absorb(&mut self, other: Checker) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn ok_share(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64
    }
}
