//! Fixed-input micro-calls into one crate's public functions, each against
//! a stated bound. They run once, in the traced run of the workload whose
//! `query_s` they should explain.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use histok_core::{Bucket, CutoffFilter, HistogramBuilder};
use histok_sort::{BatchedMerge, ExternalSorter, IterSource, LoserTree, DEFAULT_BATCH_ROWS};
use histok_storage::{IoStats, MemoryBackend, RunReader, RunWriter};
use histok_types::{F64Key, Result, Row, SortOrder};

use crate::input::Table;
use crate::report::Values;
use crate::workloads::MEMORY_BUDGET;

/// Rows of the merge and external-sort probes.
const PROBE_ROWS: usize = 1_000_000;
/// Sorted sources the merge probe feeds the loser tree.
const MERGE_SOURCES: usize = 16;
/// Bytes the run-file probes move.
const RUN_BYTES: usize = 64 * 1024 * 1024;

fn sorted_prefix(table: &Table, rows: usize) -> Vec<Row<F64Key>> {
    let mut rows: Vec<Row<F64Key>> = table.iter().take(rows).cloned().collect();
    rows.sort_unstable_by_key(|row| row.key);
    rows
}

/// `CutoffFilter::eliminate` over every key of the table, on a filter whose
/// cutoff is established at the table's 60,000th key.
pub fn filter(table: &Table, v: &mut Values) {
    let mut filter = CutoffFilter::new(60_000, SortOrder::Ascending);
    // Keys are the shuffled integers 1..=rows: 60 buckets of 1,000 rows
    // with boundaries 1,000 .. 60,000 model the lowest 60,000 keys.
    for i in 1..=60u64 {
        filter.insert_bucket(Bucket::new(F64Key((i * 1_000) as f64), 1_000));
    }
    assert!(filter.established(), "probe filter has a cutoff");
    let start = Instant::now();
    let mut eliminated = 0u64;
    for row in table.iter() {
        eliminated += u64::from(filter.eliminate(black_box(&row.key)));
    }
    let ns = start.elapsed().as_nanos() as f64;
    black_box(eliminated);
    v.set("core.filter_probe_ns_per_row", ns / table.len() as f64);
}

/// `HistogramBuilder::offer` over every key of the table in sorted order,
/// as one long run with the default 50 buckets.
pub fn histogram(table: &Table, v: &mut Values) {
    let mut keys: Vec<F64Key> = table.iter().map(|row| row.key).collect();
    keys.sort_unstable();
    let mut builder = HistogramBuilder::new();
    builder.start_run((keys.len() / 51) as u64, 50);
    let start = Instant::now();
    let mut buckets = 0u64;
    for key in &keys {
        buckets += u64::from(builder.offer(black_box(key)).is_some());
    }
    let ns = start.elapsed().as_nanos() as f64;
    black_box(buckets);
    builder.finish_run(true);
    v.set("core.histogram_probe_ns_per_row", ns / keys.len() as f64);
}

/// `LoserTree` merging 16 in-memory sorted sources of 1 M rows in total.
pub fn merge(table: &Table, v: &mut Values) {
    let mut parts: Vec<Vec<Row<F64Key>>> = vec![Vec::new(); MERGE_SOURCES];
    for (i, row) in table.iter().take(PROBE_ROWS).enumerate() {
        parts[i % MERGE_SOURCES].push(row.clone());
    }
    let total: usize = parts.iter().map(Vec::len).sum();
    let sources = parts
        .into_iter()
        .map(|mut part| {
            part.sort_unstable_by_key(|row| row.key);
            IterSource::new(part.into_iter().map(Ok))
        })
        .collect();
    let start = Instant::now();
    let tree = LoserTree::new(sources, SortOrder::Ascending).expect("in-memory sources");
    let merged = BatchedMerge::new(tree, DEFAULT_BATCH_ROWS)
        .map(|row: Result<Row<F64Key>>| black_box(row).is_ok())
        .filter(|ok| *ok)
        .count();
    let secs = start.elapsed().as_secs_f64();
    assert_eq!(merged, total, "merge probe lost rows");
    v.set("sort.merge_probe_rows_per_s", total as f64 / secs);
}

/// `ExternalSorter`: a full sort of 1 M rows under the benchmark's memory
/// budget on `MemoryBackend`, no filter, drained to the end.
pub fn external_sort(table: &Table, v: &mut Values) {
    let rows = table.len().min(PROBE_ROWS);
    let start = Instant::now();
    let mut sorter: ExternalSorter<F64Key> = ExternalSorter::new(
        Arc::new(MemoryBackend::new()),
        SortOrder::Ascending,
        MEMORY_BUDGET,
        IoStats::new(),
    );
    for row in table.iter().take(rows) {
        sorter.push(row.clone()).expect("memory backend");
    }
    let sorted =
        sorter.finish().expect("memory backend").filter(|row| black_box(row).is_ok()).count();
    let secs = start.elapsed().as_secs_f64();
    assert_eq!(sorted, rows, "external sort probe lost rows");
    v.set("sort.external_sort_probe_rows_per_s", rows as f64 / secs);
}

/// `RunWriter` / `RunReader` moving 64 MB through `MemoryBackend`, against
/// a `copy_from_slice` of the same bytes.
pub fn run_io(table: &Table, v: &mut Values) {
    let row_len = table[0].encoded_len();
    let rows = sorted_prefix(table, RUN_BYTES / row_len);
    let backend = MemoryBackend::new();

    let start = Instant::now();
    let mut writer = RunWriter::create(&backend, "probe", SortOrder::Ascending, IoStats::new())
        .expect("memory backend");
    for row in &rows {
        writer.append(row).expect("rows are sorted");
    }
    let meta = writer.finish().expect("memory backend");
    let write_secs = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let read = RunReader::open(&backend, &meta, IoStats::new())
        .expect("run just written")
        .filter(|row| black_box(row).is_ok())
        .count();
    let read_secs = start.elapsed().as_secs_f64();
    assert_eq!(read, rows.len(), "run read probe lost rows");

    // Both buffers are written once first, so the copy faults no pages in.
    let src = vec![0x5Au8; meta.bytes as usize];
    let mut dst = vec![1u8; src.len()];
    let start = Instant::now();
    dst.copy_from_slice(black_box(&src));
    black_box(&dst);
    let copy_secs = start.elapsed().as_secs_f64();

    let mb = meta.bytes as f64 / 1e6;
    v.set("storage.run_write_probe_mb_per_s", mb / write_secs);
    v.set("storage.run_read_probe_mb_per_s", mb / read_secs);
    v.set("bound.memcpy_mb_per_s", mb / copy_secs);
    v.set("storage.write_roofline_share", copy_secs / write_secs);
}
