//! Pins every spill decision of the `lineitem_k_large` shape (bench_e2e) at
//! a tenth of its scale: how many runs, how long each one is (as the bytes of
//! its object: rows are a fixed 94 bytes here, and block boundaries are
//! pinned with them), how many rows and bytes reach storage and where the
//! cutoff ends up. The expected values are what batched replacement
//! selection produces (mini-runs of `M/24` rows under the tree; until then
//! the sift-based binary heap of commit 52e5cab and the tournament tree of
//! single rows, which wrote 42 runs, 13,658,888 and 13,604,008 bytes); a
//! change to the selection structure, the run format or the filter that
//! alters any spilled byte fails here, in `cargo test`, and not in a
//! benchmark diff.

use std::sync::{Arc, Mutex};

use histok::core::{HistogramTopK, TopKConfig, TopKOperator};
use histok::storage::{MemoryBackend, SpillReader, SpillWriter, StorageBackend};
use histok::types::{F64Key, Result, SortSpec};
use histok::workload::{Workload, LINEITEM_PAYLOAD_BYTES};

const ROWS: u64 = 200_000;
const K: u64 = 45_000;
/// M = 1,400 rows x 146 B, as the benchmark's 14,000 x 146 B.
const MEMORY: usize = 1_400 * 146;
const FAN_IN: usize = 16;

/// A memory backend that remembers the size of every object it held, in
/// the order the objects were created.
#[derive(Default)]
struct Recording {
    inner: MemoryBackend,
    created: Mutex<Vec<(String, u64)>>,
}

impl StorageBackend for Recording {
    fn create(&self, name: &str) -> Result<Box<dyn SpillWriter>> {
        self.created.lock().unwrap().push((name.to_owned(), 0));
        self.inner.create(name)
    }

    fn open(&self, name: &str) -> Result<Box<dyn SpillReader>> {
        self.inner.open(name)
    }

    fn delete(&self, name: &str) -> Result<()> {
        if let Ok(size) = self.inner.size_of(name) {
            let mut created = self.created.lock().unwrap();
            if let Some(entry) = created.iter_mut().find(|(n, _)| n == name) {
                entry.1 = size;
            }
        }
        self.inner.delete(name)
    }

    fn size_of(&self, name: &str) -> Result<u64> {
        self.inner.size_of(name)
    }
}

/// What one query did to storage.
#[derive(Debug, PartialEq)]
struct Spill {
    runs_created: u64,
    rows_written: u64,
    bytes_written: u64,
    /// The cutoff key when the input ended.
    cutoff: f64,
    /// Bytes of each run object, in creation order: the runs of run
    /// generation first, then what the cascade pass merged them into.
    run_bytes: Vec<u64>,
}

fn spill(seed: u64) -> Spill {
    let workload = Workload::uniform(ROWS, seed).with_payload_bytes(LINEITEM_PAYLOAD_BYTES);
    let config = TopKConfig::builder().memory_budget(MEMORY).fan_in(FAN_IN).build().unwrap();
    let backend = Arc::new(Recording::default());
    let mut op: HistogramTopK<F64Key> =
        HistogramTopK::with_arc(SortSpec::ascending(K), config, backend.clone()).unwrap();
    for row in workload.rows() {
        op.push(row).unwrap();
    }
    let cutoff = op.cutoff().expect("a cutoff is established").get();
    let keys: Vec<f64> = op.finish().unwrap().map(|r| r.unwrap().key.get()).collect();
    assert_eq!(keys, workload.expected_top_k(K as usize, true));
    let io = op.metrics().io;
    drop(op);
    assert_eq!(backend.inner.object_count(), 0, "every run is deleted");
    let run_bytes = backend.created.lock().unwrap().iter().map(|(_, size)| *size).collect();
    Spill {
        runs_created: io.runs_created,
        rows_written: io.rows_written,
        bytes_written: io.bytes_written,
        cutoff,
        run_bytes,
    }
}

#[test]
fn every_spill_decision_matches_the_binary_heap() {
    let expected = [
        (
            42,
            Spill {
                runs_created: 43,
                rows_written: 145_317,
                bytes_written: 13_663_414,
                cutoff: 47_587.0,
                run_bytes: vec![
                    232926, 264902, 269508, 272986, 270730, 275900, 269978, 272516, 271670, 268850,
                    272610, 271388, 269790, 270542, 277310, 273550, 258024, 251350, 254076, 255016,
                    254640, 258024, 254264, 259904, 256144, 256332, 249376, 259528, 253324, 249188,
                    257366, 257554, 261690, 259716, 262740, 260938, 250222, 255298, 262160, 252572,
                    59542, 1852476, 1297826,
                ],
            },
        ),
        (
            7,
            Spill {
                runs_created: 43,
                rows_written: 145_148,
                bytes_written: 13_647_544,
                cutoff: 47_689.0,
                run_bytes: vec![
                    232362, 266124, 272892, 274960, 268286, 269602, 274678, 272140, 264338, 274960,
                    279660, 268568, 272892, 279472, 269226, 269226, 261126, 254264, 256332, 256332,
                    262740, 257460, 255016, 252854, 256238, 259058, 254452, 259434, 257648, 253418,
                    254922, 255392, 263116, 256332, 259716, 255486, 256144, 255580, 255862, 257648,
                    36700, 1789386, 1346534,
                ],
            },
        ),
    ];
    for (seed, want) in expected {
        assert_eq!(spill(seed), want, "seed {seed}");
    }
}
