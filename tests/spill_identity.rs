//! Pins every spill decision of the `lineitem_k_large` shape (bench_e2e) at
//! a tenth of its scale: how many runs, how long each one is (as the bytes of
//! its object: rows are a fixed 94 bytes here, and block boundaries are
//! pinned with them), how many rows and bytes reach storage and where the
//! cutoff ends up. The expected values are what the sift-based binary heap
//! produced (commit 52e5cab, before run generation moved to the tournament
//! tree); a change to the selection structure, the run format or the filter
//! that alters any spilled byte fails here, in `cargo test`, and not in a
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
                runs_created: 42,
                rows_written: 145_268,
                bytes_written: 13_658_888,
                cutoff: 47_684.0,
                run_bytes: vec![
                    240164, 272422, 274678, 281634, 282386, 277404, 280694, 278438, 284924, 284266,
                    280976, 279660, 281164, 276182, 279378, 267252, 257836, 262348, 258024, 259340,
                    263774, 255580, 261502, 264338, 264150, 261502, 263680, 262536, 261126, 264244,
                    264620, 267910, 261784, 264150, 264056, 256332, 262348, 266406, 259152, 64712,
                    1825012, 1321812,
                ],
            },
        ),
        (
            7,
            Spill {
                runs_created: 42,
                rows_written: 144_684,
                bytes_written: 13_604_008,
                cutoff: 47_718.0,
                run_bytes: vec![
                    236122, 270166, 279096, 278720, 273080, 275242, 282856, 284548, 277310, 272986,
                    285394, 274960, 276934, 278344, 278720, 273738, 264056, 263868, 266594, 259810,
                    263304, 262834, 267252, 261032, 270636, 259810, 257460, 264432, 254922, 261596,
                    265090, 258024, 259434, 263962, 261220, 257366, 261784, 265936, 267252, 58790,
                    1863850, 1246486,
                ],
            },
        ),
    ];
    for (seed, want) in expected {
        assert_eq!(spill(seed), want, "seed {seed}");
    }
}
