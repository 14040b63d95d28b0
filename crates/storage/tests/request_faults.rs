//! Faults inside a request: four blocks, headers and payloads, travel and
//! arrive as one frame, so damage or a failure anywhere in it must still
//! surface as the right `Error`, at the block it belongs to — never a
//! mis-sized read, a panic, a hang, or a leaked thread or object.
//!
//! `ThreadCensus` is process-global, so every test here holds `SERIAL`.

use std::sync::{mpsc, Mutex, MutexGuard};
use std::time::Duration;

use histok_storage::crc::crc32;
use histok_storage::{
    FaultBackend, FaultPlan, IoScheduler, IoStats, MemoryBackend, PrefetchingRunReader, RunMeta,
    RunReader, RunWriter, StorageBackend, ThreadCensus,
};
use histok_types::{Error, Result, Row, SortOrder};

static SERIAL: Mutex<()> = Mutex::new(());

/// Serializes the test and converts a deadlocked I/O thread or job into a
/// failure.
fn serial_with_watchdog<F: FnOnce() + Send + 'static>(body: F) {
    let _serial: MutexGuard<'_, ()> = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        body();
        let _ = tx.send(());
    });
    match rx.recv_timeout(Duration::from_secs(30)) {
        Ok(()) => handle.join().unwrap(),
        Err(_) => panic!("test body deadlocked"),
    }
}

const FILE_HEADER: u64 = 8;
const BLOCK_HEADER: u64 = 16;
/// Four 28-byte rows (8-byte key, 4-byte length, 16 payload bytes).
const BLOCK: usize = 4 * 28;
/// A block on storage: header and payload.
const FRAME: u64 = BLOCK_HEADER + BLOCK as u64;
/// Blocks per request (`REQUEST_BLOCKS` in `run.rs`).
const REQUEST_BLOCKS: u64 = 4;

/// Writes keys `0..rows` in blocks of four, on `pool` when given and
/// inline otherwise.
fn write_run(
    be: &dyn StorageBackend,
    name: &str,
    rows: u64,
    pool: Option<&IoScheduler>,
) -> Result<RunMeta<u64>> {
    let mut w: RunWriter<u64> = RunWriter::with_io(
        be,
        name,
        SortOrder::Ascending,
        IoStats::new(),
        BLOCK,
        pool.map(IoScheduler::handle),
    )?;
    for k in 0..rows {
        w.append(&Row::new(k, vec![k as u8; 16]))?;
    }
    w.finish()
}

/// Reads `meta` to its end or first error: the keys that arrived, and the
/// error if one did.
fn read_all(be: &dyn StorageBackend, meta: &RunMeta<u64>) -> (Vec<u64>, Option<Error>) {
    let mut keys = Vec::new();
    for row in RunReader::open(be, meta, IoStats::new()).unwrap() {
        match row {
            Ok(row) => keys.push(row.key),
            Err(e) => return (keys, Some(e)),
        }
    }
    (keys, None)
}

#[test]
fn a_flipped_byte_anywhere_in_a_frame_is_corrupt() {
    serial_with_watchdog(|| {
        // Every byte of the file header, and every header byte and a
        // payload byte of each of the four blocks that share the first
        // request, flipped on its way to storage.
        let mut flips: Vec<(u64, u64)> = (0..FILE_HEADER).map(|at| (at, 0)).collect();
        for block in 0..REQUEST_BLOCKS {
            let header = FILE_HEADER + block * FRAME;
            flips.extend((header..header + BLOCK_HEADER).map(|at| (at, block)));
            flips.push((header + BLOCK_HEADER + 5 + 20 * block, block));
        }
        flips.push((FILE_HEADER + REQUEST_BLOCKS * FRAME - 1, REQUEST_BLOCKS - 1));
        for (at, block) in flips {
            let be = FaultBackend::new(
                MemoryBackend::new(),
                FaultPlan { corrupt_write_byte_at: Some(at), ..FaultPlan::none() },
            );
            let meta = write_run(&be, "flip", 20, None).unwrap();
            assert!(be.fault_fired());
            let (keys, err) = read_all(&be, &meta);
            let Some(Error::Corrupt(message)) = err else {
                panic!("byte {at}: got {err:?}");
            };
            // Blocks are verified as they are decoded, not as they arrive:
            // the whole blocks ahead of the damaged one are still yielded,
            // although they came in the same request.
            assert_eq!(keys, (0..4 * block).collect::<Vec<_>>(), "byte {at}");
            // Behind a block header's magic, row count and length only the
            // checksum can tell, and its error names the run, the block,
            // the CRC of the payload as stored and the one in the header.
            let header = FILE_HEADER + block * FRAME;
            if at >= header + 12 {
                let mut stored = vec![0u8; meta.bytes as usize];
                be.inner().open("flip").unwrap().read_exact(&mut stored).unwrap();
                let frame = &stored[header as usize..(header + FRAME) as usize];
                let expected = u32::from_le_bytes(frame[12..16].try_into().unwrap());
                let found = crc32(&frame[16..]);
                assert_eq!(
                    message,
                    format!(
                        "block {block} of flip has payload CRC {found:#010x}, \
                         its header says {expected:#010x}"
                    ),
                    "byte {at}"
                );
            }
        }
    });
}

#[test]
fn a_header_that_disagrees_with_the_index_is_corrupt_not_a_missized_read() {
    serial_with_watchdog(|| {
        let be = MemoryBackend::new();
        let meta = write_run(&be, "good", 20, None).unwrap();
        let mut good = vec![0u8; meta.bytes as usize];
        be.open("good").unwrap().read_exact(&mut good).unwrap();
        // The CRC covers the payload only, so a header whose counts are
        // wrong still checksums: only the index can expose it. Block 1's
        // header sits one frame behind the file header: rows at +4,
        // payload_len at +8.
        let header = (FILE_HEADER + FRAME) as usize;
        let patches: [(usize, u32); 4] = [
            (header + 4, 5),                    // one row too many
            (header + 4, 0),                    // no rows: reads as an end marker
            (header + 8, BLOCK as u32 - 4),     // shorter payload
            (header + 8, BLOCK as u32 + 4_000), // payload past the end of the object
        ];
        for (at, value) in patches {
            let mut bad = good.clone();
            bad[at..at + 4].copy_from_slice(&value.to_le_bytes());
            let mut w = be.create("bad").unwrap();
            w.write_all(&bad).unwrap();
            w.finish().unwrap();
            let bad_meta = RunMeta { name: "bad".into(), ..meta.clone() };
            let (keys, err) = read_all(&be, &bad_meta);
            assert!(matches!(err, Some(Error::Corrupt(_))), "{value} at {at}: got {err:?}");
            assert_eq!(keys, vec![0, 1, 2, 3], "block 0 is intact");
        }
        // And the other way round: an index that disagrees with a sound
        // object (a stale or mixed-up `RunMeta`).
        let mut stale = meta.clone();
        stale.blocks[1].rows += 1;
        assert!(matches!(read_all(&be, &stale).1, Some(Error::Corrupt(_))));
        let mut stale = meta.clone();
        stale.blocks[0].payload_bytes -= 1;
        assert!(matches!(read_all(&be, &stale).1, Some(Error::Corrupt(_))));
    });
}

#[test]
fn a_read_budget_tripping_mid_block_is_injected_through_both_prefetchers() {
    serial_with_watchdog(|| {
        let inner = MemoryBackend::new();
        let meta = write_run(&inner, "r", 40, None).unwrap();
        // The budget runs out 20 bytes into the second request: blocks 0..=3
        // arrive whole, the request for blocks 4..=7 fails as a unit —
        // read inline, and through the prefetcher on a pool.
        let limit = FILE_HEADER + REQUEST_BLOCKS * FRAME + 20;
        for pooled in [false, true] {
            let sched = IoScheduler::new(2);
            let be = FaultBackend::new(
                inner.clone(),
                FaultPlan { fail_read_after_bytes: Some(limit), ..FaultPlan::none() },
            );
            let reader = RunReader::open(&be, &meta, IoStats::new()).unwrap();
            let mut rows: Box<dyn Iterator<Item = Result<Row<u64>>>> = if pooled {
                Box::new(PrefetchingRunReader::new(reader, sched.handle()))
            } else {
                Box::new(reader)
            };
            let results: Vec<Result<Row<u64>>> = rows.by_ref().collect();
            let keys: Vec<u64> = results.iter().flatten().map(|r| r.key).collect();
            assert_eq!(keys, (0..16).collect::<Vec<_>>(), "pooled={pooled}");
            assert!(
                matches!(results.last(), Some(Err(Error::Injected(_)))),
                "pooled={pooled}: got {:?}",
                results.last()
            );
            assert!(rows.next().is_none(), "fused after the error");
            drop(rows);
            drop(sched);
            assert_eq!(ThreadCensus::current(), 0, "pooled={pooled}: thread left behind");
        }
    });
}

#[test]
fn a_write_budget_tripping_mid_block_is_injected_through_both_pipelines() {
    serial_with_watchdog(|| {
        // The budget runs out 20 bytes into the second request. The inline
        // sink meets the fault on the spot; on a pool the job trips on the
        // second request and the error reaches the caller on a later append
        // or, at the latest, on finish.
        let limit = FILE_HEADER + REQUEST_BLOCKS * FRAME + 20;
        for pooled in [false, true] {
            let sched = IoScheduler::new(2);
            let be = FaultBackend::new(
                MemoryBackend::new(),
                FaultPlan { fail_write_after_bytes: Some(limit), ..FaultPlan::none() },
            );
            let err = write_run(&be, "w", 400, pooled.then_some(&sched)).unwrap_err();
            assert!(matches!(err, Error::Injected(_)), "pooled={pooled}: got {err:?}");
            assert!(be.fault_fired());
            assert_eq!(be.inner().object_count(), 0, "half-written object left behind");
            drop(sched);
            assert_eq!(ThreadCensus::current(), 0, "pooled={pooled}: thread left behind");
        }
    });
}
