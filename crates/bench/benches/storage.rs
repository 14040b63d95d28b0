//! Storage-layer benchmarks: run write/read throughput as block size
//! varies — the knob trading per-request latency (round trips in the
//! disaggregated model) against buffering memory.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use histok_storage::crc::crc32;
use histok_storage::{IoStats, MemoryBackend, RunReader, RunWriter};
use histok_types::{Row, SortOrder};

const ROWS: u64 = 50_000;
const PAYLOAD: usize = 24;

fn write_run(
    backend: &MemoryBackend,
    name: &str,
    block_bytes: usize,
) -> histok_storage::RunMeta<u64> {
    let mut w = RunWriter::with_block_bytes(
        backend,
        name,
        SortOrder::Ascending,
        IoStats::new(),
        block_bytes,
    )
    .unwrap();
    let payload = vec![0u8; PAYLOAD];
    for k in 0..ROWS {
        w.append(&Row::new(k, payload.clone())).unwrap();
    }
    w.finish().unwrap()
}

fn bench_write(c: &mut Criterion) {
    let mut g = c.benchmark_group("storage/run_write");
    g.throughput(Throughput::Elements(ROWS));
    g.sample_size(10);
    for block in [4 * 1024usize, 64 * 1024, 1024 * 1024] {
        g.bench_function(format!("block_{}KiB", block / 1024), |b| {
            let backend = MemoryBackend::new();
            b.iter(|| black_box(write_run(&backend, "w", block)))
        });
    }
    g.finish();
}

fn bench_read(c: &mut Criterion) {
    let mut g = c.benchmark_group("storage/run_read");
    g.throughput(Throughput::Elements(ROWS));
    g.sample_size(10);
    for block in [4 * 1024usize, 64 * 1024, 1024 * 1024] {
        let backend = MemoryBackend::new();
        let meta = write_run(&backend, "r", block);
        g.bench_function(format!("block_{}KiB", block / 1024), |b| {
            b.iter(|| {
                let reader: RunReader<u64> =
                    RunReader::open(&backend, &meta, IoStats::new()).unwrap();
                let mut n = 0u64;
                for row in reader {
                    black_box(row.unwrap());
                    n += 1;
                }
                assert_eq!(n, ROWS);
            })
        });
    }
    g.finish();
}

fn bench_skip(c: &mut Criterion) {
    // Block-index skipping vs reading through: the §4.1 offset benefit at
    // the storage layer.
    let backend = MemoryBackend::new();
    let meta = write_run(&backend, "s", 16 * 1024);
    let mut g = c.benchmark_group("storage/skip_rows");
    g.sample_size(20);
    g.bench_function("skip_90_percent_then_read", |b| {
        b.iter(|| {
            let mut reader: RunReader<u64> =
                RunReader::open(&backend, &meta, IoStats::new()).unwrap();
            reader.skip_rows(ROWS * 9 / 10).unwrap();
            let rest = reader.map(|r| r.unwrap().key).fold(0u64, |a, k| a ^ k);
            black_box(rest)
        })
    });
    g.bench_function("read_everything", |b| {
        b.iter(|| {
            let reader: RunReader<u64> = RunReader::open(&backend, &meta, IoStats::new()).unwrap();
            let all = reader.map(|r| r.unwrap().key).fold(0u64, |a, k| a ^ k);
            black_box(all)
        })
    });
    g.finish();
}

fn bench_crc32(c: &mut Criterion) {
    // The checksum kernel alone, over one block payload and one four-block
    // request: every spilled byte passes through it once per direction.
    let mut g = c.benchmark_group("storage/crc32");
    for len in [64 * 1024usize, 256 * 1024] {
        let data: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
        g.throughput(Throughput::Bytes(len as u64));
        g.bench_function(format!("{}KiB", len / 1024), |b| b.iter(|| crc32(black_box(&data))));
    }
    g.finish();
}

criterion_group!(benches, bench_write, bench_read, bench_skip, bench_crc32);
criterion_main!(benches);
