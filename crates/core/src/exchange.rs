//! The alternative distributed top-k of §4.4: consumer-side sort,
//! producer-side filtering.
//!
//! "An alternative approach puts the sort and top logic on the consumer
//! side of the data exchange and the filtering on the producer side. The
//! producers ship to the consumers full data packets and the consumers
//! send to the producers flow control packets containing the current
//! cutoff key. This alternative implementation approach promises less
//! development effort but probably also suffers from lower effectiveness
//! than sharing histogram priority queues."
//!
//! [`ExchangeTopK`] implements exactly that: producer threads scan their
//! partitions and pre-filter with the *last cutoff they received*; one
//! consumer thread runs the ordinary [`HistogramTopK`] and publishes its
//! cutoff back through a shared slot after every packet. The integration
//! tests verify the paper's prediction — correct results, but more rows
//! shipped/spilled than [`crate::ParallelTopK`]'s shared-queue design,
//! because producers always filter with a slightly stale cutoff.

use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, PoisonError, RwLock};
use std::thread::JoinHandle;

use histok_storage::StorageBackend;
use histok_types::{Error, Result, Row, SortKey, SortSpec};

use crate::config::TopKConfig;
use crate::metrics::OperatorMetrics;
use crate::topk::{HistogramTopK, RowStream, TopKOperator};

/// Rows per data packet shipped producer → consumer.
const PACKET_ROWS: usize = 512;

/// Shared flow-control state: the consumer's latest cutoff key.
struct FlowControl<K> {
    cutoff: RwLock<Option<K>>,
    shipped: std::sync::atomic::AtomicU64,
    filtered_at_producer: std::sync::atomic::AtomicU64,
}

/// A handle held by one producer thread.
///
/// Producers push rows from their partition; rows past the last received
/// cutoff are dropped before they ever cross the exchange.
pub struct Producer<K: SortKey> {
    spec: SortSpec,
    flow: Arc<FlowControl<K>>,
    tx: SyncSender<Vec<Row<K>>>,
    packet: Vec<Row<K>>,
}

impl<K: SortKey> Producer<K> {
    /// Offers one row from this producer's partition.
    pub fn push(&mut self, row: Row<K>) -> Result<()> {
        // Producer-side filtering with the (possibly stale) cutoff.
        if let Some(cut) = &*self.flow.cutoff.read().unwrap_or_else(PoisonError::into_inner) {
            if self.spec.order.follows(&row.key, cut) {
                self.flow.filtered_at_producer.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                return Ok(());
            }
        }
        self.packet.push(row);
        if self.packet.len() >= PACKET_ROWS {
            self.ship()?;
        }
        Ok(())
    }

    fn ship(&mut self) -> Result<()> {
        if self.packet.is_empty() {
            return Ok(());
        }
        let packet = std::mem::replace(&mut self.packet, Vec::with_capacity(PACKET_ROWS));
        self.flow.shipped.fetch_add(packet.len() as u64, std::sync::atomic::Ordering::Relaxed);
        self.tx.send(packet).map_err(|_| Error::InvalidConfig("consumer terminated early".into()))
    }

    /// Flushes this producer's remaining packet and closes its stream.
    pub fn finish(mut self) -> Result<()> {
        self.ship()
    }
}

/// What the consumer thread hands back at the end: the output stream and
/// the operator itself (metrics are read only after the stream is drained,
/// so the final-merge I/O and timing are included).
type ConsumerResult<K> = Result<(RowStream<K>, HistogramTopK<K>)>;

/// §4.4's producer/consumer exchange: one consumer top-k, producer-side
/// pre-filtering driven by flow-control cutoff packets.
pub struct ExchangeTopK<K: SortKey> {
    flow: Arc<FlowControl<K>>,
    tx: Option<SyncSender<Vec<Row<K>>>>,
    consumer: Option<JoinHandle<ConsumerResult<K>>>,
    spec: SortSpec,
}

impl<K: SortKey> ExchangeTopK<K> {
    /// Spawns the consumer; call [`ExchangeTopK::producer`] once per
    /// producer thread, then [`ExchangeTopK::finish`].
    pub fn new(
        spec: SortSpec,
        config: TopKConfig,
        backend: impl StorageBackend + 'static,
    ) -> Result<Self> {
        spec.validate()?;
        config.validate()?;
        // Pin the consumer's I/O pool here so repeated exchanges built
        // from one shared config reuse a caller-injected pool.
        let config = config.with_shared_io_scheduler();
        let flow = Arc::new(FlowControl {
            cutoff: RwLock::new(None),
            shipped: std::sync::atomic::AtomicU64::new(0),
            filtered_at_producer: std::sync::atomic::AtomicU64::new(0),
        });
        let (tx, rx) = sync_channel::<Vec<Row<K>>>(64);
        let consumer_flow = flow.clone();
        let consumer = std::thread::spawn(move || -> ConsumerResult<K> {
            let mut op = HistogramTopK::new(spec, config, backend)?;
            for packet in rx {
                for row in packet {
                    op.push(row)?;
                }
                // Flow-control packet back to the producers: the current
                // cutoff key (one publish per data packet, as in §4.4).
                let cutoff = op.cutoff();
                *consumer_flow.cutoff.write().unwrap_or_else(PoisonError::into_inner) = cutoff;
            }
            let stream = op.finish()?;
            Ok((stream, op))
        });
        Ok(ExchangeTopK { flow, tx: Some(tx), consumer: Some(consumer), spec })
    }

    /// Creates a producer handle (clone-free; call once per partition).
    pub fn producer(&self) -> Result<Producer<K>> {
        let tx = self
            .tx
            .as_ref()
            .ok_or_else(|| Error::InvalidConfig("exchange already finished".into()))?
            .clone();
        Ok(Producer {
            spec: self.spec,
            flow: self.flow.clone(),
            tx,
            packet: Vec::with_capacity(PACKET_ROWS),
        })
    }

    /// Closes the exchange (all producers must have finished) and returns
    /// the output stream plus the consumer's metrics.
    ///
    /// The output (at most `offset + limit` rows) is materialized here so
    /// the metrics can cover the consumer's final merge; a lazily-merged
    /// stream would be snapshotted with the merge phase still pending.
    pub fn finish(mut self) -> Result<(RowStream<K>, ExchangeMetrics)> {
        drop(self.tx.take()); // close the channel once producers are done
        let handle = self
            .consumer
            .take()
            .ok_or_else(|| Error::InvalidConfig("finish called twice".into()))?;
        let (stream, op) =
            handle.join().map_err(|_| Error::InvalidConfig("consumer panicked".into()))??;
        let rows = stream.collect::<Result<Vec<_>>>()?;
        let operator = op.metrics();
        let stream: RowStream<K> = Box::new(rows.into_iter().map(Ok));
        Ok((
            stream,
            ExchangeMetrics {
                operator,
                rows_shipped: self.flow.shipped.load(std::sync::atomic::Ordering::Relaxed),
                filtered_at_producer: self
                    .flow
                    .filtered_at_producer
                    .load(std::sync::atomic::Ordering::Relaxed),
            },
        ))
    }
}

/// Metrics of one exchange execution.
#[derive(Debug, Clone)]
pub struct ExchangeMetrics {
    /// The consumer operator's metrics.
    pub operator: OperatorMetrics,
    /// Rows that crossed the exchange (network traffic in a real system).
    pub rows_shipped: u64,
    /// Rows the producers dropped using flow-control cutoffs.
    pub filtered_at_producer: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use histok_storage::MemoryBackend;
    use histok_workload::Workload;

    fn config() -> TopKConfig {
        TopKConfig::builder().memory_budget(2_000 * 64).block_bytes(2048).build().unwrap()
    }

    fn run_exchange(producers: usize, rows: u64, k: u64) -> (Vec<f64>, ExchangeMetrics) {
        let exchange =
            ExchangeTopK::new(SortSpec::ascending(k), config(), MemoryBackend::new()).unwrap();
        let w = Workload::uniform(rows, 64);
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for p in 0..producers {
                let mut producer = exchange.producer().unwrap();
                let rows_iter = w.rows();
                handles.push(scope.spawn(move || {
                    for (i, row) in rows_iter.enumerate() {
                        if i % producers == p {
                            producer.push(row).unwrap();
                        }
                    }
                    producer.finish().unwrap();
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
        });
        let (stream, metrics) = exchange.finish().unwrap();
        let out: Vec<f64> = stream.map(|r| r.unwrap().key.get()).collect();
        (out, metrics)
    }

    #[test]
    fn exchange_produces_the_exact_top_k() {
        let (out, metrics) = run_exchange(3, 60_000, 2_000);
        assert_eq!(out.len(), 2_000);
        assert_eq!(out[0], 1.0);
        assert_eq!(out[1_999], 2_000.0);
        assert!(out.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(metrics.operator.rows_in, metrics.rows_shipped);
    }

    #[test]
    fn consumer_metrics_cover_the_final_merge() {
        let (out, metrics) = run_exchange(2, 60_000, 4_000);
        assert_eq!(out.len(), 4_000);
        assert!(metrics.operator.spilled, "workload must spill to exercise the merge");
        assert!(metrics.operator.io.rows_read > 0, "merge reads missing");
        assert!(metrics.operator.phases.final_merge_ns > 0, "merge phase time missing");
        assert!(metrics.operator.phases.run_generation_ns > 0);
    }

    #[test]
    fn producers_filter_with_flow_control() {
        let (_, metrics) = run_exchange(4, 120_000, 2_000);
        // Most of the input never crosses the exchange.
        assert!(
            metrics.filtered_at_producer > 60_000,
            "producers filtered only {}",
            metrics.filtered_at_producer
        );
        assert!(metrics.rows_shipped < 60_000, "shipped {}", metrics.rows_shipped);
    }

    #[test]
    fn descending_exchange_with_payloads() {
        let exchange: ExchangeTopK<histok_types::F64Key> =
            ExchangeTopK::new(SortSpec::descending(300), config(), MemoryBackend::new()).unwrap();
        let w = Workload::uniform(20_000, 65).with_payload_bytes(16);
        std::thread::scope(|scope| {
            for p in 0..2usize {
                let mut producer = exchange.producer().unwrap();
                let rows_iter = w.rows();
                scope.spawn(move || {
                    for (i, row) in rows_iter.enumerate() {
                        if i % 2 == p {
                            producer.push(row).unwrap();
                        }
                    }
                    producer.finish().unwrap();
                });
            }
        });
        let (stream, _) = exchange.finish().unwrap();
        let out: Vec<f64> = stream
            .map(|r| {
                let row = r.unwrap();
                assert_eq!(row.payload.len(), 16);
                row.key.get()
            })
            .collect();
        assert_eq!(out.len(), 300);
        assert_eq!(out[0], 20_000.0);
        assert!(out.windows(2).all(|w| w[0] > w[1]));
    }

    #[test]
    fn producer_after_finish_is_rejected() {
        let exchange: ExchangeTopK<u64> =
            ExchangeTopK::new(SortSpec::ascending(1), config(), MemoryBackend::new()).unwrap();
        let (stream, _) = exchange.finish().unwrap();
        assert_eq!(stream.count(), 0);
    }

    #[test]
    fn single_producer_degenerates_to_plain_topk() {
        let (out, _) = run_exchange(1, 10_000, 500);
        assert_eq!(out, (1..=500).map(f64::from).collect::<Vec<_>>());
    }
}
