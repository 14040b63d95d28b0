//! Failure-injection backend for tests.
//!
//! Wraps any [`StorageBackend`] with a [`FaultPlan`] that can fail object
//! creation, fail writes or reads after a byte budget, or silently corrupt a
//! byte in flight. Used by the test suites to prove that every operator
//! propagates storage errors cleanly instead of producing partial results.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use histok_types::{Error, Result};

use crate::backend::{SpillReader, SpillWriter, StorageBackend};

/// What should go wrong, and when.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Fail every `create` call.
    pub fail_create: bool,
    /// Fail writes once this many bytes have been written (across all
    /// writers of this backend).
    pub fail_write_after_bytes: Option<u64>,
    /// Fail reads once this many bytes have been read.
    pub fail_read_after_bytes: Option<u64>,
    /// XOR-corrupt the byte at this global write offset.
    pub corrupt_write_byte_at: Option<u64>,
    /// Fail the last request of the n-th object created (from 0): the
    /// write that carries its run's end marker.
    pub fail_last_write_of: Option<u64>,
    /// Fail the `finish` of the n-th object created (from 0).
    pub fail_finish_of: Option<u64>,
}

impl FaultPlan {
    /// A plan that never fails (useful as a baseline).
    pub fn none() -> Self {
        Self::default()
    }
}

#[derive(Debug, Default)]
struct FaultState {
    objects_created: AtomicU64,
    bytes_written: AtomicU64,
    bytes_read: AtomicU64,
    tripped: AtomicBool,
}

/// A [`StorageBackend`] decorator applying a [`FaultPlan`].
#[derive(Clone)]
pub struct FaultBackend<B> {
    inner: B,
    plan: Arc<FaultPlan>,
    state: Arc<FaultState>,
}

impl<B: StorageBackend> FaultBackend<B> {
    /// Wraps `inner` with `plan`.
    pub fn new(inner: B, plan: FaultPlan) -> Self {
        FaultBackend { inner, plan: Arc::new(plan), state: Arc::new(FaultState::default()) }
    }

    /// True once any injected fault has fired.
    pub fn fault_fired(&self) -> bool {
        self.state.tripped.load(Ordering::Relaxed)
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }
}

struct FaultWriter {
    inner: Box<dyn SpillWriter>,
    /// Creation order of this writer's object.
    object: u64,
    plan: Arc<FaultPlan>,
    state: Arc<FaultState>,
}

impl FaultWriter {
    fn fail(&self, what: &str) -> Result<()> {
        self.state.tripped.store(true, Ordering::Relaxed);
        Err(Error::Injected(format!("{what} of object {} failed by plan", self.object)))
    }
}

impl SpillWriter for FaultWriter {
    fn write_all(&mut self, data: &[u8]) -> Result<()> {
        if self.plan.fail_last_write_of == Some(self.object)
            && data.ends_with(&crate::run::encode_block_header(0, 0, 0))
        {
            return self.fail("last request");
        }
        let start = self.state.bytes_written.fetch_add(data.len() as u64, Ordering::Relaxed);
        if let Some(limit) = self.plan.fail_write_after_bytes {
            if start + data.len() as u64 > limit {
                self.state.tripped.store(true, Ordering::Relaxed);
                return Err(Error::Injected(format!("write budget of {limit} bytes exhausted")));
            }
        }
        if let Some(at) = self.plan.corrupt_write_byte_at {
            if at >= start && at < start + data.len() as u64 {
                self.state.tripped.store(true, Ordering::Relaxed);
                let mut copy = data.to_vec();
                copy[(at - start) as usize] ^= 0xFF;
                return self.inner.write_all(&copy);
            }
        }
        self.inner.write_all(data)
    }

    fn finish(&mut self) -> Result<u64> {
        if self.plan.fail_finish_of == Some(self.object) {
            self.fail("finish")?;
        }
        self.inner.finish()
    }
}

struct FaultReader {
    inner: Box<dyn SpillReader>,
    plan: Arc<FaultPlan>,
    state: Arc<FaultState>,
}

impl SpillReader for FaultReader {
    fn read_exact(&mut self, buf: &mut [u8]) -> Result<()> {
        let start = self.state.bytes_read.fetch_add(buf.len() as u64, Ordering::Relaxed);
        if let Some(limit) = self.plan.fail_read_after_bytes {
            if start + buf.len() as u64 > limit {
                self.state.tripped.store(true, Ordering::Relaxed);
                return Err(Error::Injected(format!("read budget of {limit} bytes exhausted")));
            }
        }
        self.inner.read_exact(buf)
    }

    fn skip(&mut self, n: u64) -> Result<()> {
        self.inner.skip(n)
    }
}

impl<B: StorageBackend> StorageBackend for FaultBackend<B> {
    fn create(&self, name: &str) -> Result<Box<dyn SpillWriter>> {
        if self.plan.fail_create {
            self.state.tripped.store(true, Ordering::Relaxed);
            return Err(Error::Injected(format!("create({name}) failed by plan")));
        }
        Ok(Box::new(FaultWriter {
            inner: self.inner.create(name)?,
            object: self.state.objects_created.fetch_add(1, Ordering::Relaxed),
            plan: self.plan.clone(),
            state: self.state.clone(),
        }))
    }

    fn open(&self, name: &str) -> Result<Box<dyn SpillReader>> {
        Ok(Box::new(FaultReader {
            inner: self.inner.open(name)?,
            plan: self.plan.clone(),
            state: self.state.clone(),
        }))
    }

    fn delete(&self, name: &str) -> Result<()> {
        self.inner.delete(name)
    }

    fn size_of(&self, name: &str) -> Result<u64> {
        self.inner.size_of(name)
    }

    fn modelled_io_ns(&self) -> u64 {
        self.inner.modelled_io_ns()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::MemoryBackend;
    use crate::run::{RunReader, RunWriter};
    use crate::stats::IoStats;
    use histok_types::{Row, SortOrder};

    #[test]
    fn create_failure_fires() {
        let be = FaultBackend::new(
            MemoryBackend::new(),
            FaultPlan { fail_create: true, ..FaultPlan::none() },
        );
        assert!(be.create("x").is_err());
        assert!(be.fault_fired());
    }

    #[test]
    fn write_budget_enforced() {
        let be = FaultBackend::new(
            MemoryBackend::new(),
            FaultPlan { fail_write_after_bytes: Some(100), ..FaultPlan::none() },
        );
        let mut w = be.create("x").unwrap();
        w.write_all(&[0u8; 90]).unwrap();
        assert!(w.write_all(&[0u8; 20]).is_err());
        assert!(be.fault_fired());
    }

    #[test]
    fn read_budget_enforced() {
        let inner = MemoryBackend::new();
        {
            let mut w = inner.create("x").unwrap();
            w.write_all(&[7u8; 64]).unwrap();
            w.finish().unwrap();
        }
        let be = FaultBackend::new(
            inner,
            FaultPlan { fail_read_after_bytes: Some(32), ..FaultPlan::none() },
        );
        let mut r = be.open("x").unwrap();
        let mut buf = [0u8; 32];
        r.read_exact(&mut buf).unwrap();
        assert!(r.read_exact(&mut buf).is_err());
    }

    #[test]
    fn corruption_is_caught_by_run_crc() {
        let plan = FaultPlan {
            // Offset 40 lands inside the first block payload (file header 8 +
            // block header 16 + a row or two).
            corrupt_write_byte_at: Some(40),
            ..FaultPlan::none()
        };
        let be = FaultBackend::new(MemoryBackend::new(), plan);
        let mut w: RunWriter<u64> =
            RunWriter::create(&be, "r", SortOrder::Ascending, IoStats::new()).unwrap();
        for k in 0..100u64 {
            w.append(&Row::new(k, vec![0u8; 8])).unwrap();
        }
        let meta = w.finish().unwrap();
        assert!(be.fault_fired());
        let mut reader = RunReader::open(&be, &meta, IoStats::new()).unwrap();
        let result: Result<Vec<_>> = reader.by_ref().collect();
        assert!(matches!(result, Err(Error::Corrupt(_))));
    }

    #[test]
    fn the_last_request_and_the_finish_of_one_object_fail_by_plan() {
        let write_run = |be: &FaultBackend<MemoryBackend>, name: &str| {
            let mut w: RunWriter<u64> =
                RunWriter::with_block_bytes(be, name, SortOrder::Ascending, IoStats::new(), 64)
                    .unwrap();
            (0..100u64).try_for_each(|k| w.append(&Row::key_only(k))).and_then(|()| w.finish())
        };
        for plan in [
            FaultPlan { fail_last_write_of: Some(1), ..FaultPlan::none() },
            FaultPlan { fail_finish_of: Some(1), ..FaultPlan::none() },
        ] {
            let be = FaultBackend::new(MemoryBackend::new(), plan);
            assert!(write_run(&be, "a").is_ok());
            assert!(!be.fault_fired(), "object 0's requests all pass");
            assert!(matches!(write_run(&be, "b"), Err(Error::Injected(_))));
            assert!(be.fault_fired());
            assert!(write_run(&be, "c").is_ok());
            assert_eq!(be.inner().object_count(), 2);
        }
    }

    #[test]
    fn no_plan_means_no_faults() {
        let be = FaultBackend::new(MemoryBackend::new(), FaultPlan::none());
        let mut w = be.create("ok").unwrap();
        w.write_all(&[1u8; 1024]).unwrap();
        w.finish().unwrap();
        let mut r = be.open("ok").unwrap();
        let mut buf = [0u8; 1024];
        r.read_exact(&mut buf).unwrap();
        assert!(!be.fault_fired());
    }
}
