//! In-memory storage backend.
//!
//! Used by unit tests, property tests and the analytical experiments where
//! real disk traffic would only add noise: the *counts* of rows and bytes
//! spilled are identical to a file-backed execution.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use histok_types::{Error, Result};

use crate::backend::{SpillReader, SpillWriter, StorageBackend};
use crate::scheduler::lock;

type Objects = Arc<Mutex<HashMap<String, Arc<Vec<u8>>>>>;

/// A [`StorageBackend`] holding every spill object in a shared map.
///
/// Clones share the same object namespace, so an operator and its test
/// harness can both see the runs.
#[derive(Debug, Clone, Default)]
pub struct MemoryBackend {
    objects: Objects,
}

impl MemoryBackend {
    /// Creates an empty in-memory store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Synonym for [`MemoryBackend::new`] that reads better at call sites
    /// passing the backend to several components.
    pub fn shared() -> Self {
        Self::default()
    }

    /// Number of finished objects currently stored.
    pub fn object_count(&self) -> usize {
        lock(&self.objects).len()
    }

    /// Total bytes across all finished objects.
    pub fn total_bytes(&self) -> u64 {
        lock(&self.objects).values().map(|v| v.len() as u64).sum()
    }
}

struct MemWriter {
    name: String,
    buf: Vec<u8>,
    objects: Objects,
    finished: bool,
}

impl SpillWriter for MemWriter {
    fn write_all(&mut self, data: &[u8]) -> Result<()> {
        self.buf.extend_from_slice(data);
        Ok(())
    }

    fn finish(&mut self) -> Result<u64> {
        let bytes = self.buf.len() as u64;
        let data = Arc::new(std::mem::take(&mut self.buf));
        lock(&self.objects).insert(self.name.clone(), data);
        self.finished = true;
        Ok(bytes)
    }
}

struct MemReader {
    data: Arc<Vec<u8>>,
    pos: usize,
}

impl SpillReader for MemReader {
    fn read_exact(&mut self, buf: &mut [u8]) -> Result<()> {
        let end = self.pos + buf.len();
        if end > self.data.len() {
            return Err(Error::Corrupt(format!(
                "read past end of in-memory object: pos {} + {} > len {}",
                self.pos,
                buf.len(),
                self.data.len()
            )));
        }
        buf.copy_from_slice(&self.data[self.pos..end]);
        self.pos = end;
        Ok(())
    }

    fn skip(&mut self, n: u64) -> Result<()> {
        let end = self.pos + n as usize;
        if end > self.data.len() {
            return Err(Error::Corrupt("skip past end of in-memory object".into()));
        }
        self.pos = end;
        Ok(())
    }
}

impl StorageBackend for MemoryBackend {
    fn create(&self, name: &str) -> Result<Box<dyn SpillWriter>> {
        Ok(Box::new(MemWriter {
            name: name.to_string(),
            buf: Vec::new(),
            objects: self.objects.clone(),
            finished: false,
        }))
    }

    fn open(&self, name: &str) -> Result<Box<dyn SpillReader>> {
        let data = lock(&self.objects)
            .get(name)
            .cloned()
            .ok_or_else(|| Error::Corrupt(format!("no such spill object: {name}")))?;
        Ok(Box::new(MemReader { data, pos: 0 }))
    }

    fn delete(&self, name: &str) -> Result<()> {
        lock(&self.objects).remove(name);
        Ok(())
    }

    fn size_of(&self, name: &str) -> Result<u64> {
        lock(&self.objects)
            .get(name)
            .map(|v| v.len() as u64)
            .ok_or_else(|| Error::Corrupt(format!("no such spill object: {name}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_finish_read_roundtrip() {
        let be = MemoryBackend::new();
        let mut w = be.create("a").unwrap();
        w.write_all(b"hello ").unwrap();
        w.write_all(b"world").unwrap();
        assert_eq!(w.finish().unwrap(), 11);
        assert_eq!(be.size_of("a").unwrap(), 11);

        let mut r = be.open("a").unwrap();
        let mut buf = [0u8; 11];
        r.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hello world");
        assert!(r.read_exact(&mut [0u8; 1]).is_err());
    }

    #[test]
    fn unfinished_objects_are_invisible() {
        let be = MemoryBackend::new();
        let mut w = be.create("pending").unwrap();
        w.write_all(b"data").unwrap();
        assert!(be.open("pending").is_err());
        drop(w); // abandoning a writer leaves nothing behind
        assert!(be.open("pending").is_err());
        assert_eq!(be.object_count(), 0);
    }

    #[test]
    fn skip_moves_cursor_without_copying() {
        let be = MemoryBackend::new();
        let mut w = be.create("x").unwrap();
        w.write_all(&(0u8..100).collect::<Vec<_>>()).unwrap();
        w.finish().unwrap();
        let mut r = be.open("x").unwrap();
        r.skip(50).unwrap();
        let mut b = [0u8; 1];
        r.read_exact(&mut b).unwrap();
        assert_eq!(b[0], 50);
        assert!(r.skip(1000).is_err());
    }

    #[test]
    fn delete_is_idempotent_and_clones_share_state() {
        let be = MemoryBackend::new();
        let be2 = be.clone();
        let mut w = be.create("r").unwrap();
        w.write_all(b"abc").unwrap();
        w.finish().unwrap();
        assert_eq!(be2.object_count(), 1);
        assert_eq!(be2.total_bytes(), 3);
        be2.delete("r").unwrap();
        be2.delete("r").unwrap(); // second delete is fine
        assert!(be.open("r").is_err());
    }

    #[test]
    fn create_truncates_existing_object() {
        let be = MemoryBackend::new();
        let mut w = be.create("o").unwrap();
        w.write_all(b"long contents").unwrap();
        w.finish().unwrap();
        let mut w = be.create("o").unwrap();
        w.write_all(b"hi").unwrap();
        w.finish().unwrap();
        assert_eq!(be.size_of("o").unwrap(), 2);
    }
}
