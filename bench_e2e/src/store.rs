//! The benchmark's stand-in for the disk: spill objects kept in memory, in
//! pages that are never given back to the operating system.
//!
//! `histok_storage::MemoryBackend` would do the same job, but its bytes
//! would count as the operator's heap — `peak_alloc_mb` would read 140 MB of
//! "disk" on `lineitem_k_large` against a 2 MB budget — and every query would
//! allocate and free its whole spill volume afresh. On the reference
//! sandbox the cost of touching fresh pages varies by 15 % of `query_s`
//! between one quarter of an hour and the next, and a disk has no such
//! cost. So pages are recycled through a process-wide free list, and every
//! page is reported to the counting allocator as stored, not working, memory.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

use histok_storage::{SpillReader, SpillWriter, StorageBackend};
use histok_types::{Error, Result};

use crate::alloc;

const PAGE: usize = 64 * 1024;

/// Pages no object holds at the moment.
static FREE: Mutex<Vec<Box<[u8]>>> = Mutex::new(Vec::new());

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().expect("no store operation panics while holding a lock")
}

fn take_page() -> Box<[u8]> {
    let recycled = lock(&FREE).pop();
    recycled.unwrap_or_else(|| {
        alloc::storage_grew(PAGE);
        vec![0u8; PAGE].into_boxed_slice()
    })
}

/// The bytes of one spill object.
#[derive(Default)]
struct Object {
    pages: Vec<Box<[u8]>>,
    len: usize,
}

impl Object {
    fn push(&mut self, mut data: &[u8]) {
        while !data.is_empty() {
            let used = self.len % PAGE;
            if used == 0 {
                self.pages.push(take_page());
            }
            let page = self.pages.last_mut().expect("a page was just ensured");
            let take = data.len().min(PAGE - used);
            page[used..used + take].copy_from_slice(&data[..take]);
            self.len += take;
            data = &data[take..];
        }
    }
}

impl Drop for Object {
    fn drop(&mut self) {
        lock(&FREE).append(&mut self.pages);
    }
}

type Objects = Arc<Mutex<HashMap<String, Arc<Object>>>>;

/// An in-memory [`StorageBackend`] whose contents are not operator memory.
#[derive(Default)]
pub struct SpillStore {
    objects: Objects,
}

impl SpillStore {
    pub fn new() -> Self {
        Self::default()
    }
}

fn missing(name: &str) -> Error {
    Error::Corrupt(format!("no such spill object: {name}"))
}

impl StorageBackend for SpillStore {
    fn create(&self, name: &str) -> Result<Box<dyn SpillWriter>> {
        Ok(Box::new(Writer {
            name: name.to_string(),
            object: Object::default(),
            objects: self.objects.clone(),
        }))
    }

    fn open(&self, name: &str) -> Result<Box<dyn SpillReader>> {
        let object = lock(&self.objects).get(name).cloned().ok_or_else(|| missing(name))?;
        Ok(Box::new(Reader { object, pos: 0 }))
    }

    fn delete(&self, name: &str) -> Result<()> {
        // Dropped, and its pages recycled, after the map's lock is released.
        let removed = lock(&self.objects).remove(name);
        drop(removed);
        Ok(())
    }

    fn size_of(&self, name: &str) -> Result<u64> {
        lock(&self.objects).get(name).map(|o| o.len as u64).ok_or_else(|| missing(name))
    }
}

/// Collects an object; invisible until finished, gone if dropped before.
struct Writer {
    name: String,
    object: Object,
    objects: Objects,
}

impl SpillWriter for Writer {
    fn write_all(&mut self, data: &[u8]) -> Result<()> {
        self.object.push(data);
        Ok(())
    }

    fn finish(&mut self) -> Result<u64> {
        let object = std::mem::take(&mut self.object);
        let len = object.len as u64;
        let replaced = lock(&self.objects).insert(self.name.clone(), Arc::new(object));
        drop(replaced);
        Ok(len)
    }
}

/// Reads an object front to back.
struct Reader {
    object: Arc<Object>,
    pos: usize,
}

impl Reader {
    fn end_of(&self, n: usize) -> Result<usize> {
        self.pos
            .checked_add(n)
            .filter(|end| *end <= self.object.len)
            .ok_or_else(|| Error::Corrupt("read past end of spill object".into()))
    }
}

impl SpillReader for Reader {
    fn read_exact(&mut self, buf: &mut [u8]) -> Result<()> {
        let end = self.end_of(buf.len())?;
        let mut filled = 0;
        while self.pos < end {
            let offset = self.pos % PAGE;
            let take = (end - self.pos).min(PAGE - offset);
            let page = &self.object.pages[self.pos / PAGE];
            buf[filled..filled + take].copy_from_slice(&page[offset..offset + take]);
            filled += take;
            self.pos += take;
        }
        Ok(())
    }

    fn skip(&mut self, n: u64) -> Result<()> {
        self.pos = self.end_of(usize::try_from(n).unwrap_or(usize::MAX))?;
        Ok(())
    }
}
