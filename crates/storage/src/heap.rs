//! On-disk heap files: an unordered sequence of slotted pages.
//!
//! A heap file is the base storage of a relation. Records append into the
//! last page, spilling onto a new page when full. Every scan is a
//! [`PageScan`]: a snapshot of the pages the file held when it opened,
//! read in order into one reused page buffer (counted in the shared
//! [`IoStats`]), each page's records decoded in place.

use crate::codec::Codec;
use crate::iostats::IoStats;
use crate::page::{Page, PAGE_SIZE};
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use tdb_core::{TdbError, TdbResult};

/// An on-disk heap file of slotted pages.
pub struct HeapFile {
    file: File,
    path: PathBuf,
    page_count: u64,
    /// Tail page being filled (flushed on drop or explicit `flush`).
    tail: Option<(u64, Page)>,
    io: IoStats,
}

impl std::fmt::Debug for HeapFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeapFile")
            .field("path", &self.path)
            .field("pages", &self.page_count)
            .finish_non_exhaustive()
    }
}

impl HeapFile {
    /// Create a new, empty heap file at `path` (truncating any existing
    /// file).
    pub fn create(path: impl AsRef<Path>, io: IoStats) -> TdbResult<HeapFile> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        Ok(HeapFile {
            file,
            path,
            page_count: 0,
            tail: None,
            io,
        })
    }

    /// Open an existing heap file.
    pub fn open(path: impl AsRef<Path>, io: IoStats) -> TdbResult<HeapFile> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new().read(true).write(true).open(&path)?;
        let len = file.metadata()?.len();
        if len % PAGE_SIZE as u64 != 0 {
            return Err(TdbError::Corrupt(format!(
                "heap file {} has size {len}, not a multiple of {PAGE_SIZE}",
                path.display()
            )));
        }
        Ok(HeapFile {
            file,
            path,
            page_count: len / PAGE_SIZE as u64,
            tail: None,
            io,
        })
    }

    /// The file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of pages, including an unflushed tail.
    pub fn page_count(&self) -> u64 {
        self.page_count + u64::from(self.tail.is_some())
    }

    fn write_page(&mut self, page_no: u64, page: &Page) -> TdbResult<()> {
        self.file
            .seek(SeekFrom::Start(page_no * PAGE_SIZE as u64))?;
        self.file.write_all(page.as_bytes())?;
        self.io.record_write(PAGE_SIZE as u64);
        Ok(())
    }

    /// Append one encoded record.
    pub fn append_record(&mut self, record: &[u8]) -> TdbResult<()> {
        if record.len() + 8 > PAGE_SIZE {
            return Err(TdbError::Corrupt(format!(
                "record of {} bytes exceeds page capacity",
                record.len()
            )));
        }
        let (tail_no, tail) = match self.tail.take() {
            Some(t) => t,
            None => (self.page_count, Page::new()),
        };
        let mut tail = tail;
        if tail.insert(record).is_none() {
            // Tail is full: flush it and start a new page.
            self.write_page(tail_no, &tail)?;
            self.page_count = self.page_count.max(tail_no + 1);
            let mut fresh = Page::new();
            fresh
                .insert(record)
                .expect("empty page must fit a sub-page record");
            self.tail = Some((self.page_count, fresh));
        } else {
            self.tail = Some((tail_no, tail));
        }
        Ok(())
    }

    /// Append one typed item.
    pub fn append<T: Codec>(&mut self, item: &T) -> TdbResult<()> {
        self.append_record(&item.to_bytes())
    }

    /// Flush the tail page to disk.
    pub fn flush(&mut self) -> TdbResult<()> {
        if let Some((tail_no, tail)) = self.tail.take() {
            self.write_page(tail_no, &tail)?;
            self.page_count = self.page_count.max(tail_no + 1);
        }
        self.file.flush()?;
        Ok(())
    }

    /// Force flushed pages to stable storage (`fdatasync`). Durable
    /// catalogs call this after `flush` so a crash cannot lose pages the
    /// manifest already points at.
    pub fn sync_data(&self) -> TdbResult<()> {
        self.file.sync_data()?;
        Ok(())
    }

    /// A snapshot scan of the pages the file holds now, the tail flushed
    /// first. The scan reads through a handle of its own, so appends,
    /// flushes and other scans of this file cannot move its position.
    pub fn pages(&mut self) -> TdbResult<PageScan> {
        self.flush()?;
        Ok(PageScan {
            file: File::open(&self.path)?,
            next: 0,
            end: self.page_count,
            page: Page::new(),
            io: self.io.clone(),
        })
    }

    /// Scan every record in file order, decoding to `T`.
    pub fn scan<T: Codec>(&mut self) -> TdbResult<HeapScan<T>> {
        Ok(HeapScan {
            pages: self.pages()?,
            page: Vec::new(),
        })
    }
}

/// A snapshot scan of a heap file, a page at a time: the one primitive
/// every read of stored records goes through. It reads the pages the
/// file held when it opened, so rows appended later are not seen, into
/// one page buffer it reuses, and decodes each record in place from it.
pub struct PageScan {
    file: File,
    next: u64,
    end: u64,
    page: Page,
    io: IoStats,
}

impl std::fmt::Debug for PageScan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageScan")
            .field("next", &self.next)
            .field("end", &self.end)
            .finish_non_exhaustive()
    }
}

impl PageScan {
    /// Pages read so far.
    pub fn pages_read(&self) -> u64 {
        self.next
    }

    /// Decode the next page's records, in slot order, onto `out`.
    /// Returns `false`, adding nothing, once every page of the snapshot
    /// has been read. A torn or corrupt page or record is an error that
    /// ends the scan.
    pub fn next_page<T: Codec>(&mut self, out: &mut Vec<T>) -> TdbResult<bool> {
        if self.next >= self.end {
            return Ok(false);
        }
        let read = self.page.read_from(&mut self.file).and_then(|()| {
            self.io.record_read(PAGE_SIZE as u64);
            out.reserve(usize::from(self.page.slot_count()));
            for record in self.page.records() {
                out.push(T::from_bytes(record)?);
            }
            Ok(())
        });
        self.next = if read.is_ok() {
            self.next + 1
        } else {
            self.end
        };
        read.map(|()| true)
    }
}

/// Iterator over all records of a heap file.
pub struct HeapScan<T> {
    pages: PageScan,
    /// The page in hand, last record first, so records pop from the end;
    /// one buffer, reused for every page.
    page: Vec<T>,
}

impl<T: Codec> Iterator for HeapScan<T> {
    type Item = TdbResult<T>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(record) = self.page.pop() {
                return Some(Ok(record));
            }
            match self.pages.next_page(&mut self.page) {
                Ok(true) => self.page.reverse(),
                Ok(false) => return None,
                Err(e) => return Some(Err(e)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdb_core::{TsTuple, Value};

    fn tmpdir() -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!(
            "tdb-heap-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn append_scan_round_trip() {
        let path = tmpdir().join("a.heap");
        let io = IoStats::new();
        let mut h = HeapFile::create(&path, io.clone()).unwrap();
        let tuples: Vec<_> = (0..1000)
            .map(|i| TsTuple::new(format!("S{i}"), i, i, i + 10).unwrap())
            .collect();
        for t in &tuples {
            h.append(t).unwrap();
        }
        let back: Vec<_> = h.scan::<TsTuple>().unwrap().map(|r| r.unwrap()).collect();
        assert_eq!(back, tuples);
        assert!(io.snapshot().pages_written >= 1);
    }

    #[test]
    fn persists_across_reopen() {
        let path = tmpdir().join("b.heap");
        let io = IoStats::new();
        {
            let mut h = HeapFile::create(&path, io.clone()).unwrap();
            for i in 0..50 {
                h.append(&TsTuple::interval(i, i + 1).unwrap()).unwrap();
            }
            h.flush().unwrap();
        }
        let mut h = HeapFile::open(&path, io).unwrap();
        let n = h.scan::<TsTuple>().unwrap().count();
        assert_eq!(n, 50);
    }

    #[test]
    fn io_counters_track_pages() {
        let path = tmpdir().join("c.heap");
        let io = IoStats::new();
        let mut h = HeapFile::create(&path, io.clone()).unwrap();
        for i in 0..5000 {
            h.append(&TsTuple::new(format!("S{i}"), i, i, i + 3).unwrap())
                .unwrap();
        }
        h.flush().unwrap();
        let written = io.snapshot().pages_written;
        assert!(written > 5, "expected multiple pages, got {written}");
        let before = io.snapshot();
        let _ = h.scan::<TsTuple>().unwrap().count();
        let delta = io.snapshot().since(&before);
        assert!(delta.pages_read >= written - 1);
    }

    #[test]
    fn oversized_record_rejected() {
        let path = tmpdir().join("d.heap");
        let mut h = HeapFile::create(&path, IoStats::new()).unwrap();
        let huge = vec![0u8; PAGE_SIZE];
        assert!(h.append_record(&huge).is_err());
    }

    #[test]
    fn open_rejects_ragged_file() {
        let path = tmpdir().join("e.heap");
        std::fs::write(&path, [1, 2, 3]).unwrap();
        assert!(HeapFile::open(&path, IoStats::new()).is_err());
    }

    fn ids(page: &[TsTuple]) -> Vec<Value> {
        page.iter().map(|t| t.surrogate.clone()).collect()
    }

    /// A heap of `n` tuples whose surrogates are `0..n`, and its pages.
    fn numbered(name: &str, n: i64) -> (HeapFile, Vec<Vec<Value>>) {
        let mut h = HeapFile::create(tmpdir().join(name), IoStats::new()).unwrap();
        for i in 0..n {
            h.append(&TsTuple::new(Value::Int(i), 0, i, i + 1).unwrap())
                .unwrap();
        }
        let mut scan = h.pages().unwrap();
        let mut pages = Vec::new();
        let mut page = Vec::new();
        while scan.next_page::<TsTuple>(&mut page).unwrap() {
            pages.push(ids(&page));
            page.clear();
        }
        assert!(pages.len() >= 3, "want several pages, got {}", pages.len());
        (h, pages)
    }

    #[test]
    fn interleaved_scans_of_one_heap_read_their_own_pages() {
        let (mut h, pages) = numbered("g.heap", 2000);
        let mut a = h.pages().unwrap();
        let mut b = h.pages().unwrap();
        let (mut pa, mut pb) = (Vec::new(), Vec::new());
        for want in &pages {
            assert!(a.next_page::<TsTuple>(&mut pa).unwrap());
            assert!(b.next_page::<TsTuple>(&mut pb).unwrap());
            assert_eq!(&ids(&pa), want);
            assert_eq!(&ids(&pb), want);
            pa.clear();
            pb.clear();
        }
        assert!(!a.next_page::<TsTuple>(&mut pa).unwrap());
        assert!(!b.next_page::<TsTuple>(&mut pb).unwrap());
    }

    #[test]
    fn appends_between_pages_leave_the_snapshot_intact() {
        let (mut h, pages) = numbered("h.heap", 2000);
        let mut scan = h.pages().unwrap();
        let mut page = Vec::new();
        let mut next = 2000;
        for want in &pages {
            assert!(scan.next_page::<TsTuple>(&mut page).unwrap());
            assert_eq!(&ids(&page), want);
            page.clear();
            // Append past a page's worth, flush, and open a further scan.
            for _ in 0..300 {
                h.append(&TsTuple::new(Value::Int(next), 0, 0, 1).unwrap())
                    .unwrap();
                next += 1;
            }
            h.flush().unwrap();
            let _ = h.pages().unwrap();
        }
        assert!(!scan.next_page::<TsTuple>(&mut page).unwrap());
        assert_eq!(h.scan::<TsTuple>().unwrap().count(), next as usize);
    }

    #[test]
    fn empty_heap_scans_empty() {
        let path = tmpdir().join("f.heap");
        let mut h = HeapFile::create(&path, IoStats::new()).unwrap();
        assert_eq!(h.scan::<TsTuple>().unwrap().count(), 0);
    }
}
