//! Slotted pages.
//!
//! The classic layout: a small header, record data growing forward from the
//! header, and a slot directory growing backward from the page end. Records
//! are opaque byte strings (encoded by [`crate::codec`]).
//!
//! ```text
//! +--------+-----------------------+______________+----------------+
//! | header | record data  ──────►  |  free space  | ◄── slot array |
//! +--------+-----------------------+______________+----------------+
//! ```

use tdb_core::{TdbError, TdbResult};

/// Page size in bytes. 8 KiB, a common DBMS default.
pub const PAGE_SIZE: usize = 8192;

const HEADER_SIZE: usize = 4; // u16 slot_count, u16 data_end
const SLOT_SIZE: usize = 4; // u16 offset, u16 len

/// A fixed-size slotted page.
#[derive(Clone)]
pub struct Page {
    bytes: Box<[u8; PAGE_SIZE]>,
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Page")
            .field("slots", &self.slot_count())
            .field("free", &self.free_space())
            .finish()
    }
}

impl Default for Page {
    fn default() -> Self {
        Page::new()
    }
}

impl Page {
    /// A fresh, empty page.
    pub fn new() -> Page {
        let mut p = Page {
            bytes: Box::new([0u8; PAGE_SIZE]),
        };
        p.set_slot_count(0);
        p.set_data_end(HEADER_SIZE as u16);
        p
    }

    /// Overwrite this page with the next [`PAGE_SIZE`] bytes of `input`
    /// — a heap scan reads each page straight into the one buffer it
    /// reuses — and validate the header.
    pub fn read_from(&mut self, input: &mut impl std::io::Read) -> TdbResult<()> {
        input.read_exact(&mut self.bytes[..])?;
        self.check()
    }

    /// Validate header consistency so a corrupt page cannot cause
    /// out-of-bounds record reads later.
    fn check(&self) -> TdbResult<()> {
        let slots = self.slot_count() as usize;
        let data_end = self.data_end() as usize;
        if !(HEADER_SIZE..=PAGE_SIZE).contains(&data_end)
            || slots * SLOT_SIZE > PAGE_SIZE - HEADER_SIZE
        {
            return Err(TdbError::Corrupt("inconsistent page header".into()));
        }
        for i in 0..slots {
            let (off, len) = self.slot(i);
            if off as usize + len as usize > data_end {
                return Err(TdbError::Corrupt(format!("slot {i} exceeds data area")));
            }
        }
        Ok(())
    }

    /// The raw bytes of this page.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes[..]
    }

    fn set_slot_count(&mut self, n: u16) {
        self.bytes[0..2].copy_from_slice(&n.to_le_bytes());
    }

    /// Number of records stored on the page.
    pub fn slot_count(&self) -> u16 {
        u16::from_le_bytes([self.bytes[0], self.bytes[1]])
    }

    fn set_data_end(&mut self, n: u16) {
        self.bytes[2..4].copy_from_slice(&n.to_le_bytes());
    }

    fn data_end(&self) -> u16 {
        u16::from_le_bytes([self.bytes[2], self.bytes[3]])
    }

    fn slot_pos(i: usize) -> usize {
        PAGE_SIZE - (i + 1) * SLOT_SIZE
    }

    fn slot(&self, i: usize) -> (u16, u16) {
        let p = Self::slot_pos(i);
        (
            u16::from_le_bytes([self.bytes[p], self.bytes[p + 1]]),
            u16::from_le_bytes([self.bytes[p + 2], self.bytes[p + 3]]),
        )
    }

    fn set_slot(&mut self, i: usize, offset: u16, len: u16) {
        let p = Self::slot_pos(i);
        self.bytes[p..p + 2].copy_from_slice(&offset.to_le_bytes());
        self.bytes[p + 2..p + 4].copy_from_slice(&len.to_le_bytes());
    }

    /// Free bytes remaining (accounting for the slot entry a new record
    /// would need).
    pub fn free_space(&self) -> usize {
        let used_front = self.data_end() as usize;
        let used_back = self.slot_count() as usize * SLOT_SIZE;
        PAGE_SIZE - used_front - used_back
    }

    /// Can a record of `len` bytes be inserted?
    pub fn fits(&self, len: usize) -> bool {
        self.free_space() >= len + SLOT_SIZE
    }

    /// Insert a record, returning its slot index, or `None` if it does not
    /// fit.
    pub fn insert(&mut self, record: &[u8]) -> Option<u16> {
        if !self.fits(record.len()) || record.len() > u16::MAX as usize {
            return None;
        }
        let slot = self.slot_count();
        let offset = self.data_end();
        let end = offset as usize + record.len();
        self.bytes[offset as usize..end].copy_from_slice(record);
        self.set_slot(slot as usize, offset, record.len() as u16);
        self.set_data_end(end as u16);
        self.set_slot_count(slot + 1);
        Some(slot)
    }

    /// Read the record in slot `i`.
    pub fn get(&self, i: u16) -> TdbResult<&[u8]> {
        if i >= self.slot_count() {
            return Err(TdbError::Corrupt(format!(
                "slot {i} out of range (page has {})",
                self.slot_count()
            )));
        }
        let (off, len) = self.slot(i as usize);
        Ok(&self.bytes[off as usize..off as usize + len as usize])
    }

    /// Iterate over all records on the page.
    pub fn records(&self) -> impl Iterator<Item = &[u8]> {
        (0..self.slot_count()).map(move |i| {
            let (off, len) = self.slot(i as usize);
            &self.bytes[off as usize..off as usize + len as usize]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_page() {
        let p = Page::new();
        assert_eq!(p.slot_count(), 0);
        assert_eq!(p.free_space(), PAGE_SIZE - HEADER_SIZE);
        assert!(p.get(0).is_err());
    }

    #[test]
    fn insert_and_get() {
        let mut p = Page::new();
        let a = p.insert(b"hello").unwrap();
        let b = p.insert(b"world!!").unwrap();
        assert_eq!(p.get(a).unwrap(), b"hello");
        assert_eq!(p.get(b).unwrap(), b"world!!");
        assert_eq!(p.slot_count(), 2);
        let all: Vec<_> = p.records().collect();
        assert_eq!(all, vec![b"hello".as_ref(), b"world!!".as_ref()]);
    }

    #[test]
    fn fills_up_and_rejects_overflow() {
        let mut p = Page::new();
        let rec = [7u8; 100];
        let mut n = 0;
        while p.insert(&rec).is_some() {
            n += 1;
        }
        // 104 bytes per record (100 + slot) into ~8188 usable.
        assert!(n >= 78, "inserted only {n}");
        assert!(!p.fits(100));
        // Smaller record may still fit.
        let tiny_fits = p.fits(4);
        assert_eq!(p.insert(&[1, 2, 3, 4]).is_some(), tiny_fits);
    }

    #[test]
    fn empty_records_are_fine() {
        let mut p = Page::new();
        let s = p.insert(b"").unwrap();
        assert_eq!(p.get(s).unwrap(), b"");
    }

    /// A page read back from `bytes`.
    fn from_bytes(bytes: &[u8]) -> TdbResult<Page> {
        let mut p = Page::new();
        p.read_from(&mut &bytes[..])?;
        Ok(p)
    }

    #[test]
    fn round_trips_through_bytes() {
        let mut p = Page::new();
        p.insert(b"abc").unwrap();
        p.insert(b"defgh").unwrap();
        let q = from_bytes(p.as_bytes()).unwrap();
        assert_eq!(q.get(0).unwrap(), b"abc");
        assert_eq!(q.get(1).unwrap(), b"defgh");
    }

    #[test]
    fn corrupt_headers_rejected() {
        assert!(from_bytes(&[0u8; 10]).is_err()); // wrong size
        let mut bytes = vec![0u8; PAGE_SIZE];
        bytes[0] = 0xff; // absurd slot count
        bytes[1] = 0xff;
        assert!(from_bytes(&bytes).is_err());
        // data_end below header.
        let mut bytes = vec![0u8; PAGE_SIZE];
        bytes[2] = 1;
        bytes[3] = 0;
        assert!(from_bytes(&bytes).is_err());
    }

    #[test]
    fn corrupt_slot_rejected() {
        let mut p = Page::new();
        p.insert(b"abcd").unwrap();
        let mut bytes = p.as_bytes().to_vec();
        // Inflate slot 0's length beyond data_end.
        let pos = PAGE_SIZE - 2;
        bytes[pos] = 0xff;
        bytes[pos + 1] = 0x1f;
        assert!(from_bytes(&bytes).is_err());
    }
}
