//! Storage backends for the cluster node.
//!
//! The node persists flushed pages through a [`StorageBackend`]. Two
//! implementations:
//!
//! * [`MemBackend`] — a plain map, for tests and examples; "durable" for the
//!   node's purposes (it survives node restarts, standing in for the SSD).
//! * [`SimSsdBackend`] — routes writes through the `fc-ssd` simulator so the
//!   real node produces the same device-level statistics (erase counts,
//!   write-length histogram) as the trace-replay experiments, while storing
//!   page contents alongside.

use fc_ssd::{Lpn, Ssd, SsdConfig};
use std::collections::HashMap;

/// Where flushed pages go.
pub trait StorageBackend: Send {
    /// Persist one page.
    fn write_page(&mut self, lpn: u64, version: u64, data: &[u8]);

    /// Read one page, if present.
    fn read_page(&self, lpn: u64) -> Option<(u64, Vec<u8>)>;

    /// Discard one page (TRIM).
    fn trim_page(&mut self, lpn: u64);

    /// Number of distinct pages stored.
    fn pages(&self) -> usize;

    /// Version of the stored copy of `lpn`, if present. Used by recovery
    /// and the chaos suite to compare durability against acked writes.
    fn version_of(&self, lpn: u64) -> Option<u64> {
        self.read_page(lpn).map(|(v, _)| v)
    }

    /// Every stored lpn, unordered (callers sort). Drives elastic-
    /// membership migration planning: which pages does this pair actually
    /// hold durable, and therefore which blocks must move when the ring
    /// changes.
    fn lpns(&self) -> Vec<u64>;
}

/// In-memory "SSD".
#[derive(Debug, Default)]
pub struct MemBackend {
    pages: HashMap<u64, (u64, Vec<u8>)>,
}

impl MemBackend {
    /// Empty backend.
    pub fn new() -> Self {
        MemBackend::default()
    }
}

impl StorageBackend for MemBackend {
    fn write_page(&mut self, lpn: u64, version: u64, data: &[u8]) {
        let e = self.pages.entry(lpn).or_insert((0, Vec::new()));
        // Never roll a page back to an older version (recovery may replay).
        if version >= e.0 {
            *e = (version, data.to_vec());
        }
    }

    fn read_page(&self, lpn: u64) -> Option<(u64, Vec<u8>)> {
        self.pages.get(&lpn).cloned()
    }

    fn trim_page(&mut self, lpn: u64) {
        self.pages.remove(&lpn);
    }

    fn pages(&self) -> usize {
        self.pages.len()
    }

    fn version_of(&self, lpn: u64) -> Option<u64> {
        // Hot path for the node's version clock: no page-content clone.
        self.pages.get(&lpn).map(|(v, _)| *v)
    }

    fn lpns(&self) -> Vec<u64> {
        self.pages.keys().copied().collect()
    }
}

/// A backend that stores contents in memory but drives the `fc-ssd`
/// simulator for every write, so device statistics are meaningful.
pub struct SimSsdBackend {
    mem: MemBackend,
    ssd: Ssd,
}

impl SimSsdBackend {
    /// Build over a simulated device.
    pub fn new(cfg: SsdConfig) -> Self {
        SimSsdBackend {
            mem: MemBackend::new(),
            ssd: Ssd::new(cfg),
        }
    }

    /// The simulated device (stats inspection).
    pub fn ssd(&self) -> &Ssd {
        &self.ssd
    }
}

impl StorageBackend for SimSsdBackend {
    fn write_page(&mut self, lpn: u64, version: u64, data: &[u8]) {
        // A write the version guard refuses never reaches the device.
        if self
            .mem
            .version_of(lpn)
            .is_some_and(|stored| stored > version)
        {
            return;
        }
        let logical = self.ssd.logical_pages();
        self.ssd.write(Lpn(lpn % logical), 1);
        self.mem.write_page(lpn, version, data);
    }

    fn read_page(&self, lpn: u64) -> Option<(u64, Vec<u8>)> {
        self.mem.read_page(lpn)
    }

    fn trim_page(&mut self, lpn: u64) {
        let logical = self.ssd.logical_pages();
        self.ssd.trim(Lpn(lpn % logical), 1);
        self.mem.trim_page(lpn);
    }

    fn pages(&self) -> usize {
        self.mem.pages()
    }

    fn version_of(&self, lpn: u64) -> Option<u64> {
        self.mem.version_of(lpn)
    }

    fn lpns(&self) -> Vec<u64> {
        self.mem.lpns()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_ssd::FtlKind;

    #[test]
    fn mem_backend_stores_and_reads() {
        let mut b = MemBackend::new();
        b.write_page(5, 1, b"abc");
        assert_eq!(b.read_page(5), Some((1, b"abc".to_vec())));
        assert_eq!(b.read_page(6), None);
        assert_eq!(b.version_of(5), Some(1));
        assert_eq!(b.version_of(6), None);
        assert_eq!(b.pages(), 1);
        assert_eq!(b.lpns(), vec![5]);
    }

    #[test]
    fn mem_backend_rejects_version_rollback() {
        let mut b = MemBackend::new();
        b.write_page(1, 5, b"new");
        b.write_page(1, 3, b"old");
        assert_eq!(b.read_page(1), Some((5, b"new".to_vec())));
        // Same version overwrites (idempotent replay).
        b.write_page(1, 5, b"new2");
        assert_eq!(b.read_page(1), Some((5, b"new2".to_vec())));
    }

    #[test]
    fn sim_backend_drives_the_device() {
        let mut b = SimSsdBackend::new(SsdConfig::tiny(FtlKind::PageLevel));
        for i in 0..10 {
            b.write_page(i, 1, b"x");
        }
        assert_eq!(b.pages(), 10);
        assert_eq!(b.ssd().stats().host_pages_written, 10);
        assert_eq!(b.read_page(3).unwrap().1, b"x".to_vec());

        // A stale write (a replay, or a write-through that lost to a newer
        // copy) is refused before it programs flash.
        let mut b = SimSsdBackend::new(SsdConfig::tiny(FtlKind::PageLevel));
        b.write_page(7, 5, b"new");
        b.write_page(7, 3, b"old");
        assert_eq!(b.ssd().stats().host_pages_written, 1);
        assert_eq!(b.read_page(7), Some((5, b"new".to_vec())));
    }
}
