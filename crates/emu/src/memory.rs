//! Sparse, paged data memory.

use ci_isa::Addr;
use std::collections::HashMap;

const PAGE_WORDS: u64 = 512;

/// Sparse word-addressed memory backed by 512-word pages.
///
/// Reads of never-written words return `0`, matching zero-initialized memory.
///
/// ```
/// use ci_emu::Memory;
/// use ci_isa::Addr;
///
/// let mut m = Memory::new();
/// assert_eq!(m.read(Addr(0x4000)), 0);
/// m.write(Addr(0x4000), 99);
/// assert_eq!(m.read(Addr(0x4000)), 99);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Memory {
    pages: HashMap<u64, Box<[u64]>>,
}

impl Memory {
    /// Create empty (all-zero) memory.
    #[must_use]
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Create memory initialized from `(address, value)` pairs — typically a
    /// [`ci_isa::Program`]'s data image. Pairs apply in order, so a repeated
    /// address keeps its last value, exactly as a sequence of
    /// [`Memory::write`]s would.
    #[must_use]
    pub fn with_image(image: &[(Addr, u64)]) -> Memory {
        let mut m = Memory::new();
        // One page lookup per run of same-page words, not one per word.
        for run in image.chunk_by(|(a, _), (b, _)| split(*a).0 == split(*b).0) {
            let page = m.page_mut(split(run[0].0).0);
            for &(a, v) in run {
                page[split(a).1] = v;
            }
        }
        m
    }

    /// Read the word at `addr` (zero if never written).
    #[must_use]
    pub fn read(&self, addr: Addr) -> u64 {
        let (page, off) = split(addr);
        self.pages.get(&page).map_or(0, |p| p[off])
    }

    /// Write the word at `addr`.
    pub fn write(&mut self, addr: Addr, value: u64) {
        let (page, off) = split(addr);
        self.page_mut(page)[off] = value;
    }

    /// The page numbered `page`, allocated zeroed on first touch.
    fn page_mut(&mut self, page: u64) -> &mut [u64] {
        self.pages
            .entry(page)
            .or_insert_with(|| vec![0u64; PAGE_WORDS as usize].into_boxed_slice())
    }

    /// Number of resident pages (for capacity diagnostics).
    #[must_use]
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }
}

fn split(addr: Addr) -> (u64, usize) {
    (addr.0 / PAGE_WORDS, (addr.0 % PAGE_WORDS) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_default() {
        let m = Memory::new();
        assert_eq!(m.read(Addr(0)), 0);
        assert_eq!(m.read(Addr(u64::MAX)), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn write_read_round_trip() {
        let mut m = Memory::new();
        m.write(Addr(511), 1);
        m.write(Addr(512), 2); // adjacent word, next page
        assert_eq!(m.read(Addr(511)), 1);
        assert_eq!(m.read(Addr(512)), 2);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn overwrite() {
        let mut m = Memory::new();
        m.write(Addr(7), 1);
        m.write(Addr(7), 9);
        assert_eq!(m.read(Addr(7)), 9);
    }

    #[test]
    fn image_initialization() {
        let m = Memory::with_image(&[(Addr(4), 44), (Addr(5), 55)]);
        assert_eq!(m.read(Addr(4)), 44);
        assert_eq!(m.read(Addr(5)), 55);
        assert_eq!(m.read(Addr(6)), 0);
    }

    #[test]
    fn extreme_addresses() {
        let mut m = Memory::new();
        m.write(Addr(u64::MAX), 3);
        assert_eq!(m.read(Addr(u64::MAX)), 3);
    }
}
