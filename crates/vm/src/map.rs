//! Memory maps.
//!
//! "A task ... consist\[s\] of a paged virtual address space"; the memory
//! map data structure describes it. The map's entry list is protected
//! by a **sleepable complex lock** — the paper's example of a lock that
//! must allow its holder to block ("most complex locks use the sleep
//! option, including the lock on a memory map data structure") — while
//! each entry's page-residence table sits under its own simple lock, so
//! faults on different entries proceed in parallel under read holds.
//!
//! The fault path follows the paper's discipline exactly: it takes a
//! *read* hold for lookup, and on a physical-memory shortage it "drops
//! its lock to wait for memory" and revalidates everything after
//! relocking (the section-9 rules — entries may have vanished
//! meanwhile).

use core::cell::UnsafeCell;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use machk_core::{ComplexLock, ObjRef, SimpleLocked};

use crate::object::VmObject;

use crate::page::{PageId, PagePool};

/// Page size of the simulated machine.
pub const PAGE_SIZE: u64 = 4096;

/// Protection bits for a map entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmProt {
    /// No access.
    None,
    /// Read-only.
    Read,
    /// Read and write.
    ReadWrite,
}

impl VmProt {
    /// Whether an access of kind `wanted` is permitted under `self`.
    pub fn allows(self, wanted: VmProt) -> bool {
        matches!(
            (self, wanted),
            (_, VmProt::None) | (VmProt::ReadWrite, _) | (VmProt::Read, VmProt::Read)
        )
    }
}

/// Errors from map operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapError {
    /// Address or size not page aligned.
    Unaligned,
    /// The requested range overlaps an existing entry.
    Overlap,
    /// No entry covers the address.
    NoEntry,
    /// A bounded wait for physical memory expired — in the experiments
    /// this is how a wired-down deadlock (section 7.1) is *observed*
    /// rather than hung on.
    ShortageTimeout,
    /// The access violates the entry's protection.
    ProtectionViolation,
    /// The memory object backing the entry has been terminated.
    ObjectTerminated,
}

impl core::fmt::Display for MapError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MapError::Unaligned => f.write_str("address or size not page aligned"),
            MapError::Overlap => f.write_str("range overlaps an existing entry"),
            MapError::NoEntry => f.write_str("no entry covers the address"),
            MapError::ShortageTimeout => f.write_str("timed out waiting for physical memory"),
            MapError::ProtectionViolation => f.write_str("access violates entry protection"),
            MapError::ObjectTerminated => f.write_str("backing memory object terminated"),
        }
    }
}

impl std::error::Error for MapError {}

/// One address range of a map.
///
/// Residence is under the entry's own simple lock so that faults can
/// install pages while holding only a *read* lock on the map.
pub struct MapEntry {
    start: u64,
    end: u64,
    /// The memory object backing this range, if any. Immutable for the
    /// entry's lifetime; the entry holds a reference. Lock ordering is
    /// the paper's section-5 example: "always lock the memory map
    /// before the memory object".
    object: Option<ObjRef<VmObject>>,
    state: SimpleLocked<EntryState>,
}

struct EntryState {
    prot: VmProt,
    wired: bool,
    resident: BTreeMap<u64, PageId>,
}

impl MapEntry {
    fn new(start: u64, end: u64) -> Arc<MapEntry> {
        Self::new_backed(start, end, None)
    }

    fn new_backed(start: u64, end: u64, object: Option<ObjRef<VmObject>>) -> Arc<MapEntry> {
        Arc::new(MapEntry {
            start,
            end,
            object,
            state: SimpleLocked::new(EntryState {
                prot: VmProt::ReadWrite,
                wired: false,
                resident: BTreeMap::new(),
            }),
        })
    }

    /// The backing memory object, if any (a cloned reference — the
    /// entry keeps its own).
    pub fn backing_object(&self) -> Option<ObjRef<VmObject>> {
        self.object.clone()
    }

    /// Start of the range (inclusive, page aligned).
    pub fn start(&self) -> u64 {
        self.start
    }

    /// End of the range (exclusive, page aligned).
    pub fn end(&self) -> u64 {
        self.end
    }

    fn contains(&self, addr: u64) -> bool {
        addr >= self.start && addr < self.end
    }

    /// Whether the entry is wired (pages may not be stolen).
    pub fn is_wired(&self) -> bool {
        self.state.lock().wired
    }

    pub(crate) fn set_wired(&self, wired: bool) {
        self.state.lock().wired = wired;
    }

    /// Current protection.
    pub fn protection(&self) -> VmProt {
        self.state.lock().prot
    }

    pub(crate) fn set_protection(&self, prot: VmProt) {
        self.state.lock().prot = prot;
    }

    /// Frame backing `addr`, if resident.
    pub fn resident_page(&self, addr: u64) -> Option<PageId> {
        let idx = (addr - self.start) / PAGE_SIZE;
        self.state.lock().resident.get(&idx).copied()
    }

    /// Install `page` for `addr` unless a racing fault beat us; returns
    /// the page back if it lost the race.
    pub(crate) fn install_page(&self, addr: u64, page: PageId) -> Result<(), PageId> {
        let idx = (addr - self.start) / PAGE_SIZE;
        {
            let mut s = self.state.lock();
            if s.resident.contains_key(&idx) {
                return Err(page);
            }
            s.resident.insert(idx, page);
        }
        // Object accounting outside the entry lock (it takes the
        // object's own lock).
        if let Some(obj) = &self.object {
            obj.note_page_in();
        }
        Ok(())
    }

    /// Number of resident pages.
    pub fn resident_count(&self) -> usize {
        self.state.lock().resident.len()
    }

    /// Remove up to `max` resident pages (pageout stealing). Only legal
    /// on unwired entries; the caller frees the returned frames outside
    /// all locks.
    pub(crate) fn steal_pages(&self, max: usize) -> Vec<PageId> {
        let stolen: Vec<PageId> = {
            let mut s = self.state.lock();
            if s.wired {
                return Vec::new();
            }
            let keys: Vec<u64> = s.resident.keys().take(max).copied().collect();
            keys.iter().filter_map(|k| s.resident.remove(k)).collect()
        };
        if let Some(obj) = &self.object {
            for _ in 0..stolen.len() {
                obj.note_page_out();
            }
        }
        stolen
    }

    /// Remove all resident pages (entry teardown).
    fn drain_pages(&self) -> Vec<PageId> {
        let pages: Vec<PageId> = {
            let mut s = self.state.lock();
            core::mem::take(&mut s.resident).into_values().collect()
        };
        if let Some(obj) = &self.object {
            for _ in 0..pages.len() {
                obj.note_page_out();
            }
        }
        pages
    }

    /// Split this entry at `at` (page aligned, strictly inside the
    /// range), moving resident pages to whichever half covers them.
    /// Caller holds the map write lock, which excludes every concurrent
    /// user of this entry.
    fn split_at(&self, at: u64) -> (Arc<MapEntry>, Arc<MapEntry>) {
        debug_assert!(at > self.start && at < self.end && at.is_multiple_of(PAGE_SIZE));
        let mut s = self.state.lock();
        let lo = MapEntry::new_backed(self.start, at, self.object.clone());
        let hi = MapEntry::new_backed(at, self.end, self.object.clone());
        let cut_index = (at - self.start) / PAGE_SIZE;
        {
            let mut lo_state = lo.state.lock();
            let mut hi_state = hi.state.lock();
            lo_state.prot = s.prot;
            hi_state.prot = s.prot;
            lo_state.wired = s.wired;
            hi_state.wired = s.wired;
            for (idx, page) in core::mem::take(&mut s.resident) {
                if idx < cut_index {
                    lo_state.resident.insert(idx, page);
                } else {
                    hi_state.resident.insert(idx - cut_index, page);
                }
            }
        }
        (lo, hi)
    }
}

impl core::fmt::Debug for MapEntry {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("MapEntry")
            .field("start", &format_args!("{:#x}", self.start))
            .field("end", &format_args!("{:#x}", self.end))
            .field("wired", &self.is_wired())
            .field("resident", &self.resident_count())
            .finish()
    }
}

/// A memory map: ordered entries under a sleepable complex lock.
pub struct VmMap {
    lock: ComplexLock,
    /// Keyed by entry start. Read under a read or write hold of
    /// `lock`; written only under a write hold.
    entries: UnsafeCell<BTreeMap<u64, Arc<MapEntry>>>,
    pool: Arc<PagePool>,
}

// Safety: `entries` is only touched under the complex lock per the
// accessor invariants below.
unsafe impl Send for VmMap {}
unsafe impl Sync for VmMap {}

impl VmMap {
    /// An empty map backed by `pool`.
    pub fn new(pool: Arc<PagePool>) -> VmMap {
        VmMap {
            lock: ComplexLock::named("vm_map.lock", true), // the Sleep option, per the paper
            entries: UnsafeCell::new(BTreeMap::new()),
            pool,
        }
    }

    /// The map lock (exposed for the `vm_map_pageable` implementations
    /// and the experiments).
    pub fn lock_ref(&self) -> &ComplexLock {
        &self.lock
    }

    /// The backing pool.
    pub fn pool(&self) -> &Arc<PagePool> {
        &self.pool
    }

    /// Entries view. Caller must hold the map lock (read or write).
    fn entries(&self) -> &BTreeMap<u64, Arc<MapEntry>> {
        unsafe { &*self.entries.get() }
    }

    /// Entries mutable view. Caller must hold the map lock for write.
    #[allow(clippy::mut_from_ref)]
    fn entries_mut(&self) -> &mut BTreeMap<u64, Arc<MapEntry>> {
        unsafe { &mut *self.entries.get() }
    }

    fn check_aligned(addr: u64, size: u64) -> Result<(), MapError> {
        if !addr.is_multiple_of(PAGE_SIZE) || !size.is_multiple_of(PAGE_SIZE) || size == 0 {
            Err(MapError::Unaligned)
        } else {
            Ok(())
        }
    }

    /// `vm_allocate`: create an entry covering `[start, start+size)`.
    pub fn allocate(&self, start: u64, size: u64) -> Result<(), MapError> {
        self.allocate_internal(start, size, None)
    }

    /// Map a memory object into `[start, start+size)` — the entry holds
    /// a reference to the object, and every fault on the range becomes
    /// a *paging operation in progress* on it (section 8's hybrid
    /// count), acquired in the paper's map-before-object lock order.
    pub fn allocate_backed(
        &self,
        start: u64,
        size: u64,
        object: ObjRef<VmObject>,
    ) -> Result<(), MapError> {
        self.allocate_internal(start, size, Some(object))
    }

    fn allocate_internal(
        &self,
        start: u64,
        size: u64,
        object: Option<ObjRef<VmObject>>,
    ) -> Result<(), MapError> {
        Self::check_aligned(start, size)?;
        let end = start + size;
        self.lock.write_raw();
        let result = (|| {
            let entries = self.entries();
            // Overlap check against the predecessor and any successor
            // starting below `end`.
            if let Some((_, prev)) = entries.range(..=start).next_back() {
                if prev.end > start {
                    return Err(MapError::Overlap);
                }
            }
            if entries.range(start..end).next().is_some() {
                return Err(MapError::Overlap);
            }
            self.entries_mut()
                .insert(start, MapEntry::new_backed(start, end, object));
            Ok(())
        })();
        self.lock.done_raw();
        result
    }

    /// `vm_deallocate`: remove the entry starting at `start`, returning
    /// its pages to the pool.
    pub fn deallocate(&self, start: u64) -> Result<(), MapError> {
        self.lock.write_raw();
        let removed = self.entries_mut().remove(&start);
        self.lock.done_raw();
        match removed {
            Some(entry) => {
                // Frames freed outside the map lock.
                for page in entry.drain_pages() {
                    self.pool.free(page);
                }
                Ok(())
            }
            None => Err(MapError::NoEntry),
        }
    }

    /// `vm_protect`: change the protection of the entry covering
    /// `addr`.
    pub fn protect(&self, addr: u64, prot: VmProt) -> Result<(), MapError> {
        self.lock.write_raw();
        let entry = self.lookup_locked(addr);
        let result = match entry {
            Some(e) => {
                e.set_protection(prot);
                Ok(())
            }
            None => Err(MapError::NoEntry),
        };
        self.lock.done_raw();
        result
    }

    /// Crate-internal lookup for callers that already hold the map
    /// lock (the `vm_map_pageable` implementations).
    pub(crate) fn lookup_locked_public(&self, addr: u64) -> Option<Arc<MapEntry>> {
        self.lookup_locked(addr)
    }

    /// Find the entry covering `addr`. Caller holds the map lock.
    fn lookup_locked(&self, addr: u64) -> Option<Arc<MapEntry>> {
        self.entries()
            .range(..=addr)
            .next_back()
            .map(|(_, e)| Arc::clone(e))
            .filter(|e| e.contains(addr))
    }

    /// Look up the entry covering `addr` under a read hold.
    pub fn lookup(&self, addr: u64) -> Option<Arc<MapEntry>> {
        self.lock.read_raw();
        let e = self.lookup_locked(addr);
        self.lock.done_raw();
        e
    }

    /// All entries (cloned list, under a read hold) — for pageout scans
    /// and diagnostics.
    pub fn entries_snapshot(&self) -> Vec<Arc<MapEntry>> {
        self.lock.read_raw();
        let v: Vec<_> = self.entries().values().cloned().collect();
        self.lock.done_raw();
        v
    }

    /// Handle a page fault at `addr`.
    ///
    /// Takes a read hold for the lookup. On a memory shortage the fault
    /// "drops its lock to wait for memory" (releasing exactly the read
    /// hold *this call* acquired — under a recursive read hold the
    /// caller's base hold stays, which is the section-7.1 behaviour),
    /// then relocks and **revalidates** the lookup.
    ///
    /// `shortage_limit` bounds each wait for memory so that genuine
    /// deadlocks surface as [`MapError::ShortageTimeout`]; pass `None`
    /// for an unbounded (kernel-faithful) wait.
    pub fn fault(&self, addr: u64, shortage_limit: Option<Duration>) -> Result<PageId, MapError> {
        self.fault_access(addr, VmProt::Read, shortage_limit)
    }

    /// [`VmMap::fault`] with an explicit access kind: a fault for write
    /// on a read-only entry (or any access on a `VmProt::None` entry)
    /// fails with [`MapError::ProtectionViolation`], checked under the
    /// read hold like every other entry property.
    pub fn fault_access(
        &self,
        addr: u64,
        access: VmProt,
        shortage_limit: Option<Duration>,
    ) -> Result<PageId, MapError> {
        loop {
            self.lock.read_raw();
            let entry = match self.lookup_locked(addr) {
                Some(e) => e,
                None => {
                    self.lock.done_raw();
                    return Err(MapError::NoEntry);
                }
            };
            if !entry.protection().allows(access) || entry.protection() == VmProt::None {
                self.lock.done_raw();
                return Err(MapError::ProtectionViolation);
            }
            // Map-before-object (the section-5 ordering example): with
            // the map read hold in hand, register this fault as a paging
            // operation in progress on the backing object. A terminated
            // object refuses — the deactivation failure code.
            let paging = match PagingTicket::begin(&entry) {
                Ok(t) => t,
                Err(()) => {
                    self.lock.done_raw();
                    return Err(MapError::ObjectTerminated);
                }
            };
            let _paging = paging; // ends the paging operation when this
                                  // fault attempt completes, whatever path
            if let Some(p) = entry.resident_page(addr) {
                self.lock.done_raw();
                return Ok(p);
            }
            // Try to satisfy without blocking while we hold the lock.
            if let Some(page) = self.pool.try_alloc() {
                let r = match entry.install_page(addr, page) {
                    Ok(()) => {
                        self.lock.done_raw();
                        return Ok(page);
                    }
                    Err(returned) => returned,
                };
                // Raced with another fault: give the frame back.
                self.lock.done_raw();
                self.pool.free(r);
                // Re-run the lookup; the page is resident now.
                continue;
            }
            // Shortage: drop (this) read hold and wait for memory.
            self.lock.done_raw();
            let page = match shortage_limit {
                Some(limit) => self
                    .pool
                    .alloc_timeout(limit)
                    .ok_or(MapError::ShortageTimeout)?,
                None => self.pool.alloc(),
            };
            // Relock and revalidate everything — entry existence AND
            // protection may have changed while we waited (the
            // section-9 relock rules).
            self.lock.read_raw();
            let entry = self.lookup_locked(addr);
            let still_permitted = entry
                .as_ref()
                .map(|e| e.protection().allows(access) && e.protection() != VmProt::None);
            let outcome = match (&entry, still_permitted) {
                (Some(e), Some(true)) if e.resident_page(addr).is_none() => {
                    e.install_page(addr, page)
                }
                _ => Err(page),
            };
            self.lock.done_raw();
            match (entry, still_permitted, outcome) {
                (Some(_), Some(true), Ok(())) => return Ok(page),
                (Some(e), Some(true), Err(p)) => {
                    self.pool.free(p);
                    if let Some(existing) = e.resident_page(addr) {
                        return Ok(existing);
                    }
                    continue;
                }
                (Some(_), _, outcome) => {
                    if let Err(p) = outcome {
                        self.pool.free(p);
                    }
                    return Err(MapError::ProtectionViolation);
                }
                (None, _, outcome) => {
                    if let Err(p) = outcome {
                        self.pool.free(p);
                    }
                    return Err(MapError::NoEntry);
                }
            }
        }
    }

    /// `vm_protect` over an arbitrary page-aligned range, clipping
    /// entries at the boundaries the way Mach's `vm_map_clip_start` /
    /// `vm_map_clip_end` do. Fails without side effects if any page of
    /// the range is uncovered.
    pub fn protect_range(&self, start: u64, size: u64, prot: VmProt) -> Result<(), MapError> {
        Self::check_aligned(start, size)?;
        let end = start + size;
        self.lock.write_raw();
        let result = (|| {
            self.check_covered_locked(start, end)?;
            self.clip_locked(start);
            self.clip_locked(end);
            let targets: Vec<Arc<MapEntry>> = self
                .entries()
                .range(start..end)
                .map(|(_, e)| Arc::clone(e))
                .collect();
            for e in targets {
                e.set_protection(prot);
            }
            Ok(())
        })();
        self.lock.done_raw();
        result
    }

    /// `vm_deallocate` over an arbitrary page-aligned range, clipping
    /// boundary entries so partially covered entries survive outside
    /// the range. Fails without side effects on holes.
    pub fn deallocate_range(&self, start: u64, size: u64) -> Result<(), MapError> {
        Self::check_aligned(start, size)?;
        let end = start + size;
        self.lock.write_raw();
        let removed = (|| {
            self.check_covered_locked(start, end)?;
            self.clip_locked(start);
            self.clip_locked(end);
            let keys: Vec<u64> = self.entries().range(start..end).map(|(k, _)| *k).collect();
            let mut removed = Vec::with_capacity(keys.len());
            for k in keys {
                if let Some(e) = self.entries_mut().remove(&k) {
                    removed.push(e);
                }
            }
            Ok(removed)
        })();
        self.lock.done_raw();
        match removed {
            Ok(entries) => {
                for entry in entries {
                    for page in entry.drain_pages() {
                        self.pool.free(page);
                    }
                }
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    /// Whether `[start, end)` is fully covered by entries. Caller holds
    /// the map lock.
    fn check_covered_locked(&self, start: u64, end: u64) -> Result<(), MapError> {
        let mut cursor = start;
        while cursor < end {
            match self.lookup_locked(cursor) {
                Some(e) => cursor = e.end(),
                None => return Err(MapError::NoEntry),
            }
        }
        Ok(())
    }

    /// Split the entry containing `at` (if any) so that `at` becomes an
    /// entry boundary. Caller holds the map lock for write.
    fn clip_locked(&self, at: u64) {
        let Some(entry) = self.lookup_locked(at) else {
            return;
        };
        if entry.start() == at {
            return;
        }
        let (lo, hi) = entry.split_at(at);
        let entries = self.entries_mut();
        entries.remove(&entry.start());
        entries.insert(lo.start(), lo);
        entries.insert(hi.start(), hi);
    }

    /// Steal up to `max` resident pages from unwired entries, freeing
    /// them to the pool — the pageout daemon's reclaim step, which
    /// "requires a write lock on the ... map". Returns the number of
    /// frames reclaimed.
    pub fn reclaim(&self, max: usize) -> usize {
        self.lock.write_raw();
        let mut stolen: Vec<PageId> = Vec::new();
        for entry in self.entries().values() {
            if stolen.len() >= max {
                break;
            }
            stolen.extend(entry.steal_pages(max - stolen.len()));
        }
        self.lock.done_raw();
        let n = stolen.len();
        for p in stolen {
            self.pool.free(p);
        }
        n
    }

    /// Total resident pages across all entries (diagnostics; takes a
    /// read hold).
    pub fn resident_total(&self) -> usize {
        self.entries_snapshot()
            .iter()
            .map(|e| e.resident_count())
            .sum()
    }
}

/// Keeps a backing object's paging-in-progress count raised for the
/// duration of one fault attempt (RAII over the raw begin/end).
struct PagingTicket {
    object: Option<ObjRef<VmObject>>,
}

impl PagingTicket {
    fn begin(entry: &MapEntry) -> Result<PagingTicket, ()> {
        match entry.backing_object() {
            Some(obj) => match obj.paging_begin_raw() {
                Ok(()) => Ok(PagingTicket { object: Some(obj) }),
                Err(_) => Err(()),
            },
            None => Ok(PagingTicket { object: None }),
        }
    }
}

impl Drop for PagingTicket {
    fn drop(&mut self) {
        if let Some(obj) = &self.object {
            obj.paging_end_raw();
        }
    }
}

/// `vm_map_copy` (virtual copy): reserve `[dst_start, dst_start+size)`
/// in `dst` mirroring the entry structure of `[src_start, ..)` in
/// `src`. Pages are *not* copied — the new entries fault their own
/// pages on first touch, the copy-on-fault shape of Mach's virtual
/// copy (full COW object chains are out of scope).
///
/// Locks both maps for write **in address order** — the section-5
/// same-type convention, here applied to whole maps, so concurrent
/// copies in opposite directions cannot deadlock.
pub fn vm_map_copy(
    src: &VmMap,
    dst: &VmMap,
    src_start: u64,
    dst_start: u64,
    size: u64,
) -> Result<(), MapError> {
    VmMap::check_aligned(src_start, size)?;
    VmMap::check_aligned(dst_start, size)?;
    assert!(
        !core::ptr::eq(src, dst),
        "vm_map_copy within one map is not supported (clip + allocate instead)"
    );
    // Address-ordered double write lock.
    let (first, second) = if (src as *const VmMap as usize) < (dst as *const VmMap as usize) {
        (src, dst)
    } else {
        (dst, src)
    };
    first.lock.write_raw();
    second.lock.write_raw();
    let result = (|| {
        src.check_covered_locked(src_start, src_start + size)?;
        // Destination must be vacant.
        let dst_end = dst_start + size;
        if let Some((_, prev)) = dst.entries().range(..=dst_start).next_back() {
            if prev.end > dst_start {
                return Err(MapError::Overlap);
            }
        }
        if dst.entries().range(dst_start..dst_end).next().is_some() {
            return Err(MapError::Overlap);
        }
        // Mirror the source entry boundaries (clipped to the range).
        let pieces: Vec<(u64, u64, VmProt)> = {
            let mut out = Vec::new();
            let mut cursor = src_start;
            while cursor < src_start + size {
                let e = src.lookup_locked(cursor).expect("coverage checked");
                let end = e.end().min(src_start + size);
                out.push((cursor, end, e.protection()));
                cursor = end;
            }
            out
        };
        for (s, e, prot) in pieces {
            let entry = MapEntry::new(dst_start + (s - src_start), dst_start + (e - src_start));
            entry.set_protection(prot);
            dst.entries_mut().insert(entry.start(), entry);
        }
        Ok(())
    })();
    second.lock.done_raw();
    first.lock.done_raw();
    result
}

impl core::fmt::Debug for VmMap {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("VmMap")
            .field("entries", &self.entries_snapshot().len())
            .field("resident", &self.resident_total())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(pages: u32) -> (Arc<PagePool>, VmMap) {
        let pool = Arc::new(PagePool::new(pages));
        let map = VmMap::new(Arc::clone(&pool));
        (pool, map)
    }

    #[test]
    fn allocate_and_lookup() {
        let (_pool, map) = setup(8);
        map.allocate(0x1000, 2 * PAGE_SIZE).unwrap();
        assert!(map.lookup(0x1000).is_some());
        assert!(map.lookup(0x1000 + PAGE_SIZE).is_some());
        assert!(map.lookup(0x1000 + 2 * PAGE_SIZE).is_none());
        assert!(map.lookup(0).is_none());
    }

    #[test]
    fn allocate_rejects_overlap() {
        let (_pool, map) = setup(8);
        map.allocate(0x1000, 2 * PAGE_SIZE).unwrap();
        assert_eq!(map.allocate(0x1000, PAGE_SIZE), Err(MapError::Overlap));
        assert_eq!(
            map.allocate(0x1000 + PAGE_SIZE, PAGE_SIZE),
            Err(MapError::Overlap)
        );
        assert_eq!(map.allocate(0, 2 * PAGE_SIZE), Err(MapError::Overlap));
        map.allocate(0x1000 + 2 * PAGE_SIZE, PAGE_SIZE).unwrap();
    }

    #[test]
    fn allocate_rejects_unaligned() {
        let (_pool, map) = setup(8);
        assert_eq!(map.allocate(0x1001, PAGE_SIZE), Err(MapError::Unaligned));
        assert_eq!(map.allocate(0x1000, 100), Err(MapError::Unaligned));
        assert_eq!(map.allocate(0x1000, 0), Err(MapError::Unaligned));
    }

    #[test]
    fn fault_installs_and_caches() {
        let (pool, map) = setup(4);
        map.allocate(0, 2 * PAGE_SIZE).unwrap();
        let p1 = map.fault(0, None).unwrap();
        let p2 = map.fault(0, None).unwrap();
        assert_eq!(p1, p2, "second fault finds the resident page");
        let p3 = map.fault(PAGE_SIZE, None).unwrap();
        assert_ne!(p1, p3);
        assert_eq!(pool.free_count(), 2);
        assert_eq!(map.resident_total(), 2);
    }

    #[test]
    fn fault_outside_any_entry_fails() {
        let (_pool, map) = setup(4);
        assert_eq!(map.fault(0x9000, None), Err(MapError::NoEntry));
    }

    #[test]
    fn deallocate_returns_pages() {
        let (pool, map) = setup(4);
        map.allocate(0, 4 * PAGE_SIZE).unwrap();
        for i in 0..4 {
            map.fault(i * PAGE_SIZE, None).unwrap();
        }
        assert_eq!(pool.free_count(), 0);
        map.deallocate(0).unwrap();
        assert_eq!(pool.free_count(), 4);
        assert_eq!(map.deallocate(0), Err(MapError::NoEntry));
    }

    #[test]
    fn protect_changes_entry() {
        let (_pool, map) = setup(4);
        map.allocate(0, PAGE_SIZE).unwrap();
        let e = map.lookup(0).unwrap();
        assert_eq!(e.protection(), VmProt::ReadWrite);
        map.protect(0, VmProt::Read).unwrap();
        assert_eq!(e.protection(), VmProt::Read);
        assert_eq!(map.protect(0x9000, VmProt::None), Err(MapError::NoEntry));
    }

    #[test]
    fn reclaim_steals_only_unwired() {
        let (pool, map) = setup(4);
        map.allocate(0, 2 * PAGE_SIZE).unwrap();
        map.allocate(0x10000, 2 * PAGE_SIZE).unwrap();
        for addr in [0, PAGE_SIZE, 0x10000, 0x10000 + PAGE_SIZE] {
            map.fault(addr, None).unwrap();
        }
        // Wire the first entry.
        map.lookup(0).unwrap().set_wired(true);
        assert_eq!(pool.free_count(), 0);
        let n = map.reclaim(usize::MAX);
        assert_eq!(n, 2, "only the unwired entry's pages reclaimed");
        assert_eq!(pool.free_count(), 2);
        assert_eq!(map.lookup(0).unwrap().resident_count(), 2);
    }

    #[test]
    fn fault_shortage_timeout_reports() {
        let (_pool, map) = setup(1);
        map.allocate(0, 2 * PAGE_SIZE).unwrap();
        map.fault(0, None).unwrap();
        // Pool exhausted and nothing will free: bounded fault times out.
        assert_eq!(
            map.fault(PAGE_SIZE, Some(Duration::from_millis(20))),
            Err(MapError::ShortageTimeout)
        );
    }

    #[test]
    fn fault_waits_for_reclaim() {
        let (_pool, map) = setup(1);
        map.allocate(0, PAGE_SIZE).unwrap();
        map.allocate(0x10000, PAGE_SIZE).unwrap();
        map.fault(0, None).unwrap();
        std::thread::scope(|s| {
            let t = s.spawn(|| map.fault(0x10000, None));
            std::thread::sleep(Duration::from_millis(20));
            // Reclaim frees the frame; the blocked fault proceeds.
            assert_eq!(map.reclaim(1), 1);
            assert!(t.join().unwrap().is_ok());
        });
    }

    #[test]
    fn concurrent_faults_distinct_pages() {
        let (pool, map) = setup(64);
        map.allocate(0, 64 * PAGE_SIZE).unwrap();
        std::thread::scope(|s| {
            for t in 0..4 {
                let map = &map;
                s.spawn(move || {
                    for i in 0..16 {
                        let addr = ((t * 16 + i) as u64) * PAGE_SIZE;
                        map.fault(addr, None).unwrap();
                    }
                });
            }
        });
        assert_eq!(map.resident_total(), 64);
        assert_eq!(pool.free_count(), 0);
        // Every frame distinct: refault and collect.
        let mut seen = std::collections::HashSet::new();
        for i in 0..64u64 {
            assert!(seen.insert(map.fault(i * PAGE_SIZE, None).unwrap()));
        }
    }

    #[test]
    fn protect_range_clips_entries() {
        let (_pool, map) = setup(8);
        map.allocate(0, 4 * PAGE_SIZE).unwrap();
        // Protect the middle two pages: entry splits into three.
        map.protect_range(PAGE_SIZE, 2 * PAGE_SIZE, VmProt::Read)
            .unwrap();
        assert_eq!(map.entries_snapshot().len(), 3);
        assert_eq!(map.lookup(0).unwrap().protection(), VmProt::ReadWrite);
        assert_eq!(map.lookup(PAGE_SIZE).unwrap().protection(), VmProt::Read);
        assert_eq!(
            map.lookup(2 * PAGE_SIZE).unwrap().protection(),
            VmProt::Read
        );
        assert_eq!(
            map.lookup(3 * PAGE_SIZE).unwrap().protection(),
            VmProt::ReadWrite
        );
    }

    #[test]
    fn protect_range_with_hole_fails_cleanly() {
        let (_pool, map) = setup(8);
        map.allocate(0, PAGE_SIZE).unwrap();
        map.allocate(2 * PAGE_SIZE, PAGE_SIZE).unwrap();
        // The middle page is a hole.
        assert_eq!(
            map.protect_range(0, 3 * PAGE_SIZE, VmProt::Read),
            Err(MapError::NoEntry)
        );
        // No side effects.
        assert_eq!(map.lookup(0).unwrap().protection(), VmProt::ReadWrite);
        assert_eq!(map.entries_snapshot().len(), 2);
    }

    #[test]
    fn split_preserves_resident_pages() {
        let (pool, map) = setup(8);
        map.allocate(0, 4 * PAGE_SIZE).unwrap();
        let frames: Vec<_> = (0..4)
            .map(|i| map.fault(i * PAGE_SIZE, None).unwrap())
            .collect();
        map.protect_range(2 * PAGE_SIZE, 2 * PAGE_SIZE, VmProt::Read)
            .unwrap();
        // Faulting again must find the same frames, on both halves.
        for i in 0..4u64 {
            assert_eq!(map.fault(i * PAGE_SIZE, None).unwrap(), frames[i as usize]);
        }
        assert_eq!(pool.free_count(), 4);
        assert_eq!(map.resident_total(), 4);
    }

    #[test]
    fn deallocate_range_middle_keeps_ends() {
        let (pool, map) = setup(8);
        map.allocate(0, 4 * PAGE_SIZE).unwrap();
        for i in 0..4 {
            map.fault(i * PAGE_SIZE, None).unwrap();
        }
        map.deallocate_range(PAGE_SIZE, 2 * PAGE_SIZE).unwrap();
        assert!(map.lookup(0).is_some());
        assert!(map.lookup(PAGE_SIZE).is_none());
        assert!(map.lookup(2 * PAGE_SIZE).is_none());
        assert!(map.lookup(3 * PAGE_SIZE).is_some());
        assert_eq!(pool.free_count(), 6, "middle frames freed");
        assert_eq!(map.resident_total(), 2);
        // The survivors still hold their original frames.
        map.fault(0, None).unwrap();
        map.fault(3 * PAGE_SIZE, None).unwrap();
        assert_eq!(pool.free_count(), 6);
    }

    #[test]
    fn fault_respects_protection() {
        let (_pool, map) = setup(8);
        map.allocate(0, 2 * PAGE_SIZE).unwrap();
        // Clip: first page read-only, second page untouched.
        map.protect_range(0, PAGE_SIZE, VmProt::Read).unwrap();
        // Read fault allowed; write fault refused.
        map.fault_access(0, VmProt::Read, None).unwrap();
        assert_eq!(
            map.fault_access(0, VmProt::ReadWrite, None),
            Err(MapError::ProtectionViolation)
        );
        // VmProt::None refuses everything.
        map.protect_range(0, PAGE_SIZE, VmProt::None).unwrap();
        assert_eq!(
            map.fault_access(0, VmProt::Read, None),
            Err(MapError::ProtectionViolation)
        );
        // The second page (its own entry after the clip) is untouched.
        map.fault_access(PAGE_SIZE, VmProt::ReadWrite, None)
            .unwrap();
    }

    #[test]
    fn protection_change_during_shortage_wait_is_observed() {
        // The section-9 revalidation: a fault that sleeps for memory
        // re-checks protection after relocking.
        let (_pool, map) = setup(1);
        map.allocate(0, PAGE_SIZE).unwrap();
        map.allocate(0x10000, PAGE_SIZE).unwrap();
        map.fault(0, None).unwrap(); // exhaust the pool
        std::thread::scope(|s| {
            let map = &map;
            let t = s.spawn(move || map.fault_access(0x10000, VmProt::ReadWrite, None));
            std::thread::sleep(Duration::from_millis(20));
            // While the fault waits for memory, revoke the protection,
            // then free a frame by reclaiming.
            map.protect(0x10000, VmProt::Read).unwrap();
            assert_eq!(map.reclaim(1), 1);
            assert_eq!(
                t.join().unwrap(),
                Err(MapError::ProtectionViolation),
                "revalidation after the shortage wait must see the change"
            );
        });
    }

    #[test]
    fn backed_mapping_counts_paging_and_residence() {
        let (_pool, map) = setup(8);
        let obj = VmObject::create();
        map.allocate_backed(0, 2 * PAGE_SIZE, obj.clone()).unwrap();
        assert_eq!(ObjRef::ref_count(&obj), 2, "entry holds a reference");
        map.fault(0, None).unwrap();
        map.fault(PAGE_SIZE, None).unwrap();
        assert_eq!(obj.resident_pages(), 2, "object residence tracked");
        assert_eq!(obj.paging_in_progress(), 0, "paging ops ended");
        // Reclaim decrements the object's residence.
        assert_eq!(map.reclaim(1), 1);
        assert_eq!(obj.resident_pages(), 1);
        // Teardown releases the rest and the reference.
        map.deallocate(0).unwrap();
        assert_eq!(obj.resident_pages(), 0);
        assert_eq!(ObjRef::ref_count(&obj), 1);
        obj.terminate().unwrap();
    }

    #[test]
    fn fault_on_terminated_object_fails_cleanly() {
        let (_pool, map) = setup(4);
        let obj = VmObject::create();
        map.allocate_backed(0, PAGE_SIZE, obj.clone()).unwrap();
        obj.terminate().unwrap();
        assert_eq!(map.fault(0, None), Err(MapError::ObjectTerminated));
        // The structure is intact; deallocation still works.
        map.deallocate(0).unwrap();
    }

    #[test]
    fn fault_in_progress_delays_object_termination() {
        // The dual-count guarantee, driven through the map: a fault
        // waiting for memory holds paging-in-progress, so terminate()
        // blocks until the fault resolves.
        let (_pool, map) = setup(1);
        let obj = VmObject::create();
        map.allocate(0x900000, PAGE_SIZE).unwrap(); // eats the only frame
        map.fault(0x900000, None).unwrap();
        map.allocate_backed(0, PAGE_SIZE, obj.clone()).unwrap();
        let terminated = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            let map = &map;
            let fault = s.spawn(move || map.fault(0, Some(Duration::from_secs(10))));
            // Wait until the fault is visibly in progress on the object.
            while obj.paging_in_progress() == 0 {
                std::thread::yield_now();
            }
            let obj2 = obj.clone();
            let terminated = &terminated;
            let term = s.spawn(move || {
                obj2.terminate().unwrap();
                terminated.store(true, std::sync::atomic::Ordering::SeqCst);
            });
            std::thread::sleep(Duration::from_millis(30));
            assert!(
                !terminated.load(std::sync::atomic::Ordering::SeqCst),
                "termination must wait for the in-flight fault"
            );
            // Free a frame: the fault completes, paging drains, the
            // terminator proceeds.
            assert_eq!(map.reclaim(1), 1);
            fault.join().unwrap().unwrap();
            term.join().unwrap();
        });
        assert!(terminated.load(std::sync::atomic::Ordering::SeqCst));
    }

    #[test]
    fn split_backed_entry_shares_object() {
        let (_pool, map) = setup(8);
        let obj = VmObject::create();
        map.allocate_backed(0, 4 * PAGE_SIZE, obj.clone()).unwrap();
        map.protect_range(PAGE_SIZE, PAGE_SIZE, VmProt::Read)
            .unwrap();
        // Three entries now, all referencing the object.
        assert_eq!(ObjRef::ref_count(&obj), 4, "three entries + ours");
        for addr in [0, PAGE_SIZE, 2 * PAGE_SIZE] {
            let e = map.lookup(addr).unwrap();
            assert!(ObjRef::ptr_eq(&e.backing_object().unwrap(), &obj));
        }
        map.deallocate_range(0, 4 * PAGE_SIZE).unwrap();
        assert_eq!(ObjRef::ref_count(&obj), 1);
        obj.terminate().unwrap();
    }

    #[test]
    fn vm_map_copy_mirrors_structure() {
        let pool = Arc::new(PagePool::new(16));
        let src = VmMap::new(Arc::clone(&pool));
        let dst = VmMap::new(Arc::clone(&pool));
        src.allocate(0, 4 * PAGE_SIZE).unwrap();
        src.protect_range(PAGE_SIZE, PAGE_SIZE, VmProt::Read)
            .unwrap();
        src.fault(0, None).unwrap();
        vm_map_copy(&src, &dst, 0, 0x100000, 4 * PAGE_SIZE).unwrap();
        // Structure mirrored: three entries (clip at page 1 and 2),
        // protections carried, no pages copied.
        assert_eq!(dst.entries_snapshot().len(), 3);
        assert_eq!(
            dst.lookup(0x100000).unwrap().protection(),
            VmProt::ReadWrite
        );
        assert_eq!(
            dst.lookup(0x100000 + PAGE_SIZE).unwrap().protection(),
            VmProt::Read
        );
        assert_eq!(dst.resident_total(), 0, "copy-on-fault: no pages moved");
        // The copy faults its own pages.
        dst.fault(0x100000, None).unwrap();
        assert_eq!(dst.resident_total(), 1);
    }

    #[test]
    fn vm_map_copy_rejects_occupied_destination() {
        let pool = Arc::new(PagePool::new(8));
        let src = VmMap::new(Arc::clone(&pool));
        let dst = VmMap::new(Arc::clone(&pool));
        src.allocate(0, PAGE_SIZE).unwrap();
        dst.allocate(0x100000, PAGE_SIZE).unwrap();
        assert_eq!(
            vm_map_copy(&src, &dst, 0, 0x100000, PAGE_SIZE),
            Err(MapError::Overlap)
        );
        // Source hole:
        assert_eq!(
            vm_map_copy(&src, &dst, 0x900000, 0x200000, PAGE_SIZE),
            Err(MapError::NoEntry)
        );
    }

    #[test]
    fn opposing_copies_do_not_deadlock() {
        let pool = Arc::new(PagePool::new(8));
        let a = VmMap::new(Arc::clone(&pool));
        let b = VmMap::new(Arc::clone(&pool));
        a.allocate(0, PAGE_SIZE).unwrap();
        b.allocate(0, PAGE_SIZE).unwrap();
        std::thread::scope(|s| {
            let (a, b) = (&a, &b);
            s.spawn(move || {
                for i in 0..500u64 {
                    let at = 0x100000 + i * PAGE_SIZE;
                    vm_map_copy(a, b, 0, at, PAGE_SIZE).unwrap();
                }
            });
            s.spawn(move || {
                for i in 0..500u64 {
                    let at = 0x900000 + i * PAGE_SIZE;
                    vm_map_copy(b, a, 0, at, PAGE_SIZE).unwrap();
                }
            });
        });
        assert_eq!(a.entries_snapshot().len(), 501);
        assert_eq!(b.entries_snapshot().len(), 501);
    }

    #[test]
    fn deallocate_range_exact_entry() {
        let (pool, map) = setup(4);
        map.allocate(0, 2 * PAGE_SIZE).unwrap();
        map.fault(0, None).unwrap();
        map.deallocate_range(0, 2 * PAGE_SIZE).unwrap();
        assert!(map.lookup(0).is_none());
        assert_eq!(pool.free_count(), 4);
    }

    #[test]
    fn racing_faults_on_same_page_one_frame() {
        let (pool, map) = setup(8);
        map.allocate(0, PAGE_SIZE).unwrap();
        let results = SimpleLocked::new(Vec::new());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let map = &map;
                let results = &results;
                s.spawn(move || {
                    let p = map.fault(0, None).unwrap();
                    results.lock().push(p);
                });
            }
        });
        let results = results.lock();
        assert!(results.iter().all(|p| *p == results[0]), "one frame wins");
        assert_eq!(pool.free_count(), 7, "losing frames returned");
    }
}
