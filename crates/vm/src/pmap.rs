//! Physical maps and physical-to-virtual lists.
//!
//! The section-5 worked example of conflicting lock orders:
//!
//! > These modules manage two classes of data structures, the physical
//! > maps (pmaps), and physical to virtual lists (pv lists). ... Both
//! > data structures have locks, and the pmap modules contain routines
//! > that need to acquire these locks in both orders (pmap then pv
//! > list, and pv list then pmap). To resolve this conflict, a third
//! > lock (the pmap system lock) is used to arbitrate between the
//! > orders in which these locks may be acquired. In some systems this
//! > is a readers/writers lock, so that any procedure with a write lock
//! > on this lock can assume exclusive access to the pv lists. ... A
//! > final alternative is to use a backout protocol when acquiring two
//! > locks in the reverse of the usual order; a single attempt is made
//! > for the second lock, with failure causing the first one to be
//! > released and reacquired later.
//!
//! Both disciplines are implemented ([`OrderingDiscipline`]) and raced
//! against each other by experiment E9:
//!
//! * `pmap_enter` (make a mapping) needs **pmap → pv**;
//! * `pmap_page_protect` (revoke a physical page everywhere) needs
//!   **pv → pmap**.

use std::collections::HashMap;

use machk_core::sync::{SpinSite, Spinner};
use machk_core::{ComplexLock, RawSimpleLock, SimpleLocked};

use crate::page::PageId;

/// A physical page number in the pv system (alias of [`PageId`]).
pub type PhysPage = PageId;

/// Which deadlock-avoidance discipline the pv-side routines use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderingDiscipline {
    /// The pmap **system lock**: `pmap_enter` holds it for read;
    /// `pmap_page_protect` holds it for write, which by exclusion
    /// guarantees no enter is mid-flight — so the reverse acquisition
    /// order is safe.
    SystemLock,
    /// The **backout protocol**: `pmap_page_protect` takes the pv lock,
    /// then makes a single attempt (`simple_lock_try`) on each pmap
    /// lock, dropping the pv lock and retrying when the attempt fails.
    Backout,
}

impl OrderingDiscipline {
    /// Both disciplines (for experiment sweeps).
    pub const ALL: [OrderingDiscipline; 2] =
        [OrderingDiscipline::SystemLock, OrderingDiscipline::Backout];

    /// Short name for experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            OrderingDiscipline::SystemLock => "system-lock",
            OrderingDiscipline::Backout => "backout",
        }
    }
}

/// A physical map: the per-task machine-dependent page table.
pub struct Pmap {
    id: usize,
    lock: RawSimpleLock,
    /// va → pa, valid only under `lock`.
    mappings: SimpleLocked<HashMap<u64, PhysPage>>,
}

impl Pmap {
    fn new(id: usize) -> Pmap {
        Pmap {
            id,
            lock: RawSimpleLock::new(),
            mappings: SimpleLocked::new(HashMap::new()),
        }
    }

    /// This pmap's index in its [`PvSystem`].
    pub fn id(&self) -> usize {
        self.id
    }

    /// The pmap lock (exposed for the TLB-shootdown special logic).
    pub fn lock_ref(&self) -> &RawSimpleLock {
        &self.lock
    }

    /// Current mapping of `va`, if any (takes the pmap lock).
    pub fn translate(&self, va: u64) -> Option<PhysPage> {
        self.lock.lock_raw();
        let r = self.mappings.lock().get(&va).copied();
        self.lock.unlock_raw();
        r
    }
}

struct PvEntry {
    lock: RawSimpleLock,
    /// (pmap id, va) pairs mapping this physical page; valid under
    /// `lock`.
    mappers: SimpleLocked<Vec<(usize, u64)>>,
}

/// The pv system: all pmaps, all pv lists, and the arbitration lock.
pub struct PvSystem {
    pmaps: Vec<Pmap>,
    pv: Vec<PvEntry>,
    /// The pmap system lock — a readers/writers (complex) lock with the
    /// Sleep option off: it is taken inside spinning interrupt-level
    /// code in real pmap modules.
    system_lock: ComplexLock,
    discipline: OrderingDiscipline,
}

impl PvSystem {
    /// A system with `npmaps` physical maps and `npages` physical
    /// pages, using `discipline` for the reverse-order routines.
    pub fn new(npmaps: usize, npages: usize, discipline: OrderingDiscipline) -> PvSystem {
        PvSystem {
            pmaps: (0..npmaps).map(Pmap::new).collect(),
            pv: (0..npages)
                .map(|_| PvEntry {
                    lock: RawSimpleLock::new(),
                    mappers: SimpleLocked::new(Vec::new()),
                })
                .collect(),
            system_lock: ComplexLock::named("pv_system.lock", false),
            discipline,
        }
    }

    /// Pmap `i`.
    pub fn pmap(&self, i: usize) -> &Pmap {
        &self.pmaps[i]
    }

    /// The discipline in use.
    pub fn discipline(&self) -> OrderingDiscipline {
        self.discipline
    }

    /// Mappers of physical page `pa` (diagnostics; takes the pv lock).
    pub fn mappers_of(&self, pa: PhysPage) -> Vec<(usize, u64)> {
        let e = &self.pv[pa.0 as usize];
        e.lock.lock_raw();
        let v = e.mappers.lock().clone();
        e.lock.unlock_raw();
        v
    }

    /// `pmap_enter`: establish `va → pa` in pmap `pmap_id`.
    ///
    /// Forward lock order: **pmap, then pv list**. Under the SystemLock
    /// discipline this runs with a read hold on the system lock.
    pub fn pmap_enter(&self, pmap_id: usize, va: u64, pa: PhysPage) {
        let need_system = self.discipline == OrderingDiscipline::SystemLock;
        if need_system {
            self.system_lock.read_raw();
        }
        let pmap = &self.pmaps[pmap_id];
        let pv = &self.pv[pa.0 as usize];

        pmap.lock.lock_raw();
        // Replace any existing mapping for this va first.
        let old = pmap.mappings.lock().insert(va, pa);
        pv.lock.lock_raw();
        {
            let mut mappers = pv.mappers.lock();
            if !mappers.contains(&(pmap_id, va)) {
                mappers.push((pmap_id, va));
            }
        }
        pv.lock.unlock_raw();
        pmap.lock.unlock_raw();

        // If we displaced a mapping to a different physical page, fix
        // that page's pv list too (fresh forward-order acquisition).
        if let Some(old_pa) = old {
            if old_pa != pa {
                let old_pv = &self.pv[old_pa.0 as usize];
                pmap.lock.lock_raw();
                old_pv.lock.lock_raw();
                old_pv.mappers.lock().retain(|m| *m != (pmap_id, va));
                old_pv.lock.unlock_raw();
                pmap.lock.unlock_raw();
            }
        }
        if need_system {
            self.system_lock.done_raw();
        }
    }

    /// `pmap_remove`: remove `va` from pmap `pmap_id` (forward order).
    pub fn pmap_remove(&self, pmap_id: usize, va: u64) {
        let need_system = self.discipline == OrderingDiscipline::SystemLock;
        if need_system {
            self.system_lock.read_raw();
        }
        let pmap = &self.pmaps[pmap_id];
        pmap.lock.lock_raw();
        if let Some(pa) = pmap.mappings.lock().remove(&va) {
            let pv = &self.pv[pa.0 as usize];
            pv.lock.lock_raw();
            pv.mappers.lock().retain(|m| *m != (pmap_id, va));
            pv.lock.unlock_raw();
        }
        pmap.lock.unlock_raw();
        if need_system {
            self.system_lock.done_raw();
        }
    }

    /// `pmap_page_protect`: revoke every mapping of physical page `pa`.
    ///
    /// Needs the **reverse** order — pv list first, then each mapper's
    /// pmap lock — and therefore uses the configured discipline.
    /// Returns the number of mappings revoked.
    pub fn pmap_page_protect(&self, pa: PhysPage) -> usize {
        match self.discipline {
            OrderingDiscipline::SystemLock => self.page_protect_system_lock(pa),
            OrderingDiscipline::Backout => self.page_protect_backout(pa),
        }
    }

    /// With a write hold on the system lock no `pmap_enter` can be in
    /// flight, so taking pmap locks after the pv lock cannot deadlock.
    fn page_protect_system_lock(&self, pa: PhysPage) -> usize {
        self.system_lock.write_raw();
        let pv = &self.pv[pa.0 as usize];
        pv.lock.lock_raw();
        let mappers: Vec<(usize, u64)> = core::mem::take(&mut *pv.mappers.lock());
        let count = mappers.len();
        for (pmap_id, va) in mappers {
            let pmap = &self.pmaps[pmap_id];
            // Reverse order — safe by exclusion.
            pmap.lock.lock_raw();
            {
                let mut m = pmap.mappings.lock();
                // Only revoke if the va still maps to *this* page.
                if m.get(&va) == Some(&pa) {
                    m.remove(&va);
                }
            }
            pmap.lock.unlock_raw();
        }
        pv.lock.unlock_raw();
        self.system_lock.done_raw();
        count
    }

    /// Backout protocol: "a single attempt is made for the second
    /// lock, with failure causing the first one to be released and
    /// reacquired later."
    fn page_protect_backout(&self, pa: PhysPage) -> usize {
        let pv = &self.pv[pa.0 as usize];
        let mut revoked = 0usize;
        let mut spinner = Spinner::new(SpinSite::Generic);
        'restart: loop {
            pv.lock.lock_raw();
            let mappers: Vec<(usize, u64)> = pv.mappers.lock().clone();
            if mappers.is_empty() {
                pv.lock.unlock_raw();
                return revoked;
            }
            for (pmap_id, va) in mappers {
                let pmap = &self.pmaps[pmap_id];
                if !pmap.lock.try_lock_raw() {
                    // Backout: drop the pv lock, let the forward-order
                    // holder finish, retry from scratch.
                    pv.lock.unlock_raw();
                    spinner.relax();
                    continue 'restart;
                }
                {
                    let mut m = pmap.mappings.lock();
                    // The va may have been remapped to another page
                    // while we did not hold this pmap's lock; only
                    // revoke a mapping that still points at our page.
                    if m.get(&va) == Some(&pa) {
                        m.remove(&va);
                        revoked += 1;
                    }
                }
                pmap.lock.unlock_raw();
                pv.mappers.lock().retain(|m| *m != (pmap_id, va));
            }
            pv.lock.unlock_raw();
            return revoked;
        }
    }
}

impl core::fmt::Debug for PvSystem {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("PvSystem")
            .field("pmaps", &self.pmaps.len())
            .field("pages", &self.pv.len())
            .field("discipline", &self.discipline)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn enter_translate_remove() {
        for d in OrderingDiscipline::ALL {
            let sys = PvSystem::new(2, 8, d);
            sys.pmap_enter(0, 0x1000, PageId(3));
            assert_eq!(sys.pmap(0).translate(0x1000), Some(PageId(3)));
            assert_eq!(sys.mappers_of(PageId(3)), vec![(0, 0x1000)]);
            sys.pmap_remove(0, 0x1000);
            assert_eq!(sys.pmap(0).translate(0x1000), None);
            assert!(sys.mappers_of(PageId(3)).is_empty());
        }
    }

    #[test]
    fn remap_updates_old_pv_list() {
        for d in OrderingDiscipline::ALL {
            let sys = PvSystem::new(1, 8, d);
            sys.pmap_enter(0, 0x1000, PageId(3));
            sys.pmap_enter(0, 0x1000, PageId(5));
            assert_eq!(sys.pmap(0).translate(0x1000), Some(PageId(5)));
            assert!(sys.mappers_of(PageId(3)).is_empty(), "old pv entry cleaned");
            assert_eq!(sys.mappers_of(PageId(5)), vec![(0, 0x1000)]);
        }
    }

    #[test]
    fn page_protect_revokes_everywhere() {
        for d in OrderingDiscipline::ALL {
            let sys = PvSystem::new(3, 8, d);
            for pm in 0..3 {
                sys.pmap_enter(pm, 0x2000 + pm as u64 * 0x1000, PageId(4));
            }
            assert_eq!(sys.mappers_of(PageId(4)).len(), 3);
            assert_eq!(sys.pmap_page_protect(PageId(4)), 3);
            for pm in 0..3 {
                assert_eq!(sys.pmap(pm).translate(0x2000 + pm as u64 * 0x1000), None);
            }
            assert!(sys.mappers_of(PageId(4)).is_empty());
        }
    }

    #[test]
    fn concurrent_enters_and_protects_no_deadlock() {
        // The E9 storm in miniature: both orders racing, both
        // disciplines must complete and end consistent.
        for d in OrderingDiscipline::ALL {
            let sys = PvSystem::new(4, 16, d);
            let protects = AtomicUsize::new(0);
            std::thread::scope(|s| {
                for pm in 0..4 {
                    let sys = &sys;
                    s.spawn(move || {
                        for i in 0..500u64 {
                            let va = 0x1000 * (i % 8);
                            let pa = PageId((i % 16) as u32);
                            sys.pmap_enter(pm, va, pa);
                        }
                    });
                }
                for _ in 0..2 {
                    let sys = &sys;
                    let protects = &protects;
                    s.spawn(move || {
                        for i in 0..500u32 {
                            protects.fetch_add(
                                sys.pmap_page_protect(PageId(i % 16)),
                                Ordering::Relaxed,
                            );
                        }
                    });
                }
            });
            // Consistency: every remaining pv mapper is present in its
            // pmap, and vice versa.
            for pa in 0..16u32 {
                for (pm, va) in sys.mappers_of(PageId(pa)) {
                    assert_eq!(
                        sys.pmap(pm).translate(va),
                        Some(PageId(pa)),
                        "pv list and pmap agree ({})",
                        d.name()
                    );
                }
            }
        }
    }
}
