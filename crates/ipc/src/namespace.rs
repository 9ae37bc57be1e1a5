//! Per-task port name spaces.
//!
//! User code names ports by small integers; the kernel translates names
//! to port rights through a per-task table. Translation is one of the
//! section-8 reference-cloning cases: "executing code performs a name to
//! object translation. This effectively clones the object reference held
//! by the name translation data structures."
//!
//! ## Entry tables
//!
//! As in Mach 3.0's IPC space, the translation data structure is a
//! table of entries indexed by the name itself ([`NameTable`]):
//!
//! * A name is `((index << 8 | gen) << shard_bits) | shard`: the index
//!   of its entry, the entry's 8-bit generation and, in the low
//!   `shard_bits = ceil(log2 nshards)` bits, the shard whose table
//!   holds the entry (no bits for one shard). So a table holds at most
//!   `2^(24 - shard_bits)` entries (262 144 at 64 shards); inserting
//!   past that panics rather than mint a name twice.
//! * Translation and removal are a mask, a shift, a bounds check and a
//!   generation compare: no hash and no division.
//! * Vacant entries form an intrusive LIFO free list, like Mach's
//!   `ipc_entry` free list, so churn at a steady number of live names
//!   allocates nothing.
//! * Generations run over 1..=255, so name 0 (MACH_PORT_NULL) is never
//!   minted. Removing a name advances its entry's generation, so the
//!   dead name fails to translate until its slot has been reused 255
//!   times; the 255th reuse wraps the generation and mints the dead
//!   name again. Mach documents the same wrap.
//!
//! ## Sharding (beyond the paper)
//!
//! E2 reproduced the paper's §2 result: funneling independent work
//! through one lock costs orders of magnitude under contention. The
//! name table is exactly such a funnel — every translation in a busy
//! task serializes on one simple lock — so this table applies the
//! paper's own data-locking prescription to itself: the name space is
//! split across [`PortNameSpace::shards`] independently locked shards,
//! each an entry table.
//!
//! * A name's shard is its low bits, so translation and removal touch
//!   exactly one shard lock and no other shard's table.
//! * Allocation round-robins across shards, so fresh names scatter
//!   evenly.
//! * Each shard lock is *named* (`ipc.ns.shardNN`), so E16 lockstat
//!   attributes contention per shard rather than to one anonymous
//!   blob; the same names are registered lock classes for the
//!   machk-lint order graph.
//!
//! [`PortNameSpace::with_shards(1)`](PortNameSpace::with_shards) is the
//! single-lock layout — the E19 experiment benches the two against each
//! other.

use std::sync::atomic::{AtomicUsize, Ordering};

use machk_core::sync::CachePadded;
use machk_core::{ObjRef, SimpleLocked};

use crate::port::Port;

/// A task-local port name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PortName(pub u32);

/// Hard cap on shards per name space (the size of the static name
/// table below).
pub const MAX_SHARDS: usize = 64;

/// Default shard count for [`PortNameSpace::new`] — enough to spread
/// an 8-way translation storm with no shared line, cheap enough for
/// idle tasks.
pub const DEFAULT_SHARDS: usize = 8;

/// Width of the generation field of a name: an entry's generation is
/// a `u8`.
const GEN_BITS: u32 = u8::BITS;

/// Registered lock-class names, one per shard index, so lockstat and
/// the static order graph see `ipc.ns.shard00`…`ipc.ns.shard63` rather
/// than one anonymous class. (Shard locks are leaves: no other lock is
/// ever taken while one is held.)
static SHARD_LOCK_NAMES: [&str; MAX_SHARDS] = [
    "ipc.ns.shard00",
    "ipc.ns.shard01",
    "ipc.ns.shard02",
    "ipc.ns.shard03",
    "ipc.ns.shard04",
    "ipc.ns.shard05",
    "ipc.ns.shard06",
    "ipc.ns.shard07",
    "ipc.ns.shard08",
    "ipc.ns.shard09",
    "ipc.ns.shard10",
    "ipc.ns.shard11",
    "ipc.ns.shard12",
    "ipc.ns.shard13",
    "ipc.ns.shard14",
    "ipc.ns.shard15",
    "ipc.ns.shard16",
    "ipc.ns.shard17",
    "ipc.ns.shard18",
    "ipc.ns.shard19",
    "ipc.ns.shard20",
    "ipc.ns.shard21",
    "ipc.ns.shard22",
    "ipc.ns.shard23",
    "ipc.ns.shard24",
    "ipc.ns.shard25",
    "ipc.ns.shard26",
    "ipc.ns.shard27",
    "ipc.ns.shard28",
    "ipc.ns.shard29",
    "ipc.ns.shard30",
    "ipc.ns.shard31",
    "ipc.ns.shard32",
    "ipc.ns.shard33",
    "ipc.ns.shard34",
    "ipc.ns.shard35",
    "ipc.ns.shard36",
    "ipc.ns.shard37",
    "ipc.ns.shard38",
    "ipc.ns.shard39",
    "ipc.ns.shard40",
    "ipc.ns.shard41",
    "ipc.ns.shard42",
    "ipc.ns.shard43",
    "ipc.ns.shard44",
    "ipc.ns.shard45",
    "ipc.ns.shard46",
    "ipc.ns.shard47",
    "ipc.ns.shard48",
    "ipc.ns.shard49",
    "ipc.ns.shard50",
    "ipc.ns.shard51",
    "ipc.ns.shard52",
    "ipc.ns.shard53",
    "ipc.ns.shard54",
    "ipc.ns.shard55",
    "ipc.ns.shard56",
    "ipc.ns.shard57",
    "ipc.ns.shard58",
    "ipc.ns.shard59",
    "ipc.ns.shard60",
    "ipc.ns.shard61",
    "ipc.ns.shard62",
    "ipc.ns.shard63",
];

/// The end of a free list.
const NIL: u32 = u32::MAX;

/// One slot of a [`NameTable`].
struct Entry {
    /// The right the slot's live name holds; `None` while vacant.
    right: Option<ObjRef<Port>>,
    /// The generation of the slot's live name, or of the next name it
    /// mints while vacant: 1..=255.
    gen: u8,
    /// The next vacant slot while this one is vacant.
    next_free: u32,
}

const _: () = assert!(core::mem::size_of::<Entry>() == 16);

/// A table of port names: entries indexed by the name, each name
/// checked against its entry's generation (see the module docs).
///
/// The table takes no lock of its own. [`PortNameSpace`] keeps one per
/// shard under the shard's lock; `machk-kernel`'s single-lock task
/// keeps one under its task lock.
pub struct NameTable {
    entries: Vec<Entry>,
    /// Head of the free list, or `NIL`.
    free: u32,
    /// The shard field of every name this table mints, and its width.
    shard: u32,
    shard_bits: u32,
}

impl NameTable {
    /// An empty table whose names carry no shard field.
    pub fn new() -> NameTable {
        NameTable::for_shard(0, 0)
    }

    fn for_shard(shard: u32, shard_bits: u32) -> NameTable {
        NameTable {
            entries: Vec::new(),
            free: NIL,
            shard,
            shard_bits,
        }
    }

    /// A name's entry index and generation. The shard field is not
    /// checked: whoever routed the name here has done that.
    #[inline]
    fn decode(&self, name: PortName) -> (usize, u8) {
        let v = name.0 >> self.shard_bits;
        ((v >> GEN_BITS) as usize, v as u8)
    }

    /// Insert a right under a fresh name. The table now owns the
    /// reference.
    pub fn insert(&mut self, right: ObjRef<Port>) -> PortName {
        let (index, gen) = if self.free != NIL {
            let index = self.free;
            let e = &mut self.entries[index as usize];
            self.free = e.next_free;
            e.right = Some(right);
            (index, e.gen)
        } else {
            let index = self.entries.len() as u32;
            self.entries.push(Entry {
                right: Some(right),
                gen: 1,
                next_free: NIL,
            });
            // Past the index field's width the table is genuinely
            // exhausted: fail loudly rather than mint names that
            // collide with live ones. The right is in the table by
            // now, so unwinding does not release it under the
            // caller's lock; it leaves with the table.
            assert!(
                index < 1 << (u32::BITS - GEN_BITS - self.shard_bits),
                "port name space exhausted on this shard"
            );
            (index, 1)
        };
        PortName(((index << GEN_BITS | u32::from(gen)) << self.shard_bits) | self.shard)
    }

    /// The right a live name holds.
    #[inline]
    pub fn get(&self, name: PortName) -> Option<&ObjRef<Port>> {
        let (index, gen) = self.decode(name);
        let e = self.entries.get(index)?;
        if e.gen == gen {
            e.right.as_ref()
        } else {
            None
        }
    }

    /// Remove a live name, returning the right it held.
    pub fn remove(&mut self, name: PortName) -> Option<ObjRef<Port>> {
        let (index, gen) = self.decode(name);
        if self.entries.get(index)?.gen != gen {
            return None;
        }
        self.vacate(index)
    }

    /// Move every right into `out` (task termination).
    pub fn drain_into(&mut self, out: &mut Vec<ObjRef<Port>>) {
        for index in 0..self.entries.len() {
            out.extend(self.vacate(index));
        }
    }

    /// Number of live names (scans the table).
    pub(crate) fn len(&self) -> usize {
        self.entries.iter().filter(|e| e.right.is_some()).count()
    }

    /// Take the right out of a slot, advance its generation past the
    /// dead name (255 wraps to 1, never 0), and push it on the free
    /// list. `None` if the slot was vacant already.
    fn vacate(&mut self, index: usize) -> Option<ObjRef<Port>> {
        let e = &mut self.entries[index];
        let right = e.right.take()?;
        e.gen = if e.gen == u8::MAX { 1 } else { e.gen + 1 };
        e.next_free = self.free;
        self.free = index as u32;
        Some(right)
    }

    /// Append `n` vacant entries that are not on the free list, so a
    /// test can reach exhaustion without creating that many ports.
    #[cfg(test)]
    fn pad(&mut self, n: usize) {
        self.entries.extend((0..n).map(|_| Entry {
            right: None,
            gen: 1,
            next_free: NIL,
        }));
    }
}

impl Default for NameTable {
    fn default() -> Self {
        Self::new()
    }
}

/// One shard's lock and table, on a line of its own so neighbouring
/// shard locks do not share one.
type Shard = CachePadded<SimpleLocked<NameTable>>;

// Release layout without probes: lock 8 + table 40, padded.
#[cfg(not(debug_assertions))]
const _: () = assert!(machk_core::sync::probe::ENABLED || core::mem::size_of::<Shard>() == 64);

/// The name → right table of one task.
///
/// In Mach this table is what the task's second lock (the "ipc
/// translation" lock of section 5) protects, so that translations and
/// task operations proceed in parallel; `machk-kernel`'s task object
/// embeds one `PortNameSpace` per task for exactly that experiment (E8).
/// See the module docs for the sharded layout.
pub struct PortNameSpace {
    shards: Box<[Shard]>,
    /// Width of a name's shard field: ceil(log2 of the shard count).
    shard_bits: u32,
    /// Round-robin allocation cursor (advisory; any distribution is
    /// correct, even spreading is just better). Every insert writes it,
    /// so it sits on its own line, away from the `shards` pointer that
    /// every translation reads.
    cursor: CachePadded<AtomicUsize>,
    /// Modeled per-operation critical-section cost in virtual
    /// nanoseconds, charged to the `machk-sim` clock *while the shard
    /// lock is held*. Zero (the default, and always on a real OS host)
    /// adds nothing to the hot path; see
    /// [`PortNameSpace::with_shards_modeled`].
    cs_work_ns: u64,
}

impl PortNameSpace {
    /// An empty name space with [`DEFAULT_SHARDS`] shards.
    pub fn new() -> PortNameSpace {
        PortNameSpace::with_shards(DEFAULT_SHARDS)
    }

    /// An empty name space split across `nshards` (1 ..= [`MAX_SHARDS`])
    /// independently locked shards. One shard is the single-lock layout.
    pub fn with_shards(nshards: usize) -> PortNameSpace {
        PortNameSpace::with_shards_modeled(nshards, 0)
    }

    /// [`PortNameSpace::with_shards`] plus a modeled critical-section
    /// cost: every insert/translate/remove charges `cs_work_ns` virtual
    /// nanoseconds to the simulated host's clock *while holding the
    /// shard lock*. Under `machk-sim` this makes the table's serialized
    /// work visible to the virtual clock (the E19 sharded-vs-single
    /// comparison); on a real OS host the charge is a no-op.
    pub fn with_shards_modeled(nshards: usize, cs_work_ns: u64) -> PortNameSpace {
        assert!(
            (1..=MAX_SHARDS).contains(&nshards),
            "shard count must be in 1..={MAX_SHARDS}"
        );
        let shard_bits = nshards.next_power_of_two().trailing_zeros();
        PortNameSpace {
            shards: (0..nshards)
                .map(|i| {
                    CachePadded::new(SimpleLocked::named(
                        SHARD_LOCK_NAMES[i],
                        NameTable::for_shard(i as u32, shard_bits),
                    ))
                })
                .collect(),
            shard_bits,
            cursor: CachePadded::new(AtomicUsize::new(0)),
            cs_work_ns,
        }
    }

    /// Charge the modeled critical-section cost (caller holds a shard
    /// lock). Free when unmodeled: no host lookup at all.
    #[inline]
    fn charge_cs(&self) {
        if self.cs_work_ns > 0 {
            machk_core::sync::host::advance(self.cs_work_ns);
        }
    }

    /// Number of shards in this space.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard a name's shard field selects; `None` past the last.
    #[inline]
    fn shard_of(&self, name: PortName) -> Option<&Shard> {
        self.shards
            .get(name.0 as usize & ((1 << self.shard_bits) - 1))
    }

    /// Insert a right, allocating a fresh name. The table now owns the
    /// reference.
    pub fn insert(&self, right: ObjRef<Port>) -> PortName {
        // relaxed: the cursor only balances allocation across shards;
        // any interleaving of increments yields correct (unique) names.
        let i = self.cursor.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        let mut t = self.shards[i].lock();
        self.charge_cs();
        t.insert(right)
    }

    /// Translate a name to a port right.
    ///
    /// The returned right is a *cloned* reference; the table keeps its
    /// own. Returns `None` for names not in the space (including
    /// removed ones). Touches at most one shard lock.
    pub fn translate(&self, name: PortName) -> Option<ObjRef<Port>> {
        let t = self.shard_of(name)?.lock();
        self.charge_cs();
        t.get(name).cloned()
    }

    /// Remove a name, returning the right it held so the caller can
    /// release it outside the table lock.
    pub fn remove(&self, name: PortName) -> Option<ObjRef<Port>> {
        let mut t = self.shard_of(name)?.lock();
        self.charge_cs();
        t.remove(name)
    }

    /// Number of live names (diagnostics; locks shards one at a time,
    /// so the sum is a snapshot only if writers are quiesced).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Whether the space is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Remove every right, returning them for release outside the lock
    /// (used by task termination). Shards are drained one at a time —
    /// no two shard locks are ever held together.
    pub fn drain(&self) -> Vec<ObjRef<Port>> {
        let mut rights = Vec::new();
        for s in self.shards.iter() {
            s.lock().drain_into(&mut rights);
        }
        rights
    }
}

impl Default for PortNameSpace {
    fn default() -> Self {
        Self::new()
    }
}

impl core::fmt::Debug for PortNameSpace {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("PortNameSpace")
            .field("names", &self.len())
            .field("shards", &self.shards.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The index field of a name minted by a space of `nshards` shards.
    fn index_of(name: PortName, nshards: usize) -> u32 {
        name.0 >> (GEN_BITS + nshards.next_power_of_two().trailing_zeros())
    }

    #[test]
    fn insert_allocates_distinct_names() {
        let ns = PortNameSpace::new();
        let a = ns.insert(Port::create());
        let b = ns.insert(Port::create());
        assert_ne!(a, b);
        assert_eq!(ns.len(), 2);
    }

    #[test]
    fn names_unique_across_every_shard_count() {
        for nshards in [1, 2, 3, 8, 64] {
            let ns = PortNameSpace::with_shards(nshards);
            let mut seen = std::collections::HashSet::new();
            for _ in 0..200 {
                let name = ns.insert(Port::create());
                assert!(seen.insert(name), "duplicate name at {nshards} shards");
            }
            for name in &seen {
                assert!(ns.translate(*name).is_some());
            }
        }
    }

    #[test]
    fn null_name_is_never_minted() {
        // 256 reuses of every shard's first slot run its generation
        // through the wrap at least once.
        let port = Port::create();
        for nshards in [1, 2, 3, 8, 64] {
            let ns = PortNameSpace::with_shards(nshards);
            for _ in 0..256 * nshards {
                let name = ns.insert(port.clone());
                assert_ne!(name.0, 0, "MACH_PORT_NULL minted at {nshards} shards");
                assert_eq!(index_of(name, nshards), 0, "the freed slot is reused");
                drop(ns.remove(name));
            }
            assert!(ns.translate(PortName(0)).is_none());
        }
        assert_eq!(ObjRef::ref_count(&port), 1);
    }

    #[test]
    fn dead_name_stays_dead_until_its_generation_wraps() {
        let mut table = NameTable::new();
        let port = Port::create();
        let dead = table.insert(port.clone());
        drop(table.remove(dead));
        for reuse in 1..=254 {
            let name = table.insert(port.clone());
            assert_eq!(index_of(name, 1), index_of(dead, 1), "same slot");
            assert_ne!(name, dead, "reuse {reuse}");
            assert!(table.get(dead).is_none(), "dead name live at reuse {reuse}");
            drop(table.remove(name));
        }
        // The 255th reuse comes back to the dead name's generation.
        let alias = table.insert(port.clone());
        assert_eq!(alias, dead);
        assert!(table.get(dead).is_some());
        drop(table.remove(alias));
    }

    #[test]
    fn names_outside_the_table_fail() {
        let ns = PortNameSpace::with_shards(3);
        let name = ns.insert(Port::create());
        assert_eq!(name.0 & 3, 0, "the first name is shard 0's");
        // Two shard bits: field 3 names no shard.
        let no_shard = PortName(name.0 | 3);
        assert!(ns.translate(no_shard).is_none());
        assert!(ns.remove(no_shard).is_none());
        // Index 1 of shard 0, which holds one entry.
        let past_end = PortName(name.0 + (1 << (GEN_BITS + 2)));
        assert!(ns.translate(past_end).is_none());
        assert!(ns.remove(past_end).is_none());
        // Same index, wrong generation.
        let stale = PortName(name.0 + (1 << 2));
        assert!(ns.translate(stale).is_none());
        assert!(ns.remove(stale).is_none());
        assert!(ns.translate(name).is_some(), "the live name is untouched");
    }

    #[test]
    #[should_panic(expected = "name space exhausted")]
    fn name_exhaustion_panics_instead_of_wrapping() {
        // 64 shards leave 32 - 8 - 6 = 18 index bits; the cursor's first
        // insert goes to shard 0.
        let ns = PortNameSpace::with_shards(64);
        ns.shards[0].lock().pad(1 << 18);
        let _ = ns.insert(Port::create());
    }

    #[test]
    fn translate_clones_reference() {
        let ns = PortNameSpace::new();
        let port = Port::create();
        let name = ns.insert(port.clone());
        assert_eq!(ObjRef::ref_count(&port), 2, "table holds one");
        let right = ns.translate(name).expect("name resolves");
        assert_eq!(ObjRef::ref_count(&port), 3, "translation cloned");
        assert!(ObjRef::ptr_eq(&right, &port));
        drop(right);
        assert_eq!(ObjRef::ref_count(&port), 2);
    }

    #[test]
    fn translate_unknown_name_fails() {
        let ns = PortNameSpace::new();
        assert!(ns.translate(PortName(42)).is_none());
        assert!(ns.translate(PortName(0)).is_none(), "null name");
    }

    #[test]
    fn remove_returns_the_tables_reference() {
        let ns = PortNameSpace::new();
        let port = Port::create();
        let name = ns.insert(port.clone());
        let right = ns.remove(name).unwrap();
        assert_eq!(ObjRef::ref_count(&port), 2);
        drop(right);
        assert_eq!(ObjRef::ref_count(&port), 1);
        assert!(ns.translate(name).is_none(), "name gone after removal");
        assert!(ns.remove(name).is_none(), "double remove");
    }

    #[test]
    fn drain_empties_and_returns_rights() {
        let ns = PortNameSpace::new();
        let ports: Vec<_> = (0..4).map(|_| Port::create()).collect();
        for p in &ports {
            ns.insert(p.clone());
        }
        let rights = ns.drain();
        assert_eq!(rights.len(), 4);
        assert!(ns.is_empty());
        drop(rights);
        for p in &ports {
            assert_eq!(ObjRef::ref_count(p), 1);
        }
    }

    #[test]
    fn reinsert_after_drain_reuses_slots_under_new_generations() {
        let ns = PortNameSpace::with_shards(2);
        let port = Port::create();
        let old: Vec<_> = (0..6).map(|_| ns.insert(port.clone())).collect();
        drop(ns.drain());
        let new: Vec<_> = (0..6).map(|_| ns.insert(port.clone())).collect();
        for s in ns.shards.iter() {
            assert_eq!(s.lock().entries.len(), 3, "no slot added");
        }
        let index_set = |names: &[PortName]| {
            let mut v: Vec<_> = names.iter().map(|&n| (n.0 & 1, index_of(n, 2))).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(index_set(&new), index_set(&old), "the same slots");
        for name in &old {
            assert!(!new.contains(name), "a drained name was minted again");
            assert!(ns.translate(*name).is_none(), "drained name resolves");
        }
        assert_eq!(ns.len(), 6);
    }

    #[test]
    fn concurrent_translation_storm() {
        let ns = PortNameSpace::new();
        let port = Port::create();
        let name = ns.insert(port.clone());
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..2_000 {
                        let r = ns.translate(name).unwrap();
                        drop(r);
                    }
                });
            }
        });
        assert_eq!(ObjRef::ref_count(&port), 2, "all translations released");
    }

    #[test]
    fn removed_names_stay_dead_under_a_two_thread_storm() {
        // 2 x 1000 inserts over 8 shards: 250 per shard, so no slot is
        // reused 255 times and no dead name can legitimately come back.
        let ns = PortNameSpace::with_shards(8);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let port = Port::create();
                    let mut dead = Vec::with_capacity(1_000);
                    for _ in 0..1_000 {
                        let name = ns.insert(port.clone());
                        let right = ns.translate(name).expect("fresh name resolves");
                        assert!(ObjRef::ptr_eq(&right, &port), "someone else's port");
                        drop(right);
                        drop(ns.remove(name).expect("our name is ours to remove"));
                        assert!(ns.translate(name).is_none(), "dead name resolved");
                        dead.push(name);
                    }
                    for name in &dead {
                        assert!(ns.translate(*name).is_none(), "dead name came back");
                    }
                    assert_eq!(ObjRef::ref_count(&port), 1);
                });
            }
        });
        assert!(ns.is_empty());
    }
}
