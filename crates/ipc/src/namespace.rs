//! Per-task port name spaces.
//!
//! User code names ports by small integers; the kernel translates names
//! to port rights through a per-task table. Translation is one of the
//! section-8 reference-cloning cases: "executing code performs a name to
//! object translation. This effectively clones the object reference held
//! by the name translation data structures."
//!
//! ## Sharding (beyond the paper)
//!
//! E2 reproduced the paper's §2 result: funneling independent work
//! through one lock costs orders of magnitude under contention. The
//! name table is exactly such a funnel — every translation in a busy
//! task serializes on one simple lock — so this table applies the
//! paper's own data-locking prescription to itself: the name space is
//! hashed across [`PortNameSpace::shards`] independently locked shards.
//!
//! * A name's shard is `name % nshards`, so translation and removal
//!   touch exactly one shard lock.
//! * Allocation round-robins across shards and hands out names of the
//!   form `counter * nshards + shard`, so fresh names scatter evenly
//!   and a name is self-describing (no cross-shard lookup to find it).
//! * Each shard lock is *named* (`ipc.ns.shardNN`), so E16 lockstat
//!   attributes contention per shard rather than to one anonymous
//!   blob; the same names are registered lock classes for the
//!   machk-lint order graph.
//! * Within a shard, names are hashed by one multiply whose high half
//!   is folded into the low bits (`NameHasher`). The kernel allocates
//!   every name, so a keyed hash's flooding resistance buys nothing,
//!   and the fold matters because a shard's names share their low
//!   log2(nshards) bits while the map picks buckets by the low bits.
//!
//! [`PortNameSpace::with_shards(1)`](PortNameSpace::with_shards) is the
//! single-lock layout — the E19 experiment benches the two against each
//! other.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
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

/// The hash of a [`PortName`]: the name times a 64-bit odd constant
/// (the golden ratio), high half folded into the low half. See the
/// module docs for why a multiply is enough and why it must fold.
#[derive(Default)]
struct NameHasher(u64);

impl Hasher for NameHasher {
    fn write_u32(&mut self, name: u32) {
        self.0 = u64::from(name);
    }

    /// Byte input, never produced by [`PortName`]: folded in a byte at
    /// a time so the hasher stays total.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn finish(&self) -> u64 {
        let h = self.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^ (h >> 32)
    }
}

struct Table {
    map: HashMap<PortName, ObjRef<Port>, BuildHasherDefault<NameHasher>>,
    /// Per-shard allocation counter; shard `i` of `n` hands out names
    /// `counter * n + i` (counter ≥ 1, so name 0 — MACH_PORT_NULL —
    /// is never allocated).
    next: u32,
}

/// One shard's lock and table, on a line of its own so neighbouring
/// shard locks do not share one.
type Shard = CachePadded<SimpleLocked<Table>>;

// Release layout without probes: lock 8 + map 32 + counter 4, padded.
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

    /// An empty name space hashed across `nshards` (1 ..= [`MAX_SHARDS`])
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
        PortNameSpace {
            shards: (0..nshards)
                .map(|i| {
                    CachePadded::new(SimpleLocked::named(
                        SHARD_LOCK_NAMES[i],
                        Table {
                            map: HashMap::default(),
                            next: 1,
                        },
                    ))
                })
                .collect(),
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

    /// The shard a name lives in.
    fn shard_of(&self, name: PortName) -> &Shard {
        &self.shards[name.0 as usize % self.shards.len()]
    }

    /// Insert a right, allocating a fresh name. The table now owns the
    /// reference.
    pub fn insert(&self, right: ObjRef<Port>) -> PortName {
        let n = self.shards.len();
        // relaxed: the cursor only balances allocation across shards;
        // any interleaving of increments yields correct (unique) names.
        let i = self.cursor.fetch_add(1, Ordering::Relaxed) % n;
        let mut t = self.shards[i].lock();
        self.charge_cs();
        // Checked: after ~2^32/n allocations on one shard the name
        // space is genuinely exhausted — fail loudly rather than wrap
        // in release and mint duplicate names over live rights.
        let name = PortName(
            t.next
                .checked_mul(n as u32)
                .and_then(|v| v.checked_add(i as u32))
                .expect("port name space exhausted on this shard"),
        );
        t.next = t
            .next
            .checked_add(1)
            .expect("port name space exhausted on this shard");
        t.map.insert(name, right);
        name
    }

    /// Translate a name to a port right.
    ///
    /// The returned right is a *cloned* reference; the table keeps its
    /// own. Returns `None` for names not in the space (including
    /// removed ones). Touches exactly one shard lock.
    pub fn translate(&self, name: PortName) -> Option<ObjRef<Port>> {
        let t = self.shard_of(name).lock();
        self.charge_cs();
        t.map.get(&name).cloned()
    }

    /// Remove a name, returning the right it held so the caller can
    /// release it outside the table lock.
    pub fn remove(&self, name: PortName) -> Option<ObjRef<Port>> {
        let mut t = self.shard_of(name).lock();
        self.charge_cs();
        t.map.remove(&name)
    }

    /// Number of live names (diagnostics; locks shards one at a time,
    /// so the sum is a snapshot only if writers are quiesced).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
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
            let mut t = s.lock();
            rights.extend(t.map.drain().map(|(_, r)| r));
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
                assert_ne!(name.0, 0, "MACH_PORT_NULL never allocated");
                assert!(seen.insert(name), "duplicate name at {nshards} shards");
            }
            for name in &seen {
                assert!(ns.translate(*name).is_some());
            }
        }
    }

    #[test]
    #[should_panic(expected = "name space exhausted")]
    fn name_exhaustion_panics_instead_of_wrapping() {
        let ns = PortNameSpace::with_shards(2);
        for s in ns.shards.iter() {
            s.lock().next = u32::MAX;
        }
        let _ = ns.insert(Port::create());
    }

    #[test]
    fn name_hash_spreads_one_shards_names_over_the_low_bits() {
        use std::hash::BuildHasher;

        // The 2048 names shard `s` of 8 allocates first are
        // `counter * 8 + s`: they share their low 3 bits, so an
        // unfolded multiply leaves only 512 of the 4096 low-12-bit
        // values (the bucket index of a 4096-bucket map) reachable.
        // Folded, they hit 1475-1526; a uniform hash about 1612.
        let build = BuildHasherDefault::<NameHasher>::default();
        for s in 0..8u32 {
            let low: std::collections::HashSet<u64> = (1..=2048u32)
                .map(|counter| build.hash_one(PortName(counter * 8 + s)) & 0xFFF)
                .collect();
            assert!(
                low.len() >= 1024,
                "shard {s}: {} low-12-bit values",
                low.len()
            );
        }
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
}
