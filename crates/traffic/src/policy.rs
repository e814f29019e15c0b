//! Pluggable demultiplexer address-cache policies.
//!
//! The x-kernel map's one-entry cache (Mogul's packet-train
//! observation) is one point in a design space Raj Jain's DEC-TR-592
//! explores systematically: the *right* destination-address cache
//! depends on the reference stream's locality.  This module makes the
//! per-shard cache in front of [`xkernel::map::Map`]'s chain walk a
//! pluggable policy, so the [`SessionTable`](crate::session) can be
//! measured under LRU / FIFO / random / direct-mapped schemes against
//! locality-controlled streams ([`crate::workload::RefStream`]).
//!
//! Dispatch is a monomorphized enum match — no `dyn` on the hot path;
//! every variant's probe is a handful of compares over inline storage.
//! Policies obey one shared contract so the `cache_hits / chain_hits /
//! misses` taxonomy stays comparable across them:
//!
//! * **probe** is consulted before the chain walk; a hit is a
//!   `CacheHit`;
//! * **fill** happens only on a chain hit (exactly when the seed map
//!   populates its one-entry cache — never on bind);
//! * **rebind** updates a cached value in place so the cache never
//!   serves stale state;
//! * **invalidate** removes a key on unbind/eviction, so a cache hit
//!   always implies table residency.
//!
//! That contract makes `misses` and `cache_hits + chain_hits` invariant
//! across policies for a fixed workload — only the cache/chain *split*
//! (and therefore the demux cost) moves, which is what the policy ×
//! stream matrix in `BENCH_demux.json` measures.

use netsim::rng::SplitMix64;

use crate::session::DemuxKey;

/// Which address-cache policy a [`SessionTable`](crate::session) shard
/// runs.  All-integer so it is `Copy + Eq + Hash` and rides inside
/// [`TrafficConfig`](crate::TrafficConfig) as a memo-cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// The seed policy: the x-kernel map's single-entry cache.
    OneEntry,
    /// `slots` direct-mapped entries indexed by key hash (power of
    /// two).  Cheapest probe, defeated by slot conflicts.
    DirectMapped { slots: u32 },
    /// `sets` two-way sets with per-set LRU replacement (power of two).
    TwoWayLru { sets: u32 },
    /// `slots` fully-associative entries replaced in ring (FIFO) order.
    Fifo { slots: u32 },
    /// `slots` fully-associative entries with seeded random
    /// replacement (SplitMix64; deterministic per shard).
    Random { slots: u32 },
}

impl PolicyKind {
    /// Stable lowercase name used in bench JSON keys.
    pub fn name(&self) -> &'static str {
        match self {
            PolicyKind::OneEntry => "one_entry",
            PolicyKind::DirectMapped { .. } => "direct_mapped",
            PolicyKind::TwoWayLru { .. } => "two_way_lru",
            PolicyKind::Fifo { .. } => "fifo",
            PolicyKind::Random { .. } => "random",
        }
    }

    /// Why this policy's parameter cannot build a cache, if it cannot:
    /// set-indexed policies need a power-of-two count (0 is not one)
    /// and fully-associative ones at least one slot.
    pub fn check(&self) -> Result<(), String> {
        match *self {
            PolicyKind::OneEntry => Ok(()),
            PolicyKind::DirectMapped { slots: n } | PolicyKind::TwoWayLru { sets: n }
                if !n.is_power_of_two() =>
            {
                Err(format!("{} policy count {n} is not a power of two", self.name()))
            }
            PolicyKind::Fifo { slots: 0 } | PolicyKind::Random { slots: 0 } => {
                Err(format!("{} policy has no slots", self.name()))
            }
            _ => Ok(()),
        }
    }

    /// Cache entries this policy holds per shard.
    pub fn entries(&self) -> usize {
        match *self {
            PolicyKind::OneEntry => 1,
            PolicyKind::DirectMapped { slots } => slots as usize,
            PolicyKind::TwoWayLru { sets } => 2 * sets as usize,
            PolicyKind::Fifo { slots } | PolicyKind::Random { slots } => slots as usize,
        }
    }
}

/// Cache-slot index of a hashed key: high bits, decorrelated from both
/// the shard selector (bits 17+) and the bucket index (`hash % n`).
/// Shared with the adversarial conflict stream, which inverts it to
/// build colliding reference cycles.
#[inline]
pub fn cache_slot(hash: u64, mask: u64) -> usize {
    ((hash >> 44) & mask) as usize
}

/// One cached binding.
type Entry<V> = Option<(DemuxKey, V)>;

/// One two-way set: two ways plus an MRU bit (fields private; the
/// type is public only because it appears in [`DemuxCache`]'s variant).
#[derive(Debug, Clone)]
pub struct TwoWaySet<V> {
    ways: [Entry<V>; 2],
    /// Index of the most-recently-used way.
    mru: u8,
}

/// The per-shard cache state of one policy.  See the module docs for
/// the probe/fill/rebind/invalidate contract.
#[derive(Debug, Clone)]
pub enum DemuxCache<V> {
    OneEntry(Entry<V>),
    DirectMapped { slots: Vec<Entry<V>>, mask: u64 },
    TwoWayLru { sets: Vec<TwoWaySet<V>>, mask: u64 },
    Fifo { slots: Vec<Entry<V>>, next: usize },
    Random { slots: Vec<Entry<V>>, rng: SplitMix64 },
}

impl<V: Clone> DemuxCache<V> {
    /// Fresh cache state for `kind`; `seed` feeds the random-
    /// replacement stream (derive it per shard for determinism).
    pub fn new(kind: PolicyKind, seed: u64) -> Self {
        if let Err(why) = kind.check() {
            panic!("{why}");
        }
        match kind {
            PolicyKind::OneEntry => DemuxCache::OneEntry(None),
            PolicyKind::DirectMapped { slots } => DemuxCache::DirectMapped {
                slots: vec![None; slots as usize],
                mask: slots as u64 - 1,
            },
            PolicyKind::TwoWayLru { sets } => DemuxCache::TwoWayLru {
                sets: vec![TwoWaySet { ways: [None, None], mru: 0 }; sets as usize],
                mask: sets as u64 - 1,
            },
            PolicyKind::Fifo { slots } => {
                DemuxCache::Fifo { slots: vec![None; slots as usize], next: 0 }
            }
            PolicyKind::Random { slots } => {
                DemuxCache::Random { slots: vec![None; slots as usize], rng: SplitMix64::new(seed) }
            }
        }
    }

    /// Probe the cache.  A hit is the inlinable demux fast path.
    #[inline]
    pub fn probe(&mut self, hash: u64, key: &DemuxKey) -> Option<V> {
        match self {
            DemuxCache::OneEntry(e) => match e {
                Some((k, v)) if k == key => Some(v.clone()),
                _ => None,
            },
            DemuxCache::DirectMapped { slots, mask } => match &slots[cache_slot(hash, *mask)] {
                Some((k, v)) if k == key => Some(v.clone()),
                _ => None,
            },
            DemuxCache::TwoWayLru { sets, mask } => {
                let set = &mut sets[cache_slot(hash, *mask)];
                for (w, e) in set.ways.iter().enumerate() {
                    if let Some((k, v)) = e {
                        if k == key {
                            let v = v.clone();
                            set.mru = w as u8;
                            return Some(v);
                        }
                    }
                }
                None
            }
            DemuxCache::Fifo { slots, .. } | DemuxCache::Random { slots, .. } => slots
                .iter()
                .find_map(|e| match e {
                    Some((k, v)) if k == key => Some(v.clone()),
                    _ => None,
                }),
        }
    }

    /// Install a binding after a chain hit (the only fill site — the
    /// seed one-entry contract).
    pub fn fill(&mut self, hash: u64, key: DemuxKey, value: V) {
        match self {
            DemuxCache::OneEntry(e) => *e = Some((key, value)),
            DemuxCache::DirectMapped { slots, mask } => {
                slots[cache_slot(hash, *mask)] = Some((key, value));
            }
            DemuxCache::TwoWayLru { sets, mask } => {
                let set = &mut sets[cache_slot(hash, *mask)];
                // Prefer an empty way; otherwise evict the LRU way.
                let w = match set.ways.iter().position(|e| e.is_none()) {
                    Some(w) => w,
                    None => 1 - set.mru as usize,
                };
                set.ways[w] = Some((key, value));
                set.mru = w as u8;
            }
            DemuxCache::Fifo { slots, next } => {
                slots[*next] = Some((key, value));
                *next = (*next + 1) % slots.len();
            }
            DemuxCache::Random { slots, rng } => {
                // Fill empty slots deterministically first; draw a
                // victim only once the cache is full.
                let w = match slots.iter().position(|e| e.is_none()) {
                    Some(w) => w,
                    None => rng.below(slots.len() as u64) as usize,
                };
                slots[w] = Some((key, value));
            }
        }
    }

    /// Keep a cached value coherent with a rebind of a live key.
    pub fn rebind(&mut self, hash: u64, key: &DemuxKey, value: &V) {
        match self {
            DemuxCache::OneEntry(e) => {
                if let Some((k, v)) = e {
                    if k == key {
                        *v = value.clone();
                    }
                }
            }
            DemuxCache::DirectMapped { slots, mask } => {
                if let Some((k, v)) = &mut slots[cache_slot(hash, *mask)] {
                    if k == key {
                        *v = value.clone();
                    }
                }
            }
            DemuxCache::TwoWayLru { sets, mask } => {
                for (k, v) in sets[cache_slot(hash, *mask)].ways.iter_mut().flatten() {
                    if k == key {
                        *v = value.clone();
                    }
                }
            }
            DemuxCache::Fifo { slots, .. } | DemuxCache::Random { slots, .. } => {
                for (k, v) in slots.iter_mut().flatten() {
                    if k == key {
                        *v = value.clone();
                    }
                }
            }
        }
    }

    /// Drop a key on unbind/eviction so a cache hit always implies the
    /// binding is still resident in the table.
    pub fn invalidate(&mut self, hash: u64, key: &DemuxKey) {
        match self {
            DemuxCache::OneEntry(e) => {
                if matches!(e, Some((k, _)) if k == key) {
                    *e = None;
                }
            }
            DemuxCache::DirectMapped { slots, mask } => {
                let e = &mut slots[cache_slot(hash, *mask)];
                if matches!(e, Some((k, _)) if k == key) {
                    *e = None;
                }
            }
            DemuxCache::TwoWayLru { sets, mask } => {
                for e in &mut sets[cache_slot(hash, *mask)].ways {
                    if matches!(e, Some((k, _)) if k == key) {
                        *e = None;
                    }
                }
            }
            DemuxCache::Fifo { slots, .. } | DemuxCache::Random { slots, .. } => {
                for e in slots.iter_mut() {
                    if matches!(e, Some((k, _)) if k == key) {
                        *e = None;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(id: u64) -> DemuxKey {
        DemuxKey::for_session(id)
    }

    fn all_kinds() -> [PolicyKind; 5] {
        [
            PolicyKind::OneEntry,
            PolicyKind::DirectMapped { slots: 8 },
            PolicyKind::TwoWayLru { sets: 4 },
            PolicyKind::Fifo { slots: 8 },
            PolicyKind::Random { slots: 8 },
        ]
    }

    #[test]
    fn fill_then_probe_hits_every_policy() {
        for kind in all_kinds() {
            let mut c: DemuxCache<u32> = DemuxCache::new(kind, 7);
            let k = key(3);
            assert_eq!(c.probe(k.hash(), &k), None, "{kind:?}: cold probe must miss");
            c.fill(k.hash(), k, 30);
            assert_eq!(c.probe(k.hash(), &k), Some(30), "{kind:?}");
        }
    }

    #[test]
    fn invalidate_removes_and_rebind_updates() {
        for kind in all_kinds() {
            let mut c: DemuxCache<u32> = DemuxCache::new(kind, 7);
            let k = key(5);
            c.fill(k.hash(), k, 1);
            c.rebind(k.hash(), &k, &2);
            assert_eq!(c.probe(k.hash(), &k), Some(2), "{kind:?}: rebind must update");
            c.invalidate(k.hash(), &k);
            assert_eq!(c.probe(k.hash(), &k), None, "{kind:?}: invalidate must remove");
        }
    }

    #[test]
    fn one_entry_holds_exactly_one() {
        let mut c: DemuxCache<u32> = DemuxCache::new(PolicyKind::OneEntry, 0);
        let (a, b) = (key(1), key(2));
        c.fill(a.hash(), a, 10);
        c.fill(b.hash(), b, 20);
        assert_eq!(c.probe(a.hash(), &a), None);
        assert_eq!(c.probe(b.hash(), &b), Some(20));
    }

    #[test]
    fn two_way_lru_evicts_least_recent() {
        // Find three keys in one set, touch two, fill the third: the
        // untouched one must be the victim.
        let sets = 4u32;
        let mask = sets as u64 - 1;
        let mut trio: Vec<DemuxKey> = Vec::new();
        let mut id = 0u64;
        let target = cache_slot(key(0).hash(), mask);
        while trio.len() < 3 {
            let k = key(id);
            if cache_slot(k.hash(), mask) == target {
                trio.push(k);
            }
            id += 1;
        }
        let mut c: DemuxCache<u32> = DemuxCache::new(PolicyKind::TwoWayLru { sets }, 0);
        c.fill(trio[0].hash(), trio[0], 0);
        c.fill(trio[1].hash(), trio[1], 1);
        // Touch 0 so 1 is LRU, then insert 2.
        assert_eq!(c.probe(trio[0].hash(), &trio[0]), Some(0));
        c.fill(trio[2].hash(), trio[2], 2);
        assert_eq!(c.probe(trio[0].hash(), &trio[0]), Some(0), "MRU way must survive");
        assert_eq!(c.probe(trio[1].hash(), &trio[1]), None, "LRU way must be evicted");
        assert_eq!(c.probe(trio[2].hash(), &trio[2]), Some(2));
    }

    #[test]
    fn fifo_replaces_in_ring_order() {
        let mut c: DemuxCache<u32> = DemuxCache::new(PolicyKind::Fifo { slots: 2 }, 0);
        let (a, b, d) = (key(1), key(2), key(3));
        c.fill(a.hash(), a, 1);
        c.fill(b.hash(), b, 2);
        c.fill(d.hash(), d, 3); // overwrites a (the oldest fill)
        assert_eq!(c.probe(a.hash(), &a), None);
        assert_eq!(c.probe(b.hash(), &b), Some(2));
        assert_eq!(c.probe(d.hash(), &d), Some(3));
    }

    #[test]
    fn random_replacement_is_seeded_deterministic() {
        let run = |seed| {
            let mut c: DemuxCache<u32> = DemuxCache::new(PolicyKind::Random { slots: 4 }, seed);
            for id in 0..32u64 {
                let k = key(id);
                c.fill(k.hash(), k, id as u32);
            }
            (0..32u64)
                .map(|id| {
                    let k = key(id);
                    c.probe(k.hash(), &k).is_some()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
    }
}
