//! Flat lookup substrate for the per-access hot loops.
//!
//! Every warm loop in the repository classifies each generated access
//! against a handful of small keyed tables (watched pages, key lines,
//! armed vicinity samples, per-PC models). `std::collections`' SipHash
//! maps cost tens of cycles per probe — far more than generating the
//! access itself after PR 2 — so this module provides the flat
//! replacements every strategy shares:
//!
//! * [`FlatMap`]/[`FlatSet`] — open-addressing, power-of-two capacity,
//!   linear probing with *backshift* deletion (no tombstones, so probe
//!   chains never rot under churn), hashed with the same [`mix64`]
//!   finalizer the workloads use. Keys are small `Copy` newtypes over
//!   `u64` ([`FlatKey`]); the common aliases are [`LineMap`],
//!   [`LineSet`], [`PageMap`] and [`PcMap`].
//!
//! All structures are deterministic: iteration order depends only on the
//! sequence of insertions and removals, never on process-global state —
//! strictly stronger than `std`'s randomized hashing, and what lets
//! DeLorean runs stay bit-identical at every worker count.

use crate::rng::splitmix64;
use crate::types::{LineAddr, PageAddr, Pc};

/// Seed folded into every table hash (an arbitrary odd constant, fixed so
/// results are reproducible across runs and processes).
const TABLE_SEED: u64 = 0x9e6c_63d0_876a_3f6d;

#[inline]
fn flat_hash(raw: u64) -> u64 {
    splitmix64(raw ^ TABLE_SEED)
}

/// A key usable in [`FlatMap`]/[`FlatSet`]: a small `Copy` value with a
/// stable 64-bit representation to hash.
pub trait FlatKey: Copy + Eq {
    /// The raw 64-bit value fed to the hash function.
    fn raw(self) -> u64;
}

impl FlatKey for u64 {
    #[inline]
    fn raw(self) -> u64 {
        self
    }
}

impl FlatKey for i64 {
    #[inline]
    fn raw(self) -> u64 {
        self as u64
    }
}

impl FlatKey for LineAddr {
    #[inline]
    fn raw(self) -> u64 {
        self.0
    }
}

impl FlatKey for PageAddr {
    #[inline]
    fn raw(self) -> u64 {
        self.0
    }
}

impl FlatKey for Pc {
    #[inline]
    fn raw(self) -> u64 {
        self.0
    }
}

/// Open-addressing hash map for [`FlatKey`] keys.
///
/// Linear probing over a power-of-two slot array kept at ≤ 50% load, so
/// probe chains stay short and lookups touch one or two cachelines.
/// Deletion backshifts the following cluster instead of leaving a
/// tombstone, keeping lookup cost independent of churn history — the
/// property the Explorer's arm/disarm traffic needs.
///
/// ```
/// use delorean_trace::{LineAddr, LineMap};
///
/// let mut m: LineMap<u64> = LineMap::new();
/// m.insert(LineAddr(7), 42);
/// assert_eq!(m.get(LineAddr(7)), Some(&42));
/// assert_eq!(m.remove(LineAddr(7)), Some(42));
/// assert!(m.is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct FlatMap<K: FlatKey, V> {
    slots: Vec<Option<(K, V)>>,
    len: usize,
}

/// Flat map keyed by cacheline address.
pub type LineMap<V> = FlatMap<LineAddr, V>;

/// Flat map keyed by page address.
pub type PageMap<V> = FlatMap<PageAddr, V>;

/// Flat map keyed by program counter.
pub type PcMap<V> = FlatMap<Pc, V>;

impl<K: FlatKey, V> Default for FlatMap<K, V> {
    fn default() -> Self {
        FlatMap {
            slots: Vec::new(),
            len: 0,
        }
    }
}

impl<K: FlatKey, V> FlatMap<K, V> {
    /// An empty map (no allocation until the first insert).
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty map pre-sized so `expected` entries fit without growing.
    pub fn with_capacity(expected: usize) -> Self {
        let mut m = Self::new();
        if expected > 0 {
            m.allocate(Self::slots_for(expected));
        }
        m
    }

    fn slots_for(expected: usize) -> usize {
        (expected.max(4) * 2).next_power_of_two()
    }

    fn allocate(&mut self, slots: usize) {
        debug_assert!(slots.is_power_of_two());
        self.slots = std::iter::repeat_with(|| None).take(slots).collect();
    }

    #[inline]
    fn bucket(&self, key: K) -> usize {
        debug_assert!(!self.slots.is_empty());
        crate::cast::fold_hash(flat_hash(key.raw())) & (self.slots.len() - 1)
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the map holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The value stored under `key`, if any.
    #[inline]
    pub fn get(&self, key: K) -> Option<&V> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = self.bucket(key);
        loop {
            match &self.slots[i] {
                None => return None,
                Some((k, v)) if *k == key => return Some(v),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Mutable access to the value stored under `key`, if any.
    #[inline]
    pub fn get_mut(&mut self, key: K) -> Option<&mut V> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = self.bucket(key);
        loop {
            match &self.slots[i] {
                None => return None,
                Some((k, _)) if *k == key => break,
                _ => i = (i + 1) & mask,
            }
        }
        self.slots[i].as_mut().map(|(_, v)| v)
    }

    /// `true` if `key` is present.
    #[inline]
    pub fn contains(&self, key: K) -> bool {
        self.get(key).is_some()
    }

    /// Probe for `key`: the index of its slot, or of the empty slot that
    /// terminates its cluster. The caller decides whether to fill it
    /// (growing first if the load bound requires — overwrites of present
    /// keys never grow the table).
    #[inline]
    fn probe(&self, key: K) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = self.bucket(key);
        loop {
            match &self.slots[i] {
                None => return i,
                Some((k, _)) if *k == key => return i,
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Make room for one more entry, then return the target slot for
    /// `key` (empty, or holding `key` already).
    fn probe_for_insert(&mut self, key: K) -> usize {
        if self.slots.is_empty() {
            self.allocate(8);
        }
        let i = self.probe(key);
        if self.slots[i].is_some() || (self.len + 1) * 2 <= self.slots.len() {
            return i;
        }
        // Keep load ≤ 50% so linear probing stays short and `remove`'s
        // cluster walk always terminates at an empty slot.
        let old = std::mem::take(&mut self.slots);
        self.allocate(old.len() * 2);
        self.len = 0;
        for (k, v) in old.into_iter().flatten() {
            self.insert(k, v);
        }
        self.probe(key)
    }

    /// Insert `value` under `key`, returning the previous value if the
    /// key was already present.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let i = self.probe_for_insert(key);
        match &mut self.slots[i] {
            Some((_, v)) => Some(std::mem::replace(v, value)),
            slot @ None => {
                *slot = Some((key, value));
                self.len += 1;
                None
            }
        }
    }

    /// The value under `key`, inserting `default()` first if absent.
    pub fn or_insert_with(&mut self, key: K, default: impl FnOnce() -> V) -> &mut V {
        let i = self.probe_for_insert(key);
        if self.slots[i].is_none() {
            self.slots[i] = Some((key, default()));
            self.len += 1;
        }
        // lint:allow(no-unwrap): the branch above fills slot i when it was empty, so it is always occupied here
        self.slots[i].as_mut().map(|(_, v)| v).expect("just filled")
    }

    /// The value under `key`, inserting `V::default()` first if absent.
    pub fn or_default(&mut self, key: K) -> &mut V
    where
        V: Default,
    {
        self.or_insert_with(key, V::default)
    }

    /// Remove `key`, returning its value if present.
    ///
    /// Uses backshift deletion: the probe cluster after the vacated slot
    /// is compacted in place, so no tombstones accumulate.
    pub fn remove(&mut self, key: K) -> Option<V> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = self.bucket(key);
        loop {
            match &self.slots[i] {
                None => return None,
                Some((k, _)) if *k == key => break,
                _ => i = (i + 1) & mask,
            }
        }
        // lint:allow(no-unwrap): the probe loop above only breaks on an occupied slot holding `key`
        let (_, value) = self.slots[i].take().expect("found above");
        self.len -= 1;
        // Backshift: walk the cluster after the hole; any entry whose home
        // bucket lies cyclically at or before the hole moves into it.
        let mut hole = i;
        let mut j = (i + 1) & mask;
        while let Some((k, _)) = &self.slots[j] {
            let home = crate::cast::fold_hash(flat_hash(k.raw())) & mask;
            let home_dist = j.wrapping_sub(home) & mask;
            let hole_dist = j.wrapping_sub(hole) & mask;
            if home_dist >= hole_dist {
                self.slots[hole] = self.slots[j].take();
                hole = j;
            }
            j = (j + 1) & mask;
        }
        Some(value)
    }

    /// Remove every entry, keeping the allocation.
    pub fn clear(&mut self) {
        for s in &mut self.slots {
            *s = None;
        }
        self.len = 0;
    }

    /// Iterate over `(key, &value)` pairs in slot order (deterministic
    /// for a given insertion/removal history).
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        self.slots.iter().filter_map(|s| {
            let (k, v) = s.as_ref()?;
            Some((*k, v))
        })
    }

    /// Iterate over the keys in slot order.
    pub fn keys(&self) -> impl Iterator<Item = K> + '_ {
        self.iter().map(|(k, _)| k)
    }

    /// Iterate over the values in slot order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, v)| v)
    }

    /// Remove and yield every entry (the allocation is released).
    pub fn drain(&mut self) -> impl Iterator<Item = (K, V)> + '_ {
        self.len = 0;
        std::mem::take(&mut self.slots).into_iter().flatten()
    }

    /// Slot-array size (tests only: growth behaviour).
    #[cfg(test)]
    fn slot_capacity(&self) -> usize {
        self.slots.len()
    }
}

impl<K: FlatKey, V> FromIterator<(K, V)> for FlatMap<K, V> {
    fn from_iter<T: IntoIterator<Item = (K, V)>>(iter: T) -> Self {
        let it = iter.into_iter();
        let mut m = Self::with_capacity(it.size_hint().0);
        for (k, v) in it {
            m.insert(k, v);
        }
        m
    }
}

/// Open-addressing hash set for [`FlatKey`] keys (a [`FlatMap`] with unit
/// values).
///
/// ```
/// use delorean_trace::{LineAddr, LineSet};
///
/// let mut s = LineSet::new();
/// assert!(s.insert(LineAddr(3)));
/// assert!(!s.insert(LineAddr(3)));
/// assert!(s.contains(LineAddr(3)));
/// ```
#[derive(Clone, Debug)]
pub struct FlatSet<K: FlatKey> {
    map: FlatMap<K, ()>,
}

impl<K: FlatKey> Default for FlatSet<K> {
    fn default() -> Self {
        FlatSet {
            map: FlatMap::default(),
        }
    }
}

/// Flat set of cacheline addresses.
pub type LineSet = FlatSet<LineAddr>;

impl<K: FlatKey> FlatSet<K> {
    /// An empty set (no allocation until the first insert).
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty set pre-sized so `expected` keys fit without growing.
    pub fn with_capacity(expected: usize) -> Self {
        FlatSet {
            map: FlatMap::with_capacity(expected),
        }
    }

    /// Number of keys.
    #[inline]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when the set holds no keys.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// `true` if `key` is present.
    #[inline]
    pub fn contains(&self, key: K) -> bool {
        self.map.contains(key)
    }

    /// Insert `key`; `true` if it was newly inserted.
    #[inline]
    pub fn insert(&mut self, key: K) -> bool {
        self.map.insert(key, ()).is_none()
    }

    /// Remove `key`; `true` if it was present.
    #[inline]
    pub fn remove(&mut self, key: K) -> bool {
        self.map.remove(key).is_some()
    }

    /// Remove every key, keeping the allocation.
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Iterate over the keys in slot order.
    pub fn iter(&self) -> impl Iterator<Item = K> + '_ {
        self.map.keys()
    }
}

impl<K: FlatKey> FromIterator<K> for FlatSet<K> {
    fn from_iter<T: IntoIterator<Item = K>>(iter: T) -> Self {
        let it = iter.into_iter();
        let mut s = Self::with_capacity(it.size_hint().0);
        for k in it {
            s.insert(k);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::mix64;

    #[test]
    fn insert_get_remove_round_trip() {
        let mut m: LineMap<u64> = LineMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(LineAddr(1), 10), None);
        assert_eq!(m.insert(LineAddr(1), 11), Some(10));
        assert_eq!(m.get(LineAddr(1)), Some(&11));
        assert_eq!(m.len(), 1);
        assert_eq!(m.remove(LineAddr(1)), Some(11));
        assert_eq!(m.remove(LineAddr(1)), None);
        assert!(m.is_empty());
    }

    #[test]
    fn growth_preserves_entries() {
        let mut m: FlatMap<u64, u64> = FlatMap::new();
        for i in 0..1000u64 {
            m.insert(i, i * 3);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u64 {
            assert_eq!(m.get(i), Some(&(i * 3)), "key {i}");
        }
    }

    #[test]
    fn backshift_keeps_chains_reachable() {
        // Small key universe over a small table forces probe clusters;
        // interleave inserts and removes and verify every survivor is
        // still reachable after each removal.
        let mut m: FlatMap<u64, u64> = FlatMap::new();
        let mut present = Vec::new();
        for step in 0..2000u64 {
            let k = mix64(0xbace, step) % 48;
            if mix64(0xfee1, step).is_multiple_of(3) {
                let expect = present.contains(&k);
                assert_eq!(m.remove(k).is_some(), expect, "step {step}");
                present.retain(|&p| p != k);
            } else {
                m.insert(k, step);
                if !present.contains(&k) {
                    present.push(k);
                }
            }
            for &p in &present {
                assert!(m.contains(p), "step {step}: lost key {p}");
            }
            assert_eq!(m.len(), present.len(), "step {step}");
        }
    }

    #[test]
    fn overwrites_at_the_load_threshold_do_not_grow() {
        // Fill to exactly the 50% load bound (4 entries in 8 slots), then
        // hammer the present keys with overwrites and or_default updates:
        // the table must not grow, because len never does.
        let mut m: FlatMap<u64, u64> = FlatMap::new();
        for i in 0..4u64 {
            m.insert(i, i);
        }
        let cap = m.slot_capacity();
        assert!((m.len() + 1) * 2 > cap, "not at threshold");
        for round in 0..10u64 {
            for i in 0..4u64 {
                m.insert(i, round);
                *m.or_default(i) += 1;
            }
        }
        assert_eq!(m.slot_capacity(), cap, "overwrite traffic grew the table");
        assert_eq!(m.len(), 4);
        // The next genuinely new key does grow.
        m.insert(100, 0);
        assert!(m.slot_capacity() > cap);
        assert_eq!(m.len(), 5);
    }

    #[test]
    fn or_insert_with_reuses_existing() {
        let mut m: PcMap<u64> = PcMap::new();
        *m.or_default(Pc(5)) += 1;
        *m.or_default(Pc(5)) += 1;
        assert_eq!(m.get(Pc(5)), Some(&2));
        assert_eq!(m.or_insert_with(Pc(5), || 99), &2);
    }

    #[test]
    fn iteration_is_deterministic_and_complete() {
        let build = || {
            let mut m: LineMap<u64> = LineMap::new();
            for i in 0..100u64 {
                m.insert(LineAddr(mix64(7, i)), i);
            }
            m
        };
        let a: Vec<_> = build().iter().map(|(k, &v)| (k, v)).collect();
        let b: Vec<_> = build().iter().map(|(k, &v)| (k, v)).collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), 100);
    }

    #[test]
    fn drain_empties_the_map() {
        let mut m: LineMap<u64> = (0..10u64).map(|i| (LineAddr(i), i)).collect();
        let drained: Vec<_> = m.drain().collect();
        assert_eq!(drained.len(), 10);
        assert!(m.is_empty());
        assert_eq!(m.get(LineAddr(3)), None);
        m.insert(LineAddr(3), 4);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn set_semantics() {
        let mut s = LineSet::new();
        assert!(s.insert(LineAddr(9)));
        assert!(!s.insert(LineAddr(9)));
        assert_eq!(s.len(), 1);
        assert!(s.remove(LineAddr(9)));
        assert!(!s.remove(LineAddr(9)));
        let s2: FlatSet<u64> = (0..5u64).collect();
        assert_eq!(s2.iter().count(), 5);
        assert!(!s2.is_empty());
    }

    #[test]
    fn clear_keeps_allocation_usable() {
        let mut m: FlatMap<u64, u64> = (0..50u64).map(|i| (i, i)).collect();
        m.clear();
        assert!(m.is_empty());
        m.insert(1, 2);
        assert_eq!(m.get(1), Some(&2));
    }
}
