//! Key cachelines: the Scout's output.

use delorean_trace::{LineAddr, LineMap, Pc};

/// Metadata of one key cacheline.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct KeyInfo {
    /// Global access index of the line's first access in the detailed
    /// region — the position the backward key reuse distance is measured
    /// from.
    pub first_access_index: u64,
    /// PC of that first access (used by the limited-associativity model).
    pub pc: Pc,
}

/// The key cachelines of one detailed region: the unique lines whose first
/// access in the region misses the lukewarm cache (§3.2 — the paper
/// reports between 1 and 2,907 of them per 10 k-instruction region,
/// 151 on average).
#[derive(Clone, Debug, Default)]
pub struct KeySet {
    keys: LineMap<KeyInfo>,
}

impl KeySet {
    /// An empty key set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a key cacheline; the first registration wins (later
    /// accesses to the same line in the region are not key accesses).
    pub fn insert_first(&mut self, line: LineAddr, info: KeyInfo) {
        self.keys.or_insert_with(line, || info);
    }

    /// Number of key cachelines.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` when the region needs no reuse distances at all.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Metadata of a key line.
    pub fn get(&self, line: LineAddr) -> Option<&KeyInfo> {
        self.keys.get(line)
    }

    /// Iterate over `(line, info)` pairs (deterministic table order).
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &KeyInfo)> {
        self.keys.iter()
    }

    /// The lines themselves (deterministic table order).
    pub fn lines(&self) -> impl Iterator<Item = LineAddr> + '_ {
        self.keys.keys()
    }
}

impl FromIterator<(LineAddr, KeyInfo)> for KeySet {
    fn from_iter<T: IntoIterator<Item = (LineAddr, KeyInfo)>>(iter: T) -> Self {
        let mut s = KeySet::new();
        for (l, i) in iter {
            s.insert_first(l, i);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_registration_wins() {
        let mut ks = KeySet::new();
        ks.insert_first(
            LineAddr(5),
            KeyInfo {
                first_access_index: 10,
                pc: Pc(1),
            },
        );
        ks.insert_first(
            LineAddr(5),
            KeyInfo {
                first_access_index: 20,
                pc: Pc(2),
            },
        );
        assert_eq!(ks.len(), 1);
        assert_eq!(ks.get(LineAddr(5)).unwrap().first_access_index, 10);
    }

    #[test]
    fn collect_and_iterate() {
        let ks: KeySet = (0..5u64)
            .map(|i| {
                (
                    LineAddr(i),
                    KeyInfo {
                        first_access_index: i,
                        pc: Pc(0x100),
                    },
                )
            })
            .collect();
        assert_eq!(ks.len(), 5);
        assert_eq!(ks.lines().count(), 5);
        assert!(!ks.is_empty());
        assert!(ks.iter().all(|(l, i)| l.0 == i.first_access_index));
    }

    #[test]
    fn empty_set() {
        let ks = KeySet::new();
        assert!(ks.is_empty());
        assert!(ks.get(LineAddr(1)).is_none());
    }
}
