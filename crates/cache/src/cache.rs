//! The set-associative cache core.

use crate::config::{CacheConfig, ReplacementPolicy};
use crate::stats::CacheStats;
use delorean_trace::{cast, mix64, LineAddr};

/// Sentinel tag for an empty way.
const EMPTY: u64 = u64::MAX;

/// Stable per-policy discriminant folded into state digests — decoupled
/// from the enum's memory layout so digests do not silently change if
/// the enum is reordered.
fn replacement_code(policy: ReplacementPolicy) -> u64 {
    match policy {
        ReplacementPolicy::Lru => 1,
        ReplacementPolicy::Fifo => 2,
        ReplacementPolicy::Random => 3,
        ReplacementPolicy::PLru => 4,
        ReplacementPolicy::Nmru => 5,
        ReplacementPolicy::Srrip => 6,
    }
}

/// Result of a (potentially filling) cache access.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum AccessResult {
    /// The line was present.
    Hit,
    /// The line was absent and has been filled; `evicted` is the victim, if
    /// the chosen way held a valid line.
    Miss {
        /// Line evicted to make room, if any.
        evicted: Option<LineAddr>,
    },
}

impl AccessResult {
    /// `true` for [`AccessResult::Hit`].
    pub fn is_hit(&self) -> bool {
        matches!(self, AccessResult::Hit)
    }
}

/// A set-associative cache with pluggable replacement.
///
/// ```
/// use delorean_cache::{Cache, CacheConfig};
/// use delorean_trace::LineAddr;
///
/// let mut c = Cache::new(CacheConfig::new(4096, 2));
/// assert!(!c.access(LineAddr(1)).is_hit()); // cold
/// assert!(c.access(LineAddr(1)).is_hit());
/// ```
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheConfig,
    sets: u64,
    set_mask: u64,
    /// Tag array, `sets × ways`, row-major; `EMPTY` marks invalid ways.
    tags: Vec<u64>,
    /// Per-way metadata: LRU/FIFO stamps (monotone ticks).
    stamps: Vec<u64>,
    /// Per-set tree-PLRU bits (also reused as MRU pointer for NMRU).
    set_bits: Vec<u32>,
    tick: u64,
    rng: u64,
    valid_lines: u64,
    stats: CacheStats,
}

impl Cache {
    /// Build a cache for a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`CacheConfig::validate`].
    pub fn new(cfg: CacheConfig) -> Self {
        // lint:allow(no-unwrap): documented # Panics contract — construction fails fast on invalid geometry
        cfg.validate().expect("invalid cache geometry");
        let sets = cfg.sets();
        let n = cast::idx(sets * u64::from(cfg.ways));
        Cache {
            cfg,
            sets,
            set_mask: sets - 1,
            tags: vec![EMPTY; n],
            stamps: vec![0; n],
            set_bits: vec![0; cast::idx(sets)],
            tick: 0,
            rng: 0x5eed_c0de,
            valid_lines: 0,
            stats: CacheStats::default(),
        }
    }

    /// The configuration this cache was built from.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Set index of a line. The set count is validated to be a power of
    /// two, so this is a single mask — no division on the hot path.
    #[inline]
    pub fn set_index(&self, line: LineAddr) -> u64 {
        line.0 & self.set_mask
    }

    /// Ways per set at set width `W`: the compile-time width, or the
    /// configured associativity when `W = 0`. A nonzero `W` is only ever
    /// instantiated for a cache whose configuration has exactly `W` ways
    /// (the hierarchy picks the instantiation from the geometry).
    #[inline(always)]
    fn width<const W: usize>(&self) -> usize {
        debug_assert!(
            W == 0 || W == self.cfg.ways as usize,
            "width-{W} body on a {}-way cache",
            self.cfg.ways
        );
        if W == 0 {
            self.cfg.ways as usize
        } else {
            W
        }
    }

    /// First array slot of `set` at set width `W`.
    #[inline(always)]
    fn row<const W: usize>(&self, set: u64) -> usize {
        cast::idx(set) * self.width::<W>()
    }

    /// The `W` slots of the set starting at `row`, as a fixed-width array
    /// (one bounds check; every per-way loop over it is unrolled).
    #[inline(always)]
    fn ways_at<const W: usize>(slots: &[u64], row: usize) -> &[u64; W] {
        // lint:allow(no-unwrap): a `W`-long slice always converts to `[u64; W]`
        slots[row..row + W].try_into().expect("slice is W long")
    }

    /// The one tag-probe loop every runtime-width lookup shares: scan the
    /// set's tags for `tag` and return the matching way.
    ///
    /// This is the `W = 0` path, which the public methods and every
    /// non-Table-1 geometry take. It dispatches on the associativity to a
    /// fixed-width branchless scan: all ways are compared into a hit mask
    /// with no data-dependent branch (an early-exit loop over effectively
    /// random tags mispredicts on almost every probe), and the dispatch
    /// itself is perfectly predicted — a given cache's associativity never
    /// changes. The hierarchy's warm loop does not dispatch per access: it
    /// picks a width-specialised instantiation once per batch (see
    /// [`Hierarchy`](crate::Hierarchy)), which calls the fixed-width scan
    /// directly.
    #[inline]
    fn find_way(set_tags: &[u64], tag: u64) -> Option<usize> {
        match set_tags.len() {
            1 => (set_tags[0] == tag).then_some(0),
            2 => Self::find_way_fixed::<2>(Self::ways_at(set_tags, 0), tag),
            4 => Self::find_way_fixed::<4>(Self::ways_at(set_tags, 0), tag),
            8 => Self::find_way_fixed::<8>(Self::ways_at(set_tags, 0), tag),
            16 => Self::find_way_fixed::<16>(Self::ways_at(set_tags, 0), tag),
            _ => set_tags.iter().position(|&t| t == tag),
        }
    }

    /// Branchless fixed-associativity scan: compare every way, collect a
    /// hit mask, pick the lowest set bit (ways hold distinct tags, so at
    /// most one bit is ever set).
    #[inline(always)]
    fn find_way_fixed<const N: usize>(ways: &[u64; N], tag: u64) -> Option<usize> {
        let mut mask = 0u32;
        for (w, &t) in ways.iter().enumerate() {
            mask |= u32::from(t == tag) << w;
        }
        if mask == 0 {
            None
        } else {
            Some(mask.trailing_zeros() as usize)
        }
    }

    /// The miss-path scan: tag-match way and first invalid way in **one**
    /// pass over the set, so a filling miss does not re-scan the tags it
    /// just failed to match (historically: a match scan, then an EMPTY
    /// scan, then the victim scan).
    #[inline]
    fn scan_set(set_tags: &[u64], tag: u64) -> (Option<usize>, Option<usize>) {
        match set_tags.len() {
            2 => Self::scan_set_fixed::<2>(Self::ways_at(set_tags, 0), tag),
            4 => Self::scan_set_fixed::<4>(Self::ways_at(set_tags, 0), tag),
            8 => Self::scan_set_fixed::<8>(Self::ways_at(set_tags, 0), tag),
            16 => Self::scan_set_fixed::<16>(Self::ways_at(set_tags, 0), tag),
            _ => (
                set_tags.iter().position(|&t| t == tag),
                set_tags.iter().position(|&t| t == EMPTY),
            ),
        }
    }

    /// Branchless fused match + invalid scan at fixed associativity.
    #[inline(always)]
    fn scan_set_fixed<const N: usize>(ways: &[u64; N], tag: u64) -> (Option<usize>, Option<usize>) {
        let mut hit_mask = 0u32;
        let mut empty_mask = 0u32;
        for (w, &t) in ways.iter().enumerate() {
            hit_mask |= u32::from(t == tag) << w;
            empty_mask |= u32::from(t == EMPTY) << w;
        }
        let pick = |mask: u32| {
            if mask == 0 {
                None
            } else {
                Some(mask.trailing_zeros() as usize)
            }
        };
        (pick(hit_mask), pick(empty_mask))
    }

    /// Tag-match way of the set at `row`, at set width `W`.
    #[inline(always)]
    fn find_way_at<const W: usize>(&self, row: usize, tag: u64) -> Option<usize> {
        if W == 0 {
            Self::find_way(&self.tags[row..row + self.width::<0>()], tag)
        } else {
            Self::find_way_fixed(Self::ways_at::<W>(&self.tags, row), tag)
        }
    }

    /// Fused match + first-invalid scan of the set at `row`, at set
    /// width `W`.
    #[inline(always)]
    fn scan_set_at<const W: usize>(&self, row: usize, tag: u64) -> (Option<usize>, Option<usize>) {
        if W == 0 {
            Self::scan_set(&self.tags[row..row + self.width::<0>()], tag)
        } else {
            Self::scan_set_fixed(Self::ways_at::<W>(&self.tags, row), tag)
        }
    }

    /// The tags of the line's set.
    #[inline]
    fn set_tags(&self, line: LineAddr) -> &[u64] {
        let row = self.row::<0>(self.set_index(line));
        &self.tags[row..row + self.cfg.ways as usize]
    }

    /// Non-mutating lookup.
    #[inline]
    pub fn probe(&self, line: LineAddr) -> bool {
        Self::find_way(self.set_tags(line), line.0).is_some()
    }

    /// Non-mutating combined probe: whether `line` is present, and
    /// whether every way of its set holds a valid line — one scan for the
    /// two questions the DSW analyst asks of every lukewarm miss.
    #[inline]
    pub fn probe_set(&self, line: LineAddr) -> (bool, bool) {
        let tags = self.set_tags(line);
        let mut present = false;
        let mut used = 0usize;
        for &t in tags {
            present |= t == line.0;
            used += usize::from(t != EMPTY);
        }
        (present, used == tags.len())
    }

    /// Fraction of the cache holding valid lines.
    pub fn warm_fraction(&self) -> f64 {
        self.valid_lines as f64 / (self.sets * self.cfg.ways as u64) as f64
    }

    /// Access `line`, updating replacement state and filling on a miss.
    #[inline]
    pub fn access(&mut self, line: LineAddr) -> AccessResult {
        self.access_w::<0>(line)
    }

    /// [`Cache::access`] at set width `W` (`0`: the configured width).
    #[inline(always)]
    pub(crate) fn access_w<const W: usize>(&mut self, line: LineAddr) -> AccessResult {
        self.tick += 1;
        let set = self.set_index(line);
        let row = self.row::<W>(set);
        let (hit, empty) = self.scan_set_at::<W>(row, line.0);
        if let Some(w) = hit {
            self.stats.hits += 1;
            self.touch(set, row, w);
            return AccessResult::Hit;
        }
        self.stats.misses += 1;
        let evicted = self.fill_into::<W>(set, row, empty, line);
        AccessResult::Miss { evicted }
    }

    /// Access `line` *without* filling on a miss: hits update replacement
    /// state and statistics, misses only count. Used when the fill is
    /// deferred behind an MSHR.
    #[inline]
    pub fn lookup(&mut self, line: LineAddr) -> bool {
        self.lookup_w::<0>(line)
    }

    /// [`Cache::lookup`] at set width `W` (`0`: the configured width).
    #[inline(always)]
    pub(crate) fn lookup_w<const W: usize>(&mut self, line: LineAddr) -> bool {
        self.tick += 1;
        let set = self.set_index(line);
        let row = self.row::<W>(set);
        if let Some(w) = self.find_way_at::<W>(row, line.0) {
            self.stats.hits += 1;
            self.touch(set, row, w);
            return true;
        }
        self.stats.misses += 1;
        false
    }

    /// Insert `line` without recording an access (prefetch fill / warming
    /// transplant). Returns the evicted victim, if any. No-op if present.
    #[inline]
    pub fn fill(&mut self, line: LineAddr) -> Option<LineAddr> {
        self.fill_w::<0>(line)
    }

    /// [`Cache::fill`] at set width `W` (`0`: the configured width).
    #[inline(always)]
    pub(crate) fn fill_w<const W: usize>(&mut self, line: LineAddr) -> Option<LineAddr> {
        self.tick += 1;
        let set = self.set_index(line);
        let row = self.row::<W>(set);
        let (hit, empty) = self.scan_set_at::<W>(row, line.0);
        if hit.is_some() {
            return None;
        }
        self.fill_into::<W>(set, row, empty, line)
    }

    /// Remove `line` if present; returns whether it was.
    pub fn invalidate(&mut self, line: LineAddr) -> bool {
        let row = self.row::<0>(self.set_index(line));
        if let Some(w) = self.find_way_at::<0>(row, line.0) {
            self.tags[row + w] = EMPTY;
            self.valid_lines -= 1;
            return true;
        }
        false
    }

    /// Access statistics since construction or the last reset.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Zero the statistics (state is kept).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Capture the full microarchitectural state of the cache (tags and
    /// replacement metadata) for checkpointed warming.
    pub fn snapshot(&self) -> CacheSnapshot {
        CacheSnapshot {
            tags: self.tags.clone(),
            stamps: self.stamps.clone(),
            set_bits: self.set_bits.clone(),
            tick: self.tick,
            valid_lines: self.valid_lines,
        }
    }

    /// Restore a previously captured state. Statistics are not part of the
    /// snapshot.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot geometry does not match this cache.
    pub fn restore(&mut self, snapshot: &CacheSnapshot) {
        assert_eq!(
            snapshot.tags.len(),
            self.tags.len(),
            "snapshot geometry mismatch"
        );
        self.tags.clone_from(&snapshot.tags);
        self.stamps.clone_from(&snapshot.stamps);
        self.set_bits.clone_from(&snapshot.set_bits);
        self.tick = snapshot.tick;
        self.valid_lines = snapshot.valid_lines;
    }

    /// Adopt another cache's state, reusing this cache's allocations
    /// (`clone_from` on the arrays instead of a fresh deep copy). The
    /// cheap restore path of the speculative warm lane: the reconciler
    /// repeatedly overwrites a scratch hierarchy with the carried state.
    ///
    /// # Panics
    ///
    /// Panics if the two caches have different geometry.
    pub fn copy_state_from(&mut self, other: &Cache) {
        assert_eq!(self.tags.len(), other.tags.len(), "cache geometry mismatch");
        self.cfg = other.cfg;
        self.tags.clone_from(&other.tags);
        self.stamps.clone_from(&other.stamps);
        self.set_bits.clone_from(&other.set_bits);
        self.tick = other.tick;
        self.rng = other.rng;
        self.valid_lines = other.valid_lines;
        self.stats = other.stats;
    }

    /// A [`mix64`] fold over the cache's **behaviorally live** state: the
    /// portion of the microarchitectural state that determines every
    /// future hit/miss/eviction, and nothing more. Two caches with equal
    /// digests behave identically on any subsequent access sequence,
    /// even when their raw [`CacheSnapshot`]s differ in dead bytes.
    ///
    /// What is live depends on the replacement policy:
    ///
    /// * **LRU / FIFO** — per set, the valid tags in *stamp-rank order*
    ///   (oldest → newest). Absolute stamp values are dead: every new
    ///   stamp exceeds all existing ones, so only the relative order can
    ///   ever influence a victim scan. Way positions are dead too: hits
    ///   scan all ways, the victim is chosen by minimum stamp (distinct
    ///   among valid ways — each write uses a fresh tick), and an empty
    ///   way's identity never outlives its fill. Rank-canonicalizing is
    ///   what lets a directed warm-up window, replayed from a cold cache,
    ///   reproduce the live state of the full warm chain exactly.
    /// * **SRRIP** — tags and RRPV stamps in way order (the victim scan
    ///   breaks RRPV ties by way index, so positions are live).
    /// * **PLRU** — tags in way order plus the tree bits (the bits
    ///   address ways, so positions are live; stamps and tick are dead).
    /// * **NMRU** — tags in way order, the MRU way pointer, and the RNG
    ///   and tick that seed victim selection.
    /// * **Random** — tags in way order plus RNG and tick.
    ///
    /// Statistics and `valid_lines` (derived from the tags) are never
    /// folded.
    pub fn state_digest(&self, seed: u64) -> u64 {
        let ways = self.cfg.ways as usize;
        let mut d = mix64(seed, self.sets ^ (u64::from(self.cfg.ways) << 32));
        d = mix64(d, replacement_code(self.cfg.replacement));
        // Scratch for the per-set rank sort (LRU/FIFO only); hoisted out
        // of the set loop so the digest allocates at most once.
        let mut by_rank: Vec<(u64, u64)> = Vec::with_capacity(ways);
        for set in 0..self.sets {
            let row = self.row::<0>(set);
            match self.cfg.replacement {
                ReplacementPolicy::Lru | ReplacementPolicy::Fifo => {
                    by_rank.clear();
                    for w in 0..ways {
                        let tag = self.tags[row + w];
                        if tag != EMPTY {
                            by_rank.push((self.stamps[row + w], tag));
                        }
                    }
                    // Valid stamps are distinct within a cache (each
                    // write consumes a fresh tick), so this order is
                    // total and the sort is a pure rank canonicalization.
                    by_rank.sort_unstable();
                    d = mix64(d, by_rank.len() as u64);
                    for &(_, tag) in &by_rank {
                        d = mix64(d, tag);
                    }
                }
                ReplacementPolicy::Srrip => {
                    for w in 0..ways {
                        let tag = self.tags[row + w];
                        d = mix64(d, tag);
                        if tag != EMPTY {
                            d = mix64(d, self.stamps[row + w]);
                        }
                    }
                }
                ReplacementPolicy::PLru => {
                    for w in 0..ways {
                        d = mix64(d, self.tags[row + w]);
                    }
                    d = mix64(d, u64::from(self.set_bits[cast::idx(set)]));
                }
                ReplacementPolicy::Nmru => {
                    for w in 0..ways {
                        d = mix64(d, self.tags[row + w]);
                    }
                    d = mix64(d, u64::from(self.set_bits[cast::idx(set)]));
                }
                ReplacementPolicy::Random => {
                    for w in 0..ways {
                        d = mix64(d, self.tags[row + w]);
                    }
                }
            }
        }
        // RNG-driven policies consume (rng, tick) on every victim pick,
        // so both are live state there; everywhere else they are dead.
        if matches!(
            self.cfg.replacement,
            ReplacementPolicy::Random | ReplacementPolicy::Nmru
        ) {
            d = mix64(d, self.rng);
            d = mix64(d, self.tick);
        }
        d
    }

    /// Update replacement metadata after a hit on way `w`.
    #[inline]
    fn touch(&mut self, set: u64, row: usize, w: usize) {
        match self.cfg.replacement {
            ReplacementPolicy::Lru => self.stamps[row + w] = self.tick,
            ReplacementPolicy::Fifo => {} // insertion order only
            ReplacementPolicy::Random => {}
            ReplacementPolicy::PLru => self.plru_touch(set, w),
            ReplacementPolicy::Nmru => self.set_bits[cast::idx(set)] = cast::u32_exact(w as u64),
            ReplacementPolicy::Srrip => self.stamps[row + w] = 0, // near re-reference
        }
    }

    /// Branchless oldest-stamp scan: conditional moves instead of a
    /// data-dependent branch per way (ties keep the first minimum,
    /// matching the historical scan order). Inlined over a `[u64; W]`,
    /// the loop length is a constant and the scan unrolls.
    #[inline(always)]
    fn oldest(stamps: &[u64]) -> usize {
        let mut best = 0usize;
        let mut best_stamp = stamps[0];
        for (w, &s) in stamps.iter().enumerate().skip(1) {
            let better = s < best_stamp;
            best = if better { w } else { best };
            best_stamp = if better { s } else { best_stamp };
        }
        best
    }

    /// Choose a victim way in a full set, at set width `W`.
    #[inline]
    fn victim<const W: usize>(&mut self, set: u64, row: usize) -> usize {
        let ways = self.width::<W>();
        match self.cfg.replacement {
            ReplacementPolicy::Lru | ReplacementPolicy::Fifo => {
                if W == 0 {
                    Self::oldest(&self.stamps[row..row + ways])
                } else {
                    Self::oldest(Self::ways_at::<W>(&self.stamps, row))
                }
            }
            ReplacementPolicy::Random => {
                self.rng = mix64(self.rng, self.tick);
                cast::idx(self.rng % ways as u64)
            }
            ReplacementPolicy::PLru => self.plru_victim(set),
            ReplacementPolicy::Nmru => {
                let mru = self.set_bits[cast::idx(set)] as usize % ways;
                if ways == 1 {
                    0
                } else {
                    self.rng = mix64(self.rng, self.tick);
                    let pick = cast::idx(self.rng % (ways as u64 - 1));
                    if pick >= mru {
                        pick + 1
                    } else {
                        pick
                    }
                }
            }
            ReplacementPolicy::Srrip => {
                // Find a distant-re-reference line (RRPV 3), aging the
                // whole set until one appears. Terminates: each round
                // raises the max RRPV by one and it is capped at 3.
                loop {
                    if let Some(w) = (0..ways).find(|&w| self.stamps[row + w] >= 3) {
                        return w;
                    }
                    for w in 0..ways {
                        self.stamps[row + w] += 1;
                    }
                }
            }
        }
    }

    /// Fill `line` into `set`: prefer the invalid way found by the fused
    /// miss scan, fall back to the policy victim in a full set.
    #[inline]
    fn fill_into<const W: usize>(
        &mut self,
        set: u64,
        row: usize,
        empty: Option<usize>,
        line: LineAddr,
    ) -> Option<LineAddr> {
        let w = empty.unwrap_or_else(|| self.victim::<W>(set, row));
        let old = self.tags[row + w];
        let evicted = if old == EMPTY {
            self.valid_lines += 1;
            None
        } else {
            self.stats.evictions += 1;
            Some(LineAddr(old))
        };
        self.tags[row + w] = line.0;
        self.stamps[row + w] = self.tick;
        match self.cfg.replacement {
            ReplacementPolicy::PLru => self.plru_touch(set, w),
            ReplacementPolicy::Nmru => self.set_bits[cast::idx(set)] = cast::u32_exact(w as u64),
            // SRRIP inserts with a "long" re-reference prediction: the
            // line must prove itself with a hit before it outlives scans.
            ReplacementPolicy::Srrip => self.stamps[row + w] = 2,
            _ => {}
        }
        evicted
    }

    /// Tree-PLRU: flip the path bits toward `w` so they point *away*.
    fn plru_touch(&mut self, set: u64, w: usize) {
        let ways = self.cfg.ways as usize;
        if ways == 1 {
            return;
        }
        let mut bits = self.set_bits[cast::idx(set)];
        let levels = ways.trailing_zeros();
        let mut node = 0usize; // index within the implicit tree, root = 0
        for level in (0..levels).rev() {
            let bit = (w >> level) & 1;
            // Store the direction NOT taken (points to the PLRU side).
            if bit == 1 {
                bits &= !(1 << node);
            } else {
                bits |= 1 << node;
            }
            node = 2 * node + 1 + bit;
        }
        self.set_bits[cast::idx(set)] = bits;
    }

    /// Tree-PLRU victim: follow the stored bits from the root.
    fn plru_victim(&self, set: u64) -> usize {
        let ways = self.cfg.ways as usize;
        if ways == 1 {
            return 0;
        }
        let bits = self.set_bits[cast::idx(set)];
        let levels = ways.trailing_zeros();
        let mut node = 0usize;
        let mut w = 0usize;
        for _ in 0..levels {
            let dir = ((bits >> node) & 1) as usize;
            w = (w << 1) | dir;
            node = 2 * node + 1 + dir;
        }
        w
    }
}

/// A serializable image of a cache's microarchitectural state (the
/// substance of checkpointed warming: Flex points / Live points store
/// exactly this per detailed region).
///
/// Snapshots compare bit-for-bit (`PartialEq`), which is what the
/// batched-vs-per-access equivalence oracle pins down: two hierarchies
/// that took the same accesses must snapshot identically.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheSnapshot {
    tags: Vec<u64>,
    stamps: Vec<u64>,
    set_bits: Vec<u32>,
    tick: u64,
    valid_lines: u64,
}

impl CacheSnapshot {
    /// Number of valid lines captured.
    pub fn valid_lines(&self) -> u64 {
        self.valid_lines
    }

    /// Storage footprint of a Live-points-style serialization: one 8-byte
    /// tag plus one byte of replacement metadata per *valid* line (invalid
    /// ways are not stored).
    pub fn storage_bytes(&self) -> u64 {
        self.valid_lines * 9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(ways: u32, policy: ReplacementPolicy) -> Cache {
        // 4 sets × `ways` lines of 64 B.
        Cache::new(CacheConfig {
            size_bytes: 64 * 4 * ways as u64,
            ways,
            line_bytes: 64,
            replacement: policy,
        })
    }

    #[test]
    fn hit_after_fill() {
        let mut c = tiny(2, ReplacementPolicy::Lru);
        assert!(!c.access(LineAddr(0)).is_hit());
        assert!(c.access(LineAddr(0)).is_hit());
        assert!(c.probe(LineAddr(0)));
        assert!(!c.probe(LineAddr(4)));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny(2, ReplacementPolicy::Lru);
        // Lines 0, 4, 8 all map to set 0 (4 sets).
        c.access(LineAddr(0));
        c.access(LineAddr(4));
        c.access(LineAddr(0)); // 0 is now MRU
        match c.access(LineAddr(8)) {
            AccessResult::Miss { evicted } => assert_eq!(evicted, Some(LineAddr(4))),
            _ => panic!("expected miss"),
        }
        assert!(c.probe(LineAddr(0)));
        assert!(!c.probe(LineAddr(4)));
    }

    #[test]
    fn fifo_ignores_touches() {
        let mut c = tiny(2, ReplacementPolicy::Fifo);
        c.access(LineAddr(0));
        c.access(LineAddr(4));
        c.access(LineAddr(0)); // touch does not refresh FIFO order
        match c.access(LineAddr(8)) {
            AccessResult::Miss { evicted } => assert_eq!(evicted, Some(LineAddr(0))),
            _ => panic!("expected miss"),
        }
    }

    #[test]
    fn plru_follows_tree_bits() {
        let mut c = tiny(4, ReplacementPolicy::PLru);
        for l in [0u64, 4, 8, 12] {
            c.access(LineAddr(l)); // fill set 0: touch order w0..w3
        }
        // After the full fill sequence the tree points at w0; touching w0
        // flips the root to the right half, whose PLRU leaf is w2 (line 8).
        c.access(LineAddr(0));
        match c.access(LineAddr(16)) {
            AccessResult::Miss { evicted } => assert_eq!(evicted, Some(LineAddr(8))),
            _ => panic!("expected miss"),
        }
    }

    #[test]
    fn plru_never_evicts_most_recently_used() {
        let mut c = tiny(8, ReplacementPolicy::PLru);
        // Pseudo-random accesses within one set (stride = set count = 4).
        let mut last = LineAddr(0);
        for i in 0..500u64 {
            let line = LineAddr(4 * (delorean_trace::mix64(1, i) % 32));
            let r = c.access(line);
            if let AccessResult::Miss { evicted: Some(e) } = r {
                assert_ne!(e, last, "iteration {i}: evicted the MRU line");
            }
            last = line;
        }
    }

    #[test]
    fn nmru_never_evicts_mru() {
        let mut c = tiny(4, ReplacementPolicy::Nmru);
        for l in [0u64, 4, 8, 12] {
            c.access(LineAddr(l));
        }
        for round in 0..50u64 {
            let mru = LineAddr(12 + 16 * round); // last filled / touched
            c.access(mru);
            match c.access(LineAddr(12 + 16 * (round + 1))) {
                AccessResult::Miss { evicted } => {
                    assert_ne!(evicted, Some(mru), "round {round}: MRU evicted")
                }
                _ => panic!("expected miss"),
            }
        }
    }

    #[test]
    fn random_eventually_evicts_everything() {
        let mut c = tiny(4, ReplacementPolicy::Random);
        for l in [0u64, 4, 8, 12] {
            c.access(LineAddr(l));
        }
        let mut evicted = delorean_trace::FlatSet::new();
        for i in 1..200u64 {
            if let AccessResult::Miss { evicted: Some(e) } = c.access(LineAddr(16 * i)) {
                evicted.insert(e.0 % 16);
            }
        }
        assert!(
            evicted.len() >= 3,
            "random eviction too narrow: {evicted:?}"
        );
    }

    #[test]
    fn srrip_resists_streaming_scans() {
        // One hot line re-referenced between scan bursts longer than the
        // associativity: SRRIP keeps it (its hit resets the RRPV to 0
        // while scan lines enter at 2); LRU loses it to every burst.
        let hot = LineAddr(0);
        let scan = |i: u64| LineAddr(4 + 4 * i); // same set, distinct lines
        let run = |policy| {
            let mut c = tiny(4, policy);
            c.access(hot);
            c.access(hot); // prime: under SRRIP the hit marks it near-re-reference
            let mut hot_hits = 0;
            for round in 0..50u64 {
                for b in 0..5 {
                    c.access(scan(round * 5 + b));
                }
                if c.access(hot).is_hit() {
                    hot_hits += 1;
                }
            }
            hot_hits
        };
        let srrip_hits = run(ReplacementPolicy::Srrip);
        let lru_hits = run(ReplacementPolicy::Lru);
        assert_eq!(lru_hits, 0, "LRU must thrash under the scan");
        assert_eq!(srrip_hits, 50, "SRRIP should retain the hot line");
    }

    #[test]
    fn srrip_victim_search_terminates_and_evicts() {
        let mut c = tiny(4, ReplacementPolicy::Srrip);
        for i in 0..100u64 {
            c.access(LineAddr(i * 4)); // all map to set 0
        }
        assert_eq!(c.stats().misses, 100);
        assert!(c.stats().evictions >= 96);
    }

    #[test]
    fn fill_does_not_count_access() {
        let mut c = tiny(2, ReplacementPolicy::Lru);
        c.fill(LineAddr(0));
        assert_eq!(c.stats().accesses(), 0);
        assert!(c.probe(LineAddr(0)));
        assert!(c.access(LineAddr(0)).is_hit());
        assert_eq!(c.stats().hits, 1);
    }

    /// Test oracle: valid ways in the line's set, and the associativity,
    /// read straight from the tag array.
    fn occupancy(c: &Cache, line: LineAddr) -> (u32, u32) {
        let used = c.set_tags(line).iter().filter(|&&t| t != EMPTY).count();
        (used as u32, c.cfg.ways)
    }

    /// Test oracle: every way of the line's set holds a valid line.
    fn set_is_full(c: &Cache, line: LineAddr) -> bool {
        let (used, ways) = occupancy(c, line);
        used == ways
    }

    #[test]
    fn probe_set_matches_probe_plus_set_is_full() {
        let mut c = tiny(2, ReplacementPolicy::Lru);
        for i in 0..40u64 {
            c.access(LineAddr(delorean_trace::mix64(3, i) % 24));
            for l in 0..24u64 {
                let line = LineAddr(l);
                assert_eq!(
                    c.probe_set(line),
                    (c.probe(line), set_is_full(&c, line)),
                    "probe_set diverged on line {l} after {i} accesses"
                );
            }
        }
    }

    #[test]
    fn occupancy_and_warm_fraction() {
        let mut c = tiny(2, ReplacementPolicy::Lru);
        assert_eq!(occupancy(&c, LineAddr(0)), (0, 2));
        c.access(LineAddr(0));
        assert_eq!(occupancy(&c, LineAddr(0)), (1, 2));
        assert!(!set_is_full(&c, LineAddr(0)));
        c.access(LineAddr(4));
        assert!(set_is_full(&c, LineAddr(0)));
        assert!((c.warm_fraction() - 2.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn invalidate_removes_lines() {
        let mut c = tiny(2, ReplacementPolicy::Lru);
        c.access(LineAddr(0));
        assert!(c.invalidate(LineAddr(0)));
        assert!(!c.invalidate(LineAddr(0)));
        assert!(!c.probe(LineAddr(0)));
        assert_eq!(c.warm_fraction(), 0.0);
    }

    #[test]
    fn distinct_sets_do_not_interfere() {
        let mut c = tiny(2, ReplacementPolicy::Lru);
        for l in 0..4u64 {
            c.access(LineAddr(l)); // four different sets
        }
        for l in 0..4u64 {
            assert!(c.probe(LineAddr(l)));
        }
    }

    #[test]
    fn snapshot_round_trips_exactly() {
        let mut c = tiny(2, ReplacementPolicy::Lru);
        for i in 0..50u64 {
            c.access(LineAddr(delorean_trace::mix64(1, i) % 32));
        }
        let snap = c.snapshot();
        assert!(snap.valid_lines() > 0);
        assert_eq!(snap.storage_bytes(), snap.valid_lines() * 9);
        // Mutate, restore, and verify behavioural equivalence.
        let mut probe_before: Vec<bool> = (0..32).map(|l| c.probe(LineAddr(l))).collect();
        for i in 0..100u64 {
            c.access(LineAddr(100 + i));
        }
        c.restore(&snap);
        let probe_after: Vec<bool> = (0..32).map(|l| c.probe(LineAddr(l))).collect();
        assert_eq!(probe_before, probe_after);
        // Replacement order was restored too: next evictions match a
        // freshly-restored twin.
        let mut twin = tiny(2, ReplacementPolicy::Lru);
        twin.restore(&snap);
        for i in 0..50u64 {
            let a = c.access(LineAddr(1000 + i % 8));
            let b = twin.access(LineAddr(1000 + i % 8));
            assert_eq!(a, b, "divergence after restore at step {i}");
        }
        probe_before.clear();
    }

    #[test]
    #[should_panic(expected = "snapshot geometry mismatch")]
    fn snapshot_rejects_wrong_geometry() {
        let c = tiny(2, ReplacementPolicy::Lru);
        let snap = c.snapshot();
        let mut other = tiny(4, ReplacementPolicy::Lru);
        other.restore(&snap);
    }

    #[test]
    fn lru_digest_canonicalizes_dead_bytes() {
        // Two LRU caches driven over the same cyclic line sequence, one
        // from the start and one from a cycle boundary onward, end at
        // the same stream position with the same tags and the same
        // recency *order* — but different absolute stamps and ticks (and
        // potentially different way assignments). The live-state digest
        // must see through the dead bytes; the raw snapshot must not.
        let lines = 6u64; // cycles through sets 0..=1 of the 4-set cache
        let seq = |i: u64| LineAddr(i % lines);
        let mut full = tiny(2, ReplacementPolicy::Lru);
        let mut window = tiny(2, ReplacementPolicy::Lru);
        for i in 0..3 * lines {
            full.access(seq(i));
        }
        for i in lines..3 * lines {
            window.access(seq(i));
        }
        assert_eq!(full.state_digest(7), window.state_digest(7));
        assert_ne!(full.snapshot(), window.snapshot(), "stamps must differ");
        // Equal digests ⇒ identical future behaviour, including victims.
        for i in 0..200u64 {
            let line = LineAddr(delorean_trace::mix64(9, i) % 24);
            assert_eq!(full.access(line), window.access(line), "step {i}");
            assert_eq!(full.state_digest(7), window.state_digest(7), "step {i}");
        }
    }

    #[test]
    fn digest_differs_when_tags_or_order_differ() {
        let mut a = tiny(2, ReplacementPolicy::Lru);
        let mut b = tiny(2, ReplacementPolicy::Lru);
        a.access(LineAddr(0));
        b.access(LineAddr(4)); // same set, different line
        assert_ne!(a.state_digest(7), b.state_digest(7));
        // Same resident lines, different recency order.
        let mut c = tiny(2, ReplacementPolicy::Lru);
        let mut d = tiny(2, ReplacementPolicy::Lru);
        c.access(LineAddr(0));
        c.access(LineAddr(4));
        d.access(LineAddr(4));
        d.access(LineAddr(0));
        assert_ne!(c.state_digest(7), d.state_digest(7));
        // Seed changes the digest.
        assert_ne!(c.state_digest(7), c.state_digest(8));
    }

    #[test]
    fn rng_policies_fold_rng_and_tick() {
        // Random replacement consumes (rng, tick) on every victim pick,
        // so two caches with identical tags but different ticks are NOT
        // behaviourally equal — the digest must distinguish them.
        let mut a = tiny(2, ReplacementPolicy::Random);
        let mut b = tiny(2, ReplacementPolicy::Random);
        a.access(LineAddr(0));
        b.access(LineAddr(8)); // tick advances; line 8 maps to set 0 too
        b.invalidate(LineAddr(8));
        b.access(LineAddr(0));
        assert_ne!(a.state_digest(7), b.state_digest(7));
    }

    #[test]
    fn copy_state_from_matches_clone() {
        let mut src = tiny(4, ReplacementPolicy::PLru);
        for i in 0..300u64 {
            src.access(LineAddr(delorean_trace::mix64(5, i) % 64));
        }
        let mut dst = tiny(4, ReplacementPolicy::PLru);
        dst.access(LineAddr(999)); // dirty the destination first
        dst.copy_state_from(&src);
        assert_eq!(dst.snapshot(), src.snapshot());
        assert_eq!(dst.stats(), src.stats());
        assert_eq!(dst.state_digest(1), src.state_digest(1));
        for i in 0..100u64 {
            let line = LineAddr(delorean_trace::mix64(6, i) % 64);
            assert_eq!(dst.access(line), src.access(line), "step {i}");
        }
    }

    #[test]
    #[should_panic(expected = "cache geometry mismatch")]
    fn copy_state_rejects_wrong_geometry() {
        let src = tiny(2, ReplacementPolicy::Lru);
        let mut dst = tiny(4, ReplacementPolicy::Lru);
        dst.copy_state_from(&src);
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let mut c = tiny(2, ReplacementPolicy::Lru);
        c.access(LineAddr(0));
        c.access(LineAddr(0));
        c.access(LineAddr(1));
        let s = c.stats();
        assert_eq!(s.accesses(), 3);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
        c.reset_stats();
        assert_eq!(c.stats().accesses(), 0);
    }
}
