//! Line domains: one index range of a workload, split by the pages its
//! accesses touch ([`LineDomains`]), and the one watchpoint walk over
//! them ([`walk_domains`]).

use crate::cursor::{AccessCursor, CURSOR_BATCH};
use crate::types::LineAddr;
use crate::Workload;
use std::ops::Range;

/// One index range of a workload's accesses, split into page-disjoint
/// *line domains*. Produced by [`Workload::line_domains`]; domains are
/// numbered `0..count()`.
///
/// A watchpoint scan (the VDP Explorers) can learn something from an
/// access only if the access touches a watched page. When a workload's
/// accesses fall into groups that never share a page, each group can be
/// scanned on its own, in its own index order, and a group with no
/// watched line can be jumped over instead of generated. A split
/// promises:
///
/// * every access of the range belongs to exactly one domain;
/// * no page is touched by two domains, so every line belongs to at most
///   one domain ([`domain_of_line`](LineDomains::domain_of_line));
/// * each domain's accesses can be produced in increasing index order
///   from any starting index ([`fill`](LineDomains::fill)).
///
/// The default split is one domain holding the whole range and claiming
/// every line, walked through the workload's own cursor. A [`PhasedWorkload`](crate::PhasedWorkload) returns one domain
/// per compiled stream: its builder gives each stream a page-aligned
/// footprint followed by a guard page (`phased::tests::
/// footprints_do_not_overlap` pins this for the whole suite at every
/// scale), and every stream pattern is position addressable, so a jump
/// is one O(1) seek.
pub trait LineDomains {
    /// Number of domains (≥ 1).
    fn count(&self) -> usize;

    /// The domain whose pages hold `line`, or `None` if no domain claims
    /// it (no access of any domain touches it).
    fn domain_of_line(&self, line: LineAddr) -> Option<usize>;

    /// Clear `out` and push the domain of each access index in
    /// `indices`, all of which lie in the split's range.
    fn domains_of(&self, indices: &[u64], out: &mut Vec<usize>);

    /// Clear `out` and refill it with up to `max` `(index, line)` pairs of
    /// `domain`'s accesses, in increasing index order, starting at its
    /// first access with index `≥ from` (and in the split's range).
    /// Returns the number produced; `0` means the domain has no access
    /// left in the range.
    ///
    /// A call whose `from` is one past the last index the previous call
    /// on the same domain produced continues that walk; any other `from`
    /// seeks.
    fn fill(
        &mut self,
        domain: usize,
        from: u64,
        out: &mut Vec<(u64, LineAddr)>,
        max: usize,
    ) -> usize;
}

/// What one visited access did to its domain's watched lines.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Visit {
    /// A watched line was released (a sample resolved).
    pub resolved: bool,
    /// A watch was armed at this access's line (a sample was taken).
    pub armed: bool,
}

/// First batch of a walk that starts at a jump: most walks end at the
/// first reuse of the sample that started them, a few dozen accesses on.
const JUMP_BATCH: usize = 32;

/// Walk every domain of `domains`, in domain order, calling
/// `visit(index, line, arm)` on each access that can matter; returns the
/// number of accesses generated (at most the split's range length).
///
/// `samples` are the sample positions of the whole range in increasing
/// index order; `arm` is true exactly at them. `held[d]` is the number of
/// watched lines domain `d` holds before the walk (keys armed for the
/// whole range); the walk follows each domain's count through the
/// [`Visit`] the visitor returns.
///
/// Every watchpoint profiler scans through this walk: Explorer-1, the
/// VDP explorers and CoolSim's warm-up interval. Every watchpoint, trap,
/// watched line and sample belongs to exactly one domain, and every fold
/// of such a scan is order-independent across domains: a key's last
/// access and a sample's reuse are per line and each domain is walked in
/// increasing index order, each trap adds the same constant to the
/// clock, and histogram weights are 1 (so `f64` sums are exact in any
/// order). So each domain is walked on its own, and
///
/// * while a domain holds a watched line (a pending key or an armed
///   sample), it is walked access by access;
/// * while it holds none, nothing in it can trap or resolve, and only a
///   sample can arm a watch there; sample positions are a pure function
///   of the index ([`CounterRng::one_in_positions`](crate::CounterRng::one_in_positions),
///   found in one pass before the walk), so the walk jumps straight to
///   the domain's next sample.
///
/// A watched line that no domain claims keeps every domain walking
/// (`walk_all`). The one-domain default holds every line, so for tiles
/// and other workloads the walk is linear while any line is watched and
/// jumps only while none is. The visitor is a type parameter, so each
/// profiler's per-access body is monomorphized into the loop: the only
/// dynamic call is one [`LineDomains::fill`] per batch.
pub fn walk_domains<V>(
    domains: &mut dyn LineDomains,
    samples: &[u64],
    held: &[u32],
    walk_all: bool,
    mut visit: V,
) -> u64
where
    V: FnMut(u64, LineAddr, bool) -> Visit,
{
    let n = domains.count();
    debug_assert_eq!(held.len(), n, "one held count per domain");
    let mut owner = Vec::with_capacity(samples.len());
    domains.domains_of(samples, &mut owner);
    let mut grouped = vec![Vec::new(); n];
    for (&k, d) in samples.iter().zip(owner) {
        grouped[d].push(k);
    }
    let mut buf = Vec::with_capacity(CURSOR_BATCH);
    let mut generated = 0;
    for (d, (&held, samples)) in held.iter().zip(&grouped).enumerate() {
        generated += walk_one(domains, d, samples, held, walk_all, &mut buf, &mut visit);
    }
    generated
}

/// Walk domain `d` from the start of the split's range; see
/// [`walk_domains`]. `samples` are the domain's own sample positions.
fn walk_one<V>(
    domains: &mut dyn LineDomains,
    d: usize,
    samples: &[u64],
    mut held: u32,
    walk_all: bool,
    buf: &mut Vec<(u64, LineAddr)>,
    visit: &mut V,
) -> u64
where
    V: FnMut(u64, LineAddr, bool) -> Visit,
{
    let mut generated = 0;
    let mut next = 0usize;
    // A split clamps `from` to its range, so 0 asks for its first access.
    let mut from = 0;
    let mut batch = CURSOR_BATCH;
    loop {
        if held == 0 && !walk_all {
            let Some(&s) = samples.get(next) else { break };
            from = s;
            batch = JUMP_BATCH;
        }
        let got = domains.fill(d, from, buf, batch);
        if got == 0 {
            break;
        }
        generated += got as u64;
        batch = (batch * 2).min(CURSOR_BATCH);
        // A split never skips one of its own sample positions; if one
        // did, drop the sample rather than jump back to it forever.
        let skipped = samples[next..].partition_point(|&s| s < buf[0].0);
        debug_assert_eq!(skipped, 0, "domain {d} skipped a sample position");
        next += skipped;
        let mut i = 0;
        while i < got {
            let (k, line) = buf[i];
            i += 1;
            let arm = samples.get(next) == Some(&k);
            next += usize::from(arm);
            let step = visit(k, line, arm);
            held = held - u32::from(step.resolved) + u32::from(step.armed);
            if held == 0 && !walk_all {
                // Idle: nothing before the next sample can matter.
                let Some(&s) = samples.get(next) else {
                    return generated;
                };
                while i < got && buf[i].0 < s {
                    i += 1;
                }
            }
        }
        from = buf[got - 1].0 + 1;
    }
    generated
}

/// The one-domain split: the whole range, claiming every line, walked
/// through the workload's [`cursor`](Workload::cursor) (re-opened on a
/// seek). The default [`Workload::line_domains`].
#[derive(Debug)]
pub(crate) struct WholeRange<'w, W: Workload + ?Sized> {
    workload: &'w W,
    range: Range<u64>,
    cursor: Option<Box<dyn AccessCursor + 'w>>,
    lines: Vec<LineAddr>,
}

impl<'w, W: Workload + ?Sized> WholeRange<'w, W> {
    /// The split of `workload`'s accesses with `index ∈ range` into one
    /// domain.
    pub(crate) fn new(workload: &'w W, range: Range<u64>) -> Self {
        WholeRange {
            workload,
            range,
            cursor: None,
            lines: Vec::new(),
        }
    }
}

impl<W: Workload + ?Sized> LineDomains for WholeRange<'_, W> {
    fn count(&self) -> usize {
        1
    }

    fn domain_of_line(&self, _line: LineAddr) -> Option<usize> {
        Some(0)
    }

    fn domains_of(&self, indices: &[u64], out: &mut Vec<usize>) {
        out.clear();
        out.resize(indices.len(), 0);
    }

    fn fill(
        &mut self,
        domain: usize,
        from: u64,
        out: &mut Vec<(u64, LineAddr)>,
        max: usize,
    ) -> usize {
        debug_assert_eq!(domain, 0, "a whole-range split has one domain");
        out.clear();
        let from = from.max(self.range.start);
        if from >= self.range.end {
            return 0;
        }
        if self.cursor.as_ref().is_none_or(|c| c.position() != from) {
            self.cursor = Some(self.workload.cursor(from..self.range.end));
        }
        let Some(cursor) = self.cursor.as_mut() else {
            return 0;
        };
        let n = cursor.fill_lines(&mut self.lines, max);
        out.extend((from..).zip(self.lines.iter().copied()));
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{spec_workload, Scale};

    #[test]
    fn whole_range_walks_and_seeks_the_cursor() {
        let w = spec_workload("mcf", Scale::tiny(), 3).unwrap();
        let mut split = WholeRange::new(&w, 100..400);
        assert_eq!(split.count(), 1);
        assert_eq!(split.domain_of_line(LineAddr(12345)), Some(0));
        let mut owners = Vec::new();
        split.domains_of(&[100, 250, 399], &mut owners);
        assert_eq!(owners, vec![0, 0, 0]);
        let mut buf = Vec::new();
        let mut seen = Vec::new();
        let mut from = 100;
        while split.fill(0, from, &mut buf, 64) > 0 {
            seen.extend(buf.iter().copied());
            from = buf[buf.len() - 1].0 + 1;
        }
        let expected: Vec<(u64, LineAddr)> =
            (100..400).map(|k| (k, w.access_at(k).line())).collect();
        assert_eq!(seen, expected);
        // A jump re-opens the cursor at the target.
        assert_eq!(split.fill(0, 321, &mut buf, 2), 2);
        assert_eq!(buf, expected[221..223].to_vec());
        assert_eq!(split.fill(0, 400, &mut buf, 2), 0);
        assert_eq!(split.fill(0, 0, &mut buf, 1), 1);
        assert_eq!(buf, expected[..1].to_vec());
    }
}
