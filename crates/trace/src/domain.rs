//! Line domains: one index range of a workload, split by the pages its
//! accesses touch ([`LineDomains`]), and walked in *page runs*
//! ([`LineRun`]). The one watchpoint scan that walks them is
//! `delorean_virt::profile_reuses`.
//!
//! A page run is a stretch of one domain's accesses, consecutive in the
//! domain's own index order, that touch consecutive lines of one page.
//! A watchpoint scan classifies a whole run with one mask test: until
//! the watch set changes (a sample arms or resolves) or a watched line is
//! touched, every access of the run traps or none does.

use crate::cursor::AccessCursor;
use crate::types::{LineAddr, PageAddr};
use crate::Workload;
use std::ops::Range;

/// A page run of one line domain: `len` accesses of the domain, the
/// next `len` in its index order, touching the lines `line`, `line + 1`,
/// …, `line + len − 1`, all on `line`'s page.
///
/// A domain numbers its accesses with *ordinals* that rise with their
/// index and are consecutive within each run: access `o` of the run
/// (`0 ≤ o < len`) has ordinal `ordinal + o`, touches `line + o`, and
/// sits at global index [`LineDomains::index_of`]`(ordinal + o)`. The
/// indices need not be consecutive: other domains' accesses may sit
/// between them.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct LineRun {
    /// Global index of the run's first access.
    pub index: u64,
    /// The domain's ordinal of the run's first access.
    pub ordinal: u64,
    /// The line the first access touches.
    pub line: LineAddr,
    /// Accesses in the run: 1 to 64, a page's lines.
    pub len: u32,
}

impl LineRun {
    /// A run of the one access at `index`, in a split whose ordinals
    /// are global indices.
    pub fn single(index: u64, line: LineAddr) -> Self {
        LineRun {
            index,
            ordinal: index,
            line,
            len: 1,
        }
    }
}

/// One index range of a workload's accesses, split into page-disjoint
/// *line domains*. Produced by [`Workload::line_domains`]; domains are
/// numbered `0..count()`.
///
/// A watchpoint scan (the explorers and CoolSim's interval) can learn
/// something from an access only if the access touches a watched page.
/// When a workload's accesses fall into groups that never share a page,
/// each group can be scanned on its own, in its own index order, and a
/// group with no watched line can be jumped over instead of generated.
/// A split promises:
///
/// * every access of the range belongs to exactly one domain;
/// * no page is touched by two domains, so every line belongs to at most
///   one domain ([`domain_of_line`](LineDomains::domain_of_line));
/// * each domain's accesses can be produced in increasing index order
///   from any starting index, as page runs ([`fill`](LineDomains::fill)),
///   and an ordinal maps back to its index
///   ([`index_of`](LineDomains::index_of)) in O(1);
/// * a split with a bounded footprint reports the one page span its
///   domains claim ([`page_span`](LineDomains::page_span)), so a scan
///   can index its watched pages directly instead of hashing them.
///
/// The default split is one domain holding the whole range and claiming
/// every line, walked through the workload's own cursor in runs of 1. A
/// [`PhasedWorkload`](crate::PhasedWorkload) returns one domain per
/// compiled stream: its builder gives each stream a page-aligned
/// footprint followed by a guard page (`phased::tests::
/// footprints_do_not_overlap` pins this for the whole suite at every
/// scale), and every stream pattern is position addressable, so a jump
/// is one O(1) seek. Its stride-1 `Stream` patterns walk in runs of up
/// to 64; every other pattern in runs of 1.
pub trait LineDomains {
    /// Number of domains (≥ 1).
    fn count(&self) -> usize;

    /// The domain whose pages hold `line`, or `None` if no domain claims
    /// it (no access of any domain touches it).
    fn domain_of_line(&self, line: LineAddr) -> Option<usize>;

    /// The pages the domains claim, as one span (guard pages between
    /// domains included), or `None` if the split bounds no span (the
    /// one domain claims every line). Every access of every domain
    /// touches a page in the span.
    fn page_span(&self) -> Option<Range<PageAddr>>;

    /// Clear `out` and push the domain of each access index in
    /// `indices`, all of which lie in the split's range, with the
    /// access's ordinal in it.
    fn domains_of(&self, indices: &[u64], out: &mut Vec<(usize, u64)>);

    /// Clear `out` and refill it with the page runs of up to `max`
    /// (≥ 1) of `domain`'s accesses, in increasing index order, starting
    /// at its first access with index `≥ from` (and in the split's
    /// range). Returns the number of accesses the runs hold; `0` means
    /// the domain has no access left in the range.
    ///
    /// A call whose `from` is one past the last index the previous call
    /// on the same domain produced continues that walk; any other `from`
    /// seeks.
    fn fill(&mut self, domain: usize, from: u64, out: &mut Vec<LineRun>, max: usize) -> usize;

    /// Global index of `domain`'s access with ordinal `ordinal`.
    ///
    /// The default serves a split whose ordinals are global indices, as
    /// the one-domain split's are.
    fn index_of(&self, domain: usize, ordinal: u64) -> u64 {
        let _ = domain;
        ordinal
    }
}

/// The one-domain split: the whole range, claiming every line, walked
/// through the workload's [`cursor`](Workload::cursor) (re-opened on a
/// seek) in runs of 1. The default [`Workload::line_domains`].
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

    fn page_span(&self) -> Option<Range<PageAddr>> {
        None
    }

    fn domains_of(&self, indices: &[u64], out: &mut Vec<(usize, u64)>) {
        out.clear();
        out.extend(indices.iter().map(|&k| (0, k)));
    }

    fn fill(&mut self, domain: usize, from: u64, out: &mut Vec<LineRun>, max: usize) -> usize {
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
        out.extend(
            (from..)
                .zip(self.lines.iter().copied())
                .map(|(k, line)| LineRun::single(k, line)),
        );
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
        assert_eq!(split.page_span(), None);
        let mut owners = Vec::new();
        split.domains_of(&[100, 250, 399], &mut owners);
        assert_eq!(owners, vec![(0, 100), (0, 250), (0, 399)]);
        let mut buf = Vec::new();
        let mut seen = Vec::new();
        let mut from = 100;
        while split.fill(0, from, &mut buf, 64) > 0 {
            seen.extend(buf.iter().copied());
            from = buf[buf.len() - 1].index + 1;
        }
        // Runs of 1, one per access.
        let expected: Vec<LineRun> = (100..400)
            .map(|k| LineRun::single(k, w.access_at(k).line()))
            .collect();
        assert_eq!(seen, expected);
        assert_eq!(split.index_of(0, expected[7].ordinal), 107);
        // A jump re-opens the cursor at the target.
        assert_eq!(split.fill(0, 321, &mut buf, 2), 2);
        assert_eq!(buf, expected[221..223].to_vec());
        assert_eq!(split.fill(0, 400, &mut buf, 2), 0);
        assert_eq!(split.fill(0, 0, &mut buf, 1), 1);
        assert_eq!(buf, expected[..1].to_vec());
    }
}
