//! The greedy-then-oldest (GTO) warp scheduler with Poise's vital and
//! pollute bits.
//!
//! Each scheduler manages an age-ordered queue of warps (warp index equals
//! age: all warps of a kernel activate at launch). Poise's modification
//! (paper Fig. 6) adds per-entry *vital* and *pollute* bits derived from the
//! active warp-tuple `{N, p}`: only the `N` oldest warps are arbitrated,
//! and only the `p` oldest carry polluting privileges on their loads.

use crate::WarpTuple;

/// Scheduling state of one warp scheduler (not the warps themselves, which
/// live in the SM so they can be shared with the memory path).
#[derive(Debug, Clone)]
pub struct WarpScheduler {
    /// Number of warp slots populated for this kernel.
    pub n_warps: usize,
    /// Active warp-tuple. Snapshot restore writes this raw (bypassing the
    /// [`WarpScheduler::set_tuple`] clamp) so the restored value is
    /// bit-identical to the saved one.
    pub(crate) tuple: WarpTuple,
    /// Index of the warp currently favoured by the greedy policy.
    pub(crate) greedy: usize,
    /// Reject memo: bit `w` set iff the L1 rejected warp `w`'s stashed
    /// load and no MSHR for its line was allocated or completed since
    /// ([`WarpScheduler::known_rejects`]). Derived state: never
    /// snapshotted, empty after a restore.
    pub(crate) rejected: u64,
    /// The bits of `rejected` whose load hit the merge limit of its
    /// line's in-flight MSHR entry; these hold whatever the free list.
    pub(crate) merge_limited: u64,
    /// The stashed line of each warp in `rejected`, so an MSHR change for
    /// one line forgets exactly the warps waiting to load it.
    pub(crate) rejected_line: Vec<u64>,
}

impl WarpScheduler {
    /// Create a scheduler over `n_warps` warps, starting at the maximal
    /// tuple (all warps vital and polluting).
    pub fn new(n_warps: usize) -> Self {
        WarpScheduler {
            n_warps,
            tuple: WarpTuple::max(n_warps),
            greedy: 0,
            rejected: 0,
            merge_limited: 0,
            rejected_line: vec![0; n_warps],
        }
    }

    /// The active warp-tuple.
    pub fn tuple(&self) -> WarpTuple {
        self.tuple
    }

    /// Install a new warp-tuple (clamped to this scheduler's warp count).
    pub fn set_tuple(&mut self, t: WarpTuple) {
        self.tuple = WarpTuple::new(t.n, t.p, self.n_warps);
    }

    /// Vital bit of warp `w`: participates in arbitration.
    #[inline]
    pub fn vital(&self, w: usize) -> bool {
        w < self.tuple.n
    }

    /// Pollute bit of warp `w`: loads may allocate L1 lines.
    #[inline]
    pub fn pollute(&self, w: usize) -> bool {
        w < self.tuple.p
    }

    /// Record that warp `w` issued; it becomes the greedy favourite.
    #[inline]
    pub fn note_issue(&mut self, w: usize) {
        self.greedy = w;
    }

    /// The warp currently favoured by the greedy policy, if any warp has
    /// issued yet.
    #[inline]
    pub fn greedy_warp(&self) -> Option<usize> {
        (self.greedy < self.n_warps).then_some(self.greedy)
    }

    /// The greedy favourite as a warp bitmask.
    #[inline]
    pub(crate) fn greedy_bit(&self) -> u64 {
        self.greedy_warp().map_or(0, |g| 1u64 << g)
    }

    /// The warps whose stashed load is a known reject: every memo'd warp
    /// while no MSHR is free, otherwise only the merge-limited ones (the
    /// validity rules and why they are exact are in the `gpu` module
    /// docs).
    #[inline]
    pub(crate) fn known_rejects(&self, mshrs_exhausted: bool) -> u64 {
        if mshrs_exhausted {
            self.rejected
        } else {
            self.merge_limited
        }
    }

    /// Record that the L1 rejected warp `w`'s load of `line`.
    #[inline]
    pub(crate) fn note_reject(&mut self, w: usize, line: u64, merge_limited: bool) {
        let bit = 1u64 << w;
        self.rejected |= bit;
        if merge_limited {
            self.merge_limited |= bit;
        }
        self.rejected_line[w] = line;
    }

    /// Forget warp `w`'s memo (it is about to be probed for real).
    #[inline]
    pub(crate) fn forget(&mut self, w: usize) {
        self.rejected &= !(1u64 << w);
        self.merge_limited &= !(1u64 << w);
    }

    /// Forget every warp whose stashed load targets `line`: an MSHR for
    /// it was just allocated or completed.
    #[inline]
    pub(crate) fn forget_line(&mut self, line: u64) {
        let mut marked = self.rejected;
        while marked != 0 {
            let w = marked.trailing_zeros() as usize;
            marked &= marked - 1;
            if self.rejected_line[w] == line {
                self.forget(w);
            }
        }
    }

    /// Candidate warps in GTO priority order: the greedy favourite first,
    /// then remaining vital warps oldest-first.
    ///
    /// The returned iterator yields at most `N` distinct warp indices.
    pub fn candidates(&self) -> impl Iterator<Item = usize> + '_ {
        let greedy = if self.vital(self.greedy) {
            Some(self.greedy)
        } else {
            None
        };
        greedy
            .into_iter()
            .chain((0..self.tuple.n.min(self.n_warps)).filter(move |&w| Some(w) != greedy))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidates_start_with_greedy_then_oldest() {
        let mut s = WarpScheduler::new(4);
        s.note_issue(2);
        let order: Vec<_> = s.candidates().collect();
        assert_eq!(order, vec![2, 0, 1, 3]);
    }

    #[test]
    fn candidates_respect_vital_limit() {
        let mut s = WarpScheduler::new(8);
        s.set_tuple(WarpTuple::new(3, 1, 8));
        s.note_issue(5); // no longer vital
        let order: Vec<_> = s.candidates().collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn pollute_bits_cover_p_oldest() {
        let mut s = WarpScheduler::new(8);
        s.set_tuple(WarpTuple::new(6, 2, 8));
        assert!(s.pollute(0) && s.pollute(1));
        assert!(!s.pollute(2));
        assert!(s.vital(5) && !s.vital(6));
    }

    #[test]
    fn set_tuple_clamps_to_warp_count() {
        let mut s = WarpScheduler::new(4);
        s.set_tuple(WarpTuple::new(24, 24, 24));
        assert_eq!(s.tuple(), WarpTuple { n: 4, p: 4 });
    }

    #[test]
    fn greedy_warp_listed_once() {
        let mut s = WarpScheduler::new(4);
        s.note_issue(0);
        let order: Vec<_> = s.candidates().collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }
}
