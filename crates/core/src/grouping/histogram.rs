//! Concurrent-activity accounting for a tenant-group under construction.
//!
//! The fuzzy-capacity constraint of the LIVBPwFC (Chapter 5) asks, for a set
//! `S` of tenants: in what fraction of epochs are at most `R` members of `S`
//! concurrently active? [`ActiveCountHistogram`] maintains, per epoch, the
//! number of active members (`counts`) plus a histogram over those counts
//! (`level_hist`), so that
//!
//! * adding a tenant costs `O(active epochs of the tenant)`,
//! * the TTP ("total time percentage" with ≤ R active) is read off the
//!   histogram in `O(levels)`, and
//! * the TTP a *candidate* tenant would leave, without committing it, costs
//!   `O(active epochs of the candidate)` and allocates nothing
//!   ([`ActiveCountHistogram::ttp_with`]).
//!
//! FFD and the exact solver test one candidate against many open groups,
//! so they evaluate through this type. The 2-step heuristic's Step 2
//! compares every remaining candidate against one growing group instead
//! and keeps per-candidate concurrency profiles for that (the `profiles`
//! module); [`compare_level_hists`] is the order both read.
//!
//! Either way the evaluation is incremental: a dense recomputation would
//! cost `O(d)` per candidate (26 million epochs at the finest setting of
//! Figure 7.1). That gap is untimed;
//! `histogram_ttp_matches_dense_recomputation` (`tests/properties.rs`)
//! checks that both give the same TTP.

use crate::activity::ActivityVector;

/// Per-epoch concurrent-active counts and the histogram over count levels
/// for one tenant-group.
#[derive(Clone, Debug)]
pub struct ActiveCountHistogram {
    /// `counts[k]` = number of group members active in epoch `k`.
    counts: Vec<u16>,
    /// `level_hist[c]` = number of epochs whose count is exactly `c`.
    level_hist: Vec<u64>,
    /// Number of members added so far.
    members: usize,
}

impl ActiveCountHistogram {
    /// An empty group over `d` epochs.
    pub fn new(d: u32) -> Self {
        ActiveCountHistogram {
            counts: vec![0; d as usize],
            level_hist: vec![d as u64],
            members: 0,
        }
    }

    /// Number of epochs `d`.
    pub fn d(&self) -> u32 {
        self.counts.len() as u32
    }

    /// Number of members added.
    pub fn members(&self) -> usize {
        self.members
    }

    /// The histogram over count levels (`[c]` = epochs with exactly `c`
    /// active members). Trailing zero levels are trimmed lazily, so
    /// `len() - 1` can exceed the highest level that occurs.
    pub fn level_hist(&self) -> &[u64] {
        &self.level_hist
    }

    /// Number of epochs with **more than** `r` concurrently active members.
    pub fn epochs_above(&self, r: u32) -> u64 {
        self.level_hist.iter().skip(r as usize + 1).sum()
    }

    /// The TTP: fraction of epochs with at most `r` active members
    /// (`COUNT^{≤R}(Σ A_i) / d` in the paper's notation).
    pub fn ttp(&self, r: u32) -> f64 {
        if self.counts.is_empty() {
            return 1.0;
        }
        1.0 - self.epochs_above(r) as f64 / self.counts.len() as f64
    }

    /// Commits a member's activity into the group.
    ///
    /// # Panics
    /// Panics if the vector's dimensionality differs from the group's.
    pub fn add(&mut self, v: &ActivityVector) {
        assert_eq!(v.d(), self.d(), "activity dimensionality mismatch");
        for &(s, e) in v.runs() {
            for k in s..e {
                let c = &mut self.counts[k as usize];
                let old = *c as usize;
                *c += 1;
                self.level_hist[old] -= 1;
                if old + 1 == self.level_hist.len() {
                    self.level_hist.push(0);
                }
                self.level_hist[old + 1] += 1;
            }
        }
        self.members += 1;
    }

    /// The level histogram that would result from adding `v`, without
    /// committing. `O(active epochs of v)` plus one small allocation; the
    /// reference that [`Self::ttp_with`] and the Step-2 profiles are tested
    /// against.
    #[cfg(test)]
    pub(crate) fn level_hist_with(&self, v: &ActivityVector) -> Vec<u64> {
        assert_eq!(v.d(), self.d(), "activity dimensionality mismatch");
        let mut hist = self.level_hist.clone();
        for &(s, e) in v.runs() {
            for k in s..e {
                let old = self.counts[k as usize] as usize;
                hist[old] -= 1;
                if old + 1 == hist.len() {
                    hist.push(0);
                }
                hist[old + 1] += 1;
            }
        }
        hist
    }

    /// Whether adding `v` keeps every epoch at or below `r` concurrently
    /// active members (the *hard* vector-capacity test). Early-exits on the
    /// first violating epoch, so rejections are cheap — the common case in
    /// First-Fit packing.
    ///
    /// # Panics
    /// Panics if the vector's dimensionality differs from the group's.
    pub fn fits_within(&self, v: &ActivityVector, r: u32) -> bool {
        assert_eq!(v.d(), self.d(), "activity dimensionality mismatch");
        // The group itself may already exceed r somewhere v is inactive;
        // hard capacity only constrains the epochs v touches plus the
        // existing profile.
        if self.epochs_above(r) > 0 {
            return false;
        }
        for &(s, e) in v.runs() {
            for k in s..e {
                if u32::from(self.counts[k as usize]) + 1 > r {
                    return false;
                }
            }
        }
        true
    }

    /// The TTP that would result from adding `v`, without committing.
    /// Adding `v` lifts exactly its epochs at count `r` over the line, so
    /// this is `O(active epochs of v)` with no allocation.
    ///
    /// # Panics
    /// Panics if `d > 0` and the vector's dimensionality differs from the
    /// group's.
    pub fn ttp_with(&self, v: &ActivityVector, r: u32) -> f64 {
        if self.counts.is_empty() {
            return 1.0;
        }
        assert_eq!(v.d(), self.d(), "activity dimensionality mismatch");
        let lifted: usize = v
            .runs()
            .iter()
            .map(|&(s, e)| {
                self.counts[s as usize..e as usize]
                    .iter()
                    .filter(|&&c| u32::from(c) == r)
                    .count()
            })
            .sum();
        let above = self.epochs_above(r) + lifted as u64;
        1.0 - above as f64 / self.counts.len() as f64
    }

    /// Dense recomputation of the TTP from scratch, used as the reference
    /// implementation in tests and as the baseline of the representation
    /// ablation bench.
    pub fn ttp_dense(vectors: &[&ActivityVector], d: u32, r: u32) -> f64 {
        if d == 0 {
            return 1.0;
        }
        let mut counts = vec![0u32; d as usize];
        for v in vectors {
            for k in v.iter_epochs() {
                counts[k as usize] += 1;
            }
        }
        let ok = counts.iter().filter(|&&c| c <= r).count();
        ok as f64 / d as f64
    }
}

/// Compares two candidate level histograms by the paper's selection rule:
/// the better candidate is the one whose resulting concurrency profile is
/// lexicographically smaller *read from the highest level down* — i.e. first
/// minimize the maximum number of concurrently active tenants, then the time
/// share at that maximum, then at the next level, and so on (the tie-break
/// illustrated in Figure 5.3a, where `T2` beats `T4` because it leaves fewer
/// epochs at the 1-active level).
pub fn compare_level_hists(a: &[u64], b: &[u64]) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    let max_a = a.iter().rposition(|&n| n > 0).unwrap_or(0);
    let max_b = b.iter().rposition(|&n| n > 0).unwrap_or(0);
    match max_a.cmp(&max_b) {
        Ordering::Equal => {}
        other => return other,
    }
    // Equal max level: compare occupancy from the top down. Levels 0 is
    // excluded — "fewer idle epochs" is not a quality signal.
    for level in (1..=max_a).rev() {
        match a[level].cmp(&b[level]) {
            Ordering::Equal => {}
            other => return other,
        }
    }
    Ordering::Equal
}

#[cfg(test)]
mod tests {
    use super::*;

    fn av(epochs: &[u32], d: u32) -> ActivityVector {
        ActivityVector::from_epochs(epochs.to_vec(), d)
    }

    #[test]
    fn empty_group_is_fully_compliant() {
        let h = ActiveCountHistogram::new(10);
        assert_eq!(h.ttp(0), 1.0);
        assert_eq!(h.epochs_above(0), 0);
    }

    #[test]
    fn add_updates_counts_and_hist() {
        let mut h = ActiveCountHistogram::new(10);
        h.add(&av(&[0, 1, 2], 10));
        h.add(&av(&[2, 3], 10));
        assert_eq!(h.members(), 2);
        // counts: [1,1,2,1,0,0,0,0,0,0]
        assert_eq!(h.epochs_above(0), 4);
        assert_eq!(h.epochs_above(1), 1);
        assert_eq!(h.epochs_above(2), 0);
        assert!((h.ttp(1) - 0.9).abs() < 1e-12);
        assert!((h.ttp(2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn candidate_evaluation_matches_commit() {
        let mut h = ActiveCountHistogram::new(12);
        h.add(&av(&[0, 1, 5, 6], 12));
        h.add(&av(&[1, 2, 6], 12));
        let candidate = av(&[1, 6, 7, 11], 12);
        let predicted = h.level_hist_with(&candidate);
        let predicted_ttp = h.ttp_with(&candidate, 2);
        h.add(&candidate);
        let committed: Vec<u64> = h.level_hist().to_vec();
        // Compare up to the shorter trailing-zero tail.
        let n = predicted.len().max(committed.len());
        let get = |v: &[u64], i: usize| v.get(i).copied().unwrap_or(0);
        for i in 0..n {
            assert_eq!(get(&predicted, i), get(&committed, i), "level {i}");
        }
        assert!((predicted_ttp - h.ttp(2)).abs() < 1e-12);
    }

    #[test]
    fn ttp_with_matches_commit_then_ttp() {
        // Seeded random groups and candidates: the allocation-free
        // prediction must equal, bit for bit, the TTP after committing.
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0x77_u64);
        for case in 0..200 {
            let d = rng.gen_range(1..40u32);
            let vector = |rng: &mut SmallRng| {
                let density = rng.gen_range(0.0..1.0);
                av(
                    &(0..d).filter(|_| rng.gen_bool(density)).collect::<Vec<_>>(),
                    d,
                )
            };
            let mut h = ActiveCountHistogram::new(d);
            for _ in 0..rng.gen_range(0..6usize) {
                h.add(&vector(&mut rng));
            }
            let candidate = vector(&mut rng);
            for r in 0..6 {
                let predicted = h.ttp_with(&candidate, r);
                let mut committed = h.clone();
                committed.add(&candidate);
                assert_eq!(
                    predicted.to_bits(),
                    committed.ttp(r).to_bits(),
                    "case {case}, r = {r}"
                );
            }
        }
        assert_eq!(ActiveCountHistogram::new(0).ttp_with(&av(&[], 0), 1), 1.0);
    }

    #[test]
    fn incremental_matches_dense_reference() {
        let d = 40;
        let vs = [
            av(&[0, 1, 2, 10, 11, 30], d),
            av(&[2, 3, 11, 31], d),
            av(&[2, 11, 30, 31, 32], d),
            av(&[5], d),
        ];
        let mut h = ActiveCountHistogram::new(d);
        for v in &vs {
            h.add(v);
        }
        let refs: Vec<&ActivityVector> = vs.iter().collect();
        for r in 0..4 {
            assert!(
                (h.ttp(r) - ActiveCountHistogram::ttp_dense(&refs, d, r)).abs() < 1e-12,
                "r = {r}"
            );
        }
    }

    #[test]
    fn paper_figure_5_1_count_example() {
        // S = {T1, T4, T5, T6} of Figure 5.1 sums to
        // <2,2,2,2,4,3,2,1,2,1>; COUNT^{<=3} = 9 of 10 epochs.
        let d = 10;
        let t1 = av(&[0, 1, 2, 3, 4, 5], d);
        let t4 = av(&[4, 5, 6, 8, 9], d);
        let t5 = av(&[0, 1, 4, 5], d);
        let t6 = av(&[2, 3, 4, 6, 7, 8], d);
        let mut h = ActiveCountHistogram::new(d);
        for v in [&t1, &t4, &t5, &t6] {
            h.add(v);
        }
        assert_eq!(h.epochs_above(3), 1);
        assert!((h.ttp(3) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn fits_within_matches_full_evaluation() {
        let mut h = ActiveCountHistogram::new(12);
        h.add(&av(&[0, 1, 5], 12));
        h.add(&av(&[1, 5], 12));
        // counts: 1,2,0,0,0,2,0,...
        let cand = av(&[1, 2], 12);
        assert!(!h.fits_within(&cand, 2)); // epoch 1 would reach 3
        assert!(h.fits_within(&cand, 3));
        // Disjoint candidate: fits as long as the group itself is within r.
        let disjoint = av(&[3, 4], 12);
        assert!(h.fits_within(&disjoint, 2));
        assert!(
            !h.fits_within(&disjoint, 1),
            "the group already has an epoch at 2"
        );
        // An already-violating group accepts nobody under hard capacity.
        let mut over = ActiveCountHistogram::new(4);
        for _ in 0..3 {
            over.add(&av(&[0], 4));
        }
        assert!(!over.fits_within(&av(&[2], 4), 2));
    }

    #[test]
    fn hist_comparison_prefers_lower_max_level() {
        // a: max level 1; b: max level 2 -> a wins.
        let a = vec![5, 5, 0];
        let b = vec![6, 2, 2];
        assert_eq!(compare_level_hists(&a, &b), std::cmp::Ordering::Less);
    }

    #[test]
    fn hist_comparison_breaks_ties_from_the_top_down() {
        // Same max level and occupancy there; fewer epochs at level 1 wins
        // (the Figure 5.3a tie-break).
        let a = vec![3, 7, 0];
        let b = vec![2, 8, 0];
        assert_eq!(compare_level_hists(&a, &b), std::cmp::Ordering::Less);
        let c = vec![1, 4, 5];
        let e = vec![0, 5, 5];
        assert_eq!(compare_level_hists(&c, &e), std::cmp::Ordering::Less);
    }

    #[test]
    #[should_panic(expected = "dimensionality")]
    fn dimension_mismatch_panics() {
        let mut h = ActiveCountHistogram::new(10);
        h.add(&av(&[0], 11));
    }
}
