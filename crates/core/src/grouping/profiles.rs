//! Per-candidate concurrency profiles: the incremental state behind Step 2
//! of the 2-step heuristic.
//!
//! Step 2 grows one tenant-group at a time and, before every insertion,
//! asks of each remaining candidate `i` in the bucket: what level histogram
//! would the group have with `i` added? That histogram follows from the
//! group's level histogram `H` and the candidate's *profile* `m_i`, where
//! `m_i[c]` counts the active epochs of `i` in which exactly `c` group
//! members are active. Adding `i` lifts those epochs from level `c` to
//! `c + 1`, so the candidate's histogram is
//!
//! `H_i[c] = H[c] − m_i[c] + m_i[c − 1]`,
//!
//! and the epochs it would push above `R` are `epochs_above(R) + m_i[R]`.
//!
//! [`BucketProfiles`] keeps every remaining candidate's profile current.
//! Adding a member walks only the *member's* activity and, through an
//! inverted index, updates the profile of every remaining candidate active
//! there; evaluating a candidate is then `O(levels)` and allocation-free.
//! The update work per bucket is one step per (member segment, co-active
//! candidate) pair.
//!
//! The index is kept over *segments* rather than epochs: the run
//! boundaries of the bucket's tenants cut the epoch axis into maximal
//! ranges in which no bucket tenant starts or stops, so every count is
//! uniform across a segment and a profile moves by the segment's length.
//! With 10 s epochs a segment is about one epoch; with the 0.1 s epochs of
//! Figure 7.1 one run spans many epochs, and the index stays proportional
//! to the bucket's runs rather than its active epochs.

use crate::grouping::livbpwfc::GroupingProblem;

/// The Step-2 state of one Step-1 bucket: the segment index, one profile
/// per bucket tenant, and the growing group's per-segment counts and level
/// histogram. Tenants are addressed by their *local* index, the position
/// in the bucket slice. Dropped with its bucket.
pub(crate) struct BucketProfiles<'a> {
    problem: &'a GroupingProblem,
    bucket: &'a [usize],
    cuts: Cuts,
    /// Length of each segment in epochs.
    seg_len: Vec<u32>,
    /// `seg_tenants[seg_start[g]..][..seg_live[g]]` lists the tenants
    /// active in segment `g`. Entries of tenants that have left the
    /// remaining set are dropped lazily, when their segment is next walked.
    seg_start: Vec<u32>,
    seg_live: Vec<u32>,
    seg_tenants: Vec<u32>,
    /// Whether each tenant is still a candidate (not yet in a group).
    alive: Vec<bool>,
    /// `profiles[i][c]` = epochs of tenant `i` where `c` members of the
    /// growing group are active; never longer than `level_hist`.
    profiles: Vec<Vec<u32>>,
    /// Members of the growing group active in each segment.
    seg_count: Vec<u32>,
    /// `level_hist[c]` = epochs with exactly `c` active group members.
    level_hist: Vec<u64>,
}

impl<'a> BucketProfiles<'a> {
    /// Indexes `bucket` (indices into `problem`): `O(d / 64)` for the
    /// boundary bitset plus three passes over the bucket's runs (boundaries,
    /// list sizes, list fill).
    pub(crate) fn new(problem: &'a GroupingProblem, bucket: &'a [usize]) -> Self {
        let runs = |l: usize| problem.activities[bucket[l]].runs();
        let (cuts, seg_len) = Cuts::new(
            problem.d(),
            bucket.iter().flat_map(|&i| problem.activities[i].runs()),
        );
        // Segment -> tenants lists: count per segment, prefix-sum into
        // starts, then place each tenant (ascending local index).
        let mut seg_live = vec![0u32; seg_len.len()];
        for l in 0..bucket.len() {
            for g in cuts.segments(runs(l)) {
                seg_live[g] += 1;
            }
        }
        let mut total = 0u32;
        let seg_start: Vec<u32> = seg_live
            .iter()
            .map(|&n| {
                let start = total;
                total += n;
                start
            })
            .collect();
        let mut seg_tenants = vec![0u32; total as usize];
        seg_live.fill(0);
        for l in 0..bucket.len() {
            for g in cuts.segments(runs(l)) {
                seg_tenants[(seg_start[g] + seg_live[g]) as usize] = l as u32;
                seg_live[g] += 1;
            }
        }
        Self {
            problem,
            bucket,
            cuts,
            seg_count: vec![0; seg_len.len()],
            seg_len,
            seg_start,
            seg_live,
            seg_tenants,
            alive: vec![true; bucket.len()],
            profiles: vec![Vec::new(); bucket.len()],
            level_hist: Vec::new(),
        }
    }

    /// Starts an empty group whose candidates are `remaining`: zero counts,
    /// every epoch at level 0, every candidate's epochs at level 0.
    pub(crate) fn start_group(&mut self, remaining: &[usize]) {
        self.seg_count.fill(0);
        self.level_hist.clear();
        self.level_hist.push(u64::from(self.problem.d()));
        for &l in remaining {
            let active = self.problem.activities[self.bucket[l]].active_epochs();
            let profile = &mut self.profiles[l];
            profile.clear();
            profile.push(active);
        }
    }

    /// Adds tenant `l` to the group and removes it from the candidates:
    /// one walk over its segments lifts the group count there and, for
    /// each remaining candidate active in the segment, moves the segment's
    /// epochs one level up in that candidate's profile.
    pub(crate) fn add(&mut self, l: usize) {
        self.alive[l] = false;
        let problem = self.problem;
        for &(s, e) in problem.activities[self.bucket[l]].runs() {
            for g in self.cuts.segment_at(s)..self.cuts.segment_at(e) {
                self.lift_segment(g);
            }
        }
    }

    fn lift_segment(&mut self, g: usize) {
        let w = self.seg_len[g];
        let c = self.seg_count[g] as usize;
        let start = self.seg_start[g] as usize;
        let mut live = self.seg_live[g] as usize;
        let mut k = 0;
        while k < live {
            let i = self.seg_tenants[start + k] as usize;
            if !self.alive[i] {
                // Order within a segment list is irrelevant: swap-remove.
                live -= 1;
                self.seg_tenants[start + k] = self.seg_tenants[start + live];
                continue;
            }
            let profile = &mut self.profiles[i];
            if profile.len() == c + 1 {
                profile.push(0);
            }
            profile[c] -= w;
            profile[c + 1] += w;
            k += 1;
        }
        self.seg_live[g] = live as u32;
        self.seg_count[g] += 1;
        if self.level_hist.len() == c + 1 {
            self.level_hist.push(0);
        }
        self.level_hist[c] -= u64::from(w);
        self.level_hist[c + 1] += u64::from(w);
    }

    /// Epochs in which the group has more than `r` active members.
    pub(crate) fn epochs_above(&self, r: u32) -> u64 {
        self.level_hist.iter().skip(r as usize + 1).sum()
    }

    /// Epochs above `r` once candidate `l` joins, given the group's own
    /// [`Self::epochs_above`]: the candidate lifts exactly its epochs at
    /// level `r` over the line.
    pub(crate) fn epochs_above_with(&self, l: usize, r: u32, group_above: u64) -> u64 {
        let at_r = self.profiles[l].get(r as usize).copied().unwrap_or(0);
        group_above + u64::from(at_r)
    }

    /// Writes the level histogram the group would have with candidate `l`
    /// added into `out` (one level longer than the group's; trailing
    /// levels may be zero).
    pub(crate) fn level_hist_with(&self, l: usize, out: &mut Vec<u64>) {
        let profile = &self.profiles[l];
        let at = |c: usize| profile.get(c).copied().map_or(0, u64::from);
        out.clear();
        out.push(self.level_hist[0] - at(0));
        out.extend((1..self.level_hist.len()).map(|c| self.level_hist[c] - at(c) + at(c - 1)));
        out.push(at(self.level_hist.len() - 1));
    }
}

/// The bucket's run boundaries over epoch positions `0..=d`, as a bitset
/// with per-word ranks: segment `g` spans the `g`-th to the `(g + 1)`-th
/// boundary, and a boundary's segment index is found in `O(1)`.
struct Cuts {
    bits: Vec<u64>,
    /// Set bits before each word of `bits`.
    rank: Vec<u32>,
}

impl Cuts {
    /// The boundaries of `runs` over `d` epochs, and each segment's length.
    fn new<'r>(d: u32, runs: impl Iterator<Item = &'r (u32, u32)>) -> (Self, Vec<u32>) {
        let mut bits = vec![0u64; d as usize / 64 + 1];
        for &(s, e) in runs {
            for p in [s, e] {
                bits[p as usize / 64] |= 1 << (p % 64);
            }
        }
        let mut rank = Vec::with_capacity(bits.len());
        let mut positions: Vec<u32> = Vec::new();
        for (w, &word) in bits.iter().enumerate() {
            rank.push(positions.len() as u32);
            let mut rest = word;
            while rest != 0 {
                positions.push(w as u32 * 64 + rest.trailing_zeros());
                rest &= rest - 1;
            }
        }
        let seg_len = positions.windows(2).map(|w| w[1] - w[0]).collect();
        (Cuts { bits, rank }, seg_len)
    }

    /// Index of the segment starting at boundary `p`.
    fn segment_at(&self, p: u32) -> usize {
        let w = p as usize / 64;
        let below = self.bits[w] & ((1u64 << (p % 64)) - 1);
        self.rank[w] as usize + below.count_ones() as usize
    }

    /// The segments covered by `runs`, ascending.
    fn segments<'r>(&'r self, runs: &'r [(u32, u32)]) -> impl Iterator<Item = usize> + 'r {
        runs.iter()
            .flat_map(move |&(s, e)| self.segment_at(s)..self.segment_at(e))
    }
}
