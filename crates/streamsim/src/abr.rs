//! Adaptive-bitrate selection and perceptual quality.

/// The bitrate ladder plus the capping treatment.
#[derive(Debug, Clone)]
pub struct Ladder {
    rates: Vec<f64>,
}

impl Ladder {
    /// Build from ascending rates in bits/second.
    pub fn new(rates: Vec<f64>) -> Ladder {
        debug_assert!(rates.windows(2).all(|w| w[0] < w[1]), "ladder must ascend");
        Ladder { rates }
    }

    /// Lowest rung.
    pub fn min_rate(&self) -> f64 {
        self.rates[0]
    }

    /// The rungs, ascending.
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// Number of rungs at or below `ceiling` — the permitted prefix for
    /// a capped session (the ladder ascends, so a cap truncates to a
    /// prefix).
    pub fn permitted_rungs(&self, ceiling: f64) -> usize {
        Ladder::permitted_rungs_in(&self.rates, ceiling)
    }

    /// [`Ladder::permitted_rungs`] over a raw ascending rate slice, for
    /// callers that hold the configured ladder rates but no `Ladder`.
    pub(crate) fn permitted_rungs_in(rates: &[f64], ceiling: f64) -> usize {
        rates.partition_point(|&r| r <= ceiling)
    }

    /// [`Ladder::select`] restricted to the first `permitted` rungs:
    /// with `permitted = permitted_rungs(cap)` this returns exactly
    /// `select(est, safety, Some(cap))`, but sessions with a constant
    /// cap can precompute the prefix once and skip the per-rung ceiling
    /// comparisons (and the dead rungs above the cap) on every chunk.
    ///
    /// Branch-free, because it runs at every chunk boundary: the ladder
    /// ascends, so the rungs within budget and the permitted rungs are
    /// both prefixes, and the pick ends the shorter one. The count
    /// spans the whole ladder so its trip count never varies (capped
    /// and uncapped sessions interleave at boundaries, and a varying
    /// trip count mispredicts the loop exit). A NaN budget affords no
    /// rung.
    #[inline]
    pub fn select_from_top(&self, permitted: usize, throughput_est_bps: f64, safety: f64) -> f64 {
        let budget = throughput_est_bps * safety;
        let within_budget: usize = self.rates.iter().map(|&r| usize::from(r <= budget)).sum();
        // Must stream something: the lowest permitted rung, or the
        // ladder floor when the cap sits below the whole ladder — both
        // are `rates[0]`.
        self.rates[within_budget.min(permitted).saturating_sub(1)]
    }

    /// Highest rung (uncapped).
    pub fn max_rate(&self) -> f64 {
        *self.rates.last().expect("ladder is non-empty")
    }

    /// Throughput-based selection: the highest rung not exceeding
    /// `safety × estimate`, truncated at `cap` when the session is
    /// bitrate-capped. Falls back to the lowest rung.
    ///
    /// Runs once per chunk for every active session, so it is written
    /// as a single reverse scan (estimates usually land in the upper
    /// half of the ladder) instead of a filter/rfind chain.
    #[inline]
    pub fn select(&self, throughput_est_bps: f64, safety: f64, cap: Option<f64>) -> f64 {
        let budget = throughput_est_bps * safety;
        let ceiling = cap.unwrap_or(f64::INFINITY);
        let mut fallback = None;
        for &r in self.rates.iter().rev() {
            if r <= ceiling {
                if r <= budget {
                    return r; // highest rung within cap and budget
                }
                // Tracks the lowest capped rung seen so far: must stream
                // something even when the budget affords no rung.
                fallback = Some(r);
            }
        }
        fallback.unwrap_or(self.min_rate())
    }
}

/// Perceptual quality on a 0–100 scale, concave in bitrate (VMAF-like
/// saturating curve): `q = 100 · b/(b + b_half)`.
pub fn perceptual_quality(bitrate_bps: f64) -> f64 {
    const B_HALF: f64 = 900e3;
    100.0 * bitrate_bps / (bitrate_bps + B_HALF)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ladder() -> Ladder {
        Ladder::new(vec![235e3, 750e3, 1_750e3, 3_000e3, 5_800e3])
    }

    #[test]
    fn selects_highest_affordable() {
        let l = ladder();
        assert_eq!(l.select(10e6, 0.8, None), 5_800e3);
        assert_eq!(l.select(4e6, 0.8, None), 3_000e3); // 3.2M budget
        assert_eq!(l.select(1e6, 0.8, None), 750e3);
    }

    #[test]
    fn falls_back_to_lowest() {
        let l = ladder();
        assert_eq!(l.select(100e3, 0.8, None), 235e3);
    }

    #[test]
    fn cap_truncates_ladder() {
        let l = ladder();
        assert_eq!(l.select(10e6, 0.8, Some(1_750e3)), 1_750e3);
        assert_eq!(l.select(1e6, 0.8, Some(1_750e3)), 750e3);
        // Cap below the whole ladder still returns something playable.
        assert_eq!(l.select(10e6, 0.8, Some(100e3)), 235e3);
    }

    /// The reverse scan `select_from_top` replaced: the highest
    /// permitted rung within budget, else the floor.
    fn select_from_top_scan(l: &Ladder, permitted: usize, est: f64, safety: f64) -> f64 {
        let budget = est * safety;
        for &r in l.rates[..permitted].iter().rev() {
            if r <= budget {
                return r;
            }
        }
        l.rates[0]
    }

    #[test]
    fn select_from_top_edges_match_scan() {
        let l = ladder();
        let n = l.rates().len();
        let mut ests = vec![
            0.0,
            -1.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN_POSITIVE,
        ];
        // Budgets exactly on each rung and one ulp either side.
        for &r in l.rates() {
            for b in [r, r.next_up(), r.next_down()] {
                ests.push(b);
                ests.push(b / 0.8);
            }
        }
        for permitted in 0..=n {
            for &est in &ests {
                for safety in [0.8, 1.0] {
                    let got = l.select_from_top(permitted, est, safety);
                    let want = select_from_top_scan(&l, permitted, est, safety);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "permitted {permitted}, est {est:e}, safety {safety}"
                    );
                }
            }
        }
        // A budget exactly on a rung buys that rung.
        assert_eq!(l.select_from_top(n, 1_750e3, 1.0), 1_750e3);
        assert_eq!(l.select_from_top(0, 1e9, 1.0), 235e3);
    }

    proptest! {
        #[test]
        fn select_from_top_matches_scan(
            rates in proptest::collection::vec(1e3f64..1e8, 1..16),
            permitted in 0usize..17,
            est in -1e3f64..2e8,
            safety in 0.1f64..1.5,
        ) {
            let mut rates = rates;
            rates.sort_by(f64::total_cmp);
            rates.dedup();
            let l = Ladder::new(rates);
            let permitted = permitted.min(l.rates().len());
            let got = l.select_from_top(permitted, est, safety);
            let want = select_from_top_scan(&l, permitted, est, safety);
            prop_assert_eq!(got.to_bits(), want.to_bits());
            // A budget on a rung selects that rung (or the floor when
            // the rung is not permitted).
            let on = l.rates()[permitted.saturating_sub(1)];
            prop_assert_eq!(l.select_from_top(permitted, on, 1.0), on);
        }
    }

    #[test]
    fn quality_concave_and_bounded() {
        let q1 = perceptual_quality(235e3);
        let q2 = perceptual_quality(1_750e3);
        let q3 = perceptual_quality(5_800e3);
        assert!(q1 < q2 && q2 < q3);
        assert!(q3 < 100.0);
        // Diminishing returns: the second step gains less per bit.
        let gain_low = (q2 - q1) / (1_750e3 - 235e3);
        let gain_high = (q3 - q2) / (5_800e3 - 1_750e3);
        assert!(gain_low > gain_high);
    }

    #[test]
    fn capping_costs_quality_but_less_than_proportional() {
        // 1750 kb/s vs 5800 kb/s: ~3.3x the bits, but quality drops by
        // far less than 3.3x — the premise of the capping program.
        let q_cap = perceptual_quality(1_750e3);
        let q_full = perceptual_quality(5_800e3);
        assert!(q_cap / q_full > 0.6);
    }
}
