//! Fast scalar math for simulation hot loops.
//!
//! [`fast_exp`] exists because the streaming simulator redraws a
//! lognormal chunk-noise factor at every chunk boundary — tens of
//! millions of `exp` calls per five-day run, where libm's `exp` was
//! measured at ~12 ns/call and ~45% of the whole boundary slow path.
//! The table-driven version below is ~3× faster at ~1e-14 relative
//! accuracy (tens of ulps), far below the simulator's statistical
//! noise floor. It is a
//! *deterministic, portable* function (pure f64 arithmetic and table
//! lookups, no platform intrinsics), so results remain bit-identical
//! across machines and between the scalar reference client and the SoA
//! arena, both of which call it.
//!
//! The inline rounding in [`fast_exp`] (and `round_half_away`, which
//! `SimDuration::from_secs_f64` uses) is here for the same reason.
//! `f64::round` lowers to the SSE4.1 `roundsd` instruction only when
//! the target has it; the baseline x86-64 target does not, so every
//! `round` is an out-of-line call into the runtime's `round`. The
//! inline version adds the largest double below ½ and truncates with
//! one conversion — libm's own construction, minus the call — and is
//! bit for bit `f64::round` (the tests check ties, signed zeros, every
//! binade and random bit patterns). A first version that truncated and
//! then compared the fraction with ½ was exact too but had a longer
//! dependency chain, and measured slower than the call it replaced.

/// `2^(j/32)` for `j = 0..32`, correctly rounded.
const EXP2_TAB: [f64; 32] = [
    f64::from_bits(0x3ff0000000000000),
    f64::from_bits(0x3ff059b0d3158574),
    f64::from_bits(0x3ff0b5586cf9890f),
    f64::from_bits(0x3ff11301d0125b51),
    f64::from_bits(0x3ff172b83c7d517b),
    f64::from_bits(0x3ff1d4873168b9aa),
    f64::from_bits(0x3ff2387a6e756238),
    f64::from_bits(0x3ff29e9df51fdee1),
    f64::from_bits(0x3ff306fe0a31b715),
    f64::from_bits(0x3ff371a7373aa9cb),
    f64::from_bits(0x3ff3dea64c123422),
    f64::from_bits(0x3ff44e086061892d),
    f64::from_bits(0x3ff4bfdad5362a27),
    f64::from_bits(0x3ff5342b569d4f82),
    f64::from_bits(0x3ff5ab07dd485429),
    f64::from_bits(0x3ff6247eb03a5585),
    f64::from_bits(0x3ff6a09e667f3bcd),
    f64::from_bits(0x3ff71f75e8ec5f74),
    f64::from_bits(0x3ff7a11473eb0187),
    f64::from_bits(0x3ff82589994cce13),
    f64::from_bits(0x3ff8ace5422aa0db),
    f64::from_bits(0x3ff93737b0cdc5e5),
    f64::from_bits(0x3ff9c49182a3f090),
    f64::from_bits(0x3ffa5503b23e255d),
    f64::from_bits(0x3ffae89f995ad3ad),
    f64::from_bits(0x3ffb7f76f2fb5e47),
    f64::from_bits(0x3ffc199bdd85529c),
    f64::from_bits(0x3ffcb720dcef9069),
    f64::from_bits(0x3ffd5818dcfba487),
    f64::from_bits(0x3ffdfc97337b9b5f),
    f64::from_bits(0x3ffea4afa2a490da),
    f64::from_bits(0x3fff50765b6e4540),
];

/// `32 / ln 2`.
const INV_LN2_32: f64 = 46.16624130844683;
/// `ln 2 / 32`, split into a 26-bit head and a correction tail so the
/// range reduction `x − k·(HI+LO)` is exact to well below an ulp of r.
const LN2_32_HI: f64 = 0.021_660_849_219_188_094;
const LN2_32_LO: f64 = 1.733_101_960_554_872_5e-10;

/// `2^52`: from here up every `f64` is an integer.
const TWO_POW_52: f64 = 4_503_599_627_370_496.0;
/// `½ − 2^-54`, the largest double below one half. Adding exactly ½
/// would round `0.49999999999999994 + 0.5` up to 1.
const PRED_HALF: f64 = 0.499_999_999_999_999_94;

/// `a` rounded half away from zero, for `0 ≤ a < 2^52`: the sum with
/// [`PRED_HALF`] reaches the next integer exactly when `a`'s fraction
/// is at least ½, and the truncating conversion is exact.
#[inline]
fn round_abs(a: f64) -> i64 {
    (a + PRED_HALF) as i64
}

/// `y.round()` (round half away from zero), bit for bit, without the
/// out-of-line call `f64::round` makes on targets without SSE4.1. The
/// final `copysign` keeps the sign of zero results in `(-0.5, -0]`.
/// From `2^52` up (and for NaN and ±∞) `y` is already its own rounding.
#[inline]
pub(crate) fn round_half_away(y: f64) -> f64 {
    let a = y.abs();
    if a.is_nan() || a >= TWO_POW_52 {
        return y;
    }
    (round_abs(a) as f64).copysign(y)
}

/// `e^x` to within ~1e-14 relative error (tens of ulps; the property
/// tests bound the worst case), ~3× faster than libm.
///
/// Strategy: write `x = (32n + j)·ln2/32 + r` with `|r| ≤ ln2/64`, then
/// `e^x = 2^n · 2^(j/32) · e^r`, where `e^r` needs only a degree-5
/// Taylor polynomial (truncation ~3·10⁻¹⁵ relative, the dominant error
/// term together with the reduction rounding) and `2^n` is exponent
/// bit arithmetic. Inputs outside `±700` (including NaN/∞) fall back to
/// the libm `exp` so the edge behavior is unchanged.
#[inline]
pub fn fast_exp(x: f64) -> f64 {
    if x.is_nan() || x.abs() > 700.0 {
        // NaN, infinities, and magnitudes near the overflow/underflow
        // boundary: take libm's slow-but-careful path.
        return x.exp();
    }
    // k = round(y), kept as an integer so the table index and exponent
    // need no second conversion. `kf` is +0 where `f64::round` gives
    // −0 (y in (−½, 0)). It only scales the `ln 2/32` terms subtracted
    // from x: for x ≠ 0, x − (±0) is x, and for x = ±0 the polynomial
    // is 1 whatever the sign of r, so the result is the same bits (the
    // tests compare it with the `f64::round` version).
    let y = x * INV_LN2_32;
    let m = round_abs(y.abs());
    let k = if y < 0.0 { -m } else { m };
    let kf = k as f64;
    let j = (k & 31) as usize;
    let n = (k - j as i64) >> 5;
    let r = (x - kf * LN2_32_HI) - kf * LN2_32_LO;
    // e^r by Horner; |r| ≤ 0.01083 so five terms reach f64 precision.
    let p = 1.0 + r * (1.0 + r * (0.5 + r * (1.0 / 6.0 + r * (1.0 / 24.0 + r * (1.0 / 120.0)))));
    let two_n = f64::from_bits(((n + 1023) as u64) << 52);
    EXP2_TAB[j] * p * two_n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;

    fn rel_err(a: f64, b: f64) -> f64 {
        if b == 0.0 {
            a.abs()
        } else {
            ((a - b) / b).abs()
        }
    }

    #[test]
    fn matches_libm_on_grid() {
        // Dense sweep over the simulator's realistic argument range and
        // a coarser one over the full guarded range.
        let mut worst = 0.0f64;
        let mut x = -5.0;
        while x <= 5.0 {
            worst = worst.max(rel_err(fast_exp(x), x.exp()));
            x += 1e-3;
        }
        assert!(worst < 1e-14, "worst relative error {worst:.3e}");
        let mut x = -700.0;
        while x <= 700.0 {
            worst = worst.max(rel_err(fast_exp(x), x.exp()));
            x += 0.37;
        }
        assert!(worst < 1e-13, "worst relative error {worst:.3e}");
    }

    #[test]
    fn matches_libm_on_random_inputs() {
        let mut rng = SimRng::new(99);
        let mut worst = 0.0f64;
        for _ in 0..200_000 {
            let x = rng.uniform(-30.0, 30.0);
            worst = worst.max(rel_err(fast_exp(x), x.exp()));
        }
        assert!(worst < 1e-14, "worst relative error {worst:.3e}");
    }

    #[test]
    fn edge_cases_delegate_to_libm() {
        assert!(fast_exp(f64::NAN).is_nan());
        assert_eq!(fast_exp(f64::INFINITY), f64::INFINITY);
        assert_eq!(fast_exp(f64::NEG_INFINITY), 0.0);
        assert_eq!(fast_exp(800.0), f64::INFINITY);
        assert_eq!(fast_exp(-800.0), 0.0);
        assert_eq!(fast_exp(0.0), 1.0);
        // Exact powers of two at table boundaries.
        assert_eq!(fast_exp(std::f64::consts::LN_2), 2.0);
    }

    /// The implementation before the inline rounding: identical except
    /// that it rounds with `f64::round`.
    fn fast_exp_libm_round(x: f64) -> f64 {
        if x.is_nan() || x.abs() > 700.0 {
            return x.exp();
        }
        let kf = (x * INV_LN2_32).round();
        let k = kf as i64;
        let j = (k & 31) as usize;
        let n = (k - j as i64) >> 5;
        let r = (x - kf * LN2_32_HI) - kf * LN2_32_LO;
        let p =
            1.0 + r * (1.0 + r * (0.5 + r * (1.0 / 6.0 + r * (1.0 / 24.0 + r * (1.0 / 120.0)))));
        let two_n = f64::from_bits(((n + 1023) as u64) << 52);
        EXP2_TAB[j] * p * two_n
    }

    fn same_bits(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    #[test]
    fn round_half_away_matches_round_on_edges() {
        let mut ys = vec![
            0.0,
            -0.0,
            0.25,
            -0.25,
            0.5,
            -0.5,
            0.49999999999999994, // largest double below 0.5
            -0.49999999999999994,
            1.0 - f64::EPSILON / 2.0,
            TWO_POW_52 - 0.5,
            -(TWO_POW_52 - 0.5),
            TWO_POW_52,
            -TWO_POW_52,
            TWO_POW_52 + 1.0,
            1e300,
            -1e300,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            5e-324,
            -5e-324,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        // Ties ±(k + 0.5) across the whole exact range, plus their
        // neighbours one ulp either side.
        for e in 0..52 {
            for k in [0u64, 1, 2, 3] {
                let tie = ((1u64 << e) + k) as f64 + 0.5;
                if tie < TWO_POW_52 {
                    for y in [tie, tie.next_up(), tie.next_down()] {
                        ys.push(y);
                        ys.push(-y);
                    }
                }
            }
        }
        for y in ys {
            assert!(
                same_bits(round_half_away(y), y.round()),
                "y = {y:e}: {} vs {}",
                round_half_away(y),
                y.round()
            );
        }
    }

    #[test]
    fn round_half_away_matches_round_on_random_inputs() {
        let mut rng = SimRng::new(5);
        for _ in 0..1_000_000 {
            // Random bit patterns cover every exponent, sign and NaN
            // payload; scaled uniforms cover the dense small range.
            let y = f64::from_bits(rng.next_u64());
            assert!(same_bits(round_half_away(y), y.round()), "y = {y:e}");
            let y = rng.uniform(-1e6, 1e6);
            assert!(same_bits(round_half_away(y), y.round()), "y = {y:e}");
        }
    }

    #[test]
    fn fast_exp_matches_libm_round_version_bitwise() {
        let mut edges = vec![
            0.0,
            -0.0,
            700.0,
            -700.0,
            700.0f64.next_up(),
            (-700.0f64).next_down(),
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            std::f64::consts::LN_2,
            // y = x · 32/ln 2 in (−½, 0), where the two roundings differ
            // in the sign of a zero k.
            -1e-300,
            -1e-20,
            -0.005,
            -0.0108,
        ];
        // Arguments whose reduction `x · 32/ln 2` lands on or next to a
        // rounding tie.
        for k in -64..64 {
            let x = (f64::from(k) + 0.5) / INV_LN2_32;
            edges.extend([x, x.next_up(), x.next_down()]);
        }
        for x in edges {
            assert!(same_bits(fast_exp(x), fast_exp_libm_round(x)), "x = {x:e}");
        }
        let mut rng = SimRng::new(17);
        for _ in 0..1_000_000 {
            // The simulator's noise arguments live in a few units of 0;
            // the wide range covers the whole fast path.
            let x = rng.uniform(-8.0, 8.0);
            assert!(same_bits(fast_exp(x), fast_exp_libm_round(x)), "x = {x:e}");
            let x = rng.uniform(-710.0, 710.0);
            assert!(same_bits(fast_exp(x), fast_exp_libm_round(x)), "x = {x:e}");
        }
    }

    #[test]
    fn deterministic() {
        for x in [-3.2, -0.045, 0.0, 0.45, 2.1] {
            assert_eq!(fast_exp(x).to_bits(), fast_exp(x).to_bits());
        }
    }
}
