//! [`StableSum`]: an exact, associatively mergeable `f64` accumulator.
//!
//! Floating-point addition is not associative, so a sum computed over a
//! stream of segments and merged segment-by-segment is normally *not*
//! bit-identical to the same sum computed over the resident whole. The
//! sharded curation layer (`cm-shard`) promises exactly that identity, so
//! every float reduction that crosses a segment boundary runs through this
//! type instead of a bare `f64`.
//!
//! `StableSum` is a fixed-point superaccumulator: each finite `f64` is
//! split into its integer mantissa and exponent and added into a bank of
//! 32-bit-spaced `i128` limbs spanning the entire finite exponent range
//! (including subnormals). Integer limb addition is exact, commutative,
//! and associative, so:
//!
//! - accumulation order never changes the result;
//! - [`StableSum::merge`] of per-segment partials equals accumulating the
//!   concatenated stream, bit for bit, for **any** partition;
//! - [`StableSum::value`] renders the exact total to the nearest `f64`
//!   (round half to even), the same answer an infinitely precise sum
//!   would round to.
//!
//! Non-finite inputs make the accumulator sticky: the rendered value
//! follows IEEE addition over the non-finite inputs alone (`+∞` stays
//! `+∞`, opposing infinities or any NaN yield NaN), matching what a
//! sequential `f64` sum converges to once an infinity or NaN enters it.

/// Number of `i128` limbs. Limb `k` holds a signed integer scaled by
/// `2^(32k - 1074)`; positions 0..=2045 receive direct mantissa deposits
/// (the full finite `f64` range) and the upper limbs absorb carries.
const LIMBS: usize = 70;

/// Bits per limb position step.
const LIMB_BITS: u32 = 32;

/// Unnormalized deposits allowed before a carry-propagation pass, counted
/// in added values (`add_n(x, c)` counts `c`). Each value adds at most
/// `2^85` in magnitude to one limb, and one `add_n` deposit at most
/// `2^95`, so below `2^38` pending values every limb stays below
/// `2^(85 + 38) = 2^123`, the deposit that crosses the mark adds at most
/// `2^95` before the carry pass, and merging two accumulators stays below
/// `2^125` — comfortably inside `i128`.
const MAX_PENDING: u64 = 1 << 38;

/// An exact `f64` accumulator with associative merge. See the module
/// docs; construct with [`StableSum::new`], feed with [`StableSum::add`] (or
/// [`StableSum::add_n`] for repeated values),
/// combine partials with [`StableSum::merge`], and render with
/// [`StableSum::value`].
#[derive(Debug, Clone)]
pub struct StableSum {
    limbs: Vec<i128>,
    pending: u64,
    /// IEEE running sum of the non-finite inputs; meaningful only when
    /// `has_special` is set.
    special: f64,
    has_special: bool,
}

impl Default for StableSum {
    fn default() -> Self {
        Self::new()
    }
}

impl StableSum {
    /// An empty accumulator (renders `0.0`).
    pub fn new() -> Self {
        Self { limbs: vec![0; LIMBS], pending: 0, special: 0.0, has_special: false }
    }

    /// An accumulator holding the values of `iter`.
    pub fn of(iter: impl IntoIterator<Item = f64>) -> Self {
        let mut s = Self::new();
        for x in iter {
            s.add(x);
        }
        s
    }

    /// Adds one value. Exact for every finite input; non-finite inputs
    /// switch the accumulator to sticky IEEE semantics.
    pub fn add(&mut self, x: f64) {
        let Some((neg, mantissa, limb, shift)) = self.split(x) else {
            return;
        };
        let deposit = i128::from(mantissa) << shift;
        self.limbs[limb] += if neg { -deposit } else { deposit };
        self.pending += 1;
        if self.pending >= MAX_PENDING {
            self.carry_propagate();
        }
    }

    /// Adds `count` copies of `x` in one deposit: the limbs receive
    /// `mantissa * count` exactly, so the total is bit-identical to
    /// `count` calls of [`StableSum::add`] for any count. A non-finite `x`
    /// behaves like one `add` (repeating it changes no IEEE sum), and a
    /// zero count adds nothing.
    pub fn add_n(&mut self, x: f64, count: u64) {
        if count == 0 {
            return;
        }
        let Some((neg, mantissa, limb, shift)) = self.split(x) else {
            return;
        };
        // mantissa * count < 2^117 splits at bit 64: the low half lands in
        // `limb` (< 2^95 after the shift), the high half, nonzero only for
        // counts above 2^11, two limbs up (< 2^84).
        let product = u128::from(mantissa) * u128::from(count);
        let low = i128::from(product as u64) << shift;
        let high = ((product >> 64) as i128) << shift;
        self.limbs[limb] += if neg { -low } else { low };
        if high != 0 {
            self.limbs[limb + 2] += if neg { -high } else { high };
        }
        self.pending = self.pending.saturating_add(count);
        if self.pending >= MAX_PENDING {
            self.carry_propagate();
        }
    }

    /// Splits a finite nonzero `x` into its sign, integer mantissa, limb
    /// and shift within the limb. A non-finite `x` joins the sticky IEEE
    /// state instead; it and zero deposit nothing (`None`).
    #[inline]
    fn split(&mut self, x: f64) -> Option<(bool, u64, usize, usize)> {
        if !x.is_finite() {
            self.special = if self.has_special { self.special + x } else { x };
            self.has_special = true;
            return None;
        }
        if x == 0.0 {
            return None;
        }
        let bits = x.to_bits();
        let neg = (bits >> 63) != 0;
        let biased = ((bits >> 52) & 0x7FF) as i32;
        let frac = bits & ((1u64 << 52) - 1);
        // x = mantissa * 2^(position - 1074), position in 0..=2045.
        let (mantissa, position) =
            if biased == 0 { (frac, 0) } else { (frac | (1 << 52), biased as usize - 1) };
        Some((neg, mantissa, position / LIMB_BITS as usize, position % LIMB_BITS as usize))
    }

    /// Folds another accumulator into this one: exact limb-wise integer
    /// addition, so `merge` is associative and commutative and merging
    /// per-segment partials reproduces the whole-stream accumulation bit
    /// for bit.
    pub fn merge(&mut self, other: &StableSum) {
        if other.has_special {
            self.special =
                if self.has_special { self.special + other.special } else { other.special };
            self.has_special = true;
        }
        for (a, b) in self.limbs.iter_mut().zip(&other.limbs) {
            *a += *b;
        }
        self.pending = self.pending.saturating_add(other.pending);
        if self.pending >= MAX_PENDING {
            self.carry_propagate();
        }
    }

    /// Renders the exact total, correctly rounded to the nearest `f64`
    /// (ties to even). Totals beyond the finite range overflow to
    /// infinity; a sticky non-finite state renders its IEEE combination.
    pub fn value(&self) -> f64 {
        if self.has_special {
            return self.special;
        }
        let mut limbs = self.limbs.clone();
        propagate(&mut limbs);
        let mut negative = false;
        if limbs[LIMBS - 1] < 0 {
            negative = true;
            for l in limbs.iter_mut() {
                *l = -*l;
            }
            propagate(&mut limbs);
        }
        let Some(top) = limbs.iter().rposition(|&l| l != 0) else {
            return 0.0;
        };
        debug_assert!(limbs[top] > 0 && limbs[top] < (1i128 << LIMB_BITS), "unnormalized limb");
        // A 128-bit window over the top (up to) four limbs holds the
        // mantissa, guard, and most of the sticky information.
        let low = top.saturating_sub(3);
        let mut window: u128 = 0;
        for k in (low..=top).rev() {
            window = (window << LIMB_BITS) | self_low_bits(limbs[k]);
        }
        let sticky_below = limbs[..low].iter().any(|&l| l != 0);
        let window_msb = (127 - window.leading_zeros()) as usize;
        let msb_position = low * LIMB_BITS as usize + window_msb;
        let exponent = msb_position as i64 - 1074;
        // Normal results keep 53 significant bits; subnormal results keep
        // however many bits sit at or above position 0 (all of them — the
        // window always reaches position 0 in that regime, so the render
        // is exact).
        let keep = if exponent >= -1022 { 53 } else { (exponent + 1075) as usize };
        let shift = window_msb + 1 - keep;
        let mut mantissa = (window >> shift) as u64;
        let round_bit = shift > 0 && (window >> (shift - 1)) & 1 == 1;
        let sticky = sticky_below || (shift > 1 && window & ((1u128 << (shift - 1)) - 1) != 0);
        if round_bit && (sticky || mantissa & 1 == 1) {
            mantissa += 1;
        }
        let magnitude = if keep < 53 {
            // Subnormal scale: value = mantissa * 2^-1074, and the bit
            // pattern of a subnormal (or of 2^-1022 exactly, when the
            // mantissa reaches 2^52) *is* the mantissa.
            f64::from_bits(mantissa)
        } else {
            let mut exponent = exponent;
            if mantissa >> 53 != 0 {
                mantissa >>= 1;
                exponent += 1;
            }
            if exponent > 1023 {
                f64::INFINITY
            } else {
                let biased = (exponent + 1023) as u64;
                f64::from_bits((biased << 52) | (mantissa & ((1u64 << 52) - 1)))
            }
        };
        if negative {
            -magnitude
        } else {
            magnitude
        }
    }
}

/// The low 32 bits of a normalized (non-negative, `< 2^32`) limb.
fn self_low_bits(limb: i128) -> u128 {
    debug_assert!((0..(1i128 << LIMB_BITS)).contains(&limb));
    limb as u128
}

/// Carry-propagates so every limb below the top lands in `[0, 2^32)`;
/// the top limb keeps the (signed) overflow and thereby the sign of the
/// whole number.
fn propagate(limbs: &mut [i128]) {
    for k in 0..limbs.len() - 1 {
        let carry = limbs[k] >> LIMB_BITS;
        limbs[k] -= carry << LIMB_BITS;
        limbs[k + 1] += carry;
    }
}

impl StableSum {
    fn carry_propagate(&mut self) {
        propagate(&mut self.limbs);
        self.pending = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Rng, StdRng};

    fn random_values(seed: u64, n: usize) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let magnitude = rng.gen_range(-300.0..300.0);
                let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
                sign * rng.gen_range(0.5..2.0) * 10f64.powf(magnitude / 10.0)
            })
            .collect()
    }

    #[test]
    fn exact_on_representable_integers() {
        let mut s = StableSum::new();
        for x in [1.0, 2.0, 3.0, -4.0, 1048576.0] {
            s.add(x);
        }
        assert_eq!(s.value(), 1048578.0);
    }

    #[test]
    fn cancellation_is_exact() {
        // 1e16 + 1 - 1e16 loses the 1 in plain f64 arithmetic.
        assert_eq!((1e16 + 1.0) - 1e16, 0.0);
        let s = StableSum::of([1e16, 1.0, -1e16]);
        assert_eq!(s.value(), 1.0);
        let s = StableSum::of([1e300, 2.5, -1e300, 1e-300, -1e-300]);
        assert_eq!(s.value(), 2.5);
    }

    #[test]
    fn permutation_invariant() {
        let values = random_values(7, 500);
        let forward = StableSum::of(values.iter().copied());
        let backward = StableSum::of(values.iter().rev().copied());
        let mut shuffled = values.clone();
        let mut rng = StdRng::seed_from_u64(9);
        use crate::rng::SliceRandom;
        shuffled.shuffle(&mut rng);
        let shuffled = StableSum::of(shuffled);
        assert_eq!(forward.value().to_bits(), backward.value().to_bits());
        assert_eq!(forward.value().to_bits(), shuffled.value().to_bits());
    }

    #[test]
    fn merge_of_any_split_matches_whole() {
        let values = random_values(11, 400);
        let whole = StableSum::of(values.iter().copied());
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..25 {
            let mut cuts: Vec<usize> = (0..4).map(|_| rng.gen_range(0..values.len())).collect();
            cuts.push(0);
            cuts.push(values.len());
            cuts.sort_unstable();
            let mut merged = StableSum::new();
            for pair in cuts.windows(2) {
                let part = StableSum::of(values[pair[0]..pair[1]].iter().copied());
                merged.merge(&part);
            }
            assert_eq!(merged.value().to_bits(), whole.value().to_bits());
        }
    }

    #[test]
    fn rounds_half_to_even() {
        // 1 + 2^-53 sits exactly between 1.0 and the next float: ties to
        // the even mantissa, i.e. 1.0.
        let s = StableSum::of([1.0, 2f64.powi(-53)]);
        assert_eq!(s.value(), 1.0);
        // Any sticky bit below the guard breaks the tie upward.
        let s = StableSum::of([1.0, 2f64.powi(-53), 2f64.powi(-105)]);
        assert_eq!(s.value(), 1.0 + 2f64.powi(-52));
        // 1 + 3 * 2^-54 rounds to the nearest (upper) neighbour.
        let s = StableSum::of([1.0, 2f64.powi(-54), 2f64.powi(-54), 2f64.powi(-54)]);
        assert_eq!(s.value(), 1.0 + 2f64.powi(-52));
    }

    #[test]
    fn subnormal_and_overflow_ranges() {
        let tiny = f64::from_bits(1); // smallest subnormal, 2^-1074
        let s = StableSum::of([tiny, tiny, tiny]);
        assert_eq!(s.value(), 3.0 * tiny);
        let s = StableSum::of(std::iter::repeat(tiny).take(4096));
        assert_eq!(s.value(), 4096.0 * tiny);
        // Crossing from subnormal into normal territory.
        let s = StableSum::of([f64::MIN_POSITIVE, -tiny]);
        assert_eq!(s.value(), f64::MIN_POSITIVE - tiny);
        // Exceeding f64::MAX overflows to infinity, like the IEEE sum.
        let s = StableSum::of([f64::MAX, f64::MAX]);
        assert_eq!(s.value(), f64::INFINITY);
        let s = StableSum::of([f64::MAX, f64::MAX, -f64::MAX]);
        assert_eq!(s.value(), f64::MAX);
    }

    #[test]
    fn non_finite_inputs_are_sticky() {
        let s = StableSum::of([1.0, f64::INFINITY, 2.0]);
        assert_eq!(s.value(), f64::INFINITY);
        let s = StableSum::of([f64::INFINITY, f64::NEG_INFINITY]);
        assert!(s.value().is_nan());
        let s = StableSum::of([f64::NAN, 1.0]);
        assert!(s.value().is_nan());
        let mut a = StableSum::of([1.0]);
        let b = StableSum::of([f64::NEG_INFINITY]);
        a.merge(&b);
        assert_eq!(a.value(), f64::NEG_INFINITY);
    }

    #[test]
    fn matches_naive_sum_on_exact_cases() {
        // Sums of same-sign values with small dynamic range stay exact in
        // plain f64 arithmetic only by luck; verify against an exact
        // integer-scaled reference instead.
        let values: Vec<f64> = (1..=1000).map(|i| i as f64 * 0.25).collect();
        let s = StableSum::of(values.iter().copied());
        assert_eq!(s.value(), (1000 * 1001 / 2) as f64 * 0.25);
    }

    /// Finite values across the whole range: subnormals, negatives,
    /// around 1, and ±1e300.
    fn add_n_values() -> Vec<f64> {
        let mut values = random_values(21, 40);
        values.extend([
            f64::from_bits(1),
            -f64::from_bits(3),
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE / 3.0,
            1.0,
            -0.1,
            1e300,
            -1e300,
            f64::MAX,
        ]);
        values
    }

    #[test]
    fn add_n_matches_repeated_adds() {
        for x in add_n_values() {
            for count in [1u64, 2, 97] {
                let mut folded = StableSum::new();
                folded.add_n(x, count);
                let repeated = StableSum::of(std::iter::repeat(x).take(count as usize));
                assert_eq!(
                    folded.value().to_bits(),
                    repeated.value().to_bits(),
                    "x = {x:e}, count = {count}"
                );
                // Mixed into a running sum with other deposits.
                let mut mixed = StableSum::of([0.75, -3e-5]);
                mixed.add_n(x, count);
                mixed.add(1e-300);
                let mut reference = StableSum::of([0.75, -3e-5]);
                for _ in 0..count {
                    reference.add(x);
                }
                reference.add(1e-300);
                assert_eq!(mixed.value().to_bits(), reference.value().to_bits(), "x = {x:e}");
            }
        }
    }

    #[test]
    fn add_n_by_a_power_of_two_is_exact_scaling() {
        // 2^31 repeated adds are too many to run; scaling by a power of two
        // is exact in f64 (overflowing to ±∞ exactly where the sum does).
        let count = 1u64 << 31;
        for x in add_n_values() {
            let mut folded = StableSum::new();
            folded.add_n(x, count);
            assert_eq!(folded.value().to_bits(), (x * 2f64.powi(31)).to_bits(), "x = {x:e}");
        }
    }

    #[test]
    fn add_n_crosses_the_carry_boundary_exactly() {
        // Counts that push `pending` past MAX_PENDING, alone and summed
        // over several deposits, with totals that f64 represents exactly.
        let mut s = StableSum::new();
        s.add_n(1.5, MAX_PENDING - 1);
        assert_eq!(s.pending, MAX_PENDING - 1);
        s.add_n(1.5, 2);
        assert_eq!(s.pending, 0, "crossing the mark runs a carry pass");
        s.add_n(-0.25, 3 * MAX_PENDING);
        s.add_n(1.0, u64::MAX);
        s.add(2.0);
        // u64::MAX is not an f64; the exact total renders from parts.
        let exact = StableSum::of([
            1.5 * (MAX_PENDING + 1) as f64,
            -0.25 * (3 * MAX_PENDING) as f64,
            2f64.powi(64),
            -1.0,
            2.0,
        ]);
        assert_eq!(s.value().to_bits(), exact.value().to_bits());
        // Mantissas at both ends of the range under a huge count.
        let mut wide = StableSum::new();
        wide.add_n(f64::from_bits(1), u64::MAX);
        wide.add_n(-f64::from_bits(1), u64::MAX - 1);
        assert_eq!(wide.value(), f64::from_bits(1));
        let mut big = StableSum::new();
        big.add_n(f64::MAX, u64::MAX);
        assert_eq!(big.value(), f64::INFINITY);
        big.add_n(-f64::MAX, u64::MAX);
        assert_eq!(big.value(), 0.0);
        // Merging two accumulators just below the mark stays exact.
        let mut a = StableSum::new();
        a.add_n(3.0, MAX_PENDING - 1);
        let mut b = StableSum::new();
        b.add_n(-1.0, MAX_PENDING - 1);
        a.merge(&b);
        assert_eq!(a.value(), 2.0 * (MAX_PENDING - 1) as f64);
    }

    #[test]
    fn add_n_of_non_finite_values_is_sticky_like_add() {
        for count in [1u64, 2, 97, 1 << 31] {
            for (first, x) in [
                (1.0, f64::INFINITY),
                (1.0, f64::NEG_INFINITY),
                (1.0, f64::NAN),
                (f64::INFINITY, f64::NEG_INFINITY),
                (f64::NEG_INFINITY, f64::NEG_INFINITY),
            ] {
                let mut folded = StableSum::of([first]);
                folded.add_n(x, count);
                // Past the first copy, repeating a non-finite value changes
                // no IEEE sum, so 2^31 adds render like 97.
                let mut repeated = StableSum::of([first]);
                for _ in 0..count.min(97) {
                    repeated.add(x);
                }
                let (folded, repeated) = (folded.value(), repeated.value());
                let ctx = format!("first = {first}, x = {x}, count = {count}");
                // NaN payload bits are not specified; NaN-ness is.
                if repeated.is_nan() {
                    assert!(folded.is_nan(), "{ctx}");
                } else {
                    assert_eq!(folded.to_bits(), repeated.to_bits(), "{ctx}");
                }
            }
        }
    }

    #[test]
    fn add_n_with_zero_count_is_a_no_op() {
        for x in add_n_values().into_iter().chain([f64::INFINITY, f64::NAN]) {
            let mut s = StableSum::of([2.5]);
            s.add_n(x, 0);
            assert_eq!(s.value(), 2.5, "x = {x}");
            assert_eq!(s.pending, 1);
            assert!(!s.has_special);
        }
    }

    #[test]
    fn empty_renders_zero() {
        assert_eq!(StableSum::new().value(), 0.0);
        assert_eq!(StableSum::of([0.0, -0.0]).value(), 0.0);
    }
}
