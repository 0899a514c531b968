//! Deterministic 64-bit hashing. Sketch identity must be stable across
//! processes and runs, so the hash functions are pinned here instead of
//! going through `std`'s randomized `DefaultHasher`.

/// SplitMix64 finalizer: a fast, well-distributed bijection on `u64`.
/// Used to turn raw value bits into register/bucket assignments.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Canonical bit pattern of an `f64` for hashing: `-0.0` folds onto
/// `0.0` and every NaN folds onto one canonical NaN, so values that
/// compare equal (or are equally "missing") hash equal.
#[inline]
pub fn canonical_f64_bits(v: f64) -> u64 {
    if v == 0.0 {
        0
    } else if v.is_nan() {
        f64::NAN.to_bits()
    } else {
        v.to_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_spreads() {
        assert_eq!(splitmix64(1), splitmix64(1));
        assert_ne!(splitmix64(1), splitmix64(2));
        // Consecutive inputs land far apart.
        let a = splitmix64(100);
        let b = splitmix64(101);
        assert!((a ^ b).count_ones() > 10);
    }

    #[test]
    fn canonical_bits_fold_zero_and_nan() {
        assert_eq!(canonical_f64_bits(0.0), canonical_f64_bits(-0.0));
        assert_eq!(canonical_f64_bits(f64::NAN), canonical_f64_bits(-f64::NAN));
        assert_ne!(canonical_f64_bits(1.0), canonical_f64_bits(2.0));
    }
}
