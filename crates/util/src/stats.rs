//! Summary statistics used by the evaluation harness.

/// Arithmetic mean; 0.0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Population standard deviation; 0.0 for fewer than two values.
pub fn std_dev(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    let var = values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / values.len() as f64;
    var.sqrt()
}

/// The `q`-quantile (0 ≤ q ≤ 1) using linear interpolation between order
/// statistics; 0.0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// `log10(x)` clamped so that tiny or zero errors do not produce `-inf` in
/// figure output. The paper plots log10(error); a floor of 1e-6 keeps the
/// axes readable without changing any comparison.
pub fn log10_floored(x: f64) -> f64 {
    log10(x.max(1e-6))
}

/// `log10(x)` without libm, so a binary that prints figures does not
/// load it: a port of FreeBSD's `e_log10.c` (as musl carries it), under
/// 1 ulp of error and exact on powers of ten. `log(1+f)` for the reduced
/// argument comes from the same minimax polynomial as `log`, and the
/// result is summed in a high and a low part.
fn log10(x: f64) -> f64 {
    const IVLN10_HI: f64 = f64::from_bits(0x3fdb_cb7b_1520_0000);
    const IVLN10_LO: f64 = f64::from_bits(0x3dbb_9438_ca9a_add5);
    const LOG10_2_HI: f64 = f64::from_bits(0x3fd3_4413_509f_6000);
    const LOG10_2_LO: f64 = f64::from_bits(0x3d59_fef3_11f1_2b36);
    const LG: [f64; 7] = [
        f64::from_bits(0x3fe5_5555_5555_5593),
        f64::from_bits(0x3fd9_9999_9997_fa04),
        f64::from_bits(0x3fd2_4924_9422_9359),
        f64::from_bits(0x3fcc_71c5_1d8e_78af),
        f64::from_bits(0x3fc7_4664_96cb_03de),
        f64::from_bits(0x3fc3_9a09_d078_c69f),
        f64::from_bits(0x3fc2_f112_df3e_5244),
    ];
    let mut bits = x.to_bits();
    let mut hx = (bits >> 32) as u32;
    let mut k: i32 = 0;
    if hx < 0x0010_0000 || hx >> 31 != 0 {
        if bits << 1 == 0 {
            return f64::NEG_INFINITY; // log(±0)
        }
        if hx >> 31 != 0 {
            return f64::NAN; // log of a negative number
        }
        // Subnormal: scale up by 2^54.
        k -= 54;
        bits = (x * f64::from_bits(0x4350_0000_0000_0000)).to_bits();
        hx = (bits >> 32) as u32;
    } else if hx >= 0x7ff0_0000 {
        return x; // +inf or NaN
    } else if hx == 0x3ff0_0000 && bits << 32 == 0 {
        return 0.0;
    }

    // Reduce x into [sqrt(2)/2, sqrt(2)].
    hx += 0x3ff0_0000 - 0x3fe6_a09e;
    k += (hx >> 20) as i32 - 0x3ff;
    hx = (hx & 0x000f_ffff) + 0x3fe6_a09e;
    let x = f64::from_bits(u64::from(hx) << 32 | (bits & 0xffff_ffff));

    let f = x - 1.0;
    let hfsq = 0.5 * f * f;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG[1] + w * (LG[3] + w * LG[5]));
    let t2 = z * (LG[0] + w * (LG[2] + w * (LG[4] + w * LG[6])));
    let r = t2 + t1;

    // hi + lo = f - hfsq + s*(hfsq + r) ~ log(1 + f), hi keeping only
    // its high word so that hi*IVLN10_HI is exact.
    let hi = f64::from_bits((f - hfsq).to_bits() & 0xffff_ffff_0000_0000);
    let lo = f - hi - hfsq + s * (hfsq + r);

    // val_hi + val_lo ~ log10(1 + f) + k*log10(2).
    let dk = f64::from(k);
    let y = dk * LOG10_2_HI;
    let mut val_hi = hi * IVLN10_HI;
    let mut val_lo = dk * LOG10_2_LO + (lo + hi) * IVLN10_LO + lo * IVLN10_HI;
    let sum = y + val_hi;
    val_lo += (y - sum) + val_hi;
    val_hi = sum;
    val_lo + val_hi
}

/// Geometric mean of strictly positive values; 0.0 for an empty slice.
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(f64::MIN_POSITIVE).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn std_dev_basic() {
        assert_eq!(std_dev(&[5.0]), 0.0);
        let sd = std_dev(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((sd - 2.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_interpolates() {
        let values = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&values, 0.0), 1.0);
        assert_eq!(quantile(&values, 1.0), 4.0);
        assert_eq!(quantile(&values, 0.5), 2.5);
    }

    #[test]
    fn quantile_handles_unsorted_input() {
        let values = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&values, 0.5), 2.5);
    }

    #[test]
    fn log10_floored_clamps() {
        assert_eq!(log10_floored(0.0), -6.0);
        assert_eq!(log10_floored(100.0), 2.0);
    }

    #[test]
    fn geometric_mean_basic() {
        assert!((geometric_mean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert_eq!(geometric_mean(&[]), 0.0);
    }
}
