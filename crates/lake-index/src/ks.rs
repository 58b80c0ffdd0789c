//! The two-sample Kolmogorov–Smirnov statistic.
//!
//! Both D³L and RNLIM compare *numerical* attributes by distribution: "the
//! Kolmogorov-Smirnov statistic" (§6.2.1, §6.2.3). The statistic is the
//! maximum vertical distance between the two empirical CDFs; similarity is
//! `1 - D`, so identically distributed samples score near 1.

/// A sample in the ascending (`f64::total_cmp`) order the sorted kernel
/// walks. The order is total, so the result depends only on the multiset
/// of bit patterns in `values`, never on their input order.
pub fn sorted_sample(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    sorted
}

/// The two-sample KS statistic `D ∈ [0, 1]`. Returns 1.0 (maximal
/// difference) when either sample is empty.
pub fn ks_statistic(a: &[f64], b: &[f64]) -> f64 {
    ks_statistic_sorted(&sorted_sample(a), &sorted_sample(b))
}

/// [`ks_statistic`] of two samples already in [`sorted_sample`] order —
/// the kernel callers holding per-column sorted samples use per pair.
pub fn ks_statistic_sorted(sa: &[f64], sb: &[f64]) -> f64 {
    if sa.is_empty() || sb.is_empty() {
        return 1.0;
    }
    let (na, nb) = (sa.len() as f64, sb.len() as f64);
    let (mut i, mut j) = (0usize, 0usize);
    let mut d: f64 = 0.0;
    while i < sa.len() && j < sb.len() {
        let x = sa[i].min(sb[j]);
        if x.is_nan() {
            // Both cursors sit on a NaN, which `<=` never passes: step
            // over both runs as one tie so the walk terminates.
            while i < sa.len() && sa[i].is_nan() {
                i += 1;
            }
            while j < sb.len() && sb[j].is_nan() {
                j += 1;
            }
        }
        while i < sa.len() && sa[i] <= x {
            i += 1;
        }
        while j < sb.len() && sb[j] <= x {
            j += 1;
        }
        d = d.max((i as f64 / na - j as f64 / nb).abs());
    }
    d.max((1.0 - (i as f64 / na)).abs().min(1.0))
        .max((1.0 - (j as f64 / nb)).abs().min(1.0))
        .min(1.0)
}

/// Distribution similarity `1 - D` used as a discovery feature.
pub fn ks_similarity(a: &[f64], b: &[f64]) -> f64 {
    1.0 - ks_statistic(a, b)
}

/// [`ks_similarity`] of two samples already in [`sorted_sample`] order.
pub fn ks_similarity_sorted(sa: &[f64], sb: &[f64]) -> f64 {
    1.0 - ks_statistic_sorted(sa, sb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn identical_samples_have_zero_statistic() {
        let a = [1.0, 2.0, 3.0, 4.0];
        assert!(ks_statistic(&a, &a) < 1e-12);
        assert!((ks_similarity(&a, &a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_ranges_have_statistic_one() {
        let a = [1.0, 2.0, 3.0];
        let b = [100.0, 200.0];
        assert!((ks_statistic(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn same_distribution_scores_low() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let a: Vec<f64> = (0..500).map(|_| rng.random::<f64>() * 10.0).collect();
        let b: Vec<f64> = (0..500).map(|_| rng.random::<f64>() * 10.0).collect();
        assert!(ks_statistic(&a, &b) < 0.12, "{}", ks_statistic(&a, &b));
    }

    #[test]
    fn shifted_distribution_scores_high() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let a: Vec<f64> = (0..500).map(|_| rng.random::<f64>()).collect();
        let b: Vec<f64> = (0..500).map(|_| rng.random::<f64>() + 0.8).collect();
        assert!(ks_statistic(&a, &b) > 0.6, "{}", ks_statistic(&a, &b));
    }

    #[test]
    fn empty_samples_are_maximally_different() {
        assert_eq!(ks_statistic(&[], &[1.0]), 1.0);
        assert_eq!(ks_statistic(&[1.0], &[]), 1.0);
        assert_eq!(ks_statistic(&[], &[]), 1.0);
    }

    #[test]
    fn nan_in_both_samples_terminates() {
        let a = [f64::NAN, 1.0, 2.0];
        assert!(ks_statistic(&a, &a) < 1e-12);
        assert!(ks_statistic(&a, &[-f64::NAN, 5.0, f64::NAN]) <= 1.0);
        assert_eq!(ks_statistic(&[f64::NAN], &[f64::NAN]), 0.0);
    }

    #[test]
    fn sorted_kernel_ignores_input_order_and_zero_sign() {
        let a = [3.0, -0.0, 0.0, 1.5, 3.0];
        let b = [0.0, 2.0, -0.0, 7.0];
        let mut rev = a;
        rev.reverse();
        let d = ks_statistic(&a, &b);
        assert_eq!(d.to_bits(), ks_statistic(&rev, &b).to_bits());
        assert_eq!(
            d.to_bits(),
            ks_statistic_sorted(&sorted_sample(&a), &sorted_sample(&b)).to_bits()
        );
        assert_eq!(
            ks_similarity_sorted(&sorted_sample(&a), &sorted_sample(&b)),
            1.0 - d
        );
    }

    #[test]
    fn statistic_is_symmetric() {
        let a = [1.0, 5.0, 2.0, 8.0];
        let b = [3.0, 3.0, 7.0];
        assert!((ks_statistic(&a, &b) - ks_statistic(&b, &a)).abs() < 1e-12);
    }
}
