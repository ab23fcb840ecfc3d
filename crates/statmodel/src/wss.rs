//! Working-set curve analysis (§6.4.1).
//!
//! "A working set curve ... typically incurs a point (cache size), or
//! multiple points, at which the miss rate falls off. This is commonly
//! referred to as the 'knee' of the curve. This knee indicates the
//! working set size of the application."
//!
//! [`find_knees`] locates those fall-off points in a (cache size,
//! miss-metric) series.

/// A detected knee: the sweep step where the miss metric fell off.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Knee {
    /// Index into the sweep where the drop completes (the first size that
    /// enjoys the lower miss level).
    pub index: usize,
    /// Cache size (bytes or lines — whatever unit the sweep used).
    pub size: u64,
    /// Relative drop: `(before − after) / before`, in `(0, 1]`.
    pub relative_drop: f64,
}

/// Find the knees of a miss curve: consecutive-point drops of at least
/// `min_relative_drop` (e.g. 0.25 = the miss metric fell by a quarter).
///
/// Returns knees in sweep order. Flat and rising segments never produce a
/// knee; neither do drops from an already-negligible level (below
/// `noise_floor`).
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn find_knees(
    sizes: &[u64],
    misses: &[f64],
    min_relative_drop: f64,
    noise_floor: f64,
) -> Vec<Knee> {
    assert_eq!(sizes.len(), misses.len(), "series length mismatch");
    let mut knees = Vec::new();
    for i in 1..misses.len() {
        let before = misses[i - 1];
        let after = misses[i];
        if before <= noise_floor {
            continue;
        }
        let drop = (before - after) / before;
        if drop >= min_relative_drop {
            knees.push(Knee {
                index: i,
                size: sizes[i],
                relative_drop: drop,
            });
        }
    }
    knees
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lbm_shaped_curve_has_two_knees() {
        // MPKI ≈ 40 below 8, ≈ 18 between 16 and 256, ≈ 2 at 512 — the
        // paper's lbm shape.
        let sizes = vec![1, 2, 4, 8, 16, 32, 64, 128, 256, 512];
        let misses = vec![40.0, 40.0, 40.0, 40.0, 19.0, 18.3, 18.3, 18.3, 18.3, 2.3];
        let knees = find_knees(&sizes, &misses, 0.25, 0.4);
        assert_eq!(knees.len(), 2, "{knees:?}");
        assert_eq!(knees[0].size, 16);
        assert_eq!(knees[1].size, 512);
    }

    #[test]
    fn gradual_curves_have_no_knee() {
        // cactusADM-like: each step drops < 25%.
        let sizes: Vec<u64> = (0..10).map(|i| 1 << i).collect();
        let misses: Vec<f64> = (0..10).map(|i| 8.0 * 0.85f64.powi(i)).collect();
        assert!(find_knees(&sizes, &misses, 0.25, 0.0).is_empty());
    }

    #[test]
    fn noise_floor_suppresses_tail_flicker() {
        let sizes = vec![1, 2, 4, 8];
        let misses = vec![10.0, 0.05, 0.01, 0.002];
        // The 0.05 → 0.01 drop is below the floor: only one knee.
        let knees = find_knees(&sizes, &misses, 0.25, 0.1);
        assert_eq!(knees.len(), 1);
        assert_eq!(knees[0].size, 2);
        assert!(knees[0].relative_drop > 0.99);
    }

    #[test]
    fn rising_curves_never_knee() {
        let sizes = vec![1, 2, 4];
        let misses = vec![1.0, 2.0, 3.0];
        assert!(find_knees(&sizes, &misses, 0.1, 0.0).is_empty());
    }

    #[test]
    #[should_panic(expected = "series length mismatch")]
    fn mismatched_series_panic() {
        let _ = find_knees(&[1, 2], &[1.0], 0.2, 0.0);
    }
}
