//! Clustering-quality metrics used for the Figure-5 comparison: the paper
//! compares C-means, K-means and deterministic annealing "in terms of
//! average width over clusters and points and clusters overlapping with
//! standard Flame results".

use crate::matrix::{sq_dist, MatrixF32};

/// Average width: the mean distance from each point to its assigned
/// cluster center, averaged over all points (lower is tighter).
pub fn average_width(points: &MatrixF32, centers: &MatrixF32, assignment: &[u32]) -> f64 {
    assert_eq!(points.rows(), assignment.len());
    assert_eq!(points.cols(), centers.cols());
    let n = points.rows();
    assert!(n > 0);
    let mut total = 0.0;
    for (i, &label) in assignment.iter().enumerate() {
        total += sq_dist(points.row(i), centers.row(label as usize)).sqrt();
    }
    total / n as f64
}

/// Builds the `k_a × k_b` contingency table of two labelings.
pub fn contingency(a: &[u32], b: &[u32], k_a: usize, k_b: usize) -> Vec<Vec<u64>> {
    assert_eq!(a.len(), b.len());
    let mut table = vec![vec![0u64; k_b]; k_a];
    for (&la, &lb) in a.iter().zip(b) {
        assert!(
            (la as usize) < k_a && (lb as usize) < k_b,
            "label out of range: ({la}, {lb}) with table {k_a} x {k_b}"
        );
        table[la as usize][lb as usize] += 1;
    }
    table
}

/// Cluster overlap against a reference labeling: the fraction of points
/// that agree after greedily matching each predicted cluster to its best
/// reference cluster (each reference cluster used at most once). A perfect
/// relabeled clustering scores 1.0.
pub fn overlap_with_reference(predicted: &[u32], reference: &[u32], k: usize) -> f64 {
    assert_eq!(predicted.len(), reference.len());
    let n = predicted.len();
    assert!(n > 0);
    let table = contingency(predicted, reference, k, k);
    // Greedy maximum matching on the contingency table: repeatedly take the
    // largest remaining cell. Optimal for well-separated solutions and a
    // tight lower bound otherwise.
    let mut used_pred = vec![false; k];
    let mut used_ref = vec![false; k];
    let mut agree = 0u64;
    for _ in 0..k {
        let mut best = 0u64;
        let mut best_at = None;
        for (i, used_p) in used_pred.iter().enumerate() {
            if *used_p {
                continue;
            }
            for (j, used_r) in used_ref.iter().enumerate() {
                if *used_r {
                    continue;
                }
                if table[i][j] > best {
                    best = table[i][j];
                    best_at = Some((i, j));
                }
            }
        }
        match best_at {
            Some((i, j)) => {
                used_pred[i] = true;
                used_ref[j] = true;
                agree += best;
            }
            None => break,
        }
    }
    agree as f64 / n as f64
}

/// Adjusted Rand Index between two labelings — a stricter agreement
/// measure used as a cross-check on `overlap_with_reference`.
pub fn adjusted_rand_index(a: &[u32], b: &[u32]) -> f64 {
    assert_eq!(a.len(), b.len());
    let n = a.len() as f64;
    assert!(n > 1.0);
    let k_a = a.iter().copied().max().map(|m| m as usize + 1).unwrap_or(0);
    let k_b = b.iter().copied().max().map(|m| m as usize + 1).unwrap_or(0);
    let table = contingency(a, b, k_a, k_b);

    fn choose2(x: u64) -> f64 {
        let x = x as f64;
        x * (x - 1.0) / 2.0
    }

    let sum_cells: f64 = table
        .iter()
        .flat_map(|row| row.iter())
        .map(|&c| choose2(c))
        .sum();
    let row_sums: Vec<u64> = table.iter().map(|r| r.iter().sum()).collect();
    let col_sums: Vec<u64> = (0..k_b).map(|j| table.iter().map(|r| r[j]).sum()).collect();
    let sum_rows: f64 = row_sums.iter().map(|&x| choose2(x)).sum();
    let sum_cols: f64 = col_sums.iter().map(|&x| choose2(x)).sum();
    let total_pairs = choose2(a.len() as u64);
    let expected = sum_rows * sum_cols / total_pairs;
    let max_index = 0.5 * (sum_rows + sum_cols);
    if (max_index - expected).abs() < 1e-12 {
        return 1.0; // both labelings are a single cluster
    }
    (sum_cells - expected) / (max_index - expected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::MatrixF32;

    #[test]
    fn average_width_of_points_on_centers_is_zero() {
        let centers = MatrixF32::from_vec(2, 2, vec![0.0, 0.0, 10.0, 10.0]);
        let points = MatrixF32::from_vec(4, 2, vec![0.0, 0.0, 10.0, 10.0, 0.0, 0.0, 10.0, 10.0]);
        let w = average_width(&points, &centers, &[0, 1, 0, 1]);
        assert_eq!(w, 0.0);
    }

    #[test]
    fn average_width_known_value() {
        let centers = MatrixF32::from_vec(1, 2, vec![0.0, 0.0]);
        let points = MatrixF32::from_vec(2, 2, vec![3.0, 4.0, 0.0, 0.0]);
        let w = average_width(&points, &centers, &[0, 0]);
        assert!((w - 2.5).abs() < 1e-12);
    }

    #[test]
    fn overlap_identical_labelings_is_one() {
        let l = vec![0, 1, 2, 0, 1, 2];
        assert_eq!(overlap_with_reference(&l, &l, 3), 1.0);
    }

    #[test]
    fn overlap_handles_relabeled_clusters() {
        let a = vec![0, 0, 1, 1, 2, 2];
        let b = vec![2, 2, 0, 0, 1, 1]; // same partition, renamed
        assert_eq!(overlap_with_reference(&a, &b, 3), 1.0);
    }

    #[test]
    fn overlap_degrades_with_disagreement() {
        let a = vec![0, 0, 0, 1, 1, 1];
        let b = vec![0, 0, 1, 1, 1, 0];
        let o = overlap_with_reference(&a, &b, 2);
        assert!((o - 4.0 / 6.0).abs() < 1e-12, "o = {o}");
    }

    #[test]
    fn ari_perfect_and_relabeled() {
        let a = vec![0, 0, 1, 1, 2, 2];
        let b = vec![1, 1, 2, 2, 0, 0];
        assert!((adjusted_rand_index(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ari_random_labelings_near_zero() {
        // A labeling independent of the reference should have ARI ~ 0.
        let mut rng = crate::rng::SplitMix64::new(99);
        let a: Vec<u32> = (0..2000).map(|i| (i % 4) as u32).collect();
        let b: Vec<u32> = (0..2000).map(|_| rng.next_below(4) as u32).collect();
        let ari = adjusted_rand_index(&a, &b);
        assert!(ari.abs() < 0.05, "ari = {ari}");
    }

    #[test]
    fn contingency_counts() {
        let t = contingency(&[0, 0, 1], &[1, 1, 0], 2, 2);
        assert_eq!(t[0][1], 2);
        assert_eq!(t[1][0], 1);
        assert_eq!(t[0][0] + t[1][1], 0);
    }
}
