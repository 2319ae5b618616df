//! The `f64` k-means oracle: a straight transcription of the textbook
//! algorithm over feature vectors — full k-means++ distance recomputation
//! per seeding round, a fresh assignment scan per iteration, per-cluster
//! accumulators summed in input order — which [`crate::cluster::kmeans`]
//! must match bit for bit (same seeded choices, same assignments, same
//! centroid floats). Compiled only for tests; the integration tests include
//! this file too, with `batch` and `cluster` in scope at their root.

use super::batch::sq_dist;
use super::cluster::{ClusterConfig, PatternClusters, RecurrenceVerdict};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Seeded k-means (k-means++ seeding) over `features`.
pub fn kmeans_f64<F: AsRef<[f64]>>(
    features: &[F],
    k: usize,
    seed: u64,
    max_iterations: usize,
) -> PatternClusters {
    assert!(k > 0);
    if features.is_empty() {
        return PatternClusters::default();
    }
    let dim = features[0].as_ref().len();
    let k = k.min(features.len());
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
    centroids.push(features[rng.gen_range(0..features.len())].as_ref().to_vec());
    while centroids.len() < k {
        let dists: Vec<f64> = features
            .iter()
            .map(|f| {
                centroids
                    .iter()
                    .map(|c| sq_dist(f.as_ref(), c))
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        let total: f64 = dists.iter().sum();
        if total <= f64::EPSILON {
            centroids.push(features[rng.gen_range(0..features.len())].as_ref().to_vec());
            continue;
        }
        let mut target = rng.gen_range(0.0..total);
        let mut chosen = features.len() - 1;
        for (i, d) in dists.iter().enumerate() {
            if target < *d {
                chosen = i;
                break;
            }
            target -= d;
        }
        centroids.push(features[chosen].as_ref().to_vec());
    }
    let mut assignments = vec![0usize; features.len()];
    let mut updated_once = false;
    for _ in 0..max_iterations {
        let nearest: Vec<usize> = features
            .iter()
            .map(|f| {
                let point = f.as_ref();
                let mut best = 0;
                let mut best_dist = sq_dist(point, &centroids[0]);
                for (j, c) in centroids.iter().enumerate().skip(1) {
                    let dist = sq_dist(point, c);
                    if dist.total_cmp(&best_dist) == std::cmp::Ordering::Less {
                        best = j;
                        best_dist = dist;
                    }
                }
                best
            })
            .collect();
        let mut changed = false;
        for (a, n) in assignments.iter_mut().zip(&nearest) {
            if *a != *n {
                *a = *n;
                changed = true;
            }
        }
        if !changed && updated_once {
            break;
        }
        let mut sums = vec![vec![0.0f64; dim]; k];
        let mut counts = vec![0usize; k];
        for (f, &a) in features.iter().zip(&assignments) {
            counts[a] += 1;
            for (s, x) in sums[a].iter_mut().zip(f.as_ref()) {
                *s += x;
            }
        }
        for (j, (sum, &count)) in sums.iter().zip(&counts).enumerate() {
            if count > 0 {
                centroids[j] = sum.iter().map(|s| s / count as f64).collect();
            } else {
                let far = features
                    .iter()
                    .enumerate()
                    .max_by(|(_, a), (_, b)| {
                        sq_dist(a.as_ref(), &centroids[assignments[0]])
                            .total_cmp(&sq_dist(b.as_ref(), &centroids[assignments[0]]))
                    })
                    .map(|(i, _)| i)
                    .expect("nonempty features");
                centroids[j] = features[far].as_ref().to_vec();
            }
        }
        if !changed {
            break;
        }
        updated_once = true;
    }
    let mut sizes = vec![0usize; k];
    for &a in &assignments {
        sizes[a] += 1;
    }
    PatternClusters {
        assignments,
        centroids,
        sizes,
    }
}

/// Recurrence over the bursty quanta's `f64` features, clustered by
/// [`kmeans_f64`].
pub fn recurrence_f64<F: AsRef<[f64]>>(
    windows: usize,
    bursty_features: &[F],
    config: &ClusterConfig,
) -> RecurrenceVerdict {
    let bursty_windows = bursty_features.len();
    if bursty_windows < config.min_recurring {
        return RecurrenceVerdict {
            windows,
            bursty_windows,
            largest_burst_cluster: bursty_windows,
            recurrent: false,
        };
    }
    let clusters = kmeans_f64(
        bursty_features,
        config.k,
        config.seed,
        config.max_iterations,
    );
    let largest = clusters.largest().map(|(_, s)| s).unwrap_or(0);
    RecurrenceVerdict {
        windows,
        bursty_windows,
        largest_burst_cluster: largest,
        recurrent: largest >= config.min_recurring,
    }
}
