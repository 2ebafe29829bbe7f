//! k-means clustering over integer-coordinate points.

use crate::kernels::KernelResult;
use crate::Digest;
use morpheus_format::ParsedColumns;

/// Points assigned together: one block's distances stay in L1 while every
/// centroid is tried against it.
const BLOCK: usize = 256;

/// Lloyd's algorithm: `k` clusters, `iters` iterations, seeded from the
/// first `k` points. The first column is the point id; the rest are
/// coordinates.
///
/// Coordinates are converted to `f64` once, one array per dimension. Each
/// point's squared distance sums dimensions in order and the nearest
/// centroid wins by strict `<` in centroid order, so every float operation
/// has the operands and order of the point-at-a-time loop.
pub fn kmeans(objects: &ParsedColumns, k: usize, iters: u32) -> KernelResult {
    let dims = objects.columns.len() - 1;
    let n = objects.records as usize;
    let coords: Vec<Vec<f64>> = objects.columns[1..]
        .iter()
        .map(|c| {
            let col = c.as_ints().expect("point coordinates are integers");
            col.iter().map(|&x| x as f64).collect()
        })
        .collect();
    let k = k.min(n.max(1));
    if n == 0 {
        return KernelResult {
            digest: Digest::new().value(),
            summary: "kmeans: no points".into(),
        };
    }
    let mut centroids = vec![0.0f64; k * dims];
    for c in 0..k {
        for (d, col) in coords.iter().enumerate() {
            centroids[c * dims + d] = col[c];
        }
    }
    let mut assign = vec![0u32; n];
    let mut best = [0.0f64; BLOCK];
    let mut dist = [0.0f64; BLOCK];
    for _ in 0..iters {
        // Assignment step, a block of points at a time.
        for (b, block) in assign.chunks_mut(BLOCK).enumerate() {
            let lo = b * BLOCK;
            let len = block.len();
            best[..len].fill(f64::INFINITY);
            for c in 0..u32::try_from(k).expect("fewer than 2^32 clusters") {
                let centroid = &centroids[c as usize * dims..(c as usize + 1) * dims];
                dist[..len].fill(0.0);
                for (col, &m) in coords.iter().zip(centroid) {
                    for (acc, &x) in dist[..len].iter_mut().zip(&col[lo..lo + len]) {
                        let delta = x - m;
                        *acc += delta * delta;
                    }
                }
                // A compare-select, not a branch: which centroid wins is
                // data-dependent, so a branch mispredicts often. A distance
                // is a sum of squares from +0.0, never NaN or -0.0, so
                // `min` keeps `*b` exactly when `d < *b` fails.
                for ((a, b), &d) in block.iter_mut().zip(&mut best[..len]).zip(&dist[..len]) {
                    let closer = u32::from(d < *b).wrapping_neg();
                    *b = b.min(d);
                    *a = (*a & !closer) | (c & closer);
                }
            }
        }
        // Update step.
        let mut sums = vec![0.0f64; k * dims];
        let mut counts = vec![0u64; k];
        for (i, &a) in assign.iter().enumerate() {
            let a = a as usize;
            counts[a] += 1;
            for (d, col) in coords.iter().enumerate() {
                sums[a * dims + d] += col[i];
            }
        }
        for c in 0..k {
            if counts[c] == 0 {
                continue;
            }
            for d in 0..dims {
                centroids[c * dims + d] = sums[c * dims + d] / counts[c] as f64;
            }
        }
    }
    let mut digest = Digest::new();
    let mut inertia = 0.0f64;
    for (i, &a) in assign.iter().enumerate() {
        for (d, col) in coords.iter().enumerate() {
            let delta = col[i] - centroids[a as usize * dims + d];
            inertia += delta * delta;
        }
    }
    for c in &centroids {
        digest.mix_f64(*c);
    }
    digest.mix_f64(inertia);
    KernelResult {
        digest: digest.value(),
        summary: format!("kmeans: {n} points, k={k}, inertia {inertia:.1}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morpheus_format::{parse_buffer, FieldKind, Schema};

    fn points(text: &[u8]) -> ParsedColumns {
        let schema = Schema::new(vec![FieldKind::U32, FieldKind::I32, FieldKind::I32]);
        parse_buffer(text, &schema).unwrap().0
    }

    #[test]
    fn two_well_separated_clusters_have_low_inertia() {
        let p = points(b"0 0 0\n1 1 1\n2 100 100\n3 101 101\n");
        let r = kmeans(&p, 2, 10);
        let inertia: f64 = r.summary.split("inertia ").nth(1).unwrap().parse().unwrap();
        assert!(inertia < 5.0, "{}", r.summary);
    }

    #[test]
    fn deterministic() {
        let p = points(b"0 1 2\n1 5 4\n2 9 0\n3 2 2\n");
        assert_eq!(kmeans(&p, 2, 5).digest, kmeans(&p, 2, 5).digest);
    }

    #[test]
    fn k_capped_to_point_count() {
        let p = points(b"0 1 1\n");
        let r = kmeans(&p, 8, 3);
        assert!(r.summary.contains("k=1"));
    }

    #[test]
    fn empty_input_handled() {
        let p = points(b"");
        assert!(kmeans(&p, 4, 3).summary.contains("no points"));
    }
}
