//! Dense matrix kernels: Gaussian elimination and LU decomposition.
//!
//! The input is a square integer matrix flattened into one column. To keep
//! functional verification tractable at large input scales, kernels operate
//! on the leading `MAX_DIM × MAX_DIM` block (the timing model still charges
//! the full O(n³) work via the `AppSpec` constants); at benchmark scales
//! below the cap this is the whole matrix.

use crate::kernels::KernelResult;
use crate::Digest;
use morpheus_format::ParsedColumns;

/// Largest block functionally factorized.
pub const MAX_DIM: usize = 384;

fn load_matrix(objects: &ParsedColumns) -> (usize, Vec<f64>) {
    let vals = objects.columns[0]
        .as_ints()
        .expect("matrix column is integer");
    let n_full = (vals.len() as f64).sqrt() as usize;
    let n = n_full.min(MAX_DIM);
    let mut a = vec![0.0f64; n * n];
    for i in 0..n {
        for j in 0..n {
            a[i * n + j] = vals[i * n_full + j] as f64;
        }
    }
    (n, a)
}

/// Gaussian elimination with partial pivoting; digests the resulting upper
/// triangle's diagonal and the pivot order.
pub fn gaussian(objects: &ParsedColumns) -> KernelResult {
    let (n, mut a) = load_matrix(objects);
    let mut d = Digest::new();
    let mut swaps = 0u64;
    for k in 0..n {
        // Partial pivot.
        let mut p = k;
        for i in (k + 1)..n {
            if a[i * n + k].abs() > a[p * n + k].abs() {
                p = i;
            }
        }
        if p != k {
            for j in 0..n {
                a.swap(k * n + j, p * n + j);
            }
            swaps += 1;
        }
        d.mix(p as u64);
        let pivot = a[k * n + k];
        if pivot == 0.0 {
            continue;
        }
        for i in (k + 1)..n {
            let f = a[i * n + k] / pivot;
            a[i * n + k] = 0.0;
            for j in (k + 1)..n {
                a[i * n + j] -= f * a[k * n + j];
            }
        }
    }
    let mut logdet = 0.0f64;
    for k in 0..n {
        let v = a[k * n + k];
        d.mix_f64(v);
        if v != 0.0 {
            logdet += v.abs().ln();
        }
    }
    KernelResult {
        digest: d.value(),
        summary: format!("gaussian: n={n}, {swaps} pivots, log|det|={logdet:.3}"),
    }
}

/// Doolittle LU decomposition (no pivoting — inputs are diagonally
/// dominant); digests both factors' diagonals.
pub fn lud(objects: &ParsedColumns) -> KernelResult {
    let (n, a) = load_matrix(objects);
    let mut lu = a.clone();
    for k in 0..n {
        let pivot = lu[k * n + k];
        assert!(
            pivot.abs() > 1e-12,
            "diagonally dominant input should not need pivoting"
        );
        for i in (k + 1)..n {
            let f = lu[i * n + k] / pivot;
            lu[i * n + k] = f;
            for j in (k + 1)..n {
                lu[i * n + j] -= f * lu[k * n + j];
            }
        }
    }
    let mut d = Digest::new();
    let mut logdet = 0.0f64;
    for k in 0..n {
        d.mix_f64(lu[k * n + k]);
        logdet += lu[k * n + k].abs().ln();
    }
    // Verify a sample: rows n-1 and n/2 of L·U, L with its unit diagonal,
    // must reproduce A's (row 0 would prove nothing: elimination never
    // writes it). Row i of L·U sums L[i][m] times row m of U over m <= i.
    let mut row = vec![0.0f64; n];
    for i in [n.saturating_sub(1), n / 2] {
        row.fill(0.0);
        for m in 0..=i {
            let l = if m == i { 1.0 } else { lu[i * n + m] };
            for (r, u) in row[m..].iter_mut().zip(&lu[m * n + m..(m + 1) * n]) {
                *r += l * u;
            }
        }
        for (j, (r, x)) in row.iter().zip(&a[i * n..(i + 1) * n]).enumerate() {
            assert!(
                (r - x).abs() < 1e-9,
                "L·U differs from A at ({i}, {j}): {r} vs {x}"
            );
        }
    }
    KernelResult {
        digest: d.value(),
        summary: format!("lud: n={n}, log|det|={logdet:.3}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morpheus_format::{parse_buffer, FieldKind, Schema};

    fn mat(text: &[u8]) -> ParsedColumns {
        let schema = Schema::new(vec![FieldKind::I32]);
        parse_buffer(text, &schema).unwrap().0
    }

    #[test]
    fn gaussian_identity_has_zero_logdet() {
        let p = mat(b"1 0 0\n0 1 0\n0 0 1\n");
        let r = gaussian(&p);
        assert!(r.summary.contains("log|det|=0.000"), "{}", r.summary);
    }

    #[test]
    fn gaussian_detects_known_determinant() {
        // det([[2,0],[0,3]]) = 6 -> log 1.792
        let p = mat(b"2 0\n0 3\n");
        let r = gaussian(&p);
        assert!(r.summary.contains("1.792"), "{}", r.summary);
    }

    #[test]
    fn lud_matches_gaussian_logdet_for_dominant_matrix() {
        let p = mat(b"10 1 2\n3 12 1\n2 1 9\n");
        let g = gaussian(&p);
        let l = lud(&p);
        let gl = g.summary.split("log|det|=").nth(1).unwrap();
        let ll = l.summary.split("log|det|=").nth(1).unwrap();
        assert_eq!(gl, ll);
    }

    #[test]
    fn kernels_are_deterministic() {
        let p = mat(b"10 1\n2 12\n");
        assert_eq!(gaussian(&p).digest, gaussian(&p).digest);
        assert_eq!(lud(&p).digest, lud(&p).digest);
    }

    #[test]
    fn large_matrices_capped() {
        let text = crate::matrix_text(4 * (MAX_DIM as u64 + 50).pow(2), 3);
        let p = mat(&text);
        let r = lud(&p);
        assert!(r.summary.contains(&format!("n={MAX_DIM}")), "{}", r.summary);
    }
}
