//! Matrix multiplication: 2-D, batched 3-D, and 3-D × 2-D.

use crate::arena;
use crate::plan;
use crate::simd;
use crate::tensor::{read_pair, Tensor};

/// `c += a (m×k) · b (k×n)` — cache-friendly ikj kernel. The inner axpy
/// runs at the dispatched SIMD level (bit-identical to scalar — see
/// `crate::simd`).
pub(crate) fn mm_acc(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    for i in 0..m {
        let crow = &mut c[i * n..(i + 1) * n];
        for p in 0..k {
            let av = a[i * k + p];
            // aimts-lint: allow(A004, exact-zero skip: sparsity fast path, any nonzero must multiply)
            if av == 0.0 {
                continue;
            }
            let brow = &b[p * n..(p + 1) * n];
            simd::axpy(crow, av, brow);
        }
    }
}

/// `a (m×k) · b (k×n)` into a fresh arena-backed buffer.
pub(crate) fn mm(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = arena::zeroed(m * n);
    mm_acc(&mut c, a, b, m, k, n);
    c
}

/// Transpose an `r×c` row-major matrix (arena-backed scratch).
pub(crate) fn transpose2d(x: &[f32], r: usize, c: usize) -> Vec<f32> {
    let mut out = arena::zeroed(r * c);
    for i in 0..r {
        for j in 0..c {
            out[j * r + i] = x[i * c + j];
        }
    }
    out
}

impl Tensor {
    /// Matrix product.
    ///
    /// Supported shapes:
    /// * `[m,k] · [k,n] -> [m,n]`
    /// * `[B,m,k] · [B,k,n] -> [B,m,n]`
    /// * `[B,m,k] · [k,n] -> [B,m,n]` (shared right operand)
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        match (self.ndim(), other.ndim()) {
            (2, 2) => self.matmul_2d(other),
            (3, 3) => self.matmul_batched(other),
            (3, 2) => self.matmul_3d_2d(other),
            // aimts-lint: allow(A001, rank mismatch is a caller programming error, covered by matmul_bad_dims test)
            _ => panic!(
                "unsupported matmul ranks: {:?} x {:?}",
                self.shape(),
                other.shape()
            ),
        }
    }

    fn matmul_2d(&self, other: &Tensor) -> Tensor {
        let (m, k) = (self.shape()[0], self.shape()[1]);
        let (k2, n) = (other.shape()[0], other.shape()[1]);
        assert_eq!(k, k2, "matmul inner dims differ: {k} vs {k2}");
        let (ad, bd) = read_pair(self, other);
        let out = mm(&ad, &bd, m, k, n);
        drop((ad, bd));
        let t = Tensor::from_op(
            out,
            &[m, n],
            vec![self.clone(), other.clone()],
            Box::new(move |node, gout| {
                let (a, b) = read_pair(&node.op_parents()[0], &node.op_parents()[1]);
                // ga = gout · b^T ; gb = a^T · gout
                let bt = transpose2d(&b, k, n);
                let at = transpose2d(&a, m, k);
                let ga = mm(gout, &bt, m, n, k);
                let gb = mm(&at, gout, k, m, n);
                arena::recycle(bt);
                arena::recycle(at);
                vec![Some(ga), Some(gb)]
            }),
        );
        plan::record(
            &t,
            plan::Op::Matmul,
            plan::Attr::None,
            &[self, other],
            move |ps| {
                let (ad, bd) = read_pair(&ps[0], &ps[1]);
                mm(&ad, &bd, m, k, n)
            },
        );
        t
    }

    fn matmul_batched(&self, other: &Tensor) -> Tensor {
        let (bsz, m, k) = (self.shape()[0], self.shape()[1], self.shape()[2]);
        let (b2, k2, n) = (other.shape()[0], other.shape()[1], other.shape()[2]);
        assert_eq!(bsz, b2, "batched matmul batch dims differ");
        assert_eq!(k, k2, "matmul inner dims differ");
        let (ad_ref, bd_ref) = read_pair(self, other);
        let (ad, bd): (&[f32], &[f32]) = (&ad_ref, &bd_ref);
        let mut out = arena::zeroed(bsz * m * n);
        out.chunks_mut(m * n).enumerate().for_each(|(bi, chunk)| {
            mm_acc(
                chunk,
                &ad[bi * m * k..(bi + 1) * m * k],
                &bd[bi * k * n..(bi + 1) * k * n],
                m,
                k,
                n,
            );
        });
        drop((ad_ref, bd_ref));
        let t = Tensor::from_op(
            out,
            &[bsz, m, n],
            vec![self.clone(), other.clone()],
            Box::new(move |node, gout| {
                let (a, b) = read_pair(&node.op_parents()[0], &node.op_parents()[1]);
                let mut ga = arena::zeroed(bsz * m * k);
                let mut gb = arena::zeroed(bsz * k * n);
                for bi in 0..bsz {
                    let go = &gout[bi * m * n..(bi + 1) * m * n];
                    let ab = &a[bi * m * k..(bi + 1) * m * k];
                    let bb = &b[bi * k * n..(bi + 1) * k * n];
                    let bt = transpose2d(bb, k, n);
                    let at = transpose2d(ab, m, k);
                    mm_acc(&mut ga[bi * m * k..(bi + 1) * m * k], go, &bt, m, n, k);
                    mm_acc(&mut gb[bi * k * n..(bi + 1) * k * n], &at, go, k, m, n);
                    arena::recycle(bt);
                    arena::recycle(at);
                }
                vec![Some(ga), Some(gb)]
            }),
        );
        plan::record(
            &t,
            plan::Op::Matmul,
            plan::Attr::None,
            &[self, other],
            move |ps| {
                let (ad_ref, bd_ref) = read_pair(&ps[0], &ps[1]);
                let (ad, bd): (&[f32], &[f32]) = (&ad_ref, &bd_ref);
                let mut out = arena::zeroed(bsz * m * n);
                out.chunks_mut(m * n).enumerate().for_each(|(bi, chunk)| {
                    mm_acc(
                        chunk,
                        &ad[bi * m * k..(bi + 1) * m * k],
                        &bd[bi * k * n..(bi + 1) * k * n],
                        m,
                        k,
                        n,
                    );
                });
                out
            },
        );
        t
    }

    fn matmul_3d_2d(&self, other: &Tensor) -> Tensor {
        let (bsz, m, k) = (self.shape()[0], self.shape()[1], self.shape()[2]);
        let (k2, n) = (other.shape()[0], other.shape()[1]);
        assert_eq!(k, k2, "matmul inner dims differ");
        // Fold batch into rows: [B*m, k] · [k, n].
        let (ad, bd) = read_pair(self, other);
        let out = mm(&ad, &bd, bsz * m, k, n);
        drop((ad, bd));
        let t = Tensor::from_op(
            out,
            &[bsz, m, n],
            vec![self.clone(), other.clone()],
            Box::new(move |node, gout| {
                let (a, b) = read_pair(&node.op_parents()[0], &node.op_parents()[1]);
                let bt = transpose2d(&b, k, n);
                let ga = mm(gout, &bt, bsz * m, n, k);
                let at = transpose2d(&a, bsz * m, k);
                let gb = mm(&at, gout, k, bsz * m, n);
                arena::recycle(bt);
                arena::recycle(at);
                vec![Some(ga), Some(gb)]
            }),
        );
        plan::record(
            &t,
            plan::Op::Matmul,
            plan::Attr::None,
            &[self, other],
            move |ps| {
                let (ad, bd) = read_pair(&ps[0], &ps[1]);
                mm(&ad, &bd, bsz * m, k, n)
            },
        );
        t
    }
}

#[cfg(test)]
mod tests {
    use crate::Tensor;

    #[test]
    fn matmul_2d_known() {
        let a = Tensor::from_vec(vec![1., 2., 3., 4.], &[2, 2]);
        let b = Tensor::from_vec(vec![5., 6., 7., 8.], &[2, 2]);
        assert_eq!(a.matmul(&b).to_vec(), vec![19., 22., 43., 50.]);
    }

    #[test]
    fn matmul_2d_backward() {
        let a = Tensor::from_vec(vec![1., 2., 3., 4.], &[2, 2]).requires_grad();
        let b = Tensor::from_vec(vec![5., 6., 7., 8.], &[2, 2]).requires_grad();
        a.matmul(&b).sum_all().backward();
        // ga = ones · b^T -> rows sum of b columns.
        assert_eq!(a.grad().unwrap(), vec![11., 15., 11., 15.]);
        assert_eq!(b.grad().unwrap(), vec![4., 4., 6., 6.]);
    }

    #[test]
    fn matmul_batched_matches_per_batch() {
        let a = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[2, 2, 3]);
        let b = Tensor::from_vec((0..12).map(|x| (x as f32) * 0.5).collect(), &[2, 3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2, 2]);
        // batch 0 manual check: [[0,1,2],[3,4,5]] x [[0,.5],[1,1.5],[2,2.5]]
        let v = c.to_vec();
        assert_eq!(&v[..4], &[5.0, 6.5, 14.0, 20.0]);
    }

    #[test]
    fn matmul_3d_2d_shape() {
        let a = Tensor::ones(&[4, 3, 5]);
        let b = Tensor::ones(&[5, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[4, 3, 2]);
        assert!(c.to_vec().iter().all(|&x| x == 5.0));
    }

    #[test]
    #[should_panic(expected = "inner dims differ")]
    fn matmul_bad_dims() {
        let _ = Tensor::ones(&[2, 3]).matmul(&Tensor::ones(&[4, 2]));
    }
}
