//! 1-D (dilated) and 2-D convolutions with hand-written backward passes.
//!
//! Two lowerings are compiled side by side:
//!
//! * a **direct** loop nest ([`Tensor::conv1d_direct`],
//!   [`Tensor::conv2d_direct`]) — the original kernels, kept as the
//!   correctness oracle for the im2col path and as the fast choice for
//!   tiny problems where unfolding overhead dominates;
//! * an **im2col** lowering ([`Tensor::conv1d_im2col`],
//!   [`Tensor::conv2d_im2col`]) that unfolds each batch element into a
//!   `[C_in·K, L_out]` column matrix and reduces the convolution — forward
//!   *and* both backward passes — to the blocked `mm`/`mm_acc` matmul
//!   kernels, whose contiguous inner loops vectorize where the direct
//!   nest's per-tap bounds checks cannot.
//!
//! [`Tensor::conv1d`] / [`Tensor::conv2d`] dispatch between the two with a
//! size heuristic (see [`Conv1dSpec::prefers_im2col`]). The im2col buffer
//! costs `C_in·K·L_out` floats per batch element and is freed before the
//! next element is processed, so peak extra memory is one column matrix
//! regardless of batch size.

use crate::arena;
use crate::ops::matmul::{mm_acc, transpose2d};
use crate::plan;
use crate::simd;
use crate::tensor::{read_pair, Tensor};

/// Hyper-parameters of a 1-D convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv1dSpec {
    pub stride: usize,
    pub padding: usize,
    pub dilation: usize,
}

impl Default for Conv1dSpec {
    fn default() -> Self {
        Conv1dSpec {
            stride: 1,
            padding: 0,
            dilation: 1,
        }
    }
}

/// Below this many multiply-accumulates per batch element the direct loop
/// wins: the unfold copy plus matmul setup costs more than it saves.
const IM2COL_MIN_FLOPS: usize = 1 << 12;

impl Conv1dSpec {
    /// "Same" padding for odd kernel `k` and the given dilation (stride 1).
    pub fn same(k: usize, dilation: usize) -> Self {
        Conv1dSpec {
            stride: 1,
            padding: dilation * (k - 1) / 2,
            dilation,
        }
    }

    /// Output length for input length `l` and kernel size `k`.
    pub fn out_len(&self, l: usize, k: usize) -> usize {
        let span = self.dilation * (k - 1) + 1;
        assert!(
            l + 2 * self.padding >= span,
            "conv1d input too short: len {l}, padding {}, kernel span {span}",
            self.padding
        );
        (l + 2 * self.padding - span) / self.stride + 1
    }

    /// Whether the im2col lowering is expected to beat the direct loop for
    /// a problem of this shape. Pointwise kernels (`k == 1`) stay direct —
    /// their unfold is a pure copy — as do problems with too little work
    /// to amortize the column buffer.
    pub fn prefers_im2col(&self, cin: usize, cout: usize, k: usize, lo: usize) -> bool {
        k > 1 && cout * cin * k * lo >= IM2COL_MIN_FLOPS
    }
}

/// Hyper-parameters of a 2-D convolution (no dilation; square parameters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dSpec {
    pub stride: usize,
    pub padding: usize,
}

impl Default for Conv2dSpec {
    fn default() -> Self {
        Conv2dSpec {
            stride: 1,
            padding: 0,
        }
    }
}

impl Conv2dSpec {
    pub fn out_dim(&self, d: usize, k: usize) -> usize {
        assert!(d + 2 * self.padding >= k, "conv2d input too small");
        (d + 2 * self.padding - k) / self.stride + 1
    }

    /// Same heuristic as [`Conv1dSpec::prefers_im2col`], with `K = KH·KW`
    /// and `L_out = H_out·W_out`.
    pub fn prefers_im2col(&self, cin: usize, cout: usize, k: usize, lo: usize) -> bool {
        k > 1 && cout * cin * k * lo >= IM2COL_MIN_FLOPS
    }
}

// ---------------------------------------------------------------------------
// im2col / col2im primitives
// ---------------------------------------------------------------------------

/// Unfold one batch element `x` (`[C_in, L]`, row-major) into `col`
/// (`[C_in·K, L_out]`): `col[(ci·K + kk), o] = x[ci, o·stride + kk·dilation
/// - padding]`, zero outside the input. `col` must be zeroed on entry.
fn im2col1d(
    x: &[f32],
    col: &mut [f32],
    cin: usize,
    l: usize,
    k: usize,
    lo: usize,
    spec: Conv1dSpec,
) {
    for ci in 0..cin {
        let xr = &x[ci * l..(ci + 1) * l];
        for kk in 0..k {
            let row = &mut col[(ci * k + kk) * lo..(ci * k + kk + 1) * lo];
            let tap = kk * spec.dilation;
            // Valid output positions: padding <= o*stride + tap < l + padding.
            let o_min = spec
                .padding
                .saturating_sub(tap)
                .div_ceil(spec.stride)
                .min(lo);
            let o_max = if l + spec.padding > tap {
                (((l + spec.padding - tap - 1) / spec.stride) + 1).min(lo)
            } else {
                0
            };
            if o_min >= o_max {
                continue;
            }
            if spec.stride == 1 {
                let src = o_min + tap - spec.padding;
                row[o_min..o_max].copy_from_slice(&xr[src..src + (o_max - o_min)]);
            } else {
                for (o, rv) in row[o_min..o_max].iter_mut().enumerate() {
                    *rv = xr[(o_min + o) * spec.stride + tap - spec.padding];
                }
            }
        }
    }
}

/// Scatter-add the column-space gradient `gcol` (`[C_in·K, L_out]`) back
/// into the input gradient `gx` (`[C_in, L]`) — the adjoint of [`im2col1d`].
fn col2im1d(
    gcol: &[f32],
    gx: &mut [f32],
    cin: usize,
    l: usize,
    k: usize,
    lo: usize,
    spec: Conv1dSpec,
) {
    for ci in 0..cin {
        let gxr = &mut gx[ci * l..(ci + 1) * l];
        for kk in 0..k {
            let row = &gcol[(ci * k + kk) * lo..(ci * k + kk + 1) * lo];
            let tap = kk * spec.dilation;
            let o_min = spec
                .padding
                .saturating_sub(tap)
                .div_ceil(spec.stride)
                .min(lo);
            let o_max = if l + spec.padding > tap {
                (((l + spec.padding - tap - 1) / spec.stride) + 1).min(lo)
            } else {
                0
            };
            if o_min >= o_max {
                continue;
            }
            if spec.stride == 1 {
                let dst = o_min + tap - spec.padding;
                simd::add_assign(&mut gxr[dst..dst + (o_max - o_min)], &row[o_min..o_max]);
            } else {
                for (o, rv) in row[o_min..o_max].iter().enumerate() {
                    gxr[(o_min + o) * spec.stride + tap - spec.padding] += rv;
                }
            }
        }
    }
}

/// Unfold one batch element `x` (`[C_in, H, W]`) into `col`
/// (`[C_in·KH·KW, H_out·W_out]`). `col` must be zeroed on entry.
#[allow(clippy::too_many_arguments)]
fn im2col2d(
    x: &[f32],
    col: &mut [f32],
    cin: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    ho: usize,
    wo: usize,
    spec: Conv2dSpec,
) {
    let cols = ho * wo;
    for ci in 0..cin {
        let xp = &x[ci * h * w..(ci + 1) * h * w];
        for ky in 0..kh {
            for kx in 0..kw {
                let row = &mut col
                    [((ci * kh + ky) * kw + kx) * cols..((ci * kh + ky) * kw + kx + 1) * cols];
                let ox_min = spec
                    .padding
                    .saturating_sub(kx)
                    .div_ceil(spec.stride)
                    .min(wo);
                let ox_max = if w + spec.padding > kx {
                    (((w + spec.padding - kx - 1) / spec.stride) + 1).min(wo)
                } else {
                    0
                };
                if ox_min >= ox_max {
                    continue;
                }
                for oy in 0..ho {
                    let iy = oy * spec.stride + ky;
                    if iy < spec.padding || iy - spec.padding >= h {
                        continue;
                    }
                    let xrow = &xp[(iy - spec.padding) * w..(iy - spec.padding + 1) * w];
                    let out = &mut row[oy * wo + ox_min..oy * wo + ox_max];
                    if spec.stride == 1 {
                        let src = ox_min + kx - spec.padding;
                        out.copy_from_slice(&xrow[src..src + (ox_max - ox_min)]);
                    } else {
                        for (ox, rv) in out.iter_mut().enumerate() {
                            *rv = xrow[(ox_min + ox) * spec.stride + kx - spec.padding];
                        }
                    }
                }
            }
        }
    }
}

/// Adjoint of [`im2col2d`]: scatter-add `gcol` back into `gx` (`[C_in, H, W]`).
#[allow(clippy::too_many_arguments)]
fn col2im2d(
    gcol: &[f32],
    gx: &mut [f32],
    cin: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    ho: usize,
    wo: usize,
    spec: Conv2dSpec,
) {
    let cols = ho * wo;
    for ci in 0..cin {
        let gxp = &mut gx[ci * h * w..(ci + 1) * h * w];
        for ky in 0..kh {
            for kx in 0..kw {
                let row =
                    &gcol[((ci * kh + ky) * kw + kx) * cols..((ci * kh + ky) * kw + kx + 1) * cols];
                let ox_min = spec
                    .padding
                    .saturating_sub(kx)
                    .div_ceil(spec.stride)
                    .min(wo);
                let ox_max = if w + spec.padding > kx {
                    (((w + spec.padding - kx - 1) / spec.stride) + 1).min(wo)
                } else {
                    0
                };
                if ox_min >= ox_max {
                    continue;
                }
                for oy in 0..ho {
                    let iy = oy * spec.stride + ky;
                    if iy < spec.padding || iy - spec.padding >= h {
                        continue;
                    }
                    let grow = &mut gxp[(iy - spec.padding) * w..(iy - spec.padding + 1) * w];
                    let src = &row[oy * wo + ox_min..oy * wo + ox_max];
                    if spec.stride == 1 {
                        let dst = ox_min + kx - spec.padding;
                        simd::add_assign(&mut grow[dst..dst + src.len()], src);
                    } else {
                        for (ox, rv) in src.iter().enumerate() {
                            grow[(ox_min + ox) * spec.stride + kx - spec.padding] += rv;
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Raw forward/backward kernels (shared by the autograd wrappers)
// ---------------------------------------------------------------------------

#[derive(Clone, Copy)]
struct Conv1dDims {
    b: usize,
    cin: usize,
    l: usize,
    cout: usize,
    k: usize,
    lo: usize,
}

fn conv1d_forward_direct(
    x: &[f32],
    w: &[f32],
    bias: Option<&[f32]>,
    d: &Conv1dDims,
    spec: Conv1dSpec,
) -> Vec<f32> {
    let (cin, l, cout, k, lo) = (d.cin, d.l, d.cout, d.k, d.lo);
    let mut out = arena::zeroed(d.b * cout * lo);
    out.chunks_mut(cout * lo)
        .enumerate()
        .for_each(|(bi, ochunk)| {
            let xb = &x[bi * cin * l..(bi + 1) * cin * l];
            for co in 0..cout {
                let orow = &mut ochunk[co * lo..(co + 1) * lo];
                if let Some(bv) = bias {
                    orow.iter_mut().for_each(|v| *v = bv[co]);
                }
                for ci in 0..cin {
                    let xr = &xb[ci * l..(ci + 1) * l];
                    let wr = &w[(co * cin + ci) * k..(co * cin + ci + 1) * k];
                    for (o, ov) in orow.iter_mut().enumerate() {
                        let base = o * spec.stride;
                        let mut acc = 0f32;
                        for (kk, &wv) in wr.iter().enumerate() {
                            let pos = base + kk * spec.dilation;
                            if pos >= spec.padding && pos - spec.padding < l {
                                acc += wv * xr[pos - spec.padding];
                            }
                        }
                        *ov += acc;
                    }
                }
            }
        });
    out
}

fn conv1d_forward_im2col(
    x: &[f32],
    w: &[f32],
    bias: Option<&[f32]>,
    d: &Conv1dDims,
    spec: Conv1dSpec,
) -> Vec<f32> {
    let (cin, l, cout, k, lo) = (d.cin, d.l, d.cout, d.k, d.lo);
    let mut out = arena::zeroed(d.b * cout * lo);
    out.chunks_mut(cout * lo)
        .enumerate()
        .for_each(|(bi, ochunk)| {
            if let Some(bv) = bias {
                for co in 0..cout {
                    ochunk[co * lo..(co + 1) * lo]
                        .iter_mut()
                        .for_each(|v| *v = bv[co]);
                }
            }
            let mut col = arena::zeroed(cin * k * lo);
            im2col1d(
                &x[bi * cin * l..(bi + 1) * cin * l],
                &mut col,
                cin,
                l,
                k,
                lo,
                spec,
            );
            // W viewed as [C_out, C_in·K] is already contiguous row-major.
            mm_acc(ochunk, w, &col, cout, cin * k, lo);
            arena::recycle(col);
        });
    out
}

/// Backward kernels. `gw`/`gb` accumulate over the batch into shared
/// buffers; `gx` is written one batch element at a time (disjoint slices).
#[allow(clippy::too_many_arguments)]
fn conv1d_backward_direct(
    x: &[f32],
    w: &[f32],
    gout: &[f32],
    d: &Conv1dDims,
    spec: Conv1dSpec,
    gx: &mut [f32],
    gw: &mut [f32],
    gb: &mut [f32],
) {
    let (b, cin, l, cout, k, lo) = (d.b, d.cin, d.l, d.cout, d.k, d.lo);
    gx.chunks_mut(cin * l).enumerate().for_each(|(bi, gxb)| {
        let gob = &gout[bi * cout * lo..(bi + 1) * cout * lo];
        for co in 0..cout {
            let gor = &gob[co * lo..(co + 1) * lo];
            for ci in 0..cin {
                let wr = &w[(co * cin + ci) * k..(co * cin + ci + 1) * k];
                let gxr = &mut gxb[ci * l..(ci + 1) * l];
                for (o, &g) in gor.iter().enumerate() {
                    // aimts-lint: allow(A004, exact-zero skip: zero gradient contributes nothing)
                    if g == 0.0 {
                        continue;
                    }
                    let base = o * spec.stride;
                    for (kk, &wv) in wr.iter().enumerate() {
                        let pos = base + kk * spec.dilation;
                        if pos >= spec.padding && pos - spec.padding < l {
                            gxr[pos - spec.padding] += g * wv;
                        }
                    }
                }
            }
        }
    });
    for bi in 0..b {
        let xb = &x[bi * cin * l..(bi + 1) * cin * l];
        let gob = &gout[bi * cout * lo..(bi + 1) * cout * lo];
        for co in 0..cout {
            let gor = &gob[co * lo..(co + 1) * lo];
            gb[co] += gor.iter().sum::<f32>();
            for ci in 0..cin {
                let xr = &xb[ci * l..(ci + 1) * l];
                let gwr = &mut gw[(co * cin + ci) * k..(co * cin + ci + 1) * k];
                for (o, &g) in gor.iter().enumerate() {
                    // aimts-lint: allow(A004, exact-zero skip: zero gradient contributes nothing)
                    if g == 0.0 {
                        continue;
                    }
                    let base = o * spec.stride;
                    for (kk, gwv) in gwr.iter_mut().enumerate() {
                        let pos = base + kk * spec.dilation;
                        if pos >= spec.padding && pos - spec.padding < l {
                            *gwv += g * xr[pos - spec.padding];
                        }
                    }
                }
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn conv1d_backward_im2col(
    x: &[f32],
    w: &[f32],
    gout: &[f32],
    d: &Conv1dDims,
    spec: Conv1dSpec,
    gx: &mut [f32],
    gw: &mut [f32],
    gb: &mut [f32],
) {
    let (b, cin, l, cout, k, lo) = (d.b, d.cin, d.l, d.cout, d.k, d.lo);
    // grad input: gcol = W^T [C_in·K, C_out] · gout_b [C_out, L_out],
    // then fold columns back with col2im, one batch element at a time.
    let wt = transpose2d(w, cout, cin * k);
    gx.chunks_mut(cin * l).enumerate().for_each(|(bi, gxb)| {
        let gob = &gout[bi * cout * lo..(bi + 1) * cout * lo];
        let mut gcol = arena::zeroed(cin * k * lo);
        mm_acc(&mut gcol, &wt, gob, cin * k, cout, lo);
        col2im1d(&gcol, gxb, cin, l, k, lo, spec);
        arena::recycle(gcol);
    });
    // grad weight: gw += gout_b [C_out, L_out] · col_b^T [L_out, C_in·K].
    let mut col = arena::zeroed(cin * k * lo);
    for bi in 0..b {
        let gob = &gout[bi * cout * lo..(bi + 1) * cout * lo];
        for co in 0..cout {
            gb[co] += gob[co * lo..(co + 1) * lo].iter().sum::<f32>();
        }
        col.fill(0.0);
        im2col1d(
            &x[bi * cin * l..(bi + 1) * cin * l],
            &mut col,
            cin,
            l,
            k,
            lo,
            spec,
        );
        let colt = transpose2d(&col, cin * k, lo);
        mm_acc(gw, gob, &colt, cout, lo, cin * k);
        arena::recycle(colt);
    }
    arena::recycle(col);
    arena::recycle(wt);
}

#[derive(Clone, Copy)]
struct Conv2dDims {
    b: usize,
    cin: usize,
    h: usize,
    w: usize,
    cout: usize,
    kh: usize,
    kw: usize,
    ho: usize,
    wo: usize,
}

fn conv2d_forward_direct(
    x: &[f32],
    w: &[f32],
    bias: Option<&[f32]>,
    d: &Conv2dDims,
    spec: Conv2dSpec,
) -> Vec<f32> {
    let (cin, h, w_, cout, kh, kw, ho, wo) = (d.cin, d.h, d.w, d.cout, d.kh, d.kw, d.ho, d.wo);
    let mut out = arena::zeroed(d.b * cout * ho * wo);
    out.chunks_mut(cout * ho * wo)
        .enumerate()
        .for_each(|(bi, ochunk)| {
            let xb = &x[bi * cin * h * w_..(bi + 1) * cin * h * w_];
            for co in 0..cout {
                let oplane = &mut ochunk[co * ho * wo..(co + 1) * ho * wo];
                if let Some(bv) = bias {
                    oplane.iter_mut().for_each(|v| *v = bv[co]);
                }
                for ci in 0..cin {
                    let xp = &xb[ci * h * w_..(ci + 1) * h * w_];
                    let wp = &w[(co * cin + ci) * kh * kw..(co * cin + ci + 1) * kh * kw];
                    for oy in 0..ho {
                        for ox in 0..wo {
                            let mut acc = 0f32;
                            for ky in 0..kh {
                                let iy = oy * spec.stride + ky;
                                if iy < spec.padding || iy - spec.padding >= h {
                                    continue;
                                }
                                let iy = iy - spec.padding;
                                for kx in 0..kw {
                                    let ix = ox * spec.stride + kx;
                                    if ix < spec.padding || ix - spec.padding >= w_ {
                                        continue;
                                    }
                                    acc += wp[ky * kw + kx] * xp[iy * w_ + (ix - spec.padding)];
                                }
                            }
                            oplane[oy * wo + ox] += acc;
                        }
                    }
                }
            }
        });
    out
}

fn conv2d_forward_im2col(
    x: &[f32],
    w: &[f32],
    bias: Option<&[f32]>,
    d: &Conv2dDims,
    spec: Conv2dSpec,
) -> Vec<f32> {
    let (cin, h, w_, cout, kh, kw, ho, wo) = (d.cin, d.h, d.w, d.cout, d.kh, d.kw, d.ho, d.wo);
    let cols = ho * wo;
    let mut out = arena::zeroed(d.b * cout * cols);
    out.chunks_mut(cout * cols)
        .enumerate()
        .for_each(|(bi, ochunk)| {
            if let Some(bv) = bias {
                for co in 0..cout {
                    ochunk[co * cols..(co + 1) * cols]
                        .iter_mut()
                        .for_each(|v| *v = bv[co]);
                }
            }
            let mut col = arena::zeroed(cin * kh * kw * cols);
            im2col2d(
                &x[bi * cin * h * w_..(bi + 1) * cin * h * w_],
                &mut col,
                cin,
                h,
                w_,
                kh,
                kw,
                ho,
                wo,
                spec,
            );
            mm_acc(ochunk, w, &col, cout, cin * kh * kw, cols);
            arena::recycle(col);
        });
    out
}

#[allow(clippy::too_many_arguments)]
fn conv2d_backward_direct(
    x: &[f32],
    w: &[f32],
    gout: &[f32],
    d: &Conv2dDims,
    spec: Conv2dSpec,
    gx: &mut [f32],
    gw: &mut [f32],
    gb: &mut [f32],
) {
    let (b, cin, h, w_, cout, kh, kw, ho, wo) =
        (d.b, d.cin, d.h, d.w, d.cout, d.kh, d.kw, d.ho, d.wo);
    gx.chunks_mut(cin * h * w_)
        .enumerate()
        .for_each(|(bi, gxb)| {
            let gob = &gout[bi * cout * ho * wo..(bi + 1) * cout * ho * wo];
            for co in 0..cout {
                let gop = &gob[co * ho * wo..(co + 1) * ho * wo];
                for ci in 0..cin {
                    let wp = &w[(co * cin + ci) * kh * kw..(co * cin + ci + 1) * kh * kw];
                    let gxp = &mut gxb[ci * h * w_..(ci + 1) * h * w_];
                    for oy in 0..ho {
                        for ox in 0..wo {
                            let g = gop[oy * wo + ox];
                            // aimts-lint: allow(A004, exact-zero skip: zero gradient contributes nothing)
                            if g == 0.0 {
                                continue;
                            }
                            for ky in 0..kh {
                                let iy = oy * spec.stride + ky;
                                if iy < spec.padding || iy - spec.padding >= h {
                                    continue;
                                }
                                let iy = iy - spec.padding;
                                for kx in 0..kw {
                                    let ix = ox * spec.stride + kx;
                                    if ix < spec.padding || ix - spec.padding >= w_ {
                                        continue;
                                    }
                                    gxp[iy * w_ + (ix - spec.padding)] += g * wp[ky * kw + kx];
                                }
                            }
                        }
                    }
                }
            }
        });
    for bi in 0..b {
        let xb = &x[bi * cin * h * w_..(bi + 1) * cin * h * w_];
        let gob = &gout[bi * cout * ho * wo..(bi + 1) * cout * ho * wo];
        for co in 0..cout {
            let gop = &gob[co * ho * wo..(co + 1) * ho * wo];
            gb[co] += gop.iter().sum::<f32>();
            for ci in 0..cin {
                let xp = &xb[ci * h * w_..(ci + 1) * h * w_];
                let gwp = &mut gw[(co * cin + ci) * kh * kw..(co * cin + ci + 1) * kh * kw];
                for oy in 0..ho {
                    for ox in 0..wo {
                        let g = gop[oy * wo + ox];
                        // aimts-lint: allow(A004, exact-zero skip: zero gradient contributes nothing)
                        if g == 0.0 {
                            continue;
                        }
                        for ky in 0..kh {
                            let iy = oy * spec.stride + ky;
                            if iy < spec.padding || iy - spec.padding >= h {
                                continue;
                            }
                            let iy = iy - spec.padding;
                            for kx in 0..kw {
                                let ix = ox * spec.stride + kx;
                                if ix < spec.padding || ix - spec.padding >= w_ {
                                    continue;
                                }
                                gwp[ky * kw + kx] += g * xp[iy * w_ + (ix - spec.padding)];
                            }
                        }
                    }
                }
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn conv2d_backward_im2col(
    x: &[f32],
    w: &[f32],
    gout: &[f32],
    d: &Conv2dDims,
    spec: Conv2dSpec,
    gx: &mut [f32],
    gw: &mut [f32],
    gb: &mut [f32],
) {
    let (b, cin, h, w_, cout, kh, kw, ho, wo) =
        (d.b, d.cin, d.h, d.w, d.cout, d.kh, d.kw, d.ho, d.wo);
    let (rows, cols) = (cin * kh * kw, ho * wo);
    let wt = transpose2d(w, cout, rows);
    gx.chunks_mut(cin * h * w_)
        .enumerate()
        .for_each(|(bi, gxb)| {
            let gob = &gout[bi * cout * cols..(bi + 1) * cout * cols];
            let mut gcol = arena::zeroed(rows * cols);
            mm_acc(&mut gcol, &wt, gob, rows, cout, cols);
            col2im2d(&gcol, gxb, cin, h, w_, kh, kw, ho, wo, spec);
            arena::recycle(gcol);
        });
    let mut col = arena::zeroed(rows * cols);
    for bi in 0..b {
        let gob = &gout[bi * cout * cols..(bi + 1) * cout * cols];
        for co in 0..cout {
            gb[co] += gob[co * cols..(co + 1) * cols].iter().sum::<f32>();
        }
        col.fill(0.0);
        im2col2d(
            &x[bi * cin * h * w_..(bi + 1) * cin * h * w_],
            &mut col,
            cin,
            h,
            w_,
            kh,
            kw,
            ho,
            wo,
            spec,
        );
        let colt = transpose2d(&col, rows, cols);
        mm_acc(gw, gob, &colt, cout, cols, rows);
        arena::recycle(colt);
    }
    arena::recycle(col);
    arena::recycle(wt);
}

// ---------------------------------------------------------------------------
// Autograd wrappers
// ---------------------------------------------------------------------------

impl Tensor {
    /// 1-D convolution.
    ///
    /// * `self`: `[B, C_in, L]`
    /// * `weight`: `[C_out, C_in, K]`
    /// * `bias`: optional `[C_out]`
    ///
    /// Returns `[B, C_out, L_out]`. Dispatches between the im2col lowering
    /// and the direct loop based on problem size; both lowerings compute
    /// identical values (see `tests/conv_oracle.rs`).
    pub fn conv1d(&self, weight: &Tensor, bias: Option<&Tensor>, spec: Conv1dSpec) -> Tensor {
        let (cin, cout, k) = (self.shape()[1], weight.shape()[0], weight.shape()[2]);
        let lo = spec.out_len(self.shape()[2], k);
        if spec.prefers_im2col(cin, cout, k, lo) {
            self.conv1d_im2col(weight, bias, spec)
        } else {
            self.conv1d_direct(weight, bias, spec)
        }
    }

    /// 1-D convolution via the direct loop nest. Public so tests and
    /// benchmarks can pin the naive oracle path explicitly; model code
    /// should call [`Tensor::conv1d`].
    pub fn conv1d_direct(
        &self,
        weight: &Tensor,
        bias: Option<&Tensor>,
        spec: Conv1dSpec,
    ) -> Tensor {
        self.conv1d_with(weight, bias, spec, false)
    }

    /// 1-D convolution via im2col + matmul. Public so tests and benchmarks
    /// can pin the lowering explicitly; model code should call
    /// [`Tensor::conv1d`].
    pub fn conv1d_im2col(
        &self,
        weight: &Tensor,
        bias: Option<&Tensor>,
        spec: Conv1dSpec,
    ) -> Tensor {
        self.conv1d_with(weight, bias, spec, true)
    }

    fn conv1d_with(
        &self,
        weight: &Tensor,
        bias: Option<&Tensor>,
        spec: Conv1dSpec,
        im2col: bool,
    ) -> Tensor {
        assert_eq!(self.ndim(), 3, "conv1d input must be [B, C_in, L]");
        assert_eq!(weight.ndim(), 3, "conv1d weight must be [C_out, C_in, K]");
        let (b, cin, l) = (self.shape()[0], self.shape()[1], self.shape()[2]);
        let (cout, cin_w, k) = (weight.shape()[0], weight.shape()[1], weight.shape()[2]);
        assert_eq!(cin, cin_w, "conv1d channel mismatch");
        if let Some(bs) = bias {
            assert_eq!(bs.shape(), &[cout], "conv1d bias shape");
        }
        let lo = spec.out_len(l, k);
        let dims = Conv1dDims {
            b,
            cin,
            l,
            cout,
            k,
            lo,
        };
        let bvec = bias.map(|t| t.to_vec());
        let out = {
            let (x_ref, w_ref) = read_pair(self, weight);
            let forward = if im2col {
                conv1d_forward_im2col
            } else {
                conv1d_forward_direct
            };
            forward(&x_ref, &w_ref, bvec.as_deref(), &dims, spec)
        };

        let mut parents = vec![self.clone(), weight.clone()];
        if let Some(bs) = bias {
            parents.push(bs.clone());
        }
        let has_bias = bias.is_some();
        let t = Tensor::from_op(
            out,
            &[b, cout, lo],
            parents,
            Box::new(move |node, gout| {
                let (x_ref, w_ref) = read_pair(&node.op_parents()[0], &node.op_parents()[1]);
                let mut gx = arena::zeroed(b * cin * l);
                let mut gw = arena::zeroed(cout * cin * k);
                let mut gb = arena::zeroed(cout);
                let backward = if im2col {
                    conv1d_backward_im2col
                } else {
                    conv1d_backward_direct
                };
                backward(&x_ref, &w_ref, gout, &dims, spec, &mut gx, &mut gw, &mut gb);
                let mut grads = vec![Some(gx), Some(gw)];
                if has_bias {
                    grads.push(Some(gb));
                }
                grads
            }),
        );
        let mut prefs: Vec<&Tensor> = vec![self, weight];
        if let Some(bs) = bias {
            prefs.push(bs);
        }
        // Replay mirrors the eager forward exactly: bias copied out first,
        // then x/w read under `read_pair`, same lowering dispatch.
        plan::record(&t, plan::Op::Conv1d, plan::Attr::None, &prefs, move |ps| {
            let bvec = if has_bias {
                Some(arena::copy_of(&ps[2].data()))
            } else {
                None
            };
            let (x_ref, w_ref) = read_pair(&ps[0], &ps[1]);
            let forward = if im2col {
                conv1d_forward_im2col
            } else {
                conv1d_forward_direct
            };
            let out = forward(&x_ref, &w_ref, bvec.as_deref(), &dims, spec);
            drop((x_ref, w_ref));
            if let Some(bv) = bvec {
                arena::recycle(bv);
            }
            out
        });
        t
    }

    /// 2-D convolution.
    ///
    /// * `self`: `[B, C_in, H, W]`
    /// * `weight`: `[C_out, C_in, KH, KW]`
    /// * `bias`: optional `[C_out]`
    ///
    /// Returns `[B, C_out, H_out, W_out]`. Dispatches between the im2col
    /// lowering and the direct loop based on problem size.
    pub fn conv2d(&self, weight: &Tensor, bias: Option<&Tensor>, spec: Conv2dSpec) -> Tensor {
        let (cin, cout) = (self.shape()[1], weight.shape()[0]);
        let (kh, kw) = (weight.shape()[2], weight.shape()[3]);
        let ho = spec.out_dim(self.shape()[2], kh);
        let wo = spec.out_dim(self.shape()[3], kw);
        if spec.prefers_im2col(cin, cout, kh * kw, ho * wo) {
            self.conv2d_im2col(weight, bias, spec)
        } else {
            self.conv2d_direct(weight, bias, spec)
        }
    }

    /// 2-D convolution via the direct loop nest (naive oracle path).
    pub fn conv2d_direct(
        &self,
        weight: &Tensor,
        bias: Option<&Tensor>,
        spec: Conv2dSpec,
    ) -> Tensor {
        self.conv2d_with(weight, bias, spec, false)
    }

    /// 2-D convolution via im2col + matmul.
    pub fn conv2d_im2col(
        &self,
        weight: &Tensor,
        bias: Option<&Tensor>,
        spec: Conv2dSpec,
    ) -> Tensor {
        self.conv2d_with(weight, bias, spec, true)
    }

    fn conv2d_with(
        &self,
        weight: &Tensor,
        bias: Option<&Tensor>,
        spec: Conv2dSpec,
        im2col: bool,
    ) -> Tensor {
        assert_eq!(self.ndim(), 4, "conv2d input must be [B, C_in, H, W]");
        assert_eq!(
            weight.ndim(),
            4,
            "conv2d weight must be [C_out, C_in, KH, KW]"
        );
        let (b, cin, h, w_) = (
            self.shape()[0],
            self.shape()[1],
            self.shape()[2],
            self.shape()[3],
        );
        let (cout, cin_w, kh, kw) = (
            weight.shape()[0],
            weight.shape()[1],
            weight.shape()[2],
            weight.shape()[3],
        );
        assert_eq!(cin, cin_w, "conv2d channel mismatch");
        if let Some(bs) = bias {
            assert_eq!(bs.shape(), &[cout], "conv2d bias shape");
        }
        let ho = spec.out_dim(h, kh);
        let wo = spec.out_dim(w_, kw);
        let dims = Conv2dDims {
            b,
            cin,
            h,
            w: w_,
            cout,
            kh,
            kw,
            ho,
            wo,
        };
        let bvec = bias.map(|t| t.to_vec());
        let out = {
            let (x_ref, w_ref) = read_pair(self, weight);
            let forward = if im2col {
                conv2d_forward_im2col
            } else {
                conv2d_forward_direct
            };
            forward(&x_ref, &w_ref, bvec.as_deref(), &dims, spec)
        };

        let mut parents = vec![self.clone(), weight.clone()];
        if let Some(bs) = bias {
            parents.push(bs.clone());
        }
        let has_bias = bias.is_some();
        let t = Tensor::from_op(
            out,
            &[b, cout, ho, wo],
            parents,
            Box::new(move |node, gout| {
                let (x_ref, w_ref) = read_pair(&node.op_parents()[0], &node.op_parents()[1]);
                let mut gx = arena::zeroed(b * cin * h * w_);
                let mut gw = arena::zeroed(cout * cin * kh * kw);
                let mut gb = arena::zeroed(cout);
                let backward = if im2col {
                    conv2d_backward_im2col
                } else {
                    conv2d_backward_direct
                };
                backward(&x_ref, &w_ref, gout, &dims, spec, &mut gx, &mut gw, &mut gb);
                let mut grads = vec![Some(gx), Some(gw)];
                if has_bias {
                    grads.push(Some(gb));
                }
                grads
            }),
        );
        let mut prefs: Vec<&Tensor> = vec![self, weight];
        if let Some(bs) = bias {
            prefs.push(bs);
        }
        plan::record(&t, plan::Op::Conv2d, plan::Attr::None, &prefs, move |ps| {
            let bvec = if has_bias {
                Some(arena::copy_of(&ps[2].data()))
            } else {
                None
            };
            let (x_ref, w_ref) = read_pair(&ps[0], &ps[1]);
            let forward = if im2col {
                conv2d_forward_im2col
            } else {
                conv2d_forward_direct
            };
            let out = forward(&x_ref, &w_ref, bvec.as_deref(), &dims, spec);
            drop((x_ref, w_ref));
            if let Some(bv) = bvec {
                arena::recycle(bv);
            }
            out
        });
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    #[test]
    fn conv1d_identity_kernel() {
        let x = Tensor::from_vec(vec![1., 2., 3., 4.], &[1, 1, 4]);
        let w = Tensor::from_vec(vec![1.], &[1, 1, 1]);
        let y = x.conv1d(&w, None, Conv1dSpec::default());
        assert_eq!(y.to_vec(), vec![1., 2., 3., 4.]);
    }

    #[test]
    fn conv1d_moving_sum_with_padding() {
        let x = Tensor::from_vec(vec![1., 2., 3.], &[1, 1, 3]);
        let w = Tensor::from_vec(vec![1., 1., 1.], &[1, 1, 3]);
        let y = x.conv1d(&w, None, Conv1dSpec::same(3, 1));
        assert_eq!(y.to_vec(), vec![3., 6., 5.]);
    }

    #[test]
    fn conv1d_dilation_skips() {
        let x = Tensor::from_vec(vec![1., 2., 3., 4., 5.], &[1, 1, 5]);
        let w = Tensor::from_vec(vec![1., 1.], &[1, 1, 2]);
        let spec = Conv1dSpec {
            stride: 1,
            padding: 0,
            dilation: 2,
        };
        let y = x.conv1d(&w, None, spec);
        // pairs (x[i], x[i+2])
        assert_eq!(y.to_vec(), vec![4., 6., 8.]);
    }

    #[test]
    fn conv1d_stride_and_bias() {
        let x = Tensor::from_vec(vec![1., 2., 3., 4.], &[1, 1, 4]);
        let w = Tensor::from_vec(vec![1., 1.], &[1, 1, 2]);
        let b = Tensor::from_vec(vec![10.], &[1]);
        let spec = Conv1dSpec {
            stride: 2,
            padding: 0,
            dilation: 1,
        };
        let y = x.conv1d(&w, Some(&b), spec);
        assert_eq!(y.to_vec(), vec![13., 17.]);
    }

    #[test]
    fn conv1d_backward_shapes_and_bias_grad() {
        let x = Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], &[1, 2, 3]).requires_grad();
        let w = Tensor::from_vec(vec![0.5; 2 * 2 * 2], &[2, 2, 2]).requires_grad();
        let b = Tensor::zeros(&[2]).requires_grad();
        let y = x.conv1d(&w, Some(&b), Conv1dSpec::default());
        y.sum_all().backward();
        assert_eq!(x.grad().unwrap().len(), 6);
        assert_eq!(w.grad().unwrap().len(), 8);
        // lo = 2 output positions per channel; gb = 2 per output channel.
        assert_eq!(b.grad().unwrap(), vec![2.0, 2.0]);
    }

    #[test]
    fn conv2d_known_values() {
        let x = Tensor::from_vec((1..=9).map(|v| v as f32).collect(), &[1, 1, 3, 3]);
        let w = Tensor::from_vec(vec![1., 0., 0., 1.], &[1, 1, 2, 2]);
        let y = x.conv2d(&w, None, Conv2dSpec::default());
        // x[oy,ox] + x[oy+1,ox+1]
        assert_eq!(y.to_vec(), vec![6., 8., 12., 14.]);
    }

    #[test]
    fn conv2d_stride2_downsamples() {
        let x = Tensor::ones(&[1, 1, 4, 4]);
        let w = Tensor::ones(&[1, 1, 2, 2]);
        let y = x.conv2d(
            &w,
            None,
            Conv2dSpec {
                stride: 2,
                padding: 0,
            },
        );
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert!(y.to_vec().iter().all(|&v| v == 4.0));
    }

    #[test]
    fn conv2d_backward_runs() {
        let x = Tensor::ones(&[2, 3, 5, 5]).requires_grad();
        let w = Tensor::full(&[4, 3, 3, 3], 0.1).requires_grad();
        let b = Tensor::zeros(&[4]).requires_grad();
        let y = x.conv2d(
            &w,
            Some(&b),
            Conv2dSpec {
                stride: 1,
                padding: 1,
            },
        );
        assert_eq!(y.shape(), &[2, 4, 5, 5]);
        y.sum_all().backward();
        assert!(x.grad().unwrap().iter().all(|g| g.is_finite()));
        assert_eq!(b.grad().unwrap(), vec![50.0; 4]);
    }

    #[test]
    fn dispatch_picks_im2col_for_encoder_shapes() {
        // hidden=32 channels, L=64, k=3 — the TS-encoder residual block.
        let spec = Conv1dSpec::same(3, 1);
        assert!(spec.prefers_im2col(32, 32, 3, 64));
        // Pointwise kernels and tiny problems stay on the direct loop.
        assert!(!spec.prefers_im2col(32, 32, 1, 64));
        assert!(!spec.prefers_im2col(1, 1, 3, 8));
    }

    #[test]
    fn forced_paths_agree_on_odd_geometry() {
        let x = Tensor::randn(&[2, 3, 11], 5);
        let w = Tensor::randn(&[4, 3, 3], 6);
        let b = Tensor::randn(&[4], 7);
        let spec = Conv1dSpec {
            stride: 2,
            padding: 3,
            dilation: 2,
        };
        let yd = x.conv1d_direct(&w, Some(&b), spec);
        let yi = x.conv1d_im2col(&w, Some(&b), spec);
        assert_eq!(yd.shape(), yi.shape());
        for (a, bv) in yd.to_vec().iter().zip(yi.to_vec()) {
            assert!((a - bv).abs() < 1e-5, "{a} vs {bv}");
        }
    }
}
