//! The arena's core safety invariant: a pooled buffer is never handed out
//! while anything alive can still reach it. Gradients are the highest-value
//! target — they outlive the op graph that produced them (the optimizer
//! reads them after the loss tensor is dropped), so these tests churn the
//! pool hard after backward and pin the gradient bits.
//!
//! The debug-build aliasing tally on hot storage is the dynamic checker for
//! the same contract on tensor data; the `#[cfg(debug_assertions)]` tests
//! prove it actually fires through the public `Tensor` API.

use aimts_tensor::ops::Conv1dSpec;
use aimts_tensor::{arena, Tensor};

fn grad_bits(t: &Tensor) -> Vec<u32> {
    t.grad()
        .expect("gradient must exist")
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

/// After backward, the pool recycles every activation of the dropped graph;
/// new same-shape traffic must reuse those buffers (hits > 0) without ever
/// touching the still-live gradient.
#[test]
fn arena_reuse_never_aliases_live_gradients() {
    let _scope = arena::enable();
    let w = Tensor::randn(&[16, 16], 7).requires_grad();
    let x = Tensor::randn(&[16, 16], 8);
    let loss = w.matmul(&x).sum_all();
    loss.backward();
    let g1 = grad_bits(&w);
    // Drop the graph: its hot buffers recycle into the pool.
    drop(loss);
    let before = arena::stats();
    // Same-shape traffic: every allocation here is a candidate to receive
    // one of the just-recycled buffers.
    for s in 0..10u64 {
        let y = Tensor::randn(&[16, 16], 100 + s);
        let z = y.matmul(&x).add(&y).sum_all();
        assert!(z.numel() == 1);
    }
    let after = arena::stats();
    assert!(
        after.hits > before.hits,
        "pool must actually be reused for the test to mean anything: {after:?}"
    );
    assert_eq!(g1, grad_bits(&w), "live gradient clobbered by arena reuse");
}

/// Accumulating into an existing gradient while the pool churns must only
/// change it by the newly accumulated amount — reuse of recycled buffers
/// can't corrupt the accumulation target.
#[test]
fn gradient_accumulation_survives_pool_churn() {
    let _scope = arena::enable();
    let w = Tensor::randn(&[8, 8], 1).requires_grad();
    let x = Tensor::ones(&[8, 8]);
    w.matmul(&x).sum_all().backward();
    let g1 = grad_bits(&w);
    // Churn: allocate and drop unrelated same-shape graphs.
    for s in 0..5u64 {
        let y = Tensor::randn(&[8, 8], 50 + s);
        let _ = y.matmul(&x).sum_all().to_vec();
    }
    // Second backward accumulates the identical contribution: every element
    // must exactly double (a + a is exact in IEEE float).
    w.matmul(&x).sum_all().backward();
    let g2: Vec<f32> = w.grad().expect("grad");
    let doubled: Vec<u32> = g1
        .iter()
        .map(|&b| (2.0 * f32::from_bits(b)).to_bits())
        .collect();
    let got: Vec<u32> = g2.iter().map(|v| v.to_bits()).collect();
    assert_eq!(doubled, got, "accumulation target corrupted by pool churn");
}

/// `reset` drops pooled buffers only — buffers currently owned by live
/// tensors and gradients are untouched.
#[test]
fn reset_spares_live_buffers() {
    let _scope = arena::enable();
    let w = Tensor::randn(&[32], 3).requires_grad();
    let y = w.mul(&w).sum_all();
    y.backward();
    let g1 = grad_bits(&w);
    let d1 = w.data_bits();
    arena::reset();
    assert_eq!(g1, grad_bits(&w));
    assert_eq!(d1, w.data_bits());
}

/// Conv kernels run on the calling thread, so their per-batch-element
/// scratch comes from the caller's pool. The shape is large enough to
/// have been split across threads by a parallel kernel. Once one training
/// step has warmed the pool, a repeat step takes every buffer from it:
/// forward's im2col columns, then backward's gradient columns and
/// transposed columns (one each per batch element).
#[test]
fn conv_scratch_comes_from_the_callers_arena() {
    const BATCH: u64 = 160;
    let _scope = arena::enable();
    let x = Tensor::randn(&[BATCH as usize, 16, 64], 11).requires_grad();
    let w = Tensor::randn(&[16, 16, 3], 12).requires_grad();
    let bias = Tensor::randn(&[16], 13).requires_grad();
    let spec = Conv1dSpec {
        stride: 1,
        padding: 1,
        dilation: 1,
    };
    let step = || {
        let s0 = arena::stats();
        let loss = x.conv1d(&w, Some(&bias), spec).sum_all();
        let s1 = arena::stats();
        loss.backward();
        drop(loss);
        for p in [&x, &w, &bias] {
            p.zero_grad();
        }
        (s0, s1, arena::stats())
    };
    step();
    let (s0, s1, s2) = step();
    assert!(
        s1.hits - s0.hits >= BATCH,
        "forward: one pooled im2col column per batch element: {s0:?} -> {s1:?}"
    );
    assert!(
        s2.hits - s1.hits >= 2 * BATCH,
        "backward: pooled gradient and transposed columns per batch element: {s1:?} -> {s2:?}"
    );
    assert_eq!(
        s2.misses, s0.misses,
        "a warmed step must not fall through to the allocator: {s0:?} -> {s2:?}"
    );
}

/// The debug aliasing tally fires through the public API: mutating a hot
/// tensor while a read guard on the same tensor is live is the exact bug
/// class the checker exists for.
#[cfg(debug_assertions)]
#[test]
fn hot_write_during_read_panics_in_debug() {
    let t = Tensor::from_vec(vec![1.0; 8], &[8]);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        t.update_data(|_| {
            // Re-entrant read while the write guard is live.
            let _g = t.data();
        });
    }));
    let err = result.expect_err("torn access must panic in debug builds");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains("hot-buffer aliasing violation"),
        "panic must name the violation: {msg}"
    );
}

/// Sequential guard use through the public API stays silent — the checker
/// only rejects *overlapping* access.
#[test]
fn sequential_hot_access_is_clean() {
    let t = Tensor::from_vec(vec![1.0, 2.0], &[2]);
    {
        let d = t.data();
        assert_eq!(d[1], 2.0);
    }
    t.update_data(|d| d[0] = 5.0);
    assert_eq!(t.to_vec(), vec![5.0, 2.0]);
}
