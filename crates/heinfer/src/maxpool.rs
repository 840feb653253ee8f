//! Window-tap selection matrices for encrypted max pooling.
//!
//! A `k×k` stride-`s` max pool over a `(C, H, W)` activation is
//! expressed as `k²` sparse 0/1 selection matrices ("taps"), one per
//! window offset: tap `(dy, dx)` moves flattened input position
//! `(c, oy·s+dy, ox·s+dx)` to the output slot of window `(c, oy, ox)`.
//! The encrypted max then folds the `k²` tap ciphertexts through the
//! PAF max operator — the nested composition whose error accumulation
//! the paper quantifies in §5.4.3.
//!
//! Where a window's max lands is the caller's choice, given as an
//! output-slot map over windows in `(c, oy, ox)` order:
//!
//! - **Compact** (`out_slots[j] = j`): the max of window `j` lands at
//!   slot `j`, i.e. the output is the dense `(C, Ho, Wo)` tensor. Each
//!   tap is a gather with many distinct diagonals, so it costs a full
//!   BSGS matvec of rotations.
//! - **In place** (`out_slots` = [`window_anchors`]): the max stays at
//!   the window's anchor slot `(c·H + oy·s)·W + ox·s` of the input
//!   layout, and every other slot is zero. Tap `(dy, dx)` is then the
//!   single generalized diagonal at offset `dy·W + dx` (one rotation,
//!   none for `(0, 0)`), and the compaction is left to whatever affine
//!   map consumes the pool — its columns are scattered onto the
//!   anchors at compile time, for free.

use smartpaf_ckks::DiagMatrix;

/// Validated pool geometry: `(c, h, w, ho, wo)`.
fn geometry(shape: &[usize], k: usize, stride: usize) -> (usize, usize, usize, usize, usize) {
    assert_eq!(shape.len(), 3, "expected (C, H, W) shape");
    let (c, h, w) = (shape[0], shape[1], shape[2]);
    assert!(k >= 1 && stride >= 1, "degenerate pool spec");
    assert!(
        h >= k && (h - k).is_multiple_of(stride) && w >= k && (w - k).is_multiple_of(stride),
        "pool window must tile the input exactly ({h}x{w}, k={k}, stride={stride})"
    );
    (c, h, w, (h - k) / stride + 1, (w - k) / stride + 1)
}

/// The anchor slot of every window of a `k×k` stride-`stride` pool
/// over a `(channels, height, width)` input, in compact `(c, oy, ox)`
/// window order: window `(c, oy, ox)` anchors at its top-left input
/// position `(c·H + oy·stride)·W + ox·stride`. Passed to
/// [`pool_taps`] as the output-slot map, it compiles the pool in place.
///
/// # Panics
///
/// Panics if the window does not tile the input exactly.
pub fn window_anchors(shape: &[usize], k: usize, stride: usize) -> Vec<usize> {
    let (c, h, w, ho, wo) = geometry(shape, k, stride);
    let mut anchors = Vec::with_capacity(c * ho * wo);
    for ci in 0..c {
        for oy in 0..ho {
            for ox in 0..wo {
                anchors.push((ci * h + oy * stride) * w + ox * stride);
            }
        }
    }
    anchors
}

/// Builds the `k²` tap selection matrices for a `k×k` stride-`stride`
/// pool over a `(channels, height, width)` input, padded to `dim`.
///
/// `out_slots[j]` is the slot the max of window `j` (compact
/// `(c, oy, ox)` order) lands in: `0..C·Ho·Wo` for the compact
/// `(C, Ho, Wo)` output, [`window_anchors`] for the in-place layout
/// (see the module docs). Taps are returned in `(dy, dx)` row-major
/// order.
///
/// # Panics
///
/// Panics if the window does not tile the input exactly, `out_slots`
/// does not hold one slot per window, or the input or an output slot
/// exceeds `dim`.
pub fn pool_taps(
    shape: &[usize],
    k: usize,
    stride: usize,
    out_slots: &[usize],
    dim: usize,
) -> Vec<DiagMatrix> {
    let anchors = window_anchors(shape, k, stride);
    assert_eq!(out_slots.len(), anchors.len(), "one output slot per window");
    let w = shape[2];
    let in_dim: usize = shape.iter().product();
    let out_dim = out_slots.iter().max().map_or(0, |&m| m + 1);
    assert!(in_dim <= dim && out_dim <= dim, "shape exceeds padded dim");

    let mut taps = Vec::with_capacity(k * k);
    for dy in 0..k {
        for dx in 0..k {
            let mut rows = vec![vec![0.0f64; in_dim]; out_dim];
            for (&slot, &anchor) in out_slots.iter().zip(&anchors) {
                rows[slot][anchor + dy * w + dx] = 1.0;
            }
            taps.push(DiagMatrix::from_rows_with_dim(&rows, dim));
        }
    }
    taps
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plain_pool_max(x: &[f64], shape: &[usize], k: usize, stride: usize) -> Vec<f64> {
        let (c, h, w) = (shape[0], shape[1], shape[2]);
        let ho = (h - k) / stride + 1;
        let wo = (w - k) / stride + 1;
        let mut out = vec![f64::NEG_INFINITY; c * ho * wo];
        for ci in 0..c {
            for oy in 0..ho {
                for ox in 0..wo {
                    let o = (ci * ho + oy) * wo + ox;
                    for dy in 0..k {
                        for dx in 0..k {
                            let v = x[(ci * h + oy * stride + dy) * w + ox * stride + dx];
                            if v > out[o] {
                                out[o] = v;
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Elementwise exact max over every tap's plain product.
    fn fold_exact(taps: &[DiagMatrix], padded: &[f64]) -> Vec<f64> {
        let mut folded = vec![f64::NEG_INFINITY; padded.len()];
        for tap in taps {
            let sel = tap.apply_plain(padded);
            for (f, s) in folded.iter_mut().zip(&sel) {
                *f = f.max(*s);
            }
        }
        folded
    }

    fn compact(shape: &[usize], k: usize, stride: usize) -> Vec<usize> {
        (0..window_anchors(shape, k, stride).len()).collect()
    }

    #[test]
    fn taps_cover_every_window_position() {
        let shape = [2usize, 4, 4];
        let dim = 32;
        let taps = pool_taps(&shape, 2, 2, &compact(&shape, 2, 2), dim);
        assert_eq!(taps.len(), 4);
        assert_eq!(taps[0].out_dim(), 2 * 2 * 2);
        // Exact max via taking elementwise max across tap outputs must
        // equal a direct max pool.
        let x: Vec<f64> = (0..32).map(|i| ((i * 37) % 23) as f64 - 11.0).collect();
        let mut padded = x.clone();
        padded.resize(dim, 0.0);
        let folded = fold_exact(&taps, &padded);
        let want = plain_pool_max(&x, &shape, 2, 2);
        for (i, w) in want.iter().enumerate() {
            assert!((folded[i] - w).abs() < 1e-12, "pos {i}");
        }
    }

    #[test]
    fn taps_are_sparse_selections() {
        let shape = [1usize, 4, 4];
        let taps = pool_taps(&shape, 2, 2, &compact(&shape, 2, 2), 16);
        for tap in &taps {
            assert!(tap.density() <= 4.0 / 16.0);
        }
    }

    #[test]
    fn stride_one_overlapping_windows() {
        let shape = [1usize, 3, 3];
        let taps = pool_taps(&shape, 2, 1, &compact(&shape, 2, 1), 16);
        assert_eq!(taps.len(), 4);
        let x: Vec<f64> = (0..9).map(|i| i as f64).collect();
        let mut padded = x.clone();
        padded.resize(16, 0.0);
        let folded = fold_exact(&taps, &padded);
        assert_eq!(&folded[..4], &[4.0, 5.0, 7.0, 8.0]);
    }

    #[test]
    fn window_anchors_are_top_left_input_slots() {
        // (2, 4, 4) with 2×2 stride 2: per channel the anchors are
        // (0,0) (0,2) (2,0) (2,2) of that channel's 4×4 plane.
        assert_eq!(
            window_anchors(&[2, 4, 4], 2, 2),
            vec![0, 2, 8, 10, 16, 18, 24, 26]
        );
        // Stride 1 overlaps: every top-left position of a 2×2 window.
        assert_eq!(window_anchors(&[1, 3, 3], 2, 1), vec![0, 1, 3, 4]);
    }

    #[test]
    fn in_place_taps_are_one_diagonal_each() {
        let shape = [2usize, 8, 8];
        let (k, stride, w) = (2, 2, 8);
        let anchors = window_anchors(&shape, k, stride);
        let taps = pool_taps(&shape, k, stride, &anchors, 128);
        assert_eq!(taps.len(), k * k);
        for (t, tap) in taps.iter().enumerate() {
            let (dy, dx) = (t / k, t % k);
            let diags: Vec<(usize, &[f64])> = tap.diagonals().collect();
            assert_eq!(diags.len(), 1, "tap ({dy},{dx})");
            let (offset, entries) = diags[0];
            assert_eq!(offset, dy * w + dx, "tap ({dy},{dx})");
            // 1 on the anchor rows, 0 everywhere else.
            for (i, &e) in entries.iter().enumerate() {
                let want = if anchors.contains(&i) { 1.0 } else { 0.0 };
                assert_eq!(e, want, "tap ({dy},{dx}) row {i}");
            }
        }
    }

    #[test]
    fn in_place_fold_at_anchors_equals_direct_max_pool() {
        for (shape, k, stride) in [([2usize, 4, 4], 2usize, 2usize), ([1, 5, 5], 3, 1)] {
            let dim = shape.iter().product::<usize>().next_power_of_two();
            let anchors = window_anchors(&shape, k, stride);
            let taps = pool_taps(&shape, k, stride, &anchors, dim);
            let n: usize = shape.iter().product();
            let x: Vec<f64> = (0..n).map(|i| ((i * 37) % 23) as f64 - 11.0).collect();
            let mut padded = x.clone();
            padded.resize(dim, 0.0);
            let folded = fold_exact(&taps, &padded);
            let want = plain_pool_max(&x, &shape, k, stride);
            for (j, (&a, w)) in anchors.iter().zip(&want).enumerate() {
                assert_eq!(folded[a], *w, "{shape:?} k={k}: window {j}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "tile the input exactly")]
    fn rejects_untileable_window() {
        let _ = pool_taps(&[1, 5, 5], 2, 2, &[0; 4], 32);
    }
}
