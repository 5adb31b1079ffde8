//! Pure-Rust reference implementations of every primitive — the **oracle**.
//!
//! These functions define the intended semantics of the simulated kernels:
//! property tests assert `simulated == native` across random inputs, VLENs,
//! and LMULs. They are also a perfectly usable host-side scan library in
//! their own right.
//!
//! All functions operate on `u64` element values truncated to a [`Sew`],
//! mirroring exactly what the vector unit does; `u32` conveniences are
//! provided for the common e32 case.

use crate::ops::ScanOp;
use rvv_isa::Sew;

/// Inclusive scan: `out[i] = x[0] ⊕ … ⊕ x[i]`.
pub fn scan_inclusive(op: ScanOp, sew: Sew, xs: &[u64]) -> Vec<u64> {
    let mut out = Vec::with_capacity(xs.len());
    let mut acc = op.identity(sew);
    for &x in xs {
        acc = op.apply(sew, acc, sew.truncate(x));
        out.push(acc);
    }
    out
}

/// Exclusive scan: `out[0] = I⊕`, `out[i] = x[0] ⊕ … ⊕ x[i-1]`.
pub fn scan_exclusive(op: ScanOp, sew: Sew, xs: &[u64]) -> Vec<u64> {
    let mut out = Vec::with_capacity(xs.len());
    let mut acc = op.identity(sew);
    for &x in xs {
        out.push(acc);
        acc = op.apply(sew, acc, sew.truncate(x));
    }
    out
}

/// Segmented inclusive scan: independent inclusive scan per segment.
/// `head_flags[i] != 0` starts a new segment at `i`.
pub fn seg_scan_inclusive(op: ScanOp, sew: Sew, xs: &[u64], head_flags: &[u32]) -> Vec<u64> {
    assert_eq!(xs.len(), head_flags.len(), "flags must match data length");
    let mut out = Vec::with_capacity(xs.len());
    let mut acc = op.identity(sew);
    for (&x, &f) in xs.iter().zip(head_flags) {
        if f != 0 {
            acc = op.identity(sew);
        }
        acc = op.apply(sew, acc, sew.truncate(x));
        out.push(acc);
    }
    out
}

/// Segmented exclusive scan: each segment starts from the identity.
pub fn seg_scan_exclusive(op: ScanOp, sew: Sew, xs: &[u64], head_flags: &[u32]) -> Vec<u64> {
    assert_eq!(xs.len(), head_flags.len(), "flags must match data length");
    let mut out = Vec::with_capacity(xs.len());
    let mut acc = op.identity(sew);
    for (&x, &f) in xs.iter().zip(head_flags) {
        if f != 0 {
            acc = op.identity(sew);
        }
        out.push(acc);
        acc = op.apply(sew, acc, sew.truncate(x));
    }
    out
}

/// Reduction: `x[0] ⊕ … ⊕ x[n-1]` (identity for the empty vector).
pub fn reduce(op: ScanOp, sew: Sew, xs: &[u64]) -> u64 {
    xs.iter().fold(op.identity(sew), |acc, &x| {
        op.apply(sew, acc, sew.truncate(x))
    })
}

/// Elementwise `out[i] = a[i] ⊕ b[i]`.
pub fn elementwise(op: ScanOp, sew: Sew, a: &[u64], b: &[u64]) -> Vec<u64> {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(&x, &y)| op.apply(sew, sew.truncate(x), sew.truncate(y)))
        .collect()
}

/// `enumerate`: `out[i]` = number of positions `j < i` with
/// `flags[j] == set_bit`; returns the total count too (the paper's
/// `enumerate` returns it for `split`).
pub fn enumerate(flags: &[u32], set_bit: bool) -> (Vec<u64>, u64) {
    let want = set_bit as u32;
    let mut out = Vec::with_capacity(flags.len());
    let mut count = 0u64;
    for &f in flags {
        out.push(count);
        if f == want {
            count += 1;
        }
    }
    (out, count)
}

/// Out-of-place permutation: `out[index[i]] = src[i]`. Panics if an index is
/// out of range; duplicate indices make the result depend on order (last
/// write wins), matching `vsuxei`'s unordered-but-sequential simulation.
pub fn permute(src: &[u64], index: &[u64]) -> Vec<u64> {
    assert_eq!(src.len(), index.len());
    let mut out = vec![0u64; src.len()];
    for (&x, &i) in src.iter().zip(index) {
        out[i as usize] = x;
    }
    out
}

/// Elementwise select: `out[i] = flags[i] != 0 ? a[i] : b[i]`.
pub fn select(flags: &[u32], a: &[u64], b: &[u64]) -> Vec<u64> {
    assert_eq!(flags.len(), a.len());
    assert_eq!(flags.len(), b.len());
    flags
        .iter()
        .zip(a.iter().zip(b))
        .map(|(&f, (&x, &y))| if f != 0 { x } else { y })
        .collect()
}

/// Blelloch's `split`: stable partition by flag — elements with flag 0
/// first (in order), then elements with flag 1 (in order). This matches the
/// paper's Figure 3.
pub fn split(src: &[u64], flags: &[u32]) -> Vec<u64> {
    assert_eq!(src.len(), flags.len());
    let mut out = Vec::with_capacity(src.len());
    out.extend(
        src.iter()
            .zip(flags)
            .filter(|(_, &f)| f == 0)
            .map(|(&x, _)| x),
    );
    out.extend(
        src.iter()
            .zip(flags)
            .filter(|(_, &f)| f != 0)
            .map(|(&x, _)| x),
    );
    out
}

/// `pack` (stream compaction): keep elements whose flag is set, preserving
/// order.
pub fn pack(src: &[u64], flags: &[u32]) -> Vec<u64> {
    assert_eq!(src.len(), flags.len());
    src.iter()
        .zip(flags)
        .filter(|(_, &f)| f != 0)
        .map(|(&x, _)| x)
        .collect()
}

/// Bit `bit` of each element, as 0/1 flags (radix sort's `get_flags`).
pub fn get_flags(src: &[u64], bit: u32) -> Vec<u32> {
    src.iter().map(|&x| ((x >> bit) & 1) as u32).collect()
}

/// `u32` convenience wrappers for the common e32 case.
pub mod u32v {
    use super::*;

    fn up(xs: &[u32]) -> Vec<u64> {
        xs.iter().map(|&x| x as u64).collect()
    }

    fn down(xs: Vec<u64>) -> Vec<u32> {
        xs.into_iter().map(|x| x as u32).collect()
    }

    /// Inclusive plus-scan on `u32`.
    pub fn scan_inclusive(op: ScanOp, xs: &[u32]) -> Vec<u32> {
        down(super::scan_inclusive(op, Sew::E32, &up(xs)))
    }

    /// Exclusive scan on `u32`.
    pub fn scan_exclusive(op: ScanOp, xs: &[u32]) -> Vec<u32> {
        down(super::scan_exclusive(op, Sew::E32, &up(xs)))
    }

    /// Segmented inclusive scan on `u32`.
    pub fn seg_scan_inclusive(op: ScanOp, xs: &[u32], head_flags: &[u32]) -> Vec<u32> {
        down(super::seg_scan_inclusive(op, Sew::E32, &up(xs), head_flags))
    }

    /// Stable split by flags on `u32`.
    pub fn split(src: &[u32], flags: &[u32]) -> Vec<u32> {
        down(super::split(&up(src), flags))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scans_match_definition() {
        let xs = [3u64, 1, 7, 0, 4, 1, 6, 3];
        assert_eq!(
            scan_inclusive(ScanOp::Plus, Sew::E32, &xs),
            vec![3, 4, 11, 11, 15, 16, 22, 25]
        );
        assert_eq!(
            scan_exclusive(ScanOp::Plus, Sew::E32, &xs),
            vec![0, 3, 4, 11, 11, 15, 16, 22]
        );
        assert_eq!(
            scan_inclusive(ScanOp::Max, Sew::E32, &xs),
            vec![3, 3, 7, 7, 7, 7, 7, 7]
        );
        assert_eq!(
            scan_inclusive(ScanOp::Min, Sew::E32, &xs),
            vec![3, 1, 1, 0, 0, 0, 0, 0]
        );
    }

    #[test]
    fn exclusive_is_shifted_inclusive() {
        let xs: Vec<u64> = (0..100).map(|i| (i * 37 + 11) % 251).collect();
        for &op in &ScanOp::ALL {
            let inc = scan_inclusive(op, Sew::E32, &xs);
            let exc = scan_exclusive(op, Sew::E32, &xs);
            assert_eq!(exc[0], op.identity(Sew::E32));
            assert_eq!(&exc[1..], &inc[..inc.len() - 1]);
        }
    }

    #[test]
    fn segmented_equals_per_segment_scan() {
        let xs = [5u64, 1, 2, 4, 8, 16, 3, 3];
        let flags = [1u32, 0, 1, 0, 0, 1, 0, 1];
        let got = seg_scan_inclusive(ScanOp::Plus, Sew::E32, &xs, &flags);
        assert_eq!(got, vec![5, 6, 2, 6, 14, 16, 19, 3]);
        let exc = seg_scan_exclusive(ScanOp::Plus, Sew::E32, &xs, &flags);
        assert_eq!(exc, vec![0, 5, 0, 2, 6, 0, 16, 0]);
    }

    #[test]
    fn enumerate_matches_paper_semantics() {
        // Listing 8: enumerate is an exclusive plus-scan of flag matches.
        let flags = [1u32, 0, 1, 1, 0];
        let (ones, n1) = enumerate(&flags, true);
        assert_eq!(ones, vec![0, 1, 1, 2, 3]);
        assert_eq!(n1, 3);
        let (zeros, n0) = enumerate(&flags, false);
        assert_eq!(zeros, vec![0, 0, 1, 1, 1]);
        assert_eq!(n0, 2);
    }

    #[test]
    fn split_matches_figure_3() {
        // Figure 3: src = [5,7,3,1,4,2], flags = [1,1,0,0,1,0]
        // -> zeros (3,1,2) first, then ones (5,7,4).
        let src = [5u64, 7, 3, 1, 4, 2];
        let flags = [1u32, 1, 0, 0, 1, 0];
        assert_eq!(split(&src, &flags), vec![3, 1, 2, 5, 7, 4]);
    }

    #[test]
    fn split_via_scan_primitives_identity() {
        // The split = permute(enumerate…) construction of Listing 7,
        // checked against the direct definition.
        let src: Vec<u64> = vec![9, 8, 7, 6, 5, 4, 3, 2];
        let flags: Vec<u32> = vec![0, 1, 0, 1, 1, 0, 0, 1];
        let (i_up, count0) = enumerate(&flags, false); // indices for flag==0
        let (mut i_down, _) = enumerate(&flags, true);
        for d in &mut i_down {
            *d += count0;
        }
        let index: Vec<u64> = flags
            .iter()
            .enumerate()
            .map(|(i, &f)| if f == 0 { i_up[i] } else { i_down[i] })
            .collect();
        assert_eq!(permute(&src, &index), split(&src, &flags));
    }

    #[test]
    fn pack_and_get_flags() {
        let src = [10u64, 11, 12, 13];
        assert_eq!(pack(&src, &[1, 0, 0, 1]), vec![10, 13]);
        assert_eq!(get_flags(&[0b101, 0b010, 0b111], 1), vec![0, 1, 1]);
        assert_eq!(get_flags(&[0b101, 0b010, 0b111], 0), vec![1, 0, 1]);
    }

    #[test]
    fn reduce_agrees_with_scan_last() {
        let xs: Vec<u64> = (0..50).map(|i| i * i + 1).collect();
        for &op in &ScanOp::ALL {
            let r = reduce(op, Sew::E32, &xs);
            let inc = scan_inclusive(op, Sew::E32, &xs);
            assert_eq!(r, *inc.last().unwrap());
        }
    }
}
