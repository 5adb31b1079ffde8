//! The experiment points behind every table, figure and ablation.
//!
//! Each `*_point` function measures dynamic instruction counts at one size
//! inside a caller-provided (fresh or reset) environment, whose
//! configuration supplies the VLEN, LMUL and spill profile, and returns
//! plain data. The [`crate::manifest`] runs the points as batch jobs and
//! formats them next to the paper's published numbers.

use crate::{paper_env, random_head_flags, random_u32s};
use rvv_isa::{InstrClass, Sew};
use scanvec::primitives::{self, baseline};
use scanvec::{ScanEnv, ScanKind, ScanOp, ScanResult};
use scanvec_algos::{bitonic_sort, qsort_baseline, split_radix_sort};

/// FNV-1a over the little-endian bytes of a result vector: the checksum
/// sweep points return so cross-configuration equality checks (Table 5's
/// "LMUL must not change the answer") survive decomposition into
/// independent batch jobs.
pub fn checksum(words: &[u32]) -> u64 {
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    rvv_ckpt::fnv1a(&bytes)
}

/// One (vectorized, baseline) measurement pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pair {
    /// Input size.
    pub n: usize,
    /// Dynamic instructions, scan-vector-model implementation.
    pub ours: u64,
    /// Dynamic instructions, sequential baseline.
    pub baseline: u64,
}

impl Pair {
    /// Speedup over the baseline.
    pub fn speedup(&self) -> f64 {
        self.baseline as f64 / self.ours as f64
    }
}

/// A pair as a manifest point: `[ours, baseline]`.
impl From<Pair> for Vec<u64> {
    fn from(p: Pair) -> Vec<u64> {
        vec![p.ours, p.baseline]
    }
}

/// Table 1 at one size, at the paper config: split radix sort (scan
/// vector model) vs scalar quicksort.
pub fn table1_point(e: &mut ScanEnv, n: usize) -> ScanResult<Pair> {
    let data = random_u32s(n, 1);
    let v = e.from_u32(&data)?;
    let ours = split_radix_sort(e, &v, 32)?;
    let w = e.from_u32(&data)?;
    let baseline = qsort_baseline(e, &w)?;
    // Cross-check both sorted the same.
    assert_eq!(e.to_u32(&v), e.to_u32(&w), "sorters disagree at n={n}");
    Ok(Pair { n, ours, baseline })
}

/// Table 2 at one size: `p_add` vs scalar baseline.
pub fn table2_point(e: &mut ScanEnv, n: usize) -> ScanResult<Pair> {
    let data = random_u32s(n, 2);
    let v = e.from_u32(&data)?;
    let ours = primitives::p_add(e, &v, 5)?;
    let w = e.from_u32(&data)?;
    let baseline = baseline::p_add(e, &w, 5)?;
    assert_eq!(e.to_u32(&v), e.to_u32(&w));
    Ok(Pair { n, ours, baseline })
}

/// Table 3 at one size: unsegmented plus-scan vs scalar baseline.
pub fn table3_point(e: &mut ScanEnv, n: usize) -> ScanResult<Pair> {
    let data = random_u32s(n, 3);
    let v = e.from_u32(&data)?;
    let ours = primitives::plus_scan(e, &v)?;
    let w = e.from_u32(&data)?;
    let baseline = baseline::plus_scan(e, &w)?;
    assert_eq!(e.to_u32(&v), e.to_u32(&w));
    Ok(Pair { n, ours, baseline })
}

/// Table 4 at one size: segmented plus-scan vs scalar baseline.
pub fn table4_point(e: &mut ScanEnv, n: usize) -> ScanResult<Pair> {
    let data = random_u32s(n, 4);
    let flags = random_head_flags(n, 4);
    let v = e.from_u32(&data)?;
    let f = e.from_u32(&flags)?;
    let ours = primitives::seg_plus_scan(e, &v, &f)?;
    let w = e.from_u32(&data)?;
    let baseline = baseline::seg_plus_scan(e, &w, &f)?;
    assert_eq!(e.to_u32(&v), e.to_u32(&w));
    Ok(Pair { n, ours, baseline })
}

/// Table 5 at one `(n, LMUL, profile)` point — the LMUL and spill profile
/// come from the environment's configuration. Returns the dynamic
/// instruction count and a [`checksum`] of the scanned vector, so the
/// caller can assert cross-LMUL result equality without the points sharing
/// an environment.
pub fn table5_point(e: &mut ScanEnv, n: usize) -> ScanResult<(u64, u64)> {
    let data = random_u32s(n, 5);
    let flags = random_head_flags(n, 5);
    let v = e.from_u32(&data)?;
    let f = e.from_u32(&flags)?;
    let count = primitives::seg_plus_scan(e, &v, &f)?;
    Ok((count, checksum(&e.to_u32(&v))))
}

/// Table 7 at one VLEN (taken from the environment's configuration).
/// Returns `(seg_scan_count, p_add_count)`.
pub fn table7_point(e: &mut ScanEnv, n: usize) -> ScanResult<(u64, u64)> {
    let data = random_u32s(n, 7);
    let flags = random_head_flags(n, 7);
    let v = e.from_u32(&data)?;
    let f = e.from_u32(&flags)?;
    let seg = primitives::seg_plus_scan(e, &v, &f)?;
    let w = e.from_u32(&data)?;
    let padd = primitives::p_add(e, &w, 5)?;
    Ok((seg, padd))
}

/// The abstract's LMUL claim at one LMUL (taken from the environment):
/// the unsegmented scan, which never spills. Returns `(scan_count,
/// baseline_count)`.
pub fn scan_lmul_point(e: &mut ScanEnv, n: usize) -> ScanResult<(u64, u64)> {
    let data = random_u32s(n, 8);
    let v = e.from_u32(&data)?;
    let ours = primitives::plus_scan(e, &v)?;
    let w = e.from_u32(&data)?;
    let base = baseline::plus_scan(e, &w)?;
    Ok((ours, base))
}

/// The unsegmented scan of [`scan_lmul_point`]'s workload, without the
/// baseline. Returns the dynamic instruction count and a [`checksum`] of
/// the scanned vector, like [`table5_point`].
pub fn scan_point(e: &mut ScanEnv, n: usize) -> ScanResult<(u64, u64)> {
    let v = e.from_u32(&random_u32s(n, 8))?;
    let count = primitives::plus_scan(e, &v)?;
    Ok((count, checksum(&e.to_u32(&v))))
}

/// Ablation: `enumerate` via `viota` (paper §4.4) vs via a generic
/// exclusive scan. Returns `[viota_count, generic_count]`.
pub fn enumerate_point(e: &mut ScanEnv, n: usize) -> ScanResult<[u64; 2]> {
    let flags: Vec<u32> = random_u32s(n, 9).iter().map(|x| x & 1).collect();
    let f = e.from_u32(&flags)?;
    let d = e.alloc(Sew::E32, n)?;
    let (c1, viota) = primitives::enumerate(e, &f, true, &d)?;
    let got1 = e.to_u32(&d);
    let (c2, generic) = primitives::enumerate_via_scan(e, &f, true, &d)?;
    assert_eq!(c1, c2);
    assert_eq!(got1, e.to_u32(&d));
    Ok([viota, generic])
}

/// Exclusive vs inclusive scan cost (they should be nearly identical —
/// the exclusive variant adds one slide per strip).
pub fn scan_kinds(n: usize) -> (u64, u64) {
    let data = random_u32s(n, 10);
    let mut e = paper_env();
    let v = e.from_u32(&data).expect("alloc");
    let inc = primitives::scan(&mut e, ScanOp::Plus, &v, ScanKind::Inclusive).expect("scan");
    let w = e.from_u32(&data).expect("alloc");
    let exc = primitives::scan(&mut e, ScanOp::Plus, &w, ScanKind::Exclusive).expect("scan");
    (inc, exc)
}

/// Ablation: segment descriptor choice (paper §5 picks head-flags because
/// it maps directly onto RVV). Measures segmented-scan cost including any
/// on-device descriptor conversion: head-flags (direct), lengths
/// (exclusive-scan + scatter), head-pointers (scatter). Returns
/// `[direct, via_lengths, via_pointers]`.
pub fn segdesc_point(e: &mut ScanEnv, n: usize) -> ScanResult<[u64; 3]> {
    use scanvec::Segments;
    let data = random_u32s(n, 11);
    let flags = {
        let mut f = random_head_flags(n, 11);
        if !f.is_empty() {
            f[0] = 1;
        }
        f
    };
    let segs = Segments::from_head_flags(flags.clone()).expect("valid flags");
    let nseg = segs.segment_count();

    // Direct head-flags.
    let v = e.from_u32(&data)?;
    let f = e.from_u32(&flags)?;
    let direct = primitives::seg_plus_scan(e, &v, &f)?;
    // Lengths: device-side exclusive scan to positions, scatter 1s.
    let via_lengths = {
        let v = e.from_u32(&data)?;
        let l = e.from_u32(&segs.to_lengths())?;
        let ones = e.alloc(Sew::E32, nseg)?;
        let f = e.alloc(Sew::E32, n)?;
        let mut c = primitives::p_add(e, &ones, 1)?;
        c += primitives::scan(e, ScanOp::Plus, &l, ScanKind::Exclusive)?;
        c += primitives::permute(e, &ones, &l, &f)?;
        assert_eq!(e.to_u32(&f), flags, "lengths conversion mismatch");
        c + primitives::seg_plus_scan(e, &v, &f)?
    };
    // Head-pointers: scatter 1s at the pointers.
    let via_pointers = {
        let v = e.from_u32(&data)?;
        let p = e.from_u32(&segs.to_head_pointers())?;
        let ones = e.alloc(Sew::E32, nseg)?;
        let f = e.alloc(Sew::E32, n)?;
        let mut c = primitives::p_add(e, &ones, 1)?;
        c += primitives::permute(e, &ones, &p, &f)?;
        assert_eq!(e.to_u32(&f), flags, "pointer conversion mismatch");
        c + primitives::seg_plus_scan(e, &v, &f)?
    };
    Ok([direct, via_lengths, via_pointers])
}

/// Ablation: VLA strip-mining (paper §3.1's `vsetvli` pattern) vs
/// VLS-style fixed-width strips plus a scalar remainder loop, for `p_add`.
/// Returns `[vla_count, vls_count, vla_static_instrs, vls_static_instrs]`.
pub fn vla_vls_point(e: &mut ScanEnv, n: usize) -> ScanResult<[u64; 4]> {
    use rvv_isa::VAluOp;
    let data = random_u32s(n, 12);
    let v = e.from_u32(&data)?;
    let vla = primitives::p_add(e, &v, 3)?;
    let w = e.from_u32(&data)?;
    let vls = primitives::elem_vx_vls(e, VAluOp::Add, &w, 3)?;
    assert_eq!(e.to_u32(&v), e.to_u32(&w), "VLS result diverged at n={n}");
    let cfg = e.config();
    let vla_static = scanvec::kernels::build_elem_vx(&cfg, Sew::E32, VAluOp::Add)
        .expect("build")
        .len();
    let vls_static = scanvec::kernels::build_elem_vx_vls(&cfg, Sew::E32, VAluOp::Add)
        .expect("build")
        .len();
    Ok([vla, vls, vla_static as u64, vls_static as u64])
}

/// Ablation: split radix sort vs the bitonic network — O(bits·n) passes
/// against O(n·lg²n) oblivious compare-exchanges, both built purely from
/// primitives. Returns `[radix_count, bitonic_count]`.
pub fn sorts_point(e: &mut ScanEnv, n: usize) -> ScanResult<[u64; 2]> {
    let data = random_u32s(n, 13);
    let v = e.from_u32(&data)?;
    let radix = split_radix_sort(e, &v, 32)?;
    let w = e.from_u32(&data)?;
    let bitonic = bitonic_sort(e, &w)?;
    assert_eq!(e.to_u32(&v), e.to_u32(&w), "sorts disagree at n={n}");
    Ok([radix, bitonic])
}

/// Supplementary table (not in the paper): every remaining primitive vs its
/// scalar baseline at the headline configuration. Returns `[vector_count,
/// baseline_count]` for `p_add`, `p_select`, `enumerate` and `permute`, in
/// that order.
pub fn primitives_point(e: &mut ScanEnv, n: usize) -> ScanResult<[u64; 8]> {
    let data = random_u32s(n, 14);
    let bits: Vec<u32> = data.iter().map(|x| x & 1).collect();

    let v = e.from_u32(&data)?;
    let p_add = primitives::p_add(e, &v, 7)?;
    let w = e.from_u32(&data)?;
    let p_add_base = baseline::p_add(e, &w, 7)?;

    let f = e.from_u32(&bits)?;
    let a = e.from_u32(&data)?;
    let b = e.from_u32(&data)?;
    let d = e.alloc(Sew::E32, n)?;
    let select = primitives::select(e, &f, &a, &b, &d)?;
    let select_base = baseline::select(e, &f, &a, &b, &d)?;

    let (_, enumerate) = primitives::enumerate(e, &f, true, &d)?;
    let (_, enumerate_base) = baseline::enumerate(e, &f, true, &d)?;

    // A valid permutation: reverse.
    let idx: Vec<u32> = (0..n as u32).rev().collect();
    let iv = e.from_u32(&idx)?;
    let permute = primitives::permute(e, &a, &iv, &d)?;
    let permute_base = baseline::permute(e, &a, &iv, &d)?;

    Ok([
        p_add,
        p_add_base,
        select,
        select_base,
        enumerate,
        enumerate_base,
        permute,
        permute_base,
    ])
}

/// Supplementary sensitivity study at one segment-head density (heads per
/// 1000 elements). The vectorized kernel's work is density-independent
/// (the ladder always runs ⌈lg vl⌉ rounds); the scalar baseline pays one
/// reset per head. Returns `[vector_count, baseline_count]`.
pub fn density_point(e: &mut ScanEnv, n: usize, per_mille: u32) -> ScanResult<[u64; 2]> {
    use rand::prelude::*;
    let mut rng = StdRng::seed_from_u64(15 + per_mille as u64);
    let data = random_u32s(n, 15);
    let mut flags: Vec<u32> = (0..n)
        .map(|_| u32::from(rng.random_range(0..1000u32) < per_mille))
        .collect();
    if let Some(f) = flags.first_mut() {
        *f = 1;
    }
    let v = e.from_u32(&data)?;
    let f = e.from_u32(&flags)?;
    let ours = primitives::seg_plus_scan(e, &v, &f)?;
    let w = e.from_u32(&data)?;
    let base = baseline::seg_plus_scan(e, &w, &f)?;
    Ok([ours, base])
}

/// The instruction classes [`class_mix_point`] reports, in its order.
pub const CLASSES: [InstrClass; 8] = [
    InstrClass::VectorAlu,
    InstrClass::VectorPerm,
    InstrClass::VectorMask,
    InstrClass::VectorMem,
    InstrClass::VectorCfg,
    InstrClass::ScalarAlu,
    InstrClass::ScalarMem,
    InstrClass::ScalarCtrl,
];

/// Per-class dynamic instruction breakdown of one segmented scan at the
/// environment's LMUL: where the LMUL=8 instructions go. Returns the
/// total, then the count of each of [`CLASSES`].
pub fn class_mix_point(e: &mut ScanEnv, n: usize) -> ScanResult<[u64; 9]> {
    let data = random_u32s(n, 77);
    let flags = random_head_flags(n, 77);
    let v = e.from_u32(&data)?;
    let f = e.from_u32(&flags)?;
    let before = e.machine().counters.clone();
    primitives::seg_plus_scan(e, &v, &f)?;
    let d = e.machine().counters.since(&before);
    let mut mix = [0; 9];
    mix[0] = d.total();
    for (m, c) in mix[1..].iter_mut().zip(CLASSES) {
        *m = d.class(c);
    }
    Ok(mix)
}

/// Elements in a traced profiling launch.
pub const PROFILE_N: usize = 4096;

/// One traced segmented-scan launch for the spill profiles: values
/// `i % 1000`, a segment head every 64 elements.
pub fn seg_scan_profile_point(e: &mut ScanEnv) -> ScanResult<()> {
    let data: Vec<u32> = (0..PROFILE_N as u32).map(|i| i % 1000).collect();
    let flags: Vec<u32> = (0..PROFILE_N).map(|i| u32::from(i % 64 == 0)).collect();
    let v = e.from_u32(&data)?;
    let f = e.from_u32(&flags)?;
    primitives::seg_plus_scan(e, &v, &f).map(drop)
}

/// The unsegmented counterpart of [`seg_scan_profile_point`]: the scan
/// has three live values, so the spill detector should find no stack
/// traffic at any LMUL.
pub fn scan_profile_point(e: &mut ScanEnv) -> ScanResult<()> {
    let data: Vec<u32> = (0..PROFILE_N as u32).map(|i| i % 1000).collect();
    let v = e.from_u32(&data)?;
    primitives::plus_scan(e, &v).map(drop)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exclusive_scan_costs_about_the_same() {
        let (inc, exc) = scan_kinds(10_000);
        let ratio = exc as f64 / inc as f64;
        assert!(
            ratio < 1.25,
            "exclusive scan should cost ~1 slide more per strip: {ratio}"
        );
    }
}
