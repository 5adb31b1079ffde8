//! Where each piece of the paper lives in this codebase — a reviewer's
//! cross-reference. This module contains no code, only the map.
//!
//! # Listings
//!
//! | Paper | What it shows | Here |
//! |---|---|---|
//! | Listing 1/2 | strip-mined `vector_add` (C intrinsics / assembly) | [`crate::kernels::build_elem_vv`] emits the same loop; `dump_kernels` prints the assembly |
//! | Listing 3 | masked `vadd` signature, mask policies | [`rvv_isa::Instr::VOpVV`] with `vm = false`; policy modelling in `rvv-sim`'s executor docs |
//! | Listing 4 | `p_add` elementwise primitive | [`crate::kernels::build_elem_vx`], API [`crate::primitives::p_add`] |
//! | Listing 5 | `permute` via `VSUXEI` indexed store | [`crate::kernels::build_permute`], API [`crate::primitives::permute`] |
//! | Listing 6 | unsegmented plus-scan (strip mining + in-register ladder) | [`crate::kernels::build_scan`], API [`crate::primitives::plus_scan`] |
//! | Listing 7 | `split` from enumerate/p_add/p_select/permute | [`crate::primitives::split`] (same five-call composition) |
//! | Listing 8 | `enumerate` via `viota` + `vcpop` | [`crate::kernels::build_enumerate`], ablated against a generic scan in the `ablation_enumerate` row |
//! | Listing 9 | split radix sort driver | `scanvec_algos::split_radix_sort` |
//! | Listing 10 | segmented plus-scan (`vmsne`/`vmsbf` carry mask, flag ladder) | [`crate::kernels::build_seg_scan`], API [`crate::primitives::seg_plus_scan`] |
//!
//! # Figures
//!
//! | Paper | What it shows | Here |
//! |---|---|---|
//! | Figure 1 | in-register scan steps | unit tests in `kernels::scan`; the ladder is the `vfill`/`vslideup`/combine loop |
//! | Figure 2 | split radix sort worked example | `radix_sort::tests::sorts_the_papers_figure_2_example` |
//! | Figure 3 | `split` worked example | `native::tests::split_matches_figure_3` |
//! | Figure 4 | in-register *segmented* scan steps | unit tests in `kernels::segscan`; the flag ladder is `vslideup`+`vor` |
//! | Figure 5 | speedup over VLEN | `repro figure5` |
//!
//! # Sections
//!
//! | Paper | Topic | Here |
//! |---|---|---|
//! | §2.1 | RVV background | [`rvv_isa`] + [`rvv_sim`] (the substrate we had to build) |
//! | §3.1 | VLA vs VLS strip mining | [`crate::kernels::build_elem_vx_vls`] + the `ablation_vla_vls` row |
//! | §3.2 | vector masking | executor's mask handling; `rvv-sim` `vmask` tests |
//! | §3.3 | LMUL and the intrinsic type system | [`rvv_isa::Lmul`] (incl. fractional), group alignment in the allocator |
//! | §4 | the three primitive classes | [`crate::primitives`] |
//! | §5 | segment descriptors, segmented scan | [`crate::segment::Segments`] + [`crate::kernels::build_seg_scan`]; descriptor ablation in the `ablation_segdesc` row |
//! | §6.2 | Tables 1–4 | `repro table1 table2 table3 table4` |
//! | §6.3 | Tables 5–6, LMUL anomaly | `rvv_asm::KernelBuilder` spill machinery; `repro table5 table6 ablation_spill` |
//! | §6.4 | Table 7, Figure 5, scalability | `repro table7 figure5` |
//!
//! `repro` is the `scanvec-bench` binary that prints the rows of its
//! reproduction manifest; its full output is `results/full_run.txt`, and
//! the repository's `EXPERIMENTS.md` discusses the measured-vs-paper numbers.
