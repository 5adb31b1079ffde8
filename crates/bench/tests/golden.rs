//! Golden regression test: the exact dynamic instruction counts of the
//! headline experiments, pinned against a checked-in fixture.
//!
//! The simulator is deterministic and the metric is architectural, so the
//! counts must match **exactly** — any drift means generated code or
//! counting semantics changed, which silently rewrites every table in the
//! paper reproduction. The manifest rows' shape predicates catch
//! qualitative regressions; this one catches the quantitative ones.
//!
//! To regenerate after an *intentional* codegen change:
//! `GOLDEN_REGEN=1 cargo test -p scanvec-bench --test golden` — then
//! review the fixture diff like any other code change.

use rvv_cost::{CostModel, CycleEstimator};
use rvv_isa::Lmul;
use scanvec::{ScanEnv, ScanResult};
use scanvec_bench::experiments::{table2_point, table3_point, table4_point, table5_point, Pair};
use scanvec_bench::{env_with, paper_env};
use std::fmt::Write;

const SIZES: [usize; 3] = [100, 1_000, 10_000];
const N: usize = 10_000;

fn measured() -> String {
    let mut s = String::new();
    writeln!(
        s,
        "# Dynamic instruction counts at VLEN=1024, LMUL=1 (llvm14 spill profile)."
    )
    .unwrap();
    writeln!(
        s,
        "# Regenerate with: GOLDEN_REGEN=1 cargo test -p scanvec-bench --test golden"
    )
    .unwrap();
    type Point = fn(&mut ScanEnv, usize) -> ScanResult<Pair>;
    let tables: [(&str, Point); 3] = [
        ("table2_p_add", table2_point),
        ("table3_plus_scan", table3_point),
        ("table4_seg_plus_scan", table4_point),
    ];
    for (name, point) in tables {
        for n in SIZES {
            let p = point(&mut paper_env(), n).expect(name);
            writeln!(s, "{name}/n={n}/ours = {}", p.ours).unwrap();
            writeln!(s, "{name}/n={n}/baseline = {}", p.baseline).unwrap();
        }
    }
    for lmul in Lmul::ALL {
        let (count, _) = table5_point(&mut env_with(1024, lmul), N).expect("table5");
        writeln!(s, "table5_seg_scan/n={N}/m{} = {count}", lmul.regs()).unwrap();
    }
    // The second metric, pinned just as exactly: modeled cycles under the
    // `ara-like` preset for the same LMUL sweep. The estimate is a pure
    // function of the retire stream and the preset, so drift here means
    // either the generated code or the timing model changed.
    for lmul in Lmul::ALL {
        let mut e = env_with(1024, lmul);
        e.attach_tracer(Box::new(CycleEstimator::new(
            CostModel::ara_like(),
            e.stack_region(),
        )));
        table5_point(&mut e, N).expect("table5");
        let cycles = CycleEstimator::from_sink(e.detach_tracer().expect("sink attached"))
            .expect("sink is a CycleEstimator")
            .counters();
        writeln!(
            s,
            "table5_seg_scan_cycles[ara-like]/n={N}/m{} = {}",
            lmul.regs(),
            cycles.total()
        )
        .unwrap();
    }
    // The paper's headline ratios at this configuration (its Table 3/4
    // analogues report 2.85x for the scan and 4.29x for the segmented scan
    // at LMUL=1; our tighter codegen lands higher, and the exact values
    // are pinned here).
    let scan = table3_point(&mut paper_env(), N).expect("scan");
    writeln!(s, "scan/n={N}/speedup = {:.3}", scan.speedup()).unwrap();
    let seg = table4_point(&mut paper_env(), N).expect("seg scan");
    writeln!(s, "seg_scan/n={N}/speedup = {:.3}", seg.speedup()).unwrap();
    s
}

#[test]
fn golden_dynamic_instruction_counts() {
    let got = measured();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_counts.txt");
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::write(path, &got).expect("write fixture");
        eprintln!("fixture regenerated at {path}");
        return;
    }
    let want =
        std::fs::read_to_string(path).expect("fixture missing — regenerate with GOLDEN_REGEN=1");
    // Exact equality, not tolerance: dynamic instruction counts are the
    // paper's metric and the simulator is deterministic.
    assert_eq!(
        got, want,
        "dynamic instruction counts drifted from the checked-in fixture; \
         if the codegen change is intentional, regenerate with GOLDEN_REGEN=1 \
         and review the diff"
    );
}

#[test]
fn golden_speedups_match_paper_qualitatively() {
    // Independent of the fixture: the paper's qualitative claims at the
    // headline configuration. Scan ≈2.85x and seg-scan ≈4.29x in the
    // paper; our codegen is tighter, so both must land at or above the
    // published ratios.
    let scan = table3_point(&mut paper_env(), N).expect("scan");
    let seg = table4_point(&mut paper_env(), N).expect("seg scan");
    assert!(scan.speedup() > 2.85, "scan speedup {}", scan.speedup());
    assert!(seg.speedup() > 4.29, "seg-scan speedup {}", seg.speedup());
}
