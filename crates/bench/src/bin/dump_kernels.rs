//! Disassemble every generated kernel at a given configuration — the
//! artifact reviewers can diff against the paper's listings.
//!
//! Usage: `cargo run -p scanvec-bench --bin dump_kernels [--lmul 8] [--vlen 1024]`

use rvv_isa::{Lmul, Sew, VAluOp};
use scanvec::kernels;
use scanvec::{Engine, EnvConfig, ScanKind, ScanOp};
use scanvec_bench::{check_flags, num_arg, usage_error};

fn main() {
    check_flags(
        &["--vlen", "--lmul"],
        &[],
        "usage: dump_kernels [--vlen N] [--lmul 1|2|4|8]",
    );
    let vlen = num_arg("--vlen").map_or(1024, |v| u32::try_from(v).unwrap_or(u32::MAX));
    let regs = num_arg("--lmul").unwrap_or(1);
    let lmul = Lmul::ALL.into_iter().find(|l| u64::from(l.regs()) == regs);
    let lmul =
        lmul.unwrap_or_else(|| usage_error(&format!("--lmul must be 1, 2, 4 or 8, got {regs}")));
    let cfg = EnvConfig {
        vlen,
        lmul,
        ..EnvConfig::paper_default()
    };
    if let Err(e) = Engine::new().validate(&cfg) {
        usage_error(&e.to_string());
    }
    println!(
        "# kernels at VLEN={vlen}, LMUL=m{}, e32, llvm14 spill profile\n",
        lmul.regs()
    );
    let sew = Sew::E32;
    let programs = vec![
        kernels::build_elem_vx(&cfg, sew, VAluOp::Add).unwrap(),
        kernels::build_get_flags(&cfg, sew).unwrap(),
        kernels::build_select(&cfg, sew).unwrap(),
        kernels::build_permute(&cfg, sew).unwrap(),
        kernels::build_enumerate(&cfg, sew).unwrap(),
        kernels::build_scan(&cfg, sew, ScanOp::Plus, ScanKind::Inclusive).unwrap(),
        kernels::build_seg_scan(&cfg, sew, ScanOp::Plus).unwrap(),
        kernels::build_elem_baseline(&cfg, sew, ScanOp::Plus).unwrap(),
        kernels::build_scan_baseline(&cfg, sew, ScanOp::Plus).unwrap(),
        kernels::build_seg_scan_baseline(&cfg, sew, ScanOp::Plus).unwrap(),
    ];
    for p in programs {
        println!("{p}");
        let bytes = p.assemble().expect("kernels assemble");
        println!(
            "  ({} instructions, {} bytes of machine code)\n",
            p.len(),
            bytes.len()
        );
    }
}
