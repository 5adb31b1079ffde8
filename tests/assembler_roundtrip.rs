//! Assembler round-trip: `parse(program.to_string()) == program` for every
//! generated kernel — the disassembler and the textual assembler are exact
//! inverses over the whole kernel corpus, numeric branch offsets included.

use scan_vector_rvv::asm::{parse_program, SpillProfile};
use scan_vector_rvv::core::kernels;
use scan_vector_rvv::core::{EnvConfig, ScanKind, ScanOp};
use scan_vector_rvv::isa::{Lmul, Sew, VAluOp, VCmp};
use scan_vector_rvv::sim::{Program, DEFAULT_FUEL};

fn check_roundtrip(p: &Program) {
    let text = p.to_string();
    let back = parse_program(&p.name, &text)
        .unwrap_or_else(|e| panic!("{} failed to re-parse: {e}\n{text}", p.name));
    assert_eq!(
        back.instrs, p.instrs,
        "{} disassembly did not round-trip:\n{text}",
        p.name
    );
}

#[test]
fn every_kernel_roundtrips_through_text() {
    for lmul in [Lmul::M1, Lmul::M8] {
        let cfg = EnvConfig {
            vlen: 1024,
            lmul,
            spill_profile: SpillProfile::llvm14(),
            mem_bytes: 1 << 20,
        };
        for sew in [Sew::E8, Sew::E32, Sew::E64] {
            for p in [
                kernels::build_elem_vx(&cfg, sew, VAluOp::Add).unwrap(),
                kernels::build_elem_vv(&cfg, sew, VAluOp::Mul).unwrap(),
                kernels::build_get_flags(&cfg, sew).unwrap(),
                kernels::build_select(&cfg, sew).unwrap(),
                kernels::build_permute(&cfg, sew).unwrap(),
                kernels::build_pack(&cfg, sew).unwrap(),
                kernels::build_enumerate(&cfg, sew).unwrap(),
                kernels::build_enumerate_via_scan(&cfg, sew).unwrap(),
                kernels::build_copy(&cfg, sew).unwrap(),
                kernels::build_reverse(&cfg, sew).unwrap(),
                kernels::build_gather(&cfg, sew).unwrap(),
                kernels::build_iota(&cfg, sew).unwrap(),
                kernels::build_cmp_flags(&cfg, sew, VCmp::Ltu).unwrap(),
                kernels::build_deinterleave(&cfg, sew).unwrap(),
                kernels::build_interleave_lane(&cfg, sew).unwrap(),
                kernels::build_scan(&cfg, sew, ScanOp::Plus, ScanKind::Inclusive).unwrap(),
                kernels::build_scan(&cfg, sew, ScanOp::Max, ScanKind::Exclusive).unwrap(),
                kernels::build_seg_scan(&cfg, sew, ScanOp::Plus).unwrap(),
                kernels::build_reduce(&cfg, sew, ScanOp::Min).unwrap(),
                kernels::build_elem_vx_vls(&cfg, sew, VAluOp::Add).unwrap(),
                kernels::build_scan_baseline(&cfg, sew, ScanOp::Max).unwrap(),
                kernels::build_seg_scan_baseline(&cfg, sew, ScanOp::Plus).unwrap(),
            ] {
                check_roundtrip(&p);
            }
        }
    }
    check_roundtrip(&scan_vector_rvv::algos::build_qsort(Sew::E32).unwrap());
}

#[test]
fn hand_written_assembly_with_labels_runs() {
    use scan_vector_rvv::isa::XReg;
    use scan_vector_rvv::sim::{Machine, MachineConfig};
    // Sum the integers 1..=10 with a labelled loop, then vectorize a splat
    // to prove vector mnemonics parse too.
    let src = r#"
        # scalar: a0 = sum(1..=10)
        addi x5, x0, 10
        addi x10, x0, 0
    loop:
        add  x10, x10, x5
        addi x5, x5, -1
        bnez_is_not_real_but_bne_is: # labels can precede anything
        bne  x5, x0, loop
        // vector: store 4 copies of a0 at 0x100
        addi x6, x0, 4
        vsetvli x0, x6, e32, m1, ta, mu
        vmv.v.x v8, x10
        addi x7, x0, 0x100
        vse32.v v8, (x7)
        ecall
    "#;
    let p = parse_program("sum", src).unwrap();
    let mut m = Machine::new(MachineConfig {
        vlen: 128,
        mem_bytes: 4096,
    });
    m.run(&p, DEFAULT_FUEL).unwrap();
    assert_eq!(m.xreg(XReg::arg(0)), 55);
    assert_eq!(m.mem.read_u32_slice(0x100, 4), vec![55; 4]);
}

#[test]
fn parse_errors_carry_line_numbers() {
    let err = parse_program("bad", "addi x5, x0, 1\nfrobnicate x1, x2\n").unwrap_err();
    assert_eq!(err.line, 2);
    assert!(err.msg.contains("frobnicate"));

    let err = parse_program("bad", "addi x99, x0, 1").unwrap_err();
    assert!(err.msg.contains("x99"));

    let err = parse_program("bad", "beq x0, x0, nowhere").unwrap_err();
    assert!(err.msg.contains("nowhere"));

    let err = parse_program("bad", "vsetvli x0, x5, e32, m3, ta, mu").unwrap_err();
    assert!(err.msg.contains("m3"));
}

#[test]
fn masked_and_fractional_forms_parse() {
    let src = "vsetvli x0, x5, e16, mf2, tu, ma\nvadd.vv v8, v9, v10, v0.t\necall\n";
    let p = parse_program("m", src).unwrap();
    assert_eq!(p.instrs.len(), 3);
    let text = p.to_string();
    assert!(text.contains("mf2") && text.contains("v0.t"), "{text}");
    let back = parse_program("m", &text).unwrap();
    assert_eq!(back.instrs, p.instrs);
}
