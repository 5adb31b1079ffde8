//! Failure injection: every trap path in the stack is reachable and
//! reported as a typed error — no silent corruption, no panics.

use scan_vector_rvv::asm::ProgramBuilder;
use scan_vector_rvv::isa::{Instr, Lmul, Sew, VAluOp, VReg, VType, XReg};
use scan_vector_rvv::sim::{Machine, MachineConfig, Program, SimError, DEFAULT_FUEL};

fn machine() -> Machine {
    Machine::new(MachineConfig {
        vlen: 128,
        mem_bytes: 4096,
    })
}

#[test]
fn vector_op_before_vsetvli_is_vill() {
    let mut m = machine();
    let p = Program::new(
        "no-config",
        vec![
            Instr::VOpVV {
                op: VAluOp::Add,
                vd: VReg::new(4),
                vs2: VReg::new(5),
                vs1: VReg::new(6),
                vm: true,
            },
            Instr::Ecall,
        ],
    );
    assert!(matches!(m.run(&p, DEFAULT_FUEL), Err(SimError::Vill)));
}

#[test]
fn misaligned_group_under_lmul() {
    let mut m = machine();
    let mut b = ProgramBuilder::new("misaligned");
    b.li(XReg::new(10), 8);
    b.vsetvli(XReg::ZERO, XReg::new(10), VType::new(Sew::E32, Lmul::M4));
    b.vop_vv(VAluOp::Add, VReg::new(6), VReg::new(8), VReg::new(12), true); // v6 % 4 != 0
    b.halt();
    let p = b.finish().unwrap();
    assert!(matches!(
        m.run(&p, DEFAULT_FUEL),
        Err(SimError::MisalignedGroup { .. })
    ));
}

#[test]
fn vector_load_out_of_bounds() {
    let mut m = machine();
    let mut b = ProgramBuilder::new("oob");
    b.li(XReg::new(10), 4);
    b.vsetvli(XReg::ZERO, XReg::new(10), VType::new(Sew::E32, Lmul::M1));
    b.li(XReg::new(11), 4090); // 4 x e32 from 4090 crosses the 4096 end
    b.vle(Sew::E32, VReg::new(8), XReg::new(11));
    b.halt();
    let p = b.finish().unwrap();
    assert!(matches!(
        m.run(&p, DEFAULT_FUEL),
        Err(SimError::MemOutOfBounds { .. })
    ));
}

#[test]
fn indexed_store_with_wild_index_traps() {
    let mut m = machine();
    let mut b = ProgramBuilder::new("wild-scatter");
    b.li(XReg::new(10), 4);
    b.vsetvli(XReg::ZERO, XReg::new(10), VType::new(Sew::E32, Lmul::M1));
    // index vector = huge byte offsets via vid << 30.
    b.vid(VReg::new(9));
    b.vop_vi(VAluOp::Sll, VReg::new(9), VReg::new(9), 30, true);
    b.li(XReg::new(11), 0);
    b.vsuxei(Sew::E32, VReg::new(8), XReg::new(11), VReg::new(9));
    b.halt();
    let p = b.finish().unwrap();
    assert!(matches!(
        m.run(&p, DEFAULT_FUEL),
        Err(SimError::MemOutOfBounds { .. })
    ));
}

#[test]
fn slideup_overlap_constraint() {
    let mut m = machine();
    let mut b = ProgramBuilder::new("overlap");
    b.li(XReg::new(10), 4);
    b.vsetvli(XReg::ZERO, XReg::new(10), VType::new(Sew::E32, Lmul::M1));
    b.li(XReg::new(5), 1);
    b.vslideup_vx(VReg::new(8), VReg::new(8), XReg::new(5), true);
    b.halt();
    let p = b.finish().unwrap();
    assert!(matches!(
        m.run(&p, DEFAULT_FUEL),
        Err(SimError::OverlapConstraint { .. })
    ));
}

#[test]
fn guard_regions_catch_overruns() {
    let mut m = machine();
    // Arm a guard right after a 16-byte buffer at 0x100.
    m.mem.add_guard(0x110..0x120);
    let mut b = ProgramBuilder::new("overrun");
    b.li(XReg::new(10), 8); // 8 elements = 32 bytes > 16-byte buffer
    b.vsetvli(XReg::ZERO, XReg::new(10), VType::new(Sew::E32, Lmul::M2));
    b.li(XReg::new(11), 0x100);
    b.vse(Sew::E32, VReg::new(8), XReg::new(11));
    b.halt();
    let p = b.finish().unwrap();
    assert!(matches!(
        m.run(&p, DEFAULT_FUEL),
        Err(SimError::GuardHit { .. })
    ));
}

#[test]
fn fuel_exhaustion_reports_budget() {
    let mut m = machine();
    let mut b = ProgramBuilder::new("spin");
    let l = b.label();
    b.bind(l);
    b.jump(l);
    b.halt();
    let p = b.finish().unwrap();
    assert!(matches!(
        m.run(&p, 500),
        Err(SimError::FuelExhausted { fuel: 500 })
    ));
    // The machine survives and can run something else afterwards.
    let ok = Program::new("ok", vec![Instr::Ecall]);
    assert!(m.run(&ok, DEFAULT_FUEL).is_ok());
}

#[test]
fn device_oom_is_typed() {
    use scan_vector_rvv::core::ScanError;
    use scan_vector_rvv::core::{EnvConfig, ScanEnv};
    let mut e = ScanEnv::new(EnvConfig {
        vlen: 128,
        lmul: Lmul::M1,
        spill_profile: scan_vector_rvv::asm::SpillProfile::llvm14(),
        mem_bytes: 2 << 20,
    });
    let r = e.alloc(Sew::E32, 10 << 20);
    assert!(matches!(r, Err(ScanError::OutOfDeviceMemory { .. })));
}

#[test]
fn shape_errors_are_typed() {
    use scan_vector_rvv::core::primitives as p;
    use scan_vector_rvv::core::ScanEnv;
    use scan_vector_rvv::core::{ScanError, ScanOp};
    let mut e = ScanEnv::paper_default();
    let a = e.from_u32(&[1, 2, 3]).unwrap();
    let b = e.from_u32(&[1, 2]).unwrap();
    assert!(matches!(
        p::seg_scan(&mut e, ScanOp::Plus, &a, &b),
        Err(ScanError::LengthMismatch { .. })
    ));
    let c = e.from_u64(&[1, 2, 3]).unwrap();
    assert!(matches!(
        p::elem_vv(&mut e, VAluOp::Add, &a, &c, &a),
        Err(ScanError::SewMismatch { .. })
    ));
}

#[test]
fn bad_segment_descriptors_rejected() {
    use scan_vector_rvv::core::Segments;
    assert!(Segments::from_head_flags(vec![0, 1]).is_err());
    assert!(Segments::from_lengths(&[0]).is_err());
    assert!(Segments::from_head_pointers(&[0, 0], 3).is_err());
}
