//! Edge cases of plan compilation and the plan driver's control flow:
//! branches to the program boundary, falling off the end, dynamic jumps,
//! vtype flips re-resolving the per-op specialization cache, and fuel
//! exhaustion — every case checked against the legacy interpreter.

use rvv_ckpt::CodecError;
use rvv_isa::{AluOp, BranchCond, Instr, Lmul, Sew, VAluOp, VReg, VType, XReg};
use rvv_sim::{CompiledPlan, Machine, MachineConfig, MachineSnapshot, Program, SimError};

fn machine() -> Machine {
    Machine::new(MachineConfig {
        vlen: 128,
        mem_bytes: 1 << 16,
    })
}

/// Run `p` through both engines and assert identical results and counters.
fn both(p: &Program, fuel: u64) -> Result<rvv_sim::RunReport, SimError> {
    let plan = CompiledPlan::compile(p.clone());
    let mut m1 = machine();
    let mut m2 = machine();
    let r1 = m1.run_plan(&plan, fuel, 0, &mut ());
    let r2 = m2.run_legacy(p, fuel, 0, &mut ());
    assert_eq!(r1, r2, "engines disagree on {}", p.name);
    assert_eq!(m1.counters, m2.counters, "counters disagree on {}", p.name);
    r1
}

fn addi(rd: u8, rs1: u8, imm: i32) -> Instr {
    Instr::OpImm {
        op: AluOp::Add,
        rd: XReg::new(rd),
        rs1: XReg::new(rs1),
        imm,
    }
}

#[test]
fn branch_to_last_instruction() {
    // beq x0, x0, +8 skips the addi and lands exactly on the final ecall.
    let p = Program::new(
        "to-last",
        vec![
            Instr::Branch {
                cond: BranchCond::Eq,
                rs1: XReg::ZERO,
                rs2: XReg::ZERO,
                offset: 8,
            },
            addi(5, 0, 99),
            Instr::Ecall,
        ],
    );
    let r = both(&p, 100).unwrap();
    assert_eq!(r.retired, 2);
    assert_eq!(r.halt_pc, 8);
}

#[test]
fn branch_one_past_the_end_traps_with_boundary_target() {
    // A taken branch to index == len is a *valid jump* that then falls off
    // the end: the branch itself retires, the trap reports the boundary PC.
    let p = Program::new(
        "past-end",
        vec![Instr::Branch {
            cond: BranchCond::Eq,
            rs1: XReg::ZERO,
            rs2: XReg::ZERO,
            offset: 4,
        }],
    );
    let r = both(&p, 100);
    assert_eq!(r, Err(SimError::BadControlFlow { target: 4 }));
}

#[test]
fn fall_off_the_end_after_straight_line() {
    let p = Program::new("fall-off", vec![addi(5, 0, 1), addi(6, 0, 2)]);
    let r = both(&p, 100);
    assert_eq!(r, Err(SimError::BadControlFlow { target: 8 }));
}

#[test]
fn misaligned_jump_target_reports_the_byte_address() {
    // jal +6: misaligned. The jal retires (it counts!) and the trap carries
    // the exact byte target.
    let p = Program::new(
        "misaligned",
        vec![Instr::Jal {
            rd: XReg::ZERO,
            offset: 6,
        }],
    );
    let r = both(&p, 100);
    assert_eq!(r, Err(SimError::BadControlFlow { target: 6 }));
}

#[test]
fn dynamic_jalr_in_and_out_of_range() {
    // jalr through x5: first to the ecall (valid), then re-run with a wild
    // address seeded.
    let p = Program::new(
        "jalr",
        vec![
            Instr::Jalr {
                rd: XReg::new(1),
                rs1: XReg::new(5),
                offset: 0,
            },
            addi(6, 0, 1),
            Instr::Ecall,
        ],
    );
    let plan = CompiledPlan::compile(p.clone());
    for target in [8u64, 0x1000, 10, 5] {
        let mut m1 = machine();
        let mut m2 = machine();
        m1.set_xreg(XReg::new(5), target);
        m2.set_xreg(XReg::new(5), target);
        let r1 = m1.run_plan(&plan, 100, 0, &mut ());
        let r2 = m2.run_legacy(&p, 100, 0, &mut ());
        assert_eq!(r1, r2, "jalr to {target:#x}");
        if target == 8 {
            assert_eq!(r1.unwrap().halt_pc, 8);
            assert_eq!(m1.xreg(XReg::new(1)), 4, "link register");
            assert_eq!(m1.xreg(XReg::new(6)), 0, "skipped instruction ran");
        } else {
            // jalr clears bit 0 before the bounds check (5 → 4 is valid!).
            let expect = target & !1;
            if expect == 4 {
                assert!(r1.is_ok());
            } else {
                assert_eq!(r1, Err(SimError::BadControlFlow { target: expect }));
            }
        }
    }
}

#[test]
fn vsetvl_flipping_vtype_re_resolves_the_kernel_cache() {
    // One vadd.vi micro-op executed under alternating SEW/LMUL: the loop
    // carries the vtype bits in x11 and xors them each iteration, so the
    // same cached kernel slot must be re-resolved e32m1 → e8m2 → e32m1 → …
    let a = VType::new(Sew::E32, Lmul::M1).to_bits();
    let b = VType::new(Sew::E8, Lmul::M2).to_bits();
    let p = Program::new(
        "flip",
        vec![
            addi(5, 0, 6),  // x5 = iterations
            addi(10, 0, 4), // x10 = avl
            addi(11, 0, a as i32),
            addi(12, 0, (a ^ b) as i32),
            // loop:
            Instr::Vsetvl {
                rd: XReg::ZERO,
                rs1: XReg::new(10),
                rs2: XReg::new(11),
            },
            Instr::VOpVI {
                op: VAluOp::Add,
                vd: VReg::new(2),
                vs2: VReg::new(2),
                imm: 1,
                vm: true,
            },
            Instr::Op {
                op: AluOp::Xor,
                rd: XReg::new(11),
                rs1: XReg::new(11),
                rs2: XReg::new(12),
            },
            addi(5, 5, -1),
            Instr::Branch {
                cond: BranchCond::Ne,
                rs1: XReg::new(5),
                rs2: XReg::ZERO,
                offset: -16,
            },
            Instr::Ecall,
        ],
    );
    let plan = CompiledPlan::compile(p.clone());
    let mut m1 = machine();
    let mut m2 = machine();
    let r1 = m1.run_plan(&plan, 1000, 0, &mut ()).unwrap();
    let r2 = m2.run_legacy(&p, 1000, 0, &mut ()).unwrap();
    assert_eq!(r1, r2);
    assert_eq!(m1.counters, m2.counters);
    for v in 0..32 {
        assert_eq!(
            m1.vreg_bytes(VReg::new(v)),
            m2.vreg_bytes(VReg::new(v)),
            "v{v} diverged"
        );
    }
    // Three iterations each way actually touched both element widths.
    assert_ne!(m1.vreg_bytes(VReg::new(2)), &vec![0u8; 16][..]);
}

#[test]
fn fuel_exhaustion_mid_block() {
    // Straight-line code long enough that fuel runs out in the middle:
    // both engines must stop at exactly the same retired count.
    let mut instrs: Vec<Instr> = (0..20).map(|i| addi(5, 5, i)).collect();
    instrs.push(Instr::Ecall);
    let p = Program::new("mid-block", instrs);
    let plan = CompiledPlan::compile(p.clone());
    for fuel in [1u64, 7, 19, 20] {
        let mut m1 = machine();
        let mut m2 = machine();
        let r1 = m1.run_plan(&plan, fuel, 0, &mut ());
        let r2 = m2.run_legacy(&p, fuel, 0, &mut ());
        assert_eq!(r1, r2, "fuel {fuel}");
        assert_eq!(r1, Err(SimError::FuelExhausted { fuel }));
        assert_eq!(m1.counters.total(), m2.counters.total());
        assert_eq!(m1.xreg(XReg::new(5)), m2.xreg(XReg::new(5)));
    }
    // With just enough fuel the run completes.
    let mut m = machine();
    assert!(m.run_plan(&plan, 21, 0, &mut ()).is_ok());
}

#[test]
fn empty_program_traps_immediately() {
    let p = Program::new("empty", vec![]);
    let r = both(&p, 10);
    assert_eq!(r, Err(SimError::BadControlFlow { target: 0 }));
}

#[test]
fn traced_runs_produce_identical_event_streams() {
    use rvv_sim::{RetireEvent, TraceSink};
    #[derive(Default)]
    struct Rec(Vec<(u64, u64, String, u32)>);
    impl TraceSink for Rec {
        fn retire(&mut self, e: &RetireEvent<'_>) {
            self.0.push((e.seq, e.pc, e.instr.to_string(), e.vl));
        }
    }
    let p = Program::new(
        "traced",
        vec![
            addi(10, 0, 8),
            Instr::Vsetvli {
                rd: XReg::ZERO,
                rs1: XReg::new(10),
                vtype: VType::new(Sew::E16, Lmul::M1),
            },
            Instr::VOpVI {
                op: VAluOp::Add,
                vd: VReg::new(2),
                vs2: VReg::new(2),
                imm: 3,
                vm: true,
            },
            Instr::Ecall,
        ],
    );
    let plan = CompiledPlan::compile(p.clone());
    let mut s1 = Rec::default();
    let mut s2 = Rec::default();
    let mut m1 = machine();
    let mut m2 = machine();
    let r1 = m1.run_plan(&plan, 100, 0, &mut s1).unwrap();
    let r2 = m2.run_legacy(&p, 100, 0, &mut s2).unwrap();
    assert_eq!(r1, r2);
    assert_eq!(s1.0, s2.0, "trace event streams diverged");
    assert_eq!(s1.0.len() as u64, r1.retired);
}

/// Run `p` on the plan and legacy tiers from `start` and assert the same
/// result, counters, vector registers and memory snapshot (dirty pages
/// included); returns the plan tier's machine.
fn both_from(start: &Machine, p: &Program) -> Machine {
    let plan = CompiledPlan::compile(p.clone());
    let (mut m1, mut m2) = (start.clone(), start.clone());
    let r1 = m1.run_plan(&plan, 100, 0, &mut ());
    let r2 = m2.run_legacy(p, 100, 0, &mut ());
    assert_eq!(r1, r2, "engines disagree on {}", p.name);
    assert_eq!(m1.counters, m2.counters, "counters disagree on {}", p.name);
    for v in 0..32 {
        assert_eq!(
            m1.vreg_bytes(VReg::new(v)),
            m2.vreg_bytes(VReg::new(v)),
            "v{v} diverged on {}",
            p.name
        );
    }
    assert_eq!(m1.mem.snapshot(), m2.mem.snapshot(), "memory on {}", p.name);
    m1
}

/// `vsetvli x0, x10, <vtype>`, one vector op, `ecall`.
fn one_vector_op(name: &str, vtype: VType, op: Instr) -> Program {
    let cfg = Instr::Vsetvli {
        rd: XReg::ZERO,
        rs1: XReg::new(10),
        vtype,
    };
    Program::new(name, vec![cfg, op, Instr::Ecall])
}

#[test]
fn masked_store_dirties_only_the_pages_of_active_elements() {
    // e32 m8 at VLEN 128: vl = 32 elements, 128 bytes from 64 bytes below
    // a page boundary. Only elements 0–15 are active, and they all sit
    // below the boundary, so exactly one page may become dirty.
    let mut m = machine();
    m.set_xreg(XReg::new(10), 32);
    m.set_xreg(XReg::new(11), 4096 - 64);
    m.set_vreg_bytes(
        VReg::V0,
        &[0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    );
    for r in 8..16u8 {
        m.set_vreg_bytes(VReg::new(r), &[r; 16]);
    }
    let store = Instr::VStore {
        eew: Sew::E32,
        vs3: VReg::new(8),
        rs1: XReg::new(11),
        vm: false,
    };
    let p = one_vector_op("masked-vse", VType::new(Sew::E32, Lmul::M8), store);
    let m = both_from(&m, &p);
    assert_eq!(m.mem.dirty_pages(), 1);
    assert_eq!(m.mem.peek(4096 - 64, 1).unwrap(), 8);
    assert_eq!(m.mem.peek(4096, 1).unwrap(), 0);
}

#[test]
fn masked_load_into_v0_reads_each_mask_bit_after_earlier_writes() {
    // vle8.v v0, (x11), v0.t with every mask bit of elements 0–15 set.
    // Element 0 loads 0x01 into mask byte 0, which turns elements 1–7
    // off, so mask byte 1 keeps elements 8–15 on. A walk that read byte 0
    // once would load elements 1–7 too, and element 1's 0xaa in byte 1
    // would then turn elements 8, 10, 12 and 14 off.
    let mut m = machine();
    m.set_xreg(XReg::new(10), 16);
    m.set_xreg(XReg::new(11), 256);
    m.set_vreg_bytes(VReg::V0, &[0xff; 16]);
    m.mem.poke(256, 1, 0x01).unwrap();
    for a in 257..272 {
        m.mem.poke(a, 1, 0xaa).unwrap();
    }
    let load = Instr::VLoad {
        eew: Sew::E8,
        vd: VReg::V0,
        rs1: XReg::new(11),
        vm: false,
    };
    let p = one_vector_op("masked-vle-v0", VType::new(Sew::E8, Lmul::M1), load);
    let m = both_from(&m, &p);
    let mut want = [0xffu8; 16];
    want[0] = 0x01;
    want[8..].fill(0xaa);
    assert_eq!(m.vreg_bytes(VReg::V0), &want[..]);
}

#[test]
fn a_snapshot_with_vl_above_vlmax_is_refused() {
    // e32 m1 at VLEN 128 holds 4 elements per group. No program can set
    // vl = 8 (`vsetvl*` clamps it), so neither snapshot decode nor
    // `Machine::restore` takes it; under `vill` only vl = 0 fits.
    let mut m = machine();
    let mut snap = m.snapshot();
    snap.vtype = Some(VType::new(Sew::E32, Lmul::M1));
    snap.vl = 4;
    assert_eq!(MachineSnapshot::from_bytes(&snap.to_bytes()).unwrap(), snap);
    for (vtype, vl) in [(snap.vtype, 8), (None, 1)] {
        let bad = MachineSnapshot {
            vtype,
            vl,
            ..snap.clone()
        };
        assert!(matches!(
            MachineSnapshot::from_bytes(&bad.to_bytes()),
            Err(CodecError::BadValue { what: "vl", value }) if value == u64::from(vl)
        ));
        let restored = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| m.restore(&bad)));
        assert!(restored.is_err(), "restore took vl={vl} under {vtype:?}");
    }
}
