//! Targeted fused-tier tests: programs shaped like the scan-vector-model
//! kernels, so every window kind (map strip, map.vv, scan step,
//! whole-register chain) actually takes the fused fast path — the random
//! soup in `fuzz_exec.rs` almost never forms adjacent windows, so it mostly
//! exercises the fallback. Each test runs legacy, plan, and fused engines
//! and requires bit-identical results, state, and counters, then asserts
//! via [`Machine::fused_stats`] that fusion really fired (or really did
//! not, for the fallback cases). Each also reruns the three engines under
//! a pass-through fault hook, which must turn every window off.

use rvv_isa::{AluOp, BranchCond, Instr, Lmul, Sew, VAluOp, VReg, VType, XReg};
use rvv_sim::{
    CompiledPlan, FaultAction, FaultHook, HookSet, Machine, MachineConfig, MemAccess, Program,
    RetireEvent, TraceSink,
};

fn machine() -> Machine {
    Machine::new(MachineConfig {
        vlen: 256,
        mem_bytes: 1 << 16,
    })
}

fn x(n: u8) -> XReg {
    XReg::new(n)
}

fn v(n: u8) -> VReg {
    VReg::new(n)
}

/// Full architectural-state comparison, as in `fuzz_exec.rs`.
fn assert_same_state(a: &Machine, b: &Machine) {
    for i in 0..32 {
        assert_eq!(a.xreg(x(i)), b.xreg(x(i)), "x{i} diverged");
    }
    for r in 0..32 {
        assert_eq!(a.vreg_bytes(v(r)), b.vreg_bytes(v(r)), "v{r} diverged");
    }
    assert_eq!(a.vl(), b.vl(), "vl diverged");
    assert_eq!(a.vtype(), b.vtype(), "vtype diverged");
    assert_eq!(a.counters, b.counters, "counters diverged");
    let size = a.mem.size();
    assert_eq!(size, b.mem.size());
    assert_eq!(
        a.mem.read_bytes(0, size).unwrap(),
        b.mem.read_bytes(0, size).unwrap(),
        "memory diverged"
    );
}

/// Run `p` on all three engines with identical setup, assert they are
/// indistinguishable, and hand back the fused machine for fusion-activity
/// assertions.
fn three_way(p: &Program, fuel: u64, setup: impl Fn(&mut Machine)) -> Machine {
    let plan = CompiledPlan::compile(p.clone());
    let mut ml = machine();
    let mut mp = machine();
    let mut mf = machine();
    setup(&mut ml);
    setup(&mut mp);
    setup(&mut mf);
    let rl = ml.run_legacy(p, fuel, 0, &mut ());
    let rp = mp.run_plan(&plan, fuel, 0, &mut ());
    let rf = mf.run_fused(&plan, fuel, 0, &mut ());
    assert_eq!(rp, rl, "plan vs legacy result");
    assert_eq!(rf, rl, "fused vs legacy result");
    ml.mem.clear_guards();
    mp.mem.clear_guards();
    mf.mem.clear_guards();
    assert_same_state(&mp, &ml);
    assert_same_state(&mf, &ml);
    // The same runs under a pass-through fault hook: every tier consults it
    // at the same boundaries, and the fused tier takes no window, since a
    // window has no interior boundaries to consult it at.
    let mut seen = Vec::new();
    for tier in 0..3 {
        let mut m = machine();
        setup(&mut m);
        let mut hook = Calls::default();
        let mut hooks = HookSet::fault(&mut hook);
        let r = match tier {
            0 => m.run_legacy(p, fuel, 0, &mut hooks),
            1 => m.run_plan(&plan, fuel, 0, &mut hooks),
            _ => m.run_fused(&plan, fuel, 0, &mut hooks),
        };
        assert_eq!(r, rl, "tier {tier} under a fault hook");
        m.mem.clear_guards();
        assert_same_state(&m, &ml);
        assert_eq!(m.fused_stats.windows, 0, "tier {tier} fused under a hook");
        seen.push(hook.0);
    }
    assert_eq!(seen[1], seen[0], "plan vs legacy hook calls");
    assert_eq!(seen[2], seen[0], "fused vs legacy hook calls");
    mf
}

/// A fault hook that passes every instruction, recording where it was
/// consulted.
#[derive(Default)]
struct Calls(Vec<u64>);

impl FaultHook for Calls {
    fn before(&mut self, pc: u64, _: &Instr, _: Option<&MemAccess>) -> FaultAction {
        self.0.push(pc);
        FaultAction::Pass
    }
}

/// A strip-mined elementwise loop, the shape `build_elem_vx` emits:
///
/// ```text
/// loop: vsetvli t0, a0, e32m2
///       vle32.v  v4, (a1)
///       vadd.vx  v4, v4, a2
///       vse32.v  v4, (a1)
///       slli t1, t0, 2 ; add a1, a1, t1 ; sub a0, a0, t0
///       bne a0, x0, loop
///       ecall
/// ```
fn map_strip_program(op: VAluOp) -> Program {
    Program::new(
        "map_strip",
        vec![
            Instr::Vsetvli {
                rd: x(5),
                rs1: x(10),
                vtype: VType::new(Sew::E32, Lmul::M2),
            },
            Instr::VLoad {
                eew: Sew::E32,
                vd: v(4),
                rs1: x(11),
                vm: true,
            },
            Instr::VOpVX {
                op,
                vd: v(4),
                vs2: v(4),
                rs1: x(12),
                vm: true,
            },
            Instr::VStore {
                eew: Sew::E32,
                vs3: v(4),
                rs1: x(11),
                vm: true,
            },
            Instr::OpImm {
                op: AluOp::Sll,
                rd: x(6),
                rs1: x(5),
                imm: 2,
            },
            Instr::Op {
                op: AluOp::Add,
                rd: x(11),
                rs1: x(11),
                rs2: x(6),
            },
            Instr::Op {
                op: AluOp::Sub,
                rd: x(10),
                rs1: x(10),
                rs2: x(5),
            },
            Instr::Branch {
                cond: BranchCond::Ne,
                rs1: x(10),
                rs2: x(0),
                offset: -28,
            },
            Instr::Ecall,
        ],
    )
}

const DATA: u64 = 0x1000;
const DATA2: u64 = 0x2000;

fn seed_u32(m: &mut Machine, addr: u64, n: usize) {
    let vals: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(0x9e37_79b9)).collect();
    m.mem.write_u32_slice(addr, &vals);
}

#[test]
fn map_strip_loop_fuses_and_matches() {
    // 100 elements, VLEN=256 e32m2 → vl=16 per strip → 7 iterations.
    let p = map_strip_program(VAluOp::Add);
    let mf = three_way(&p, 10_000, |m| {
        m.set_xreg(x(10), 100);
        m.set_xreg(x(11), DATA);
        m.set_xreg(x(12), 7);
        seed_u32(m, DATA, 100);
    });
    assert_eq!(mf.fused_stats.windows, 7, "one window per strip iteration");
    assert_eq!(mf.fused_stats.ops, 7 * 3, "vle+vadd+vse per window");
    // And the arithmetic is actually right, not just consistent.
    let out = mf.mem.read_u32_slice(DATA, 100);
    for (i, &o) in out.iter().enumerate() {
        assert_eq!(o, (i as u32).wrapping_mul(0x9e37_79b9).wrapping_add(7));
    }
}

#[test]
fn map_strip_fuses_for_every_alu_op() {
    use VAluOp::*;
    for op in [
        Add, Sub, Rsub, Minu, Min, Maxu, Max, And, Or, Xor, Sll, Srl, Sra, Mul, Mulh, Mulhu, Divu,
        Div, Remu, Rem,
    ] {
        let p = map_strip_program(op);
        let mf = three_way(&p, 10_000, |m| {
            m.set_xreg(x(10), 37);
            m.set_xreg(x(11), DATA);
            m.set_xreg(x(12), 11);
            seed_u32(m, DATA, 37);
        });
        assert!(mf.fused_stats.windows > 0, "{op:?} strip did not fuse");
    }
}

#[test]
fn map_alu_chain_with_immediates_fuses() {
    // The get_flags shape: vle ; vsrl.vx ; vand.vi 1 ; vse — a 4-op map
    // window with a 2-deep ALU chain mixing vx and vi operands.
    let p = Program::new(
        "flags",
        vec![
            Instr::Vsetvli {
                rd: x(5),
                rs1: x(10),
                vtype: VType::new(Sew::E32, Lmul::M1),
            },
            Instr::VLoad {
                eew: Sew::E32,
                vd: v(8),
                rs1: x(11),
                vm: true,
            },
            Instr::VOpVX {
                op: VAluOp::Srl,
                vd: v(8),
                vs2: v(8),
                rs1: x(12),
                vm: true,
            },
            Instr::VOpVI {
                op: VAluOp::And,
                vd: v(8),
                vs2: v(8),
                imm: 1,
                vm: true,
            },
            Instr::VStore {
                eew: Sew::E32,
                vs3: v(8),
                rs1: x(13),
                vm: true,
            },
            Instr::Ecall,
        ],
    );
    let mf = three_way(&p, 1_000, |m| {
        m.set_xreg(x(10), 8);
        m.set_xreg(x(11), DATA);
        m.set_xreg(x(12), 3);
        m.set_xreg(x(13), DATA2);
        seed_u32(m, DATA, 8);
    });
    assert_eq!(mf.fused_stats.windows, 1);
    assert_eq!(mf.fused_stats.ops, 4);
    let out = mf.mem.read_u32_slice(DATA2, 8);
    for (i, &o) in out.iter().enumerate() {
        assert_eq!(o, ((i as u32).wrapping_mul(0x9e37_79b9) >> 3) & 1);
    }
}

#[test]
fn mapvv_window_fuses_and_matches() {
    // build_elem_vv shape: vle a ; vle b ; vadd.vv a,a,b ; vse a.
    let p = Program::new(
        "vv",
        vec![
            Instr::Vsetvli {
                rd: x(5),
                rs1: x(10),
                vtype: VType::new(Sew::E64, Lmul::M2),
            },
            Instr::VLoad {
                eew: Sew::E64,
                vd: v(2),
                rs1: x(11),
                vm: true,
            },
            Instr::VLoad {
                eew: Sew::E64,
                vd: v(4),
                rs1: x(12),
                vm: true,
            },
            Instr::VOpVV {
                op: VAluOp::Mul,
                vd: v(2),
                vs2: v(2),
                vs1: v(4),
                vm: true,
            },
            Instr::VStore {
                eew: Sew::E64,
                vs3: v(2),
                rs1: x(13),
                vm: true,
            },
            Instr::Ecall,
        ],
    );
    let mf = three_way(&p, 1_000, |m| {
        m.set_xreg(x(10), 6);
        m.set_xreg(x(11), DATA);
        m.set_xreg(x(12), DATA + 0x100);
        m.set_xreg(x(13), DATA2);
        for i in 0..6u64 {
            m.mem.poke(DATA + i * 8, 8, i + 2).unwrap();
            m.mem.poke(DATA + 0x100 + i * 8, 8, i + 10).unwrap();
        }
    });
    assert_eq!(mf.fused_stats.windows, 1);
    assert_eq!(mf.fused_stats.ops, 4);
    for i in 0..6u64 {
        assert_eq!(mf.mem.peek(DATA2 + i * 8, 8).unwrap(), (i + 2) * (i + 10));
    }
}

#[test]
fn scan_step_ladder_fuses_and_matches() {
    // The paper's intra-register scan ladder: repeat (vmv fill ; vslideup ;
    // vop.vv) with doubling offsets — each triple is one ScanStep window.
    let mut instrs = vec![
        Instr::Vsetvli {
            rd: x(5),
            rs1: x(10),
            vtype: VType::new(Sew::E32, Lmul::M1),
        },
        Instr::VLoad {
            eew: Sew::E32,
            vd: v(1),
            rs1: x(11),
            vm: true,
        },
    ];
    for off in [1u8, 2, 4] {
        instrs.push(Instr::VMvVX {
            vd: v(2),
            rs1: x(0),
        });
        instrs.push(Instr::VSlideUpVI {
            vd: v(2),
            vs2: v(1),
            uimm: off,
            vm: true,
        });
        instrs.push(Instr::VOpVV {
            op: VAluOp::Add,
            vd: v(1),
            vs2: v(1),
            vs1: v(2),
            vm: true,
        });
    }
    instrs.push(Instr::VStore {
        eew: Sew::E32,
        vs3: v(1),
        rs1: x(12),
        vm: true,
    });
    instrs.push(Instr::Ecall);
    let p = Program::new("scan_ladder", instrs);
    let mf = three_way(&p, 1_000, |m| {
        m.set_xreg(x(10), 8);
        m.set_xreg(x(11), DATA);
        m.set_xreg(x(12), DATA2);
        m.mem.write_u32_slice(DATA, &[1, 2, 3, 4, 5, 6, 7, 8]);
    });
    assert_eq!(mf.fused_stats.windows, 3, "three scan-step triples");
    assert_eq!(mf.fused_stats.ops, 9);
    // An 8-lane +-scan of 1..=8 is the triangular numbers.
    assert_eq!(
        mf.mem.read_u32_slice(DATA2, 8),
        vec![1, 3, 6, 10, 15, 21, 28, 36]
    );
}

#[test]
fn scan_step_with_register_offset_and_vx_fill_fuses() {
    // Same ladder but with the vmv.v.x fill carrying a live value (segmented
    // scan identity) and the slide offset in a register, like the lowered
    // kernels use for VL-dependent offsets.
    let p = Program::new(
        "scan_vx",
        vec![
            Instr::Vsetvli {
                rd: x(5),
                rs1: x(10),
                vtype: VType::new(Sew::E16, Lmul::M2),
            },
            Instr::VLoad {
                eew: Sew::E16,
                vd: v(2),
                rs1: x(11),
                vm: true,
            },
            Instr::VMvVX {
                vd: v(6),
                rs1: x(14),
            },
            Instr::VSlideUpVX {
                vd: v(6),
                vs2: v(2),
                rs1: x(15),
                vm: true,
            },
            Instr::VOpVV {
                op: VAluOp::Max,
                vd: v(2),
                vs2: v(2),
                vs1: v(6),
                vm: true,
            },
            Instr::VStore {
                eew: Sew::E16,
                vs3: v(2),
                rs1: x(12),
                vm: true,
            },
            Instr::Ecall,
        ],
    );
    let mf = three_way(&p, 1_000, |m| {
        m.set_xreg(x(10), 12);
        m.set_xreg(x(11), DATA);
        m.set_xreg(x(12), DATA2);
        m.set_xreg(x(14), 5); // fill value
        m.set_xreg(x(15), 2); // slide offset
        for i in 0..12u64 {
            m.mem.poke(DATA + i * 2, 2, (i * 3) % 11).unwrap();
        }
    });
    assert!(mf.fused_stats.windows >= 1, "scan step did not fuse");
}

#[test]
fn whole_register_chain_fuses_and_matches() {
    // Spill/fill shape: two whole-register moves back to back.
    let p = Program::new(
        "whole",
        vec![
            Instr::VLoadWhole {
                nregs: 2,
                vd: v(2),
                rs1: x(11),
            },
            Instr::VStoreWhole {
                nregs: 2,
                vs3: v(2),
                rs1: x(12),
            },
            Instr::VLoadWhole {
                nregs: 4,
                vd: v(4),
                rs1: x(12),
            },
            Instr::Ecall,
        ],
    );
    let mf = three_way(&p, 1_000, |m| {
        m.set_xreg(x(11), DATA);
        m.set_xreg(x(12), DATA2);
        seed_u32(m, DATA, 64);
        seed_u32(m, DATA2, 64);
    });
    assert_eq!(mf.fused_stats.windows, 1);
    assert_eq!(mf.fused_stats.ops, 3);
}

#[test]
fn guard_trap_inside_window_matches_per_op_execution() {
    // A guard page in the middle of the store range: the bulk precheck must
    // decline (without mutating anything) and the per-op fallback must
    // reproduce the legacy trap exactly — same error, same partially
    // written state on all three engines.
    let p = map_strip_program(VAluOp::Add);
    let mf = three_way(&p, 10_000, |m| {
        m.set_xreg(x(10), 100);
        m.set_xreg(x(11), DATA);
        m.set_xreg(x(12), 1);
        seed_u32(m, DATA, 100);
        // 100 e32 elements span [DATA, DATA+400); guard the middle.
        m.mem.add_guard(DATA + 200..DATA + 204);
    });
    // 64-byte strips: strips 0–2 precede the guard and fuse; the strip
    // whose store range overlaps the guard must decline and trap per-op.
    assert_eq!(
        mf.fused_stats.windows, 3,
        "only the strips before the guarded range may fuse"
    );
}

#[test]
fn oob_base_inside_window_matches_per_op_execution() {
    let p = map_strip_program(VAluOp::Xor);
    let mf = three_way(&p, 10_000, |m| {
        m.set_xreg(x(10), 64);
        // Base so close to the top of memory that a later strip runs off
        // the end — the trap byte address must match legacy exactly.
        m.set_xreg(x(11), (1 << 16) - 100);
        m.set_xreg(x(12), 3);
    });
    assert!(
        mf.fused_stats.windows >= 1,
        "in-bounds strips before the trap should still fuse"
    );
}

#[test]
fn vill_window_falls_back_identically() {
    // No vsetvli: vtype is vill, the kernel-cache lookup fails, and the
    // per-op fallback raises the same trap as legacy.
    let p = Program::new(
        "vill",
        vec![
            Instr::VLoad {
                eew: Sew::E32,
                vd: v(4),
                rs1: x(11),
                vm: true,
            },
            Instr::VOpVX {
                op: VAluOp::Add,
                vd: v(4),
                vs2: v(4),
                rs1: x(12),
                vm: true,
            },
            Instr::VStore {
                eew: Sew::E32,
                vs3: v(4),
                rs1: x(11),
                vm: true,
            },
            Instr::Ecall,
        ],
    );
    let mf = three_way(&p, 100, |m| {
        m.set_xreg(x(11), DATA);
    });
    assert_eq!(mf.fused_stats.windows, 0);
}

#[test]
fn eew_mismatch_falls_back_identically() {
    // vtype says e32 but the loads are vle16: the monomorphized kernel's
    // EEW precondition fails and the ops run (and trap or succeed) per-op.
    let p = Program::new(
        "eew_mismatch",
        vec![
            Instr::Vsetvli {
                rd: x(5),
                rs1: x(10),
                vtype: VType::new(Sew::E32, Lmul::M1),
            },
            Instr::VLoad {
                eew: Sew::E16,
                vd: v(4),
                rs1: x(11),
                vm: true,
            },
            Instr::VOpVX {
                op: VAluOp::Add,
                vd: v(4),
                vs2: v(4),
                rs1: x(12),
                vm: true,
            },
            Instr::VStore {
                eew: Sew::E16,
                vs3: v(4),
                rs1: x(11),
                vm: true,
            },
            Instr::Ecall,
        ],
    );
    let mf = three_way(&p, 100, |m| {
        m.set_xreg(x(10), 4);
        m.set_xreg(x(11), DATA);
        m.set_xreg(x(12), 9);
        seed_u32(m, DATA, 8);
    });
    assert_eq!(mf.fused_stats.windows, 0);
}

#[test]
fn overlapping_slide_registers_fall_back() {
    // vslideup with vd == vs2 is an illegal overlap the per-op path traps
    // on; the scan-step matcher rejects it at detection or the kernel
    // declines — either way all engines agree.
    let p = Program::new(
        "overlap",
        vec![
            Instr::Vsetvli {
                rd: x(5),
                rs1: x(10),
                vtype: VType::new(Sew::E32, Lmul::M1),
            },
            Instr::VMvVX {
                vd: v(2),
                rs1: x(0),
            },
            Instr::VSlideUpVI {
                vd: v(2),
                vs2: v(2),
                uimm: 1,
                vm: true,
            },
            Instr::VOpVV {
                op: VAluOp::Add,
                vd: v(2),
                vs2: v(2),
                vs1: v(2),
                vm: true,
            },
            Instr::Ecall,
        ],
    );
    three_way(&p, 100, |m| {
        m.set_xreg(x(10), 4);
    });
}

#[test]
fn vl_zero_window_is_exact() {
    // AVL = 0: vl = 0, every window op is a no-op that must still retire
    // (and must not touch memory even when the base address is garbage).
    let p = map_strip_program(VAluOp::Add);
    // The strip loop with a0=0 never enters the body; use a straight-line
    // variant instead.
    let straight = Program::new(
        "vl0",
        p.instrs[..4] // vsetvli ; vle ; vadd ; vse
            .iter()
            .copied()
            .chain([Instr::Ecall])
            .collect::<Vec<_>>(),
    );
    let mf = three_way(&straight, 100, |m| {
        m.set_xreg(x(10), 0);
        m.set_xreg(x(11), u64::MAX - 3); // wild base: untouched at vl=0
        m.set_xreg(x(12), 7);
    });
    assert_eq!(mf.fused_stats.windows, 1, "vl=0 window still fuses");
}

#[test]
fn fuel_exhaustion_mid_window_is_exact() {
    // At every fuel value — including ones that land inside a window — the
    // three engines must agree on the error, the stop point, and all state.
    let p = map_strip_program(VAluOp::Add);
    let plan = CompiledPlan::compile(p.clone());
    for fuel in 0..40 {
        let seed = |m: &mut Machine| {
            m.set_xreg(x(10), 48);
            m.set_xreg(x(11), DATA);
            m.set_xreg(x(12), 5);
            seed_u32(m, DATA, 48);
        };
        let mut ml = machine();
        let mut mp = machine();
        let mut mf = machine();
        seed(&mut ml);
        seed(&mut mp);
        seed(&mut mf);
        let rl = ml.run_legacy(&p, fuel, 0, &mut ());
        let rp = mp.run_plan(&plan, fuel, 0, &mut ());
        let rf = mf.run_fused(&plan, fuel, 0, &mut ());
        assert_eq!(rp, rl, "plan vs legacy at fuel {fuel}");
        assert_eq!(rf, rl, "fused vs legacy at fuel {fuel}");
        assert_same_state(&mp, &ml);
        assert_same_state(&mf, &ml);
    }
}

/// Event recorder comparing full retire streams, including the memory
/// footprint the cost model consumes.
#[derive(Default)]
struct Rec(Vec<(u64, u64, String, u32, Option<rvv_isa::VType>, String)>);

impl TraceSink for Rec {
    fn retire(&mut self, e: &RetireEvent<'_>) {
        self.0.push((
            e.seq,
            e.pc,
            e.instr.to_string(),
            e.vl,
            e.vtype,
            format!("{:?}", e.mem),
        ));
    }
}

#[test]
fn fused_trace_stream_is_byte_identical_to_plan_and_legacy() {
    let p = map_strip_program(VAluOp::Add);
    let plan = CompiledPlan::compile(p.clone());
    let seed = |m: &mut Machine| {
        m.set_xreg(x(10), 40);
        m.set_xreg(x(11), DATA);
        m.set_xreg(x(12), 2);
        seed_u32(m, DATA, 40);
    };
    let mut ml = machine();
    let mut mp = machine();
    let mut mf = machine();
    seed(&mut ml);
    seed(&mut mp);
    seed(&mut mf);
    let mut tl = Rec::default();
    let mut tp = Rec::default();
    let mut tf = Rec::default();
    ml.run_legacy(&p, 10_000, 0, &mut tl).unwrap();
    mp.run_plan(&plan, 10_000, 0, &mut tp).unwrap();
    mf.run_fused(&plan, 10_000, 0, &mut tf).unwrap();
    assert!(mf.fused_stats.windows > 0, "traced run must fuse");
    assert_eq!(tp.0, tl.0, "plan vs legacy trace");
    assert_eq!(tf.0, tl.0, "fused vs legacy trace");
    assert_same_state(&mf, &ml);
}

#[test]
fn fused_resume_from_plan_snapshot_is_exact() {
    // Pause a plan-tier run mid-program via fuel, snapshot, restore into a
    // fresh machine, and finish on the fused tier: final state must match
    // an uninterrupted legacy run. (The core-level checkpoint tests cover
    // the full Session framing; this pins the sim-level contract.)
    let p = map_strip_program(VAluOp::Add);
    let plan = CompiledPlan::compile(p.clone());
    let seed = |m: &mut Machine| {
        m.set_xreg(x(10), 64);
        m.set_xreg(x(11), DATA);
        m.set_xreg(x(12), 3);
        seed_u32(m, DATA, 64);
    };
    let mut whole = machine();
    seed(&mut whole);
    whole.run_legacy(&p, 100_000, 0, &mut ()).unwrap();

    for pause_fuel in [1u64, 5, 11, 17] {
        let mut m1 = machine();
        seed(&mut m1);
        assert!(
            m1.run_plan(&plan, pause_fuel, 0, &mut ()).is_err(),
            "expect pause"
        );
        let snap = m1.snapshot();
        let mut m2 = machine();
        m2.restore(&snap);
        m2.run_fused(&plan, 100_000, m2.stop_pc(), &mut ()).unwrap();
        assert_same_state(&m2, &whole);
        // And the reverse hand-off: fused pause → plan resume.
        let mut m3 = machine();
        seed(&mut m3);
        assert!(
            m3.run_fused(&plan, pause_fuel, 0, &mut ()).is_err(),
            "expect pause"
        );
        let snap = m3.snapshot();
        let mut m4 = machine();
        m4.restore(&snap);
        m4.run_plan(&plan, 100_000, m4.stop_pc(), &mut ()).unwrap();
        assert_same_state(&m4, &whole);
    }
}

#[test]
fn fused_window_count_is_stable_for_kernel_shapes() {
    // The fusion table is a static property of the program; pin the counts
    // the coverage golden (crates/bench) relies on.
    let strip = CompiledPlan::compile(map_strip_program(VAluOp::Add));
    assert_eq!(strip.fused_window_count(), 1);
}
