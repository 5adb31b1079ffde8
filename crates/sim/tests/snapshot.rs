//! Checkpoint/resume at the machine level: snapshots capture the exact
//! architectural state, restore reproduces it bit for bit, and a run
//! paused by fuel exhaustion and resumed from `stop_pc` — on either
//! engine, any number of times — is indistinguishable from an
//! uninterrupted run (same outputs, same retired counts, same trap text).

use proptest::prelude::*;
use rvv_isa::{AluOp, Instr, Lmul, Sew, VAluOp, VReg, VType, XReg};
use rvv_sim::{
    CompiledPlan, Machine, MachineConfig, MachineSnapshot, Memory, Program, SimError, DEFAULT_FUEL,
    PAGE_BYTES,
};

fn machine() -> Machine {
    Machine::new(MachineConfig {
        vlen: 128,
        mem_bytes: 1 << 16,
    })
}

fn addi(rd: u8, rs1: u8, imm: i32) -> Instr {
    Instr::OpImm {
        op: AluOp::Add,
        rd: XReg::new(rd),
        rs1: XReg::new(rs1),
        imm,
    }
}

/// A program touching every snapshotted state component: scalar regs, two
/// vtype configurations, vector ALU state, and memory loads/stores.
fn vector_program() -> Program {
    Program::new(
        "snapshot-target",
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
            addi(11, 0, 64),
            Instr::Vsetvli {
                rd: XReg::ZERO,
                rs1: XReg::new(10),
                vtype: VType::new(Sew::E32, Lmul::M2),
            },
            Instr::VLoad {
                eew: Sew::E32,
                vd: VReg::new(4),
                rs1: XReg::new(11),
                vm: true,
            },
            Instr::VOpVI {
                op: VAluOp::Add,
                vd: VReg::new(4),
                vs2: VReg::new(4),
                imm: 7,
                vm: true,
            },
            addi(12, 0, 512),
            Instr::VStore {
                eew: Sew::E32,
                vs3: VReg::new(4),
                rs1: XReg::new(12),
                vm: true,
            },
            addi(13, 12, -8),
            Instr::Ecall,
        ],
    )
}

fn stage(m: &mut Machine) {
    m.mem.write_u32_slice(64, &[10, 20, 30, 40, 50, 60, 70, 80]);
}

/// Snapshot comparison modulo `stop_pc` (a resumed machine remembers its
/// last pause point; an uninterrupted one has none — everything
/// architectural must still agree).
fn assert_same_state(a: &Machine, b: &Machine) {
    let mut sa = a.snapshot();
    let mut sb = b.snapshot();
    sa.stop_pc = 0;
    sb.stop_pc = 0;
    assert_eq!(sa, sb);
}

#[test]
fn memory_snapshot_is_o_dirty_not_o_mem() {
    let mut m = Memory::new(64 << 20);
    m.poke(0, 8, 0x1122).unwrap();
    m.poke(40 << 20, 4, 7).unwrap();
    m.write_u32_slice(PAGE_BYTES * 3, &[1, 2, 3]);
    assert_eq!(m.dirty_pages(), 3);
    let snap = m.snapshot();
    assert_eq!(snap.pages.len(), 3, "snapshot copies only written pages");
    let copied: usize = snap.pages.iter().map(|(_, d)| d.len()).sum();
    assert!(copied <= 3 * PAGE_BYTES as usize);

    let mut fresh = Memory::new(64 << 20);
    fresh.restore(&snap);
    assert_eq!(fresh.peek(0, 8).unwrap(), 0x1122);
    assert_eq!(fresh.peek(40 << 20, 4).unwrap(), 7);
    assert_eq!(fresh.read_u32_slice(PAGE_BYTES * 3, 3), vec![1, 2, 3]);
}

#[test]
fn memory_restore_rezeroes_pages_written_after_the_snapshot() {
    let mut m = Memory::new(1 << 16);
    m.poke(100, 8, 0xaaaa).unwrap();
    let snap = m.snapshot();
    // Writes after the snapshot — including to a page the snapshot never
    // saw — must vanish on restore.
    m.poke(100, 8, 0xbbbb).unwrap();
    m.poke(3 * PAGE_BYTES + 5, 4, 0xcccc).unwrap();
    m.restore(&snap);
    assert_eq!(m.peek(100, 8).unwrap(), 0xaaaa);
    assert_eq!(m.peek(3 * PAGE_BYTES + 5, 4).unwrap(), 0);
    assert_eq!(m.snapshot(), snap, "restore reproduces the snapshot state");
}

#[test]
fn memory_restore_preserves_guard_regions_and_handles() {
    let mut m = Memory::new(1 << 16);
    let g0 = m.add_guard(512..640);
    m.remove_guard(g0);
    let g1 = m.add_guard(1024..1056);
    let snap = m.snapshot();
    m.clear_guards();
    m.restore(&snap);
    assert!(matches!(m.load(1024, 4), Err(SimError::GuardHit { .. })));
    assert!(m.load(512, 4).is_ok(), "disarmed guard stays disarmed");
    m.remove_guard(g1);
    assert!(m.load(1024, 4).is_ok(), "guard handles survive restore");
}

#[test]
fn machine_snapshot_serialization_round_trips_and_rejects_corruption() {
    let mut m = machine();
    stage(&mut m);
    let plan = CompiledPlan::compile(vector_program());
    assert!(matches!(
        m.run_plan(&plan, 5, 0, &mut ()),
        Err(SimError::FuelExhausted { fuel: 5 })
    ));
    let snap = m.snapshot();
    let bytes = snap.to_bytes();
    assert_eq!(MachineSnapshot::from_bytes(&bytes).unwrap(), snap);

    // Any single corrupt byte is detected, never silently restored.
    for i in (0..bytes.len()).step_by(7) {
        let mut bad = bytes.clone();
        bad[i] ^= 0x40;
        assert!(MachineSnapshot::from_bytes(&bad).is_err(), "byte {i}");
    }
    assert!(MachineSnapshot::from_bytes(&bytes[..bytes.len() - 1]).is_err());
}

#[test]
fn pause_restore_resume_matches_uninterrupted_at_every_fuel_on_both_engines() {
    let program = vector_program();
    let plan = CompiledPlan::compile(program.clone());

    let mut reference = machine();
    stage(&mut reference);
    let full = reference.run_plan(&plan, DEFAULT_FUEL, 0, &mut ()).unwrap();

    for legacy in [false, true] {
        for k in 1..full.retired {
            let mut m = machine();
            stage(&mut m);
            let paused = if legacy {
                m.run_legacy(&program, k, 0, &mut ())
            } else {
                m.run_plan(&plan, k, 0, &mut ())
            };
            assert!(
                matches!(paused, Err(SimError::FuelExhausted { .. })),
                "legacy={legacy} k={k}"
            );
            let snap = m.snapshot();

            // Restore into a *fresh* machine and continue from stop_pc.
            let mut resumed = machine();
            resumed.restore(&snap);
            assert_eq!(resumed.stop_pc(), snap.stop_pc);
            let rest = if legacy {
                resumed.run_legacy(&program, DEFAULT_FUEL, resumed.stop_pc(), &mut ())
            } else {
                resumed.run_plan(&plan, DEFAULT_FUEL, resumed.stop_pc(), &mut ())
            }
            .unwrap_or_else(|e| panic!("legacy={legacy} k={k}: resume trapped: {e}"));

            assert_eq!(k + rest.retired, full.retired, "legacy={legacy} k={k}");
            assert_eq!(rest.halt_pc, full.halt_pc, "legacy={legacy} k={k}");
            assert_same_state(&resumed, &reference);
        }
    }
}

#[test]
fn double_interruption_still_matches() {
    let program = vector_program();
    let plan = CompiledPlan::compile(program.clone());
    let mut reference = machine();
    stage(&mut reference);
    let full = reference.run_plan(&plan, DEFAULT_FUEL, 0, &mut ()).unwrap();

    let mut m = machine();
    stage(&mut m);
    assert!(m.run_plan(&plan, 3, 0, &mut ()).is_err());
    let first = m.snapshot();

    let mut m2 = machine();
    m2.restore(&first);
    assert!(m2.run_plan(&plan, 4, m2.stop_pc(), &mut ()).is_err());
    let second = m2.snapshot();

    let mut m3 = machine();
    m3.restore(&second);
    let rest = m3
        .run_plan(&plan, DEFAULT_FUEL, m3.stop_pc(), &mut ())
        .unwrap();
    assert_eq!(3 + 4 + rest.retired, full.retired);
    assert_same_state(&m3, &reference);
}

#[test]
fn pause_on_a_pending_bad_jump_reproduces_the_trap_text() {
    // jalr to a misaligned target: the jump retires, then the *next*
    // iteration traps. Pausing exactly between the two must reproduce the
    // identical BadControlFlow on resume.
    let p = Program::new(
        "misaligned",
        vec![Instr::Jalr {
            rd: XReg::ZERO,
            rs1: XReg::ZERO,
            offset: 6,
        }],
    );
    let plan = CompiledPlan::compile(p.clone());

    let mut uninterrupted = machine();
    let want = uninterrupted.run_plan(&plan, 100, 0, &mut ()).unwrap_err();

    for legacy in [false, true] {
        let mut m = machine();
        let paused = if legacy {
            m.run_legacy(&p, 1, 0, &mut ())
        } else {
            m.run_plan(&plan, 1, 0, &mut ())
        };
        assert!(matches!(paused, Err(SimError::FuelExhausted { .. })));
        let snap = m.snapshot();
        let mut r = machine();
        r.restore(&snap);
        let got = if legacy {
            r.run_legacy(&p, 100, r.stop_pc(), &mut ())
        } else {
            r.run_plan(&plan, 100, r.stop_pc(), &mut ())
        }
        .unwrap_err();
        assert_eq!(got, want, "legacy={legacy}");
        assert_eq!(got.to_string(), want.to_string(), "legacy={legacy}");
    }
}

proptest! {
    /// Arbitrary machine state survives snapshot → serialize →
    /// deserialize → restore with nothing lost.
    #[test]
    fn arbitrary_state_round_trips_through_bytes(
        xregs in proptest::collection::vec(any::<u64>(), 31),
        velems in proptest::collection::vec((0u8..32, 0u32..4, any::<u64>()), 0..16),
        pokes in proptest::collection::vec((0u64..65000, any::<u64>()), 0..16),
        vl in 0u32..5,
        stop_pc in any::<u64>(),
    ) {
        let mut m = machine();
        for (i, v) in xregs.iter().enumerate() {
            m.set_xreg(XReg::new(i as u8 + 1), *v);
        }
        for (r, i, v) in &velems {
            m.set_velem(VReg::new(*r), *i, Sew::E32, *v);
        }
        for (addr, v) in &pokes {
            m.mem.poke(*addr, 8, *v).unwrap();
        }
        // Set vl/vtype through a real vsetvli so the state is reachable.
        let p = Program::new("cfg", vec![
            Instr::Vsetvli {
                rd: XReg::ZERO,
                rs1: XReg::new(10),
                vtype: VType::new(Sew::E32, Lmul::M1),
            },
            Instr::Ecall,
        ]);
        let save_x10 = m.xreg(XReg::new(10));
        m.set_xreg(XReg::new(10), u64::from(vl));
        m.run_legacy(&p, 10, 0, &mut ()).unwrap();
        m.set_xreg(XReg::new(10), save_x10);
        let _ = stop_pc; // stop_pc is run-loop-owned; exercised elsewhere

        let snap = m.snapshot();
        let decoded = MachineSnapshot::from_bytes(&snap.to_bytes()).unwrap();
        prop_assert_eq!(&decoded, &snap);

        let mut fresh = machine();
        fresh.restore(&decoded);
        prop_assert_eq!(fresh.snapshot(), snap);
    }
}
