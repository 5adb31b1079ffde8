//! Cycle counts derived by hand from each preset's parameters, for three
//! tiny programs run on the simulator with a [`CycleEstimator`] attached.
//! The other cost tests check the model against itself (merge algebra,
//! tier parity, monotonicity); these pin what the timeline must produce,
//! so a changed parameter or a changed rule in `estimate.rs` shows up as a
//! number that no longer matches its derivation.
//!
//! The rules, from `CycleEstimator::observe`: each instruction takes one
//! issue slot (`issue_width` per cycle) and issues at the current
//! front-end cycle `t`. A scalar or `vsetvli` instruction only occupies
//! its slot. A vector compute op starts at `s = max(t, ready)` and ends at
//! `s + lat - 1 + ceil(vl * elem_cost / lanes)`; its results chain from
//! `ready = s + lat - 1`. A vector memory op has `lat = class_latency +
//! mem.latency - 1`, also waits for the port (`s = max(t, ready, port)`),
//! and ends at `s + lat - 1 + beats + spill`, where `beats = ceil(bytes /
//! port_bytes)`, or `vl * index_elem_cycles` for an indexed access when
//! that is more, and `spill` is `spill_penalty` for a stack address. The
//! total is the latest of the front end, the vector unit and the port.
//!
//! The parameters used (vector-cfg latency is 1 and scalar latencies are
//! 1 in all three):
//!
//! | preset | issue | lanes | v-alu lat | v-mem lat | mem.latency | port bytes | index cyc/elem | spill |
//! |---|---|---|---|---|---|---|---|---|
//! | unit | 1 | u32::MAX | 1 | 1 | 1 | u64::MAX | 0 | 0 |
//! | ara-like | 1 | 4 | 4 | 3 | 12 | 32 | 4 | 24 |
//! | vitruvius-like | 2 | 8 | 6 | 4 | 30 | 64 | 8 | 40 |
//!
//! `v-alu` costs one beat per element per lane in both non-unit presets.
//! Every program runs at VLEN = 1024 and ends in an `ecall`, which retires
//! as one scalar-control instruction.

use rvv_cost::{CostModel, CycleEstimator};
use rvv_isa::{Instr, Lmul, Sew, VAluOp, VReg, VType, XReg};
use rvv_sim::{Machine, MachineConfig};

const A0: XReg = XReg::new(10);
const A1: XReg = XReg::new(11);
const T0: XReg = XReg::new(5);
/// The data the programs load and store, outside the stack region.
const DATA: u64 = 0x1000;
/// The stack slot the spill pair goes through, and the stack region.
const SLOT: u64 = 0x8000;
const STACK: std::ops::Range<u64> = 0x8000..0x9000;

fn vsetvli(lmul: Lmul) -> Instr {
    Instr::Vsetvli {
        rd: T0,
        rs1: A0,
        vtype: VType::new(Sew::E32, lmul),
    }
}

/// Run `instrs` with `a0 = avl`, `a1 = DATA` and `sp = SLOT` under each
/// preset; returns the cycle totals in `CostModel::PRESETS` order.
fn cycles(avl: u64, instrs: Vec<Instr>) -> [u64; 3] {
    let program = rvv_sim::Program::new("hand-derived", instrs);
    CostModel::PRESETS.map(|preset| {
        let mut machine = Machine::new(MachineConfig::paper_default());
        machine.set_xreg(A0, avl);
        machine.set_xreg(A1, DATA);
        machine.set_xreg(XReg::SP, SLOT);
        let model = CostModel::preset(preset).expect("a preset");
        let mut estimator = CycleEstimator::new(model, STACK);
        let report = machine.run_legacy(&program, 100, 0, &mut estimator);
        report.unwrap_or_else(|e| panic!("{preset}: {e}"));
        estimator.counters().total()
    })
}

/// `vsetvli` (vl = 32, m1), `vle32.v`, `vadd.vv`, `vse32.v`: 128 bytes
/// each way.
///
/// * unit: every instruction costs one cycle, so the total is the 5
///   retired instructions.
/// * ara-like: `vsetvli` at t = 0. `vle32` at t = 1: lat = 3 + 12 - 1 =
///   14, beats = 128 / 32 = 4, so it ends at 1 + 13 + 4 = 18 and chains
///   from 14. `vadd` at t = 2 starts at 14 and ends at 14 + 3 + 32 / 4 =
///   25, chaining from 17. `vse32` at t = 3 waits for the port until 18
///   and ends at 18 + 13 + 4 = 35. `ecall` at t = 4. Total 35.
/// * vitruvius-like: two issue slots a cycle, so `vsetvli` and `vle32`
///   issue at t = 0, `vadd` and `vse32` at t = 1, `ecall` at t = 2.
///   `vle32`: lat = 4 + 30 - 1 = 33, beats = 128 / 64 = 2, so it ends at
///   0 + 32 + 2 = 34 and chains from 32. `vadd` starts at 32 and ends at
///   32 + 5 + 32 / 8 = 41, chaining from 37. `vse32` starts at
///   max(1, 37, 34) = 37 and ends at 37 + 32 + 2 = 71. Total 71.
#[test]
fn one_strip_of_load_add_store() {
    let v8 = VReg::new(8);
    let program = vec![
        vsetvli(Lmul::M1),
        Instr::VLoad {
            eew: Sew::E32,
            vd: v8,
            rs1: A1,
            vm: true,
        },
        Instr::VOpVV {
            op: VAluOp::Add,
            vd: v8,
            vs2: v8,
            vs1: v8,
            vm: true,
        },
        Instr::VStore {
            eew: Sew::E32,
            vs3: v8,
            rs1: A1,
            vm: true,
        },
        Instr::Ecall,
    ];
    assert_eq!(cycles(32, program), [5, 35, 71]);
}

/// `vsetvli` (vl = 256, m8), then `vs8r.v` and `vl8re8.v` of the group
/// v8–v15 through a stack slot: 8 × 128 = 1024 bytes each way, each
/// charged the spill penalty.
///
/// * unit: 4 retired instructions, 4 cycles.
/// * ara-like: `vs8r` at t = 1: lat 14, beats = 1024 / 32 = 32, spill 24,
///   so it ends at 1 + 13 + 32 + 24 = 70. `vl8re8` at t = 2 waits for the
///   port until 70 and ends at 70 + 13 + 32 + 24 = 139. `ecall` at t = 3.
///   Total 139.
/// * vitruvius-like: `vs8r` issues at t = 0 with `vsetvli`: lat 33,
///   beats = 1024 / 64 = 16, spill 40, so it ends at 0 + 32 + 16 + 40 =
///   88. `vl8re8` at t = 1 waits until 88 and ends at 88 + 32 + 16 + 40 =
///   176. Total 176.
#[test]
fn a_spill_and_reload_pair_at_m8() {
    let v8 = VReg::new(8);
    let program = vec![
        vsetvli(Lmul::M8),
        Instr::VStoreWhole {
            nregs: 8,
            vs3: v8,
            rs1: XReg::SP,
        },
        Instr::VLoadWhole {
            nregs: 8,
            vd: v8,
            rs1: XReg::SP,
        },
        Instr::Ecall,
    ];
    assert_eq!(cycles(256, program), [4, 139, 176]);
}

/// `vsetvli` (vl = 32, m1), then `vsuxei32.v` of 32 elements (indices
/// all 0, so every element goes to `DATA`): an indexed store costs its
/// per-element address generation, not its 128-byte burst.
///
/// * unit: 3 retired instructions, 3 cycles.
/// * ara-like: the store issues at t = 1 with lat 14 and beats =
///   max(128 / 32, 32 × 4) = 128, so it ends at 1 + 13 + 128 = 142.
///   Total 142.
/// * vitruvius-like: it issues at t = 0 with lat 33 and beats =
///   max(128 / 64, 32 × 8) = 256, so it ends at 0 + 32 + 256 = 288.
///   Total 288.
#[test]
fn one_indexed_store() {
    let program = vec![
        vsetvli(Lmul::M1),
        Instr::VStoreIndexed {
            eew: Sew::E32,
            ordered: false,
            vs3: VReg::new(8),
            rs1: A1,
            vs2: VReg::new(16),
            vm: true,
        },
        Instr::Ecall,
    ];
    assert_eq!(cycles(32, program), [3, 142, 288]);
}
