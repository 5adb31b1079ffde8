//! Robustness fuzz: the simulator must never panic, whatever instructions
//! it executes — traps must surface as typed `SimError`s.
//!
//! Instruction soup is produced by *decoding random 32-bit words*: anything
//! `rvv_isa::decode` accepts is by construction a well-formed instruction
//! of the modelled subset, so this sweeps the whole decode→execute surface
//! (including misaligned groups, vill configurations, wild memory
//! addresses, and overlap constraints) without hand-writing generators.

use proptest::prelude::*;
use rvv_isa::{decode, Instr, InstrClass, Sew, VReg, VType, XReg};
use rvv_sim::{
    CompiledPlan, FaultAction, FaultHook, HookSet, Machine, MachineConfig, MemAccess, Program,
    RetireEvent, RunReport, SimResult, TraceSink,
};

fn soup(words: &[u32]) -> Vec<Instr> {
    words.iter().filter_map(|&w| decode(w).ok()).collect()
}

/// A unit-stride `vle`/`vse` built from the bits of `r`: EEW, register,
/// mask flag and direction, with its base in one of `a1`–`a7`.
fn unit_stride_op(r: u32) -> Instr {
    let eew = [Sew::E8, Sew::E16, Sew::E32, Sew::E64][(r & 3) as usize];
    let v = VReg::new((r >> 2 & 31) as u8);
    let rs1 = XReg::arg(1 + (r >> 7 & 0xff) as u8 % 7);
    let vm = r >> 10 & 1 == 1;
    if r >> 11 & 1 == 1 {
        Instr::VStore {
            eew,
            vs3: v,
            rs1,
            vm,
        }
    } else {
        Instr::VLoad {
            eew,
            vd: v,
            rs1,
            vm,
        }
    }
}

/// Assert two machines are architecturally indistinguishable: registers,
/// vector state, configuration, counters, every byte of memory, and the
/// memory snapshot (dirty pages and guards).
fn assert_same_state(plan: &Machine, legacy: &Machine) {
    for i in 0..32 {
        assert_eq!(
            plan.xreg(XReg::new(i)),
            legacy.xreg(XReg::new(i)),
            "x{i} diverged"
        );
    }
    for v in 0..32 {
        assert_eq!(
            plan.vreg_bytes(VReg::new(v)),
            legacy.vreg_bytes(VReg::new(v)),
            "v{v} diverged"
        );
    }
    assert_eq!(plan.vl(), legacy.vl(), "vl diverged");
    assert_eq!(plan.vtype(), legacy.vtype(), "vtype diverged");
    assert_eq!(plan.counters, legacy.counters, "counters diverged");
    let size = plan.mem.size();
    assert_eq!(size, legacy.mem.size());
    // Host-side reads: a guard armed over the memory must not trap them.
    let words = (size / 8) as usize;
    assert_eq!(
        plan.mem.read_u64_slice(0, words),
        legacy.mem.read_u64_slice(0, words),
        "memory diverged"
    );
    assert_eq!(
        plan.mem.snapshot(),
        legacy.mem.snapshot(),
        "memory snapshot diverged"
    );
}

/// One retire event, owned so streams from different tiers can be
/// compared: pc, instruction, class, vl, vtype, footprint, seq.
type Event = (
    u64,
    Instr,
    InstrClass,
    u32,
    Option<VType>,
    Option<MemAccess>,
    u64,
);

/// A sink that records every launch and retire event.
#[derive(Default)]
struct Recorder {
    launches: usize,
    events: Vec<Event>,
}

impl TraceSink for Recorder {
    fn retire(&mut self, e: &RetireEvent<'_>) {
        let instr = *e.instr;
        let event = (e.pc, instr, e.class, e.vl, e.vtype, e.mem, e.seq);
        self.events.push(event);
    }
    fn launch(&mut self, _: &Program) {
        self.launches += 1;
    }
}

/// A fault hook that always passes and records what it was shown.
#[derive(Default)]
struct CountingPass {
    calls: Vec<(u64, Instr, Option<MemAccess>)>,
}

impl FaultHook for CountingPass {
    fn before(&mut self, pc: u64, instr: &Instr, mem: Option<&MemAccess>) -> FaultAction {
        self.calls.push((pc, *instr, mem.copied()));
        FaultAction::Pass
    }
}

/// The hooks a differential run executes under.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Hooks {
    None,
    Trace,
    Fault,
}

const HOOKS: [Hooks; 3] = [Hooks::None, Hooks::Trace, Hooks::Fault];

/// What one tier's run produced: the result, the machine it ran on, and
/// what its hooks observed.
struct Outcome {
    result: SimResult<RunReport>,
    machine: Machine,
    sink: Recorder,
    fault: CountingPass,
}

/// Run `p` on one tier (0 = plan, 1 = legacy, 2 = fused) under `hooks`.
fn run_tier(
    mut m: Machine,
    p: &Program,
    plan: &CompiledPlan,
    tier: usize,
    hooks: Hooks,
) -> Outcome {
    const FUEL: u64 = 50_000;
    let (mut sink, mut fault) = (Recorder::default(), CountingPass::default());
    let result = match (tier, hooks) {
        (0, Hooks::None) => m.run_plan(plan, FUEL, 0, &mut ()),
        (1, Hooks::None) => m.run_legacy(p, FUEL, 0, &mut ()),
        (_, Hooks::None) => m.run_fused(plan, FUEL, 0, &mut ()),
        (0, Hooks::Trace) => m.run_plan(plan, FUEL, 0, &mut sink),
        (1, Hooks::Trace) => m.run_legacy(p, FUEL, 0, &mut sink),
        (_, Hooks::Trace) => m.run_fused(plan, FUEL, 0, &mut sink),
        (0, Hooks::Fault) => m.run_plan(plan, FUEL, 0, &mut HookSet::fault(&mut fault)),
        (1, Hooks::Fault) => m.run_legacy(p, FUEL, 0, &mut HookSet::fault(&mut fault)),
        (_, Hooks::Fault) => m.run_fused(plan, FUEL, 0, &mut HookSet::fault(&mut fault)),
    };
    Outcome {
        result,
        machine: m,
        sink,
        fault,
    }
}

/// Run `p` on all three tiers from the same starting machine under
/// `hooks` and assert they are indistinguishable: same result, same final
/// state, same hook observations — and no fused window under a fault hook,
/// which must see every instruction boundary.
fn assert_tiers_agree(start: &Machine, p: &Program, hooks: Hooks) -> Result<(), TestCaseError> {
    let plan = CompiledPlan::compile(p.clone());
    let runs: Vec<Outcome> = (0..3)
        .map(|tier| run_tier(start.clone(), p, &plan, tier, hooks))
        .collect();
    let legacy = &runs[1];
    for other in [&runs[0], &runs[2]] {
        prop_assert_eq!(&other.result, &legacy.result);
        assert_same_state(&other.machine, &legacy.machine);
        prop_assert_eq!(other.sink.launches, legacy.sink.launches);
        prop_assert_eq!(&other.sink.events, &legacy.sink.events);
        prop_assert_eq!(&other.fault.calls, &legacy.fault.calls);
    }
    prop_assert_eq!(legacy.sink.launches, usize::from(hooks == Hooks::Trace));
    if hooks != Hooks::Trace {
        prop_assert!(legacy.sink.events.is_empty());
    }
    if hooks != Hooks::Fault {
        prop_assert!(legacy.fault.calls.is_empty());
    } else {
        prop_assert_eq!(runs[2].machine.fused_stats.windows, 0);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn decoded_soup_never_panics(
        words in prop::collection::vec(any::<u32>(), 0..200),
        vlen_shift in 7u32..11, // 128..1024
        seed_regs in prop::collection::vec(any::<u64>(), 8),
    ) {
        let mut m = Machine::new(MachineConfig {
            vlen: 1 << vlen_shift,
            mem_bytes: 1 << 16,
        });
        // Point the argument registers somewhere interesting (mostly in
        // bounds) so loads/stores sometimes succeed.
        for (i, &s) in seed_regs.iter().enumerate() {
            m.set_xreg(rvv_isa::XReg::arg(i as u8), s % (1 << 16));
        }
        let mut instrs = soup(&words);
        instrs.push(Instr::Ecall); // give straight-line runs a clean exit
        let p = Program::new("soup", instrs);
        // Traps are fine; panics are not. Fuel bounds runaway loops.
        let _ = m.run(&p, 50_000);
    }

    #[test]
    fn soup_with_vector_config_first(
        words in prop::collection::vec(any::<u32>(), 0..200),
        avl in 1u64..64,
    ) {
        // Prime a legal vtype so vector instructions actually execute
        // instead of tripping on vill immediately.
        let mut m = Machine::new(MachineConfig { vlen: 256, mem_bytes: 1 << 16 });
        m.set_xreg(rvv_isa::XReg::new(10), avl);
        let mut instrs = vec![Instr::Vsetvli {
            rd: rvv_isa::XReg::ZERO,
            rs1: rvv_isa::XReg::new(10),
            vtype: rvv_isa::VType::new(rvv_isa::Sew::E32, rvv_isa::Lmul::M2),
        }];
        instrs.extend(soup(&words));
        instrs.push(Instr::Ecall);
        let p = Program::new("vsoup", instrs);
        let _ = m.run(&p, 50_000);
        // The machine stays usable after any trap.
        let ok = Program::new("ok", vec![Instr::Ecall]);
        prop_assert!(m.run(&ok, 10).is_ok());
    }

    /// Three-engine differential: the plan engine *and* the fused engine
    /// must be architecturally indistinguishable from the legacy
    /// single-step interpreter on arbitrary decoded soup — same result
    /// (report or trap, including trap byte addresses), same final
    /// registers, vector state, counters, and memory — with no hooks, a
    /// trace sink, or a pass-through fault hook attached, and the hooks
    /// must observe the same stream on every tier.
    #[test]
    fn plan_and_fused_match_legacy_on_soup(
        words in prop::collection::vec(any::<u32>(), 0..200),
        vlen_shift in 7u32..11,
        seed_regs in prop::collection::vec(any::<u64>(), 8),
        hook_pick in 0usize..3,
    ) {
        let cfg = MachineConfig {
            vlen: 1 << vlen_shift,
            mem_bytes: 1 << 16,
        };
        let mut instrs = soup(&words);
        instrs.push(Instr::Ecall);
        let p = Program::new("soup", instrs);
        let mut m = Machine::new(cfg);
        for (i, &s) in seed_regs.iter().enumerate() {
            m.set_xreg(XReg::arg(i as u8), s % (1 << 16));
        }
        assert_tiers_agree(&m, &p, HOOKS[hook_pick])?;
    }

    /// Differential soup with a legal vtype primed first, so the vector
    /// kernels (the SEW-specialized fast paths, their bulk paths and the
    /// fused windows) actually execute. `a1`–`a7` point into memory, up to
    /// its last byte, `v0` holds seeded mask bits, and an optional guard
    /// sits a little above one of the bases. Random words decode to a
    /// unit-stride load or store about once in 13,000 instructions, so a
    /// few are spliced in; they run into the end of memory and into
    /// guards, with active and inactive elements alike.
    #[test]
    fn plan_and_fused_match_legacy_on_vector_soup(
        words in prop::collection::vec(any::<u32>(), 0..200),
        avl in 1u64..64,
        sew_pick in 0u8..4,
        lmul_pick in 0u8..4,
        hook_pick in 0usize..3,
        seed_regs in prop::collection::vec(any::<u64>(), 7),
        guard in (0usize..14, 0u64..256, 1u64..64),
        unit_stride in prop::collection::vec(any::<u32>(), 0..8),
    ) {
        let cfg = MachineConfig { vlen: 256, mem_bytes: 1 << 16 };
        let sew = [rvv_isa::Sew::E8, rvv_isa::Sew::E16, rvv_isa::Sew::E32, rvv_isa::Sew::E64][sew_pick as usize];
        let lmul = [rvv_isa::Lmul::M1, rvv_isa::Lmul::M2, rvv_isa::Lmul::M4, rvv_isa::Lmul::M8][lmul_pick as usize];
        let mut instrs = vec![Instr::Vsetvli {
            rd: XReg::ZERO,
            rs1: XReg::new(10),
            vtype: rvv_isa::VType::new(sew, lmul),
        }];
        instrs.extend(soup(&words));
        for r in unit_stride {
            instrs.insert(1 + (r >> 12) as usize % instrs.len(), unit_stride_op(r));
        }
        instrs.push(Instr::Ecall);
        let p = Program::new("vsoup", instrs);
        let mut m = Machine::new(cfg);
        m.set_xreg(XReg::new(10), avl);
        for (i, &s) in seed_regs.iter().enumerate() {
            m.set_xreg(XReg::arg(i as u8 + 1), s % (1 << 16));
        }
        let mask: Vec<u8> = seed_regs[..4].iter().flat_map(|s| s.to_le_bytes()).collect();
        m.set_vreg_bytes(VReg::V0, &mask);
        // Half the cases arm a guard `above` bytes past the base in
        // `a<reg + 1>`.
        let (reg, above, len) = guard;
        if let Some(&s) = seed_regs.get(reg) {
            let start = s % (1 << 16) + above;
            m.mem.add_guard(start..start + len);
        }
        assert_tiers_agree(&m, &p, HOOKS[hook_pick])?;
    }
}
