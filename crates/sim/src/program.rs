//! Programs and the run loop.
//!
//! A [`Program`] is a flat sequence of instructions; the program counter is
//! a byte address (`index × 4`) so that branch offsets behave exactly like
//! the binary encoding. Instructions live outside simulated data memory
//! (a Harvard-style split): the paper's experiments never use self-modifying
//! code, and the split keeps kernels from trampling their own text.

use crate::error::{SimError, SimResult};
use crate::exec::Control;
use crate::fault::FaultAction;
use crate::hooks::RunHooks;
use crate::machine::Machine;
use rvv_isa::{encode, Instr, InstrClass};
use std::fmt;

/// Default fuel for [`Machine::run`]: generous enough for the paper's
/// largest experiment (N = 10⁶ split radix sort ≈ 2×10⁸ instructions) with
/// an order of magnitude to spare.
pub const DEFAULT_FUEL: u64 = 4_000_000_000;

/// An executable program.
#[derive(Debug, Clone)]
pub struct Program {
    /// A label for traces and error messages.
    pub name: String,
    /// The instructions; instruction `i` sits at byte address `4·i`.
    pub instrs: Vec<Instr>,
    /// Symbol marks: `(byte address, label)` pairs sorted by address, used
    /// by profilers to attribute PCs to regions of the generated code
    /// (strip loop, spill prologue, …). Purely advisory — execution ignores
    /// them.
    pub marks: Vec<(u64, String)>,
}

impl Program {
    /// Wrap an instruction sequence.
    pub fn new(name: impl Into<String>, instrs: Vec<Instr>) -> Program {
        Program {
            name: name.into(),
            instrs,
            marks: Vec::new(),
        }
    }

    /// Attach a symbol mark at byte address `pc`. Marks must be added in
    /// ascending address order (debug-asserted) so lookups can bisect.
    pub fn add_mark(&mut self, pc: u64, label: impl Into<String>) {
        debug_assert!(
            self.marks.last().is_none_or(|(p, _)| *p <= pc),
            "marks must be added in ascending PC order"
        );
        self.marks.push((pc, label.into()));
    }

    /// The innermost mark covering `pc`: the last mark at or before it.
    pub fn symbol_for(&self, pc: u64) -> Option<&str> {
        let i = self.marks.partition_point(|(p, _)| *p <= pc);
        i.checked_sub(1).map(|i| self.marks[i].1.as_str())
    }

    /// Length in instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Is the program empty?
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Assemble to machine code: the true 32-bit little-endian encodings.
    /// The simulator executes the typed form, but this is byte-for-byte what
    /// a real RV64GCV target would fetch, and tests decode it back.
    pub fn assemble(&self) -> Result<Vec<u8>, rvv_isa::EncodeError> {
        let mut out = Vec::with_capacity(self.instrs.len() * 4);
        for i in &self.instrs {
            out.extend_from_slice(&encode(i)?.to_le_bytes());
        }
        Ok(out)
    }

    /// Load a program from raw RISC-V machine code (32-bit little-endian
    /// words) — the inverse of [`Program::assemble`], and what the
    /// `sim-run` CLI feeds the simulator.
    ///
    /// # Errors
    /// Reports the word index and decode failure for the first instruction
    /// outside the modelled subset; trailing bytes that do not form a whole
    /// word are rejected.
    pub fn from_machine_code(name: impl Into<String>, bytes: &[u8]) -> Result<Program, String> {
        if !bytes.len().is_multiple_of(4) {
            return Err(format!(
                "{} bytes is not a whole number of instructions",
                bytes.len()
            ));
        }
        let mut instrs = Vec::with_capacity(bytes.len() / 4);
        for (i, chunk) in bytes.chunks_exact(4).enumerate() {
            let w = u32::from_le_bytes(chunk.try_into().expect("chunk of 4"));
            let instr = rvv_isa::decode(w)
                .map_err(|e| format!("instruction {i} (byte offset {:#x}): {e}", i * 4))?;
            instrs.push(instr);
        }
        Ok(Program::new(name, instrs))
    }
}

impl fmt::Display for Program {
    /// Disassembly listing.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}:", self.name)?;
        let mut next_mark = 0;
        for (i, instr) in self.instrs.iter().enumerate() {
            while next_mark < self.marks.len() && self.marks[next_mark].0 <= (i * 4) as u64 {
                writeln!(f, "<{}>:", self.marks[next_mark].1)?;
                next_mark += 1;
            }
            writeln!(f, "{:6x}:  {instr}", i * 4)?;
        }
        Ok(())
    }
}

/// Outcome of a completed run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// Dynamic instructions retired by this run (not cumulative machine
    /// counters).
    pub retired: u64,
    /// PC of the halting `ecall`.
    pub halt_pc: u64,
}

impl Machine {
    /// Run `program` from its first instruction until `ecall`, a trap, or
    /// `fuel` retired instructions.
    ///
    /// This compiles the program to a [`crate::CompiledPlan`] and drives it
    /// on the plan tier with no hooks ([`Machine::run_plan`]). Callers that
    /// run the same program repeatedly should compile once and call
    /// `run_plan` directly to amortise the decode cost.
    pub fn run(&mut self, program: &Program, fuel: u64) -> SimResult<RunReport> {
        let plan = crate::plan::CompiledPlan::compile(program.clone());
        self.run_plan(&plan, fuel, 0, &mut ())
    }

    /// The reference interpreter: decode-classify-dispatch every step, no
    /// pre-compiled plan. Kept as the semantic baseline — the differential
    /// tests assert that [`Machine::run_plan`] is architecturally
    /// indistinguishable from this loop, and the host-throughput harness
    /// measures both in one process.
    ///
    /// Runs from byte address `start_pc` until `ecall`, a trap, or `fuel`
    /// retired instructions, under `hooks` (`&mut ()` for none; see
    /// [`RunHooks`]). `start_pc` is 0 for a fresh launch. A run that paused
    /// with [`SimError::FuelExhausted`] records the pause point in
    /// [`Machine::stop_pc`]; continuing from it with fresh fuel retires
    /// exactly the instructions an uninterrupted run would have, including
    /// reproducing a pending bad-jump trap if the pause landed on one.
    ///
    /// A retire event is assembled *before* its instruction executes — so
    /// memory footprints see the pre-execution base registers — and
    /// delivered *after* it retires; a trapping instruction is neither
    /// counted nor reported.
    // Out of line for the reason given at `Machine::run_plan`.
    #[inline(never)]
    pub fn run_legacy<H: RunHooks + ?Sized>(
        &mut self,
        program: &Program,
        fuel: u64,
        start_pc: u64,
        hooks: &mut H,
    ) -> SimResult<RunReport> {
        let observe = H::OBSERVES && hooks.observes();
        let intercept = H::INTERCEPTS && hooks.intercepts();
        if observe {
            hooks.launch(program);
        }
        let before = self.counters.total();
        let len = program.instrs.len() as u64;
        let mut pc: u64 = start_pc;
        loop {
            let seq = self.counters.total() - before;
            if seq >= fuel {
                self.stop_pc = pc;
                return Err(SimError::FuelExhausted { fuel });
            }
            if !pc.is_multiple_of(4) || pc / 4 >= len {
                return Err(SimError::BadControlFlow { target: pc });
            }
            let fetched = &program.instrs[(pc / 4) as usize];
            let replaced = if intercept {
                match hooks.before(self, pc, fetched, seq) {
                    FaultAction::Pass => None,
                    FaultAction::Trap(e) => return Err(e),
                    FaultAction::Replace(r) => Some(r),
                }
            } else {
                None
            };
            let instr = replaced.as_ref().unwrap_or(fetched);
            // Two branches rather than an `Option` event, as in the plan loop.
            let ctl = if observe {
                let event = self.retire_event(pc, instr, InstrClass::of(instr), seq);
                let ctl = self.exec(pc, instr)?;
                hooks.retire(&event);
                ctl
            } else {
                self.exec(pc, instr)?
            };
            match ctl {
                Control::Next => pc += 4,
                Control::Jump(target) => pc = target,
                Control::Halt => {
                    return Ok(RunReport {
                        retired: self.counters.total() - before,
                        halt_pc: pc,
                    })
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;
    use rvv_isa::{AluOp, BranchCond, XReg};

    fn m() -> Machine {
        Machine::new(MachineConfig {
            vlen: 128,
            mem_bytes: 4096,
        })
    }

    /// A hand-assembled countdown loop:
    ///   li t0, 5        (addi x5, x0, 5)
    /// loop:
    ///   addi x5, x5, -1
    ///   bne x5, x0, loop
    ///   ecall
    fn countdown() -> Program {
        Program::new(
            "countdown",
            vec![
                Instr::OpImm {
                    op: AluOp::Add,
                    rd: XReg::new(5),
                    rs1: XReg::ZERO,
                    imm: 5,
                },
                Instr::OpImm {
                    op: AluOp::Add,
                    rd: XReg::new(5),
                    rs1: XReg::new(5),
                    imm: -1,
                },
                Instr::Branch {
                    cond: BranchCond::Ne,
                    rs1: XReg::new(5),
                    rs2: XReg::ZERO,
                    offset: -4,
                },
                Instr::Ecall,
            ],
        )
    }

    #[test]
    fn loop_runs_and_counts() {
        let mut m = m();
        let r = m.run(&countdown(), DEFAULT_FUEL).unwrap();
        // 1 init + 5 × (addi + bne) + ecall = 12.
        assert_eq!(r.retired, 12);
        assert_eq!(m.xreg(XReg::new(5)), 0);
        assert_eq!(r.halt_pc, 12);
    }

    #[test]
    fn fuel_exhaustion() {
        let mut m = m();
        // Infinite loop: jal x0, 0.
        let p = Program::new(
            "spin",
            vec![Instr::Jal {
                rd: XReg::ZERO,
                offset: 0,
            }],
        );
        let r = m.run(&p, 1000);
        assert!(matches!(r, Err(SimError::FuelExhausted { fuel: 1000 })));
    }

    #[test]
    fn falling_off_the_end_is_bad_control_flow() {
        let mut m = m();
        let p = Program::new(
            "no-halt",
            vec![Instr::OpImm {
                op: AluOp::Add,
                rd: XReg::new(5),
                rs1: XReg::ZERO,
                imm: 1,
            }],
        );
        assert!(matches!(
            m.run(&p, DEFAULT_FUEL),
            Err(SimError::BadControlFlow { .. })
        ));
    }

    #[test]
    fn wild_jump_is_bad_control_flow() {
        let mut m = m();
        let p = Program::new(
            "wild",
            vec![Instr::Jal {
                rd: XReg::ZERO,
                offset: 0x1000,
            }],
        );
        assert!(matches!(
            m.run(&p, DEFAULT_FUEL),
            Err(SimError::BadControlFlow { target: 0x1000 })
        ));
    }

    #[test]
    fn ebreak_traps_with_pc() {
        let mut m = m();
        let p = Program::new(
            "brk",
            vec![
                Instr::OpImm {
                    op: AluOp::Add,
                    rd: XReg::new(5),
                    rs1: XReg::ZERO,
                    imm: 1,
                },
                Instr::Ebreak,
            ],
        );
        assert!(matches!(
            m.run(&p, DEFAULT_FUEL),
            Err(SimError::Breakpoint { pc: 4 })
        ));
    }

    #[test]
    fn assemble_then_decode_matches() {
        let p = countdown();
        let bytes = p.assemble().unwrap();
        assert_eq!(bytes.len(), p.len() * 4);
        for (i, chunk) in bytes.chunks_exact(4).enumerate() {
            let w = u32::from_le_bytes(chunk.try_into().unwrap());
            assert_eq!(rvv_isa::decode(w).unwrap(), p.instrs[i]);
        }
    }

    #[test]
    fn traced_run_reports_every_retire_and_matches_untraced() {
        use crate::trace::{RetireEvent, TraceSink};
        struct Recorder {
            events: Vec<(u64, u64, String)>,
            launches: Vec<String>,
        }
        impl TraceSink for Recorder {
            fn retire(&mut self, e: &RetireEvent<'_>) {
                self.events.push((e.seq, e.pc, e.instr.to_string()));
            }
            fn launch(&mut self, p: &Program) {
                self.launches.push(p.name.clone());
            }
        }
        let mut sink = Recorder {
            events: Vec::new(),
            launches: Vec::new(),
        };
        let mut traced = m();
        let plan = crate::plan::CompiledPlan::compile(countdown());
        let r = traced.run_plan(&plan, 1000, 0, &mut sink).unwrap();
        let mut plain = m();
        let r2 = plain.run(&countdown(), DEFAULT_FUEL).unwrap();
        // Same report, same architectural outcome, same counters.
        assert_eq!(r, r2);
        assert_eq!(traced.xreg(XReg::new(5)), plain.xreg(XReg::new(5)));
        assert_eq!(traced.counters, plain.counters);
        // Every retired instruction was reported, in order.
        assert_eq!(sink.launches, vec!["countdown".to_string()]);
        assert_eq!(sink.events.len() as u64, r.retired);
        for (i, (seq, _, _)) in sink.events.iter().enumerate() {
            assert_eq!(*seq, i as u64);
        }
        assert_eq!(sink.events[0].2, "addi x5, x0, 5");
        assert_eq!(sink.events.last().unwrap().2, "ecall");
    }

    #[test]
    fn marks_symbolicate_and_display() {
        let mut p = countdown();
        p.add_mark(0, "init");
        p.add_mark(4, "loop");
        p.add_mark(12, "exit");
        assert_eq!(p.symbol_for(0), Some("init"));
        assert_eq!(p.symbol_for(4), Some("loop"));
        assert_eq!(p.symbol_for(8), Some("loop"));
        assert_eq!(p.symbol_for(12), Some("exit"));
        assert_eq!(p.symbol_for(100), Some("exit"));
        assert_eq!(Program::new("bare", vec![]).symbol_for(0), None);
        let text = p.to_string();
        assert!(text.contains("<loop>:"), "{text}");
    }

    #[test]
    fn machine_code_loader_roundtrips() {
        let p = countdown();
        let bytes = p.assemble().unwrap();
        let back = Program::from_machine_code("reloaded", &bytes).unwrap();
        assert_eq!(back.instrs, p.instrs);
        // A ragged byte count is rejected.
        assert!(Program::from_machine_code("bad", &bytes[..6]).is_err());
        // Undecodable words report their position.
        let mut corrupt = bytes.clone();
        corrupt[4..8].copy_from_slice(&0xffff_ffffu32.to_le_bytes());
        let err = Program::from_machine_code("bad", &corrupt).unwrap_err();
        assert!(err.contains("instruction 1"), "{err}");
    }

    #[test]
    fn plan_and_legacy_loops_agree() {
        let mut planned = m();
        let mut legacy = m();
        let r1 = planned.run(&countdown(), DEFAULT_FUEL).unwrap();
        let r2 = legacy
            .run_legacy(&countdown(), DEFAULT_FUEL, 0, &mut ())
            .unwrap();
        assert_eq!(r1, r2);
        assert_eq!(planned.xreg(XReg::new(5)), legacy.xreg(XReg::new(5)));
        assert_eq!(planned.counters, legacy.counters);
    }

    #[test]
    fn display_disassembles() {
        let text = countdown().to_string();
        assert!(text.contains("countdown:"));
        assert!(text.contains("bne x5, x0, -4"));
    }
}
