//! # rvv-sim — a functional RISC-V + RVV simulator with dynamic instruction
//! counting
//!
//! This crate is the workspace's substitute for **Spike**
//! (`riscv-isa-sim`), the simulator the paper evaluates on. Like Spike it is
//! a *functional* model — no pipeline, no cache, no cycle accounting — and
//! like the paper it measures performance as **dynamic instruction count**:
//! every architecturally retired instruction counts one, whether scalar or
//! vector and regardless of LMUL.
//!
//! ## What it models
//!
//! * RV64IM scalar subset (ALU, branches, loads/stores, jumps, `M`).
//! * RVV 1.0 integer subset: `vsetvli` configuration with SEW ∈
//!   {8,16,32,64} and LMUL ∈ {1,2,4,8}; unit-stride/strided/indexed and
//!   whole-register memory ops; integer arithmetic with masking; compares to
//!   mask; the mask instruction group (`viota`, `vcpop`, `vfirst`, `vmsbf`,
//!   `vmsif`, `vmsof`, `vid`, mask logicals); slides, gather, compress;
//!   single-width reductions.
//! * Configurable VLEN (the paper sweeps 128/256/512/1024).
//! * Flat bounds-checked little-endian memory with optional guard regions
//!   for buffer-overrun detection in tests.
//!
//! ## What it deliberately does not model
//!
//! Floating point, fixed point, widening/narrowing ops, segment memory ops,
//! fractional LMUL, `vstart` ≠ 0, and precise trap resumption — none are
//! used by the scan vector model kernels. Tail/masked-off elements are left
//! *undisturbed*, which is legal for both the undisturbed and agnostic
//! policies the ISA allows.
//!
//! ## Example
//!
//! ```
//! use rvv_isa::{AluOp, Instr, XReg};
//! use rvv_sim::{Machine, MachineConfig, Program, DEFAULT_FUEL};
//!
//! let mut m = Machine::new(MachineConfig { vlen: 256, mem_bytes: 4096 });
//! let p = Program::new(
//!     "add",
//!     vec![
//!         Instr::OpImm { op: AluOp::Add, rd: XReg::new(5), rs1: XReg::ZERO, imm: 40 },
//!         Instr::OpImm { op: AluOp::Add, rd: XReg::new(5), rs1: XReg::new(5), imm: 2 },
//!         Instr::Ecall,
//!     ],
//! );
//! let report = m.run(&p, DEFAULT_FUEL).unwrap();
//! assert_eq!(m.xreg(XReg::new(5)), 42);
//! assert_eq!(report.retired, 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cancel;
mod counters;
mod error;
mod exec;
mod fault;
mod hooks;
mod machine;
mod memory;
mod plan;
mod program;
mod snapshot;
mod trace;

pub use cancel::CancelToken;
pub use counters::Counters;
pub use error::{SimError, SimResult};
pub use exec::Control;
pub use fault::{FaultAction, FaultHook};
pub use hooks::{HookSet, RunHooks};
pub use machine::{FusedStats, Machine, MachineConfig};
pub use memory::{MemSnapshot, Memory, PAGE_BYTES};
pub use plan::CompiledPlan;
pub use program::{Program, RunReport, DEFAULT_FUEL};
pub use snapshot::MachineSnapshot;
pub use trace::{MemAccess, RetireEvent, TraceSink};
