//! # rvv-isa — ISA data model for the scan-vector-model reproduction
//!
//! This crate defines the instruction-set architecture layer that the rest of
//! the workspace builds on: a typed model of the **RV64IM scalar subset** and
//! the **RISC-V Vector extension (RVV 1.0) subset** needed to implement
//! Blelloch's scan vector model the way the paper does (strip-mined kernels
//! using `vsetvli`, unit-stride and indexed vector memory operations, slides,
//! mask manipulation including `viota`/`vcpop`/`vmsbf`, and integer
//! arithmetic with masking).
//!
//! The crate deliberately contains **no execution semantics** — those live in
//! [`rvv-sim`](../rvv_sim/index.html). What lives here:
//!
//! * [`Sew`], [`Lmul`], [`VType`] — the vector configuration state model,
//!   including the `vtype` CSR bit layout.
//! * [`XReg`], [`VReg`] — checked register newtypes.
//! * [`Instr`] and its operand enums — one variant per instruction *family*
//!   (e.g. all of `vadd.vv`/`vsub.vv`/… are `Instr::VOpVV` with a
//!   [`VAluOp`]), which keeps the simulator's dispatch compact while still
//!   modelling every instruction the kernels emit.
//! * The instruction table (`table.rs`): one row per instruction, from
//!   which everything below is derived.
//! * [`encode`]/[`decode`] — the 32-bit binary instruction encoding for the
//!   whole subset, round-trip tested. The simulator executes the typed form,
//!   but the encoder exists so that generated kernels are *real* RISC-V
//!   machine code, byte for byte, and so tests can assert against
//!   hand-assembled reference encodings from the specifications.
//! * Assembly text: `Display` for [`Instr`] and its inverse
//!   [`Instr::parse`] (the `rvv-asm` text assembler adds labels and lines).
//! * [`InstrClass`] — the classification used by the simulator's dynamic
//!   instruction histogram (the paper's metric is Spike's dynamic instruction
//!   count; the histogram lets the benches break that count down).
//!
//! ## Adding an instruction
//!
//! Add one row to the `instructions!` table in `table.rs`:
//!
//! ```text
//! "vadd.vv" OPIVV.f6(0b000000) => VectorAlu VOpVV { op: VAluOp::Add } (vd: Vd, vs2: Vs2, vs1: Vs1, vm: Vm);
//! ```
//!
//! That is the mnemonic (`{}` marks an EEW or register count written inside
//! it, as in `vle{}.v`), the bits the specification fixes (opcode, funct3,
//! funct6/funct7 and any fixed `vm`, `vs1`, `vs2`, `nf`/`mop`/`lumop`
//! field), the [`InstrClass`], the [`Instr`] variant with the selector
//! values it carries, and the operands in text order, each with its kind.
//! Encode, decode, disassembly, parsing, the class and the selector
//! predicates ([`VAluOp::has_vi`], …) then follow. A new family also needs
//! its [`Instr`] variant. Its semantics are hand-written in `rvv-sim`
//! (`exec/*` for the legacy loop, and the plan lowering).
//!
//! The rows must stay **disjoint**: no word may match two rows under their
//! masks, so that decoding has exactly one answer. Every bit of a row is
//! either fixed by its mask or belongs to exactly one operand, so that
//! `encode(decode(w)) == w`. Unit tests in `table.rs` check both, and
//! `tests/exhaustive.rs` walks all 2^32 words. Rows of one major opcode
//! sit together, which the decoder's per-opcode index checks at compile
//! time.
//!
//! ## Scope of the subset
//!
//! Scalar: `RV64I` ALU/branch/load/store/jal/jalr plus `M` multiply/divide.
//! Vector: integer OPIVV/OPIVX/OPIVI arithmetic, compares-to-mask, merges and
//! moves, slides, gather/compress, the mask-register instruction group, the
//! single-width reductions, unit-stride/strided/indexed loads and stores, and
//! whole-register loads/stores (used by spill code). Fixed-point, floating
//! point, widening/narrowing and segment memory ops are out of scope: the
//! paper's kernels never touch them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod class;
mod config;
mod decode;
mod encode;
mod instr;
mod operand;
mod reg;
mod table;
mod text;

pub use class::InstrClass;
pub use config::{KernelConfig, Lmul, Sew, VType};
pub use decode::{decode, DecodeError};
pub use encode::{encode, EncodeError};
pub use instr::{AluOp, BranchCond, Instr, MaskOp, MemWidth, VAluOp, VCmp, VCsr, VRedOp};
pub use reg::{VReg, XReg};
pub use text::ParseInstrError;

/// Convenience result alias for encoding.
pub type EncodeResult = Result<u32, EncodeError>;
