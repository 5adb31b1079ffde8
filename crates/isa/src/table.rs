//! The instruction table: one row per instruction of the modelled subset.
//!
//! A row states its mnemonic, the encoding bits the specifications fix (as
//! a match/mask pair), its [`InstrClass`], the [`Instr`] variant and
//! selector values it builds, and its operands in text order. `encode`,
//! `decode`, `Display`, parsing, [`InstrClass::of`], [`Instr::is_vector`]
//! and the selector predicates (`VAluOp::has_vi`, …) are all derived from
//! these rows.
//!
//! Rows are disjoint: no word matches two rows under their masks (unit
//! tested), so decoding takes the one row that matches. Rows of one major
//! opcode are contiguous (checked at compile time), so decoding searches
//! only that opcode's rows.

use crate::operand::{Field, Kind};
use crate::{AluOp, BranchCond, Instr, InstrClass, MaskOp, MemWidth, VAluOp, VCmp, VRedOp};

/// Fixed encoding bits: a word matches when `word & mask == bits`.
#[derive(Clone, Copy)]
pub(crate) struct Enc {
    bits: u32,
    mask: u32,
}

impl Enc {
    const fn opcode(op: u32) -> Enc {
        Enc {
            bits: op,
            mask: 0x7f,
        }
    }
    /// Fix `width` bits starting at bit `lo` to `v`.
    const fn set(self, lo: u32, width: u32, v: u32) -> Enc {
        Enc {
            bits: self.bits | v << lo,
            mask: self.mask | ((1 << width) - 1) << lo,
        }
    }
    const fn f3(self, v: u32) -> Enc {
        self.set(12, 3, v)
    }
    const fn f6(self, v: u32) -> Enc {
        self.set(26, 6, v)
    }
    const fn f7(self, v: u32) -> Enc {
        self.set(25, 7, v)
    }
    const fn vm(self, v: u32) -> Enc {
        self.set(25, 1, v)
    }
    /// The `rs1`/`vs1` field, where VWXUNARY0/VMUNARY0 select the operation.
    const fn vs1(self, v: u32) -> Enc {
        self.set(15, 5, v)
    }
    /// The `rs2`/`vs2` field, which also holds the `lumop`/`sumop` selector.
    const fn vs2(self, v: u32) -> Enc {
        self.set(20, 5, v)
    }
    /// Vector memory addressing mode `mop` with `nf = 0` and `mew = 0`.
    const fn mop(self, v: u32) -> Enc {
        self.set(26, 6, v)
    }
}

const LUI: Enc = Enc::opcode(0b0110111);
const AUIPC: Enc = Enc::opcode(0b0010111);
const JAL: Enc = Enc::opcode(0b1101111);
const JALR: Enc = Enc::opcode(0b1100111).f3(0b000);
const BRANCH: Enc = Enc::opcode(0b1100011);
const LOAD: Enc = Enc::opcode(0b0000011);
const STORE: Enc = Enc::opcode(0b0100011);
const OP_IMM: Enc = Enc::opcode(0b0010011);
const OP: Enc = Enc::opcode(0b0110011);
const SYSTEM: Enc = Enc::opcode(0b1110011);
const OP_V: Enc = Enc::opcode(0b1010111);
const OPIVV: Enc = OP_V.f3(0b000);
const OPMVV: Enc = OP_V.f3(0b010);
const OPIVI: Enc = OP_V.f3(0b011);
const OPIVX: Enc = OP_V.f3(0b100);
const OPMVX: Enc = OP_V.f3(0b110);
const OPCFG: Enc = OP_V.f3(0b111);
const LOAD_FP: Enc = Enc::opcode(0b0000111);
const STORE_FP: Enc = Enc::opcode(0b0100111);
/// Whole-register and mask transfers: unmasked, EEW=8 (`width = 000`).
const VL_WHOLE: Enc = LOAD_FP.set(26, 3, 0).vm(1).vs2(0b01000).f3(0);
const VS_WHOLE: Enc = STORE_FP.set(26, 3, 0).vm(1).vs2(0b01000).f3(0);
const VL_MASK: Enc = LOAD_FP.mop(0).vm(1).vs2(0b01011).f3(0);
const VS_MASK: Enc = STORE_FP.mop(0).vm(1).vs2(0b01011).f3(0);

// Selector values for the `bool` selectors, written as paths so a row can
// use them both to build an `Instr` and to match one.
const SIGNED: bool = true;
const UNSIGNED: bool = false;
const ORDERED: bool = true;
const UNORDERED: bool = false;

/// One instruction.
pub(crate) struct Row {
    /// The mnemonic; `{}` marks an operand written inside it (`vle{}.v`).
    pub(crate) mnemonic: &'static str,
    pub(crate) bits: u32,
    pub(crate) mask: u32,
    /// The row's class. `class_of` is generated from the same macro input
    /// per variant; this copy exists for the test that a variant's rows
    /// agree.
    #[cfg(test)]
    class: InstrClass,
    /// The `Instr` variant's name, and the selector values (`as u8`) the
    /// row fixes, for the selector predicates.
    variant: &'static str,
    selectors: &'static [u8],
    /// Operands in text order.
    pub(crate) operands: &'static [Kind],
    /// Build the instruction from operand values in text order.
    pub(crate) build: fn(&[i64]) -> Instr,
}

/// The most operands any row has.
pub(crate) const MAX_OPERANDS: usize = 5;

/// Operand values of one instruction, in its row's text order.
pub(crate) type Operands = [i64; MAX_OPERANDS];

macro_rules! instructions {
    ($(
        $mnemonic:literal $enc:expr => $class:ident $variant:ident
            { $($sel:ident: $value:path),* } ($($field:ident: $kind:ident),* $(; $literal:ident)?);
    )*) => {
        pub(crate) const ROWS: &[Row] = &[$(Row {
            mnemonic: $mnemonic,
            bits: $enc.bits,
            mask: $enc.mask,
            #[cfg(test)]
            class: InstrClass::$class,
            variant: stringify!($variant),
            selectors: &[$($value as u8),*],
            operands: &[$(Kind::$kind,)* $(Kind::$literal)?],
            build: |_v| {
                #[allow(unused_mut)]
                let mut _v = _v.iter();
                Instr::$variant {
                    $($sel: $value,)*
                    $($field: Field::from_val(*_v.next().unwrap()),)*
                }
            },
        }),*];

        /// The row an instruction belongs to, with its operand values;
        /// `None` for a variant/selector combination the ISA lacks.
        pub(crate) fn lookup(i: &Instr) -> Option<(&'static Row, Operands)> {
            // A literal operand has no field; its value is a placeholder.
            let (row, vals) = match *i {
                $(Instr::$variant { $($sel: $value,)* $($field,)* } => (
                    const { position($mnemonic) },
                    pad(&[$($field.to_val(),)* $({ let _ = Kind::$literal; 0 })?]),
                ),)*
                _ => return None,
            };
            Some((&ROWS[row], vals))
        }

        /// The class of a variant's rows (they share one; unit tested).
        #[allow(unreachable_patterns)]
        #[inline]
        pub(crate) const fn class_of(i: &Instr) -> InstrClass {
            match i {
                $(Instr::$variant { .. } => InstrClass::$class,)*
            }
        }

        /// Is the variant encoded under a vector major opcode?
        #[allow(unreachable_patterns)]
        #[inline]
        pub(crate) const fn is_vector(i: &Instr) -> bool {
            match i {
                $(Instr::$variant { .. } => const { is_vector_opcode($enc.bits) },)*
            }
        }
    };
}

#[rustfmt::skip]
instructions! {
    "lui"    LUI   => ScalarAlu  Lui {} (rd: Xd, imm20: Imm20);
    "auipc"  AUIPC => ScalarAlu  Auipc {} (rd: Xd, imm20: Imm20);
    "jal"    JAL   => ScalarCtrl Jal {} (rd: Xd, offset: OffJ);
    "jalr"   JALR  => ScalarCtrl Jalr {} (rd: Xd, offset: Imm12, rs1: Base);
    "beq"    BRANCH.f3(0b000) => ScalarCtrl Branch { cond: BranchCond::Eq } (rs1: Xs1, rs2: Xs2, offset: OffB);
    "bne"    BRANCH.f3(0b001) => ScalarCtrl Branch { cond: BranchCond::Ne } (rs1: Xs1, rs2: Xs2, offset: OffB);
    "blt"    BRANCH.f3(0b100) => ScalarCtrl Branch { cond: BranchCond::Lt } (rs1: Xs1, rs2: Xs2, offset: OffB);
    "bge"    BRANCH.f3(0b101) => ScalarCtrl Branch { cond: BranchCond::Ge } (rs1: Xs1, rs2: Xs2, offset: OffB);
    "bltu"   BRANCH.f3(0b110) => ScalarCtrl Branch { cond: BranchCond::Ltu } (rs1: Xs1, rs2: Xs2, offset: OffB);
    "bgeu"   BRANCH.f3(0b111) => ScalarCtrl Branch { cond: BranchCond::Geu } (rs1: Xs1, rs2: Xs2, offset: OffB);
    "lb"     LOAD.f3(0b000) => ScalarMem Load { width: MemWidth::B, signed: SIGNED } (rd: Xd, offset: Imm12, rs1: Base);
    "lh"     LOAD.f3(0b001) => ScalarMem Load { width: MemWidth::H, signed: SIGNED } (rd: Xd, offset: Imm12, rs1: Base);
    "lw"     LOAD.f3(0b010) => ScalarMem Load { width: MemWidth::W, signed: SIGNED } (rd: Xd, offset: Imm12, rs1: Base);
    "ld"     LOAD.f3(0b011) => ScalarMem Load { width: MemWidth::D, signed: SIGNED } (rd: Xd, offset: Imm12, rs1: Base);
    "lbu"    LOAD.f3(0b100) => ScalarMem Load { width: MemWidth::B, signed: UNSIGNED } (rd: Xd, offset: Imm12, rs1: Base);
    "lhu"    LOAD.f3(0b101) => ScalarMem Load { width: MemWidth::H, signed: UNSIGNED } (rd: Xd, offset: Imm12, rs1: Base);
    "lwu"    LOAD.f3(0b110) => ScalarMem Load { width: MemWidth::W, signed: UNSIGNED } (rd: Xd, offset: Imm12, rs1: Base);
    "sb"     STORE.f3(0b000) => ScalarMem Store { width: MemWidth::B } (rs2: Xs2, offset: OffS, rs1: Base);
    "sh"     STORE.f3(0b001) => ScalarMem Store { width: MemWidth::H } (rs2: Xs2, offset: OffS, rs1: Base);
    "sw"     STORE.f3(0b010) => ScalarMem Store { width: MemWidth::W } (rs2: Xs2, offset: OffS, rs1: Base);
    "sd"     STORE.f3(0b011) => ScalarMem Store { width: MemWidth::D } (rs2: Xs2, offset: OffS, rs1: Base);
    "addi"   OP_IMM.f3(0b000) => ScalarAlu OpImm { op: AluOp::Add } (rd: Xd, rs1: Xs1, imm: Imm12);
    "slti"   OP_IMM.f3(0b010) => ScalarAlu OpImm { op: AluOp::Slt } (rd: Xd, rs1: Xs1, imm: Imm12);
    "sltiu"  OP_IMM.f3(0b011) => ScalarAlu OpImm { op: AluOp::Sltu } (rd: Xd, rs1: Xs1, imm: Imm12);
    "xori"   OP_IMM.f3(0b100) => ScalarAlu OpImm { op: AluOp::Xor } (rd: Xd, rs1: Xs1, imm: Imm12);
    "ori"    OP_IMM.f3(0b110) => ScalarAlu OpImm { op: AluOp::Or } (rd: Xd, rs1: Xs1, imm: Imm12);
    "andi"   OP_IMM.f3(0b111) => ScalarAlu OpImm { op: AluOp::And } (rd: Xd, rs1: Xs1, imm: Imm12);
    "slli"   OP_IMM.f3(0b001).f6(0b000000) => ScalarAlu OpImm { op: AluOp::Sll } (rd: Xd, rs1: Xs1, imm: Shamt);
    "srli"   OP_IMM.f3(0b101).f6(0b000000) => ScalarAlu OpImm { op: AluOp::Srl } (rd: Xd, rs1: Xs1, imm: Shamt);
    "srai"   OP_IMM.f3(0b101).f6(0b010000) => ScalarAlu OpImm { op: AluOp::Sra } (rd: Xd, rs1: Xs1, imm: Shamt);
    "add"    OP.f3(0b000).f7(0b0000000) => ScalarAlu Op { op: AluOp::Add } (rd: Xd, rs1: Xs1, rs2: Xs2);
    "sub"    OP.f3(0b000).f7(0b0100000) => ScalarAlu Op { op: AluOp::Sub } (rd: Xd, rs1: Xs1, rs2: Xs2);
    "sll"    OP.f3(0b001).f7(0b0000000) => ScalarAlu Op { op: AluOp::Sll } (rd: Xd, rs1: Xs1, rs2: Xs2);
    "slt"    OP.f3(0b010).f7(0b0000000) => ScalarAlu Op { op: AluOp::Slt } (rd: Xd, rs1: Xs1, rs2: Xs2);
    "sltu"   OP.f3(0b011).f7(0b0000000) => ScalarAlu Op { op: AluOp::Sltu } (rd: Xd, rs1: Xs1, rs2: Xs2);
    "xor"    OP.f3(0b100).f7(0b0000000) => ScalarAlu Op { op: AluOp::Xor } (rd: Xd, rs1: Xs1, rs2: Xs2);
    "srl"    OP.f3(0b101).f7(0b0000000) => ScalarAlu Op { op: AluOp::Srl } (rd: Xd, rs1: Xs1, rs2: Xs2);
    "sra"    OP.f3(0b101).f7(0b0100000) => ScalarAlu Op { op: AluOp::Sra } (rd: Xd, rs1: Xs1, rs2: Xs2);
    "or"     OP.f3(0b110).f7(0b0000000) => ScalarAlu Op { op: AluOp::Or } (rd: Xd, rs1: Xs1, rs2: Xs2);
    "and"    OP.f3(0b111).f7(0b0000000) => ScalarAlu Op { op: AluOp::And } (rd: Xd, rs1: Xs1, rs2: Xs2);
    "mul"    OP.f3(0b000).f7(0b0000001) => ScalarAlu Op { op: AluOp::Mul } (rd: Xd, rs1: Xs1, rs2: Xs2);
    "mulh"   OP.f3(0b001).f7(0b0000001) => ScalarAlu Op { op: AluOp::Mulh } (rd: Xd, rs1: Xs1, rs2: Xs2);
    "mulhu"  OP.f3(0b011).f7(0b0000001) => ScalarAlu Op { op: AluOp::Mulhu } (rd: Xd, rs1: Xs1, rs2: Xs2);
    "div"    OP.f3(0b100).f7(0b0000001) => ScalarAlu Op { op: AluOp::Div } (rd: Xd, rs1: Xs1, rs2: Xs2);
    "divu"   OP.f3(0b101).f7(0b0000001) => ScalarAlu Op { op: AluOp::Divu } (rd: Xd, rs1: Xs1, rs2: Xs2);
    "rem"    OP.f3(0b110).f7(0b0000001) => ScalarAlu Op { op: AluOp::Rem } (rd: Xd, rs1: Xs1, rs2: Xs2);
    "remu"   OP.f3(0b111).f7(0b0000001) => ScalarAlu Op { op: AluOp::Remu } (rd: Xd, rs1: Xs1, rs2: Xs2);
    // `csrr rd, csr` is `csrrs rd, csr, x0`.
    "csrr"   SYSTEM.f3(0b010).vs1(0) => VectorCfg Csrr {} (rd: Xd, csr: Csr);
    "ecall"  SYSTEM.set(7, 25, 0) => ScalarCtrl Ecall {} ();
    "ebreak" SYSTEM.set(7, 25, 1 << 13) => ScalarCtrl Ebreak {} ();

    "vsetvli"  OPCFG.set(31, 1, 0) => VectorCfg Vsetvli {} (rd: Xd, rs1: Xs1, vtype: Vtype11);
    "vsetivli" OPCFG.set(30, 2, 0b11) => VectorCfg Vsetivli {} (rd: Xd, uimm: Uimm5, vtype: Vtype10);
    "vsetvl"   OPCFG.f7(0b1000000) => VectorCfg Vsetvl {} (rd: Xd, rs1: Xs1, rs2: Xs2);
    "vadd.vv"    OPIVV.f6(0b000000) => VectorAlu VOpVV { op: VAluOp::Add } (vd: Vd, vs2: Vs2, vs1: Vs1, vm: Vm);
    "vsub.vv"    OPIVV.f6(0b000010) => VectorAlu VOpVV { op: VAluOp::Sub } (vd: Vd, vs2: Vs2, vs1: Vs1, vm: Vm);
    "vminu.vv"   OPIVV.f6(0b000100) => VectorAlu VOpVV { op: VAluOp::Minu } (vd: Vd, vs2: Vs2, vs1: Vs1, vm: Vm);
    "vmin.vv"    OPIVV.f6(0b000101) => VectorAlu VOpVV { op: VAluOp::Min } (vd: Vd, vs2: Vs2, vs1: Vs1, vm: Vm);
    "vmaxu.vv"   OPIVV.f6(0b000110) => VectorAlu VOpVV { op: VAluOp::Maxu } (vd: Vd, vs2: Vs2, vs1: Vs1, vm: Vm);
    "vmax.vv"    OPIVV.f6(0b000111) => VectorAlu VOpVV { op: VAluOp::Max } (vd: Vd, vs2: Vs2, vs1: Vs1, vm: Vm);
    "vand.vv"    OPIVV.f6(0b001001) => VectorAlu VOpVV { op: VAluOp::And } (vd: Vd, vs2: Vs2, vs1: Vs1, vm: Vm);
    "vor.vv"     OPIVV.f6(0b001010) => VectorAlu VOpVV { op: VAluOp::Or } (vd: Vd, vs2: Vs2, vs1: Vs1, vm: Vm);
    "vxor.vv"    OPIVV.f6(0b001011) => VectorAlu VOpVV { op: VAluOp::Xor } (vd: Vd, vs2: Vs2, vs1: Vs1, vm: Vm);
    "vsll.vv"    OPIVV.f6(0b100101) => VectorAlu VOpVV { op: VAluOp::Sll } (vd: Vd, vs2: Vs2, vs1: Vs1, vm: Vm);
    "vsrl.vv"    OPIVV.f6(0b101000) => VectorAlu VOpVV { op: VAluOp::Srl } (vd: Vd, vs2: Vs2, vs1: Vs1, vm: Vm);
    "vsra.vv"    OPIVV.f6(0b101001) => VectorAlu VOpVV { op: VAluOp::Sra } (vd: Vd, vs2: Vs2, vs1: Vs1, vm: Vm);
    "vmul.vv"    OPMVV.f6(0b100101) => VectorAlu VOpVV { op: VAluOp::Mul } (vd: Vd, vs2: Vs2, vs1: Vs1, vm: Vm);
    "vmulh.vv"   OPMVV.f6(0b100111) => VectorAlu VOpVV { op: VAluOp::Mulh } (vd: Vd, vs2: Vs2, vs1: Vs1, vm: Vm);
    "vmulhu.vv"  OPMVV.f6(0b100100) => VectorAlu VOpVV { op: VAluOp::Mulhu } (vd: Vd, vs2: Vs2, vs1: Vs1, vm: Vm);
    "vdivu.vv"   OPMVV.f6(0b100000) => VectorAlu VOpVV { op: VAluOp::Divu } (vd: Vd, vs2: Vs2, vs1: Vs1, vm: Vm);
    "vdiv.vv"    OPMVV.f6(0b100001) => VectorAlu VOpVV { op: VAluOp::Div } (vd: Vd, vs2: Vs2, vs1: Vs1, vm: Vm);
    "vremu.vv"   OPMVV.f6(0b100010) => VectorAlu VOpVV { op: VAluOp::Remu } (vd: Vd, vs2: Vs2, vs1: Vs1, vm: Vm);
    "vrem.vv"    OPMVV.f6(0b100011) => VectorAlu VOpVV { op: VAluOp::Rem } (vd: Vd, vs2: Vs2, vs1: Vs1, vm: Vm);
    "vadd.vx"    OPIVX.f6(0b000000) => VectorAlu VOpVX { op: VAluOp::Add } (vd: Vd, vs2: Vs2, rs1: Xs1, vm: Vm);
    "vsub.vx"    OPIVX.f6(0b000010) => VectorAlu VOpVX { op: VAluOp::Sub } (vd: Vd, vs2: Vs2, rs1: Xs1, vm: Vm);
    "vrsub.vx"   OPIVX.f6(0b000011) => VectorAlu VOpVX { op: VAluOp::Rsub } (vd: Vd, vs2: Vs2, rs1: Xs1, vm: Vm);
    "vminu.vx"   OPIVX.f6(0b000100) => VectorAlu VOpVX { op: VAluOp::Minu } (vd: Vd, vs2: Vs2, rs1: Xs1, vm: Vm);
    "vmin.vx"    OPIVX.f6(0b000101) => VectorAlu VOpVX { op: VAluOp::Min } (vd: Vd, vs2: Vs2, rs1: Xs1, vm: Vm);
    "vmaxu.vx"   OPIVX.f6(0b000110) => VectorAlu VOpVX { op: VAluOp::Maxu } (vd: Vd, vs2: Vs2, rs1: Xs1, vm: Vm);
    "vmax.vx"    OPIVX.f6(0b000111) => VectorAlu VOpVX { op: VAluOp::Max } (vd: Vd, vs2: Vs2, rs1: Xs1, vm: Vm);
    "vand.vx"    OPIVX.f6(0b001001) => VectorAlu VOpVX { op: VAluOp::And } (vd: Vd, vs2: Vs2, rs1: Xs1, vm: Vm);
    "vor.vx"     OPIVX.f6(0b001010) => VectorAlu VOpVX { op: VAluOp::Or } (vd: Vd, vs2: Vs2, rs1: Xs1, vm: Vm);
    "vxor.vx"    OPIVX.f6(0b001011) => VectorAlu VOpVX { op: VAluOp::Xor } (vd: Vd, vs2: Vs2, rs1: Xs1, vm: Vm);
    "vsll.vx"    OPIVX.f6(0b100101) => VectorAlu VOpVX { op: VAluOp::Sll } (vd: Vd, vs2: Vs2, rs1: Xs1, vm: Vm);
    "vsrl.vx"    OPIVX.f6(0b101000) => VectorAlu VOpVX { op: VAluOp::Srl } (vd: Vd, vs2: Vs2, rs1: Xs1, vm: Vm);
    "vsra.vx"    OPIVX.f6(0b101001) => VectorAlu VOpVX { op: VAluOp::Sra } (vd: Vd, vs2: Vs2, rs1: Xs1, vm: Vm);
    "vmul.vx"    OPMVX.f6(0b100101) => VectorAlu VOpVX { op: VAluOp::Mul } (vd: Vd, vs2: Vs2, rs1: Xs1, vm: Vm);
    "vmulh.vx"   OPMVX.f6(0b100111) => VectorAlu VOpVX { op: VAluOp::Mulh } (vd: Vd, vs2: Vs2, rs1: Xs1, vm: Vm);
    "vmulhu.vx"  OPMVX.f6(0b100100) => VectorAlu VOpVX { op: VAluOp::Mulhu } (vd: Vd, vs2: Vs2, rs1: Xs1, vm: Vm);
    "vdivu.vx"   OPMVX.f6(0b100000) => VectorAlu VOpVX { op: VAluOp::Divu } (vd: Vd, vs2: Vs2, rs1: Xs1, vm: Vm);
    "vdiv.vx"    OPMVX.f6(0b100001) => VectorAlu VOpVX { op: VAluOp::Div } (vd: Vd, vs2: Vs2, rs1: Xs1, vm: Vm);
    "vremu.vx"   OPMVX.f6(0b100010) => VectorAlu VOpVX { op: VAluOp::Remu } (vd: Vd, vs2: Vs2, rs1: Xs1, vm: Vm);
    "vrem.vx"    OPMVX.f6(0b100011) => VectorAlu VOpVX { op: VAluOp::Rem } (vd: Vd, vs2: Vs2, rs1: Xs1, vm: Vm);
    "vadd.vi"    OPIVI.f6(0b000000) => VectorAlu VOpVI { op: VAluOp::Add } (vd: Vd, vs2: Vs2, imm: Simm5, vm: Vm);
    "vrsub.vi"   OPIVI.f6(0b000011) => VectorAlu VOpVI { op: VAluOp::Rsub } (vd: Vd, vs2: Vs2, imm: Simm5, vm: Vm);
    "vand.vi"    OPIVI.f6(0b001001) => VectorAlu VOpVI { op: VAluOp::And } (vd: Vd, vs2: Vs2, imm: Simm5, vm: Vm);
    "vor.vi"     OPIVI.f6(0b001010) => VectorAlu VOpVI { op: VAluOp::Or } (vd: Vd, vs2: Vs2, imm: Simm5, vm: Vm);
    "vxor.vi"    OPIVI.f6(0b001011) => VectorAlu VOpVI { op: VAluOp::Xor } (vd: Vd, vs2: Vs2, imm: Simm5, vm: Vm);
    "vsll.vi"    OPIVI.f6(0b100101) => VectorAlu VOpVI { op: VAluOp::Sll } (vd: Vd, vs2: Vs2, imm: Uimm5, vm: Vm);
    "vsrl.vi"    OPIVI.f6(0b101000) => VectorAlu VOpVI { op: VAluOp::Srl } (vd: Vd, vs2: Vs2, imm: Uimm5, vm: Vm);
    "vsra.vi"    OPIVI.f6(0b101001) => VectorAlu VOpVI { op: VAluOp::Sra } (vd: Vd, vs2: Vs2, imm: Uimm5, vm: Vm);
    "vmseq.vv"   OPIVV.f6(0b011000) => VectorMask VCmpVV { cond: VCmp::Eq } (vd: Vd, vs2: Vs2, vs1: Vs1, vm: Vm);
    "vmsne.vv"   OPIVV.f6(0b011001) => VectorMask VCmpVV { cond: VCmp::Ne } (vd: Vd, vs2: Vs2, vs1: Vs1, vm: Vm);
    "vmsltu.vv"  OPIVV.f6(0b011010) => VectorMask VCmpVV { cond: VCmp::Ltu } (vd: Vd, vs2: Vs2, vs1: Vs1, vm: Vm);
    "vmslt.vv"   OPIVV.f6(0b011011) => VectorMask VCmpVV { cond: VCmp::Lt } (vd: Vd, vs2: Vs2, vs1: Vs1, vm: Vm);
    "vmsleu.vv"  OPIVV.f6(0b011100) => VectorMask VCmpVV { cond: VCmp::Leu } (vd: Vd, vs2: Vs2, vs1: Vs1, vm: Vm);
    "vmsle.vv"   OPIVV.f6(0b011101) => VectorMask VCmpVV { cond: VCmp::Le } (vd: Vd, vs2: Vs2, vs1: Vs1, vm: Vm);
    "vmseq.vx"   OPIVX.f6(0b011000) => VectorMask VCmpVX { cond: VCmp::Eq } (vd: Vd, vs2: Vs2, rs1: Xs1, vm: Vm);
    "vmsne.vx"   OPIVX.f6(0b011001) => VectorMask VCmpVX { cond: VCmp::Ne } (vd: Vd, vs2: Vs2, rs1: Xs1, vm: Vm);
    "vmsltu.vx"  OPIVX.f6(0b011010) => VectorMask VCmpVX { cond: VCmp::Ltu } (vd: Vd, vs2: Vs2, rs1: Xs1, vm: Vm);
    "vmslt.vx"   OPIVX.f6(0b011011) => VectorMask VCmpVX { cond: VCmp::Lt } (vd: Vd, vs2: Vs2, rs1: Xs1, vm: Vm);
    "vmsleu.vx"  OPIVX.f6(0b011100) => VectorMask VCmpVX { cond: VCmp::Leu } (vd: Vd, vs2: Vs2, rs1: Xs1, vm: Vm);
    "vmsle.vx"   OPIVX.f6(0b011101) => VectorMask VCmpVX { cond: VCmp::Le } (vd: Vd, vs2: Vs2, rs1: Xs1, vm: Vm);
    "vmsgtu.vx"  OPIVX.f6(0b011110) => VectorMask VCmpVX { cond: VCmp::Gtu } (vd: Vd, vs2: Vs2, rs1: Xs1, vm: Vm);
    "vmsgt.vx"   OPIVX.f6(0b011111) => VectorMask VCmpVX { cond: VCmp::Gt } (vd: Vd, vs2: Vs2, rs1: Xs1, vm: Vm);
    "vmseq.vi"   OPIVI.f6(0b011000) => VectorMask VCmpVI { cond: VCmp::Eq } (vd: Vd, vs2: Vs2, imm: Simm5, vm: Vm);
    "vmsne.vi"   OPIVI.f6(0b011001) => VectorMask VCmpVI { cond: VCmp::Ne } (vd: Vd, vs2: Vs2, imm: Simm5, vm: Vm);
    "vmsleu.vi"  OPIVI.f6(0b011100) => VectorMask VCmpVI { cond: VCmp::Leu } (vd: Vd, vs2: Vs2, imm: Simm5, vm: Vm);
    "vmsle.vi"   OPIVI.f6(0b011101) => VectorMask VCmpVI { cond: VCmp::Le } (vd: Vd, vs2: Vs2, imm: Simm5, vm: Vm);
    "vmsgtu.vi"  OPIVI.f6(0b011110) => VectorMask VCmpVI { cond: VCmp::Gtu } (vd: Vd, vs2: Vs2, imm: Simm5, vm: Vm);
    "vmsgt.vi"   OPIVI.f6(0b011111) => VectorMask VCmpVI { cond: VCmp::Gt } (vd: Vd, vs2: Vs2, imm: Simm5, vm: Vm);
    "vmerge.vvm" OPIVV.f6(0b010111).vm(0) => VectorAlu VMergeVVM {} (vd: Vd, vs2: Vs2, vs1: Vs1; V0);
    "vmerge.vxm" OPIVX.f6(0b010111).vm(0) => VectorAlu VMergeVXM {} (vd: Vd, vs2: Vs2, rs1: Xs1; V0);
    "vmerge.vim" OPIVI.f6(0b010111).vm(0) => VectorAlu VMergeVIM {} (vd: Vd, vs2: Vs2, imm: Simm5; V0);
    "vmv.v.v"    OPIVV.f6(0b010111).vm(1).vs2(0) => VectorAlu VMvVV {} (vd: Vd, vs1: Vs1);
    "vmv.v.x"    OPIVX.f6(0b010111).vm(1).vs2(0) => VectorAlu VMvVX {} (vd: Vd, rs1: Xs1);
    "vmv.v.i"    OPIVI.f6(0b010111).vm(1).vs2(0) => VectorAlu VMvVI {} (vd: Vd, imm: Simm5);
    "vmv.s.x"    OPMVX.f6(0b010000).vm(1).vs2(0) => VectorAlu VMvSX {} (vd: Vd, rs1: Xs1);
    "vmv.x.s"    OPMVV.f6(0b010000).vm(1).vs1(0b00000) => VectorAlu VMvXS {} (rd: Xd, vs2: Vs2);
    "vslideup.vx"    OPIVX.f6(0b001110) => VectorPerm VSlideUpVX {} (vd: Vd, vs2: Vs2, rs1: Xs1, vm: Vm);
    "vslideup.vi"    OPIVI.f6(0b001110) => VectorPerm VSlideUpVI {} (vd: Vd, vs2: Vs2, uimm: Uimm5, vm: Vm);
    "vslidedown.vx"  OPIVX.f6(0b001111) => VectorPerm VSlideDownVX {} (vd: Vd, vs2: Vs2, rs1: Xs1, vm: Vm);
    "vslidedown.vi"  OPIVI.f6(0b001111) => VectorPerm VSlideDownVI {} (vd: Vd, vs2: Vs2, uimm: Uimm5, vm: Vm);
    "vslide1up.vx"   OPMVX.f6(0b001110) => VectorPerm VSlide1Up {} (vd: Vd, vs2: Vs2, rs1: Xs1, vm: Vm);
    "vslide1down.vx" OPMVX.f6(0b001111) => VectorPerm VSlide1Down {} (vd: Vd, vs2: Vs2, rs1: Xs1, vm: Vm);
    "vrgather.vv"    OPIVV.f6(0b001100) => VectorPerm VRGatherVV {} (vd: Vd, vs2: Vs2, vs1: Vs1, vm: Vm);
    "vrgather.vx"    OPIVX.f6(0b001100) => VectorPerm VRGatherVX {} (vd: Vd, vs2: Vs2, rs1: Xs1, vm: Vm);
    "vcompress.vm"   OPMVV.f6(0b010111).vm(1) => VectorPerm VCompress {} (vd: Vd, vs2: Vs2, vs1: Vs1);
    "vmandn.mm"  OPMVV.f6(0b011000).vm(1) => VectorMask VMaskLogic { op: MaskOp::Andn } (vd: Vd, vs2: Vs2, vs1: Vs1);
    "vmand.mm"   OPMVV.f6(0b011001).vm(1) => VectorMask VMaskLogic { op: MaskOp::And } (vd: Vd, vs2: Vs2, vs1: Vs1);
    "vmor.mm"    OPMVV.f6(0b011010).vm(1) => VectorMask VMaskLogic { op: MaskOp::Or } (vd: Vd, vs2: Vs2, vs1: Vs1);
    "vmxor.mm"   OPMVV.f6(0b011011).vm(1) => VectorMask VMaskLogic { op: MaskOp::Xor } (vd: Vd, vs2: Vs2, vs1: Vs1);
    "vmorn.mm"   OPMVV.f6(0b011100).vm(1) => VectorMask VMaskLogic { op: MaskOp::Orn } (vd: Vd, vs2: Vs2, vs1: Vs1);
    "vmnand.mm"  OPMVV.f6(0b011101).vm(1) => VectorMask VMaskLogic { op: MaskOp::Nand } (vd: Vd, vs2: Vs2, vs1: Vs1);
    "vmnor.mm"   OPMVV.f6(0b011110).vm(1) => VectorMask VMaskLogic { op: MaskOp::Nor } (vd: Vd, vs2: Vs2, vs1: Vs1);
    "vmxnor.mm"  OPMVV.f6(0b011111).vm(1) => VectorMask VMaskLogic { op: MaskOp::Xnor } (vd: Vd, vs2: Vs2, vs1: Vs1);
    // VWXUNARY0 and VMUNARY0 select the operation in the vs1 field.
    "vcpop.m"    OPMVV.f6(0b010000).vs1(0b10000) => VectorMask VCpop {} (rd: Xd, vs2: Vs2, vm: Vm);
    "vfirst.m"   OPMVV.f6(0b010000).vs1(0b10001) => VectorMask VFirst {} (rd: Xd, vs2: Vs2, vm: Vm);
    "vmsbf.m"    OPMVV.f6(0b010100).vs1(0b00001) => VectorMask VMsbf {} (vd: Vd, vs2: Vs2, vm: Vm);
    "vmsof.m"    OPMVV.f6(0b010100).vs1(0b00010) => VectorMask VMsof {} (vd: Vd, vs2: Vs2, vm: Vm);
    "vmsif.m"    OPMVV.f6(0b010100).vs1(0b00011) => VectorMask VMsif {} (vd: Vd, vs2: Vs2, vm: Vm);
    "viota.m"    OPMVV.f6(0b010100).vs1(0b10000) => VectorMask VIota {} (vd: Vd, vs2: Vs2, vm: Vm);
    "vid.v"      OPMVV.f6(0b010100).vs1(0b10001).vs2(0) => VectorMask VId {} (vd: Vd, vm: Vm);
    "vredsum.vs"  OPMVV.f6(0b000000) => VectorRed VRed { op: VRedOp::Sum } (vd: Vd, vs2: Vs2, vs1: Vs1, vm: Vm);
    "vredand.vs"  OPMVV.f6(0b000001) => VectorRed VRed { op: VRedOp::And } (vd: Vd, vs2: Vs2, vs1: Vs1, vm: Vm);
    "vredor.vs"   OPMVV.f6(0b000010) => VectorRed VRed { op: VRedOp::Or } (vd: Vd, vs2: Vs2, vs1: Vs1, vm: Vm);
    "vredxor.vs"  OPMVV.f6(0b000011) => VectorRed VRed { op: VRedOp::Xor } (vd: Vd, vs2: Vs2, vs1: Vs1, vm: Vm);
    "vredminu.vs" OPMVV.f6(0b000100) => VectorRed VRed { op: VRedOp::Minu } (vd: Vd, vs2: Vs2, vs1: Vs1, vm: Vm);
    "vredmin.vs"  OPMVV.f6(0b000101) => VectorRed VRed { op: VRedOp::Min } (vd: Vd, vs2: Vs2, vs1: Vs1, vm: Vm);
    "vredmaxu.vs" OPMVV.f6(0b000110) => VectorRed VRed { op: VRedOp::Maxu } (vd: Vd, vs2: Vs2, vs1: Vs1, vm: Vm);
    "vredmax.vs"  OPMVV.f6(0b000111) => VectorRed VRed { op: VRedOp::Max } (vd: Vd, vs2: Vs2, vs1: Vs1, vm: Vm);

    "vle{}.v"    LOAD_FP.mop(0b00).vs2(0b00000) => VectorMem VLoad {} (eew: Eew, vd: Vd, rs1: Base, vm: Vm);
    "vlse{}.v"   LOAD_FP.mop(0b10) => VectorMem VLoadStrided {} (eew: Eew, vd: Vd, rs1: Base, rs2: Xs2, vm: Vm);
    "vluxei{}.v" LOAD_FP.mop(0b01) => VectorMem VLoadIndexed { ordered: UNORDERED } (eew: Eew, vd: Vd, rs1: Base, vs2: Vs2, vm: Vm);
    "vloxei{}.v" LOAD_FP.mop(0b11) => VectorMem VLoadIndexed { ordered: ORDERED } (eew: Eew, vd: Vd, rs1: Base, vs2: Vs2, vm: Vm);
    "vl{}re8.v"  VL_WHOLE => VectorMem VLoadWhole {} (nregs: Nregs, vd: Vd, rs1: Base);
    "vlm.v"      VL_MASK => VectorMem VLoadMask {} (vd: Vd, rs1: Base);
    "vse{}.v"    STORE_FP.mop(0b00).vs2(0b00000) => VectorMem VStore {} (eew: Eew, vs3: Vd, rs1: Base, vm: Vm);
    "vsse{}.v"   STORE_FP.mop(0b10) => VectorMem VStoreStrided {} (eew: Eew, vs3: Vd, rs1: Base, rs2: Xs2, vm: Vm);
    "vsuxei{}.v" STORE_FP.mop(0b01) => VectorMem VStoreIndexed { ordered: UNORDERED } (eew: Eew, vs3: Vd, rs1: Base, vs2: Vs2, vm: Vm);
    "vsoxei{}.v" STORE_FP.mop(0b11) => VectorMem VStoreIndexed { ordered: ORDERED } (eew: Eew, vs3: Vd, rs1: Base, vs2: Vs2, vm: Vm);
    "vs{}r.v"    VS_WHOLE => VectorMem VStoreWhole {} (nregs: Nregs, vs3: Vd, rs1: Base);
    "vsm.v"      VS_MASK => VectorMem VStoreMask {} (vs3: Vd, rs1: Base);
}

fn pad(vals: &[i64]) -> Operands {
    let mut out = [0; MAX_OPERANDS];
    out[..vals.len()].copy_from_slice(vals);
    out
}

const fn str_eq(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    if a.len() != b.len() {
        return false;
    }
    let mut i = 0;
    while i < a.len() {
        if a[i] != b[i] {
            return false;
        }
        i += 1;
    }
    true
}

/// Index of the row with this mnemonic (evaluated at compile time).
const fn position(mnemonic: &str) -> usize {
    let mut i = 0;
    while !str_eq(ROWS[i].mnemonic, mnemonic) {
        i += 1;
    }
    i
}

const fn is_vector_opcode(bits: u32) -> bool {
    let op = bits & 0x7f;
    op == OP_V.bits || op == LOAD_FP.bits || op == STORE_FP.bits
}

/// For each major opcode, the range of its rows in [`ROWS`].
const BY_OPCODE: [(u16, u16); 128] = {
    let mut t = [(0, 0); 128];
    let mut i = 0;
    while i < ROWS.len() {
        let op = (ROWS[i].bits & 0x7f) as usize;
        if t[op].1 == 0 {
            t[op] = (i as u16, i as u16 + 1);
        } else {
            assert!(
                t[op].1 as usize == i,
                "rows of one opcode must be contiguous"
            );
            t[op].1 += 1;
        }
        i += 1;
    }
    t
};

/// The row whose fixed bits a word matches.
pub(crate) fn row_for_word(w: u32) -> Option<&'static Row> {
    let (lo, hi) = BY_OPCODE[(w & 0x7f) as usize];
    ROWS[lo as usize..hi as usize]
        .iter()
        .find(|r| w & r.mask == r.bits)
}

/// The row a mnemonic names, and the text of the operand written inside
/// the mnemonic (if the row has one).
pub(crate) fn row_for_mnemonic(m: &str) -> Option<(&'static Row, &str)> {
    ROWS.iter().find_map(|r| match r.mnemonic.split_once("{}") {
        None => (r.mnemonic == m).then_some((r, "")),
        Some((pre, post)) => m
            .strip_prefix(pre)
            .and_then(|t| t.strip_suffix(post))
            .filter(|t| !t.is_empty())
            .map(|t| (r, t)),
    })
}

/// For each selector value of the given `Instr` variant, the index of its
/// row, if the ISA has one.
pub(crate) const fn rows_of<const N: usize>(variant: &str) -> [Option<usize>; N] {
    let mut t = [None; N];
    let mut i = 0;
    while i < ROWS.len() {
        if str_eq(ROWS[i].variant, variant) {
            t[ROWS[i].selectors[0] as usize] = Some(i);
        }
        i += 1;
    }
    t
}

/// For each selector, does its row exist under the `OPMVV` funct3 space?
pub(crate) const fn under_opm<const N: usize>(rows: [Option<usize>; N]) -> [bool; N] {
    let mut t = [false; N];
    let mut s = 0;
    while s < N {
        if let Some(r) = rows[s] {
            t[s] = ROWS[r].bits & OPMVV.mask == OPMVV.bits;
        }
        s += 1;
    }
    t
}

/// For each selector, does its row exist and take an operand of this kind?
pub(crate) const fn takes<const N: usize>(rows: [Option<usize>; N], kind: Kind) -> [bool; N] {
    let mut t = [false; N];
    let mut s = 0;
    while s < N {
        if let Some(r) = rows[s] {
            let ops = ROWS[r].operands;
            let mut i = 0;
            while i < ops.len() {
                t[s] |= ops[i] as u8 == kind as u8;
                i += 1;
            }
        }
        s += 1;
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_word_matches_two_rows() {
        for (i, a) in ROWS.iter().enumerate() {
            for b in &ROWS[i + 1..] {
                let both = a.mask & b.mask;
                assert_ne!(
                    a.bits & both,
                    b.bits & both,
                    "{} and {} both match {:#010x}",
                    a.mnemonic,
                    b.mnemonic,
                    a.bits | b.bits
                );
            }
        }
    }

    #[test]
    fn fixed_bits_and_operand_fields_tile_the_word() {
        for r in ROWS {
            assert_eq!(r.bits & !r.mask, 0, "{}: bits outside the mask", r.mnemonic);
            let mut seen = r.mask;
            for k in r.operands {
                assert_eq!(seen & k.field(), 0, "{}: {k:?} overlaps", r.mnemonic);
                seen |= k.field();
            }
            assert_eq!(
                seen,
                u32::MAX,
                "{}: bits {:#010x} unaccounted",
                r.mnemonic,
                !seen
            );
        }
    }

    #[test]
    fn mnemonics_are_unique_and_rows_of_a_variant_share_a_class() {
        for (i, a) in ROWS.iter().enumerate() {
            for b in &ROWS[i + 1..] {
                assert_ne!(a.mnemonic, b.mnemonic);
                if a.variant == b.variant {
                    assert_eq!(a.class, b.class, "{} vs {}", a.mnemonic, b.mnemonic);
                }
            }
            assert!(a.operands.len() <= MAX_OPERANDS, "{}", a.mnemonic);
        }
    }
}
