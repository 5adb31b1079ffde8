//! 32-bit binary instruction encoding.
//!
//! Follows the RISC-V unprivileged specification (RV64IM) and the RVV 1.0
//! specification. Field layouts:
//!
//! * Vector arithmetic (`OP-V`, opcode `1010111`):
//!   `funct6[31:26] vm[25] vs2[24:20] vs1/rs1/imm[19:15] funct3[14:12]
//!   vd[11:7]`.
//! * Vector loads (`LOAD-FP`, opcode `0000111`) and stores (`STORE-FP`,
//!   `0100111`): `nf[31:29] mew[28] mop[27:26] vm[25] lumop/rs2/vs2[24:20]
//!   rs1[19:15] width[14:12] vd/vs3[11:7]`.
//!
//! [`encode`] validates operand forms (e.g. there is no `vsub.vi`: the
//! instruction table has no such row) and immediate ranges, so a successful
//! encoding is a well-formed instruction.

use crate::table;
use crate::Instr;
use core::fmt;

/// Error produced when an [`Instr`] cannot be encoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// An immediate operand does not fit its field.
    ImmOutOfRange {
        /// Which field overflowed.
        field: &'static str,
        /// The offending value.
        value: i64,
    },
    /// A branch/jump offset is not a multiple of 2 (all our instructions are
    /// 4-byte, so in practice offsets are multiples of 4).
    MisalignedOffset(i64),
    /// The requested operand form does not exist (e.g. `vsub.vi`).
    InvalidForm(&'static str),
    /// Whole-register move count must be 1, 2, 4, or 8.
    InvalidWholeRegCount(u8),
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::ImmOutOfRange { field, value } => {
                write!(f, "immediate {value} does not fit field {field}")
            }
            EncodeError::MisalignedOffset(v) => write!(f, "misaligned control-flow offset {v}"),
            EncodeError::InvalidForm(m) => write!(f, "instruction form does not exist: {m}"),
            EncodeError::InvalidWholeRegCount(n) => {
                write!(f, "whole-register count must be 1/2/4/8, got {n}")
            }
        }
    }
}

impl std::error::Error for EncodeError {}

/// Encode one instruction to its 32-bit binary form: its table row's fixed
/// bits plus each operand placed in its field.
///
/// # Errors
/// Returns an error for out-of-range immediates, misaligned control-flow
/// offsets, and operand forms that do not exist in the ISA.
pub fn encode(instr: &Instr) -> Result<u32, EncodeError> {
    let (row, vals) = table::lookup(instr).ok_or(EncodeError::InvalidForm(
        "no instruction row has this variant and selector",
    ))?;
    row.operands
        .iter()
        .zip(vals)
        .try_fold(row.bits, |w, (k, v)| Ok(w | k.put(v)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AluOp, BranchCond, Lmul, MemWidth, Sew, VAluOp, VCmp, VReg, VType, XReg};

    /// Reference encodings cross-checked by hand against the RISC-V
    /// unprivileged spec / standard assembler output.
    #[test]
    fn known_scalar_encodings() {
        // addi x0, x0, 0 == canonical NOP == 0x00000013.
        let nop = Instr::OpImm {
            op: AluOp::Add,
            rd: XReg::ZERO,
            rs1: XReg::ZERO,
            imm: 0,
        };
        assert_eq!(encode(&nop).unwrap(), 0x0000_0013);
        // add x1, x2, x3 -> 0x003100b3.
        let add = Instr::Op {
            op: AluOp::Add,
            rd: XReg::new(1),
            rs1: XReg::new(2),
            rs2: XReg::new(3),
        };
        assert_eq!(encode(&add).unwrap(), 0x0031_00b3);
        // sub x5, x6, x7 -> 0x407302b3.
        let sub = Instr::Op {
            op: AluOp::Sub,
            rd: XReg::new(5),
            rs1: XReg::new(6),
            rs2: XReg::new(7),
        };
        assert_eq!(encode(&sub).unwrap(), 0x4073_02b3);
        // ld x10, 8(x2) -> 0x00813503.
        let ld = Instr::Load {
            width: MemWidth::D,
            signed: true,
            rd: XReg::new(10),
            rs1: XReg::SP,
            offset: 8,
        };
        assert_eq!(encode(&ld).unwrap(), 0x0081_3503);
        // sw x11, -4(x2) -> 0xfeb12e23.
        let sw = Instr::Store {
            width: MemWidth::W,
            rs2: XReg::new(11),
            rs1: XReg::SP,
            offset: -4,
        };
        assert_eq!(encode(&sw).unwrap(), 0xfeb1_2e23);
        // ecall -> 0x00000073, ebreak -> 0x00100073.
        assert_eq!(encode(&Instr::Ecall).unwrap(), 0x0000_0073);
        assert_eq!(encode(&Instr::Ebreak).unwrap(), 0x0010_0073);
        // beq x0, x0, -4 -> 0xfe000ee3.
        let b = Instr::Branch {
            cond: BranchCond::Eq,
            rs1: XReg::ZERO,
            rs2: XReg::ZERO,
            offset: -4,
        };
        assert_eq!(encode(&b).unwrap(), 0xfe00_0ee3);
        // jal x0, 8 -> 0x0080006f.
        let j = Instr::Jal {
            rd: XReg::ZERO,
            offset: 8,
        };
        assert_eq!(encode(&j).unwrap(), 0x0080_006f);
    }

    #[test]
    #[allow(clippy::unusual_byte_groupings)] // literals grouped by instruction field
    fn known_vector_encodings() {
        // vsetvli x13, x10, e32, m1, ta, mu
        // zimm = 0b0_1101_0000 = 0xd0 -> insn 0x0d057697... let's verify by fields:
        // imm[30:20]=0x0d0, rs1=10 (0b01010), funct3=111, rd=13 (0b01101), opc=1010111.
        let i = Instr::Vsetvli {
            rd: XReg::new(13),
            rs1: XReg::new(10),
            vtype: VType::new(Sew::E32, Lmul::M1),
        };
        let w = encode(&i).unwrap();
        assert_eq!(w & 0x7f, 0b1010111);
        assert_eq!((w >> 7) & 0x1f, 13);
        assert_eq!((w >> 12) & 0x7, 0b111);
        assert_eq!((w >> 15) & 0x1f, 10);
        assert_eq!(w >> 20, 0b101_0000); // vtype bits, top bit 31 clear
                                         // vadd.vv v8, v8, v9 (unmasked): funct6=0, vm=1, vs2=8, vs1=9, f3=000, vd=8.
        let i = Instr::VOpVV {
            op: VAluOp::Add,
            vd: VReg::new(8),
            vs2: VReg::new(8),
            vs1: VReg::new(9),
            vm: true,
        };
        let w = encode(&i).unwrap();
        assert_eq!(w, 0b000000_1_01000_01001_000_01000_1010111);
        // vle32.v v8, (x11): nf=0,mew=0,mop=00,vm=1,lumop=0,rs1=11,width=110,vd=8,opc=0000111.
        let i = Instr::VLoad {
            eew: Sew::E32,
            vd: VReg::new(8),
            rs1: XReg::new(11),
            vm: true,
        };
        let w = encode(&i).unwrap();
        assert_eq!(w, 0b000_0_00_1_00000_01011_110_01000_0000111);
        // viota.m v4, v0 unmasked: funct6=010100, vm=1, vs2=0, vs1=10000, f3=010, vd=4.
        let i = Instr::VIota {
            vd: VReg::new(4),
            vs2: VReg::V0,
            vm: true,
        };
        let w = encode(&i).unwrap();
        assert_eq!(w, 0b010100_1_00000_10000_010_00100_1010111);
    }

    #[test]
    fn invalid_forms_are_rejected() {
        let bad = Instr::VOpVI {
            op: VAluOp::Sub,
            vd: VReg::new(1),
            vs2: VReg::new(2),
            imm: 1,
            vm: true,
        };
        assert!(matches!(encode(&bad), Err(EncodeError::InvalidForm(_))));
        let bad = Instr::VOpVV {
            op: VAluOp::Rsub,
            vd: VReg::new(1),
            vs2: VReg::new(2),
            vs1: VReg::new(3),
            vm: true,
        };
        assert!(matches!(encode(&bad), Err(EncodeError::InvalidForm(_))));
        let bad = Instr::VCmpVV {
            cond: VCmp::Gt,
            vd: VReg::new(1),
            vs2: VReg::new(2),
            vs1: VReg::new(3),
            vm: true,
        };
        assert!(matches!(encode(&bad), Err(EncodeError::InvalidForm(_))));
        let bad = Instr::OpImm {
            op: AluOp::Sub,
            rd: XReg::new(1),
            rs1: XReg::new(1),
            imm: 1,
        };
        assert!(matches!(encode(&bad), Err(EncodeError::InvalidForm(_))));
    }

    #[test]
    fn range_checks() {
        let bad = Instr::OpImm {
            op: AluOp::Add,
            rd: XReg::new(1),
            rs1: XReg::new(1),
            imm: 4096,
        };
        assert!(matches!(
            encode(&bad),
            Err(EncodeError::ImmOutOfRange { .. })
        ));
        let bad = Instr::VOpVI {
            op: VAluOp::Add,
            vd: VReg::new(1),
            vs2: VReg::new(2),
            imm: 16,
            vm: true,
        };
        assert!(matches!(
            encode(&bad),
            Err(EncodeError::ImmOutOfRange { .. })
        ));
        let ok = Instr::VOpVI {
            op: VAluOp::Srl,
            vd: VReg::new(1),
            vs2: VReg::new(2),
            imm: 31,
            vm: true,
        };
        assert!(encode(&ok).is_ok());
        let bad = Instr::Branch {
            cond: BranchCond::Eq,
            rs1: XReg::ZERO,
            rs2: XReg::ZERO,
            offset: 3,
        };
        assert!(matches!(
            encode(&bad),
            Err(EncodeError::MisalignedOffset(_))
        ));
        let bad = Instr::VLoadWhole {
            nregs: 3,
            vd: VReg::new(8),
            rs1: XReg::new(1),
        };
        assert!(matches!(
            encode(&bad),
            Err(EncodeError::InvalidWholeRegCount(_))
        ));
    }
}
