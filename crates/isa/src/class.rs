//! Instruction classification for the simulator's dynamic-instruction
//! histogram.
//!
//! The paper's metric is Spike's total dynamic instruction count; the
//! per-class breakdown lets the benches report *where* instructions go
//! (e.g. how much of an LMUL=8 run is spill memory traffic).

use crate::Instr;
use core::fmt;

/// Coarse instruction class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum InstrClass {
    /// Scalar ALU (including `lui`/`auipc`).
    ScalarAlu,
    /// Scalar loads and stores.
    ScalarMem,
    /// Branches, jumps, and system instructions.
    ScalarCtrl,
    /// `vsetvli`/`vsetivli`/`vsetvl`.
    VectorCfg,
    /// Vector integer arithmetic, moves, and merges.
    VectorAlu,
    /// Vector loads and stores (including whole-register spill traffic).
    VectorMem,
    /// Mask manipulation (`viota`, `vcpop`, `vmsbf`, compares, `vm*.mm`, …).
    VectorMask,
    /// Permutation (slides, gather, compress).
    VectorPerm,
    /// Reductions.
    VectorRed,
}

impl InstrClass {
    /// Every class, in display order.
    pub const ALL: [InstrClass; 9] = [
        InstrClass::ScalarAlu,
        InstrClass::ScalarMem,
        InstrClass::ScalarCtrl,
        InstrClass::VectorCfg,
        InstrClass::VectorAlu,
        InstrClass::VectorMem,
        InstrClass::VectorMask,
        InstrClass::VectorPerm,
        InstrClass::VectorRed,
    ];

    /// Classify an instruction: the class of its variant's table rows.
    #[inline]
    pub const fn of(instr: &Instr) -> InstrClass {
        crate::table::class_of(instr)
    }

    /// Stable index into [`InstrClass::ALL`] (for histogram arrays).
    pub const fn index(self) -> usize {
        match self {
            InstrClass::ScalarAlu => 0,
            InstrClass::ScalarMem => 1,
            InstrClass::ScalarCtrl => 2,
            InstrClass::VectorCfg => 3,
            InstrClass::VectorAlu => 4,
            InstrClass::VectorMem => 5,
            InstrClass::VectorMask => 6,
            InstrClass::VectorPerm => 7,
            InstrClass::VectorRed => 8,
        }
    }

    /// Short label for reports.
    pub const fn label(self) -> &'static str {
        match self {
            InstrClass::ScalarAlu => "scalar-alu",
            InstrClass::ScalarMem => "scalar-mem",
            InstrClass::ScalarCtrl => "scalar-ctrl",
            InstrClass::VectorCfg => "vector-cfg",
            InstrClass::VectorAlu => "vector-alu",
            InstrClass::VectorMem => "vector-mem",
            InstrClass::VectorMask => "vector-mask",
            InstrClass::VectorPerm => "vector-perm",
            InstrClass::VectorRed => "vector-red",
        }
    }
}

impl fmt::Display for InstrClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AluOp, Sew, VAluOp, VReg, XReg};

    #[test]
    fn indices_are_consistent() {
        for (i, c) in InstrClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn classify_samples() {
        let add = Instr::Op {
            op: AluOp::Add,
            rd: XReg::new(1),
            rs1: XReg::new(2),
            rs2: XReg::new(3),
        };
        assert_eq!(InstrClass::of(&add), InstrClass::ScalarAlu);
        let vle = Instr::VLoad {
            eew: Sew::E32,
            vd: VReg::new(8),
            rs1: XReg::new(10),
            vm: true,
        };
        assert_eq!(InstrClass::of(&vle), InstrClass::VectorMem);
        let viota = Instr::VIota {
            vd: VReg::new(4),
            vs2: VReg::V0,
            vm: true,
        };
        assert_eq!(InstrClass::of(&viota), InstrClass::VectorMask);
        let slide = Instr::VSlideUpVX {
            vd: VReg::new(8),
            vs2: VReg::new(16),
            rs1: XReg::new(5),
            vm: true,
        };
        assert_eq!(InstrClass::of(&slide), InstrClass::VectorPerm);
        let vadd = Instr::VOpVV {
            op: VAluOp::Add,
            vd: VReg::new(8),
            vs2: VReg::new(9),
            vs1: VReg::new(10),
            vm: true,
        };
        assert_eq!(InstrClass::of(&vadd), InstrClass::VectorAlu);
        assert_eq!(InstrClass::of(&Instr::Ecall), InstrClass::ScalarCtrl);
    }
}
