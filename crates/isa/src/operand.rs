//! Operand kinds: each knows its bit field, its legal range and its text
//! form, so the instruction table only has to name them.
//!
//! Operand values travel between the table and [`crate::Instr`] fields as
//! `i64` (register numbers, immediates, the `vm` bit, `vtype` bits, CSR
//! addresses, element widths in bits and register counts); [`Field`]
//! converts each `Instr` field type to and from that form.

use crate::{EncodeError, ParseInstrError, Sew, VCsr, VReg, VType, XReg};
use core::fmt;

/// One operand slot of an instruction row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// x-register in the `rd` field (bits 11:7).
    Xd,
    /// x-register in the `rs1` field (bits 19:15).
    Xs1,
    /// x-register in the `rs2` field (bits 24:20).
    Xs2,
    /// v-register in the `vd`/`vs3` field (bits 11:7).
    Vd,
    /// v-register in the `vs1` field (bits 19:15).
    Vs1,
    /// v-register in the `vs2` field (bits 24:20).
    Vs2,
    /// The `vm` bit (25); written `, v0.t` when clear.
    Vm,
    /// The literal mask operand `v0` of `vmerge` (no field of its own).
    V0,
    /// Sign-extended 5-bit immediate in bits 19:15.
    Simm5,
    /// Zero-extended 5-bit immediate in bits 19:15.
    Uimm5,
    /// I-type 12-bit signed immediate (bits 31:20).
    Imm12,
    /// RV64 shift amount (bits 25:20).
    Shamt,
    /// S-type 12-bit signed store offset (bits 31:25 and 11:7).
    OffS,
    /// B-type branch offset: even, 13-bit signed; text may name a label.
    OffB,
    /// J-type jump offset: even, 21-bit signed; text may name a label.
    OffJ,
    /// U-type upper immediate (bits 31:12), written in hex.
    Imm20,
    /// Address register `(xN)` in the `rs1` field.
    Base,
    /// `vsetvli` vtype immediate (bits 30:20).
    Vtype11,
    /// `vsetivli` vtype immediate (bits 29:20).
    Vtype10,
    /// Vector CSR address (bits 31:20), written by name.
    Csr,
    /// Vector memory element width (bits 14:12), written in the mnemonic.
    Eew,
    /// Whole-register count (`nf`, bits 31:29), written in the mnemonic.
    Nregs,
}

use Kind::*;

fn sext(raw: u32, bits: u32) -> i64 {
    (((raw << (32 - bits)) as i32) >> (32 - bits)) as i64
}

fn sew(bits: i64) -> Option<Sew> {
    Sew::ALL.into_iter().find(|s| s.bits() as i64 == bits)
}

fn syntax(msg: String) -> ParseInstrError {
    ParseInstrError::Syntax(msg)
}

/// An integer literal: optional `-`, then decimal or `0x` hex.
fn int(s: &str) -> Result<i64, ParseInstrError> {
    let (neg, t) = s.strip_prefix('-').map_or((false, s), |t| (true, t));
    let v = match t.strip_prefix("0x") {
        Some(h) => i64::from_str_radix(h, 16),
        None => t.parse(),
    };
    v.map(|v| if neg { -v } else { v })
        .map_err(|_| syntax(format!("expected integer, got `{s}`")))
}

fn reg(prefix: char, s: &str) -> Result<i64, ParseInstrError> {
    let n: u8 = s
        .strip_prefix(prefix)
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| syntax(format!("expected {prefix}-register, got `{s}`")))?;
    if n < 32 {
        Ok(n.into())
    } else {
        Err(syntax(format!("register {s} out of range")))
    }
}

fn vtype(s: &str) -> Result<i64, ParseInstrError> {
    let parts: Vec<&str> = s.split(',').collect();
    let [e, m, t, ma] = parts[..] else {
        return Err(syntax("expected `eN, mN, t?, m?` vtype operands".into()));
    };
    let sew = Sew::ALL
        .into_iter()
        .find(|x| x.to_string() == e)
        .ok_or_else(|| syntax(format!("bad SEW `{e}`")))?;
    let lmul = crate::Lmul::ALL_WITH_FRACTIONAL
        .into_iter()
        .find(|x| x.to_string() == m)
        .ok_or_else(|| syntax(format!("bad LMUL `{m}`")))?;
    let policy = |s: &str, agnostic: &str, undisturbed: &str, what: &str| match s {
        _ if s == agnostic => Ok(true),
        _ if s == undisturbed => Ok(false),
        _ => Err(syntax(format!("bad {what} policy `{s}`"))),
    };
    let ta = policy(t, "ta", "tu", "tail")?;
    let ma = policy(ma, "ma", "mu", "mask")?;
    Ok(VType { sew, lmul, ta, ma }.to_bits() as i64)
}

impl Kind {
    /// The instruction bits this operand occupies.
    pub(crate) const fn field(self) -> u32 {
        match self {
            Xd | Vd => 0x1f << 7,
            Xs1 | Vs1 | Base | Simm5 | Uimm5 => 0x1f << 15,
            Xs2 | Vs2 => 0x1f << 20,
            Vm => 1 << 25,
            V0 => 0,
            Imm12 | Csr => 0xfff << 20,
            Shamt => 0x3f << 20,
            OffS | OffB => 0xfe00_0f80,
            OffJ | Imm20 => 0xffff_f000,
            Vtype11 => 0x7ff << 20,
            Vtype10 => 0x3ff << 20,
            Eew => 0x7 << 12,
            Nregs => 0x7 << 29,
        }
    }

    /// Is the operand written inside the mnemonic (`vle32.v`, `vl4re8.v`)?
    pub(crate) fn in_mnemonic(self) -> bool {
        matches!(self, Eew | Nregs)
    }

    /// Extract the operand from an instruction word, or say why the field
    /// holds no legal value.
    pub(crate) fn get(self, w: u32) -> Result<i64, &'static str> {
        let f = self.field();
        // A field-less operand (`V0`) reads as 0.
        let raw = (w & f).checked_shr(f.trailing_zeros()).unwrap_or(0);
        Ok(match self {
            Simm5 => sext(raw, 5),
            Imm12 => sext(raw, 12),
            Imm20 => sext(raw, 20),
            OffS => sext((w >> 25) << 5 | (w >> 7) & 0x1f, 12),
            OffB => sext(
                (w >> 31) << 12 | (w >> 7 & 1) << 11 | (w >> 25 & 0x3f) << 5 | (w >> 8 & 0xf) << 1,
                13,
            ),
            OffJ => sext(
                (w >> 31) << 20
                    | (w >> 12 & 0xff) << 12
                    | (w >> 20 & 1) << 11
                    | (w >> 21 & 0x3ff) << 1,
                21,
            ),
            Vtype11 | Vtype10 => VType::from_bits(raw.into())
                .ok_or("reserved vtype")?
                .to_bits() as i64,
            Csr => VCsr::from_addr(raw).ok_or("unsupported CSR")?.addr().into(),
            Eew => Sew::from_mem_width_bits(raw)
                .ok_or("unsupported vector memory width")?
                .bits()
                .into(),
            Nregs => match raw {
                0 | 1 | 3 | 7 => raw as i64 + 1,
                _ => return Err("whole-register count must be 1/2/4/8"),
            },
            _ => raw.into(),
        })
    }

    /// Range-check the operand and place it in its field.
    pub(crate) fn put(self, v: i64) -> Result<u32, EncodeError> {
        let fits = |lo: i64, hi: i64, field| {
            if (lo..=hi).contains(&v) {
                Ok(())
            } else {
                Err(EncodeError::ImmOutOfRange { field, value: v })
            }
        };
        let even = || {
            if v % 2 == 0 {
                Ok(())
            } else {
                Err(EncodeError::MisalignedOffset(v))
            }
        };
        let u = v as u32;
        let raw = match self {
            Simm5 => fits(-16, 15, "simm5").map(|()| u & 0x1f)?,
            Uimm5 => fits(0, 31, "uimm5").map(|()| u)?,
            Imm12 => fits(-2048, 2047, "imm12").map(|()| u & 0xfff)?,
            Shamt => fits(0, 63, "shamt").map(|()| u)?,
            Imm20 => fits(-(1 << 19), (1 << 19) - 1, "imm20").map(|()| u & 0xfffff)?,
            OffS => {
                fits(-2048, 2047, "store offset")?;
                return Ok((u >> 5 & 0x7f) << 25 | (u & 0x1f) << 7);
            }
            OffB => {
                even()?;
                fits(-4096, 4094, "branch offset")?;
                return Ok((u >> 12 & 1) << 31
                    | (u >> 5 & 0x3f) << 25
                    | (u >> 1 & 0xf) << 8
                    | (u >> 11 & 1) << 7);
            }
            OffJ => {
                even()?;
                fits(-(1 << 20), (1 << 20) - 1, "jal offset")?;
                return Ok((u >> 20 & 1) << 31
                    | (u >> 1 & 0x3ff) << 21
                    | (u >> 11 & 1) << 20
                    | (u >> 12 & 0xff) << 12);
            }
            Eew => sew(v).map_or(0, Sew::mem_width_bits),
            Nregs => match v {
                1 | 2 | 4 | 8 => u - 1,
                _ => return Err(EncodeError::InvalidWholeRegCount(v as u8)),
            },
            V0 => return Ok(0),
            // Registers, `vm`, vtype and CSR values come from typed fields
            // or from a checked parse, so they always fit.
            _ => u,
        };
        Ok(raw << self.field().trailing_zeros())
    }

    /// The text that separates this operand from the one before it.
    pub(crate) fn sep(self, prev: Option<Kind>) -> &'static str {
        match (prev, self) {
            (_, Vm) | (Some(Imm12 | OffS), Base) => "",
            (None, _) => " ",
            _ => ", ",
        }
    }

    /// Write the operand's text form (`Vm` includes its separator).
    pub(crate) fn fmt(self, v: i64, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Xd | Xs1 | Xs2 => write!(f, "x{v}"),
            Vd | Vs1 | Vs2 => write!(f, "v{v}"),
            Base => write!(f, "(x{v})"),
            Vm => f.write_str(if v == 0 { ", v0.t" } else { "" }),
            V0 => f.write_str("v0"),
            Imm20 => write!(f, "{:#x}", v as i32),
            Vtype11 | Vtype10 => write!(f, "{}", VType::from_val(v)),
            Csr => f.write_str(VCsr::from_val(v).name()),
            _ => write!(f, "{v}"),
        }
    }

    /// Parse the operand's text form. `label` resolves a branch or jump
    /// target name to a byte offset from the instruction.
    pub(crate) fn parse(
        self,
        s: &str,
        label: &dyn Fn(&str) -> Option<i64>,
    ) -> Result<i64, ParseInstrError> {
        match self {
            Xd | Xs1 | Xs2 => reg('x', s),
            Vd | Vs1 | Vs2 => reg('v', s),
            Base => match s.strip_prefix('(').and_then(|t| t.strip_suffix(')')) {
                Some(r) => reg('x', r),
                None => Err(syntax(format!("expected `(reg)`, got `{s}`"))),
            },
            V0 if s == "v0" => Ok(0),
            V0 | Vm => Err(syntax(format!("expected `v0`, got `{s}`"))),
            OffB | OffJ if s.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_') => {
                label(s).ok_or_else(|| syntax(format!("unknown label `{s}`")))
            }
            // Display writes negative upper immediates as 32-bit two's
            // complement.
            Imm20 => int(s).map(|v| {
                if (1 << 31..1 << 32).contains(&v) {
                    v - (1 << 32)
                } else {
                    v
                }
            }),
            Vtype11 | Vtype10 => vtype(s),
            Csr => VCsr::TABLE
                .iter()
                .find(|c| c.2 == s)
                .map(|c| c.1.into())
                .ok_or_else(|| syntax(format!("unsupported CSR `{s}`"))),
            Eew => match s.parse().ok().and_then(sew) {
                Some(e) => Ok(e.bits().into()),
                None => Err(syntax(format!("bad element width `{s}`"))),
            },
            Nregs => s
                .parse::<u8>()
                .map(i64::from)
                .map_err(|_| syntax(format!("bad whole-register count `{s}`"))),
            _ => int(s),
        }
    }
}

/// An [`crate::Instr`] field type, as an operand value.
pub(crate) trait Field: Copy {
    fn to_val(self) -> i64;
    /// Only called with values an operand kind produced or checked.
    fn from_val(v: i64) -> Self;
}

impl Field for XReg {
    fn to_val(self) -> i64 {
        self.num().into()
    }
    fn from_val(v: i64) -> Self {
        XReg::new(v as u8)
    }
}

impl Field for VReg {
    fn to_val(self) -> i64 {
        self.num().into()
    }
    fn from_val(v: i64) -> Self {
        VReg::new(v as u8)
    }
}

impl Field for bool {
    fn to_val(self) -> i64 {
        self.into()
    }
    fn from_val(v: i64) -> Self {
        v != 0
    }
}

macro_rules! int_field {
    ($($t:ty),*) => {$(
        impl Field for $t {
            fn to_val(self) -> i64 {
                self.into()
            }
            fn from_val(v: i64) -> Self {
                v as $t
            }
        }
    )*};
}
int_field!(i8, u8, i32);

impl Field for VType {
    fn to_val(self) -> i64 {
        self.to_bits() as i64
    }
    fn from_val(v: i64) -> Self {
        VType::from_bits(v as u64).expect("operand kinds only produce legal vtypes")
    }
}

impl Field for VCsr {
    fn to_val(self) -> i64 {
        self.addr().into()
    }
    fn from_val(v: i64) -> Self {
        VCsr::from_addr(v as u32).expect("operand kinds only produce known CSRs")
    }
}

impl Field for Sew {
    fn to_val(self) -> i64 {
        self.bits().into()
    }
    fn from_val(v: i64) -> Self {
        sew(v).expect("operand kinds only produce legal element widths")
    }
}
