//! Assembly text: `Display` for [`Instr`] and its inverse, [`Instr::parse`],
//! both driven by the instruction table.
//!
//! An instruction is its row's mnemonic (with the EEW or register count
//! filled in, as in `vle32.v` or `vl4re8.v`), then its operands in text
//! order separated by `, ` — except that an address register follows its
//! offset directly (`8(x11)`) and a mask operand is the trailing `, v0.t`.

use crate::operand::Kind;
use crate::table::{self, Operands};
use crate::{EncodeError, Instr};
use core::fmt;

/// Error produced when assembly text is not an instruction of the subset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseInstrError {
    /// No row has this mnemonic, or an operand is malformed.
    Syntax(String),
    /// The instruction is well formed but the encoder rejects it (an
    /// immediate out of range, a misaligned offset, …).
    Encode(EncodeError),
}

impl fmt::Display for ParseInstrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseInstrError::Syntax(msg) => f.write_str(msg),
            ParseInstrError::Encode(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ParseInstrError {}

impl From<EncodeError> for ParseInstrError {
    fn from(e: EncodeError) -> Self {
        ParseInstrError::Encode(e)
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // A variant/selector combination with no row has no text form.
        let Some((row, vals)) = table::lookup(self) else {
            return write!(f, "{self:?}");
        };
        let ops = || row.operands.iter().zip(vals);
        match row.mnemonic.split_once("{}") {
            Some((pre, post)) => {
                f.write_str(pre)?;
                for (k, v) in ops().filter(|(k, _)| k.in_mnemonic()) {
                    k.fmt(v, f)?;
                }
                f.write_str(post)?;
            }
            None => f.write_str(row.mnemonic)?,
        }
        let mut prev = None;
        for (&k, v) in ops().filter(|(k, _)| !k.in_mnemonic()) {
            f.write_str(k.sep(prev))?;
            k.fmt(v, f)?;
            prev = Some(k);
        }
        Ok(())
    }
}

impl Instr {
    /// Parse one instruction in the syntax `Display` prints, e.g.
    /// `vadd.vv v8, v8, v9, v0.t` or `lw x5, 8(x11)`. `label` resolves a
    /// branch or jump target name to a byte offset from this instruction.
    ///
    /// # Errors
    /// A [`ParseInstrError::Syntax`] for an unknown mnemonic or malformed
    /// operand; a [`ParseInstrError::Encode`] with the encoder's reason for
    /// an instruction that does not encode (so `vadd.vi v1, v2, 257` is an
    /// error, not a truncated immediate).
    pub fn parse(
        text: &str,
        label: impl Fn(&str) -> Option<i64>,
    ) -> Result<Instr, ParseInstrError> {
        let text = text.trim();
        let (mnemonic, rest) = text.split_once(char::is_whitespace).unwrap_or((text, ""));
        let (row, inner) = table::row_for_mnemonic(mnemonic)
            .ok_or_else(|| ParseInstrError::Syntax(format!("unknown mnemonic `{mnemonic}`")))?;
        let compact: String = rest.chars().filter(|c| !c.is_whitespace()).collect();
        let mut cursor = compact.as_str();
        let mut vals: Operands = Default::default();
        let mut prev = None;
        for (&k, v) in row.operands.iter().zip(&mut vals) {
            *v = if k.in_mnemonic() {
                k.parse(inner, &label)?
            } else if k == Kind::Vm {
                match cursor.strip_suffix(",v0.t") {
                    Some(c) => {
                        cursor = c;
                        0
                    }
                    None => 1,
                }
            } else {
                if k.sep(prev) == ", " {
                    cursor = cursor.strip_prefix(',').ok_or_else(|| {
                        ParseInstrError::Syntax(format!("`{mnemonic}` is missing operands"))
                    })?;
                }
                prev = Some(k);
                let end = match k {
                    Kind::Vtype11 | Kind::Vtype10 => cursor.len(),
                    Kind::Base => cursor.find(')').map_or(cursor.len(), |i| i + 1),
                    _ => cursor.find([',', '(']).unwrap_or(cursor.len()),
                };
                let (token, tail) = cursor.split_at(end);
                cursor = tail;
                k.parse(token, &label)?
            };
            k.put(*v)?;
        }
        if !cursor.is_empty() {
            return Err(ParseInstrError::Syntax(format!(
                "unexpected `{cursor}` after the operands of `{mnemonic}`"
            )));
        }
        Ok((row.build)(&vals))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operand_count_mismatches_are_reported() {
        let err = |t: &str| Instr::parse(t, |_| None).unwrap_err().to_string();
        assert!(err("add x1, x2").contains("missing"));
        assert!(err("add x1, x2, x3, x4").contains("unexpected"));
        assert!(err("vcompress.vm v1, v2, v3, v0.t").contains("unexpected"));
    }
}
