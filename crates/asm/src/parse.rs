//! Textual assembler: parse standard RISC-V assembly (the same syntax the
//! disassembler prints) into a [`Program`].
//!
//! This module is the line layer; each instruction's mnemonic and operands
//! are parsed by [`rvv_isa::Instr::parse`] from the ISA's instruction table.
//! Supported grammar, line-oriented:
//!
//! * `# comment` and `// comment` to end of line;
//! * `label:` definitions (a leading bare hex address followed by `:` — as
//!   produced by the disassembler — is skipped);
//! * every instruction of the modelled subset, in the mnemonic syntax of
//!   [`rvv_isa::Instr`]'s `Display` (e.g. `vadd.vv v8, v8, v9, v0.t`,
//!   `vsetvli x13, x10, e32, m1, ta, mu`, `lw x5, 8(x11)`);
//! * branch/jump targets as numeric byte offsets *or* label names.
//!
//! The key invariant, property-tested against every generated kernel:
//! `parse(program.to_string()) == program`.

use rvv_isa::Instr;
use rvv_sim::Program;
use std::collections::HashMap;
use std::fmt;

/// A parse failure, with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(line: usize, msg: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        line,
        msg: msg.into(),
    })
}

/// Parse an assembly listing into a program.
pub fn parse_program(name: impl Into<String>, source: &str) -> Result<Program, ParseError> {
    // First pass: strip comments, record each label's instruction index,
    // and keep each instruction's text with its line number.
    let mut labels: HashMap<&str, usize> = HashMap::new();
    let mut lines: Vec<(usize, &str)> = Vec::new();
    for (idx, raw) in source.lines().enumerate() {
        let line = idx + 1;
        let text = raw.split('#').next().unwrap_or("");
        let mut rest = text.split("//").next().unwrap_or("").trim();
        // Leading labels (and disassembler addresses like `1c:`): any
        // leading whitespace-delimited token ending in ':' is one.
        while let Some(head) = rest
            .split_whitespace()
            .next()
            .and_then(|t| t.strip_suffix(':'))
        {
            let is_addr = !head.is_empty() && head.chars().all(|c| c.is_ascii_hexdigit());
            if !is_addr && labels.insert(head, lines.len()).is_some() {
                return err(line, format!("label `{head}` defined twice"));
            }
            rest = rest[head.len() + 1..].trim_start();
        }
        if !rest.is_empty() {
            lines.push((line, rest));
        }
    }

    // Second pass: parse each instruction, resolving labels to byte offsets
    // from it; control flow must land on an instruction or the end.
    let end = lines.len() as i64 * 4;
    let mut instrs = Vec::with_capacity(lines.len());
    for (at, &(line, text)) in lines.iter().enumerate() {
        let here = at as i64 * 4;
        let label = |l: &str| labels.get(l).map(|&t| t as i64 * 4 - here);
        let i = Instr::parse(text, label).map_err(|e| ParseError {
            line,
            msg: e.to_string(),
        })?;
        if let Instr::Branch { offset, .. } | Instr::Jal { offset, .. } = i {
            let target = here + offset as i64;
            if target < 0 || target > end || target % 4 != 0 {
                return err(
                    line,
                    format!("branch offset {offset} lands outside the program"),
                );
            }
        }
        instrs.push(i);
    }
    Ok(Program::new(name, instrs))
}
