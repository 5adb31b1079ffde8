//! The text assembler against the instruction encoding: it accepts exactly
//! the instructions the encoder accepts.

use rvv_asm::parse_program;

/// Lines naming an operand form the ISA does not have, or an immediate its
/// field cannot hold, are parse errors carrying the line number and the
/// reason — never silently truncated or accepted.
#[test]
fn instructions_the_encoder_rejects_do_not_parse() {
    let cases = [
        ("vsub.vi v1, v2, 3", "vsub.vi"),
        ("vrsub.vv v1, v2, v3", "vrsub.vv"),
        ("vmsgt.vv v1, v2, v3", "vmsgt.vv"),
        (
            "vl3re8.v v8, (x1)",
            "whole-register count must be 1/2/4/8, got 3",
        ),
        ("addi x1, x1, 4096", "immediate 4096 does not fit"),
        ("lui x1, 0x100000", "immediate 1048576 does not fit"),
        ("vadd.vi v1, v2, 257", "immediate 257 does not fit"),
        (
            "vsetivli x1, 300, e32, m1, ta, mu",
            "immediate 300 does not fit",
        ),
        ("vslideup.vi v1, v2, -1", "immediate -1 does not fit"),
    ];
    for (bad, reason) in cases {
        let src = format!("addi x1, x0, 1\n{bad}\necall\n");
        let err = parse_program("bad", &src).expect_err(bad);
        assert_eq!(err.line, 2, "{bad}: {err}");
        assert!(err.msg.contains(reason), "{bad}: {err}");
    }
}

/// The edges of the ranges above still parse, including the negative
/// `lui` immediate the disassembler writes in two's-complement hex.
#[test]
fn in_range_immediates_parse() {
    let src = "addi x1, x1, 2047\naddi x1, x1, -2048\nlui x7, 0xffffffff\nlui x7, 0x7ffff\n\
               vadd.vi v1, v2, -16\nvsll.vi v1, v2, 31\nvsetivli x1, 31, e32, m1, ta, mu\n\
               vslideup.vi v1, v2, 31\nvl8re8.v v8, (x1)\n";
    let p = parse_program("ok", src).unwrap();
    assert_eq!(p.instrs.len(), 9);
    assert_eq!(p.instrs[2].to_string(), "lui x7, 0xffffffff");
    let back = parse_program("ok", &p.to_string()).unwrap();
    assert_eq!(back.instrs, p.instrs);
}

/// Disassembly parses back to the same instruction for every decodable
/// word with one fixed destination field (bits 11:7), plus `ecall` and
/// `ebreak`: the text form of every instruction row, over all its other
/// operand values. Branches and jumps are kept only when their target stays
/// inside the one-line program.
#[test]
fn every_decodable_word_parses_back_from_its_disassembly() {
    use rvv_isa::{decode, Instr};
    use std::sync::atomic::{AtomicU64, Ordering};
    const RD: u32 = 5;
    let checked = AtomicU64::new(0);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(8)) as u32;
    let check = |w: u32| {
        let Ok(i) = decode(w) else { return };
        if let Instr::Branch { offset, .. } | Instr::Jal { offset, .. } = i {
            if offset != 0 && offset != 4 {
                return;
            }
        }
        let text = format!("{i}\n");
        let p = parse_program("w", &text).unwrap_or_else(|e| panic!("{w:#010x} `{i}`: {e}"));
        assert_eq!(p.instrs, [i], "{w:#010x} `{i}`");
        checked.fetch_add(1, Ordering::Relaxed);
    };
    std::thread::scope(|s| {
        for t in 0..threads {
            s.spawn(move || {
                // Bits 31:12 and 6:0 vary; bits 11:7 are fixed.
                for x in (t..1 << 27).step_by(threads as usize) {
                    check(((x >> 7) << 12) | (RD << 7) | (x & 0x7f));
                }
            });
        }
    });
    check(0x0000_0073);
    check(0x0010_0073);
    let checked = checked.into_inner();
    println!("{checked} words parse back");
    assert_eq!(checked, 4_721_001);
}
