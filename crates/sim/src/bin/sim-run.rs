//! `sim-run` — a Spike-like command-line front end for the simulator.
//!
//! Executes a flat binary of RV64IM+RVV machine code (as produced by
//! `Program::assemble` or any assembler targeting the modelled subset) and
//! reports the dynamic instruction counts the paper's methodology is built
//! on.
//!
//! ```text
//! sim-run program.bin [--vlen 1024] [--mem-mib 64] [--a0 N] .. [--a7 N]
//!                     [--disasm] [--dump-u32 ADDR COUNT]
//! ```
//!
//! The program's `a0..a7` are set from the flags, `sp` points at the top of
//! memory, and execution ends at `ecall`. Exit prints the total retired
//! instructions, the per-class histogram, and `a0`.

use rvv_isa::{InstrClass, XReg};
use rvv_sim::{Machine, MachineConfig, Program, DEFAULT_FUEL};

fn usage() -> ! {
    eprintln!(
        "usage: sim-run <program.bin> [--vlen N] [--mem-mib N] [--a0 N] .. [--a7 N] \
         [--disasm] [--dump-u32 ADDR COUNT]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let path = &args[0];
    let mut vlen = 1024u32;
    let mut mem_mib = 64usize;
    let mut regs: Vec<(u8, u64)> = Vec::new();
    let mut disasm = false;
    let mut dump: Option<(u64, usize)> = None;
    let mut i = 1;
    let parse = |s: &str| -> u64 {
        if let Some(hex) = s.strip_prefix("0x") {
            u64::from_str_radix(hex, 16).unwrap_or_else(|_| usage())
        } else {
            s.parse().unwrap_or_else(|_| usage())
        }
    };
    while i < args.len() {
        match args[i].as_str() {
            "--vlen" => {
                vlen = parse(&args[i + 1]) as u32;
                i += 2;
            }
            "--mem-mib" => {
                mem_mib = parse(&args[i + 1]) as usize;
                i += 2;
            }
            "--disasm" => {
                disasm = true;
                i += 1;
            }
            "--dump-u32" => {
                dump = Some((parse(&args[i + 1]), parse(&args[i + 2]) as usize));
                i += 3;
            }
            a if a.starts_with("--a") => {
                let n: u8 = a[3..].parse().unwrap_or_else(|_| usage());
                if n >= 8 {
                    usage();
                }
                regs.push((n, parse(&args[i + 1])));
                i += 2;
            }
            _ => usage(),
        }
    }

    let bytes = std::fs::read(path).unwrap_or_else(|e| {
        eprintln!("sim-run: cannot read {path}: {e}");
        std::process::exit(1);
    });
    let program = Program::from_machine_code(path.clone(), &bytes).unwrap_or_else(|e| {
        eprintln!("sim-run: {e}");
        std::process::exit(1);
    });
    if disasm {
        print!("{program}");
    }

    let mut m = Machine::new(MachineConfig {
        vlen,
        mem_bytes: mem_mib << 20,
    });
    for &(n, v) in &regs {
        m.set_xreg(XReg::arg(n), v);
    }
    m.set_xreg(XReg::SP, (mem_mib as u64) << 20);

    match m.run(&program, DEFAULT_FUEL) {
        Ok(report) => {
            println!("halted at pc {:#x}", report.halt_pc);
            println!("retired: {}", report.retired);
            for c in InstrClass::ALL {
                let n = m.counters.class(c);
                if n > 0 {
                    println!("  {:12} {}", c.label(), n);
                }
            }
            println!("a0 = {:#x}", m.xreg(XReg::arg(0)));
            if let Some((addr, count)) = dump {
                println!("mem[{addr:#x}..]: {:?}", m.mem.read_u32_slice(addr, count));
            }
        }
        Err(e) => {
            eprintln!("sim-run: trap: {e}");
            std::process::exit(1);
        }
    }
}
