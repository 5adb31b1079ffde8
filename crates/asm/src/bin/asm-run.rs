//! `asm-run` — assemble-and-execute for the modelled RV64IM+RVV subset.
//!
//! Takes a textual assembly file (the syntax `dump_kernels` prints and
//! `rvv_asm::parse_program` accepts, labels included), runs it on the
//! simulator, and reports dynamic instruction counts.
//!
//! ```text
//! asm-run program.s [--vlen 1024] [--mem-mib 64] [--a0 N] .. [--a7 N]
//!                   [--emit program.bin] [--dump-u32 ADDR COUNT]
//! ```

use rvv_asm::parse_program;
use rvv_isa::{InstrClass, XReg};
use rvv_sim::{Machine, MachineConfig, DEFAULT_FUEL};

fn usage() -> ! {
    eprintln!(
        "usage: asm-run <program.s> [--vlen N] [--mem-mib N] [--a0 N] .. [--a7 N] \
         [--emit FILE] [--dump-u32 ADDR COUNT]"
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
    let mut emit: Option<String> = None;
    let mut dump: Option<(u64, usize)> = None;
    let parse = |s: &str| -> u64 {
        if let Some(hex) = s.strip_prefix("0x") {
            u64::from_str_radix(hex, 16).unwrap_or_else(|_| usage())
        } else {
            s.parse().unwrap_or_else(|_| usage())
        }
    };
    let mut i = 1;
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
            "--emit" => {
                emit = Some(args[i + 1].clone());
                i += 2;
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

    let src = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("asm-run: cannot read {path}: {e}");
        std::process::exit(1);
    });
    let program = parse_program(path.clone(), &src).unwrap_or_else(|e| {
        eprintln!("asm-run: {path}:{e}");
        std::process::exit(1);
    });
    if let Some(out) = emit {
        let bytes = program.assemble().unwrap_or_else(|e| {
            eprintln!("asm-run: encode failed: {e}");
            std::process::exit(1);
        });
        std::fs::write(&out, bytes).unwrap_or_else(|e| {
            eprintln!("asm-run: cannot write {out}: {e}");
            std::process::exit(1);
        });
        println!("wrote {out} ({} bytes)", program.len() * 4);
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
            eprintln!("asm-run: trap: {e}");
            std::process::exit(1);
        }
    }
}
