//! # rvv-fault — deterministic fault injection for the scan-vector stack
//!
//! The paper's headline anomaly (LMUL=8 spills making kernels *slower*) was
//! found because Spike surfaces pathological configurations faithfully; this
//! crate makes our reproduction equally trustworthy at the edges. It
//! provides:
//!
//! * [`FaultPlan`] — a seeded description of *which* faults to
//!   inject *where*, derived from `(seed, job_index)` with the workspace's
//!   one seeded stream, [`rvv_ckpt::XorShift64`] (no `rand` dependency
//!   anywhere near the injection path). [`FaultPlan::arm`] is the one way
//!   to arm a plan on an environment: it guards the plan's heap regions
//!   and attaches a [`rvv_sim::FaultHook`] that fires the other faults at
//!   exact instruction/access ordinals, identically on every run-loop
//!   tier.
//! * [`ServeFault`] and [`StorageFault`] — the same keyed draws for the
//!   sweep service's per-job chaos and the storage-chaos matrix.
//! * [`chaos`] — a differential harness that runs the eight scan-vector
//!   algorithms under injected faults on **both** engines and checks the
//!   no-panic / no-divergence / clean-recovery contract.
//!
//! ## Determinism contract
//!
//! A fault plan is a pure function of `(seed, job_index)`. The armed hook
//! decides from its own ordinal counters — never wall clock, never host
//! state — and the run loops consult it at identical points (see
//! `rvv_sim::FaultHook`). Consequently a faulted run is exactly as
//! reproducible as an unfaulted one: same trap, same instruction, same
//! counters, on every engine, at every thread count, on every rerun.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;

use rvv_ckpt::XorShift64;
use rvv_isa::{decode, encode, Instr};
use rvv_sim::{FaultAction, FaultHook, MemAccess, SimError};
use scanvec::{ScanEnv, HEAP_BASE};
use std::fmt;

// -------------------------------------------------------------- faults --

/// One armed fault. Ordinals (`nth`, `after`) are 1-based and count the
/// same quantity on both engines (see each variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Trap the `nth` memory-*read* instruction with
    /// [`SimError::InjectedFault`] (`what = "read"`).
    ReadFault {
        /// 1-based ordinal among read instructions.
        nth: u64,
    },
    /// Trap the `nth` memory-*write* instruction with
    /// [`SimError::InjectedFault`] (`what = "write"`).
    WriteFault {
        /// 1-based ordinal among write instructions.
        nth: u64,
    },
    /// Trap with [`SimError::InjectedFault`] (`what = "fuel"`) once `after`
    /// instructions have been consulted — starvation at a precise,
    /// engine-independent point (the run loop's own fuel counts per
    /// *launch*; this counts across the whole hook lifetime, i.e. per
    /// job). Deliberately *not* [`SimError::FuelExhausted`]: that variant
    /// is reserved for the run loop itself, which is what lets the
    /// environment's watchdog rewrite distinguish a crossed budget line
    /// from an injected starvation fault.
    FuelCut {
        /// Instructions allowed before the cut.
        after: u64,
    },
    /// Flip bit `bit` of the `nth` instruction's 32-bit encoding. If the
    /// corrupted word still decodes, the decoded instruction executes in
    /// place of the original; if not, the fetch traps with
    /// [`SimError::IllegalInstruction`] carrying the corrupted word.
    BitFlip {
        /// 1-based instruction ordinal.
        nth: u64,
        /// Bit position, `0..32`.
        bit: u8,
    },
    /// Force the `nth` fetch to see a reserved (undecodable) opcode:
    /// traps with [`SimError::IllegalInstruction`] carrying `encoding`.
    Reserved {
        /// 1-based instruction ordinal.
        nth: u64,
        /// The reserved word (verified undecodable at derive time).
        encoding: u32,
    },
    /// Arm a guard region at `offset` bytes into the device heap, `len`
    /// bytes long. Not a hook-level fault — [`FaultPlan::arm`] arms it on
    /// the environment's memory before launching; kernels that stray into
    /// it trap with [`SimError::GuardHit`].
    GuardRegion {
        /// Byte offset from the heap base.
        offset: u64,
        /// Guard length in bytes.
        len: u64,
    },
}

impl Fault {
    /// The absolute address range a [`Fault::GuardRegion`] arms, given the
    /// heap base address; `None` for every other variant.
    fn guard_range(&self, heap_base: u64) -> Option<std::ops::Range<u64>> {
        match self {
            Fault::GuardRegion { offset, len } => {
                let start = heap_base.saturating_add(*offset);
                Some(start..start.saturating_add(*len))
            }
            _ => None,
        }
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::ReadFault { nth } => write!(f, "read@{nth}"),
            Fault::WriteFault { nth } => write!(f, "write@{nth}"),
            Fault::FuelCut { after } => write!(f, "fuel@{after}"),
            Fault::BitFlip { nth, bit } => write!(f, "bitflip@{nth}.{bit}"),
            Fault::Reserved { nth, encoding } => write!(f, "reserved@{nth}:{encoding:#010x}"),
            Fault::GuardRegion { offset, len } => write!(f, "guard@{offset}+{len}"),
        }
    }
}

// --------------------------------------------------------------- plans --

/// A seeded fault schedule for one job.
///
/// Derive one per job with [`FaultPlan::derive`] — every plan is a pure
/// function of `(seed, job_index)`. Its `Display` form names the faults
/// (`read@17;guard@4096+64`, or `none`), for manifests and logs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// The armed faults, in derivation order.
    pub faults: Vec<Fault>,
}

/// Ordinals are drawn **log-uniformly** in `[1, 2^15]`: the eight
/// workloads retire anywhere from ~700 (spmv at small n) to ~130 000
/// (seg_quicksort) instructions, so a uniform draw would overshoot the
/// small ones almost always. Log-uniform puts half the draws below ~180 —
/// inside every workload — while still occasionally arming past the end
/// (a valid "fault never fires" scenario).
fn log_uniform(rng: &mut XorShift64, max_exp: u64) -> u64 {
    let e = rng.below(max_exp + 1);
    1 + rng.below(1u64 << e)
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Derive the plan for `job_index` under `seed`: one fault always, a
    /// second with probability 1/4, kinds and ordinals drawn from
    /// xorshift64* keyed by the pair.
    pub fn derive(seed: u64, job_index: u64) -> FaultPlan {
        let mut rng = XorShift64::from_pair(seed, job_index);
        let count = if rng.below(4) == 0 { 2 } else { 1 };
        let mut faults = Vec::with_capacity(count);
        for _ in 0..count {
            faults.push(Self::draw(&mut rng));
        }
        FaultPlan { faults }
    }

    fn draw(rng: &mut XorShift64) -> Fault {
        match rng.below(6) {
            0 => Fault::ReadFault {
                nth: log_uniform(rng, 13),
            },
            1 => Fault::WriteFault {
                nth: log_uniform(rng, 12),
            },
            2 => Fault::FuelCut {
                after: log_uniform(rng, 15),
            },
            3 => Fault::BitFlip {
                nth: log_uniform(rng, 15),
                bit: rng.below(32) as u8,
            },
            4 => {
                // Draw candidate words until one fails to decode (almost
                // every random word does; bound the loop for determinism
                // paranoia and fall back to the all-ones word, which is
                // not a valid encoding in the modelled subset).
                let mut encoding = 0xffff_ffff;
                for _ in 0..8 {
                    let w = rng.next_u64() as u32;
                    if decode(w).is_err() {
                        encoding = w;
                        break;
                    }
                }
                Fault::Reserved {
                    nth: log_uniform(rng, 15),
                    encoding,
                }
            }
            _ => Fault::GuardRegion {
                // Cache-line aligned offset within the first 64 KiB of
                // heap — where small-n chaos workloads actually allocate,
                // so an armed guard has a real chance of being hit.
                offset: rng.below(1 << 10) * 64,
                len: 64 * (1 + rng.below(4)),
            },
        }
    }

    /// Arm this plan on `env` for one attempt: its guard regions over the
    /// device heap, and a fault hook for everything else. The
    /// environment's reset between attempts clears both, so a job arms
    /// its plan in the setup that runs before each attempt.
    pub fn arm(&self, env: &mut ScanEnv) {
        for fault in &self.faults {
            if let Some(range) = fault.guard_range(HEAP_BASE) {
                env.machine_mut().mem.add_guard(range);
            }
        }
        env.attach_fault_hook(Box::new(ArmedFaults::new(self)));
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.faults.is_empty() {
            return write!(f, "none");
        }
        for (i, fault) in self.faults.iter().enumerate() {
            if i > 0 {
                write!(f, ";")?;
            }
            write!(f, "{fault}")?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------- serve chaos --

/// One submission's chaos decisions for the serve loop, derived like
/// everything else here as a pure function of `(seed, ordinal)`.
///
/// The serve layer's load-shedding, latency, and failure handling are all
/// timing-sensitive paths that genuine load exercises only racily; a
/// seeded `ServeFault` per accepted job drives them deterministically
/// instead — the same seed sheds the same submissions, delays the same
/// jobs, and injects the same machine faults on every run, so chaos-run
/// shed/retry counts are exactly reproducible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeFault {
    /// Refuse this submission as if the queue were full (~1 in 8): the
    /// client sees the same 429 + Retry-After path genuine overload takes.
    pub shed: bool,
    /// Milliseconds of artificial service delay before the job runs
    /// (~1 in 4 draws 1..=20 ms, the rest 0): exercises deadline and
    /// drain paths.
    pub latency_ms: u64,
    /// Machine-level faults injected into the job itself (~1 in 6 get a
    /// non-empty plan): exercises the retry/backoff and failure-reporting
    /// paths.
    pub plan: FaultPlan,
}

impl ServeFault {
    /// No chaos at all.
    pub fn none() -> ServeFault {
        ServeFault {
            shed: false,
            latency_ms: 0,
            plan: FaultPlan::none(),
        }
    }

    /// The chaos decisions for the `ordinal`th accepted submission under
    /// `seed`. Pure function of its arguments, keyed like
    /// [`FaultPlan::derive`].
    pub fn derive(seed: u64, ordinal: u64) -> ServeFault {
        let mut rng = XorShift64::from_pair(seed ^ 0x5e7e_fa11, ordinal);
        let shed = rng.below(8) == 0;
        let latency_ms = if rng.below(4) == 0 {
            1 + rng.below(20)
        } else {
            0
        };
        let plan = if rng.below(6) == 0 {
            FaultPlan::derive(seed, ordinal)
        } else {
            FaultPlan::none()
        };
        ServeFault {
            shed,
            latency_ms,
            plan,
        }
    }
}

// -------------------------------------------------------- storage chaos --

/// What a storage-chaos case does to a journal (or its backend).
///
/// The first three are *file surgery* — applied to journal bytes between
/// a kill and a resume, standing in for bit rot and torn writes at rest.
/// [`StorageFaultKind::LyingFsync`] is a *backend* behaviour (fsyncs that
/// report success without persisting), driven through the chaos storage
/// backend rather than byte editing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageFaultKind {
    /// Flip one bit of an interior record's payload.
    BitflipRecord,
    /// Flip one bit of an interior record's length prefix.
    BitflipLength,
    /// Truncate the journal mid-record (a torn tail).
    TornTail,
    /// Run the writer over a backend whose fsyncs sometimes lie, then
    /// crash it.
    LyingFsync,
}

impl StorageFaultKind {
    /// All kinds, in matrix order — the ablation iterates this.
    pub const ALL: [StorageFaultKind; 4] = [
        StorageFaultKind::BitflipRecord,
        StorageFaultKind::BitflipLength,
        StorageFaultKind::TornTail,
        StorageFaultKind::LyingFsync,
    ];

    fn name(self) -> &'static str {
        match self {
            StorageFaultKind::BitflipRecord => "bitflip-record",
            StorageFaultKind::BitflipLength => "bitflip-length",
            StorageFaultKind::TornTail => "torn-tail",
            StorageFaultKind::LyingFsync => "lying-fsync",
        }
    }
}

impl fmt::Display for StorageFaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// One storage-chaos case: a fault kind plus seeded skews that pick the
/// exact victim. `record_skew` selects which interior record (the harness
/// takes it modulo the count of eligible records); `byte_skew` selects
/// the byte/bit within it (modulo the record's size). Pure function of
/// `(seed, case)` via [`StorageFault::derive`], keyed like
/// [`FaultPlan::derive`] — the same seed corrupts the same byte of the
/// same record on every run, which is what makes post-salvage digests
/// comparable across worker counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageFault {
    /// What to do.
    pub kind: StorageFaultKind,
    /// Selects the victim record (harness maps it into range).
    pub record_skew: u64,
    /// Selects the victim byte and bit (harness maps it into range).
    pub byte_skew: u64,
}

impl StorageFault {
    /// The storage fault for matrix cell `case` under `seed`.
    pub fn derive(seed: u64, case: u64) -> StorageFault {
        let mut rng = XorShift64::from_pair(seed ^ 0x5c7b_fa11, case);
        let kind = StorageFaultKind::ALL[rng.below(StorageFaultKind::ALL.len() as u64) as usize];
        StorageFault {
            kind,
            record_skew: rng.next_u64(),
            byte_skew: rng.next_u64(),
        }
    }
}

impl fmt::Display for StorageFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}@r{:#x}.b{:#x}",
            self.kind, self.record_skew, self.byte_skew
        )
    }
}

// ---------------------------------------------------------------- hook --

/// A [`FaultHook`] firing the faults of one [`FaultPlan`].
///
/// Purely ordinal-driven: it counts consulted instructions and memory
/// read/write instructions, and fires each armed fault the moment its
/// ordinal comes up. [`FaultPlan::arm`] attaches one per job attempt —
/// the counters are the job's, not the launch's, so a fault can fire in
/// any kernel the job launches.
#[derive(Debug, Clone)]
struct ArmedFaults {
    faults: Vec<Fault>,
    instrs: u64,
    reads: u64,
    writes: u64,
}

impl ArmedFaults {
    /// Arm `plan`'s faults ([`Fault::GuardRegion`] entries are ignored
    /// here — [`FaultPlan::arm`] arms those on the environment's memory).
    fn new(plan: &FaultPlan) -> ArmedFaults {
        ArmedFaults {
            faults: plan.faults.clone(),
            instrs: 0,
            reads: 0,
            writes: 0,
        }
    }
}

impl FaultHook for ArmedFaults {
    fn before(&mut self, pc: u64, instr: &Instr, mem: Option<&MemAccess>) -> FaultAction {
        self.instrs += 1;
        if let Some(m) = mem {
            if m.store {
                self.writes += 1;
            } else {
                self.reads += 1;
            }
        }
        for f in &self.faults {
            match *f {
                Fault::ReadFault { nth } => {
                    if mem.is_some_and(|m| !m.store) && self.reads == nth {
                        return FaultAction::Trap(SimError::InjectedFault {
                            what: "read",
                            seq: nth,
                        });
                    }
                }
                Fault::WriteFault { nth } => {
                    if mem.is_some_and(|m| m.store) && self.writes == nth {
                        return FaultAction::Trap(SimError::InjectedFault {
                            what: "write",
                            seq: nth,
                        });
                    }
                }
                Fault::FuelCut { after } => {
                    if self.instrs > after {
                        return FaultAction::Trap(SimError::InjectedFault {
                            what: "fuel",
                            seq: after,
                        });
                    }
                }
                Fault::BitFlip { nth, bit } => {
                    if self.instrs == nth {
                        // Corrupt the real encoding. Instructions that have
                        // no binary encoding cannot be corrupted in flight —
                        // pass (deterministically: encodability depends only
                        // on the instruction).
                        let Ok(word) = encode(instr) else {
                            continue;
                        };
                        let corrupted = word ^ (1u32 << bit);
                        return match decode(corrupted) {
                            Ok(replacement) => FaultAction::Replace(replacement),
                            Err(_) => FaultAction::Trap(SimError::IllegalInstruction {
                                pc,
                                encoding: corrupted,
                            }),
                        };
                    }
                }
                Fault::Reserved { nth, encoding } => {
                    if self.instrs == nth {
                        return FaultAction::Trap(SimError::IllegalInstruction { pc, encoding });
                    }
                }
                Fault::GuardRegion { .. } => {}
            }
        }
        FaultAction::Pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_derive_deterministically() {
        for job in 0..64 {
            assert_eq!(FaultPlan::derive(42, job), FaultPlan::derive(42, job));
        }
        // Different jobs under one seed should not all share a plan.
        let distinct: std::collections::HashSet<String> = (0..64)
            .map(|j| FaultPlan::derive(42, j).to_string())
            .collect();
        assert!(
            distinct.len() > 16,
            "only {} distinct plans",
            distinct.len()
        );
    }

    #[test]
    fn plans_display_as_their_faults() {
        assert_eq!(FaultPlan::none().to_string(), "none");
        let plan = FaultPlan {
            faults: vec![
                Fault::ReadFault { nth: 3 },
                Fault::Reserved {
                    nth: 1,
                    encoding: 0xffff_ffff,
                },
                Fault::GuardRegion {
                    offset: 128,
                    len: 64,
                },
            ],
        };
        assert_eq!(
            plan.to_string(),
            "read@3;reserved@1:0xffffffff;guard@128+64"
        );
    }

    #[test]
    fn reserved_words_do_not_decode() {
        for seed in 0..64u64 {
            for f in FaultPlan::derive(seed, 0).faults {
                if let Fault::Reserved { encoding, .. } = f {
                    assert!(decode(encoding).is_err(), "{encoding:#010x} decodes");
                }
            }
        }
    }

    #[test]
    fn serve_faults_are_deterministic_and_mixed() {
        for ordinal in 0..32 {
            assert_eq!(
                ServeFault::derive(11, ordinal),
                ServeFault::derive(11, ordinal)
            );
        }
        let draws: Vec<ServeFault> = (0..256).map(|o| ServeFault::derive(3, o)).collect();
        let sheds = draws.iter().filter(|f| f.shed).count();
        let delayed = draws.iter().filter(|f| f.latency_ms > 0).count();
        let faulted = draws.iter().filter(|f| !f.plan.faults.is_empty()).count();
        // Loose distribution checks: each knob fires sometimes, none
        // dominates. (Exact rates are the PRNG's business.)
        assert!((8..=80).contains(&sheds), "sheds={sheds}");
        assert!((20..=140).contains(&delayed), "delayed={delayed}");
        assert!(faulted >= 8, "faulted={faulted}");
        assert!(draws.iter().all(|f| f.latency_ms <= 20));
        let other: Vec<ServeFault> = (0..256).map(|o| ServeFault::derive(4, o)).collect();
        assert_ne!(draws, other, "seed must matter");
        assert_eq!(ServeFault::none(), ServeFault::none());
    }

    #[test]
    fn storage_faults_derive_deterministically() {
        for seed in [0u64, 7, 42] {
            for case in 0..24 {
                let f = StorageFault::derive(seed, case);
                assert_eq!(f, StorageFault::derive(seed, case), "pure function");
            }
        }
        // All four kinds appear across a modest matrix.
        let kinds: std::collections::HashSet<String> = (0..32)
            .map(|c| StorageFault::derive(5, c).kind.to_string())
            .collect();
        assert_eq!(kinds.len(), 4, "kinds drawn: {kinds:?}");
        let f = StorageFault {
            kind: StorageFaultKind::TornTail,
            record_skew: 0x1f,
            byte_skew: 2,
        };
        assert_eq!(f.to_string(), "torn-tail@r0x1f.b0x2");
    }

    #[test]
    fn guard_range_is_offset_from_heap_base() {
        let f = Fault::GuardRegion {
            offset: 128,
            len: 64,
        };
        assert_eq!(f.guard_range(4096), Some(4224..4288));
        assert_eq!(Fault::ReadFault { nth: 1 }.guard_range(4096), None);
    }
}
