//! LMUL-aware vector register allocation with spill insertion.
//!
//! The paper's Table 5/6 anomaly — LMUL=8 *slower* than LMUL=1 on small
//! inputs, faster on large ones — is a register-allocation effect: grouping
//! registers by LMUL shrinks the number of allocatable names (28 data
//! groups at LMUL=1, but only `{v8, v16, v24}` at LMUL=8 once the low
//! registers are reserved for masks), so kernels with more live vector
//! values than groups spill. [`KernelBuilder`] reproduces that mechanism:
//!
//! * Kernels declare their vector **values** up front, with a
//!   [`ValueKind`]: `Normal` (a live variable), `Temp` (lives only within
//!   one statement group), or `Remat` (a broadcast constant the compiler
//!   can rematerialize from a scalar register instead of spilling).
//! * While aligned groups last, everything is pinned to registers and all
//!   access helpers are free.
//! * When values outnumber groups, the two highest groups become
//!   **scratch**: `Normal` values beyond the pinned set get stack slots
//!   with reload-per-use / store-per-def traffic (`addi` +
//!   `vl<LMUL>r.v`/`vs<LMUL>r.v` — real, counted instructions); `Temp`s
//!   live transiently in scratch; `Remat`s are re-broadcast (`vmv.v.x`)
//!   on use.
//! * The [`SpillProfile`] sets the per-call fixed cost. `Llvm14` sizes the
//!   frame conservatively — one slot per declared vector value, the way
//!   LLVM 14's RVV backend allocated slots for every vector virtual live
//!   across intrinsic statements — and zero-initializes it with a scalar
//!   loop; this reproduces the N-independent ≈2×10³-instruction overhead
//!   the paper's Table 5 shows at LMUL=8 for small N. `Ideal` allocates
//!   only what actually spills and skips the initialization. The ablation
//!   bench compares the two.
//!
//! ## Register conventions
//!
//! * `v0` — active mask; `v1..v3` — mask temporaries (masks occupy a single
//!   register at every LMUL).
//! * Data groups are allocated from `v4` upward (so `v8` upward at LMUL=8).
//! * `x8` (fp) addresses the spill frame; `x29..x31` are scratch for spill
//!   addressing and frame initialization. Kernels built through
//!   [`KernelBuilder`] must not use these for their own state.

use crate::builder::ProgramBuilder;
use rvv_isa::{Lmul, VReg, XReg};

/// Models the compiler's spill code generation cost.
///
/// `Hash` because the profile is part of the shared plan registry's cache
/// key: kernels generated under different spill strategies are different
/// programs and must never be served across profiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpillProfile {
    /// Allocate a frame slot for *every* declared vector value (not just
    /// the ones that spill) and zero-initialize the frame with a scalar
    /// store loop in the prologue. Calibrated to LLVM 14's observed
    /// behaviour (paper Table 5, N=10²: ≈2×10³ instructions for a single
    /// strip). The traffic is real, executed and counted; its *size* is
    /// what is calibrated.
    pub conservative_frame: bool,
}

impl SpillProfile {
    /// Calibrated to the paper's LLVM-14 measurements. The default.
    pub const fn llvm14() -> SpillProfile {
        SpillProfile {
            conservative_frame: true,
        }
    }

    /// An idealized compiler: minimal frame, spill traffic only.
    pub const fn ideal() -> SpillProfile {
        SpillProfile {
            conservative_frame: false,
        }
    }
}

impl Default for SpillProfile {
    fn default() -> Self {
        SpillProfile::llvm14()
    }
}

/// How a declared vector value may be stored when registers run out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueKind {
    /// A live variable: spilled to a stack slot under pressure.
    Normal,
    /// A short-lived temporary (defined and consumed within one statement
    /// group): lives in scratch under pressure, never touches the stack.
    Temp,
    /// A broadcast constant whose scalar source is held in the given
    /// x-register: rematerialized with `vmv.v.x` under pressure.
    Remat(XReg),
}

/// Handle to a declared vector value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VValue(usize);

#[derive(Debug, Clone, Copy)]
enum Loc {
    /// Pinned to a register group (no-pressure mode, any kind).
    Reg(VReg),
    /// Stack slot (pressure mode, `Normal`).
    Slot(usize),
    /// Scratch-resident temp (pressure mode): register + generation stamp.
    TempIn(Option<(VReg, u64)>),
    /// Rematerialized constant (pressure mode).
    Remat(XReg),
}

/// Fixed scratch x-registers (documented above).
const X_ADDR: XReg = XReg::new(31); // t6: spill slot addressing
const X_ZERO_PTR: XReg = XReg::new(30); // t5: frame-init cursor
const X_ZERO_END: XReg = XReg::new(29); // t4: frame-init limit
/// Frame pointer.
pub const FP: XReg = XReg::new(8);

/// Summary of an allocation, for tests and reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocationReport {
    /// Number of values pinned to registers.
    pub pinned: usize,
    /// Number of `Normal` values spilled to stack slots.
    pub spilled: usize,
    /// Spill frame size in bytes (0 when nothing spills).
    pub frame_bytes: u32,
}

/// Builds a kernel with LMUL-aware vector value allocation on top of a
/// [`ProgramBuilder`].
pub struct KernelBuilder {
    /// The underlying assembler (public: kernels emit instructions through
    /// it with registers obtained from [`KernelBuilder::vin`] /
    /// [`KernelBuilder::vout`]).
    pub b: ProgramBuilder,
    lmul: Lmul,
    slot_bytes: u32,
    profile: SpillProfile,
    kinds: Vec<ValueKind>,
    locs: Vec<Loc>,
    scratch: Vec<VReg>,
    scratch_gen: Vec<u64>,
    next_scratch: usize,
    gen_counter: u64,
    n_slots: usize,
    n_declared: usize,
    spill_ops: u64,
}

impl KernelBuilder {
    /// Start a kernel. `vlenb` is VLEN/8 of the machine the kernel will run
    /// on (spill slot sizes depend on it, so kernels are built per VLEN —
    /// mirroring how a compiler lays out its frame for a known target).
    pub fn new(
        name: impl Into<String>,
        lmul: Lmul,
        vlenb: u32,
        profile: SpillProfile,
    ) -> KernelBuilder {
        KernelBuilder {
            b: ProgramBuilder::new(name),
            lmul,
            slot_bytes: lmul.regs() * vlenb,
            profile,
            kinds: Vec::new(),
            locs: Vec::new(),
            scratch: Vec::new(),
            scratch_gen: Vec::new(),
            next_scratch: 0,
            gen_counter: 0,
            n_slots: 0,
            n_declared: 0,
            spill_ops: 0,
        }
    }

    /// Aligned data group bases available at `lmul` under the v0–v3 mask
    /// reservation.
    pub fn data_groups(lmul: Lmul) -> Vec<VReg> {
        let step = lmul.regs() as u8;
        let first = step.max(4);
        (0..32u8)
            .step_by(step as usize)
            .filter(|&r| r >= first)
            .map(VReg::new)
            .collect()
    }

    /// Declare the kernel's vector values with kinds, hottest `Normal`s
    /// first. Must be called exactly once, before any access helper.
    pub fn declare_kinds(&mut self, values: &[(&str, ValueKind)]) -> Vec<VValue> {
        assert!(self.locs.is_empty(), "declare must be called once");
        self.n_declared = values.len();
        self.kinds = values.iter().map(|&(_, k)| k).collect();
        let mut free = Self::data_groups(self.lmul);
        if values.len() <= free.len() {
            // No pressure: everything (including temps and constants) pins.
            self.locs = free.drain(..values.len()).map(Loc::Reg).collect();
        } else {
            // Pressure: reserve the two highest groups as scratch. Pin the
            // hottest Normals; remaining Normals get stack slots; Temps go
            // scratch-resident; Remats rematerialize.
            assert!(free.len() >= 3, "need at least 3 groups to spill through");
            self.scratch = free.split_off(free.len() - 2);
            self.scratch_gen = vec![0; self.scratch.len()];
            let mut slots = 0usize;
            for &(_, kind) in values {
                let loc = match kind {
                    ValueKind::Normal => {
                        if free.is_empty() {
                            let s = slots;
                            slots += 1;
                            Loc::Slot(s)
                        } else {
                            Loc::Reg(free.remove(0))
                        }
                    }
                    ValueKind::Temp => Loc::TempIn(None),
                    ValueKind::Remat(x) => Loc::Remat(x),
                };
                self.locs.push(loc);
            }
            self.n_slots = slots;
        }
        (0..values.len()).map(VValue).collect()
    }

    /// [`KernelBuilder::declare_kinds`] with every value `Normal`.
    pub fn declare(&mut self, names: &[&str]) -> Vec<VValue> {
        let kinds: Vec<(&str, ValueKind)> = names.iter().map(|&n| (n, ValueKind::Normal)).collect();
        self.declare_kinds(&kinds)
    }

    /// The pinned home register of a value, if it has one (`None` for
    /// spilled, scratch-resident, or rematerialized values). Introspection
    /// for tests and diagnostics; emits no code.
    pub fn home_of(&self, v: VValue) -> Option<VReg> {
        match self.locs[v.0] {
            Loc::Reg(r) => Some(r),
            _ => None,
        }
    }

    /// Allocation summary.
    pub fn report(&self) -> AllocationReport {
        let pinned = self
            .locs
            .iter()
            .filter(|l| matches!(l, Loc::Reg(_)))
            .count();
        AllocationReport {
            pinned,
            spilled: self.n_slots,
            frame_bytes: self.frame_bytes(),
        }
    }

    /// Does this kernel operate under register pressure (scratch + slots)?
    pub fn spills(&self) -> bool {
        self.n_slots > 0
    }

    /// Count of spill/reload whole-register memory operations emitted so far
    /// (diagnostic for the ablation benches).
    pub fn spill_ops(&self) -> u64 {
        self.spill_ops
    }

    fn frame_bytes(&self) -> u32 {
        if self.n_slots == 0 {
            return 0;
        }
        let slots = if self.profile.conservative_frame {
            // LLVM-14-style: a slot for every declared vector value.
            self.n_declared
        } else {
            self.n_slots
        };
        slots as u32 * self.slot_bytes
    }

    /// Emit the frame prologue. Call after `declare`, before the body.
    /// No-op when nothing spills.
    pub fn prologue(&mut self) {
        let frame = self.frame_bytes();
        if frame == 0 {
            return;
        }
        self.b.mark("spill_prologue");
        let f = frame as i64;
        if f <= 2047 {
            self.b.addi(XReg::SP, XReg::SP, -(f as i32));
        } else {
            self.b.li(X_ADDR, f);
            self.b.sub(XReg::SP, XReg::SP, X_ADDR);
        }
        self.b.mv(FP, XReg::SP);
        if self.profile.conservative_frame {
            // sd x0 loop over the frame: 3 instructions per 8 bytes. This is
            // the calibrated LLVM-14 fixed overhead (see module docs).
            self.b.mark("frame_zero_init");
            self.b.mv(X_ZERO_PTR, FP);
            if f <= 2047 {
                self.b.addi(X_ZERO_END, FP, f as i32);
            } else {
                self.b.li(X_ZERO_END, f);
                self.b.add(X_ZERO_END, FP, X_ZERO_END);
            }
            let head = self.b.label();
            self.b.bind(head);
            self.b.sd(XReg::ZERO, X_ZERO_PTR, 0);
            self.b.addi(X_ZERO_PTR, X_ZERO_PTR, 8);
            self.b.bne(X_ZERO_PTR, X_ZERO_END, head);
        }
    }

    /// Emit the frame epilogue. Call before `halt`. No-op when nothing
    /// spills.
    pub fn epilogue(&mut self) {
        let frame = self.frame_bytes() as i64;
        if frame == 0 {
            return;
        }
        self.b.mark("spill_epilogue");
        if frame <= 2047 {
            self.b.addi(XReg::SP, XReg::SP, frame as i32);
        } else {
            self.b.li(X_ADDR, frame);
            self.b.add(XReg::SP, XReg::SP, X_ADDR);
        }
    }

    fn slot_addr(&mut self, slot: usize) {
        let off = slot as i64 * self.slot_bytes as i64;
        if off <= 2047 {
            self.b.addi(X_ADDR, FP, off as i32);
        } else {
            self.b.li(X_ADDR, off);
            self.b.add(X_ADDR, FP, X_ADDR);
        }
    }

    fn take_scratch(&mut self) -> (VReg, u64) {
        let i = self.next_scratch % self.scratch.len();
        self.next_scratch += 1;
        self.gen_counter += 1;
        self.scratch_gen[i] = self.gen_counter;
        (self.scratch[i], self.gen_counter)
    }

    /// Obtain a register holding the current value of `v` for reading.
    ///
    /// Pinned values cost nothing. Spilled `Normal`s are reloaded into
    /// scratch (`addi` + whole-register load). `Remat` constants are
    /// re-broadcast (`vmv.v.x`) into scratch. `Temp`s return the scratch
    /// they were defined in — which must not have been reused since
    /// (checked; a violation is a kernel-author bug and panics).
    ///
    /// At most **two** pressure-mode reads may be live at once (there are
    /// two scratch groups); order reads accordingly.
    pub fn vin(&mut self, v: VValue) -> VReg {
        match self.locs[v.0] {
            Loc::Reg(r) => r,
            Loc::Slot(s) => {
                let (r, _) = self.take_scratch();
                self.slot_addr(s);
                self.b.vlr(self.lmul.regs() as u8, r, X_ADDR);
                self.spill_ops += 1;
                r
            }
            Loc::TempIn(state) => {
                let (r, gen) = state.expect("temp read before any definition");
                let idx = self
                    .scratch
                    .iter()
                    .position(|&s| s == r)
                    .expect("temp in scratch");
                assert_eq!(
                    self.scratch_gen[idx], gen,
                    "temp value was clobbered by scratch rotation before its use"
                );
                r
            }
            Loc::Remat(x) => {
                let (r, _) = self.take_scratch();
                self.b.vmv_vx(r, x);
                r
            }
        }
    }

    /// Obtain a register to hold a new definition of `v`. For spilled
    /// `Normal`s this is scratch (no reload) and the caller **must** pass
    /// the returned register to [`KernelBuilder::vflush`] after the defining
    /// instruction(s). `Remat` values cannot be redefined.
    pub fn vout(&mut self, v: VValue) -> VReg {
        match self.locs[v.0] {
            Loc::Reg(r) => r,
            Loc::Slot(_) => self.take_scratch().0,
            Loc::TempIn(_) => {
                let (r, gen) = self.take_scratch();
                self.locs[v.0] = Loc::TempIn(Some((r, gen)));
                r
            }
            Loc::Remat(_) => panic!("broadcast constants cannot be redefined"),
        }
    }

    /// Store a freshly defined value back to its home. No-op for pinned
    /// values and temps.
    pub fn vflush(&mut self, v: VValue, r: VReg) {
        match self.locs[v.0] {
            Loc::Reg(home) => debug_assert_eq!(home, r, "pinned value defined elsewhere"),
            Loc::Slot(s) => {
                self.slot_addr(s);
                self.b.vsr(self.lmul.regs() as u8, r, X_ADDR);
                self.spill_ops += 1;
            }
            Loc::TempIn(_) => {}
            Loc::Remat(_) => panic!("broadcast constants cannot be redefined"),
        }
    }

    /// Fill `dst` with the broadcast constant `v` (a `Remat` value, or any
    /// pinned value): one instruction either way — `vmv.v.v` from the
    /// pinned home, or `vmv.v.x` from the constant's scalar register under
    /// pressure.
    pub fn vfill(&mut self, dst: VReg, v: VValue) {
        match self.locs[v.0] {
            Loc::Reg(r) => {
                self.b.vmv_vv(dst, r);
            }
            Loc::Remat(x) => {
                self.b.vmv_vx(dst, x);
            }
            _ => panic!("vfill source must be a pinned value or a broadcast constant"),
        }
    }

    /// One-time initialization for a `Remat` constant: broadcasts the
    /// scalar into the pinned home register when there is no pressure;
    /// emits nothing under pressure (uses rematerialize instead). Call in
    /// the preamble after the scalar register is loaded.
    pub fn init_remat(&mut self, v: VValue) {
        let x = match self.kinds[v.0] {
            ValueKind::Remat(x) => x,
            _ => panic!("init_remat on a non-Remat value"),
        };
        if let Loc::Reg(r) = self.locs[v.0] {
            self.b.vmv_vx(r, x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T9: XReg = XReg::new(9);

    #[test]
    fn group_counts_match_the_register_pressure_story() {
        // These counts are the whole Table 5 mechanism.
        assert_eq!(KernelBuilder::data_groups(Lmul::M1).len(), 28); // v4..v31
        assert_eq!(KernelBuilder::data_groups(Lmul::M2).len(), 14); // v4,v6..v30
        assert_eq!(KernelBuilder::data_groups(Lmul::M4).len(), 7); // v4,v8..v28
        assert_eq!(KernelBuilder::data_groups(Lmul::M8).len(), 3); // v8,v16,v24
        assert_eq!(
            KernelBuilder::data_groups(Lmul::M8),
            vec![VReg::new(8), VReg::new(16), VReg::new(24)]
        );
    }

    fn seg_scan_values() -> Vec<(&'static str, ValueKind)> {
        vec![
            ("flags", ValueKind::Normal),
            ("x", ValueKind::Normal),
            ("y", ValueKind::Temp),
            ("fs", ValueKind::Temp),
            ("ident", ValueKind::Remat(T9)),
            ("one", ValueKind::Remat(T9)),
        ]
    }

    #[test]
    fn six_values_fit_at_m4_but_pressure_at_m8() {
        let mut k4 = KernelBuilder::new("k4", Lmul::M4, 16, SpillProfile::llvm14());
        k4.declare_kinds(&seg_scan_values());
        assert!(!k4.spills());
        assert_eq!(
            k4.report(),
            AllocationReport {
                pinned: 6,
                spilled: 0,
                frame_bytes: 0
            }
        );

        let mut k8 = KernelBuilder::new("k8", Lmul::M8, 16, SpillProfile::llvm14());
        k8.declare_kinds(&seg_scan_values());
        assert!(k8.spills());
        // 3 groups - 2 scratch = 1 pinned (flags); x spilled; temps and
        // constants take no slots. Conservative frame: 6 slots.
        assert_eq!(
            k8.report(),
            AllocationReport {
                pinned: 1,
                spilled: 1,
                frame_bytes: 6 * 8 * 16
            }
        );
        let mut k8i = KernelBuilder::new("k8i", Lmul::M8, 16, SpillProfile::ideal());
        k8i.declare_kinds(&seg_scan_values());
        assert_eq!(k8i.report().frame_bytes, 8 * 16); // only the real slot
    }

    #[test]
    fn pinned_access_emits_nothing() {
        let mut k = KernelBuilder::new("k", Lmul::M1, 16, SpillProfile::llvm14());
        let vs = k.declare(&["a", "b"]);
        let before = k.b.here();
        let ra = k.vin(vs[0]);
        let rb = k.vout(vs[1]);
        k.vflush(vs[1], rb);
        assert_eq!(k.b.here(), before);
        assert_ne!(ra, rb);
        assert_eq!(k.spill_ops(), 0);
    }

    #[test]
    fn spilled_access_emits_reload_and_store() {
        let mut k = KernelBuilder::new("k", Lmul::M8, 16, SpillProfile::ideal());
        let vs = k.declare(&["a", "b", "c", "d"]); // 1 pinned, 3 spilled
        let before = k.b.here();
        let _r = k.vin(vs[3]); // spilled -> addi + vl8r
        assert_eq!(k.b.here(), before + 2);
        let r = k.vout(vs[2]);
        assert_eq!(k.b.here(), before + 2); // no reload on def
        k.vflush(vs[2], r);
        assert_eq!(k.b.here(), before + 4); // addi + vs8r
        assert_eq!(k.spill_ops(), 2);
    }

    #[test]
    fn remat_rebroadcasts_one_instruction() {
        let mut k = KernelBuilder::new("k", Lmul::M8, 16, SpillProfile::ideal());
        let vs = k.declare_kinds(&[
            ("a", ValueKind::Normal),
            ("b", ValueKind::Normal),
            ("c", ValueKind::Normal),
            ("id", ValueKind::Remat(T9)),
        ]);
        let before = k.b.here();
        k.init_remat(vs[3]); // pressure mode: no-op
        assert_eq!(k.b.here(), before);
        let _r = k.vin(vs[3]); // vmv.v.x
        assert_eq!(k.b.here(), before + 1);
        assert_eq!(k.spill_ops(), 0);
    }

    #[test]
    fn temp_lives_in_scratch_and_detects_clobber() {
        let mut k = KernelBuilder::new("k", Lmul::M8, 16, SpillProfile::ideal());
        let vs = k.declare_kinds(&[
            ("a", ValueKind::Normal),
            ("b", ValueKind::Normal),
            ("c", ValueKind::Normal),
            ("t", ValueKind::Temp),
        ]);
        let before = k.b.here();
        let rt = k.vout(vs[3]); // scratch, no code
        assert_eq!(k.b.here(), before);
        assert_eq!(k.vin(vs[3]), rt); // still valid
                                      // Two more scratch takes wrap the rotation and clobber the temp.
        let _ = k.vin(vs[2]);
        let _ = k.vin(vs[2]);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| k.vin(vs[3])));
        assert!(r.is_err(), "clobbered temp read must be detected");
    }

    #[test]
    fn vfill_is_one_instruction_both_modes() {
        // No pressure: vmv.v.v from pinned home.
        let mut k = KernelBuilder::new("k", Lmul::M1, 16, SpillProfile::llvm14());
        let vs = k.declare_kinds(&[("x", ValueKind::Normal), ("id", ValueKind::Remat(T9))]);
        k.init_remat(vs[1]); // broadcasts once
        let rx = k.vout(vs[0]);
        let before = k.b.here();
        k.vfill(rx, vs[1]);
        assert_eq!(k.b.here(), before + 1);
        // Pressure: vmv.v.x from the scalar.
        let mut k8 = KernelBuilder::new("k8", Lmul::M8, 16, SpillProfile::llvm14());
        let vs8 = k8.declare_kinds(&[
            ("a", ValueKind::Normal),
            ("b", ValueKind::Normal),
            ("c", ValueKind::Normal),
            ("id", ValueKind::Remat(T9)),
        ]);
        let ra = k8.vin(vs8[0]);
        let before = k8.b.here();
        k8.vfill(ra, vs8[3]);
        assert_eq!(k8.b.here(), before + 1);
    }

    #[test]
    fn prologue_epilogue_balance_and_run() {
        use rvv_sim::{Machine, MachineConfig};
        let vlenb = 128 / 8;
        for profile in [SpillProfile::ideal(), SpillProfile::llvm14()] {
            let mut k = KernelBuilder::new("spill-frame", Lmul::M8, vlenb, profile);
            let vs = k.declare(&["a", "b", "c", "d"]);
            k.prologue();
            // Define then read back a spilled value through the frame.
            let rd = k.vout(vs[3]);
            k.b.vid(rd);
            k.vflush(vs[3], rd);
            let rr = k.vin(vs[3]);
            // Move element 0 (== 0 from vid) to x15 to prove the roundtrip.
            k.b.vmv_xs(XReg::new(15), rr);
            k.epilogue();
            k.b.halt();
            let mut m = Machine::new(MachineConfig {
                vlen: 128,
                mem_bytes: 1 << 16,
            });
            m.set_xreg(XReg::SP, 1 << 15);
            // Configure vtype so vid is legal.
            m.set_xreg(XReg::new(10), 4);
            let mut pre = ProgramBuilder::new("cfg");
            pre.vsetvli(
                XReg::ZERO,
                XReg::new(10),
                rvv_isa::VType::new(rvv_isa::Sew::E32, Lmul::M8),
            );
            // Splice the config in front of the kernel body.
            let mut instrs = pre.finish().unwrap().instrs;
            let body = k.b.finish().unwrap();
            instrs.extend(body.instrs);
            let p = rvv_sim::Program::new("test", instrs);
            m.run(&p, rvv_sim::DEFAULT_FUEL).unwrap();
            assert_eq!(m.xreg(XReg::new(15)), 0);
            assert_eq!(m.xreg(XReg::SP), 1 << 15, "sp must balance");
        }
    }

    #[test]
    fn llvm14_profile_zeroes_frame_with_scalar_loop() {
        let vlenb = 1024 / 8;
        let mut ideal = KernelBuilder::new("i", Lmul::M8, vlenb, SpillProfile::ideal());
        ideal.declare_kinds(&seg_scan_values());
        ideal.prologue();
        let ideal_len = ideal.b.here();
        let mut cal = KernelBuilder::new("c", Lmul::M8, vlenb, SpillProfile::llvm14());
        cal.declare_kinds(&seg_scan_values());
        cal.prologue();
        // Same static length order (the zero loop is a loop), but it
        // executes ~3 dynamic instructions per 8 frame bytes.
        assert!(cal.b.here() > ideal_len);
    }
}
