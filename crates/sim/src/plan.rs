//! Pre-decoded execution plans: the canonical executable form.
//!
//! [`CompiledPlan::compile`] lowers a [`Program`] once — classifying every
//! instruction, pre-resolving operation selectors to function pointers,
//! pre-extending immediates, and turning branch/jump byte targets into
//! instruction indices — so the run loop does none of that work per retire.
//! Vector ops additionally get SEW-monomorphized inner-loop kernels
//! (generic over `u8`/`u16`/`u32`/`u64`) selected at `vsetvli` boundaries
//! through a per-op *vtype specialization cache* instead of matching on the
//! element width per element.
//!
//! ## Bulk element paths
//!
//! The vector kernels a strip-mined loop runs most move whole slices of
//! the register file and memory instead of one element at a time. Each
//! such kernel but the unmasked compare first runs one precheck over the
//! whole operation; only when it passes does the bulk path run, and
//! otherwise the kernel's per-element loop runs unchanged, so traps, trap
//! addresses and partially written state are the legacy interpreter's.
//!
//! * Register side: each operand's elements lie inside its aligned group.
//!   Groups of one size are then the same or disjoint, so `vd` either is a
//!   source or misses it. `vop.vv/.vx/.vi` (masked or not),
//!   `vmv.v.v/.v.x/.v.i` and unmasked `vslideup`/`vslidedown` need no
//!   more. Masks are walked a byte at a time.
//! * Unmasked compares need no precheck: like the staged loop they read
//!   every source element before writing a mask bit, and they read and
//!   write the same bytes. Their loop runs only for masked compares.
//! * Memory side: unit-stride `vle` (masked or not) checks bounds and
//!   guards once over `[base, base + vl·EEW)` and then copies; unmasked
//!   `vse` is one [`crate::Memory::write_bytes`], which dirties exactly the
//!   pages the per-element stores would. Masked `vse` stays per element:
//!   one write over the range would dirty pages that only inactive
//!   elements cover.
//!
//! ## Dispatch-independence invariant
//!
//! The plan engine is an implementation detail: architectural results,
//! [`crate::Counters`] totals and per-class histograms, trace events, and
//! trap behaviour are bit-identical to the legacy single-step interpreter
//! ([`Machine::run_legacy`]). The differential fuzz suite
//! (`tests/fuzz_exec.rs`) enforces this on random programs.
//!
//! ## Why the cache key is the SEW alone
//!
//! Kernels are monomorphized over the element type only; `vl`, LMUL, and the
//! mask are read at execution time through the same `Machine` accessors the
//! legacy interpreter uses. A `vsetvli` that changes LMUL but not SEW
//! therefore hits the cache; the cache is one once-initialized slot per SEW
//! per micro-op (`vill`, key 0, errors before any slot is touched), which
//! is exact for the paper's kernels (each static vector instruction runs
//! under one vtype per strip-mined loop) and lock-free on the hit path.
//!
//! ## Thread safety
//!
//! `CompiledPlan` is `Send + Sync` (asserted below): the ops are immutable
//! after compilation and the specialization caches are [`OnceLock`] slots,
//! so one plan instance compiled into a shared registry can be executed
//! concurrently by many machines. All *mutable* state lives in the
//! `Machine` executing the plan, never in the plan itself.

use crate::error::{SimError, SimResult};
use crate::exec::{alu_fn, branch_fn, Control};
use crate::fault::FaultAction;
use crate::hooks::RunHooks;
use crate::machine::Machine;
use crate::program::{Program, RunReport};
use rvv_isa::{Instr, InstrClass, MemWidth, Sew, VAluOp, VCmp, VCsr, VReg, XReg};
use std::sync::OnceLock;

// ------------------------------------------------------------------ types --

/// A program lowered to pre-decoded micro-ops, ready to execute.
///
/// Compiling is cheap (one pass over the instructions) and the plan is
/// immutable architectural-wise; the embedded specialization caches use
/// interior mutability, so repeated runs of a cached plan (e.g. through
/// `scanvec`'s kernel cache) keep their resolved kernels warm.
#[derive(Debug)]
pub struct CompiledPlan {
    source: Program,
    ops: Vec<MicroOp>,
    /// Fusion window index, built lazily on the first fused-tier run (the
    /// other two engines never pay for it).
    fused: OnceLock<fused::FusionTable>,
}

// Compile-time proof that a plan can be shared read-only across worker
// threads (the `scanvec` plan registry hands out `Arc<CompiledPlan>`).
// Breaking this — e.g. by reintroducing `Cell`/`Rc` state — is a build
// error here rather than a failure at every downstream use site.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CompiledPlan>();
};

impl CompiledPlan {
    /// Lower `program` into a plan. Never fails: instructions that cannot be
    /// specialized fall back to the legacy dispatcher, and control flow to
    /// invalid targets is materialized as a pre-resolved bad jump that traps
    /// exactly like the legacy run loop.
    pub fn compile(program: Program) -> CompiledPlan {
        let len = program.instrs.len();
        let ops = program
            .instrs
            .iter()
            .enumerate()
            .map(|(i, ins)| MicroOp {
                class: InstrClass::of(ins),
                kind: lower(i, ins, len),
            })
            .collect();
        CompiledPlan {
            source: program,
            ops,
            fused: OnceLock::new(),
        }
    }

    /// The fusion window index for [`Machine::run_fused`], built on first
    /// use and cached for the plan's lifetime (plans are immutable).
    pub(crate) fn fusion(&self) -> &fused::FusionTable {
        self.fused.get_or_init(|| fused::FusionTable::build(self))
    }

    /// Number of *static* fusion windows the fused tier recognized in this
    /// plan. Diagnostic: coverage goldens pin it so a refactor that
    /// silently de-fuses a hot loop fails loudly.
    pub fn fused_window_count(&self) -> usize {
        self.fusion().window_count()
    }

    /// The source program (instructions, name, symbol marks).
    pub fn program(&self) -> &Program {
        &self.source
    }

    /// The program's name.
    pub fn name(&self) -> &str {
        &self.source.name
    }

    /// Length in instructions.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Is the plan empty?
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// One pre-decoded instruction: its class (pre-computed for retire
/// accounting and tracing) plus the executable form.
#[derive(Debug)]
struct MicroOp {
    class: InstrClass,
    kind: OpKind,
}

/// A branch/jump target resolved at compile time.
#[derive(Debug, Clone, Copy)]
enum Target {
    /// A valid instruction index (index == len is representable: it traps at
    /// the driver's bounds check with the correct byte target).
    Idx(u32),
    /// A target that can never be valid (misaligned or out of range).
    Bad(u64),
}

impl Target {
    #[inline(always)]
    fn flow(self) -> Flow {
        match self {
            Target::Idx(i) => Flow::To(i as usize),
            Target::Bad(t) => Flow::BadJump(t),
        }
    }
}

/// Control-flow outcome of one micro-op.
#[derive(Debug, Clone, Copy)]
enum Flow {
    /// Fall through.
    Seq,
    /// Transfer to an instruction index.
    To(usize),
    /// A vector-configuration op retired: refresh the vtype key.
    Cfg,
    /// The op retired but its jump target is invalid; the *next* loop
    /// iteration traps (after the fuel check, exactly like the legacy loop).
    BadJump(u64),
    /// `ecall`.
    Halt,
}

/// The `vs1`/`rs1`/`imm` operand of a vector op, with immediates already
/// sign- or zero-extended per the instruction's rules.
#[derive(Debug, Clone, Copy)]
enum VSrc {
    V(VReg),
    X(XReg),
    I(u64),
}

/// Which slide variant a `VSlide` micro-op performs.
#[derive(Debug, Clone, Copy)]
enum SlideKind {
    Up,
    Down,
    Up1,
    Down1,
}

/// Slide offset (or, for `vslide1up`/`vslide1down`, the inserted scalar).
#[derive(Debug, Clone, Copy)]
enum SlideOff {
    X(XReg),
    I(u64),
}

impl SlideOff {
    #[inline(always)]
    fn value(self, m: &Machine) -> u64 {
        match self {
            SlideOff::X(r) => m.xreg(r),
            SlideOff::I(v) => v,
        }
    }
}

/// Right-hand side of a scalar ALU micro-op.
#[derive(Debug, Clone, Copy)]
enum AluRhs {
    Reg(XReg),
    Imm(u64),
}

/// Per-op vtype specialization cache: one [`OnceLock`] kernel slot per SEW
/// key (the key is [`vtype_key`]: 0 = `vill`, 1..=4 = SEW). A hit is one
/// acquire load; a miss resolves the kernel for that SEW exactly once, even
/// under concurrent lookups — which is what makes a [`CompiledPlan`]
/// `Sync`: a plan cached in a shared registry can be executed by many
/// worker threads at once, each warming or reusing the same resolved
/// kernels. Resolution is a pure function of `(op, SEW)`, so racing
/// initializers compute identical pointers.
struct KCache<F> {
    slots: [OnceLock<F>; 4],
}

impl<F> std::fmt::Debug for KCache<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let keys: Vec<u8> = (0..4u8)
            .filter(|&k| self.slots[k as usize].get().is_some())
            .map(|k| k + 1)
            .collect();
        write!(f, "KCache(resolved={keys:?})")
    }
}

impl<F: Copy> KCache<F> {
    fn new() -> KCache<F> {
        KCache {
            slots: [const { OnceLock::new() }; 4],
        }
    }

    /// Return the kernel for `key`, resolving on first use. Key 0 (`vill`)
    /// errors with [`SimError::Vill`] — the same first check every
    /// specialized vector family performs in the legacy interpreter.
    #[inline(always)]
    fn lookup(&self, key: u8, resolve: impl FnOnce(Sew) -> F) -> SimResult<F> {
        let sew = sew_of_key(key)?;
        Ok(*self.slots[(key - 1) as usize].get_or_init(|| resolve(sew)))
    }
}

/// Current vtype as a cache key: 0 when `vill`, else 1..=4 by SEW.
#[inline(always)]
fn vtype_key(m: &Machine) -> u8 {
    match m.vtype() {
        None => 0,
        Some(t) => match t.sew {
            Sew::E8 => 1,
            Sew::E16 => 2,
            Sew::E32 => 3,
            Sew::E64 => 4,
        },
    }
}

#[inline(always)]
fn sew_of_key(key: u8) -> SimResult<Sew> {
    match key {
        1 => Ok(Sew::E8),
        2 => Ok(Sew::E16),
        3 => Ok(Sew::E32),
        4 => Ok(Sew::E64),
        _ => Err(SimError::Vill),
    }
}

/// Resolve a dynamic (jalr / legacy-dispatched) jump target.
#[inline(always)]
fn resolve_dynamic(byte: u64, len: usize) -> Flow {
    if byte.is_multiple_of(4) && byte / 4 <= len as u64 {
        Flow::To((byte / 4) as usize)
    } else {
        Flow::BadJump(byte)
    }
}

/// Resolve a static (jal / branch) byte target at compile time.
fn resolve_target(byte: u64, len: usize) -> Target {
    if byte.is_multiple_of(4) && byte / 4 <= len as u64 {
        Target::Idx((byte / 4) as u32)
    } else {
        Target::Bad(byte)
    }
}

// ---------------------------------------------- SEW element monomorphism --

/// A fixed-width vector element type. The four implementations (`u8`,
/// `u16`, `u32`, `u64`) give each kernel a compile-time element size, so
/// register-file accesses are fixed-size `from_le_bytes`/`to_le_bytes`
/// instead of the legacy per-byte loops.
trait Elem: Copy {
    const SEW: Sew;
    const BYTES: usize;
    const BITS: u32;
    const MAX: u64;
    /// Read element `i` of the group at `base`, zero-extended.
    fn get(m: &Machine, base: VReg, i: u32) -> u64;
    /// Write element `i` of the group at `base` (truncating).
    fn set(m: &mut Machine, base: VReg, i: u32, v: u64);
    /// Sign-extend a SEW-truncated value to `i64`.
    fn sext(v: u64) -> i64;
    /// Read one element from a `BYTES`-long little-endian chunk — the
    /// slice-iterator counterpart of [`Elem::get`] for fused kernels.
    fn ld(b: &[u8]) -> u64;
    /// Write one element into a `BYTES`-long little-endian chunk
    /// (truncating).
    fn st(b: &mut [u8], v: u64);
}

macro_rules! elem {
    ($u:ty, $s:ty, $sew:expr) => {
        impl Elem for $u {
            const SEW: Sew = $sew;
            const BYTES: usize = std::mem::size_of::<$u>();
            const BITS: u32 = <$u>::BITS;
            const MAX: u64 = <$u>::MAX as u64;

            #[inline(always)]
            fn get(m: &Machine, base: VReg, i: u32) -> u64 {
                let off = base.num() as usize * m.vlenb() as usize + i as usize * Self::BYTES;
                let mut b = [0u8; std::mem::size_of::<$u>()];
                b.copy_from_slice(&m.vreg_store()[off..off + Self::BYTES]);
                <$u>::from_le_bytes(b) as u64
            }

            #[inline(always)]
            fn set(m: &mut Machine, base: VReg, i: u32, v: u64) {
                let off = base.num() as usize * m.vlenb() as usize + i as usize * Self::BYTES;
                m.vreg_store_mut()[off..off + Self::BYTES]
                    .copy_from_slice(&(v as $u).to_le_bytes());
            }

            #[inline(always)]
            fn sext(v: u64) -> i64 {
                v as $u as $s as i64
            }

            #[inline(always)]
            fn ld(b: &[u8]) -> u64 {
                <$u>::from_le_bytes(b.try_into().expect("chunk is BYTES long")) as u64
            }

            #[inline(always)]
            fn st(b: &mut [u8], v: u64) {
                b.copy_from_slice(&(v as $u).to_le_bytes());
            }
        }
    };
}

elem!(u8, i8, Sew::E8);
elem!(u16, i16, Sew::E16);
elem!(u32, i32, Sew::E32);
elem!(u64, i64, Sew::E64);

/// An element-wise binary operation, monomorphized per [`Elem`]. Formulas
/// mirror `velem_op` in `exec/varith.rs` exactly; operands arrive
/// zero-extended at SEW and results are truncated by `Elem::set`.
trait BinOp {
    fn apply<E: Elem>(a: u64, b: u64) -> u64;
}

macro_rules! binop {
    ($name:ident, |$a:ident, $b:ident| $body:expr) => {
        struct $name;
        impl BinOp for $name {
            #[inline(always)]
            fn apply<E: Elem>($a: u64, $b: u64) -> u64 {
                $body
            }
        }
    };
}

binop!(BAdd, |a, b| a.wrapping_add(b));
binop!(BSub, |a, b| a.wrapping_sub(b));
binop!(BRsub, |a, b| b.wrapping_sub(a));
binop!(BMinu, |a, b| a.min(b));
binop!(BMin, |a, b| E::sext(a).min(E::sext(b)) as u64);
binop!(BMaxu, |a, b| a.max(b));
binop!(BMax, |a, b| E::sext(a).max(E::sext(b)) as u64);
binop!(BAnd, |a, b| a & b);
binop!(BOr, |a, b| a | b);
binop!(BXor, |a, b| a ^ b);
binop!(BSll, |a, b| a
    .wrapping_shl((b & (E::BITS as u64 - 1)) as u32));
binop!(BSrl, |a, b| a
    .wrapping_shr((b & (E::BITS as u64 - 1)) as u32));
binop!(
    BSra,
    |a, b| (E::sext(a) >> ((b & (E::BITS as u64 - 1)) as u32)) as u64
);
binop!(BMul, |a, b| a.wrapping_mul(b));
binop!(
    BMulh,
    |a, b| (((E::sext(a) as i128) * (E::sext(b) as i128)) >> E::BITS) as u64
);
binop!(BMulhu, |a, b| (((a as u128) * (b as u128)) >> E::BITS)
    as u64);
binop!(BDivu, |a, b| a.checked_div(b).unwrap_or(E::MAX));
binop!(BDiv, |a, b| {
    let (sa, sb) = (E::sext(a), E::sext(b));
    if sb == 0 {
        E::MAX
    } else {
        sa.wrapping_div(sb) as u64
    }
});
binop!(BRemu, |a, b| if b == 0 { a } else { a % b });
binop!(BRem, |a, b| {
    let (sa, sb) = (E::sext(a), E::sext(b));
    if sb == 0 {
        a
    } else {
        sa.wrapping_rem(sb) as u64
    }
});

/// A compare condition, monomorphized per [`Elem`]. Mirrors `cmp` in
/// `exec/vmask.rs`.
trait CmpOp {
    fn cmp<E: Elem>(a: u64, b: u64) -> bool;
}

macro_rules! cmpop {
    ($name:ident, |$a:ident, $b:ident| $body:expr) => {
        struct $name;
        impl CmpOp for $name {
            #[inline(always)]
            fn cmp<E: Elem>($a: u64, $b: u64) -> bool {
                $body
            }
        }
    };
}

cmpop!(CEq, |a, b| a == b);
cmpop!(CNe, |a, b| a != b);
cmpop!(CLtu, |a, b| a < b);
cmpop!(CLt, |a, b| E::sext(a) < E::sext(b));
cmpop!(CLeu, |a, b| a <= b);
cmpop!(CLe, |a, b| E::sext(a) <= E::sext(b));
cmpop!(CGtu, |a, b| a > b);
cmpop!(CGt, |a, b| E::sext(a) > E::sext(b));

// ------------------------------------------------------------ bulk helpers --

/// Byte offset of the group based at `r` in the register file.
#[inline(always)]
fn group_off(m: &Machine, r: VReg) -> usize {
    r.num() as usize * m.vlenb() as usize
}

/// The register-side precheck of the bulk paths: an operand's `bytes` of
/// elements lie inside its aligned group of `regs` registers, so two groups
/// of one size hold the same region or disjoint ones and a whole-slice move
/// equals the ascending per-element loop. `vsetvl` never sets `vl` that
/// high; only a restored snapshot can, and then the per-element loop runs.
#[inline(always)]
fn within_group(m: &Machine, regs: u32, bytes: usize) -> bool {
    bytes <= regs as usize * m.vlenb() as usize
}

/// Disjoint element regions of the register file: mutable at `offa`,
/// shared at `offb` (the caller has proven the ranges don't overlap).
#[inline(always)]
fn disjoint_regions(
    vregs: &mut [u8],
    offa: usize,
    offb: usize,
    bytes: usize,
) -> (&mut [u8], &[u8]) {
    if offa < offb {
        let (lo, hi) = vregs.split_at_mut(offb);
        (&mut lo[offa..offa + bytes], &hi[..bytes])
    } else {
        let (lo, hi) = vregs.split_at_mut(offa);
        (&mut hi[..bytes], &lo[offb..offb + bytes])
    }
}

/// Call `f(vregs, i)` for each element `i < vl` active under the mask in
/// `v0`. `v0` is register 0, so mask bit `i` is bit `i % 8` of byte `i / 8`
/// of the register file. The walk skips clear bytes and re-reads the byte
/// after every call, as the per-element loop reads each bit after the
/// earlier elements' writes: a masked load may write a `vd` that overlaps
/// `v0`, and at e8 element 0 alone holds the bits of elements 1–7.
#[inline(always)]
fn for_each_active(vregs: &mut [u8], vl: u32, mut f: impl FnMut(&mut [u8], usize)) {
    let vl = vl as usize;
    for byte in 0..vl.div_ceil(8) {
        let first = 8 * byte;
        // The bits of this byte below `vl` not visited yet.
        let mut pending: u32 = if vl - first >= 8 {
            0xff
        } else {
            (1 << (vl - first)) - 1
        };
        loop {
            let bits = u32::from(vregs[byte]) & pending;
            if bits == 0 {
                break;
            }
            let j = bits.trailing_zeros();
            f(vregs, first + j as usize);
            pending &= !((2 << j) - 1);
        }
    }
}

// ----------------------------------------------------------------- kernels --

type VAluFn = fn(&mut Machine, VReg, VReg, VSrc, bool) -> SimResult<()>;
type VMoveFn = fn(&mut Machine, VReg, VSrc) -> SimResult<()>;
type VMergeFn = fn(&mut Machine, VReg, VReg, VSrc) -> SimResult<()>;
type VCmpFn = fn(&mut Machine, VReg, VReg, VSrc, bool) -> SimResult<()>;
type VSlideFn = fn(&mut Machine, SlideKind, VReg, VReg, SlideOff, bool) -> SimResult<()>;
type VMemFn = fn(&mut Machine, VReg, XReg, bool) -> SimResult<()>;
type VMemStrideFn = fn(&mut Machine, VReg, XReg, XReg, bool) -> SimResult<()>;
type IdxMemFn = fn(&mut Machine, VReg, XReg, VReg, bool) -> SimResult<()>;

fn valu_exec<E: Elem, O: BinOp>(
    m: &mut Machine,
    vd: VReg,
    vs2: VReg,
    src: VSrc,
    vm: bool,
) -> SimResult<()> {
    match src {
        VSrc::V(vs1) => {
            m.check_data_op(vd, &[vs2, vs1], vm)?;
            let (t, vl) = m.vcfg()?;
            if within_group(m, t.lmul.regs(), vl as usize * E::BYTES) {
                valu_bulk::<E, O>(m, vl, vd, vs2, Some(vs1), 0, vm);
                return Ok(());
            }
            if vm {
                for i in 0..vl {
                    let a = E::get(m, vs2, i);
                    let b = E::get(m, vs1, i);
                    E::set(m, vd, i, O::apply::<E>(a, b));
                }
            } else {
                for i in 0..vl {
                    if m.active(false, i) {
                        let a = E::get(m, vs2, i);
                        let b = E::get(m, vs1, i);
                        E::set(m, vd, i, O::apply::<E>(a, b));
                    }
                }
            }
            Ok(())
        }
        VSrc::X(rs1) => {
            let b = m.xreg(rs1);
            valu_scalar::<E, O>(m, vd, vs2, b, vm)
        }
        VSrc::I(b) => valu_scalar::<E, O>(m, vd, vs2, b, vm),
    }
}

fn valu_scalar<E: Elem, O: BinOp>(
    m: &mut Machine,
    vd: VReg,
    vs2: VReg,
    b: u64,
    vm: bool,
) -> SimResult<()> {
    m.check_data_op(vd, &[vs2], vm)?;
    let (t, vl) = m.vcfg()?;
    let b = b & E::MAX;
    if within_group(m, t.lmul.regs(), vl as usize * E::BYTES) {
        valu_bulk::<E, O>(m, vl, vd, vs2, None, b, vm);
        return Ok(());
    }
    if vm {
        for i in 0..vl {
            let a = E::get(m, vs2, i);
            E::set(m, vd, i, O::apply::<E>(a, b));
        }
    } else {
        for i in 0..vl {
            if m.active(false, i) {
                let a = E::get(m, vs2, i);
                E::set(m, vd, i, O::apply::<E>(a, b));
            }
        }
    }
    Ok(())
}

/// Bulk path of `vop.vv/.vx/.vi`, once the caller's `within_group`
/// precheck has passed: `vd[i] = vs2[i] ⊕ vs1[i]` for every active `i`, or
/// `vs2[i] ⊕ b` when `vs1` is `None` (`b` already truncated to SEW).
#[inline(always)]
fn valu_bulk<E: Elem, O: BinOp>(
    m: &mut Machine,
    vl: u32,
    vd: VReg,
    vs2: VReg,
    vs1: Option<VReg>,
    b: u64,
    vm: bool,
) {
    let bytes = vl as usize * E::BYTES;
    let (d, a) = (group_off(m, vd), group_off(m, vs2));
    let c = vs1.map(|r| group_off(m, r));
    let vregs = m.vreg_store_mut();
    if vm && c != Some(d) {
        // `vd` is `vs2` or misses it: bring `vs2` in, then combine in place.
        if d != a {
            vregs.copy_within(a..a + bytes, d);
        }
        match c {
            Some(c) => {
                let (dst, rhs) = disjoint_regions(vregs, d, c, bytes);
                for (x, y) in dst
                    .chunks_exact_mut(E::BYTES)
                    .zip(rhs.chunks_exact(E::BYTES))
                {
                    E::st(x, O::apply::<E>(E::ld(x), E::ld(y)));
                }
            }
            None => {
                for x in vregs[d..d + bytes].chunks_exact_mut(E::BYTES) {
                    E::st(x, O::apply::<E>(E::ld(x), b));
                }
            }
        }
        return;
    }
    // Masked, or `vd` is `vs1`: element by element in ascending order, each
    // read before the write at the same index.
    let step = |vregs: &mut [u8], i: usize| {
        let o = i * E::BYTES;
        let x = E::ld(&vregs[a + o..a + o + E::BYTES]);
        let y = c.map_or(b, |c| E::ld(&vregs[c + o..c + o + E::BYTES]));
        E::st(&mut vregs[d + o..d + o + E::BYTES], O::apply::<E>(x, y));
    };
    if vm {
        (0..vl as usize).for_each(|i| step(vregs, i));
    } else {
        for_each_active(vregs, vl, step);
    }
}

fn vmove_exec<E: Elem>(m: &mut Machine, vd: VReg, src: VSrc) -> SimResult<()> {
    match src {
        VSrc::V(vs1) => {
            m.check_data_op(vd, &[vs1], true)?;
            let (t, vl) = m.vcfg()?;
            let bytes = vl as usize * E::BYTES;
            if within_group(m, t.lmul.regs(), bytes) {
                let (d, s) = (group_off(m, vd), group_off(m, vs1));
                m.vreg_store_mut().copy_within(s..s + bytes, d);
                return Ok(());
            }
            for i in 0..vl {
                let v = E::get(m, vs1, i);
                E::set(m, vd, i, v);
            }
        }
        VSrc::X(rs1) => {
            let v = m.xreg(rs1);
            return vmove_scalar::<E>(m, vd, v);
        }
        VSrc::I(imm) => return vmove_scalar::<E>(m, vd, imm),
    }
    Ok(())
}

fn vmove_scalar<E: Elem>(m: &mut Machine, vd: VReg, v: u64) -> SimResult<()> {
    m.check_data_op(vd, &[], true)?;
    let (t, vl) = m.vcfg()?;
    let v = v & E::MAX;
    let bytes = vl as usize * E::BYTES;
    if within_group(m, t.lmul.regs(), bytes) {
        let d = group_off(m, vd);
        for x in m.vreg_store_mut()[d..d + bytes].chunks_exact_mut(E::BYTES) {
            E::st(x, v);
        }
        return Ok(());
    }
    for i in 0..vl {
        E::set(m, vd, i, v);
    }
    Ok(())
}

fn vmerge_exec<E: Elem>(m: &mut Machine, vd: VReg, vs2: VReg, src: VSrc) -> SimResult<()> {
    match src {
        VSrc::V(vs1) => {
            m.check_data_op(vd, &[vs2, vs1], true)?;
            let (t, vl) = m.vcfg()?;
            if Machine::groups_overlap(vd, t.lmul.regs(), VReg::V0, 1) {
                return Err(SimError::OverlapConstraint {
                    what: "vmerge writing v0 group",
                });
            }
            for i in 0..vl {
                let v = if m.mask_bit(VReg::V0, i) {
                    E::get(m, vs1, i)
                } else {
                    E::get(m, vs2, i)
                };
                E::set(m, vd, i, v);
            }
            Ok(())
        }
        VSrc::X(rs1) => {
            let x = m.xreg(rs1);
            vmerge_scalar::<E>(m, vd, vs2, x)
        }
        VSrc::I(x) => vmerge_scalar::<E>(m, vd, vs2, x),
    }
}

fn vmerge_scalar<E: Elem>(m: &mut Machine, vd: VReg, vs2: VReg, x: u64) -> SimResult<()> {
    m.check_data_op(vd, &[vs2], true)?;
    let (t, vl) = m.vcfg()?;
    if Machine::groups_overlap(vd, t.lmul.regs(), VReg::V0, 1) {
        return Err(SimError::OverlapConstraint {
            what: "vmerge writing v0 group",
        });
    }
    let x = x & E::MAX;
    for i in 0..vl {
        let v = if m.mask_bit(VReg::V0, i) {
            x
        } else {
            E::get(m, vs2, i)
        };
        E::set(m, vd, i, v);
    }
    Ok(())
}

fn vcmp_exec<E: Elem, C: CmpOp>(
    m: &mut Machine,
    vd: VReg,
    vs2: VReg,
    src: VSrc,
    vm: bool,
) -> SimResult<()> {
    let (t, vl) = m.vcfg()?;
    if let VSrc::V(vs1) = src {
        m.check_group(vs1, t.lmul)?;
    }
    m.check_group(vs2, t.lmul)?;
    let b_const = match src {
        VSrc::V(_) => 0,
        VSrc::X(rs1) => m.xreg(rs1) & E::MAX,
        VSrc::I(imm) => imm & E::MAX,
    };
    if vm {
        vcmp_bulk::<E, C>(m, vd, vs2, src, b_const, vl);
        return Ok(());
    }
    // Stage results in two packed bitsets (set, valid) so a destination
    // overlapping a source group is well-defined — same staging the legacy
    // interpreter does, but in a machine-resident scratch buffer instead of
    // a fresh Vec<Option<bool>> per compare.
    let words = vl.div_ceil(64) as usize;
    let mut scratch = std::mem::take(&mut m.cmp_scratch);
    scratch.clear();
    scratch.resize(2 * words, 0);
    let (set_bits, valid_bits) = scratch.split_at_mut(words);
    for i in 0..vl {
        if m.active(vm, i) {
            let a = E::get(m, vs2, i);
            let b = match src {
                VSrc::V(vs1) => E::get(m, vs1, i),
                _ => b_const,
            };
            valid_bits[(i / 64) as usize] |= 1u64 << (i % 64);
            if C::cmp::<E>(a, b) {
                set_bits[(i / 64) as usize] |= 1u64 << (i % 64);
            }
        }
    }
    for i in 0..vl {
        if valid_bits[(i / 64) as usize] & (1u64 << (i % 64)) != 0 {
            let v = set_bits[(i / 64) as usize] & (1u64 << (i % 64)) != 0;
            m.set_mask_bit(vd, i, v);
        }
    }
    m.cmp_scratch = scratch;
    Ok(())
}

/// Bulk path of an unmasked compare. `vd` may overlap a source, so every
/// result is packed (64 to a word of `cmp_scratch`) before any mask byte
/// is written; the last partial byte is merged so that bits at and above
/// `vl` keep their values. It reads and writes the bytes the staged loop
/// does, in the same reads-then-writes order, so it needs no precheck.
#[inline(always)]
fn vcmp_bulk<E: Elem, C: CmpOp>(
    m: &mut Machine,
    vd: VReg,
    vs2: VReg,
    src: VSrc,
    b_const: u64,
    vl: u32,
) {
    let (vl, bytes) = (vl as usize, vl as usize * E::BYTES);
    let mut packed = std::mem::take(&mut m.cmp_scratch);
    packed.clear();
    let vregs = m.vreg_store();
    let lhs = &vregs[group_off(m, vs2)..][..bytes];
    match src {
        VSrc::V(vs1) => {
            let rhs = &vregs[group_off(m, vs1)..][..bytes];
            for (ca, cb) in lhs.chunks(64 * E::BYTES).zip(rhs.chunks(64 * E::BYTES)) {
                let pairs = ca.chunks_exact(E::BYTES).zip(cb.chunks_exact(E::BYTES));
                packed.push(pairs.enumerate().fold(0u64, |w, (j, (a, b))| {
                    w | u64::from(C::cmp::<E>(E::ld(a), E::ld(b))) << j
                }));
            }
        }
        _ => {
            for ca in lhs.chunks(64 * E::BYTES) {
                packed.push(
                    ca.chunks_exact(E::BYTES)
                        .enumerate()
                        .fold(0u64, |w, (j, a)| {
                            w | u64::from(C::cmp::<E>(E::ld(a), b_const)) << j
                        }),
                );
            }
        }
    }
    let d = group_off(m, vd);
    let mask = &mut m.vreg_store_mut()[d..d + vl.div_ceil(8)];
    let last = mask.last().copied().unwrap_or(0);
    for (dst, w) in mask.chunks_mut(8).zip(&packed) {
        dst.copy_from_slice(&w.to_le_bytes()[..dst.len()]);
    }
    if vl % 8 != 0 {
        mask[vl / 8] |= last & (0xff << (vl % 8));
    }
    m.cmp_scratch = packed;
}

fn vslide_exec<E: Elem>(
    m: &mut Machine,
    kind: SlideKind,
    vd: VReg,
    vs2: VReg,
    off: SlideOff,
    vm: bool,
) -> SimResult<()> {
    match kind {
        SlideKind::Up => {
            m.check_data_op(vd, &[vs2], vm)?;
            let (t, vl) = m.vcfg()?;
            if Machine::groups_overlap(vd, t.lmul.regs(), vs2, t.lmul.regs()) {
                return Err(SimError::OverlapConstraint {
                    what: "vslideup vd overlaps vs2",
                });
            }
            let start = off.value(m).min(vl as u64) as u32;
            if vm && within_group(m, t.lmul.regs(), vl as usize * E::BYTES) {
                let d = group_off(m, vd) + start as usize * E::BYTES;
                let (s, moved) = (group_off(m, vs2), (vl - start) as usize * E::BYTES);
                m.vreg_store_mut().copy_within(s..s + moved, d);
                return Ok(());
            }
            // vd/vs2 overlap is forbidden above, so no snapshot is needed.
            for i in start..vl {
                if m.active(vm, i) {
                    let v = E::get(m, vs2, i - start);
                    E::set(m, vd, i, v);
                }
            }
        }
        SlideKind::Down => {
            m.check_data_op(vd, &[vs2], vm)?;
            let (t, vl) = m.vcfg()?;
            let vlmax = t.vlmax(m.vlen()) as u64;
            let offset = off.value(m);
            let bytes = vl as usize * E::BYTES;
            if vm && within_group(m, t.lmul.regs(), bytes) {
                // A memmove equals the ascending read-ahead loop below.
                // Elements from VLMAX − offset on read as 0; `offset` is
                // scaled only once it is below VLMAX, so it cannot overflow.
                let moved = if offset < vlmax {
                    ((vlmax - offset) as usize).min(vl as usize) * E::BYTES
                } else {
                    0
                };
                let (d, s) = (group_off(m, vd), group_off(m, vs2));
                let vregs = m.vreg_store_mut();
                if moved > 0 {
                    let s = s + offset as usize * E::BYTES;
                    vregs.copy_within(s..s + moved, d);
                }
                vregs[d + moved..d + bytes].fill(0);
                return Ok(());
            }
            // Reads run ahead of writes (j = i + offset ≥ i, ascending i),
            // so even the ISA-legal vd == vs2 case needs no snapshot.
            // checked_add: an offset near u64::MAX is architecturally past
            // VLMAX (reads as 0), not a wrap back into range.
            for i in 0..vl {
                if m.active(vm, i) {
                    let v = match (i as u64).checked_add(offset) {
                        Some(j) if j < vlmax => E::get(m, vs2, j as u32),
                        _ => 0,
                    };
                    E::set(m, vd, i, v);
                }
            }
        }
        SlideKind::Up1 => {
            m.check_data_op(vd, &[vs2], vm)?;
            let (t, vl) = m.vcfg()?;
            if Machine::groups_overlap(vd, t.lmul.regs(), vs2, t.lmul.regs()) {
                return Err(SimError::OverlapConstraint {
                    what: "vslide1up vd overlaps vs2",
                });
            }
            let x = off.value(m) & E::MAX;
            if vl > 0 && m.active(vm, 0) {
                E::set(m, vd, 0, x);
            }
            for i in 1..vl {
                if m.active(vm, i) {
                    let v = E::get(m, vs2, i - 1);
                    E::set(m, vd, i, v);
                }
            }
        }
        SlideKind::Down1 => {
            m.check_data_op(vd, &[vs2], vm)?;
            let (_, vl) = m.vcfg()?;
            let x = off.value(m) & E::MAX;
            for i in 0..vl {
                if m.active(vm, i) {
                    let v = if i + 1 < vl { E::get(m, vs2, i + 1) } else { x };
                    E::set(m, vd, i, v);
                }
            }
        }
    }
    Ok(())
}

fn vload_unit<E: Elem>(m: &mut Machine, vd: VReg, rs1: XReg, vm: bool) -> SimResult<()> {
    let regs = m.emul_regs(E::SEW)?;
    m.check_emul_group(vd, regs)?;
    let (_, vl) = m.vcfg()?;
    let base = m.xreg(rs1);
    if vload_bulk::<E>(m, vd, regs, base, vl, vm) {
        return Ok(());
    }
    for i in 0..vl {
        if m.active(vm, i) {
            let addr = base.wrapping_add(i as u64 * E::BYTES as u64);
            let v = m.mem.load(addr, E::BYTES as u64)?;
            E::set(m, vd, i, v);
        }
    }
    Ok(())
}

/// Bulk path of a unit-stride load into the `regs`-register group at
/// `vd`: one bounds and guard check over `[base, base + vl·EEW)`, then a
/// copy of the active elements. Returns `false`, having written nothing,
/// when a precheck fails — also when only inactive elements fail the
/// memory check, which the per-element loop skips.
#[inline(always)]
fn vload_bulk<E: Elem>(m: &mut Machine, vd: VReg, regs: u32, base: u64, vl: u32, vm: bool) -> bool {
    let bytes = vl as usize * E::BYTES;
    if !within_group(m, regs, bytes) {
        return false;
    }
    let d = group_off(m, vd);
    let (mem, vregs) = m.mem_and_vregs();
    let Ok(src) = mem.read_bytes(base, bytes as u64) else {
        return false;
    };
    if vm {
        vregs[d..d + bytes].copy_from_slice(src);
    } else {
        for_each_active(vregs, vl, |vregs, i| {
            let o = i * E::BYTES;
            vregs[d + o..d + o + E::BYTES].copy_from_slice(&src[o..o + E::BYTES]);
        });
    }
    true
}

fn vstore_unit<E: Elem>(m: &mut Machine, vs3: VReg, rs1: XReg, vm: bool) -> SimResult<()> {
    let regs = m.emul_regs(E::SEW)?;
    m.check_emul_group(vs3, regs)?;
    let (_, vl) = m.vcfg()?;
    let base = m.xreg(rs1);
    // Bulk path, unmasked only: `write_bytes` checks bounds and guards over
    // the whole range and changes nothing when that fails. A masked store
    // stays per element, since one write would dirty pages that only
    // inactive elements cover, and snapshots carry the dirty pages.
    let bytes = vl as usize * E::BYTES;
    if vm && within_group(m, regs, bytes) {
        let s = group_off(m, vs3);
        let (mem, vregs) = m.mem_and_vregs();
        if mem.write_bytes(base, &vregs[s..s + bytes]).is_ok() {
            return Ok(());
        }
    }
    for i in 0..vl {
        if m.active(vm, i) {
            let addr = base.wrapping_add(i as u64 * E::BYTES as u64);
            let v = E::get(m, vs3, i);
            m.mem.store(addr, E::BYTES as u64, v)?;
        }
    }
    Ok(())
}

fn vload_strided<E: Elem>(
    m: &mut Machine,
    vd: VReg,
    rs1: XReg,
    rs2: XReg,
    vm: bool,
) -> SimResult<()> {
    let regs = m.emul_regs(E::SEW)?;
    m.check_emul_group(vd, regs)?;
    let (_, vl) = m.vcfg()?;
    let base = m.xreg(rs1);
    let stride = m.xreg(rs2);
    for i in 0..vl {
        if m.active(vm, i) {
            let addr = base.wrapping_add((i as u64).wrapping_mul(stride));
            let v = m.mem.load(addr, E::BYTES as u64)?;
            E::set(m, vd, i, v);
        }
    }
    Ok(())
}

fn vstore_strided<E: Elem>(
    m: &mut Machine,
    vs3: VReg,
    rs1: XReg,
    rs2: XReg,
    vm: bool,
) -> SimResult<()> {
    let regs = m.emul_regs(E::SEW)?;
    m.check_emul_group(vs3, regs)?;
    let (_, vl) = m.vcfg()?;
    let base = m.xreg(rs1);
    let stride = m.xreg(rs2);
    for i in 0..vl {
        if m.active(vm, i) {
            let addr = base.wrapping_add((i as u64).wrapping_mul(stride));
            let v = E::get(m, vs3, i);
            m.mem.store(addr, E::BYTES as u64, v)?;
        }
    }
    Ok(())
}

/// Indexed load: `ED` is the (vtype-cached) data SEW, `EI` the (static)
/// index EEW. The data element comes first so `by_sew!` can fill it.
fn vload_indexed<ED: Elem, EI: Elem>(
    m: &mut Machine,
    vd: VReg,
    rs1: XReg,
    vs2: VReg,
    vm: bool,
) -> SimResult<()> {
    let (t, vl) = m.vcfg()?;
    m.check_group(vd, t.lmul)?;
    let idx_regs = m.emul_regs(EI::SEW)?;
    m.check_emul_group(vs2, idx_regs)?;
    let base = m.xreg(rs1);
    for i in 0..vl {
        if m.active(vm, i) {
            let off = EI::get(m, vs2, i);
            let v = m.mem.load(base.wrapping_add(off), ED::BYTES as u64)?;
            ED::set(m, vd, i, v);
        }
    }
    Ok(())
}

fn vstore_indexed<ED: Elem, EI: Elem>(
    m: &mut Machine,
    vs3: VReg,
    rs1: XReg,
    vs2: VReg,
    vm: bool,
) -> SimResult<()> {
    let (t, vl) = m.vcfg()?;
    m.check_group(vs3, t.lmul)?;
    let idx_regs = m.emul_regs(EI::SEW)?;
    m.check_emul_group(vs2, idx_regs)?;
    let base = m.xreg(rs1);
    for i in 0..vl {
        if m.active(vm, i) {
            let off = EI::get(m, vs2, i);
            let v = ED::get(m, vs3, i);
            m.mem.store(base.wrapping_add(off), ED::BYTES as u64, v)?;
        }
    }
    Ok(())
}

// --------------------------------------------------------------- resolvers --

macro_rules! by_sew {
    ($sew:expr, $f:ident $(, $g:ty)*) => {
        match $sew {
            Sew::E8 => $f::<u8 $(, $g)*>,
            Sew::E16 => $f::<u16 $(, $g)*>,
            Sew::E32 => $f::<u32 $(, $g)*>,
            Sew::E64 => $f::<u64 $(, $g)*>,
        }
    };
}

fn resolve_valu(op: VAluOp, sew: Sew) -> VAluFn {
    macro_rules! k {
        ($o:ty) => {
            match sew {
                Sew::E8 => valu_exec::<u8, $o>,
                Sew::E16 => valu_exec::<u16, $o>,
                Sew::E32 => valu_exec::<u32, $o>,
                Sew::E64 => valu_exec::<u64, $o>,
            }
        };
    }
    match op {
        VAluOp::Add => k!(BAdd),
        VAluOp::Sub => k!(BSub),
        VAluOp::Rsub => k!(BRsub),
        VAluOp::Minu => k!(BMinu),
        VAluOp::Min => k!(BMin),
        VAluOp::Maxu => k!(BMaxu),
        VAluOp::Max => k!(BMax),
        VAluOp::And => k!(BAnd),
        VAluOp::Or => k!(BOr),
        VAluOp::Xor => k!(BXor),
        VAluOp::Sll => k!(BSll),
        VAluOp::Srl => k!(BSrl),
        VAluOp::Sra => k!(BSra),
        VAluOp::Mul => k!(BMul),
        VAluOp::Mulh => k!(BMulh),
        VAluOp::Mulhu => k!(BMulhu),
        VAluOp::Divu => k!(BDivu),
        VAluOp::Div => k!(BDiv),
        VAluOp::Remu => k!(BRemu),
        VAluOp::Rem => k!(BRem),
    }
}

fn resolve_vcmp(cond: VCmp, sew: Sew) -> VCmpFn {
    macro_rules! k {
        ($c:ty) => {
            match sew {
                Sew::E8 => vcmp_exec::<u8, $c>,
                Sew::E16 => vcmp_exec::<u16, $c>,
                Sew::E32 => vcmp_exec::<u32, $c>,
                Sew::E64 => vcmp_exec::<u64, $c>,
            }
        };
    }
    match cond {
        VCmp::Eq => k!(CEq),
        VCmp::Ne => k!(CNe),
        VCmp::Ltu => k!(CLtu),
        VCmp::Lt => k!(CLt),
        VCmp::Leu => k!(CLeu),
        VCmp::Le => k!(CLe),
        VCmp::Gtu => k!(CGtu),
        VCmp::Gt => k!(CGt),
    }
}

fn resolve_vmove(sew: Sew) -> VMoveFn {
    by_sew!(sew, vmove_exec)
}

fn resolve_vmerge(sew: Sew) -> VMergeFn {
    by_sew!(sew, vmerge_exec)
}

fn resolve_vslide(sew: Sew) -> VSlideFn {
    by_sew!(sew, vslide_exec)
}

fn resolve_vload_unit(eew: Sew) -> VMemFn {
    by_sew!(eew, vload_unit)
}

fn resolve_vstore_unit(eew: Sew) -> VMemFn {
    by_sew!(eew, vstore_unit)
}

fn resolve_vload_strided(eew: Sew) -> VMemStrideFn {
    by_sew!(eew, vload_strided)
}

fn resolve_vstore_strided(eew: Sew) -> VMemStrideFn {
    by_sew!(eew, vstore_strided)
}

fn resolve_vload_indexed(eew: Sew, sew: Sew) -> IdxMemFn {
    macro_rules! inner {
        ($ei:ty) => {
            by_sew!(sew, vload_indexed, $ei)
        };
    }
    match eew {
        Sew::E8 => inner!(u8),
        Sew::E16 => inner!(u16),
        Sew::E32 => inner!(u32),
        Sew::E64 => inner!(u64),
    }
}

fn resolve_vstore_indexed(eew: Sew, sew: Sew) -> IdxMemFn {
    macro_rules! inner {
        ($ei:ty) => {
            by_sew!(sew, vstore_indexed, $ei)
        };
    }
    match eew {
        Sew::E8 => inner!(u8),
        Sew::E16 => inner!(u16),
        Sew::E32 => inner!(u32),
        Sew::E64 => inner!(u64),
    }
}

// ---------------------------------------------------------------- lowering --

/// The executable form of one instruction. Everything resolvable without
/// machine state is resolved here; `Generic` routes the remaining families
/// through the legacy dispatcher (with the class still pre-computed).
#[derive(Debug)]
enum OpKind {
    Lui {
        rd: XReg,
        value: u64,
    },
    Auipc {
        rd: XReg,
        value: u64,
    },
    Jal {
        rd: XReg,
        link: u64,
        to: Target,
    },
    Jalr {
        rd: XReg,
        rs1: XReg,
        offset: u64,
        link: u64,
    },
    Branch {
        taken: fn(u64, u64) -> bool,
        rs1: XReg,
        rs2: XReg,
        to: Target,
    },
    Load {
        width: MemWidth,
        signed: bool,
        rd: XReg,
        rs1: XReg,
        offset: u64,
    },
    Store {
        width: MemWidth,
        rs2: XReg,
        rs1: XReg,
        offset: u64,
    },
    Alu {
        f: fn(u64, u64) -> u64,
        rd: XReg,
        rs1: XReg,
        rhs: AluRhs,
    },
    Csrr {
        rd: XReg,
        csr: VCsr,
    },
    Ecall,
    Ebreak {
        pc: u64,
    },
    VCfg {
        idx: u32,
    },
    VAlu {
        f: KCache<VAluFn>,
        op: VAluOp,
        vd: VReg,
        vs2: VReg,
        src: VSrc,
        vm: bool,
    },
    VMove {
        f: KCache<VMoveFn>,
        vd: VReg,
        src: VSrc,
    },
    VMerge {
        f: KCache<VMergeFn>,
        vd: VReg,
        vs2: VReg,
        src: VSrc,
    },
    VCmp {
        f: KCache<VCmpFn>,
        cond: VCmp,
        vd: VReg,
        vs2: VReg,
        src: VSrc,
        vm: bool,
    },
    VSlide {
        f: KCache<VSlideFn>,
        kind: SlideKind,
        vd: VReg,
        vs2: VReg,
        off: SlideOff,
        vm: bool,
    },
    VLoadUnit {
        f: VMemFn,
        vd: VReg,
        rs1: XReg,
        vm: bool,
    },
    VStoreUnit {
        f: VMemFn,
        vs3: VReg,
        rs1: XReg,
        vm: bool,
    },
    VLoadStrided {
        f: VMemStrideFn,
        vd: VReg,
        rs1: XReg,
        rs2: XReg,
        vm: bool,
    },
    VStoreStrided {
        f: VMemStrideFn,
        vs3: VReg,
        rs1: XReg,
        rs2: XReg,
        vm: bool,
    },
    VLoadIndexed {
        f: KCache<IdxMemFn>,
        eew: Sew,
        vd: VReg,
        rs1: XReg,
        vs2: VReg,
        vm: bool,
    },
    VStoreIndexed {
        f: KCache<IdxMemFn>,
        eew: Sew,
        vs3: VReg,
        rs1: XReg,
        vs2: VReg,
        vm: bool,
    },
    VLoadWhole {
        nregs: u8,
        vd: VReg,
        rs1: XReg,
    },
    VStoreWhole {
        nregs: u8,
        vs3: VReg,
        rs1: XReg,
    },
    Generic {
        idx: u32,
    },
}

fn lower(idx: usize, ins: &Instr, len: usize) -> OpKind {
    use Instr::*;
    let pc = (idx * 4) as u64;
    match *ins {
        Lui { rd, imm20 } => OpKind::Lui {
            rd,
            value: ((imm20 as i64) << 12) as u64,
        },
        Auipc { rd, imm20 } => OpKind::Auipc {
            rd,
            value: pc.wrapping_add(((imm20 as i64) << 12) as u64),
        },
        Jal { rd, offset } => OpKind::Jal {
            rd,
            link: pc.wrapping_add(4),
            to: resolve_target(pc.wrapping_add(offset as i64 as u64), len),
        },
        Jalr { rd, rs1, offset } => OpKind::Jalr {
            rd,
            rs1,
            offset: offset as i64 as u64,
            link: pc.wrapping_add(4),
        },
        Branch {
            cond,
            rs1,
            rs2,
            offset,
        } => OpKind::Branch {
            taken: branch_fn(cond),
            rs1,
            rs2,
            to: resolve_target(pc.wrapping_add(offset as i64 as u64), len),
        },
        Load {
            width,
            signed,
            rd,
            rs1,
            offset,
        } => OpKind::Load {
            width,
            signed,
            rd,
            rs1,
            offset: offset as i64 as u64,
        },
        Store {
            width,
            rs2,
            rs1,
            offset,
        } => OpKind::Store {
            width,
            rs2,
            rs1,
            offset: offset as i64 as u64,
        },
        OpImm { op, rd, rs1, imm } => OpKind::Alu {
            f: alu_fn(op),
            rd,
            rs1,
            rhs: AluRhs::Imm(imm as i64 as u64),
        },
        Op { op, rd, rs1, rs2 } => OpKind::Alu {
            f: alu_fn(op),
            rd,
            rs1,
            rhs: AluRhs::Reg(rs2),
        },
        Csrr { rd, csr } => OpKind::Csrr { rd, csr },
        Ecall => OpKind::Ecall,
        Ebreak => OpKind::Ebreak { pc },
        Vsetvli { .. } | Vsetivli { .. } | Vsetvl { .. } => OpKind::VCfg { idx: idx as u32 },
        VOpVV {
            op,
            vd,
            vs2,
            vs1,
            vm,
        } => OpKind::VAlu {
            f: KCache::new(),
            op,
            vd,
            vs2,
            src: VSrc::V(vs1),
            vm,
        },
        VOpVX {
            op,
            vd,
            vs2,
            rs1,
            vm,
        } => OpKind::VAlu {
            f: KCache::new(),
            op,
            vd,
            vs2,
            src: VSrc::X(rs1),
            vm,
        },
        VOpVI {
            op,
            vd,
            vs2,
            imm,
            vm,
        } => OpKind::VAlu {
            f: KCache::new(),
            op,
            vd,
            vs2,
            src: VSrc::I(if op.imm_is_unsigned() {
                imm as u8 as u64
            } else {
                imm as i64 as u64
            }),
            vm,
        },
        VMvVV { vd, vs1 } => OpKind::VMove {
            f: KCache::new(),
            vd,
            src: VSrc::V(vs1),
        },
        VMvVX { vd, rs1 } => OpKind::VMove {
            f: KCache::new(),
            vd,
            src: VSrc::X(rs1),
        },
        VMvVI { vd, imm } => OpKind::VMove {
            f: KCache::new(),
            vd,
            src: VSrc::I(imm as i64 as u64),
        },
        VMergeVVM { vd, vs2, vs1 } => OpKind::VMerge {
            f: KCache::new(),
            vd,
            vs2,
            src: VSrc::V(vs1),
        },
        VMergeVXM { vd, vs2, rs1 } => OpKind::VMerge {
            f: KCache::new(),
            vd,
            vs2,
            src: VSrc::X(rs1),
        },
        VMergeVIM { vd, vs2, imm } => OpKind::VMerge {
            f: KCache::new(),
            vd,
            vs2,
            src: VSrc::I(imm as i64 as u64),
        },
        VCmpVV {
            cond,
            vd,
            vs2,
            vs1,
            vm,
        } => OpKind::VCmp {
            f: KCache::new(),
            cond,
            vd,
            vs2,
            src: VSrc::V(vs1),
            vm,
        },
        VCmpVX {
            cond,
            vd,
            vs2,
            rs1,
            vm,
        } => OpKind::VCmp {
            f: KCache::new(),
            cond,
            vd,
            vs2,
            src: VSrc::X(rs1),
            vm,
        },
        VCmpVI {
            cond,
            vd,
            vs2,
            imm,
            vm,
        } => OpKind::VCmp {
            f: KCache::new(),
            cond,
            vd,
            vs2,
            src: VSrc::I(imm as i64 as u64),
            vm,
        },
        VSlideUpVX { vd, vs2, rs1, vm } => OpKind::VSlide {
            f: KCache::new(),
            kind: SlideKind::Up,
            vd,
            vs2,
            off: SlideOff::X(rs1),
            vm,
        },
        VSlideUpVI { vd, vs2, uimm, vm } => OpKind::VSlide {
            f: KCache::new(),
            kind: SlideKind::Up,
            vd,
            vs2,
            off: SlideOff::I(uimm as u64),
            vm,
        },
        VSlideDownVX { vd, vs2, rs1, vm } => OpKind::VSlide {
            f: KCache::new(),
            kind: SlideKind::Down,
            vd,
            vs2,
            off: SlideOff::X(rs1),
            vm,
        },
        VSlideDownVI { vd, vs2, uimm, vm } => OpKind::VSlide {
            f: KCache::new(),
            kind: SlideKind::Down,
            vd,
            vs2,
            off: SlideOff::I(uimm as u64),
            vm,
        },
        VSlide1Up { vd, vs2, rs1, vm } => OpKind::VSlide {
            f: KCache::new(),
            kind: SlideKind::Up1,
            vd,
            vs2,
            off: SlideOff::X(rs1),
            vm,
        },
        VSlide1Down { vd, vs2, rs1, vm } => OpKind::VSlide {
            f: KCache::new(),
            kind: SlideKind::Down1,
            vd,
            vs2,
            off: SlideOff::X(rs1),
            vm,
        },
        VLoad { eew, vd, rs1, vm } => OpKind::VLoadUnit {
            f: resolve_vload_unit(eew),
            vd,
            rs1,
            vm,
        },
        VStore { eew, vs3, rs1, vm } => OpKind::VStoreUnit {
            f: resolve_vstore_unit(eew),
            vs3,
            rs1,
            vm,
        },
        VLoadStrided {
            eew,
            vd,
            rs1,
            rs2,
            vm,
        } => OpKind::VLoadStrided {
            f: resolve_vload_strided(eew),
            vd,
            rs1,
            rs2,
            vm,
        },
        VStoreStrided {
            eew,
            vs3,
            rs1,
            rs2,
            vm,
        } => OpKind::VStoreStrided {
            f: resolve_vstore_strided(eew),
            vs3,
            rs1,
            rs2,
            vm,
        },
        VLoadIndexed {
            eew,
            ordered: _,
            vd,
            rs1,
            vs2,
            vm,
        } => OpKind::VLoadIndexed {
            f: KCache::new(),
            eew,
            vd,
            rs1,
            vs2,
            vm,
        },
        VStoreIndexed {
            eew,
            ordered: _,
            vs3,
            rs1,
            vs2,
            vm,
        } => OpKind::VStoreIndexed {
            f: KCache::new(),
            eew,
            vs3,
            rs1,
            vs2,
            vm,
        },
        VLoadWhole { nregs, vd, rs1 } => OpKind::VLoadWhole { nregs, vd, rs1 },
        VStoreWhole { nregs, vs3, rs1 } => OpKind::VStoreWhole { nregs, vs3, rs1 },
        // Reductions, mask group, gathers/compress, mask loads/stores, and
        // scalar-element moves stay on the legacy dispatcher.
        _ => OpKind::Generic { idx: idx as u32 },
    }
}

// --------------------------------------------------------------- execution --

impl OpKind {
    /// Execute one micro-op. `key` is the driver's current [`vtype_key`].
    #[inline(always)]
    fn execute(&self, m: &mut Machine, plan: &CompiledPlan, key: u8) -> SimResult<Flow> {
        match self {
            OpKind::Lui { rd, value } => {
                m.set_xreg(*rd, *value);
                Ok(Flow::Seq)
            }
            OpKind::Auipc { rd, value } => {
                m.set_xreg(*rd, *value);
                Ok(Flow::Seq)
            }
            OpKind::Jal { rd, link, to } => {
                m.set_xreg(*rd, *link);
                Ok(to.flow())
            }
            OpKind::Jalr {
                rd,
                rs1,
                offset,
                link,
            } => {
                // Target before link write: handles rd == rs1.
                let target = m.xreg(*rs1).wrapping_add(*offset) & !1;
                m.set_xreg(*rd, *link);
                Ok(resolve_dynamic(target, plan.ops.len()))
            }
            OpKind::Branch {
                taken,
                rs1,
                rs2,
                to,
            } => {
                if taken(m.xreg(*rs1), m.xreg(*rs2)) {
                    Ok(to.flow())
                } else {
                    Ok(Flow::Seq)
                }
            }
            OpKind::Load {
                width,
                signed,
                rd,
                rs1,
                offset,
            } => {
                let addr = m.xreg(*rs1).wrapping_add(*offset);
                let raw = m.mem.load(addr, width.bytes())?;
                let v = if *signed {
                    match width {
                        MemWidth::B => raw as u8 as i8 as i64 as u64,
                        MemWidth::H => raw as u16 as i16 as i64 as u64,
                        MemWidth::W => raw as u32 as i32 as i64 as u64,
                        MemWidth::D => raw,
                    }
                } else {
                    raw
                };
                m.set_xreg(*rd, v);
                Ok(Flow::Seq)
            }
            OpKind::Store {
                width,
                rs2,
                rs1,
                offset,
            } => {
                let addr = m.xreg(*rs1).wrapping_add(*offset);
                m.mem.store(addr, width.bytes(), m.xreg(*rs2))?;
                Ok(Flow::Seq)
            }
            OpKind::Alu { f, rd, rs1, rhs } => {
                let b = match rhs {
                    AluRhs::Reg(r) => m.xreg(*r),
                    AluRhs::Imm(v) => *v,
                };
                m.set_xreg(*rd, f(m.xreg(*rs1), b));
                Ok(Flow::Seq)
            }
            OpKind::Csrr { rd, csr } => {
                let v = match csr {
                    VCsr::Vl => m.vl() as u64,
                    VCsr::Vtype => match m.vtype() {
                        Some(t) => t.to_bits(),
                        None => 1 << 63, // vill
                    },
                    VCsr::Vlenb => m.vlenb() as u64,
                };
                m.set_xreg(*rd, v);
                Ok(Flow::Seq)
            }
            OpKind::Ecall => Ok(Flow::Halt),
            OpKind::Ebreak { pc } => Err(SimError::Breakpoint { pc: *pc }),
            OpKind::VCfg { idx } => {
                let i = *idx as usize;
                m.exec_inner((i as u64) * 4, &plan.source.instrs[i])?;
                Ok(Flow::Cfg)
            }
            OpKind::VAlu {
                f,
                op,
                vd,
                vs2,
                src,
                vm,
            } => {
                let k = f.lookup(key, |sew| resolve_valu(*op, sew))?;
                k(m, *vd, *vs2, *src, *vm)?;
                Ok(Flow::Seq)
            }
            OpKind::VMove { f, vd, src } => {
                let k = f.lookup(key, resolve_vmove)?;
                k(m, *vd, *src)?;
                Ok(Flow::Seq)
            }
            OpKind::VMerge { f, vd, vs2, src } => {
                let k = f.lookup(key, resolve_vmerge)?;
                k(m, *vd, *vs2, *src)?;
                Ok(Flow::Seq)
            }
            OpKind::VCmp {
                f,
                cond,
                vd,
                vs2,
                src,
                vm,
            } => {
                let k = f.lookup(key, |sew| resolve_vcmp(*cond, sew))?;
                k(m, *vd, *vs2, *src, *vm)?;
                Ok(Flow::Seq)
            }
            OpKind::VSlide {
                f,
                kind,
                vd,
                vs2,
                off,
                vm,
            } => {
                let k = f.lookup(key, resolve_vslide)?;
                k(m, *kind, *vd, *vs2, *off, *vm)?;
                Ok(Flow::Seq)
            }
            OpKind::VLoadUnit { f, vd, rs1, vm } => {
                f(m, *vd, *rs1, *vm)?;
                Ok(Flow::Seq)
            }
            OpKind::VStoreUnit { f, vs3, rs1, vm } => {
                f(m, *vs3, *rs1, *vm)?;
                Ok(Flow::Seq)
            }
            OpKind::VLoadStrided {
                f,
                vd,
                rs1,
                rs2,
                vm,
            } => {
                f(m, *vd, *rs1, *rs2, *vm)?;
                Ok(Flow::Seq)
            }
            OpKind::VStoreStrided {
                f,
                vs3,
                rs1,
                rs2,
                vm,
            } => {
                f(m, *vs3, *rs1, *rs2, *vm)?;
                Ok(Flow::Seq)
            }
            OpKind::VLoadIndexed {
                f,
                eew,
                vd,
                rs1,
                vs2,
                vm,
            } => {
                let k = f.lookup(key, |sew| resolve_vload_indexed(*eew, sew))?;
                k(m, *vd, *rs1, *vs2, *vm)?;
                Ok(Flow::Seq)
            }
            OpKind::VStoreIndexed {
                f,
                eew,
                vs3,
                rs1,
                vs2,
                vm,
            } => {
                let k = f.lookup(key, |sew| resolve_vstore_indexed(*eew, sew))?;
                k(m, *vs3, *rs1, *vs2, *vm)?;
                Ok(Flow::Seq)
            }
            OpKind::VLoadWhole { nregs, vd, rs1 } => {
                m.vload_whole_fast(*nregs, *vd, *rs1)?;
                Ok(Flow::Seq)
            }
            OpKind::VStoreWhole { nregs, vs3, rs1 } => {
                m.vstore_whole_fast(*nregs, *vs3, *rs1)?;
                Ok(Flow::Seq)
            }
            OpKind::Generic { idx } => {
                let i = *idx as usize;
                match m.exec_inner((i as u64) * 4, &plan.source.instrs[i])? {
                    Control::Next => Ok(Flow::Seq),
                    Control::Jump(t) => Ok(resolve_dynamic(t, plan.ops.len())),
                    Control::Halt => Ok(Flow::Halt),
                }
            }
        }
    }
}

impl Machine {
    /// Run a compiled plan on the **plan tier** from byte address
    /// `start_pc` until `ecall`, a trap, or `fuel` retired instructions,
    /// under `hooks` (`&mut ()` for none; see [`RunHooks`]).
    /// Architecturally identical to [`Machine::run_legacy`] on the plan's
    /// source program, hooks included: events carry the plan's pre-computed
    /// class and are assembled and delivered at the same points.
    ///
    /// `start_pc` is 0 for a fresh launch, or [`Machine::stop_pc`] to
    /// resume a run that paused with [`SimError::FuelExhausted`]. A
    /// misaligned `start_pc` (a pause that landed on a pending bad jump)
    /// reproduces the [`SimError::BadControlFlow`] trap the uninterrupted
    /// run would have raised.
    //
    // Out of line, so every hooks instantiation is a loop of its own: a
    // caller that picks among several (like `scanvec`'s `Session::run`)
    // would otherwise inline them all into one function, which measured
    // ~15% slower on the plain loop.
    #[inline(never)]
    pub fn run_plan<H: RunHooks + ?Sized>(
        &mut self,
        plan: &CompiledPlan,
        fuel: u64,
        start_pc: u64,
        hooks: &mut H,
    ) -> SimResult<RunReport> {
        self.plan_loop::<false, H>(plan, fuel, start_pc, hooks)
    }

    /// The loop of the plan and fused tiers. `FUSE` compiles the fused
    /// window fast path in; it is taken only while `hooks` do not
    /// intercept, since a window has no interior boundaries.
    #[inline(always)]
    fn plan_loop<const FUSE: bool, H: RunHooks + ?Sized>(
        &mut self,
        plan: &CompiledPlan,
        fuel: u64,
        start_pc: u64,
        hooks: &mut H,
    ) -> SimResult<RunReport> {
        let observe = H::OBSERVES && hooks.observes();
        let intercept = H::INTERCEPTS && hooks.intercepts();
        if observe {
            hooks.launch(&plan.source);
        }
        let windows = (FUSE && !intercept).then(|| plan.fusion());
        let before = self.counters.total();
        let mut key = vtype_key(self);
        let mut at: usize = (start_pc / 4) as usize;
        // A retired jump to an invalid target traps on the *next* iteration,
        // after the fuel check — exactly the legacy loop's ordering.
        let mut bad: Option<u64> = (!start_pc.is_multiple_of(4)).then_some(start_pc);
        loop {
            let seq = self.counters.total() - before;
            if seq >= fuel {
                self.stop_pc = bad.unwrap_or((at as u64) * 4);
                return Err(SimError::FuelExhausted { fuel });
            }
            if let Some(target) = bad {
                return Err(SimError::BadControlFlow { target });
            }
            if let Some(n) = windows.and_then(|t| t.run_window(self, at, key, fuel - seq)) {
                // Window ops never touch `xregs`, `vl`, or `vtype`, and
                // footprints are a pure function of those, so events
                // assembled after the bulk kernel are the per-op ones.
                for (k, op) in plan.ops[at..at + n].iter().enumerate() {
                    self.counters.retire_class(op.class);
                    if observe {
                        let (i, seq) = (at + k, seq + k as u64);
                        let instr = &plan.source.instrs[i];
                        hooks.retire(&self.retire_event((i as u64) * 4, instr, op.class, seq));
                    }
                }
                at += n;
                continue;
            }
            let Some(op) = plan.ops.get(at) else {
                return Err(SimError::BadControlFlow {
                    target: (at as u64) * 4,
                });
            };
            let pc = (at as u64) * 4;
            let action = if intercept {
                hooks.before(self, pc, &plan.source.instrs[at], seq)
            } else {
                FaultAction::Pass
            };
            let flow = match action {
                // Two arms rather than an `Option` event: wrapping the event
                // costs a copy of it per instruction.
                FaultAction::Pass if observe => {
                    let event = self.retire_event(pc, &plan.source.instrs[at], op.class, seq);
                    let flow = op.kind.execute(self, plan, key)?;
                    self.counters.retire_class(op.class);
                    hooks.retire(&event);
                    flow
                }
                FaultAction::Pass => {
                    let flow = op.kind.execute(self, plan, key)?;
                    self.counters.retire_class(op.class);
                    flow
                }
                FaultAction::Trap(e) => return Err(e),
                // A replacement goes through the generic exec path, which
                // retires it under its own class — exactly what the legacy
                // loop does. It may be a vsetvli, so the specialization key
                // is refreshed unconditionally.
                FaultAction::Replace(r) => {
                    let event = observe.then(|| self.retire_event(pc, &r, InstrClass::of(&r), seq));
                    let ctl = self.exec(pc, &r)?;
                    key = vtype_key(self);
                    if let Some(event) = &event {
                        hooks.retire(event);
                    }
                    match ctl {
                        Control::Next => Flow::Seq,
                        Control::Jump(t) => resolve_dynamic(t, plan.ops.len()),
                        Control::Halt => Flow::Halt,
                    }
                }
            };
            match flow {
                Flow::Seq => at += 1,
                Flow::To(i) => at = i,
                Flow::Cfg => {
                    key = vtype_key(self);
                    at += 1;
                }
                Flow::BadJump(t) => bad = Some(t),
                Flow::Halt => {
                    return Ok(RunReport {
                        retired: self.counters.total() - before,
                        halt_pc: (at as u64) * 4,
                    })
                }
            }
        }
    }
}

// Declared *after* the `by_sew!`/`binop!` macro definitions so the child
// module sees them through textual macro scoping.
pub(crate) mod fused;

// PLAN_TESTS
