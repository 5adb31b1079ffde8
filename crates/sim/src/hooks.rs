//! The one seam between a run loop and whatever observes or steers it.
//!
//! Each tier has one run loop, generic over a [`RunHooks`] value and
//! monomorphized per hooks type: [`Machine::run_legacy`],
//! [`Machine::run_plan`] and [`Machine::run_fused`]. At every instruction
//! boundary the loop does, in this order: the fuel check, a pending bad
//! jump, the fetch, [`RunHooks::before`] (interception), the execution,
//! the retire count, and [`RunHooks::retire`] (observation). Tracing, cost
//! estimation, fault injection and deadlines all go through this seam.
//!
//! Three implementations cover every caller:
//!
//! * `()` — no hooks. Both associated constants are `false`, so the loop
//!   compiles to the plain fetch–execute loop with no per-instruction hook
//!   work.
//! * Any [`TraceSink`] — observation only, fixed at compile time: the
//!   traced loop carries no interception and tests no flags.
//! * [`HookSet`] — any mix of a [`TraceSink`], a [`FaultHook`] and a
//!   [`CancelToken`] attached at run time. Which of them are present is
//!   read once per launch and tested per instruction, so a caller with
//!   only a sink passes the sink itself.

use crate::cancel::CancelToken;
use crate::fault::{FaultAction, FaultHook};
use crate::machine::Machine;
use crate::program::Program;
use crate::trace::{RetireEvent, TraceSink};
use rvv_isa::Instr;

/// What a run loop calls at each instruction boundary (see the module
/// docs for the order).
pub trait RunHooks {
    /// Can this type ever intercept? `false` compiles
    /// [`RunHooks::before`] out of the loop.
    const INTERCEPTS: bool;
    /// Can this type ever observe retirements? `false` compiles event
    /// assembly and [`RunHooks::retire`] out of the loop.
    const OBSERVES: bool;

    /// Does this value intercept the launch about to start? Read once per
    /// launch. Interception turns the fused tier's windows off: a window
    /// has no interior boundaries to intercept at.
    fn intercepts(&self) -> bool {
        Self::INTERCEPTS
    }

    /// Does this value observe the launch about to start? Read once per
    /// launch.
    fn observes(&self) -> bool {
        Self::OBSERVES
    }

    /// An observed launch of `program` is starting.
    fn launch(&mut self, _program: &Program) {}

    /// The instruction at byte address `pc` is about to execute on `m`;
    /// `seq` is the number of instructions this launch has retired so far.
    /// Called only while intercepting.
    fn before(&mut self, _m: &Machine, _pc: u64, _instr: &Instr, _seq: u64) -> FaultAction {
        FaultAction::Pass
    }

    /// An instruction retired. Called only while observing.
    fn retire(&mut self, _event: &RetireEvent<'_>) {}
}

/// No hooks: the plain loop.
impl RunHooks for () {
    const INTERCEPTS: bool = false;
    const OBSERVES: bool = false;
}

/// A trace sink on its own: observation only.
impl<S: TraceSink + ?Sized> RunHooks for S {
    const INTERCEPTS: bool = false;
    const OBSERVES: bool = true;

    fn launch(&mut self, program: &Program) {
        TraceSink::launch(self, program);
    }

    #[inline]
    fn retire(&mut self, event: &RetireEvent<'_>) {
        TraceSink::retire(self, event);
    }
}

/// The hooks of one launch, attached at run time. Every part is optional;
/// an empty set, or one with only a sink, behaves exactly like `()` or the
/// sink itself but pays per-instruction branches, so callers pass those
/// instead.
#[derive(Default)]
pub struct HookSet<'a> {
    /// Receives every retired instruction, fused-window constituents
    /// included, and the launch itself.
    pub sink: Option<&'a mut dyn TraceSink>,
    /// Consulted before each instruction executes, with its pre-execution
    /// memory footprint, after the cancel token.
    pub fault: Option<&'a mut dyn FaultHook>,
    /// Consulted first at every boundary. A cancelled token traps with
    /// [`SimError::Cancelled`](crate::SimError::Cancelled) carrying the
    /// boundary's 1-based ordinal within the launch.
    pub cancel: Option<&'a CancelToken>,
}

impl<'a> HookSet<'a> {
    /// Only a fault hook.
    pub fn fault(hook: &'a mut dyn FaultHook) -> Self {
        HookSet {
            fault: Some(hook),
            ..HookSet::default()
        }
    }
}

impl RunHooks for HookSet<'_> {
    const INTERCEPTS: bool = true;
    const OBSERVES: bool = true;

    fn intercepts(&self) -> bool {
        self.fault.is_some() || self.cancel.is_some()
    }

    fn observes(&self) -> bool {
        self.sink.is_some()
    }

    fn launch(&mut self, program: &Program) {
        if let Some(sink) = &mut self.sink {
            sink.launch(program);
        }
    }

    #[inline]
    fn before(&mut self, m: &Machine, pc: u64, instr: &Instr, seq: u64) -> FaultAction {
        if let Some(e) = self.cancel.and_then(|t| t.trap_at(seq + 1)) {
            return FaultAction::Trap(e);
        }
        match &mut self.fault {
            Some(hook) => hook.before(pc, instr, m.mem_footprint(instr).as_ref()),
            None => FaultAction::Pass,
        }
    }

    #[inline]
    fn retire(&mut self, event: &RetireEvent<'_>) {
        if let Some(sink) = &mut self.sink {
            sink.retire(event);
        }
    }
}
