//! The spill detector against a hand-built kernel that deliberately saves
//! and restores a register group through the stack — plus equal traffic
//! aimed at the heap, which must NOT be classified as spill.

use rvv_asm::ProgramBuilder;
use rvv_isa::{Lmul, MemWidth, Sew, VReg, VType, XReg};
use rvv_sim::{CompiledPlan, Machine, MachineConfig, TraceSink};
use rvv_trace::TraceProfiler;

const MEM: usize = 1 << 16;
const STACK_BASE: u64 = (MEM - 0x1000) as u64;
const HEAP_ADDR: u64 = 0x1000;

/// vsetvli; fill v8; spill v8 group to the stack; reload it; store it to
/// the heap; load it back from the heap; one scalar store each to stack
/// and heap.
fn spilling_kernel() -> rvv_sim::Program {
    let sp = XReg::new(2);
    let heap = XReg::new(6);
    let mut b = ProgramBuilder::new("hand_spiller");
    b.mark("setup");
    b.li(sp, STACK_BASE as i64);
    b.li(heap, HEAP_ADDR as i64);
    b.vsetvli(XReg::new(5), XReg::ZERO, VType::new(Sew::E32, Lmul::M2));
    b.vmv_vi(VReg::new(8), 7);
    b.mark("spill_code");
    b.vsr(2, VReg::new(8), sp); // vector spill store
    b.vlr(2, VReg::new(8), sp); // vector spill reload
    b.sd(XReg::ZERO, sp, 8); // scalar stack store
    b.mark("real_work");
    b.vse(Sew::E32, VReg::new(8), heap); // heap traffic: not spill
    b.vle(Sew::E32, VReg::new(8), heap);
    b.store(MemWidth::D, XReg::ZERO, heap, 0);
    b.halt();
    b.finish().unwrap()
}

#[test]
fn detector_counts_only_stack_traffic() {
    let mut m = Machine::new(MachineConfig {
        vlen: 256,
        mem_bytes: MEM,
    });
    let mut profiler = TraceProfiler::new(STACK_BASE..MEM as u64);
    let plan = CompiledPlan::compile(spilling_kernel());
    profiler.phase_begin("kernel");
    let report = m
        .run_plan(&plan, 10_000, 0, &mut profiler)
        .expect("kernel runs");
    profiler.phase_end("kernel");

    let s = profiler.spill();
    assert_eq!(s.vector_stores, 1, "one vsr to the stack");
    assert_eq!(s.vector_loads, 1, "one vlr from the stack");
    // Whole-register ops move nregs x VLENB = 2 x 32 bytes each way.
    assert_eq!(s.vector_bytes, 128);
    assert_eq!(s.scalar_stores, 1, "one sd to the stack");
    assert_eq!(s.scalar_loads, 0);
    assert_eq!(s.scalar_bytes, 8);
    // The heap-directed vse/vle/sd were seen but not classified as spill:
    // the profiler retired everything, yet spill ops stay at 3.
    assert_eq!(profiler.total_retired(), report.retired);
    assert_eq!(s.total_ops(), 3);

    // Attribution: all spill traffic falls in the `spill_code` region and
    // the `kernel` phase.
    let phase = profiler.phase("kernel").unwrap();
    assert_eq!(phase.spill.total_ops(), 3);
    let hs = profiler.hotspots(100);
    for h in &hs {
        if h.symbol.as_deref() == Some("real_work") {
            assert!(h.pc > 0, "real_work instructions retired");
        }
    }
    assert!(
        hs.iter().any(|h| h.symbol.as_deref() == Some("spill_code")),
        "spill region symbolicated: {hs:?}"
    );
}

#[test]
fn detector_is_quiet_without_stack_traffic() {
    let mut m = Machine::new(MachineConfig {
        vlen: 256,
        mem_bytes: MEM,
    });
    // Same kernel, but the profiler watches an empty region.
    let mut profiler = TraceProfiler::new(0..0);
    let plan = CompiledPlan::compile(spilling_kernel());
    m.run_plan(&plan, 10_000, 0, &mut profiler)
        .expect("kernel runs");
    assert_eq!(profiler.spill().total_ops(), 0);
}
