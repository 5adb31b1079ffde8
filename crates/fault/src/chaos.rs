//! The differential chaos harness: run the eight scan-vector algorithms
//! under injected faults, on both engines, and check the robustness
//! contract:
//!
//! 1. **No panic** escapes the library API — every failure is an
//!    `Err(ScanError)`.
//! 2. **No divergence** — the plan engine and the legacy interpreter
//!    produce the same outcome (same fingerprint on success, same trap on
//!    failure) under the same fault plan.
//! 3. **Clean recovery** — after a trap, [`ScanEnv::reset`] restores the
//!    environment to a state that reproduces the unfaulted golden
//!    fingerprint exactly (no `vl`/`vtype`/allocator leak).
//!
//! The harness is shared by the `chaos` integration test (tier-1) and the
//! `ablation_faults` bench binary (scaled-up manifest run).

use crate::FaultPlan;
use rvv_ckpt::{fnv1a, XorShift64};
use rvv_isa::Sew;
use scanvec::{Engine, EnvConfig, ExecEngine, ScanEnv, ScanResult};
use scanvec_algos as algos;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Deterministic per-job instruction budget for chaos runs. Far above any
/// small-`n` algorithm's need (tens of thousands of instructions), far
/// below [`rvv_sim::DEFAULT_FUEL`] — a corrupted branch that spins must
/// burn 2×10⁶ instructions, not 4×10⁹, before the watchdog fires.
pub const CHAOS_FUEL: u64 = 2_000_000;

/// The eight algorithms of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosAlgo {
    /// Split-based LSD radix sort.
    RadixSort,
    /// Bitonic sorting network.
    Bitonic,
    /// Segmented quicksort.
    SegQuicksort,
    /// Run-length encode + decode round trip.
    Rle,
    /// Bucket histogram.
    Histogram,
    /// Line-of-sight visibility.
    LineOfSight,
    /// Sparse matrix × vector (CSR).
    Spmv,
    /// Convex hull (quickhull).
    Quickhull,
}

impl ChaosAlgo {
    /// Every algorithm, in a fixed order.
    pub const ALL: [ChaosAlgo; 8] = [
        ChaosAlgo::RadixSort,
        ChaosAlgo::Bitonic,
        ChaosAlgo::SegQuicksort,
        ChaosAlgo::Rle,
        ChaosAlgo::Histogram,
        ChaosAlgo::LineOfSight,
        ChaosAlgo::Spmv,
        ChaosAlgo::Quickhull,
    ];

    /// Stable name for manifests.
    pub fn name(self) -> &'static str {
        match self {
            ChaosAlgo::RadixSort => "radix_sort",
            ChaosAlgo::Bitonic => "bitonic",
            ChaosAlgo::SegQuicksort => "seg_quicksort",
            ChaosAlgo::Rle => "rle",
            ChaosAlgo::Histogram => "histogram",
            ChaosAlgo::LineOfSight => "line_of_sight",
            ChaosAlgo::Spmv => "spmv",
            ChaosAlgo::Quickhull => "quickhull",
        }
    }
}

/// FNV-1a over the words' little-endian bytes — a stable,
/// order-sensitive output fingerprint (not cryptographic; just
/// collision-resistant enough to catch silent corruption).
fn fp_u32s(words: impl IntoIterator<Item = u32>) -> u64 {
    let bytes: Vec<u8> = words.into_iter().flat_map(u32::to_le_bytes).collect();
    fnv1a(&bytes)
}

/// Run `algo` on input derived from `data_seed` with problem size `n`.
/// Returns a stable fingerprint string: an FNV hash of the full output
/// plus the dynamic instructions the run retired — two engines (or a
/// recovered environment) agreeing on it agree on everything observable.
pub fn run_algo(
    env: &mut ScanEnv,
    algo: ChaosAlgo,
    data_seed: u64,
    n: usize,
) -> ScanResult<String> {
    let mut rng = XorShift64::from_pair(data_seed, algo as u64);
    let before = env.retired();
    let fp = match algo {
        ChaosAlgo::RadixSort => {
            let data: Vec<u32> = (0..n).map(|_| rng.below(1 << 16) as u32).collect();
            let v = env.from_u32(&data)?;
            algos::split_radix_sort(env, &v, 16)?;
            fp_u32s(env.to_u32(&v))
        }
        ChaosAlgo::Bitonic => {
            let n = n.next_power_of_two();
            let data: Vec<u32> = (0..n).map(|_| rng.next_u64() as u32).collect();
            let v = env.from_u32(&data)?;
            algos::bitonic_sort(env, &v)?;
            fp_u32s(env.to_u32(&v))
        }
        ChaosAlgo::SegQuicksort => {
            let data: Vec<u32> = (0..n).map(|_| rng.below(10_000) as u32).collect();
            let v = env.from_u32(&data)?;
            algos::seg_quicksort(env, &v)?;
            fp_u32s(env.to_u32(&v))
        }
        ChaosAlgo::Rle => {
            // Runs-heavy data so the encoding actually compresses.
            let mut data = Vec::with_capacity(n);
            while data.len() < n {
                let v = rng.below(8) as u32;
                for _ in 0..=rng.below(6) {
                    if data.len() < n {
                        data.push(v);
                    }
                }
            }
            let v = env.from_u32(&data)?;
            let (rle, _) = algos::rle_encode(env, &v)?;
            let out = env.alloc(Sew::E32, n)?;
            algos::rle_decode(env, &rle, &out)?;
            fp_u32s(
                rle.values
                    .iter()
                    .chain(rle.lengths.iter())
                    .copied()
                    .chain(env.to_u32(&out)),
            )
        }
        ChaosAlgo::Histogram => {
            const BUCKETS: u32 = 32;
            let data: Vec<u32> = (0..n).map(|_| rng.below(BUCKETS as u64) as u32).collect();
            let (counts, _) = algos::histogram(env, &data, BUCKETS)?;
            fp_u32s(counts)
        }
        ChaosAlgo::LineOfSight => {
            let alt: Vec<u32> = (0..n).map(|_| rng.below(1000) as u32).collect();
            let (vis, _) = algos::line_of_sight(env, &alt, 500)?;
            fnv1a(&vis.into_iter().map(u8::from).collect::<Vec<u8>>())
        }
        ChaosAlgo::Spmv => {
            let rows = n.div_ceil(4).max(1);
            let cols = 64u32;
            let mut values = Vec::new();
            let mut col_idx = Vec::new();
            let mut row_nnz = Vec::with_capacity(rows);
            for _ in 0..rows {
                let nnz = rng.below(5) as u32;
                row_nnz.push(nnz);
                for _ in 0..nnz {
                    values.push(1 + rng.below(100) as u32);
                    col_idx.push(rng.below(cols as u64) as u32);
                }
            }
            let a = algos::CsrMatrix {
                cols,
                values,
                col_idx,
                row_nnz,
            };
            let x: Vec<u32> = (0..cols).map(|_| rng.below(100) as u32).collect();
            let (y, _) = algos::spmv(env, &a, &x)?;
            fp_u32s(y)
        }
        ChaosAlgo::Quickhull => {
            let points: Vec<(u32, u32)> = (0..n.max(3))
                .map(|_| (rng.below(100_000) as u32, rng.below(100_000) as u32))
                .collect();
            let (hull, _) = algos::quickhull(env, &points)?;
            fp_u32s(hull.into_iter().flat_map(|(x, y)| [x, y]))
        }
    };
    Ok(format!("{fp:#018x} r{}", env.retired() - before))
}

/// One chaos scenario's stable outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioOutcome {
    /// The fault plan, in its serialized form.
    pub plan: String,
    /// `ok <fingerprint>` or `err <ScanError display>` — identical on both
    /// engines by the time this struct exists.
    pub result: String,
    /// Did the faulted run actually fail (vs. the fault never firing)?
    pub faulted: bool,
}

impl ScenarioOutcome {
    /// One manifest line: `<index> <algo> plan=[...] -> <result>`.
    pub fn line(&self, index: u64, algo: ChaosAlgo) -> String {
        format!(
            "{index:04} {} plan=[{}] -> {}",
            algo.name(),
            self.plan,
            self.result
        )
    }
}

/// Run one seeded fault scenario for `algo` on **every** run-loop tier
/// (plan, legacy, fused) and check the full robustness contract. Every session is created from
/// the shared `engine` — one engine serves the whole chaos sweep, so the
/// kernel cache is warmed once across hundreds of scenarios. `Ok` carries
/// the tier-agreed outcome; `Err` carries a description of the contract
/// violation (panic, engine divergence, or failed recovery) — the chaos
/// test asserts no scenario returns `Err`.
pub fn run_scenario(
    cfg: EnvConfig,
    engine: &Arc<Engine>,
    algo: ChaosAlgo,
    seed: u64,
    index: u64,
    n: usize,
) -> Result<ScenarioOutcome, String> {
    let fault_plan = FaultPlan::derive(seed, index);
    // Input data depends on the seed and the algorithm but NOT the scenario
    // index, so each (algo, cfg) pair has one golden fingerprint shared by
    // every scenario — and recovery is checked against real, cached truth.
    let data_seed = mix_data_seed(seed, algo);

    let mut agreed: Option<(String, bool)> = None;
    for exec in [ExecEngine::Plan, ExecEngine::Legacy, ExecEngine::Fused] {
        let mut env = engine
            .session(cfg)
            .map_err(|e| format!("chaos config rejected: {e}"))?;
        env.set_exec_engine(exec);

        // Golden: unfaulted run in this very session (also warms the
        // kernel cache so the faulted attempt can't fail inside `kernel`).
        let golden = run_algo(&mut env, algo, data_seed, n)
            .map_err(|e| format!("{} unfaulted run failed on {exec:?}: {e}", algo.name()))?;
        // `reset()` reverts to the engine's default tier — re-select, or
        // the Legacy iteration would silently run (and compare) Plan vs
        // Plan.
        env.reset();
        env.set_exec_engine(exec);

        fault_plan.arm(&mut env);
        env.set_fuel_budget(Some(CHAOS_FUEL));

        // Contract 1: no panic escapes.
        assert_eq!(env.exec_engine(), exec, "faulted run must use {exec:?}");
        let outcome = catch_unwind(AssertUnwindSafe(|| run_algo(&mut env, algo, data_seed, n)))
            .map_err(|p| {
                format!(
                    "PANIC on {exec:?} {} scenario {index} plan=[{fault_plan}]: {}",
                    algo.name(),
                    panic_text(&p),
                )
            })?;
        let faulted = outcome.is_err();
        let result = match outcome {
            Ok(fp) => format!("ok {fp}"),
            Err(e) => format!("err {e}"),
        };

        // Contract 3: reset() after the (possibly trapped) run restores a
        // state that reproduces the golden fingerprint bit-exactly.
        env.reset();
        env.set_exec_engine(exec);
        assert_eq!(env.exec_engine(), exec, "recovery run must use {exec:?}");
        let recovered = run_algo(&mut env, algo, data_seed, n).map_err(|e| {
            format!(
                "post-reset run failed on {exec:?} {} scenario {index} plan=[{fault_plan}]: {e}",
                algo.name()
            )
        })?;
        if recovered != golden {
            return Err(format!(
                "SILENT CORRUPTION on {exec:?} {} scenario {index} plan=[{fault_plan}]: \
                 recovered `{recovered}` != golden `{golden}`",
                algo.name()
            ));
        }

        // Contract 2: every run-loop tier agrees on the faulted outcome.
        match &agreed {
            None => agreed = Some((result, faulted)),
            Some((first, _)) if *first != result => {
                return Err(format!(
                    "ENGINE DIVERGENCE {} scenario {index} plan=[{fault_plan}]: \
                     Plan `{first}` vs {exec:?} `{result}`",
                    algo.name()
                ));
            }
            Some(_) => {}
        }
    }

    let (result, faulted) = agreed.expect("all run-loop tiers ran");
    Ok(ScenarioOutcome {
        plan: fault_plan.to_string(),
        result,
        faulted,
    })
}

fn mix_data_seed(seed: u64, algo: ChaosAlgo) -> u64 {
    seed ^ (0x5ca1_ab1e_0000_0000 | algo as u64)
}

fn panic_text(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A small environment configuration for chaos runs: VLEN 256, modest
/// device memory (the workloads are tiny; 8 MiB keeps env construction
/// cheap across hundreds of scenarios).
pub fn chaos_config() -> EnvConfig {
    EnvConfig {
        mem_bytes: 8 << 20,
        ..EnvConfig::with_vlen(256)
    }
}
