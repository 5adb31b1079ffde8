//! Count-vs-cycle LMUL ablation: does the *second metric* change the
//! answer to "which LMUL should I pick"?
//!
//! Dynamic instruction count — the paper's metric — charges every retired
//! instruction the same. The `rvv-cost` timing model charges what a real
//! vector machine would: LMUL-proportional vector occupancy, memory-port
//! contention, and a large per-op spill penalty. For the unsegmented scan
//! (no spilling) the two metrics agree; for the segmented scan the m8
//! register-pressure anomaly is priced very differently — counts see one
//! extra instruction per spill, cycles see a round trip through the memory
//! port — so the best-LMUL choice can *reorder* between the metrics.
//!
//! Every `(algorithm, n, LMUL)` point is a costed `rvv-batch` job;
//! `--threads <N>` fans the grid out with byte-identical output (the
//! printed cycle digest is the CI gate). `--cost-preset` selects the
//! machine model (default `ara-like`).
//!
//! Writes `results/cost_lmul_ablation.json` / `.txt`.

use rvv_batch::{BatchJob, BatchRunner, CostModel, Engine};
use rvv_isa::Lmul;
use scanvec::primitives::{plus_scan, seg_plus_scan};
use scanvec::EnvConfig;
use scanvec::ScanEnv;
use scanvec_bench::{experiments, random_head_flags, random_u32s, table, threads_arg};
use std::sync::Arc;

/// One `(algorithm, n)` grid line: per-LMUL counts and cycles.
struct Line {
    algo: &'static str,
    n: usize,
    count: [u64; 4],
    cycles: [u64; 4],
}

impl Line {
    /// Index into `Lmul::ALL` of the cheapest LMUL under a metric; ties go
    /// to the *smaller* LMUL (fewer architectural registers consumed).
    fn best(vals: &[u64; 4]) -> usize {
        let mut best = 0;
        for (i, &v) in vals.iter().enumerate() {
            if v < vals[best] {
                best = i;
            }
        }
        best
    }
    fn best_by_count(&self) -> usize {
        Line::best(&self.count)
    }
    fn best_by_cycles(&self) -> usize {
        Line::best(&self.cycles)
    }
    fn diverges(&self) -> bool {
        self.best_by_count() != self.best_by_cycles()
    }
}

/// FNV-1a over the artifact bytes: a short deterministic digest CI can
/// compare across thread counts without storing the whole file.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn main() {
    let sizes = scanvec_bench::sweep_sizes();
    let cost = scanvec_bench::cost_preset_arg().unwrap_or_else(CostModel::ara_like);

    // The grid: (algorithm, n, LMUL), every point costed — the cost model
    // rides on the shared engine, so no job carries its own. The closures
    // return (retired, checksum) so cross-LMUL result equality is asserted
    // below — the metrics may disagree, the answers may not.
    let engine = Arc::new(Engine::builder().cost_model(cost.clone()).build());
    let mut jobs: Vec<BatchJob<(u64, u64)>> = Vec::new();
    for &n in &sizes {
        for lmul in Lmul::ALL {
            jobs.push(
                BatchJob::new(
                    format!("scan/n={n}/m{}", lmul.regs()),
                    EnvConfig::with_lmul(lmul),
                    move |env: &mut ScanEnv| {
                        let data = random_u32s(n, 8);
                        let v = env.from_u32(&data)?;
                        let retired = plus_scan(env, &v)?;
                        Ok((retired, experiments::checksum(&env.to_u32(&v))))
                    },
                )
                .weight(n as u64),
            );
        }
        for lmul in Lmul::ALL {
            jobs.push(
                BatchJob::new(
                    format!("seg_scan/n={n}/m{}", lmul.regs()),
                    EnvConfig::with_lmul(lmul),
                    move |env: &mut ScanEnv| {
                        let data = random_u32s(n, 5);
                        let flags = random_head_flags(n, 5);
                        let v = env.from_u32(&data)?;
                        let f = env.from_u32(&flags)?;
                        let retired = seg_plus_scan(env, &v, &f)?;
                        Ok((retired, experiments::checksum(&env.to_u32(&v))))
                    },
                )
                .weight(n as u64),
            );
        }
    }

    let result = BatchRunner::with_engine(threads_arg(), engine).run(jobs);
    assert!(result.all_ok(), "cost ablation job failed");

    // Fold the job-ordered reports back into grid lines.
    let mut lines: Vec<Line> = Vec::new();
    let mut it = result.reports.iter();
    for &n in &sizes {
        for algo in ["scan", "seg_scan"] {
            let mut line = Line {
                algo,
                n,
                count: [0; 4],
                cycles: [0; 4],
            };
            let mut reference: Option<u64> = None;
            for i in 0..4 {
                let r = it.next().expect("grid point");
                let &(retired, sum) = r.output().expect("measured");
                line.count[i] = retired;
                line.cycles[i] = r.cycles.as_ref().expect("costed job").total();
                match reference {
                    None => reference = Some(sum),
                    Some(x) => assert_eq!(x, sum, "{algo}: LMUL changed the result at n={n}"),
                }
            }
            lines.push(line);
        }
    }

    // Summary table: one row per (algorithm, n), both rankings side by
    // side, divergences flagged.
    let lm = |i: usize| format!("m{}", Lmul::ALL[i].regs());
    let rows: Vec<Vec<String>> = lines
        .iter()
        .map(|l| {
            let (bc, by) = (l.best_by_count(), l.best_by_cycles());
            vec![
                l.algo.to_string(),
                l.n.to_string(),
                lm(bc),
                l.count[bc].to_string(),
                lm(by),
                l.cycles[by].to_string(),
                if l.diverges() { "REORDERED" } else { "-" }.to_string(),
            ]
        })
        .collect();
    let report = table(
        &format!("Best LMUL, count vs cycles ({})", cost.name()),
        &[
            "algo",
            "N",
            "best (count)",
            "count",
            "best (cycles)",
            "cycles",
            "metrics",
        ],
        &rows,
    );
    print!("{report}");

    let diverging: Vec<&Line> = lines.iter().filter(|l| l.diverges()).collect();
    println!(
        "\n{} of {} grid lines reorder their best-LMUL choice under the cycle metric.",
        diverging.len(),
        lines.len()
    );

    // Full artifact: per-line per-LMUL numbers, deterministic (no wall
    // clocks), plus a text rendering of the same.
    let mut json_items = Vec::new();
    let mut txt = format!("count-vs-cycle LMUL ablation ({})\n", cost.name());
    for l in &lines {
        let nums = |vals: &[u64; 4]| {
            vals.iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        };
        json_items.push(format!(
            concat!(
                "    {{\"algo\": \"{}\", \"n\": {}, \"count\": [{}], \"cycles\": [{}],\n",
                "     \"best_by_count\": {}, \"best_by_cycles\": {}, \"diverges\": {}}}"
            ),
            l.algo,
            l.n,
            nums(&l.count),
            nums(&l.cycles),
            Lmul::ALL[l.best_by_count()].regs(),
            Lmul::ALL[l.best_by_cycles()].regs(),
            l.diverges(),
        ));
        txt.push_str(&format!(
            "{}/n={}: count m1..m8 = [{}] best m{}; cycles m1..m8 = [{}] best m{}{}\n",
            l.algo,
            l.n,
            nums(&l.count),
            Lmul::ALL[l.best_by_count()].regs(),
            nums(&l.cycles),
            Lmul::ALL[l.best_by_cycles()].regs(),
            if l.diverges() { "  <- REORDERED" } else { "" },
        ));
    }
    let json = format!(
        "{{\n  \"cost_model\": \"{}\",\n  \"lmuls\": [1, 2, 4, 8],\n  \"points\": [\n{}\n  ]\n}}\n",
        cost.name(),
        json_items.join(",\n")
    );
    let digest = fnv1a(json.as_bytes());
    std::fs::create_dir_all("results").expect("results dir");
    rvv_ckpt::write_atomic("results/cost_lmul_ablation.json", &json).expect("write json");
    rvv_ckpt::write_atomic("results/cost_lmul_ablation.txt", &txt).expect("write txt");
    println!("cycle digest: {digest:016x}");
    println!("-> results/cost_lmul_ablation.json/.txt");
}
