//! Seeded input generators. Every input the program receives is a pure
//! function of the workload seed; the program never sees the seed itself.
//!
//! The generators keep the *amount* of work independent of the seed where
//! they can (fixed sizes, every serve configuration at every size), so the
//! seed changes the data, the mix and the order, not the load. Runs on
//! different seeds then measure the same thing.

use rvv_isa::Lmul;
use rvv_serve::{JobSpec, Workload};
use scanvec::EnvConfig;
use scanvec_algos::CsrMatrix;

/// SplitMix64: a small, well-mixed, seedable stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform below `n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }

    fn vec_below(&mut self, len: usize, limit: u64) -> Vec<u32> {
        (0..len).map(|_| self.below(limit) as u32).collect()
    }
}

// ------------------------------------------------------------- sweep --

/// The applications of the `sweep` workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum App {
    Scan,
    SegScan,
    Radix,
    Histogram,
    Spmv,
    Bitonic,
    SegQsort,
}

impl App {
    pub const ALL: [App; 7] = [
        App::Scan,
        App::SegScan,
        App::Radix,
        App::Histogram,
        App::Spmv,
        App::Bitonic,
        App::SegQsort,
    ];

    pub fn name(self) -> &'static str {
        match self {
            App::Scan => "scan",
            App::SegScan => "seg_scan",
            App::Radix => "radix",
            App::Histogram => "histogram",
            App::Spmv => "spmv",
            App::Bitonic => "bitonic",
            App::SegQsort => "seg_qsort",
        }
    }
}

/// One job shape of the `sweep` workload: an application at one LMUL, on
/// the paper's VLEN=1024 machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    pub app: App,
    pub lmul: Lmul,
}

impl Shape {
    /// `scan_m1`, `seg_scan_m8`, ...
    pub fn name(&self) -> String {
        format!("{}_m{}", self.app.name(), self.lmul.regs())
    }

    pub fn config(&self) -> EnvConfig {
        EnvConfig::with_lmul(self.lmul)
    }
}

/// The 14 sweep shapes: every application at LMUL m1 and m8.
pub fn shapes() -> Vec<Shape> {
    App::ALL
        .into_iter()
        .flat_map(|app| [Lmul::M1, Lmul::M8].map(|lmul| Shape { app, lmul }))
        .collect()
}

/// Input sizes of the sweep applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    pub scan: usize,
    pub radix: usize,
    pub radix_bits: u32,
    pub hist: usize,
    pub buckets: u32,
    pub spmv_rows: usize,
    pub spmv_nnz: usize,
    pub bitonic: usize,
    pub qsort: usize,
}

impl Sizes {
    /// The measured sizes: plus_scan and seg_plus_scan at N=10^6, the
    /// others sized to comparable wall time.
    pub const FULL: Sizes = Sizes {
        scan: 1_000_000,
        radix: 200_000,
        radix_bits: 8,
        hist: 100_000,
        buckets: 256,
        spmv_rows: 100_000,
        spmv_nnz: 8,
        bitonic: 1 << 14,
        qsort: (1 << 14) - 1,
    };

    /// Sizes that launch every kernel of the full run at a fraction of
    /// its cost: the plan-compile warm-up.
    pub const WARMUP: Sizes = Sizes {
        scan: 4096,
        radix: 1024,
        radix_bits: 8,
        hist: 1024,
        buckets: 256,
        spmv_rows: 128,
        spmv_nnz: 8,
        bitonic: 1024,
        qsort: 512,
    };
}

/// Everything the sweep jobs read, generated once per seed and shared by
/// every pass.
#[derive(Debug)]
pub struct SweepInputs {
    pub sizes: Sizes,
    pub scan: Vec<u32>,
    pub flags: Vec<u32>,
    pub radix: Vec<u32>,
    pub hist: Vec<u32>,
    pub csr: CsrMatrix,
    pub x: Vec<u32>,
    pub bitonic: Vec<u32>,
    pub qsort: Vec<u32>,
}

impl SweepInputs {
    pub fn generate(seed: u64, sizes: Sizes) -> SweepInputs {
        let mut rng = Rng::new(seed, 1);
        let scan = rng.vec_below(sizes.scan, 1 << 20);
        // Segment heads about one element in 32; element 0 always a head.
        let flags = (0..sizes.scan)
            .map(|i| u32::from(i == 0 || rng.below(32) == 0))
            .collect();
        let radix = rng.vec_below(sizes.radix, 1 << sizes.radix_bits);
        let hist = rng.vec_below(sizes.hist, u64::from(sizes.buckets));
        // Exactly `spmv_nnz` nonzeros per row keeps the work seed-free.
        let cols = sizes.spmv_rows as u32;
        let nnz = sizes.spmv_rows * sizes.spmv_nnz;
        let csr = CsrMatrix {
            cols,
            values: rng.vec_below(nnz, 1000),
            col_idx: rng.vec_below(nnz, u64::from(cols)),
            row_nnz: vec![sizes.spmv_nnz as u32; sizes.spmv_rows],
        };
        let x = rng.vec_below(cols as usize, 1000);
        let bitonic = rng.vec_below(sizes.bitonic, 1 << 31);
        let qsort = pivot_balanced(&mut rng, sizes.qsort);
        SweepInputs {
            sizes,
            scan,
            flags,
            radix,
            hist,
            csr,
            x,
            bitonic,
            qsort,
        }
    }
}

/// `n` distinct seeded keys in the order that makes every first-element
/// pivot of a flat quicksort its segment's median: the level order of the
/// balanced search tree over the sorted keys. A stable partition keeps
/// each subtree in level order, so every round splits evenly and every
/// seed takes the same `ceil(log2(n + 1))` rounds.
fn pivot_balanced(rng: &mut Rng, n: usize) -> Vec<u32> {
    let mut key = 0u32;
    let sorted: Vec<u32> = (0..n)
        .map(|_| {
            key += 1 + rng.below(1000) as u32;
            key
        })
        .collect();
    let mut order = Vec::with_capacity(n);
    let mut ranges = std::collections::VecDeque::from([(0, n)]);
    while let Some((lo, hi)) = ranges.pop_front() {
        if lo < hi {
            let mid = lo + (hi - lo) / 2;
            order.push(sorted[mid]);
            ranges.push_back((lo, mid));
            ranges.push_back((mid + 1, hi));
        }
    }
    order
}

// ------------------------------------------------------------- serve --

/// VLENs the serve specs cover.
pub const VLENS: [u32; 4] = [128, 256, 512, 1024];
/// Input sizes every serve configuration runs at (within 64..=2048).
pub const N_LADDER: [usize; 4] = [64, 400, 1100, 2048];
/// Specs per submitted sweep.
pub const SWEEP_JOBS: usize = 8;

fn spec(workload: Workload, n: usize, vlen: u32, lmul: Lmul, seed: u64) -> JobSpec {
    JobSpec {
        workload,
        n,
        vlen,
        lmul,
        seed,
    }
}

/// Every (workload, VLEN, LMUL) combination the service is driven with.
fn combos() -> Vec<(Workload, u32, Lmul)> {
    let mut out = Vec::new();
    for w in Workload::ALL {
        for vlen in VLENS {
            for lmul in Lmul::ALL {
                out.push((w, vlen, lmul));
            }
        }
    }
    out
}

/// One closed-loop client's specs: every combination at every ladder size
/// (256 specs), each with input data seeded by `(seed, client)`.
pub fn serve_specs(seed: u64, client: u64) -> Vec<JobSpec> {
    let mut rng = Rng::new(seed, 100 + client);
    combos()
        .into_iter()
        .flat_map(|(w, vlen, lmul)| N_LADDER.map(|n| (w, vlen, lmul, n)))
        .map(|(w, vlen, lmul, n)| spec(w, n, vlen, lmul, rng.below(1 << 32)))
        .collect()
}

/// A client's `cycle`-th pass over its specs: shuffled afresh each cycle,
/// cut into sweeps of [`SWEEP_JOBS`]. Every cycle carries the same work;
/// reshuffling varies which specs share a sweep, so a run averages over
/// many sweep compositions instead of repeating one.
pub fn serve_cycle(seed: u64, client: u64, cycle: u64) -> Vec<Vec<JobSpec>> {
    let mut specs = serve_specs(seed, client);
    Rng::new(seed, (client << 32) | cycle).shuffle(&mut specs);
    specs.chunks(SWEEP_JOBS).map(<[JobSpec]>::to_vec).collect()
}

/// A sweep that touches every configuration once, at the smallest size:
/// compiles every plan and creates every pooled session.
pub fn warmup_sweep() -> Vec<JobSpec> {
    combos()
        .into_iter()
        .map(|(w, vlen, lmul)| spec(w, N_LADDER[0], vlen, lmul, 0))
        .collect()
}

/// The completed history of a `recover` journal: small `p_add` and
/// `plus_scan` jobs over every configuration.
pub fn history_specs(seed: u64, count: usize) -> Vec<JobSpec> {
    let mut rng = Rng::new(seed, 200);
    (0..count)
        .map(|_| {
            let w = [Workload::PAdd, Workload::PlusScan][rng.below(2) as usize];
            let vlen = VLENS[rng.below(4) as usize];
            let lmul = Lmul::ALL[rng.below(4) as usize];
            spec(
                w,
                64 + rng.below(65) as usize,
                vlen,
                lmul,
                rng.below(1 << 32),
            )
        })
        .collect()
}

/// The pending sweeps of a `recover` journal: `cycles` serve cycles
/// drawn on a stream of their own.
pub fn pending_sweeps(seed: u64, cycles: u64) -> Vec<Vec<JobSpec>> {
    (0..cycles)
        .flat_map(|c| serve_cycle(seed ^ 0x7265_636f_7665_7273, 0, c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(sweeps: &[Vec<JobSpec>]) -> Vec<String> {
        sweeps.iter().flatten().map(JobSpec::to_string).collect()
    }

    #[test]
    fn serve_generators_are_deterministic_per_seed_and_distinct_across_seeds() {
        assert_eq!(texts(&serve_cycle(7, 0, 0)), texts(&serve_cycle(7, 0, 0)));
        assert_ne!(texts(&serve_cycle(7, 0, 0)), texts(&serve_cycle(8, 0, 0)));
        assert_ne!(texts(&serve_cycle(7, 0, 0)), texts(&serve_cycle(7, 1, 0)));
        assert_ne!(texts(&serve_cycle(7, 0, 0)), texts(&serve_cycle(7, 0, 1)));
        assert_eq!(history_specs(3, 50), history_specs(3, 50));
        assert_ne!(history_specs(3, 50), history_specs(4, 50));
        assert_eq!(texts(&pending_sweeps(3, 2)), texts(&pending_sweeps(3, 2)));
        assert_ne!(texts(&pending_sweeps(3, 2)), texts(&pending_sweeps(4, 2)));
    }

    #[test]
    fn serve_load_is_the_same_on_every_seed() {
        // The seed moves data, mix and order, never the multiset of
        // (workload, n, vlen, lmul) a catalogue carries.
        let shape = |seed, cycle| {
            let mut v: Vec<String> = serve_cycle(seed, 0, cycle)
                .iter()
                .flatten()
                .map(|s| format!("{} {} {} {}", s.workload, s.n, s.vlen, s.lmul))
                .collect();
            v.sort();
            v
        };
        assert_eq!(shape(1, 0), shape(99, 5));
        let cycle = serve_cycle(1, 0, 0);
        assert_eq!(cycle.len(), 32);
        assert!(cycle.iter().all(|s| s.len() == SWEEP_JOBS));
        assert_eq!(warmup_sweep().len(), 64);
    }

    #[test]
    fn sweep_inputs_are_deterministic_per_seed_and_distinct_across_seeds() {
        let a = SweepInputs::generate(5, Sizes::WARMUP);
        let b = SweepInputs::generate(5, Sizes::WARMUP);
        let c = SweepInputs::generate(6, Sizes::WARMUP);
        assert_eq!(a.scan, b.scan);
        assert_eq!(a.csr.col_idx, b.csr.col_idx);
        assert_eq!(a.qsort, b.qsort);
        assert_ne!(a.scan, c.scan);
        assert_ne!(a.bitonic, c.bitonic);
        assert_eq!(a.flags[0], 1);
        assert!(a.hist.iter().all(|&h| h < a.sizes.buckets));
        let mut keys = a.qsort.clone();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), a.qsort.len(), "quicksort keys are distinct");
        assert_eq!(
            a.qsort[0],
            keys[keys.len() / 2],
            "first pivot is the median"
        );
        a.csr.validate().expect("generated matrix is well formed");
        assert_eq!(shapes().len(), 14);
    }
}
