//! Concurrency determinism: the batch engine's core contract, asserted
//! end-to-end with real kernels.
//!
//! The same job list must produce **byte-identical** stable reports and
//! merged counters at any thread count, and a shared plan registry must
//! compile each kernel configuration exactly once no matter how many
//! workers race for it.

use rvv_batch::{BatchJob, BatchRunner, Engine, EnvConfig, PlanCache, ScanEnv};
use rvv_isa::Lmul;
use scanvec::primitives::{p_add, plus_scan, seg_plus_scan};
use std::sync::Arc;

/// A mixed sweep: three experiment families over two LMULs and several
/// sizes, some points traced — enough shape diversity that a scheduling
/// dependence anywhere in the engine would show up as digest drift.
fn jobs() -> Vec<BatchJob<(u64, Vec<u32>)>> {
    let mut jobs = Vec::new();
    for lmul in [Lmul::M1, Lmul::M4] {
        for n in [57usize, 400, 1000] {
            let cfg = EnvConfig {
                lmul,
                mem_bytes: 1 << 24,
                ..EnvConfig::paper_default()
            };
            jobs.push(
                BatchJob::new(
                    format!("scan/m{}/n={n}", lmul.regs()),
                    cfg,
                    move |env: &mut ScanEnv| {
                        let data: Vec<u32> =
                            (0..n as u32).map(|i| i.wrapping_mul(7) % 1000).collect();
                        let v = env.from_u32(&data)?;
                        let retired = plus_scan(env, &v)?;
                        Ok((retired, env.to_u32(&v)))
                    },
                )
                .weight(n as u64),
            );
            jobs.push(
                BatchJob::new(
                    format!("seg_scan/m{}/n={n}", lmul.regs()),
                    cfg,
                    move |env: &mut ScanEnv| {
                        let data: Vec<u32> = (0..n as u32).map(|i| i % 100).collect();
                        let flags: Vec<u32> = (0..n).map(|i| u32::from(i % 37 == 0)).collect();
                        let v = env.from_u32(&data)?;
                        let f = env.from_u32(&flags)?;
                        let retired = seg_plus_scan(env, &v, &f)?;
                        Ok((retired, env.to_u32(&v)))
                    },
                )
                .weight(n as u64)
                .traced(n == 400),
            );
            jobs.push(
                BatchJob::new(
                    format!("p_add/m{}/n={n}", lmul.regs()),
                    cfg,
                    move |env: &mut ScanEnv| {
                        let data: Vec<u32> = (0..n as u32).collect();
                        let v = env.from_u32(&data)?;
                        let retired = p_add(env, &v, 3)?;
                        Ok((retired, env.to_u32(&v)))
                    },
                )
                .weight(n as u64),
            );
        }
    }
    jobs
}

#[test]
fn thread_count_never_changes_the_output() {
    let runs: Vec<_> = [1usize, 2, 8]
        .into_iter()
        .map(|t| BatchRunner::with_engine(t, Arc::new(Engine::new())).run(jobs()))
        .collect();
    let reference = runs[0].stable_digest();
    assert!(runs[0].all_ok());
    for run in &runs {
        assert_eq!(run.threads, run.threads.max(1));
        // Byte-identical stable serialization: per-job outputs, retired
        // counts, per-class counters, and the merged totals.
        assert_eq!(
            run.stable_digest(),
            reference,
            "thread count changed the sweep output"
        );
        // Merged counters are equal as values too (not just as text).
        assert_eq!(run.counters, runs[0].counters);
        // Reports come back in job order at any thread count.
        let names: Vec<&str> = run.reports.iter().map(|r| r.name.as_str()).collect();
        let expect: Vec<String> = jobs().iter().map(|j| j.name.clone()).collect();
        assert_eq!(names, expect);
    }
}

#[test]
fn merged_profiles_are_thread_count_invariant() {
    let a = BatchRunner::with_engine(1, Arc::new(Engine::new())).run(jobs());
    let b = BatchRunner::with_engine(4, Arc::new(Engine::new())).run(jobs());
    let (pa, pb) = (
        a.profile.expect("traced jobs"),
        b.profile.expect("traced jobs"),
    );
    assert_eq!(pa.total_retired(), pb.total_retired());
    assert_eq!(pa.spill().total_ops(), pb.spill().total_ops());
    assert_eq!(pa.hotspots(20), pb.hotspots(20));
    assert_eq!(pa.events(), pb.events(), "merged timelines must match");
    // Per-job profiles exist exactly where requested.
    for (ra, rb) in a.reports.iter().zip(&b.reports) {
        assert_eq!(ra.profile.is_some(), rb.profile.is_some());
        assert_eq!(
            ra.name.contains("n=400") && ra.name.contains("seg"),
            ra.profile.is_some()
        );
    }
}

/// The same sweep with every job costed (and one point traced+costed):
/// cycle totals must fold into the stable digest byte-identically at
/// threads {1,2,4} — the cost-model half of the determinism contract.
#[test]
fn costed_sweep_digest_is_thread_count_invariant() {
    let costed = || {
        jobs()
            .into_iter()
            .map(|j| j.costed(rvv_cost::CostModel::ara_like()))
            .collect::<Vec<_>>()
    };
    let runs: Vec<_> = [1usize, 2, 4]
        .into_iter()
        .map(|t| BatchRunner::with_engine(t, Arc::new(Engine::new())).run(costed()))
        .collect();
    assert!(runs[0].all_ok());
    let reference = runs[0].stable_digest();
    // Costed lines actually carry cycles, and so does the digest tail.
    assert!(reference.contains(" cycles={\"cycles\":"), "{reference}");
    assert!(reference.contains("\ncycles={\"cycles\":"), "{reference}");
    for run in &runs {
        assert_eq!(
            run.stable_digest(),
            reference,
            "thread count changed the costed sweep output"
        );
        assert_eq!(run.cycles, runs[0].cycles);
        for r in &run.reports {
            let c = r.cycles.as_ref().expect("every job was costed");
            assert!(
                c.total() >= r.retired,
                "{}: modeled cycles {} below retired {} under ara-like",
                r.name,
                c.total(),
                r.retired
            );
        }
    }
    // The merged profile (traced+costed points) carries cycles too.
    let p = runs[0].profile.as_ref().expect("traced jobs");
    assert!(p.cycles().expect("costed profile").total() > 0);
    // An uncosted run of the same jobs keeps the original digest shape.
    let plain = BatchRunner::with_engine(2, Arc::new(Engine::new())).run(jobs());
    assert!(!plain.stable_digest().contains("cycles="));
    assert!(plain.cycles.is_none());
}

#[test]
fn shared_registry_compiles_each_config_once() {
    let cache = PlanCache::shared();
    let runner = BatchRunner::with_engine(
        8,
        Arc::new(Engine::builder().plan_cache(Arc::clone(&cache)).build()),
    );
    let result = runner.run(jobs());
    assert!(result.all_ok());
    assert!(result.plan_compiles > 0, "sweep must compile kernels");
    assert_eq!(
        result.plan_compiles,
        cache.compiles(),
        "all compiles went through the shared registry"
    );
    assert_eq!(
        cache.compiles(),
        cache.len() as u64,
        "every compile produced a distinct (name, config, profile) entry — \
         no configuration was compiled twice across 8 racing workers"
    );
    // Re-running the same jobs on the same registry compiles nothing new.
    let again = runner.run(jobs());
    assert_eq!(again.plan_compiles, 0, "warm registry must not recompile");
    assert_eq!(again.stable_digest(), result.stable_digest());
}

/// The engine half of the sharing contract, without the batch runner in
/// the loop: `Engine` is `Send + Sync` (checked at compile time), and N
/// threads creating their own sessions from one engine still compile each
/// kernel configuration exactly once.
#[test]
fn threads_sessioning_one_engine_compile_each_config_once() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>();
    assert_send_sync::<Arc<Engine>>();

    let engine = Arc::new(Engine::new());
    let configs = [Lmul::M1, Lmul::M4].map(|lmul| EnvConfig {
        lmul,
        mem_bytes: 1 << 24,
        ..EnvConfig::paper_default()
    });
    std::thread::scope(|scope| {
        for t in 0..8 {
            let engine = Arc::clone(&engine);
            scope.spawn(move || {
                let cfg = configs[t % configs.len()];
                let mut env = engine.session(cfg).expect("valid test config");
                let data: Vec<u32> = (0..257).collect();
                let v = env.from_u32(&data).expect("alloc");
                plus_scan(&mut env, &v).expect("scan");
            });
        }
    });
    // 8 racing sessions, 2 configurations, 1 kernel: 2 compiles, and both
    // live in the one registry every session shares.
    assert_eq!(engine.plan_cache().compiles(), configs.len() as u64);
    assert_eq!(engine.plan_cache().len(), configs.len());
}

#[test]
fn worker_assignment_is_deterministic_and_scheduling_independent() {
    let a = BatchRunner::with_engine(3, Arc::new(Engine::new())).run(jobs());
    let b = BatchRunner::with_engine(3, Arc::new(Engine::new())).run(jobs());
    let workers = |r: &rvv_batch::BatchResult<(u64, Vec<u32>)>| {
        r.reports.iter().map(|j| j.worker).collect::<Vec<_>>()
    };
    // Sharding is computed before execution, so even the worker ids are
    // reproducible run-to-run at a fixed thread count.
    assert_eq!(workers(&a), workers(&b));
}
