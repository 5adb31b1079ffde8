//! Environment-level checkpointing: snapshots round-trip through bytes,
//! restore reproduces observable state exactly (in-process and across a
//! "process boundary" simulated by a fresh environment), corruption is
//! always detected, and `run_atomic` rolls a trapped launch back to the
//! pre-launch state.

use rvv_asm::SpillProfile;
use rvv_ckpt::{open, seal};
use rvv_isa::{Lmul, Sew};
use rvv_sim::PAGE_BYTES;
use scanvec::primitives::{p_add, plus_scan};
use scanvec::{EnvConfig, ScanEnv};
use scanvec::{EnvSnapshot, ExecEngine, ScanError};

/// The frame kind an environment snapshot is sealed under.
const FRAME_KIND: &str = "rvv-env-snapshot";

fn small_cfg() -> EnvConfig {
    EnvConfig {
        vlen: 256,
        lmul: Lmul::M1,
        spill_profile: SpillProfile::llvm14(),
        mem_bytes: 8 << 20,
    }
}

/// Everything observable about an environment that a snapshot must carry.
fn observe(env: &ScanEnv, v: &scanvec::SvVector) -> (Vec<u32>, u64, u64, bool, ExecEngine) {
    (
        env.to_u32(v),
        env.retired(),
        env.snapshot().heap,
        env.is_poisoned(),
        env.exec_engine(),
    )
}

#[test]
fn snapshot_roundtrips_through_bytes_and_restores_into_a_fresh_env() {
    let mut env = ScanEnv::new(small_cfg());
    env.set_exec_engine(ExecEngine::Legacy);
    let data: Vec<u32> = (0..200).map(|i| i * 7 + 3).collect();
    let v = env.from_u32(&data).unwrap();
    p_add(&mut env, &v, 11).unwrap();
    plus_scan(&mut env, &v).unwrap();

    let snap = env.snapshot();
    assert!(
        !snap.plan_keys.is_empty(),
        "snapshot records the compiled-kernel inventory"
    );
    assert!(snap.plan_keys.iter().all(|k| k.contains("@vlen256")));

    // Serialize, decode, and confirm nothing was lost.
    let bytes = snap.to_bytes();
    let decoded = EnvSnapshot::from_bytes(&bytes).unwrap();
    assert_eq!(decoded, snap);

    // Restore into a *fresh* environment (fresh process stand-in: empty
    // plan cache, untouched machine) and compare every observable.
    let mut fresh = ScanEnv::new(small_cfg());
    fresh.restore(&decoded).unwrap();
    assert_eq!(observe(&fresh, &v), observe(&env, &v));

    // The resumed environment keeps working — and keeps agreeing with the
    // original — on further launches.
    p_add(&mut env, &v, 5).unwrap();
    p_add(&mut fresh, &v, 5).unwrap();
    assert_eq!(observe(&fresh, &v), observe(&env, &v));
}

#[test]
fn every_engine_tier_roundtrips_through_the_snapshot_wire_format() {
    // The selected engine travels as a wire byte; each tier (including the
    // fused one, encoded as 2) must decode back to itself.
    for engine in [ExecEngine::Plan, ExecEngine::Legacy, ExecEngine::Fused] {
        let mut env = ScanEnv::new(small_cfg());
        env.set_exec_engine(engine);
        let snap = EnvSnapshot::from_bytes(&env.snapshot().to_bytes()).unwrap();
        let mut fresh = ScanEnv::new(small_cfg());
        fresh.restore(&snap).unwrap();
        assert_eq!(fresh.exec_engine(), engine, "{engine:?} lost in transit");
    }
}

#[test]
fn corrupt_or_mismatched_snapshots_are_refused() {
    let mut env = ScanEnv::new(small_cfg());
    let v = env.from_u32(&[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
    p_add(&mut env, &v, 1).unwrap();
    let bytes = env.snapshot().to_bytes();

    // Every kind of byte damage is detected: flipped bytes anywhere in
    // the frame (header, digest, payload, nested machine frame) and
    // truncation.
    for i in (0..bytes.len()).step_by(11) {
        let mut bad = bytes.clone();
        bad[i] ^= 0x10;
        assert!(
            matches!(EnvSnapshot::from_bytes(&bad), Err(ScanError::Snapshot(_))),
            "corruption at byte {i} must be detected"
        );
    }
    assert!(EnvSnapshot::from_bytes(&bytes[..bytes.len() - 3]).is_err());
    assert!(EnvSnapshot::from_bytes(b"not a snapshot").is_err());

    // A snapshot from one configuration cannot be applied to another.
    let snap = EnvSnapshot::from_bytes(&bytes).unwrap();
    let mut other = ScanEnv::new(EnvConfig {
        vlen: 512,
        ..small_cfg()
    });
    let err = other.restore(&snap).unwrap_err();
    assert!(matches!(err, ScanError::Snapshot(_)));
    assert!(err.to_string().contains("config mismatch"), "{err}");

    // A frame anyone can seal passes the digest check. A plan-key count
    // of u32::MAX runs out of payload instead of reserving 96 GiB.
    let mut keyless = snap.clone();
    keyless.plan_keys.clear();
    let mut payload = open(FRAME_KIND, 1, &keyless.to_bytes()).unwrap().to_vec();
    payload[24..28].copy_from_slice(&u32::MAX.to_le_bytes()); // the key count
    assert!(EnvSnapshot::from_bytes(&seal(FRAME_KIND, 1, &payload)).is_err());

    // A machine page past the end of memory is refused at decode.
    let mut past_end = snap.clone();
    let pages = small_cfg().mem_bytes as u64 / PAGE_BYTES;
    past_end
        .machine
        .mem
        .pages
        .push((pages, vec![1].into_boxed_slice()));
    assert!(matches!(
        EnvSnapshot::from_bytes(&past_end.to_bytes()),
        Err(ScanError::Snapshot(_))
    ));

    // A frame whose machine disagrees with its own configuration decodes,
    // but restore refuses it before it changes anything.
    let mut target = ScanEnv::new(small_cfg());
    target.from_u32(&[9; 4]).unwrap();
    let before = target.snapshot();
    for shape in [
        EnvConfig {
            vlen: 512,
            ..small_cfg()
        },
        EnvConfig {
            mem_bytes: 4 << 20,
            ..small_cfg()
        },
    ] {
        let mut mixed = snap.clone();
        mixed.machine = ScanEnv::new(shape).snapshot().machine;
        let mixed = EnvSnapshot::from_bytes(&mixed.to_bytes()).unwrap();
        let err = target.restore(&mixed).unwrap_err();
        assert!(err.to_string().contains("machine shape mismatch"), "{err}");
        assert_eq!(target.snapshot(), before, "{shape:?}");
    }
}

#[test]
fn poison_survives_a_checkpoint() {
    let mut env = ScanEnv::new(small_cfg());
    env.poison();
    let snap = EnvSnapshot::from_bytes(&env.snapshot().to_bytes()).unwrap();
    let mut fresh = ScanEnv::new(small_cfg());
    assert!(!fresh.is_poisoned());
    fresh.restore(&snap).unwrap();
    assert!(
        fresh.is_poisoned(),
        "a poisoned snapshot must restore poisoned"
    );
}

#[test]
fn run_atomic_rolls_back_a_trapped_launch() {
    let mut env = ScanEnv::new(small_cfg());
    let (v, _g1, _g2) = env.alloc_guarded(Sew::E32, 10).unwrap();
    env.write_u32(&v, &[9, 9, 9, 9, 9, 9, 9, 9, 9, 9]).unwrap();
    p_add(&mut env, &v, 1).unwrap(); // compile the kernel
    let plan = env
        .kernel("elem_vx_Add", Sew::E32, |_, _| unreachable!("cached"))
        .unwrap();

    let before = env.snapshot();

    // Lying about the length overruns into the high guard: `run` would
    // leave half the buffer incremented and vl/vtype dirty; `run_atomic`
    // must leave *nothing*.
    let err = env.run_atomic(&plan, &[40, v.addr(), 1]).unwrap_err();
    assert!(matches!(
        err,
        ScanError::Sim(rvv_sim::SimError::GuardHit { .. })
    ));
    assert_eq!(
        env.snapshot(),
        before,
        "trapped launch must be fully rolled back (registers, memory, counters, heap)"
    );
    assert_eq!(env.to_u32(&v), vec![10; 10], "inputs keep their values");

    // The environment is immediately usable — no reset needed.
    let (report, _) = env.run_atomic(&plan, &[10, v.addr(), 2]).unwrap();
    assert!(report.retired > 0);
    assert_eq!(env.to_u32(&v), vec![12; 10]);
}

#[test]
fn run_atomic_matches_run_on_success() {
    let data: Vec<u32> = (0..97).map(|i| i ^ 0x55).collect();

    let mut a = ScanEnv::new(small_cfg());
    let va = a.from_u32(&data).unwrap();
    p_add(&mut a, &va, 11).unwrap();
    let plan = a
        .kernel("elem_vx_Add", Sew::E32, |_, _| unreachable!("cached"))
        .unwrap();
    let (ra, xa) = a.run(&plan, &[va.len() as u64, va.addr(), 4]).unwrap();

    let mut b = ScanEnv::new(small_cfg());
    let vb = b.from_u32(&data).unwrap();
    p_add(&mut b, &vb, 11).unwrap();
    let (rb, xb) = b
        .run_atomic(&plan, &[vb.len() as u64, vb.addr(), 4])
        .unwrap();

    assert_eq!((ra.retired, ra.halt_pc, xa), (rb.retired, rb.halt_pc, xb));
    assert_eq!(a.to_u32(&va), b.to_u32(&vb));
    assert_eq!(a.retired(), b.retired());
}
