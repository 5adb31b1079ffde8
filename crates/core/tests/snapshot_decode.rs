//! Snapshot decode on untrusted bytes. FNV-1a is a checksum anyone can
//! compute, so a frame that passes the digest check proves nothing about
//! its payload: whatever is sealed under either snapshot kind, `from_bytes`
//! must return — a value or an error, never an abort or a panic.

use proptest::collection::vec;
use proptest::prelude::*;
use rvv_ckpt::{seal, ByteWriter};
use rvv_isa::InstrClass;
use rvv_sim::MachineSnapshot;
use scanvec::EnvSnapshot;

const MACHINE_KIND: &str = "rvv-machine-snapshot";
const ENV_KIND: &str = "rvv-env-snapshot";

/// A count as the decoder reads it off the wire: small, the largest, or
/// anything.
fn count() -> impl Strategy<Value = u32> {
    prop_oneof![0..8u32, Just(u32::MAX), any::<u32>()]
}

/// A machine payload laid out like version 1, with every count drawn by
/// [`count`] and followed by however many items the generator chose: the
/// fields line up, the counts need not agree with them.
fn machine_payload() -> impl Strategy<Value = Vec<u8>> {
    let classes = InstrClass::ALL.len() as u32;
    (
        prop_oneof![Just(128u32), any::<u32>()],
        vec(any::<u8>(), 0..48),
        prop_oneof![Just(classes), count()],
        prop_oneof![Just(1u64 << 16), any::<u64>()],
        (count(), vec((any::<u64>(), any::<u64>()), 0..4)),
        (count(), vec((0..20u64, vec(any::<u8>(), 0..40)), 0..4)),
        vec(any::<u8>(), 0..8),
    )
        .prop_map(
            move |(vlen, vregs, nclasses, size, (nguards, guards), (npages, pages), tail)| {
                let mut w = ByteWriter::new();
                w.put_u32(vlen);
                for x in 0..32 {
                    w.put_u64(x);
                }
                w.put_bytes(&vregs);
                w.put_bool(false); // vtype: vill
                w.put_u32(0); // vl
                w.put_u32(nclasses);
                for n in 0..classes {
                    w.put_u64(u64::from(n));
                }
                w.put_u64(0); // stop_pc
                w.put_u64(size);
                w.put_u32(nguards);
                for (start, end) in guards {
                    w.put_u64(start);
                    w.put_u64(end);
                }
                w.put_u32(npages);
                for (p, data) in pages {
                    w.put_u64(p);
                    w.put_bytes(&data);
                }
                let mut payload = w.into_bytes();
                payload.extend(tail);
                payload
            },
        )
}

/// An environment payload laid out like version 1 around a nested
/// machine frame sealed from [`machine_payload`] (or raw bytes where the
/// frame should be), with the same freedom in its counts and values.
fn env_payload() -> impl Strategy<Value = Vec<u8>> {
    (
        any::<u32>(),
        (0..10u8, 0..4u8, any::<u64>()),
        (count(), vec(vec(any::<u8>(), 0..12), 0..3)),
        prop_oneof![
            machine_payload().prop_map(|p| seal(MACHINE_KIND, 1, &p)),
            vec(any::<u8>(), 0..64),
        ],
        vec(any::<u8>(), 0..8),
    )
        .prop_map(
            |(vlen, (lmul, engine, heap), (nkeys, keys), machine, tail)| {
                let mut w = ByteWriter::new();
                w.put_u32(vlen);
                w.put_u8(lmul);
                w.put_bool(true); // conservative spill profile
                w.put_u64(8 << 20); // mem_bytes
                w.put_u64(heap);
                w.put_u8(engine);
                w.put_bool(false); // poisoned
                w.put_u32(nkeys);
                for k in keys {
                    w.put_bytes(&k);
                }
                w.put_bytes(&machine);
                let mut payload = w.into_bytes();
                payload.extend(tail);
                payload
            },
        )
}

proptest! {
    #[test]
    fn sealed_machine_payloads_decode_or_error(payload in machine_payload()) {
        let _ = MachineSnapshot::from_bytes(&seal(MACHINE_KIND, 1, &payload));
    }

    #[test]
    fn sealed_env_payloads_decode_or_error(payload in env_payload()) {
        let _ = EnvSnapshot::from_bytes(&seal(ENV_KIND, 1, &payload));
    }

    #[test]
    fn sealed_arbitrary_bytes_decode_or_error(payload in vec(any::<u8>(), 0..600)) {
        let _ = MachineSnapshot::from_bytes(&seal(MACHINE_KIND, 1, &payload));
        let _ = EnvSnapshot::from_bytes(&seal(ENV_KIND, 1, &payload));
    }
}
