//! Environment checkpoints: a serializable, digest-stamped capture of
//! everything a [`crate::Session`] needs to be reconstructed
//! bit-for-bit in another process.
//!
//! An [`EnvSnapshot`] wraps the machine-level [`MachineSnapshot`] (vector
//! regfile, scalar registers, `vtype`/`vl`, counters, dirty memory pages,
//! guards) with the host-side environment state the machine cannot see:
//! the [`EnvConfig`], the bump-allocator position, the selected
//! [`ExecEngine`], and the poison flag. Compiled plans are **not**
//! serialized — they are pure functions of the kernel source and the
//! architectural configuration, so a resumed environment recompiles them
//! on demand; the snapshot carries the sorted plan-cache key list purely
//! as an informational inventory (a resumed run can log which kernels the
//! interrupted process had built, and tests assert cache warm-up).
//!
//! What is deliberately *not* captured: tracers, fault hooks, and the fuel
//! budget. All three are per-experiment attachments with host-side state
//! (boxed closures, open sinks) that cannot meaningfully survive a process
//! boundary; [`crate::Session::restore`] detaches them, exactly like
//! [`crate::Session::reset`] does.
//!
//! The wire format rides on `rvv-ckpt`'s framed codec: a
//! `"rvv-env-snapshot"` frame (version-checked, FNV-1a digest over the
//! payload) whose payload nests the machine snapshot's own sealed frame —
//! corruption anywhere, in either layer, is detected before a single byte
//! is applied.

use crate::error::{ScanError, ScanResult};
use crate::session::{EnvConfig, ExecEngine};
use rvv_asm::SpillProfile;
use rvv_ckpt::{open, seal, ByteReader, ByteWriter, CodecError};
use rvv_isa::Lmul;
use rvv_sim::MachineSnapshot;

/// Frame kind tag for serialized environment snapshots.
const FRAME_KIND: &str = "rvv-env-snapshot";
/// Bump on any incompatible change to the payload layout below.
const FRAME_VERSION: u16 = 1;

/// A complete, restorable capture of a [`crate::Session`].
///
/// Produced by [`crate::Session::snapshot`], applied by
/// [`crate::Session::restore`], and serialized with
/// [`EnvSnapshot::to_bytes`] / [`EnvSnapshot::from_bytes`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvSnapshot {
    /// The environment configuration the snapshot was taken under.
    /// [`crate::Session::restore`] refuses a mismatching target.
    pub cfg: EnvConfig,
    /// Bump-allocator position (next free device byte).
    pub heap: u64,
    /// The selected run loop.
    pub engine: ExecEngine,
    /// Whether the environment was poisoned (a poisoned snapshot restores
    /// to a poisoned environment — poison must survive a checkpoint, or a
    /// resume could silently reuse state a panic left inconsistent).
    pub poisoned: bool,
    /// Sorted plan-cache key inventory at snapshot time (informational;
    /// plans recompile on demand and are never serialized).
    pub plan_keys: Vec<String>,
    /// The full architectural machine state.
    pub machine: MachineSnapshot,
}

impl EnvSnapshot {
    /// Serialize to a digest-stamped, version-tagged frame.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u32(self.cfg.vlen);
        let lmul_index = Lmul::ALL_WITH_FRACTIONAL
            .iter()
            .position(|&l| l == self.cfg.lmul)
            .expect("every Lmul is in ALL_WITH_FRACTIONAL");
        w.put_u8(lmul_index as u8);
        w.put_bool(self.cfg.spill_profile.conservative_frame);
        w.put_u64(self.cfg.mem_bytes as u64);
        w.put_u64(self.heap);
        w.put_u8(match self.engine {
            ExecEngine::Plan => 0,
            ExecEngine::Legacy => 1,
            ExecEngine::Fused => 2,
        });
        w.put_bool(self.poisoned);
        w.put_u32(self.plan_keys.len() as u32);
        for k in &self.plan_keys {
            w.put_str(k);
        }
        // The machine snapshot keeps its own sealed frame (kind, version,
        // digest) nested inside ours: both layers are independently
        // verified on decode.
        w.put_bytes(&self.machine.to_bytes());
        seal(FRAME_KIND, FRAME_VERSION, &w.into_bytes())
    }

    /// Decode and verify a frame produced by [`EnvSnapshot::to_bytes`].
    ///
    /// Any corruption — bad magic, wrong kind or version, digest mismatch
    /// in either the outer or the nested machine frame, truncated or
    /// trailing bytes, out-of-range field values — is an error; a
    /// malformed snapshot is never partially decoded.
    pub fn from_bytes(bytes: &[u8]) -> ScanResult<EnvSnapshot> {
        Self::decode(bytes).map_err(|e| ScanError::Snapshot(e.to_string()))
    }

    fn decode(bytes: &[u8]) -> Result<EnvSnapshot, CodecError> {
        let payload = open(FRAME_KIND, FRAME_VERSION, bytes)?;
        let mut r = ByteReader::new(payload);
        let vlen = r.get_u32()?;
        let lmul_index = r.get_u8()?;
        let lmul =
            *Lmul::ALL_WITH_FRACTIONAL
                .get(lmul_index as usize)
                .ok_or(CodecError::BadValue {
                    what: "lmul index",
                    value: u64::from(lmul_index),
                })?;
        let conservative = r.get_bool()?;
        let spill_profile = if conservative {
            SpillProfile::llvm14()
        } else {
            SpillProfile::ideal()
        };
        let mem_bytes = r.get_u64()? as usize;
        let heap = r.get_u64()?;
        let engine = match r.get_u8()? {
            0 => ExecEngine::Plan,
            1 => ExecEngine::Legacy,
            2 => ExecEngine::Fused,
            v => {
                return Err(CodecError::BadValue {
                    what: "exec engine",
                    value: u64::from(v),
                })
            }
        };
        let poisoned = r.get_bool()?;
        let n_keys = r.get_u32()?;
        // Grown as keys decode: the count is untrusted, so it is never
        // reserved up front.
        let mut plan_keys = Vec::new();
        for _ in 0..n_keys {
            plan_keys.push(r.get_str()?.to_string());
        }
        let machine = MachineSnapshot::from_bytes(r.get_bytes()?)?;
        r.finish()?;
        Ok(EnvSnapshot {
            cfg: EnvConfig {
                vlen,
                lmul,
                spill_profile,
                mem_bytes,
            },
            heap,
            engine,
            poisoned,
            plan_keys,
            machine,
        })
    }
}
