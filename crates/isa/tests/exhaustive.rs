//! Exhaustive oracle over the whole 32-bit instruction space: every word
//! that decodes re-encodes to itself, and the set of decodable words and
//! their disassembly are pinned by count and digest. Any change to what
//! decodes, to what it decodes to, or to how it prints moves a pinned value.

use rvv_isa::{decode, encode};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Words per chunk. The chunking is fixed, so chunk digests — and the
/// digests combined from them in chunk order — do not depend on how many
/// threads walk the space.
const CHUNK_BITS: u32 = 24;
const CHUNKS: usize = 1 << (32 - CHUNK_BITS);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

#[derive(Clone, Copy, Default)]
struct Chunk {
    decoded: u64,
    words: u64,
    text: u64,
}

fn walk_chunk(c: usize) -> Chunk {
    let mut out = Chunk {
        decoded: 0,
        words: FNV_OFFSET,
        text: FNV_OFFSET,
    };
    let mut line = String::new();
    let first = (c as u32) << CHUNK_BITS;
    for w in first..=first | ((1 << CHUNK_BITS) - 1) {
        let Ok(i) = decode(w) else { continue };
        assert_eq!(
            encode(&i),
            Ok(w),
            "decode({w:#010x}) = {i} re-encodes differently"
        );
        out.decoded += 1;
        out.words = fnv1a(out.words, &w.to_le_bytes());
        line.clear();
        writeln!(line, "{i}").unwrap();
        out.text = fnv1a(out.text, line.as_bytes());
    }
    out
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "walks all 2^32 words: seconds optimized, far longer unoptimized; run with --release"
)]
fn every_decodable_word_round_trips_and_prints_the_pinned_listing() {
    let next = AtomicUsize::new(0);
    let chunks = Mutex::new(vec![Chunk::default(); CHUNKS]);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(8));
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let c = next.fetch_add(1, Ordering::Relaxed);
                if c >= CHUNKS {
                    break;
                }
                let r = walk_chunk(c);
                chunks.lock().unwrap()[c] = r;
            });
        }
    });
    let chunks = chunks.into_inner().unwrap();
    let decoded: u64 = chunks.iter().map(|c| c.decoded).sum();
    let combine = |f: fn(&Chunk) -> u64| {
        chunks
            .iter()
            .fold(FNV_OFFSET, |h, c| fnv1a(h, &f(c).to_le_bytes()))
    };
    let words = combine(|c| c.words);
    let text = combine(|c| c.text);
    println!("decoded {decoded}, words {words:#018x}, text {text:#018x}");
    assert_eq!(decoded, 209_792_162);
    assert_eq!(words, 0x7bce_3ac3_d35f_1e56);
    assert_eq!(text, 0x70c8_45e5_2414_ea12);
}
