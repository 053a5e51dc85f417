//! # daos-vos — the Versioned Object Store
//!
//! VOS is the per-target storage engine of DAOS: every target keeps a tree
//! of containers → objects → distribution keys (dkey) → attribute keys
//! (akey) → values, where a value is either a *single value* (replaced
//! wholesale per epoch) or a *byte array* maintained as an epoch-versioned
//! extent tree. All updates are tagged with an epoch; reads are served "as
//! of" an epoch, which is how DAOS gives writers isolation without locks —
//! the property behind the paper's observation that shared-file I/O costs
//! the same as file-per-process (§IV).
//!
//! This crate implements the data structures *for real* (bytes in, bytes
//! out, punch semantics, aggregation) while charging simulated time against
//! a [`daos_media::MediaSet`]. Payloads can be literal bytes or a
//! deterministic [`Payload::Pattern`] so benchmarks can push terabytes
//! through the data path without allocating them.

// No `unsafe` may enter the workspace outside the audited kernel
// crate (`daos-sim`, which carries `deny`): see simlint rule D05.
#![forbid(unsafe_code)]

pub mod target;
pub mod tree;

pub use target::{ScrubFinding, ScrubReport, VosConfig, VosCounters, VosError, VosTarget};
pub use tree::{CsumViolation, Extent, ExtentTree, ReadSeg};

use std::cell::RefCell;
use std::sync::Arc;

/// An update epoch (DAOS uses HLC timestamps; monotonic u64 here).
pub type Epoch = u64;

/// A dkey or akey: arbitrary bytes, ordered.
pub type Key = Vec<u8>;

/// Helper: a key from anything byte-like.
pub fn key(k: impl AsRef<[u8]>) -> Key {
    k.as_ref().to_vec()
}

/// Value payload: literal bytes, or a deterministic pattern standing in for
/// `len` bytes of synthetic benchmark data (no allocation).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Payload {
    /// Actual data.
    Bytes(Arc<[u8]>),
    /// `len` synthetic bytes from a seeded stream starting at `skew`.
    Pattern { seed: u64, skew: u64, len: u64 },
}

impl Payload {
    /// A payload from literal bytes.
    pub fn bytes(data: impl Into<Arc<[u8]>>) -> Self {
        Payload::Bytes(data.into())
    }

    /// A synthetic payload of `len` bytes.
    pub fn pattern(seed: u64, len: u64) -> Self {
        Payload::Pattern { seed, skew: 0, len }
    }

    /// Length in bytes.
    pub fn len(&self) -> u64 {
        match self {
            Payload::Bytes(b) => b.len() as u64,
            Payload::Pattern { len, .. } => *len,
        }
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sub-range `[off, off+len)`; both payload kinds slice consistently
    /// (a pattern's slice yields the same bytes as slicing its
    /// materialisation). Literal bytes copy the sub-range.
    pub fn slice(&self, off: u64, len: u64) -> Payload {
        debug_assert!(off + len <= self.len(), "slice out of range");
        match self {
            Payload::Bytes(b) => Payload::Bytes(b[off as usize..(off + len) as usize].into()),
            Payload::Pattern { seed, skew, .. } => Payload::Pattern {
                seed: *seed,
                skew: *skew + off,
                len,
            },
        }
    }

    /// The byte at stream position `i`.
    pub fn byte_at(&self, i: u64) -> u8 {
        match self {
            Payload::Bytes(b) => b[i as usize],
            Payload::Pattern { seed, skew, .. } => pattern_byte(*seed, *skew + i),
        }
    }

    /// Materialise to owned bytes (tests / verification — O(len) memory).
    pub fn materialize(&self) -> Arc<[u8]> {
        match self {
            Payload::Bytes(b) => b.clone(),
            Payload::Pattern { seed, skew, len } => {
                let mut v = Vec::with_capacity(*len as usize);
                let mut gen = PatternWords::new(*seed, *skew);
                let words = *len / 8;
                for _ in 0..words {
                    v.extend_from_slice(&gen.next_word().to_le_bytes());
                }
                for i in (words * 8)..*len {
                    v.push(pattern_byte(*seed, *skew + i));
                }
                v.into()
            }
        }
    }

    /// A deterministically *corrupted* copy of this payload — the
    /// fault-injection primitive behind bit rot and torn frames. The result
    /// has the same length but different bytes, so a checksum computed over
    /// the original no longer matches.
    pub fn corrupted(&self) -> Payload {
        match self {
            Payload::Bytes(b) => {
                if b.is_empty() {
                    return self.clone();
                }
                let mut v = b.to_vec();
                let mid = v.len() / 2;
                v[mid] ^= 0x80;
                Payload::Bytes(v.into())
            }
            Payload::Pattern { seed, skew, len } => Payload::Pattern {
                seed: seed ^ 0xB17_2077_DEAD_BEEF,
                skew: *skew,
                len: *len,
            },
        }
    }
}

/// Seed for every stored / on-wire checksum in the stack (a deployment-wide
/// constant in real DAOS; the seed keeps the hash from being forgeable by
/// all-zero data).
pub const CSUM_SEED: u64 = 0xC5C5_5EED_DA05_0001;

/// Seeded 64-bit checksum over a payload's *real bytes*. `Payload::Bytes`
/// hashes the slice directly; `Payload::Pattern` folds the synthetic
/// stream word-by-word straight out of the generator, so terabyte-scale
/// synthetic payloads stay allocation-free and never touch a byte buffer.
/// Both kinds of payload with identical bytes produce the identical
/// checksum.
///
/// The pattern path is a pure function of `(seed, pseed, skew, len)`, and
/// the data path hashes each chunk several times (client wire checksum,
/// server verify, stored extent checksum, fetch verify, reply checksum,
/// scrubber), so results are memoised in a small per-thread direct-mapped
/// cache. Memoising a pure function has no observable effect beyond host
/// time — simulated time and every simulation outcome are unchanged.
pub fn csum64(seed: u64, p: &Payload) -> u64 {
    match p {
        Payload::Bytes(b) => csum64_bytes(seed, b),
        Payload::Pattern {
            seed: pseed,
            skew,
            len,
        } => csum64_pattern(seed, *pseed, *skew, *len),
    }
}

/// Direct-mapped memo cache for [`csum64`] on pattern payloads. Entries
/// below 1 KiB are not cached — the hash is cheaper than the lookup noise.
/// `len == 0` marks an empty slot (zero-length payloads are never cached).
#[derive(Clone, Copy)]
struct CsumCacheEnt {
    seed: u64,
    pseed: u64,
    skew: u64,
    len: u64,
    val: u64,
}

const CSUM_CACHE_SLOTS: usize = 8192;
const CSUM_CACHE_MIN_LEN: u64 = 1024;

thread_local! {
    static CSUM_CACHE: RefCell<Vec<CsumCacheEnt>> = RefCell::new(vec![
        CsumCacheEnt { seed: 0, pseed: 0, skew: 0, len: 0, val: 0 };
        CSUM_CACHE_SLOTS
    ]);
}

fn csum64_pattern(seed: u64, pseed: u64, skew: u64, len: u64) -> u64 {
    if len < CSUM_CACHE_MIN_LEN {
        return csum64_pattern_uncached(seed, pseed, skew, len);
    }
    let slot = (daos_splitmix(seed ^ pseed.rotate_left(17) ^ skew.rotate_left(34) ^ len) as usize)
        & (CSUM_CACHE_SLOTS - 1);
    CSUM_CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        let ent = &mut cache[slot];
        if ent.len == len && ent.seed == seed && ent.pseed == pseed && ent.skew == skew {
            return ent.val;
        }
        let val = csum64_pattern_uncached(seed, pseed, skew, len);
        *ent = CsumCacheEnt {
            seed,
            pseed,
            skew,
            len,
            val,
        };
        val
    })
}

/// Fold the synthetic stream directly: one splitmix block per 8 bytes,
/// shifted into place when `skew` is unaligned, with no intermediate
/// buffer. The byte stream (and therefore the checksum value) is identical
/// to hashing the materialised bytes; the equivalence test below pins that
/// at every skew alignment.
fn csum64_pattern_uncached(seed: u64, pseed: u64, skew: u64, len: u64) -> u64 {
    let mut h = seed ^ len;
    let mut gen = PatternWords::new(pseed, skew);
    let words = len / 8;
    for _ in 0..words {
        let v = gen.next_word();
        h = (h ^ v).wrapping_mul(0x100_0000_01b3).rotate_left(23);
    }
    for i in (words * 8)..len {
        h = (h ^ pattern_byte(pseed, skew + i) as u64).wrapping_mul(0x100_0000_01b3);
    }
    daos_splitmix(h)
}

/// Streaming 64-bit-word view of the synthetic pattern starting at stream
/// position `skew`: each call yields the next 8 bytes as a little-endian
/// word. When `skew` is block-unaligned every output word straddles two
/// splitmix blocks; the high block is carried into the next call so the
/// cost stays at one splitmix per word.
struct PatternWords {
    seed: u64,
    /// Block index the next word starts in.
    q: u64,
    /// Bit shift of the stream position within its block (8 * (skew & 7)).
    shift: u32,
    /// `block(q)` for the upcoming word (valid when `shift != 0`).
    carry: u64,
}

impl PatternWords {
    fn new(seed: u64, skew: u64) -> Self {
        let q = skew >> 3;
        let shift = 8 * (skew & 7) as u32;
        let carry = if shift != 0 {
            pattern_block(seed, q)
        } else {
            0
        };
        PatternWords {
            seed,
            q,
            shift,
            carry,
        }
    }

    #[inline]
    fn next_word(&mut self) -> u64 {
        if self.shift == 0 {
            let w = pattern_block(self.seed, self.q);
            self.q += 1;
            w
        } else {
            let hi = pattern_block(self.seed, self.q + 1);
            let w = (self.carry >> self.shift) | (hi << (64 - self.shift));
            self.carry = hi;
            self.q += 1;
            w
        }
    }
}

/// The 8-byte splitmix block at block index `q` of the stream for `seed`.
#[inline]
fn pattern_block(seed: u64, q: u64) -> u64 {
    daos_splitmix(seed ^ q.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Seeded 64-bit checksum over literal bytes (same function as
/// [`csum64`] on a `Payload::Bytes`).
pub fn csum64_bytes(seed: u64, bytes: &[u8]) -> u64 {
    daos_splitmix(csum_fold(seed ^ bytes.len() as u64, bytes))
}

/// Fold a byte chunk into the running hash, 8 bytes at a time. Chunk
/// boundaries must fall on multiples of 8 (except the final chunk) so
/// chunked and one-shot hashing agree; [`csum64`] uses 256-byte chunks.
fn csum_fold(mut h: u64, chunk: &[u8]) -> u64 {
    let mut words = chunk.chunks_exact(8);
    for w in &mut words {
        // INVARIANT: chunks_exact(8) yields exactly-8-byte slices.
        let v = u64::from_le_bytes(w.try_into().unwrap());
        h = (h ^ v).wrapping_mul(0x100_0000_01b3).rotate_left(23);
    }
    for &b in words.remainder() {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Deterministic byte `pos` of the synthetic stream for `seed`.
#[inline]
pub fn pattern_byte(seed: u64, pos: u64) -> u8 {
    let block = daos_splitmix(seed ^ (pos >> 3).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    (block >> (8 * (pos & 7))) as u8
}

#[inline]
pub(crate) fn daos_splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_slice_matches_materialized_slice() {
        let p = Payload::pattern(42, 1000);
        let full = p.materialize();
        let s = p.slice(100, 50);
        assert_eq!(s.len(), 50);
        assert_eq!(&s.materialize()[..], &full[100..150]);
    }

    #[test]
    fn bytes_slice_matches() {
        let p = Payload::bytes(vec![1u8, 2, 3, 4, 5]);
        assert_eq!(&p.slice(1, 3).materialize()[..], &[2, 3, 4]);
        assert_eq!(p.byte_at(4), 5);
    }

    #[test]
    fn pattern_is_deterministic_and_varied() {
        let a = Payload::pattern(7, 256).materialize();
        let b = Payload::pattern(7, 256).materialize();
        let c = Payload::pattern(8, 256).materialize();
        assert_eq!(a, b);
        assert_ne!(a, c);
        // not all-identical bytes
        assert!(a.iter().collect::<std::collections::BTreeSet<_>>().len() > 16);
    }

    #[test]
    fn nested_pattern_slices_compose() {
        let p = Payload::pattern(3, 1000);
        let s1 = p.slice(200, 400);
        let s2 = s1.slice(100, 50);
        assert_eq!(&s2.materialize()[..], &p.materialize()[300..350]);
    }

    /// The blockwise pattern fast path in [`csum64`] must produce the
    /// same value as hashing the materialized bytes, at every block
    /// alignment of `skew` and for lengths straddling the internal
    /// buffer boundary.
    #[test]
    fn pattern_csum_matches_bytes_csum_at_all_alignments() {
        for skew in 0..9u64 {
            for len in [0u64, 1, 7, 8, 9, 255, 256, 257, 1000, 4096] {
                let p = Payload::pattern(42, skew + len).slice(skew, len);
                let direct = csum64(CSUM_SEED, &p);
                let via_bytes = csum64_bytes(CSUM_SEED, &p.materialize());
                assert_eq!(direct, via_bytes, "skew {skew} len {len}");
            }
        }
    }
}
