//! Block compression primitives: CRC-32 integrity and an LZ77-style
//! byte compressor.
//!
//! The block-structured trace format (see `dejavu::blocktrace`) stores
//! each block's payload either *raw* or run through [`compress`], and
//! guards every payload with a [`crc32`] over the raw bytes — a single
//! flipped or missing byte anywhere in a block is caught at decode time.
//! Hermetic-build discipline: no external compression crates; this is the
//! workspace's own LZ implementation, `std`-only and deterministic (the
//! same input always produces the same output bytes).
//!
//! ## Wire format of a compressed stream
//!
//! A sequence of *groups*; each group is
//!
//! ```text
//! varint(literal_len)  literal bytes…  [ varint(match_len) varint(offset) ]
//! ```
//!
//! The trailing match is omitted in the final group. Decompression stops
//! when exactly `raw_len` bytes (known from the block header) have been
//! produced; anything else — a short stream, an overlong stream, an
//! offset pointing before the start — is corruption. Matches may overlap
//! their own output (`offset == 1` encodes a run), which is what makes
//! delta-encoded trace columns — long stretches of identical small
//! deltas — collapse to a few bytes per block.

use crate::bin::{get_varint, put_varint};

/// Minimum match length worth encoding (shorter matches cost more than
/// their literals).
const MIN_MATCH: usize = 4;
/// Longest match we will emit (bounds decompress work per group).
const MAX_MATCH: usize = 1 << 16;
/// Hash-chain search depth: how many previous positions with the same
/// 4-byte hash are tried per position. Small = fast, large = tighter.
const MAX_CHAIN: usize = 32;

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), the classic
/// table-driven byte-at-a-time implementation.
pub fn crc32(data: &[u8]) -> u32 {
    const TABLE: [u32; 256] = crc32_table();
    let mut crc = !0u32;
    for &b in data {
        crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

#[inline]
fn hash4(src: &[u8], i: usize) -> usize {
    // 4-byte Fibonacci hash into the table's index space.
    let v = u32::from_le_bytes([src[i], src[i + 1], src[i + 2], src[i + 3]]);
    (v.wrapping_mul(0x9E37_79B1) >> 18) as usize
}

const HASH_BITS: usize = 14;
const HASH_SIZE: usize = 1 << HASH_BITS;

/// Compress `src`. The output is self-delimiting only together with the
/// raw length, which callers must store alongside (the block header
/// does). Returns a stream that [`decompress`] inverts exactly.
pub fn compress(src: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(src.len() / 2 + 16);
    if src.is_empty() {
        put_varint(&mut out, 0); // one empty literal group
        return out;
    }
    // head[h] = most recent position with hash h; prev[i] = previous
    // position in i's chain. usize::MAX = empty.
    let mut head = vec![usize::MAX; HASH_SIZE];
    let mut prev = vec![usize::MAX; src.len()];
    let mut lit_start = 0usize;
    let mut i = 0usize;
    while i < src.len() {
        let mut best_len = 0usize;
        let mut best_off = 0usize;
        if i + MIN_MATCH <= src.len() {
            let h = hash4(src, i) & (HASH_SIZE - 1);
            let mut cand = head[h];
            let mut chain = 0;
            while cand != usize::MAX && chain < MAX_CHAIN {
                // candidate must genuinely precede us
                debug_assert!(cand < i);
                let limit = (src.len() - i).min(MAX_MATCH);
                let mut l = 0;
                while l < limit && src[cand + l] == src[i + l] {
                    l += 1;
                }
                if l > best_len {
                    best_len = l;
                    best_off = i - cand;
                    if l >= limit {
                        break;
                    }
                }
                cand = prev[cand];
                chain += 1;
            }
            prev[i] = head[h];
            head[h] = i;
        }
        if best_len >= MIN_MATCH {
            // flush pending literals, then the match
            put_varint(&mut out, (i - lit_start) as u64);
            out.extend_from_slice(&src[lit_start..i]);
            put_varint(&mut out, best_len as u64);
            put_varint(&mut out, best_off as u64);
            // index the matched region (sparsely: every position keeps
            // chains exact; the cost is linear and small)
            let end = i + best_len;
            i += 1;
            while i < end && i + MIN_MATCH <= src.len() {
                let h = hash4(src, i) & (HASH_SIZE - 1);
                prev[i] = head[h];
                head[h] = i;
                i += 1;
            }
            i = end;
            lit_start = i;
        } else {
            i += 1;
        }
    }
    // final literal group (possibly empty), no trailing match
    put_varint(&mut out, (src.len() - lit_start) as u64);
    out.extend_from_slice(&src[lit_start..]);
    out
}

/// Decompress a [`compress`] stream into exactly `raw_len` bytes.
/// `None` on any corruption: truncated varints, bad offsets, or a stream
/// that produces the wrong number of bytes.
pub fn decompress(src: &[u8], raw_len: usize) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity(raw_len);
    let mut pos = 0usize;
    loop {
        let lit_len = get_varint(src, &mut pos)? as usize;
        if lit_len > src.len().saturating_sub(pos) || out.len() + lit_len > raw_len {
            return None;
        }
        out.extend_from_slice(&src[pos..pos + lit_len]);
        pos += lit_len;
        if out.len() == raw_len && pos == src.len() {
            return Some(out);
        }
        if pos == src.len() {
            // stream ended before producing raw_len bytes
            return None;
        }
        let match_len = get_varint(src, &mut pos)? as usize;
        let offset = get_varint(src, &mut pos)? as usize;
        if match_len < MIN_MATCH
            || match_len > MAX_MATCH
            || offset == 0
            || offset > out.len()
            || out.len() + match_len > raw_len
        {
            return None;
        }
        // byte-at-a-time copy: overlapping matches (offset < len) are
        // the run-length case and must self-reference the fresh output
        let start = out.len() - offset;
        for k in 0..match_len {
            let b = out[start + k];
            out.push(b);
        }
    }
}

// ---------------------------------------------------------------------
// Adaptive order-1 range coder
// ---------------------------------------------------------------------
//
// The LZ pass above exploits *repetition*; trace columns additionally
// have low *per-symbol entropy* (a recorded nyp delta spans a handful of
// distinct small values), which repetition-matching cannot reach. This
// is the classic binary range coder (the LZMA construction): each byte
// is coded bit by bit through a 255-node probability tree selected by
// the previous byte (order-1 context), probabilities adapting as they
// go. Everything is integer arithmetic — encoding is exactly
// deterministic, and the decoder mirrors the adaptation step for step.
//
// Truncation behaviour: a short stream decodes to *wrong* bytes rather
// than failing structurally (the coder cannot tell missing bytes from
// zeros). Callers needing tamper evidence must CRC the raw payload —
// the block trace format does.

/// Probability scale: 12-bit fixed point.
const RC_BITS: u32 = 12;
const RC_HALF: u16 = (1 << RC_BITS) / 2;
const RC_TOP: u32 = 1 << 24;

/// One adaptive binary probability. The update rate follows a fast-start
/// schedule: a freshly observed context moves in big steps (a block's
/// model must converge within a few hundred symbols), then settles to a
/// slower, more precise rate once it has evidence.
#[derive(Clone, Copy)]
struct Prob {
    p: u16,
    n: u8,
}

impl Prob {
    const FRESH: Prob = Prob { p: RC_HALF, n: 0 };

    #[inline]
    fn shift(&self) -> u32 {
        match self.n {
            0..=3 => 2,
            4..=15 => 3,
            _ => 4,
        }
    }

    #[inline]
    fn update(&mut self, bit: u32) {
        let sh = self.shift();
        self.n = self.n.saturating_add(1);
        if bit == 0 {
            self.p += ((1u16 << RC_BITS) - self.p) >> sh;
        } else {
            self.p -= self.p >> sh;
        }
    }
}

struct RangeEncoder {
    low: u64,
    range: u32,
    cache: u8,
    cache_size: u64,
    out: Vec<u8>,
}

impl RangeEncoder {
    fn new() -> Self {
        Self {
            low: 0,
            range: u32::MAX,
            cache: 0,
            cache_size: 1,
            out: Vec::new(),
        }
    }

    fn shift_low(&mut self) {
        if (self.low as u32) < 0xFF00_0000 || (self.low >> 32) != 0 {
            let carry = (self.low >> 32) as u8;
            let mut byte = self.cache;
            loop {
                self.out.push(byte.wrapping_add(carry));
                byte = 0xFF;
                self.cache_size -= 1;
                if self.cache_size == 0 {
                    break;
                }
            }
            self.cache = (self.low >> 24) as u8;
        }
        self.cache_size += 1;
        self.low = (self.low & 0x00FF_FFFF) << 8;
    }

    fn encode_bit(&mut self, p: &mut Prob, bit: u32) {
        let bound = (self.range >> RC_BITS) * (p.p as u32);
        if bit == 0 {
            self.range = bound;
        } else {
            self.low += bound as u64;
            self.range -= bound;
        }
        p.update(bit);
        while self.range < RC_TOP {
            self.shift_low();
            self.range <<= 8;
        }
    }

    fn finish(mut self) -> Vec<u8> {
        for _ in 0..5 {
            self.shift_low();
        }
        self.out
    }
}

struct RangeDecoder<'a> {
    code: u32,
    range: u32,
    src: &'a [u8],
    pos: usize,
}

impl<'a> RangeDecoder<'a> {
    fn new(src: &'a [u8]) -> Self {
        let mut d = Self {
            code: 0,
            range: u32::MAX,
            src,
            pos: 0,
        };
        // First byte is the encoder's initial zero cache.
        for _ in 0..5 {
            d.code = (d.code << 8) | d.next() as u32;
        }
        d
    }

    fn next(&mut self) -> u8 {
        let b = self.src.get(self.pos).copied().unwrap_or(0);
        self.pos += 1;
        b
    }

    fn decode_bit(&mut self, p: &mut Prob) -> u32 {
        let bound = (self.range >> RC_BITS) * (p.p as u32);
        let bit = if self.code < bound {
            self.range = bound;
            0
        } else {
            self.code -= bound;
            self.range -= bound;
            1
        };
        p.update(bit);
        while self.range < RC_TOP {
            self.range <<= 8;
            self.code = (self.code << 8) | self.next() as u32;
        }
        bit
    }
}

/// Order-1 bit-tree model: one 255-probability tree per previous byte.
/// Fresh per (de)compression so streams are independent. A tree is
/// initialized when its context first occurs: a block touches a few of
/// the 256 contexts, and filling all of them (256 KiB) used to cost more
/// than coding a small block.
struct RcModel {
    /// 1 + the index in `trees` of each context's tree; 0 = not yet seen.
    slot: [u16; 256],
    trees: Vec<[Prob; 256]>,
}

impl RcModel {
    fn new() -> Self {
        Self {
            slot: [0; 256],
            // Room for every context: growing never copies trees.
            trees: Vec::with_capacity(256),
        }
    }

    #[inline]
    fn tree(&mut self, ctx: usize) -> &mut [Prob; 256] {
        if self.slot[ctx] == 0 {
            self.trees.push([Prob::FRESH; 256]);
            self.slot[ctx] = self.trees.len() as u16;
        }
        &mut self.trees[self.slot[ctx] as usize - 1]
    }
}

/// Compress `src` with the adaptive order-1 range coder. Pair with
/// [`entropy_decompress`] and the raw length. Worst case (already-random
/// input) expands by a fraction of a percent plus a 5-byte tail.
pub fn entropy_compress(src: &[u8]) -> Vec<u8> {
    let mut model = RcModel::new();
    let mut enc = RangeEncoder::new();
    let mut prev: usize = 0;
    for &b in src {
        let tree = model.tree(prev);
        let mut node = 1usize;
        for i in (0..8).rev() {
            let bit = ((b >> i) & 1) as u32;
            enc.encode_bit(&mut tree[node], bit);
            node = (node << 1) | bit as usize;
        }
        prev = b as usize;
    }
    enc.finish()
}

/// Invert [`entropy_compress`], producing exactly `raw_len` bytes.
/// Structural corruption is *not* detectable here (see the module note);
/// `None` only when the stream is grossly oversized for its raw length.
pub fn entropy_decompress(src: &[u8], raw_len: usize) -> Option<Vec<u8>> {
    // An honest stream never exceeds raw_len + tail by much; reject
    // obvious garbage so callers cannot be memory-bombed.
    if src.len() > raw_len.saturating_add(raw_len / 8) + 16 {
        return None;
    }
    let mut model = RcModel::new();
    let mut dec = RangeDecoder::new(src);
    let mut out = Vec::with_capacity(raw_len);
    let mut prev: usize = 0;
    for _ in 0..raw_len {
        let tree = model.tree(prev);
        let mut node = 1usize;
        for _ in 0..8 {
            let bit = dec.decode_bit(&mut tree[node]);
            node = (node << 1) | bit as usize;
        }
        let b = (node & 0xFF) as u8;
        out.push(b);
        prev = b as usize;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let c = compress(data);
        let d = decompress(&c, data.len()).expect("decompress");
        assert_eq!(d, data);
    }

    #[test]
    fn roundtrip_empty_and_tiny() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"abc");
        roundtrip(b"abcd");
    }

    #[test]
    fn roundtrip_runs_compress_hard() {
        let data = vec![7u8; 10_000];
        let c = compress(&data);
        assert!(
            c.len() < 64,
            "run of 10k bytes must collapse, got {}",
            c.len()
        );
        assert_eq!(decompress(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn roundtrip_periodic_pattern() {
        let mut data = Vec::new();
        for i in 0..5_000u32 {
            data.extend_from_slice(&[(i % 7) as u8, 3, 1, (i % 5) as u8]);
        }
        let c = compress(&data);
        assert!(c.len() < data.len() / 4, "{} vs {}", c.len(), data.len());
        assert_eq!(decompress(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn roundtrip_incompressible() {
        // A SplitMix-ish stream: no long matches; output may exceed input
        // only by the group headers.
        let mut x = 0x9E3779B97F4A7C15u64;
        let mut data = Vec::new();
        for _ in 0..4_096 {
            x ^= x >> 27;
            x = x.wrapping_mul(0x2545F4914F6CDD1D);
            data.push((x >> 32) as u8);
        }
        let c = compress(&data);
        assert!(c.len() <= data.len() + 16);
        assert_eq!(decompress(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn decompress_rejects_wrong_raw_len() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let c = compress(data);
        assert!(decompress(&c, data.len() + 1).is_none());
        assert!(decompress(&c, data.len() - 1).is_none());
    }

    #[test]
    fn decompress_rejects_truncation() {
        let data = vec![9u8; 300];
        let c = compress(&data);
        for cut in 1..c.len() {
            assert!(
                decompress(&c[..cut], data.len()).is_none(),
                "accepted a {cut}-byte prefix of a {}-byte stream",
                c.len()
            );
        }
    }

    #[test]
    fn decompress_rejects_bad_offset() {
        // group: 1 literal, then a match reaching before the start
        let mut bad = Vec::new();
        put_varint(&mut bad, 1);
        bad.push(b'x');
        put_varint(&mut bad, 4); // match_len
        put_varint(&mut bad, 9); // offset > produced
        assert!(decompress(&bad, 5).is_none());
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    #[test]
    fn crc32_catches_single_bit_flip() {
        let data = vec![0x5Au8; 1024];
        let base = crc32(&data);
        let mut mutated = data.clone();
        mutated[517] ^= 0x10;
        assert_ne!(crc32(&mutated), base);
    }

    #[test]
    fn compression_is_deterministic() {
        let mut data = Vec::new();
        for i in 0..2_000u32 {
            data.push((i % 11) as u8);
        }
        assert_eq!(compress(&data), compress(&data));
    }

    fn rc_roundtrip(data: &[u8]) {
        let c = entropy_compress(data);
        let d = entropy_decompress(&c, data.len()).expect("plausible stream");
        assert_eq!(d, data, "range-coder roundtrip of {} bytes", data.len());
    }

    #[test]
    fn rc_roundtrips_edge_cases() {
        rc_roundtrip(b"");
        rc_roundtrip(b"a");
        rc_roundtrip(&[0x00]);
        rc_roundtrip(&[0xFF; 3]);
        rc_roundtrip(b"hello range coder");
        rc_roundtrip(&vec![0xABu8; 10_000]);
    }

    #[test]
    fn rc_roundtrips_pseudorandom_and_structured() {
        // xorshift-style pseudorandom bytes (worst case for the model)
        // and a periodic sequence (best case) both roundtrip exactly.
        let mut x = 0x2545F491_4F6CDD1Du64;
        let mut rnd = Vec::new();
        let mut per = Vec::new();
        for i in 0..8_192u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            rnd.push(x as u8);
            per.push((200 + i % 17) as u8);
        }
        rc_roundtrip(&rnd);
        rc_roundtrip(&per);
        // Order-1 adaptation: a deterministic successor structure should
        // approach zero bits per symbol, far below the LZ matcher.
        let cper = entropy_compress(&per);
        assert!(
            cper.len() * 8 < per.len(),
            "periodic data: {} bytes coded in {} bytes",
            per.len(),
            cper.len()
        );
        // Random bytes must not blow up: tiny model overhead + 5-byte tail.
        let crnd = entropy_compress(&rnd);
        assert!(crnd.len() < rnd.len() + rnd.len() / 16 + 16);
    }

    #[test]
    fn rc_skewed_bytes_beat_one_bit_per_symbol() {
        // 97% zeros / 3% ones has ~0.19 bits of entropy per symbol; the
        // adaptive coder should land well under 1 bit.
        let mut data = vec![0u8; 20_000];
        for i in (0..data.len()).step_by(33) {
            data[i] = 1;
        }
        let c = entropy_compress(&data);
        assert!(
            c.len() * 8 < data.len(),
            "skewed data: {} bytes coded in {} bytes",
            data.len(),
            c.len()
        );
        rc_roundtrip(&data);
    }

    #[test]
    fn rc_is_deterministic() {
        let data: Vec<u8> = (0..4_096u32).map(|i| (i * 7 % 251) as u8).collect();
        assert_eq!(entropy_compress(&data), entropy_compress(&data));
    }

    #[test]
    fn rc_rejects_grossly_oversized_stream() {
        assert!(entropy_decompress(&[0u8; 1_000], 8).is_none());
    }
}
