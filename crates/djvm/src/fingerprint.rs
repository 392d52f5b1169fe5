//! Execution fingerprinting: the paper's definition of "identical
//! behaviour", made checkable.
//!
//! §2 of the paper defines two executions as identical when (1) their
//! event sequences are identical and (2) the program states after
//! corresponding events are identical. The fingerprint is a 64-bit rolling
//! hash over exactly those observables: per-instruction `(thread, method,
//! pc)` events (in `Full` mode), scheduling decisions, console output, and
//! — via [`crate::vm::Vm::state_digest`] — the final reachable program
//! state. Replay is *accurate* iff record and replay fingerprints match.
//!
//! Instrumentation-internal execution (DejaVu helper frames) is excluded,
//! mirroring the fact that DejaVu "cannot replay its own instrumentation,
//! which behaves differently by definition" (§2.4).

/// How much of the execution to hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FingerprintMode {
    /// Hash nothing (benchmarking the raw VM).
    Off,
    /// Hash every executed instruction's (tid, method, pc), scheduling
    /// decisions, output and tagged events: the paper's accuracy check,
    /// run by every record, replay, seek and fleet session.
    #[default]
    Full,
}

/// The Mersenne prime 2^61 − 1: the modulus of the per-instruction step
/// hash.
const P: u64 = (1 << 61) - 1;

/// The step hash's fixed random base. Below 2^58, so one 61-bit fold of
/// `h·B + enc` keeps *any* 64-bit `h` under 2^63 (see [`Fingerprint::mix_step`]).
const B: u64 = 0x0210_8F09_786A_7F97;

/// Widest span [`Fingerprint::mix_span`] takes: the widest fused QOp.
pub(crate) const MAX_SPAN: usize = 4;

/// One 61-bit fold: congruent to `x` mod `P` (2^61 ≡ 1), and below
/// 2^64 whenever `x < 2^125 − 2^122`.
#[inline(always)]
const fn fold(x: u128) -> u64 {
    (x as u64 & P) + (x >> 61) as u64
}

/// The canonical residue of any `h` mod `P`.
#[inline(always)]
const fn reduce(h: u64) -> u64 {
    let r = (h & P) + (h >> 61); // < 2^61 + 8 < 2P
    if r >= P {
        r - P
    } else {
        r
    }
}

/// `a·b mod P` for `a, b < 2^62`.
#[inline(always)]
const fn mulmod(a: u64, b: u64) -> u64 {
    reduce(fold(a as u128 * b as u128))
}

/// The instruction event `(tid, method, pc)` as one word: tid in bits
/// 48.., method in 24..48, pc in 0..24. For in-range methods and pcs the
/// fields do not overlap, so `enc` is linear in `tid` (and in `pc`): a
/// run of pcs differs from its tid-free encoding by `tid·2^48` per pc.
#[inline(always)]
const fn enc(tid: u32, method: u32, pc: u32) -> u64 {
    ((tid as u64) << 48) | ((method as u64) << 24) | pc as u64
}

/// The step hash is affine: `h ← h·a + c (mod P)`. A single instruction
/// is `(B, enc)`; any sequence of instructions composes into one map, so
/// a straight-line run of `w` pcs, a whole megablock iteration, and `k`
/// iterations (by `StepMap::pow`, in O(log k)) each advance the hash
/// with one multiply. Both fields are canonical residues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepMap {
    pub a: u64,
    pub c: u64,
}

impl StepMap {
    /// The map that changes nothing (zero instructions).
    pub const IDENTITY: StepMap = StepMap { a: 1, c: 0 };

    /// The map of the `w` instructions `pc, pc+1, …, pc+w−1` of `method`
    /// on thread `tid`. With `tid == 0` this is the span's *tid-free*
    /// part; add [`tid_coeff`]`(w)·tid` to `c` for thread `tid`.
    pub(crate) fn span(tid: u32, method: u32, pc: u32, w: u64) -> StepMap {
        let mut m = StepMap::IDENTITY;
        for i in 0..w {
            m = m.then(StepMap {
                a: B,
                c: reduce(enc(tid, method, pc + i as u32)),
            });
        }
        m
    }

    /// Apply `self`, then `next`.
    #[inline]
    pub(crate) fn then(self, next: StepMap) -> StepMap {
        StepMap {
            a: mulmod(next.a, self.a),
            c: reduce(mulmod(next.a, self.c) + next.c),
        }
    }

    /// `self` applied `k` times, by binary powering.
    pub(crate) fn pow(self, mut k: u64) -> StepMap {
        // Powers of one map commute, so the accumulation order is free.
        let (mut acc, mut base) = (StepMap::IDENTITY, self);
        while k != 0 {
            if k & 1 == 1 {
                acc = acc.then(base);
            }
            base = base.then(base);
            k >>= 1;
        }
        acc
    }

    /// This span map for thread `tid`, from its tid-free part and the
    /// span's [`tid_coeff`].
    #[inline]
    pub(crate) fn with_tid(self, tid: u32, coeff: u64) -> StepMap {
        StepMap {
            a: self.a,
            c: reduce(self.c + mulmod(tid_bits(tid), coeff)),
        }
    }

    /// Advance a (possibly partially reduced) hash `h`: congruent to
    /// `h·a + c`, and below 2^63 for any 64-bit `h` and `c`.
    #[inline(always)]
    pub(crate) fn apply(self, h: u64) -> u64 {
        let h = (h & P) + (h >> 61); // < 2^61 + 8, so the product fits one fold
        fold(h as u128 * self.a as u128 + self.c as u128)
    }
}

/// The part of `tid` [`enc`] keeps (bits 48..64 of the event word).
#[inline(always)]
const fn tid_bits(tid: u32) -> u64 {
    tid as u64 & 0xFFFF
}

/// `2^48 · (1 + B + … + B^(w−1)) mod P`: how much one unit of `tid` adds
/// to the `c` of a `w`-instruction span map.
pub(crate) fn tid_coeff(w: u64) -> u64 {
    // The geometric sum is the `c` of `x ↦ B·x + 1` applied w times.
    mulmod(StepMap { a: B, c: 1 }.pow(w).c, 1 << 48)
}

/// [`tid_coeff`] of every span width up to [`MAX_SPAN`], times `tid`: the
/// per-thread terms the tier-2 engine adds to its steps' tid-free maps.
pub(crate) fn span_tid_terms(tid: u32) -> [u64; MAX_SPAN + 1] {
    SPANS.map(|t| mulmod(tid_bits(tid), t.tid))
}

/// Per-width constants of the quickened tier's span maps: a width-`w`
/// span starting at event word `e` is `(a, e·s + d)` with `a = B^w`,
/// `s = Σ B^i` and `d = Σ_{i<w} i·B^(w−1−i)` (pcs advance by one);
/// `tid = 2^48·s` is the span's [`tid_coeff`].
#[derive(Clone, Copy)]
struct SpanConsts {
    a: u64,
    s: u64,
    d: u64,
    tid: u64,
}

const SPANS: [SpanConsts; MAX_SPAN + 1] = {
    let mut t = [SpanConsts {
        a: 1,
        s: 0,
        d: 0,
        tid: 0,
    }; MAX_SPAN + 1];
    let mut w = 1;
    while w <= MAX_SPAN {
        let p = t[w - 1];
        // Appending pc index w−1 to a width-(w−1) span.
        let s = reduce(mulmod(p.s, B) + 1);
        t[w] = SpanConsts {
            a: mulmod(p.a, B),
            s,
            d: reduce(mulmod(p.d, B) + (w as u64 - 1)),
            tid: mulmod(s, 1 << 48),
        };
        w += 1;
    }
    t
};

/// Rolling execution hash.
///
/// Instruction events advance `h` through the affine step hash
/// (`h ← h·B + enc(tid, method, pc) mod P`); every other event — thread
/// switches, output, tagged events, the final digest — goes through the
/// non-linear `mix`. `h` is kept as its canonical residue mod `P`
/// whenever it is stored here, so every dispatch tier hands off, and
/// every non-linear mix sees, the same value.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    mode: FingerprintMode,
    h: u64,
    /// Number of hashed instruction events.
    pub steps: u64,
    /// Number of hashed thread switches.
    pub switches: u64,
}

#[inline]
fn mix(mut h: u64, v: u64) -> u64 {
    // splitmix64-style avalanche over (h ^ rotated v).
    h ^= v
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(h << 6)
        .wrapping_add(h >> 2);
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

impl Fingerprint {
    pub fn new(mode: FingerprintMode) -> Self {
        Self {
            mode,
            h: reduce(0x5DEC_AF15_0DD5_EED5),
            steps: 0,
            switches: 0,
        }
    }

    pub fn mode(&self) -> FingerprintMode {
        self.mode
    }

    fn on(&self) -> bool {
        self.mode == FingerprintMode::Full
    }

    /// One executed instruction.
    #[inline]
    pub fn step(&mut self, tid: u32, method: u32, pc: u32) {
        if self.on() {
            self.steps += 1;
            self.h = reduce(Self::mix_step(self.h, tid, method, pc));
        }
    }

    /// The per-instruction rolling state, for a cached-cursor dispatch
    /// loop that holds it in locals (the quickened interpreter). Pair
    /// with [`Fingerprint::set_step_state`]; advance the hash with
    /// [`Fingerprint::mix_step`], [`Fingerprint::mix_span`] or a
    /// [`StepMap`]. Only meaningful in `Full` mode — under `Off`,
    /// [`Fingerprint::step`] is a no-op and the cached state must be
    /// written back unchanged.
    #[inline]
    pub fn step_state(&self) -> (u64, u64) {
        (self.h, self.steps)
    }

    /// Write back rolling state taken from [`Fingerprint::step_state`]
    /// (the hash may come back partially reduced; it is stored canonical).
    #[inline]
    pub fn set_step_state(&mut self, h: u64, steps: u64) {
        self.h = reduce(h);
        self.steps = steps;
    }

    /// The pure hash advance of one [`Fingerprint::step`], usable on a
    /// cached `h` without touching `self`: one multiply and one fold.
    /// Takes any 64-bit `h`; returns a value below 2^63 congruent to
    /// `h·B + enc(tid, method, pc)` mod `P`.
    #[inline(always)]
    pub fn mix_step(h: u64, tid: u32, method: u32, pc: u32) -> u64 {
        // h·B < 2^122, so the fold's high part stays below 2^61.
        fold(h as u128 * B as u128 + enc(tid, method, pc) as u128)
    }

    /// `w` (≤ `MAX_SPAN`) consecutive [`Fingerprint::mix_step`]s at
    /// `pc, pc+1, …` as one map from a per-width constant table: the
    /// accounting of one fused superinstruction.
    #[inline(always)]
    pub fn mix_span(h: u64, tid: u32, method: u32, pc: u32, w: u32) -> u64 {
        let t = SPANS[w as usize];
        let e = enc(tid, method, pc);
        let e = (e & P) + (e >> 61);
        // Independent of `h`: off the hash's critical path.
        let c = fold(e as u128 * t.s as u128 + t.d as u128);
        StepMap { a: t.a, c }.apply(h)
    }

    /// Mix a non-instruction event word into the hash (kept canonical).
    fn mix_event(&mut self, v: u64) {
        self.h = reduce(mix(self.h, v));
    }

    /// A thread switch to `to` after `yp` yield points on the switching
    /// thread.
    #[inline]
    pub fn thread_switch(&mut self, to: u32, yp: u64) {
        if self.on() {
            self.switches += 1;
            self.mix_event(0xD15B_A7C4 ^ ((to as u64) << 32) ^ yp);
        }
    }

    /// Console output bytes.
    pub fn output(&mut self, bytes: &[u8]) {
        if self.on() {
            for chunk in bytes.chunks(8) {
                let mut w = [0u8; 8];
                w[..chunk.len()].copy_from_slice(chunk);
                self.mix_event(u64::from_le_bytes(w) ^ 0x0007_fa11);
            }
        }
    }

    /// An arbitrary tagged event (used for VM errors, halts, spawns).
    pub fn event(&mut self, tag: u64, a: u64, b: u64) {
        if self.on() {
            self.h = reduce(mix(mix(self.h, tag), a ^ b.rotate_left(32)));
        }
    }

    /// Current digest.
    pub fn digest(&self) -> u64 {
        mix(self.h, self.steps ^ (self.switches << 32))
    }
}

/// Standalone mixer for building auxiliary digests (heap/state hashing).
#[derive(Debug, Clone)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xD16E_57A7_E000_0001)
    }
}

impl Digest {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn add(&mut self, v: u64) -> &mut Self {
        self.0 = mix(self.0, v);
        self
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_sequences_hash_identically() {
        let mut a = Fingerprint::new(FingerprintMode::Full);
        let mut b = Fingerprint::new(FingerprintMode::Full);
        for i in 0..100 {
            a.step(1, 2, i);
            b.step(1, 2, i);
        }
        a.thread_switch(2, 50);
        b.thread_switch(2, 50);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn different_order_hashes_differently() {
        let mut a = Fingerprint::new(FingerprintMode::Full);
        let mut b = Fingerprint::new(FingerprintMode::Full);
        a.step(1, 2, 3);
        a.step(1, 2, 4);
        b.step(1, 2, 4);
        b.step(1, 2, 3);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn switch_target_matters() {
        let mut a = Fingerprint::new(FingerprintMode::Full);
        let mut b = Fingerprint::new(FingerprintMode::Full);
        a.thread_switch(1, 10);
        b.thread_switch(2, 10);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn off_mode_ignores_everything() {
        let mut a = Fingerprint::new(FingerprintMode::Off);
        let base = a.digest();
        a.step(1, 2, 3);
        a.thread_switch(4, 5);
        a.output(b"hello");
        assert_eq!(a.digest(), base);
    }

    #[test]
    fn output_bytes_hash() {
        let mut a = Fingerprint::new(FingerprintMode::Full);
        let mut b = Fingerprint::new(FingerprintMode::Full);
        a.output(b"8\n");
        b.output(b"0\n");
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn digest_mixer_order_sensitive() {
        let mut a = Digest::new();
        let mut b = Digest::new();
        a.add(1).add(2);
        b.add(2).add(1);
        assert_ne!(a.value(), b.value());
    }

    /// Per-pc stepping: the definition every composed map must match.
    fn stepwise(mut h: u64, tid: u32, method: u32, pc: u32, w: u64) -> u64 {
        for i in 0..w {
            h = Fingerprint::mix_step(h, tid, method, pc + i as u32);
        }
        h
    }

    /// Starting hashes: random words plus the extremes a non-linear `mix`
    /// output can take (anything up to 2^64 − 1).
    fn start_values(rng: &mut crate::rng::SplitMix64) -> Vec<u64> {
        let mut v = vec![0, 1, P - 1, P, P + 1, u64::MAX, u64::MAX - 1, u64::MAX - P];
        v.extend((0..8).map(|_| rng.next_u64()));
        v
    }

    #[test]
    fn span_maps_match_per_pc_stepping() {
        let mut rng = crate::rng::SplitMix64::new(0x5EED_0001);
        for _ in 0..200 {
            let tid = match rng.next_u64() % 3 {
                0 => rng.next_u64() as u32 % 8,
                1 => rng.next_u64() as u32 % 0x1_0000,
                _ => rng.next_u64() as u32, // high bits fall outside `enc`
            };
            let method = rng.next_u64() as u32 % (1 << 24);
            let pc = rng.next_u64() as u32 % ((1 << 24) - 64);
            let w = 1 + rng.next_u64() % MAX_SPAN as u64;
            let tid_free = StepMap::span(0, method, pc, w);
            let full = StepMap::span(tid, method, pc, w);
            assert_eq!(full, tid_free.with_tid(tid, tid_coeff(w)), "tid split");
            let term = span_tid_terms(tid)[w as usize];
            assert_eq!(full.c, reduce(tid_free.c + term), "tid term table");
            for h in start_values(&mut rng) {
                let want = reduce(stepwise(h, tid, method, pc, w));
                assert!(stepwise(h, tid, method, pc, w) < 1 << 63);
                assert_eq!(reduce(full.apply(h)), want, "span map, w {w}");
                let fused = Fingerprint::mix_span(h, tid, method, pc, w as u32);
                assert!(fused < 1 << 63);
                assert_eq!(reduce(fused), want, "constant-table span, w {w}");
            }
        }
    }

    #[test]
    fn iteration_maps_and_powers_match_per_pc_stepping() {
        let mut rng = crate::rng::SplitMix64::new(0x5EED_0002);
        for _ in 0..40 {
            let tid = rng.next_u64() as u32 % 0x1_0000;
            // A megablock-like iteration: spans of mixed widths across
            // methods (inlined calls), composed tid-free.
            let spans: Vec<(u32, u32, u64)> = (0..1 + rng.next_u64() % 12)
                .map(|_| {
                    (
                        rng.next_u64() as u32 % 1000,
                        rng.next_u64() as u32 % 5000,
                        1 + rng.next_u64() % MAX_SPAN as u64,
                    )
                })
                .collect();
            let width: u64 = spans.iter().map(|s| s.2).sum();
            let iter = spans
                .iter()
                .fold(StepMap::IDENTITY, |m, &(method, pc, w)| {
                    m.then(StepMap::span(0, method, pc, w))
                })
                .with_tid(tid, tid_coeff(width));
            let one_iter = |mut h: u64| {
                for &(method, pc, w) in &spans {
                    h = stepwise(h, tid, method, pc, w);
                }
                h
            };
            for h in start_values(&mut rng) {
                assert_eq!(reduce(iter.apply(h)), reduce(one_iter(h)), "iteration map");
                // k iterations: 0, 1, small, and (by the group law) large.
                let mut hk = h;
                for k in 0..=5u64 {
                    assert_eq!(reduce(iter.pow(k).apply(h)), reduce(hk), "pow {k}");
                    hk = one_iter(hk);
                }
                let k = 1 + rng.next_u64() % 1_000_000;
                let j = rng.next_u64() % 1_000;
                let split = iter.pow(k).apply(iter.pow(j).apply(h));
                assert_eq!(
                    reduce(iter.pow(k + j).apply(h)),
                    reduce(split),
                    "pow {k}+{j}"
                );
            }
            assert_eq!(iter.pow(0), StepMap::IDENTITY);
            assert_eq!(iter.pow(1), iter);
        }
    }

    #[test]
    fn large_powers_match_repeated_stepping() {
        // One long straight-line loop body stepped 100,000 times by hand.
        let body = StepMap::span(3, 7, 40, 4).then(StepMap::span(3, 7, 44, 1));
        let mut h = u64::MAX;
        for _ in 0..100_000 {
            h = stepwise(stepwise(h, 3, 7, 40, 4), 3, 7, 44, 1);
        }
        assert_eq!(reduce(body.pow(100_000).apply(u64::MAX)), reduce(h));
    }

    #[test]
    fn state_stays_canonical_across_every_event() {
        let mut a = Fingerprint::new(FingerprintMode::Full);
        let check = |f: &Fingerprint| assert!(f.step_state().0 < P);
        check(&a);
        a.step(1, 2, 3);
        check(&a);
        a.thread_switch(2, 9);
        check(&a);
        a.output(b"x");
        check(&a);
        a.event(1, 2, 3);
        check(&a);
        a.set_step_state(u64::MAX, 1);
        check(&a);
    }
}
