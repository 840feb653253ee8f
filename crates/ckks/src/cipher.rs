//! Ciphertexts and homomorphic operations.

use crate::encoding::{Encoder, Plaintext};
use crate::keys::{truncate, KeyChain};
use crate::rns::{CkksContext, RnsPoly};
use smartpaf_tensor::Rng64;
use std::sync::Arc;

/// Maximum tolerated relative scale mismatch when adding ciphertexts.
///
/// Each rescale divides by a prime within ~1e-4 of the nominal scale
/// (NTT-friendly primes are spaced by 2n), so an 11-level evaluation
/// can drift a little over 1e-3 at small ring dimensions. The mismatch
/// bounds the relative slot error of the addition, so 5e-3 stays well
/// inside the simulator's noise budget while still catching genuine
/// scale-management bugs (those are off by a full Δ factor).
const SCALE_TOLERANCE: f64 = 5e-3;

/// A CKKS ciphertext `(c0, c1)` with `m ≈ c0 + c1·s`.
#[derive(Debug, Clone)]
pub struct Ciphertext {
    pub(crate) c0: RnsPoly,
    pub(crate) c1: RnsPoly,
    /// Current encoding scale.
    pub scale: f64,
}

impl Ciphertext {
    /// Number of RNS limbs (level + 1).
    pub fn num_limbs(&self) -> usize {
        self.c0.num_limbs()
    }

    /// Remaining rescale budget.
    pub fn level(&self) -> usize {
        self.num_limbs() - 1
    }

    /// Drops limbs until `num_limbs` remain (plain modulus switch).
    ///
    /// # Panics
    ///
    /// Panics if `num_limbs` is zero or larger than the current count.
    pub fn drop_to(&mut self, num_limbs: usize) {
        assert!(num_limbs >= 1 && num_limbs <= self.num_limbs());
        while self.num_limbs() > num_limbs {
            self.c0.drop_last_limb();
            self.c1.drop_last_limb();
        }
    }
}

/// Homomorphic evaluator bound to a context and key chain.
#[derive(Debug, Clone)]
pub struct Evaluator {
    ctx: Arc<CkksContext>,
    keys: Arc<KeyChain>,
    encoder: Encoder,
}

impl Evaluator {
    /// Creates an evaluator.
    pub fn new(keys: &Arc<KeyChain>) -> Self {
        let ctx = Arc::clone(keys.context());
        Evaluator {
            encoder: Encoder::new(&ctx),
            ctx,
            keys: Arc::clone(keys),
        }
    }

    /// Shared context.
    pub fn context(&self) -> &Arc<CkksContext> {
        &self.ctx
    }

    /// The encoder used for plaintext interop.
    pub fn encoder(&self) -> &Encoder {
        &self.encoder
    }

    /// Encrypts a plaintext under the public key.
    pub fn encrypt(&self, pt: &Plaintext, rng: &mut Rng64) -> Ciphertext {
        let nl = pt.poly.num_limbs();
        let pk = self.keys.public_key();
        let mut u = RnsPoly::random_ternary(&self.ctx, nl, rng);
        u.to_ntt();
        let mut e0 = RnsPoly::random_error(&self.ctx, nl, rng);
        e0.to_ntt();
        let mut e1 = RnsPoly::random_error(&self.ctx, nl, rng);
        e1.to_ntt();
        let mut c0 = pk.b.truncated(nl);
        c0.mul_assign(&u);
        c0.add_assign(&e0);
        c0.add_assign(&pt.poly);
        let mut c1 = pk.a.truncated(nl);
        c1.mul_assign(&u);
        c1.add_assign(&e1);
        Ciphertext {
            c0,
            c1,
            scale: pt.scale,
        }
    }

    /// Convenience: encode + encrypt real slot values at the default
    /// scale and top level.
    pub fn encrypt_values(&self, values: &[f64], rng: &mut Rng64) -> Ciphertext {
        let pt = self
            .encoder
            .encode(values, self.ctx.scale(), self.ctx.primes().len());
        self.encrypt(&pt, rng)
    }

    /// Decrypts to a plaintext.
    pub fn decrypt(&self, ct: &Ciphertext) -> Plaintext {
        let s = truncate(self.keys.secret_key_internal(), ct.num_limbs());
        let mut poly = ct.c0.clone();
        poly.mul_acc(&ct.c1, &s);
        Plaintext {
            poly,
            scale: ct.scale,
        }
    }

    /// Convenience: decrypt + decode `count` slots.
    pub fn decrypt_values(&self, ct: &Ciphertext, count: usize) -> Vec<f64> {
        let pt = self.decrypt(ct);
        self.encoder.decode(&pt, count)
    }

    fn align(&self, a: &Ciphertext, b: &Ciphertext) -> (Ciphertext, Ciphertext) {
        let nl = a.num_limbs().min(b.num_limbs());
        let mut aa = a.clone();
        let mut bb = b.clone();
        aa.drop_to(nl);
        bb.drop_to(nl);
        let rel = (aa.scale - bb.scale).abs() / aa.scale.max(bb.scale);
        assert!(
            rel < SCALE_TOLERANCE,
            "scale mismatch beyond tolerance: {} vs {}",
            aa.scale,
            bb.scale
        );
        (aa, bb)
    }

    /// Homomorphic addition (auto-aligns levels; scales must agree to
    /// within the internal `SCALE_TOLERANCE`).
    ///
    /// # Panics
    ///
    /// Panics on scale mismatch beyond tolerance.
    pub fn add(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        let (aa, bb) = self.align(a, b);
        Ciphertext {
            c0: aa.c0.add(&bb.c0),
            c1: aa.c1.add(&bb.c1),
            scale: aa.scale.max(bb.scale),
        }
    }

    /// Homomorphic subtraction.
    ///
    /// # Panics
    ///
    /// Panics on scale mismatch beyond tolerance.
    pub fn sub(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        let (aa, bb) = self.align(a, b);
        Ciphertext {
            c0: aa.c0.sub(&bb.c0),
            c1: aa.c1.sub(&bb.c1),
            scale: aa.scale.max(bb.scale),
        }
    }

    /// Adds an encoded plaintext.
    ///
    /// The (full-level) plaintext poly is read through a limb prefix —
    /// no clone, no limb-dropping, no domain conversion per call.
    ///
    /// # Panics
    ///
    /// Panics on scale mismatch beyond tolerance or level mismatch.
    pub fn add_plain(&self, a: &Ciphertext, pt: &Plaintext) -> Ciphertext {
        let rel = (a.scale - pt.scale).abs() / a.scale.max(pt.scale);
        assert!(rel < SCALE_TOLERANCE, "plain add scale mismatch");
        Ciphertext {
            c0: a.c0.add_trunc(&pt.poly),
            c1: a.c1.clone(),
            scale: a.scale,
        }
    }

    /// Multiplies by an encoded plaintext. Result scale is the product;
    /// callers usually [`Self::rescale`] afterwards.
    ///
    /// Like [`Self::add_plain`], reads the plaintext through a limb
    /// prefix instead of cloning and truncating it per call.
    pub fn mul_plain(&self, a: &Ciphertext, pt: &Plaintext) -> Ciphertext {
        Ciphertext {
            c0: a.c0.mul_trunc(&pt.poly),
            c1: a.c1.mul_trunc(&pt.poly),
            scale: a.scale * pt.scale,
        }
    }

    /// Multiplies by a scalar constant, consuming one level (encode at
    /// the default scale, multiply, rescale).
    pub fn mul_const(&self, a: &Ciphertext, value: f64) -> Ciphertext {
        let pt = self
            .encoder
            .encode_constant(value, self.ctx.scale(), a.num_limbs());
        let mut out = self.mul_plain(a, &pt);
        self.rescale(&mut out);
        out
    }

    /// Ciphertext-ciphertext multiplication with relinearisation.
    /// Result scale is the product of input scales; callers usually
    /// [`Self::rescale`] afterwards.
    pub fn mul(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        let (aa, bb) = {
            let nl = a.num_limbs().min(b.num_limbs());
            let mut aa = a.clone();
            let mut bb = b.clone();
            aa.drop_to(nl);
            bb.drop_to(nl);
            (aa, bb)
        };
        let mut d0 = aa.c0.mul(&bb.c0);
        let mut d1 = aa.c0.mul(&bb.c1);
        d1.mul_acc(&aa.c1, &bb.c0);
        let d2 = aa.c1.mul(&bb.c1);
        let (r0, r1) = self.relinearize_d2(&d2);
        d0.add_assign(&r0);
        d1.add_assign(&r1);
        Ciphertext {
            c0: d0,
            c1: d1,
            scale: aa.scale * bb.scale,
        }
    }

    /// Squares a ciphertext (saves one ring multiplication vs `mul`).
    pub fn square(&self, a: &Ciphertext) -> Ciphertext {
        let mut d0 = a.c0.mul(&a.c0);
        let cross = a.c0.mul(&a.c1);
        let mut d1 = cross.add(&cross);
        let d2 = a.c1.mul(&a.c1);
        let (r0, r1) = self.relinearize_d2(&d2);
        d0.add_assign(&r0);
        d1.add_assign(&r1);
        Ciphertext {
            c0: d0,
            c1: d1,
            scale: a.scale * a.scale,
        }
    }

    /// Shared key chain (crate-internal: the Galois module needs it).
    pub(crate) fn keys(&self) -> &Arc<KeyChain> {
        &self.keys
    }

    /// Key-switches the degree-2 component back to a linear ciphertext
    /// using the context's key-switch gadget.
    fn relinearize_d2(&self, d2: &RnsPoly) -> (RnsPoly, RnsPoly) {
        let rk = self.keys.relin_key(d2.num_limbs());
        self.key_switch_with(d2, &rk)
    }

    /// Gadget-decomposes `p` and applies a key-switching key: returns
    /// `(k0, k1)` with `k0 + k1·s ≈ p·s'` for the key's embedded
    /// switched-from secret `s'`.
    pub(crate) fn key_switch_with(
        &self,
        p: &RnsPoly,
        key: &crate::keys::RelinKey,
    ) -> (RnsPoly, RnsPoly) {
        assert_eq!(key.num_limbs(), p.num_limbs(), "key level mismatch");
        self.key_switch_hybrid(p, &key.ksk)
    }

    /// The hybrid ω-limb gadget. Pipeline per digit `j` covering chain
    /// limbs `[start, end)` with modulus `Q_j = ∏ q_i`:
    ///
    /// 1. `y_i = x_i · [(Q_j/q_i)^{-1}]_{q_i}` on the in-group limbs
    ///    (coefficient domain);
    /// 2. fast base conversion lifts the digit to every limb of the
    ///    extended basis: `c̃_j mod m_t = Σ_i y_i · [(Q_j/q_i)]_{m_t}`
    ///    (in-group targets are an exact copy of `x_t`); the lift
    ///    overshoots by at most `ω·Q_j`, which the huge special
    ///    modulus `P` absorbs as noise;
    /// 3. NTT the raised digit and lazily accumulate
    ///    `c̃_j ⊙ b_j` / `c̃_j ⊙ a_j` in `u128` per extended limb;
    /// 4. mod-down by `P`: inverse-NTT the special limbs, base-convert
    ///    their residues back to the chain, and scale by
    ///    `[P^{-1}]_{q_t}` (approximate base conversion again — error
    ///    ≤ `k` per coefficient, far below the noise floor).
    ///
    /// Every limb of steps 2–4 is independent, so the whole pipeline
    /// fans out across [`crate::par`] when the thread budget allows,
    /// bit-identically to the sequential loop.
    fn key_switch_hybrid(&self, p: &RnsPoly, ksk: &crate::keys::HybridKsk) -> (RnsPoly, RnsPoly) {
        let ctx = &self.ctx;
        let nl = ksk.num_limbs;
        let k = ksk.k;
        let ext = nl + k;
        let n = ctx.n();
        let ndigits = ksk.digits.len();
        // The lazy accumulators take one u128 product per digit with
        // no intermediate flush; headroom is ~2^8 for 60-bit primes,
        // far above any ⌈L/ω⌉.
        assert!(
            ndigits <= ctx.lazy_acc_headroom_ext(nl, k),
            "digit count exceeds lazy accumulator headroom"
        );

        let mut d2c = p.clone();
        d2c.to_coeff();

        // Step 1: per-limb digit scaling (the in-group inverse CRT
        // factors), limb-parallel.
        let mut y = crate::pool::acquire(nl * n);
        let mut inv_by_limb = vec![(0u64, 0u64); nl];
        for d in &ksk.digits {
            inv_by_limb[d.start..d.end].copy_from_slice(&d.inv_qhat[..d.end - d.start]);
        }
        crate::par::for_each_chunk_mut(&mut y, n, |i, dst| {
            let arith = ctx.arith(i);
            let (inv, shoup) = inv_by_limb[i];
            for (out, &x) in dst.iter_mut().zip(d2c.limb(i)) {
                *out = arith.mul_shoup(x, inv, shoup);
            }
        });

        // Steps 2–3, parallel over extended-basis target limbs. Each
        // task owns limb `t` of both accumulators and its own raised
        // scratch.
        let mut lazy0 = crate::pool::acquire_wide_zeroed(ext * n);
        let mut lazy1 = crate::pool::acquire_wide_zeroed(ext * n);
        let mut acc0 = crate::pool::acquire(ext * n);
        let mut acc1 = crate::pool::acquire(ext * n);
        {
            let lazy0_base = lazy0.as_mut_ptr() as usize;
            let lazy1_base = lazy1.as_mut_ptr() as usize;
            let acc0_base = acc0.as_mut_ptr() as usize;
            let acc1_base = acc1.as_mut_ptr() as usize;
            let y = &y[..];
            crate::par::run(ext, |t| {
                // SAFETY: tasks receive distinct `t`, so the limb
                // slices are disjoint; the buffers outlive the `run`
                // call, which blocks until all tasks finish.
                let (l0, l1, a0, a1) = unsafe {
                    (
                        std::slice::from_raw_parts_mut((lazy0_base as *mut u128).add(t * n), n),
                        std::slice::from_raw_parts_mut((lazy1_base as *mut u128).add(t * n), n),
                        std::slice::from_raw_parts_mut((acc0_base as *mut u64).add(t * n), n),
                        std::slice::from_raw_parts_mut((acc1_base as *mut u64).add(t * n), n),
                    )
                };
                let arith = ctx.ext_arith(nl, t);
                let table = ctx.ext_ntt(nl, t);
                let mut raised = crate::pool::acquire(n);
                for digit in &ksk.digits {
                    let group = digit.end - digit.start;
                    if t >= digit.start && t < digit.end {
                        // In-group target: the lifted digit's residue
                        // mod q_t is exactly the input residue.
                        raised.copy_from_slice(d2c.limb(t));
                    } else {
                        let qh = &digit.qhat[t * group..t * group + group];
                        for (c, out) in raised.iter_mut().enumerate() {
                            // ω ≤ 8 terms of < 2^124 each: fits u128.
                            let mut sum = 0u128;
                            for (i, &w) in qh.iter().enumerate() {
                                sum += y[(digit.start + i) * n + c] as u128 * w as u128;
                            }
                            *out = arith.reduce_u128(sum);
                        }
                    }
                    table.forward(&mut raised);
                    let bt = &digit.b[t * n..(t + 1) * n];
                    let at = &digit.a[t * n..(t + 1) * n];
                    for c in 0..n {
                        l0[c] += raised[c] as u128 * bt[c] as u128;
                        l1[c] += raised[c] as u128 * at[c] as u128;
                    }
                }
                crate::pool::release(raised);
                for c in 0..n {
                    a0[c] = arith.reduce_u128(l0[c]);
                    a1[c] = arith.reduce_u128(l1[c]);
                }
            });
        }
        crate::pool::release_wide(lazy0);
        crate::pool::release_wide(lazy1);
        crate::pool::release(y);
        drop(d2c);

        // Step 4: scale both accumulators down by P.
        let k0 = self.hybrid_mod_down(&mut acc0, ksk);
        let k1 = self.hybrid_mod_down(&mut acc1, ksk);
        crate::pool::release(acc0);
        crate::pool::release(acc1);
        (k0, k1)
    }

    /// Divides an extended-basis accumulator (NTT form, flat
    /// limb-major, `(nl + k)·n` entries) by the special modulus `P`,
    /// returning the chain-basis result. Approximate fast base
    /// conversion: per-coefficient error at most `k`, negligible
    /// against the noise floor. Consumes the special limbs of `acc`
    /// as scratch.
    fn hybrid_mod_down(&self, acc: &mut [u64], ksk: &crate::keys::HybridKsk) -> RnsPoly {
        let ctx = &self.ctx;
        let nl = ksk.num_limbs;
        let k = ksk.k;
        let n = ctx.n();
        let (chain_acc, sp) = acc.split_at_mut(nl * n);
        // Special limbs → coefficient domain, scaled by
        // [(P/p_l)^{-1}]_{p_l}; limb-parallel, in place.
        crate::par::for_each_chunk_mut(sp, n, |l, limb| {
            ctx.ntt_special(l).inverse(limb);
            let arith = ctx.arith_special(l);
            let (inv, shoup) = ksk.inv_phat[l];
            for v in limb.iter_mut() {
                *v = arith.mul_shoup(*v, inv, shoup);
            }
        });
        let sp = &sp[..];
        let chain_acc = &chain_acc[..];
        let mut out = RnsPoly::uninit(ctx, nl, true);
        crate::par::for_each_chunk_mut(out.data_mut(), n, |t, dst| {
            let arith = ctx.arith(t);
            let (p_inv, p_inv_shoup) = ksk.p_inv[t];
            let mut corr = crate::pool::acquire(n);
            for (c, out_c) in corr.iter_mut().enumerate() {
                // k ≤ 8 terms: fits u128 without intermediate reduce.
                let mut sum = 0u128;
                for l in 0..k {
                    sum += sp[l * n + c] as u128 * ksk.phat[t * k + l] as u128;
                }
                *out_c = arith.reduce_u128(sum);
            }
            ctx.ntt(t).forward(&mut corr);
            for c in 0..n {
                let diff = arith.sub(chain_acc[t * n + c], corr[c]);
                dst[c] = arith.mul_shoup(diff, p_inv, p_inv_shoup);
            }
            crate::pool::release(corr);
        });
        out
    }

    /// Rescales a ciphertext: divides by the last prime and drops it.
    ///
    /// # Panics
    ///
    /// Panics if only one limb remains.
    pub fn rescale(&self, ct: &mut Ciphertext) {
        let q_last = self.ctx.primes()[ct.num_limbs() - 1];
        ct.c0.rescale();
        ct.c1.rescale();
        ct.scale /= q_last as f64;
    }
}

impl KeyChain {
    /// Internal secret-key accessor for the evaluator.
    pub(crate) fn secret_key_internal(&self) -> &RnsPoly {
        &self.secret_key().s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CkksParams;

    fn setup(seed: u64) -> (Evaluator, Rng64) {
        let ctx = CkksParams::toy().build();
        let mut rng = Rng64::new(seed);
        let keys = KeyChain::generate(&ctx, &mut rng);
        (Evaluator::new(&keys), rng)
    }

    /// The key-switch identity, checked against the secret key rather
    /// than against another key-switch implementation: for any `p` at
    /// `L` limbs, `key_switch_with(p, key)` returns `(k0, k1)` with
    /// `k0 + k1·s − p·s'` centered-small in every chain limb, for
    /// `s' = s²` (relin keys) and `s' = φ_g(s)` (Galois keys).
    ///
    /// Bound. Let `D = ⌈L/ω⌉` be the digit count, `k = min(ω, L)` the
    /// special primes in use with product `P`, `Q_j` the digit moduli
    /// (each a product of at most `k` chain primes) and `B_e` the
    /// keygen error bound. A raised digit `c̃_j = Σ_i y_i·(Q_j/q_i)`
    /// has coefficients in `[0, k·Q_j)`, and the key relation
    /// `b_j + a_j·s = e_j + P·G_j·s'` (with `Σ_j c̃_j·G_j ≡ p mod Q`)
    /// gives `acc0 + acc1·s ≡ P·p·s' + Σ_j c̃_j·e_j (mod Q·P)`, where
    /// `‖Σ_j c̃_j·e_j‖∞ ≤ D·n·k·max_j Q_j·B_e` (a negacyclic product
    /// sums `n` terms). The mod-down's fast base conversion replaces
    /// `acc mod P` by a representative `x ∈ [0, k·P)`, adding at most
    /// `k·P + n·k·P` (through `x1·s`, `s` ternary). Dividing by `P`
    /// (exact, since the total is far below `Q·P/2`):
    ///
    /// `‖k0 + k1·s − p·s'‖∞ ≤ D·n·k·B_e·(max_j Q_j / P) + (n + 1)·k`.
    ///
    /// `B_e` comes from the sampler: Box–Muller clamps its uniform draw
    /// at `1e-300`, so `|g| ≤ √(−2·ln 1e-300)` and a rounded error is
    /// at most `⌈σ·√(−2·ln 1e-300)⌉` (120 at σ = 3.2).
    #[test]
    fn key_switch_satisfies_gadget_identity() {
        for omega in [1usize, 3, 8] {
            let ctx = CkksParams {
                ks_digit_limbs: omega,
                ..CkksParams::toy()
            }
            .build();
            let n = ctx.n();
            let b_e = (ctx.sigma() * (-2.0 * 1e-300f64.ln()).sqrt()).ceil();
            let mut rng = Rng64::new(60 + omega as u64);
            let keys = KeyChain::generate(&ctx, &mut rng);
            let ev = Evaluator::new(&keys);
            for nl in [1usize, 2, 5, 9, 13] {
                let k = omega.min(nl);
                let digits = nl.div_ceil(k);
                let p_mod: f64 = ctx.special_primes()[..k]
                    .iter()
                    .map(|&p| p as f64)
                    .product();
                let q_max = ctx.primes()[..nl]
                    .chunks(k)
                    .map(|g| g.iter().map(|&q| q as f64).product::<f64>())
                    .fold(0.0, f64::max);
                let bound = (digits * n * k) as f64 * b_e * (q_max / p_mod) + ((n + 1) * k) as f64;

                let s = truncate(keys.secret_key_internal(), nl);
                let mut p = RnsPoly::random_uniform(&ctx, nl, &mut rng);
                p.to_ntt();
                let mut switches = vec![("relin", s.mul(&s), keys.relin_key(nl))];
                for g in [5, 2 * n - 1] {
                    let mut s_g = s.automorphism(g);
                    s_g.to_ntt();
                    switches.push(("galois", s_g, keys.galois_key(g, nl)));
                }
                for (kind, s_prime, key) in switches {
                    let (k0, k1) = ev.key_switch_with(&p, &key);
                    let mut resid = k0.add(&k1.mul(&s)).sub(&p.mul(&s_prime));
                    resid.to_coeff();
                    for (t, &q) in ctx.primes()[..nl].iter().enumerate() {
                        for (c, &r) in resid.limb(t).iter().enumerate() {
                            let centered = if r > q / 2 {
                                r as i128 - q as i128
                            } else {
                                r as i128
                            };
                            assert!(
                                centered.abs() as f64 <= bound,
                                "ω={omega} L={nl} {kind} limb {t} coeff {c}: \
                                 {centered} exceeds {bound}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let (ev, mut rng) = setup(1);
        let vals: Vec<f64> = (0..32).map(|i| (i as f64 - 16.0) / 10.0).collect();
        let ct = ev.encrypt_values(&vals, &mut rng);
        let out = ev.decrypt_values(&ct, 32);
        for (a, b) in vals.iter().zip(&out) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn homomorphic_add() {
        let (ev, mut rng) = setup(2);
        let a: Vec<f64> = (0..16).map(|i| i as f64 / 8.0).collect();
        let b: Vec<f64> = (0..16).map(|i| 1.0 - i as f64 / 16.0).collect();
        let ca = ev.encrypt_values(&a, &mut rng);
        let cb = ev.encrypt_values(&b, &mut rng);
        let out = ev.decrypt_values(&ev.add(&ca, &cb), 16);
        for i in 0..16 {
            assert!((out[i] - (a[i] + b[i])).abs() < 1e-3);
        }
    }

    #[test]
    fn homomorphic_sub_and_plain_add() {
        let (ev, mut rng) = setup(3);
        let a = vec![0.5, -0.25, 1.0];
        let b = vec![0.1, 0.2, 0.3];
        let ca = ev.encrypt_values(&a, &mut rng);
        let cb = ev.encrypt_values(&b, &mut rng);
        let diff = ev.decrypt_values(&ev.sub(&ca, &cb), 3);
        for i in 0..3 {
            assert!((diff[i] - (a[i] - b[i])).abs() < 1e-3);
        }
        let pt = ev
            .encoder()
            .encode(&b, ev.context().scale(), ca.num_limbs());
        let sum = ev.decrypt_values(&ev.add_plain(&ca, &pt), 3);
        for i in 0..3 {
            assert!((sum[i] - (a[i] + b[i])).abs() < 1e-3);
        }
    }

    #[test]
    fn homomorphic_mul_with_relin_and_rescale() {
        let (ev, mut rng) = setup(4);
        let a: Vec<f64> = (0..16).map(|i| (i as f64 - 8.0) / 8.0).collect();
        let b: Vec<f64> = (0..16).map(|i| (16.0 - i as f64) / 16.0).collect();
        let ca = ev.encrypt_values(&a, &mut rng);
        let cb = ev.encrypt_values(&b, &mut rng);
        let mut prod = ev.mul(&ca, &cb);
        ev.rescale(&mut prod);
        assert_eq!(prod.num_limbs(), ca.num_limbs() - 1);
        let out = ev.decrypt_values(&prod, 16);
        for i in 0..16 {
            assert!(
                (out[i] - a[i] * b[i]).abs() < 1e-2,
                "slot {i}: {} vs {}",
                out[i],
                a[i] * b[i]
            );
        }
    }

    #[test]
    fn square_matches_mul() {
        let (ev, mut rng) = setup(5);
        let a: Vec<f64> = (0..8).map(|i| (i as f64 - 4.0) / 4.0).collect();
        let ca = ev.encrypt_values(&a, &mut rng);
        let mut sq = ev.square(&ca);
        ev.rescale(&mut sq);
        let out = ev.decrypt_values(&sq, 8);
        for i in 0..8 {
            assert!((out[i] - a[i] * a[i]).abs() < 1e-2);
        }
    }

    #[test]
    fn mul_const_scales_slots() {
        let (ev, mut rng) = setup(6);
        let a = vec![0.5, -1.0, 0.25];
        let ca = ev.encrypt_values(&a, &mut rng);
        let out = ev.decrypt_values(&ev.mul_const(&ca, -2.0), 3);
        for i in 0..3 {
            assert!((out[i] + 2.0 * a[i]).abs() < 1e-3, "{}", out[i]);
        }
    }

    #[test]
    fn depth_chain_powers() {
        // Repeated squaring down the whole chain: x^(2^k).
        let (ev, mut rng) = setup(7);
        let x = 0.9f64;
        let mut ct = ev.encrypt_values(&[x], &mut rng);
        let mut expect = x;
        let levels = ct.level();
        for _ in 0..levels.min(4) {
            ct = ev.square(&ct);
            ev.rescale(&mut ct);
            expect *= expect;
            let got = ev.decrypt_values(&ct, 1)[0];
            assert!(
                (got - expect).abs() < 2e-2,
                "after squaring: {got} vs {expect}"
            );
        }
    }

    #[test]
    fn drop_to_preserves_value() {
        let (ev, mut rng) = setup(8);
        let a = vec![0.7, -0.3];
        let mut ca = ev.encrypt_values(&a, &mut rng);
        ca.drop_to(2);
        let out = ev.decrypt_values(&ca, 2);
        assert!((out[0] - 0.7).abs() < 1e-3);
        assert!((out[1] + 0.3).abs() < 1e-3);
    }

    #[test]
    fn warm_mul_rescale_pipeline_allocates_nothing() {
        // The perf contract behind the buffer pool: after one warm-up
        // iteration, the steady-state ct_mult → relinearize → rescale
        // pipeline (including the wide lazy key-switch accumulators)
        // runs entirely off the thread-local free lists. Pinned at an
        // intra-op budget of 1: with workers, which thread serves
        // which limb varies run to run, so per-thread pool warm-up is
        // not deterministic (the pools still converge, just not in a
        // fixed iteration count).
        crate::par::with_thread_budget(1, || {
            let (ev, mut rng) = setup(55);
            let ct = ev.encrypt_values(&[0.4, -0.2], &mut rng);
            let pipeline = || {
                let mut p = ev.mul(&ct, &ct);
                ev.rescale(&mut p);
                p
            };
            // Warm-up: builds the relin key digit decomposition
            // buffers and seeds the pool with every buffer shape the
            // pipeline needs.
            for _ in 0..2 {
                std::hint::black_box(pipeline());
            }
            crate::pool::reset_stats();
            for _ in 0..4 {
                std::hint::black_box(pipeline());
            }
            let stats = crate::pool::stats();
            assert_eq!(
                stats.fresh_allocs, 0,
                "steady-state mul+rescale must not hit the allocator: {stats:?}"
            );
            assert!(stats.reuses > 0, "pipeline must actually use the pool");
            assert_eq!(stats.dropped, 0, "free list churn must stay bounded");
        });
    }

    #[test]
    #[should_panic(expected = "scale mismatch")]
    fn add_rejects_wild_scale_mismatch() {
        let (ev, mut rng) = setup(9);
        let ca = ev.encrypt_values(&[0.5], &mut rng);
        let mut cb = ev.encrypt_values(&[0.5], &mut rng);
        cb.scale *= 2.0;
        let _ = ev.add(&ca, &cb);
    }
}
