//! Timing from outside the stage interpreter and the CKKS kernels.
//!
//! [`TimedBackend`] wraps `heinfer::CkksBackend`: it times every
//! `affine` / `paf_relu` / `paf_max` call and forwards `level_of` and
//! `bootstraps` unchanged, so `HePipeline::run` measures per-stage
//! levels and bootstraps exactly as it does for the plain backend.
//! [`kernel_probe`] times single public `ckks` calls at the workload's
//! parameters.

use crate::stats::median;
use smartpaf_ckks::galois::rotation_element;
use smartpaf_ckks::{Bootstrapper, Ciphertext, DiagMatrix, Evaluator, KeyChain, PafEvaluator};
use smartpaf_heinfer::{CkksBackend, HePipeline, InferenceBackend, PafOp, RunError};
use smartpaf_tensor::Rng64;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One timed stage call.
#[derive(Debug, Clone)]
pub struct StageCall {
    /// `affine`, `paf_relu` or `paf_max`.
    pub kind: &'static str,
    /// Call start.
    pub start: Instant,
    /// Call end.
    pub end: Instant,
    /// Bootstraps the call performed.
    pub bootstraps: usize,
    /// Ciphertext rotations of the call's BSGS matvecs, derived from
    /// the matrices' diagonals.
    pub rotations: usize,
}

/// `CkksBackend` with a stopwatch around every stage.
pub struct TimedBackend<'a> {
    inner: CkksBackend<'a>,
    slots: usize,
    n: usize,
    top_limbs: usize,
    /// Calls in execution order.
    pub calls: Vec<StageCall>,
    /// Distinct `(Galois element, limb count)` keys the matvecs ask for.
    pub galois_keys: BTreeSet<(usize, usize)>,
}

impl<'a> TimedBackend<'a> {
    /// Wraps a fresh `CkksBackend`.
    pub fn new(pe: &'a PafEvaluator, bootstrapper: Option<&'a Bootstrapper>) -> Self {
        let ctx = pe.evaluator().context();
        TimedBackend {
            inner: CkksBackend::new(pe, bootstrapper),
            slots: ctx.slots(),
            n: ctx.n(),
            top_limbs: ctx.primes().len(),
            calls: Vec::new(),
            galois_keys: BTreeSet::new(),
        }
    }

    /// Records the rotation keys of one `matvec_bsgs` on `mat` at
    /// `limbs` limbs (baby steps `d mod g1`, giant steps `k·g1`) and
    /// returns its rotation count.
    fn bsgs_keys(&mut self, mat: &DiagMatrix, limbs: usize) -> usize {
        let m = mat.dim();
        let g1 = (m as f64).sqrt().ceil() as usize;
        let mut steps = BTreeSet::new();
        let mut giant = BTreeSet::new();
        for (d, _) in mat.diagonals() {
            if d % g1 != 0 {
                steps.insert(d % g1);
            }
            if d / g1 > 0 {
                giant.insert((d / g1) * g1);
            }
        }
        let count = steps.len() + giant.len();
        for r in steps.into_iter().chain(giant) {
            let r = r % self.slots;
            if r != 0 {
                self.galois_keys
                    .insert((rotation_element(self.n, r), limbs));
            }
        }
        count
    }

    fn timed(
        &mut self,
        kind: &'static str,
        mats: &[&DiagMatrix],
        limbs_before: usize,
        f: impl FnOnce(&mut CkksBackend<'a>) -> Result<(), RunError>,
    ) -> Result<(), RunError> {
        let b0 = self.inner.bootstraps();
        let start = Instant::now();
        let r = f(&mut self.inner);
        let end = Instant::now();
        let bootstraps = self.inner.bootstraps() - b0;
        // A refresh before the matvecs lifts the input to the top of
        // the chain; key lookups then happen at that limb count.
        let limbs = if bootstraps > 0 {
            self.top_limbs
        } else {
            limbs_before
        };
        let rotations = mats.iter().map(|m| self.bsgs_keys(m, limbs)).sum();
        self.calls.push(StageCall {
            kind,
            start,
            end,
            bootstraps,
            rotations,
        });
        r
    }
}

impl InferenceBackend for TimedBackend<'_> {
    type Value = Ciphertext;

    fn begin(&mut self, pipe: &HePipeline) -> Result<(), RunError> {
        self.inner.begin(pipe)
    }

    fn affine(
        &mut self,
        v: &mut Ciphertext,
        mat: &DiagMatrix,
        bias: &[f64],
        label: &str,
    ) -> Result<(), RunError> {
        let limbs = v.num_limbs();
        self.timed("affine", &[mat], limbs, |b| b.affine(v, mat, bias, label))
    }

    fn paf_relu(
        &mut self,
        v: &mut Ciphertext,
        op: &PafOp<'_>,
        pre_scale: f64,
        post_scale: f64,
        label: &str,
    ) -> Result<(), RunError> {
        let limbs = v.num_limbs();
        self.timed("paf_relu", &[], limbs, |b| {
            b.paf_relu(v, op, pre_scale, post_scale, label)
        })
    }

    fn paf_max(
        &mut self,
        v: &mut Ciphertext,
        taps: &[DiagMatrix],
        op: &PafOp<'_>,
        post_scale: f64,
        label: &str,
    ) -> Result<(), RunError> {
        let limbs = v.num_limbs();
        let mats: Vec<&DiagMatrix> = taps.iter().collect();
        self.timed("paf_max", &mats, limbs, |b| {
            b.paf_max(v, taps, op, post_scale, label)
        })
    }

    fn level_of(&self, v: &Ciphertext) -> Option<usize> {
        self.inner.level_of(v)
    }

    fn bootstraps(&self) -> usize {
        self.inner.bootstraps()
    }
}

/// An evaluator stack of the benchmark's own, on a fresh key chain.
pub struct OwnKeys {
    /// The key chain.
    pub keys: Arc<KeyChain>,
    /// PAF evaluator over the chain.
    pub pe: PafEvaluator,
    /// Refresher at the pipeline's dimension.
    pub bootstrapper: Bootstrapper,
    /// Encryption randomness.
    pub rng: Rng64,
    /// Time `KeyChain::generate` took.
    pub keygen: Duration,
}

impl OwnKeys {
    /// Builds a context from `params`, generates keys, and wraps them.
    pub fn new(params: &smartpaf_ckks::CkksParams, dim: usize, seed: u64) -> Self {
        let ctx = params.build();
        let mut rng = Rng64::new(seed);
        let t = Instant::now();
        let keys = KeyChain::generate(&ctx, &mut rng);
        let keygen = t.elapsed();
        let pe = PafEvaluator::new(Evaluator::new(&keys));
        let bootstrapper = Bootstrapper::new(pe.evaluator().clone(), dim, seed ^ 0xb007);
        OwnKeys {
            keys,
            pe,
            bootstrapper,
            rng,
            keygen,
        }
    }
}

/// Median wall time of single CKKS kernel calls, in milliseconds.
#[derive(Debug, Clone, Default)]
pub struct KernelTimes {
    /// `Evaluator::mul` (tensor product + relinearisation).
    pub mul_relin_ms: f64,
    /// `Evaluator::rescale`.
    pub rescale_ms: f64,
    /// `Evaluator::rotate` with its key cached.
    pub rotate_ms: f64,
    /// `Bootstrapper::refresh`.
    pub refresh_ms: f64,
    /// `Evaluator::encrypt_replicated`.
    pub encrypt_ms: f64,
    /// `Evaluator::decrypt_values`.
    pub decrypt_ms: f64,
    /// `KeyChain::galois_key` for an element not built yet, at the top
    /// of the chain.
    pub galois_keygen_ms: f64,
}

fn time_ms<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = std::hint::black_box(f());
    (r, t.elapsed().as_secs_f64() * 1e3)
}

/// Times `reps` calls of each kernel on top-level ciphertexts of
/// `own`'s chain (`dim`-wide replicated inputs, `out` decrypted slots).
pub fn kernel_probe(own: &mut OwnKeys, dim: usize, out: usize, reps: usize) -> KernelTimes {
    let ev = own.pe.evaluator().clone();
    let x: Vec<f64> = (0..dim).map(|i| (i as f64 / dim as f64) - 0.5).collect();
    let mut enc = Vec::new();
    let mut cts = Vec::new();
    for _ in 0..reps.max(2) {
        let (ct, ms) = time_ms(|| ev.encrypt_replicated(&x, &mut own.rng));
        enc.push(ms);
        cts.push(ct);
    }
    let (a, b) = (&cts[0], &cts[1]);
    let mut mul = Vec::new();
    let mut resc = Vec::new();
    let mut rot = Vec::new();
    let mut refresh = Vec::new();
    let mut dec = Vec::new();
    let mut gk = Vec::new();
    // Warm the relinearisation and step-1 rotation keys first.
    let _ = ev.mul(a, b);
    let _ = ev.rotate(a, 1);
    let n = ev.context().n();
    let top = ev.context().primes().len();
    for i in 0..reps {
        let (mut c, ms) = time_ms(|| ev.mul(a, b));
        mul.push(ms);
        resc.push(time_ms(|| ev.rescale(&mut c)).1);
        rot.push(time_ms(|| ev.rotate(a, 1)).1);
        refresh.push(time_ms(|| own.bootstrapper.refresh(&c)).1);
        dec.push(time_ms(|| ev.decrypt_values(&c, out)).1);
        // A step this chain holds no key for yet (only step 1 is warm).
        let g = rotation_element(n, 2 * i + 3);
        gk.push(time_ms(|| own.keys.galois_key(g, top)).1);
    }
    KernelTimes {
        mul_relin_ms: median(&mul),
        rescale_ms: median(&resc),
        rotate_ms: median(&rot),
        refresh_ms: median(&refresh),
        encrypt_ms: median(&enc),
        decrypt_ms: median(&dec),
        galois_keygen_ms: median(&gk),
    }
}
