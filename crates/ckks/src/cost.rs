//! Analytic cost model for leveled PAF evaluation.
//!
//! Counts the primitive ring operations a PAF-ReLU consumes at given
//! parameters, without executing them. Used to sanity-check measured
//! latencies and to project costs at the paper's N = 32768 scale
//! without running it.

use crate::params::CkksParams;
use smartpaf_polyfit::{CompositePaf, OddPowerSchedule};

/// Primitive-operation counts for one encrypted PAF-ReLU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpCounts {
    /// Ciphertext-ciphertext multiplications (each includes a
    /// relinearisation).
    pub ct_mults: usize,
    /// Plaintext-constant multiplications.
    pub const_mults: usize,
    /// Rescale operations.
    pub rescales: usize,
    /// Number-theoretic transforms across all limbs (the dominant
    /// kernel).
    pub ntts: usize,
    /// 64-bit modular multiply-accumulate operations (≈ total work).
    pub modmuls: u128,
}

/// Digit size of the hybrid gadget at `limbs` limbs: ω clamped to the
/// chain length.
fn omega_at(params: &CkksParams, limbs: usize) -> usize {
    params.ks_digit_limbs.min(limbs).max(1)
}

/// Digit count of the hybrid gadget at `limbs` limbs: ⌈limbs/ω⌉ with
/// ω clamped to the chain length.
pub fn hybrid_digits(params: &CkksParams, limbs: usize) -> usize {
    limbs.div_ceil(omega_at(params, limbs))
}

/// NTT passes consumed by one key switch at `limbs` limbs: `limbs`
/// inverse NTTs of the input, one forward NTT per (digit,
/// extended-basis limb) of the raised decomposition, then the mod-down
/// round trip — per accumulator component, `k` inverse NTTs of the
/// special limbs plus `limbs` forward NTTs of the correction.
pub fn key_switch_ntts(params: &CkksParams, limbs: usize) -> usize {
    let k = omega_at(params, limbs);
    let ext = limbs + k;
    limbs + hybrid_digits(params, limbs) * ext + 2 * (k + limbs)
}

/// Modular multiplies of one key switch at `limbs` limbs (the
/// relinearisation/rotation core, excluding the tensor product or
/// automorphism around it).
///
/// Exact counts for the implemented kernel: the NTT passes above at n
/// mults each, plus per-coefficient work — Shoup scaling by
/// (Q_j/q_i)^-1 (`limbs`·n), the raised accumulation Σ yᵢ·(Q_j/q_i)
/// into the out-of-group extended limbs (`digits·(ext−ω)·ω`·n), the
/// lazy inner products against both key components (`2·digits·ext`·n),
/// and the mod-down by P (`2·(k + limbs·k + limbs)`·n).
pub fn key_switch_modmuls(params: &CkksParams, limbs: usize) -> u128 {
    let omega = omega_at(params, limbs);
    let k = omega;
    let ext = limbs + k;
    let digits = hybrid_digits(params, limbs);
    let ntts = key_switch_ntts(params, limbs) as u128;
    let scale = limbs as u128;
    let raise = (digits * (ext - omega) * omega) as u128;
    let accumulate = 2 * (digits * ext) as u128;
    let mod_down = 2 * (k + limbs * k + limbs) as u128;
    (ntts + scale + raise + accumulate + mod_down) * params.n as u128
}

/// Work of one ciphertext-ciphertext multiply + relinearisation at
/// `limbs` limbs, in 64-bit modular multiplies: 4 limb-wise ring mults
/// for the tensor product plus the gadget key switch of the degree-2
/// component.
pub fn ct_mult_modmuls(params: &CkksParams, limbs: usize) -> u128 {
    4 * (limbs as u128) * (params.n as u128) + key_switch_modmuls(params, limbs)
}

/// Work of one rescale leaving `limbs` limbs, in modular multiplies
/// (iNTT + NTT per remaining limb plus the division pass).
pub fn rescale_modmuls(params: &CkksParams, limbs: usize) -> u128 {
    (limbs as u128) * (params.n as u128) * 3
}

/// Work of one plaintext-constant multiply at `limbs` limbs, in
/// modular multiplies.
pub fn const_mult_modmuls(params: &CkksParams, limbs: usize) -> u128 {
    (limbs as u128) * (params.n as u128)
}

/// Counts the operations of one PAF-ReLU at the given parameters.
///
/// Mirrors the `PafEvaluator` schedule: per stage, an even-power
/// ladder by squaring plus one (const-mult + bit-product chain) per
/// non-zero odd term; then one ct-mult and one const-mult for the ReLU
/// construction.
pub fn relu_op_counts(params: &CkksParams, paf: &CompositePaf) -> OpCounts {
    let mut level = params.depth + 1; // limbs at the current point
    let mut c = OpCounts {
        ct_mults: 0,
        const_mults: 0,
        rescales: 0,
        ntts: 0,
        modmuls: 0,
    };
    let add_ct_mult = |c: &mut OpCounts, limbs: usize| {
        c.ct_mults += 1;
        c.ntts += key_switch_ntts(params, limbs);
        c.modmuls += ct_mult_modmuls(params, limbs);
    };
    let add_rescale = |c: &mut OpCounts, limbs: usize| {
        c.rescales += 1;
        c.ntts += 2 * limbs;
        c.modmuls += rescale_modmuls(params, limbs);
    };
    let add_const = |c: &mut OpCounts, limbs: usize| {
        c.const_mults += 1;
        c.modmuls += const_mult_modmuls(params, limbs);
    };

    for stage in paf.stages() {
        // Same schedule object the PafEvaluator executes.
        let sched = OddPowerSchedule::new(stage);
        let odd = sched.odd_coeffs();
        if sched.k_max() == 0 {
            add_const(&mut c, level);
            add_rescale(&mut c, level - 1);
            level -= 1;
            continue;
        }
        let bits = sched.ladder_bits();
        // Ladder squarings.
        for j in 0..bits {
            let limbs = level - j as usize;
            add_ct_mult(&mut c, limbs);
            add_rescale(&mut c, limbs - 1);
        }
        // Terms.
        for (k, &a) in odd.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            add_const(&mut c, level);
            add_rescale(&mut c, level - 1);
            let mut cur = level - 1;
            for j in 0..bits {
                if (k >> j) & 1 == 1 {
                    add_ct_mult(&mut c, cur);
                    add_rescale(&mut c, cur - 1);
                    cur -= 1;
                }
            }
        }
        level -= bits as usize;
    }
    // ReLU construction: x * half_sign + 0.5x.
    add_ct_mult(&mut c, level);
    add_rescale(&mut c, level - 1);
    add_const(&mut c, level);
    add_rescale(&mut c, level - 1);
    c
}

/// Projects the runtime of `counts` given a measured per-modmul cost
/// (seconds), the simplest useful calibration.
pub fn project_seconds(counts: &OpCounts, seconds_per_modmul: f64) -> f64 {
    counts.modmuls as f64 * seconds_per_modmul
}

/// Work of one slot rotation (Galois automorphism + key switch) at the
/// given limb count, in 64-bit modular multiplies.
///
/// A rotation costs the same key-switch as a relinearisation plus the
/// automorphism permutation, and consumes no level: c0's automorphism
/// round trip is charged here, and the key switch of c1 already prices
/// its own NTT passes.
pub fn rotation_modmuls(params: &CkksParams, limbs: usize) -> u128 {
    2 * (limbs as u128) * (params.n as u128) + key_switch_modmuls(params, limbs)
}

/// Work of one Halevi–Shoup matrix–vector product with `diagonals`
/// nonzero diagonals using the baby-step/giant-step schedule, in
/// modular multiplies.
pub fn matvec_bsgs_modmuls(
    params: &CkksParams,
    dim: usize,
    diagonals: usize,
    limbs: usize,
) -> u128 {
    let n = params.n as u128;
    let g1 = (dim as f64).sqrt().ceil() as usize;
    let g2 = dim.div_ceil(g1);
    let rotations = (g1.min(diagonals).saturating_sub(1) + g2.min(diagonals)) as u128;
    let plain_mults = diagonals as u128 * (limbs as u128) * n;
    rotations * rotation_modmuls(params, limbs) + plain_mults
}

/// Modeled cost of one simulated bootstrap, in modular multiplies.
///
/// Calibrated to the published CKKS bootstrapping structure: roughly
/// `slots`-dependent homomorphic encode/decode (CoeffToSlot/SlotToCoeff,
/// ~2·log2(slots) rotations each at full level) plus an EvalMod sine
/// approximation of multiplicative depth ~10. This makes the
/// leveled-vs-bootstrapped trade-off in the latency model concrete: at
/// default parameters one bootstrap costs as much as several 27-degree
/// PAF evaluations, which is why the paper's low-degree PAFs avoid it.
pub fn bootstrap_modmuls(params: &CkksParams) -> u128 {
    let full = params.depth + 1;
    let slots = (params.n / 2) as u128;
    let log_slots = 128 - slots.leading_zeros() as u128;
    let linear_rotations = 4 * log_slots; // CoeffToSlot + SlotToCoeff
    let rot = rotation_modmuls(params, full);
    // EvalMod: a depth-10 odd polynomial ≈ 14 ct-mults at full level.
    let ct_mult = ct_mult_modmuls(params, full);
    linear_rotations * rot + 14 * ct_mult
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartpaf_polyfit::PafForm;

    #[test]
    fn deeper_paf_costs_more() {
        let params = CkksParams::default_params();
        let cheap = relu_op_counts(&params, &CompositePaf::from_form(PafForm::F1G2));
        let rich = relu_op_counts(&params, &CompositePaf::from_form(PafForm::MinimaxDeg27));
        assert!(rich.ct_mults > cheap.ct_mults);
        assert!(rich.modmuls > cheap.modmuls);
        assert!(rich.rescales > cheap.rescales);
    }

    #[test]
    fn rescale_count_matches_depth() {
        // Every level consumed corresponds to exactly one rescale of
        // the main operand; ladder/term bookkeeping adds more, but the
        // total must be at least the ReLU depth.
        let params = CkksParams::default_params();
        for form in PafForm::all() {
            let paf = CompositePaf::from_form(form);
            let c = relu_op_counts(&params, &paf);
            assert!(
                c.rescales > paf.mult_depth(),
                "{form}: {} rescales",
                c.rescales
            );
        }
    }

    #[test]
    fn larger_ring_scales_work_linearly() {
        let small = CkksParams {
            n: 4096,
            ..CkksParams::default_params()
        };
        let big = CkksParams {
            n: 8192,
            ..CkksParams::default_params()
        };
        let paf = CompositePaf::from_form(PafForm::Alpha7);
        let a = relu_op_counts(&small, &paf);
        let b = relu_op_counts(&big, &paf);
        assert_eq!(a.ct_mults, b.ct_mults);
        assert_eq!(b.modmuls, a.modmuls * 2);
    }

    #[test]
    fn rotation_cheaper_than_bootstrap() {
        let params = CkksParams::default_params();
        let rot = rotation_modmuls(&params, params.depth + 1);
        let bs = bootstrap_modmuls(&params);
        assert!(bs > 20 * rot, "bootstrap {bs} vs rotation {rot}");
    }

    #[test]
    fn bootstrap_dwarfs_low_degree_paf() {
        // The quantitative version of the paper's motivation: a
        // bootstrap costs more than an entire low-degree PAF-ReLU.
        let params = CkksParams::default_params();
        let paf = relu_op_counts(&params, &CompositePaf::from_form(PafForm::F1G2));
        assert!(bootstrap_modmuls(&params) > paf.modmuls);
    }

    #[test]
    fn bsgs_beats_naive_rotation_count_model() {
        // For a dense 64-dim matrix, BSGS work is well below 64 naive
        // rotations + mults.
        let params = CkksParams::default_params();
        let limbs = 8;
        let dense = matvec_bsgs_modmuls(&params, 64, 64, limbs);
        let naive = 64 * rotation_modmuls(&params, limbs) + 64 * (limbs as u128) * params.n as u128;
        assert!(dense < naive, "bsgs {dense} vs naive {naive}");
    }

    #[test]
    fn sparse_matvec_cheaper_than_dense() {
        let params = CkksParams::default_params();
        let sparse = matvec_bsgs_modmuls(&params, 64, 4, 8);
        let dense = matvec_bsgs_modmuls(&params, 64, 64, 8);
        assert!(sparse < dense);
    }

    #[test]
    fn primitive_helpers_compose_into_relu_counts() {
        // The public per-op helpers must stay the building blocks of
        // the full ReLU model: a hand-assembled degree-1 stage
        // (const mult + rescale, then the ReLU ct-mult + const + two
        // rescales) reproduces `relu_op_counts` exactly.
        let params = CkksParams::default_params();
        let paf = CompositePaf::new(vec![smartpaf_polyfit::Polynomial::from_odd(&[2.0])]);
        let c = relu_op_counts(&params, &paf);
        let top = params.depth + 1;
        let want = const_mult_modmuls(&params, top)
            + rescale_modmuls(&params, top - 1)
            + ct_mult_modmuls(&params, top - 1)
            + rescale_modmuls(&params, top - 2)
            + const_mult_modmuls(&params, top - 1)
            + rescale_modmuls(&params, top - 2);
        assert_eq!(c.modmuls, want);
        assert!(ct_mult_modmuls(&params, 8) > const_mult_modmuls(&params, 8));
    }

    #[test]
    fn key_switch_prices_are_pinned() {
        // Exact values at the default preset (N = 4096, ω = 3), so the
        // planner's prices provably do not move under a refactor.
        let params = CkksParams::default_params();
        assert_eq!(params.ks_digit_limbs, 3);
        for (limbs, ntts, key_switch, rotation, ct_mult) in [
            (1usize, 7usize, 77_824u128, 86_016u128, 94_208u128),
            (5, 37, 614_400, 655_360, 696_320),
            (13, 125, 2_469_888, 2_576_384, 2_682_880),
        ] {
            assert_eq!(key_switch_ntts(&params, limbs), ntts, "{limbs} limbs");
            assert_eq!(
                key_switch_modmuls(&params, limbs),
                key_switch,
                "{limbs} limbs"
            );
            assert_eq!(rotation_modmuls(&params, limbs), rotation, "{limbs} limbs");
            assert_eq!(ct_mult_modmuls(&params, limbs), ct_mult, "{limbs} limbs");
        }
        assert_eq!(hybrid_digits(&params, params.depth + 1), 5);
    }

    #[test]
    fn hybrid_digit_count_clamps_to_chain() {
        let params = CkksParams::default_params();
        assert_eq!(hybrid_digits(&params, 1), 1);
        assert_eq!(hybrid_digits(&params, 2), 1);
        assert_eq!(hybrid_digits(&params, 3), 1);
        assert_eq!(hybrid_digits(&params, 4), 2);
        // Cost stays monotone in the chain length.
        let mut prev = 0u128;
        for limbs in 1..=params.depth + 1 {
            let c = ct_mult_modmuls(&params, limbs);
            assert!(c > prev);
            prev = c;
        }
    }

    #[test]
    fn projection_is_linear() {
        let params = CkksParams::default_params();
        let c = relu_op_counts(&params, &CompositePaf::from_form(PafForm::F2G2));
        let t1 = project_seconds(&c, 1e-9);
        let t2 = project_seconds(&c, 2e-9);
        assert!((t2 - 2.0 * t1).abs() < 1e-12);
    }
}
