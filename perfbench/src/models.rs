//! The benchmark's models, their exact-activation plaintext twins, and
//! the seeded request inputs.

use smartpaf::{Objective, Session, SessionBuilder};
use smartpaf_ckks::CkksParams;
use smartpaf_nn::{Conv2d, Flatten, Layer, Linear, MaxPoolSlot, Mode, ReluSlot, Sequential};
use smartpaf_tensor::{Rng64, Tensor};

/// Fidelity drop the MinLatency planner may trade for speed.
pub const MAX_ACC_DROP: f64 = 0.3;

/// Which network a workload serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// `[1,8,8]` → conv 1→2 3×3 → ReLU(6) → 2×2 maxpool(8) → flatten
    /// → linear 32→10.
    ConvPoolHead,
    /// linear 8→8 → ReLU(8) → linear 8→8 → ReLU(8).
    Mlp,
}

impl Model {
    /// Logical input length.
    pub fn input_len(self) -> usize {
        match self {
            Model::ConvPoolHead => 64,
            Model::Mlp => 8,
        }
    }

    /// Session builder with weights drawn from `weights`, planned
    /// MinLatency at N = 4096.
    pub fn builder(self, weights: u64) -> SessionBuilder {
        let mut rng = Rng64::new(weights);
        let b = match self {
            Model::ConvPoolHead => Session::builder(&[1, 8, 8])
                .affine(Conv2d::new(1, 2, 3, 1, 1, &mut rng))
                .relu(6.0)
                .maxpool(2, 2, 8.0)
                .affine(Flatten::new())
                .affine(Linear::new(32, 10, &mut rng)),
            Model::Mlp => Session::builder(&[8])
                .affine(Linear::new(8, 8, &mut rng))
                .relu(8.0)
                .affine(Linear::new(8, 8, &mut rng))
                .relu(8.0),
        };
        b.params(CkksParams::default_params())
            .objective(Objective::MinLatency {
                max_acc_drop: MAX_ACC_DROP,
            })
            .seed(weights)
    }

    /// The same weights with exact ReLU and MaxPool, in plaintext.
    pub fn exact(self, weights: u64) -> ExactModel {
        let mut rng = Rng64::new(weights);
        let (net, dims) = match self {
            Model::ConvPoolHead => (
                Sequential::new("exact-conv-pool")
                    .push(Conv2d::new(1, 2, 3, 1, 1, &mut rng))
                    .push(ReluSlot::new(0))
                    .push(MaxPoolSlot::new(1, 2, 2))
                    .push(Flatten::new())
                    .push(Linear::new(32, 10, &mut rng)),
                vec![1, 1, 8, 8],
            ),
            Model::Mlp => (
                Sequential::new("exact-mlp")
                    .push(Linear::new(8, 8, &mut rng))
                    .push(ReluSlot::new(0))
                    .push(Linear::new(8, 8, &mut rng))
                    .push(ReluSlot::new(1)),
                vec![1, 8],
            ),
        };
        ExactModel { net, dims }
    }
}

/// A plaintext network with exact activations.
pub struct ExactModel {
    net: Sequential,
    dims: Vec<usize>,
}

impl ExactModel {
    /// Forward pass of one input.
    pub fn forward(&mut self, x: &[f64]) -> Vec<f64> {
        let t = Tensor::from_vec(x.iter().map(|&v| v as f32).collect(), &self.dims);
        let y = self.net.forward(&t, Mode::Eval);
        y.data().iter().map(|&v| f64::from(v)).collect()
    }
}

/// Request `index` of a run seeded `seed`: uniform in `[-1, 1)`.
pub fn request_input(seed: u64, index: u64, len: usize) -> Vec<f64> {
    let mut rng = Rng64::new(seed).fork(index);
    (0..len).map(|_| 2.0 * rng.next_f64() - 1.0).collect()
}
