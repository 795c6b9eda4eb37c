//! Adam optimizer (Kingma & Ba, 2015).

use crate::mlp::{Gradients, Mlp};

/// Adam optimizer state over an [`Mlp`]'s flattened parameter vector.
///
/// # Examples
///
/// ```
/// use anubis_nn::{Activation, Adam, Mlp};
///
/// let mut mlp = Mlp::new(&[1, 4, 1], Activation::Tanh, 0);
/// let mut adam = Adam::new(&mlp, 1e-2);
/// // One regression step toward y = 2 at x = 1.
/// let cache = mlp.forward_cached(&[1.0]);
/// let err = cache.output()[0] - 2.0;
/// let mut grads = mlp.zero_gradients();
/// mlp.backward(&cache, &[err], &mut grads);
/// adam.step(&mut mlp, &grads);
/// ```
#[derive(Debug, Clone)]
pub struct Adam {
    learning_rate: f64,
    beta1: f64,
    beta2: f64,
    epsilon: f64,
    weight_decay: f64,
    first_moment: Vec<f64>,
    second_moment: Vec<f64>,
    timestep: u64,
}

impl Adam {
    /// Creates an optimizer for `mlp` with the given learning rate and the
    /// standard β₁ = 0.9, β₂ = 0.999 defaults.
    pub fn new(mlp: &Mlp, learning_rate: f64) -> Self {
        Self::with_betas(mlp, learning_rate, 0.9, 0.999)
    }

    /// Creates an optimizer with explicit moment decay rates.
    pub fn with_betas(mlp: &Mlp, learning_rate: f64, beta1: f64, beta2: f64) -> Self {
        let n = mlp.parameter_count();
        Self {
            learning_rate,
            beta1,
            beta2,
            epsilon: 1e-8,
            weight_decay: 0.0,
            first_moment: vec![0.0; n],
            second_moment: vec![0.0; n],
            timestep: 0,
        }
    }

    /// Enables decoupled (AdamW-style) weight decay: each step shrinks
    /// every parameter by `lr × decay` before the gradient update.
    pub fn with_weight_decay(mut self, decay: f64) -> Self {
        self.weight_decay = decay.max(0.0);
        self
    }

    /// Applies one Adam update of `mlp` using accumulated `grads`.
    ///
    /// # Panics
    ///
    /// Panics if `grads` (or this optimizer) was created for a different
    /// architecture.
    pub fn step(&mut self, mlp: &mut Mlp, grads: &Gradients) {
        let flattened: Vec<f64> = Mlp::flatten_gradients(grads).collect();
        self.step_flat(mlp, &flattened);
    }

    /// Applies one Adam update from an already-flattened gradient vector
    /// (canonical order of [`Mlp::flattened_gradients`]). Bit-identical to
    /// [`Adam::step`] on the equivalent [`Gradients`].
    ///
    /// # Panics
    ///
    /// Panics if `flattened` (or this optimizer) was created for a
    /// different architecture.
    pub fn step_flat(&mut self, mlp: &mut Mlp, flattened: &[f64]) {
        assert_eq!(
            flattened.len(),
            self.first_moment.len(),
            "gradient/optimizer shape mismatch"
        );
        self.timestep += 1;
        let t = self.timestep as i32;
        let bias1 = 1.0 - self.beta1.powi(t);
        let bias2 = 1.0 - self.beta2.powi(t);
        let (b1, b2, lr, eps) = (self.beta1, self.beta2, self.learning_rate, self.epsilon);
        let decay = self.weight_decay;
        let (m, v) = (&mut self.first_moment, &mut self.second_moment);
        // Walk the parameters as contiguous per-layer slices zipped with
        // the matching moment/gradient windows: the per-parameter update
        // is op-for-op the one the indexed closure form performed (so
        // results are bit-identical), but the elementwise loop vectorizes
        // (packed sqrt/divide included).
        let mut offset = 0;
        for params in mlp.parameter_slices_mut() {
            let count = params.len();
            let zipped = params
                .iter_mut()
                .zip(&mut m[offset..offset + count])
                .zip(&mut v[offset..offset + count])
                .zip(&flattened[offset..offset + count]);
            for (((value, mi), vi), &g) in zipped {
                *mi = b1 * *mi + (1.0 - b1) * g;
                *vi = b2 * *vi + (1.0 - b2) * g * g;
                let m_hat = *mi / bias1;
                let v_hat = *vi / bias2;
                *value -= lr * decay * *value;
                *value -= lr * m_hat / (v_hat.sqrt() + eps);
            }
            offset += count;
        }
        mlp.refresh_mirrors();
    }

    /// Number of optimizer steps applied so far.
    pub fn timestep(&self) -> u64 {
        self.timestep
    }

    /// The configured learning rate.
    pub fn learning_rate(&self) -> f64 {
        self.learning_rate
    }

    /// Replaces the learning rate (e.g. for decay schedules).
    pub fn set_learning_rate(&mut self, learning_rate: f64) {
        self.learning_rate = learning_rate;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlp::{Activation, Mlp};

    /// Trains y = sin(2x) on a fixed grid and expects the loss to drop by
    /// 10x, exercising forward/backward/step end to end.
    #[test]
    fn regression_converges() {
        let mut mlp = Mlp::new(&[1, 16, 16, 1], Activation::Tanh, 7);
        let mut adam = Adam::new(&mlp, 5e-3);
        let inputs: Vec<f64> = (0..32).map(|i| -1.0 + i as f64 / 16.0).collect();
        let targets: Vec<f64> = inputs.iter().map(|x| (2.0 * x).sin()).collect();

        let loss_of = |mlp: &Mlp| -> f64 {
            inputs
                .iter()
                .zip(&targets)
                .map(|(&x, &t)| {
                    let y = mlp.forward_scalar(&[x]);
                    0.5 * (y - t) * (y - t)
                })
                .sum::<f64>()
                / inputs.len() as f64
        };

        let initial = loss_of(&mlp);
        for _ in 0..500 {
            let mut grads = mlp.zero_gradients();
            for (&x, &t) in inputs.iter().zip(&targets) {
                let cache = mlp.forward_cached(&[x]);
                let err = cache.output()[0] - t;
                mlp.backward(&cache, &[err], &mut grads);
            }
            grads.scale(1.0 / inputs.len() as f64);
            adam.step(&mut mlp, &grads);
        }
        let trained = loss_of(&mlp);
        assert!(
            trained < initial / 10.0,
            "loss must drop 10x: {initial} -> {trained}"
        );
        assert_eq!(adam.timestep(), 500);
    }

    #[test]
    fn step_moves_parameters_against_gradient() {
        let mut mlp = Mlp::new(&[1, 1], Activation::Identity, 0);
        let before = mlp.forward_scalar(&[1.0]);
        let cache = mlp.forward_cached(&[1.0]);
        let mut grads = mlp.zero_gradients();
        // dLoss/dy = +1 (loss increases with output) => output must shrink.
        mlp.backward(&cache, &[1.0], &mut grads);
        let mut adam = Adam::new(&mlp, 0.1);
        adam.step(&mut mlp, &grads);
        let after = mlp.forward_scalar(&[1.0]);
        assert!(after < before, "{after} !< {before}");
    }

    #[test]
    fn weight_decay_shrinks_parameters() {
        let mut mlp = Mlp::new(&[2, 4, 1], Activation::Tanh, 3);
        let before = mlp.forward_scalar(&[1.0, 1.0]).abs();
        let zero_grads = mlp.zero_gradients();
        let mut adam = Adam::new(&mlp, 0.1).with_weight_decay(0.5);
        for _ in 0..50 {
            adam.step(&mut mlp, &zero_grads);
        }
        let after = mlp.forward_scalar(&[1.0, 1.0]).abs();
        assert!(
            after < before * 0.2,
            "decay must shrink the net: {before} -> {after}"
        );
    }

    #[test]
    fn learning_rate_is_adjustable() {
        let mlp = Mlp::new(&[1, 1], Activation::Identity, 0);
        let mut adam = Adam::new(&mlp, 0.1);
        assert_eq!(adam.learning_rate(), 0.1);
        adam.set_learning_rate(0.01);
        assert_eq!(adam.learning_rate(), 0.01);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn rejects_mismatched_shapes() {
        let small = Mlp::new(&[1, 1], Activation::Identity, 0);
        let mut big = Mlp::new(&[2, 4, 1], Activation::Tanh, 0);
        let grads = small.zero_gradients();
        let mut adam = Adam::new(&big, 0.1);
        adam.step(&mut big, &grads);
    }
}
