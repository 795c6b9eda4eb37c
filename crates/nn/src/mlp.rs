//! Multilayer perceptron with manual backpropagation.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Activation function applied element-wise after a dense layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Identity (used on output layers).
    Identity,
    /// Hyperbolic tangent.
    Tanh,
    /// Rectified linear unit.
    Relu,
}

impl Activation {
    fn apply(self, x: f64) -> f64 {
        match self {
            Self::Identity => x,
            Self::Tanh => crate::fastmath::tanh(x),
            Self::Relu => x.max(0.0),
        }
    }

    /// Derivative expressed through the *activated* value `y = f(x)`, which
    /// is what the backward pass has cached.
    fn derivative_from_output(self, y: f64) -> f64 {
        match self {
            Self::Identity => 1.0,
            Self::Tanh => 1.0 - y * y,
            Self::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }
}

/// SIMD lanes per column chunk of the batched kernels. Batch activations
/// and the weight mirrors pad every row to a multiple of this, so each
/// chunk of the right-hand operand is one full, in-bounds load.
const LANES: usize = 8;

/// Rows per register block of the batched kernels: every weight chunk
/// loaded serves this many rows.
const ROW_BLOCK: usize = 4;

/// `width` rounded up to a whole number of [`LANES`] chunks.
fn padded(width: usize) -> usize {
    width.div_ceil(LANES) * LANES
}

/// One dense layer: `y = f(W x + b)` with `W` stored row-major
/// (`outputs × inputs`).
///
/// `weights_t` (column-major, `inputs × padded(outputs)`) and
/// `weights_p` (row-major, `outputs × padded(inputs)`) mirror `weights`
/// with zero padding for the batched forward and input-delta products.
/// They are derived state: every parameter mutation ends in a refresh,
/// through [`Mlp::for_each_parameter`] or [`Mlp::refresh_mirrors`].
#[derive(Debug, Clone)]
struct Layer {
    weights: Vec<f64>,
    weights_t: Vec<f64>,
    weights_p: Vec<f64>,
    biases: Vec<f64>,
    inputs: usize,
    outputs: usize,
    activation: Activation,
}

impl Layer {
    /// Rebuilds both padded weight mirrors from the row-major source.
    /// Padding lanes are never written, so they stay zero.
    #[expect(
        clippy::indexing_slicing,
        reason = "the mirrors are resized to the padded shapes the loops index"
    )]
    fn refresh_mirrors(&mut self) {
        let (n, m) = (self.inputs, self.outputs);
        let (n_pad, m_pad) = (padded(n), padded(m));
        self.weights_t.resize(n * m_pad, 0.0);
        self.weights_p.resize(m * n_pad, 0.0);
        for o in 0..m {
            for i in 0..n {
                let w = self.weights[o * n + i];
                self.weights_t[i * m_pad + o] = w;
                self.weights_p[o * n_pad + i] = w;
            }
        }
    }
}

/// A register-blocked product `out[r][j] = init + Σₖ a[r][k]·b[k][j]`
/// over `r < rows`, `j < cols`, `k < depth`.
///
/// `a[r][k]` sits at `a[r·a_row + k·a_k]`, so one kernel reads the
/// activations (`a_k = 1`) or a transposed delta (`a_row = 1`). `b` is
/// row-major with a stride that is a multiple of [`LANES`]. Every output
/// element is one scalar chain: `init` (`0.0`, or `out`'s current value
/// when accumulating), then `+= b[k][j]·a[r][k]` in ascending `k`. That is
/// the exact sequence of the one-row loops (IEEE multiplication commutes,
/// so operand order inside a product is free), so blocking [`ROW_BLOCK`]
/// rows × [`LANES`] columns into local accumulators changes no bit; it
/// only lets each loaded `b` chunk serve a whole row block.
struct Product<'a> {
    a: &'a [f64],
    a_row: usize,
    a_k: usize,
    b: &'a [f64],
    b_stride: usize,
    rows: usize,
    depth: usize,
    cols: usize,
}

impl Product<'_> {
    /// Writes (or, with `accumulate`, adds onto) the product in `out`,
    /// row-major with stride `out_stride`; only the `cols` valid columns
    /// of each row are touched.
    fn multiply_into(&self, out: &mut [f64], out_stride: usize, accumulate: bool) {
        let mut r0 = 0;
        while r0 + ROW_BLOCK <= self.rows {
            self.product_block::<ROW_BLOCK>(r0, out, out_stride, accumulate);
            r0 += ROW_BLOCK;
        }
        while r0 < self.rows {
            self.product_block::<1>(r0, out, out_stride, accumulate);
            r0 += 1;
        }
    }

    #[inline(always)]
    #[expect(
        clippy::expect_used,
        clippy::indexing_slicing,
        reason = "`b` rows are padded to whole lane chunks and `a`/`out` hold `rows` rows of their strides"
    )]
    fn product_block<const R: usize>(
        &self,
        r0: usize,
        out: &mut [f64],
        out_stride: usize,
        accumulate: bool,
    ) {
        for j0 in (0..self.cols).step_by(LANES) {
            let valid = LANES.min(self.cols - j0);
            let mut acc = [Lanes([0.0; LANES]); R];
            if accumulate {
                for (r, lanes) in acc.iter_mut().enumerate() {
                    let base = (r0 + r) * out_stride + j0;
                    lanes.0[..valid].copy_from_slice(&out[base..base + valid]);
                }
            }
            for k in 0..self.depth {
                let base = k * self.b_stride + j0;
                let chunk = Lanes(
                    self.b[base..base + LANES]
                        .try_into()
                        .expect("padded stride"),
                );
                for (r, lanes) in acc.iter_mut().enumerate() {
                    let x = self.a[(r0 + r) * self.a_row + k * self.a_k];
                    *lanes = lanes.add_scaled(chunk, x);
                }
            }
            for (r, lanes) in acc.iter().enumerate() {
                let base = (r0 + r) * out_stride + j0;
                out[base..base + valid].copy_from_slice(&lanes.0[..valid]);
            }
        }
    }
}

/// One [`LANES`]-wide column chunk of accumulators.
#[derive(Clone, Copy)]
struct Lanes([f64; LANES]);

impl Lanes {
    /// `self[j] + w[j]·x` per lane: one rounding for the product, one for
    /// the sum, exactly the scalar `acc += w * x`. One 512-bit multiply
    /// and add where the target has AVX-512 (`crate::avx512`).
    #[inline(always)]
    #[cfg_attr(
        not(all(
            target_arch = "x86_64",
            target_feature = "avx512f",
            target_feature = "avx512dq"
        )),
        expect(clippy::indexing_slicing, reason = "`from_fn` yields lane indices")
    )]
    fn add_scaled(self, w: Self, x: f64) -> Self {
        #[cfg(all(
            target_arch = "x86_64",
            target_feature = "avx512f",
            target_feature = "avx512dq"
        ))]
        return Self(crate::avx512::add_scaled(self.0, w.0, x));
        #[cfg(not(all(
            target_arch = "x86_64",
            target_feature = "avx512f",
            target_feature = "avx512dq"
        )))]
        Self(std::array::from_fn(|j| self.0[j] + w.0[j] * x))
    }
}

/// Parameter-shaped gradient accumulator for an [`Mlp`].
///
/// Obtained from [`Mlp::zero_gradients`]; filled by [`Mlp::backward`] (which
/// *adds* into it, so several backward passes accumulate naturally) and
/// consumed by [`crate::Adam::step`].
#[derive(Debug, Clone)]
pub struct Gradients {
    pub(crate) weights: Vec<Vec<f64>>,
    pub(crate) biases: Vec<Vec<f64>>,
}

impl Gradients {
    /// Resets all accumulated gradients to zero.
    pub fn reset(&mut self) {
        for layer in &mut self.weights {
            layer.fill(0.0);
        }
        for layer in &mut self.biases {
            layer.fill(0.0);
        }
    }

    /// Scales all gradients, e.g. by `1/batch_size`.
    pub fn scale(&mut self, factor: f64) {
        for layer in &mut self.weights {
            for g in layer.iter_mut() {
                *g *= factor;
            }
        }
        for layer in &mut self.biases {
            for g in layer.iter_mut() {
                *g *= factor;
            }
        }
    }

    /// Euclidean norm of the flattened gradient vector.
    pub fn norm(&self) -> f64 {
        let mut total = 0.0;
        for layer in &self.weights {
            total += layer.iter().map(|g| g * g).sum::<f64>();
        }
        for layer in &self.biases {
            total += layer.iter().map(|g| g * g).sum::<f64>();
        }
        total.sqrt()
    }
}

/// Cached activations of one forward pass, needed by [`Mlp::backward`].
#[derive(Debug, Clone)]
pub struct ForwardCache {
    /// `activations[0]` is the input; `activations[i+1]` the output of layer
    /// `i`.
    activations: Vec<Vec<f64>>,
}

impl ForwardCache {
    /// Network output of the cached pass.
    #[expect(
        clippy::expect_used,
        reason = "the cache always holds the input activation"
    )]
    pub fn output(&self) -> &[f64] {
        self.activations
            .last()
            .expect("cache has at least the input layer")
    }
}

/// The per-row state of one row segment of a minibatch: the stacked
/// activations of [`Mlp::forward_batch`] and, after
/// [`Mlp::backprop_deltas`], every layer's δ.
///
/// A batch may be split into several segments (say, one per thread);
/// [`Mlp::accumulate_gradients`] then reads them in order as if they were
/// one batch. Reusable: after the first call of a given segment size,
/// later calls on the same network allocate nothing. Every stored row is
/// padded to a whole number of SIMD chunks; [`BatchCache::output`]
/// returns the unpadded output row.
#[derive(Debug, Clone, Default)]
pub struct BatchCache {
    rows: usize,
    output_width: usize,
    /// `levels[l]` holds the rows entering layer `l` (the input rows for
    /// `l = 0`) and layer `l`'s δ; the last level holds the output rows.
    levels: Vec<Level>,
}

/// One level of a [`BatchCache`].
#[derive(Debug, Clone, Default)]
struct Level {
    /// Activation rows, each padded to a whole number of [`LANES`].
    activations: Vec<f64>,
    /// ∂loss/∂(pre-activation) per row of the layer these rows enter,
    /// padded like its output rows; unused on the output level.
    delta: Vec<f64>,
}

impl BatchCache {
    /// Network output of row `row` of the cached batch.
    ///
    /// # Panics
    ///
    /// Panics if `row` is not below the cached batch's row count.
    #[expect(
        clippy::disallowed_macros,
        clippy::expect_used,
        clippy::indexing_slicing,
        reason = "documented precondition on `row`; a filled cache has an output level of `rows` padded rows"
    )]
    pub fn output(&self, row: usize) -> &[f64] {
        assert!(row < self.rows, "row out of range");
        let stride = padded(self.output_width);
        let last = &self.levels.last().expect("a filled cache").activations;
        &last[row * stride..row * stride + self.output_width]
    }
}

/// A feed-forward network with dense layers.
///
/// # Examples
///
/// ```
/// use anubis_nn::{Activation, Mlp};
///
/// // 2 inputs -> 8 tanh -> 1 linear output.
/// let mlp = Mlp::new(&[2, 8, 1], Activation::Tanh, 42);
/// let y = mlp.forward(&[0.5, -0.5]);
/// assert_eq!(y.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Layer>,
}

impl Mlp {
    /// Builds a network with the given layer sizes (`sizes[0]` inputs,
    /// `sizes.last()` outputs), `hidden` activation on all but the last
    /// layer, identity on the output, and Xavier-uniform initialization.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given or any size is zero; layer
    /// shapes are a static property of the calling code, not runtime data.
    #[expect(
        clippy::disallowed_macros,
        clippy::indexing_slicing,
        reason = "documented preconditions on the static layer shapes; `windows(2)` yields pairs"
    )]
    pub fn new(sizes: &[usize], hidden: Activation, seed: u64) -> Self {
        assert!(sizes.len() >= 2, "need at least input and output sizes");
        assert!(sizes.iter().all(|&s| s > 0), "layer sizes must be positive");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut layers = Vec::with_capacity(sizes.len() - 1);
        for (i, window) in sizes.windows(2).enumerate() {
            let (inputs, outputs) = (window[0], window[1]);
            let limit = (6.0 / (inputs + outputs) as f64).sqrt();
            let weights: Vec<f64> = (0..inputs * outputs)
                .map(|_| rng.random_range(-limit..limit))
                .collect();
            let activation = if i == sizes.len() - 2 {
                Activation::Identity
            } else {
                hidden
            };
            layers.push(Layer {
                weights,
                weights_t: Vec::new(),
                weights_p: Vec::new(),
                biases: vec![0.0; outputs],
                inputs,
                outputs,
                activation,
            });
        }
        for layer in &mut layers {
            layer.refresh_mirrors();
        }
        Self { layers }
    }

    /// Input dimension.
    #[expect(clippy::indexing_slicing, reason = "`new` builds at least one layer")]
    pub fn input_dim(&self) -> usize {
        self.layers[0].inputs
    }

    /// Output dimension.
    #[expect(clippy::expect_used, reason = "`new` builds at least one layer")]
    pub fn output_dim(&self) -> usize {
        self.layers.last().expect("at least one layer").outputs
    }

    /// Runs a forward pass and returns only the output.
    ///
    /// # Panics
    ///
    /// Panics if `input` does not match [`Mlp::input_dim`].
    #[expect(
        clippy::expect_used,
        reason = "`forward_cached` keeps the input and one activation per layer"
    )]
    pub fn forward(&self, input: &[f64]) -> Vec<f64> {
        self.forward_cached(input)
            .activations
            .pop()
            .expect("non-empty")
    }

    /// Scalar-output convenience for risk networks.
    #[expect(
        clippy::disallowed_macros,
        clippy::indexing_slicing,
        reason = "a risk network has one output unit"
    )]
    pub fn forward_scalar(&self, input: &[f64]) -> f64 {
        debug_assert_eq!(self.output_dim(), 1);
        self.forward(input)[0]
    }

    /// Runs a forward pass keeping all intermediate activations for a later
    /// [`Mlp::backward`] call.
    ///
    /// The plain reference path: each neuron sums `w[o][i]·x[i]` in
    /// ascending `i` from `0.0`, adds its bias and applies the activation,
    /// one row at a time. [`Mlp::forward_batch`] reproduces it bit for
    /// bit.
    #[expect(
        clippy::disallowed_macros,
        clippy::expect_used,
        reason = "documented input-shape precondition; the activation list starts with the input"
    )]
    pub fn forward_cached(&self, input: &[f64]) -> ForwardCache {
        assert_eq!(input.len(), self.input_dim(), "input dimension mismatch");
        let mut activations = Vec::with_capacity(self.layers.len() + 1);
        activations.push(input.to_vec());
        for layer in &self.layers {
            let x = activations.last().expect("non-empty");
            let output: Vec<f64> = layer
                .weights
                .chunks_exact(layer.inputs)
                .zip(&layer.biases)
                .map(|(row, &b)| {
                    let dot = row.iter().zip(x).fold(0.0, |acc, (&w, &xi)| acc + w * xi);
                    layer.activation.apply(dot + b)
                })
                .collect();
            activations.push(output);
        }
        ForwardCache { activations }
    }

    /// Runs a forward pass over `rows` stacked input rows (`inputs` is
    /// row-major, `rows × input_dim`) into a reusable cache.
    ///
    /// Row `r` of every cached layer is bit-identical to
    /// [`Mlp::forward_cached`] on input row `r`: each layer is one
    /// register-blocked product (4 rows × 8 output lanes of local
    /// accumulators per weight load) whose output elements keep the
    /// reference's ascending-`i` dot product, followed by the
    /// same bias add and activation. `tanh` runs through
    /// [`crate::fastmath::tanh_slice`], which is bit-exact lane by lane.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` is not `rows × input_dim`.
    #[expect(
        clippy::disallowed_macros,
        clippy::indexing_slicing,
        reason = "documented input-shape precondition, which bounds every row slice; the levels are resized to the layer count"
    )]
    pub fn forward_batch(&self, inputs: &[f64], rows: usize, cache: &mut BatchCache) {
        let width = self.input_dim();
        assert_eq!(inputs.len(), rows * width, "input dimension mismatch");
        cache.rows = rows;
        cache.output_width = self.output_dim();
        cache
            .levels
            .resize_with(self.layers.len() + 1, Level::default);
        let stride = padded(width);
        let first = &mut cache.levels[0].activations;
        first.resize(rows * stride, 0.0);
        for (row, x) in first
            .chunks_exact_mut(stride)
            .zip(inputs.chunks_exact(width))
        {
            row[..width].copy_from_slice(x);
        }
        for (l, layer) in self.layers.iter().enumerate() {
            let (before, after) = cache.levels.split_at_mut(l + 1);
            let (x, y) = (&before[l].activations, &mut after[0].activations);
            let (n, m) = (layer.inputs, layer.outputs);
            let (x_stride, y_stride) = (padded(n), padded(m));
            y.resize(rows * y_stride, 0.0);
            let product = Product {
                a: x,
                a_row: x_stride,
                a_k: 1,
                b: &layer.weights_t,
                b_stride: y_stride,
                rows,
                depth: n,
                cols: m,
            };
            product.multiply_into(y, y_stride, false);
            for row in y.chunks_exact_mut(y_stride) {
                let row = &mut row[..m];
                for (v, &b) in row.iter_mut().zip(&layer.biases) {
                    *v += b;
                }
                match layer.activation {
                    Activation::Identity => {}
                    Activation::Tanh => crate::fastmath::tanh_slice(row),
                    Activation::Relu => {
                        for v in row.iter_mut() {
                            *v = v.max(0.0);
                        }
                    }
                }
            }
        }
    }

    /// Allocates a zeroed gradient accumulator matching this network.
    pub fn zero_gradients(&self) -> Gradients {
        Gradients {
            weights: self
                .layers
                .iter()
                .map(|l| vec![0.0; l.weights.len()])
                .collect(),
            biases: self
                .layers
                .iter()
                .map(|l| vec![0.0; l.biases.len()])
                .collect(),
        }
    }

    /// Backpropagates `output_grad` (∂loss/∂output) through the cached pass,
    /// **adding** parameter gradients into `grads`, and returns
    /// ∂loss/∂input.
    ///
    /// # Panics
    ///
    /// Panics if `output_grad` does not match the output dimension or
    /// `grads` was built for a different architecture.
    #[expect(
        clippy::disallowed_macros,
        clippy::indexing_slicing,
        reason = "documented shape preconditions, which bound every per-layer index"
    )]
    pub fn backward(
        &self,
        cache: &ForwardCache,
        output_grad: &[f64],
        grads: &mut Gradients,
    ) -> Vec<f64> {
        assert_eq!(
            output_grad.len(),
            self.output_dim(),
            "output gradient mismatch"
        );
        let mut delta = output_grad.to_vec();
        for (l, layer) in self.layers.iter().enumerate().rev() {
            let output = &cache.activations[l + 1];
            let input = &cache.activations[l];
            // δ ← δ ⊙ f'(z), expressed through the activated outputs.
            for (d, &y) in delta.iter_mut().zip(output) {
                *d *= layer.activation.derivative_from_output(y);
            }
            let w_grad = &mut grads.weights[l];
            let b_grad = &mut grads.biases[l];
            assert_eq!(w_grad.len(), layer.weights.len(), "gradient shape mismatch");
            let mut next_delta = vec![0.0; layer.inputs];
            for o in 0..layer.outputs {
                b_grad[o] += delta[o];
                let row = o * layer.inputs;
                for i in 0..layer.inputs {
                    w_grad[row + i] += delta[o] * input[i];
                    next_delta[i] += delta[o] * layer.weights[row + i];
                }
            }
            delta = next_delta;
        }
        delta
    }

    /// Backpropagates `output_grads` (row-major, `rows × output_dim`, one
    /// ∂loss/∂output row per cached row) through a [`Mlp::forward_batch`]
    /// pass, **adding** parameter gradients into `flat` (canonical order:
    /// layer by layer, weights then biases — the order of
    /// [`Mlp::flattened_gradients`]).
    ///
    /// Bit-identical to calling [`Mlp::backward`] on each row in turn into
    /// one [`Gradients`]. It is [`Mlp::backprop_deltas`] followed by
    /// [`Mlp::accumulate_gradients`] over the whole parameter range.
    ///
    /// # Panics
    ///
    /// Panics if `output_grads.len()` is not `rows × output_dim`, or
    /// `flat.len()` is not [`Mlp::parameter_count`].
    #[expect(
        clippy::disallowed_macros,
        reason = "documented gradient-shape precondition"
    )]
    pub fn backward_batch(&self, cache: &mut BatchCache, output_grads: &[f64], flat: &mut [f64]) {
        assert_eq!(
            flat.len(),
            self.parameter_count(),
            "gradient shape mismatch"
        );
        self.backprop_deltas(cache, output_grads);
        self.accumulate_gradients(&[&*cache], 0, flat);
    }

    /// Backpropagates `output_grads` (row-major, `rows × output_dim`)
    /// through the rows of a [`Mlp::forward_batch`] pass and keeps every
    /// layer's δ in `cache` for [`Mlp::accumulate_gradients`].
    ///
    /// Rows are independent here: row `r`'s δ is the reference
    /// [`Mlp::backward`]'s, bit for bit. Each input delta sums over
    /// outputs in ascending order from `0.0`.
    ///
    /// # Panics
    ///
    /// Panics if `output_grads.len()` is not `rows × output_dim`.
    #[expect(
        clippy::disallowed_macros,
        clippy::indexing_slicing,
        reason = "documented shape precondition; the levels of a forward pass match the layers"
    )]
    pub fn backprop_deltas(&self, cache: &mut BatchCache, output_grads: &[f64]) {
        let rows = cache.rows;
        let width = self.output_dim();
        assert_eq!(output_grads.len(), rows * width, "output gradient mismatch");
        let levels = &mut cache.levels;
        let stride = padded(width);
        let top = &mut levels[self.layers.len() - 1].delta;
        top.resize(rows * stride, 0.0);
        for (row, g) in top
            .chunks_exact_mut(stride)
            .zip(output_grads.chunks_exact(width))
        {
            row[..width].copy_from_slice(g);
        }
        for (l, layer) in self.layers.iter().enumerate().rev() {
            let (n, m) = (layer.inputs, layer.outputs);
            let (n_pad, m_pad) = (padded(n), padded(m));
            let (through_l, above) = levels.split_at_mut(l + 1);
            let (below, at_l) = through_l.split_at_mut(l);
            let delta = &mut at_l[0].delta;
            // δ ← δ ⊙ f'(z), expressed through the activated outputs.
            for (d_row, y_row) in delta
                .chunks_exact_mut(m_pad)
                .zip(above[0].activations.chunks_exact(m_pad))
            {
                for (d, &v) in d_row[..m].iter_mut().zip(&y_row[..m]) {
                    *d *= layer.activation.derivative_from_output(v);
                }
            }
            // The first layer's input delta is never read, so skip it.
            if let Some(next) = below.last_mut() {
                next.delta.resize(rows * n_pad, 0.0);
                let input_delta = Product {
                    a: delta,
                    a_row: m_pad,
                    a_k: 1,
                    b: &layer.weights_p,
                    b_stride: n_pad,
                    rows,
                    depth: m,
                    cols: n,
                };
                input_delta.multiply_into(&mut next.delta, n_pad, false);
            }
        }
    }

    /// Adds the gradients of the parameters `start..start + out.len()`
    /// (canonical flattened order) over the rows of `segments` onto
    /// `out`. Each segment must hold a [`Mlp::backprop_deltas`] pass.
    ///
    /// Every weight or bias element adds its rows' contributions onto its
    /// current value in ascending row order, segment after segment:
    /// `W_grad[o][i] += Σ_r δ[r][o]·x[r][i]` and `b_grad[o] += Σ_r δ[r][o]`.
    /// That is one scalar chain per element, so splitting the rows into
    /// segments changes no bit, and neither does splitting the parameters
    /// into ranges: each element is computed by exactly one call. The
    /// weight gradient keeps each 8-lane chunk of a gradient row in local
    /// accumulators across a segment's rows. [`Mlp::gradient_part`] gives
    /// balanced ranges.
    ///
    /// # Panics
    ///
    /// Panics if the range runs past [`Mlp::parameter_count`] or cuts a
    /// weight row (an output neuron's weights) in two.
    #[expect(
        clippy::disallowed_macros,
        clippy::indexing_slicing,
        clippy::integer_division_remainder_used,
        reason = "documented range precondition, which bounds every per-layer window; `n` is a nonzero layer width"
    )]
    pub fn accumulate_gradients(&self, segments: &[&BatchCache], start: usize, out: &mut [f64]) {
        let end = start + out.len();
        assert!(end <= self.parameter_count(), "gradient range mismatch");
        let mut offset = 0;
        for (l, layer) in self.layers.iter().enumerate() {
            let (n, m) = (layer.inputs, layer.outputs);
            let (n_pad, m_pad) = (padded(n), padded(m));
            // The output neurons whose weight rows, then whose biases,
            // lie in `start..end`.
            let neurons = |first: usize, per_neuron: usize| {
                let bound = |at: usize| {
                    let inside = at.clamp(first, first + m * per_neuron) - first;
                    assert!(
                        inside.is_multiple_of(per_neuron),
                        "gradient range cuts a weight row"
                    );
                    inside / per_neuron
                };
                bound(start)..bound(end)
            };
            let weight_rows = neurons(offset, n);
            let biases = neurons(offset + n * m, 1);
            if !weight_rows.is_empty() {
                let first = offset + weight_rows.start * n - start;
                let w_grad = &mut out[first..first + weight_rows.len() * n];
                for segment in segments.iter().filter(|s| s.rows > 0) {
                    // The product's depth runs over the segment's rows.
                    let weight_grad = Product {
                        a: &segment.levels[l].delta[weight_rows.start..],
                        a_row: 1,
                        a_k: m_pad,
                        b: &segment.levels[l].activations,
                        b_stride: n_pad,
                        rows: weight_rows.len(),
                        depth: segment.rows,
                        cols: n,
                    };
                    weight_grad.multiply_into(w_grad, n, true);
                }
            }
            if !biases.is_empty() {
                let first = offset + n * m + biases.start - start;
                let b_grad = &mut out[first..first + biases.len()];
                for segment in segments.iter().filter(|s| s.rows > 0) {
                    let delta = &segment.levels[l].delta;
                    for d_row in delta.chunks_exact(m_pad).take(segment.rows) {
                        for (g, &d) in b_grad.iter_mut().zip(&d_row[biases.clone()]) {
                            *g += d;
                        }
                    }
                }
            }
            offset += n * m + m;
        }
    }

    /// The flattened parameter range of part `part` of `parts` for
    /// [`Mlp::accumulate_gradients`]: contiguous, in part order, covering
    /// every parameter once, with cuts near equal parameter counts. A cut
    /// inside a layer's weights moves to the nearest weight-row boundary,
    /// so a part may own no neuron of a layer (or nothing at all).
    ///
    /// # Panics
    ///
    /// Panics if `part` is not below `parts`.
    #[expect(
        clippy::disallowed_macros,
        clippy::integer_division_remainder_used,
        reason = "documented precondition `part < parts`, so `parts` and the layer widths are nonzero"
    )]
    pub fn gradient_part(&self, part: usize, parts: usize) -> std::ops::Range<usize> {
        assert!(part < parts, "part out of range");
        let total = self.parameter_count();
        let cut = |k: usize| {
            let target = total * k / parts;
            let mut offset = 0;
            for layer in &self.layers {
                let weights = layer.inputs * layer.outputs;
                if target < offset + weights {
                    let n = layer.inputs;
                    return offset + (target - offset + n / 2) / n * n;
                }
                offset += weights + layer.outputs;
                if target < offset {
                    return target;
                }
            }
            total
        };
        cut(part)..cut(part + 1)
    }

    /// Flattens a gradient accumulator into the canonical parameter
    /// order (layer by layer, weights then biases) — useful for
    /// finite-difference verification and optimizer diagnostics.
    pub fn flattened_gradients(grads: &Gradients) -> Vec<f64> {
        Self::flatten_gradients(grads).collect()
    }

    /// Adds `delta` to the parameter at flattened `index` (same order as
    /// [`Mlp::flattened_gradients`]); a no-op for out-of-range indices.
    pub fn perturb_parameter(&mut self, index: usize, delta: f64) {
        self.for_each_parameter(|i, value| {
            if i == index {
                *value += delta;
            }
        });
    }

    /// Total number of scalar parameters.
    pub fn parameter_count(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.weights.len() + l.biases.len())
            .sum()
    }

    /// Yields each layer's parameter storage in canonical flattened order
    /// (layer by layer, weights then biases) as mutable slices, so
    /// optimizers can run vectorizable elementwise updates. Callers that
    /// mutate through this **must** call [`Mlp::refresh_mirrors`]
    /// afterwards.
    pub(crate) fn parameter_slices_mut(&mut self) -> impl Iterator<Item = &mut [f64]> + '_ {
        self.layers.iter_mut().flat_map(|layer| {
            let Layer {
                weights, biases, ..
            } = layer;
            [weights.as_mut_slice(), biases.as_mut_slice()]
        })
    }

    /// Rebuilds every layer's padded weight mirrors; required after any
    /// parameter mutation that bypasses [`Mlp::for_each_parameter`].
    pub(crate) fn refresh_mirrors(&mut self) {
        for layer in &mut self.layers {
            layer.refresh_mirrors();
        }
    }

    /// Applies an in-place update `θ ← θ + update(θ_index)`, visiting
    /// parameters layer by layer (weights then biases). Used by optimizers.
    /// The batched kernels' weight mirrors are refreshed afterwards,
    /// keeping this the single gateway through which parameters change.
    pub(crate) fn for_each_parameter(&mut self, mut update: impl FnMut(usize, &mut f64)) {
        let mut index = 0;
        for layer in &mut self.layers {
            for w in &mut layer.weights {
                update(index, w);
                index += 1;
            }
            for b in &mut layer.biases {
                update(index, b);
                index += 1;
            }
            layer.refresh_mirrors();
        }
    }

    /// Iterates gradients in the same flattened order as
    /// [`Mlp::for_each_parameter`].
    pub(crate) fn flatten_gradients(grads: &Gradients) -> impl Iterator<Item = f64> + '_ {
        grads
            .weights
            .iter()
            .zip(&grads.biases)
            .flat_map(|(w, b)| w.iter().chain(b.iter()).copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shapes() {
        let mlp = Mlp::new(&[3, 5, 2], Activation::Tanh, 1);
        assert_eq!(mlp.input_dim(), 3);
        assert_eq!(mlp.output_dim(), 2);
        assert_eq!(mlp.forward(&[0.1, 0.2, 0.3]).len(), 2);
        assert_eq!(mlp.parameter_count(), 3 * 5 + 5 + 5 * 2 + 2);
    }

    #[test]
    fn deterministic_initialization() {
        let a = Mlp::new(&[2, 4, 1], Activation::Relu, 9);
        let b = Mlp::new(&[2, 4, 1], Activation::Relu, 9);
        assert_eq!(a.forward(&[0.3, -0.7]), b.forward(&[0.3, -0.7]));
        let c = Mlp::new(&[2, 4, 1], Activation::Relu, 10);
        assert_ne!(a.forward(&[0.3, -0.7]), c.forward(&[0.3, -0.7]));
    }

    #[test]
    #[should_panic(expected = "input dimension mismatch")]
    fn rejects_wrong_input_dim() {
        let mlp = Mlp::new(&[3, 1], Activation::Tanh, 0);
        mlp.forward(&[1.0]);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let mlp = Mlp::new(&[2, 6, 1], Activation::Tanh, 3);
        let input = [0.4, -0.9];
        // Loss = 0.5 * y^2 so dLoss/dy = y.
        let cache = mlp.forward_cached(&input);
        let y = cache.output()[0];
        let mut grads = mlp.zero_gradients();
        mlp.backward(&cache, &[y], &mut grads);
        let analytic: Vec<f64> = Mlp::flatten_gradients(&grads).collect();

        let eps = 1e-6;
        let mut numeric = Vec::with_capacity(analytic.len());
        for p in 0..mlp.parameter_count() {
            let loss_at = |mlp: &Mlp| {
                let out = mlp.forward(&input)[0];
                0.5 * out * out
            };
            let mut plus = mlp.clone();
            plus.for_each_parameter(|i, v| {
                if i == p {
                    *v += eps;
                }
            });
            let mut minus = mlp.clone();
            minus.for_each_parameter(|i, v| {
                if i == p {
                    *v -= eps;
                }
            });
            numeric.push((loss_at(&plus) - loss_at(&minus)) / (2.0 * eps));
        }
        for (i, (a, n)) in analytic.iter().zip(&numeric).enumerate() {
            assert!(
                (a - n).abs() < 1e-5,
                "parameter {i}: analytic {a} vs numeric {n}"
            );
        }
    }

    #[test]
    fn input_gradient_matches_finite_differences() {
        let mlp = Mlp::new(&[2, 4, 1], Activation::Tanh, 5);
        let input = [0.2, 0.7];
        let cache = mlp.forward_cached(&input);
        let y = cache.output()[0];
        let mut grads = mlp.zero_gradients();
        let input_grad = mlp.backward(&cache, &[y], &mut grads);

        let eps = 1e-6;
        for d in 0..2 {
            let mut plus = input;
            plus[d] += eps;
            let mut minus = input;
            minus[d] -= eps;
            let loss = |x: &[f64]| {
                let out = mlp.forward(x)[0];
                0.5 * out * out
            };
            let numeric = (loss(&plus) - loss(&minus)) / (2.0 * eps);
            assert!(
                (input_grad[d] - numeric).abs() < 1e-5,
                "input dim {d}: analytic {} vs numeric {numeric}",
                input_grad[d]
            );
        }
    }

    #[test]
    fn backward_accumulates_across_calls() {
        let mlp = Mlp::new(&[1, 3, 1], Activation::Relu, 2);
        let cache = mlp.forward_cached(&[0.5]);
        let mut once = mlp.zero_gradients();
        mlp.backward(&cache, &[1.0], &mut once);
        let mut twice = mlp.zero_gradients();
        mlp.backward(&cache, &[1.0], &mut twice);
        mlp.backward(&cache, &[1.0], &mut twice);
        let a: Vec<f64> = Mlp::flatten_gradients(&once).collect();
        let b: Vec<f64> = Mlp::flatten_gradients(&twice).collect();
        for (x, y) in a.iter().zip(&b) {
            assert!((2.0 * x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn gradients_reset_and_scale() {
        let mlp = Mlp::new(&[1, 2, 1], Activation::Tanh, 0);
        let cache = mlp.forward_cached(&[1.0]);
        let mut grads = mlp.zero_gradients();
        mlp.backward(&cache, &[1.0], &mut grads);
        assert!(grads.norm() > 0.0);
        grads.scale(0.0);
        assert_eq!(grads.norm(), 0.0);
        mlp.backward(&cache, &[1.0], &mut grads);
        grads.reset();
        assert_eq!(grads.norm(), 0.0);
    }

    #[test]
    fn forward_batch_caches_every_level_bitwise() {
        // The property test compares outputs and gradients; this one
        // reads every cached level, across cache reuse.
        let mlp = Mlp::new(&[3, 9, 5, 2], Activation::Tanh, 11);
        let mut cache = BatchCache::default();
        // Row counts on and off the row block, and a shrinking reuse.
        for rows in [7usize, 4, 1, 0, 13] {
            let inputs: Vec<f64> = (0..rows * 3)
                .map(|k| ((k * 37 % 23) as f64 - 11.0) * 0.17)
                .collect();
            mlp.forward_batch(&inputs, rows, &mut cache);
            for (r, x) in inputs.chunks_exact(3).enumerate() {
                let fresh = mlp.forward_cached(x);
                for (l, reference) in fresh.activations.iter().enumerate() {
                    let stride = padded(reference.len());
                    let level = &cache.levels[l].activations;
                    let row = &level[r * stride..r * stride + reference.len()];
                    assert_eq!(row, reference.as_slice(), "rows {rows}, row {r}, level {l}");
                }
                assert_eq!(cache.output(r), fresh.output());
            }
        }
    }

    #[test]
    fn relu_activation_clamps() {
        assert_eq!(Activation::Relu.apply(-1.0), 0.0);
        assert_eq!(Activation::Relu.apply(2.0), 2.0);
        assert_eq!(Activation::Relu.derivative_from_output(0.0), 0.0);
        assert_eq!(Activation::Relu.derivative_from_output(3.0), 1.0);
    }
}
