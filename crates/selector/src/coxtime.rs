//! The Cox-Time survival model (Kvamme, Borgan & Scheel, 2019).
//!
//! Cox-Time is a relative-risk model `h(t|x) = h₀(t)·exp(g(t, x))` whose
//! risk function `g` is a neural network taking *both* the time and the
//! covariates, so the proportional-hazards assumption is dropped — exactly
//! what degrading GPU nodes need (their failure rate changes with time).
//!
//! The original system trains this through PyCox; here it is implemented
//! from scratch on [`anubis_nn`]:
//!
//! - training minimizes the case-control approximation of the partial
//!   likelihood: for each event `i` with sampled controls `j ∈ R(tᵢ)`,
//!   `loss = ln(1 + Σⱼ exp(g(tᵢ,xⱼ) − g(tᵢ,xᵢ)))`;
//! - the baseline cumulative hazard uses the Breslow estimator on a
//!   bucketed event-time grid;
//! - survival prediction is `S(t|x) = exp(−Σ_{tᵢ≤t} ΔH₀(tᵢ)·e^{g(tᵢ,x)})`.

use crate::status::NodeStatus;
use crate::survival::{SurvivalModel, SurvivalSample, TBNI_CAP_HOURS};
use anubis_metrics::MetricsError;
use anubis_nn::{Activation, Adam, BatchCache, Mlp, StandardScaler};
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Training configuration for [`CoxTimeModel::fit`].
#[derive(Debug, Clone)]
pub struct CoxTimeConfig {
    /// Hidden-layer widths of the risk network.
    pub hidden: Vec<usize>,
    /// Training epochs over the event set.
    pub epochs: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Sampled controls per event (the case-control approximation).
    pub controls_per_event: usize,
    /// Mini-batch size in events.
    pub batch_size: usize,
    /// Number of Breslow grid buckets.
    pub baseline_buckets: usize,
    /// Decoupled weight decay (AdamW-style regularization).
    pub weight_decay: f64,
    /// RNG seed.
    pub seed: u64,
    /// Threads for training and the Breslow baseline loop (`0` = auto,
    /// see [`anubis_parallel::auto_threads`]). Training uses at most two:
    /// the caller and one helper thread that splits each minibatch with
    /// it ([`anubis_parallel::with_helper`]). The fitted model is
    /// bit-identical at any thread count.
    pub threads: usize,
}

impl Default for CoxTimeConfig {
    fn default() -> Self {
        Self {
            hidden: vec![32, 32],
            epochs: 40,
            learning_rate: 2e-3,
            controls_per_event: 4,
            batch_size: 32,
            baseline_buckets: 96,
            weight_decay: 1e-4,
            seed: 7,
            threads: 0,
        }
    }
}

/// A fitted Cox-Time model.
#[derive(Debug, Clone)]
pub struct CoxTimeModel {
    net: Mlp,
    scaler: StandardScaler,
    time_scale: f64,
    /// Ascending `(event time, ΔH₀)` pairs from the Breslow estimator.
    baseline: Vec<(f64, f64)>,
}

impl CoxTimeModel {
    /// Trains on survival samples (events and censored rows).
    ///
    /// Cold-fit convenience over [`CoxTimeTrainer`]: ingest everything,
    /// train `config.epochs` epochs, finish. A caller that keeps the
    /// trainer instead can absorb new incident intervals with
    /// [`CoxTimeTrainer::ingest`] and resume training from the fitted
    /// parameters — and the result is bit-identical to this cold path on
    /// the concatenated sample list.
    ///
    /// # Errors
    ///
    /// Returns [`MetricsError::InsufficientData`] if `samples` contains no
    /// events — the partial likelihood is undefined without at least one.
    pub fn fit(samples: &[SurvivalSample], config: &CoxTimeConfig) -> Result<Self, MetricsError> {
        let _span = anubis_obs::span!("coxtime.fit");
        anubis_obs::counter!("coxtime.fit_samples", samples.len() as i64);
        anubis_obs::counter!("coxtime.fit_epochs", config.epochs as i64);
        let epochs = config.epochs;
        let mut trainer = CoxTimeTrainer::new(config.clone());
        trainer.ingest(samples);
        trainer.train(epochs)?;
        trainer.finish()
    }

    /// The risk score `g(t, x)` for a status at time `t`.
    pub fn log_risk(&self, status: &NodeStatus, t: f64) -> f64 {
        self.log_risks(status, [t].into_iter()).output(0)[0]
    }

    /// Survival probability `S(t|x)`.
    pub fn survival(&self, status: &NodeStatus, t: f64) -> f64 {
        // The grid prefix through the last time ≤ t, evaluated as one batch.
        let grid = self.grid_through(t);
        let risks = self.log_risks(status, grid.iter().map(|&(time, _)| time));
        survival_over(grid, &risks, 0)
    }

    /// The Breslow grid through its last event time `≤ t`.
    fn grid_through(&self, t: f64) -> &[(f64, f64)] {
        let prefix = self
            .baseline
            .iter()
            .position(|&(time, _)| time > t)
            .unwrap_or(self.baseline.len());
        &self.baseline[..prefix]
    }

    /// `g(t, x)` for one status at each of `times`, as one network batch:
    /// row `k` of the returned cache holds the `k`-th time's risk,
    /// bit-identical to a one-row evaluation.
    fn log_risks(
        &self,
        status: &NodeStatus,
        times: impl ExactSizeIterator<Item = f64>,
    ) -> BatchCache {
        let rows = times.len();
        // Sized once: probes run per node per scoring pass, and a growing
        // buffer fragments the heap (peak RSS +1.1 MiB on policy-sim).
        let mut inputs = Vec::with_capacity(rows * (1 + self.scaler.dim()));
        self.push_rows(&mut inputs, status, times);
        let mut cache = BatchCache::default();
        self.net.forward_batch(&inputs, rows, &mut cache);
        cache
    }

    /// Appends one network input row per time in `times`: the normalized
    /// time, then `status`'s scaled features. The features are scaled
    /// once, straight into the first row, and copied to the later ones.
    fn push_rows(
        &self,
        inputs: &mut Vec<f64>,
        status: &NodeStatus,
        times: impl Iterator<Item = f64>,
    ) {
        let mut scaled = None;
        for t in times {
            inputs.push(t / self.time_scale);
            let start = inputs.len();
            match scaled {
                None => {
                    self.scaler.transform_into(&status.feature_array(), inputs);
                    scaled = Some(start..inputs.len());
                }
                Some(ref x) => inputs.extend_from_within(x.clone()),
            }
        }
    }

    /// The fitted Breslow grid (for diagnostics).
    pub fn baseline(&self) -> &[(f64, f64)] {
        &self.baseline
    }
}

/// Merges two duration-sorted index runs over `samples` into `out`,
/// taking the `old` side on ties.
///
/// Because every index in `old` precedes every index in `incoming` (the
/// incoming batch is appended at the tail of the sample list), tie-takes-
/// left reproduces exactly what a stable sort of the concatenated list
/// would produce — so a trainer that maintains its duration order through
/// this merge is indistinguishable, index for index, from one that
/// re-sorts from scratch.
pub fn warmstart_merge_into(
    samples: &[SurvivalSample],
    old: &[usize],
    incoming: &[usize],
    out: &mut Vec<usize>,
) {
    out.clear();
    let mut a = 0usize;
    let mut b = 0usize;
    while a < old.len() && b < incoming.len() {
        let i = old[a];
        let j = incoming[b];
        if samples[i].duration.total_cmp(&samples[j].duration).is_le() {
            out.push(i);
            a += 1;
        } else {
            out.push(j);
            b += 1;
        }
    }
    while a < old.len() {
        out.push(old[a]);
        a += 1;
    }
    while b < incoming.len() {
        out.push(incoming[b]);
        b += 1;
    }
}

/// An incremental Cox-Time fitting session.
///
/// Holds the network, optimizer moments, RNG stream and the
/// duration-sorted sample order across calls, so training can be
/// checkpointed ([`CoxTimeTrainer::train`] twice ≡ one longer run) and
/// new incident intervals can be absorbed ([`CoxTimeTrainer::ingest`])
/// without restarting from epoch zero.
///
/// Two exact equivalences hold (asserted bit-for-bit in this module's
/// tests):
///
/// 1. `new + ingest(D₁) + ingest(D₂) + train(E) + finish` equals
///    `CoxTimeModel::fit(D₁ ∥ D₂)` with `epochs = E` — ingestion
///    reconstructs the derived dataset state (scaler, time scale,
///    duration order) exactly as a cold fit derives it;
/// 2. `train(E₁)` then `train(E₂)` equals `train(E₁ + E₂)` — the epoch
///    loop carries no per-call state besides the trainer fields.
///
/// A *warm refit* — ingesting a delta after training has already run —
/// is deliberately approximate: it resumes gradient descent from the
/// fitted parameters instead of replaying every epoch, which is the
/// entire point. Use a fresh trainer when cold-fit semantics are needed.
#[derive(Debug, Clone)]
pub struct CoxTimeTrainer {
    config: CoxTimeConfig,
    samples: Vec<SurvivalSample>,
    /// Sample indices sorted by duration ascending: the risk set of an
    /// event is then a suffix. Maintained across ingests by
    /// [`warmstart_merge_into`].
    by_duration: Vec<usize>,
    merge_scratch: Vec<usize>,
    incoming_scratch: Vec<usize>,
    net: Mlp,
    adam: Adam,
    rng: ChaCha8Rng,
    /// The event visit order, shuffled in place epoch over epoch. A cold
    /// fit shuffles one persistent permutation across all its epochs, so
    /// checkpoint-resume equality requires carrying it (not just the RNG
    /// position) across `train` calls. Rebuilt after ingestion.
    order: Vec<usize>,
    order_dirty: bool,
    epochs_trained: usize,
}

impl CoxTimeTrainer {
    /// Creates an empty training session. The network, optimizer and RNG
    /// are seeded exactly as a cold [`CoxTimeModel::fit`] seeds them —
    /// none of them depends on the data, so creation order is
    /// irrelevant to equivalence.
    pub fn new(config: CoxTimeConfig) -> Self {
        let input_dim = 1 + NodeStatus::FEATURE_DIM;
        let mut sizes = vec![input_dim];
        sizes.extend(&config.hidden);
        sizes.push(1);
        let net = Mlp::new(&sizes, Activation::Tanh, config.seed);
        let adam = Adam::new(&net, config.learning_rate).with_weight_decay(config.weight_decay);
        let rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0x5eed);
        Self {
            config,
            samples: Vec::new(),
            by_duration: Vec::new(),
            merge_scratch: Vec::new(),
            incoming_scratch: Vec::new(),
            net,
            adam,
            rng,
            order: Vec::new(),
            order_dirty: true,
            epochs_trained: 0,
        }
    }

    /// Samples absorbed so far.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no sample has been absorbed yet.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Total epochs trained so far across all [`CoxTimeTrainer::train`]
    /// calls.
    pub fn epochs_trained(&self) -> usize {
        self.epochs_trained
    }

    /// Absorbs new survival samples, splicing them into the maintained
    /// duration order with an O(n + m) merge instead of an O(n log n)
    /// re-sort. Does not touch the network, optimizer or RNG.
    pub fn ingest(&mut self, new_samples: &[SurvivalSample]) {
        if new_samples.is_empty() {
            return;
        }
        let _span = anubis_obs::span!("coxtime.trainer.ingest");
        let old_len = self.samples.len();
        self.samples.extend_from_slice(new_samples);
        self.incoming_scratch.clear();
        self.incoming_scratch.extend(old_len..self.samples.len());
        let samples = &self.samples;
        self.incoming_scratch
            .sort_by(|&a, &b| samples[a].duration.total_cmp(&samples[b].duration));
        warmstart_merge_into(
            &self.samples,
            &self.by_duration,
            &self.incoming_scratch,
            &mut self.merge_scratch,
        );
        std::mem::swap(&mut self.by_duration, &mut self.merge_scratch);
        self.order_dirty = true;
        anubis_obs::counter!("coxtime.trainer.samples_ingested", new_samples.len() as i64);
    }

    /// Runs `epochs` additional training epochs over the absorbed
    /// samples, continuing the RNG stream and optimizer state exactly
    /// where the previous call stopped.
    ///
    /// # Errors
    ///
    /// Returns [`MetricsError::InsufficientData`] if no absorbed sample
    /// is an event.
    pub fn train(&mut self, epochs: usize) -> Result<(), MetricsError> {
        let _span = anubis_obs::span!("coxtime.trainer.train");
        anubis_obs::counter!("coxtime.trainer.epochs", epochs as i64);
        let samples = &self.samples;
        let by_duration = &self.by_duration;
        let config = &self.config;
        let net = &mut self.net;
        let adam = &mut self.adam;
        let rng = &mut self.rng;
        let events: Vec<usize> = (0..samples.len()).filter(|&i| samples[i].event).collect();
        if events.is_empty() {
            return Err(MetricsError::InsufficientData {
                required: 1,
                actual: 0,
            });
        }
        let features: Vec<Vec<f64>> = samples.iter().map(|s| s.status.features()).collect();
        let scaler = StandardScaler::fit(&features);
        let scaled: Vec<Vec<f64>> = scaler.transform_all(&features);
        let time_scale = time_scale_of(samples);
        let rank_of: Vec<usize> = {
            let mut rank = vec![0usize; samples.len()];
            for (r, &i) in by_duration.iter().enumerate() {
                rank[i] = r;
            }
            rank
        };

        // Minibatch buffers, all reused across the whole fit: one half of
        // the minibatch per lane (rows, groups, loss gradients and the
        // per-row network state) and the flat gradient accumulator
        // (canonical parameter order).
        let mut acc = vec![0.0f64; net.parameter_count()];
        let mut halves = [Half::default(), Half::default()];
        let width = net.input_dim();
        let order = &mut self.order;
        if self.order_dirty {
            order.clear();
            order.extend_from_slice(&events);
            self.order_dirty = false;
        }
        // Events that ran a forward and backward pass, summed per
        // minibatch: the exact training work, published once at the end.
        let mut sample_epochs = 0usize;
        // Each minibatch runs on up to two lanes (the caller and one
        // helper thread kept for the whole call) in two phases: rows, then
        // parameters. Every output element is computed by exactly one lane
        // with the sequential operation order, so there is nothing to
        // merge and the fit is bit-identical at any thread count.
        anubis_parallel::with_helper(config.threads, |helper| {
            let lanes = helper.lanes();
            let cut = net.gradient_part(0, lanes).end;
            for _ in 0..epochs {
                order.shuffle(&mut *rng);
                for batch in order.chunks(config.batch_size.max(1)) {
                    // Draw every event's controls first, in event order.
                    // Compute never consumes the RNG, so the draw sequence
                    // is the one a row-at-a-time loop makes.
                    let [first_half, second_half] = &mut halves;
                    let (inputs, groups) = (&mut first_half.inputs, &mut first_half.groups);
                    inputs.clear();
                    groups.clear();
                    let mut rows = 0usize;
                    for &i in batch {
                        // Controls: uniform from the risk-set suffix.
                        let suffix_start = rank_of[i];
                        let suffix_len = samples.len() - suffix_start;
                        if suffix_len < 2 {
                            continue;
                        }
                        let t_i = samples[i].duration / time_scale;
                        let event_len = inputs.len();
                        push_input(inputs, t_i, &scaled[i]);
                        let first = rows;
                        rows += 1;
                        for _ in 0..config.controls_per_event {
                            let pick = by_duration[suffix_start + rng.random_range(0..suffix_len)];
                            if pick != i {
                                push_input(inputs, t_i, &scaled[pick]);
                                rows += 1;
                            }
                        }
                        if rows == first + 1 {
                            // Every control was the event itself: no loss
                            // term.
                            inputs.truncate(event_len);
                            rows = first;
                            continue;
                        }
                        groups.push((first, rows - first - 1));
                    }
                    let batch_events = groups.len();
                    sample_epochs += batch_events;
                    if batch_events == 0 {
                        continue;
                    }
                    first_half.rows = rows;
                    // Phase 1, by rows: the second lane takes the groups
                    // past the middle group boundary (none on one lane).
                    first_half.hand_over(batch_events.div_ceil(lanes), width, second_half);
                    let net_ref: &Mlp = net;
                    helper.join(
                        || first_half.backprop(net_ref),
                        || second_half.backprop(net_ref),
                    );
                    // Phase 2, by parameters: each lane adds every row's
                    // contribution, segment after segment, to its own
                    // range of output neurons' weights and biases.
                    let both = [&first_half.cache, &second_half.cache];
                    let segments = if second_half.groups.is_empty() {
                        &both[..1]
                    } else {
                        &both[..]
                    };
                    acc.fill(0.0);
                    let (low, high) = acc.split_at_mut(cut);
                    helper.join(
                        || net_ref.accumulate_gradients(segments, 0, low),
                        || net_ref.accumulate_gradients(segments, cut, high),
                    );
                    let inv = 1.0 / batch_events as f64;
                    for g in &mut acc {
                        *g *= inv;
                    }
                    adam.step_flat(&mut *net, &acc);
                }
            }
        });
        anubis_obs::counter!("coxtime.trainer.sample_epochs", sample_epochs as i64);
        self.epochs_trained += epochs;
        Ok(())
    }

    /// Computes the Breslow baseline hazard from the current network and
    /// sample set, returning a fitted [`CoxTimeModel`] snapshot. The
    /// trainer stays usable for further ingestion and training.
    ///
    /// # Errors
    ///
    /// Returns [`MetricsError::InsufficientData`] if no absorbed sample
    /// is an event.
    pub fn finish(&self) -> Result<CoxTimeModel, MetricsError> {
        let _span = anubis_obs::span!("coxtime.trainer.finish");
        let samples = &self.samples;
        let by_duration = &self.by_duration;
        let config = &self.config;
        let net = &self.net;
        let events: Vec<usize> = (0..samples.len()).filter(|&i| samples[i].event).collect();
        if events.is_empty() {
            return Err(MetricsError::InsufficientData {
                required: 1,
                actual: 0,
            });
        }
        let features: Vec<Vec<f64>> = samples.iter().map(|s| s.status.features()).collect();
        let scaler = StandardScaler::fit(&features);
        let scaled: Vec<Vec<f64>> = scaler.transform_all(&features);
        let time_scale = time_scale_of(samples);
        let threads = config.threads;

        // Breslow baseline hazard on a bucketed event-time grid. Buckets
        // are kept small and anchored at their median event time so the
        // risk-set size is representative of the deaths inside (a coarse
        // bucket anchored at its first event systematically understates
        // late hazards).
        let mut event_times: Vec<f64> = events.iter().map(|&i| samples[i].duration).collect();
        event_times.sort_by(f64::total_cmp);
        let buckets = config.baseline_buckets.max(1).min(event_times.len());
        let per_bucket = event_times.len().div_ceil(buckets);
        // Bucket geometry is cheap and sequential; each bucket's risk-set
        // sum then runs on its own worker, folding in the by_duration
        // suffix order the sequential loop used.
        let mut specs: Vec<(f64, f64, f64, usize)> = Vec::with_capacity(buckets);
        let mut k = 0usize;
        while k < event_times.len() {
            let end = (k + per_bucket).min(event_times.len());
            let t_bucket = event_times[end - 1];
            let t_mid = event_times[(k + end - 1) / 2];
            let deaths = (end - k) as f64;
            // Risk set: samples still at risk at the bucket's median
            // event.
            let start_rank = by_duration.partition_point(|&i| samples[i].duration < t_mid);
            specs.push((t_bucket, t_mid, deaths, start_rank));
            k = end;
        }
        let net_ref: &Mlp = net;
        let baseline: Vec<(f64, f64)> = anubis_parallel::map_items(
            &specs,
            threads,
            |&(t_bucket, t_mid, deaths, start_rank)| {
                // The risk-set suffix runs through the network in
                // fixed-size row blocks, so scratch is bounded by the
                // block, not the sample count; `exp` still sums in
                // `by_duration` order.
                let mut cache = BatchCache::default();
                let mut inputs: Vec<f64> = Vec::new();
                let mut risk_sum = 0.0;
                for block in by_duration[start_rank..].chunks(FINISH_BLOCK_ROWS) {
                    inputs.clear();
                    for &j in block {
                        push_input(&mut inputs, t_mid / time_scale, &scaled[j]);
                    }
                    net_ref.forward_batch(&inputs, block.len(), &mut cache);
                    for r in 0..block.len() {
                        risk_sum += cache.output(r)[0].exp();
                    }
                }
                let delta = if risk_sum > 0.0 {
                    deaths / risk_sum
                } else {
                    0.0
                };
                (t_bucket, delta)
            },
        );

        Ok(CoxTimeModel {
            net: self.net.clone(),
            scaler,
            time_scale,
            baseline,
        })
    }

    /// Warm refit: absorbs `delta` and runs `epochs` more epochs from the
    /// current parameters, returning the refreshed model. Approximate by
    /// design — the savings come from not replaying every historical
    /// epoch against the grown sample set.
    pub fn refit(
        &mut self,
        delta: &[SurvivalSample],
        epochs: usize,
    ) -> Result<CoxTimeModel, MetricsError> {
        self.ingest(delta);
        self.train(epochs)?;
        self.finish()
    }
}

/// `max(duration) ∨ 1` — the time normalization a cold fit derives. A
/// sequential max fold over sample order, so the value is independent of
/// how ingestion batched the samples.
fn time_scale_of(samples: &[SurvivalSample]) -> f64 {
    samples
        .iter()
        .map(|s| s.duration)
        .fold(0.0f64, f64::max)
        .max(1.0)
}

/// Rows per network batch when [`CoxTimeTrainer::finish`] sums a Breslow
/// bucket's risk set.
const FINISH_BLOCK_ROWS: usize = 64;

/// Row budget per network batch of [`CoxTimeModel::joint_survival`]: a
/// decision's members go through in blocks of whole members, so a large
/// node set over a long horizon never holds more than about this many
/// rows of activations at once.
const JOINT_BLOCK_ROWS: usize = 128;

/// `S(t|x) = exp(−Σₖ ΔH₀(tₖ)·e^{g(tₖ,x)})` over `grid`, whose risks are
/// rows `first..first + grid.len()` of `risks`; the sum runs in grid
/// order.
fn survival_over(grid: &[(f64, f64)], risks: &BatchCache, first: usize) -> f64 {
    let mut cumulative = 0.0;
    for (k, &(_, delta)) in grid.iter().enumerate() {
        cumulative += delta * risks.output(first + k)[0].exp();
    }
    (-cumulative).exp()
}

/// Appends one network input row: the normalized time, then the scaled
/// features.
fn push_input(inputs: &mut Vec<f64>, t_scaled: f64, x: &[f64]) {
    inputs.push(t_scaled);
    inputs.extend_from_slice(x);
}

/// One lane's half of a training minibatch: whole event groups, their
/// stacked network rows (each event followed by its controls) and the
/// per-row state computed from them.
#[derive(Debug, Default)]
struct Half {
    inputs: Vec<f64>,
    rows: usize,
    /// `(first row, control count)` per event, rows relative to this
    /// half.
    groups: Vec<(usize, usize)>,
    output_grads: Vec<f64>,
    exps: Vec<f64>,
    cache: BatchCache,
}

impl Half {
    /// Moves the groups from `keep` on, and their rows, to `other`.
    fn hand_over(&mut self, keep: usize, width: usize, other: &mut Self) {
        let split_row = self.groups.get(keep).map_or(self.rows, |&(first, _)| first);
        other.inputs.clear();
        other.inputs.extend(self.inputs.drain(split_row * width..));
        other.groups.clear();
        other.groups.extend(
            self.groups
                .drain(keep..)
                .map(|(first, controls)| (first - split_row, controls)),
        );
        other.rows = self.rows - split_row;
        self.rows = split_row;
    }

    /// The forward pass, the loss gradients of this half's groups and
    /// every layer's δ; nothing for a half without groups.
    fn backprop(&mut self, net: &Mlp) {
        if self.groups.is_empty() {
            return;
        }
        net.forward_batch(&self.inputs, self.rows, &mut self.cache);
        // Softplus-style loss per event: ln(1 + Σ exp(g_j − g_i)).
        self.output_grads.clear();
        for &(first, controls) in &self.groups {
            let g_i = self.cache.output(first)[0];
            self.exps.clear();
            for c in first + 1..=first + controls {
                self.exps.push((self.cache.output(c)[0] - g_i).exp());
            }
            let denom = 1.0 + self.exps.iter().sum::<f64>();
            self.output_grads.push(-(denom - 1.0) / denom);
            self.output_grads
                .extend(self.exps.iter().map(|&e| e / denom));
        }
        net.backprop_deltas(&mut self.cache, &self.output_grads);
    }
}

impl SurvivalModel for CoxTimeModel {
    fn expected_tbni(&self, status: &NodeStatus) -> f64 {
        // ∫₀^cap S(t|x) dt over the piecewise-constant survival curve.
        // The integral reads the grid through its first time at or past
        // the cap; that prefix runs through the network as one batch.
        let prefix = self
            .baseline
            .iter()
            .position(|&(time, _)| time.min(TBNI_CAP_HOURS) >= TBNI_CAP_HOURS)
            .map_or(self.baseline.len(), |k| k + 1);
        let grid = &self.baseline[..prefix];
        let risks = self.log_risks(status, grid.iter().map(|&(time, _)| time));
        let mut integral = 0.0;
        let mut prev_t = 0.0;
        let mut survival = 1.0;
        let mut last_rate = 0.0;
        for (k, &(time, delta)) in grid.iter().enumerate() {
            let t = time.min(TBNI_CAP_HOURS);
            let risk = risks.output(k)[0].exp();
            if t > prev_t {
                integral += survival * (t - prev_t);
                last_rate = delta * risk / (t - prev_t);
                prev_t = t;
            }
            survival *= (-delta * risk).exp();
        }
        if prev_t < TBNI_CAP_HOURS {
            // Beyond the last observed event time, extrapolate the hazard
            // at the tail rate instead of freezing survival (which would
            // systematically inflate predictions toward the cap).
            let remaining = TBNI_CAP_HOURS - prev_t;
            if last_rate > 1e-12 {
                integral += survival * (1.0 - (-last_rate * remaining).exp()) / last_rate;
            } else {
                integral += survival * remaining;
            }
        }
        integral.min(TBNI_CAP_HOURS)
    }

    fn incident_probability(&self, status: &NodeStatus, horizon: f64) -> f64 {
        (1.0 - self.survival(status, horizon.max(0.0))).clamp(0.0, 1.0)
    }

    /// The per-node fold with every member's grid rows in one network
    /// batch (blocks of whole members up to [`JOINT_BLOCK_ROWS`]) instead
    /// of one batch per member. Rows of a batch are bit-identical to
    /// one-row evaluations, and each member's survival, clamp and product
    /// step run in the default's order, so the result keeps its bits.
    fn joint_survival(&self, statuses: &[NodeStatus], horizon: f64) -> f64 {
        let grid = self.grid_through(horizon.max(0.0));
        let per_block = (JOINT_BLOCK_ROWS / grid.len().max(1)).max(1);
        let width = 1 + self.scaler.dim();
        let mut inputs = Vec::with_capacity(per_block.min(statuses.len()) * grid.len() * width);
        let mut risks = BatchCache::default();
        let mut survive_all = 1.0;
        for block in statuses.chunks(per_block) {
            inputs.clear();
            for status in block {
                self.push_rows(&mut inputs, status, grid.iter().map(|&(time, _)| time));
            }
            self.net
                .forward_batch(&inputs, block.len() * grid.len(), &mut risks);
            for m in 0..block.len() {
                let p = (1.0 - survival_over(grid, &risks, m * grid.len())).clamp(0.0, 1.0);
                survive_all *= 1.0 - p;
            }
        }
        survive_all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anubis_hwsim::fault::IncidentCategory;
    use anubis_hwsim::noise::exponential;

    /// Two node populations: healthy (few incidents, long TBNI) and worn
    /// (many incidents, short TBNI).
    fn synthetic_samples(n: usize, seed: u64) -> Vec<SurvivalSample> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut samples = Vec::with_capacity(n);
        for k in 0..n {
            let worn = k % 2 == 1;
            let mut status = NodeStatus::fresh();
            status.advance(200.0 + rng.random_range(0.0..400.0));
            let incidents = if worn {
                8 + (k % 5) as u32
            } else {
                (k % 2) as u32
            };
            for _ in 0..incidents {
                status.record_incident(IncidentCategory::GpuCompute);
            }
            status.hours_since_last_incident = rng.random_range(0.0..50.0);
            let mean = if worn { 60.0 } else { 700.0 };
            let duration = exponential(&mut rng, 1.0 / mean).min(2400.0);
            samples.push(SurvivalSample {
                status,
                duration,
                event: true,
            });
        }
        samples
    }

    fn quick_config() -> CoxTimeConfig {
        CoxTimeConfig {
            epochs: 12,
            hidden: vec![16, 16],
            baseline_buckets: 32,
            ..Default::default()
        }
    }

    fn worn_status() -> NodeStatus {
        let mut s = NodeStatus::fresh();
        s.advance(400.0);
        for _ in 0..10 {
            s.record_incident(IncidentCategory::GpuCompute);
        }
        s
    }

    fn healthy_status() -> NodeStatus {
        let mut s = NodeStatus::fresh();
        s.advance(400.0);
        s
    }

    #[test]
    fn learns_to_separate_populations() {
        let samples = synthetic_samples(400, 1);
        let model = CoxTimeModel::fit(&samples, &quick_config()).unwrap();
        let healthy_tbni = model.expected_tbni(&healthy_status());
        let worn_tbni = model.expected_tbni(&worn_status());
        assert!(
            healthy_tbni > 2.0 * worn_tbni,
            "healthy {healthy_tbni} vs worn {worn_tbni}"
        );
        assert!(
            model.incident_probability(&worn_status(), 48.0)
                > model.incident_probability(&healthy_status(), 48.0)
        );
    }

    #[test]
    fn survival_curve_is_a_valid_survival_function() {
        let samples = synthetic_samples(200, 2);
        let model = CoxTimeModel::fit(&samples, &quick_config()).unwrap();
        let status = healthy_status();
        assert!((model.survival(&status, 0.0) - 1.0).abs() < 1e-9);
        let mut last = 1.0;
        for t in [10.0, 50.0, 200.0, 800.0, 2400.0] {
            let s = model.survival(&status, t);
            assert!((0.0..=1.0).contains(&s));
            assert!(s <= last + 1e-12, "monotone non-increasing");
            last = s;
        }
    }

    #[test]
    fn probability_bounds_and_monotonicity() {
        let samples = synthetic_samples(200, 3);
        let model = CoxTimeModel::fit(&samples, &quick_config()).unwrap();
        let status = worn_status();
        let mut last = 0.0;
        for h in [0.0, 6.0, 24.0, 120.0, 1000.0] {
            let p = model.incident_probability(&status, h);
            assert!((0.0..=1.0).contains(&p));
            assert!(p >= last - 1e-12);
            last = p;
        }
    }

    #[test]
    fn beats_global_exponential_on_heterogeneous_data() {
        use crate::survival::{model_accuracy, ExponentialModel};
        let train = synthetic_samples(400, 4);
        let test = synthetic_samples(120, 5);
        let cox = CoxTimeModel::fit(&train, &quick_config()).unwrap();
        let exp = ExponentialModel::fit(&train);
        let acc_cox = model_accuracy(&cox, &test);
        let acc_exp = model_accuracy(&exp, &test);
        assert!(
            acc_cox > acc_exp,
            "Cox-Time {acc_cox} must beat exponential {acc_exp}"
        );
    }

    #[test]
    fn rejects_event_free_training_data() {
        let mut samples = synthetic_samples(10, 6);
        for s in &mut samples {
            s.event = false;
        }
        assert!(matches!(
            CoxTimeModel::fit(&samples, &quick_config()),
            Err(MetricsError::InsufficientData {
                required: 1,
                actual: 0
            })
        ));
    }

    #[test]
    fn fit_is_bit_identical_across_thread_counts() {
        let samples = synthetic_samples(150, 9);
        let fit_with = |threads: usize| {
            let config = CoxTimeConfig {
                threads,
                epochs: 4,
                hidden: vec![12],
                baseline_buckets: 16,
                ..Default::default()
            };
            CoxTimeModel::fit(&samples, &config).unwrap()
        };
        let reference = fit_with(1);
        for threads in [2, 8] {
            let model = fit_with(threads);
            assert_eq!(reference.baseline(), model.baseline());
            for status in [healthy_status(), worn_status()] {
                assert_eq!(
                    reference.expected_tbni(&status),
                    model.expected_tbni(&status)
                );
                assert_eq!(
                    reference.survival(&status, 100.0),
                    model.survival(&status, 100.0)
                );
            }
        }
    }

    /// Bit-equality of two fitted models over a probe set (baseline grid
    /// plus predictions; `==`, not tolerance).
    fn assert_models_bit_equal(a: &CoxTimeModel, b: &CoxTimeModel) {
        assert_eq!(a.baseline(), b.baseline());
        for status in [healthy_status(), worn_status()] {
            assert_eq!(a.expected_tbni(&status), b.expected_tbni(&status));
            for t in [10.0, 100.0, 900.0] {
                assert_eq!(a.survival(&status, t), b.survival(&status, t));
                assert_eq!(a.log_risk(&status, t), b.log_risk(&status, t));
            }
        }
    }

    #[test]
    fn staged_ingestion_matches_cold_fit_bitwise() {
        // Ingesting the sample list in pieces (including one-at-a-time
        // dribble for the tail) must reconstruct the derived dataset
        // state exactly, so training afterwards equals the cold fit to
        // the last bit.
        let samples = synthetic_samples(120, 11);
        let config = CoxTimeConfig {
            epochs: 4,
            hidden: vec![12],
            baseline_buckets: 16,
            ..Default::default()
        };
        let cold = CoxTimeModel::fit(&samples, &config).unwrap();
        for split in [1usize, 40, 119] {
            let mut trainer = CoxTimeTrainer::new(config.clone());
            trainer.ingest(&samples[..split]);
            for s in &samples[split..] {
                trainer.ingest(std::slice::from_ref(s));
            }
            assert_eq!(trainer.len(), samples.len());
            trainer.train(config.epochs).unwrap();
            let warm = trainer.finish().unwrap();
            assert_models_bit_equal(&cold, &warm);
        }
    }

    #[test]
    fn checkpoint_resume_matches_single_run_bitwise() {
        let samples = synthetic_samples(100, 12);
        let config = CoxTimeConfig {
            epochs: 6,
            hidden: vec![12],
            baseline_buckets: 16,
            ..Default::default()
        };
        let mut single = CoxTimeTrainer::new(config.clone());
        single.ingest(&samples);
        single.train(6).unwrap();
        let mut resumed = CoxTimeTrainer::new(config.clone());
        resumed.ingest(&samples);
        resumed.train(2).unwrap();
        // An intermediate snapshot must not perturb later training.
        let _checkpoint = resumed.finish().unwrap();
        resumed.train(4).unwrap();
        assert_eq!(single.epochs_trained(), resumed.epochs_trained());
        assert_models_bit_equal(&single.finish().unwrap(), &resumed.finish().unwrap());
    }

    #[test]
    fn merge_kernel_reproduces_a_stable_sort() {
        // Durations with deliberate ties across the old/new boundary: the
        // merged order must equal a stable sort of the concatenation.
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let mut samples = Vec::new();
        for _ in 0..64 {
            let mut s = synthetic_samples(1, 3).remove(0);
            s.duration = f64::from(rng.random_range(0..12u32));
            samples.push(s);
        }
        for split in [0usize, 1, 20, 63, 64] {
            let mut old: Vec<usize> = (0..split).collect();
            old.sort_by(|&a, &b| samples[a].duration.total_cmp(&samples[b].duration));
            let mut incoming: Vec<usize> = (split..samples.len()).collect();
            incoming.sort_by(|&a, &b| samples[a].duration.total_cmp(&samples[b].duration));
            let mut merged = Vec::new();
            warmstart_merge_into(&samples, &old, &incoming, &mut merged);
            let mut expected: Vec<usize> = (0..samples.len()).collect();
            expected.sort_by(|&a, &b| samples[a].duration.total_cmp(&samples[b].duration));
            assert_eq!(merged, expected, "split {split}");
        }
    }

    #[test]
    fn warm_refit_tracks_population_drift() {
        // A warm refit over a drifted delta must keep separating the
        // populations without replaying the original epochs.
        let initial = synthetic_samples(300, 13);
        let config = quick_config();
        let mut trainer = CoxTimeTrainer::new(config.clone());
        trainer.ingest(&initial);
        trainer.train(config.epochs).unwrap();
        let delta = synthetic_samples(100, 14);
        let refreshed = trainer.refit(&delta, 3).unwrap();
        assert_eq!(trainer.len(), 400);
        assert_eq!(trainer.epochs_trained(), config.epochs + 3);
        assert!(
            refreshed.expected_tbni(&healthy_status())
                > 2.0 * refreshed.expected_tbni(&worn_status())
        );
    }

    /// Every probe of [`pinned_fit`] as raw bits: the baseline grid, then
    /// per status `expected_tbni` and, per probe time, `survival` and
    /// `log_risk`.
    fn pinned_probe_bits(model: &CoxTimeModel) -> Vec<u64> {
        let mut bits = Vec::new();
        for &(t, delta) in model.baseline() {
            bits.extend([t.to_bits(), delta.to_bits()]);
        }
        for status in [healthy_status(), worn_status()] {
            bits.push(model.expected_tbni(&status).to_bits());
            for t in [0.0, 10.0, 100.0, 900.0, 4000.0] {
                bits.push(model.survival(&status, t).to_bits());
                bits.push(model.log_risk(&status, t).to_bits());
            }
        }
        bits
    }

    /// A small fit on odd shapes: hidden widths that are not multiples
    /// of any SIMD width, 3 controls, batches of 5 (some minibatches hold
    /// one event group, so the second lane's half is empty), censored
    /// rows, events past the TBNI cap, and late events whose risk set is
    /// themselves alone (`suffix_len < 2`) or so small that controls
    /// self-pick. Trained on `threads` threads.
    fn pinned_fit(threads: usize) -> CoxTimeModel {
        let mut samples = synthetic_samples(37, 17);
        for (k, s) in samples.iter_mut().enumerate() {
            s.event = k % 4 != 2;
        }
        samples[3].duration = 3100.0;
        samples[8].duration = 5000.0;
        samples[8].event = true;
        samples[11].duration = 4200.0;
        let config = CoxTimeConfig {
            hidden: vec![5, 7],
            epochs: 5,
            controls_per_event: 3,
            batch_size: 5,
            baseline_buckets: 9,
            threads,
            ..Default::default()
        };
        CoxTimeModel::fit(&samples, &config).unwrap()
    }

    #[test]
    fn fit_bits_are_pinned_across_commits() {
        // Recorded from the per-row kernels (one forward and one backward
        // call per row) before the batched kernels replaced them: the
        // batched path must reproduce every bit, inline on one thread and
        // split across the caller and a helper thread on two, whatever
        // the host's core count.
        for threads in [1, 2] {
            let bits = pinned_probe_bits(&pinned_fit(threads));
            assert_eq!(bits, PINNED_FIT_BITS, "threads {threads}");
        }
    }

    const PINNED_FIT_BITS: [u64; 36] = [
        0x4021bbf1afac150a,
        0x3fbba2e31cce14e4,
        0x40334fea17e11cdd,
        0x3fbf70351d055bfd,
        0x405438851e6752d5,
        0x3fc252535e7d3e2b,
        0x4062490c3be7a873,
        0x3fc605fe6309f7b2,
        0x407b43e1ed6815fe,
        0x3fcf6aa47dd75499,
        0x40a1a401cd4680a8,
        0x3fd694fb3b21a382,
        0x40b3880000000000,
        0x3ff4256f5b4cfead,
        0x409440f7628d0293,
        0x3ff0000000000000,
        0xbfc712fa8108fb06,
        0x3fed3dd3174433da,
        0xbfc712fa81026a41,
        0x3fe76b0f872fb28d,
        0xbfc712fa80c7563f,
        0x3fe0866e1d1baae5,
        0xbfc712fa7eb9730a,
        0x3fd89da42569a28e,
        0xbfc712fa763a40c8,
        0x4089810cd9d63b08,
        0x3ff0000000000000,
        0x3fd98d406d03d37d,
        0x3feb3e6de0d1844c,
        0x3fd98af8b80be6e9,
        0x3fe25529019743a5,
        0x3fd9757a0f4ad3c7,
        0x3fd3bd9a5092d465,
        0x3fd86a1eb3bf0a8f,
        0x3fc817cda74d8a40,
        0x3fd07509cfc27300,
    ];

    #[test]
    fn deterministic_given_seed() {
        let samples = synthetic_samples(100, 7);
        let a = CoxTimeModel::fit(&samples, &quick_config()).unwrap();
        let b = CoxTimeModel::fit(&samples, &quick_config()).unwrap();
        assert_eq!(
            a.expected_tbni(&healthy_status()),
            b.expected_tbni(&healthy_status())
        );
    }
}
