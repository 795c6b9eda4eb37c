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
use anubis_nn::{Activation, Adam, BackwardScratch, ForwardCache, Mlp, StandardScaler};
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
    /// Worker threads for the Breslow baseline loop (`0` = auto, see
    /// [`anubis_parallel::auto_threads`]); training always runs on the
    /// calling thread. The fitted model is bit-identical at any thread
    /// count.
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
        RiskEval::new(self, status).log_risk(t)
    }

    /// Survival probability `S(t|x)`.
    pub fn survival(&self, status: &NodeStatus, t: f64) -> f64 {
        let mut eval = RiskEval::new(self, status);
        let mut cumulative = 0.0;
        for &(time, delta) in &self.baseline {
            if time > t {
                break;
            }
            cumulative += delta * eval.log_risk(time).exp();
        }
        (-cumulative).exp()
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
        let input_dim = 1 + NodeStatus::fresh().features().len();
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

        let fill_input = |input: &mut Vec<f64>, t: f64, x: &[f64]| {
            input.clear();
            input.push(t / time_scale);
            input.extend_from_slice(x);
        };

        // Flat per-batch gradient accumulator (canonical parameter order)
        // and forward/backward scratch, all reused across the whole fit.
        let mut acc = vec![0.0f64; net.parameter_count()];
        let mut scratch = BackwardScratch::default();
        let mut cache_i = net.empty_cache();
        let mut caches: Vec<ForwardCache> = Vec::new();
        let mut input: Vec<f64> = Vec::new();
        let mut exps: Vec<f64> = Vec::new();
        let mut controls_buf: Vec<usize> = Vec::new();
        let order = &mut self.order;
        if self.order_dirty {
            order.clear();
            order.extend_from_slice(&events);
            self.order_dirty = false;
        }
        // Events that ran a forward and backward pass, summed per
        // minibatch: the exact training work, published once at the end.
        let mut sample_epochs = 0usize;
        // Training runs on the calling thread. A 32-event minibatch is
        // well under a millisecond of work, too fine a grain to fan out:
        // splitting it needs one gradient buffer per backward call and a
        // serial merge that costs as much as the backward pass itself.
        for _ in 0..epochs {
            order.shuffle(&mut *rng);
            for batch in order.chunks(config.batch_size.max(1)) {
                // Each backward call adds straight into `acc`, in event
                // order; the RNG draws interleave with the compute.
                acc.fill(0.0);
                let mut batch_events = 0usize;
                for &i in batch {
                    // Controls: uniform from the risk-set suffix.
                    let suffix_start = rank_of[i];
                    let suffix_len = samples.len() - suffix_start;
                    if suffix_len < 2 {
                        continue;
                    }
                    controls_buf.clear();
                    for _ in 0..config.controls_per_event {
                        let pick = by_duration[suffix_start + rng.random_range(0..suffix_len)];
                        if pick != i {
                            controls_buf.push(pick);
                        }
                    }
                    if controls_buf.is_empty() {
                        continue;
                    }
                    batch_events += 1;
                    let t_i = samples[i].duration;
                    fill_input(&mut input, t_i, &scaled[i]);
                    net.forward_into(&input, &mut cache_i);
                    let g_i = cache_i.output()[0];
                    while caches.len() < controls_buf.len() {
                        caches.push(net.empty_cache());
                    }
                    exps.clear();
                    for (c, &j) in controls_buf.iter().enumerate() {
                        fill_input(&mut input, t_i, &scaled[j]);
                        net.forward_into(&input, &mut caches[c]);
                        // Softplus-style loss: ln(1 + Σ exp(g_j − g_i)).
                        exps.push((caches[c].output()[0] - g_i).exp());
                    }
                    let denom = 1.0 + exps.iter().sum::<f64>();
                    net.backward_flat(&cache_i, &[-(denom - 1.0) / denom], &mut acc, &mut scratch);
                    for (c, &e) in exps.iter().enumerate() {
                        net.backward_flat(&caches[c], &[e / denom], &mut acc, &mut scratch);
                    }
                }
                sample_epochs += batch_events;
                if batch_events == 0 {
                    continue;
                }
                let inv = 1.0 / batch_events as f64;
                for g in &mut acc {
                    *g *= inv;
                }
                adam.step_flat(&mut *net, &acc);
            }
        }
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
        let fill_input = |input: &mut Vec<f64>, t: f64, x: &[f64]| {
            input.clear();
            input.push(t / time_scale);
            input.extend_from_slice(x);
        };
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
                let mut cache = net_ref.empty_cache();
                let mut input: Vec<f64> = Vec::new();
                let risk_sum: f64 = by_duration[start_rank..]
                    .iter()
                    .map(|&j| {
                        fill_input(&mut input, t_mid, &scaled[j]);
                        net_ref.forward_scalar_into(&input, &mut cache).exp()
                    })
                    .sum();
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

/// Per-status evaluation state: features are scaled once and the forward
/// cache plus input buffer are reused across baseline buckets, instead of
/// re-deriving them for every `log_risk` call.
struct RiskEval<'m> {
    model: &'m CoxTimeModel,
    x: Vec<f64>,
    input: Vec<f64>,
    cache: ForwardCache,
}

impl<'m> RiskEval<'m> {
    fn new(model: &'m CoxTimeModel, status: &NodeStatus) -> Self {
        let x = model.scaler.transform(&status.features());
        Self {
            input: Vec::with_capacity(1 + x.len()),
            cache: model.net.empty_cache(),
            model,
            x,
        }
    }

    /// `g(t, x)` — bit-identical to [`CoxTimeModel::log_risk`].
    fn log_risk(&mut self, t: f64) -> f64 {
        self.input.clear();
        self.input.push(t / self.model.time_scale);
        self.input.extend_from_slice(&self.x);
        self.model
            .net
            .forward_scalar_into(&self.input, &mut self.cache)
    }
}

impl SurvivalModel for CoxTimeModel {
    fn expected_tbni(&self, status: &NodeStatus) -> f64 {
        // ∫₀^cap S(t|x) dt over the piecewise-constant survival curve.
        let mut eval = RiskEval::new(self, status);
        let mut integral = 0.0;
        let mut prev_t = 0.0;
        let mut survival = 1.0;
        let mut last_rate = 0.0;
        for &(time, delta) in &self.baseline {
            let t = time.min(TBNI_CAP_HOURS);
            // One network evaluation per bucket (the sequential code
            // recomputed this identical value up to twice).
            let risk = eval.log_risk(time).exp();
            if t > prev_t {
                integral += survival * (t - prev_t);
                last_rate = delta * risk / (t - prev_t);
                prev_t = t;
            }
            survival *= (-delta * risk).exp();
            if prev_t >= TBNI_CAP_HOURS {
                break;
            }
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
