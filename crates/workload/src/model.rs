//! The representative model zoo.
//!
//! The paper picks foundational models by mining an internal training
//! platform's workload distribution and the most prevalent hyper-parameters
//! (batch size, sequence length). The analytic configs below use published
//! parameter counts and per-sample FLOPs; the *sensitivity* fields encode
//! how strongly each family responds to each hardware path, which is what
//! gives the simulated benchmarks the paper's detection profile (e.g.
//! ResNet barely stresses the network, GPT-2 stresses everything).

/// Model family, used for efficiency profiles and the Figure 5 mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelFamily {
    /// Convolutional networks.
    Cnn,
    /// Recurrent networks.
    Rnn,
    /// Attention-based models.
    Transformer,
}

/// Identifier of a zoo model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize)]
pub enum ModelId {
    /// ResNet-50.
    ResNet50,
    /// ResNet-101.
    ResNet101,
    /// ResNet-152.
    ResNet152,
    /// DenseNet-169.
    DenseNet169,
    /// DenseNet-201.
    DenseNet201,
    /// VGG-11.
    Vgg11,
    /// VGG-13.
    Vgg13,
    /// VGG-16.
    Vgg16,
    /// VGG-19.
    Vgg19,
    /// 2-layer LSTM language model.
    Lstm,
    /// BERT-large.
    BertLarge,
    /// GPT-2 small (124M).
    Gpt2Small,
    /// GPT-2 large (774M).
    Gpt2Large,
}

impl ModelId {
    /// Every model in the zoo, in Table 2 order.
    pub const ALL: [ModelId; 13] = [
        ModelId::ResNet50,
        ModelId::ResNet101,
        ModelId::ResNet152,
        ModelId::DenseNet169,
        ModelId::DenseNet201,
        ModelId::Vgg11,
        ModelId::Vgg13,
        ModelId::Vgg16,
        ModelId::Vgg19,
        ModelId::Lstm,
        ModelId::BertLarge,
        ModelId::Gpt2Small,
        ModelId::Gpt2Large,
    ];

    /// The representative per-family subset used in the Figure 9 / Table 5
    /// experiments (ResNet, DenseNet, VGG, LSTM, BERT, GPT-2).
    pub const REPRESENTATIVES: [ModelId; 6] = [
        ModelId::ResNet50,
        ModelId::DenseNet169,
        ModelId::Vgg16,
        ModelId::Lstm,
        ModelId::BertLarge,
        ModelId::Gpt2Small,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Self::ResNet50 => "ResNet-50",
            Self::ResNet101 => "ResNet-101",
            Self::ResNet152 => "ResNet-152",
            Self::DenseNet169 => "DenseNet-169",
            Self::DenseNet201 => "DenseNet-201",
            Self::Vgg11 => "VGG-11",
            Self::Vgg13 => "VGG-13",
            Self::Vgg16 => "VGG-16",
            Self::Vgg19 => "VGG-19",
            Self::Lstm => "LSTM",
            Self::BertLarge => "BERT-large",
            Self::Gpt2Small => "GPT-2 small",
            Self::Gpt2Large => "GPT-2 large",
        }
    }

    /// Analytic configuration of the model.
    pub fn config(&self) -> ModelConfig {
        match self {
            Self::ResNet50 => ModelConfig::cnn(*self, 25.6e6, 4.1e9, 192, 180),
            Self::ResNet101 => ModelConfig::cnn(*self, 44.5e6, 7.8e9, 192, 340),
            Self::ResNet152 => ModelConfig::cnn(*self, 60.2e6, 11.5e9, 128, 500),
            Self::DenseNet169 => ModelConfig::cnn(*self, 14.1e6, 3.4e9, 128, 590),
            Self::DenseNet201 => ModelConfig::cnn(*self, 20.0e6, 4.3e9, 128, 700),
            Self::Vgg11 => ModelConfig::cnn(*self, 132.9e6, 7.6e9, 128, 40),
            Self::Vgg13 => ModelConfig::cnn(*self, 133.0e6, 11.3e9, 128, 45),
            Self::Vgg16 => ModelConfig::cnn(*self, 138.4e6, 15.5e9, 128, 55),
            Self::Vgg19 => ModelConfig::cnn(*self, 143.7e6, 19.6e9, 96, 65),
            Self::Lstm => ModelConfig {
                id: *self,
                family: ModelFamily::Rnn,
                parameters: 33.0e6,
                forward_flops_per_sample: 8.4e9,
                batch_size_per_gpu: 64,
                sequence_length: 128,
                kernels_per_step: 3200, // seq_len × gates × layers: launch-bound
                mfu: 0.18,
                memory_sensitivity: 0.55,
                overlap_efficiency: 0.55,
            },
            Self::BertLarge => ModelConfig {
                id: *self,
                family: ModelFamily::Transformer,
                parameters: 340.0e6,
                forward_flops_per_sample: 120.0e9,
                batch_size_per_gpu: 32,
                sequence_length: 128,
                kernels_per_step: 900,
                mfu: 0.48,
                memory_sensitivity: 0.25,
                overlap_efficiency: 0.75,
            },
            Self::Gpt2Small => ModelConfig {
                id: *self,
                family: ModelFamily::Transformer,
                parameters: 124.0e6,
                forward_flops_per_sample: 290.0e9,
                batch_size_per_gpu: 16,
                sequence_length: 1024,
                kernels_per_step: 600,
                mfu: 0.5,
                memory_sensitivity: 0.22,
                overlap_efficiency: 0.78,
            },
            Self::Gpt2Large => ModelConfig {
                id: *self,
                family: ModelFamily::Transformer,
                parameters: 774.0e6,
                forward_flops_per_sample: 1.75e12,
                batch_size_per_gpu: 8,
                sequence_length: 1024,
                kernels_per_step: 1800,
                mfu: 0.52,
                memory_sensitivity: 0.2,
                overlap_efficiency: 0.8,
            },
        }
    }
}

/// Analytic cost model of one training workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelConfig {
    /// Which zoo model this is.
    pub id: ModelId,
    /// Model family.
    pub family: ModelFamily,
    /// Trainable parameter count.
    pub parameters: f64,
    /// Forward-pass FLOPs per sample (training costs ≈ 3×).
    pub forward_flops_per_sample: f64,
    /// Most prevalent per-GPU batch size.
    pub batch_size_per_gpu: usize,
    /// Sequence length (1 for CNNs).
    pub sequence_length: usize,
    /// Kernel launches per step (drives launch-overhead sensitivity).
    pub kernels_per_step: usize,
    /// Model FLOPs utilization on healthy hardware.
    pub mfu: f64,
    /// Exponent of the HBM-bandwidth factor in effective compute rate:
    /// 0 = pure compute-bound, 1 = pure memory-bound.
    pub memory_sensitivity: f64,
    /// Fraction of communication hidden behind compute on healthy nodes.
    pub overlap_efficiency: f64,
}

impl ModelConfig {
    fn cnn(
        id: ModelId,
        parameters: f64,
        forward_flops: f64,
        batch: usize,
        layers_kernels: usize,
    ) -> Self {
        Self {
            id,
            family: ModelFamily::Cnn,
            parameters,
            forward_flops_per_sample: forward_flops,
            batch_size_per_gpu: batch,
            sequence_length: 1,
            kernels_per_step: layers_kernels * 3,
            mfu: 0.42,
            memory_sensitivity: 0.35,
            overlap_efficiency: 0.65,
        }
    }

    /// Training FLOPs per step per GPU (forward + backward ≈ 3×).
    pub fn train_flops_per_step_per_gpu(&self) -> f64 {
        3.0 * self.forward_flops_per_sample * self.batch_size_per_gpu as f64
    }

    /// Gradient bytes exchanged per step (FP16 gradients: 2 bytes each).
    pub fn gradient_bytes(&self) -> f64 {
        self.parameters * 2.0
    }

    /// Rough communication-to-computation intensity: gradient bytes per
    /// training GFLOP. VGG (heavy parameters, light compute) scores high,
    /// ResNet low — which is why defective links hit VGG harder.
    pub fn comm_intensity(&self) -> f64 {
        self.gradient_bytes() / (self.train_flops_per_step_per_gpu() / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zoo_is_complete_and_named() {
        assert_eq!(ModelId::ALL.len(), 13);
        for id in ModelId::ALL {
            let cfg = id.config();
            assert_eq!(cfg.id, id);
            assert!(!id.name().is_empty());
            assert!(cfg.parameters > 1e6, "{}", id.name());
            assert!(cfg.forward_flops_per_sample > 1e9, "{}", id.name());
            assert!(cfg.batch_size_per_gpu > 0);
            assert!(cfg.mfu > 0.0 && cfg.mfu < 1.0);
            assert!((0.0..=1.0).contains(&cfg.memory_sensitivity));
            assert!((0.0..=1.0).contains(&cfg.overlap_efficiency));
        }
    }

    #[test]
    fn representatives_cover_families() {
        for family in [ModelFamily::Cnn, ModelFamily::Rnn, ModelFamily::Transformer] {
            assert!(
                ModelId::REPRESENTATIVES
                    .iter()
                    .any(|m| m.config().family == family),
                "{family:?} has no representative"
            );
        }
    }

    #[test]
    fn vgg_is_more_comm_intense_than_resnet() {
        let vgg = ModelId::Vgg16.config().comm_intensity();
        let resnet = ModelId::ResNet50.config().comm_intensity();
        assert!(
            vgg > 1.5 * resnet,
            "VGG comm intensity {vgg} should clearly exceed ResNet {resnet}"
        );
    }

    #[test]
    fn lstm_is_launch_bound() {
        let lstm = ModelId::Lstm.config();
        let bert = ModelId::BertLarge.config();
        assert!(lstm.kernels_per_step > 3 * bert.kernels_per_step);
        assert!(lstm.mfu < bert.mfu);
    }

    #[test]
    fn bigger_models_cost_more() {
        let small = ModelId::Gpt2Small.config();
        let large = ModelId::Gpt2Large.config();
        assert!(large.parameters > small.parameters);
        assert!(large.train_flops_per_step_per_gpu() > small.train_flops_per_step_per_gpu());
    }
}
