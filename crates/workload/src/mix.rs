//! Multi-tenant workload-mix model (Figure 5).

use crate::model::ModelId;
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// One slice of the cluster's GPU-job mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadClass {
    /// Human-readable label as it appears in Figure 5.
    pub label: &'static str,
    /// Fraction of GPU jobs in `[0, 1]`.
    pub share: f64,
    /// The zoo benchmark representing this class, when one exists.
    /// Unidentified / other workloads have none — they are exactly the gap
    /// micro-benchmarks exist to cover.
    pub representative: Option<ModelId>,
}

/// The Figure 5 job mix of a large multi-tenant AI cluster.
///
/// The paper analyzed 56k+ GPU jobs: three major categories (Transformers,
/// CNN, others), with 35.5% of Transformers unidentifiable from command
/// lines/logs. Shares below are calibrated to that description and sum to
/// 1.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadMix {
    classes: Vec<WorkloadClass>,
}

impl WorkloadMix {
    /// The Azure-internal mix the paper reports.
    pub fn azure_internal() -> Self {
        let classes = vec![
            WorkloadClass {
                label: "BERT",
                share: 0.089,
                representative: Some(ModelId::BertLarge),
            },
            WorkloadClass {
                label: "GPT",
                share: 0.078,
                representative: Some(ModelId::Gpt2Small),
            },
            WorkloadClass {
                label: "other Transformer",
                share: 0.092,
                representative: Some(ModelId::Gpt2Large),
            },
            WorkloadClass {
                label: "unidentified Transformer",
                share: 0.143,
                representative: None,
            },
            WorkloadClass {
                label: "ResNet",
                share: 0.141,
                representative: Some(ModelId::ResNet50),
            },
            WorkloadClass {
                label: "VGG",
                share: 0.062,
                representative: Some(ModelId::Vgg16),
            },
            WorkloadClass {
                label: "DenseNet",
                share: 0.048,
                representative: Some(ModelId::DenseNet169),
            },
            WorkloadClass {
                label: "other CNN",
                share: 0.092,
                representative: None,
            },
            WorkloadClass {
                label: "RNN/LSTM",
                share: 0.055,
                representative: Some(ModelId::Lstm),
            },
            WorkloadClass {
                label: "other/unknown",
                share: 0.2,
                representative: None,
            },
        ];
        Self { classes }
    }

    /// The class slices.
    pub fn classes(&self) -> &[WorkloadClass] {
        &self.classes
    }

    /// Total share of Transformer-family jobs.
    pub fn transformer_share(&self) -> f64 {
        self.classes
            .iter()
            .filter(|c| c.label.contains("Transformer") || c.label == "BERT" || c.label == "GPT")
            .map(|c| c.share)
            .sum()
    }

    /// Samples a workload class proportionally to its share.
    #[expect(
        clippy::expect_used,
        reason = "the only constructor builds a non-empty class list"
    )]
    pub fn sample(&self, rng: &mut ChaCha8Rng) -> &WorkloadClass {
        let total: f64 = self.classes.iter().map(|c| c.share).sum();
        let mut target = rng.random_range(0.0..total);
        for class in &self.classes {
            if target < class.share {
                return class;
            }
            target -= class.share;
        }
        self.classes.last().expect("mix is non-empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn shares_sum_to_one() {
        let mix = WorkloadMix::azure_internal();
        let total: f64 = mix.classes().iter().map(|c| c.share).sum();
        assert!((total - 1.0).abs() < 1e-9, "total {total}");
    }

    #[test]
    fn transformers_are_the_biggest_family() {
        let mix = WorkloadMix::azure_internal();
        let t = mix.transformer_share();
        assert!(t > 0.35 && t < 0.5, "transformer share {t}");
    }

    #[test]
    fn unidentified_transformer_fraction_matches_paper() {
        // 35.5% of Transformers are hard to identify.
        let mix = WorkloadMix::azure_internal();
        let unidentified = mix
            .classes()
            .iter()
            .find(|c| c.label == "unidentified Transformer")
            .unwrap()
            .share;
        let frac = unidentified / mix.transformer_share();
        assert!((frac - 0.355).abs() < 0.01, "fraction {frac}");
    }

    #[test]
    fn sampling_matches_shares() {
        let mix = WorkloadMix::azure_internal();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let n = 20_000;
        let mut resnet = 0usize;
        for _ in 0..n {
            if mix.sample(&mut rng).label == "ResNet" {
                resnet += 1;
            }
        }
        let freq = resnet as f64 / n as f64;
        assert!((freq - 0.141).abs() < 0.01, "sampled ResNet share {freq}");
    }
}
