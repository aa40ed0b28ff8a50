//! Seeded inputs. Every trace is drawn in one RNG stream from the
//! benchmark's `--seed`, through qf-datasets' public samplers, so the same
//! seed gives the same items on any host. (`zipf_dataset` and
//! `internet_like` split their stream by `available_parallelism`, so their
//! output depends on the core count.)

use qf_datasets::values::{LatencyModel, ZipfValueModel};
use qf_datasets::ZipfSampler;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::HashSet;

/// Which of the paper's key/value models a trace follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// The paper's synthetic Zipf dataset: 120K keys at α = 1.1, values a
    /// Zipf component plus a per-key normal constant.
    Zipf,
    /// The CAIDA-like trace: 50K keys at α = 1.1, lognormal latencies with
    /// a laggy key minority.
    Internet,
}

/// A generated stream plus what the benchmark prints about it.
pub struct Trace {
    /// The items, in stream order.
    pub items: Vec<(u64, f64)>,
    /// Distinct keys present.
    pub keys: usize,
    /// Order-sensitive digest of every key and value bit.
    pub digest: u64,
}

/// Draw `len` items of `model` from `seed`.
pub fn generate(model: Model, len: usize, seed: u64) -> Trace {
    let mut rng = SmallRng::seed_from_u64(seed);
    let items: Vec<(u64, f64)> = match model {
        Model::Zipf => {
            let keys = ZipfSampler::new(120_000, 1.1);
            let values = ZipfValueModel::paper_default();
            let component = ZipfSampler::new(values.component_ranks, values.component_alpha);
            let constants: Vec<f64> = (0..keys.n())
                .map(|k| values.key_constant(k, seed))
                .collect();
            (0..len)
                .map(|_| {
                    let key = keys.sample(&mut rng) - 1;
                    let value = values.draw_component(&component, &mut rng);
                    (key, value + constants[key as usize])
                })
                .collect()
        }
        Model::Internet => {
            let keys = ZipfSampler::new(50_000, 1.1);
            let latency = LatencyModel::internet_default();
            let profiles: Vec<_> = (0..keys.n()).map(|k| latency.profile(k, seed)).collect();
            (0..len)
                .map(|_| {
                    let key = keys.sample(&mut rng) - 1;
                    (key, latency.draw(profiles[key as usize], &mut rng))
                })
                .collect()
        }
    };
    let keys = items.iter().map(|&(k, _)| k).collect::<HashSet<_>>().len();
    Trace {
        digest: digest(&items),
        keys,
        items,
    }
}

fn digest(items: &[(u64, f64)]) -> u64 {
    items.iter().fold(0x9E37_79B9_7F4A_7C15, |acc, &(k, v)| {
        qf_hash::mix64(acc ^ k).wrapping_add(v.to_bits())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_items_and_digest() {
        for model in [Model::Zipf, Model::Internet] {
            let a = generate(model, 20_000, 7);
            let b = generate(model, 20_000, 7);
            assert_eq!(a.items, b.items);
            assert_eq!(a.digest, b.digest);
            assert_ne!(a.digest, generate(model, 20_000, 8).digest);
            assert!(a.items.iter().all(|&(_, v)| v.is_finite()));
        }
    }
}
