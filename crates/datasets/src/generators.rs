//! The three workload generators, each a statistical stand-in for one of
//! the paper's datasets (substitution rationale in DESIGN.md §4).
//!
//! Generation is deterministic in the config and parallelized with
//! crossbeam: the item range is split into chunks of 2^21 items,
//! one thread each, and each chunk draws from an independent RNG stream
//! derived from `(seed, chunk_index)`. Chunk boundaries depend only on the
//! item count, so the output is identical on any number of cores.

use crate::config::{CloudConfig, InternetConfig, ZipfConfig};
use crate::values::{KeyProfile, LatencyModel};
use crate::zipf::ZipfSampler;
use crate::Item;
use rand::prelude::*;
use rand::rngs::SmallRng;

/// A generated workload plus its provenance.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Human-readable workload name ("internet", "cloud", "zipf-a1.1").
    pub name: String,
    /// The stream.
    pub items: Vec<Item>,
    /// The value threshold `T` the experiments use.
    pub threshold: f64,
    /// Distinct keys actually present.
    pub key_count: u64,
    /// Fraction of items whose value exceeds `T`.
    pub abnormal_fraction: f64,
}

impl Dataset {
    fn finalize(name: String, items: Vec<Item>, threshold: f64) -> Self {
        let mut seen = std::collections::HashSet::with_capacity(items.len() / 4);
        let mut abnormal = 0usize;
        for it in &items {
            seen.insert(it.key);
            if it.value > threshold {
                abnormal += 1;
            }
        }
        let abnormal_fraction = abnormal as f64 / items.len().max(1) as f64;
        Self {
            name,
            key_count: seen.len() as u64,
            abnormal_fraction,
            items,
            threshold,
        }
    }

    /// Average items per distinct key.
    pub fn items_per_key(&self) -> f64 {
        self.items.len() as f64 / self.key_count.max(1) as f64
    }
}

/// Items per generation chunk. Every default and tiny config fits in one
/// chunk, so those datasets come from a single RNG stream.
const CHUNK_ITEMS: usize = 1 << 21;

/// Split `n` into [`CHUNK_ITEMS`]-sized chunks and run `f(chunk_index, len)`
/// for each on scoped threads, concatenating the per-chunk outputs in order.
fn parallel_chunks<F>(n: usize, f: F) -> Vec<Item>
where
    F: Fn(usize, usize) -> Vec<Item> + Sync,
{
    let mut outputs: Vec<Vec<Item>> = Vec::with_capacity(n.div_ceil(CHUNK_ITEMS));
    let scope_result = crossbeam::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..n.div_ceil(CHUNK_ITEMS) {
            let len = CHUNK_ITEMS.min(n - t * CHUNK_ITEMS);
            let f = &f;
            handles.push(scope.spawn(move |_| f(t, len)));
        }
        for h in handles {
            match h.join() {
                Ok(out) => outputs.push(out),
                // Re-raise a generator thread's panic on the caller.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    if let Err(payload) = scope_result {
        std::panic::resume_unwind(payload);
    }
    outputs.concat()
}

/// Precompute key profiles for a bounded key space.
fn profiles(model: &LatencyModel, keys: u64, seed: u64) -> Vec<KeyProfile> {
    (0..keys).map(|k| model.profile(k, seed)).collect()
}

/// CAIDA-like internet workload: Zipf key popularity, lognormal latencies,
/// a laggy key minority that crosses `T`.
pub fn internet_like(cfg: &InternetConfig) -> Dataset {
    let sampler = ZipfSampler::new(cfg.keys, cfg.alpha);
    let profs = profiles(&cfg.model, cfg.keys, cfg.seed);
    let items = parallel_chunks(cfg.items, |t, len| {
        let mut rng = SmallRng::seed_from_u64(qf_hash::mix64(cfg.seed ^ (t as u64) << 32));
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            let key = sampler.sample(&mut rng) - 1;
            let value = cfg.model.draw(profs[key as usize], &mut rng);
            out.push(Item { key, value });
        }
        out
    });
    Dataset::finalize("internet".into(), items, cfg.threshold)
}

/// Yahoo-like cloud workload: a small Zipf heavy core plus an ocean of
/// keys that appear only once or twice (the paper's 16.9M-unique-keys
/// regime, where HistSketch's space explodes).
pub fn cloud_like(cfg: &CloudConfig) -> Dataset {
    let core_sampler = ZipfSampler::new(cfg.core_keys, cfg.core_alpha);
    let core_profs = profiles(&cfg.model, cfg.core_keys, cfg.seed);
    let tail_keys = ((cfg.items as f64 * cfg.tail_key_fraction) as u64).max(1);
    let items = parallel_chunks(cfg.items, |t, len| {
        let mut rng = SmallRng::seed_from_u64(qf_hash::mix64(cfg.seed ^ (t as u64) << 32 ^ 0xC1));
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            let (key, profile) = if rng.gen::<f64>() < cfg.core_fraction {
                let k = core_sampler.sample(&mut rng) - 1;
                (k, core_profs[k as usize])
            } else {
                // Tail keys live above the core id range; profiles are
                // derived lazily (the key space is too large to table).
                let k = cfg.core_keys + rng.gen_range(0..tail_keys);
                (k, cfg.model.profile(k, cfg.seed))
            };
            let value = cfg.model.draw(profile, &mut rng);
            out.push(Item { key, value });
        }
        out
    });
    Dataset::finalize("cloud".into(), items, cfg.threshold)
}

/// The paper's synthetic Zipf dataset: Zipf(α) key popularity; values are
/// a Zipf-distributed component plus a per-key normal constant.
pub fn zipf_dataset(cfg: &ZipfConfig) -> Dataset {
    let key_sampler = ZipfSampler::new(cfg.keys, cfg.alpha);
    let component_sampler = ZipfSampler::new(
        cfg.value_model.component_ranks,
        cfg.value_model.component_alpha,
    );
    let items = parallel_chunks(cfg.items, |t, len| {
        let mut rng = SmallRng::seed_from_u64(qf_hash::mix64(cfg.seed ^ (t as u64) << 32 ^ 0x21));
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            let key = key_sampler.sample(&mut rng) - 1;
            let component = cfg.value_model.draw_component(&component_sampler, &mut rng);
            let constant = cfg.value_model.key_constant(key, cfg.seed);
            out.push(Item {
                key,
                value: component + constant,
            });
        }
        out
    });
    Dataset::finalize(format!("zipf-a{}", cfg.alpha), items, cfg.threshold)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn internet_shape() {
        let d = internet_like(&InternetConfig::tiny());
        assert_eq!(d.items.len(), 50_000);
        assert!(d.key_count > 500, "keys {}", d.key_count);
        assert!(d.key_count <= 2_000);
        // Paper: ≈7.6% abnormal items at T = 300.
        assert!(
            (0.01..0.20).contains(&d.abnormal_fraction),
            "abnormal fraction {}",
            d.abnormal_fraction
        );
        assert!(d.items_per_key() > 10.0);
    }

    #[test]
    fn internet_deterministic() {
        let a = internet_like(&InternetConfig::tiny());
        let b = internet_like(&InternetConfig::tiny());
        assert_eq!(a.items.len(), b.items.len());
        for (x, y) in a.items.iter().zip(&b.items).take(1000) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn cloud_has_many_rare_keys() {
        let d = cloud_like(&CloudConfig::tiny());
        // The distinct-key count must be a large fraction of items.
        assert!(
            d.key_count as f64 > d.items.len() as f64 * 0.3,
            "only {} keys for {} items",
            d.key_count,
            d.items.len()
        );
        assert!(
            (0.005..0.25).contains(&d.abnormal_fraction),
            "abnormal fraction {}",
            d.abnormal_fraction
        );
    }

    #[test]
    fn cloud_heavy_core_is_hot() {
        let d = cloud_like(&CloudConfig::tiny());
        let core = CloudConfig::tiny().core_keys;
        let core_items = d.items.iter().filter(|it| it.key < core).count();
        let frac = core_items as f64 / d.items.len() as f64;
        assert!((frac - 0.30).abs() < 0.03, "core fraction {frac}");
    }

    #[test]
    fn zipf_dataset_values_positive() {
        let d = zipf_dataset(&ZipfConfig::tiny());
        assert!(d.items.iter().all(|it| it.value >= 0.0));
        assert!(d.abnormal_fraction > 0.0 && d.abnormal_fraction < 0.5);
    }

    #[test]
    fn zipf_key_skew_follows_alpha() {
        let mut steep_cfg = ZipfConfig::tiny();
        steep_cfg.alpha = 1.6;
        let steep = zipf_dataset(&steep_cfg);
        let flat = zipf_dataset(&ZipfConfig::tiny());
        let count_key0 = |d: &Dataset| d.items.iter().filter(|it| it.key == 0).count();
        assert!(
            count_key0(&steep) > count_key0(&flat),
            "steeper alpha must concentrate the top key"
        );
    }

    #[test]
    fn deterministic_across_runs_zipf() {
        let a = zipf_dataset(&ZipfConfig::tiny());
        let b = zipf_dataset(&ZipfConfig::tiny());
        assert_eq!(a.items[..100], b.items[..100]);
    }

    /// Order-sensitive digest of every key and value bit.
    fn digest(items: &[Item]) -> u64 {
        items.iter().fold(0x9E37_79B9_7F4A_7C15, |acc, it| {
            qf_hash::mix64(acc ^ it.key).wrapping_add(it.value.to_bits())
        })
    }

    #[test]
    fn tiny_datasets_match_committed_digests() {
        // The single-stream output of each tiny config. A generator that
        // splits the stream by core count changes every digest on a
        // multi-core host.
        let got = [
            digest(&zipf_dataset(&ZipfConfig::tiny()).items),
            digest(&internet_like(&InternetConfig::tiny()).items),
            digest(&cloud_like(&CloudConfig::tiny()).items),
        ];
        let want = [
            0x2438_d0c4_0480_7675,
            0x0f83_ac6f_27d0_ceab,
            0x3ab0_b439_b9bb_3723,
        ];
        assert_eq!(got, want, "dataset generation changed: {got:#018x?}");
    }

    #[test]
    fn chunks_are_cut_by_item_count() {
        let items = parallel_chunks(CHUNK_ITEMS + 3, |t, len| {
            vec![
                Item {
                    key: t as u64,
                    value: 0.0
                };
                len
            ]
        });
        assert_eq!(items.len(), CHUNK_ITEMS + 3);
        assert!(items[..CHUNK_ITEMS].iter().all(|it| it.key == 0));
        assert!(items[CHUNK_ITEMS..].iter().all(|it| it.key == 1));
    }
}
