//! The server's sharded model zoo.
//!
//! Each *(arch, scale)* pair is one shard: a compiled [`ZooClassifier`]
//! plus the deterministic attack test set jobs index into. Shards are
//! trained (or loaded from the weight cache) lazily on first use, behind
//! a per-shard lock so two tenants requesting the same cold model block
//! on one training run instead of racing two — while requests for
//! *different* shards proceed in parallel (the global map lock is only
//! held to look up or insert the per-shard cell, never during training).
//!
//! Mutable inference state lives below this layer, in the private
//! session each job opens with [`BatchClassifier::session`]: the zoo
//! shares immutable weights, the jobs own their caches.
//!
//! [`BatchClassifier::session`]: oppsla_core::oracle::BatchClassifier::session

use oppsla_core::image::Image;
use oppsla_eval::zoo::{attack_test_set, train_or_load, Scale, ZooClassifier, ZooConfig};
use oppsla_nn::models::Arch;
use oppsla_obs::metrics::Counter;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Identifies one model shard.
pub type ShardKey = (Arch, Scale);

/// One resident model: shared compiled weights plus its attack test set.
pub struct ModelShard {
    /// The compiled classifier; each job opens a private session on it.
    pub classifier: Arc<ZooClassifier>,
    /// Deterministic labelled attack images, indexed by job requests.
    pub test_set: Arc<Vec<(Image, usize)>>,
    /// Held-out accuracy of the shard's model (reported, not enforced).
    pub test_accuracy: f32,
}

/// Lazily trained, concurrently shared model shards.
pub struct ShardedZoo {
    config: ZooConfig,
    test_per_class: usize,
    test_seed: u64,
    shards: Mutex<HashMap<ShardKey, Arc<OnceLock<Arc<ModelShard>>>>>,
    /// Bumped each time a train-once latch fires (a cold shard is
    /// trained or loaded). Write-only observability; `None` when the
    /// deployment runs without metrics.
    train_counter: Mutex<Option<Arc<Counter>>>,
}

impl ShardedZoo {
    /// Creates an empty zoo; shards train on first request.
    /// `test_per_class` sizes each shard's attack test set.
    pub fn new(config: ZooConfig, test_per_class: usize, test_seed: u64) -> Self {
        ShardedZoo {
            config,
            test_per_class,
            test_seed,
            shards: Mutex::new(HashMap::new()),
            train_counter: Mutex::new(None),
        }
    }

    /// Publishes train-once latch firings to `counter` from now on.
    pub fn set_train_counter(&self, counter: Arc<Counter>) {
        *self
            .train_counter
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner()) = Some(counter);
    }

    /// The shard for `(arch, scale)`, training it on first use. Blocks
    /// only callers of the *same* cold shard; other shards stay
    /// available while one trains.
    pub fn shard(&self, arch: Arch, scale: Scale) -> Arc<ModelShard> {
        let cell = {
            let mut map = self
                .shards
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            Arc::clone(map.entry((arch, scale)).or_default())
        };
        Arc::clone(cell.get_or_init(|| {
            if let Some(counter) = &*self
                .train_counter
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
            {
                counter.inc();
            }
            let model = train_or_load(arch, scale, &self.config);
            let test_set = attack_test_set(scale, self.test_per_class, self.test_seed);
            Arc::new(ModelShard {
                classifier: Arc::new(model.classifier()),
                test_set: Arc::new(test_set),
                test_accuracy: model.test_accuracy,
            })
        }))
    }

    /// The shards resident right now, as keys (for reporting).
    pub fn resident(&self) -> Vec<ShardKey> {
        let map = self
            .shards
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let mut keys: Vec<ShardKey> = map
            .iter()
            .filter(|(_, cell)| cell.get().is_some())
            .map(|(&k, _)| k)
            .collect();
        keys.sort_by_key(|(a, s)| (a.id(), s.id()));
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_config() -> ZooConfig {
        ZooConfig {
            train_per_class: 8,
            epochs: Some(2),
            learning_rate: 2e-3,
            seed: 1,
            cache_dir: None,
        }
    }

    #[test]
    fn shards_are_shared_not_retrained() {
        let zoo = ShardedZoo::new(fast_config(), 2, 9);
        let a = zoo.shard(Arch::Mlp, Scale::Cifar);
        let b = zoo.shard(Arch::Mlp, Scale::Cifar);
        assert!(
            Arc::ptr_eq(&a, &b),
            "the second request must reuse the resident shard"
        );
        assert_eq!(a.test_set.len(), 2 * 10, "2 per class, 10 classes");
        assert_eq!(zoo.resident(), vec![(Arch::Mlp, Scale::Cifar)]);
    }

    #[test]
    fn concurrent_cold_requests_train_once() {
        let zoo = Arc::new(ShardedZoo::new(fast_config(), 1, 9));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let zoo = Arc::clone(&zoo);
                std::thread::spawn(move || zoo.shard(Arch::Mlp, Scale::Cifar))
            })
            .collect();
        let shards: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(shards.windows(2).all(|w| Arc::ptr_eq(&w[0], &w[1])));
    }
}
