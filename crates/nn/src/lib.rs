//! Neural-network substrate for the OPPSLA reproduction.
//!
//! The paper attacks pre-trained PyTorch CNNs in a black-box setting. This
//! crate rebuilds that substrate from scratch on top of
//! [`oppsla_tensor`]: a define-by-run [`autograd`] tape, composable
//! [`layers`], first-order [`optim`]izers, a minibatch [`trainer`], a
//! small-model [`models`] zoo covering the paper's four architectural
//! families (VGG, ResNet, GoogLeNet, DenseNet — plus an MLP test double),
//! and weight [`serialize`] support for caching trained classifiers.
//!
//! # Examples
//!
//! Train a tiny classifier and query it like the attacks do:
//!
//! ```
//! use oppsla_nn::models::{Arch, ConvNet, InputSpec};
//! use oppsla_nn::trainer::{fit, TrainConfig};
//! use oppsla_tensor::Tensor;
//! use rand::SeedableRng;
//! use rand_chacha::ChaCha8Rng;
//!
//! let mut rng = ChaCha8Rng::seed_from_u64(0);
//! let net = ConvNet::build(Arch::Mlp, InputSpec::RGB32, 2, &mut rng);
//! let images = vec![Tensor::full([3, 32, 32], 0.9), Tensor::full([3, 32, 32], 0.1)];
//! let labels = vec![0, 1];
//! let config = TrainConfig { epochs: 3, batch_size: 2, learning_rate: 1e-2, seed: 0 };
//! let report = fit(&net, &images, &labels, &config);
//! assert_eq!(report.epochs.len(), 3);
//! let scores = net.scores(&images[0]);
//! assert_eq!(scores.len(), 2);
//! ```

#![warn(missing_docs)]

pub mod autograd;
pub mod delta;
pub mod infer;
pub mod init;
pub mod layers;
pub mod models;
pub mod optim;
pub mod serialize;
pub mod trainer;
pub mod tune;
