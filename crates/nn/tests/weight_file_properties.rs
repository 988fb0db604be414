//! Generated-input tests of the weight-cache reader: a damaged weight
//! file either loads as an error or loads a network that runs. A file
//! that loads but disagrees with itself (a `data` array one element
//! short of its `shape`) must never reach a kernel, where it would panic
//! (`eval::zoo`'s cache test pins that case end to end).

use oppsla_nn::infer::InferenceEngine;
use oppsla_nn::models::{Arch, ConvNet, InputSpec};
use oppsla_nn::serialize::{load_weights, save_weights};
use oppsla_tensor::Tensor;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::OnceLock;

/// A 4×4 input keeps the saved MLP at about 1,700 weights.
const INPUT: InputSpec = InputSpec {
    channels: 3,
    height: 4,
    width: 4,
};
const CLASSES: usize = 4;

fn net(seed: u64) -> ConvNet {
    ConvNet::build(
        Arch::Mlp,
        INPUT,
        CLASSES,
        &mut ChaCha8Rng::seed_from_u64(seed),
    )
}

/// A file of this process in the target dir's directory for test files.
fn test_file(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("weight-file-props-{}-{name}", std::process::id()))
}

/// The bytes of a freshly saved weight file, saved once per process.
fn saved_file() -> &'static [u8] {
    static FILE: OnceLock<Vec<u8>> = OnceLock::new();
    FILE.get_or_init(|| {
        let path = test_file("intact.json");
        save_weights(&net(1), &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        bytes
    })
}

/// One way a weight file gets damaged. Positions and array indices are
/// taken modulo what the file has.
#[derive(Debug)]
enum Damage {
    /// Cut the file at a byte.
    Truncate(usize),
    /// XOR one byte with a nonzero mask.
    Flip(usize, u8),
    /// Drop one element from one `data` array.
    DropElement(usize, usize),
    /// Repeat one element of one `data` array.
    AddElement(usize, usize),
}

fn arb_damage() -> impl Strategy<Value = Damage> {
    prop_oneof![
        any::<usize>().prop_map(Damage::Truncate),
        (any::<usize>(), 1u8..=255).prop_map(|(at, mask)| Damage::Flip(at, mask)),
        (any::<usize>(), any::<usize>()).prop_map(|(k, i)| Damage::DropElement(k, i)),
        (any::<usize>(), any::<usize>()).prop_map(|(k, i)| Damage::AddElement(k, i)),
    ]
}

/// `json` with the elements of its `k`-th `data` array edited by `edit`.
fn edit_data_array(json: &str, k: usize, edit: impl FnOnce(&mut Vec<&str>)) -> String {
    let starts: Vec<usize> = json
        .match_indices("\"data\":[")
        .map(|(at, m)| at + m.len())
        .collect();
    assert!(!starts.is_empty(), "the saved file has data arrays");
    let start = starts[k % starts.len()];
    let end = start + json[start..].find(']').expect("a data array closes");
    let mut items: Vec<&str> = json[start..end].split(',').collect();
    edit(&mut items);
    format!("{}{}{}", &json[..start], items.join(","), &json[end..])
}

fn damage(file: &[u8], how: &Damage) -> Vec<u8> {
    let json = || std::str::from_utf8(file).expect("a saved file is UTF-8");
    match *how {
        Damage::Truncate(at) => file[..at % file.len()].to_vec(),
        Damage::Flip(at, mask) => {
            let mut bytes = file.to_vec();
            bytes[at % file.len()] ^= mask;
            bytes
        }
        Damage::DropElement(k, i) => edit_data_array(json(), k, |items| {
            items.remove(i % items.len());
        })
        .into_bytes(),
        Damage::AddElement(k, i) => edit_data_array(json(), k, |items| {
            let at = i % items.len();
            items.insert(at, items[at]);
        })
        .into_bytes(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Loading a damaged file returns `Err` or `Ok` without panicking,
    /// and a network that loaded runs a forward on both the tape and the
    /// compiled engine.
    #[test]
    fn a_damaged_weight_file_loads_as_an_error_or_as_a_working_net(how in arb_damage()) {
        let path = test_file("damaged.json");
        std::fs::write(&path, damage(saved_file(), &how)).unwrap();
        let target = net(2);
        let image = Tensor::from_fn([3, 4, 4], |i| (i % 7) as f32 / 7.0);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            load_weights(&target, &path).map(|()| {
                let tape = target.scores(&image);
                let engine = InferenceEngine::new(&target).scores(&image);
                (tape.len(), engine.len())
            })
        }));
        std::fs::remove_file(&path).unwrap();
        match outcome {
            Ok(Ok(lens)) => prop_assert_eq!(lens, (CLASSES, CLASSES)),
            Ok(Err(_)) => {}
            Err(_) => prop_assert!(false, "loading or running the loaded net panicked"),
        }
    }
}
