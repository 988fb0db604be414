//! Saving and loading trained network weights.
//!
//! Weights are stored as JSON: human-inspectable, diff-friendly, and small
//! at zoo scale (tens of kB). The format records the architecture, input
//! spec and class count so loads are validated against the rebuilt network.

use crate::models::{Arch, ConvNet, InputSpec};
use oppsla_tensor::Tensor;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

/// On-disk weight bundle.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct WeightFile {
    arch: Arch,
    input: InputSpec,
    num_classes: usize,
    /// `(name, tensor)` pairs in the network's stable parameter order.
    params: Vec<(String, Tensor)>,
}

/// Errors from weight persistence.
#[derive(Debug)]
pub enum WeightError {
    /// Filesystem failure.
    Io(io::Error),
    /// Malformed JSON.
    Parse(serde_json::Error),
    /// The file's metadata or parameter list does not match the network.
    Mismatch(String),
}

impl fmt::Display for WeightError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WeightError::Io(e) => write!(f, "weight file i/o failed: {e}"),
            WeightError::Parse(e) => write!(f, "weight file is malformed: {e}"),
            WeightError::Mismatch(why) => write!(f, "weight file does not match network: {why}"),
        }
    }
}

impl std::error::Error for WeightError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WeightError::Io(e) => Some(e),
            WeightError::Parse(e) => Some(e),
            WeightError::Mismatch(_) => None,
        }
    }
}

impl From<io::Error> for WeightError {
    fn from(e: io::Error) -> Self {
        WeightError::Io(e)
    }
}

impl From<serde_json::Error> for WeightError {
    fn from(e: serde_json::Error) -> Self {
        WeightError::Parse(e)
    }
}

/// Writes `net`'s weights to `path`, creating parent directories.
///
/// The write is atomic: the JSON goes to a process-unique temporary file
/// in the same directory, which is then renamed over `path`. A reader
/// (another server process warming the same model shard) therefore sees
/// either the complete old file or the complete new file — never the
/// truncated prefix a plain `fs::write` exposes mid-write.
///
/// # Errors
///
/// Returns [`WeightError::Io`] on filesystem failure.
pub fn save_weights(net: &ConvNet, path: &Path) -> Result<(), WeightError> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    let file = WeightFile {
        arch: net.arch(),
        input: net.input_spec(),
        num_classes: net.num_classes(),
        params: net.params().iter().map(|p| (p.name(), p.value())).collect(),
    };
    let json = serde_json::to_string(&file)?;
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let tmp = std::path::PathBuf::from(tmp);
    fs::write(&tmp, json)?;
    if let Err(e) = fs::rename(&tmp, path) {
        // Don't leave the orphan behind on a failed rename (read-only
        // target, cross-device cache dir): best-effort cleanup, then
        // report the rename failure.
        let _ = fs::remove_file(&tmp);
        return Err(e.into());
    }
    Ok(())
}

/// Loads weights from `path` into `net`.
///
/// # Errors
///
/// Returns an error if the file is unreadable, malformed, or was saved from
/// a network with different architecture, input spec, class count, or
/// parameter names/shapes.
pub fn load_weights(net: &ConvNet, path: &Path) -> Result<(), WeightError> {
    let json = fs::read_to_string(path)?;
    let file: WeightFile = serde_json::from_str(&json)?;
    if file.arch != net.arch() {
        return Err(WeightError::Mismatch(format!(
            "architecture {} vs {}",
            file.arch,
            net.arch()
        )));
    }
    if file.input != net.input_spec() || file.num_classes != net.num_classes() {
        return Err(WeightError::Mismatch(
            "input spec or class count differs".into(),
        ));
    }
    let params = net.params();
    if params.len() != file.params.len() {
        return Err(WeightError::Mismatch(format!(
            "parameter count {} vs {}",
            file.params.len(),
            params.len()
        )));
    }
    for (p, (name, value)) in params.iter().zip(file.params.iter()) {
        if p.name() != *name {
            return Err(WeightError::Mismatch(format!(
                "parameter name {name} vs {}",
                p.name()
            )));
        }
        if p.value().shape() != value.shape() {
            return Err(WeightError::Mismatch(format!(
                "parameter {name} shape {} vs {}",
                value.shape(),
                p.value().shape()
            )));
        }
    }
    for (p, (_, value)) in params.iter().zip(file.params) {
        p.set_value(value);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// A test's temporary directory under the system temp dir, removed with
    /// its contents on drop.
    struct TmpDir(std::path::PathBuf);

    impl std::ops::Deref for TmpDir {
        type Target = Path;
        fn deref(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TmpDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn tmpdir(name: &str) -> TmpDir {
        let dir =
            std::env::temp_dir().join(format!("oppsla-serialize-{name}-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        TmpDir(dir)
    }

    #[test]
    fn round_trip_preserves_scores() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let net = ConvNet::build(Arch::Mlp, InputSpec::RGB32, 4, &mut rng);
        let dir = tmpdir("roundtrip");
        let path = dir.join("mlp.json");
        save_weights(&net, &path).unwrap();

        let mut rng2 = ChaCha8Rng::seed_from_u64(999); // different init
        let net2 = ConvNet::build(Arch::Mlp, InputSpec::RGB32, 4, &mut rng2);
        let img = Tensor::from_fn([3, 32, 32], |i| (i % 13) as f32 / 13.0);
        assert_ne!(net.scores(&img), net2.scores(&img));
        load_weights(&net2, &path).unwrap();
        assert_eq!(net.scores(&img), net2.scores(&img));
    }

    #[test]
    fn save_is_atomic_and_leaves_no_temp_files() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let net = ConvNet::build(Arch::Mlp, InputSpec::RGB32, 4, &mut rng);
        let dir = tmpdir("atomic");
        let path = dir.join("mlp.json");
        // Pre-existing good file: a concurrent reader racing this save
        // must see either the old bytes or the new bytes, so the save
        // must replace via rename, never truncate-then-write in place.
        fs::write(&path, b"{\"old\": true}").unwrap();
        save_weights(&net, &path).unwrap();
        load_weights(&net, &path).unwrap();
        let leftovers: Vec<_> = fs::read_dir(&*dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n.to_string_lossy().contains(".tmp."))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
    }

    #[test]
    fn load_rejects_arch_mismatch() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let net = ConvNet::build(Arch::Mlp, InputSpec::RGB32, 4, &mut rng);
        let dir = tmpdir("archmismatch");
        let path = dir.join("mlp.json");
        save_weights(&net, &path).unwrap();
        let other = ConvNet::build(Arch::VggSmall, InputSpec::RGB32, 4, &mut rng);
        let err = load_weights(&other, &path).unwrap_err();
        assert!(matches!(err, WeightError::Mismatch(_)), "{err}");
    }

    #[test]
    fn load_rejects_class_count_mismatch() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let net = ConvNet::build(Arch::Mlp, InputSpec::RGB32, 4, &mut rng);
        let dir = tmpdir("classmismatch");
        let path = dir.join("mlp.json");
        save_weights(&net, &path).unwrap();
        let other = ConvNet::build(Arch::Mlp, InputSpec::RGB32, 5, &mut rng);
        assert!(load_weights(&other, &path).is_err());
    }

    #[test]
    fn load_reports_missing_file_as_io() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let net = ConvNet::build(Arch::Mlp, InputSpec::RGB32, 4, &mut rng);
        let err = load_weights(&net, Path::new("/nonexistent/x.json")).unwrap_err();
        assert!(matches!(err, WeightError::Io(_)), "{err}");
    }

    #[test]
    fn load_rejects_malformed_json() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let net = ConvNet::build(Arch::Mlp, InputSpec::RGB32, 4, &mut rng);
        let dir = tmpdir("badjson");
        let path = dir.join("garbage.json");
        fs::write(&path, "{not json").unwrap();
        let err = load_weights(&net, &path).unwrap_err();
        assert!(matches!(err, WeightError::Parse(_)), "{err}");
    }
}
