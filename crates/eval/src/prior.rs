//! Mining per-class pixel-saliency priors from trace corpora.
//!
//! A `--trace` run of the experiment binaries leaves a JSONL stream in
//! which every counted oracle query carries its perturbed pixel and
//! whether it flipped the classifier. This module folds such a corpus
//! into a [`SaliencyPrior`]: for every attack section it reconstructs the
//! section's image set (sections record the scale, set kind, per-class
//! count and seed exactly so consumers can do this), then credits the
//! grid cell of every *flipping* candidate to the attacked image's true
//! class. Per-class tables are normalized to sum to one; classes that
//! never flipped stay all-zero, which [`SaliencyPrior`] treats as the
//! uniform order.
//!
//! Synthesis sections are skipped: their image indexing is narrowed by
//! class/prefilter records, and the training images' flips are already
//! distilled into the synthesized programs themselves.

use crate::zoo::{attack_test_set, Scale};
use oppsla_core::prior::SaliencyPrior;
use oppsla_core::telemetry::trace::{Body, Record};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fs;
use std::path::Path;

/// Default saliency-grid resolution: 8×8 cells per image.
pub const DEFAULT_PRIOR_GRID: usize = 8;

/// One attack section's reconstruction recipe, keyed by section number.
struct SectionSet {
    images: Vec<(oppsla_core::image::Image, usize)>,
}

fn scale_from_id(id: &str) -> Option<Scale> {
    match id {
        "shapes32" => Some(Scale::Cifar),
        "shapes64" => Some(Scale::ImageNetLike),
        _ => None,
    }
}

/// Mines a [`SaliencyPrior`] with `grid`×`grid` cells from the JSONL
/// lines of a trace corpus (blank lines are skipped, unparseable lines
/// are errors). The number of classes is the highest true class seen
/// plus one.
///
/// # Errors
///
/// Returns an error when a line fails to parse, when no attack section
/// over a reconstructible test set is present, or when `grid` is zero.
pub fn mine_saliency_prior(
    lines: impl IntoIterator<Item = String>,
    grid: usize,
) -> Result<SaliencyPrior, String> {
    let mut records = Vec::new();
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        records.push(Record::parse(&line)?);
    }
    mine_saliency_prior_records(&records, grid)
}

/// [`mine_saliency_prior`] over already-parsed trace records.
///
/// # Errors
///
/// Returns an error when no attack section over a reconstructible test
/// set is present, or when `grid` is zero.
pub fn mine_saliency_prior_records(
    records: &[Record],
    grid: usize,
) -> Result<SaliencyPrior, String> {
    if grid == 0 {
        return Err("grid must be positive".into());
    }

    // Pass 1: reconstruct each usable attack section's image set.
    let mut sets: HashMap<u32, SectionSet> = HashMap::new();
    for rec in records {
        if let Body::Section {
            scale,
            set,
            per_class,
            set_seed,
            attack,
            ..
        } = &rec.body
        {
            if attack == "synthesis" || set != "test" {
                continue;
            }
            let Some(scale) = scale_from_id(scale) else {
                continue;
            };
            sets.insert(
                rec.section,
                SectionSet {
                    images: attack_test_set(scale, *per_class as usize, *set_seed),
                },
            );
        }
    }
    if sets.is_empty() {
        return Err("no attack section over a reconstructible test set in corpus".into());
    }

    // Pass 2: credit flipping candidates. Record order does not matter —
    // every query record carries its section number.
    let mut num_classes = 0usize;
    let mut hits: Vec<(usize, usize)> = Vec::new(); // (class, cell)
    for rec in records {
        let Body::Query { row, col, flip, .. } = &rec.body else {
            continue;
        };
        if !flip {
            continue;
        }
        let Some(set) = sets.get(&rec.section) else {
            continue;
        };
        let Some((image, class)) = set.images.get(rec.image as usize) else {
            continue;
        };
        let (h, w) = (image.height(), image.width());
        if (*row as usize) >= h || (*col as usize) >= w {
            continue; // full-image query sentinel or stale record
        }
        let location = oppsla_core::pair::Location::new(*row as u16, *col as u16);
        let probe = SaliencyPrior::new(grid, vec![vec![0.0; grid * grid]]);
        let cell = probe.cell(h, w, location);
        num_classes = num_classes.max(class + 1);
        hits.push((*class, cell));
    }

    let num_classes = num_classes.max(1);
    let mut per_class = vec![vec![0.0f64; grid * grid]; num_classes];
    for (class, cell) in hits {
        per_class[class][cell] += 1.0;
    }
    for table in &mut per_class {
        let sum: f64 = table.iter().sum();
        if sum > 0.0 {
            for w in table.iter_mut() {
                *w /= sum;
            }
        }
    }
    Ok(SaliencyPrior::new(grid, per_class))
}

/// [`mine_saliency_prior`] over a trace JSONL file on disk.
///
/// # Errors
///
/// Returns an error when the file is unreadable or a line fails to parse.
pub fn mine_saliency_prior_file(path: &Path, grid: usize) -> Result<SaliencyPrior, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    mine_saliency_prior(text.lines().map(str::to_owned), grid)
}

/// On-disk form of a mined prior.
#[derive(Serialize, Deserialize)]
struct PriorFile {
    grid: usize,
    per_class: Vec<Vec<f64>>,
}

/// Saves a prior as JSON, creating parent directories.
///
/// # Errors
///
/// Returns an error string on filesystem or serialization failure.
pub fn save_prior(prior: &SaliencyPrior, path: &Path) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent).map_err(|e| format!("mkdir {}: {e}", parent.display()))?;
    }
    let file = PriorFile {
        grid: prior.grid(),
        per_class: prior.tables().to_vec(),
    };
    let json = serde_json::to_string_pretty(&file).map_err(|e| e.to_string())?;
    fs::write(path, json).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Loads a prior saved by [`save_prior`].
///
/// # Errors
///
/// Returns an error string when the file is unreadable, malformed, or
/// fails [`SaliencyPrior`]'s validity checks (zero grid, a grid whose
/// square overflows, wrong table length, non-finite weights).
pub fn load_prior(path: &Path) -> Result<SaliencyPrior, String> {
    let json = fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let file: PriorFile =
        serde_json::from_str(&json).map_err(|e| format!("parse {}: {e}", path.display()))?;
    if file.grid == 0 {
        return Err(format!("{}: grid must be positive", path.display()));
    }
    let cells = file
        .grid
        .checked_mul(file.grid)
        .ok_or_else(|| format!("{}: grid {} is too large", path.display(), file.grid))?;
    for (class, table) in file.per_class.iter().enumerate() {
        if table.len() != cells {
            return Err(format!(
                "{}: class {class} table has {} weights, expected {cells}",
                path.display(),
                table.len(),
            ));
        }
        if table.iter().any(|w| !w.is_finite()) {
            return Err(format!(
                "{}: class {class} table has non-finite weights",
                path.display()
            ));
        }
    }
    Ok(SaliencyPrior::new(file.grid, file.per_class))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_dir::TempDir;
    use oppsla_core::pair::Location;
    use oppsla_core::prior::Prior;

    /// A minimal synthetic corpus: one test-set section on the cifar
    /// scale, one image, with flipping queries clustered at one pixel.
    fn corpus() -> Vec<String> {
        let section = Record {
            section: 1,
            round: 0,
            lane: 0,
            image: 0,
            sub: 0,
            body: Body::Section {
                label: "fig3/shapes32/mlp/oppsla".into(),
                scale: "shapes32".into(),
                arch: "mlp".into(),
                set: "test".into(),
                per_class: 1,
                set_seed: 2,
                budget: 100,
                attack: "oppsla".into(),
                attack_seed: 0,
            },
        };
        let query = |row: u32, col: u32, flip: bool, sub: u64| Record {
            section: 1,
            round: 1,
            lane: 1,
            image: 0,
            sub,
            body: Body::Query {
                phase: "init_scan".into(),
                route: "delta".into(),
                cache: "none".into(),
                seq: sub,
                row,
                col,
                r: 1.0,
                g: 0.0,
                b: 0.0,
                margin: if flip { -0.1 } else { 0.4 },
                pred: if flip { 1 } else { 0 },
                flip,
            },
        };
        vec![
            section.to_jsonl(),
            query(0, 0, true, 1).to_jsonl(),
            query(0, 1, true, 2).to_jsonl(),
            query(31, 31, false, 3).to_jsonl(),
        ]
    }

    #[test]
    fn mining_credits_flip_cells_for_the_images_class() {
        let prior = mine_saliency_prior(corpus(), 8).unwrap();
        let test = attack_test_set(Scale::Cifar, 1, 2);
        let (image, class) = &test[0];
        let hot = prior.location_weight(*class, image, Location::new(0, 0));
        let cold = prior.location_weight(*class, image, Location::new(31, 31));
        assert!(hot > 0.0, "flipping cell must carry weight");
        assert_eq!(cold, 0.0, "non-flipping cell stays zero");
        // Two flips in the same cell → that cell holds all the mass.
        assert!((hot - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mining_rejects_corpora_without_attack_sections() {
        let lines = vec![corpus()[1].clone()]; // queries but no section
        assert!(mine_saliency_prior(lines, 8).is_err());
    }

    #[test]
    fn mined_priors_round_trip_through_json() {
        let prior = mine_saliency_prior(corpus(), 8).unwrap();
        let dir = TempDir::new("prior-test");
        let path = dir.join("prior.json");
        save_prior(&prior, &path).unwrap();
        let loaded = load_prior(&path).unwrap();
        assert_eq!(loaded.grid(), prior.grid());
        assert_eq!(loaded.tables(), prior.tables());
    }

    #[test]
    fn load_prior_rejects_malformed_tables() {
        let dir = TempDir::new("prior-bad");
        let path = dir.join("bad.json");
        fs::write(&path, r#"{"grid": 2, "per_class": [[1.0, 2.0]]}"#).unwrap();
        assert!(load_prior(&path).is_err(), "2 weights for a 2x2 grid");
        // A grid whose square wraps to 0 in usize must not pass an empty
        // table (the queue would index it and panic).
        fs::write(&path, r#"{"grid": 4294967296, "per_class": [[]]}"#).unwrap();
        assert!(load_prior(&path).is_err(), "grid^2 overflows");
        fs::write(&path, "not json").unwrap();
        assert!(load_prior(&path).is_err());
        assert!(load_prior(&dir.join("missing.json")).is_err());
    }
}
