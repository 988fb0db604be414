//! Per-job attack sessions: validation, budget enforcement, and the
//! deterministic outcome report.
//!
//! A session is one tenant's attack job end to end: resolve the request
//! against a model shard, wrap a private session of the shard's
//! classifier in a budget-enforcing [`Oracle`] with the query log
//! enabled, run the sketch-program attack, and fold the log into a
//! digest the client (and CI) can compare against an in-process run of
//! the same job. All request validation happens here, *before* any model
//! work, and every failure is a recoverable error string.

use crate::protocol::{ImageSpec, JobOutcome, JobRequest};
use crate::zoo::{ModelShard, ShardedZoo};
use oppsla_attacks::{Attack, AttackOutcome, SketchProgramAttack};
use oppsla_core::dsl::{parse_program, Program};
use oppsla_core::image::Image;
use oppsla_core::oracle::{BatchClassifier, Classifier, Oracle, QueryLogEntry};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// Budgets above this are rejected at admission: one tenant must not be
/// able to hold an admission slot on a near-infinite attack.
pub const MAX_JOB_BUDGET: u64 = 10_000_000;

/// FNV-1a 64 digest over a query log: seq, candidate, prediction and
/// per-query score hash of every counted query, in order. Two jobs saw
/// byte-identical oracle interactions iff their digests match.
pub fn digest_query_log(log: &[QueryLogEntry]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x100_0000_01b3;
    fn mix(mut h: u64, bytes: &[u8]) -> u64 {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
        h
    }
    let mut h = OFFSET;
    for e in log {
        h = mix(h, &e.seq.to_le_bytes());
        match e.pixel {
            None => h = mix(h, &[0]),
            Some((row, col, rgb)) => {
                h = mix(h, &[1]);
                h = mix(h, &row.to_le_bytes());
                h = mix(h, &col.to_le_bytes());
                for c in rgb {
                    h = mix(h, &c.to_le_bytes());
                }
            }
        }
        h = mix(h, &e.pred.to_le_bytes());
        h = mix(h, &e.score_hash.to_le_bytes());
    }
    h
}

/// A validated job, ready to run.
struct ResolvedJob {
    shard: Arc<ModelShard>,
    image: Image,
    true_class: usize,
    program: Program,
    budget: u64,
    seed: u64,
}

fn resolve(zoo: &ShardedZoo, req: &JobRequest) -> Result<ResolvedJob, String> {
    let arch = crate::protocol::parse_arch(&req.arch)?;
    let scale = crate::protocol::parse_scale(&req.scale)?;
    if req.budget == 0 {
        return Err("budget must be at least 1".into());
    }
    if req.budget > MAX_JOB_BUDGET {
        return Err(format!(
            "budget {} exceeds the per-job limit of {MAX_JOB_BUDGET}",
            req.budget
        ));
    }
    let program = match &req.program {
        None => Program::paper_example(),
        Some(src) => parse_program(src).map_err(|e| format!("bad program: {e}"))?,
    };
    // Validation that needs the shard (class counts, image geometry)
    // happens after the cheap checks so garbage requests never trigger a
    // model load.
    let shard = zoo.shard(arch, scale);
    let num_classes = shard.classifier.num_classes();
    let (image, true_class) = match &req.image {
        ImageSpec {
            test_index: Some(i),
            inline: None,
        } => {
            let i = usize::try_from(*i).map_err(|_| "test_index out of range".to_string())?;
            let (image, label) = shard
                .test_set
                .get(i)
                .ok_or_else(|| {
                    format!(
                        "test_index {i} out of range (set has {})",
                        shard.test_set.len()
                    )
                })?
                .clone();
            (image, label)
        }
        ImageSpec {
            test_index: None,
            inline: Some(inline),
        } => {
            let spec = scale.input_spec();
            let (h, w) = (inline.height as usize, inline.width as usize);
            if h != spec.height || w != spec.width {
                return Err(format!(
                    "inline image is {h}x{w} but {} expects {}x{}",
                    req.scale, spec.height, spec.width
                ));
            }
            if inline.data.len() != h * w * 3 {
                return Err(format!(
                    "inline image data has {} values, expected {}",
                    inline.data.len(),
                    h * w * 3
                ));
            }
            if !inline
                .data
                .iter()
                .all(|v| v.is_finite() && (0.0..=1.0).contains(v))
            {
                return Err("inline image values must be finite and within [0, 1]".into());
            }
            let true_class = usize::try_from(inline.true_class)
                .map_err(|_| "true_class out of range".to_string())?;
            if true_class >= num_classes {
                return Err(format!(
                    "true_class {true_class} out of range for {num_classes} classes"
                ));
            }
            (Image::new(h, w, inline.data.clone()), true_class)
        }
        _ => {
            return Err("image must set exactly one of test_index or inline".into());
        }
    };
    Ok(ResolvedJob {
        shard,
        image,
        true_class,
        program,
        budget: req.budget,
        seed: req.seed,
    })
}

/// A finished job: the wire-visible outcome plus route attribution the
/// observability plane uses (the outcome deliberately stays exactly the
/// client-facing report — the split lives beside it, not inside it).
#[derive(Debug, Clone)]
pub struct CompletedJob {
    /// The client-facing outcome, exactly as serialized on the wire.
    pub outcome: JobOutcome,
    /// Counted queries that took the full-image scoring route.
    pub full_queries: u64,
    /// Counted queries that took the sparse one-pixel delta route.
    pub delta_queries: u64,
}

/// Runs one attack job on the calling thread, over a private session of
/// the shard's classifier: the same path an in-process attack takes, so
/// a served job's outcome, query count and log digest are those of a
/// private-session run of the same request.
///
/// # Errors
///
/// Returns a human-readable message for every invalid request (unknown
/// model, bad image spec, bad program, out-of-range budget). Valid jobs
/// always produce an outcome — budget exhaustion is a `"failure"`
/// outcome, not an error.
pub fn run_job(zoo: &ShardedZoo, req: &JobRequest) -> Result<CompletedJob, String> {
    let job = resolve(zoo, req)?;
    let session = job.shard.classifier.session();
    let mut oracle = Oracle::with_budget(&*session, job.budget);
    oracle.enable_query_log();
    let attack = SketchProgramAttack::new(job.program);
    let mut rng = ChaCha8Rng::seed_from_u64(job.seed);
    let outcome = attack.attack(&mut oracle, &job.image, job.true_class, &mut rng);
    let log = oracle.take_query_log();
    let digest = digest_query_log(&log);
    let full_queries = log.iter().filter(|e| e.pixel.is_none()).count() as u64;
    let delta_queries = log.len() as u64 - full_queries;
    let (status, location, pixel) = match &outcome {
        AttackOutcome::Success {
            location, pixel, ..
        } => (
            "success",
            Some([u64::from(location.row), u64::from(location.col)]),
            Some(pixel.0),
        ),
        AttackOutcome::Failure { .. } => ("failure", None, None),
        AttackOutcome::AlreadyMisclassified { .. } => ("already_misclassified", None, None),
    };
    Ok(CompletedJob {
        outcome: JobOutcome {
            status: status.into(),
            queries: outcome.queries(),
            location,
            pixel,
            log_len: log.len() as u64,
            log_fnv: format!("{digest:016x}"),
        },
        full_queries,
        delta_queries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use oppsla_eval::zoo::ZooConfig;

    fn fast_zoo() -> Arc<ShardedZoo> {
        Arc::new(ShardedZoo::new(
            ZooConfig {
                train_per_class: 8,
                epochs: Some(2),
                learning_rate: 2e-3,
                seed: 1,
                cache_dir: None,
            },
            2,
            9,
        ))
    }

    fn mlp_request() -> JobRequest {
        JobRequest {
            arch: "mlp".into(),
            scale: "shapes32".into(),
            image: ImageSpec {
                test_index: Some(0),
                inline: None,
            },
            budget: 300,
            program: None,
            seed: 7,
        }
    }

    #[test]
    fn jobs_are_deterministic_given_the_request() {
        let zoo = fast_zoo();
        let a = run_job(&zoo, &mlp_request()).unwrap();
        let b = run_job(&zoo, &mlp_request()).unwrap();
        assert_eq!(a.outcome, b.outcome, "same request => same outcome");
        assert!(a.outcome.queries <= 300);
        assert_eq!(
            a.outcome.log_len, a.outcome.queries,
            "every counted query is logged"
        );
        assert_eq!(
            a.full_queries + a.delta_queries,
            a.outcome.queries,
            "route attribution partitions the counted queries"
        );
        assert!(a.full_queries >= 1, "the baseline forward is a full query");
    }

    #[test]
    fn invalid_requests_are_rejected_before_model_work() {
        let zoo = fast_zoo();
        let cases: Vec<(JobRequest, &str)> = vec![
            (
                JobRequest {
                    arch: "vgg".into(),
                    ..mlp_request()
                },
                "unknown arch",
            ),
            (
                JobRequest {
                    scale: "cifar".into(),
                    ..mlp_request()
                },
                "unknown scale",
            ),
            (
                JobRequest {
                    budget: 0,
                    ..mlp_request()
                },
                "budget",
            ),
            (
                JobRequest {
                    budget: MAX_JOB_BUDGET + 1,
                    ..mlp_request()
                },
                "per-job limit",
            ),
            (
                JobRequest {
                    program: Some("if garbage(".into()),
                    ..mlp_request()
                },
                "bad program",
            ),
            (
                JobRequest {
                    image: ImageSpec {
                        test_index: Some(10_000),
                        inline: None,
                    },
                    ..mlp_request()
                },
                "out of range",
            ),
            (
                JobRequest {
                    image: ImageSpec {
                        test_index: None,
                        inline: None,
                    },
                    ..mlp_request()
                },
                "exactly one",
            ),
        ];
        for (req, want) in cases {
            let err = run_job(&zoo, &req).unwrap_err();
            assert!(err.contains(want), "{req:?}: {err:?} missing {want:?}");
        }
    }

    #[test]
    fn digest_is_order_and_content_sensitive() {
        let a = QueryLogEntry {
            seq: 1,
            pixel: None,
            pred: 2,
            score_hash: 0xdead,
        };
        let b = QueryLogEntry {
            seq: 2,
            pixel: Some((3, 4, [1, 2, 3])),
            pred: 0,
            score_hash: 0xbeef,
        };
        assert_ne!(digest_query_log(&[a, b]), digest_query_log(&[b, a]));
        assert_ne!(digest_query_log(&[a]), digest_query_log(&[b]));
        assert_eq!(digest_query_log(&[a, b]), digest_query_log(&[a, b]));
    }
}
