//! Per-query event tracing for the OPPSLA attack and synthesis loops.
//!
//! Where the telemetry counters (the crate root) answer *how many* queries
//! each phase spent, a trace answers *which* queries: every oracle call is
//! recorded with its sequence number, image, phase, pixel location,
//! perturbation, routing (full / delta / batch-hit / batch-miss), delta-
//! cache classification, and resulting margin / label flip — and every
//! Metropolis–Hastings synthesis step with its pretty-printed condition,
//! score, and accept/reject decision. A recorded trace can be *replayed*
//! (`trace_replay` re-executes the queries and verifies scores and
//! accounting byte-identically) or *aggregated* (`trace_report`).
//!
//! # Design
//!
//! * **Compiled in, armed at run time.** Until [`start`] arms the
//!   recorder, each hook is one relaxed atomic load and a branch; the
//!   recording itself is out of line and cold, so the query hot loops
//!   keep their code (`forward_bench` measures the disarmed cost, CI
//!   gates it). [`start`] also arms the telemetry recorder (the crate
//!   root), whose op totals the trace's closing `ops` records read.
//! * **TLS buffers, global merge.** Like the counters, records accumulate
//!   in a per-thread buffer (no locks on the hot path beyond an amortized
//!   flush every [`TLS_BUF_CAP`] records) and merge into a process-global
//!   sink on flush/thread exit. Worker threads flush before their scope
//!   joins (see `oppsla_core::parallel`).
//! * **Bounded memory, spill to disk.** The global sink either streams
//!   JSONL straight to a file ([`TraceConfig::path`]) — memory then stays
//!   bounded by the TLS buffers — or keeps an in-memory ring capped at
//!   [`TraceConfig::mem_cap`] records, counting (never silently hiding)
//!   drops.
//! * **Deterministic content for any thread count.** Every record is
//!   addressed by `(section, round, lane, image, sub)`: sections and
//!   rounds advance only on the coordinating thread between parallel
//!   regions, the per-image index and per-run `sub` counter are set
//!   inside each worker's item closure, and main-thread metadata records
//!   carry a global emission sequence. File line order depends on worker
//!   scheduling, but sorting by [`Record::canonical_key`] yields a
//!   byte-identical stream for any `--threads` value.

use std::fmt::Write as _;
use std::io;
use std::path::PathBuf;

/// Records flushed from a thread-local buffer to the global sink per
/// batch; bounds per-thread memory and amortizes the sink lock.
pub const TLS_BUF_CAP: usize = 256;

/// Sentinel for "no pixel": full-image queries carry this row/col.
pub const NO_PIXEL: u32 = u32::MAX;

/// Sentinel section id for end-of-run records ([`Body::Ops`],
/// [`Body::Summary`]): sorts after every data section.
pub const END_SECTION: u32 = u32::MAX;

// ---------------------------------------------------------------------------
// Record types.
// ---------------------------------------------------------------------------

/// One trace record: a canonical address plus a kind-specific body.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Unit of work over one (model, image set); assigned by
    /// [`begin_section`] on the coordinating thread.
    pub section: u32,
    /// Evaluation sweep within the section; advanced by [`begin_sweep`].
    pub round: u32,
    /// 0 = coordinating-thread metadata, 1 = per-image events. Metadata
    /// sorts ahead of the round's per-image records.
    pub lane: u8,
    /// Index of the image within the sweep's set (0 for metadata).
    pub image: u32,
    /// Emission sequence: a global counter for metadata records, a
    /// per-image-run counter (reset by [`set_image`]) for lane-1 records.
    pub sub: u64,
    /// The event payload.
    pub body: Body,
}

/// A trace record payload.
#[derive(Debug, Clone, PartialEq)]
pub enum Body {
    /// Starts a section: everything until the next `Section` runs against
    /// one model and one deterministically reconstructible image set.
    Section {
        /// Human-readable section label (e.g. `fig3/cifar/resnet20/oppsla`).
        label: String,
        /// Model-zoo scale id (e.g. `cifar`).
        scale: String,
        /// Architecture id the queries ran against.
        arch: String,
        /// Image-set kind (`test` or `synth_train`).
        set: String,
        /// Images per class in the set.
        per_class: u32,
        /// Seed the set was drawn with.
        set_seed: u64,
        /// Per-image query budget (0 = unlimited).
        budget: u64,
        /// Attack name, or `synthesis` for a synthesizer section.
        attack: String,
        /// Base seed of the attack/synthesis RNG.
        attack_seed: u64,
    },
    /// Narrows the section's set to images of one class (per-class
    /// synthesis); image indices that follow are relative to the slice.
    Class {
        /// The class whose images remain.
        class: u32,
    },
    /// Narrows the current set to the listed indices (attackability
    /// prefilter); image indices that follow are relative to `kept`.
    Filter {
        /// Kept indices into the previous set, ascending.
        kept: Vec<u32>,
    },
    /// Starts an evaluation sweep (one parallel region): all lane-1
    /// records of this round ran under it.
    Sweep {
        /// Sweep kind (`prefilter`, `eval`, `attack_eval`, `transfer`).
        sweep: String,
        /// Number of images in the sweep.
        n: u32,
        /// Pretty-printed candidate program ("" when not applicable).
        program: String,
    },
    /// One Metropolis–Hastings synthesis step (after its eval sweep).
    Synth {
        /// MH iteration index (0 = initial program).
        step: u32,
        /// Pretty-printed proposal.
        program: String,
        /// Score (average queries over the training images).
        score: f64,
        /// Whether the proposal was accepted.
        accepted: bool,
    },
    /// One oracle query.
    Query {
        /// Attack phase (`baseline`, `init_scan`, `refine`, `refine_b3`,
        /// `refine_b4`).
        phase: String,
        /// Oracle routing (`full`, `delta`, `batch_hit`, `batch_miss`,
        /// `batch`, or `none` when untagged).
        route: String,
        /// Delta-cache classification (`hit`, `rebase`, `cold`, or `none`
        /// when no single-image incremental forward ran).
        cache: String,
        /// 1-based query ordinal within the image's run (the oracle's
        /// count after this query).
        seq: u64,
        /// Perturbed pixel row ([`NO_PIXEL`] for full-image queries).
        row: u32,
        /// Perturbed pixel column ([`NO_PIXEL`] for full-image queries).
        col: u32,
        /// Perturbation red channel.
        r: f32,
        /// Perturbation green channel.
        g: f32,
        /// Perturbation blue channel.
        b: f32,
        /// Resulting margin (negative = adversarial).
        margin: f32,
        /// Predicted class (argmax).
        pred: u32,
        /// Whether the prediction differs from the true class.
        flip: bool,
    },
    /// A synthesized-condition firing (recorded when it fires).
    Cond {
        /// Condition id (`b1`..`b4`).
        cond: String,
    },
    /// Per-image run summary (one attack finished).
    Run {
        /// Queries the run spent.
        queries: u64,
        /// Whether the attack succeeded.
        success: bool,
    },
    /// Per-op forward-pass time, from the telemetry totals at [`finish`]
    /// (wall-clock: excluded from canonical A/B diffs by `--no-ops`).
    Ops {
        /// Op kind wire name (`conv2d`, `linear`, …).
        op: String,
        /// Summed nanoseconds.
        ns: u64,
        /// Executions.
        calls: u64,
    },
    /// End-of-trace accounting, written by [`finish`].
    Summary {
        /// Data records written before this summary.
        records: u64,
        /// Records dropped by the bounded in-memory sink.
        dropped: u64,
    },
}

impl Record {
    /// The canonical sort key: `(section, round, lane, image, sub)`.
    /// Sorting by it yields identical streams for any worker thread
    /// count.
    pub fn canonical_key(&self) -> (u32, u32, u8, u32, u64) {
        (self.section, self.round, self.lane, self.image, self.sub)
    }

    /// The record kind's wire name.
    pub fn kind(&self) -> &'static str {
        match self.body {
            Body::Section { .. } => "section",
            Body::Class { .. } => "class",
            Body::Filter { .. } => "filter",
            Body::Sweep { .. } => "sweep",
            Body::Synth { .. } => "synth",
            Body::Query { .. } => "query",
            Body::Cond { .. } => "cond",
            Body::Run { .. } => "run",
            Body::Ops { .. } => "ops",
            Body::Summary { .. } => "summary",
        }
    }

    /// Serializes the record as one JSON object (no trailing newline).
    /// Floats use Rust's shortest round-trip formatting, so
    /// [`Record::parse`] reproduces them bit-identically.
    pub fn to_jsonl(&self) -> String {
        let mut s = String::with_capacity(128);
        let _ = write!(
            s,
            "{{\"k\":\"{}\",\"sec\":{},\"rnd\":{},\"lane\":{},\"img\":{},\"sub\":{}",
            self.kind(),
            self.section,
            self.round,
            self.lane,
            self.image,
            self.sub
        );
        fn str_field(s: &mut String, key: &str, v: &str) {
            let _ = write!(s, ",\"{key}\":");
            push_json_string(s, v);
        }
        match &self.body {
            Body::Section {
                label,
                scale,
                arch,
                set,
                per_class,
                set_seed,
                budget,
                attack,
                attack_seed,
            } => {
                str_field(&mut s, "label", label);
                str_field(&mut s, "scale", scale);
                str_field(&mut s, "arch", arch);
                str_field(&mut s, "set", set);
                let _ = write!(
                    s,
                    ",\"per_class\":{per_class},\"set_seed\":{set_seed},\"budget\":{budget}"
                );
                str_field(&mut s, "attack", attack);
                let _ = write!(s, ",\"attack_seed\":{attack_seed}");
            }
            Body::Class { class } => {
                let _ = write!(s, ",\"class\":{class}");
            }
            Body::Filter { kept } => {
                s.push_str(",\"kept\":[");
                for (i, k) in kept.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    let _ = write!(s, "{k}");
                }
                s.push(']');
            }
            Body::Sweep { sweep, n, program } => {
                str_field(&mut s, "sweep", sweep);
                let _ = write!(s, ",\"n\":{n}");
                str_field(&mut s, "program", program);
            }
            Body::Synth {
                step,
                program,
                score,
                accepted,
            } => {
                let _ = write!(s, ",\"step\":{step}");
                str_field(&mut s, "program", program);
                let _ = write!(s, ",\"score\":{score},\"accepted\":{accepted}");
            }
            Body::Query {
                phase,
                route,
                cache,
                seq,
                row,
                col,
                r,
                g,
                b,
                margin,
                pred,
                flip,
            } => {
                str_field(&mut s, "phase", phase);
                str_field(&mut s, "route", route);
                str_field(&mut s, "cache", cache);
                let _ = write!(
                    s,
                    ",\"seq\":{seq},\"row\":{row},\"col\":{col},\"r\":{r},\"g\":{g},\"b\":{b},\"margin\":{margin},\"pred\":{pred},\"flip\":{flip}"
                );
            }
            Body::Cond { cond } => {
                str_field(&mut s, "cond", cond);
            }
            Body::Run { queries, success } => {
                let _ = write!(s, ",\"queries\":{queries},\"success\":{success}");
            }
            Body::Ops { op, ns, calls } => {
                str_field(&mut s, "op", op);
                let _ = write!(s, ",\"ns\":{ns},\"calls\":{calls}");
            }
            Body::Summary { records, dropped } => {
                let _ = write!(s, ",\"records\":{records},\"dropped\":{dropped}");
            }
        }
        s.push('}');
        s
    }

    /// Parses one JSONL line produced by [`Record::to_jsonl`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed token or missing
    /// field.
    pub fn parse(line: &str) -> Result<Record, String> {
        let fields = parse_flat_json(line)?;
        let get = |key: &str| -> Result<&JsonScalar, String> {
            fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing field {key:?} in {line:?}"))
        };
        let get_str = |key: &str| -> Result<String, String> {
            match get(key)? {
                JsonScalar::Str(s) => Ok(s.clone()),
                other => Err(format!("field {key:?}: expected string, got {other:?}")),
            }
        };
        let get_bool = |key: &str| -> Result<bool, String> {
            match get(key)? {
                JsonScalar::Bool(b) => Ok(*b),
                other => Err(format!("field {key:?}: expected bool, got {other:?}")),
            }
        };
        fn num<T: std::str::FromStr>(raw: &str, key: &str) -> Result<T, String> {
            raw.parse()
                .map_err(|_| format!("field {key:?}: bad number {raw:?}"))
        }
        let get_num = |key: &str| -> Result<String, String> {
            match get(key)? {
                JsonScalar::Num(raw) => Ok(raw.clone()),
                other => Err(format!("field {key:?}: expected number, got {other:?}")),
            }
        };
        let get_u64 = |key: &str| -> Result<u64, String> { num(&get_num(key)?, key) };
        let get_u32 = |key: &str| -> Result<u32, String> { num(&get_num(key)?, key) };
        let get_f32 = |key: &str| -> Result<f32, String> { num(&get_num(key)?, key) };
        let get_f64 = |key: &str| -> Result<f64, String> { num(&get_num(key)?, key) };

        let kind = get_str("k")?;
        let body = match kind.as_str() {
            "section" => Body::Section {
                label: get_str("label")?,
                scale: get_str("scale")?,
                arch: get_str("arch")?,
                set: get_str("set")?,
                per_class: get_u32("per_class")?,
                set_seed: get_u64("set_seed")?,
                budget: get_u64("budget")?,
                attack: get_str("attack")?,
                attack_seed: get_u64("attack_seed")?,
            },
            "class" => Body::Class {
                class: get_u32("class")?,
            },
            "filter" => {
                let kept = match get("kept")? {
                    JsonScalar::Arr(items) => items
                        .iter()
                        .map(|raw| num::<u32>(raw, "kept"))
                        .collect::<Result<Vec<u32>, String>>()?,
                    other => return Err(format!("field \"kept\": expected array, got {other:?}")),
                };
                Body::Filter { kept }
            }
            "sweep" => Body::Sweep {
                sweep: get_str("sweep")?,
                n: get_u32("n")?,
                program: get_str("program")?,
            },
            "synth" => Body::Synth {
                step: get_u32("step")?,
                program: get_str("program")?,
                score: get_f64("score")?,
                accepted: get_bool("accepted")?,
            },
            "query" => Body::Query {
                phase: get_str("phase")?,
                route: get_str("route")?,
                cache: get_str("cache")?,
                seq: get_u64("seq")?,
                row: get_u32("row")?,
                col: get_u32("col")?,
                r: get_f32("r")?,
                g: get_f32("g")?,
                b: get_f32("b")?,
                margin: get_f32("margin")?,
                pred: get_u32("pred")?,
                flip: get_bool("flip")?,
            },
            "cond" => Body::Cond {
                cond: get_str("cond")?,
            },
            "run" => Body::Run {
                queries: get_u64("queries")?,
                success: get_bool("success")?,
            },
            "ops" => Body::Ops {
                op: get_str("op")?,
                ns: get_u64("ns")?,
                calls: get_u64("calls")?,
            },
            "summary" => Body::Summary {
                records: get_u64("records")?,
                dropped: get_u64("dropped")?,
            },
            other => return Err(format!("unknown record kind {other:?}")),
        };
        Ok(Record {
            section: get_u32("sec")?,
            round: get_u32("rnd")?,
            lane: num(&get_num("lane")?, "lane")?,
            image: get_u32("img")?,
            sub: get_u64("sub")?,
            body,
        })
    }
}

/// Sorts records into their canonical, thread-count-invariant order
/// (stable, by [`Record::canonical_key`]).
pub fn canonical_sort(records: &mut [Record]) {
    records.sort_by_key(|r| r.canonical_key());
}

// ---------------------------------------------------------------------------
// Minimal flat-JSON codec (only what the record format needs).
// ---------------------------------------------------------------------------

/// A scalar (or flat integer array) value in a parsed trace line.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonScalar {
    /// A string, unescaped.
    Str(String),
    /// A number, kept as its raw text so callers parse it at the exact
    /// target type (preserving shortest-round-trip floats).
    Num(String),
    /// A boolean.
    Bool(bool),
    /// An array of raw number texts.
    Arr(Vec<String>),
}

/// Escapes `v` into `buf` as a JSON string literal (with quotes); the
/// inverse of the parser used by [`parse_flat_json`].
pub fn push_json_string(buf: &mut String, v: &str) {
    buf.push('"');
    for ch in v.chars() {
        match ch {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(buf, "\\u{:04x}", c as u32);
            }
            c => buf.push(c),
        }
    }
    buf.push('"');
}

/// Parses one flat JSON object (string/number/bool values plus flat
/// number arrays) into its key/value pairs in document order.
///
/// # Errors
///
/// Returns a description of the first syntax error. Nested objects are
/// rejected — trace records are flat by construction.
pub fn parse_flat_json(line: &str) -> Result<Vec<(String, JsonScalar)>, String> {
    let mut p = Parser {
        bytes: line.trim().as_bytes(),
        pos: 0,
    };
    p.expect(b'{')?;
    let mut out = Vec::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.next();
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err("trailing bytes after object".into());
        }
        return Ok(out);
    }
    loop {
        p.skip_ws();
        let key = p.string()?;
        p.skip_ws();
        p.expect(b':')?;
        p.skip_ws();
        let value = p.value()?;
        out.push((key, value));
        p.skip_ws();
        match p.next() {
            Some(b',') => continue,
            Some(b'}') => break,
            other => return Err(format!("expected ',' or '}}', got {other:?}")),
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err("trailing bytes after object".into());
    }
    Ok(out)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        match self.next() {
            Some(b) if b == want => Ok(()),
            other => Err(format!("expected {:?}, got {other:?}", want as char)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.next() {
                None => return Err("unterminated string".into()),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.next() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self.next().ok_or("truncated \\u escape")?;
                            code = code * 16
                                + (d as char)
                                    .to_digit(16)
                                    .ok_or_else(|| format!("bad hex digit {:?}", d as char))?;
                        }
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| format!("bad \\u escape {code:#x}"))?,
                        );
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                Some(b) if b < 0x80 => out.push(b as char),
                Some(b) => {
                    // Multi-byte UTF-8: copy the whole sequence through.
                    let start = self.pos - 1;
                    let len = match b {
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    if start + len > self.bytes.len() {
                        return Err("truncated UTF-8 sequence".into());
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..start + len])
                        .map_err(|e| format!("bad UTF-8 in string: {e}"))?;
                    out.push_str(chunk);
                    self.pos = start + len;
                }
            }
        }
    }

    fn raw_number(&mut self) -> Result<String, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9' | b'i' | b'n' | b'f' | b'a' | b'N')
        ) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(format!("expected number at byte {start}"));
        }
        Ok(std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number bytes are ASCII")
            .to_owned())
    }

    fn value(&mut self) -> Result<JsonScalar, String> {
        match self.peek() {
            Some(b'"') => Ok(JsonScalar::Str(self.string()?)),
            Some(b't') => {
                self.literal("true")?;
                Ok(JsonScalar::Bool(true))
            }
            Some(b'f') if self.bytes[self.pos..].starts_with(b"false") => {
                self.literal("false")?;
                Ok(JsonScalar::Bool(false))
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(JsonScalar::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.raw_number()?);
                    self.skip_ws();
                    match self.next() {
                        Some(b',') => continue,
                        Some(b']') => break,
                        other => return Err(format!("expected ',' or ']', got {other:?}")),
                    }
                }
                Ok(JsonScalar::Arr(items))
            }
            _ => Ok(JsonScalar::Num(self.raw_number()?)),
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(format!("expected literal {word:?}"))
        }
    }
}

// ---------------------------------------------------------------------------
// Recorder configuration and public hook API.
// ---------------------------------------------------------------------------

/// How [`start`] should store the recorded stream.
#[derive(Debug, Clone, Default)]
pub struct TraceConfig {
    /// Spill target: records stream to this JSONL file as TLS buffers
    /// flush (memory stays bounded by the buffers). `None` keeps records
    /// in memory for [`drain_records`], capped at `mem_cap`.
    pub path: Option<PathBuf>,
    /// In-memory record cap when `path` is `None` (0 = default 1M).
    pub mem_cap: usize,
}

/// End-of-trace accounting returned by [`finish`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Data records written (before the trailing summary).
    pub records: u64,
    /// Records dropped by the bounded in-memory sink.
    pub dropped: u64,
    /// Sink I/O errors (failed writes/flushes to the spill file).
    pub io_errors: u64,
}

/// Oracle routing of one query, tagged by `core::oracle`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteTag {
    /// Full-image forward (`query_into`).
    Full,
    /// Single-pixel incremental forward (`query_pixel_delta_into`, no
    /// pending speculation).
    Delta,
    /// Served from the oracle's speculation pool.
    BatchHit,
    /// Speculation was pending but did not contain this candidate; the
    /// query ran incrementally.
    BatchMiss,
    /// Part of an explicit counted batch (`query_batch`).
    Batch,
}

impl RouteTag {
    /// The stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            RouteTag::Full => "full",
            RouteTag::Delta => "delta",
            RouteTag::BatchHit => "batch_hit",
            RouteTag::BatchMiss => "batch_miss",
            RouteTag::Batch => "batch",
        }
    }
}

/// Delta-cache classification of one query, tagged by the inference
/// engine when a single-image incremental forward actually runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheTag {
    /// Base activations were already cached for this base image.
    Hit,
    /// The cache was recaptured for a new base image.
    Rebase,
    /// The cache was cold (first use).
    Cold,
}

impl CacheTag {
    /// The stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            CacheTag::Hit => "hit",
            CacheTag::Rebase => "rebase",
            CacheTag::Cold => "cold",
        }
    }
}

/// Everything a query site knows about one oracle query; routing and
/// cache tags are joined in from the thread-local pending tags set by
/// the oracle/engine during the call.
#[derive(Debug, Clone, Copy)]
pub struct QueryInfo {
    /// Attack phase wire name.
    pub phase: &'static str,
    /// The oracle's query count after this query (1-based ordinal).
    pub seq: u64,
    /// Perturbed pixel `(row, col, rgb)`; `None` for full-image queries.
    pub pixel: Option<(u32, u32, [f32; 3])>,
    /// Resulting margin (negative = adversarial).
    pub margin: f32,
    /// Predicted class (argmax of the returned scores).
    pub pred: u32,
    /// Whether the prediction differs from the true class.
    pub flip: bool,
}

/// Metadata identifying a section's model, image set, and attack; see
/// [`Body::Section`] for field semantics.
#[derive(Debug, Clone, Default)]
pub struct SectionMeta {
    /// Human-readable section label.
    pub label: String,
    /// Model-zoo scale id.
    pub scale: String,
    /// Architecture id.
    pub arch: String,
    /// Image-set kind (`test` or `synth_train`).
    pub set: String,
    /// Images per class.
    pub per_class: u32,
    /// Image-set seed.
    pub set_seed: u64,
    /// Per-image query budget (0 = unlimited).
    pub budget: u64,
    /// Attack name or `synthesis`.
    pub attack: String,
    /// Attack/synthesis RNG base seed.
    pub attack_seed: u64,
}

/// The recorder's state, and the armed half of every per-query hook, out
/// of line: a disarmed hook inlines to a load and a branch over a call.
mod rec {
    use super::{Body, Record, TraceStats, TLS_BUF_CAP};
    use std::cell::{Cell, RefCell};
    use std::fs::File;
    use std::io::{BufWriter, Write};
    use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering::Relaxed};
    use std::sync::Mutex;

    pub(super) static ARMED: AtomicBool = AtomicBool::new(false);
    pub(super) static SECTION: AtomicU32 = AtomicU32::new(u32::MAX);
    pub(super) static ROUND: AtomicU32 = AtomicU32::new(0);
    pub(super) static MAIN_SEQ: AtomicU64 = AtomicU64::new(0);

    pub(super) enum SinkMode {
        Mem(Vec<Record>),
        File(BufWriter<File>),
    }

    pub(super) struct SinkState {
        pub(super) mode: SinkMode,
        pub(super) records: u64,
        pub(super) dropped: u64,
        pub(super) io_errors: u64,
        pub(super) mem_cap: usize,
    }

    impl SinkState {
        pub(super) fn write(&mut self, rec: Record) {
            match &mut self.mode {
                SinkMode::Mem(buf) => {
                    if buf.len() < self.mem_cap {
                        buf.push(rec);
                        self.records += 1;
                    } else {
                        self.dropped += 1;
                    }
                }
                SinkMode::File(out) => {
                    let mut line = rec.to_jsonl();
                    line.push('\n');
                    if out.write_all(line.as_bytes()).is_err() {
                        self.io_errors += 1;
                    } else {
                        self.records += 1;
                    }
                }
            }
        }

        pub(super) fn stats(&self) -> TraceStats {
            TraceStats {
                records: self.records,
                dropped: self.dropped,
                io_errors: self.io_errors,
            }
        }
    }

    pub(super) static SINK: Mutex<Option<SinkState>> = Mutex::new(None);

    /// Locks the global sink, recovering from poisoning: a worker that
    /// panicked while holding the lock leaves the sink in a consistent
    /// state (every [`SinkState`] mutation is a single append/counter
    /// bump), so a long-running server must keep tracing rather than
    /// propagate the panic into every later query of every tenant.
    pub(super) fn lock_sink() -> std::sync::MutexGuard<'static, Option<SinkState>> {
        SINK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    struct TlsTrace {
        buf: RefCell<Vec<Record>>,
        image: Cell<u32>,
        sub: Cell<u64>,
        route: Cell<u8>,
        cache: Cell<u8>,
    }

    impl Drop for TlsTrace {
        fn drop(&mut self) {
            // Thread exit: spill this thread's residue before a scoped
            // join observes completion (workers also flush explicitly).
            flush_vec(&mut self.buf.borrow_mut());
        }
    }

    thread_local! {
        static TLS: TlsTrace = const {
            TlsTrace {
                buf: RefCell::new(Vec::new()),
                image: Cell::new(0),
                sub: Cell::new(0),
                route: Cell::new(0),
                cache: Cell::new(0),
            }
        };
    }

    fn flush_vec(buf: &mut Vec<Record>) {
        if buf.is_empty() {
            return;
        }
        let mut guard = lock_sink();
        match guard.as_mut() {
            Some(state) => {
                for rec in buf.drain(..) {
                    state.write(rec);
                }
            }
            None => buf.clear(),
        }
    }

    pub(super) fn flush_tls() {
        let _ = TLS.try_with(|t| flush_vec(&mut t.buf.borrow_mut()));
    }

    /// Appends a metadata record on the coordinating thread.
    pub(super) fn push_meta(body: Body) {
        let rec = Record {
            section: SECTION.load(Relaxed),
            round: ROUND.load(Relaxed),
            lane: 0,
            image: 0,
            sub: MAIN_SEQ.fetch_add(1, Relaxed),
            body,
        };
        push(rec);
    }

    /// Appends a per-image (lane 1) record on the calling worker.
    #[cold]
    #[inline(never)]
    pub(super) fn push_image_event(body: Body) {
        let _ = TLS.try_with(|t| {
            let rec = Record {
                section: SECTION.load(Relaxed),
                round: ROUND.load(Relaxed),
                lane: 1,
                image: t.image.get(),
                sub: t.sub.replace(t.sub.get() + 1),
                body,
            };
            let mut buf = t.buf.borrow_mut();
            buf.push(rec);
            if buf.len() >= TLS_BUF_CAP {
                flush_vec(&mut buf);
            }
        });
    }

    fn push(rec: Record) {
        let _ = TLS.try_with(|t| {
            let mut buf = t.buf.borrow_mut();
            buf.push(rec);
            if buf.len() >= TLS_BUF_CAP {
                flush_vec(&mut buf);
            }
        });
    }

    #[cold]
    #[inline(never)]
    pub(super) fn set_image(image: u32) {
        let _ = TLS.try_with(|t| {
            t.image.set(image);
            t.sub.set(0);
        });
    }

    #[cold]
    #[inline(never)]
    pub(super) fn set_route(route: u8) {
        let _ = TLS.try_with(|t| {
            t.route.set(route);
            t.cache.set(0);
        });
    }

    #[cold]
    #[inline(never)]
    pub(super) fn set_cache(cache: u8) {
        let _ = TLS.try_with(|t| t.cache.set(cache));
    }

    pub(super) fn take_tags() -> (u8, u8) {
        TLS.try_with(|t| (t.route.replace(0), t.cache.replace(0)))
            .unwrap_or((0, 0))
    }
}

/// Whether a trace is currently being recorded ([`start`] without a
/// matching [`finish`]).
#[inline(always)]
pub fn armed() -> bool {
    rec::ARMED.load(std::sync::atomic::Ordering::Relaxed)
}

/// Arms the recorder, and the telemetry recorder with it: the closing
/// `ops` records [`finish`] writes are its op totals. Any trace already
/// being recorded is discarded.
///
/// # Errors
///
/// Propagates creation of the spill file.
pub fn start(config: TraceConfig) -> io::Result<()> {
    use std::sync::atomic::Ordering::Relaxed;
    let mode = match &config.path {
        Some(path) => rec::SinkMode::File(std::io::BufWriter::new(std::fs::File::create(path)?)),
        None => rec::SinkMode::Mem(Vec::new()),
    };
    let mem_cap = if config.mem_cap == 0 {
        1 << 20
    } else {
        config.mem_cap
    };
    *rec::lock_sink() = Some(rec::SinkState {
        mode,
        records: 0,
        dropped: 0,
        io_errors: 0,
        mem_cap,
    });
    rec::SECTION.store(u32::MAX, Relaxed);
    rec::ROUND.store(0, Relaxed);
    rec::MAIN_SEQ.store(0, Relaxed);
    crate::arm();
    rec::ARMED.store(true, Relaxed);
    Ok(())
}

/// Disarms the recorder, appends per-op timing records (from the
/// telemetry totals) and a trailing [`Body::Summary`], flushes the spill
/// file, and returns the final accounting. Worker threads must have
/// joined (they flush their buffers on exit). The telemetry recorder
/// stays armed.
pub fn finish() -> TraceStats {
    use std::io::Write as _;
    use std::sync::atomic::Ordering::Relaxed;
    if !rec::ARMED.swap(false, Relaxed) {
        return TraceStats::default();
    }
    rec::flush_tls();
    let snap = crate::snapshot();
    let mut guard = rec::lock_sink();
    let Some(state) = guard.as_mut() else {
        return TraceStats::default();
    };
    let mut end_sub = 0u64;
    for kind in crate::OpKind::ALL {
        let i = kind as usize;
        if snap.op_calls[i] != 0 {
            state.write(Record {
                section: END_SECTION,
                round: 0,
                lane: 0,
                image: 0,
                sub: end_sub,
                body: Body::Ops {
                    op: kind.name().to_owned(),
                    ns: snap.op_ns[i],
                    calls: snap.op_calls[i],
                },
            });
            end_sub += 1;
        }
    }
    let summary = Body::Summary {
        records: state.records,
        dropped: state.dropped,
    };
    state.write(Record {
        section: END_SECTION,
        round: 0,
        lane: 0,
        image: 0,
        sub: end_sub,
        body: summary,
    });
    if let rec::SinkMode::File(out) = &mut state.mode {
        if out.flush().is_err() {
            state.io_errors += 1;
        }
    }
    state.stats()
}

/// Takes the in-memory record stream (for tests; empty when [`start`]
/// spilled to a file or was never called).
pub fn drain_records() -> Vec<Record> {
    rec::flush_tls();
    let mut guard = rec::lock_sink();
    if let Some(state) = guard.as_mut() {
        if let rec::SinkMode::Mem(buf) = &mut state.mode {
            return std::mem::take(buf);
        }
    }
    Vec::new()
}

/// Merges the calling thread's buffered records into the global sink.
/// Called by parallel workers before their scope joins; long-lived
/// threads should call it before [`finish`] runs elsewhere.
#[inline]
pub fn flush() {
    // Flush even when disarmed mid-run so buffers never go stale.
    rec::flush_tls();
}

/// Starts a new section (on the coordinating thread): bumps the section
/// id, resets the round, and records the metadata.
pub fn begin_section(meta: SectionMeta) {
    if !armed() {
        return;
    }
    use std::sync::atomic::Ordering::Relaxed;
    rec::SECTION.fetch_add(1, Relaxed); // u32::MAX wraps to 0 first.
    rec::ROUND.store(0, Relaxed);
    rec::push_meta(Body::Section {
        label: meta.label,
        scale: meta.scale,
        arch: meta.arch,
        set: meta.set,
        per_class: meta.per_class,
        set_seed: meta.set_seed,
        budget: meta.budget,
        attack: meta.attack,
        attack_seed: meta.attack_seed,
    });
}

/// Narrows the current section's image set to one class (on the
/// coordinating thread).
pub fn begin_class(class: u32) {
    if armed() {
        rec::push_meta(Body::Class { class });
    }
}

/// Records a prefilter narrowing: subsequent sweeps index into `kept`
/// (on the coordinating thread).
pub fn record_filter(kept: &[usize]) {
    if armed() {
        rec::push_meta(Body::Filter {
            kept: kept.iter().map(|&k| k as u32).collect(),
        });
    }
}

/// Starts an evaluation sweep (on the coordinating thread, before the
/// parallel region): bumps the round and records the sweep metadata.
pub fn begin_sweep(sweep: &str, n: usize, program: &str) {
    if !armed() {
        return;
    }
    rec::ROUND.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    rec::push_meta(Body::Sweep {
        sweep: sweep.to_owned(),
        n: n as u32,
        program: program.to_owned(),
    });
}

/// Records one Metropolis–Hastings step (on the coordinating thread,
/// after the proposal's evaluation sweep).
pub fn record_synth(step: usize, program: &str, score: f64, accepted: bool) {
    if armed() {
        rec::push_meta(Body::Synth {
            step: step as u32,
            program: program.to_owned(),
            score,
            accepted,
        });
    }
}

/// Binds the calling worker to image `image` of the current sweep and
/// resets its per-run record counter. Call at the top of each per-item
/// closure.
#[inline(always)]
pub fn set_image(image: usize) {
    if armed() {
        rec::set_image(image as u32);
    }
}

/// Tags the in-flight query's oracle routing (clears any stale cache
/// tag). Called by `core::oracle` at the top of each counted query.
#[inline(always)]
pub fn tag_route(route: RouteTag) {
    if armed() {
        rec::set_route(route as u8 + 1);
    }
}

/// Tags the in-flight query's delta-cache classification. Called by the
/// inference engine when a single-image incremental forward runs.
#[inline(always)]
pub fn tag_cache(cache: CacheTag) {
    if armed() {
        rec::set_cache(cache as u8 + 1);
    }
}

fn route_name(tag: u8) -> &'static str {
    match tag {
        0 => "none",
        t => RouteTag::name(match t - 1 {
            0 => RouteTag::Full,
            1 => RouteTag::Delta,
            2 => RouteTag::BatchHit,
            3 => RouteTag::BatchMiss,
            _ => RouteTag::Batch,
        }),
    }
}

fn cache_name(tag: u8) -> &'static str {
    match tag {
        0 => "none",
        1 => "hit",
        2 => "rebase",
        _ => "cold",
    }
}

/// Records one oracle query (on the worker that issued it), joining in
/// the pending route/cache tags.
#[inline(always)]
pub fn record_query(info: QueryInfo) {
    if armed() {
        push_query(info);
    }
}

#[cold]
#[inline(never)]
fn push_query(info: QueryInfo) {
    let (route, cache) = rec::take_tags();
    let (row, col, rgb) = match info.pixel {
        Some((row, col, rgb)) => (row, col, rgb),
        None => (NO_PIXEL, NO_PIXEL, [0.0, 0.0, 0.0]),
    };
    rec::push_image_event(Body::Query {
        phase: info.phase.to_owned(),
        route: route_name(route).to_owned(),
        cache: cache_name(cache).to_owned(),
        seq: info.seq,
        row,
        col,
        r: rgb[0],
        g: rgb[1],
        b: rgb[2],
        margin: info.margin,
        pred: info.pred,
        flip: info.flip,
    });
}

/// Records a synthesized-condition firing (`b1`..`b4`) on the worker.
#[inline(always)]
pub fn record_cond(cond: &'static str) {
    if armed() {
        push_cond(cond);
    }
}

#[cold]
#[inline(never)]
fn push_cond(cond: &'static str) {
    rec::push_image_event(Body::Cond {
        cond: cond.to_owned(),
    });
}

/// Records a finished per-image attack run (on the worker).
#[inline(always)]
pub fn record_run(queries: u64, success: bool) {
    if armed() {
        rec::push_image_event(Body::Run { queries, success });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<Record> {
        vec![
            Record {
                section: 0,
                round: 0,
                lane: 0,
                image: 0,
                sub: 0,
                body: Body::Section {
                    label: "unit/\"quoted\"\nlabel".into(),
                    scale: "cifar".into(),
                    arch: "resnet20".into(),
                    set: "test".into(),
                    per_class: 2,
                    set_seed: 999,
                    budget: 4096,
                    attack: "oppsla".into(),
                    attack_seed: 0,
                },
            },
            Record {
                section: 0,
                round: 1,
                lane: 0,
                image: 0,
                sub: 1,
                body: Body::Sweep {
                    sweep: "attack_eval".into(),
                    n: 20,
                    program: "or(curr(), hist(1))".into(),
                },
            },
            Record {
                section: 0,
                round: 1,
                lane: 0,
                image: 0,
                sub: 2,
                body: Body::Filter {
                    kept: vec![0, 2, 5],
                },
            },
            Record {
                section: 0,
                round: 1,
                lane: 0,
                image: 0,
                sub: 3,
                body: Body::Class { class: 7 },
            },
            Record {
                section: 0,
                round: 1,
                lane: 1,
                image: 3,
                sub: 0,
                body: Body::Query {
                    phase: "init_scan".into(),
                    route: "batch_hit".into(),
                    cache: "none".into(),
                    seq: 17,
                    row: 5,
                    col: 30,
                    r: 0.100000024,
                    g: 1.0,
                    b: -0.0,
                    margin: -3.4028235e38,
                    pred: 4,
                    flip: true,
                },
            },
            Record {
                section: 0,
                round: 1,
                lane: 1,
                image: 3,
                sub: 1,
                body: Body::Cond { cond: "b3".into() },
            },
            Record {
                section: 0,
                round: 1,
                lane: 1,
                image: 3,
                sub: 2,
                body: Body::Run {
                    queries: 42,
                    success: true,
                },
            },
            Record {
                section: 0,
                round: 2,
                lane: 0,
                image: 0,
                sub: 4,
                body: Body::Synth {
                    step: 3,
                    program: "and(b1, not(b2))".into(),
                    score: 1234.5678901,
                    accepted: false,
                },
            },
            Record {
                section: END_SECTION,
                round: 0,
                lane: 0,
                image: 0,
                sub: 0,
                body: Body::Ops {
                    op: "conv2d".into(),
                    ns: 123456789,
                    calls: 42,
                },
            },
            Record {
                section: END_SECTION,
                round: 0,
                lane: 0,
                image: 0,
                sub: 1,
                body: Body::Summary {
                    records: 9,
                    dropped: 0,
                },
            },
        ]
    }

    #[test]
    fn records_round_trip_through_jsonl() {
        for rec in sample_records() {
            let line = rec.to_jsonl();
            let back = Record::parse(&line).unwrap_or_else(|e| panic!("{e}\nline: {line}"));
            assert_eq!(back, rec, "line: {line}");
            // Serialization is canonical: a second trip is byte-identical.
            assert_eq!(back.to_jsonl(), line);
        }
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        for bits in [
            0u32,
            0x8000_0000, // -0.0
            0x3f80_0001, // nextafter(1.0)
            0x7f7f_ffff, // f32::MAX
            0x0000_0001, // smallest subnormal
            0x7f80_0000, // +inf
            std::f32::consts::PI.to_bits(),
        ] {
            let v = f32::from_bits(bits);
            let rec = Record {
                section: 0,
                round: 0,
                lane: 1,
                image: 0,
                sub: 0,
                body: Body::Query {
                    phase: "p".into(),
                    route: "full".into(),
                    cache: "none".into(),
                    seq: 1,
                    row: 0,
                    col: 0,
                    r: v,
                    g: -v,
                    b: 0.0,
                    margin: v,
                    pred: 0,
                    flip: false,
                },
            };
            let back = Record::parse(&rec.to_jsonl()).unwrap();
            if let Body::Query { r, g, margin, .. } = back.body {
                assert_eq!(r.to_bits(), v.to_bits());
                assert_eq!(g.to_bits(), (-v).to_bits());
                assert_eq!(margin.to_bits(), v.to_bits());
            } else {
                panic!("wrong kind");
            }
        }
    }

    #[test]
    fn canonical_sort_orders_meta_before_image_events() {
        let mut records = sample_records();
        // Shuffle deterministically by reversing.
        records.reverse();
        canonical_sort(&mut records);
        assert_eq!(records, sample_records());
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(Record::parse("").is_err());
        assert!(Record::parse("{").is_err());
        assert!(Record::parse(
            "{\"k\":\"nope\",\"sec\":0,\"rnd\":0,\"lane\":0,\"img\":0,\"sub\":0}"
        )
        .is_err());
        assert!(
            Record::parse("{\"k\":\"run\",\"sec\":0}").is_err(),
            "missing fields"
        );
        assert!(Record::parse("{\"k\":\"run\",\"sec\":0,\"rnd\":0,\"lane\":0,\"img\":0,\"sub\":0,\"queries\":\"x\",\"success\":true}").is_err());
    }

    #[test]
    fn flat_json_parser_handles_escapes_and_arrays() {
        let fields = parse_flat_json(
            "{\"a\":\"x\\n\\\"y\\\"\\u00e9\",\"b\":[1, 2 ,3],\"c\":true,\"d\":-1.5e3}",
        )
        .unwrap();
        assert_eq!(fields[0], ("a".into(), JsonScalar::Str("x\n\"y\"é".into())));
        assert_eq!(
            fields[1],
            (
                "b".into(),
                JsonScalar::Arr(vec!["1".into(), "2".into(), "3".into()])
            )
        );
        assert_eq!(fields[2], ("c".into(), JsonScalar::Bool(true)));
        assert_eq!(fields[3], ("d".into(), JsonScalar::Num("-1.5e3".into())));
        assert!(
            parse_flat_json("{\"a\":{}}").is_err(),
            "nested objects rejected"
        );
    }

    #[test]
    fn disarmed_trace_is_inert() {
        let _g = crate::tests::lock();
        finish();
        drain_records();
        assert!(!armed());
        begin_section(SectionMeta::default());
        begin_sweep("eval", 3, "");
        set_image(0);
        tag_route(RouteTag::Full);
        record_query(QueryInfo {
            phase: "baseline",
            seq: 1,
            pixel: None,
            margin: 0.5,
            pred: 0,
            flip: false,
        });
        record_run(1, false);
        assert_eq!(finish(), TraceStats::default());
        assert!(drain_records().is_empty());
    }

    mod armed {
        use super::super::*;
        use crate::tests::lock;

        fn record_one_run(image: usize, queries: u64) {
            set_image(image);
            for seq in 1..=queries {
                tag_route(RouteTag::Delta);
                tag_cache(CacheTag::Hit);
                record_query(QueryInfo {
                    phase: "init_scan",
                    seq,
                    pixel: Some((1, 2, [0.0, 0.5, 1.0])),
                    margin: 0.25,
                    pred: 3,
                    flip: false,
                });
            }
            record_run(queries, false);
        }

        #[test]
        fn in_memory_trace_is_recorded_and_addressed() {
            let _g = lock();
            start(TraceConfig::default()).unwrap();
            assert!(armed());
            begin_section(SectionMeta {
                label: "unit".into(),
                attack: "test".into(),
                ..SectionMeta::default()
            });
            begin_sweep("attack_eval", 2, "");
            record_one_run(0, 2);
            record_one_run(1, 1);
            let stats = finish();
            assert!(!armed());
            let mut records = drain_records();
            canonical_sort(&mut records);
            assert_eq!(stats.records, records.len() as u64);
            assert_eq!(stats.dropped, 0);
            assert_eq!(records[0].kind(), "section");
            assert_eq!(records[0].section, 0);
            assert_eq!(records[1].kind(), "sweep");
            assert_eq!(records[1].round, 1);
            let queries: Vec<&Record> = records.iter().filter(|r| r.kind() == "query").collect();
            assert_eq!(queries.len(), 3);
            assert_eq!(queries[0].image, 0);
            assert_eq!(queries[2].image, 1);
            if let Body::Query { route, cache, .. } = &queries[0].body {
                assert_eq!(route, "delta");
                assert_eq!(cache, "hit");
            } else {
                unreachable!();
            }
            let runs = records.iter().filter(|r| r.kind() == "run").count();
            assert_eq!(runs, 2);
        }

        #[test]
        fn worker_threads_merge_deterministically() {
            let _g = lock();
            // Two runs: 1 worker thread, then 4. Canonical-sorted streams
            // must be byte-identical.
            let mut streams = Vec::new();
            for threads in [1usize, 4] {
                start(TraceConfig::default()).unwrap();
                begin_section(SectionMeta {
                    label: "par".into(),
                    ..SectionMeta::default()
                });
                begin_sweep("attack_eval", 8, "");
                std::thread::scope(|scope| {
                    for worker in 0..threads {
                        scope.spawn(move || {
                            let mut image = worker;
                            while image < 8 {
                                record_one_run(image, (image as u64 % 3) + 1);
                                image += threads;
                            }
                            flush();
                        });
                    }
                });
                finish();
                let mut records = drain_records();
                canonical_sort(&mut records);
                let text: String = records.iter().map(|r| r.to_jsonl() + "\n").collect();
                streams.push(text);
            }
            assert_eq!(streams[0], streams[1], "threads 1 vs 4");
        }

        #[test]
        fn mem_cap_drops_are_counted() {
            let _g = lock();
            start(TraceConfig {
                path: None,
                mem_cap: 4,
            })
            .unwrap();
            begin_section(SectionMeta::default());
            begin_sweep("attack_eval", 1, "");
            record_one_run(0, 10);
            let stats = finish();
            assert_eq!(stats.records, 4);
            assert!(stats.dropped > 0);
            drain_records();
        }

        #[test]
        fn file_sink_spills_parseable_jsonl() {
            let _g = lock();
            let path = std::env::temp_dir()
                .join(format!("oppsla-trace-test-{}.jsonl", std::process::id()));
            start(TraceConfig {
                path: Some(path.clone()),
                mem_cap: 0,
            })
            .unwrap();
            begin_section(SectionMeta {
                label: "spill".into(),
                ..SectionMeta::default()
            });
            begin_sweep("attack_eval", 1, "");
            record_one_run(0, 3);
            let stats = finish();
            assert_eq!(stats.io_errors, 0);
            let text = std::fs::read_to_string(&path).unwrap();
            let records: Vec<Record> = text.lines().map(|l| Record::parse(l).unwrap()).collect();
            // section + sweep + 3 queries + run + summary (no ops unless
            // another test timed ops in this process — tolerate those).
            assert!(records.len() as u64 >= stats.records);
            assert!(records.iter().any(|r| r.kind() == "summary"));
            assert_eq!(records.iter().filter(|r| r.kind() == "query").count(), 3);
            let _ = std::fs::remove_file(&path);
        }

        #[test]
        fn disarmed_hooks_record_nothing() {
            let _g = lock();
            // Fully drain any prior state, then call hooks while disarmed.
            finish();
            drain_records();
            assert!(!armed());
            set_image(5);
            tag_route(RouteTag::Full);
            record_query(QueryInfo {
                phase: "baseline",
                seq: 1,
                pixel: None,
                margin: 1.0,
                pred: 0,
                flip: false,
            });
            record_run(1, false);
            start(TraceConfig::default()).unwrap();
            let before = drain_records();
            assert!(before.is_empty(), "{before:?}");
            finish();
            drain_records();
        }
    }
}
