//! Trace analysis: aggregates a `--trace` file (written by `fig3
//! --trace` / `table1 --trace`) into per-phase query attribution,
//! per-condition firing and success-rate tables, per-section
//! query-vs-success curves, and the per-op forward-pass time breakdown.
//!
//! ```text
//! cargo run --release -p oppsla-bench --bin trace_report -- \
//!     --trace PATH        (trace JSONL to analyze)
//!     [--jsonl PATH]      (append the aggregate rows as JSONL)
//!     [--canonical PATH]  (write the canonical-sorted record stream)
//!     [--prior-out PATH]  (mine a per-class pixel-saliency prior from the
//!                          corpus and save it as JSON; see
//!                          `oppsla_eval::prior` and `fig3 --prior`)
//!     [--prior-grid N]    (saliency grid resolution, default 8)
//! ```
//!
//! The human-readable report goes to stdout. `--canonical` writes every
//! record in canonical `(section, round, lane, image, sub)` order,
//! dropping the end-of-trace section (wall-clock op timings and the
//! summary): the remaining stream is a pure function of the experiment's
//! inputs, so two runs of the same experiment — at *any* `--threads`
//! values — must produce byte-identical canonical files. CI diffs them.

use oppsla_core::telemetry::trace::{canonical_sort, push_json_string, Body, Record, END_SECTION};
use oppsla_eval::cli::Args;
use oppsla_eval::report::Table;
use std::collections::BTreeMap;
use std::io::Write;
use std::process::ExitCode;

/// Share of `part` in `whole` rendered as a percentage.
fn pct(part: u64, whole: u64) -> String {
    if whole == 0 {
        "-".to_owned()
    } else {
        format!("{:.1}%", 100.0 * part as f64 / whole as f64)
    }
}

/// Per-run rollup: the conditions that fired and the closing summary.
#[derive(Default)]
struct RunAgg {
    conds: Vec<String>,
    queries: u64,
    success: bool,
    closed: bool,
}

fn main() -> ExitCode {
    let args = Args::parse(&["canonical", "jsonl", "prior-grid", "prior-out", "trace"]);
    let path = args.get_str("trace", "");
    assert!(
        !path.is_empty(),
        "usage: trace_report --trace PATH [--jsonl PATH] [--canonical PATH]"
    );
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut records = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match Record::parse(line) {
            Ok(rec) => records.push(rec),
            Err(e) => {
                eprintln!("error: {path}:{}: {e}", lineno + 1);
                return ExitCode::FAILURE;
            }
        }
    }
    canonical_sort(&mut records);

    if let Some(out_path) = args.get_opt_str("canonical") {
        match write_canonical(out_path, &records) {
            Ok(n) => println!("canonical stream ({n} record(s)) written to {out_path}"),
            Err(e) => {
                eprintln!("error: cannot write {out_path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(prior_path) = args.get_opt_str("prior-out") {
        let grid = args.get_usize("prior-grid", oppsla_eval::prior::DEFAULT_PRIOR_GRID);
        let mined = oppsla_eval::prior::mine_saliency_prior_records(&records, grid).and_then(|p| {
            oppsla_eval::prior::save_prior(&p, std::path::Path::new(prior_path)).map(|()| p)
        });
        match mined {
            Ok(p) => println!(
                "saliency prior ({grid}x{grid} grid, {} class(es)) written to {prior_path}",
                p.tables().len()
            ),
            Err(e) => {
                eprintln!("error: cannot mine prior: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    // Section id → (label, attack) from the section headers.
    let mut section_names: BTreeMap<u32, (String, String, u64)> = BTreeMap::new();
    for rec in &records {
        if let Body::Section {
            label,
            attack,
            budget,
            ..
        } = &rec.body
        {
            section_names.insert(rec.section, (label.clone(), attack.clone(), *budget));
        }
    }

    // Phase / route / cache attribution over every query record.
    let mut by_phase: BTreeMap<String, u64> = BTreeMap::new();
    let mut by_route: BTreeMap<String, u64> = BTreeMap::new();
    let mut by_cache: BTreeMap<String, u64> = BTreeMap::new();
    let mut by_section_queries: BTreeMap<u32, u64> = BTreeMap::new();
    let mut total_queries = 0u64;

    // (section, round, image) → run rollup, for the condition table and
    // the per-section curves.
    let mut runs: BTreeMap<(u32, u32, u32), RunAgg> = BTreeMap::new();
    let mut ops: Vec<(String, u64, u64)> = Vec::new();
    let mut summary: Option<(u64, u64)> = None;

    for rec in &records {
        match &rec.body {
            Body::Query {
                phase,
                route,
                cache,
                ..
            } => {
                total_queries += 1;
                *by_phase.entry(phase.clone()).or_default() += 1;
                *by_route.entry(route.clone()).or_default() += 1;
                *by_cache.entry(cache.clone()).or_default() += 1;
                *by_section_queries.entry(rec.section).or_default() += 1;
                runs.entry((rec.section, rec.round, rec.image))
                    .or_default()
                    .queries += 1;
            }
            Body::Cond { cond } => runs
                .entry((rec.section, rec.round, rec.image))
                .or_default()
                .conds
                .push(cond.clone()),
            Body::Run { queries, success } => {
                let agg = runs.entry((rec.section, rec.round, rec.image)).or_default();
                agg.queries = *queries;
                agg.success = *success;
                agg.closed = true;
            }
            Body::Ops { op, ns, calls } => ops.push((op.clone(), *ns, *calls)),
            Body::Summary { records, dropped } => summary = Some((*records, *dropped)),
            _ => {}
        }
    }

    let mut out = String::new();

    // --- Per-section query attribution -----------------------------------
    let mut sections_table = Table::new(
        "Query attribution by section".to_owned(),
        vec![
            "Section".into(),
            "Attack".into(),
            "Queries".into(),
            "Share".into(),
        ],
    );
    for (section, queries) in &by_section_queries {
        let (label, attack, _) = section_names
            .get(section)
            .cloned()
            .unwrap_or_else(|| (format!("#{section}"), "?".into(), 0));
        sections_table.push_row(vec![
            label,
            attack,
            queries.to_string(),
            pct(*queries, total_queries),
        ]);
    }
    out.push_str(&sections_table.to_string());

    // --- Phase / route / cache tables ------------------------------------
    for (title, map) in [
        ("Query attribution by phase", &by_phase),
        ("Oracle routing", &by_route),
        ("Delta-cache classification", &by_cache),
    ] {
        let mut table = Table::new(
            title.to_owned(),
            vec!["Kind".into(), "Queries".into(), "Share".into()],
        );
        for (kind, queries) in map {
            table.push_row(vec![
                kind.clone(),
                queries.to_string(),
                pct(*queries, total_queries),
            ]);
        }
        out.push_str(&table.to_string());
    }

    // --- Condition firing / success rate ---------------------------------
    // For each condition: total firings, runs it fired in, and the success
    // rate of those runs (did the run it fired in end adversarially?).
    let closed_runs: Vec<&RunAgg> = runs.values().filter(|r| r.closed).collect();
    let mut cond_firings: BTreeMap<String, u64> = BTreeMap::new();
    let mut cond_runs: BTreeMap<String, (u64, u64)> = BTreeMap::new(); // (runs, successes)
    for run in &closed_runs {
        let mut seen: Vec<&str> = Vec::new();
        for cond in &run.conds {
            *cond_firings.entry(cond.clone()).or_default() += 1;
            if !seen.contains(&cond.as_str()) {
                seen.push(cond);
                let entry = cond_runs.entry(cond.clone()).or_default();
                entry.0 += 1;
                entry.1 += u64::from(run.success);
            }
        }
    }
    let total_runs = closed_runs.len() as u64;
    let total_successes = closed_runs.iter().filter(|r| r.success).count() as u64;
    let mut cond_table = Table::new(
        "Condition firings and success rates".to_owned(),
        vec![
            "Cond".into(),
            "Firings".into(),
            "Runs fired in".into(),
            "Successes".into(),
            "Success rate".into(),
        ],
    );
    for (cond, firings) in &cond_firings {
        let (in_runs, successes) = cond_runs.get(cond).copied().unwrap_or_default();
        cond_table.push_row(vec![
            cond.clone(),
            firings.to_string(),
            in_runs.to_string(),
            successes.to_string(),
            pct(successes, in_runs),
        ]);
    }
    cond_table.push_row(vec![
        "(all runs)".into(),
        "-".into(),
        total_runs.to_string(),
        total_successes.to_string(),
        pct(total_successes, total_runs),
    ]);
    out.push_str(&cond_table.to_string());

    // --- Per-section query-vs-success curves ------------------------------
    // For attack sections: the fraction of runs that succeeded within
    // checkpoint budgets (the trace-level view of Figure 3's curves).
    // (section label, attack, [(budget checkpoint, success rate)], runs)
    type Curve = (String, String, Vec<(u64, f64)>, usize);
    let mut curves: Vec<Curve> = Vec::new();
    let mut curve_table = Table::new(
        "Success rate by query budget (per section, over all runs)".to_owned(),
        vec![
            "Section".into(),
            "Runs".into(),
            "q<=100".into(),
            "q<=500".into(),
            "q<=1000".into(),
            "q<=budget".into(),
        ],
    );
    let mut section_runs: BTreeMap<u32, Vec<&RunAgg>> = BTreeMap::new();
    for ((section, _, _), run) in &runs {
        if run.closed {
            section_runs.entry(*section).or_default().push(run);
        }
    }
    for (section, runs) in &section_runs {
        let (label, attack, budget) = section_names
            .get(section)
            .cloned()
            .unwrap_or_else(|| (format!("#{section}"), "?".into(), 0));
        if attack == "synthesis" {
            continue; // synthesis sweeps are not budgeted attack curves
        }
        let n = runs.len();
        let rate_at = |q: u64| -> f64 {
            runs.iter().filter(|r| r.success && r.queries <= q).count() as f64 / n.max(1) as f64
        };
        let max_budget = if budget == 0 { u64::MAX } else { budget };
        let checkpoints = [100, 500, 1000, max_budget];
        let mut row = vec![label.clone(), n.to_string()];
        row.extend(checkpoints.iter().map(|&q| format!("{:.3}", rate_at(q))));
        curve_table.push_row(row);
        curves.push((
            label,
            attack,
            checkpoints.iter().map(|&q| (q, rate_at(q))).collect(),
            n,
        ));
    }
    out.push_str(&curve_table.to_string());

    // --- Per-op time breakdown -------------------------------------------
    if !ops.is_empty() {
        let total_ns: u64 = ops.iter().map(|(_, ns, _)| ns).sum();
        let mut ops_table = Table::new(
            "Forward-pass time by op (wall clock)".to_owned(),
            vec![
                "Op".into(),
                "Calls".into(),
                "Total ms".into(),
                "ns/call".into(),
                "Share".into(),
            ],
        );
        for (op, ns, calls) in &ops {
            ops_table.push_row(vec![
                op.clone(),
                calls.to_string(),
                format!("{:.2}", *ns as f64 / 1e6),
                format!("{:.0}", *ns as f64 / (*calls).max(1) as f64),
                pct(*ns, total_ns),
            ]);
        }
        out.push_str(&ops_table.to_string());
    }

    match summary {
        Some((written, dropped)) => out.push_str(&format!(
            "\n{total_queries} quer(ies) in {} run(s) across {} section(s); recorder wrote \
             {written} record(s), dropped {dropped}\n",
            total_runs,
            section_names.len()
        )),
        None => out.push_str("\nwarning: no summary record — the trace was truncated mid-run\n"),
    }
    print!("{out}");

    if let Some(jsonl_path) = args.get_opt_str("jsonl") {
        let write = || -> std::io::Result<()> {
            if let Some(parent) = std::path::Path::new(jsonl_path).parent() {
                if !parent.as_os_str().is_empty() {
                    std::fs::create_dir_all(parent)?;
                }
            }
            let mut f = std::io::BufWriter::new(std::fs::File::create(jsonl_path)?);
            let mut line = String::new();
            let mut emit =
                |f: &mut dyn Write, kind: &str, fields: &[(&str, String)]| -> std::io::Result<()> {
                    line.clear();
                    line.push_str("{\"kind\":");
                    push_json_string(&mut line, kind);
                    for (key, value) in fields {
                        line.push(',');
                        push_json_string(&mut line, key);
                        line.push(':');
                        line.push_str(value);
                    }
                    line.push_str("}\n");
                    f.write_all(line.as_bytes())
                };
            for (phase, queries) in &by_phase {
                let mut s = String::new();
                push_json_string(&mut s, phase);
                emit(
                    &mut f,
                    "phase",
                    &[("phase", s), ("queries", queries.to_string())],
                )?;
            }
            for (route, queries) in &by_route {
                let mut s = String::new();
                push_json_string(&mut s, route);
                emit(
                    &mut f,
                    "route",
                    &[("route", s), ("queries", queries.to_string())],
                )?;
            }
            for (cache, queries) in &by_cache {
                let mut s = String::new();
                push_json_string(&mut s, cache);
                emit(
                    &mut f,
                    "cache",
                    &[("cache", s), ("queries", queries.to_string())],
                )?;
            }
            for (cond, firings) in &cond_firings {
                let (in_runs, successes) = cond_runs.get(cond).copied().unwrap_or_default();
                let mut s = String::new();
                push_json_string(&mut s, cond);
                emit(
                    &mut f,
                    "cond",
                    &[
                        ("cond", s),
                        ("firings", firings.to_string()),
                        ("runs", in_runs.to_string()),
                        ("successes", successes.to_string()),
                    ],
                )?;
            }
            for (label, attack, points, n) in &curves {
                let mut l = String::new();
                push_json_string(&mut l, label);
                let mut a = String::new();
                push_json_string(&mut a, attack);
                let curve = points
                    .iter()
                    .map(|(q, r)| format!("[{q},{r}]"))
                    .collect::<Vec<_>>()
                    .join(",");
                emit(
                    &mut f,
                    "curve",
                    &[
                        ("section", l),
                        ("attack", a),
                        ("runs", n.to_string()),
                        ("points", format!("[{curve}]")),
                    ],
                )?;
            }
            for (op, ns, calls) in &ops {
                let mut s = String::new();
                push_json_string(&mut s, op);
                emit(
                    &mut f,
                    "ops",
                    &[
                        ("op", s),
                        ("ns", ns.to_string()),
                        ("calls", calls.to_string()),
                    ],
                )?;
            }
            f.flush()
        };
        match write() {
            Ok(()) => println!("aggregate rows written to {jsonl_path}"),
            Err(e) => {
                eprintln!("error: cannot write {jsonl_path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    ExitCode::SUCCESS
}

/// Writes the canonical-sorted stream (end-of-trace section dropped) and
/// returns how many records were written.
fn write_canonical(path: &str, records: &[Record]) -> std::io::Result<usize> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut n = 0usize;
    for rec in records {
        if rec.section == END_SECTION {
            continue;
        }
        let mut line = rec.to_jsonl();
        line.push('\n');
        f.write_all(line.as_bytes())?;
        n += 1;
    }
    f.flush()?;
    Ok(n)
}
