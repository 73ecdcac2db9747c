//! raqbench: Raqlet's end-to-end benchmark.
//!
//! ```text
//! raqbench --workload <translate|serve|churn|cross-engine> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One client runs the workload as a closed loop for `--seconds` of
//! measured time, every output is checked, and the last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. With `--trace 0` the metrics are the end-to-end ones; with
//! `--trace 1` a traced pass reports the per-layer ones. `README.md` in this
//! directory documents every metric and workload.

mod churn;
mod compile;
mod cross_engine;
mod measure;
mod ops;
mod serve;
mod trace;
mod translate;

use std::collections::BTreeMap;
use std::fmt::Write as _;

use measure::Meter;

/// End-to-end metrics (`--trace 0`): name and unit.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_us", "us"),
    ("latency_p90_us", "us"),
    ("throughput_ops_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`): name and unit. A layer a workload never
/// reaches reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("cypher.parse.busy_ms", "ms"),
    ("pgir.lower.busy_ms", "ms"),
    ("dlir.lower.busy_ms", "ms"),
    ("dlir.validate.busy_ms", "ms"),
    ("dlir.rules_out", "count"),
    ("analysis.analyze.busy_ms", "ms"),
    ("opt.any.busy_ms", "ms"),
    ("opt.sql.busy_ms", "ms"),
    ("opt.rounds", "count"),
    ("opt.rules_out", "count"),
    ("opt.inline.busy_ms", "ms"),
    ("opt.inline.fired", "count"),
    ("opt.constprop.busy_ms", "ms"),
    ("opt.constprop.fired", "count"),
    ("opt.semantic_joins.busy_ms", "ms"),
    ("opt.semantic_joins.fired", "count"),
    ("opt.dead.busy_ms", "ms"),
    ("opt.dead.fired", "count"),
    ("opt.linearize.busy_ms", "ms"),
    ("opt.linearize.fired", "count"),
    ("opt.magic_sets.busy_ms", "ms"),
    ("opt.magic_sets.fired", "count"),
    ("sqir.lower.busy_ms", "ms"),
    ("unparse.souffle.busy_ms", "ms"),
    ("unparse.sql.busy_ms", "ms"),
    ("unparse.bytes_out", "bytes"),
    ("engine.run.busy_ms", "ms"),
    ("engine.run.miss_busy_ms", "ms"),
    ("engine.plan_hit_ratio", "ratio"),
    ("engine.index_builds", "count"),
    ("engine.iterations", "count"),
    ("engine.rule_applications", "count"),
    ("engine.tuples_derived", "count"),
    ("engine.rows_out", "count"),
    ("engine.rows_per_derived", "ratio"),
    ("engine.cold.busy_ms", "ms"),
    ("ivm.install.busy_ms", "ms"),
    ("ivm.insert.busy_ms", "ms"),
    ("ivm.delete.busy_ms", "ms"),
    ("ivm.dense.busy_ms", "ms"),
    ("ivm.insert.tuples_derived", "count"),
    ("ivm.delete.tuples_derived", "count"),
    ("ivm.delete.derived_per_view_row", "ratio"),
    ("storage.wal.self_ms", "ms"),
    ("storage.io_ops", "count"),
    ("storage.wal_bytes", "bytes"),
    ("storage.checkpoint.busy_ms", "ms"),
    ("storage.snapshot_bytes", "bytes"),
    ("storage.open.busy_ms", "ms"),
    ("sql.duck.busy_ms", "ms"),
    ("sql.hyper.busy_ms", "ms"),
    ("sql.recursive_iterations", "count"),
    ("sql.rows_produced", "count"),
    ("graph.busy_ms", "ms"),
    ("graph.expansions", "count"),
    ("graph.intermediate_rows", "count"),
    ("ldbc.generate.busy_ms", "ms"),
    ("ldbc.load.busy_ms", "ms"),
    ("op.insert_p50_us", "us"),
    ("op.delete_p50_us", "us"),
    ("op.dense_p50_us", "us"),
    ("op.msg_insert_p50_us", "us"),
    ("op.msg_delete_p50_us", "us"),
    ("op.read_p50_us", "us"),
    ("op.checkpoint_p50_us", "us"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args { workload, seed, seconds, trace })
}

/// What a workload hands back: the untraced loop, the traced one when
/// asked for, the set-up time, and whatever the checks found.
pub struct Outcome {
    pub setup_s: f64,
    pub meter: Meter,
    /// Per-layer metrics of the traced pass (empty when untraced).
    pub layers: BTreeMap<&'static str, f64>,
    /// Ops and failures of the traced pass, added to the totals.
    pub traced: Option<Meter>,
    /// Facts the numbers depend on, printed next to the result.
    pub facts: Vec<(&'static str, String)>,
}

/// The per-layer metrics a tracer measured directly: `<span>.busy_ms` is the
/// summed self time of span `<span>`, and any counter of a listed name.
/// Workloads add the derived ratios themselves.
pub fn layer_metrics(tr: &trace::Tracer, summary: &trace::Summary) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (name, _) in PER_LAYER {
        if let Some(span) = name.strip_suffix(".busy_ms") {
            out.insert(*name, summary.busy_ms(span));
        } else if tr.counter(name) != 0.0 {
            out.insert(*name, tr.counter(name));
        }
    }
    out.insert("trace.coverage", summary.coverage());
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number with every digit Rust prints.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() {
    // One Datalog worker for every engine, set before any engine resolves
    // its thread count. `DurableDatabase` has no engine option, so the
    // environment is the only pin that reaches it.
    std::env::set_var("RAQLET_THREADS", "1");

    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("raqbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "translate" => translate::run(&args),
        "serve" => serve::run(&args),
        "churn" => churn::run(&args),
        "cross-engine" => cross_engine::run(&args),
        other => Err(format!("unknown workload {other}")),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("raqbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };

    let m = &outcome.meter;
    let mut attempted = m.attempted;
    let mut failed = m.failed;
    let mut errors = m.errors.clone();
    if let Some(t) = &outcome.traced {
        attempted += t.attempted;
        failed += t.failed;
        errors.extend(t.errors.iter().cloned());
    }
    for e in &errors {
        eprintln!("raqbench: failure: {e}");
    }

    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    let listed: &[(&str, &str)] = if args.trace {
        values.extend(outcome.layers.iter().map(|(k, v)| (*k, *v)));
        for k in outcome.layers.keys() {
            assert!(PER_LAYER.iter().any(|(n, _)| n == k), "unlisted per-layer metric {k}");
        }
        PER_LAYER
    } else {
        values.insert("setup_s", outcome.setup_s);
        values.insert("latency_p50_us", m.latency_quantile(0.5));
        values.insert("latency_p90_us", m.latency_quantile(0.9));
        values.insert("throughput_ops_s", m.throughput());
        values.insert("peak_rss_mb", m.peak_rss_mb);
        END_TO_END
    };

    // Human-readable summary and the facts behind it.
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let threads = raqlet::DatalogConfig::default().effective_threads();
    let mut facts = format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\
         \"datalog_threads\":{threads},\"error_ratio\":{},\"probe_p50_us\":{},\
         \"reference_probe_us\":{}",
        json_str(&args.workload),
        args.seed,
        json_num(args.seconds),
        u8::from(args.trace),
        json_num(failed as f64 / attempted.max(1) as f64),
        json_num(m.probe_p50()),
        json_num(measure::REFERENCE_PROBE_US),
    );
    for (k, v) in &outcome.facts {
        let _ = write!(facts, ",{}:{}", json_str(k), json_str(v));
    }
    facts.push('}');
    for k in m.kinds() {
        eprintln!(
            "raqbench: {:<12} ops {:>7}  raw p50 {:>10.1} us  p90 {:>10.1} us  mean {:>10.1} us  \
             scaled p50 {:>10.1} us  p90 {:>10.1} us",
            k.kind, k.ops, k.raw_p50, k.raw_p90, k.raw_mean, k.scaled_p50, k.scaled_p90
        );
    }
    let rates: Vec<String> = m.window_rates().iter().map(|r| format!("{r:.1}")).collect();
    eprintln!("raqbench: window throughputs at reference speed (ops/s): {}", rates.join(" "));
    eprintln!(
        "raqbench: speed probe p50 {:.1} us, reference {:.1} us",
        m.probe_p50(),
        measure::REFERENCE_PROBE_US
    );
    println!("raqbench-facts {facts}");

    let mut metrics = String::new();
    for (i, (name, unit)) in listed.iter().enumerate() {
        let v = values.get(name).copied().unwrap_or(0.0);
        eprintln!("raqbench: {name:<34} {v:>14.4} {unit}");
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            metrics,
            "{sep}{}:{{\"value\":{},\"unit\":{}}}",
            json_str(name),
            json_num(v),
            json_str(unit)
        );
    }
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{metrics}}}}}",
        failed == 0 && attempted > 0
    );
}
