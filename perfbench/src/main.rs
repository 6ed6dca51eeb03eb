//! Fixed-work benchmark of the PaRMIS search.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload search-qsort-2obj --seed 1 --seconds 15 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` runs one unit and then replays
//! it layer by layer and prints the per-layer metrics. The last stdout line is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`; diagnostics go to stderr and
//! the traced run's spans to `.bench_out/`. `--record FROM TO` prints the recorded-digest
//! table of `expected.rs` for seeds `FROM..TO`.

mod expected;
mod replay;
mod timing;
mod workloads;

use parmis::evaluation::{PolicyEvaluator, SocEvaluator};
use parmis::jobs::CheckpointStore;
use replay::{ModelLayers, PersistLayers};
use std::path::{Path, PathBuf};
use timing::{median, peak_rss_mb, tail, SpanLog};
use workloads::{Unit, Workload};

/// A run does `Workload::units` units at this `--seconds` and scales the unit count with
/// `--seconds` (never below that count), so the work is fixed by the arguments alone.
const REFERENCE_SECONDS: u64 = 15;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

enum Command {
    Run(Args),
    /// Print recorded-digest rows for seeds `from..to`.
    Record {
        from: u64,
        to: u64,
    },
}

fn parse_args() -> Result<Command, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = REFERENCE_SECONDS;
    let mut trace = false;
    let mut i = 0;
    while i < argv.len() {
        let value = |j: usize| {
            argv.get(j)
                .cloned()
                .ok_or_else(|| format!("{} needs a value", argv[i]))
        };
        let number = |j: usize| -> Result<u64, String> {
            value(j)?
                .parse::<u64>()
                .map_err(|e| format!("{}: {e}", argv[i]))
        };
        match argv[i].as_str() {
            "--workload" => {
                let name = value(i + 1)?;
                workload =
                    Some(Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => seed = Some(number(i + 1)?),
            "--seconds" => seconds = number(i + 1)?.max(1),
            "--trace" => trace = number(i + 1)? != 0,
            "--record" => {
                return Ok(Command::Record {
                    from: number(i + 1)?,
                    to: number(i + 2)?,
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
    }
    Ok(Command::Run(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    }))
}

/// Collects `name -> (value, unit)` and prints the final JSON line.
struct Report {
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    fn print(&self, attempted: usize, failed: usize) {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() {
                    format!("{value:?}")
                } else {
                    "null".to_string()
                };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            failed == 0,
            attempted.max(1),
            failed,
            metrics.join(", ")
        );
    }
}

fn main() {
    let code = match run() {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    };
    std::process::exit(code);
}

fn run() -> Result<(), String> {
    let args = match parse_args()? {
        Command::Run(args) => args,
        Command::Record { from, to } => return expected::record(from, to),
    };
    let out_dir = PathBuf::from(".bench_out");
    let scratch = out_dir.join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let result = if args.trace {
        traced(&args, &scratch, &out_dir)
    } else {
        untraced(&args, &scratch)
    };
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

/// The end-to-end run: a fixed number of units, tracing off.
fn untraced(args: &Args, scratch: &Path) -> Result<(), String> {
    let w = args.workload;
    let units_at_reference = w.units() as u64;
    let reps = (units_at_reference * args.seconds + REFERENCE_SECONDS / 2) / REFERENCE_SECONDS;
    let reps = reps.max(units_at_reference) as usize;
    let mut units: Vec<Unit> = Vec::with_capacity(reps);
    for index in 0..reps {
        units.push(workloads::run_unit(w, args.seed, index, scratch)?);
    }
    let rounds: Vec<f64> = units.iter().flat_map(|u| u.rounds_ms.clone()).collect();
    let (tail_ms, tail_pct) = tail(&rounds);
    let rates: Vec<f64> = units
        .iter()
        .map(|u| u.timed_evals as f64 / u.timed_s)
        .collect();
    let attempted: usize = units.iter().map(|u| u.evals + u.segments).sum();
    let mut failed: usize = units.iter().map(|u| u.failed_evals + u.failed_checks).sum();
    let identical_units = w != Workload::SearchSuite3ObjFast;
    if identical_units && units.iter().any(|u| u.digests != units[0].digests) {
        failed += 1;
        eprintln!("perfbench: output check failed: repeated units disagree on their outcome");
    }
    eprintln!(
        "perfbench: {} seed {} — {reps} units (evals/s {:.3?}), {} rounds, tail = p{tail_pct:.1} ({} samples above it), digests {:x?}{}",
        w.name(),
        args.seed,
        rates,
        rounds.len(),
        rounds.len().min(10),
        units[0].digests,
        units[0]
            .fleet
            .as_ref()
            .map_or(String::new(), |f| format!(", fleet directory on {}", f.filesystem)),
    );
    let mut report = Report {
        metrics: Vec::new(),
    };
    let setups: Vec<f64> = units.iter().map(|u| u.setup_s).collect();
    report.put("setup_s", median(&setups), "s");
    report.put("evals_per_s", median(&rates), "1/s");
    report.put("round_ms_p50", median(&rounds), "ms");
    report.put("round_ms_tail", tail_ms, "ms");
    let phv = units.iter().map(|u| u.phv).sum::<f64>() / units.len() as f64;
    report.put("front_phv", phv, "phv");
    report.put("peak_rss_mb", peak_rss_mb(), "MiB");
    report.print(attempted, failed);
    Ok(())
}

/// The traced run: one unit, then an outside-in replay of its layers.
fn traced(args: &Args, scratch: &Path, out_dir: &Path) -> Result<(), String> {
    let w = args.workload;
    let unit = workloads::run_unit(w, args.seed, 0, scratch)?;
    let (gp_counts, moo_counts) = (unit.gp_counts, unit.moo_counts);
    let mut failed = unit.failed_evals + unit.failed_checks;
    let attempted = unit.evals + unit.segments;

    let probe = workloads::qsort_evaluator()?;
    let (dim, bound) = (probe.parameter_dim(), probe.parameter_bound());
    let mut log = SpanLog::new();
    let mut model = ModelLayers::default();
    for (config, outcome) in &unit.outcomes {
        replay::replay_search(config, outcome, dim, bound, &mut log, &mut model)?;
    }
    let mut persist = PersistLayers::default();
    if w == Workload::FleetQsortResume {
        let store =
            CheckpointStore::open(scratch.join("replay-store"), 3).map_err(|e| e.to_string())?;
        for (j, (config, _)) in unit.outcomes.iter().enumerate() {
            let job = format!("job-{j}");
            let digest =
                replay::replay_persistence(config, &probe, &store, &job, &mut log, &mut persist)?;
            if digest != unit.digests[j] {
                failed += 1;
                eprintln!(
                    "perfbench: output check failed: checkpoint replay diverged from the fleet"
                );
            }
        }
        failed += persist.failed_checks;
    }

    let (busy_ms, eval_in_rounds_ms, parallel_wait_ms) = evaluation_layer(&unit);

    let round_wall_ms: f64 = unit.all_rounds_ms.iter().sum();
    let layers_ms = model.fit_ms
        + model.build_ms
        + model.rff_ms
        + model.nsga_self_ms
        + model.acquisition_ms
        + eval_in_rounds_ms
        + persist.total_ms();
    let traced_ms = model.round_ms + eval_in_rounds_ms + persist.total_ms();
    let valid = model.mismatched == 0;
    if !valid {
        eprintln!(
            "perfbench: trace INVALID — the replay reproduced {} of {} selected θ; \
             per-layer numbers of this workload do not describe the run",
            model.matched,
            model.matched + model.mismatched
        );
    }

    let mut report = Report {
        metrics: Vec::new(),
    };
    report.put("gp.rff_eval_ms", model.rff_ms, "ms");
    report.put("gp.rff_point_evals", model.rff_point_evals as f64, "count");
    report.put("pareto_sampling.build_ms", model.build_ms, "ms");
    report.put("moo.nsga2_self_ms", model.nsga_self_ms, "ms");
    report.put(
        "moo.nsga2_generations",
        moo_counts.nsga2_generations as f64,
        "count",
    );
    report.put(
        "moo.dominance_comparisons",
        moo_counts.dominance_comparisons as f64,
        "count",
    );
    report.put("gp.fit_ms", model.fit_ms, "ms");
    report.put("gp.full_fits", gp_counts.full_fits as f64, "count");
    report.put(
        "gp.incremental_updates",
        gp_counts.incremental_updates as f64,
        "count",
    );
    report.put("acquisition.maximize_ms", model.acquisition_ms, "ms");
    report.put(
        "gp.predict_batches",
        gp_counts.predict_batches as f64,
        "count",
    );
    report.put("evaluation.busy_ms", busy_ms, "ms");
    report.put("evaluation.evals", unit.evals as f64, "count");
    report.put("evaluation.failed", unit.failed_evals as f64, "count");
    report.put("evaluation.retries", unit.retries as f64, "count");
    report.put("evaluation.parallel_wait_ms", parallel_wait_ms, "ms");
    let per_app = soc_eval_us(w, &unit, args.seed)?;
    for b in soc_sim::apps::Benchmark::ALL {
        let us = per_app
            .iter()
            .find(|(app, _)| *app == b)
            .map_or(0.0, |(_, us)| *us);
        report.put(format!("soc_sim.eval_us.{}", b.name()), us, "us");
    }
    report.put("checkpoint.to_json_ms", persist.to_json_ms, "ms");
    report.put("checkpoint.from_json_ms", persist.from_json_ms, "ms");
    report.put("checkpoint.bytes", persist.bytes as f64, "bytes");
    report.put(
        "checkpoint.resume_replay_ms",
        persist.resume_replay_ms,
        "ms",
    );
    report.put("jobs.store.save_ms", persist.save_ms, "ms");
    report.put("jobs.store.load_ms", persist.load_ms, "ms");
    let fleet = unit.fleet.as_ref();
    report.put(
        "jobs.store.writes",
        fleet.map_or(0, |f| f.store_writes) as f64,
        "count",
    );
    report.put("jobs.segments", unit.segments as f64, "count");
    report.put(
        "jobs.restarts",
        fleet.map_or(0, |f| f.restarts) as f64,
        "count",
    );
    report.put(
        "jobs.quarantined",
        fleet.map_or(0, |f| f.quarantined) as f64,
        "count",
    );
    report.put("framework.self_ms", round_wall_ms - layers_ms, "ms");
    report.put("trace.round_ms", round_wall_ms, "ms");
    report.put("trace.overhead_ms", traced_ms - round_wall_ms, "ms");
    report.put("trace.coverage", layers_ms / round_wall_ms, "ratio");
    report.put("trace.valid", if valid { 1.0 } else { 0.0 }, "bool");

    let spans = out_dir.join(format!("trace-{}-seed{}.json", w.name(), args.seed));
    std::fs::write(&spans, log.to_json()).map_err(|e| format!("{}: {e}", spans.display()))?;
    eprintln!(
        "perfbench: traced {} seed {} — replayed {} rounds, {}/{} θ reproduced, coverage {:.3} of {:.1} ms round wall, spans in {}{}",
        w.name(),
        args.seed,
        model.rounds,
        model.matched,
        model.matched + model.mismatched,
        layers_ms / round_wall_ms,
        round_wall_ms,
        spans.display(),
        fleet.map_or(String::new(), |f| format!(", fleet directory on {}", f.filesystem)),
    );
    report.print(attempted, failed);
    Ok(())
}

/// Evaluation-layer times from the unit's own batch records, ms: worker busy time, time
/// of the evaluations inside model-guided rounds, and worker time idle inside parallel
/// batches (batch wall × chunks − Σ chunk time).
fn evaluation_layer(unit: &Unit) -> (f64, f64, f64) {
    let batches = unit.recorder.batches();
    let ms = |b: &timing::Batch| (b.end - b.start) * 1e3;
    let busy = |b: &timing::Batch| unit.busy_tags.contains(&b.tag);
    let busy_ms = batches.iter().filter(|b| busy(b)).map(ms).sum();
    let mut in_rounds_ms = 0.0;
    let mut parallel_wait_ms = 0.0;
    for &tag in &unit.outer_tags {
        for (i, outer) in batches.iter().filter(|b| b.tag == tag).enumerate() {
            if i > 0 {
                in_rounds_ms += ms(outer);
            }
            if busy(outer) {
                continue;
            }
            let chunks: Vec<f64> = batches
                .iter()
                .filter(|b| busy(b) && b.start >= outer.start && b.end <= outer.end)
                .map(ms)
                .collect();
            parallel_wait_ms += ms(outer) * chunks.len() as f64 - chunks.iter().sum::<f64>();
        }
    }
    (busy_ms, in_rounds_ms, parallel_wait_ms)
}

/// Per-application simulator cost, µs per policy: the unit's evaluated θ (the sweep's
/// first 64) run through a single-application evaluator of each application it uses.
fn soc_eval_us(
    w: Workload,
    unit: &Unit,
    seed: u64,
) -> Result<Vec<(soc_sim::apps::Benchmark, f64)>, String> {
    let thetas: Vec<Vec<f64>> = match unit.outcomes.first() {
        Some((_, outcome)) => outcome.history.iter().map(|r| r.theta.clone()).collect(),
        None => {
            let probe = workloads::qsort_evaluator()?;
            workloads::sweep_thetas(seed, probe.parameter_dim(), probe.parameter_bound())
                .into_iter()
                .take(64)
                .collect()
        }
    };
    let mut out = Vec::new();
    for app in w.benchmarks() {
        let evaluator = SocEvaluator::builder()
            .benchmark(app)
            .objectives(w.objectives())
            .build()
            .map_err(|e| e.to_string())?;
        evaluator
            .evaluate_batch(&thetas[..1])
            .map_err(|e| e.to_string())?;
        let started = std::time::Instant::now();
        evaluator
            .evaluate_batch(&thetas)
            .map_err(|e| e.to_string())?;
        out.push((
            app,
            started.elapsed().as_secs_f64() * 1e6 / thetas.len() as f64,
        ));
    }
    Ok(out)
}
