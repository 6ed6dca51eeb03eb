//! The four fixed-work workloads. Each run repeats one fixed *unit* of work (a whole
//! search, a whole sweep, or a whole fleet) a fixed number of times; nothing is ever cut
//! by wall-clock time, so every run of a workload and seed does identical work.

use crate::expected;
use crate::timing::{filesystem_of, Batch, Recorder, Timed};
use parmis::evaluation::{GlobalEvaluator, ParallelEvaluator, PolicyEvaluator, SocEvaluator};
use parmis::framework::{Parmis, ParmisConfig, ParmisOutcome};
use parmis::jobs::{outcome_digest, JobSpec, JobSupervisor, SupervisorConfig};
use parmis::objective::Objective;
use parmis::prelude::{Benchmark, Precision, RetryStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Evaluation budget of one search (initial design included), on every search workload.
pub const SEARCH_ITERATIONS: usize = 40;
/// Random θ in the sweep's fixed set.
pub const SWEEP_POINTS: usize = 1024;
/// θ per `evaluate_batch` call of the sweep (one sweep "round").
pub const SWEEP_BATCH: usize = 128;
/// Concurrent searches (and worker threads) of the fleet.
pub const FLEET_JOBS: usize = 2;

/// The suite workloads' objectives.
pub const SUITE_OBJECTIVES: [Objective; 3] = [
    Objective::ExecutionTime,
    Objective::Energy,
    Objective::PerformancePerWatt,
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SearchQsort2Obj,
    SearchSuite3ObjFast,
    SweepSuiteEval,
    FleetQsortResume,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SearchQsort2Obj,
        Workload::SearchSuite3ObjFast,
        Workload::SweepSuiteEval,
        Workload::FleetQsortResume,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SearchQsort2Obj => "search-qsort-2obj",
            Workload::SearchSuite3ObjFast => "search-suite-3obj-fast",
            Workload::SweepSuiteEval => "sweep-suite-eval",
            Workload::FleetQsortResume => "fleet-qsort-resume",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Units per run at the reference `--seconds`. The sweep's unit (one pass over its θ
    /// set) is short, so a run takes the median of many of them.
    pub fn units(self) -> usize {
        match self {
            Workload::SweepSuiteEval => 12,
            _ => 3,
        }
    }

    /// Fixed PHV reference point of the workload (minimization space). Objective vectors
    /// outside the box contribute nothing.
    pub fn reference_point(self) -> Vec<f64> {
        match self {
            Workload::SearchQsort2Obj | Workload::FleetQsortResume => vec![12.0, 26.0],
            Workload::SearchSuite3ObjFast | Workload::SweepSuiteEval => vec![11.0, 30.0, -0.2],
        }
    }

    /// Applications the workload evaluates on.
    pub fn benchmarks(self) -> Vec<Benchmark> {
        match self {
            Workload::SearchQsort2Obj | Workload::FleetQsortResume => vec![Benchmark::Qsort],
            Workload::SearchSuite3ObjFast | Workload::SweepSuiteEval => Benchmark::ALL.to_vec(),
        }
    }

    pub fn objectives(self) -> Vec<Objective> {
        match self {
            Workload::SearchQsort2Obj | Workload::FleetQsortResume => {
                Objective::TIME_ENERGY.to_vec()
            }
            Workload::SearchSuite3ObjFast | Workload::SweepSuiteEval => SUITE_OBJECTIVES.to_vec(),
        }
    }
}

/// Search seed of stream `stream` under workload seed `seed` (SplitMix64 finalizer).
pub fn search_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(stream.wrapping_add(1).wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `search-qsort-2obj` (and each fleet job): the paper's headline setting.
pub fn qsort_config(seed: u64) -> ParmisConfig {
    ParmisConfig {
        max_iterations: SEARCH_ITERATIONS,
        seed,
        ..ParmisConfig::default()
    }
}

/// `search-suite-3obj-fast`: fast math tier, top-2 batches on two workers.
pub fn suite_config(seed: u64) -> ParmisConfig {
    ParmisConfig {
        max_iterations: SEARCH_ITERATIONS,
        seed,
        precision: Precision::Fast,
        batch_size: 2,
        num_workers: 2,
        ..ParmisConfig::default()
    }
}

pub fn qsort_evaluator() -> Result<SocEvaluator, String> {
    SocEvaluator::builder()
        .benchmark(Benchmark::Qsort)
        .objectives(Objective::TIME_ENERGY.to_vec())
        .build()
        .map_err(|e| e.to_string())
}

pub fn suite_evaluator() -> GlobalEvaluator {
    GlobalEvaluator::all_benchmarks(SUITE_OBJECTIVES.to_vec())
}

/// The sweep's fixed θ set for `seed`.
pub fn sweep_thetas(seed: u64, dim: usize, bound: f64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(search_seed(seed, 0x5eed));
    (0..SWEEP_POINTS)
        .map(|_| (0..dim).map(|_| rng.gen_range(-bound..bound)).collect())
        .collect()
}

/// Order-sensitive digest of a list of objective vectors.
pub fn values_digest(values: &[Vec<f64>]) -> u64 {
    let mut h = parmis::checkpoint::TRACE_HASH_SEED;
    for v in values {
        for &x in v {
            h = parmis::checkpoint::fold_f64(h, x);
        }
    }
    h
}

/// PHV of the non-dominated subset of `points` against a fixed reference point; points
/// not strictly inside the reference box are dropped.
pub fn front_phv(points: &[Vec<f64>], reference: &[f64]) -> f64 {
    let mut front: moo::ParetoFront<()> = moo::ParetoFront::new(reference.len());
    for p in points {
        if p.iter().zip(reference).all(|(v, r)| v < r) {
            front.insert(p.clone(), ());
        }
    }
    moo::hypervolume(front.objective_values(), reference)
}

/// What one unit of work measured and produced.
pub struct Unit {
    /// One-time work before the timed loop: evaluator construction (or `JobSupervisor::open`),
    /// the initial design and the first round.
    pub setup_s: f64,
    /// Wall time after set-up.
    pub timed_s: f64,
    /// Evaluations completed after set-up.
    pub timed_evals: usize,
    /// Round latencies after set-up, ms (fleet: per wave).
    pub rounds_ms: Vec<f64>,
    /// Every model-guided round (sweep: every batch but the warm-up; fleet: per job), ms.
    pub all_rounds_ms: Vec<f64>,
    /// Evaluations attempted / failed over the whole unit.
    pub evals: usize,
    pub failed_evals: usize,
    /// Fleet segments run (0 elsewhere).
    pub segments: usize,
    /// Fixed-reference PHV of the final front(s), averaged over the unit's searches.
    pub phv: f64,
    /// One digest per search (or one for the sweep's outputs).
    pub digests: Vec<u64>,
    /// Failed output checks.
    pub failed_checks: usize,
    /// Completed searches (for the traced replay).
    pub outcomes: Vec<(ParmisConfig, ParmisOutcome)>,
    pub recorder: Arc<Recorder>,
    /// Recorder tags of the outermost batches (one per search; one for the sweep).
    pub outer_tags: Vec<usize>,
    /// Recorder tags of the evaluators doing the work (inner chunks under a parallel
    /// adapter).
    pub busy_tags: Vec<usize>,
    pub retries: usize,
    pub fleet: Option<FleetFacts>,
    /// Operation counters of the program over the measured work.
    pub gp_counts: gp::stats::OpCounts,
    pub moo_counts: moo::stats::OpCounts,
}

/// Supervisor-side facts of a fleet unit.
pub struct FleetFacts {
    pub store_writes: u64,
    pub restarts: usize,
    pub quarantined: usize,
    pub filesystem: String,
}

impl Unit {
    fn new(recorder: Arc<Recorder>) -> Unit {
        Unit {
            setup_s: 0.0,
            timed_s: 0.0,
            timed_evals: 0,
            rounds_ms: Vec::new(),
            all_rounds_ms: Vec::new(),
            evals: 0,
            failed_evals: 0,
            segments: 0,
            phv: 0.0,
            digests: Vec::new(),
            failed_checks: 0,
            outcomes: Vec::new(),
            recorder,
            outer_tags: vec![0],
            busy_tags: vec![0],
            retries: 0,
            fleet: None,
            gp_counts: gp::stats::OpCounts::default(),
            moo_counts: moo::stats::OpCounts::default(),
        }
    }

    /// Adds one sequence of outer batches: batches before `setup_batches` are set-up, the
    /// rest are rounds (a round ends when its batch returns).
    fn add_batches(&mut self, batches: &[Batch], setup_batches: usize) {
        for (i, b) in batches.iter().enumerate() {
            self.evals += b.evals;
            if !b.ok {
                self.failed_evals += b.evals;
            }
            if i == 0 {
                continue;
            }
            let round_ms = (b.end - batches[i - 1].end) * 1e3;
            self.all_rounds_ms.push(round_ms);
            if i >= setup_batches {
                self.rounds_ms.push(round_ms);
                self.timed_evals += b.evals;
            }
        }
    }
}

fn check(unit: &mut Unit, ok: bool, what: &str) {
    if !ok {
        unit.failed_checks += 1;
        eprintln!("perfbench: output check failed: {what}");
    }
}

/// Runs unit number `index` of `workload` under `seed`. `scratch` is a directory the unit
/// may use. Every unit of a run is identical except on `search-suite-3obj-fast`, whose
/// units search streams 0, 1, 2, … so that its `front_phv` averages several searches.
pub fn run_unit(
    workload: Workload,
    seed: u64,
    index: usize,
    scratch: &Path,
) -> Result<Unit, String> {
    gp::stats::reset();
    moo::stats::reset();
    match workload {
        Workload::SearchQsort2Obj | Workload::SearchSuite3ObjFast => {
            run_search(workload, seed, index)
        }
        Workload::SweepSuiteEval => run_sweep(seed),
        Workload::FleetQsortResume => run_fleet(seed, index, scratch),
    }
}

/// Takes the program's operation counters; call right after the measured work.
fn take_counts(unit: &mut Unit) {
    unit.gp_counts = gp::stats::snapshot();
    unit.moo_counts = moo::stats::snapshot();
}

fn run_search(workload: Workload, seed: u64, index: usize) -> Result<Unit, String> {
    let recorder = Recorder::new();
    let mut unit = Unit::new(recorder.clone());
    let (config, outcome) = if workload == Workload::SearchQsort2Obj {
        let config = qsort_config(search_seed(seed, 0));
        let evaluator = Timed::new(qsort_evaluator()?, recorder.clone(), 0);
        let outcome = Parmis::new(config.clone()).run(&evaluator);
        unit.retries = evaluator.inner().retry_stats().retries();
        (config, outcome)
    } else {
        let config = suite_config(search_seed(seed, index as u64));
        let chunks = Timed::new(suite_evaluator(), recorder.clone(), 1);
        let evaluator = Timed::new(
            ParallelEvaluator::new(chunks, config.num_workers),
            recorder.clone(),
            0,
        );
        let outcome = Parmis::new(config.clone()).run(&evaluator);
        unit.busy_tags = vec![1];
        unit.retries = evaluator
            .inner()
            .inner()
            .inner()
            .as_soc_evaluator()
            .retry_stats()
            .retries();
        (config, outcome)
    };
    let end = recorder.now();
    take_counts(&mut unit);
    let batches = recorder.batches_of(0);
    // Set-up: construction, the initial design and the first model-guided round.
    let setup_end = batches.get(1).map_or(end, |b| b.end);
    unit.setup_s = setup_end;
    unit.timed_s = end - setup_end;
    unit.add_batches(&batches, 2);
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            check(&mut unit, false, &format!("the search failed: {e}"));
            return Ok(unit);
        }
    };

    check(
        &mut unit,
        outcome.history.len() == config.max_iterations,
        "the search did not spend its whole evaluation budget",
    );
    let digest = outcome_digest(&outcome);
    if workload == Workload::SearchQsort2Obj {
        if let Some(recorded) = expected::qsort_digests(seed) {
            check(
                &mut unit,
                digest == recorded[0],
                "outcome digest differs from the value recorded for this seed",
            );
        }
    }
    unit.phv = front_phv(
        &outcome.front.objective_values(),
        &workload.reference_point(),
    );
    unit.digests.push(digest);
    unit.outcomes.push((config, outcome));
    Ok(unit)
}

fn run_sweep(seed: u64) -> Result<Unit, String> {
    let recorder = Recorder::new();
    let mut unit = Unit::new(recorder.clone());
    let evaluator = Timed::new(suite_evaluator(), recorder.clone(), 0);
    let thetas = sweep_thetas(seed, evaluator.parameter_dim(), evaluator.parameter_bound());
    let mut values: Vec<Vec<f64>> = Vec::with_capacity(thetas.len());
    for chunk in thetas.chunks(SWEEP_BATCH) {
        // A failed batch is counted from the recorder; its slots read NaN.
        values.extend(
            evaluator
                .evaluate_batch(chunk)
                .unwrap_or_else(|_| vec![vec![f64::NAN; SUITE_OBJECTIVES.len()]; chunk.len()]),
        );
    }
    let end = recorder.now();
    take_counts(&mut unit);
    let batches = recorder.batches_of(0);
    // Set-up: construction, θ-set generation and the first (warm-up) batch.
    unit.setup_s = batches[0].end;
    unit.timed_s = end - batches[0].end;
    unit.add_batches(&batches, 1);
    check(
        &mut unit,
        values.iter().flatten().all(|v| v.is_finite()),
        "non-finite objective value",
    );
    let digest = values_digest(&values);
    if let Some(recorded) = expected::sweep_digest(seed) {
        check(
            &mut unit,
            digest == recorded,
            "sweep output digest differs from the value recorded for this seed",
        );
    }
    unit.phv = front_phv(&values, &Workload::SweepSuiteEval.reference_point());
    unit.digests.push(digest);
    Ok(unit)
}

fn run_fleet(seed: u64, index: usize, scratch: &Path) -> Result<Unit, String> {
    let dir: PathBuf = scratch.join("fleet");
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
    }
    let recorder = Recorder::new();
    let mut unit = Unit::new(recorder.clone());
    let supervisor_config = SupervisorConfig {
        workers: FLEET_JOBS,
        segment_fuel: 1,
        checkpoint_every: 1,
        ..SupervisorConfig::default()
    };
    let mut supervisor =
        JobSupervisor::open(&dir, supervisor_config).map_err(|e| format!("open: {e}"))?;
    let specs: Vec<JobSpec> = (0..FLEET_JOBS)
        .map(|j| {
            JobSpec::new(
                format!("job-{j}"),
                qsort_config(search_seed(seed, j as u64)),
            )
        })
        .collect();
    let retry_stats: Mutex<Vec<Arc<RetryStats>>> = Mutex::new(Vec::new());
    let report = supervisor.run(&specs, |spec| {
        let tag = specs
            .iter()
            .position(|s| s.id == spec.id)
            .expect("spec of this fleet");
        let evaluator =
            qsort_evaluator().map_err(|reason| parmis::ParmisError::Evaluation { reason })?;
        retry_stats
            .lock()
            .expect("stats lock")
            .push(evaluator.retry_stats());
        Ok(Box::new(Timed::new(evaluator, recorder.clone(), tag)) as Box<dyn PolicyEvaluator>)
    });
    let end = recorder.now();
    take_counts(&mut unit);

    // Each wave advances every job by one segment; it ends when its last job's
    // evaluation returns. The jobs of one wave wait for each other, so they are not
    // independent samples: end-to-end round latency is taken per wave.
    let per_job: Vec<Vec<Batch>> = (0..FLEET_JOBS).map(|t| recorder.batches_of(t)).collect();
    for batches in &per_job {
        unit.add_batches(batches, 2);
    }
    let waves = per_job.iter().map(Vec::len).min().unwrap_or(0);
    let wave_end = |k: usize| per_job.iter().map(|b| b[k].end).fold(0.0, f64::max);
    unit.rounds_ms = (2..waves)
        .map(|k| (wave_end(k) - wave_end(k - 1)) * 1e3)
        .collect();
    let setup_end = if waves > 1 { wave_end(1) } else { end };
    unit.outer_tags = (0..FLEET_JOBS).collect();
    unit.busy_tags = unit.outer_tags.clone();
    unit.setup_s = setup_end;
    unit.timed_s = end - setup_end;
    unit.retries = retry_stats
        .lock()
        .expect("stats lock")
        .iter()
        .map(|s| s.retries())
        .sum();

    let report = match report {
        Ok(report) => report,
        Err(e) => {
            check(&mut unit, false, &format!("the fleet run failed: {e}"));
            return Ok(unit);
        }
    };
    let recorded = expected::qsort_digests(seed);
    let reference = Workload::FleetQsortResume.reference_point();
    let mut phv_sum = 0.0;
    for (j, job) in report.jobs.iter().enumerate() {
        unit.segments += job.segments;
        let outcome = match &job.outcome {
            Some(outcome) if job.phase == parmis::jobs::JobPhase::Done => outcome.clone(),
            _ => {
                check(&mut unit, false, "a fleet job did not complete");
                continue;
            }
        };
        let digest = outcome_digest(&outcome);
        check(
            &mut unit,
            job.outcome_digest == Some(digest),
            "journaled outcome digest differs from the returned outcome",
        );
        match recorded {
            Some(recorded) => check(
                &mut unit,
                digest == recorded[j],
                "fleet outcome differs from the recorded uninterrupted run",
            ),
            // Seeds outside the recorded table: the first unit reruns each search
            // uninterrupted, untimed; later units must equal the first.
            None if index == 0 => {
                let plain = Parmis::new(specs[j].config.clone())
                    .run(&qsort_evaluator()?)
                    .map_err(|e| format!("reference search failed: {e}"))?;
                check(
                    &mut unit,
                    digest == outcome_digest(&plain),
                    "fleet outcome differs from the uninterrupted run",
                );
            }
            None => {}
        }
        phv_sum += front_phv(&outcome.front.objective_values(), &reference);
        unit.digests.push(digest);
        unit.outcomes.push((specs[j].config.clone(), outcome));
    }
    unit.phv = phv_sum / FLEET_JOBS as f64;
    let quarantined = supervisor.recovery().quarantined.len()
        + supervisor
            .store()
            .quarantined_files()
            .map_or(0, |files| files.len());
    unit.fleet = Some(FleetFacts {
        store_writes: supervisor.store().writes(),
        restarts: report.jobs.iter().map(|j| j.attempts).sum(),
        quarantined,
        filesystem: filesystem_of(&dir),
    });
    drop(supervisor);
    std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
    Ok(unit)
}
