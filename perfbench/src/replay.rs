//! The traced replay: re-drives every model-guided round of a finished search through the
//! layers' public calls, timing each call from outside, and checks that it selects the
//! same θ the untraced search evaluated. A second replay drives one search's per-round
//! checkpoints through serialization, the durable store and resume.

use crate::timing::SpanLog;
use gp::hyperopt::{fit_with_hyperopt, HyperoptConfig};
use gp::{GaussianProcess, PosteriorSample, RffSampler, WeightScratch};
use moo::nsga2::{Nsga2, Nsga2Config, Nsga2Engine};
use moo::ParetoFront;
use parmis::acquisition::AcquisitionOptimizer;
use parmis::cancel::{CancelReason, CancelSource};
use parmis::checkpoint::SearchState;
use parmis::evaluation::PolicyEvaluator;
use parmis::framework::{Parmis, ParmisConfig, ParmisOutcome, SearchStep};
use parmis::jobs::{outcome_digest, CheckpointStore};
use parmis::pareto_sampling::ParetoFrontSample;
use std::time::Instant;

/// Model-side layer totals of the replayed rounds.
#[derive(Debug, Default)]
pub struct ModelLayers {
    pub rounds: usize,
    /// Wall time of the replayed rounds, ms.
    pub round_ms: f64,
    pub fit_ms: f64,
    pub build_ms: f64,
    pub rff_ms: f64,
    pub nsga_self_ms: f64,
    pub acquisition_ms: f64,
    pub rff_point_evals: u64,
    /// Selected θ reproduced bit for bit / not reproduced.
    pub matched: usize,
    pub mismatched: usize,
}

/// Persistence layer totals of the checkpoint replay.
#[derive(Debug, Default)]
pub struct PersistLayers {
    pub to_json_ms: f64,
    pub from_json_ms: f64,
    pub bytes: usize,
    pub resume_replay_ms: f64,
    pub save_ms: f64,
    pub load_ms: f64,
    pub failed_checks: usize,
}

impl PersistLayers {
    pub fn total_ms(&self) -> f64 {
        self.to_json_ms + self.from_json_ms + self.resume_replay_ms + self.save_ms + self.load_ms
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Lengthscale candidates of the framework's hyperparameter refits.
fn lengthscale_grid(dim: usize, bound: f64) -> Vec<f64> {
    let typical_distance = bound * (2.0 * dim as f64 / 3.0).sqrt();
    [0.25, 0.5, 1.0, 2.0]
        .iter()
        .map(|f| f * typical_distance)
        .collect()
}

/// One round's model update: a hyperparameter refit on the framework's cadence, an
/// incremental extension of the cached models otherwise.
fn fit_models(
    cfg: &ParmisConfig,
    history: &[parmis::framework::IterationRecord],
    k: usize,
    dim: usize,
    bound: f64,
    cache: &mut Option<Vec<GaussianProcess>>,
) -> Result<(), String> {
    let iteration = history.len();
    let refit = cache.is_none()
        || iteration
            .saturating_sub(cfg.initial_samples)
            .is_multiple_of(cfg.refit_hyperparameters_every);
    let xs: Vec<Vec<f64>> = history.iter().map(|r| r.theta.clone()).collect();
    let previous = cache.take();
    let mut models = Vec::with_capacity(k);
    for j in 0..k {
        let raw: Vec<f64> = history.iter().map(|r| r.objectives[j]).collect();
        let mean = linalg::vector::mean(&raw);
        let std = linalg::vector::std_dev(&raw).max(1e-9);
        let ys: Vec<f64> = raw.iter().map(|y| (y - mean) / std).collect();
        if refit {
            let config = HyperoptConfig {
                family: cfg.kernel_family,
                lengthscales: lengthscale_grid(dim, bound),
                signal_variances: vec![0.5, 1.0, 2.0],
                noise_variances: vec![1e-4, 1e-2],
                refinement_passes: 1,
            };
            models.push(
                fit_with_hyperopt(xs.clone(), ys, &config)
                    .map_err(err)?
                    .model,
            );
        } else {
            let prev = &previous.as_ref().expect("cache present when not refitting")[j];
            let n_prev = prev.len();
            let model = match prev.with_observations_and_targets(&xs[n_prev..], ys.clone()) {
                Ok(model) => model,
                Err(_) => GaussianProcess::fit(
                    xs.clone(),
                    ys,
                    prev.kernel().clone(),
                    prev.noise_variance(),
                )
                .map_err(err)?,
            };
            models.push(model);
        }
    }
    *cache = Some(models);
    Ok(())
}

/// Replays every model-guided round of `outcome` (produced by `cfg`), accumulating layer
/// times into `acc` and spans into `log`.
pub fn replay_search(
    cfg: &ParmisConfig,
    outcome: &ParmisOutcome,
    dim: usize,
    bound: f64,
    log: &mut SpanLog,
    acc: &mut ModelLayers,
) -> Result<(), String> {
    let history = &outcome.history;
    let k = outcome.objectives.len();
    let initial = cfg.initial_samples.min(cfg.max_iterations).max(2);
    let mut archive: ParetoFront<Vec<f64>> = ParetoFront::new(k);
    for r in &history[..initial.min(history.len())] {
        archive.insert(r.objectives.clone(), r.theta.clone());
    }
    let mut cache: Option<Vec<GaussianProcess>> = None;
    let mut engine = Nsga2Engine::new();
    let mut weights = WeightScratch::default();
    let mut column: Vec<f64> = Vec::new();
    let mut pareto: Vec<usize> = Vec::new();
    let lower = vec![-bound; dim];
    let upper = vec![bound; dim];

    let mut it = initial;
    while it < history.len() {
        let q = cfg.batch_size.min(cfg.max_iterations - it).max(1);
        let round = log.open("framework.round", it, None);

        let span = log.open("gp.fit", it, Some(round));
        fit_models(cfg, &history[..it], k, dim, bound, &mut cache)?;
        acc.fit_ms += log.close(span);
        let models = cache.as_deref().expect("fit_models fills the cache");

        let span = log.open("pareto_sampling.build", it, Some(round));
        let sampler_seed = cfg.seed ^ (it as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let samplers = models
            .iter()
            .enumerate()
            .map(|(i, m)| {
                RffSampler::new(
                    m,
                    cfg.sampling.rff_features,
                    sampler_seed.wrapping_add(i as u64 * 0x9e37),
                )
                .map(|s| s.with_precision(cfg.precision))
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(err)?;
        acc.build_ms += log.close(span);

        let base_seed = cfg.seed ^ ((it as u64) << 8);
        let mut samples = Vec::with_capacity(cfg.num_pareto_samples);
        for s in 0..cfg.num_pareto_samples {
            let sample_seed = base_seed.wrapping_add(s as u64 * 104_729);
            let span = log.open("pareto_sampling.build", it, Some(round));
            let functions = samplers
                .iter()
                .enumerate()
                .map(|(i, sampler)| {
                    sampler.sample_with(sample_seed.wrapping_add(i as u64 * 7919), &mut weights)
                })
                .collect::<Result<Vec<PosteriorSample>, _>>()
                .map_err(err)?;
            acc.build_ms += log.close(span);

            let solver = Nsga2::new(
                lower.clone(),
                upper.clone(),
                Nsga2Config {
                    population_size: cfg.sampling.nsga_population.max(4) & !1,
                    generations: cfg.sampling.nsga_generations.max(1),
                    seed: sample_seed ^ 0xD1CE,
                    ..Default::default()
                },
            )?;
            let span = log.open("moo.nsga2", it, Some(round));
            let mut rff_ns = 0u128;
            let mut point_evals = 0u64;
            engine.solve(&solver, k, |points, out| {
                let started = Instant::now();
                for (j, f) in functions.iter().enumerate() {
                    column.clear();
                    column.resize(points.count(), 0.0);
                    f.eval_batch_into(points.as_slice(), &mut column);
                    for (p, v) in column.iter().enumerate() {
                        out[p * k + j] = *v;
                    }
                }
                rff_ns += started.elapsed().as_nanos();
                point_evals += (points.count() * k) as u64;
            });
            log.record("gp.rff_eval", it, span, rff_ns);
            let nsga_ms = log.close(span);
            let rff_ms = rff_ns as f64 / 1e6;
            acc.rff_ms += rff_ms;
            acc.nsga_self_ms += nsga_ms - rff_ms;
            acc.rff_point_evals += point_evals;

            engine.pareto_indices_into(&mut pareto);
            let objectives = engine.objectives();
            let front: Vec<Vec<f64>> = pareto
                .iter()
                .map(|&i| objectives[i * k..(i + 1) * k].to_vec())
                .collect();
            samples.push(ParetoFrontSample::from_front(front).map_err(err)?);
        }

        let incumbents: Vec<Vec<f64>> = archive.tags().into_iter().cloned().collect();
        let span = log.open("acquisition.maximize", it, Some(round));
        let selected = AcquisitionOptimizer::new(dim, bound, cfg.acquisition.clone())
            .maximize_batch(
                models,
                &samples,
                &incumbents,
                q,
                cfg.seed ^ (it as u64).wrapping_mul(0xB529_7A4D),
            )
            .map_err(err)?;
        acc.acquisition_ms += log.close(span);
        acc.round_ms += log.close(round);
        acc.rounds += 1;

        for (slot, (theta, value)) in selected.iter().enumerate() {
            let same = history.get(it + slot).is_some_and(|r| {
                bits_eq(&r.theta, theta)
                    && r.acquisition_value.map(f64::to_bits) == Some(value.to_bits())
            });
            if same {
                acc.matched += 1;
            } else {
                acc.mismatched += 1;
            }
        }
        let next = (it + selected.len().max(1)).min(history.len());
        for r in &history[it..next] {
            archive.insert(r.objectives.clone(), r.theta.clone());
        }
        it = next;
    }
    Ok(())
}

/// Reruns the search of `cfg` uninterrupted with a checkpoint after every round, and
/// drives each checkpoint through `SearchState::to_json`, `CheckpointStore::save`,
/// `CheckpointStore::load_latest`, `SearchState::from_json` and a resume that stops right
/// after rebuilding its models. Returns the rerun's outcome digest.
pub fn replay_persistence(
    cfg: &ParmisConfig,
    evaluator: &dyn PolicyEvaluator,
    store: &CheckpointStore,
    job: &str,
    log: &mut SpanLog,
    acc: &mut PersistLayers,
) -> Result<u64, String> {
    let config = ParmisConfig {
        checkpoint_every: 1,
        ..cfg.clone()
    };
    let stop = CancelSource::new();
    stop.cancel(CancelReason::User);
    let resume_probe = Parmis::new(config.clone()).with_cancel_token(stop.token());
    let step = Parmis::new(config)
        .run_resumable_with_checkpoints(evaluator, |state| {
            let round = state.evaluations();
            let parent = log.open("checkpoint.round_trip", round, None);

            let span = log.open("checkpoint.to_json", round, Some(parent));
            let json = state.to_json()?;
            acc.to_json_ms += log.close(span);
            acc.bytes += json.len();

            let span = log.open("jobs.store.save", round, Some(parent));
            store.save(job, state)?;
            acc.save_ms += log.close(span);

            let span = log.open("jobs.store.load", round, Some(parent));
            let loaded = store.load_latest(job)?;
            acc.load_ms += log.close(span);
            if loaded.state.map(|(_, s)| s.state_digest) != Some(state.state_digest) {
                acc.failed_checks += 1;
                eprintln!("perfbench: output check failed: reloaded checkpoint differs");
            }

            let span = log.open("checkpoint.from_json", round, Some(parent));
            let parsed = SearchState::from_json(&json)?;
            acc.from_json_ms += log.close(span);

            let span = log.open("checkpoint.resume_replay", round, Some(parent));
            let resumed = resume_probe.resume(parsed, evaluator)?;
            acc.resume_replay_ms += log.close(span);
            if !resumed.is_suspended() {
                acc.failed_checks += 1;
                eprintln!("perfbench: output check failed: resume probe did not stop");
            }
            log.close(parent);
            Ok(())
        })
        .map_err(err)?;
    match step {
        SearchStep::Completed(outcome) => Ok(outcome_digest(&outcome)),
        SearchStep::Suspended { reason, .. } => {
            Err(format!("checkpoint replay suspended: {reason}"))
        }
    }
}

fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
