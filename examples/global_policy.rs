//! Global Pareto-frontier policies: train one PaRMIS policy set over several applications and
//! check how well it transfers to each of them (a miniature of the paper's Figure 5 study).
//!
//! ```text
//! cargo run --release --example global_policy
//! ```

use moo::hypervolume::{common_reference_point, hypervolume, normalized};
use moo::ParetoFront;
use parmis::prelude::*;
use parmis_repro::{example_parmis_config, quick_mode, sized};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let all = [Benchmark::Sha, Benchmark::Kmeans, Benchmark::StringSearch];
    let benchmarks = if quick_mode() { &all[..2] } else { &all[..] };
    let objectives = Objective::TIME_ENERGY.to_vec();
    println!(
        "training one global policy set over: {}",
        benchmarks
            .iter()
            .map(|b| b.name())
            .collect::<Vec<_>>()
            .join(", ")
    );

    // One search over the whole application set.
    let global = GlobalEvaluator::for_benchmarks(benchmarks, objectives.clone())?;
    let global_outcome = Parmis::new(example_parmis_config(sized(26, 6), 31)).run(&global)?;
    println!(
        "global search: {} evaluations, {} Pareto policies (dimension d = {})",
        global_outcome.history.len(),
        global_outcome.front.len(),
        global.parameter_dim()
    );

    for &benchmark in benchmarks {
        // Score every global Pareto policy on this application.
        let mut per_app_front = ParetoFront::new(2);
        for theta in global_outcome.front.tags() {
            let value = global.evaluate_on(theta, benchmark)?;
            per_app_front.insert(value, ());
        }
        let global_points = per_app_front.objective_values();

        // Application-specific search with the same budget, for reference.
        let app_eval = SocEvaluator::builder()
            .benchmark(benchmark)
            .objectives(objectives.clone())
            .build()?;
        let app_outcome = Parmis::new(example_parmis_config(sized(26, 6), 37)).run(&app_eval)?;
        let app_points = app_outcome.front.objective_values();

        let reference = common_reference_point(&[&global_points, &app_points], 0.05);
        let phv_global = hypervolume(global_points, &reference);
        let phv_app = hypervolume(app_points, &reference);
        println!(
            "{:<14} app-specific PHV {:.3}, global PHV {:.3}, normalized {:.3}",
            benchmark.name(),
            phv_app,
            phv_global,
            normalized(phv_global, phv_app)
        );
    }
    println!(
        "\nthe paper finds global policies within ~2% of application-specific ones on average"
    );
    Ok(())
}
