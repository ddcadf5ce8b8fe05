//! Fig. 3: 95th-percentile inference latency vs accuracy for the 26
//! TorchVision ImageNet models, with Pareto-front membership (§4.3.3:
//! 17 of 26 models are pruned, leaving 9).

use ramsis_bench::report::emit_profile_figure;
use ramsis_bench::{build_profile, ExperimentArgs};
use ramsis_profiles::Task;

fn main() {
    let args = ExperimentArgs::parse();
    let slo_s = args.slo_ms.map(|ms| ms as f64 / 1e3).unwrap_or(0.3);
    let profile = build_profile(Task::ImageClassification, slo_s);
    emit_profile_figure(&args, &profile, "fig3_image_profiles");
    println!("paper shape: 26 models with 9 on the Pareto front.");
}
