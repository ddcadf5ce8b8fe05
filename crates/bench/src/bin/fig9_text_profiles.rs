//! Fig. 9 (appendix §B): p95 inference latency vs GLUE-MNLI accuracy
//! for the 5 BERT variants; all five sit on the Pareto front.

use ramsis_bench::report::emit_profile_figure;
use ramsis_bench::{build_profile, ExperimentArgs};
use ramsis_profiles::Task;

fn main() {
    let args = ExperimentArgs::parse();
    let slo_s = args.slo_ms.map(|ms| ms as f64 / 1e3).unwrap_or(0.2);
    let profile = build_profile(Task::TextClassification, slo_s);
    emit_profile_figure(&args, &profile, "fig9_text_profiles");
    println!("paper shape: 5 models, all on the Pareto front.");
}
