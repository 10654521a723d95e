//! End-to-end pipeline comparison (paper Fig. 13): simulate the baseline
//! discrete pipeline and the Corki continuous pipeline on the paper's device
//! models and print latency, frame rate, energy and speed-up per variant.
//!
//! ```text
//! cargo run --release --example pipeline_comparison
//! ```

use corki::system::{simulate_pipeline, FleetConfig, Variant};

fn main() {
    let baseline = simulate_pipeline(&FleetConfig::single_robot(Variant::RoboFlamingo));
    println!(
        "{:<14} {:>13} {:>10} {:>11} {:>9} {:>12} {:>12}",
        "variant",
        "latency [ms]",
        "rate [Hz]",
        "energy [J]",
        "speedup",
        "energy red.",
        "inferences"
    );
    for variant in Variant::paper_lineup() {
        let summary = simulate_pipeline(&FleetConfig::single_robot(variant));
        println!(
            "{:<14} {:>13.1} {:>10.1} {:>11.2} {:>8.1}x {:>11.1}x {:>12}",
            summary.variant,
            summary.mean_frame_latency_ms,
            summary.frame_rate_hz,
            summary.mean_frame_energy_j,
            summary.speedup_over(&baseline),
            summary.energy_reduction_over(&baseline),
            summary.inference_count,
        );
    }
    println!();
    println!(
        "baseline long-tail: mean {:.1} ms, p99 {:.1} ms, relative variation {:.2}",
        baseline.stats.mean_ms, baseline.stats.p99_ms, baseline.stats.relative_variation
    );
    let corki5 = simulate_pipeline(&FleetConfig::single_robot(Variant::CorkiFixed(5)));
    println!(
        "Corki-5 long-tail:  mean {:.1} ms, p99 {:.1} ms, relative variation {:.2}  (the paper's Fig. 14c long-tail effect)",
        corki5.stats.mean_ms, corki5.stats.p99_ms, corki5.stats.relative_variation
    );
}
