//! Integration tests of the end-to-end pipeline claims: the headline
//! latency/energy numbers of the paper's abstract hold in the simulation, and
//! the executed-length statistics measured in the simulator feed consistently
//! into the pipeline model.

use corki::sim::evaluation::{run_job, EvalConfig};
use corki::system::{simulate_pipeline, FleetConfig, Variant};
use corki::VariantSetup;

/// Abstract: "Corki largely reduces LLM inference frequency by up to 5.1×,
/// resulting in up to 5.9× speed up" (for Corki-ADAP) and the per-variant
/// speed-ups of Fig. 13 (up to 9.1× for Corki-9, 9.2× energy reduction).
#[test]
fn headline_speedups_hold() {
    let baseline = simulate_pipeline(&FleetConfig::single_robot(Variant::RoboFlamingo));

    let adap = simulate_pipeline(&FleetConfig::single_robot(Variant::CorkiAdaptive));
    let adap_speedup = adap.speedup_over(&baseline);
    let adap_inference_reduction = adap.inference_reduction_over(&baseline);
    assert!(
        (4.0..7.5).contains(&adap_speedup),
        "Corki-ADAP speed-up {adap_speedup:.1}× (paper: 5.9×)"
    );
    assert!(
        (3.5..5.5).contains(&adap_inference_reduction),
        "Corki-ADAP inference reduction {adap_inference_reduction:.1}× (paper: up to 5.1×)"
    );

    let corki9 = simulate_pipeline(&FleetConfig::single_robot(Variant::CorkiFixed(9)));
    assert!(
        (7.5..11.5).contains(&corki9.speedup_over(&baseline)),
        "Corki-9 speed-up {:.1}× (paper: 9.1×)",
        corki9.speedup_over(&baseline)
    );
    assert!(
        (7.0..11.0).contains(&corki9.energy_reduction_over(&baseline)),
        "Corki-9 energy reduction {:.1}× (paper: 9.2×)",
        corki9.energy_reduction_over(&baseline)
    );
}

/// The executed-length distribution measured by the simulator for Corki-ADAP
/// can be plugged into the pipeline model, and yields a speed-up between the
/// Corki-3 and Corki-9 fixed variants.
#[test]
fn measured_adaptive_lengths_feed_the_pipeline_model() {
    // Measure executed lengths from real Corki-ADAP rollouts.
    let setup = VariantSetup::new(Variant::CorkiAdaptive);
    let env = setup.build_environment(5);
    let mut policy = setup.build_policy(5);
    let mut lengths = Vec::new();
    for job in 0..5 {
        let result = run_job(
            &env,
            policy.as_mut(),
            &EvalConfig { num_jobs: 1, unseen: false, seed: 55 },
            job,
        );
        for episode in &result.episodes {
            lengths.extend(episode.executed_lengths.iter().copied());
        }
    }
    assert!(!lengths.is_empty());
    let mean_length = lengths.iter().sum::<usize>() as f64 / lengths.len() as f64;
    assert!((1.0..=9.0).contains(&mean_length));

    let mut config = FleetConfig::single_robot(Variant::CorkiAdaptive);
    config.adaptive_lengths = lengths;
    let adap = simulate_pipeline(&config);
    config.robots[0].variant = Variant::RoboFlamingo;
    let baseline = simulate_pipeline(&config);
    let speedup = adap.speedup_over(&baseline);

    let corki3 = simulate_pipeline(&FleetConfig::single_robot(Variant::CorkiFixed(3)));
    let corki9 = simulate_pipeline(&FleetConfig::single_robot(Variant::CorkiFixed(9)));
    assert!(
        speedup >= corki3.speedup_over(&baseline) * 0.9
            && speedup <= corki9.speedup_over(&baseline) * 1.05,
        "measured-ADAP speed-up {speedup:.1}× outside the Corki-3..Corki-9 bracket"
    );
}

/// The baseline pipeline saturates well below real-time while every
/// accelerator-backed Corki variant with three or more steps taken reaches
/// the 30 Hz camera rate target discussed in §2.2.
#[test]
fn corki_reaches_real_time_frame_rates() {
    let baseline = simulate_pipeline(&FleetConfig::single_robot(Variant::RoboFlamingo));
    assert!(baseline.frame_rate_hz < 10.0);
    for steps in [5usize, 7, 9] {
        let summary = simulate_pipeline(&FleetConfig::single_robot(Variant::CorkiFixed(steps)));
        assert!(
            summary.frame_rate_hz > 20.0,
            "Corki-{steps} reaches only {:.1} Hz",
            summary.frame_rate_hz
        );
    }
}
