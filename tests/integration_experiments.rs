//! Smoke test of the complete experiment harness: every table/figure
//! generator runs at reduced scale and produces well-formed output. This is
//! the same code path the `experiments` binary uses.

use corki::experiments::{self, ExperimentScale};
use corki::fleet;

#[test]
fn every_experiment_runs_at_smoke_scale() {
    let scale = ExperimentScale::smoke();

    // Fig. 2.
    let fig2 = experiments::fig2_breakdown();
    assert_eq!(fig2.len(), 3);

    // Tables 1/2 + Fig. 11.
    let table1 = experiments::accuracy_table(false, &scale);
    let table2 = experiments::accuracy_table(true, &scale);
    assert_eq!(table1.len(), 8);
    assert_eq!(table2.len(), 8);
    assert_eq!(experiments::trajectory_error_series(&table1).len(), 8);

    // Fig. 12.
    let traces = experiments::fig12_traces(&scale);
    assert_eq!(traces.len(), 2);

    // Fig. 13/14.
    let pipeline = experiments::pipeline_comparison(&scale);
    assert_eq!(pipeline.len(), 8);
    assert!(pipeline.iter().all(|p| p.frames > 0));

    // Tables 3/4.
    assert_eq!(experiments::device_table(&scale).len(), 4);
    assert_eq!(experiments::precision_table(&scale).len(), 3);

    // §6.1, Fig. 9, ablation, Fig. 15, §2.2.
    let report = experiments::resource_report();
    let (dsp, _, _, bram) = report.utilization_percent();
    assert!(dsp > 5.0 && bram > 2.0);
    assert_eq!(experiments::fig9_sensitivity().len(), 21);
    assert_eq!(experiments::accelerator_ablation().len(), 3);
    let (skip, sweep) = experiments::approximation_study();
    assert!(skip > 0.0 && sweep.len() == 9);
    let (cpu_hz, _, accel_hz) = experiments::bottleneck_analysis();
    assert!(accel_hz > cpu_hz);

    // Fleet serving sweep.
    let spec = fleet::paper_sweep(true);
    let cells = spec.expand().expect("the smoke sweep expands");
    let rows: Vec<_> =
        fleet::scenario_sweep_detailed(&cells).into_iter().map(|cell| cell.row).collect();
    // schedulers × variants × fleet sizes.
    assert_eq!(rows.len(), 2 * 4 * 2);
    assert!(rows.iter().all(|r| r.throughput_steps_per_s > 0.0));
    let budget = fleet::robots_within_budget(&rows, spec.latency_budget_ms);
    assert_eq!(budget.len(), 2 * 4);
}

#[test]
fn experiment_scales_are_ordered() {
    assert!(ExperimentScale::smoke().jobs < ExperimentScale::default().jobs);
    assert!(ExperimentScale::default().jobs < ExperimentScale::full().jobs);
    assert_eq!(ExperimentScale::full().jobs, 1000);
}
