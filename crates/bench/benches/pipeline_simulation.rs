//! Benchmarks of the end-to-end pipeline simulation (Fig. 13/14 generator)
//! and of a full simulator job rollout (Tables 1/2 generator).

use corki::VariantSetup;
use corki_sim::evaluation::{run_job, EvalConfig};
use corki_system::{simulate_pipeline, FleetConfig, Variant};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");

    for variant in [Variant::RoboFlamingo, Variant::CorkiFixed(5), Variant::CorkiAdaptive] {
        let name = variant.name();
        let mut config = FleetConfig::single_robot(variant);
        config.frames_per_robot = 300;
        group.bench_function(format!("simulate_300_frames/{name}"), |b| {
            b.iter(|| black_box(simulate_pipeline(&config)))
        });
    }

    group.bench_function("one_five_task_job/Corki-5", |b| {
        let setup = VariantSetup::new(Variant::CorkiFixed(5));
        let env = setup.build_environment(1);
        let config = EvalConfig { num_jobs: 1, unseen: false, seed: 1 };
        b.iter(|| {
            let mut policy = setup.build_policy(1);
            black_box(run_job(&env, policy.as_mut(), &config, 0))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
