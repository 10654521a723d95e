//! Benchmarks of the discrete-event fleet-serving runtime: how fast the
//! engine simulates fleets of different sizes and scheduling disciplines.
//!
//! The canonical shapes are the committed scenario files under
//! `crates/bench/scenarios/` (the same cells whose outputs
//! `tests/scenarios.rs` pins in its golden), one case per cell; a
//! fleet-size scaling series rides along via a scenario with a
//! `robot_counts` axis.

use corki::scenario::{ScenarioBuilder, ScenarioSpec};
use corki::{SchedulerKind, Variant};
use corki_system::fleet::FleetSimulator;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::path::Path;

fn bench_fleet(c: &mut Criterion) {
    let mut group = c.benchmark_group("fleet_serving");

    let scaling = ScenarioBuilder::new("scaling")
        .seed(2024)
        .frames_per_robot(120)
        .group(Variant::CorkiFixed(5), 1)
        .default_servers(1, SchedulerKind::Fifo)
        .robot_counts(vec![1, 8, 16])
        .build()
        .expect("scaling scenario is valid");
    for cell in scaling.expand().expect("scaling scenario expands") {
        let robots = cell.robots;
        let sim = FleetSimulator::new(cell.config);
        group.bench_function(format!("fifo/corki5_{robots}robots_120frames"), |b| {
            b.iter(|| black_box(sim.run()))
        });
    }

    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("scenarios directory exists")
        .map(|entry| entry.expect("readable dir entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .collect();
    files.sort();
    for path in files {
        let json = std::fs::read_to_string(&path).expect("read committed scenario");
        let spec = ScenarioSpec::from_json(&json).expect("committed scenario parses");
        let cells = spec.expand().expect("committed scenario expands");
        let single = cells.len() == 1;
        for (index, cell) in cells.into_iter().enumerate() {
            let case = if single { spec.name.clone() } else { format!("{}/{index}", spec.name) };
            let sim = FleetSimulator::new(cell.config);
            group.bench_function(case, |b| b.iter(|| black_box(sim.run())));
        }
    }

    group.finish();
}

criterion_group!(benches, bench_fleet);
criterion_main!(benches);
