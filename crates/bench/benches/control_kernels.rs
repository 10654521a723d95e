//! Benchmarks of the TS-CTC computing blocks the Corki accelerator targets
//! (forward kinematics, Jacobian, mass matrix, bias forces and the full
//! control cycle) on the host CPU. These are the software counterparts of the
//! per-block latencies the §4.2 ablation reasons about.

use corki_robot::{
    panda, ControllerGains, JointState, TaskReference, TaskSpaceController, TaskSpaceDynamics,
};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn configuration() -> Vec<f64> {
    panda::PANDA_HOME.iter().enumerate().map(|(i, q)| q + 0.05 * i as f64).collect()
}

fn bench_control_kernels(c: &mut Criterion) {
    let robot = panda::panda_model();
    let q = configuration();
    let qd = vec![0.1; 7];
    let qdd = vec![0.2; 7];
    let mut group = c.benchmark_group("control_kernels");

    group.bench_function("forward_kinematics", |b| {
        b.iter(|| black_box(robot.forward_kinematics(black_box(&q))))
    });
    group.bench_function("jacobian", |b| b.iter(|| black_box(robot.jacobian(black_box(&q)))));
    group.bench_function("mass_matrix_crba", |b| {
        b.iter(|| black_box(robot.mass_matrix(black_box(&q))))
    });
    group.bench_function("inverse_dynamics_rnea", |b| {
        b.iter(|| black_box(robot.inverse_dynamics(black_box(&q), black_box(&qd), black_box(&qdd))))
    });
    group.bench_function("task_space_model", |b| {
        let tsd = TaskSpaceDynamics::default();
        b.iter(|| black_box(tsd.compute(&robot, black_box(&q), black_box(&qd))))
    });
    group.bench_function("full_ts_ctc_cycle", |b| {
        let controller = TaskSpaceController::new(ControllerGains::default());
        let state = JointState::new(q.clone(), qd.clone());
        let reference = TaskReference::hold(robot.forward_kinematics(&q));
        let mut tau = [0.0; 7];
        b.iter(|| {
            controller.compute_torque(&robot, black_box(&state), &reference, &mut tau);
            black_box(tau)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_control_kernels);
criterion_main!(benches);
