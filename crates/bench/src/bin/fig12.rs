//! Fig. 12 / Appendix A — small-scale virtual QRAM on synthetic IBMQ
//! device models: SWAP-routing counts plus fidelity vs error-reduction
//! factor.
//!
//! Substitution note (DESIGN.md §5): the paper pulls calibration noise
//! from IBM's `ibm_perth` / `ibmq_guadalupe` backends at run time and
//! routes with Qiskit's SABRE. Offline, we encode the published coupling
//! maps with uniform rates at the paper's `ε₀ = 10⁻³` baseline and route
//! with `sabre_lite`; the inserted-SWAP overhead is folded into the
//! 2-qubit error budget (each SWAP = 3 CX of extra exposure).
//!
//! Expected shape: εr = 10 gives usable fidelity; εr ≥ 100 pushes the
//! query above 0.98 (the paper's headline Appendix A claim).

use qram_bench::{default_er_sweep, experiment_memory, print_row, RunOptions};
use qram_circuit::decompose::{lower, CliffordTGate};
use qram_core::{DataEncoding, QueryArchitecture, VirtualQram};
use qram_layout::{route, route_with_chosen_layout, CouplingGraph};
use qram_noise::{ibm_perth, ibmq_guadalupe, DeviceModel, ErrorReductionFactor, FaultSampler};
use qram_sim::run_shots;

/// Scales a device model's 2-qubit channel by the routed/unrouted CX
/// ratio, charging the SWAP overhead to every 2-qubit gate.
fn routing_penalty(device: &DeviceModel, arch: &VirtualQram, seed: u64) -> (usize, f64) {
    let memory = experiment_memory(arch.address_width(), seed);
    let query = arch.build(&memory);
    let lowered = lower(query.circuit());
    let topo = CouplingGraph::new(device.num_qubits(), device.coupling().to_vec());
    // Trial both initial layouts and keep the cheaper routing, as
    // transpilers do.
    let identity = route(&lowered, &topo).expect("device has enough qubits");
    let chosen = route_with_chosen_layout(&lowered, &topo).expect("device has enough qubits");
    let routed = if chosen.swap_count() <= identity.swap_count() {
        chosen
    } else {
        identity
    };
    let base_cx = lowered
        .gates()
        .iter()
        .filter(|g| matches!(g, CliffordTGate::Cx(..)))
        .count();
    let factor = (base_cx + 3 * routed.swap_count()) as f64 / base_cx.max(1) as f64;
    (routed.swap_count(), factor)
}

fn main() {
    let opts = RunOptions::from_args();
    let config = opts.shot_config(200); // the paper's Appendix A shot count
    let sweep = default_er_sweep(opts.full);

    println!("# Fig. 12: virtual QRAM on synthetic IBMQ device models");
    println!(
        "# shots = {}; SWAP counts from sabre_lite routing",
        config.shots
    );
    print_row(&["device", "m", "k", "swaps", "er", "fidelity", "stderr"].map(String::from));

    let configs: Vec<(DeviceModel, usize, usize)> = vec![
        (ibm_perth(), 1, 0),
        (ibm_perth(), 1, 1),
        (ibmq_guadalupe(), 2, 0),
        (ibmq_guadalupe(), 2, 1),
    ];

    for (device, m, k) in configs {
        // Fused data rails squeeze the instance onto the 7/16-qubit chips.
        let arch = VirtualQram::new(k, m).with_encoding(DataEncoding::FusedBit);
        let (swaps, penalty) = routing_penalty(&device, &arch, opts.seed);
        let memory = experiment_memory(k + m, opts.seed);
        let query = arch.build(&memory);
        let input = query.input_state(None);
        for &er in &sweep {
            // Device sampler with the routing penalty folded into εr.
            let effective = ErrorReductionFactor(er.0 / penalty);
            let sampler =
                FaultSampler::for_device(query.circuit(), &device, effective, config.seed);
            let est = run_shots(query.circuit().gates(), &input, None, &config, &|shot| {
                sampler.sample_shot(shot)
            })
            .expect("simulable");
            print_row(&[
                device.name().to_string(),
                m.to_string(),
                k.to_string(),
                swaps.to_string(),
                format!("{:.3}", er.0),
                format!("{:.4}", est.mean),
                format!("{:.4}", est.std_error),
            ]);
        }
    }
}
