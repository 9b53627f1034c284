//! Virtual time: the tick domain, the resource-calibrated cost model,
//! and the modeled execution-unit timeline the event-driven pipeline
//! schedules onto.
//!
//! The serving layer measures latency on a **discrete-event virtual
//! clock**, not on wall time. Wall time on the simulation host says
//! nothing about the latency a QRAM device would exhibit — and worse, it
//! varies with the host's core count, so percentiles computed from it
//! could never be bit-identical across `--threads` values. Virtual time
//! fixes both: every duration in the pipeline (compile, execute,
//! queueing) is a pure function of the request and the [`CostModel`], so
//! a workload's latency distribution is a *reproducible experiment*.
//!
//! One tick is one virtual nanosecond. The [`CostModel`] is calibrated
//! against the compiled circuit's [`ResourceCount`], per architecture:
//!
//! * **compile** scales with the *gate count* — compilation walks every
//!   gate of the generated circuit, whatever its shape;
//! * **execute** scales with the *lowered (Clifford+T) depth* — on the
//!   device, gates in the same layer run concurrently, so a shallow
//!   fanout circuit and a deep select-swap circuit of equal gate count
//!   cost very different virtual time. This is what makes serving-layer
//!   latencies track the paper's Table 2 depth asymptotics instead of a
//!   flat per-gate coefficient.
//!
//! The [`VirtualTimeline`] is the modeled device's execution resource —
//! `units` parallel execution slots that requests are list-scheduled
//! onto (earliest-free slot first), which is exactly the deterministic
//! trace a work-conserving work-stealing dispatcher produces over
//! identical-priority items. The timeline's `units` knob is *part of the
//! modeled system* and independent of the real worker threads doing the
//! Monte-Carlo computation (`ServiceConfig::workers`), which remain a
//! pure throughput knob.
//!
//! [`ResourceCount`]: qram_circuit::resources::ResourceCount

use qram_circuit::resources::ResourceCount;

/// Virtual nanoseconds on the service's discrete-event clock.
pub type Ticks = u64;

/// The deterministic cost model mapping compiled-circuit resources onto
/// virtual time.
///
/// ```
/// use qram_circuit::resources::ResourceCount;
/// use qram_service::CostModel;
/// let cost = CostModel::default();
/// let shallow = ResourceCount { num_gates: 100, lowered_depth: 10, ..Default::default() };
/// let deep = ResourceCount { num_gates: 100, lowered_depth: 90, ..Default::default() };
/// // Equal gate count, equal compile cost…
/// assert_eq!(cost.compile_cost(&shallow), cost.compile_cost(&deep));
/// // …but execution is depth-calibrated: the deep circuit costs more.
/// assert!(cost.execute_cost(&deep, 1) > cost.execute_cost(&shallow, 1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Virtual ns to compile one gate of a circuit on a cache miss.
    pub compile_per_gate: Ticks,
    /// Virtual ns to execute one lowered-depth layer of one Monte-Carlo
    /// shot.
    pub execute_per_layer_shot: Ticks,
    /// Fixed virtual ns of per-request dispatch overhead.
    pub request_overhead: Ticks,
    /// Modeled parallel execution units of the served device (the
    /// virtual-time analogue of "how many queries the hardware runs at
    /// once"). Deliberately **not** tied to the real executor's thread
    /// count: changing real threads must never change reported latency.
    pub units: usize,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            compile_per_gate: 50,
            execute_per_layer_shot: 10,
            request_overhead: 1_000,
            units: 2,
        }
    }
}

impl CostModel {
    /// Overrides the modeled execution-unit count.
    pub fn with_units(mut self, units: usize) -> Self {
        self.units = units;
        self
    }

    /// Overrides the per-gate compile cost.
    pub fn with_compile_per_gate(mut self, ticks: Ticks) -> Self {
        self.compile_per_gate = ticks;
        self
    }

    /// Overrides the per-layer-shot execute cost.
    pub fn with_execute_per_layer_shot(mut self, ticks: Ticks) -> Self {
        self.execute_per_layer_shot = ticks;
        self
    }

    /// Overrides the fixed per-request overhead.
    pub fn with_request_overhead(mut self, ticks: Ticks) -> Self {
        self.request_overhead = ticks;
        self
    }

    /// Virtual ns to compile the measured circuit (paid on a cache miss;
    /// a cache hit compiles in 0 ticks). Gate-count-calibrated:
    /// compilation touches every gate.
    pub fn compile_cost(&self, resources: &ResourceCount) -> Ticks {
        resources.num_gates as Ticks * self.compile_per_gate
    }

    /// Virtual ns to execute one request of the measured circuit under
    /// `shots` Monte-Carlo shots. Depth-calibrated: one lowered
    /// (Clifford+T) layer per `execute_per_layer_shot` ticks, so
    /// architectures of different depth cost different virtual time at
    /// equal gate count. Noiseless serving (`shots == 0`) still runs
    /// the one classical readout trajectory.
    pub fn execute_cost(&self, resources: &ResourceCount, shots: usize) -> Ticks {
        self.request_overhead
            + resources.lowered_depth as Ticks * self.execute_per_layer_shot * shots.max(1) as Ticks
    }

    /// The modeled steady-state capacity in requests per virtual second,
    /// for requests of mean execute cost `mean_execute` ticks.
    pub fn capacity_rps(&self, mean_execute: Ticks) -> f64 {
        if mean_execute == 0 {
            return f64::INFINITY;
        }
        self.units as f64 * 1e9 / mean_execute as f64
    }
}

/// The modeled device's execution-unit timeline: `units` parallel slots,
/// each remembering when it next falls idle.
///
/// [`assign_slot`](VirtualTimeline::assign_slot) list-schedules one
/// request onto the earliest-free slot (lowest index on ties) — the
/// deterministic schedule a greedy work-stealing dispatcher converges
/// to when all items are ready in a fixed order. Slots persist across
/// batches, so back-to-back batches queue behind each other exactly as
/// they would on a busy device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VirtualTimeline {
    busy_until: Vec<Ticks>,
}

impl VirtualTimeline {
    /// An all-idle timeline of `units` slots.
    ///
    /// # Panics
    ///
    /// Panics if `units == 0`.
    pub fn new(units: usize) -> Self {
        assert!(units > 0, "virtual timeline needs at least one unit");
        VirtualTimeline {
            busy_until: vec![0; units],
        }
    }

    /// Modeled execution units.
    pub fn units(&self) -> usize {
        self.busy_until.len()
    }

    /// Schedules one `cost`-tick item that becomes ready at `ready`;
    /// returns the unit it was scheduled on (the execute span's unit
    /// assignment) and its `(start, end)` on the virtual clock.
    /// Deterministic: earliest-free slot, lowest index on ties.
    pub fn assign_slot(&mut self, ready: Ticks, cost: Ticks) -> (usize, Ticks, Ticks) {
        let slot = self
            .busy_until
            .iter()
            .enumerate()
            .min_by_key(|(_, &t)| t)
            .map(|(i, _)| i)
            .expect("timeline has at least one unit");
        let start = self.busy_until[slot].max(ready);
        let end = start + cost;
        self.busy_until[slot] = end;
        (slot, start, end)
    }

    /// The earliest instant some slot is free (0 on a fresh timeline) —
    /// the event a work-conserving batcher fires on.
    pub fn next_free(&self) -> Ticks {
        self.busy_until.iter().copied().min().unwrap_or(0)
    }

    /// The instant every slot is idle again (0 on a fresh timeline).
    pub fn idle_at(&self) -> Ticks {
        self.busy_until.iter().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resources(gates: usize, depth: usize) -> ResourceCount {
        ResourceCount {
            num_gates: gates,
            lowered_depth: depth,
            ..Default::default()
        }
    }

    #[test]
    fn costs_scale_with_gates_depth_and_shots() {
        let cost = CostModel::default()
            .with_compile_per_gate(7)
            .with_execute_per_layer_shot(3)
            .with_request_overhead(100);
        assert_eq!(cost.compile_cost(&resources(10, 4)), 70);
        assert_eq!(cost.execute_cost(&resources(10, 4), 5), 100 + 4 * 3 * 5);
        // Noiseless still runs one readout trajectory.
        assert_eq!(
            cost.execute_cost(&resources(10, 4), 0),
            cost.execute_cost(&resources(10, 4), 1)
        );
    }

    #[test]
    fn execute_is_depth_calibrated_not_gate_calibrated() {
        let cost = CostModel::default();
        let wide_shallow = resources(1_000, 5);
        let narrow_deep = resources(50, 50);
        assert!(cost.execute_cost(&narrow_deep, 1) > cost.execute_cost(&wide_shallow, 1));
        assert!(cost.compile_cost(&wide_shallow) > cost.compile_cost(&narrow_deep));
    }

    #[test]
    fn capacity_is_units_over_mean_cost() {
        let cost = CostModel::default().with_units(2);
        assert!((cost.capacity_rps(1_000) - 2e6).abs() < 1e-6);
        assert_eq!(cost.capacity_rps(0), f64::INFINITY);
    }

    #[test]
    fn timeline_prefers_earliest_free_slot() {
        let mut timeline = VirtualTimeline::new(2);
        assert_eq!(timeline.assign_slot(0, 10), (0, 0, 10));
        assert_eq!(timeline.assign_slot(0, 4), (1, 0, 4));
        // Slot 1 frees first; the next item queues behind it.
        assert_eq!(timeline.assign_slot(0, 5), (1, 4, 9));
        // A late-ready item starts at its ready time on the
        // earliest-free slot.
        assert_eq!(timeline.assign_slot(20, 1), (1, 20, 21));
        assert_eq!(timeline.idle_at(), 21);
    }

    #[test]
    fn next_free_is_the_earliest_slot() {
        let mut timeline = VirtualTimeline::new(2);
        assert_eq!(timeline.next_free(), 0);
        timeline.assign_slot(0, 10);
        // One slot busy until 10, the other still free.
        assert_eq!(timeline.next_free(), 0);
        timeline.assign_slot(0, 4);
        assert_eq!(timeline.next_free(), 4);
        assert_eq!(timeline.idle_at(), 10);
    }

    #[test]
    fn single_unit_serializes() {
        let mut timeline = VirtualTimeline::new(1);
        assert_eq!(timeline.assign_slot(0, 10), (0, 0, 10));
        assert_eq!(timeline.assign_slot(0, 10), (0, 10, 20));
        assert_eq!(timeline.units(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one unit")]
    fn zero_units_is_rejected() {
        let _ = VirtualTimeline::new(0);
    }
}
