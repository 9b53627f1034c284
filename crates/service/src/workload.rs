//! Workload generation: deterministic address streams, open-loop arrival
//! processes, and spec-assignment mixes for driving the service.
//!
//! Three orthogonal axes compose a workload:
//!
//! * **where** the queries read — [`Workload`], the address pattern;
//! * **when** they arrive — [`ArrivalProcess`], virtual-clock timestamps
//!   for the open-loop [`crate::QramService::try_submit_at`] path;
//! * **what shape** serves them — [`SpecMix`], how [`QuerySpec`]s are
//!   assigned across the stream (round-robin, or zipf-skewed so hot
//!   shapes dominate and the compiled-circuit LRU is stressed
//!   realistically).
//!
//! Each address generator models one access pattern QRAM serving traffic
//! is expected to exhibit:
//!
//! * [`Workload::Uniform`] — independent uniform addresses, the
//!   memoryless baseline;
//! * [`Workload::Zipfian`] — rank-skewed popularity (`P(addr = r-th
//!   hottest) ∝ 1/(r+1)^θ`), the classic heavy-tail shape of shared-cache
//!   traffic; address 0 is the hottest rank;
//! * [`Workload::SequentialScan`] — a cyclic linear sweep, the streaming
//!   pattern of a table scan;
//! * [`Workload::GroverTrace`] — the same marked address re-queried over
//!   and over, which is exactly what a Grover search's oracle calls look
//!   like to the QRAM serving it (`O(√N)` queries of one address per
//!   search).
//!
//! Streams are pure functions of their parameters (seeded [`StdRng`]),
//! so a workload names a reproducible experiment.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qram_core::ArchSpec;

use crate::{QuerySpec, Ticks};

/// A deterministic address-stream generator over a `2^address_width`-cell
/// memory.
#[derive(Debug, Clone, PartialEq)]
pub enum Workload {
    /// Independent uniform addresses.
    Uniform {
        /// Address width `n` of the served memory.
        address_width: usize,
        /// RNG seed.
        seed: u64,
    },
    /// Zipf-distributed addresses: rank `r` (= address `r`) is drawn with
    /// probability proportional to `1/(r+1)^theta`.
    Zipfian {
        /// Address width `n` of the served memory.
        address_width: usize,
        /// Skew exponent `θ ≥ 0` (0 degrades to uniform; ~0.99 is the
        /// YCSB-style default).
        theta: f64,
        /// RNG seed.
        seed: u64,
    },
    /// The cyclic sweep `0, 1, …, 2^n − 1, 0, …`.
    SequentialScan {
        /// Address width `n` of the served memory.
        address_width: usize,
    },
    /// The repeated-query trace of a Grover search: every query reads the
    /// same marked address.
    GroverTrace {
        /// Address width `n` of the served memory.
        address_width: usize,
        /// The marked (searched-for) address.
        target: u64,
    },
}

impl Workload {
    /// The generator's short name (used in bench reports).
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Uniform { .. } => "uniform",
            Workload::Zipfian { .. } => "zipfian",
            Workload::SequentialScan { .. } => "scan",
            Workload::GroverTrace { .. } => "grover",
        }
    }

    /// The address width the stream is generated over.
    pub fn address_width(&self) -> usize {
        match self {
            Workload::Uniform { address_width, .. }
            | Workload::Zipfian { address_width, .. }
            | Workload::SequentialScan { address_width }
            | Workload::GroverTrace { address_width, .. } => *address_width,
        }
    }

    /// Generates the first `count` addresses of the stream.
    ///
    /// # Panics
    ///
    /// Panics on invalid parameters (negative `theta`, out-of-range
    /// `target`).
    pub fn addresses(&self, count: usize) -> Vec<u64> {
        let cells = 1u64 << self.address_width();
        match self {
            Workload::Uniform { seed, .. } => {
                let mut rng = StdRng::seed_from_u64(*seed);
                (0..count).map(|_| rng.random_range(0..cells)).collect()
            }
            Workload::Zipfian { theta, seed, .. } => {
                assert!(*theta >= 0.0, "zipf exponent must be non-negative");
                let cdf = zipf_cdf(cells as usize, *theta);
                let mut rng = StdRng::seed_from_u64(*seed);
                (0..count)
                    .map(|_| {
                        let u: f64 = rng.random();
                        cdf.partition_point(|&c| c < u) as u64
                    })
                    .collect()
            }
            Workload::SequentialScan { .. } => (0..count as u64).map(|i| i % cells).collect(),
            Workload::GroverTrace { target, .. } => {
                assert!(*target < cells, "grover target {target} out of range");
                vec![*target; count]
            }
        }
    }
}

/// The cumulative distribution of the Zipf law over `items` ranks:
/// `cdf[r] = P(rank ≤ r)`, with `cdf[items − 1] == 1`.
fn zipf_cdf(items: usize, theta: f64) -> Vec<f64> {
    let mut cdf: Vec<f64> = Vec::with_capacity(items);
    let mut total = 0.0;
    for r in 0..items {
        total += 1.0 / ((r + 1) as f64).powf(theta);
        cdf.push(total);
    }
    for c in &mut cdf {
        *c /= total;
    }
    // Guard against floating-point shortfall at the tail.
    if let Some(last) = cdf.last_mut() {
        *last = 1.0;
    }
    cdf
}

/// An open-loop arrival process: *when* each request reaches the
/// service, as nondecreasing timestamps on the virtual clock
/// ([`Ticks`] = virtual ns).
///
/// Open-loop means arrivals do not wait for earlier requests to finish —
/// the offered load is a property of the process, not of the service's
/// speed. That is what makes overload measurable: when the offered rate
/// exceeds capacity, queueing delay (and eventually back-pressure
/// shedding) shows up in the results instead of silently throttling the
/// generator.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless Poisson arrivals: independent exponential
    /// inter-arrival gaps with the given mean.
    Poisson {
        /// Mean inter-arrival gap in virtual ns (rate = 1e9 / mean
        /// requests per virtual second).
        mean_gap: f64,
        /// RNG seed.
        seed: u64,
    },
    /// A two-state Markov-modulated Poisson process (MMPP-2): bursts of
    /// fast arrivals alternate with quiet stretches. The classic model
    /// of bursty front-end traffic — same average load as a Poisson
    /// stream of the blended mean, far worse tail behavior.
    Bursty {
        /// Mean inter-arrival gap inside a burst (virtual ns).
        mean_fast_gap: f64,
        /// Mean inter-arrival gap between bursts (virtual ns).
        mean_slow_gap: f64,
        /// Mean arrivals spent in a state before switching (geometric
        /// dwell).
        mean_dwell: f64,
        /// RNG seed.
        seed: u64,
    },
}

impl ArrivalProcess {
    /// The process's short name (used in bench reports).
    pub fn name(&self) -> &'static str {
        match self {
            ArrivalProcess::Poisson { .. } => "poisson",
            ArrivalProcess::Bursty { .. } => "bursty",
        }
    }

    /// The first `count` arrival instants, nondecreasing from 0.
    ///
    /// # Panics
    ///
    /// Panics on non-positive mean gaps or `mean_dwell < 1`.
    pub fn arrivals(&self, count: usize) -> Vec<Ticks> {
        match self {
            ArrivalProcess::Poisson { mean_gap, seed } => {
                assert!(*mean_gap > 0.0, "mean inter-arrival gap must be positive");
                let mut rng = StdRng::seed_from_u64(*seed);
                let mut t = 0.0f64;
                (0..count)
                    .map(|_| {
                        t += exponential(&mut rng, *mean_gap);
                        t as Ticks
                    })
                    .collect()
            }
            ArrivalProcess::Bursty {
                mean_fast_gap,
                mean_slow_gap,
                mean_dwell,
                seed,
            } => {
                assert!(
                    *mean_fast_gap > 0.0 && *mean_slow_gap > 0.0,
                    "mean inter-arrival gaps must be positive"
                );
                assert!(*mean_dwell >= 1.0, "mean dwell must be at least 1 arrival");
                let mut rng = StdRng::seed_from_u64(*seed);
                let switch = 1.0 / *mean_dwell;
                let mut fast = true;
                let mut t = 0.0f64;
                (0..count)
                    .map(|_| {
                        let mean = if fast { *mean_fast_gap } else { *mean_slow_gap };
                        t += exponential(&mut rng, mean);
                        if rng.random::<f64>() < switch {
                            fast = !fast;
                        }
                        t as Ticks
                    })
                    .collect()
            }
        }
    }
}

/// One exponential sample with the given mean.
fn exponential(rng: &mut StdRng, mean: f64) -> f64 {
    let u: f64 = rng.random();
    // 1 − u ∈ (0, 1]: ln never sees 0.
    -mean * (1.0 - u).ln()
}

/// How compilation profiles are assigned across a request stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpecMix {
    /// Cycle over the specs in order — every shape equally hot.
    RoundRobin,
    /// Zipf-skewed over the *spec list* (rank 0 = `specs[0]` hottest):
    /// a few shapes dominate, stressing LRU eviction the way real
    /// deployments do.
    Zipfian {
        /// Skew exponent `θ ≥ 0` (0 degrades to uniform).
        theta: f64,
        /// RNG seed (independent of the address stream's).
        seed: u64,
    },
}

/// Pairs a workload's address stream with compilation profiles assigned
/// round-robin, producing the `(address, spec)` submissions a service
/// accepts. A realistic deployment serves a handful of hot circuit
/// shapes; cycling over `specs` reproduces that mix deterministically.
///
/// # Panics
///
/// Panics if `specs` is empty or any spec's address width disagrees with
/// the workload's.
pub fn assign_specs(
    workload: &Workload,
    specs: &[QuerySpec],
    count: usize,
) -> Vec<(u64, QuerySpec)> {
    assign_specs_with(workload, specs, SpecMix::RoundRobin, count)
}

/// Like [`assign_specs`], with an explicit [`SpecMix`] deciding which
/// spec serves each request.
///
/// # Panics
///
/// Panics if `specs` is empty, any spec's address width disagrees with
/// the workload's, or a zipfian mix has a negative `theta`.
pub fn assign_specs_with(
    workload: &Workload,
    specs: &[QuerySpec],
    mix: SpecMix,
    count: usize,
) -> Vec<(u64, QuerySpec)> {
    assert!(!specs.is_empty(), "at least one spec is required");
    for spec in specs {
        assert_eq!(
            spec.address_width(),
            workload.address_width(),
            "spec width disagrees with workload width"
        );
    }
    let picks: Vec<usize> = match mix {
        SpecMix::RoundRobin => (0..count).map(|i| i % specs.len()).collect(),
        SpecMix::Zipfian { theta, seed } => {
            assert!(theta >= 0.0, "zipf exponent must be non-negative");
            let cdf = zipf_cdf(specs.len(), theta);
            let mut rng = StdRng::seed_from_u64(seed);
            (0..count)
                .map(|_| {
                    let u: f64 = rng.random();
                    cdf.partition_point(|&c| c < u)
                })
                .collect()
        }
    };
    workload
        .addresses(count)
        .into_iter()
        .zip(picks)
        .map(|(address, pick)| (address, specs[pick]))
        .collect()
}

/// The standard mixed-architecture spec set at address width `n`: one
/// [`QuerySpec`] per architecture family (the historical `k = 1`
/// hybrids), for workloads that exercise the service's architecture
/// polymorphism.
///
/// This is the *fixed* comparison set with pinned behavior; workloads
/// that should pit each family's **best** `(k, m)` split against the
/// others under a qubit budget route through `qram_plan::planned_families`
/// instead (as `serve_bench --arch mix` now does).
///
/// # Panics
///
/// Panics if `n < 2` (the hybrid families need a page bit and a tree
/// bit).
pub fn mixed_arch_specs(n: usize) -> Vec<QuerySpec> {
    // The literal set the removed `ArchSpec::all_families` shim pinned;
    // moving it to the planner would change five tests' cache
    // accounting for no modeling gain.
    assert!(n >= 2, "mixed-architecture set needs n >= 2, got {n}");
    [
        ArchSpec::Sqc { n },
        ArchSpec::Fanout { m: n },
        ArchSpec::BucketBrigade { k: 1, m: n - 1 },
        ArchSpec::SelectSwap { k: 1, m: n - 1 },
        ArchSpec::virtual_all(1, n - 1),
    ]
    .into_iter()
    .map(QuerySpec::of)
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn histogram(addresses: &[u64], cells: usize) -> Vec<usize> {
        let mut hist = vec![0usize; cells];
        for &a in addresses {
            hist[a as usize] += 1;
        }
        hist
    }

    #[test]
    fn uniform_is_roughly_flat_and_in_range() {
        let w = Workload::Uniform {
            address_width: 4,
            seed: 7,
        };
        let addresses = w.addresses(8000);
        let hist = histogram(&addresses, 16);
        let expected = 8000.0 / 16.0;
        for (a, &count) in hist.iter().enumerate() {
            assert!(
                (count as f64 - expected).abs() < 0.25 * expected,
                "address {a}: {count} vs {expected}"
            );
        }
    }

    #[test]
    fn zipfian_is_head_heavy_and_monotone_in_rank() {
        let w = Workload::Zipfian {
            address_width: 4,
            theta: 0.99,
            seed: 3,
        };
        let addresses = w.addresses(8000);
        let hist = histogram(&addresses, 16);
        // Address 0 is the hottest rank and dominates the tail.
        assert!(hist[0] > 2 * hist[4], "{hist:?}");
        assert!(hist[0] > 4 * hist[15], "{hist:?}");
        // The head (top 4 of 16 ranks) carries most of the traffic.
        let head: usize = hist[..4].iter().sum();
        assert!(head > 8000 / 2, "head {head} of 8000");
    }

    #[test]
    fn zipf_theta_zero_degrades_to_uniform() {
        let w = Workload::Zipfian {
            address_width: 3,
            theta: 0.0,
            seed: 5,
        };
        let hist = histogram(&w.addresses(8000), 8);
        let expected = 1000.0;
        for &count in &hist {
            assert!((count as f64 - expected).abs() < 0.2 * expected, "{hist:?}");
        }
    }

    #[test]
    fn scan_cycles_and_grover_repeats() {
        let scan = Workload::SequentialScan { address_width: 2 };
        assert_eq!(scan.addresses(6), vec![0, 1, 2, 3, 0, 1]);
        let grover = Workload::GroverTrace {
            address_width: 3,
            target: 5,
        };
        assert_eq!(grover.addresses(4), vec![5, 5, 5, 5]);
    }

    #[test]
    fn streams_are_reproducible() {
        let w = Workload::Zipfian {
            address_width: 5,
            theta: 1.1,
            seed: 11,
        };
        assert_eq!(w.addresses(100), w.addresses(100));
        assert_eq!(w.name(), "zipfian");
    }

    #[test]
    fn zipf_cdf_is_monotone_and_complete() {
        let cdf = zipf_cdf(32, 0.99);
        assert!(cdf.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*cdf.last().unwrap(), 1.0);
    }

    #[test]
    fn specs_are_assigned_round_robin() {
        let w = Workload::SequentialScan { address_width: 3 };
        let specs = [QuerySpec::new(1, 2), QuerySpec::new(2, 1)];
        let assigned = assign_specs(&w, &specs, 5);
        assert_eq!(assigned.len(), 5);
        assert_eq!(assigned[0], (0, specs[0]));
        assert_eq!(assigned[1], (1, specs[1]));
        assert_eq!(assigned[2], (2, specs[0]));
        assert_eq!(assigned[4], (4, specs[0]));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn grover_target_must_fit() {
        let _ = Workload::GroverTrace {
            address_width: 2,
            target: 4,
        }
        .addresses(1);
    }

    #[test]
    #[should_panic(expected = "width disagrees")]
    fn spec_width_mismatch_is_rejected() {
        let w = Workload::SequentialScan { address_width: 3 };
        let _ = assign_specs(&w, &[QuerySpec::new(0, 2)], 1);
    }

    #[test]
    fn poisson_arrivals_are_nondecreasing_at_the_right_rate() {
        let process = ArrivalProcess::Poisson {
            mean_gap: 1_000.0,
            seed: 9,
        };
        let arrivals = process.arrivals(4000);
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
        // The empirical mean gap converges on the configured mean.
        let span = *arrivals.last().unwrap() as f64;
        let mean = span / 4000.0;
        assert!(
            (mean - 1_000.0).abs() < 100.0,
            "empirical mean gap {mean:.1}"
        );
        // Reproducible, and the name is stable for reports.
        assert_eq!(arrivals, process.arrivals(4000));
        assert_eq!(process.name(), "poisson");
    }

    #[test]
    fn bursty_arrivals_are_burstier_than_poisson_at_equal_load() {
        // Compare squared-coefficient-of-variation of inter-arrival
        // gaps: MMPP-2 must exceed the memoryless baseline (≈1).
        let scv = |arrivals: &[Ticks]| {
            let gaps: Vec<f64> = arrivals.windows(2).map(|w| (w[1] - w[0]) as f64).collect();
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gaps.len() as f64;
            var / (mean * mean)
        };
        let poisson = ArrivalProcess::Poisson {
            mean_gap: 550.0,
            seed: 3,
        }
        .arrivals(6000);
        let bursty = ArrivalProcess::Bursty {
            mean_fast_gap: 100.0,
            mean_slow_gap: 1_000.0,
            mean_dwell: 50.0,
            seed: 3,
        }
        .arrivals(6000);
        assert!(bursty.windows(2).all(|w| w[0] <= w[1]));
        assert!(
            scv(&bursty) > 1.5 * scv(&poisson),
            "bursty scv {:.2} vs poisson {:.2}",
            scv(&bursty),
            scv(&poisson)
        );
    }

    #[test]
    fn mmpp_with_equal_rates_degenerates_to_poisson() {
        // When both MMPP-2 states share the same mean gap, the state
        // switches are unobservable: the process is exactly Poisson, so
        // the gap distribution must be memoryless (SCV ≈ 1).
        let scv = |arrivals: &[Ticks]| {
            let gaps: Vec<f64> = arrivals.windows(2).map(|w| (w[1] - w[0]) as f64).collect();
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gaps.len() as f64;
            var / (mean * mean)
        };
        let degenerate = ArrivalProcess::Bursty {
            mean_fast_gap: 800.0,
            mean_slow_gap: 800.0,
            mean_dwell: 8.0,
            seed: 11,
        }
        .arrivals(8000);
        let s = scv(&degenerate);
        assert!(
            (0.85..1.15).contains(&s),
            "equal-rate MMPP-2 should look memoryless, got SCV {s:.3}"
        );
        let mean = {
            let gaps: Vec<f64> = degenerate
                .windows(2)
                .map(|w| (w[1] - w[0]) as f64)
                .collect();
            gaps.iter().sum::<f64>() / gaps.len() as f64
        };
        assert!((mean - 800.0).abs() < 50.0, "empirical mean gap {mean:.1}");
    }

    #[test]
    #[should_panic(expected = "gap must be positive")]
    fn zero_mean_gap_is_rejected() {
        let _ = ArrivalProcess::Poisson {
            mean_gap: 0.0,
            seed: 1,
        }
        .arrivals(1);
    }

    #[test]
    fn mixed_arch_specs_cover_every_family_once() {
        let specs = mixed_arch_specs(3);
        assert_eq!(specs.len(), 5);
        let families: std::collections::HashSet<&str> =
            specs.iter().map(|s| s.arch.family()).collect();
        assert_eq!(families.len(), 5);
        assert!(specs.iter().all(|s| s.address_width() == 3));
    }

    #[test]
    fn zipfian_spec_mix_concentrates_on_the_head() {
        let w = Workload::Uniform {
            address_width: 3,
            seed: 1,
        };
        let specs = [
            QuerySpec::new(0, 3),
            QuerySpec::new(1, 2),
            QuerySpec::new(2, 1),
            QuerySpec::new(3, 0),
        ];
        let mix = SpecMix::Zipfian {
            theta: 1.2,
            seed: 77,
        };
        let assigned = assign_specs_with(&w, &specs, mix, 4000);
        let mut hist = [0usize; 4];
        for (_, spec) in &assigned {
            hist[specs.iter().position(|s| s == spec).unwrap()] += 1;
        }
        // Rank 0 dominates; the tail spec is rarely chosen (θ = 1.2
        // over 4 ranks puts ~4.7x more mass on rank 0 than rank 3).
        assert!(hist[0] > 2 * hist[1], "{hist:?}");
        assert!(hist[0] > 4 * hist[3], "{hist:?}");
        // Every spec still appears (the LRU sees real churn).
        assert!(hist.iter().all(|&c| c > 0), "{hist:?}");
        // Reproducible.
        assert_eq!(assigned, assign_specs_with(&w, &specs, mix, 4000));
    }
}
