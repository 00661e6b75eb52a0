//! Property-based tests of the simulator's core data structures and of
//! the event-driven fast-forward run loop.

use gpu_sim::{
    CacheGeometry, Counters, FixedTuple, Gpu, GpuConfig, GpuStats, SetAssocCache, SetIndexing,
    StepMode, UniformKernel, WarpTuple,
};
use proptest::prelude::*;

fn geometry() -> impl Strategy<Value = CacheGeometry> {
    (
        1usize..=64,
        1usize..=8,
        prop_oneof![Just(SetIndexing::Linear), Just(SetIndexing::Hashed)],
    )
        .prop_map(|(sets, ways, indexing)| CacheGeometry {
            sets,
            ways,
            line_bytes: 128,
            indexing,
        })
}

proptest! {
    /// Whatever the access mix, occupancy never exceeds capacity and the
    /// set index stays in range.
    #[test]
    fn cache_occupancy_bounded(
        geo in geometry(),
        lines in proptest::collection::vec(0u64..10_000, 1..400),
    ) {
        let mut c = SetAssocCache::new(geo);
        for &l in &lines {
            prop_assert!(geo.set_of(l) < geo.sets);
            c.insert(l);
        }
        prop_assert!(c.valid_lines() <= geo.lines());
    }

    /// After inserting a line it is observable until evicted; hitting a
    /// line refreshes it so repeated access to a small set always hits.
    #[test]
    fn lru_protects_recently_used(
        geo in geometry(),
        hot in proptest::collection::vec(0u64..50, 1..8),
        noise in proptest::collection::vec(50u64..10_000, 0..200),
    ) {
        // Only meaningful when the hot set plus one noise line fit in a
        // set: with strictly fewer hot lines than ways, re-touching every
        // hot line keeps them all above any single noise line in LRU
        // order, whatever the interleaving.
        prop_assume!(hot.len() < geo.ways);
        let mut c = SetAssocCache::new(geo);
        let mut noise_it = noise.iter();
        for _ in 0..24 {
            for &h in &hot {
                c.insert(h);
                c.access(h);
            }
            if let Some(&n) = noise_it.next() {
                c.insert(n);
            }
            // After the noise insert, every hot line must have survived.
            for &h in &hot {
                prop_assert!(
                    matches!(c.probe(h), gpu_sim::cache::Lookup::Hit { .. }),
                    "hot line {h} evicted"
                );
            }
        }
    }

    /// Tuple construction always yields a valid domain point, and the
    /// distance metric is symmetric and zero iff equal.
    #[test]
    fn warp_tuple_domain_and_distance(
        n in 0usize..100,
        p in 0usize..100,
        m in 1usize..32,
    ) {
        let t = WarpTuple::new(n, p, m);
        prop_assert!(t.n >= 1 && t.n <= m);
        prop_assert!(t.p >= 1 && t.p <= t.n);
        let u = WarpTuple::new(p, n, m);
        prop_assert!((t.distance(&u) - u.distance(&t)).abs() < 1e-12);
        prop_assert_eq!(t.distance(&t), 0.0);
    }

    /// Counter deltas are consistent: delta(a+d, a) == d fieldwise for the
    /// fields exercised here.
    #[test]
    fn counter_delta_roundtrip(
        cycles in 0u64..1_000_000,
        instr in 0u64..1_000_000,
        hits in 0u64..1_000_000,
    ) {
        let a = Counters {
            cycles,
            instructions: instr,
            l1_hits: hits,
            ..Counters::default()
        };
        let mut b = a;
        b.cycles += 17;
        b.instructions += 4;
        b.l1_hits += 2;
        let d = b.delta_since(&a);
        prop_assert_eq!(d.cycles, 17);
        prop_assert_eq!(d.instructions, 4);
        prop_assert_eq!(d.l1_hits, 2);
    }

    /// Window resets never disturb totals.
    #[test]
    fn window_reset_preserves_totals(increments in proptest::collection::vec(1u64..100, 1..50)) {
        let mut s = GpuStats::new();
        let mut expect = 0;
        for (i, inc) in increments.iter().enumerate() {
            s.bump(|c| c.instructions += *inc);
            expect += *inc;
            if i % 3 == 0 {
                s.reset_window();
            }
        }
        prop_assert_eq!(s.total.instructions, expect);
        prop_assert!(s.window.instructions <= expect);
    }

    /// Hit rates derived from counters always land in [0, 1].
    #[test]
    fn rates_are_fractions(
        acc in 0u64..10_000,
        hits_frac in 0.0f64..=1.0,
    ) {
        let c = Counters {
            l1_accesses: acc,
            l1_hits: (acc as f64 * hits_frac) as u64,
            ..Counters::default()
        };
        let r = c.l1_hit_rate();
        prop_assert!((0.0..=1.0).contains(&r));
    }

    /// Every fast run loop (per-SM decoupled clocks — single-threaded and
    /// on the work-stealing pool at any thread count — and the global
    /// event-driven skip) is bit-identical to the cycle-stepped reference
    /// for arbitrary kernels, tuples, SM counts and budgets — including
    /// mid-run `run()` re-entry, which is how the profiler drives the GPU
    /// (warmup run, window reset, measurement run). Identical counters
    /// mean AML (which encodes event delivery times), IPC and stall
    /// accounting all agree exactly — so no skipped span ever crossed a
    /// scheduled event, no per-SM advance outran the shared memory
    /// system, and none ran past a budget end.
    #[test]
    fn fast_modes_match_reference(
        warps in 1usize..12,
        alu in 0usize..8,
        n in 1usize..24,
        p in 1usize..24,
        sms in 1usize..5,
        budget in 500u64..12_000,
        split_num in 0u64..=4,
        resident in prop_oneof![Just(false), Just(true)],
        threads in prop_oneof![Just(1usize), Just(2), Just(3), Just(8)],
    ) {
        let kernel = if resident {
            UniformKernel::resident(warps, alu)
        } else {
            UniformKernel::streaming(warps, alu)
        };
        // Split the budget into two back-to-back `run()` calls at an
        // arbitrary point (0% / 25% / 50% / 75% / 100%).
        let first = budget * split_num / 4;
        let run = |mode: StepMode, sim_threads: usize| {
            let mut cfg = GpuConfig::scaled(sms);
            cfg.step_mode = mode;
            cfg.sim_threads = sim_threads;
            let mut gpu = Gpu::new(cfg, &kernel);
            let mut ctrl = FixedTuple::new(WarpTuple::new(n, p, 24));
            let mid = gpu.run(&mut ctrl, first);
            let res = gpu.run(&mut ctrl, budget - first);
            (mid.counters, mid.completed, res.counters, res.completed, gpu.cycle())
        };
        let rf = run(StepMode::Reference, 1);
        prop_assert_eq!(run(StepMode::PerSm, 1), rf.clone());
        prop_assert_eq!(run(StepMode::ParallelSm, threads), rf.clone());
        prop_assert_eq!(run(StepMode::EventDriven, 1), rf);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// MSHR reject storms (occupancy beyond the MSHR file, so ready warps
    /// retry structurally rejected loads every cycle) are the regime the
    /// known-reject replay targets; the bulk-accounted reject and
    /// stall counters must stay bit-identical to stepping each retry.
    /// Cases are few and budgets short because the reference loop really
    /// does step every storm cycle.
    #[test]
    fn reject_storms_match_reference(
        // 17+ warps/scheduler want 34+ outstanding loads: strictly more
        // than the 32 MSHRs, so the storm is guaranteed.
        warps in 17usize..=24,
        alu in 0usize..3,
        sms in 1usize..3,
        budget in 500u64..4_000,
    ) {
        let kernel = UniformKernel::streaming(warps, alu);
        let run = |mode: StepMode| {
            let mut cfg = GpuConfig::scaled(sms);
            cfg.step_mode = mode;
            if mode == StepMode::ParallelSm {
                cfg.sim_threads = 2;
            }
            let mut gpu = Gpu::new(cfg, &kernel);
            let mut ctrl = FixedTuple::new(WarpTuple::new(warps, warps, 24));
            let res = gpu.run(&mut ctrl, budget);
            (res.counters, gpu.cycle())
        };
        let rf = run(StepMode::Reference);
        prop_assert!(rf.0.l1_rejects > 0, "occupancy beyond the MSHRs must reject");
        prop_assert_eq!(run(StepMode::PerSm), rf.clone());
        prop_assert_eq!(run(StepMode::ParallelSm), rf.clone());
        prop_assert_eq!(run(StepMode::EventDriven), rf);
    }
}
