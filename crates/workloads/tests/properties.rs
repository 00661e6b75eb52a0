//! Property-based tests of the synthetic kernel generator and the trace
//! recorder/replayer.

use gpu_sim::{Instr, KernelSource};
use proptest::prelude::*;
use workloads::{record_kernel, AccessMix, KernelSpec, Phase, TraceData, TraceRef};

fn mix_strategy() -> impl Strategy<Value = AccessMix> {
    (
        0usize..16,                             // alu_per_load
        1usize..4,                              // mlp
        0usize..8,                              // ind_gap
        (1usize..64, 1usize..4, 0.0f64..=0.95), // hot lines/repeat/frac
        1usize..2_000,                          // cold lines
        (1usize..128, 0.0f64..=0.5),            // shared lines/frac
        0.0f64..=0.3,                           // stream frac
        0.0f64..=0.3,                           // store frac
    )
        .prop_map(|(alu, mlp, gap, (hl, hr, hf), cl, (sl, sf), stf, stof)| {
            let mut stream = stf;
            if sf + stream > 0.95 {
                stream = 0.95 - sf;
            }
            AccessMix {
                alu_per_load: alu,
                mlp,
                ind_gap: gap,
                hot_lines: hl,
                hot_repeat: hr,
                hot_frac: hf,
                cold_lines: cl,
                shared_lines: sl,
                shared_frac: sf,
                stream_frac: stream,
                store_frac: stof,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Streams are deterministic: the same (spec, position) yields the
    /// same instructions.
    #[test]
    fn generator_is_deterministic(mix in mix_strategy(), seed in 0u64..1_000) {
        let spec = KernelSpec::steady("p", mix, seed);
        let take = |spec: &KernelSpec| -> Vec<Instr> {
            let mut s = spec.stream_for(1, 0, 3);
            (0..300).filter_map(|_| s.next_instr()).collect()
        };
        prop_assert_eq!(take(&spec), take(&spec));
    }

    /// The emitted load density tracks the requested instruction mix: a
    /// full pattern period contains exactly `mlp` memory ops.
    #[test]
    fn load_density_matches_mix(mix in mix_strategy(), seed in 0u64..1_000) {
        let spec = KernelSpec::steady("p", mix, seed);
        let mut s = spec.stream_for(0, 0, 0);
        let period = mix.alu_per_load + mix.mlp + mix.ind_gap;
        let periods = 40usize;
        let mut mem = 0usize;
        let mut counted = 0usize;
        // Count issued (non-sync) instructions.
        while counted < period * periods {
            match s.next_instr() {
                Some(Instr::Load { .. }) | Some(Instr::Store { .. }) => {
                    mem += 1;
                    counted += 1;
                }
                Some(Instr::Alu) => counted += 1,
                Some(Instr::SyncLoads) => {}
                None => break,
            }
        }
        prop_assert_eq!(mem, mix.mlp * periods);
    }

    /// Distinct warps never share private (hot/stream) addresses.
    #[test]
    fn private_addresses_are_disjoint(mix in mix_strategy(), seed in 0u64..1_000) {
        let spec = KernelSpec::steady("p", mix, seed);
        let collect = |sm: usize, w: usize| {
            let mut s = spec.stream_for(sm, 0, w);
            let mut v = std::collections::HashSet::new();
            for _ in 0..500 {
                if let Some(Instr::Load { line, pc }) | Some(Instr::Store { line, pc }) =
                    s.next_instr()
                {
                    // Only private classes (hot = 2, cold = 3 is per-SM,
                    // stream = 1 private).
                    if pc == workloads::spec::pcs::HOT || pc == workloads::spec::pcs::STREAM {
                        v.insert(line);
                    }
                }
            }
            v
        };
        let a = collect(0, 0);
        let b = collect(0, 1);
        prop_assert!(a.is_disjoint(&b));
    }

    /// Bounded traces end; unbounded traces do not (within a horizon).
    #[test]
    fn trace_len_semantics(mix in mix_strategy(), len in 10u64..200) {
        let bounded = KernelSpec::steady("p", mix, 1).with_trace_len(len);
        let mut s = bounded.stream_for(0, 0, 0);
        let mut n = 0u64;
        while s.next_instr().is_some() {
            n += 1;
            prop_assert!(n <= len + len / 2 + 8, "stream must end near len");
        }
        let unbounded = KernelSpec::steady("p", mix, 1);
        let mut u = unbounded.stream_for(0, 0, 0);
        for _ in 0..500 {
            prop_assert!(u.next_instr().is_some());
        }
    }

    /// Jittered family members keep fractions valid (the suites rely on
    /// this for arbitrary benchmark seeds).
    #[test]
    fn suite_families_have_valid_fractions(idx in 0usize..118) {
        for bench in workloads::evaluation_suite() {
            if let Some(k) = bench.kernels.get(idx) {
                let m = k.synthetic().expect("suites are synthetic").base_mix();
                prop_assert!((0.0..=1.0).contains(&m.hot_frac));
                prop_assert!(m.shared_frac + m.stream_frac <= 0.96);
                prop_assert!(m.store_frac <= 1.0);
                prop_assert!((1..=24).contains(&KernelSource::warps_per_scheduler(k)));
            }
        }
    }

    /// Trace encode → decode is the identity on recorded trace data, for
    /// arbitrary generator mixes and recording geometries.
    #[test]
    fn trace_text_round_trips(
        mix in mix_strategy(),
        seed in 0u64..1_000,
        sms in 1usize..3,
        scheds in 1usize..3,
        warps in 1usize..5,
        cap in 1usize..300,
    ) {
        let spec = KernelSpec::steady("rt", mix, seed).with_warps(warps);
        let data = record_kernel(&spec, "rt", sms, scheds, cap);
        let back = TraceData::from_text(&data.to_text()).expect("decode");
        prop_assert_eq!(&data, &back);
        // And the digest is a function of the content alone.
        let a = TraceRef::from_data(data.clone());
        let b = TraceRef::from_data(back);
        prop_assert_eq!(a.digest, b.digest);
    }

    /// Replaying a recorded trace reproduces the live generator's stream
    /// exactly, instruction by instruction, for every recorded warp — and
    /// ends exactly at the recording horizon.
    #[test]
    fn recorder_replayer_streams_are_bit_identical(
        mix in mix_strategy(),
        seed in 0u64..1_000,
        cap in 1usize..400,
    ) {
        let spec = KernelSpec::steady("rr", mix, seed).with_warps(2);
        let tref = TraceRef::from_data(record_kernel(&spec, "rr", 1, 2, cap));
        for (sched, warp) in [(0usize, 0usize), (0, 1), (1, 0), (1, 1)] {
            let mut live = spec.stream_for(0, sched, warp);
            let mut replay = tref.stream_for(0, sched, warp);
            // The recorder pulled exactly `cap` Instrs (the generator is
            // unbounded), so replay matches for `cap` and then ends.
            for i in 0..cap {
                prop_assert_eq!(
                    replay.next_instr(),
                    live.next_instr(),
                    "diverged at warp ({}, {}) instr {}", sched, warp, i
                );
            }
            prop_assert_eq!(replay.next_instr(), None);
        }
    }

    /// Corrupting any single line of an encoded trace never yields a
    /// *different valid* trace: decoding either fails or (for the rare
    /// benign edits, e.g. within-run ALU splits) preserves the replayed
    /// instruction stream... in practice deletion must simply never
    /// round-trip to the original.
    #[test]
    fn dropping_a_line_is_detected(mix in mix_strategy(), seed in 0u64..100, victim in 1usize..40) {
        let spec = KernelSpec::steady("c", mix, seed).with_warps(2);
        let data = record_kernel(&spec, "c", 1, 1, 60);
        let text = data.to_text();
        let lines: Vec<&str> = text.lines().collect();
        prop_assume!(victim < lines.len());
        let mutated: String = lines
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != victim)
            .map(|(_, l)| format!("{l}\n"))
            .collect();
        match TraceData::from_text(&mutated) {
            Err(_) => {}
            Ok(decoded) => {
                prop_assert!(decoded != data, "a dropped line must not decode to the original")
            }
        }
    }
}

/// The `alu_run` / `skip_alu` contract on one warp's stream: after
/// `warmup` pulls, take two copies of the same stream, `skip_alu(k)` on
/// one for a `k <= alu_run()` picked by `pick` (out of 4: none, a
/// quarter, ..., the whole run) and pull `k` from the other. The pulled
/// instructions must all be ALU and the copies must then agree on the
/// next 1000 instructions.
fn skip_matches_pull(source: &dyn KernelSource, warmup: usize, pick: u64) {
    let mut skipped = source.stream_for(0, 0, 0);
    let mut pulled = source.stream_for(0, 0, 0);
    for _ in 0..warmup {
        skipped.next_instr();
        pulled.next_instr();
    }
    let run = skipped.alu_run();
    let k = run * pick / 4;
    skipped.skip_alu(k);
    for i in 0..k {
        prop_assert_eq!(pulled.next_instr(), Some(Instr::Alu), "pull {} of {}", i, k);
    }
    for i in 0..1000 {
        prop_assert_eq!(
            skipped.next_instr(),
            pulled.next_instr(),
            "instr {} after",
            i
        );
    }
}

/// A phased kernel whose first phase (compute mix, 80-ALU blocks) ends
/// after 50 instructions, inside its first ALU block.
fn phased_mid_run() -> KernelSpec {
    let phases = vec![
        Phase {
            mix: AccessMix::compute_intensive(),
            instructions: 50,
        },
        Phase {
            mix: AccessMix::memory_sensitive(),
            instructions: 30,
        },
    ];
    KernelSpec::phased("phased", phases, 4)
}

#[test]
fn alu_run_stops_at_phase_and_trace_ends() {
    // The first ALU block is 80 long: the phase end (50) and the trace
    // end (30) each cut the reported run short.
    let alu_block = AccessMix::compute_intensive().alu_per_load as u64;
    let steady = KernelSpec::steady("c", AccessMix::compute_intensive(), 1);
    assert_eq!(steady.stream_for(0, 0, 0).alu_run(), alu_block);
    assert_eq!(phased_mid_run().stream_for(0, 0, 0).alu_run(), 50);
    let bounded = steady.clone().with_trace_len(30);
    assert_eq!(bounded.stream_for(0, 0, 0).alu_run(), 30);
    // The recorded trace reads the same run from its RLE ops.
    let tref = TraceRef::from_data(record_kernel(&steady, "c", 1, 1, 400));
    assert_eq!(tref.stream_for(0, 0, 0).alu_run(), alu_block);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Steady memory-side mixes (arbitrary generator mixes) and the
    /// compute mix.
    #[test]
    fn skip_alu_matches_pulling_on_steady_mixes(
        mix in mix_strategy(),
        seed in 0u64..1_000,
        warmup in 0usize..600,
        pick in 0u64..=4,
    ) {
        skip_matches_pull(&KernelSpec::steady("m", mix, seed), warmup, pick);
        let compute = KernelSpec::steady("c", AccessMix::compute_intensive(), seed);
        skip_matches_pull(&compute, warmup, pick);
    }

    /// Phase boundaries inside an ALU run.
    #[test]
    fn skip_alu_matches_pulling_across_phases(warmup in 0usize..600, pick in 0u64..=4) {
        skip_matches_pull(&phased_mid_run(), warmup, pick);
    }

    /// A `with_trace_len` end inside an ALU run: the run stops at the end
    /// and the stream then ends in both copies.
    #[test]
    fn skip_alu_matches_pulling_up_to_trace_end(
        len in 1u64..200,
        warmup in 0usize..220,
        pick in 0u64..=4,
    ) {
        let spec = KernelSpec::steady("t", AccessMix::compute_intensive(), 2).with_trace_len(len);
        skip_matches_pull(&spec, warmup, pick);
    }

    /// A trace replay reads its runs from the recorded `AluRun` ops.
    #[test]
    fn skip_alu_matches_pulling_on_trace_replay(
        mix in mix_strategy(),
        seed in 0u64..100,
        warmup in 0usize..600,
        pick in 0u64..=4,
    ) {
        for spec in [
            KernelSpec::steady("m", mix, seed),
            KernelSpec::steady("c", AccessMix::compute_intensive(), seed),
        ] {
            let tref = TraceRef::from_data(record_kernel(&spec, "r", 1, 1, 2_000));
            skip_matches_pull(&tref, warmup, pick);
        }
    }
}
