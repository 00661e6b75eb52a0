//! Deterministic fault injection for the experiment engine.
//!
//! A [`FaultPlan`] turns the failure modes the engine and its cache must
//! survive — crashing jobs, writers dying mid-store, silent media
//! corruption — into *injectable, reproducible* events. Every decision
//! is a pure function of the plan seed, the injection site, a stable
//! identity (the job's spec hash or the cache entry's key) and an
//! occurrence index; no wall clock, no process entropy. Two invocations
//! of `run_all --inject seed=S,rate=P` over the same job graph and the
//! same sources (a store fault's key carries the code digest) therefore
//! inject the *same* faults, which is what makes the differential
//! robustness oracle (surviving outputs bit-identical to a fault-free
//! run) a meaningful test rather than a flaky one.
//!
//! ## Sites and kinds
//!
//! Execution faults ([`FaultKind::Panic`]) fire in `Engine::run` around
//! a job's one execution, keyed by the job's spec hash at occurrence 0.
//! An injected panic is terminal, like a real one.
//! Store faults fire in `Cache::store` ([`FaultKind::TornWrite`],
//! [`FaultKind::BitFlip`]), keyed by the entry key and an occurrence
//! index that counts both prior in-process stores *and* quarantined
//! casualties of earlier runs — so a key that tore on the first run is
//! re-rolled (not deterministically re-torn) after self-healing
//! quarantines the wreck, and kill/restart cycles converge to a clean
//! store.
//!
//! The decision hash is the engine's canonical SHA-256 (see
//! [`crate::cache`]): the first 8 bytes of
//! `sha256(seed \n site \n identity \n occurrence)` map to `[0, 1)` and
//! fire when below `rate`; the next 8 bytes pick uniformly among the
//! plan's enabled kinds for that site.

use crate::cache::Sha256;

/// One injectable failure mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// The job panics mid-execution (a crashed worker). Terminal, like
    /// every job failure.
    Panic,
    /// The cache entry is truncated mid-write (a writer killed between
    /// `write` and `rename` on a filesystem without atomic semantics).
    TornWrite,
    /// One bit of the stored entry body flips (silent media corruption);
    /// only the body checksum can catch it.
    BitFlip,
}

/// All kinds, in documentation order.
pub const ALL_KINDS: [FaultKind; 3] = [FaultKind::Panic, FaultKind::TornWrite, FaultKind::BitFlip];

impl FaultKind {
    /// Stable CLI name (the `kinds=` grammar).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::TornWrite => "torn",
            FaultKind::BitFlip => "bitflip",
        }
    }

    /// Look a kind up by CLI name.
    pub fn from_name(name: &str) -> Option<FaultKind> {
        ALL_KINDS.iter().copied().find(|k| k.name() == name)
    }

    /// Does this kind fire at the execution site (`Engine::run`)?
    pub fn is_exec(self) -> bool {
        matches!(self, FaultKind::Panic)
    }

    /// Does this kind fire at the store site (`Cache::store`)?
    pub fn is_store(self) -> bool {
        matches!(self, FaultKind::TornWrite | FaultKind::BitFlip)
    }
}

/// A deterministic, seeded fault-injection plan. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed mixed into every decision hash.
    pub seed: u64,
    /// Per-site firing probability in `[0, 1]`.
    pub rate: f64,
    /// Enabled kinds (sorted, deduplicated). Defaults to all.
    pub kinds: Vec<FaultKind>,
}

impl FaultPlan {
    /// A plan enabling every kind.
    pub fn new(seed: u64, rate: f64) -> Self {
        FaultPlan {
            seed,
            rate,
            kinds: ALL_KINDS.to_vec(),
        }
    }

    /// Restrict the plan to `kinds`.
    pub fn with_kinds(mut self, kinds: &[FaultKind]) -> Self {
        self.kinds = kinds.to_vec();
        self.kinds.sort();
        self.kinds.dedup();
        self
    }

    /// Parse the `--inject` grammar: comma-separated `seed=S`, `rate=P`
    /// and optional `kinds=a+b+c` (kind names joined by `+`). `seed` and
    /// `rate` are required; `kinds` defaults to all three.
    pub fn parse(s: &str) -> Result<FaultPlan, String> {
        let mut seed: Option<u64> = None;
        let mut rate: Option<f64> = None;
        let mut kinds: Option<Vec<FaultKind>> = None;
        for part in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (k, v) = part
                .split_once('=')
                .ok_or_else(|| format!("--inject: expected key=value, got `{part}`"))?;
            match k.trim() {
                "seed" => {
                    seed = Some(
                        v.trim()
                            .parse()
                            .map_err(|_| format!("--inject: seed must be an integer, got `{v}`"))?,
                    )
                }
                "rate" => {
                    let r: f64 = v
                        .trim()
                        .parse()
                        .map_err(|_| format!("--inject: rate must be a number, got `{v}`"))?;
                    if !(0.0..=1.0).contains(&r) {
                        return Err(format!("--inject: rate must be in [0, 1], got {r}"));
                    }
                    rate = Some(r);
                }
                "kinds" => {
                    let parsed: Result<Vec<FaultKind>, String> = v
                        .split('+')
                        .map(str::trim)
                        .filter(|t| !t.is_empty())
                        .map(|t| {
                            FaultKind::from_name(t).ok_or_else(|| {
                                format!(
                                    "--inject: unknown fault kind `{t}` (expected one of {})",
                                    ALL_KINDS
                                        .iter()
                                        .map(|k| k.name())
                                        .collect::<Vec<_>>()
                                        .join(", ")
                                )
                            })
                        })
                        .collect();
                    let parsed = parsed?;
                    if parsed.is_empty() {
                        return Err("--inject: kinds= must list at least one kind".to_string());
                    }
                    kinds = Some(parsed);
                }
                other => {
                    return Err(format!(
                        "--inject: unknown key `{other}` (expected seed, rate, kinds)"
                    ))
                }
            }
        }
        let seed = seed.ok_or("--inject: missing seed=")?;
        let rate = rate.ok_or("--inject: missing rate=")?;
        let plan = FaultPlan::new(seed, rate);
        Ok(match kinds {
            Some(k) => plan.with_kinds(&k),
            None => plan,
        })
    }

    /// Render back to the `--inject` grammar (for reports and logs).
    pub fn summary(&self) -> String {
        let kinds = if self.kinds.as_slice() == ALL_KINDS {
            String::new()
        } else {
            format!(
                ",kinds={}",
                self.kinds
                    .iter()
                    .map(|k| k.name())
                    .collect::<Vec<_>>()
                    .join("+")
            )
        };
        format!("seed={},rate={}{kinds}", self.seed, self.rate)
    }

    /// The two independent 64-bit lanes of one decision hash.
    fn lanes(&self, site: &str, identity: &str, occurrence: u64) -> (u64, u64) {
        let mut h = Sha256::new();
        h.update(self.seed.to_string().as_bytes());
        h.update(b"\n");
        h.update(site.as_bytes());
        h.update(b"\n");
        h.update(identity.as_bytes());
        h.update(b"\n");
        h.update(occurrence.to_string().as_bytes());
        let d = h.finish_hex();
        let word =
            |o: usize| u64::from_str_radix(&d[o..o + 16], 16).expect("hex digest is valid hex");
        (word(0), word(16))
    }

    /// Roll one decision among `pool`: `None` (no fault) with
    /// probability `1 − rate`, else a uniform pick from the pool.
    fn roll(
        &self,
        site: &str,
        identity: &str,
        occurrence: u64,
        pool: &[FaultKind],
    ) -> Option<FaultKind> {
        if pool.is_empty() || self.rate <= 0.0 {
            return None;
        }
        let (fire, pick) = self.lanes(site, identity, occurrence);
        // Map the top 53 bits to [0, 1) exactly (f64 mantissa width).
        let u = (fire >> 11) as f64 / (1u64 << 53) as f64;
        (u < self.rate).then(|| pool[(pick % pool.len() as u64) as usize])
    }

    /// The fault (if any) injected into the execution of the job with
    /// spec hash `spec_hash`.
    pub fn exec_fault(&self, spec_hash: &str) -> Option<FaultKind> {
        let pool: Vec<FaultKind> = self.kinds.iter().copied().filter(|k| k.is_exec()).collect();
        self.roll("exec", spec_hash, 0, &pool)
    }

    /// The fault (if any) injected into the `occurrence`-th store of the
    /// cache entry `key` (see the module docs for how occurrences count
    /// across self-healing cycles).
    pub fn store_fault(&self, key: &str, occurrence: u64) -> Option<FaultKind> {
        let pool: Vec<FaultKind> = self
            .kinds
            .iter()
            .copied()
            .filter(|k| k.is_store())
            .collect();
        self.roll("store", key, occurrence, &pool)
    }

    /// A deterministic corruption offset for [`FaultKind::BitFlip`] /
    /// truncation point for [`FaultKind::TornWrite`], in `[0, len)`.
    pub fn corrupt_offset(&self, key: &str, occurrence: u64, len: usize) -> usize {
        if len == 0 {
            return 0;
        }
        let (_, pick) = self.lanes("offset", key, occurrence);
        (pick % len as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_grammar_round_trips() {
        let p = FaultPlan::parse("seed=42,rate=0.15").unwrap();
        assert_eq!(p.seed, 42);
        assert_eq!(p.rate, 0.15);
        assert_eq!(p.kinds, ALL_KINDS.to_vec());
        assert_eq!(p.summary(), "seed=42,rate=0.15");

        let p = FaultPlan::parse("seed=7, rate=0.5, kinds=panic+torn").unwrap();
        assert_eq!(p.kinds, vec![FaultKind::Panic, FaultKind::TornWrite]);
        assert_eq!(p.summary(), "seed=7,rate=0.5,kinds=panic+torn");

        assert!(FaultPlan::parse("rate=0.5").is_err(), "seed required");
        assert!(FaultPlan::parse("seed=1").is_err(), "rate required");
        assert!(FaultPlan::parse("seed=1,rate=1.5").is_err(), "rate range");
        assert!(FaultPlan::parse("seed=1,rate=0.1,kinds=bogus").is_err());
        assert!(FaultPlan::parse("seed=1,rate=0.1,frob=2").is_err());
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::new(1, 0.5);
        let b = FaultPlan::new(1, 0.5);
        let c = FaultPlan::new(2, 0.5);
        let specs: Vec<String> = (0..64).map(|i| format!("spec-{i}")).collect();
        let roll = |p: &FaultPlan| -> Vec<Option<FaultKind>> {
            specs.iter().map(|s| p.exec_fault(s)).collect()
        };
        assert_eq!(roll(&a), roll(&b), "same seed, same decisions");
        assert_ne!(roll(&a), roll(&c), "different seed, different decisions");
    }

    #[test]
    fn rate_bounds_and_kind_filtering() {
        let never = FaultPlan::new(9, 0.0);
        let always = FaultPlan::new(9, 1.0);
        for i in 0..32 {
            let s = format!("s{i}");
            assert_eq!(never.exec_fault(&s), None);
            assert_eq!(never.store_fault(&s, 0), None);
            assert!(always.exec_fault(&s).is_some_and(|k| k.is_exec()));
            assert!(always.store_fault(&s, 0).is_some_and(|k| k.is_store()));
        }
        // A store-only plan never injects execution faults and vice versa.
        let store_only = FaultPlan::new(9, 1.0).with_kinds(&[FaultKind::TornWrite]);
        let exec_only = FaultPlan::new(9, 1.0).with_kinds(&[FaultKind::Panic]);
        assert_eq!(store_only.exec_fault("x"), None);
        assert_eq!(store_only.store_fault("x", 0), Some(FaultKind::TornWrite));
        assert_eq!(exec_only.exec_fault("x"), Some(FaultKind::Panic));
        assert_eq!(exec_only.store_fault("x", 0), None);
    }

    #[test]
    fn empirical_rate_tracks_requested_rate() {
        let p = FaultPlan::new(3, 0.2);
        let n = 4000;
        let fired = (0..n)
            .filter(|i| p.exec_fault(&format!("job-{i}")).is_some())
            .count();
        let observed = fired as f64 / n as f64;
        assert!(
            (observed - 0.2).abs() < 0.03,
            "observed rate {observed} far from 0.2"
        );
    }

    #[test]
    fn store_occurrences_reroll_independently() {
        // With rate 0.5 some (key, 0) store decisions fire and their
        // (key, 1) re-roll does not — the property self-heal convergence
        // rests on.
        let p = FaultPlan::new(5, 0.5);
        let heals = (0..64).any(|i| {
            let k = format!("key-{i}");
            p.store_fault(&k, 0).is_some() && p.store_fault(&k, 1).is_none()
        });
        assert!(heals, "no occurrence-1 recovery in 64 keys at rate 0.5");
    }
}
