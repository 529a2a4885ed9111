//! Cost profiles: joules, cycles and EDP on top of the exact model
//! counters.
//!
//! The paper's cost triple (energy = Manhattan hops, depth, distance) is one
//! instantiation of the spatial-computer accounting model. Real accelerator
//! evaluations weight *per-hop* transport, *per-PE native ops* and
//! *per-word-resident occupancy* with hardware constants (picojoules per
//! native op) and rank designs by **energy-delay product**. A
//! [`CostProfile`] is a name and five integer [`ProfileWeights`] that map
//! the machine's exact counters onto such a hardware costing; the machine
//! itself only meters raw hops and never holds a profile.
//!
//! Two invariants make profiles safe to use everywhere:
//!
//! 1. **Profiles are pure accounting.** A [`ProfiledCost`] is computed from
//!    a finished [`Cost`] by [`CostProfile::charge`] — callers write
//!    `p.charge(m.report())`. A profile never reaches a [`crate::Machine`],
//!    so it cannot affect [`crate::Machine::is_bare`], the closed-form level
//!    kernels or the shard engine's fixed-order merge. The hot path never
//!    sees a weight.
//! 2. **Energy components are linear in the summed counters.** The pJ
//!    components are integer-weighted sums of `energy` and `messages`, so
//!    a level kernel's closed-form charge equals the sum of per-item charges,
//!    and the bare, instrumented and sharded execution paths — which already
//!    agree on the raw counters bit-for-bit — agree on every profiled total
//!    automatically. (The *delay* side is built from the `depth`/`distance`
//!    watermarks, which are maxima, not sums.)
//!
//! All weight arithmetic runs in `u128` intermediates; any product or sum
//! that would not fit is reported as a typed
//! [`ProfileError::Saturated`] instead of wrapping or silently clamping.
//!
//! ## The built-in profiles
//!
//! | name            | pJ/hop | pJ/op | pJ/word-hop | cycles/hop | cycles/op |
//! |-----------------|-------:|------:|------------:|-----------:|----------:|
//! | `model-exact`   |      1 |     0 |           0 |          1 |         0 |
//! | `wse-like`      |      1 |     2 |           1 |          1 |         1 |
//! | `systolic-like` |      2 |     1 |           3 |          1 |         1 |
//! | `simt-like`     |      6 |     4 |           2 |          2 |         1 |
//!
//! [`MODEL_EXACT`] reproduces the paper's metrics exactly: total pJ equals
//! the raw `energy` (hops) and delay equals the raw `distance` (critical-path
//! wire latency) — and every [`ProfiledCost`] carries the raw [`Cost`]
//! verbatim, so nothing is lost by charging through a profile. The three
//! hardware-style profiles are stylized integer constants in the spirit of
//! published pJ/op tables: a wafer-scale fabric with cheap on-wafer hops, a
//! systolic array with cheap MACs but expensive word residency, and a
//! SIMT machine paying a memory-hierarchy premium on every hop.

use std::fmt;

use crate::cost::Cost;

/// Integer weights mapping the exact counters onto a hardware costing.
///
/// Energy side (picojoules): `pj_per_hop` multiplies the raw `energy`
/// counter (total Manhattan hops), `pj_per_op` multiplies `messages` (each
/// message is one native PE op: a send plus the local fold it feeds), and
/// `pj_per_word_hop` multiplies `energy + messages` — the number of
/// word-steps a datum is resident somewhere (its source PE for the
/// injection step, then one link buffer per hop).
///
/// Delay side (cycles): `cycles_per_hop` multiplies the `distance`
/// watermark (critical-path wire length) and `cycles_per_op` multiplies the
/// `depth` watermark (longest dependent-message chain).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProfileWeights {
    /// Picojoules per Manhattan hop (weights raw `energy`).
    pub pj_per_hop: u64,
    /// Picojoules per native PE op (weights raw `messages`).
    pub pj_per_op: u64,
    /// Picojoules per word-resident step (weights `energy + messages`).
    pub pj_per_word_hop: u64,
    /// Cycles per critical-path hop (weights raw `distance`).
    pub cycles_per_hop: u64,
    /// Cycles per critical-path dependent op (weights raw `depth`).
    pub cycles_per_op: u64,
}

/// A [`Cost`] charged through a [`CostProfile`]: the pJ decomposition, the
/// cycle delay, their energy-delay product, and the untouched raw counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProfiledCost {
    /// Name of the profile that produced this charge.
    pub profile: &'static str,
    /// The exact model counters the charge was derived from, verbatim.
    pub raw: Cost,
    /// Transport energy: `pj_per_hop × energy` (pJ).
    pub hop_pj: u128,
    /// Compute energy: `pj_per_op × messages` (pJ).
    pub op_pj: u128,
    /// Occupancy energy: `pj_per_word_hop × (energy + messages)` (pJ).
    pub occupancy_pj: u128,
    /// Total energy: sum of the three components (pJ).
    pub total_pj: u128,
    /// Critical-path delay: `cycles_per_hop × distance + cycles_per_op ×
    /// depth` (cycles).
    pub delay_cycles: u128,
    /// Energy-delay product: `total_pj × delay_cycles`.
    pub edp: u128,
}

impl fmt::Display for ProfiledCost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "profile={} total_pj={} (hop={} op={} occupancy={}) delay_cycles={} edp={}",
            self.profile,
            self.total_pj,
            self.hop_pj,
            self.op_pj,
            self.occupancy_pj,
            self.delay_cycles,
            self.edp
        )
    }
}

/// Typed failures of the profile layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProfileError {
    /// A profile name did not match any built-in (CLI `--profile`, jobspec
    /// `"profile"` field). A usage error: exit code 2.
    Unknown {
        /// The name that failed to resolve.
        name: String,
    },
    /// A weighted product or sum exceeded `u128`. Only reachable with
    /// adversarial weights (the built-in constants cannot saturate on
    /// counters a real run can produce); surfaced as a typed error rather
    /// than a wrap or a silent clamp. Exit code 7 (the accounting-overflow
    /// class, alongside budget breaches).
    Saturated {
        /// The profile whose arithmetic overflowed.
        profile: &'static str,
        /// Which component overflowed (`"total_pj"`, `"delay_cycles"`, …).
        component: &'static str,
    },
}

impl ProfileError {
    /// CLI exit code for this error: unknown name → 2 (usage, shared with
    /// the other argument errors), saturated arithmetic → 7 (the
    /// accounting-overflow class of `BudgetExceeded`).
    pub fn exit_code(&self) -> i32 {
        match self {
            ProfileError::Unknown { .. } => 2,
            ProfileError::Saturated { .. } => 7,
        }
    }
}

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileError::Unknown { name } => {
                let known: Vec<&str> = builtin_profiles().iter().map(|p| p.name).collect();
                write!(f, "unknown profile {name:?} (known: {})", known.join(", "))
            }
            ProfileError::Saturated { profile, component } => write!(
                f,
                "profile arithmetic saturated: {profile}.{component} exceeds u128 \
                 (weights too extreme for this run's counters)"
            ),
        }
    }
}

impl std::error::Error for ProfileError {}

/// A named costing of the exact model counters: plain data, charged onto a
/// finished [`Cost`] with [`CostProfile::charge`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CostProfile {
    /// Stable profile name (`--profile <name>`, report `"profile"` field).
    pub name: &'static str,
    /// The integer weights of this profile.
    pub weights: ProfileWeights,
}

impl CostProfile {
    /// Charges a raw [`Cost`] under this profile, in `u128` with typed
    /// saturation.
    pub fn charge(&self, cost: Cost) -> Result<ProfiledCost, ProfileError> {
        let (name, w) = (self.name, self.weights);
        let sat = |component| ProfileError::Saturated { profile: name, component };
        // Single u64 × u64 products always fit in u128; the word-hop basis is
        // a u65 sum, so that product (and everything after it) is checked.
        let hop_pj = u128::from(w.pj_per_hop) * u128::from(cost.energy);
        let op_pj = u128::from(w.pj_per_op) * u128::from(cost.messages);
        let word_hops = u128::from(cost.energy) + u128::from(cost.messages);
        let occupancy_pj = u128::from(w.pj_per_word_hop)
            .checked_mul(word_hops)
            .ok_or_else(|| sat("occupancy_pj"))?;
        let total_pj = hop_pj
            .checked_add(op_pj)
            .and_then(|s| s.checked_add(occupancy_pj))
            .ok_or_else(|| sat("total_pj"))?;
        let delay_cycles = (u128::from(w.cycles_per_hop) * u128::from(cost.distance))
            .checked_add(u128::from(w.cycles_per_op) * u128::from(cost.depth))
            .ok_or_else(|| sat("delay_cycles"))?;
        let edp = total_pj.checked_mul(delay_cycles).ok_or_else(|| sat("edp"))?;
        Ok(ProfiledCost {
            profile: name,
            raw: cost,
            hop_pj,
            op_pj,
            occupancy_pj,
            total_pj,
            delay_cycles,
            edp,
        })
    }
}

/// The paper's exact metrics as a (trivial) profile: total pJ is the raw
/// `energy` (hops) and delay is the raw `distance` (critical-path wire
/// latency), so charging through `MODEL_EXACT` reproduces today's numbers
/// bit-for-bit — and `raw` carries the whole tuple regardless.
pub const MODEL_EXACT: CostProfile = CostProfile {
    name: "model-exact",
    weights: ProfileWeights {
        pj_per_hop: 1,
        pj_per_op: 0,
        pj_per_word_hop: 0,
        cycles_per_hop: 1,
        cycles_per_op: 0,
    },
};

/// A wafer-scale-engine-style fabric: on-wafer hops are cheap and uniform,
/// PE ops cost a couple of pJ, and word residency is billed at hop parity.
pub const WSE_LIKE: CostProfile = CostProfile {
    name: "wse-like",
    weights: ProfileWeights {
        pj_per_hop: 1,
        pj_per_op: 2,
        pj_per_word_hop: 1,
        cycles_per_hop: 1,
        cycles_per_op: 1,
    },
};

/// A systolic-array-style machine: neighbor links and MACs are cheap, but
/// keeping a word resident (the register/FIFO fabric) dominates the bill.
pub const SYSTOLIC_LIKE: CostProfile = CostProfile {
    name: "systolic-like",
    weights: ProfileWeights {
        pj_per_hop: 2,
        pj_per_op: 1,
        pj_per_word_hop: 3,
        cycles_per_hop: 1,
        cycles_per_op: 1,
    },
};

/// A SIMT-style machine: every hop pays a memory-hierarchy premium (and two
/// cycles of latency), ops are moderately expensive, residency is cheap.
pub const SIMT_LIKE: CostProfile = CostProfile {
    name: "simt-like",
    weights: ProfileWeights {
        pj_per_hop: 6,
        pj_per_op: 4,
        pj_per_word_hop: 2,
        cycles_per_hop: 2,
        cycles_per_op: 1,
    },
};

/// Every built-in profile, in registry order (`model-exact` first — the
/// default).
pub fn builtin_profiles() -> &'static [CostProfile] {
    &[MODEL_EXACT, WSE_LIKE, SYSTOLIC_LIKE, SIMT_LIKE]
}

/// Resolves a built-in profile by its stable name.
///
/// The error is the typed usage error the CLI and jobspec parsers surface
/// verbatim (exit code 2): it lists the known names.
pub fn profile_by_name(name: &str) -> Result<&'static CostProfile, ProfileError> {
    builtin_profiles()
        .iter()
        .find(|p| p.name == name)
        .ok_or_else(|| ProfileError::Unknown { name: name.to_string() })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic counter fuzzer (the crate deliberately has no
    /// dependencies, so no shared property harness here): splitmix64.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn random_cost(state: &mut u64, cap: u64) -> Cost {
        Cost {
            energy: mix(state) % cap,
            depth: mix(state) % cap,
            distance: mix(state) % cap,
            messages: mix(state) % cap,
        }
    }

    #[test]
    fn model_exact_round_trips_the_raw_cost_bit_identically() {
        let mut state = 1u64;
        for _ in 0..200 {
            let c = random_cost(&mut state, u64::MAX);
            let p = MODEL_EXACT.charge(c).expect("unit weights cannot saturate");
            assert_eq!(p.raw, c, "raw tuple survives verbatim");
            assert_eq!(p.total_pj, u128::from(c.energy), "total pJ is the hop count");
            assert_eq!(p.delay_cycles, u128::from(c.distance), "delay is the distance watermark");
            assert_eq!(p.edp, u128::from(c.energy) * u128::from(c.distance));
            assert_eq!(p.op_pj, 0);
            assert_eq!(p.occupancy_pj, 0);
        }
    }

    #[test]
    fn energy_components_are_linear_in_the_summed_counters() {
        // Charging a batch equals summing per-item charges, for every
        // built-in profile: the pJ components are linear in `energy` and
        // `messages`. (Depth/distance are watermarks — maxima — so the
        // delay side is deliberately excluded from this law.)
        let mut state = 7u64;
        for profile in builtin_profiles() {
            for _ in 0..100 {
                let a = random_cost(&mut state, 1 << 40);
                let b = random_cost(&mut state, 1 << 40);
                let sum = Cost {
                    energy: a.energy + b.energy,
                    messages: a.messages + b.messages,
                    depth: a.depth.max(b.depth),
                    distance: a.distance.max(b.distance),
                };
                let (pa, pb, ps) = (
                    profile.charge(a).unwrap(),
                    profile.charge(b).unwrap(),
                    profile.charge(sum).unwrap(),
                );
                assert_eq!(ps.hop_pj, pa.hop_pj + pb.hop_pj, "{}", profile.name);
                assert_eq!(ps.op_pj, pa.op_pj + pb.op_pj, "{}", profile.name);
                assert_eq!(ps.occupancy_pj, pa.occupancy_pj + pb.occupancy_pj, "{}", profile.name);
                assert_eq!(ps.total_pj, pa.total_pj + pb.total_pj, "{}", profile.name);
            }
        }
    }

    #[test]
    fn builtin_weights_cannot_saturate_on_any_u64_counters() {
        // The built-in constants are ≤ 6; even all-u64::MAX counters stay
        // far inside u128 on the pJ and cycle sides. (EDP *can* exceed u128
        // for adversarial counters near 2^64 — that is the documented
        // saturation case, typed below — but no real run gets within 2^40
        // of it.)
        let c = Cost {
            energy: u64::MAX >> 20,
            depth: u64::MAX >> 20,
            distance: u64::MAX >> 20,
            messages: u64::MAX >> 20,
        };
        for p in builtin_profiles() {
            p.charge(c).expect("built-ins must charge any realistic run");
        }
    }

    /// An adversarial profile for the saturation tests.
    fn extreme(weights: ProfileWeights) -> CostProfile {
        CostProfile { name: "extreme", weights }
    }

    #[test]
    fn saturation_is_a_typed_error_not_a_wrap() {
        let full =
            Cost { energy: u64::MAX, depth: u64::MAX, distance: u64::MAX, messages: u64::MAX };
        // occupancy: weight × (energy + messages) > u128::MAX.
        let e = extreme(ProfileWeights {
            pj_per_hop: 0,
            pj_per_op: 0,
            pj_per_word_hop: u64::MAX,
            cycles_per_hop: 0,
            cycles_per_op: 0,
        });
        let err = e.charge(full).unwrap_err();
        assert_eq!(err, ProfileError::Saturated { profile: "extreme", component: "occupancy_pj" });
        assert_eq!(err.exit_code(), 7);
        assert!(format!("{err}").contains("saturated"));

        // total: three near-max components cannot fit in one u128.
        let e = extreme(ProfileWeights {
            pj_per_hop: u64::MAX,
            pj_per_op: u64::MAX,
            pj_per_word_hop: 0,
            cycles_per_hop: 0,
            cycles_per_op: 0,
        });
        assert_eq!(
            e.charge(full).unwrap_err(),
            ProfileError::Saturated { profile: "extreme", component: "total_pj" }
        );

        // delay: two near-max cycle products overflow their sum.
        let e = extreme(ProfileWeights {
            pj_per_hop: 0,
            pj_per_op: 0,
            pj_per_word_hop: 0,
            cycles_per_hop: u64::MAX,
            cycles_per_op: u64::MAX,
        });
        assert_eq!(
            e.charge(full).unwrap_err(),
            ProfileError::Saturated { profile: "extreme", component: "delay_cycles" }
        );

        // EDP: both sides representable, their product not.
        let e = extreme(ProfileWeights {
            pj_per_hop: u64::MAX,
            pj_per_op: 0,
            pj_per_word_hop: 0,
            cycles_per_hop: u64::MAX,
            cycles_per_op: 0,
        });
        assert_eq!(
            e.charge(full).unwrap_err(),
            ProfileError::Saturated { profile: "extreme", component: "edp" }
        );
    }

    #[test]
    fn registry_resolves_every_builtin_and_rejects_strangers() {
        for p in builtin_profiles() {
            assert_eq!(profile_by_name(p.name).expect("registered"), p);
        }
        let err = profile_by_name("joules-per-furlong").unwrap_err();
        assert_eq!(err.exit_code(), 2, "unknown profile is a usage error");
        let msg = format!("{err}");
        assert!(msg.contains("joules-per-furlong"), "{msg}");
        assert!(msg.contains("model-exact") && msg.contains("simt-like"), "{msg}");
    }
}
