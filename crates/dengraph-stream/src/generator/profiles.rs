//! Built-in workload profiles.
//!
//! The paper evaluates on three traces:
//!
//! * the **ground-truth** trace (Section 7.1): ~1.3 M geo-filtered tweets
//!   over 18 hours, compared against 60 Google News events of which 27 were
//!   too weak to detect, plus roughly six times as many local-only events;
//! * the **Time Window (TW)** trace (Section 7.2): 10 M tweets not specific
//!   to any event; and
//! * the **Event Specific (ES)** trace: 8 M tweets around specific topics,
//!   with roughly **3× the event density** of the TW trace.
//!
//! The profiles below reproduce the *structure* of those traces at three
//! selectable scales so that unit tests (Small), the precision/recall sweep
//! (Medium) and the throughput measurements (Large) all stay tractable.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::generator::{EventScenario, StreamProfile};
use crate::ground_truth::GroundTruthEventKind;

/// How big a generated trace should be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileScale {
    /// ~8 k messages; used by unit and integration tests.
    Small,
    /// ~32 k messages; used by the precision/recall sweeps.
    Medium,
    /// ~96 k messages; used by the throughput benchmarks.
    Large,
}

impl ProfileScale {
    /// Number of generation rounds at this scale.
    pub fn rounds(self) -> u64 {
        match self {
            ProfileScale::Small => 50,
            ProfileScale::Medium => 200,
            ProfileScale::Large => 600,
        }
    }
}

/// Nominal generation-round size; matches the paper's nominal quantum Δ=160.
pub const ROUND_SIZE: usize = 160;

/// One realistic template: `(name, core keywords, evolving keywords)`.
type EventTemplate = (
    &'static str,
    &'static [&'static str],
    &'static [(&'static str, u64)],
);

/// Realistic event templates.  Each template is used at most once per
/// trace; the remaining events are synthesised with unique keyword names.
const EVENT_TEMPLATES: &[EventTemplate] = &[
    (
        "earthquake strikes eastern turkey",
        &["earthquake", "struck", "eastern", "turkey"],
        &[("magnitude", 2), ("59quake", 2)],
    ),
    (
        "tornado pounds midwest",
        &["tornado", "warning", "midwest", "storm"],
        &[("shelter", 1), ("damage", 3)],
    ),
    (
        "davy jones of monkees dead",
        &["davy", "jones", "monkees", "dead"],
        &[("rip", 1)],
    ),
    (
        "dead body found at rick ross house",
        &["body", "found", "rick", "ross", "house"],
        &[("police", 2)],
    ),
    (
        "bob kerrey reverses decision and will run",
        &["bob", "kerrey", "senate", "run"],
        &[("nebraska", 1)],
    ),
    (
        "apple market value hits 500 billion",
        &["apple", "market", "value", "billion"],
        &[("poland", 1), ("stock", 2)],
    ),
    (
        "plane crash kills passengers",
        &["plane", "crash", "passengers", "airport"],
        &[("survivors", 2)],
    ),
    (
        "snow and rain forecast today",
        &["forecast", "snow", "rain", "weather"],
        &[("advisory", 1)],
    ),
    (
        "high wind warning issued for the coast",
        &["wind", "warning", "coast", "surf"],
        &[("advisory", 2)],
    ),
    (
        "milk products contaminated near fukushima",
        &["milk", "products", "fukushima", "contaminated"],
        &[("radiation", 1)],
    ),
    (
        "wildfire spreads near canyon",
        &["wildfire", "canyon", "evacuation", "acres"],
        &[("containment", 3)],
    ),
    (
        "championship game goes to overtime",
        &["championship", "game", "overtime", "buzzer"],
        &[("trophy", 2)],
    ),
];

/// Builds one synthetic event scenario with unique keyword names.
fn synthetic_event(
    idx: usize,
    kind: GroundTruthEventKind,
    start_round: u64,
    duration_rounds: u64,
    peak: u32,
) -> EventScenario {
    let core: Vec<String> = (0..4).map(|j| format!("ev{idx:03}kw{j}")).collect();
    let evolving: Vec<(String, u64)> = (4..6)
        .map(|j| (format!("ev{idx:03}kw{j}"), 1 + (j as u64 % 3)))
        .collect();
    EventScenario {
        name: format!("synthetic event {idx}"),
        keyword_names: core,
        evolving_keyword_names: evolving,
        start_round,
        duration_rounds,
        peak_messages_per_round: peak,
        kind,
    }
}

/// Builds an event from a realistic template, if one is left, otherwise a
/// synthetic one.
fn event_from_pool(
    idx: usize,
    kind: GroundTruthEventKind,
    start_round: u64,
    duration_rounds: u64,
    peak: u32,
) -> EventScenario {
    if kind == GroundTruthEventKind::Headline && idx < EVENT_TEMPLATES.len() {
        let (name, core, evolving) = EVENT_TEMPLATES[idx];
        EventScenario {
            name: name.to_string(),
            keyword_names: core.iter().map(|s| s.to_string()).collect(),
            evolving_keyword_names: evolving.iter().map(|(s, o)| (s.to_string(), *o)).collect(),
            start_round,
            duration_rounds,
            peak_messages_per_round: peak,
            kind,
        }
    } else {
        synthetic_event(idx, kind, start_round, duration_rounds, peak)
    }
}

/// Internal knobs shared by the profile constructors.
struct ProfileSpec {
    name: &'static str,
    headline: usize,
    local: usize,
    too_weak: usize,
    spurious: usize,
    peak_range: (u32, u32),
    duration_range: (u64, u64),
}

fn build_profile(spec: ProfileSpec, seed: u64, scale: ProfileScale) -> StreamProfile {
    let rounds = scale.rounds();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xB10C_CAFE);
    let mut events = Vec::new();
    let mut idx = 0usize;
    let push_events = |count: usize,
                       kind: GroundTruthEventKind,
                       rng: &mut ChaCha8Rng,
                       events: &mut Vec<EventScenario>,
                       idx: &mut usize| {
        for i in 0..count {
            // Roughly every third real event is *marginal*: a short, weak
            // burst close to the burstiness threshold.  These are the events
            // the paper loses at small quanta or strict correlation
            // thresholds, which is what gives Figures 7–10 their shape.
            let marginal = matches!(
                kind,
                GroundTruthEventKind::Headline | GroundTruthEventKind::LocalOnly
            ) && i % 3 == 2;
            let duration = match kind {
                GroundTruthEventKind::Spurious => rng.gen_range(1..=2),
                _ if marginal => rng.gen_range(2..=4),
                _ => rng.gen_range(spec.duration_range.0..=spec.duration_range.1),
            };
            let latest_start = rounds.saturating_sub(duration + 2).max(2);
            let start = rng.gen_range(2..=latest_start);
            let peak = match kind {
                GroundTruthEventKind::TooWeak => 1,
                _ if marginal => rng.gen_range(4..=8),
                _ => rng.gen_range(spec.peak_range.0..=spec.peak_range.1),
            };
            events.push(event_from_pool(*idx, kind, start, duration, peak));
            *idx += 1;
        }
    };
    push_events(
        spec.headline,
        GroundTruthEventKind::Headline,
        &mut rng,
        &mut events,
        &mut idx,
    );
    push_events(
        spec.local,
        GroundTruthEventKind::LocalOnly,
        &mut rng,
        &mut events,
        &mut idx,
    );
    push_events(
        spec.too_weak,
        GroundTruthEventKind::TooWeak,
        &mut rng,
        &mut events,
        &mut idx,
    );
    push_events(
        spec.spurious,
        GroundTruthEventKind::Spurious,
        &mut rng,
        &mut events,
        &mut idx,
    );

    StreamProfile {
        name: spec.name.to_string(),
        rounds,
        round_size: ROUND_SIZE,
        background_vocab_size: 12_000,
        zipf_exponent: 1.1,
        background_users: 50_000,
        keywords_per_background_msg: (3, 7),
        event_keyword_prob: 0.75,
        events,
        seed,
    }
}

/// The Time-Window (TW) trace analogue: general chatter with a moderate
/// number of events (Section 7.2's 10 M-tweet trace).
pub fn tw_profile(seed: u64, scale: ProfileScale) -> StreamProfile {
    let factor = match scale {
        ProfileScale::Small => 1,
        ProfileScale::Medium => 3,
        ProfileScale::Large => 8,
    };
    build_profile(
        ProfileSpec {
            name: "time-window",
            headline: 4 * factor,
            local: 3 * factor,
            too_weak: 2 * factor,
            spurious: factor,
            peak_range: (14, 30),
            duration_range: (6, 14),
        },
        seed,
        scale,
    )
}

/// The Event-Specific (ES) trace analogue: roughly 3× the event density of
/// [`tw_profile`] and higher per-event intensity (Section 7.2 reports the
/// ES event density as about three times the TW density).
pub fn es_profile(seed: u64, scale: ProfileScale) -> StreamProfile {
    let factor = match scale {
        ProfileScale::Small => 1,
        ProfileScale::Medium => 3,
        ProfileScale::Large => 8,
    };
    build_profile(
        ProfileSpec {
            name: "event-specific",
            headline: 12 * factor,
            local: 9 * factor,
            too_weak: 3 * factor,
            spurious: 2 * factor,
            peak_range: (20, 40),
            duration_range: (6, 16),
        },
        seed,
        scale,
    )
}

/// A dense-AKG stress profile (not one of the paper's traces): many small
/// *pulsing* keyword families that keep re-bursting inside the detector's
/// window, so the AKG accumulates far more live edges than any one
/// quantum's delta log touches: per-quantum work that scales with the
/// resident AKG rather than with the deltas, such as ranking every live
/// cluster, shows here.
///
/// Structure (all draws from one seeded ChaCha8 stream):
///
/// * `FAMILIES` disjoint families of [`DENSE_FAMILY_KEYWORDS`] keywords
///   each; every family's messages co-mention most of its keywords, so
///   each family settles into a near-clique AKG component of
///   ~`k·(k-1)/2` edges and its own cluster.
/// * Each family re-bursts every [`DENSE_PULSE_PERIOD`] rounds (staggered
///   phase, 1–2-round pulses) — shorter than the benchmark window, so
///   dormant families stay resident and the AKG stays dense while only
///   the currently pulsing families produce deltas.
/// * Every fifth family is *mortal*: it stops pulsing halfway through the
///   trace, goes stale once the window slides past, and is torn out of
///   the AKG — exercising node removal and cluster deletion under load.
/// * Background chatter is the same Zipf vocabulary as the paper traces.
pub fn dense_profile(seed: u64, scale: ProfileScale) -> StreamProfile {
    let rounds = scale.rounds();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xDE45_E000);
    let mut events = Vec::new();
    for family in 0..DENSE_FAMILIES {
        let keywords: Vec<String> = (0..DENSE_FAMILY_KEYWORDS)
            .map(|j| format!("dn{family:03}k{j}"))
            .collect();
        let mortal = family % 20 == 19;
        let phase = family as u64 % DENSE_PULSE_PERIOD;
        let last_start = if mortal {
            rounds / 2
        } else {
            rounds.saturating_sub(2)
        };
        let mut start = 2 + phase;
        let mut pulse = 0usize;
        while start < last_start {
            let duration = 1;
            let peak = rng.gen_range(5..=7);
            events.push(EventScenario {
                name: format!("dense family {family} pulse {pulse}"),
                keyword_names: keywords.clone(),
                evolving_keyword_names: Vec::new(),
                start_round: start,
                duration_rounds: duration,
                peak_messages_per_round: peak,
                kind: GroundTruthEventKind::LocalOnly,
            });
            start += DENSE_PULSE_PERIOD;
            pulse += 1;
        }
    }
    StreamProfile {
        name: "dense".to_string(),
        rounds,
        round_size: ROUND_SIZE,
        // A uniformly sampled background vocabulary: every filler word
        // recurs at a rate far below the burstiness threshold, so the AKG
        // holds *only* the pulsing families (a Zipf head word would hover
        // right at the threshold and flicker in and out of the graph).
        // Filler messages carry a single keyword so they can never
        // contribute a co-occurrence pair of their own.  This keeps the
        // per-quantum delta log small relative to the resident AKG.
        background_vocab_size: 400,
        zipf_exponent: 0.0,
        background_users: 50_000,
        keywords_per_background_msg: (1, 1),
        event_keyword_prob: 0.85,
        events,
        seed,
    }
}

/// Number of pulsing keyword families in [`dense_profile`].
pub const DENSE_FAMILIES: usize = 250;

/// Keywords per dense family (each family tends to a `k`-clique).
pub const DENSE_FAMILY_KEYWORDS: usize = 6;

/// Rounds between two bursts of the same dense family.  Must stay below
/// the benchmark's window length so dormant families remain resident in
/// the AKG instead of being removed as stale, and must divide the round
/// count of every [`ProfileScale`] so that replaying the trace through an
/// already-warm session (the bench's steady-state pass) continues every
/// family's pulse schedule seamlessly.
pub const DENSE_PULSE_PERIOD: u64 = 10;

/// The ground-truth study analogue (Section 7.1 / Table 1): 60 "headline"
/// events of which 27 are too weak to ever detect, plus many local-only
/// events and a few spurious bursts.
pub fn ground_truth_profile(seed: u64, scale: ProfileScale) -> StreamProfile {
    build_profile(
        ProfileSpec {
            name: "ground-truth",
            headline: 33,
            local: 90,
            too_weak: 27,
            spurious: 8,
            peak_range: (12, 32),
            duration_range: (5, 12),
        },
        seed,
        match scale {
            // The ground-truth study needs room for 150+ events.
            ProfileScale::Small => ProfileScale::Medium,
            other => other,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tw_and_es_density_ratio_is_about_three() {
        let tw = tw_profile(1, ProfileScale::Medium);
        let es = es_profile(1, ProfileScale::Medium);
        let tw_real = tw
            .events
            .iter()
            .filter(|e| {
                !matches!(
                    e.kind,
                    GroundTruthEventKind::TooWeak | GroundTruthEventKind::Spurious
                )
            })
            .count();
        let es_real = es
            .events
            .iter()
            .filter(|e| {
                !matches!(
                    e.kind,
                    GroundTruthEventKind::TooWeak | GroundTruthEventKind::Spurious
                )
            })
            .count();
        assert_eq!(es_real, 3 * tw_real);
    }

    #[test]
    fn ground_truth_profile_matches_paper_structure() {
        let p = ground_truth_profile(1, ProfileScale::Medium);
        let headlines = p
            .events
            .iter()
            .filter(|e| e.kind == GroundTruthEventKind::Headline)
            .count();
        let weak = p
            .events
            .iter()
            .filter(|e| e.kind == GroundTruthEventKind::TooWeak)
            .count();
        let local = p
            .events
            .iter()
            .filter(|e| e.kind == GroundTruthEventKind::LocalOnly)
            .count();
        assert_eq!(headlines, 33);
        assert_eq!(weak, 27);
        assert!(
            local >= 2 * headlines,
            "many more local events than headlines"
        );
    }

    #[test]
    fn events_fit_inside_the_trace() {
        for p in [
            tw_profile(3, ProfileScale::Small),
            es_profile(3, ProfileScale::Small),
        ] {
            for e in &p.events {
                assert!(
                    e.start_round + e.duration_rounds <= p.rounds,
                    "{} overruns",
                    e.name
                );
            }
        }
    }

    #[test]
    fn keyword_names_are_unique_across_events() {
        let p = es_profile(5, ProfileScale::Medium);
        let mut seen = std::collections::HashSet::new();
        for e in &p.events {
            for k in e
                .keyword_names
                .iter()
                .chain(e.evolving_keyword_names.iter().map(|(k, _)| k))
            {
                // Realistic templates may share a couple of generic words
                // ("warning", "advisory"); synthetic ones never collide.
                if k.starts_with("ev") {
                    assert!(seen.insert(k.clone()), "duplicate synthetic keyword {k}");
                }
            }
        }
    }

    #[test]
    fn dense_profile_pulses_and_retires_families() {
        let p = dense_profile(7, ProfileScale::Small);
        assert_eq!(p.name, "dense");
        // Every family re-bursts: at least two pulses share the exact same
        // keyword set (the interner will dedup them into the same AKG nodes).
        let family0: Vec<&EventScenario> = p
            .events
            .iter()
            .filter(|e| e.keyword_names[0] == "dn000k0")
            .collect();
        assert!(family0.len() >= 2, "families must pulse repeatedly");
        assert!(family0
            .windows(2)
            .all(|w| w[0].keyword_names == w[1].keyword_names));
        // Mortal families stop pulsing in the first half of the trace so
        // the window can slide past them and the AKG tears them down.
        let mortal_last_start = p
            .events
            .iter()
            .filter(|e| e.keyword_names[0] == "dn019k0")
            .map(|e| e.start_round)
            .max()
            .expect("mortal family pulses at least once");
        assert!(mortal_last_start < p.rounds / 2);
        // An immortal family keeps pulsing into the final window.
        let immortal_last_start = p
            .events
            .iter()
            .filter(|e| e.keyword_names[0] == "dn000k0")
            .map(|e| e.start_round)
            .max()
            .unwrap();
        assert!(immortal_last_start + DENSE_PULSE_PERIOD >= p.rounds);
        // Determinism in the seed, like every other profile.
        assert_eq!(p, dense_profile(7, ProfileScale::Small));
        assert_ne!(p, dense_profile(8, ProfileScale::Small));
        for e in &p.events {
            assert!(e.start_round + e.duration_rounds <= p.rounds);
        }
    }

    #[test]
    fn profiles_are_deterministic_in_their_seed() {
        assert_eq!(
            tw_profile(9, ProfileScale::Small),
            tw_profile(9, ProfileScale::Small)
        );
        assert_ne!(
            tw_profile(9, ProfileScale::Small),
            tw_profile(10, ProfileScale::Small)
        );
    }

    #[test]
    fn scale_controls_rounds() {
        assert!(ProfileScale::Large.rounds() > ProfileScale::Medium.rounds());
        assert!(ProfileScale::Medium.rounds() > ProfileScale::Small.rounds());
    }
}
