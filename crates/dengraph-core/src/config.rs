//! Detector configuration.
//!
//! Table 2 of the paper lists the tunable parameters and their nominal
//! values; those nominal values are the defaults here.  One field is the
//! engine's own: `min_sketch_size`, a floor under the paper's sketch size.
//! At Δ·w it makes every edge correlation exact, so exactness is a sketch
//! width, not a mode of its own.

use dengraph_json::{Decode, Encode};
use dengraph_minhash::sketch::MAX_DECODED_SKETCH_SIZE;
pub use dengraph_parallel::Parallelism;

/// A typed description of what is wrong with a [`DetectorConfig`].
///
/// Returned by [`DetectorConfig::validate`] and
/// [`DetectorBuilder::build`](crate::session::DetectorBuilder::build), so
/// callers can match on the exact failure instead of parsing a panic
/// message.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `quantum_size` is 0 — no quantum would ever complete.
    ZeroQuantumSize,
    /// `window_quanta` is 0 — the window could hold nothing.
    ZeroWindowQuanta,
    /// `high_state_threshold` is 0 — every keyword would always be bursty.
    ZeroHighStateThreshold,
    /// `min_sketch_size` is 0 — min-hash sketches need at least one minimum.
    ZeroSketchWidth,
    /// The effective sketch size `p` (carried here) exceeds
    /// [`MAX_DECODED_SKETCH_SIZE`] — the widest `p` a window entry is
    /// built for, and the window decoder refuses anything larger.
    SketchWidthTooLarge(usize),
    /// `edge_correlation_threshold` lies outside `(0, 1]` (or is NaN).  Zero
    /// is out: `ec ≥ 0` would admit every scored pair, zero-overlap ones
    /// included, and the sketch-size rule `1/τ` has no value there.
    EdgeCorrelationOutOfRange(f64),
    /// `rank_threshold_factor` is negative or NaN.
    RankThresholdFactorOutOfRange(f64),
    /// The builder's durable journal could not be opened (the message
    /// carries the journal directory and the underlying I/O error).
    Journal(String),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroQuantumSize => write!(f, "quantum_size must be at least 1"),
            ConfigError::ZeroWindowQuanta => write!(f, "window_quanta must be at least 1"),
            ConfigError::ZeroHighStateThreshold => {
                write!(f, "high_state_threshold must be at least 1")
            }
            ConfigError::ZeroSketchWidth => write!(f, "min_sketch_size must be at least 1"),
            ConfigError::SketchWidthTooLarge(p) => write!(
                f,
                "sketch size {p} exceeds the supported maximum {MAX_DECODED_SKETCH_SIZE}"
            ),
            ConfigError::EdgeCorrelationOutOfRange(v) => {
                write!(f, "edge_correlation_threshold must lie in (0, 1], got {v}")
            }
            ConfigError::RankThresholdFactorOutOfRange(v) => {
                write!(f, "rank_threshold_factor must be non-negative, got {v}")
            }
            ConfigError::Journal(detail) => write!(f, "cannot open durable journal: {detail}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// All tunable parameters of the event detector.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectorConfig {
    /// Quantum size Δ: number of messages per quantum (nominal 160,
    /// tunable 80–240; the ground-truth study of Section 7.1 uses 800).
    pub quantum_size: usize,
    /// High-state threshold σ: a keyword enters the high state when at
    /// least this many distinct users mention it within one quantum
    /// (nominal 4).
    pub high_state_threshold: u32,
    /// Edge-correlation threshold τ: minimum Jaccard correlation between
    /// the user-id sets of two keywords for an AKG edge (nominal 0.20,
    /// tunable 0.1–0.25).
    pub edge_correlation_threshold: f64,
    /// Window length w in quanta (nominal 30, tunable 20–40).
    pub window_quanta: usize,
    /// Lower bound on the min-hash sketch size.  The paper's formula
    /// `p = min(σ/2, 1/τ)` yields p = 2 at the nominal thresholds, which is
    /// enough for the *edge admission gate* ("do the sketches share a
    /// minimum?") but far too coarse to compare the estimated correlation
    /// against τ.  Keeping at least this many minima makes the estimate
    /// usable while leaving the admission gate untouched (a deliberate
    /// deviation from the paper).  At `quantum_size × window_quanta` or
    /// more the estimate is the exact Jaccard coefficient: a window holds
    /// at most Δ·w users per keyword, so every sketch is a whole user set
    /// (the end-to-end test
    /// `ablations_pin_exact_correlation_and_the_sketch_size_floor` runs
    /// that width as its exact arm).
    pub min_sketch_size: usize,
    /// Keep keywords in the AKG while they participate in a cluster even if
    /// they stop being bursty (the hysteresis / lazy-update rule of
    /// Section 3.1).  Defaults to `true`; the end-to-end test
    /// `ablations_pin_exact_correlation_and_the_sketch_size_floor` flips it.
    pub hysteresis: bool,
    /// Multiplier applied to the minimum possible cluster rank when
    /// filtering reported events (Section 7.2.2's rank-threshold precision
    /// filter).  1.0 keeps every structurally possible cluster.
    pub rank_threshold_factor: f64,
    /// Require at least one noun keyword in a reported event (Section
    /// 7.2.2's other precision filter).
    pub require_noun: bool,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        Self {
            quantum_size: 160,
            high_state_threshold: 4,
            edge_correlation_threshold: 0.20,
            window_quanta: 30,
            min_sketch_size: 16,
            hysteresis: true,
            rank_threshold_factor: 1.0,
            require_noun: true,
        }
    }
}

impl DetectorConfig {
    /// The paper's nominal configuration (Table 2).
    pub fn nominal() -> Self {
        Self::default()
    }

    /// The configuration used for the ground-truth study of Section 7.1
    /// (Δ = 800, τ = 0.1, σ = 4, w = 30).
    pub fn ground_truth_study() -> Self {
        Self {
            quantum_size: 800,
            edge_correlation_threshold: 0.1,
            ..Self::default()
        }
    }

    /// Sets the quantum size (builder style).
    pub fn with_quantum_size(mut self, delta: usize) -> Self {
        self.quantum_size = delta;
        self
    }

    /// Sets the edge-correlation threshold τ (builder style).
    pub fn with_edge_correlation_threshold(mut self, tau: f64) -> Self {
        self.edge_correlation_threshold = tau;
        self
    }

    /// Sets the high-state threshold σ (builder style).
    pub fn with_high_state_threshold(mut self, sigma: u32) -> Self {
        self.high_state_threshold = sigma;
        self
    }

    /// Sets the window length in quanta (builder style).
    pub fn with_window_quanta(mut self, w: usize) -> Self {
        self.window_quanta = w;
        self
    }

    /// The min-hash sketch size `p = min(σ/2, 1/τ)` of Section 3.2.2
    /// (before applying [`Self::min_sketch_size`]).
    pub fn paper_sketch_size(&self) -> usize {
        dengraph_minhash::sketch_size(self.high_state_threshold, self.edge_correlation_threshold)
    }

    /// The effective min-hash sketch size used by the detector:
    /// `max(min(σ/2, 1/τ), min_sketch_size)`.
    pub fn sketch_size(&self) -> usize {
        self.paper_sketch_size().max(self.min_sketch_size.max(1))
    }

    /// The minimum rank a structurally valid cluster of any size can reach
    /// with these thresholds: every node is supported by at least σ users
    /// and lies on a short cycle, contributing at least `σ·(1 + 2τ)` to the
    /// size-normalised rank.  Used by the rank-threshold precision filter.
    pub fn minimum_cluster_rank(&self) -> f64 {
        self.high_state_threshold as f64 * (1.0 + 2.0 * self.edge_correlation_threshold)
    }

    /// The rank below which a reported event is suppressed.
    pub fn rank_report_threshold(&self) -> f64 {
        self.minimum_cluster_rank() * self.rank_threshold_factor
    }

    /// Validates the configuration, returning a typed [`ConfigError`] when a
    /// parameter is out of range.
    ///
    /// Every degenerate value that used to slip through and panic or hang
    /// deep in the pipeline is rejected here: zero quantum/window/σ sizes,
    /// a zero sketch width or one beyond what the window can allocate per
    /// keyword, and out-of-range or NaN thresholds.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.quantum_size == 0 {
            return Err(ConfigError::ZeroQuantumSize);
        }
        if self.window_quanta == 0 {
            return Err(ConfigError::ZeroWindowQuanta);
        }
        if self.high_state_threshold == 0 {
            return Err(ConfigError::ZeroHighStateThreshold);
        }
        if self.min_sketch_size == 0 {
            return Err(ConfigError::ZeroSketchWidth);
        }
        if self.sketch_size() > MAX_DECODED_SKETCH_SIZE {
            return Err(ConfigError::SketchWidthTooLarge(self.sketch_size()));
        }
        // τ > 0 is what makes a zero-overlap pair a non-candidate (see
        // `crate::akg`).  (NaN is in no range.)
        let tau = self.edge_correlation_threshold;
        if !(0.0..=1.0).contains(&tau) || tau == 0.0 {
            return Err(ConfigError::EdgeCorrelationOutOfRange(
                self.edge_correlation_threshold,
            ));
        }
        if self.rank_threshold_factor.is_nan() || self.rank_threshold_factor < 0.0 {
            return Err(ConfigError::RankThresholdFactorOutOfRange(
                self.rank_threshold_factor,
            ));
        }
        Ok(())
    }
}

impl Encode for DetectorConfig {
    /// Serialises the configuration to a [`dengraph_json::Value`].
    fn to_json(&self) -> dengraph_json::Value {
        use dengraph_json::Value;
        Value::obj([
            ("quantum_size", Value::from(self.quantum_size)),
            (
                "high_state_threshold",
                Value::from(self.high_state_threshold),
            ),
            (
                "edge_correlation_threshold",
                Value::from(self.edge_correlation_threshold),
            ),
            ("window_quanta", Value::from(self.window_quanta)),
            ("min_sketch_size", Value::from(self.min_sketch_size)),
            ("hysteresis", Value::from(self.hysteresis)),
            (
                "rank_threshold_factor",
                Value::from(self.rank_threshold_factor),
            ),
            ("require_noun", Value::from(self.require_noun)),
        ])
    }

    /// Appends the compact binary encoding.  The result is *not*
    /// validated on decode — callers accepting external input follow up
    /// with [`Self::validate`], exactly like the JSON path.
    fn to_bin(&self, w: &mut dengraph_json::BinWriter) {
        w.usize(self.quantum_size);
        w.u32(self.high_state_threshold);
        w.f64(self.edge_correlation_threshold);
        w.usize(self.window_quanta);
        w.usize(self.min_sketch_size);
        w.bool(self.hysteresis);
        w.f64(self.rank_threshold_factor);
        w.bool(self.require_noun);
    }
}

impl Decode for DetectorConfig {
    /// Reconstructs a configuration serialised by [`Self::to_json`].  The
    /// result is *not* validated — callers that accept external input should
    /// follow up with [`Self::validate`].
    fn from_json(value: &dengraph_json::Value) -> dengraph_json::Result<Self> {
        Ok(Self {
            quantum_size: value.get("quantum_size")?.as_usize()?,
            high_state_threshold: value.get("high_state_threshold")?.as_u32()?,
            edge_correlation_threshold: value.get("edge_correlation_threshold")?.as_f64()?,
            window_quanta: value.get("window_quanta")?.as_usize()?,
            min_sketch_size: value.get("min_sketch_size")?.as_usize()?,
            hysteresis: value.get("hysteresis")?.as_bool()?,
            rank_threshold_factor: value.get("rank_threshold_factor")?.as_f64()?,
            require_noun: value.get("require_noun")?.as_bool()?,
        })
    }

    /// Reconstructs a configuration encoded by [`Self::to_bin`].
    fn from_bin(r: &mut dengraph_json::BinReader<'_>) -> dengraph_json::Result<Self> {
        Ok(Self {
            quantum_size: r.usize()?,
            high_state_threshold: r.u32()?,
            edge_correlation_threshold: r.f64()?,
            window_quanta: r.usize()?,
            min_sketch_size: r.usize()?,
            hysteresis: r.bool()?,
            rank_threshold_factor: r.f64()?,
            require_noun: r.bool()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_values_match_table2() {
        let c = DetectorConfig::nominal();
        assert_eq!(c.quantum_size, 160);
        assert_eq!(c.high_state_threshold, 4);
        assert!((c.edge_correlation_threshold - 0.20).abs() < f64::EPSILON);
        assert_eq!(c.window_quanta, 30);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn ground_truth_study_config() {
        let c = DetectorConfig::ground_truth_study();
        assert_eq!(c.quantum_size, 800);
        assert!((c.edge_correlation_threshold - 0.1).abs() < f64::EPSILON);
    }

    #[test]
    fn builders_compose() {
        let c = DetectorConfig::nominal()
            .with_quantum_size(80)
            .with_edge_correlation_threshold(0.25)
            .with_high_state_threshold(6)
            .with_window_quanta(20);
        assert_eq!(c.quantum_size, 80);
        assert_eq!(c.high_state_threshold, 6);
        assert_eq!(c.window_quanta, 20);
        assert!((c.edge_correlation_threshold - 0.25).abs() < f64::EPSILON);
    }

    #[test]
    fn sketch_size_follows_paper_formula_with_floor() {
        assert_eq!(DetectorConfig::nominal().paper_sketch_size(), 2);
        assert_eq!(
            DetectorConfig::nominal()
                .with_high_state_threshold(10)
                .paper_sketch_size(),
            5
        );
        // The effective size never drops below the configured floor …
        assert_eq!(DetectorConfig::nominal().sketch_size(), 16);
        // … and follows the paper's formula once that exceeds the floor.
        let big = DetectorConfig {
            high_state_threshold: 64,
            min_sketch_size: 4,
            ..DetectorConfig::nominal()
        };
        assert_eq!(big.sketch_size(), 5); // min(32, 1/0.2 = 5)
    }

    #[test]
    fn minimum_rank_and_threshold() {
        let c = DetectorConfig::nominal();
        assert!((c.minimum_cluster_rank() - 4.0 * 1.4).abs() < 1e-12);
        assert!((c.rank_report_threshold() - c.minimum_cluster_rank()).abs() < 1e-12);
        let strict = DetectorConfig {
            rank_threshold_factor: 2.0,
            ..c
        };
        assert!(strict.rank_report_threshold() > strict.minimum_cluster_rank());
    }

    #[test]
    fn validation_reports_the_exact_degenerate_value() {
        assert_eq!(
            DetectorConfig {
                quantum_size: 0,
                ..Default::default()
            }
            .validate(),
            Err(ConfigError::ZeroQuantumSize)
        );
        assert_eq!(
            DetectorConfig {
                window_quanta: 0,
                ..Default::default()
            }
            .validate(),
            Err(ConfigError::ZeroWindowQuanta)
        );
        assert_eq!(
            DetectorConfig {
                high_state_threshold: 0,
                ..Default::default()
            }
            .validate(),
            Err(ConfigError::ZeroHighStateThreshold)
        );
        assert_eq!(
            DetectorConfig {
                min_sketch_size: 0,
                ..Default::default()
            }
            .validate(),
            Err(ConfigError::ZeroSketchWidth)
        );
        // One bound for the builder and the window decoder.
        assert_eq!(
            DetectorConfig {
                min_sketch_size: 1 << 40,
                ..Default::default()
            }
            .validate(),
            Err(ConfigError::SketchWidthTooLarge(1 << 40))
        );
        assert!(DetectorConfig {
            min_sketch_size: MAX_DECODED_SKETCH_SIZE,
            ..Default::default()
        }
        .validate()
        .is_ok());
        for out_of_range in [1.5, 0.0, -0.0] {
            assert_eq!(
                DetectorConfig {
                    edge_correlation_threshold: out_of_range,
                    ..Default::default()
                }
                .validate(),
                Err(ConfigError::EdgeCorrelationOutOfRange(out_of_range))
            );
        }
        assert!(DetectorConfig {
            edge_correlation_threshold: 1.0,
            ..Default::default()
        }
        .validate()
        .is_ok());
        assert_eq!(
            DetectorConfig {
                rank_threshold_factor: -1.0,
                ..Default::default()
            }
            .validate(),
            Err(ConfigError::RankThresholdFactorOutOfRange(-1.0))
        );
    }

    /// Regression: NaN thresholds used to slip through the range checks
    /// (`NaN < 0.0` is false) and poison every downstream rank comparison.
    #[test]
    fn validation_rejects_nan_thresholds() {
        assert!(matches!(
            DetectorConfig {
                edge_correlation_threshold: f64::NAN,
                ..Default::default()
            }
            .validate(),
            Err(ConfigError::EdgeCorrelationOutOfRange(_))
        ));
        assert!(matches!(
            DetectorConfig {
                rank_threshold_factor: f64::NAN,
                ..Default::default()
            }
            .validate(),
            Err(ConfigError::RankThresholdFactorOutOfRange(_))
        ));
    }

    #[test]
    fn config_errors_display_the_parameter() {
        assert!(ConfigError::ZeroQuantumSize.to_string().contains("quantum"));
        assert!(ConfigError::EdgeCorrelationOutOfRange(2.0)
            .to_string()
            .contains("2"));
    }

    #[test]
    fn json_round_trip_preserves_every_field() {
        for config in [
            DetectorConfig::nominal(),
            DetectorConfig::ground_truth_study(),
            DetectorConfig {
                hysteresis: false,
                require_noun: false,
                rank_threshold_factor: 1.25,
                ..DetectorConfig::nominal()
            },
        ] {
            let text = dengraph_json::to_string(&config.to_json());
            let back = DetectorConfig::from_json(&dengraph_json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, config);
        }
    }

    /// A binary configuration round-trips, and no truncation or
    /// single-byte mutation of it panics the decoder.
    #[test]
    fn a_truncated_or_mutated_binary_configuration_never_panics() {
        let config = DetectorConfig::nominal();
        let mut w = dengraph_json::BinWriter::new();
        config.to_bin(&mut w);
        let bytes = w.into_bytes();
        let decode =
            |bytes: &[u8]| DetectorConfig::from_bin(&mut dengraph_json::BinReader::new(bytes));
        assert_eq!(decode(&bytes).unwrap(), config);
        for len in 0..bytes.len() {
            assert!(decode(&bytes[..len]).is_err(), "truncated at {len}");
        }
        for at in 0..bytes.len() {
            for value in 0..=u8::MAX {
                let mut mutated = bytes.clone();
                mutated[at] = value;
                let _ = decode(&mutated);
            }
        }
    }
}
