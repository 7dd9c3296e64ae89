//! Configuration for the streaming simulation.

/// All tunables of one streaming-link world.
///
/// Defaults are scaled down from the paper's 100 Gb/s peering links to a
/// 1 Gb/s link with a few hundred concurrent sessions at peak — the same
/// congestion regime at laptop cost.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Link capacity in bits per second.
    pub capacity_bps: f64,
    /// Base (uncongested) round-trip time in seconds.
    pub base_rtt_s: f64,
    /// Bottleneck buffer, expressed in seconds of queueing at capacity
    /// (a full queue adds this much delay to every RTT).
    pub queue_capacity_s: f64,
    /// Simulation tick in seconds.
    pub dt_s: f64,
    /// Number of simulated days.
    pub days: usize,
    /// Mean session arrival rate at the *daily peak*, sessions/second.
    pub peak_arrivals_per_s: f64,
    /// Bitrate ladder in bits/second, ascending.
    pub ladder_bps: Vec<f64>,
    /// Cap applied to treated (bitrate-capped) sessions, bits/second.
    pub cap_bps: f64,
    /// Hard per-session transport ceiling (server/TCP limit).
    pub session_max_bps: f64,
    /// Median of the per-session access-line limit (last mile), bits/s.
    /// Offered load scales with video bitrate because sessions duty-cycle
    /// between filling at their access rate and idling on a full buffer.
    pub access_median_bps: f64,
    /// Log-scale sigma of the access-line limit distribution.
    pub access_sigma: f64,
    /// Client playback buffer target in seconds of video.
    pub max_buffer_s: f64,
    /// Seconds of video required to start playback.
    pub startup_buffer_s: f64,
    /// Seconds of video required to resume after a rebuffer.
    pub resume_buffer_s: f64,
    /// Mean video watch duration in seconds.
    pub mean_watch_s: f64,
    /// Mean user patience for startup in seconds (cancelled starts).
    pub mean_patience_s: f64,
    /// ABR safety factor: pick the highest rung ≤ factor × estimate.
    pub abr_safety: f64,
    /// Chunk length in seconds of video (ABR decision interval).
    pub chunk_s: f64,
    /// Log-scale sigma of per-chunk throughput noise (last-mile and
    /// cross-traffic variability; also drives rebuffer incidence).
    pub throughput_noise_sigma: f64,
    /// Baseline loss fraction on the rest of the path (volume-
    /// proportional retransmissions).
    pub loss_floor: f64,
    /// Fraction of shed (overload) demand that manifests as
    /// retransmissions: TCP backs off instead of blasting, so the
    /// realized loss rate is far below the shed fraction.
    pub loss_to_retx: f64,
    /// Volume-independent retransmitted bytes per active second
    /// (connection upkeep, tail losses): this is what makes the
    /// *percentage* of retransmitted bytes rise when capping shrinks the
    /// denominator off-peak (§4.3, Figure 9).
    pub fixed_retx_bytes_per_s: f64,
    /// Probability per chunk of a "difficulty dip" (a transient
    /// throughput collapse from content/CDN effects) — the driver of
    /// rebuffers that is unrelated to this link's congestion.
    pub dip_prob: f64,
    /// Multiplier (>1 worsens) on the dip probability, per link —
    /// models the link-1 content-mix quirk of §4.1 with negligible
    /// impact on mean throughput.
    pub rebuffer_bias: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            capacity_bps: 1e9,
            base_rtt_s: 0.020,
            queue_capacity_s: 0.025,
            dt_s: 1.0,
            days: 5,
            peak_arrivals_per_s: 0.24,
            ladder_bps: vec![
                235e3, 375e3, 560e3, 750e3, 1_050e3, 1_750e3, 2_350e3, 3_000e3, 4_300e3, 5_800e3,
            ],
            cap_bps: 1_750e3,
            session_max_bps: 25e6,
            access_median_bps: 5e6,
            access_sigma: 0.5,
            max_buffer_s: 120.0,
            startup_buffer_s: 4.0,
            resume_buffer_s: 4.0,
            mean_watch_s: 1500.0,
            mean_patience_s: 20.0,
            abr_safety: 0.8,
            chunk_s: 4.0,
            throughput_noise_sigma: 0.30,
            loss_floor: 0.002,
            loss_to_retx: 0.06,
            fixed_retx_bytes_per_s: 1500.0,
            dip_prob: 0.005,
            rebuffer_bias: 1.0,
            seed: 1,
        }
    }
}

/// Errors from validating a [`StreamConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamConfigError {
    /// Offending field.
    pub field: &'static str,
}

impl std::fmt::Display for StreamConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "stream config field out of range: {}", self.field)
    }
}

impl std::error::Error for StreamConfigError {}

impl StreamConfig {
    /// Validate all fields.
    ///
    /// Every float is checked for NaN as well as range (`is_finite` is
    /// false for NaN; a bare `v < 0.0` test lets a NaN through). The
    /// arena's demand refresh relies on this: it multiplies the peak
    /// demand by 0 or 1, which turns a NaN peak into NaN where zero was
    /// meant.
    pub fn validate(&self) -> Result<(), StreamConfigError> {
        let positive = [
            ("capacity_bps", self.capacity_bps),
            ("base_rtt_s", self.base_rtt_s),
            ("dt_s", self.dt_s),
            ("peak_arrivals_per_s", self.peak_arrivals_per_s),
            ("cap_bps", self.cap_bps),
            ("session_max_bps", self.session_max_bps),
            ("access_median_bps", self.access_median_bps),
            ("max_buffer_s", self.max_buffer_s),
            ("startup_buffer_s", self.startup_buffer_s),
            ("resume_buffer_s", self.resume_buffer_s),
            ("mean_watch_s", self.mean_watch_s),
            ("mean_patience_s", self.mean_patience_s),
            ("abr_safety", self.abr_safety),
            ("chunk_s", self.chunk_s),
            ("rebuffer_bias", self.rebuffer_bias),
        ];
        for (name, v) in positive {
            if v <= 0.0 || !v.is_finite() {
                return Err(StreamConfigError { field: name });
            }
        }
        let non_negative = [
            ("queue_capacity_s", self.queue_capacity_s),
            ("access_sigma", self.access_sigma),
            ("throughput_noise_sigma", self.throughput_noise_sigma),
            ("fixed_retx_bytes_per_s", self.fixed_retx_bytes_per_s),
        ];
        for (name, v) in non_negative {
            if v < 0.0 || !v.is_finite() {
                return Err(StreamConfigError { field: name });
            }
        }
        if self.days == 0 {
            return Err(StreamConfigError { field: "days" });
        }
        if self.ladder_bps.is_empty()
            || self.ladder_bps.iter().any(|r| !r.is_finite())
            || self.ladder_bps.windows(2).any(|w| w[0] >= w[1])
        {
            return Err(StreamConfigError {
                field: "ladder_bps",
            });
        }
        if !(0.0..0.5).contains(&self.loss_floor) {
            return Err(StreamConfigError {
                field: "loss_floor",
            });
        }
        // A fraction of the shed demand.
        if !(0.0..=1.0).contains(&self.loss_to_retx) {
            return Err(StreamConfigError {
                field: "loss_to_retx",
            });
        }
        if !(0.0..1.0).contains(&self.dip_prob) {
            return Err(StreamConfigError { field: "dip_prob" });
        }
        Ok(())
    }

    /// Total simulated seconds.
    pub fn horizon_s(&self) -> f64 {
        self.days as f64 * 86_400.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(StreamConfig::default().validate().is_ok());
    }

    #[test]
    fn rejects_bad_fields() {
        let c = StreamConfig {
            capacity_bps: 0.0,
            ..Default::default()
        };
        assert!(c.validate().is_err());

        let c = StreamConfig {
            days: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());

        // Ladder must be ascending.
        let c = StreamConfig {
            ladder_bps: vec![2e6, 1e6],
            ..Default::default()
        };
        assert!(c.validate().is_err());

        let c = StreamConfig {
            loss_floor: 0.9,
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }

    /// Each field `validate` checks rejects NaN and its out-of-range
    /// values, naming itself in the error.
    #[test]
    fn rejects_each_bad_field_by_name() {
        type Set = fn(&mut StreamConfig, f64);
        let cases: [(&str, Set, &[f64]); 7] = [
            (
                "queue_capacity_s",
                |c, v| c.queue_capacity_s = v,
                &[f64::NAN, -0.1, f64::INFINITY],
            ),
            (
                "throughput_noise_sigma",
                |c, v| c.throughput_noise_sigma = v,
                &[f64::NAN, -0.1, f64::INFINITY],
            ),
            (
                "fixed_retx_bytes_per_s",
                |c, v| c.fixed_retx_bytes_per_s = v,
                &[f64::NAN, -1.0, f64::INFINITY],
            ),
            (
                "access_sigma",
                |c, v| c.access_sigma = v,
                &[f64::NAN, -0.1, f64::INFINITY],
            ),
            (
                "resume_buffer_s",
                |c, v| c.resume_buffer_s = v,
                &[f64::NAN, 0.0, -1.0, f64::INFINITY],
            ),
            (
                "loss_to_retx",
                |c, v| c.loss_to_retx = v,
                &[f64::NAN, -0.01, 1.5, f64::INFINITY],
            ),
            (
                "ladder_bps",
                |c, v| c.ladder_bps[0] = v,
                &[f64::NAN, f64::NEG_INFINITY],
            ),
        ];
        for (field, set, bad) in cases {
            for &v in bad {
                let mut c = StreamConfig::default();
                set(&mut c, v);
                assert_eq!(
                    c.validate(),
                    Err(StreamConfigError { field }),
                    "{field} = {v}"
                );
            }
        }
        // Zero is in range for the non-negative fields.
        let c = StreamConfig {
            queue_capacity_s: 0.0,
            throughput_noise_sigma: 0.0,
            fixed_retx_bytes_per_s: 0.0,
            access_sigma: 0.0,
            loss_to_retx: 0.0,
            ..Default::default()
        };
        assert!(c.validate().is_ok());
    }

    #[test]
    fn horizon_math() {
        let c = StreamConfig {
            days: 5,
            ..Default::default()
        };
        assert_eq!(c.horizon_s(), 432_000.0);
    }
}
