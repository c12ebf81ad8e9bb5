//! Process-loss detection for the resilient driver: heartbeats and
//! failover timing, as pure deterministic arithmetic.
//!
//! Every worker (and the master's standby) exchanges periodic heartbeats
//! over the control plane. A crash at virtual time `t` is *declared* only
//! after the first heartbeat the dead process misses, plus a grace
//! timeout tolerant of control-plane jitter — so detection latency
//! depends on where the crash lands inside the heartbeat period, exactly
//! like a real membership protocol. The epoch-based recovery driver in
//! `prs-core` charges this delay (plus, for master crashes, a standby
//! promotion cost) to the run's virtual clock between epochs, keeping
//! recovered runs time-comparable to fault-free ones without simulating
//! the heartbeat messages themselves.

use serde::{Deserialize, Serialize};

/// Deterministic heartbeat/failover timing model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HeartbeatMonitor {
    /// Seconds between heartbeats.
    pub interval_secs: f64,
    /// Grace period after a missed heartbeat before the peer is declared
    /// dead.
    pub timeout_secs: f64,
    /// Standby-master promotion cost: replaying the last checkpoint and
    /// re-establishing control channels.
    pub failover_secs: f64,
}

impl Default for HeartbeatMonitor {
    fn default() -> Self {
        HeartbeatMonitor {
            interval_secs: 0.1,
            timeout_secs: 0.2,
            failover_secs: 0.5,
        }
    }
}

impl HeartbeatMonitor {
    /// A monitor with explicit timing (all values must be positive and
    /// finite).
    pub fn new(interval_secs: f64, timeout_secs: f64, failover_secs: f64) -> Self {
        assert!(interval_secs.is_finite() && interval_secs > 0.0);
        assert!(timeout_secs.is_finite() && timeout_secs > 0.0);
        assert!(failover_secs.is_finite() && failover_secs >= 0.0);
        HeartbeatMonitor {
            interval_secs,
            timeout_secs,
            failover_secs,
        }
    }

    /// Delay between a crash at `at_secs` and the cluster declaring the
    /// process dead: the remainder of the current heartbeat period (the
    /// first beat the dead process misses) plus the grace timeout.
    pub fn detection_delay(&self, at_secs: f64) -> f64 {
        assert!(at_secs.is_finite() && at_secs >= 0.0);
        let phase = at_secs / self.interval_secs;
        let next_beat = phase.floor() + 1.0;
        (next_beat * self.interval_secs - at_secs) + self.timeout_secs
    }

    /// Total delay charged for a master crash at `at_secs`: detection plus
    /// standby promotion.
    pub fn master_failover_delay(&self, at_secs: f64) -> f64 {
        self.detection_delay(at_secs) + self.failover_secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_waits_for_next_beat_plus_timeout() {
        let m = HeartbeatMonitor::new(1.0, 0.5, 2.0);
        // Crash just after a beat: almost a full period until the miss.
        assert!((m.detection_delay(3.0) - 1.5).abs() < 1e-12);
        assert!((m.detection_delay(3.25) - 1.25).abs() < 1e-12);
        // Crash just before a beat: the miss is imminent.
        assert!((m.detection_delay(3.9) - 0.6).abs() < 1e-9);
    }

    #[test]
    fn detection_delay_is_bounded() {
        let m = HeartbeatMonitor::default();
        for i in 0..100 {
            let t = i as f64 * 0.037;
            let d = m.detection_delay(t);
            assert!(d > m.timeout_secs - 1e-12);
            assert!(d <= m.interval_secs + m.timeout_secs + 1e-12);
        }
    }

    #[test]
    fn master_failover_adds_promotion_cost() {
        let m = HeartbeatMonitor::new(1.0, 0.5, 2.0);
        assert!((m.master_failover_delay(3.0) - 3.5).abs() < 1e-12);
    }

    #[test]
    fn deterministic_for_equal_inputs() {
        let m = HeartbeatMonitor::default();
        assert_eq!(m.detection_delay(1.234), m.detection_delay(1.234));
    }
}
