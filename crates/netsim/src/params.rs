//! Link parameters: the classic α-β (latency-bandwidth) model.

use serde::{Deserialize, Serialize};
use simtime::SimTime;

/// Parameters of every link in the (flat, full-bisection) network.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetworkParams {
    /// Per-message latency (α), seconds.
    pub latency: SimTime,
    /// Per-link bandwidth (β), bytes/s.
    pub bandwidth: f64,
}

impl NetworkParams {
    /// The serialization (egress-occupancy) time of `bytes`: `bytes/β`.
    /// A message takes `α` more end to end.
    pub fn wire_time(&self, bytes: u64) -> SimTime {
        SimTime::from_secs_f64(bytes as f64 / self.bandwidth)
    }

    /// Conservative lookahead for parallel engine stepping: the α latency
    /// floor — no cross-node signal arrives sooner than one link latency,
    /// so per-node event shards may advance that far between merges. Used
    /// as [`simtime::EngineConfig::lookahead`]; purely a batching knob —
    /// determinism never depends on its value (zero is always safe).
    pub fn conservative_lookahead(&self) -> SimTime {
        self.latency
    }

    /// QDR InfiniBand (the FutureGrid Delta fabric): 2 µs, 4 GB/s.
    pub fn infiniband_qdr() -> Self {
        NetworkParams {
            latency: SimTime::from_micros(2.0),
            bandwidth: 4e9,
        }
    }

    /// An idealized zero-cost network, for isolating compute effects.
    pub fn ideal() -> Self {
        NetworkParams {
            latency: SimTime::ZERO,
            bandwidth: f64::INFINITY,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_time_is_alpha_plus_beta() {
        let p = NetworkParams {
            latency: SimTime::from_secs(1),
            bandwidth: 100.0,
        };
        // A message of `bytes` takes `α + bytes/β` end to end.
        assert_eq!((p.latency + p.wire_time(200)).as_secs_f64(), 3.0);
        assert_eq!(p.wire_time(200).as_secs_f64(), 2.0);
    }

    #[test]
    fn ideal_network_is_free() {
        let p = NetworkParams::ideal();
        assert_eq!(p.latency + p.wire_time(1 << 40), SimTime::ZERO);
    }

    #[test]
    fn presets_are_ordered_sensibly() {
        let ib = NetworkParams::infiniband_qdr();
        let ideal = NetworkParams::ideal();
        assert!(ideal.latency < ib.latency);
        assert!(ideal.bandwidth > ib.bandwidth);
    }
}
