//! # netsim — simulated cluster interconnect
//!
//! An MPI-like messaging layer over [`simtime`]'s virtual clock:
//!
//! - [`params`] — the α-β link model with Ethernet/InfiniBand presets.
//! - [`comm`] — a full-bisection fabric with per-sender egress
//!   serialization and tagged, typed point-to-point send/receive.
//! - [`collectives`] — binomial-tree broadcast/reduce, barrier, allreduce,
//!   allgather, all with deterministic (tree-fixed) float combining.
//! - [`mod@shuffle`] — the MapReduce all-to-all bucket exchange.
//! - [`faults`] — transient link-disruption windows (jitter, congestion,
//!   partition) for fault-injection experiments.
//! - [`heartbeat`] — deterministic process-loss detection and master
//!   failover timing for the epoch-based recovery driver.
//!
//! Nodes are simulation processes in one address space; payloads move by
//! pointer, while *timing* follows declared wire sizes — exactly what a
//! reproduction needs for scaling studies without a physical cluster. What
//! an in-flight message costs the host is its payload plus a 48-byte
//! header (docs/engine.md, "What an in-flight message costs").

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod collectives;
pub mod comm;
pub mod faults;
pub mod heartbeat;
pub mod params;
pub mod shuffle;

pub use collectives::{CollectiveSeq, Collectives};
pub use comm::{Communicator, Network};
pub use faults::LinkDisruption;
pub use heartbeat::HeartbeatMonitor;
pub use params::NetworkParams;
pub use shuffle::{bucket_owner, shuffle, shuffle_async, ShuffleItem};

#[cfg(test)]
mod proptests {
    use super::*;
    use parking_lot::Mutex;
    use proptest::prelude::*;
    use simtime::Sim;
    use std::sync::Arc;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn allreduce_sum_matches_serial(
            n in 1usize..9,
            values in proptest::collection::vec(0u64..1000, 9),
        ) {
            let mut sim = Sim::new();
            let net = Network::new("n", n, NetworkParams::ideal());
            let results = Arc::new(Mutex::new(vec![0u64; n]));
            for (rank, &v) in values.iter().enumerate().take(n) {
                let comm = net.communicator(rank);
                let results = results.clone();
                sim.spawn(&format!("r{rank}"), move |ctx| {
                    let seq = CollectiveSeq::new();
                    let total = comm.collectives(&seq).allreduce(ctx, 8, v, |a, b| a + b);
                    results.lock()[rank] = total;
                });
            }
            sim.run().unwrap();
            let expect: u64 = values[..n].iter().sum();
            prop_assert!(results.lock().iter().all(|&t| t == expect));
        }

        #[test]
        fn shuffle_conserves_multiset(
            n in 1usize..6,
            buckets in proptest::collection::vec(0u64..16, 0..40),
        ) {
            let mut sim = Sim::new();
            let net = Network::new("n", n, NetworkParams::ideal());
            let results = Arc::new(Mutex::new(vec![Vec::new(); n]));
            let buckets = Arc::new(buckets);
            for rank in 0..n {
                let comm = net.communicator(rank);
                let results = results.clone();
                let buckets = buckets.clone();
                sim.spawn(&format!("r{rank}"), move |ctx| {
                    let seq = CollectiveSeq::new();
                    // Each rank contributes the items whose index ≡ rank.
                    let items: Vec<ShuffleItem<u64>> = buckets
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| i % n == rank)
                        .map(|(i, &b)| ShuffleItem { bucket: b, bytes: 8, value: i as u64 })
                        .collect();
                    let out = shuffle(&comm, &seq, ctx, items);
                    results.lock()[rank] = out;
                });
            }
            sim.run().unwrap();
            let results = results.lock();
            // Ownership respected.
            for (rank, items) in results.iter().enumerate() {
                for it in items {
                    prop_assert_eq!(bucket_owner(it.bucket, n), rank);
                }
            }
            // Conservation.
            let mut all: Vec<u64> = results.iter().flatten().map(|i| i.value).collect();
            all.sort_unstable();
            let expect: Vec<u64> = (0..buckets.len() as u64).collect();
            prop_assert_eq!(all, expect);
        }
    }
}
