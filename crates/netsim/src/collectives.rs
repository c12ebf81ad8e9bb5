//! MPI-style collectives over the point-to-point layer: binomial-tree
//! broadcast/reduce, barrier, gather/scatter, allreduce, and allgather (a
//! gather plus a broadcast).
//!
//! Every rank must call the same collectives in the same order (SPMD); an
//! internal per-communicator sequence number keeps successive operations'
//! messages apart without user-visible tags.

use crate::comm::Communicator;
use simtime::SimCtx;
use std::sync::atomic::{AtomicU64, Ordering};

/// High tag space reserved for collective traffic.
pub(crate) const COLL_TAG_BASE: u64 = 1 << 48;

/// Sequence numbers for collectives, one per communicator. Kept outside
/// `Communicator` so the point-to-point layer stays independent.
#[derive(Default)]
pub struct CollectiveSeq(AtomicU64);

impl CollectiveSeq {
    /// A fresh sequence starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances and returns the next operation id. Exposed so sibling
    /// protocols (the shuffle) can share the same lockstep numbering.
    pub fn next(&self) -> u64 {
        self.0.fetch_add(1, Ordering::Relaxed)
    }
}

fn tag(op: u64, phase: u64) -> u64 {
    COLL_TAG_BASE | (op << 8) | phase
}

/// Collective operations bound to one rank's communicator.
pub struct Collectives<'a> {
    comm: &'a Communicator,
    seq: &'a CollectiveSeq,
}

impl Communicator {
    /// Binds a collectives interface using `seq` for operation numbering.
    /// All ranks of a job must use sequence objects that advance in
    /// lockstep (each rank calling the same collectives in the same order).
    pub fn collectives<'a>(&'a self, seq: &'a CollectiveSeq) -> Collectives<'a> {
        Collectives { comm: self, seq }
    }
}

impl Collectives<'_> {
    /// Broadcast `value` (wire size `bytes`) from `root` to every rank,
    /// binomial tree: O(log n) rounds.
    pub fn bcast<T: Clone + Send + 'static>(
        &self,
        ctx: &SimCtx,
        root: usize,
        bytes: u64,
        value: Option<T>,
    ) -> T {
        let op = self.seq.next();
        self.bcast_inner(ctx, root, bytes, value, op)
    }

    fn bcast_inner<T: Clone + Send + 'static>(
        &self,
        ctx: &SimCtx,
        root: usize,
        bytes: u64,
        value: Option<T>,
        op: u64,
    ) -> T {
        let n = self.comm.size();
        let rank = self.comm.rank();
        let relative = (rank + n - root) % n;
        let mut current = if relative == 0 {
            Some(value.expect("bcast root must supply the value"))
        } else {
            value
        };

        let mut mask = 1usize;
        while mask < n {
            if relative & mask != 0 {
                let src = (relative - mask + root) % n;
                current = Some(self.comm.recv::<T>(ctx, src, tag(op, 0)));
                break;
            }
            mask <<= 1;
        }
        mask >>= 1;
        let v = current.expect("bcast value must be present after receive phase");
        while mask > 0 {
            if relative + mask < n {
                let dst = (relative + mask + root) % n;
                self.comm.send(ctx, dst, tag(op, 0), bytes, v.clone());
            }
            mask >>= 1;
        }
        v
    }

    /// Reduce every rank's `value` to `root` with the associative
    /// `combine`, binomial tree. Returns `Some(total)` on the root, `None`
    /// elsewhere. Combine order is fixed by the tree, so floating-point
    /// results are deterministic.
    pub fn reduce<T: Send + 'static>(
        &self,
        ctx: &SimCtx,
        root: usize,
        bytes: u64,
        value: T,
        combine: impl Fn(T, T) -> T,
    ) -> Option<T> {
        let op = self.seq.next();
        self.reduce_inner(ctx, root, bytes, value, combine, op)
    }

    fn reduce_inner<T: Send + 'static>(
        &self,
        ctx: &SimCtx,
        root: usize,
        bytes: u64,
        value: T,
        combine: impl Fn(T, T) -> T,
        op: u64,
    ) -> Option<T> {
        let n = self.comm.size();
        let rank = self.comm.rank();
        let relative = (rank + n - root) % n;
        let mut acc = value;
        let mut mask = 1usize;
        while mask < n {
            if relative & mask == 0 {
                let child_rel = relative | mask;
                if child_rel < n {
                    let src = (child_rel + root) % n;
                    let part = self.comm.recv::<T>(ctx, src, tag(op, 1));
                    acc = combine(acc, part);
                }
            } else {
                let parent_rel = relative & !mask;
                let dst = (parent_rel + root) % n;
                self.comm.send(ctx, dst, tag(op, 1), bytes, acc);
                return None;
            }
            mask <<= 1;
        }
        Some(acc)
    }

    /// Reduce-then-broadcast allreduce; every rank returns the total.
    pub fn allreduce<T: Clone + Send + 'static>(
        &self,
        ctx: &SimCtx,
        bytes: u64,
        value: T,
        combine: impl Fn(T, T) -> T,
    ) -> T {
        let op = self.seq.next();
        let reduced = self.reduce_inner(ctx, 0, bytes, value, combine, op);
        self.bcast_inner(ctx, 0, bytes, reduced, op + (1 << 32))
    }

    /// Synchronizes all ranks: nobody returns until everybody has entered.
    pub fn barrier(&self, ctx: &SimCtx) {
        // A zero-byte allreduce of unit.
        self.allreduce(ctx, 0, (), |(), ()| ());
    }

    /// Gather to `root`: every rank contributes `value`; the root returns
    /// `Some(vec)` indexed by rank, others `None`. Flat (non-tree) — fine
    /// for small payloads, O(n) messages into the root.
    pub fn gather<T: Send + 'static>(
        &self,
        ctx: &SimCtx,
        root: usize,
        bytes_each: u64,
        value: T,
    ) -> Option<Vec<T>> {
        let op = self.seq.next();
        let n = self.comm.size();
        let rank = self.comm.rank();
        if rank == root {
            let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
            slots[root] = Some(value);
            for src in (0..n).filter(|&s| s != root) {
                slots[src] = Some(self.comm.recv::<T>(ctx, src, tag(op, 2)));
            }
            Some(slots.into_iter().map(|s| s.unwrap()).collect())
        } else {
            self.comm.send(ctx, root, tag(op, 2), bytes_each, value);
            None
        }
    }

    /// Scatter from `root`: the root supplies one value per rank
    /// (`Some(values)`, length = size); every rank returns its own slot.
    pub fn scatter<T: Send + 'static>(
        &self,
        ctx: &SimCtx,
        root: usize,
        bytes_each: u64,
        values: Option<Vec<T>>,
    ) -> T {
        let op = self.seq.next();
        let n = self.comm.size();
        let rank = self.comm.rank();
        if rank == root {
            let mut values = values.expect("scatter root must supply the values");
            assert_eq!(values.len(), n, "scatter needs one value per rank");
            // Send in reverse order so we can pop without shifting; tags
            // disambiguate, order does not matter.
            let mut mine = None;
            for dst in (0..n).rev() {
                let v = values.pop().unwrap();
                if dst == rank {
                    mine = Some(v);
                } else {
                    self.comm.send(ctx, dst, tag(op, 3), bytes_each, v);
                }
            }
            mine.expect("root keeps its own slot")
        } else {
            assert!(values.is_none(), "non-root ranks pass None to scatter");
            self.comm.recv::<T>(ctx, root, tag(op, 3))
        }
    }

    /// Allgather: every rank contributes `value` (wire size `bytes_each`)
    /// and receives the full vector indexed by rank. Gather-to-0 then
    /// binomial broadcast of the assembled vector — O(n) messages and
    /// O(log n) latency rounds, where the textbook ring's O(n²) messages
    /// dominate engine time on 1000-rank jobs.
    pub fn allgather<T: Clone + Send + 'static>(
        &self,
        ctx: &SimCtx,
        bytes_each: u64,
        value: T,
    ) -> Vec<T> {
        let n = self.comm.size();
        let gathered = self.gather(ctx, 0, bytes_each, value);
        self.bcast(ctx, 0, bytes_each * n as u64, gathered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Network;
    use crate::params::NetworkParams;
    use parking_lot::Mutex;
    use simtime::{Sim, SimTime};
    use std::sync::Arc;

    /// Runs `body(rank, ctx, collectives)` on `n` ranks and returns the
    /// per-rank results.
    fn run_spmd<R: Send + 'static>(
        n: usize,
        params: NetworkParams,
        body: impl Fn(usize, &SimCtx, &Collectives<'_>) -> R + Send + Sync + 'static,
    ) -> Vec<R> {
        let mut sim = Sim::new();
        let net = Network::new("n", n, params);
        let results: Arc<Mutex<Vec<Option<R>>>> = Arc::new(Mutex::new((0..n).map(|_| None).collect()));
        let body = Arc::new(body);
        for rank in 0..n {
            let comm = net.communicator(rank);
            let results = results.clone();
            let body = body.clone();
            sim.spawn(&format!("rank{rank}"), move |ctx| {
                let seq = CollectiveSeq::new();
                let coll = comm.collectives(&seq);
                let r = body(rank, ctx, &coll);
                results.lock()[rank] = Some(r);
            });
        }
        sim.run().unwrap();
        Arc::try_unwrap(results)
            .ok()
            .expect("all rank processes finished")
            .into_inner()
            .into_iter()
            .map(|r| r.unwrap())
            .collect()
    }

    #[test]
    fn bcast_delivers_to_all_ranks() {
        for n in [1, 2, 3, 5, 8] {
            let got = run_spmd(n, NetworkParams::ideal(), move |rank, ctx, coll| {
                let v = if rank == 2 % n { Some(vec![9u8, 9]) } else { None };
                coll.bcast(ctx, 2 % n, 2, v)
            });
            assert!(got.iter().all(|v| v == &vec![9u8, 9]), "n = {n}");
        }
    }

    #[test]
    fn reduce_sums_all_ranks() {
        for n in [1, 2, 4, 7] {
            let got = run_spmd(n, NetworkParams::ideal(), move |rank, ctx, coll| {
                coll.reduce(ctx, 0, 8, rank as u64, |a, b| a + b)
            });
            let expect: u64 = (0..n as u64).sum();
            assert_eq!(got[0], Some(expect), "n = {n}");
            assert!(got[1..].iter().all(|r| r.is_none()));
        }
    }

    #[test]
    fn allreduce_gives_everyone_the_total() {
        for n in [1, 2, 3, 6, 8] {
            let got = run_spmd(n, NetworkParams::ideal(), move |rank, ctx, coll| {
                coll.allreduce(ctx, 8, (rank + 1) as u64, |a, b| a + b)
            });
            let expect: u64 = (1..=n as u64).sum();
            assert!(got.iter().all(|&v| v == expect), "n = {n}: {got:?}");
        }
    }

    #[test]
    fn allgather_orders_by_rank() {
        for n in [1, 2, 5, 8] {
            let got = run_spmd(n, NetworkParams::ideal(), move |rank, ctx, coll| {
                coll.allgather(ctx, 8, rank * 10)
            });
            let expect: Vec<usize> = (0..n).map(|r| r * 10).collect();
            assert!(got.iter().all(|v| v == &expect), "n = {n}: {got:?}");
        }
    }

    #[test]
    fn gather_collects_in_rank_order() {
        for n in [1, 3, 6] {
            let got = run_spmd(n, NetworkParams::ideal(), move |rank, ctx, coll| {
                coll.gather(ctx, 0, 8, rank * 2)
            });
            let expect: Vec<usize> = (0..n).map(|r| r * 2).collect();
            assert_eq!(got[0], Some(expect), "n = {n}");
            assert!(got[1..].iter().all(|g| g.is_none()));
        }
    }

    #[test]
    fn scatter_distributes_root_values() {
        for n in [1, 2, 5] {
            let got = run_spmd(n, NetworkParams::ideal(), move |rank, ctx, coll| {
                let values = (rank == 1 % n).then(|| (0..n).map(|i| i * 10).collect());
                coll.scatter(ctx, 1 % n, 8, values)
            });
            let expect: Vec<usize> = (0..n).map(|r| r * 10).collect();
            assert_eq!(got, expect, "n = {n}");
        }
    }

    #[test]
    fn gather_then_scatter_round_trips() {
        let got = run_spmd(4, NetworkParams::ideal(), |rank, ctx, coll| {
            let gathered = coll.gather(ctx, 0, 8, rank + 100);
            coll.scatter(ctx, 0, 8, gathered)
        });
        assert_eq!(got, vec![100, 101, 102, 103]);
    }

    #[test]
    fn barrier_aligns_ranks_to_slowest() {
        let got = run_spmd(4, NetworkParams::ideal(), |rank, ctx, coll| {
            ctx.hold(SimTime::from_secs(rank as u64));
            coll.barrier(ctx);
            ctx.now()
        });
        // Rank 3 enters at t=3; everyone leaves at >= 3.
        assert!(got.iter().all(|&t| t >= SimTime::from_secs(3)), "{got:?}");
    }

    #[test]
    fn successive_collectives_do_not_interfere() {
        let got = run_spmd(4, NetworkParams::ideal(), |rank, ctx, coll| {
            let a = coll.allreduce(ctx, 8, rank as u64, |a, b| a + b);
            let b = coll.allreduce(ctx, 8, 1u64, |a, b| a + b);
            let c = coll.allgather(ctx, 8, rank);
            (a, b, c)
        });
        for (a, b, c) in got {
            assert_eq!(a, 6);
            assert_eq!(b, 4);
            assert_eq!(c, vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn bcast_cost_scales_logarithmically() {
        // With α=1s and negligible wire time, a binomial bcast on n ranks
        // finishes by ceil(log2 n) * α, far better than (n-1) * α.
        let params = NetworkParams {
            latency: SimTime::from_secs(1),
            bandwidth: 1e12,
        };
        let got = run_spmd(8, params, |rank, ctx, coll| {
            let v = if rank == 0 { Some(0u8) } else { None };
            coll.bcast(ctx, 0, 1, v);
            ctx.now()
        });
        let finish = got.iter().cloned().fold(SimTime::ZERO, SimTime::max);
        assert!(
            finish <= SimTime::from_secs_f64(3.1),
            "binomial tree should finish in ~3 rounds, took {finish}"
        );
    }

    #[test]
    fn reduce_is_deterministic_for_floats() {
        let run = || {
            run_spmd(7, NetworkParams::ideal(), |rank, ctx, coll| {
                let x = 0.1f64 * (rank as f64 + 1.0);
                coll.allreduce(ctx, 8, x, |a, b| a + b)
            })
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same tree -> bit-identical float sums");
    }
}
