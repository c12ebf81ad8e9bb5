//! The MapReduce shuffle: an all-to-all exchange that routes each item to
//! the rank owning its bucket, so that "pairs with the same key are stored
//! consecutively in a bucket on the same node" (paper §III.A.2).
//!
//! A rank first works out its `Plan` — which ranks it will message, with
//! what — and only then enters the collective that tells it how many
//! batches to expect. All `n` ranks block there together, so the plan and
//! what the collective carries hold one entry per batch, not one per rank:
//! an `n`-slot table per rank is `n²` slots alive at once.

use crate::collectives::CollectiveSeq;
use crate::comm::Communicator;
use simtime::SimCtx;

/// Tag space reserved for shuffle traffic.
pub(crate) const SHUFFLE_TAG_BASE: u64 = 1 << 47;

/// An item entering the shuffle: destined for `bucket`, carrying `bytes`
/// of payload on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct ShuffleItem<T> {
    /// Bucket (hashed key) the item belongs to.
    pub bucket: u64,
    /// Wire size used for timing.
    pub bytes: u64,
    /// The payload.
    pub value: T,
}

/// Maps a bucket to its owning rank (contiguous block mapping is *not*
/// used — modulo spreads hot buckets like MapReduce's default hash
/// partitioner).
pub fn bucket_owner(bucket: u64, ranks: usize) -> usize {
    (bucket % ranks as u64) as usize
}

/// Per-destination batch counts, sorted by destination, zeros left out.
type Counts = Vec<(usize, u64)>;

/// What one rank puts into a shuffle.
#[derive(Debug, PartialEq)]
struct Plan<T> {
    /// `(dst, 1)` for each rank this rank will message.
    senders: Counts,
    /// The items this rank already owns.
    mine: Vec<ShuffleItem<T>>,
    /// The non-empty `(dst, wire bytes, batch)` sends, in send order: the
    /// ring from `me + 1`.
    outgoing: Vec<(usize, u64, Vec<ShuffleItem<T>>)>,
}

/// Partitions `items` by owner among `n` ranks, as seen from rank `me`.
/// The `n`-slot partition table lives only inside this function: kept
/// across the collective, the tables of 1000 ranks were 24 MB of mostly
/// empty `Vec` headers. Items are counted per owner first, so every batch
/// is allocated once at its exact size: a batch is in flight until its
/// owner receives it, and one grown by pushes carried up to its length
/// again in unused capacity.
fn plan<T>(n: usize, me: usize, items: Vec<ShuffleItem<T>>) -> Plan<T> {
    let mut counts = vec![0usize; n];
    for item in &items {
        counts[bucket_owner(item.bucket, n)] += 1;
    }
    let senders = (0..n)
        .filter(|&dst| dst != me && counts[dst] > 0)
        .map(|dst| (dst, 1))
        .collect();
    let mut table: Vec<Vec<ShuffleItem<T>>> = counts.into_iter().map(Vec::with_capacity).collect();
    for item in items {
        let dst = bucket_owner(item.bucket, n);
        table[dst].push(item);
    }
    let mine = std::mem::take(&mut table[me]);
    let outgoing = (1..n)
        .map(|offset| (me + offset) % n)
        .filter_map(|dst| {
            let batch = std::mem::take(&mut table[dst]);
            let bytes = batch.iter().map(|i| i.bytes).sum();
            (!batch.is_empty()).then_some((dst, bytes, batch))
        })
        .collect();
    Plan {
        senders,
        mine,
        outgoing,
    }
}

/// Executes the shuffle from this rank: sends every item to its bucket
/// owner and returns all items this rank owns, grouped by bucket
/// (ascending), with stable source order (by source rank, then send
/// order) inside each bucket.
///
/// Every rank must call `shuffle` collectively. The exchange is *sparse*:
/// a cheap reduce and scatter of per-destination batch counts first tells
/// each rank how many non-empty batches are headed its way, and only
/// non-empty batches travel. With k buckets on n ranks that is O(n·min(k, n))
/// messages instead of the dense all-to-all's O(n²) — the difference
/// between minutes and seconds of engine time at 1000 ranks. Results are
/// deterministic regardless: received batches are re-sorted by source
/// rank before grouping. [`SimCtx::wait`] on [`shuffle_async`].
pub fn shuffle<T: Send + 'static>(
    comm: &Communicator,
    seq: &CollectiveSeq,
    ctx: &SimCtx,
    items: Vec<ShuffleItem<T>>,
) -> Vec<ShuffleItem<T>> {
    ctx.wait(shuffle_async(comm, seq, ctx, items))
}

/// The future behind [`shuffle`].
pub async fn shuffle_async<T: Send + 'static>(
    comm: &Communicator,
    seq: &CollectiveSeq,
    ctx: &SimCtx,
    items: Vec<ShuffleItem<T>>,
) -> Vec<ShuffleItem<T>> {
    let me = comm.rank();
    // A fresh op id, shared across ranks because they call the same
    // collectives and shuffles in the same (SPMD) order.
    let op = seq.next();

    let Plan {
        senders,
        mine,
        outgoing,
    } = plan(comm.size(), me, items);

    // Metadata exchange: each rank contributes the destinations it will
    // actually message; their sum, reduced to rank 0 and scattered, tells
    // every rank its incoming batch count. Timed as one u64 per rank on
    // the wire — the size-exchange phase real shuffles piggyback on their
    // control plane — but carried sparse.
    let n = comm.size();
    let coll = comm.collectives(seq);
    let total = coll.reduce_async(ctx, 0, 8 * n as u64, senders, merge_counts).await;
    let dense = total.map(|total| {
        let mut dense = vec![0u64; n];
        for (dst, count) in total {
            dense[dst] = count;
        }
        dense
    });
    let incoming = coll.scatter_async(ctx, 0, 8, dense).await;

    for (dst, bytes, batch) in outgoing {
        comm.send_async(ctx, dst, SHUFFLE_TAG_BASE | op, bytes, batch).await;
    }

    // Receive exactly the announced number of batches, from whichever
    // ranks sent them.
    let mut received: Vec<(usize, Vec<ShuffleItem<T>>)> = Vec::with_capacity(incoming as usize + 1);
    received.push((me, mine));
    for _ in 0..incoming {
        let (src, batch) =
            comm.recv_any_async::<Vec<ShuffleItem<T>>>(ctx, SHUFFLE_TAG_BASE | op).await;
        received.push((src, batch));
    }
    received.sort_by_key(|(src, _)| *src);

    // Group by bucket with stable source order.
    let mut all: Vec<ShuffleItem<T>> = received.into_iter().flat_map(|(_, b)| b).collect();
    all.sort_by_key(|item| item.bucket);
    all
}

/// The sum of two count lists.
fn merge_counts(a: Counts, b: Counts) -> Counts {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push((a[i].0, a[i].1 + b[j].1));
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Network;
    use crate::params::NetworkParams;
    use parking_lot::Mutex;
    use simtime::{Sim, SimTime};
    use std::sync::Arc;

    fn run_shuffle(
        n: usize,
        make_items: impl Fn(usize) -> Vec<ShuffleItem<u64>> + Send + Sync + 'static,
    ) -> Vec<Vec<ShuffleItem<u64>>> {
        run_ranks(n, move |comm, seq, ctx| {
            shuffle(comm, seq, ctx, make_items(comm.rank()))
        })
    }

    fn item(bucket: u64, value: u64) -> ShuffleItem<u64> {
        ShuffleItem {
            bucket,
            bytes: 8,
            value,
        }
    }

    type Sends = Vec<(usize, u64, Vec<ShuffleItem<u64>>)>;

    /// The shuffle as it was before the plan and its counts were compacted
    /// — the `n`-slot table kept across the collective, walked densely from
    /// `me`, and dense count vectors summed element-wise on their way to
    /// rank 0 — the reference for `plan` and `shuffle`. Returns its
    /// `senders` vector and its sends, in order, next to the result.
    fn shuffle_dense(
        comm: &Communicator,
        seq: &CollectiveSeq,
        ctx: &SimCtx,
        items: Vec<ShuffleItem<u64>>,
    ) -> (Vec<u64>, Sends, Vec<ShuffleItem<u64>>) {
        let n = comm.size();
        let me = comm.rank();
        let op = seq.next();
        let mut outgoing: Vec<Vec<ShuffleItem<u64>>> = (0..n).map(|_| Vec::new()).collect();
        for item in items {
            let dst = bucket_owner(item.bucket, n);
            outgoing[dst].push(item);
        }
        let senders: Vec<u64> = (0..n)
            .map(|dst| u64::from(dst != me && !outgoing[dst].is_empty()))
            .collect();
        let coll = comm.collectives(seq);
        let sum = |a: Vec<u64>, b: Vec<u64>| a.into_iter().zip(b).map(|(x, y)| x + y).collect();
        let total = coll.reduce(ctx, 0, 8 * n as u64, senders.clone(), sum);
        let incoming = coll.scatter(ctx, 0, 8, total);
        let mut mine: Vec<ShuffleItem<u64>> = Vec::new();
        let mut sent = Sends::new();
        for offset in 0..n {
            let dst = (me + offset) % n;
            let batch = std::mem::take(&mut outgoing[dst]);
            if dst == me {
                mine.extend(batch);
            } else if !batch.is_empty() {
                let bytes: u64 = batch.iter().map(|i| i.bytes).sum();
                sent.push((dst, bytes, batch.clone()));
                comm.send(ctx, dst, SHUFFLE_TAG_BASE | op, bytes, batch);
            }
        }
        let mut received = vec![(me, mine)];
        for _ in 0..incoming {
            received.push(comm.recv_any::<Vec<ShuffleItem<u64>>>(ctx, SHUFFLE_TAG_BASE | op));
        }
        received.sort_by_key(|(src, _)| *src);
        let mut all: Vec<ShuffleItem<u64>> = received.into_iter().flat_map(|(_, b)| b).collect();
        all.sort_by_key(|item| item.bucket);
        (senders, sent, all)
    }

    /// Runs `each` as rank `0..n` of one simulation and collects what the
    /// ranks return.
    fn run_ranks<R: Default + Send + 'static>(
        n: usize,
        each: impl Fn(&Communicator, &CollectiveSeq, &SimCtx) -> R + Send + Sync + 'static,
    ) -> Vec<R> {
        let mut sim = Sim::new();
        let net = Network::new("n", n, NetworkParams::ideal());
        let results: Arc<Mutex<Vec<R>>> =
            Arc::new(Mutex::new((0..n).map(|_| R::default()).collect()));
        let each = Arc::new(each);
        for rank in 0..n {
            let comm = net.communicator(rank);
            let (results, each) = (results.clone(), each.clone());
            sim.spawn(&format!("rank{rank}"), move |ctx| {
                let out = each(&comm, &CollectiveSeq::new(), ctx);
                results.lock()[rank] = out;
            });
        }
        sim.run().unwrap();
        Arc::try_unwrap(results).ok().unwrap().into_inner()
    }

    /// Each rank's values and total; the run's end time; its events,
    /// hand-offs and inline resumes.
    type Round = (Vec<(Vec<u64>, u64)>, SimTime, [u64; 3]);

    /// One SPMD round — a shuffle, an allgather of what each rank got, an
    /// allreduce and a barrier over a fabric with real latency — with
    /// each rank a stackful process or a task as `task(rank)` says. The
    /// ranks' results, and the end time and counters of the run.
    fn spmd_round(n: usize, task: impl Fn(usize) -> bool) -> Round {
        async fn body(comm: &Communicator, ctx: &SimCtx) -> (Vec<u64>, u64) {
            let seq = CollectiveSeq::new();
            let me = comm.rank() as u64;
            let items = (0..3 + me).map(|v| item(v * 7 % 5, me * 100 + v)).collect();
            let got = shuffle_async(comm, &seq, ctx, items).await;
            let coll = comm.collectives(&seq);
            let sizes = coll.allgather_async(ctx, 8, got.len() as u64).await;
            let total = coll.allreduce_async(ctx, 8, me, |a, b| a + b).await;
            coll.barrier_async(ctx).await;
            let mut out: Vec<u64> = got.into_iter().map(|i| i.value).collect();
            out.extend(sizes);
            (out, total)
        }
        let mut sim = Sim::new();
        let net = Network::new("n", n, NetworkParams::infiniband_qdr());
        let results = Arc::new(Mutex::new(vec![(Vec::new(), 0); n]));
        for rank in 0..n {
            let (comm, results) = (net.communicator(rank), results.clone());
            if task(rank) {
                sim.spawn_task(&format!("rank{rank}"), move |ctx| async move {
                    let out = body(&comm, &ctx).await;
                    results.lock()[rank] = out;
                });
            } else {
                sim.spawn(&format!("rank{rank}"), move |ctx| {
                    let out = ctx.wait(body(&comm, ctx));
                    results.lock()[rank] = out;
                });
            }
        }
        let r = sim.run().unwrap();
        let counts = [r.events_processed, r.handoffs, r.inline_resumes];
        (Arc::try_unwrap(results).ok().unwrap().into_inner(), r.end_time, counts)
    }

    #[test]
    fn ranks_as_tasks_run_the_same_round_as_stackful_ranks() {
        for n in [1, 2, 5, 8] {
            let stackful = spmd_round(n, |_| false);
            assert_eq!(spmd_round(n, |_| true), stackful, "n = {n}, every rank a task");
            assert_eq!(spmd_round(n, |r| r % 2 == 0), stackful, "n = {n}, mixed");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Over random rank counts and item sets — sparse (fewer buckets
        /// than ranks) and dense — every rank announces the same `senders`,
        /// sends the same `(dst, bytes, items)` sequence and gets the same
        /// vector back as under the dense reference.
        #[test]
        fn plan_and_result_match_the_dense_reference(
            n in 1usize..10,
            buckets in 1u64..40,
            drawn in proptest::collection::vec((0usize..10, 0u64..40, 1u64..100), 0..150),
        ) {
            let items_of = move |rank: usize| -> Vec<ShuffleItem<u64>> {
                drawn
                    .iter()
                    .enumerate()
                    .filter(|(_, (src, _, _))| src % n == rank)
                    .map(|(i, &(_, bucket, bytes))| ShuffleItem {
                        bucket: bucket % buckets,
                        bytes,
                        value: i as u64,
                    })
                    .collect()
            };
            let (a, b) = (items_of.clone(), items_of.clone());
            let reference = run_ranks(n, move |comm, seq, ctx| {
                shuffle_dense(comm, seq, ctx, a(comm.rank()))
            });
            let got = run_ranks(n, move |comm, seq, ctx| shuffle(comm, seq, ctx, b(comm.rank())));
            for (me, (senders, sent, result)) in reference.into_iter().enumerate() {
                let plan = plan(n, me, items_of(me));
                let mut dense = vec![0u64; n];
                for (dst, count) in plan.senders {
                    dense[dst] = count;
                }
                proptest::prop_assert_eq!(dense, senders);
                proptest::prop_assert_eq!(plan.outgoing, sent);
                proptest::prop_assert_eq!(&got[me], &result);
            }
        }
    }

    #[test]
    fn plan_batches_are_allocated_at_their_exact_size() {
        for n in [1, 2, 3, 7, 16] {
            for me in 0..n {
                let items = (0..97u64).map(|i| item(i * i % 23, i)).collect();
                let plan = plan(n, me, items);
                assert_eq!(plan.mine.capacity(), plan.mine.len());
                for (dst, _, batch) in &plan.outgoing {
                    assert_eq!(batch.capacity(), batch.len(), "n {n}, me {me}, dst {dst}");
                }
            }
        }
    }

    #[test]
    fn items_land_on_bucket_owners() {
        let out = run_shuffle(3, |rank| {
            (0..6).map(|b| item(b, rank as u64 * 100 + b)).collect()
        });
        for (rank, items) in out.iter().enumerate() {
            assert!(!items.is_empty());
            for it in items {
                assert_eq!(bucket_owner(it.bucket, 3), rank);
            }
        }
    }

    #[test]
    fn multiset_is_conserved() {
        let out = run_shuffle(4, |rank| {
            (0..10)
                .map(|i| item((rank as u64 * 7 + i) % 5, rank as u64 * 1000 + i))
                .collect()
        });
        let mut all: Vec<u64> = out.iter().flatten().map(|i| i.value).collect();
        all.sort_unstable();
        let mut expect: Vec<u64> = (0..4u64)
            .flat_map(|r| (0..10).map(move |i| r * 1000 + i))
            .collect();
        expect.sort_unstable();
        assert_eq!(all, expect);
    }

    #[test]
    fn buckets_are_grouped_and_sorted() {
        let out = run_shuffle(2, |rank| {
            vec![item(4, rank as u64), item(0, rank as u64), item(2, rank as u64)]
        });
        // Rank 0 owns buckets 0, 2, 4.
        let buckets: Vec<u64> = out[0].iter().map(|i| i.bucket).collect();
        let mut sorted = buckets.clone();
        sorted.sort_unstable();
        assert_eq!(buckets, sorted);
        assert!(out[1].is_empty());
    }

    #[test]
    fn source_order_is_stable_within_bucket() {
        let out = run_shuffle(2, |rank| {
            vec![item(0, rank as u64 * 10), item(0, rank as u64 * 10 + 1)]
        });
        let values: Vec<u64> = out[0].iter().map(|i| i.value).collect();
        assert_eq!(values, vec![0, 1, 10, 11]);
    }

    #[test]
    fn empty_shuffle_works() {
        let out = run_shuffle(3, |_| Vec::new());
        assert!(out.iter().all(|v| v.is_empty()));
    }

    #[test]
    fn single_rank_shuffle_is_local() {
        let out = run_shuffle(1, |_| vec![item(7, 1), item(3, 2)]);
        let buckets: Vec<u64> = out[0].iter().map(|i| i.bucket).collect();
        assert_eq!(buckets, vec![3, 7]);
    }
}
