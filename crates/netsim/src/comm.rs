//! Point-to-point messaging: a full-bisection fabric of α-β links with
//! per-sender egress serialization, and MPI-style tagged, typed
//! send/receive.

use crate::faults::LinkDisruption;
use crate::params::NetworkParams;
use obs::{kinds, trace_ctx, Obs, TraceCtx};
use parking_lot::Mutex;
use simtime::{Channel, Resource, SimCtx, SimTime};
use std::any::Any;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Traffic class stamped on `msg-send`/`msg-recv` events (`class` attr)
/// so rollups can break fabric bytes out by origin.
const CLASS_P2P: f64 = 0.0;
const CLASS_COLLECTIVE: f64 = 1.0;
const CLASS_SHUFFLE: f64 = 2.0;

fn traffic_class(tag: u64) -> f64 {
    if tag >= crate::collectives::COLL_TAG_BASE {
        CLASS_COLLECTIVE
    } else if tag >= crate::shuffle::SHUFFLE_TAG_BASE {
        CLASS_SHUFFLE
    } else {
        CLASS_P2P
    }
}

/// Observability attachment: the bundle plus per-rank egress lanes and
/// the event kinds, interned once so the per-message cost is a few `Arc`
/// clones.
struct NetObs {
    obs: Obs,
    lanes: Vec<Arc<str>>,
    kind_send: Arc<str>,
    kind_msg_send: Arc<str>,
    kind_msg_recv: Arc<str>,
}

/// An in-flight message. Payloads are type-erased; [`Communicator::recv`]
/// downcasts back to the concrete type. Every cross-rank message also
/// carries what its causal identity is derived from: the sender's
/// per-source `seq` and a handle to the sender's [`TraceCtx`] in the
/// network's context log. The receiver recomputes the flow id and span
/// from them when it stamps the `msg-recv` that pairs with the sender's
/// `msg-send`, so the header stays 48 bytes.
struct Message {
    src: u32,
    /// Index into [`Network::contexts`]; [`UNTRACED`] for self-sends,
    /// which mint no flow.
    ctx: u32,
    tag: u64,
    bytes: u64,
    /// The sender's per-source message sequence number.
    seq: u64,
    payload: Box<dyn Any + Send>,
}

impl Message {
    /// Does this message answer a receive for `(src, tag)`?
    fn matches(&self, src: usize, tag: u64) -> bool {
        self.src as usize == src && self.tag == tag
    }
}

/// [`Message::ctx`] of a self-send: a local move, not a flow.
const UNTRACED: u32 = u32::MAX;

/// The shared fabric: one inbox per rank plus one egress port per rank.
pub struct Network {
    params: NetworkParams,
    inboxes: Vec<Channel<Message>>,
    egress: Vec<Resource>,
    /// Installed fault windows (normally empty; see [`crate::faults`]).
    disruptions: Mutex<Vec<LinkDisruption>>,
    /// Current obs attachment plus a generation counter so communicators
    /// constructed *before* [`Network::attach_obs`] pick the attachment
    /// up on their next operation (each keeps a generation-checked
    /// cache; see [`Communicator::net_obs`]).
    obs: Mutex<Option<Arc<NetObs>>>,
    obs_gen: AtomicU64,
    /// Per-source message sequence numbers for flow-id minting. Each
    /// rank's communicator is driven by exactly one simulation process,
    /// so these advance deterministically.
    flow_seq: Vec<AtomicU64>,
    /// Every context a communicator has installed, in installation order
    /// (entry 0 is the untraced default). Append-only, so the handle a
    /// message carries names its sender's context at send time.
    contexts: Mutex<Vec<TraceCtx>>,
}

impl Network {
    /// Builds a fabric connecting `n` ranks.
    pub fn new(name: &str, n: usize, params: NetworkParams) -> Arc<Self> {
        assert!(n > 0);
        Arc::new(Network {
            params,
            inboxes: (0..n)
                .map(|r| Channel::new(&format!("{name}-inbox{r}")))
                .collect(),
            egress: (0..n)
                .map(|r| Resource::new(&format!("{name}-egress{r}"), 1))
                .collect(),
            disruptions: Mutex::new(Vec::new()),
            obs: Mutex::new(None),
            obs_gen: AtomicU64::new(0),
            flow_seq: (0..n).map(|_| AtomicU64::new(0)).collect(),
            contexts: Mutex::new(vec![TraceCtx::default()]),
        })
    }

    /// The context a message's `ctx` handle names.
    fn context(&self, handle: u32) -> TraceCtx {
        self.contexts.lock()[handle as usize]
    }

    /// Installs fault windows on the fabric. Call before the simulation
    /// starts; windows are matched against each send's initiation time.
    pub fn set_disruptions(&self, windows: Vec<LinkDisruption>) {
        *self.disruptions.lock() = windows;
    }

    /// Attaches structured observability: every cross-rank send emits a
    /// `net-send` span (NIC occupancy) plus a `msg-send` point event on
    /// the sender's egress lane, and the matching receive emits a
    /// `msg-recv` point event on the receiver's lane — the two carry the
    /// same `flow` id, which is what cross-node trace arrows and flow
    /// conservation checks key on. Because collectives and the shuffle
    /// all route through point-to-point sends, this one choke point
    /// covers all traffic.
    ///
    /// Attachment propagates to communicators constructed *before* this
    /// call: each [`Communicator`] re-reads the attachment whenever the
    /// network's generation counter moves, so late attachment never
    /// yields silently empty traces.
    pub fn attach_obs(&self, obs: Obs) {
        let lanes = (0..self.size())
            .map(|r| obs.bus.intern(&format!("net-rank{r}")))
            .collect();
        let kind_send = obs.bus.intern(kinds::NET_SEND);
        let kind_msg_send = obs.bus.intern(kinds::MSG_SEND);
        let kind_msg_recv = obs.bus.intern(kinds::MSG_RECV);
        *self.obs.lock() = Some(Arc::new(NetObs {
            obs,
            lanes,
            kind_send,
            kind_msg_send,
            kind_msg_recv,
        }));
        self.obs_gen.fetch_add(1, Ordering::Release);
    }

    /// Effective (wire time, delivery delay, partition release time) for a
    /// send of `bytes` from `src` to `dst` initiated at `now`, after
    /// applying every matching disruption window. Overlapping windows
    /// compound: bandwidth factors multiply and extra latencies add.
    fn disruption_effects(
        &self,
        src: usize,
        dst: usize,
        now: SimTime,
        bytes: u64,
    ) -> (SimTime, SimTime, Option<SimTime>) {
        let base_wire = self.params.wire_time(bytes);
        let g = self.disruptions.lock();
        if g.is_empty() {
            return (base_wire, self.params.latency, None);
        }
        let mut bw = 1.0_f64;
        let mut extra = SimTime::ZERO;
        let mut release: Option<SimTime> = None;
        for d in g.iter() {
            if !d.applies(src, dst, now) {
                continue;
            }
            bw *= d.bandwidth_factor.clamp(1e-9, 1.0);
            extra += d.extra_latency;
            if d.partition {
                release = Some(match release {
                    Some(u) if u >= d.until => u,
                    _ => d.until,
                });
            }
        }
        let wire = if bw >= 1.0 {
            base_wire
        } else {
            SimTime::from_secs_f64(base_wire.as_secs_f64() / bw)
        };
        (wire, self.params.latency + extra, release)
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.inboxes.len()
    }

    /// The fabric's link parameters.
    pub fn params(&self) -> NetworkParams {
        self.params
    }

    /// Conservative engine lookahead implied by this fabric (see
    /// [`NetworkParams::conservative_lookahead`]).
    pub fn lookahead(&self) -> simtime::SimTime {
        self.params.conservative_lookahead()
    }

    /// Creates the endpoint for `rank`. Each rank's communicator must be
    /// used from exactly one simulation process.
    pub fn communicator(self: &Arc<Self>, rank: usize) -> Communicator {
        assert!(rank < self.size());
        Communicator {
            net: self.clone(),
            rank,
            pending: Mutex::new(Vec::new()),
            ctx: AtomicU32::new(0),
            obs_cache: Mutex::new((0, None)),
        }
    }
}

/// One rank's endpoint: typed tagged point-to-point operations. The
/// collective operations live in [`crate::collectives`] as methods on this
/// type via an extension impl.
pub struct Communicator {
    pub(crate) net: Arc<Network>,
    pub(crate) rank: usize,
    /// Received-but-unmatched messages (MPI's unexpected-message queue).
    pending: Mutex<Vec<Message>>,
    /// Handle (into [`Network::contexts`]) of the causal context stamped
    /// on outgoing messages; see [`Communicator::set_trace_ctx`]. Relaxed
    /// loads and stores suffice: the one process driving this endpoint is
    /// the only writer, and the entry a handle names is read under the
    /// log's mutex, which the write of that entry released.
    ctx: AtomicU32,
    /// Generation-checked cache of the network's obs attachment: the
    /// common path is one relaxed atomic load plus an uncontended
    /// (communicator-local) mutex, and a late `attach_obs` on the
    /// network is still picked up on the very next send/recv.
    obs_cache: Mutex<(u64, Option<Arc<NetObs>>)>,
}

impl Communicator {
    /// This endpoint's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Installs the causal context stamped on every subsequent outgoing
    /// message (until replaced). Workers call this once per iteration
    /// with [`TraceCtx::root`]`(iteration, partition)`, which is enough
    /// to give every transfer deterministic trace/span ids and carry
    /// iteration/partition tags onto `msg-send`/`msg-recv` events. Each
    /// call appends one entry to the network's context log.
    pub fn set_trace_ctx(&self, ctx: TraceCtx) {
        let mut log = self.net.contexts.lock();
        let handle = u32::try_from(log.len()).expect("context log outgrew its u32 handles");
        log.push(ctx);
        self.ctx.store(handle, Ordering::Relaxed);
    }

    /// The network's current obs attachment (generation-cached).
    fn net_obs(&self) -> Option<Arc<NetObs>> {
        let gen = self.net.obs_gen.load(Ordering::Acquire);
        let mut cache = self.obs_cache.lock();
        if cache.0 != gen {
            *cache = (gen, self.net.obs.lock().clone());
        }
        cache.1.clone()
    }

    /// Total ranks in the fabric.
    pub fn size(&self) -> usize {
        self.net.size()
    }

    /// Link parameters (for cost estimation in schedulers).
    pub fn params(&self) -> NetworkParams {
        self.net.params()
    }

    /// Sends `value` (declared wire size `bytes`) to `dst` with `tag`.
    ///
    /// The sender blocks for the egress-serialization time `bytes/β`
    /// (messages from one rank share its NIC), then the message arrives at
    /// `dst` after the additional link latency α. Self-sends deliver
    /// immediately without touching the NIC.
    pub fn send<T: Send + 'static>(&self, ctx: &SimCtx, dst: usize, tag: u64, bytes: u64, value: T) {
        assert!(dst < self.size(), "send to out-of-range rank {dst}");
        let src = self.rank as u32;
        if dst == self.rank {
            // Self-sends never touch the NIC and mint no flow: they are
            // local moves, not cross-node causality.
            let msg = Message {
                src,
                ctx: UNTRACED,
                tag,
                bytes,
                seq: 0,
                payload: Box::new(value),
            };
            self.net.inboxes[dst].send(ctx, msg);
            return;
        }
        let seq = self.net.flow_seq[self.rank].fetch_add(1, Ordering::Relaxed);
        let msg = Message {
            src,
            ctx: self.ctx.load(Ordering::Relaxed),
            tag,
            bytes,
            seq,
            payload: Box::new(value),
        };
        let (wire, mut delay, release) =
            self.net.disruption_effects(self.rank, dst, ctx.now(), bytes);
        let egress = &self.net.egress[self.rank];
        egress.acquire(ctx, 1);
        let t0 = ctx.now();
        ctx.hold(wire);
        let t1 = ctx.now();
        if let Some(o) = self.net_obs() {
            if let Some(d) = o.obs.bus.span_interned(&o.lanes[self.rank], &o.kind_send, t0, t1) {
                d.attr("bytes", bytes as f64).attr("dst", dst as f64).commit();
            }
            o.obs.stack.frame_interned(&o.lanes[self.rank], &o.kind_send, t0, t1);
            // The flow's departure instant: pairs with the receiver's
            // `msg-recv` through the shared `flow` id.
            if let Some(d) = o.obs.bus.event_interned(&o.lanes[self.rank], &o.kind_msg_send, t1) {
                let tctx = self.net.context(msg.ctx);
                let flow = trace_ctx::flow_id(src.into(), dst as u64, seq);
                let span = tctx.span_for(seq);
                let mut d = d
                    .attr("flow", flow as f64)
                    .attr("bytes", bytes as f64)
                    .attr("dst", dst as f64)
                    .attr("span", span as f64)
                    .attr("trace", tctx.trace_id as f64)
                    .attr("class", traffic_class(tag));
                if let Some(i) = tctx.iteration {
                    d = d.iteration(i as usize);
                }
                if let Some(p) = tctx.partition {
                    d = d.partition(p as usize);
                }
                d.commit();
            }
            o.obs.metrics.counter_add(
                "prs_net_bytes_total",
                &[("src", &self.rank.to_string())],
                bytes as f64,
            );
        }
        egress.release(ctx, 1);
        if let Some(until) = release {
            // Partitioned: the message sits in flight until the window
            // closes, then still pays the link latency.
            let floor = until + self.net.params.latency;
            let now = ctx.now();
            if now + delay < floor {
                delay = floor - now;
            }
        }
        self.net.inboxes[dst].send_delayed(ctx, msg, delay);
    }

    /// Blocks until a message from `src` with `tag` arrives; returns its
    /// payload. Panics if the payload type does not match `T` (a protocol
    /// error, not a recoverable condition).
    pub fn recv<T: Send + 'static>(&self, ctx: &SimCtx, src: usize, tag: u64) -> T {
        self.recv_with_bytes(ctx, src, tag).0
    }

    /// Like [`Communicator::recv`], additionally returning the declared
    /// wire size.
    pub fn recv_with_bytes<T: Send + 'static>(
        &self,
        ctx: &SimCtx,
        src: usize,
        tag: u64,
    ) -> (T, u64) {
        // Check the unexpected-message queue first. `remove`, not
        // `swap_remove`: the queue's order is what `recv_any` matches by.
        {
            let mut pending = self.pending.lock();
            if let Some(pos) = pending.iter().position(|m| m.matches(src, tag)) {
                let m = pending.remove(pos);
                drop(pending);
                self.note_recv(ctx, &m);
                return (downcast_payload(m.payload, src, tag), m.bytes);
            }
        }
        loop {
            let m = self.net.inboxes[self.rank]
                .recv(ctx)
                .expect("network inbox closed while receiving");
            if m.matches(src, tag) {
                self.note_recv(ctx, &m);
                return (downcast_payload(m.payload, src, tag), m.bytes);
            }
            self.pending.lock().push(m);
        }
    }

    /// Blocks until a message with `tag` arrives from *any* rank; returns
    /// `(src, payload)`. Matching order is deterministic: earliest-queued
    /// first, which under the engine's `(time, seq)` pop contract is
    /// identical across runs and engine modes. Used by the sparse shuffle,
    /// where the receiver knows how many batches are coming but not from
    /// whom.
    pub fn recv_any<T: Send + 'static>(&self, ctx: &SimCtx, tag: u64) -> (usize, T) {
        {
            let mut pending = self.pending.lock();
            if let Some(pos) = pending.iter().position(|m| m.tag == tag) {
                let m = pending.remove(pos);
                drop(pending);
                self.note_recv(ctx, &m);
                let src = m.src as usize;
                return (src, downcast_payload(m.payload, src, tag));
            }
        }
        loop {
            let m = self.net.inboxes[self.rank]
                .recv(ctx)
                .expect("network inbox closed while receiving");
            if m.tag == tag {
                let src = m.src as usize;
                self.note_recv(ctx, &m);
                return (src, downcast_payload(m.payload, src, tag));
            }
            self.pending.lock().push(m);
        }
    }

    /// Stamps the `msg-recv` point event pairing with the sender's
    /// `msg-send` (same `flow` id), at the virtual instant the message
    /// was *matched* by a receive — which is when the flow's causal
    /// effect lands on this rank.
    fn note_recv(&self, ctx: &SimCtx, m: &Message) {
        if m.ctx == UNTRACED {
            return;
        }
        if let Some(o) = self.net_obs() {
            if let Some(d) = o.obs.bus.event_interned(&o.lanes[self.rank], &o.kind_msg_recv, ctx.now()) {
                let tctx = self.net.context(m.ctx);
                let flow = trace_ctx::flow_id(m.src.into(), self.rank as u64, m.seq);
                let mut d = d
                    .attr("flow", flow as f64)
                    .attr("bytes", m.bytes as f64)
                    .attr("src", f64::from(m.src))
                    .attr("span", tctx.span_for(m.seq) as f64)
                    .attr("trace", tctx.trace_id as f64)
                    .attr("class", traffic_class(m.tag));
                if let Some(i) = tctx.iteration {
                    d = d.iteration(i as usize);
                }
                if let Some(p) = tctx.partition {
                    d = d.partition(p as usize);
                }
                d.commit();
            }
        }
    }

    /// Non-blocking probe: is a matching message already queued?
    pub fn probe(&self, src: usize, tag: u64) -> bool {
        if self.pending.lock().iter().any(|m| m.matches(src, tag)) {
            return true;
        }
        // Drain the inbox into pending without blocking.
        while let Some(m) = self.net.inboxes[self.rank].try_recv() {
            let hit = m.matches(src, tag);
            self.pending.lock().push(m);
            if hit {
                return true;
            }
        }
        false
    }
}

fn downcast_payload<T: 'static>(payload: Box<dyn Any + Send>, src: usize, tag: u64) -> T {
    *payload.downcast::<T>().unwrap_or_else(|_| {
        panic!(
            "type mismatch receiving message src={src} tag={tag}: expected {}",
            std::any::type_name::<T>()
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simtime::{Sim, SimTime};

    fn params() -> NetworkParams {
        NetworkParams {
            latency: SimTime::from_secs(1),
            bandwidth: 100.0,
        }
    }

    #[test]
    fn send_recv_round_trip() {
        let mut sim = Sim::new();
        let net = Network::new("n", 2, params());
        let c0 = net.communicator(0);
        let c1 = net.communicator(1);
        sim.spawn("r0", move |ctx| {
            c0.send(ctx, 1, 7, 200, vec![1u32, 2, 3]);
        });
        sim.spawn("r1", move |ctx| {
            let v: Vec<u32> = c1.recv(ctx, 0, 7);
            assert_eq!(v, vec![1, 2, 3]);
            // 200 bytes at 100 B/s = 2 s wire + 1 s latency.
            assert_eq!(ctx.now(), SimTime::from_secs(3));
        });
        sim.run().unwrap();
    }

    #[test]
    fn tag_matching_reorders() {
        let mut sim = Sim::new();
        let net = Network::new("n", 2, NetworkParams::ideal());
        let c0 = net.communicator(0);
        let c1 = net.communicator(1);
        sim.spawn("r0", move |ctx| {
            c0.send(ctx, 1, 1, 10, "first");
            c0.send(ctx, 1, 2, 10, "second");
        });
        sim.spawn("r1", move |ctx| {
            // Receive in the opposite order of sending.
            let b: &str = c1.recv(ctx, 0, 2);
            let a: &str = c1.recv(ctx, 0, 1);
            assert_eq!((a, b), ("first", "second"));
        });
        sim.run().unwrap();
    }

    #[test]
    fn egress_serializes_a_senders_messages() {
        let mut sim = Sim::new();
        let net = Network::new("n", 3, params());
        let c0 = net.communicator(0);
        sim.spawn("r0", move |ctx| {
            // Two 100-byte messages to different ranks share rank 0's NIC:
            // sender is busy 1 s + 1 s.
            c0.send(ctx, 1, 0, 100, ());
            c0.send(ctx, 2, 0, 100, ());
            assert_eq!(ctx.now(), SimTime::from_secs(2));
        });
        let c1 = net.communicator(1);
        sim.spawn("r1", move |ctx| {
            c1.recv::<()>(ctx, 0, 0);
            assert_eq!(ctx.now(), SimTime::from_secs(2)); // 1 wire + 1 α
        });
        let c2 = net.communicator(2);
        sim.spawn("r2", move |ctx| {
            c2.recv::<()>(ctx, 0, 0);
            assert_eq!(ctx.now(), SimTime::from_secs(3)); // queued behind msg 1
        });
        sim.run().unwrap();
    }

    #[test]
    fn different_senders_proceed_in_parallel() {
        let mut sim = Sim::new();
        let net = Network::new("n", 3, params());
        for src in 0..2usize {
            let c = net.communicator(src);
            sim.spawn(&format!("r{src}"), move |ctx| {
                c.send(ctx, 2, src as u64, 100, src);
            });
        }
        let c2 = net.communicator(2);
        sim.spawn("r2", move |ctx| {
            let a: usize = c2.recv(ctx, 0, 0);
            let b: usize = c2.recv(ctx, 1, 1);
            assert_eq!((a, b), (0, 1));
            // Both arrive at t = 2 (parallel NICs), not t = 3.
            assert_eq!(ctx.now(), SimTime::from_secs(2));
        });
        sim.run().unwrap();
    }

    #[test]
    fn self_send_is_free_and_immediate() {
        let mut sim = Sim::new();
        let net = Network::new("n", 1, params());
        let c = net.communicator(0);
        sim.spawn("r0", move |ctx| {
            c.send(ctx, 0, 5, 1 << 30, 42u64);
            let v: u64 = c.recv(ctx, 0, 5);
            assert_eq!(v, 42);
            assert_eq!(ctx.now(), SimTime::ZERO);
        });
        sim.run().unwrap();
    }

    #[test]
    fn probe_sees_queued_messages() {
        let mut sim = Sim::new();
        let net = Network::new("n", 2, NetworkParams::ideal());
        let c0 = net.communicator(0);
        let c1 = net.communicator(1);
        sim.spawn("r0", move |ctx| {
            c0.send(ctx, 1, 9, 8, 1u8);
        });
        sim.spawn("r1", move |ctx| {
            assert!(!c1.probe(0, 4), "no message with tag 4");
            ctx.hold(SimTime::from_secs(1));
            assert!(c1.probe(0, 9));
            let _: u8 = c1.recv(ctx, 0, 9);
        });
        sim.run().unwrap();
    }

    #[test]
    fn jitter_window_adds_latency_only_inside_window() {
        let mut sim = Sim::new();
        let net = Network::new("n", 2, params());
        net.set_disruptions(vec![LinkDisruption::jitter(
            Some(0),
            Some(1),
            SimTime::from_secs(10),
            SimTime::from_secs(20),
            SimTime::from_secs(4),
        )]);
        let c0 = net.communicator(0);
        let c1 = net.communicator(1);
        sim.spawn("r0", move |ctx| {
            c0.send(ctx, 1, 0, 100, ()); // before the window: normal
            ctx.hold(SimTime::from_secs(11)); // now t = 12, inside window
            c0.send(ctx, 1, 1, 100, ());
        });
        sim.spawn("r1", move |ctx| {
            c1.recv::<()>(ctx, 0, 0);
            assert_eq!(ctx.now(), SimTime::from_secs(2)); // 1 wire + 1 α
            c1.recv::<()>(ctx, 0, 1);
            // Sent at 12, 1 s wire, 1 s α + 4 s jitter = arrives at 18.
            assert_eq!(ctx.now(), SimTime::from_secs(18));
        });
        sim.run().unwrap();
    }

    #[test]
    fn bandwidth_fault_stretches_wire_time() {
        let mut sim = Sim::new();
        let net = Network::new("n", 2, params());
        net.set_disruptions(vec![LinkDisruption {
            src: Some(0),
            dst: None,
            from: SimTime::ZERO,
            until: SimTime::from_secs(100),
            extra_latency: SimTime::ZERO,
            bandwidth_factor: 0.25,
            partition: false,
        }]);
        let c0 = net.communicator(0);
        let c1 = net.communicator(1);
        sim.spawn("r0", move |ctx| {
            c0.send(ctx, 1, 0, 100, ());
            // 100 B at an effective 25 B/s: the NIC is busy 4 s, not 1 s.
            assert_eq!(ctx.now(), SimTime::from_secs(4));
        });
        sim.spawn("r1", move |ctx| {
            c1.recv::<()>(ctx, 0, 0);
            assert_eq!(ctx.now(), SimTime::from_secs(5));
        });
        sim.run().unwrap();
    }

    #[test]
    fn partition_holds_traffic_until_window_closes() {
        let mut sim = Sim::new();
        let net = Network::new("n", 2, params());
        net.set_disruptions(vec![LinkDisruption::partition(
            None,
            Some(1),
            SimTime::ZERO,
            SimTime::from_secs(30),
        )]);
        let c0 = net.communicator(0);
        let c1 = net.communicator(1);
        sim.spawn("r0", move |ctx| {
            c0.send(ctx, 1, 0, 100, 77u8);
        });
        sim.spawn("r1", move |ctx| {
            let v: u8 = c1.recv(ctx, 0, 0);
            assert_eq!(v, 77);
            // Held until the partition heals at t = 30, plus 1 s latency.
            assert_eq!(ctx.now(), SimTime::from_secs(31));
        });
        sim.run().unwrap();
    }

    #[test]
    fn obs_records_send_spans_and_byte_counters_but_not_self_sends() {
        let mut sim = Sim::new();
        let net = Network::new("n", 2, params());
        let o = obs::Obs::recording();
        net.attach_obs(o.clone());
        let c0 = net.communicator(0);
        let c1 = net.communicator(1);
        sim.spawn("r0", move |ctx| {
            c0.send(ctx, 0, 1, 500, ()); // self-send: no NIC, no event
            c0.send(ctx, 1, 0, 200, ());
        });
        sim.spawn("r1", move |ctx| {
            c1.recv::<()>(ctx, 0, 0);
        });
        sim.run().unwrap();
        // One cross-rank transfer: a `net-send` NIC span, a `msg-send`
        // departure, and a `msg-recv` arrival. The self-send is silent.
        assert_eq!(o.bus.len(), 3);
        let jsonl = o.bus.to_jsonl();
        assert!(jsonl.contains("net-rank0"));
        assert!(jsonl.contains("\"net-send\""));
        assert!(jsonl.contains("\"msg-send\""));
        assert!(jsonl.contains("\"msg-recv\""));
        assert_eq!(o.metrics.counter("prs_net_bytes_total", &[("src", "0")]), Some(200.0));
        assert_eq!(o.metrics.counter("prs_net_bytes_total", &[("src", "1")]), None);
    }

    #[test]
    fn attach_obs_after_communicator_construction_still_records() {
        // Regression: communicators built before `attach_obs` must pick
        // the attachment up (generation-checked cache), not trace into
        // the void.
        let mut sim = Sim::new();
        let net = Network::new("n", 2, params());
        let c0 = net.communicator(0);
        let c1 = net.communicator(1);
        let o = obs::Obs::recording();
        net.attach_obs(o.clone()); // AFTER communicator construction
        sim.spawn("r0", move |ctx| {
            c0.send(ctx, 1, 0, 100, 9u8);
        });
        sim.spawn("r1", move |ctx| {
            let _: u8 = c1.recv(ctx, 0, 0);
        });
        sim.run().unwrap();
        assert_eq!(o.bus.len(), 3, "late attach_obs must still trace");
        assert_eq!(o.metrics.counter("prs_net_bytes_total", &[("src", "0")]), Some(100.0));
    }

    #[test]
    fn msg_send_and_msg_recv_share_a_flow_id_and_order() {
        let mut sim = Sim::new();
        let net = Network::new("n", 2, params());
        let o = obs::Obs::recording();
        net.attach_obs(o.clone());
        let c0 = net.communicator(0);
        let c1 = net.communicator(1);
        sim.spawn("r0", move |ctx| {
            c0.set_trace_ctx(obs::TraceCtx::root(3, 1));
            c0.send(ctx, 1, 0, 100, ());
            c0.send(ctx, 1, 1, 100, ());
        });
        sim.spawn("r1", move |ctx| {
            c1.recv::<()>(ctx, 0, 0);
            c1.recv::<()>(ctx, 0, 1);
        });
        sim.run().unwrap();
        let events = o.bus.events();
        let flows = |kind: &str| -> Vec<(u64, f64)> {
            let mut v: Vec<(u64, f64)> = events
                .iter()
                .filter(|e| &*e.kind == kind)
                .map(|e| {
                    let flow = e.attrs.iter().find(|(k, _)| *k == "flow").unwrap().1;
                    (flow as u64, e.t)
                })
                .collect();
            v.sort_by_key(|&(flow, _)| flow);
            v
        };
        let sends = flows("msg-send");
        let recvs = flows("msg-recv");
        assert_eq!(sends.len(), 2);
        assert_eq!(
            sends.iter().map(|s| s.0).collect::<Vec<_>>(),
            recvs.iter().map(|r| r.0).collect::<Vec<_>>(),
            "every msg-recv pairs with exactly one msg-send"
        );
        for (s, r) in sends.iter().zip(&recvs) {
            assert!(r.1 >= s.1, "recv time precedes send time");
            assert_eq!(obs::trace_ctx::flow_src(s.0), 0);
            assert_eq!(obs::trace_ctx::flow_dst(s.0), 1);
        }
        // Iteration/partition tags ride along from the sender's context.
        let tagged = events
            .iter()
            .find(|e| &*e.kind == "msg-recv")
            .expect("msg-recv recorded");
        assert_eq!(tagged.iteration, Some(3));
        assert_eq!(tagged.partition, Some(1));
    }

    #[test]
    fn an_in_flight_message_header_is_at_most_48_bytes() {
        let size = std::mem::size_of::<Message>();
        assert!(size <= 48, "{size}");
    }

    #[test]
    fn msg_recv_carries_the_context_the_message_was_sent_under() {
        let mut sim = Sim::new();
        let net = Network::new("n", 2, params());
        let o = obs::Obs::recording();
        net.attach_obs(o.clone());
        let c0 = net.communicator(0);
        let c1 = net.communicator(1);
        sim.spawn("r0", move |ctx| {
            c0.set_trace_ctx(obs::TraceCtx::root(3, 1));
            c0.send(ctx, 1, 0, 100, ());
            // The next context is installed while the message is still in
            // flight, and a self-send under it stays silent.
            c0.set_trace_ctx(obs::TraceCtx::root(4, 1));
            c0.send(ctx, 0, 9, 100, ());
            c0.recv::<()>(ctx, 0, 9);
        });
        sim.spawn("r1", move |ctx| {
            ctx.hold(SimTime::from_secs(10));
            c1.recv::<()>(ctx, 0, 0);
        });
        sim.run().unwrap();
        let events = o.bus.events();
        let one = |kind: &str| {
            let mut of_kind = events.iter().filter(|e| &*e.kind == kind);
            let e = of_kind.next().unwrap_or_else(|| panic!("no {kind}"));
            assert!(of_kind.next().is_none(), "more than one {kind}");
            e
        };
        let attr = |e: &obs::Event, k: &str| e.attrs.iter().find(|(n, _)| *n == k).unwrap().1;
        let (send, recv) = (one("msg-send"), one("msg-recv"));
        let sent_under = obs::TraceCtx::root(3, 1);
        assert_eq!(attr(send, "flow") as u64, trace_ctx::flow_id(0, 1, 0));
        assert_eq!(attr(send, "span") as u64, sent_under.span_for(0));
        assert_eq!(attr(send, "trace") as u64, sent_under.trace_id);
        for k in ["flow", "span", "trace"] {
            assert_eq!(attr(recv, k), attr(send, k), "{k}");
        }
        assert_eq!((recv.iteration, recv.partition), (Some(3), Some(1)));
        assert_eq!(recv.t, 10.0);
    }

    #[test]
    fn recv_keeps_the_unexpected_queue_in_arrival_order() {
        let mut sim = Sim::new();
        let net = Network::new("n", 3, NetworkParams::ideal());
        let [c0, c1, c2] = [0, 1, 2].map(|r| net.communicator(r));
        sim.spawn("r0", move |ctx| {
            c0.send(ctx, 2, 7, 8, "X");
            c0.send(ctx, 2, 5, 8, "Y");
            ctx.hold(SimTime::from_secs(2));
            c0.send(ctx, 2, 99, 8, "W");
        });
        sim.spawn("r1", move |ctx| {
            ctx.hold(SimTime::from_secs(1));
            c1.send(ctx, 2, 5, 8, "Z");
        });
        sim.spawn("r2", move |ctx| {
            // X, Y and Z queue up, in that order, while rank 2 waits for W.
            assert_eq!(c2.recv::<&str>(ctx, 0, 99), "W");
            assert_eq!(c2.recv::<&str>(ctx, 0, 7), "X");
            // Earliest-queued first: Y, then Z.
            assert_eq!(c2.recv_any::<&str>(ctx, 5), (0, "Y"));
            assert_eq!(c2.recv_any::<&str>(ctx, 5), (1, "Z"));
        });
        sim.run().unwrap();
    }

    #[test]
    fn type_mismatch_panics_with_context() {
        let mut sim = Sim::new();
        let net = Network::new("n", 2, NetworkParams::ideal());
        let c0 = net.communicator(0);
        let c1 = net.communicator(1);
        sim.spawn("r0", move |ctx| c0.send(ctx, 1, 0, 8, 1u32));
        sim.spawn("r1", move |ctx| {
            let _: String = c1.recv(ctx, 0, 0);
        });
        let err = sim.run().unwrap_err();
        assert!(err.to_string().contains("type mismatch"));
    }
}
