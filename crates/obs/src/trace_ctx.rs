//! Deterministic cross-node trace identity.
//!
//! A [`TraceCtx`] names the causal context a message was sent under: a
//! trace id (one per `(iteration, partition)` root) and a parent span
//! id. Both are derived with a splitmix64-style mixer from the triple
//! `(iteration, partition, seq)`, so two seeded runs mint *identical*
//! ids — trace artifacts stay byte-reproducible.
//!
//! Every id is truncated to [`ID_BITS`] bits. Event attributes travel as
//! `f64` in `events.jsonl`, and an `f64` represents integers exactly only
//! up to 2^53; 52-bit ids round-trip through JSON without loss.
//!
//! A *flow id* names one concrete message: `(src rank, dst rank, per-src
//! sequence number)` packed into a single 52-bit integer. The sender
//! stamps a `msg-send` point event and the receiver a `msg-recv` point
//! event with the same flow id, which is exactly the pairing Chrome-trace
//! flow events (`ph:"s"` / `ph:"f"`) need to draw arrows across lanes.

/// Bits kept in every trace / span / flow id (see module docs).
pub const ID_BITS: u32 = 52;
/// Mask selecting the low [`ID_BITS`] bits of an id.
pub const ID_MASK: u64 = (1 << ID_BITS) - 1;

/// Bits of a flow id holding the per-source sequence number.
pub const FLOW_SEQ_BITS: u32 = 28;
/// Bits of a flow id holding each of the source and destination ranks.
pub const FLOW_RANK_BITS: u32 = 12;
/// Largest rank representable in a flow id (also reserved for the
/// master control plane, which is not a fabric rank).
pub const CONTROL_RANK: u64 = (1 << FLOW_RANK_BITS) - 1;

/// splitmix64 finalizer: a cheap, well-distributed 64-bit mixer.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Packs `(src, dst, seq)` into one 52-bit flow id:
/// `src << 40 | dst << 28 | seq`. Ranks use 12 bits (4095 doubles as
/// [`CONTROL_RANK`]); the sequence number wraps at 2^28 messages per
/// source, far beyond any simulated run.
pub fn flow_id(src: u64, dst: u64, seq: u64) -> u64 {
    debug_assert!(src <= CONTROL_RANK, "flow src {src} exceeds rank field");
    debug_assert!(dst <= CONTROL_RANK, "flow dst {dst} exceeds rank field");
    (src << (FLOW_SEQ_BITS + FLOW_RANK_BITS))
        | ((dst & CONTROL_RANK) << FLOW_SEQ_BITS)
        | (seq & ((1 << FLOW_SEQ_BITS) - 1))
}

/// Source rank encoded in a flow id.
pub fn flow_src(flow: u64) -> u64 {
    (flow >> (FLOW_SEQ_BITS + FLOW_RANK_BITS)) & CONTROL_RANK
}

/// Destination rank encoded in a flow id.
pub fn flow_dst(flow: u64) -> u64 {
    (flow >> FLOW_SEQ_BITS) & CONTROL_RANK
}

/// Per-source sequence number encoded in a flow id.
pub fn flow_seq(flow: u64) -> u64 {
    flow & ((1 << FLOW_SEQ_BITS) - 1)
}

/// The causal context a message is sent under. `Copy`, 48 bytes: the
/// network keeps one per installed context, and an in-flight message
/// carries only a handle to its sender's.
///
/// The default value is the *untraced* context (ids 0, no tags): sends
/// made before any context is installed still mint valid flow ids, they
/// just hang off trace 0.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceCtx {
    /// Trace identity, shared by every span of one `(iteration,
    /// partition)` root. 52-bit.
    pub trace_id: u64,
    /// Span the next message is causally under. 52-bit.
    pub parent_span: u64,
    /// Iteration tag copied onto emitted `msg-send`/`msg-recv` events.
    pub iteration: Option<u64>,
    /// Partition tag copied onto emitted `msg-send`/`msg-recv` events.
    pub partition: Option<u64>,
}

impl TraceCtx {
    /// A root context for `(iteration, partition)`. Deterministic: the
    /// trace id is `mix(iteration << 32 | partition)` truncated to 52
    /// bits, and the root doubles as its own parent span.
    pub fn root(iteration: u64, partition: u64) -> Self {
        let trace_id = mix((iteration << 32) ^ partition) & ID_MASK;
        TraceCtx {
            trace_id,
            parent_span: trace_id,
            iteration: Some(iteration),
            partition: Some(partition),
        }
    }

    /// The span id minted for the `seq`-th message sent under this
    /// context: `mix(parent_span ^ mix(seq))`, truncated to 52 bits.
    pub fn span_for(&self, seq: u64) -> u64 {
        mix(self.parent_span ^ mix(seq)) & ID_MASK
    }

    /// A child context whose parent span is [`TraceCtx::span_for`]`(seq)`
    /// — use when a handler continues work caused by a received message.
    pub fn child(&self, seq: u64) -> Self {
        TraceCtx {
            parent_span: self.span_for(seq),
            ..*self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_ids_pack_and_unpack() {
        let f = flow_id(3, 1, 77);
        assert_eq!(flow_src(f), 3);
        assert_eq!(flow_dst(f), 1);
        assert_eq!(flow_seq(f), 77);
        let c = flow_id(CONTROL_RANK, 0, 5);
        assert_eq!(flow_src(c), CONTROL_RANK);
        assert_eq!(flow_dst(c), 0);
    }

    #[test]
    fn flow_ids_are_f64_exact() {
        // The largest possible flow id must survive an f64 round trip —
        // that is how ids travel through events.jsonl.
        let max = flow_id(CONTROL_RANK, CONTROL_RANK, (1 << FLOW_SEQ_BITS) - 1);
        assert!(max <= ID_MASK);
        assert_eq!(max as f64 as u64, max);
    }

    #[test]
    fn roots_are_deterministic_and_distinct() {
        let a = TraceCtx::root(2, 5);
        let b = TraceCtx::root(2, 5);
        assert_eq!(a, b);
        assert_ne!(a.trace_id, TraceCtx::root(2, 6).trace_id);
        assert_ne!(a.trace_id, TraceCtx::root(3, 5).trace_id);
        assert!(a.trace_id <= ID_MASK);
        assert_eq!(a.iteration, Some(2));
        assert_eq!(a.partition, Some(5));
    }

    #[test]
    fn child_spans_chain_deterministically() {
        let root = TraceCtx::root(0, 0);
        let s0 = root.span_for(0);
        let s1 = root.span_for(1);
        assert_ne!(s0, s1);
        assert!(s0 <= ID_MASK && s1 <= ID_MASK);
        let child = root.child(0);
        assert_eq!(child.parent_span, s0);
        assert_eq!(child.trace_id, root.trace_id);
        assert_ne!(child.span_for(0), s0);
    }

    #[test]
    fn untraced_default_is_all_zero() {
        let d = TraceCtx::default();
        assert_eq!(d.trace_id, 0);
        assert_eq!(d.parent_span, 0);
        assert_eq!(d.iteration, None);
    }
}
