//! Owned, analysis-friendly view of the event stream.
//!
//! The analyzer consumes traces from two sources: a live [`obs::EventBus`]
//! (same process, `Arc<str>`-interned lanes) and an `events.jsonl` file
//! written by a previous run. Both normalize into [`TraceEvent`] so every
//! downstream pass is source-agnostic, and both are sorted with the same
//! canonical order, so the analysis of a live bus and of its exported
//! JSONL are identical.
//!
//! Names are interned ([`obs::Name`]): a parsed file holds one allocation
//! per distinct lane, kind and attribute key, and a bus snapshot shares
//! the allocations the bus already holds. Consumers that only need to
//! *read* a live bus skip the snapshot altogether: [`canonical_view`]
//! orders references to the bus's own records.

use obs::jsonl::{read_events, JsonlError};
use obs::{cmp_names, kinds, lane_node, Attrs, EventView, Names};
use std::collections::BTreeMap;

/// One span or point event: interned names and a key-sorted attr vector
/// — the record the bundle codec reads, under the analyzer's name.
pub use obs::jsonl::EventRecord as TraceEvent;

/// One cross-node message flow: a `msg-send` point event paired with its
/// `msg-recv` through the shared `flow` attribute. The interval
/// `[send_t, recv_t]` is the message's in-flight (wire + queueing +
/// match-wait) time — a true causal edge between two node lanes.
#[derive(Debug, Clone, PartialEq)]
pub struct Flow {
    /// The packed flow id (see `obs::trace_ctx::flow_id`).
    pub id: u64,
    /// Lane the `msg-send` was stamped on (`net-rank2`, `master`).
    pub src_lane: String,
    /// Lane the `msg-recv` was stamped on.
    pub dst_lane: String,
    /// Departure instant, virtual seconds.
    pub send_t: f64,
    /// Match instant at the receiver, virtual seconds.
    pub recv_t: f64,
    /// Declared wire bytes (0 for control messages).
    pub bytes: f64,
    /// Iteration tag carried from the sender's trace context.
    pub iter: Option<u64>,
    /// Worker node of the source lane (`None` for `master`).
    pub src_node: Option<u64>,
    /// Worker node of the destination lane.
    pub dst_node: Option<u64>,
}

impl Flow {
    /// In-flight seconds from departure to receive-match.
    pub fn latency(&self) -> f64 {
        self.recv_t - self.send_t
    }
}

/// Pairs `msg-send` events with their `msg-recv` by flow id. Events
/// missing a counterpart are dropped (the flow-conservation tests assert
/// there are none); duplicate ids pair in time order. The result is
/// sorted by `(send_t, id)`.
pub fn pair_flows<E: EventView>(events: &[E]) -> Vec<Flow> {
    use std::collections::VecDeque;
    let mut sends: BTreeMap<u64, VecDeque<&E>> = BTreeMap::new();
    for e in events.iter().filter(|e| e.kind() == kinds::MSG_SEND) {
        if let Some(flow) = e.attr("flow") {
            sends.entry(flow as u64).or_default().push_back(e);
        }
    }
    let mut out = Vec::new();
    for e in events.iter().filter(|e| e.kind() == kinds::MSG_RECV) {
        let Some(flow) = e.attr("flow") else { continue };
        let Some(q) = sends.get_mut(&(flow as u64)) else { continue };
        let Some(s) = q.pop_front() else { continue };
        out.push(Flow {
            id: flow as u64,
            src_lane: s.lane().to_string(),
            dst_lane: e.lane().to_string(),
            send_t: s.t(),
            recv_t: e.t(),
            bytes: s.attr("bytes").unwrap_or(0.0),
            iter: s.iter(),
            src_node: lane_node(s.lane()),
            dst_node: lane_node(e.lane()),
        });
    }
    out.sort_by(|a, b| a.send_t.total_cmp(&b.send_t).then_with(|| a.id.cmp(&b.id)));
    out
}

/// The analyzer's canonical order: `(t, end, lane, kind)`. Names from
/// one table (or one bus) tie on their address before any byte is read.
pub(crate) fn canonical_cmp<E: EventView>(a: &E, b: &E) -> std::cmp::Ordering {
    a.t()
        .total_cmp(&b.t())
        .then_with(|| a.end().total_cmp(&b.end()))
        .then_with(|| cmp_names(a.lane(), b.lane()))
        .then_with(|| cmp_names(a.kind(), b.kind()))
}

/// `events` (references into a slice, or a log's records) in the
/// analyzer's canonical order (stable, so full ties keep their input
/// order) — what [`from_bus`] and [`parse_events_jsonl`] sort their copies
/// into, without the copies. Over a live bus
/// (`bus.with_events(|log| canonical_view(log))`) every [`EventView`]
/// consumer reads the bus's own records.
pub fn canonical_view<I>(events: I) -> Vec<I::Item>
where
    I: IntoIterator,
    I::Item: EventView,
{
    let mut view: Vec<I::Item> = events.into_iter().collect();
    view.sort_by(canonical_cmp);
    view
}

/// Snapshots a live bus into owned events, canonically sorted. Lane and
/// kind share the bus's `Arc`s; attribute keys are interned once each.
pub fn from_bus(bus: &obs::EventBus) -> Vec<TraceEvent> {
    let mut names = Names::default();
    let mut out: Vec<TraceEvent> = bus.with_events(|log| {
        log.iter()
            .map(|e| {
                let mut attrs = Attrs::new();
                for (k, v) in e.attrs() {
                    attrs.set_with(k, v, || names.intern(k));
                }
                TraceEvent {
                    t: e.t(),
                    dur: e.dur(),
                    lane: names.adopt(e.lane_arc()),
                    kind: names.adopt(e.kind_arc()),
                    iter: e.iteration(),
                    part: e.partition(),
                    block: e.block(),
                    attrs,
                }
            })
            .collect()
    });
    out.sort_by(canonical_cmp);
    out
}

/// Parses an `events.jsonl` export (one JSON object per line) through
/// the bundle codec ([`obs::jsonl::read_events`], which documents what
/// is tolerated and what is rejected).
///
/// Unknown keys are ignored so the parser tolerates schema growth; a line
/// that is not a JSON object is an error, and so is a file whose meta
/// line announces a different number of events than it holds, because a
/// truncated bundle should fail loudly rather than silently analyze half
/// a run.
pub fn parse_events_jsonl(text: &str) -> Result<Vec<TraceEvent>, JsonlError> {
    let mut out = Vec::new();
    read_events(text, |e| out.push(e))?;
    out.sort_by(canonical_cmp);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_round_trip_matches_live_bus() {
        use simtime::SimTime;
        let bus = obs::EventBus::recording();
        let lane = bus.intern("node0-cpu-c0");
        let kind = bus.intern("cpu-task");
        let t = |s: f64| SimTime::from_secs_f64(s);
        if let Some(d) = bus.span_interned(&lane, &kind, t(1.5), t(2.0)) {
            d.attr("flops", 100.0).attr("bytes", 50.0).commit();
        }
        if let Some(d) = bus.event("master", "assign", t(0.25)) {
            d.iteration(3).commit();
        }

        let live = from_bus(&bus);
        let parsed = parse_events_jsonl(&bus.to_jsonl()).unwrap();
        assert_eq!(live, parsed);
        assert_eq!(live.len(), 2);
        assert_eq!(live[0].kind, "assign");
        assert_eq!(live[0].iter, Some(3));
        assert_eq!(live[1].attr("bytes"), Some(50.0));
        assert_eq!(live[1].end(), 2.0);
    }

    #[test]
    fn overlap_clamps_to_window() {
        let e = TraceEvent {
            t: 1.0,
            dur: Some(2.0),
            lane: "l".into(),
            kind: "k".into(),
            iter: None,
            part: None,
            block: None,
            attrs: Attrs::new(),
        };
        assert_eq!(e.overlap(0.0, 10.0), 2.0);
        assert_eq!(e.overlap(2.0, 2.5), 0.5);
        assert_eq!(e.overlap(4.0, 5.0), 0.0);
    }

    #[test]
    fn pair_flows_matches_sends_to_recvs_by_id_in_time_order() {
        let mk = |lane: &str, kind: &str, t: f64, flow: f64, bytes: Option<f64>| {
            let mut attrs = Attrs::new();
            attrs.insert("flow".into(), flow);
            if let Some(b) = bytes {
                attrs.insert("bytes".into(), b);
            }
            TraceEvent {
                t,
                dur: None,
                lane: lane.into(),
                kind: kind.into(),
                iter: Some(4),
                part: None,
                block: None,
                attrs,
            }
        };
        let events = vec![
            mk("net-rank0", "msg-send", 0.0, 9.0, Some(64.0)),
            mk("net-rank1", "msg-recv", 0.5, 9.0, None),
            // duplicate flow id: second pair must match in time order
            mk("net-rank0", "msg-send", 1.0, 9.0, Some(128.0)),
            mk("net-rank1", "msg-recv", 1.25, 9.0, None),
            // orphan recv (no send) is dropped
            mk("net-rank2", "msg-recv", 2.0, 11.0, None),
            // master lane has no node index
            mk("master", "msg-send", 0.1, 13.0, Some(0.0)),
            mk("node2-sched", "msg-recv", 0.2, 13.0, None),
        ];
        let flows = pair_flows(&events);
        assert_eq!(flows.len(), 3);
        assert_eq!(flows[0].id, 9);
        assert_eq!(flows[0].bytes, 64.0);
        assert_eq!(flows[0].latency(), 0.5);
        assert_eq!(flows[0].src_node, Some(0));
        assert_eq!(flows[0].dst_node, Some(1));
        assert_eq!(flows[0].iter, Some(4));
        assert_eq!(flows[1].id, 13);
        assert_eq!(flows[1].src_node, None);
        assert_eq!(flows[1].dst_node, Some(2));
        assert_eq!(flows[2].bytes, 128.0);
        assert_eq!(flows[2].latency(), 0.25);
    }

    #[test]
    fn bad_lines_are_rejected() {
        assert!(parse_events_jsonl("{\"t\": 1.0}").is_err());
        assert!(parse_events_jsonl("not json").is_err());
        assert!(parse_events_jsonl("").unwrap().is_empty());
    }
}
