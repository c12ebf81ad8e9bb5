//! The event vocabulary: every kind the runtime emits, named once.
//!
//! Producers emit through these names and consumers match on them, so a
//! kind has one spelling. Each consumer's set is a named query on the
//! families below, and the intended differences between the sets are
//! stated here: speculation fires on healthy runs too, so it is blamed
//! but never a storm, and a checkpoint is bookkeeping, not recovery.
//! `docs/observability.md` lists the same kinds with their lanes.

/// A map block on one CPU core slot (span).
pub const CPU_TASK: &str = "cpu-task";
/// A GPU kernel on the compute engine (span).
pub const KERNEL: &str = "kernel";
/// A kernel cut short by its GPU's crash (span).
pub const CRASHED_KERNEL: &str = "crashed-kernel";
/// A host-to-device copy (span).
pub const H2D: &str = "h2d";
/// A device-to-host copy (span).
pub const D2H: &str = "d2h";
/// The map stage of one iteration on one node (span).
pub const MAP: &str = "map";
/// The shuffle stage (span).
pub const SHUFFLE: &str = "shuffle";
/// The reduce stage (span).
pub const REDUCE: &str = "reduce";
/// The update stage (span).
pub const UPDATE: &str = "update";
/// A block queue's depth, sampled as a block is queued.
pub const QUEUE_SAMPLE: &str = "queue-sample";
/// The master handing a partition to a node.
pub const ASSIGN: &str = "assign";
/// A message leaving its sender; pairs with its `msg-recv` by flow id.
pub const MSG_SEND: &str = "msg-send";
/// A message arriving at its receiver.
pub const MSG_RECV: &str = "msg-recv";
/// A point-to-point transfer on the wire (span).
pub const NET_SEND: &str = "net-send";
/// A partition re-sent after its acknowledgement deadline passed.
pub const RETRY: &str = "retry";
/// A partition moved to another node after its retries ran out.
pub const REASSIGN: &str = "reassign";
/// A node's GPU died.
pub const GPU_CRASH: &str = "gpu-crash";
/// A GPU stream daemon found its GPU dead.
pub const GPU_DAEMON_DOWN: &str = "gpu-daemon-down";
/// A block in flight on a dead GPU went back to the queue.
pub const BLOCK_REQUEUED: &str = "block-requeued";
/// A speculative backup copy of a straggling task started.
pub const SPEC_LAUNCH: &str = "spec-launch";
/// The backup copy finished first.
pub const SPEC_WIN: &str = "spec-win";
/// The original finished first; the backup's work is wasted.
pub const SPEC_WASTED: &str = "spec-wasted";
/// A checkpoint was written at an iteration boundary.
pub const CHECKPOINT: &str = "checkpoint";
/// A worker node died.
pub const NODE_CRASH: &str = "node-crash";
/// The standby master took over from a dead one.
pub const MASTER_FAILOVER: &str = "master-failover";
/// The run resumed from its checkpoint after a crash or failover.
pub const RESTORE: &str = "restore";
/// A node joined the cluster.
pub const JOIN: &str = "join";
/// A node left at an iteration boundary.
pub const DRAIN: &str = "drain";
/// A node was evicted and its iteration rolled back.
pub const EVICT: &str = "evict";
/// A drain blew its deadline and handed off through the checkpoint.
pub const HANDOFF: &str = "handoff";
/// The cluster size after a membership change.
pub const CLUSTER_SIZE: &str = "cluster-size";

/// The kinds a device records its busy time under. These frames, and
/// only these, make a job's timeline; the device crates destructure
/// this order.
pub const DEVICE: [&str; 5] = [CPU_TASK, KERNEL, CRASHED_KERNEL, H2D, D2H];
/// The barrier-ordered stages of one iteration, in execution order.
pub const STAGES: [&str; 4] = [MAP, SHUFFLE, REDUCE, UPDATE];
/// Fault handling in flight: what the watchdog counts toward a recovery
/// storm.
pub const FAULT: [&str; 9] = [
    RETRY, REASSIGN, GPU_CRASH, GPU_DAEMON_DOWN, BLOCK_REQUEUED, CRASHED_KERNEL, NODE_CRASH,
    MASTER_FAILOVER, RESTORE,
];
/// Speculative execution; it fires on healthy runs too.
pub const SPECULATION: [&str; 3] = [SPEC_LAUNCH, SPEC_WIN, SPEC_WASTED];
/// The membership transitions, what the watchdog counts toward a flap,
/// in the order `prs top` destructures them; a `cluster-size` event
/// rides along with each.
pub const MEMBERSHIP: [&str; 4] = [JOIN, DRAIN, EVICT, HANDOFF];
/// Every kind the runtime emits.
pub const ALL: [&str; 31] = [
    CPU_TASK, KERNEL, CRASHED_KERNEL, H2D, D2H, MAP, SHUFFLE, REDUCE, UPDATE, QUEUE_SAMPLE,
    ASSIGN, MSG_SEND, MSG_RECV, NET_SEND, RETRY, REASSIGN, GPU_CRASH, GPU_DAEMON_DOWN,
    BLOCK_REQUEUED, SPEC_LAUNCH, SPEC_WIN, SPEC_WASTED, CHECKPOINT, NODE_CRASH,
    MASTER_FAILOVER, RESTORE, JOIN, DRAIN, EVICT, HANDOFF, CLUSTER_SIZE,
];

/// What `prs analyze` blames an iteration on as recovery: fault
/// handling and speculation.
pub fn is_blamed(kind: &str) -> bool {
    FAULT.contains(&kind) || SPECULATION.contains(&kind)
}

/// What the rollup's `recovery` column counts: the fault family less
/// `crashed-kernel`, speculation, and `checkpoint`. The missing
/// `crashed-kernel` is the known disagreement with [`is_blamed`]; fixing
/// it moves the rollup goldens, so it waits for a change of its own.
pub fn is_rollup_recovery(kind: &str) -> bool {
    (is_blamed(kind) && kind != CRASHED_KERNEL) || kind == CHECKPOINT
}

/// Device busy time that counts as utilization: CPU tasks and kernels,
/// not transfers or cut-short kernels.
pub fn is_busy(kind: &str) -> bool {
    kind == CPU_TASK || kind == KERNEL
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_is_named_once_and_each_family_is_in_the_table() {
        let mut sorted = ALL.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ALL.len(), "a kind is listed twice");
        let families = [&DEVICE[..], &STAGES, &FAULT, &SPECULATION, &MEMBERSHIP];
        for kind in families.concat() {
            assert!(ALL.contains(&kind), "{kind} is in a family but not in ALL");
        }
    }

    /// `docs/observability.md`'s event-schema table lists exactly these
    /// kinds, in this order, each with the families it belongs to.
    #[test]
    fn the_documented_table_is_this_one() {
        let doc = include_str!("../../../docs/observability.md");
        let rows: Vec<Vec<&str>> = doc
            .lines()
            .skip_while(|l| !l.starts_with("| Kind | Family |"))
            .skip(2)
            .take_while(|l| l.starts_with('|'))
            .map(|l| l.split('|').map(str::trim).collect())
            .collect();
        let documented: Vec<&str> = rows.iter().map(|r| r[1].trim_matches('`')).collect();
        assert_eq!(documented, ALL);
        let families = [
            ("device", &DEVICE[..]),
            ("stage", &STAGES),
            ("fault", &FAULT),
            ("speculation", &SPECULATION),
            ("membership", &MEMBERSHIP),
        ];
        for (row, kind) in rows.iter().zip(ALL) {
            let of: Vec<&str> = families.iter().filter(|f| f.1.contains(&kind)).map(|f| f.0).collect();
            let of = if of.is_empty() { "—".to_string() } else { of.join(", ") };
            assert_eq!(row[2], of, "family of {kind}");
        }
    }

    #[test]
    fn each_consumer_set_is_the_one_it_replaced() {
        let set = |query: fn(&str) -> bool| -> Vec<&str> {
            let mut kinds: Vec<&str> = ALL.into_iter().filter(|k| query(k)).collect();
            kinds.sort_unstable();
            kinds
        };
        assert_eq!(
            set(is_blamed),
            [
                "block-requeued", "crashed-kernel", "gpu-crash", "gpu-daemon-down",
                "master-failover", "node-crash", "reassign", "restore", "retry", "spec-launch",
                "spec-wasted", "spec-win",
            ]
        );
        let mut storm = FAULT.to_vec();
        storm.sort_unstable();
        assert_eq!(
            storm,
            [
                "block-requeued", "crashed-kernel", "gpu-crash", "gpu-daemon-down",
                "master-failover", "node-crash", "reassign", "restore", "retry",
            ]
        );
        assert_eq!(
            set(is_rollup_recovery),
            [
                "block-requeued", "checkpoint", "gpu-crash", "gpu-daemon-down", "master-failover",
                "node-crash", "reassign", "restore", "retry", "spec-launch", "spec-wasted",
                "spec-win",
            ]
        );
        assert_eq!(MEMBERSHIP, ["join", "drain", "evict", "handoff"]);
        assert_eq!(set(is_busy), ["cpu-task", "kernel"]);
    }
}
