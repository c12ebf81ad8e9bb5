//! The job's device timeline ([`crate::JobMetrics::timeline`]): the busy
//! intervals one run's devices recorded, read back from the profiler
//! stack they share with every other lane.

use obs::kinds::DEVICE;
use simtime::{StackCtx, StackFrame};

/// The frames of the [`DEVICE`] kinds that `stack` gained since its
/// length was `mark`, sorted by `(lane, start, end)` — a canonical order
/// independent of how the device daemons interleaved their appends.
pub(crate) fn device_timeline(stack: &StackCtx, mark: usize) -> Vec<StackFrame> {
    let mut frames: Vec<StackFrame> = stack.with_frames_since(mark, |frames| {
        frames.iter().filter(|f| DEVICE.contains(&&*f.frame)).cloned().collect()
    });
    frames.sort_by(|a, b| {
        a.lane
            .cmp(&b.lane)
            .then_with(|| a.t0.total_cmp(&b.t0))
            .then_with(|| a.t1.total_cmp(&b.t1))
    });
    frames
}

#[cfg(test)]
mod tests {
    use super::*;
    use simtime::SimTime;

    #[test]
    fn intervals_sorted_by_lane_then_start() {
        let s = SimTime::from_secs;
        let stack = StackCtx::recording();
        stack.frame("a", "kernel", s(0), s(1)); // before the mark
        let mark = stack.len();
        stack.frame("b", "kernel", s(5), s(6));
        stack.frame("a", "cpu-task", s(3), s(4));
        stack.frame("a", "map", s(0), s(9)); // not a device kind
        stack.frame("a", "h2d", s(1), s(2));
        let timeline = device_timeline(&stack, mark);
        let order: Vec<(&str, f64)> = timeline.iter().map(|f| (&*f.lane, f.t0)).collect();
        assert_eq!(order, vec![("a", 1.0), ("a", 3.0), ("b", 5.0)]);
    }
}
