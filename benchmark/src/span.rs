//! Spans around the calls the replay harness makes into each layer: name,
//! start, end, parent and the site the call served. Held in memory, written
//! to `out/trace_<workload>.json` when the run ends. A layer's time is the
//! self time of its spans: duration minus what child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// What a span timed. Product calls are named `<layer>.<function>` and map
/// one-to-one to the `<layer>.<function>_s` metrics; `replay.*` spans are the
/// harness's own phases and only ever parents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Op {
    Replay,
    ReplayDeliver,
    ReplayDepart,
    ReplayStep,
    ReplayCheckpoint,
    ReplayRestore,
    CoreObserve,
    CoreInfer,
    CoreEventsAt,
    CoreExport,
    CoreImport,
    CoreForget,
    CoreSnapshot,
    CoreRestore,
    WireEncodeMigration,
    WireDecodeMigration,
    WireEncodeReadings,
    WireDecodeReadings,
    WireEncodeBundle,
    WireDecodeBundle,
    WireEncodeCheckpoint,
    WireDecodeCheckpoint,
    QueryOnEvent,
    QueryOnSensor,
    QueryExportState,
    QueryImportState,
    QueryShareStates,
    TransportPlanCompute,
}

impl Op {
    pub fn name(self) -> &'static str {
        match self {
            Op::Replay => "replay",
            Op::ReplayDeliver => "replay.deliver",
            Op::ReplayDepart => "replay.depart",
            Op::ReplayStep => "replay.step",
            Op::ReplayCheckpoint => "replay.checkpoint",
            Op::ReplayRestore => "replay.restore",
            Op::CoreObserve => "core.observe",
            Op::CoreInfer => "core.infer",
            Op::CoreEventsAt => "core.events_at",
            Op::CoreExport => "core.export",
            Op::CoreImport => "core.import",
            Op::CoreForget => "core.forget",
            Op::CoreSnapshot => "core.snapshot",
            Op::CoreRestore => "core.restore",
            Op::WireEncodeMigration => "wire.encode_migration",
            Op::WireDecodeMigration => "wire.decode_migration",
            Op::WireEncodeReadings => "wire.encode_readings",
            Op::WireDecodeReadings => "wire.decode_readings",
            Op::WireEncodeBundle => "wire.encode_bundle",
            Op::WireDecodeBundle => "wire.decode_bundle",
            Op::WireEncodeCheckpoint => "wire.encode_checkpoint",
            Op::WireDecodeCheckpoint => "wire.decode_checkpoint",
            Op::QueryOnEvent => "query.on_event",
            Op::QueryOnSensor => "query.on_sensor",
            Op::QueryExportState => "query.export_state",
            Op::QueryImportState => "query.import_state",
            Op::QueryShareStates => "query.share_states",
            Op::TransportPlanCompute => "dist.transport.plan_compute",
        }
    }

    /// Whether the span is a call into the product (as opposed to a phase of
    /// the harness).
    pub fn is_product(self) -> bool {
        !self.name().starts_with("replay")
    }
}

/// Site id of spans that serve no single site (the root, the global engine).
pub const NO_SITE: u16 = u16::MAX;
const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub op: Op,
    /// Spans of one site share its id.
    pub site: u16,
    /// Index of the span that caused this one, `u32::MAX` for a root.
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span log. Disabled, every method is a no-op that never reads
/// the clock: the same replay runs once with it off and once with it on, and
/// the difference is the tracing overhead.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, op: Op, site: u16) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span {
            op,
            site,
            parent,
            start_ns,
            end_ns: start_ns,
        });
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Time one call into a layer as a leaf span.
    pub fn time<T>(&mut self, op: Op, site: u16, call: impl FnOnce() -> T) -> T {
        self.enter(op, site);
        let result = call();
        self.exit();
        result
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed self time per operation, seconds.
    pub fn self_times(&self) -> BTreeMap<Op, f64> {
        let mut totals: BTreeMap<Op, f64> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self_times_ns(&self.spans)) {
            *totals.entry(span.op).or_default() += self_ns as f64 * 1e-9;
        }
        totals
    }

    /// Write the log as compact JSON: a name table, then one
    /// `[id, parent, name, site, start_ns, end_ns]` row per span
    /// (`parent` and `site` are -1 for none).
    pub fn write(&self, path: &Path, workload: &str, seed: u64) -> Result<(), String> {
        let mut names: Vec<&'static str> = Vec::new();
        let mut rows = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let name = span.op.name();
            let name_idx = names.iter().position(|n| *n == name).unwrap_or_else(|| {
                names.push(name);
                names.len() - 1
            });
            let parent = if span.parent == NO_PARENT {
                -1
            } else {
                i64::from(span.parent)
            };
            let site = if span.site == NO_SITE {
                -1
            } else {
                i64::from(span.site)
            };
            let sep = if id == 0 { "" } else { ",\n" };
            write!(
                rows,
                "{sep}[{id},{parent},{name_idx},{site},{},{}]",
                span.start_ns, span.end_ns
            )
            .expect("writing to a String cannot fail");
        }
        let quoted: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
        let text = format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \
             \"columns\": [\"id\", \"parent\", \"name\", \"site\", \"start_ns\", \"end_ns\"],\n\
             \"names\": [{}],\n\"spans\": [\n{rows}\n]}}\n",
            quoted.join(", ")
        );
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        }
        std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
    }
}

/// Self time of every span: its duration minus the part of that interval its
/// direct children cover (overlapping children are not counted twice, and a
/// child is clipped to its parent).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        if span.parent != NO_PARENT {
            children
                .entry(span.parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(id, span)| {
            let duration = span.end_ns.saturating_sub(span.start_ns);
            let Some(kids) = children.get_mut(&(id as u32)) else {
                return duration;
            };
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut frontier = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(frontier);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    frontier = end;
                }
            }
            duration - covered.min(duration)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(op: Op, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            op,
            site: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            span(Op::Replay, NO_PARENT, 0, 100),
            span(Op::CoreInfer, 0, 10, 40),
            // Overlaps the previous child by 10 ns and outlives the parent.
            span(Op::CoreObserve, 0, 30, 120),
            // A grandchild is its parent's business, not the root's.
            span(Op::WireEncodeMigration, 1, 15, 20),
        ];
        assert_eq!(self_times_ns(&spans), vec![10, 25, 90, 5]);
    }

    #[test]
    fn self_time_of_a_leaf_is_its_duration() {
        let spans = [span(Op::CoreInfer, NO_PARENT, 5, 9)];
        assert_eq!(self_times_ns(&spans), vec![4]);
    }

    #[test]
    fn recorder_nests_and_a_disabled_one_records_nothing() {
        let mut on = Recorder::new(true);
        on.enter(Op::Replay, NO_SITE);
        let answer = on.time(Op::CoreInfer, 3, || 42);
        on.exit();
        assert_eq!(answer, 42);
        assert_eq!(on.spans().len(), 2);
        assert_eq!(on.spans()[1].parent, 0);
        assert_eq!(on.spans()[1].site, 3);
        assert!(on.spans()[0].end_ns >= on.spans()[1].end_ns);
        let totals = on.self_times();
        assert!(totals.contains_key(&Op::Replay) && totals.contains_key(&Op::CoreInfer));

        let mut off = Recorder::new(false);
        off.enter(Op::Replay, NO_SITE);
        assert_eq!(off.time(Op::CoreInfer, 0, || 7), 7);
        off.exit();
        assert!(off.spans().is_empty());
    }

    #[test]
    fn product_spans_are_told_from_harness_phases() {
        assert!(Op::CoreInfer.is_product());
        assert!(Op::TransportPlanCompute.is_product());
        assert!(!Op::Replay.is_product());
        assert!(!Op::ReplayDepart.is_product());
    }
}
