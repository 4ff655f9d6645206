//! The traced run's span buffer.
//!
//! Spans are recorded by the benchmark's own code around each call into a
//! library layer, kept in memory, and written out when the run ends. The
//! libraries' own telemetry is not involved, so changes to it cannot move
//! what the benchmark measures.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Handle returned for a span that has no parent, or was not recorded.
pub const NONE: u32 = u32::MAX;

/// Spans kept per run; later spans are counted as dropped.
const CAPACITY: usize = 1 << 20;

/// Span names, indexed by the constants below.
const NAMES: [&str; 11] = [
    "ar_frame/frame",
    "track.update",
    "geo.knn",
    "render.occlusion",
    "render.project",
    "render.layout",
    "window_batch/op",
    "stream.run_windowed",
    "stream.poll",
    "stream.window",
    "core.ingest",
];
pub const FRAME: u16 = 0;
pub const TRACK_UPDATE: u16 = 1;
pub const GEO_KNN: u16 = 2;
pub const RENDER_OCCLUSION: u16 = 3;
pub const RENDER_PROJECT: u16 = 4;
pub const RENDER_LAYOUT: u16 = 5;
pub const BATCH_OP: u16 = 6;
pub const RUN_WINDOWED: u16 = 7;
pub const POLL: u16 = 8;
pub const WINDOW: u16 = 9;
pub const CORE_INGEST: u16 = 10;

/// Where a workload records its spans: [`Off`] for the end-to-end run,
/// [`Buffer`] for the traced run.
pub trait Spans {
    /// Opens a span named `name` under `parent`; returns its handle.
    fn begin(&mut self, name: u16, parent: u32) -> u32;
    /// Closes the span `id`.
    fn end(&mut self, id: u32);
}

/// Tracing off: both calls compile to nothing.
pub struct Off;

impl Spans for Off {
    #[inline(always)]
    fn begin(&mut self, _name: u16, _parent: u32) -> u32 {
        NONE
    }
    #[inline(always)]
    fn end(&mut self, _id: u32) {}
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: u16,
    parent: u32,
    start_ns: u64,
    dur_ns: u64,
}

/// In-memory span buffer of bounded size.
pub struct Buffer {
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Buffer {
    /// An empty buffer with room for [`CAPACITY`] spans.
    pub fn new() -> Self {
        Buffer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(CAPACITY),
            dropped: 0,
        }
    }

    /// Self time of every span named `name`, in nanoseconds: its duration
    /// minus the part its direct children cover.
    pub fn self_ns(&self, name: u16) -> Vec<f64> {
        let mut children = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(c) = children.get_mut(s.parent as usize) {
                *c += s.dur_ns;
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| s.dur_ns.saturating_sub(*c) as f64)
            .collect()
    }

    /// Total duration of every span named `name`, in nanoseconds.
    pub fn dur_ns(&self, name: u16) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64)
            .collect()
    }

    /// Writes every span as one tab-separated line, after a header and
    /// before a trailing count of dropped spans.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tstart_ns\tdur_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let name = NAMES[s.name as usize];
            if s.parent == NONE {
                writeln!(out, "{i}\t-\t{name}\t{}\t{}", s.start_ns, s.dur_ns)?;
            } else {
                writeln!(
                    out,
                    "{i}\t{}\t{name}\t{}\t{}",
                    s.parent, s.start_ns, s.dur_ns
                )?;
            }
        }
        writeln!(out, "# dropped\t{}", self.dropped)?;
        out.flush()
    }
}

impl Spans for Buffer {
    fn begin(&mut self, name: u16, parent: u32) -> u32 {
        if self.spans.len() >= CAPACITY {
            self.dropped += 1;
            return NONE;
        }
        self.spans.push(Span {
            name,
            parent,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            dur_ns: 0,
        });
        (self.spans.len() - 1) as u32
    }

    fn end(&mut self, id: u32) {
        let now = self.epoch.elapsed().as_nanos() as u64;
        if let Some(s) = self.spans.get_mut(id as usize) {
            s.dur_ns = now.saturating_sub(s.start_ns);
        }
    }
}

/// Where the traced run of `workload` writes its spans.
pub fn out_path(workload: &str, seed: u64) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{workload}-seed{seed}.spans.tsv"))
}
