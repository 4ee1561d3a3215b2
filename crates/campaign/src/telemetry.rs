//! JSONL telemetry sink shared by all campaign workers.
//!
//! One [`Telemetry`] instance is shared (behind an `Arc`) by every worker
//! thread; each event is rendered to a single JSON line and appended under
//! a mutex, so lines from concurrent jobs never interleave mid-line. The
//! schema is documented in `EXPERIMENTS.md`.

use crate::json::JsonValue;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// A telemetry sink: a writer that may additionally know how to make its
/// contents durable. The plain wrapper's `sync` is just a flush; the file
/// sink adds an fsync so the last events survive an abrupt exit.
trait Sink: Write + Send {
    fn sync(&mut self) -> io::Result<()> {
        self.flush()
    }
}

struct PlainSink(Box<dyn Write + Send>);

impl Write for PlainSink {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.0.write(data)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
}

impl Sink for PlainSink {}

struct FileSink(BufWriter<std::fs::File>);

impl Write for FileSink {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.0.write(data)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
}

impl Sink for FileSink {
    fn sync(&mut self) -> io::Result<()> {
        self.0.flush()?;
        self.0.get_ref().sync_all()
    }
}

/// Line-oriented telemetry writer.
pub struct Telemetry {
    sink: Mutex<Box<dyn Sink>>,
}

impl Telemetry {
    /// Telemetry into any writer (a file, a buffer, a pipe).
    pub fn new(sink: Box<dyn Write + Send>) -> Self {
        Telemetry {
            sink: Mutex::new(Box::new(PlainSink(sink))),
        }
    }

    /// Telemetry appended to a file at `path` (created/truncated). Unlike
    /// [`Telemetry::new`], the file sink supports [`Telemetry::sync`]
    /// durability: the campaign fsyncs it after the final summary event.
    pub fn file(path: &Path) -> io::Result<Self> {
        let f = std::fs::File::create(path)?;
        Ok(Telemetry {
            sink: Mutex::new(Box::new(FileSink(BufWriter::new(f)))),
        })
    }

    /// Telemetry that discards everything.
    pub fn null() -> Self {
        Self::new(Box::new(io::sink()))
    }

    /// Telemetry into a shared in-memory buffer; returns the sink and a
    /// handle from which the collected lines can be read back (used by
    /// the test-suite to validate the stream).
    pub fn buffer() -> (Self, SharedBuffer) {
        let buf = SharedBuffer::default();
        (Self::new(Box::new(buf.clone())), buf)
    }

    /// Emits one event as one JSON line, handed to the sink in a single
    /// write so an unbuffered socket sink sends it as one segment. Write
    /// errors are reported to stderr once per call but never abort the
    /// campaign: losing telemetry must not lose verdicts.
    pub fn emit(&self, event: &JsonValue) {
        let mut line = event.render();
        line.push('\n');
        let mut sink = self.sink.lock().unwrap_or_else(|e| e.into_inner());
        if let Err(e) = sink.write_all(line.as_bytes()) {
            eprintln!("telemetry write failed: {e}");
        }
    }

    /// Flushes the underlying writer.
    pub fn flush(&self) {
        let mut sink = self.sink.lock().unwrap_or_else(|e| e.into_inner());
        if let Err(e) = sink.flush() {
            eprintln!("telemetry flush failed: {e}");
        }
    }

    /// Flushes and, for file-backed telemetry, fsyncs — called after the
    /// `campaign_summary` event so the stream's tail survives an abrupt
    /// exit right after the campaign finishes. Errors are reported to
    /// stderr but never abort the campaign.
    pub fn sync(&self) {
        let mut sink = self.sink.lock().unwrap_or_else(|e| e.into_inner());
        if let Err(e) = sink.sync() {
            eprintln!("telemetry sync failed: {e}");
        }
    }
}

/// A clonable in-memory `Write` target for tests.
#[derive(Clone, Default)]
pub struct SharedBuffer(Arc<Mutex<Vec<u8>>>);

impl SharedBuffer {
    /// The collected telemetry as one string.
    pub fn contents(&self) -> String {
        let buf = self.0.lock().unwrap_or_else(|e| e.into_inner());
        String::from_utf8_lossy(&buf).into_owned()
    }

    /// The collected telemetry split into lines.
    pub fn lines(&self) -> Vec<String> {
        self.contents().lines().map(str::to_string).collect()
    }
}

impl Write for SharedBuffer {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.0
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .extend_from_slice(data);
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_json;

    #[test]
    fn emits_one_line_per_event() {
        let (t, buf) = Telemetry::buffer();
        t.emit(&JsonValue::obj().field("type", "a"));
        t.emit(&JsonValue::obj().field("type", "b").field("n", 1u32));
        t.flush();
        let lines = buf.lines();
        assert_eq!(lines.len(), 2);
        for l in &lines {
            assert!(parse_json(l).is_some(), "invalid line: {l}");
        }
        assert_eq!(lines[0], r#"{"type":"a"}"#);
    }

    #[test]
    fn concurrent_emits_never_interleave() {
        let (t, buf) = Telemetry::buffer();
        let t = Arc::new(t);
        std::thread::scope(|s| {
            for w in 0..4u32 {
                let t = Arc::clone(&t);
                s.spawn(move || {
                    for i in 0..50u32 {
                        t.emit(
                            &JsonValue::obj()
                                .field("worker", w)
                                .field("i", i)
                                .field("pad", "x".repeat(200)),
                        );
                    }
                });
            }
        });
        t.flush();
        let lines = buf.lines();
        assert_eq!(lines.len(), 200);
        for l in lines {
            assert!(parse_json(&l).is_some(), "interleaved line: {l}");
        }
    }
}
