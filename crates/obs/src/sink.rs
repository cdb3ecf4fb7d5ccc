//! Pluggable event sinks: where the trace stream goes.

use crate::event::Event;
use std::collections::VecDeque;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};

/// Consumer of the event stream. Sinks run behind the [`Obs`](crate::Obs)
/// handle's mutex, so implementations need not be internally synchronised.
pub trait EventSink: Send {
    /// Accept one event.
    fn accept(&mut self, ev: &Event);

    /// Flush any buffered output (e.g. before process exit).
    fn flush(&mut self) {}
}

/// Discards everything.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl EventSink for NullSink {
    fn accept(&mut self, _ev: &Event) {}
}

/// Bounded in-memory ring: keeps the most recent `capacity` events.
///
/// [`RingBuffer::new`] returns the shared buffer; [`RingBuffer::sink`]
/// hands out the writing end to install in an `Obs`, while the buffer
/// itself stays readable from the test/driver side.
#[derive(Clone, Debug)]
pub struct RingBuffer {
    shared: Arc<Mutex<VecDeque<Event>>>,
    capacity: usize,
}

impl RingBuffer {
    /// New ring holding at most `capacity` events (oldest dropped first).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        Self {
            shared: Arc::new(Mutex::new(VecDeque::new())),
            capacity,
        }
    }

    /// The writing end, for `Obs::new`.
    pub fn sink(&self) -> RingSink {
        RingSink { buf: self.clone() }
    }

    /// Copy of the current contents, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.shared.lock().unwrap().iter().cloned().collect()
    }

    /// Drain the buffer, returning its contents oldest first.
    pub fn drain(&self) -> Vec<Event> {
        self.shared.lock().unwrap().drain(..).collect()
    }

    pub fn len(&self) -> usize {
        self.shared.lock().unwrap().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Writing end of a [`RingBuffer`].
#[derive(Clone, Debug)]
pub struct RingSink {
    buf: RingBuffer,
}

impl EventSink for RingSink {
    fn accept(&mut self, ev: &Event) {
        let mut q = self.buf.shared.lock().unwrap();
        if q.len() == self.buf.capacity {
            q.pop_front();
        }
        q.push_back(ev.clone());
    }
}

/// Writes one JSON object per line to any [`Write`] target.
#[derive(Debug)]
pub struct JsonLinesSink<W: Write + Send> {
    w: W,
}

impl<W: Write + Send> JsonLinesSink<W> {
    pub fn new(w: W) -> Self {
        Self { w }
    }
}

impl JsonLinesSink<io::BufWriter<std::fs::File>> {
    /// Create (truncate) `path` and stream JSONL into it.
    pub fn create(path: &std::path::Path) -> io::Result<Self> {
        Ok(Self::new(io::BufWriter::new(std::fs::File::create(path)?)))
    }
}

impl<W: Write + Send> EventSink for JsonLinesSink<W> {
    fn accept(&mut self, ev: &Event) {
        // Serialisation errors on a diagnostics stream must not take down
        // the run; drop the line instead.
        let _ = writeln!(self.w, "{}", ev.to_json());
    }

    fn flush(&mut self) {
        let _ = self.w.flush();
    }
}

/// Cloneable in-memory byte buffer implementing [`Write`] — lets tests pair
/// a [`JsonLinesSink`] with a reader handle on the same bytes.
#[derive(Clone, Debug, Default)]
pub struct SharedBuf {
    bytes: Arc<Mutex<Vec<u8>>>,
}

impl SharedBuf {
    pub fn new() -> Self {
        Self::default()
    }

    /// Copy of the bytes written so far.
    pub fn contents(&self) -> Vec<u8> {
        self.bytes.lock().unwrap().clone()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.bytes.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_most_recent() {
        let ring = RingBuffer::new(2);
        let mut sink = ring.sink();
        for i in 0..5u64 {
            sink.accept(&Event::sim(i, "c", "k").u64_field("i", i));
        }
        let evs = ring.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].t.nanos(), 3);
        assert_eq!(evs[1].t.nanos(), 4);
        assert_eq!(ring.drain().len(), 2);
        assert!(ring.is_empty());
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let buf = SharedBuf::new();
        let mut sink = JsonLinesSink::new(buf.clone());
        sink.accept(&Event::sim(1, "a", "x"));
        sink.accept(&Event::wall(2, "b", "y").u64_field("n", 9));
        sink.flush();
        let text = String::from_utf8(buf.contents()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            Event::from_json(line).unwrap();
        }
    }
}
