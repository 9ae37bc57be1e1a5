//! Streaming NDJSON export: a probe [`Subscriber`] that buffers events
//! and drains them as newline-delimited JSON to a pluggable writer.
//!
//! The hot path must never block on I/O (it runs while the traced lock
//! is held), so `on_event` only appends to a bounded in-memory queue —
//! serialization and writing happen in [`NdjsonSubscriber::drain`],
//! called from whatever cadence the consumer likes (end of an
//! experiment, a flusher thread, a test assertion). When the queue is
//! full the event is **dropped and counted**, never blocked on: the
//! exporter degrades to a sampler under overload, and the drop counter
//! says exactly how lossy the stream was (`lockstat`'s philosophy —
//! honest accounting beats silent loss).

use std::collections::VecDeque;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use machk_sync::probe::{self, Subscriber, TraceEvent};

/// Bounded, drop-counting, writer-pluggable NDJSON exporter.
pub struct NdjsonSubscriber {
    queue: Mutex<VecDeque<TraceEvent>>,
    capacity: usize,
    dropped: AtomicU64,
    accepted: AtomicU64,
    written: AtomicU64,
    writer: Mutex<Box<dyn Write + Send>>,
}

impl NdjsonSubscriber {
    /// Exporter with a `capacity`-event buffer draining into `writer`.
    pub fn new(capacity: usize, writer: Box<dyn Write + Send>) -> NdjsonSubscriber {
        NdjsonSubscriber {
            queue: Mutex::new(VecDeque::with_capacity(capacity)),
            capacity: capacity.max(1),
            dropped: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            written: AtomicU64::new(0),
            writer: Mutex::new(writer),
        }
    }

    /// Exporter draining into a shared in-memory byte buffer (tests,
    /// E16's artifact capture). Returns the subscriber and the buffer.
    pub fn to_shared_vec(capacity: usize) -> (NdjsonSubscriber, Arc<Mutex<Vec<u8>>>) {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let writer = VecWriter(Arc::clone(&buf));
        (Self::new(capacity, Box::new(writer)), buf)
    }

    /// Serialize and write every buffered event; returns the number of
    /// lines written. I/O errors are returned, with the drained events
    /// lost (counted as written already — the stream is lossy by
    /// contract, not transactional).
    pub fn drain(&self) -> std::io::Result<usize> {
        let batch: Vec<TraceEvent> = {
            let mut q = self.queue.lock().unwrap();
            q.drain(..).collect()
        };
        if batch.is_empty() {
            return Ok(0);
        }
        let mut out = String::with_capacity(batch.len() * 96);
        for ev in &batch {
            out.push_str(&line_for(ev));
            out.push('\n');
        }
        let mut w = self.writer.lock().unwrap();
        w.write_all(out.as_bytes())?;
        w.flush()?;
        // relaxed: monotone stats counter.
        self.written.fetch_add(batch.len() as u64, Ordering::Relaxed); // relaxed: stats counter
        Ok(batch.len())
    }

    /// Events dropped because the buffer was full.
    pub fn dropped(&self) -> u64 {
        // relaxed: advisory read.
        self.dropped.load(Ordering::Relaxed)
    }

    /// Events accepted into the buffer (drained or still queued).
    pub fn accepted(&self) -> u64 {
        // relaxed: advisory read.
        self.accepted.load(Ordering::Relaxed)
    }

    /// Lines written out by [`NdjsonSubscriber::drain`] so far.
    pub fn written(&self) -> u64 {
        // relaxed: advisory read.
        self.written.load(Ordering::Relaxed)
    }

    /// Buffer capacity (events).
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl Subscriber for NdjsonSubscriber {
    fn name(&self) -> &'static str {
        "ndjson"
    }

    fn on_event(&self, ev: &TraceEvent) {
        let mut q = self.queue.lock().unwrap();
        if q.len() >= self.capacity {
            drop(q);
            // relaxed: monotone stats counter.
            self.dropped.fetch_add(1, Ordering::Relaxed); // relaxed: stats counter
            return;
        }
        q.push_back(*ev);
        drop(q);
        // relaxed: monotone stats counter.
        self.accepted.fetch_add(1, Ordering::Relaxed); // relaxed: stats counter
    }
}

/// One NDJSON line (no trailing newline) for an event. The lock name
/// is resolved through the registry at serialization time so the hot
/// path never touches the name table.
pub fn line_for(ev: &TraceEvent) -> String {
    format!(
        "{{\"ts_ns\":{},\"kind\":\"{}\",\"lock_id\":{},\"lock\":{},\"thread\":{},\"arg\":{},\"flags\":{}}}",
        ev.ts_ns,
        ev.kind.label(),
        ev.lock_id,
        json_name(ev.lock_id),
        ev.thread,
        ev.arg,
        ev.flags,
    )
}

fn json_name(id: u32) -> String {
    let name = if id == 0 { "" } else { probe::name_of(id) };
    let mut out = String::with_capacity(name.len() + 2);
    out.push('"');
    for c in name.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `Write` into an `Arc<Mutex<Vec<u8>>>` — the shared-buffer writer
/// behind [`NdjsonSubscriber::to_shared_vec`].
pub struct VecWriter(pub Arc<Mutex<Vec<u8>>>);

impl Write for VecWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use machk_sync::probe::EventKind;

    fn ev(arg: u64) -> TraceEvent {
        TraceEvent {
            ts_ns: arg,
            kind: EventKind::SimpleAcquire,
            lock_id: 0,
            thread: 1,
            arg,
            flags: 0,
        }
    }

    #[test]
    fn lines_are_single_json_objects() {
        let line = line_for(&ev(42));
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"kind\":\"simple_acquire\""));
        assert!(line.contains("\"arg\":42"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn drops_count_exactly_past_capacity() {
        let (sub, buf) = NdjsonSubscriber::to_shared_vec(4);
        for i in 0..10 {
            sub.on_event(&ev(i));
        }
        assert_eq!(sub.accepted(), 4);
        assert_eq!(sub.dropped(), 6);
        assert_eq!(sub.drain().unwrap(), 4);
        assert_eq!(sub.written(), 4);
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert_eq!(text.lines().count(), 4);
        // Capacity frees up after a drain; the stream resumes.
        sub.on_event(&ev(99));
        assert_eq!(sub.drain().unwrap(), 1);
        assert_eq!(sub.dropped(), 6, "post-drain events are not dropped");
    }
}
