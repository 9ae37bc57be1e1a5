//! The NDJSON export through the real dispatcher: one JSON object per
//! event the trace rings hold, with the registry-resolved lock name.
//!
//! Own process on purpose: the line count must equal the ring
//! snapshot's, which holds only if no other test pushes events
//! between the two.

use machk_obs::{report, ring};
use machk_sync::probe::{self, EventKind, LockClass};

#[test]
fn export_emits_one_json_line_per_ring_event() {
    machk_obs::install_stats();
    let id = probe::register("ndjson.probe", LockClass::Simple, "tas");
    for i in 0..16 {
        probe::event(EventKind::SimpleAcquire, id, i);
        probe::event(EventKind::SimpleRelease, id, i);
    }

    let (text, overwritten) = report::render_ndjson();
    let events = ring::snapshot_all();
    assert_eq!(events.len(), 32);
    assert_eq!(overwritten, 0, "nothing wrapped a {}-slot ring", ring::RING_CAPACITY);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), events.len(), "one line per ring event");
    for (line, ev) in lines.iter().zip(&events) {
        let body = line
            .strip_prefix('{')
            .and_then(|l| l.strip_suffix('}'))
            .unwrap_or_else(|| panic!("not one JSON object: {line}"));
        let keys: Vec<&str> = body
            .split(',')
            .map(|field| field.split_once(':').expect("key:value").0)
            .collect();
        assert_eq!(
            keys,
            ["\"ts_ns\"", "\"kind\"", "\"lock_id\"", "\"lock\"", "\"thread\"", "\"arg\"", "\"flags\""],
            "{line}"
        );
        assert!(line.contains("\"lock\":\"ndjson.probe\""), "name missing: {line}");
        assert_eq!(*line, report::line_for(ev));
    }
}
