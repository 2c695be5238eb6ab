//! The counted heap footprint of the 44 MVE kernel traces at test scale.
//!
//! `Trace::heap_bytes` counts the event buffer and the out-of-line line-set
//! segments. The bound sits about 19% above the 629,136 bytes measured
//! when memory events began storing their lines as strided segments; one
//! `u64` per line would hold 1,834,304 bytes for the same traces.

use mve_core::trace::Event;
use mve_kernels::registry::all_kernels;
use mve_kernels::Scale;

#[test]
fn test_scale_mve_traces_fit_their_counted_bound() {
    let (mut heap, mut per_line) = (0, 0);
    let kernels = all_kernels();
    assert_eq!(kernels.len(), 44);
    for k in kernels {
        let trace = k.run_mve(Scale::Test).trace;
        let (mut lines, mut segments) = (0, 0);
        for event in trace.events() {
            if let Event::Memory { lines: set, .. } = event {
                lines += set.len();
                segments += set.heap_bytes();
            }
        }
        heap += trace.heap_bytes();
        per_line += trace.heap_bytes() - segments + lines * 8;
    }
    assert!(heap <= 750_000, "{heap} bytes");
    assert!(
        heap * 2 < per_line,
        "{heap} bytes against {per_line} per line"
    );
}
