//! The allocation-reusing `read_into` path must be byte-identical to the
//! allocating `read` path on every file the tree lists, in both reader
//! contexts — the scanner and the metric windows stream through
//! `read_into`, so a divergence would silently skew every downstream
//! result.

use containerleaks::leakscan::Lab;
use containerleaks::pseudofs::{PseudoFs, View};

#[test]
fn read_and_read_into_agree_on_every_listed_path() {
    let lab = Lab::new(1, 41);
    let h = lab.host(0);
    let fs = PseudoFs::new();
    let mut buf = String::new();
    let mut checked = 0usize;
    for view in [View::host(), h.container_view()] {
        for path in fs.list(&h.kernel, &view) {
            let direct = fs
                .read(&h.kernel, &view, &path)
                .unwrap_or_else(|e| panic!("{path} listed but unreadable: {e}"));
            fs.read_into(&h.kernel, &view, &path, &mut buf)
                .unwrap_or_else(|e| panic!("{path} read_into failed: {e}"));
            assert_eq!(direct, buf, "read vs read_into diverge on {path}");
            checked += 1;
        }
    }
    assert!(checked > 150, "both views walked, got {checked} paths");
}
