//! Streamed JSON equals the value-tree rendering on real pipeline output.
//!
//! `serde_json::to_string*` streams through `Serialize::write_json`; the
//! value tree (`to_value`, then render) is the independent route kept
//! for `json!` and deserialization. On a real tealeaf run — its report,
//! its live remediation report, and its fleet corpus — both routes must
//! agree byte for byte, compact and pretty.

use odp_workloads::adaptive::run_adaptive;
use odp_workloads::capture::capture_artifact;
use odp_workloads::{by_name, ProblemSize, Variant};
use ompdataperf::fleet::FleetIngest;
use serde::Serialize;

/// `assert!`, not `assert_eq!`: a mismatch must not print megabytes.
fn assert_streams_like_tree<T: Serialize>(what: &str, v: &T) {
    let tree = v.to_value();
    let pretty = serde_json::to_string_pretty(v).unwrap();
    assert!(
        pretty == serde_json::to_string_pretty(&tree).unwrap(),
        "{what}: pretty JSON differs from the tree rendering"
    );
    assert!(
        serde_json::to_string(v).unwrap() == serde_json::to_string(&tree).unwrap(),
        "{what}: compact JSON differs from the tree rendering"
    );
}

#[test]
fn tealeaf_report_remediation_and_corpus_stream_like_their_trees() {
    let w = by_name("tealeaf").unwrap();
    let run = run_adaptive(&*w, ProblemSize::Small, Variant::Original);
    assert!(!run.report.findings.duplicates.is_empty());
    assert!(!run.remediation.rows.is_empty());
    assert_streams_like_tree("report", &run.report);
    assert_streams_like_tree("remediation report", &run.remediation);

    let ingest = FleetIngest::new();
    let artifact = capture_artifact(&*w, ProblemSize::Small, Variant::Original, false);
    ingest.submit("tealeaf", artifact.to_bytes());
    let corpus = ingest.compact();
    assert!(!corpus.fleet.entries.is_empty());
    assert_streams_like_tree("corpus", &corpus);
}
