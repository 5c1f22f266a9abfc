//! Graph tables take their edges as ordinary `Update` records, through the
//! one admission entry. An edge with an endpoint outside the table's
//! vertices is refused there, whole batch, with the same error over TCP
//! and in process: nothing is staged, the watermark stays where it was,
//! and every record of the batch counts as rejected.

use invector_serve::{
    LocalClient, ServeClient, ServeConfig, Server, ServerCore, SubmitOutcome, TableSpec, TcpClient,
    Update,
};
use invector_streamkit::edge_event;

const VERTICES: u32 = 64;

fn edge(seq: u64, src: u32, dst: u32, insert: bool) -> Update {
    let (idx, bits) = edge_event(src, dst, insert);
    Update { seq, idx, bits }
}

/// `invector_serve_rejected_total` in the core's scrape.
fn rejected(core: &ServerCore) -> u64 {
    let text = core.metrics_text();
    text.lines()
        .find_map(|l| l.strip_prefix("invector_serve_rejected_total "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("no rejected series:\n{text}"))
}

#[test]
fn out_of_range_edges_are_refused_whole_on_both_transports() {
    let config = ServeConfig::new(vec![
        TableSpec::pagerank("ranks", VERTICES, 4),
        TableSpec::wcc("components", VERTICES),
    ]);
    // Both tables hold more slots than vertices (the adjacency bitmap
    // follows the values), so a source of `VERTICES` is a valid slot.
    assert!(config.tables.iter().all(|t| t.len > VERTICES as usize));
    let server = Server::bind(config, "127.0.0.1:0").expect("bind loopback");
    let core = server.core();
    let mut tcp = TcpClient::connect(server.local_addr()).expect("connect");
    let mut local = LocalClient::new(server.core());

    // One honest edge per table, applied, so the watermark has a place to
    // stay.
    for table in [0u16, 1] {
        tcp.submit_all(table, &[edge(0, 1, 2, true)]).expect("an in-range edge");
    }
    tcp.flush().expect("flush");
    assert_eq!(core.watermarks(), vec![1, 1]);
    let applied = core.stats_summary().applied;

    let bad = [
        (VERTICES, 3, true),
        (3, VERTICES, true),
        (u32::MAX, 3, false),
        (3, VERTICES + 1000, false),
    ];
    for (table, name) in [(0u16, "ranks"), (1, "components")] {
        for (src, dst, insert) in bad {
            for transport in ["tcp", "in-process"] {
                // In-range edges on either side of the bad one: a check of
                // the prefix alone would admit the first.
                let batch = [edge(1, 1, 3, true), edge(2, src, dst, insert), edge(3, 2, 1, true)];
                let before = rejected(&core);
                let outcome = match transport {
                    "tcp" => tcp.submit(table, &batch),
                    _ => local.submit(table, &batch),
                }
                .expect("a reply");
                let expect = format!(
                    "edge ({src}, {dst}) out of range for table '{name}' of {VERTICES} vertices"
                );
                assert_eq!(outcome, SubmitOutcome::Failed(expect), "{transport}");
                assert_eq!(rejected(&core), before + 3, "{transport}: the whole batch is rejected");
                // Nothing was staged: a flush applies nothing.
                tcp.flush().expect("flush");
                assert_eq!(core.stats_summary().applied, applied, "{transport}: {src} -> {dst}");
                assert_eq!(core.watermarks(), vec![1, 1], "{transport}: {src} -> {dst}");
            }
        }
    }

    // The same connections still admit in-range edges.
    tcp.submit_all(0, &[edge(1, 3, 1, true)]).expect("tcp edge");
    local.submit_all(1, &[edge(1, VERTICES - 1, 0, true)]).expect("in-process edge");
    tcp.flush().expect("flush");
    assert_eq!(core.watermarks(), vec![2, 2]);
    tcp.shutdown().expect("shutdown");
    server.join();
}
