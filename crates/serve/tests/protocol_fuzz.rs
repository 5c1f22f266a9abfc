//! Decoder robustness properties for the wire protocol: no byte sequence
//! may panic `Request::decode` / `Reply::decode` — arbitrary garbage,
//! truncated prefixes of valid encodings, and unknown opcode tags must all
//! come back as clean `Err(Malformed)` (or a successful parse when the
//! bytes happen to spell a valid frame). A live TCP server answers a
//! malformed frame with an `Error` reply instead of dying.

use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;

use proptest::prelude::*;

use invector_serve::protocol::{
    read_frame, write_frame, Reply, Request, RequestView, StatsSummary, Update, PROTOCOL_VERSION,
};
use invector_serve::{
    OpKind, RejectReason, Ring, ServeConfig, Server, StreamKind, TableSpec, ValueKind,
};

fn arb_update() -> impl Strategy<Value = Update> {
    (any::<u64>(), any::<u32>(), any::<u32>()).prop_map(|(seq, idx, bits)| Update {
        seq,
        idx,
        bits,
    })
}

/// Every request variant, dispatched off a tag byte (the vendored proptest
/// shim has no `prop_oneof`).
fn arb_request() -> impl Strategy<Value = Request> {
    (0u8..11, any::<u16>(), any::<u32>(), any::<u64>(), prop::collection::vec(arb_update(), 0..40))
        .prop_map(|(tag, word, dword, qword, updates)| match tag {
            0 => Request::Hello { version: word },
            1 => Request::Update { table: word, updates },
            2 => Request::Flush,
            3 => Request::Snapshot { table: word },
            4 => Request::Stats,
            5 => Request::Shutdown,
            6 => Request::Metrics,
            7 => Request::SnapshotBegin,
            8 => Request::WindowQuery { table: word, bucket: qword },
            9 => Request::TopK { table: word, k: dword },
            _ => Request::LogTail {
                checkpoint: qword,
                index: qword.rotate_left(17),
                max_bytes: dword,
            },
        })
}

fn arb_table_spec() -> impl Strategy<Value = TableSpec> {
    (0u8..2, 0u8..3, 1usize..512, prop::collection::vec(0u8..26, 1..12), 0u8..4, any::<u32>())
        .prop_map(|(kind, op, len, name, stream, param)| TableSpec {
            name: name.into_iter().map(|c| (b'a' + c) as char).collect(),
            kind: if kind == 0 { ValueKind::F32 } else { ValueKind::I32 },
            op: match op {
                0 => OpKind::Add,
                1 => OpKind::Min,
                _ => OpKind::Max,
            },
            len,
            // Encoding round-trips don't validate geometry, so arbitrary
            // stream parameters are fair game here.
            stream: match stream {
                0 => StreamKind::Flat,
                1 => StreamKind::GraphPageRank { vertices: param, iters: param.rotate_left(9) },
                2 => StreamKind::GraphWcc { vertices: param },
                _ => StreamKind::Window {
                    keys: param,
                    buckets: param.rotate_left(5),
                    width: param.rotate_left(11),
                    timed: param % 2 == 0,
                },
            },
        })
}

/// Every reply variant, same tag-dispatch scheme.
fn arb_reply() -> impl Strategy<Value = Reply> {
    (
        0u8..12,
        any::<u16>(),
        any::<u32>(),
        any::<u64>(),
        prop::collection::vec(any::<u32>(), 0..40),
        prop::collection::vec(arb_table_spec(), 0..4),
        prop::collection::vec(0u8..128, 0..60),
    )
        .prop_map(|(tag, word, accepted, watermark, values, tables, text)| {
            let text: String = text.into_iter().map(|c| c as char).collect();
            match tag {
                0 => Reply::Hello { version: word, quantum: accepted, tables },
                1 => Reply::Ack { accepted, watermark },
                2 => Reply::Reject {
                    accepted,
                    retry_after_ms: accepted,
                    reason: match word % 3 {
                        0 => RejectReason::QueueFull,
                        1 => RejectReason::WindowExceeded,
                        _ => RejectReason::Draining,
                    },
                },
                3 => Reply::Snapshot { table: word, watermark, checksum: accepted, values },
                8 => Reply::SnapshotMeta {
                    checkpoint: watermark,
                    index: watermark.rotate_left(13),
                    tables: word,
                },
                9 => Reply::LogRecords {
                    checkpoint: watermark,
                    next_index: watermark.wrapping_add(u64::from(accepted)),
                    head: watermark.wrapping_mul(3),
                    reset: word % 2 == 0,
                    records: values.iter().take(5).map(|&v| v.to_le_bytes().to_vec()).collect(),
                },
                4 => Reply::Stats(StatsSummary {
                    epochs: watermark,
                    slices: watermark,
                    applied: watermark,
                    rejected: u64::from(accepted),
                    duplicates: u64::from(word),
                    occupancy: 0.5,
                    conflict_depth: 1.0,
                    updates_per_sec: 1e6,
                    p50_epoch_us: 10.0,
                    p99_epoch_us: 100.0,
                }),
                5 => Reply::Metrics(text),
                6 => Reply::Bye { watermarks: values.iter().map(|&v| u64::from(v)).collect() },
                10 => Reply::Window {
                    table: word,
                    watermark,
                    bucket: watermark.rotate_left(3),
                    expired: u64::from(accepted),
                    values,
                },
                11 => Reply::TopK {
                    table: word,
                    watermark,
                    entries: values.iter().enumerate().map(|(i, &v)| (i as u32, v)).collect(),
                },
                _ => Reply::Error(text),
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Arbitrary bytes never panic either decoder: every outcome is a
    /// clean `Ok` or `Err`.
    #[test]
    fn decoders_never_panic_on_arbitrary_bytes(
        body in prop::collection::vec(any::<u8>(), 0..600),
    ) {
        let _ = Request::decode(&body);
        let _ = Reply::decode(&body);
    }

    /// Every strict prefix of a valid request encoding is refused without
    /// panicking, and the full encoding still round-trips.
    #[test]
    fn truncated_request_frames_fail_cleanly(
        request in arb_request(),
        cut in any::<usize>(),
    ) {
        let body = request.encode();
        prop_assert_eq!(Request::decode(&body).unwrap(), request);
        if body.len() > 1 {
            let cut = 1 + cut % (body.len() - 1);
            prop_assert!(Request::decode(&body[..cut]).is_err(),
                "prefix of {} of {} bytes must not parse", cut, body.len());
        }
    }

    /// Reply encodings survive arbitrary truncation without panicking (a
    /// prefix may still parse when a length field shrinks to cover it, but
    /// it must never crash), and the full encoding round-trips.
    #[test]
    fn truncated_reply_frames_never_panic(
        reply in arb_reply(),
        cut in any::<usize>(),
    ) {
        let body = reply.encode();
        prop_assert_eq!(Reply::decode(&body).unwrap(), reply);
        let cut = cut % (body.len() + 1);
        let _ = Reply::decode(&body[..cut]);
    }

    /// Unknown opcode tags are refused up front, whatever payload follows.
    #[test]
    fn unknown_opcode_tags_are_refused(
        tag in any::<u8>(),
        payload in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        // 0x09 (the chunk verb) went in protocol 4, 0x0B (edge ops) in 5.
        let known_request = (0x01..=0x0D).contains(&tag) && tag != 0x09 && tag != 0x0B;
        let known_reply = ((0x81..=0x8C).contains(&tag) && tag != 0x89) || tag == 0xFF;
        let mut body = vec![tag];
        body.extend_from_slice(&payload);
        if !known_request {
            prop_assert!(Request::decode(&body).is_err());
        }
        if !known_reply {
            prop_assert!(Reply::decode(&body).is_err());
        }
    }

    /// Bit-flipping one byte of a valid encoding never panics the decoder.
    #[test]
    fn single_byte_corruption_never_panics(
        request in arb_request(),
        pos in any::<usize>(),
        flip in 1u8..=255,
    ) {
        let mut body = request.encode();
        let pos = pos % body.len();
        body[pos] ^= flip;
        let _ = Request::decode(&body);
    }

    /// The zero-copy decoder agrees with the owned decoder on every valid
    /// frame, and its lazy per-update materialization reads the same
    /// records in the same order.
    #[test]
    fn borrowed_and_owned_decodes_agree(request in arb_request()) {
        let body = request.encode();
        let view = RequestView::decode(&body).expect("valid frame");
        prop_assert_eq!(view.to_owned(), Request::decode(&body).unwrap());
        if let RequestView::Update { updates, .. } = view {
            let materialized: Vec<Update> = updates.iter().collect();
            prop_assert_eq!(materialized.len(), updates.len());
            for (i, u) in materialized.iter().enumerate() {
                prop_assert_eq!(*u, updates.get(i));
            }
        }
    }

    /// Arbitrary bytes never panic the borrowing decoder either.
    #[test]
    fn borrowing_decoder_never_panics_on_arbitrary_bytes(
        body in prop::collection::vec(any::<u8>(), 0..600),
    ) {
        let _ = RequestView::decode(&body);
    }

    /// The v4 `SnapshotMeta` round-trips at any log position and table
    /// count; every strict prefix is refused, and so is a longer body such
    /// as a v3 one, with its chunk geometry and per-table rows.
    #[test]
    fn snapshot_meta_round_trips_and_refuses_other_lengths(
        checkpoint in any::<u64>(),
        index in any::<u64>(),
        tables in any::<u16>(),
        extra in prop::collection::vec(any::<u8>(), 1..40),
    ) {
        let meta = Reply::SnapshotMeta { checkpoint, index, tables };
        let body = meta.encode();
        prop_assert_eq!(body.len(), 19);
        prop_assert_eq!(Reply::decode(&body).unwrap(), meta);
        for cut in 0..body.len() {
            prop_assert!(Reply::decode(&body[..cut]).is_err(), "prefix of {} bytes", cut);
        }
        let mut longer = body;
        longer.extend_from_slice(&extra);
        prop_assert!(Reply::decode(&longer).is_err());
    }

    /// A multi-frame stream delivered to the ring in arbitrary read-sized
    /// chunks, at an arbitrary head rotation, decodes to exactly the
    /// original request sequence — no matter where the reads split the
    /// length prefixes or bodies, and no matter where the frames wrap the
    /// ring's physical edge.
    #[test]
    fn chunked_multi_frame_streams_decode_identically(
        requests in prop::collection::vec(arb_request(), 1..6),
        chunks in prop::collection::vec(1usize..48, 1..80),
        rot in 0usize..64,
    ) {
        let mut wire = Vec::new();
        for r in &requests {
            let body = r.encode();
            wire.extend_from_slice(&(body.len() as u32).to_le_bytes());
            wire.extend_from_slice(&body);
        }
        // Small ring + head rotation: most deliveries wrap or grow.
        let mut ring = Ring::with_capacity(64);
        ring.push(&vec![0xAAu8; rot]);
        ring.consume(rot);
        let mut scratch = Vec::new();
        let mut decoded = Vec::new();
        let mut pos = 0;
        let mut chunk_i = 0;
        while pos < wire.len() {
            let n = chunks[chunk_i % chunks.len()].min(wire.len() - pos);
            chunk_i += 1;
            ring.push(&wire[pos..pos + n]);
            pos += n;
            while let Some(frame) = ring.pop_frame(&mut scratch).expect("well-formed stream") {
                decoded.push(RequestView::decode(frame).expect("valid frame").to_owned());
            }
        }
        prop_assert_eq!(decoded, requests);
        prop_assert!(ring.is_empty(), "no residue after the last frame");
    }
}

/// Exhaustive split/wrap sweep: one frame, split at *every* byte boundary,
/// at *every* head rotation of a small ring. Covers the length prefix
/// splitting across reads, the body splitting across reads, and both of
/// them wrapping the ring's physical edge (the scratch-spill path of
/// `pop_frame`).
#[test]
fn every_split_and_wrap_boundary_decodes_identically() {
    let updates: Vec<Update> =
        (0..2).map(|i| Update { seq: i, idx: i as u32, bits: 0xA5A5_0000 | i as u32 }).collect();
    let request = Request::Update { table: 7, updates };
    let body = request.encode();
    let mut wire = (body.len() as u32).to_le_bytes().to_vec();
    wire.extend_from_slice(&body);
    assert!(wire.len() < 64, "frame must fit the ring so rotations wrap instead of growing");

    for rot in 0..64 {
        for cut in 0..=wire.len() {
            let mut ring = Ring::with_capacity(64);
            ring.push(&vec![0u8; rot]);
            ring.consume(rot);
            let mut scratch = Vec::new();
            ring.push(&wire[..cut]);
            if cut < wire.len() {
                assert!(
                    ring.pop_frame(&mut scratch).expect("clean").is_none(),
                    "partial frame (rot {rot}, cut {cut}) must wait for completion"
                );
            }
            ring.push(&wire[cut..]);
            let frame = ring.pop_frame(&mut scratch).expect("clean").expect("complete");
            let view = RequestView::decode(frame).expect("valid frame");
            assert_eq!(view.to_owned(), request, "rot {rot}, cut {cut}");
            assert!(ring.pop_frame(&mut scratch).expect("clean").is_none());
        }
    }
}

/// The same sweep for a frame larger than the initial ring capacity: every
/// split point forces a mid-frame growth (which linearizes the buffer), and
/// the decode must still come back byte-identical.
#[test]
fn growth_at_every_split_boundary_decodes_identically() {
    let updates: Vec<Update> =
        (0..24).map(|i| Update { seq: i, idx: i as u32, bits: !(i as u32) }).collect();
    let request = Request::Update { table: 1, updates };
    let body = request.encode();
    let mut wire = (body.len() as u32).to_le_bytes().to_vec();
    wire.extend_from_slice(&body);
    assert!(wire.len() > 64, "frame must overflow the initial ring");

    for cut in 0..=wire.len() {
        let mut ring = Ring::with_capacity(64);
        // Rotate into the upper half so early pushes wrap before growing.
        ring.push(&[0u8; 48]);
        ring.consume(48);
        let mut scratch = Vec::new();
        ring.push(&wire[..cut]);
        if cut < wire.len() {
            assert!(ring.pop_frame(&mut scratch).expect("clean").is_none());
        }
        ring.push(&wire[cut..]);
        let frame = ring.pop_frame(&mut scratch).expect("clean").expect("complete");
        assert_eq!(RequestView::decode(frame).expect("valid").to_owned(), request, "cut {cut}");
    }
}

/// A garbage frame after the handshake gets an `Error` reply over the
/// wire — the server survives hostile bytes rather than panicking or
/// silently hanging the connection.
#[test]
fn tcp_server_answers_garbage_frames_with_an_error_reply() {
    let config = ServeConfig::new(vec![TableSpec::i32("c", OpKind::Add, 16)]);
    let server = Server::bind(config, "127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr();

    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = BufWriter::new(stream);

    // Handshake by hand so we control every byte that follows.
    write_frame(&mut writer, &Request::Hello { version: PROTOCOL_VERSION }.encode())
        .expect("hello");
    let hello = read_frame(&mut reader).expect("hello reply").expect("frame");
    assert!(matches!(Reply::decode(&hello).expect("decode"), Reply::Hello { .. }));

    // An unknown opcode with junk payload must come back as Error.
    write_frame(&mut writer, &[0x5A, 0xDE, 0xAD, 0xBE, 0xEF]).expect("garbage");
    let reply = read_frame(&mut reader).expect("error reply").expect("frame");
    match Reply::decode(&reply).expect("decode") {
        Reply::Error(m) => assert!(m.contains("unknown request opcode"), "{m}"),
        other => panic!("expected an Error reply, got {other:?}"),
    }

    // The server refused the connection but is still alive: a fresh
    // connection handshakes and shuts it down cleanly.
    let mut check = invector_serve::TcpClient::connect(addr).expect("reconnect");
    let exposition =
        invector_serve::ServeClient::metrics(&mut check).expect("metrics after garbage");
    assert!(exposition.contains("invector_serve_epochs_total"));
    check.shutdown().expect("shutdown");
    server.join();

    // Quiet the unused-write warning path: flush the dead writer.
    let _ = writer.flush();
}

/// A `TopK` reply of `15 + 8k` bytes must fit one frame. A request for more
/// entries than that is refused before anything is sorted, with the same
/// error in process and over TCP, and the connection keeps serving: the
/// refusal is one `Error` frame, not a reply the client cannot read.
#[test]
fn top_k_beyond_one_reply_frame_is_refused_and_the_connection_keeps_serving() {
    use invector_serve::protocol::MAX_FRAME_LEN;
    use invector_serve::{LocalClient, ServeClient, TcpClient};

    let slots = (MAX_FRAME_LEN - 15) / 8 + 1;
    let config = ServeConfig::new(vec![
        TableSpec::i32("wide", OpKind::Max, slots),
        TableSpec::i32("small", OpKind::Add, 16),
    ]);
    let server = Server::bind(config, "127.0.0.1:0").expect("bind loopback");
    let mut tcp = TcpClient::connect(server.local_addr()).expect("connect");

    let err = tcp.top_k(0, slots as u32).expect_err("a reply over the frame cap");
    assert_eq!(
        err,
        format!(
            "top-k of {slots} exceeds the {} entries one TopK reply frame can carry",
            slots - 1
        )
    );
    let mut local = LocalClient::new(server.core());
    assert_eq!(local.top_k(0, slots as u32).expect_err("refused in process too"), err);

    tcp.submit_all(1, &[Update::i32(0, 5, 7), Update::i32(1, 2, 9)]).expect("submit");
    tcp.flush().expect("flush");
    let page = tcp.top_k(1, 2).expect("the same connection still serves");
    assert_eq!(page.entries, vec![(2, 9), (5, 7)]);
    tcp.shutdown().expect("shutdown");
    server.join();
}

/// Hostile stream-verb parameters — wrong table kinds, unknown window
/// buckets, out-of-range top-k, out-of-range edge endpoints — all come
/// back as clean `Error` replies over the wire, and the connection stays
/// usable afterwards.
#[test]
fn stream_verbs_refuse_hostile_parameters_without_panicking() {
    use invector_serve::{ServeClient, SubmitOutcome, TcpClient};
    use invector_streamkit::edge_event;

    let edge = |src, dst| {
        let (idx, bits) = edge_event(src, dst, true);
        [Update { seq: 0, idx, bits }]
    };

    let config = ServeConfig::new(vec![
        TableSpec::i32("flat", OpKind::Add, 16),
        TableSpec::wcc("components", 8),
        TableSpec::window("gauges", OpKind::Max, 4, 3, 2, true),
    ]);
    let server = Server::bind(config, "127.0.0.1:0").expect("bind loopback");
    let mut tcp = TcpClient::connect(server.local_addr()).expect("connect");

    // Edges with out-of-range vertices, and edges for an unknown table.
    assert!(matches!(tcp.submit(1, &edge(2, 99)).unwrap(), SubmitOutcome::Failed(_)));
    assert!(matches!(tcp.submit(1, &edge(99, 2)).unwrap(), SubmitOutcome::Failed(_)));
    assert!(matches!(tcp.submit(999, &edge(2, 3)).unwrap(), SubmitOutcome::Failed(_)));

    // Window queries against non-window tables and unknown bucket ids.
    assert!(tcp.window_query(0, 0).is_err(), "flat table has no windows");
    assert!(tcp.window_query(1, 0).is_err(), "graph table has no windows");
    assert!(tcp.window_query(2, 7777).is_err(), "bucket far past the watermark is unknown");
    assert!(tcp.window_query(2, u64::MAX).is_ok(), "current-aggregate probe always answers");

    // Top-k outside [1, region].
    assert!(tcp.top_k(0, 0).is_err());
    assert!(tcp.top_k(0, 17).is_err(), "flat table region is 16 slots");
    assert!(tcp.top_k(1, 9).is_err(), "graph region is 8 vertices");
    assert!(tcp.top_k(2, 5).is_err(), "window region is 4 keys");
    assert_eq!(tcp.top_k(2, 4).expect("in-range top-k").entries.len(), 4);

    // The same connection still serves honest traffic.
    let outcome = tcp.submit(1, &edge(2, 3)).expect("edge update");
    assert!(matches!(outcome, SubmitOutcome::Accepted { .. }));
    tcp.flush().expect("flush");
    tcp.shutdown().expect("shutdown");
    server.join();
}
