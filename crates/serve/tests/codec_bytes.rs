//! Byte-exact pins for the serving byte formats: the 16-byte update record
//! (`Update` requests, graph edges among them, and WAL batches), the WAL
//! seal, the `Hello` reply, the follower bootstrap's `SnapshotMeta` reply,
//! and the slot image
//! (`count:u32 count x bits:u32`) carried by the `Snapshot` and `Window`
//! replies and by checkpoint table records.
//!
//! Every expected encoding below is written out by hand, byte by byte, so a
//! codec change that moves any byte fails here no matter how the encoder
//! and decoder agree with each other. Checkpoint records are written by the
//! streamed writer the core uses, and `Snapshot` replies are also written
//! straight from a table, by the core and through a live server, alone and
//! as the frames of a bootstrap. The
//! slot-image decoders must also refuse a count that overruns the body
//! without allocating it, and the four ways of checksumming a slot image
//! must agree.

use std::io::{BufReader, BufWriter};
use std::net::TcpStream;
use std::path::PathBuf;

use invector_core::exec::ExecPolicy;
use invector_serve::protocol::{
    read_frame, write_frame, ProtoError, Reply, Request, RequestView, Update, PROTOCOL_VERSION,
};
use invector_serve::table::TableState;
use invector_serve::wal::{checkpoint_table_len, decode_checkpoint_table, encode_checkpoint_table};
use invector_serve::{
    snapshot_checksum, EpochPolicy, OpKind, ServeConfig, Server, ServerCore, SubmitOutcome,
    SyncPolicy, TableData, TableSpec, WalOptions, WalRecord,
};

/// Parses a hand-written hex string (whitespace ignored) into bytes.
fn hex(s: &str) -> Vec<u8> {
    let digits: Vec<u8> = s.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    assert!(digits.len().is_multiple_of(2), "odd hex digit count");
    digits
        .chunks(2)
        .map(|p| u8::from_str_radix(std::str::from_utf8(p).expect("ascii"), 16).expect("hex"))
        .collect()
}

/// One table's checkpoint record, as the streamed writer writes it.
fn checkpoint_record(table: u16, watermark: u64, data: &TableData) -> Vec<u8> {
    let mut out = Vec::new();
    encode_checkpoint_table(table, watermark, data, &mut out).expect("in-memory write");
    assert_eq!(out.len(), checkpoint_table_len(data.len()), "record of its announced length");
    out
}

/// Three records covering a `u64::MAX` seq, a NaN payload, `i32::MIN`
/// (also `-0.0`), `+0` and distinct bytes in every field.
fn updates() -> Vec<Update> {
    vec![
        Update { seq: u64::MAX, idx: 7, bits: 0x7fc0_0001 },
        Update { seq: 0, idx: u32::MAX, bits: i32::MIN as u32 },
        Update { seq: 0x0102_0304_0506_0708, idx: 0x0a0b_0c0d, bits: 0 },
    ]
}

/// The [`updates`] records as wire bytes.
const RECORDS: &str = "
    ffffffffffffffff 07000000 0100c07f
    0000000000000000 ffffffff 00000080
    0807060504030201 0d0c0b0a 00000000";

#[test]
fn update_request_matches_hand_written_bytes() {
    let req = Request::Update { table: 5, updates: updates() };
    let expect = hex(&format!("02 0500 03000000 {RECORDS}"));
    assert_eq!(req.encode(), expect);
    assert_eq!(RequestView::decode(&expect).expect("decode").to_owned(), req);
}

/// An edge insert and an edge delete as wire records: the delete sets bit
/// 31 of the destination word.
const EDGE_RECORDS: &str = "
    ffffffffffffffff 03000000 ffffff7f
    0100000000000000 00000000 09000080";

#[test]
fn edge_update_request_matches_hand_written_bytes() {
    let edge = |seq, src, dst, insert| {
        let (idx, bits) = invector_streamkit::edge_event(src, dst, insert);
        Update { seq, idx, bits }
    };
    let req = Request::Update {
        table: 2,
        updates: vec![edge(u64::MAX, 3, 0x7fff_ffff, true), edge(1, 0, 9, false)],
    };
    let expect = hex(&format!("02 0200 02000000 {EDGE_RECORDS}"));
    assert_eq!(req.encode(), expect);
    assert_eq!(Request::decode(&expect).expect("decode"), req);
    // Opcode 0x0B is unknown: no edge-op verb in protocol 5.
    assert!(Request::decode(&hex(&format!("0b 0200 02000000 {EDGE_RECORDS}"))).is_err());
}

#[test]
fn the_v5_hello_reply_matches_hand_written_bytes() {
    assert_eq!(PROTOCOL_VERSION, 5);
    let hello = Reply::Hello {
        version: 5,
        quantum: 0x0102_0304,
        tables: vec![TableSpec::i32("ab", OpKind::Max, 3), TableSpec::wcc("g", 2)],
    };
    // version, quantum and the table count, with no shard count; then each
    // table: kind, op, len, stream (with its parameters), name.
    let expect = hex("81 0500 04030201 0200
        01 02 03000000 00 0200 6162
        01 01 03000000 02 02000000 0100 67");
    assert_eq!(hello.encode(), expect);
    assert_eq!(Reply::decode(&expect).expect("decode"), hello);
}

#[test]
fn wal_records_match_hand_written_bytes() {
    let batch = WalRecord::Batch { table: 0x0102, updates: updates() };
    let expect = hex(&format!("01 0201 03000000 {RECORDS}"));
    assert_eq!(batch.encode(), expect);
    assert_eq!(WalRecord::decode(&expect).expect("decode batch"), batch);

    let seal = WalRecord::Seal { table: 7, watermark: u64::MAX, crc: 0xdead_beef };
    let expect = hex("02 0700 ffffffffffffffff efbeadde");
    assert_eq!(seal.encode(), expect);
    assert_eq!(WalRecord::decode(&expect).expect("decode seal"), seal);
}

/// A slot image's values: a quiet NaN with a payload, a signalling NaN,
/// `-0.0` (`i32::MIN`), `+0`, the smallest subnormal and `f32::MIN`.
const SLOTS: [u32; 6] = [0x7fc0_0001, 0x7fa0_0002, 0x8000_0000, 0, 1, 0xff7f_ffff];
/// [`SLOTS`] as a slot image.
const SLOT_IMAGE: &str = "06000000 0100c07f 0200a07f 00000080 00000000 01000000 ffff7fff";

#[test]
fn checkpoint_table_records_match_hand_written_bytes() {
    let f32s = TableData::F32(SLOTS.iter().map(|&b| f32::from_bits(b)).collect());
    let expect = hex(&format!("0300 ffffffffffffffff {SLOT_IMAGE}"));
    assert_eq!(checkpoint_record(3, u64::MAX, &f32s), expect);
    let spec = TableSpec::f32("t", OpKind::Min, SLOTS.len());
    let (table, watermark, back, _) = decode_checkpoint_table(&expect, &spec).expect("decode");
    assert_eq!((table, watermark), (3, u64::MAX));
    assert_eq!(back.to_bits(), SLOTS);

    let i32s = TableData::I32(vec![i32::MIN, -1, i32::MAX]);
    let expect = hex("0000 0100000000000000 03000000 00000080 ffffffff ffffff7f");
    assert_eq!(checkpoint_record(0, 1, &i32s), expect);
    let spec = TableSpec::i32("t", OpKind::Add, 3);
    let (_, _, back, _) = decode_checkpoint_table(&expect, &spec).expect("decode");
    assert_eq!(back, i32s);
}

#[test]
fn slot_image_replies_match_hand_written_bytes() {
    let values = SLOTS.to_vec();
    let cases = [
        (
            Reply::Snapshot {
                table: 1,
                watermark: u64::MAX,
                checksum: 0x0403_0201,
                values: values.clone(),
            },
            format!("84 0100 ffffffffffffffff 01020304 {SLOT_IMAGE}"),
        ),
        (
            Reply::Window {
                table: 0xffff,
                watermark: 9,
                bucket: u64::MAX,
                expired: 0x0102_0304_0506_0708,
                values,
            },
            format!("8b ffff 0900000000000000 ffffffffffffffff 0807060504030201 {SLOT_IMAGE}"),
        ),
    ];
    for (reply, expect) in cases {
        let expect = hex(&expect);
        assert_eq!(reply.encode(), expect, "{reply:?}");
        assert_eq!(Reply::decode(&expect).expect("decode"), reply);
    }
    let empty = Reply::Window { table: 0, watermark: 0, bucket: 0, expired: 0, values: Vec::new() };
    assert_eq!(
        empty.encode(),
        hex("8b 0000 0000000000000000 0000000000000000 0000000000000000 00000000")
    );
}

#[test]
fn the_bootstrap_verbs_match_hand_written_bytes() {
    assert_eq!(Request::SnapshotBegin.encode(), hex("08"));
    assert_eq!(Request::decode(&hex("08")).expect("decode"), Request::SnapshotBegin);
    let meta =
        Reply::SnapshotMeta { checkpoint: 0x0102_0304_0506_0708, index: u64::MAX, tables: 3 };
    let expect = hex("88 0807060504030201 ffffffffffffffff 0300");
    assert_eq!(meta.encode(), expect);
    assert_eq!(Reply::decode(&expect).expect("decode"), meta);
    // Opcodes 0x09 and 0x89 are unknown: no chunk verb in protocol 4.
    assert!(Request::decode(&hex("09 0000 00000000")).is_err());
    assert!(Reply::decode(&hex("89 0000 00000000 00000000")).is_err());
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("invector-serve-codec-bytes-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn a_core_checkpoint_file_matches_hand_written_frames() {
    // Two tables installed with the pinned contents above, and a third
    // whose one applied update makes the epoch that checkpoints.
    let specs = vec![
        TableSpec::f32("f", OpKind::Min, SLOTS.len()),
        TableSpec::i32("i", OpKind::Add, 3),
        TableSpec::i32("tick", OpKind::Add, 1),
    ];
    let dir = temp_dir("checkpoint");
    let mut config = ServeConfig::new(specs);
    config.wal = Some(WalOptions {
        sync: SyncPolicy::Os,
        checkpoint_epochs: 1,
        checkpoint_bytes: 0,
        ..WalOptions::new(&dir)
    });
    let core = ServerCore::new(config).expect("core");
    core.install_snapshot(vec![
        (TableData::F32(SLOTS.iter().map(|&b| f32::from_bits(b)).collect()), u64::MAX),
        (TableData::I32(vec![i32::MIN, -1, i32::MAX]), 1),
        (TableData::I32(vec![0]), 0),
    ])
    .expect("install");
    let outcome = core.submit(2, &[Update::i32(0, 0, 0)]);
    assert!(matches!(outcome, SubmitOutcome::Accepted { accepted: 1, .. }), "{outcome:?}");
    core.tick(true);

    // Each record framed as `len:u32 crc:u32 payload`, the CRCs from zlib.
    let expect = hex(&format!(
        "26000000 fbc88a9c 0000 ffffffffffffffff {SLOT_IMAGE}
         1a000000 6a4a972f 0100 0100000000000000 03000000 00000080 ffffffff ffffff7f
         12000000 c1350d00 0200 0100000000000000 01000000 00000000"
    ));
    let file = std::fs::read(dir.join("checkpoint-1.snap")).expect("checkpoint published");
    assert_eq!(file, expect);
    assert!(!dir.join("checkpoint-1.tmp").exists(), "temporary file renamed");
    std::fs::remove_dir_all(&dir).ok();
}

/// A served table's `Snapshot` reply over `n` slots of the cycled
/// [`SLOTS`], written by the core and sent by the reactor, alone and as a
/// bootstrap's frame, must equal `expect(table)`.
fn check_served_snapshots(n: usize, expect: impl Fn(u16) -> Vec<u8>) {
    let bits: Vec<u32> = (0..n).map(|i| SLOTS[i % SLOTS.len()]).collect();
    let specs = vec![TableSpec::f32("f", OpKind::Max, n), TableSpec::i32("i", OpKind::Min, n)];
    let core = ServerCore::new(ServeConfig::new(specs)).expect("core");
    core.install_snapshot(vec![
        (TableData::F32(bits.iter().map(|&b| f32::from_bits(b)).collect()), SNAPSHOT_WATERMARK),
        (TableData::I32(bits.iter().map(|&b| b as i32).collect()), SNAPSHOT_WATERMARK),
    ])
    .expect("install");
    let server = Server::serve_core(core.clone(), "127.0.0.1:0").expect("serve");
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = BufWriter::new(stream);
    let mut round_trip = |request: Request| {
        write_frame(&mut writer, &request.encode()).expect("send");
        read_frame(&mut reader).expect("receive").expect("a reply frame")
    };
    round_trip(Request::Hello { version: PROTOCOL_VERSION });
    for table in 0..2u16 {
        let mut written = Vec::new();
        core.write_snapshot_reply(table, &mut written).expect("write from the table");
        assert_eq!(written, expect(table), "{n} slots of table {table}, written by the core");
        let sent = round_trip(Request::Snapshot { table });
        assert_eq!(sent, expect(table), "{n} slots of table {table}, sent by the reactor");
    }
    let unknown = Reply::decode(&round_trip(Request::Snapshot { table: 2 })).expect("decode");
    assert!(matches!(unknown, Reply::Error(_)), "unknown table: {unknown:?}");
    // A bootstrap: the log position (none without a WAL) and the table
    // count, then each table's `Snapshot` frame, byte for byte the same.
    let meta = round_trip(Request::SnapshotBegin);
    assert_eq!(meta, hex("88 0000000000000000 0000000000000000 0200"), "{n} slots");
    for table in 0..2u16 {
        let sent = read_frame(&mut reader).expect("receive").expect("a bootstrap frame");
        assert_eq!(sent, expect(table), "{n} slots of table {table}, sent in a bootstrap");
    }
    server.shutdown();
    server.join();
}

/// Watermark of the snapshot pins.
const SNAPSHOT_WATERMARK: u64 = 0x0102_0304_0506_0708;

#[test]
fn snapshot_replies_written_from_a_table_match_hand_written_bytes() {
    // The slot values of SLOT_IMAGE, cycled; the CRC of each image from zlib.
    let words: Vec<&str> = SLOT_IMAGE.split_whitespace().skip(1).collect();
    let cases = [
        (0usize, "00000000", "00000000"),
        (1, "9a03b892", "01000000"),
        (1025, "edcc35ff", "01040000"),
    ];
    for (n, crc, count) in cases {
        let slots = words.iter().cycle().take(n).copied().collect::<Vec<_>>().join(" ");
        let expect =
            |table: u16| hex(&format!("84 {table:02x}00 0807060504030201 {crc} {count} {slots}"));
        let bits: Vec<u32> = (0..n).map(|i| SLOTS[i % SLOTS.len()]).collect();
        for table in 0..2u16 {
            let reply = Reply::Snapshot {
                table,
                watermark: SNAPSHOT_WATERMARK,
                checksum: snapshot_checksum(&bits),
                values: bits.clone(),
            };
            assert_eq!(reply.encode(), expect(table), "{n} slots of table {table}, encoded");
            assert_eq!(Reply::decode(&expect(table)).expect("decode"), reply);
        }
        // A server refuses zero-slot tables; the empty image is pinned
        // above through the same writer.
        if n > 0 {
            check_served_snapshots(n, expect);
        }
    }
}

/// `body` with the `u32` count at `at` replaced by `count`.
fn with_count(body: &[u8], at: usize, count: u32) -> Vec<u8> {
    let mut bad = body.to_vec();
    bad[at..at + 4].copy_from_slice(&count.to_le_bytes());
    bad
}

#[test]
fn slot_image_decoders_refuse_overrunning_counts_without_allocating() {
    let values = SLOTS.to_vec();
    let n = values.len() as u32;
    let replies = [
        (Reply::Snapshot { table: 0, watermark: 1, checksum: 2, values: values.clone() }, 15),
        (Reply::Window { table: 0, watermark: 1, bucket: 2, expired: 3, values }, 27),
        // Top-k entries are pairs, but go through the same counted reader.
        (Reply::TopK { table: 0, watermark: 1, entries: vec![(7, 9); SLOTS.len()] }, 11),
    ];
    for (reply, at) in replies {
        let body = reply.encode();
        assert_eq!(body[at..at + 4], n.to_le_bytes(), "count offset for {reply:?}");
        // One more value than the body carries, then a count whose values
        // would take 16 GiB: an allocation of it would abort the test.
        for count in [n + 1, u32::MAX] {
            match Reply::decode(&with_count(&body, at, count)) {
                Err(ProtoError::Malformed(_)) => {}
                other => panic!("count {count} in {reply:?} decoded as {other:?}"),
            }
        }
    }

    let data = TableData::F32(SLOTS.iter().map(|&b| f32::from_bits(b)).collect());
    let body = checkpoint_record(0, 1, &data);
    let spec = TableSpec::f32("t", OpKind::Add, SLOTS.len());
    for count in [n + 1, u32::MAX] {
        match decode_checkpoint_table(&with_count(&body, 10, count), &spec) {
            Err(ProtoError::Malformed(_)) => {}
            other => panic!("checkpoint count {count} decoded as {other:?}"),
        }
    }
}

/// `n` slot bit patterns: the edge patterns of the kind first, in turn,
/// interleaved with a scrambled sequence.
fn slot_bits(n: usize, edges: &[u32]) -> Vec<u32> {
    (0..n)
        .map(|i| {
            if i % 2 == 0 {
                edges[(i / 2) % edges.len()]
            } else {
                (i as u32).wrapping_mul(0x9e37_79b9).rotate_left(7)
            }
        })
        .collect()
}

#[test]
fn every_slot_checksum_agrees_across_the_staging_buffer_boundaries() {
    let f32_edges = [
        0x7fc0_0001, // quiet NaN, payload 1
        0xffa0_0003, // negative signalling NaN
        0x7f80_0001, // smallest-payload signalling NaN
        0x8000_0000, // -0.0
        0,           // +0.0
        1,           // smallest subnormal
        0x807f_ffff, // largest negative subnormal
        0x7f80_0000, // +inf
        0xff80_0000, // -inf
        0xff7f_ffff, // f32::MIN
    ];
    let i32_edges = [i32::MIN as u32, i32::MAX as u32, u32::MAX, 0, 1];
    // 4 KiB of staging is 1024 slots: straddle it, and a multiple of it.
    for n in [0usize, 1, 1023, 1024, 1025, 4097] {
        let f32_bits = slot_bits(n, &f32_edges);
        let i32_bits = slot_bits(n, &i32_edges);
        let cases = [
            (
                TableSpec::f32("f", OpKind::Min, n),
                TableData::F32(f32_bits.iter().map(|&b| f32::from_bits(b)).collect()),
                f32_bits,
            ),
            (
                TableSpec::i32("i", OpKind::Add, n),
                TableData::I32(i32_bits.iter().map(|&b| b as i32).collect()),
                i32_bits,
            ),
        ];
        for (spec, data, bits) in cases {
            let mut state =
                TableState::new(spec.clone(), EpochPolicy::new(ExecPolicy::default(), 64));
            state.install(data.clone(), 7).expect("install");
            let table = state.checksum();

            let snapshot = snapshot_checksum(&state.data().to_bits());

            let record = checkpoint_record(0, 7, &data);
            let (_, _, back, loaded) = decode_checkpoint_table(&record, &spec).expect("decode");
            assert_eq!(back.to_bits(), bits, "{} slots of {}", n, spec.name);

            let image: Vec<u8> = bits.iter().flat_map(|b| b.to_le_bytes()).collect();
            let direct = invector_replog::crc32(&image);

            assert_eq!(
                [table, snapshot, loaded],
                [direct; 3],
                "{n} slots of {}: table, snapshot and checkpoint checksums",
                spec.name
            );
        }
    }
}
