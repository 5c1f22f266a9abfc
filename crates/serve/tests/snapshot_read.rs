//! The streamed `Snapshot` read: `TcpClient::snapshot` reads the reply's
//! slot image from the socket straight into the table it returns and
//! checksums it as it lands. It must return exactly what the core holds,
//! across the read's chunk and the 4 KiB boundaries, and refuse every bad
//! reply with an error, never a panic: a flipped bit, a count the frame
//! cannot carry or the table was not announced with, a reply for another
//! table (each before allocating the slots), an `Error` reply and a frame
//! cut off inside the image. A refusal of a whole frame leaves the
//! connection usable. On the server side, a reply the socket cannot take
//! at once goes out partly from the table and partly from the write ring,
//! and must arrive whole and in order.
//!
//! A follower's bootstrap reads its `Snapshot` frames with the same
//! reader, and refuses a bad one before anything is installed: a failed
//! re-bootstrap parks the follower with its last good state.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Duration;

use invector_serve::protocol::{read_frame, write_frame, Reply, Request, PROTOCOL_VERSION};
use invector_serve::{
    snapshot_checksum, FollowStatus, Follower, OpKind, ServeClient, ServeConfig, Server,
    ServerCore, TableData, TableSpec, TcpClient,
};

thread_local! {
    /// The largest allocation this thread asked for since the last reset.
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, noting the largest request per thread.
struct PeakAlloc;

fn note(size: usize) {
    // `try_with`: a thread being torn down still allocates.
    let _ = PEAK.try_with(|peak| peak.set(peak.get().max(size)));
}

// SAFETY: every call forwards to `System` with the caller's own arguments,
// so `System` upholds the `GlobalAlloc` contract for each of them; `note`
// only touches a const-initialized thread-local `Cell`, which neither
// allocates nor registers a destructor.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` satisfies `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller passes a block this allocator (that is,
        // `System`) returned, with its layout, and a valid new size.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block `System` returned, with its
        // layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: PeakAlloc = PeakAlloc;

/// `f`'s result and the largest allocation this thread made during it.
fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    PEAK.with(|peak| peak.set(0));
    let out = f();
    (out, PEAK.with(Cell::get))
}

/// `n` slot bit patterns: NaN payloads, signed zeros, subnormals and
/// infinities in turn, interleaved with a scrambled sequence.
fn slot_bits(n: usize) -> Vec<u32> {
    let edges =
        [0x7fc0_0001, 0xffa0_0003, 0x8000_0000, 0, 1, 0x807f_ffff, 0x7f80_0000, i32::MAX as u32];
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
fn tcp_snapshot_matches_the_core_bitwise_across_chunk_boundaries() {
    // One slot, either side of the 4 KiB write boundary, past the 256 KiB
    // read step, and a full 4 MiB table.
    for n in [1usize, 4095, 4097, (1 << 16) + 3, 1 << 20] {
        let bits = slot_bits(n);
        let specs = vec![TableSpec::i32("i", OpKind::Add, n), TableSpec::f32("f", OpKind::Max, n)];
        let core = ServerCore::new(ServeConfig::new(specs)).expect("core");
        core.install_snapshot(vec![
            (TableData::I32(bits.iter().map(|&b| b as i32).collect()), 7),
            (TableData::F32(bits.iter().rev().map(|&b| f32::from_bits(b)).collect()), 9),
        ])
        .expect("install");
        let server = Server::serve_core(core.clone(), "127.0.0.1:0").expect("serve");
        let mut client = TcpClient::connect(server.local_addr()).expect("connect");
        for table in 0..2u16 {
            let got = client.snapshot(table).expect("snapshot over TCP");
            let want = core.snapshot(table).expect("snapshot in process");
            assert_eq!(got.table, table);
            assert_eq!(got.watermark, want.watermark, "{n} slots of table {table}");
            assert_eq!(got.checksum, want.checksum, "{n} slots of table {table}");
            assert_eq!(got.checksum, snapshot_checksum(&want.bits()));
            assert_eq!(got.bits(), want.bits(), "{n} slots of table {table}, bitwise");
            assert_eq!(
                std::mem::discriminant(&got.data),
                std::mem::discriminant(&want.data),
                "{n} slots of table {table}: the announced kind"
            );
        }
        drop(client);
        server.shutdown();
        server.join();
    }
}

#[test]
fn replies_the_socket_cannot_take_at_once_arrive_whole_and_in_order() {
    let n = 1 << 20;
    let bits = slot_bits(n);
    let core =
        ServerCore::new(ServeConfig::new(vec![TableSpec::i32("i", OpKind::Add, n)])).expect("core");
    core.install_snapshot(vec![(TableData::I32(bits.iter().map(|&b| b as i32).collect()), 3)])
        .expect("install");
    let server = Server::serve_core(core.clone(), "127.0.0.1:0").expect("serve");
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = BufWriter::new(stream);
    // Three 4 MiB replies requested, and nothing read until the server has
    // written what the socket takes: the rest waits in the write ring.
    const REPLIES: usize = 3;
    write_frame(&mut writer, &Request::Hello { version: PROTOCOL_VERSION }.encode())
        .expect("send hello");
    for _ in 0..REPLIES {
        write_frame(&mut writer, &Request::Snapshot { table: 0 }.encode()).expect("send");
    }
    std::thread::sleep(Duration::from_millis(100));
    let hello = read_frame(&mut reader).expect("hello reply").expect("a frame");
    assert!(matches!(Reply::decode(&hello), Ok(Reply::Hello { .. })));
    let checksum = snapshot_checksum(&bits);
    let want = Reply::Snapshot { table: 0, watermark: 3, checksum, values: bits };
    for i in 0..REPLIES {
        let body = read_frame(&mut reader).expect("snapshot reply").expect("a frame");
        assert!(Reply::decode(&body).expect("decode") == want, "reply {i} differs");
    }
    let stalls = core
        .metrics_text()
        .lines()
        .find_map(|l| l.strip_prefix("invector_serve_write_stalls_total "))
        .and_then(|v| v.trim().parse::<u64>().ok())
        .expect("write stall series");
    assert!(stalls >= 1, "the write ring held part of the replies");
    drop((reader, writer));
    server.shutdown();
    server.join();
}

/// Slots of each of the scripted server's two announced tables: past one
/// read step.
const SLOTS: usize = (1 << 16) + 3;

/// A `Snapshot` reply body for the scripted server's `table` at
/// `watermark`: each table and watermark has its own slots.
fn reply_for(table: u16, watermark: u64) -> Reply {
    let mut values = slot_bits(SLOTS);
    values.rotate_left(usize::from(table) * 7 + watermark as usize);
    Reply::Snapshot { table, watermark, checksum: snapshot_checksum(&values), values }
}

/// The scripted server's good `Snapshot` reply body.
fn good_reply() -> Reply {
    reply_for(0, 99)
}

/// `body` as a frame: length prefix, then the body.
fn framed(body: &[u8]) -> Vec<u8> {
    let mut frame = (body.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(body);
    frame
}

/// A server that answers `Hello` with an i32 and an f32 table of [`SLOTS`]
/// slots each, then answers each request with the next of `replies` (raw
/// bytes: several frames, or fewer than one) and closes the connection
/// after the last one.
fn scripted(replies: Vec<Vec<u8>>) -> (SocketAddr, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;
        let hello = read_frame(&mut reader).expect("hello").expect("a hello frame");
        assert!(matches!(Request::decode(&hello), Ok(Request::Hello { .. })));
        let tables =
            vec![TableSpec::i32("t", OpKind::Add, SLOTS), TableSpec::f32("u", OpKind::Max, SLOTS)];
        let hello = Reply::Hello { version: PROTOCOL_VERSION, shards: 1, quantum: 64, tables };
        write_frame(&mut writer, &hello.encode()).expect("send hello");
        for reply in replies {
            read_frame(&mut reader).expect("request").expect("a request frame");
            writer.write_all(&reply).expect("send reply");
        }
    });
    (addr, server)
}

/// Asserts that `client` reads the good reply whole.
fn assert_good_snapshot(client: &mut TcpClient) {
    let snap = client.snapshot(0).expect("the next snapshot on the same connection");
    let Reply::Snapshot { watermark, checksum, values, .. } = good_reply() else { unreachable!() };
    assert_eq!((snap.watermark, snap.checksum), (watermark, checksum));
    assert_eq!(snap.bits(), values);
}

#[test]
fn a_flipped_slot_bit_is_refused_and_the_connection_stays_usable() {
    let good = good_reply().encode();
    let mut flipped = good.clone();
    // The last slot: in the second read step.
    flipped[good.len() - 2] ^= 0x10;
    let (addr, server) = scripted(vec![framed(&flipped), framed(&good)]);
    let mut client = TcpClient::connect(addr).expect("connect");
    let err = client.snapshot(0).expect_err("a flipped bit must fail the checksum");
    assert!(err.starts_with("snapshot checksum mismatch for table 0: computed "), "{err}");
    assert!(err.contains("over received values, server stamped "), "{err}");
    assert_good_snapshot(&mut client);
    server.join().expect("scripted server");
}

#[test]
fn a_count_the_frame_cannot_carry_is_refused_before_allocating() {
    let good = good_reply().encode();
    // The header of the good reply with its count replaced, then 16 bytes
    // of slots: the frame length is what it carries, not what it claims.
    let short = |count: u32| {
        let mut body = good[..15].to_vec();
        body.extend_from_slice(&count.to_le_bytes());
        body.extend_from_slice(&good[19..35]);
        framed(&body)
    };
    // A count just past what a whole image would carry, in a whole-length
    // frame: one slot more than the frame holds.
    let mut one_more = good.clone();
    one_more[15..19].copy_from_slice(&(SLOTS as u32 + 1).to_le_bytes());
    let replies = vec![short(u32::MAX), short(SLOTS as u32), framed(&one_more), framed(&good)];
    let (addr, server) = scripted(replies);
    let mut client = TcpClient::connect(addr).expect("connect");
    for case in ["count u32::MAX", "count of the table", "one slot too many"] {
        let (result, peak) = largest_allocation(|| client.snapshot(0));
        let err = result.expect_err(case);
        assert!(err.contains("snapshot length mismatch"), "{case}: {err}");
        // A slot vector would take 4 bytes a slot: 256 KiB and more here.
        assert!(peak < 64 << 10, "{case}: allocated {peak} bytes");
    }
    assert_good_snapshot(&mut client);
    server.join().expect("scripted server");
}

#[test]
fn a_reply_for_another_table_is_refused_before_allocating() {
    let other = reply_for(1, 99).encode();
    let (addr, server) = scripted(vec![framed(&other), framed(&good_reply().encode())]);
    let mut client = TcpClient::connect(addr).expect("connect");
    let (result, peak) = largest_allocation(|| client.snapshot(0));
    let err = result.expect_err("table 1's reply to a request for table 0");
    assert_eq!(err, "snapshot of table 1 where table 0 was expected");
    assert!(peak < 64 << 10, "allocated {peak} bytes");
    assert_good_snapshot(&mut client);
    server.join().expect("scripted server");
}

#[test]
fn a_count_unlike_the_announced_length_is_refused_before_allocating() {
    // Whole frames, each as long as its count says: one slot more than
    // the table was announced with, and four times as many.
    let longer = |count: usize| {
        let values = slot_bits(count);
        let checksum = snapshot_checksum(&values);
        framed(&Reply::Snapshot { table: 0, watermark: 99, checksum, values }.encode())
    };
    let replies = vec![longer(SLOTS + 1), longer(4 * SLOTS), framed(&good_reply().encode())];
    let (addr, server) = scripted(replies);
    let mut client = TcpClient::connect(addr).expect("connect");
    for count in [SLOTS + 1, 4 * SLOTS] {
        let (result, peak) = largest_allocation(|| client.snapshot(0));
        let err = result.expect_err("a count the table was not announced with");
        assert_eq!(
            err,
            format!("snapshot of table 0 carries {count} slots, announced with {SLOTS}")
        );
        assert!(peak < 64 << 10, "{count} slots: allocated {peak} bytes");
    }
    assert_good_snapshot(&mut client);
    server.join().expect("scripted server");
}

#[test]
fn an_error_reply_carries_its_message_and_the_connection_stays_usable() {
    let error = Reply::Error("unknown table 3".into()).encode();
    let (addr, server) = scripted(vec![framed(&error), framed(&good_reply().encode())]);
    let mut client = TcpClient::connect(addr).expect("connect");
    assert_eq!(client.snapshot(0).expect_err("an Error reply"), "unknown table 3");
    assert_good_snapshot(&mut client);
    server.join().expect("scripted server");
}

#[test]
fn a_snapshot_of_an_unannounced_table_is_refused() {
    let mut other = good_reply().encode();
    other[1..3].copy_from_slice(&7u16.to_le_bytes());
    let (addr, server) = scripted(vec![framed(&other), framed(&good_reply().encode())]);
    let mut client = TcpClient::connect(addr).expect("connect");
    let err = client.snapshot(0).expect_err("table 7 was never announced");
    assert_eq!(err, "snapshot for unannounced table 7");
    assert_good_snapshot(&mut client);
    server.join().expect("scripted server");
}

#[test]
fn a_frame_cut_off_inside_the_slot_image_fails_the_call() {
    let frame = framed(&good_reply().encode());
    // Past the first read step, short of the end; then the server closes.
    let cut = frame[..frame.len() / 2 + 4099].to_vec();
    let (addr, server) = scripted(vec![cut]);
    let mut client = TcpClient::connect(addr).expect("connect");
    let err = client.snapshot(0).expect_err("a cut-off image");
    assert!(err.starts_with("receive: "), "{err}");
    server.join().expect("scripted server");
    let err = client.snapshot(0).expect_err("the server has gone");
    assert!(!err.is_empty());
}

/// A bootstrap reply: `SnapshotMeta` announcing `tables` tables, then
/// `frames` (already framed).
fn bootstrap_reply(tables: u16, frames: &[Vec<u8>]) -> Vec<u8> {
    let mut reply = framed(&Reply::SnapshotMeta { checkpoint: 0, index: 0, tables }.encode());
    for frame in frames {
        reply.extend_from_slice(frame);
    }
    reply
}

/// A good bootstrap of both tables at `watermark`.
fn good_bootstrap(watermark: u64) -> Vec<u8> {
    bootstrap_reply(2, &[0, 1].map(|t| framed(&reply_for(t, watermark).encode())))
}

/// Starts a follower on a scripted leader that serves a good bootstrap at
/// watermark 99, answers the first log fetch with a checkpoint reset and
/// the re-bootstrap with `rebootstrap`. The follower must park in
/// `Diverged` with a message containing `want`, still holding the first
/// bootstrap: nothing of the refused one is installed.
fn assert_rebootstrap_refused(rebootstrap: Vec<u8>, want: &str) {
    let reset =
        Reply::LogRecords { checkpoint: 1, next_index: 0, head: 0, reset: true, records: vec![] };
    let (addr, server) = scripted(vec![good_bootstrap(99), framed(&reset.encode()), rebootstrap]);
    let follower =
        Follower::start(&addr.to_string(), ServeConfig::new(Vec::new())).expect("first bootstrap");
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let message = loop {
        if let FollowStatus::Diverged(m) = follower.status() {
            break m;
        }
        assert!(std::time::Instant::now() < deadline, "the re-bootstrap was not refused");
        std::thread::sleep(Duration::from_millis(2));
    };
    assert!(message.contains(want), "{want:?} not in {message:?}");
    for table in 0..2u16 {
        let Reply::Snapshot { watermark, checksum, values, .. } = reply_for(table, 99) else {
            unreachable!()
        };
        let held = follower.core().snapshot(table).expect("follower snapshot");
        assert_eq!((held.watermark, held.checksum), (watermark, checksum), "table {table}");
        assert_eq!(held.bits(), values, "table {table} holds the first bootstrap");
    }
    let bootstraps = follower
        .core()
        .metrics_text()
        .lines()
        .find_map(|l| l.strip_prefix("invector_serve_follower_bootstraps_total "))
        .map(|v| v.trim().to_string());
    assert_eq!(bootstraps.as_deref(), Some("1"), "only the first bootstrap installed");
    drop(follower);
    server.join().expect("scripted server");
}

#[test]
fn a_bootstrap_with_a_flipped_slot_bit_installs_nothing() {
    let mut flipped = framed(&reply_for(1, 150).encode());
    let last = flipped.len() - 3;
    flipped[last] ^= 0x04;
    let rebootstrap = bootstrap_reply(2, &[framed(&reply_for(0, 150).encode()), flipped]);
    assert_rebootstrap_refused(rebootstrap, "snapshot checksum mismatch for table 1");
}

#[test]
fn a_bootstrap_with_frames_out_of_table_order_installs_nothing() {
    let frames = [1, 0].map(|t| framed(&reply_for(t, 150).encode()));
    assert_rebootstrap_refused(
        bootstrap_reply(2, &frames),
        "snapshot of table 1 where table 0 was expected",
    );
}

#[test]
fn a_bootstrap_frame_of_another_length_installs_nothing() {
    let values = slot_bits(SLOTS + 1);
    let checksum = snapshot_checksum(&values);
    let longer = Reply::Snapshot { table: 1, watermark: 150, checksum, values };
    let frames = [framed(&reply_for(0, 150).encode()), framed(&longer.encode())];
    assert_rebootstrap_refused(
        bootstrap_reply(2, &frames),
        &format!("snapshot of table 1 carries {} slots, announced with {SLOTS}", SLOTS + 1),
    );
}

#[test]
fn a_bootstrap_announcing_other_than_hellos_table_count_installs_nothing() {
    let frames = [framed(&reply_for(0, 150).encode())];
    assert_rebootstrap_refused(
        bootstrap_reply(1, &frames),
        "bootstrap of 1 tables from a leader that announced 2 at Hello",
    );
}

#[test]
fn a_bootstrap_cut_short_installs_nothing() {
    let mut rebootstrap = good_bootstrap(150);
    // Inside table 1's image; then the leader closes the connection.
    rebootstrap.truncate(rebootstrap.len() - 4 * 1000);
    assert_rebootstrap_refused(rebootstrap, "receive: ");
}

#[test]
fn a_bootstrap_refused_with_an_error_reply_installs_nothing() {
    let error = framed(&Reply::Error("the leader is draining".into()).encode());
    assert_rebootstrap_refused(error, "the leader is draining");
}
