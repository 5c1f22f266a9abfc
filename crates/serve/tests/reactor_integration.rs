//! Reactor edge cases over real loopback sockets: slow-reader write
//! backpressure, half-closed peers, connection-cap enforcement, the
//! poll-fallback backend, and a 1k-connection update→snapshot round trip
//! with bitwise-identical snapshots.

use std::io::{BufReader, BufWriter};
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use invector_serve::protocol::{read_frame, write_frame, Reply, Request, Update, PROTOCOL_VERSION};
use invector_serve::{
    LocalClient, OpKind, ReactorKind, ServeClient, ServeConfig, Server, ServerCore, TableSpec,
    TcpClient,
};

/// FNV-1a over snapshot bit patterns: a compact bitwise-equality witness.
fn fnv64(bits: &[u32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bits {
        for byte in b.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The value of one counter series in a `metrics` scrape over `probe`.
fn metric(probe: &mut TcpClient, name: &str) -> u64 {
    let text = probe.metrics().expect("metrics");
    text.lines()
        .find(|l| l.starts_with(name) && !l.starts_with('#'))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("series {name} missing:\n{text}"))
}

/// Connects with retries: a 1k-connection storm can outrun the listen
/// backlog, which surfaces as refused or reset connects that simply need
/// another try.
fn connect_retrying(addr: std::net::SocketAddr) -> TcpClient {
    for _ in 0..200 {
        match TcpClient::connect(addr) {
            Ok(c) => return c,
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
    panic!("could not connect to {addr} after 200 attempts");
}

/// A slow reader must stall the server's writes (partial-write resumption)
/// and then its reads (write-ring cap pauses read interest) — and every
/// reply must still arrive intact once the client finally drains.
#[test]
fn slow_reader_backpressure_stalls_writes_then_reads() {
    // 1M-slot i32 table: each snapshot reply is ~4 MiB, far beyond both the
    // 16 KiB write-ring cap and the kernel socket buffers.
    let slots = 1 << 20;
    let mut config = ServeConfig::new(vec![TableSpec::i32("big", OpKind::Add, slots)]);
    config.write_buffer_cap = 16 << 10;
    let server = Server::bind(config, "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();

    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = BufWriter::new(stream);
    write_frame(&mut writer, &Request::Hello { version: PROTOCOL_VERSION }.encode())
        .expect("hello");

    // Queue four ~4 MiB replies without reading a byte, then keep request
    // bytes flowing: the read stall only triggers when data is readable
    // while the write ring is over its cap, so follow the snapshots with
    // several update frames totalling well past one read chunk (16 KiB).
    const REPLIES: usize = 4;
    for _ in 0..REPLIES {
        write_frame(&mut writer, &Request::Snapshot { table: 0 }.encode()).expect("snapshot req");
    }
    const UPDATE_FRAMES: usize = 4;
    const PER_FRAME: usize = 512;
    for f in 0..UPDATE_FRAMES {
        let updates: Vec<Update> = (0..PER_FRAME)
            .map(|i| {
                let seq = (f * PER_FRAME + i) as u64;
                Update::i32(seq, (seq % slots as u64) as u32, 1)
            })
            .collect();
        write_frame(&mut writer, &Request::Update { table: 0, updates }.encode())
            .expect("update req");
    }
    // Refuse to read until the reactor has hit both stall paths: the four
    // replies (16 MiB) outgrow what the kernel buffers hold for a peer that
    // reads nothing, so the writes stall, and the update frames arrive
    // while the write ring is over its cap, so the reads pause. No fixed
    // pause is safe: a debug build takes around 100 ms to encode the first
    // replies, and a client that drains before the socket fills keeps it
    // from ever filling.
    {
        let mut probe = TcpClient::connect(addr).expect("probe connect");
        let deadline = Instant::now() + Duration::from_secs(10);
        while !(metric(&mut probe, "invector_serve_write_stalls_total") >= 1
            && metric(&mut probe, "invector_serve_read_stalls_total") >= 1)
        {
            assert!(Instant::now() < deadline, "no write and read stall within 10 s");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    // Now drain: hello reply, every snapshot intact, then the update acks.
    let hello = read_frame(&mut reader).expect("hello reply").expect("frame");
    assert!(matches!(Reply::decode(&hello).expect("decode"), Reply::Hello { .. }));
    for i in 0..REPLIES {
        let body = read_frame(&mut reader).expect("snapshot reply").expect("frame");
        match Reply::decode(&body).expect("decode") {
            Reply::Snapshot { values, .. } => {
                assert_eq!(values.len(), slots, "reply {i} arrived intact");
            }
            other => panic!("reply {i}: expected Snapshot, got {other:?}"),
        }
    }
    for i in 0..UPDATE_FRAMES {
        let body = read_frame(&mut reader).expect("update ack").expect("frame");
        match Reply::decode(&body).expect("decode") {
            Reply::Ack { .. } | Reply::Reject { .. } => {}
            other => panic!("ack {i}: expected Ack/Reject, got {other:?}"),
        }
    }

    // The stall counters must have fired.
    let mut probe = TcpClient::connect(addr).expect("probe connect");
    assert!(metric(&mut probe, "invector_serve_write_stalls_total") >= 1, "writes must stall");
    assert!(metric(&mut probe, "invector_serve_read_stalls_total") >= 1, "reads must pause");
    assert!(metric(&mut probe, "invector_serve_wakeups_total") >= 1);

    server.shutdown();
    server.join();
}

/// A peer that half-closes (shutdown of its write side) after sending its
/// requests still receives every reply, then a clean EOF.
#[test]
fn half_closed_peer_receives_all_replies_then_eof() {
    let mut config = ServeConfig::new(vec![TableSpec::i32("c", OpKind::Add, 64)]);
    config.quantum = 32;
    let server = Server::bind(config, "127.0.0.1:0").expect("bind");

    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = BufWriter::new(stream.try_clone().expect("clone"));

    // Write the whole conversation, then close the write side before
    // reading anything.
    write_frame(&mut writer, &Request::Hello { version: PROTOCOL_VERSION }.encode())
        .expect("hello");
    let updates: Vec<Update> = (0..100).map(|i| Update::i32(i, (i % 64) as u32, 1)).collect();
    write_frame(&mut writer, &Request::Update { table: 0, updates }.encode()).expect("update");
    write_frame(&mut writer, &Request::Flush.encode()).expect("flush");
    write_frame(&mut writer, &Request::Snapshot { table: 0 }.encode()).expect("snapshot");
    drop(writer);
    stream.shutdown(Shutdown::Write).expect("half-close");

    let hello = read_frame(&mut reader).expect("hello reply").expect("frame");
    assert!(matches!(Reply::decode(&hello).expect("decode"), Reply::Hello { .. }));
    let ack = read_frame(&mut reader).expect("ack").expect("frame");
    assert!(matches!(Reply::decode(&ack).expect("decode"), Reply::Ack { accepted: 100, .. }));
    let flush = read_frame(&mut reader).expect("flush ack").expect("frame");
    assert!(matches!(Reply::decode(&flush).expect("decode"), Reply::Ack { .. }));
    let snap = read_frame(&mut reader).expect("snapshot").expect("frame");
    match Reply::decode(&snap).expect("decode") {
        Reply::Snapshot { watermark, values, .. } => {
            assert_eq!(watermark, 100);
            assert_eq!(values.iter().map(|&b| b as i32).sum::<i32>(), 100);
        }
        other => panic!("expected Snapshot, got {other:?}"),
    }
    // After the last reply the server closes its side: clean EOF.
    assert!(read_frame(&mut reader).expect("eof").is_none(), "expected EOF after final reply");

    server.shutdown();
    server.join();
}

/// `max_connections` refuses surplus accepts outright while established
/// connections keep working.
#[test]
fn connection_cap_refuses_surplus_accepts() {
    let mut config = ServeConfig::new(vec![TableSpec::i32("c", OpKind::Add, 16)]);
    config.max_connections = 2;
    let server = Server::bind(config, "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();

    let mut a = TcpClient::connect(addr).expect("first");
    let _b = TcpClient::connect(addr).expect("second");
    // The third accept is over the cap: the server drops it, which the
    // handshake observes as a closed or reset connection.
    assert!(
        TcpClient::connect(addr).is_err(),
        "third connection must be refused at max_connections=2"
    );
    // Established connections are unaffected.
    a.submit(0, &[Update::i32(0, 3, 5)]).expect("submit on live conn");
    a.flush().expect("flush");
    assert_eq!(a.snapshot(0).expect("snap").watermark, 1);

    server.shutdown();
    server.join();
}

/// The poll(2) fallback backend must serve the identical workload to the
/// same snapshot bytes as the default (epoll) backend.
#[test]
fn poll_fallback_matches_epoll_snapshots_bitwise() {
    let make_config = |kind: ReactorKind| {
        let mut c = ServeConfig::new(vec![TableSpec::f32("mins", OpKind::Min, 256)]);
        c.quantum = 64;
        c.reactor = kind;
        c
    };
    let updates: Vec<Update> =
        (0..1000).map(|i| Update::f32(i, (i % 256) as u32, (i as f32).sin())).collect();

    let mut checksums = Vec::new();
    for kind in [ReactorKind::Auto, ReactorKind::Poll] {
        let server = Server::bind(make_config(kind), "127.0.0.1:0").expect("bind");
        let addr = server.local_addr();
        // Interleave delivery across four connections.
        let mut clients: Vec<TcpClient> =
            (0..4).map(|_| TcpClient::connect(addr).expect("connect")).collect();
        for (i, chunk) in updates.chunks(50).enumerate() {
            clients[i % 4].submit_all(0, chunk).expect("submit");
        }
        clients[0].flush().expect("flush");
        let snap = clients[0].snapshot(0).expect("snapshot");
        assert_eq!(snap.watermark, 1000);
        checksums.push(fnv64(&snap.bits()));
        server.shutdown();
        server.join();
    }
    assert_eq!(checksums[0], checksums[1], "poll and epoll snapshots must agree bitwise");
}

/// 1024 concurrent loopback connections, each completing a full
/// update→snapshot round trip: every snapshot is bitwise identical, and
/// identical to an in-process (blocking-path) replay of the same
/// seq-ordered stream.
#[test]
fn one_thousand_connections_round_trip_identical_snapshots() {
    const CONNS: usize = 1024;
    const PER_CONN: usize = 32;
    const SLOTS: usize = 4096;
    let total = CONNS * PER_CONN;

    let config = || {
        let mut c = ServeConfig::new(vec![TableSpec::i32("deg", OpKind::Add, SLOTS)]);
        c.quantum = 4096;
        c.max_connections = 2048;
        c
    };
    // Scrambled slot targets, deterministic in seq.
    let update_at = |seq: usize| {
        Update::i32(
            seq as u64,
            ((seq.wrapping_mul(2_654_435_761)) % SLOTS) as u32,
            (seq % 7) as i32 + 1,
        )
    };

    // Reference: the same stream, seq-ordered, through the in-process
    // client (the pre-reactor blocking path's core entry points).
    let reference = {
        let core = ServerCore::new(config()).expect("core");
        let mut local = LocalClient::new(core);
        let all: Vec<Update> = (0..total).map(update_at).collect();
        local.submit_all(0, &all).expect("reference submit");
        local.flush().expect("reference flush");
        let snap = local.snapshot(0).expect("reference snapshot");
        assert_eq!(snap.watermark, total as u64);
        snap.bits()
    };
    let reference_sum = fnv64(&reference);

    let server = Server::bind(config(), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();

    const DRIVERS: usize = 8;
    let submitted = Arc::new(Barrier::new(DRIVERS + 1));
    let flushed = Arc::new(Barrier::new(DRIVERS + 1));
    let mut handles = Vec::new();
    for d in 0..DRIVERS {
        let submitted = Arc::clone(&submitted);
        let flushed = Arc::clone(&flushed);
        handles.push(std::thread::spawn(move || {
            let per_driver = CONNS / DRIVERS;
            // Hold every connection open for the whole test: the server
            // really serves 1024 live sockets at once.
            let mut clients: Vec<TcpClient> =
                (0..per_driver).map(|_| connect_retrying(addr)).collect();
            for (i, client) in clients.iter_mut().enumerate() {
                let conn = d * per_driver + i;
                let slice: Vec<Update> =
                    (conn * PER_CONN..(conn + 1) * PER_CONN).map(update_at).collect();
                client.submit_all(0, &slice).expect("submit slice");
            }
            submitted.wait();
            flushed.wait();
            clients
                .iter_mut()
                .map(|c| {
                    let snap = c.snapshot(0).expect("snapshot");
                    assert_eq!(snap.watermark, (CONNS * PER_CONN) as u64);
                    fnv64(&snap.bits())
                })
                .collect::<Vec<u64>>()
        }));
    }

    submitted.wait();
    let mut coordinator = connect_retrying(addr);
    coordinator.flush().expect("global flush");
    flushed.wait();

    for h in handles {
        for sum in h.join().expect("driver thread") {
            assert_eq!(sum, reference_sum, "every connection must see identical snapshot bytes");
        }
    }

    let text = coordinator.metrics().expect("metrics");
    let series_value = |name: &str| -> u64 {
        text.lines()
            .find(|l| l.starts_with(name) && !l.starts_with('#'))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("series {name} missing:\n{text}"))
    };
    assert!(series_value("invector_serve_accepted_total") >= (CONNS + 1) as u64);
    assert!(series_value("invector_serve_open_connections") >= 1);
    assert!(series_value("invector_serve_readiness_batches_total") >= 1);

    server.shutdown();
    server.join();
}
