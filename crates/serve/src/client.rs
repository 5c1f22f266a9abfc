//! Clients: in-process (sharing the [`ServerCore`]) and TCP.
//!
//! Both speak through the same [`ServeClient`] trait so harness smoke
//! drivers and benchmarks can mix transports. `submit` is one admission
//! attempt on either transport; `submit_all` is the one retry policy and
//! implements the backpressure contract from the client side: on a
//! `Reject`, honor the retry-after backoff and resubmit the refused suffix
//! — nothing is lost, the stream just slows down.

use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

use crate::protocol::{
    read_frame_into, read_slots, read_snapshot_head, skip, write_frame, ProtoError, Reply, Request,
    SnapshotHead, StatsSummary, Update, PROTOCOL_VERSION,
};
use crate::server::{
    LogTailPage, PinnedState, ServerCore, Snapshot, SubmitOutcome, TopKPage, WindowSnapshot,
};
use crate::table::{TableData, TableSpec, ValueKind};

/// Transport-independent client surface.
pub trait ServeClient {
    /// Submits one batch of updates for `table`, of any kind (a graph
    /// table's edge ops are [`invector_streamkit::edge_event`] records):
    /// one admission attempt, no retry. A `Rejected` outcome names the
    /// admitted prefix; [`submit_all`](Self::submit_all) retries the rest.
    ///
    /// # Errors
    ///
    /// Returns a message for transport failures or server-side errors.
    fn submit(&mut self, table: u16, updates: &[Update]) -> Result<SubmitOutcome, String>;

    /// Reads one bucket of a window stream table (`u64::MAX` for the
    /// current window aggregate).
    ///
    /// # Errors
    ///
    /// Returns a message for transport failures, non-window tables, or
    /// bucket ids that are neither live nor the last retracted.
    fn window_query(&mut self, table: u16, bucket: u64) -> Result<WindowSnapshot, String>;

    /// Reads the `k` largest slots of a table's query region.
    ///
    /// # Errors
    ///
    /// Returns a message for transport failures or `k` outside the region.
    fn top_k(&mut self, table: u16, k: u32) -> Result<TopKPage, String>;

    /// Forces a drain epoch (applies partial batches).
    ///
    /// # Errors
    ///
    /// Returns a message for transport failures.
    fn flush(&mut self) -> Result<(), String>;

    /// Fetches one table's snapshot.
    ///
    /// # Errors
    ///
    /// Returns a message for transport failures or unknown tables.
    fn snapshot(&mut self, table: u16) -> Result<Snapshot, String>;

    /// Fetches aggregate service statistics.
    ///
    /// # Errors
    ///
    /// Returns a message for transport failures.
    fn stats(&mut self) -> Result<StatsSummary, String>;

    /// Fetches the server's Prometheus text exposition.
    ///
    /// # Errors
    ///
    /// Returns a message for transport failures.
    fn metrics(&mut self) -> Result<String, String>;

    /// Waits out a rejection before retrying.
    fn backoff(&mut self, retry_after_ms: u32);

    /// Submits a batch, retrying rejected suffixes until everything is
    /// admitted: the client's one retry policy. Returns the number of
    /// reject round-trips taken.
    ///
    /// # Errors
    ///
    /// Propagates [`submit`](Self::submit) failures and gives up if the
    /// server starts draining.
    fn submit_all(&mut self, table: u16, updates: &[Update]) -> Result<u32, String> {
        let mut rest = updates;
        let mut retries = 0u32;
        while !rest.is_empty() {
            match self.submit(table, rest)? {
                SubmitOutcome::Accepted { .. } => break,
                SubmitOutcome::Rejected { accepted, retry_after_ms, reason } => {
                    if reason == crate::protocol::RejectReason::Draining {
                        return Err(format!(
                            "server is draining with {} updates unsubmitted",
                            rest.len() - accepted as usize
                        ));
                    }
                    rest = &rest[accepted as usize..];
                    retries += 1;
                    self.backoff(retry_after_ms);
                }
                SubmitOutcome::Failed(m) => return Err(m),
            }
        }
        Ok(retries)
    }
}

/// In-process client: calls straight into a shared [`ServerCore`].
///
/// Used by the harness serving workload and the throughput benchmark,
/// where the protocol round-trip would only add noise. On backoff it runs
/// an epoch itself instead of sleeping, so single-threaded drivers make
/// progress against a full queue.
#[derive(Debug, Clone)]
pub struct LocalClient {
    core: Arc<ServerCore>,
}

impl LocalClient {
    /// A client sharing `core`.
    pub fn new(core: Arc<ServerCore>) -> LocalClient {
        LocalClient { core }
    }

    /// The shared core.
    pub fn core(&self) -> &Arc<ServerCore> {
        &self.core
    }
}

impl ServeClient for LocalClient {
    fn submit(&mut self, table: u16, updates: &[Update]) -> Result<SubmitOutcome, String> {
        Ok(self.core.submit(table, updates))
    }

    fn window_query(&mut self, table: u16, bucket: u64) -> Result<WindowSnapshot, String> {
        self.core.window_query(table, bucket)
    }

    fn top_k(&mut self, table: u16, k: u32) -> Result<TopKPage, String> {
        self.core.top_k(table, k)
    }

    fn flush(&mut self) -> Result<(), String> {
        self.core.flush();
        Ok(())
    }

    fn snapshot(&mut self, table: u16) -> Result<Snapshot, String> {
        let snap = self.core.snapshot(table)?;
        // Same verification the TCP path performs on received bytes: the
        // checksum the server stamped must match the data it handed over,
        // computed over the typed slots in place.
        let computed = snap.data.slot_crc();
        if computed != snap.checksum {
            return Err(format!(
                "snapshot checksum mismatch for table {table}: computed {computed:#010x}, \
                 server stamped {:#010x}",
                snap.checksum
            ));
        }
        Ok(snap)
    }

    fn stats(&mut self) -> Result<StatsSummary, String> {
        Ok(self.core.stats_summary())
    }

    fn metrics(&mut self) -> Result<String, String> {
        Ok(self.core.metrics_text())
    }

    fn backoff(&mut self, _retry_after_ms: u32) {
        // Run the epoch ourselves: frees queue space deterministically
        // without wall-clock sleeps.
        self.core.tick(false);
    }
}

/// The error of a round trip whose reply never came.
const CLOSED: &str = "server closed the connection";

/// The error text of a failed reply read.
fn receive_error(e: ProtoError) -> String {
    match e {
        ProtoError::Io(e) => format!("receive: {e}"),
        e => e.to_string(),
    }
}

/// TCP client: one connection, `Hello`-handshaken, synchronous
/// request/reply. `submit` is one round trip; `submit_all` backs off and
/// resubmits a rejected suffix, and [`backoffs`](Self::backoffs) counts
/// every backoff it takes.
///
/// Replies are read into one receive buffer the client keeps, except a
/// `Snapshot` reply's slot image, which [`snapshot`](ServeClient::snapshot)
/// and [`snapshot_begin`](Self::snapshot_begin) read from the socket
/// straight into the tables they return.
#[derive(Debug)]
pub struct TcpClient {
    reader: std::io::BufReader<TcpStream>,
    writer: std::io::BufWriter<TcpStream>,
    /// Receive buffer for reply frames, reused across round trips.
    rbuf: Vec<u8>,
    quantum: u32,
    tables: Vec<TableSpec>,
    backoffs: u64,
}

impl TcpClient {
    /// Connects to `addr` and performs the version handshake.
    ///
    /// # Errors
    ///
    /// Returns a message for connection failures or a version mismatch.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<TcpClient, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
        let reader =
            std::io::BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
        let writer = std::io::BufWriter::new(stream);
        let mut client = TcpClient {
            reader,
            writer,
            rbuf: Vec::new(),
            quantum: 0,
            tables: Vec::new(),
            backoffs: 0,
        };
        let reply = client.round_trip(&Request::Hello { version: PROTOCOL_VERSION });
        // The server's version comes before the rest of its `Hello`, whose
        // layout another protocol need not share.
        if let [0x81, lo, hi, ..] = client.rbuf[..] {
            let version = u16::from_le_bytes([lo, hi]);
            if version != PROTOCOL_VERSION {
                return Err(format!("server speaks protocol {version}, not {PROTOCOL_VERSION}"));
            }
        }
        match reply? {
            Reply::Hello { quantum, tables, .. } => {
                client.quantum = quantum;
                client.tables = tables;
                Ok(client)
            }
            Reply::Error(m) => Err(m),
            other => Err(format!("unexpected handshake reply {other:?}")),
        }
    }

    /// The server's table registry, as announced in the handshake.
    pub fn tables(&self) -> &[TableSpec] {
        &self.tables
    }

    /// The server's epoch quantum, as announced in the handshake.
    pub fn quantum(&self) -> u32 {
        self.quantum
    }

    /// Backoff rounds this client has taken across all submits.
    pub fn backoffs(&self) -> u64 {
        self.backoffs
    }

    fn send(&mut self, request: &Request) -> Result<(), String> {
        write_frame(&mut self.writer, &request.encode()).map_err(|e| format!("send: {e}"))
    }

    fn round_trip(&mut self, request: &Request) -> Result<Reply, String> {
        self.send(request)?;
        match read_frame_into(&mut self.reader, &mut self.rbuf) {
            Ok(true) => Reply::decode(&self.rbuf).map_err(|e| e.to_string()),
            Ok(false) => Err(CLOSED.into()),
            Err(e) => Err(receive_error(e)),
        }
    }

    /// Fetches the leader's pinned state (the follower bootstrap): every
    /// table at one epoch boundary plus the matching log position, in one
    /// request. The `SnapshotMeta` reply must announce as many tables as
    /// `Hello` did, and the `Snapshot` frame after it for table `k` must be
    /// table `k`'s; each is read like a [`snapshot`](ServeClient::snapshot)
    /// reply and checksummed as it lands.
    ///
    /// # Errors
    ///
    /// Returns a message for transport failures, an `Error` reply, a table
    /// count unlike `Hello`'s and any frame [`snapshot`](ServeClient::snapshot)
    /// would refuse. Nothing is returned unless every table arrived intact;
    /// the connection's place in the reply stream is then unknown, so drop
    /// the client.
    pub fn snapshot_begin(&mut self) -> Result<PinnedState, String> {
        let (checkpoint, index, count) = match self.round_trip(&Request::SnapshotBegin)? {
            Reply::SnapshotMeta { checkpoint, index, tables } => (checkpoint, index, tables),
            Reply::Error(m) => return Err(m),
            other => return Err(format!("unexpected snapshot-begin reply {other:?}")),
        };
        if count as usize != self.tables.len() {
            return Err(format!(
                "bootstrap of {count} tables from a leader that announced {} at Hello",
                self.tables.len()
            ));
        }
        let tables = (0..count).map(|t| self.read_snapshot(t)).collect::<Result<_, _>>()?;
        Ok(PinnedState { checkpoint, index, tables })
    }

    /// Fetches admitted-batch log records from `index` within checkpoint
    /// generation `checkpoint`, at most `max_bytes` of payload per page.
    ///
    /// # Errors
    ///
    /// Returns a message for transport failures or server-side errors
    /// (no WAL, index beyond head).
    pub fn log_tail(
        &mut self,
        checkpoint: u64,
        index: u64,
        max_bytes: u32,
    ) -> Result<LogTailPage, String> {
        match self.round_trip(&Request::LogTail { checkpoint, index, max_bytes })? {
            Reply::LogRecords { checkpoint, next_index, head, reset, records } => {
                Ok(LogTailPage { checkpoint, next_index, head, reset, records })
            }
            Reply::Error(m) => Err(m),
            other => Err(format!("unexpected log-tail reply {other:?}")),
        }
    }

    /// Reads one `Snapshot` reply for `table` off the socket: the one
    /// `Snapshot` frame reader, behind [`snapshot`](ServeClient::snapshot)
    /// and [`snapshot_begin`](Self::snapshot_begin). Before anything is
    /// allocated for the slots, the frame must be as long as its count
    /// says, name `table`, and carry as many slots as `Hello` announced for
    /// it; a frame that fails is skipped, unread into memory, so the stream
    /// stays at a frame boundary. The slot image then streams from the
    /// socket straight into the returned table, checksummed each step as it
    /// lands: one copy out of the socket and one CRC pass.
    fn read_snapshot(&mut self, table: u16) -> Result<Snapshot, String> {
        let head = match read_snapshot_head(&mut self.reader, &mut self.rbuf) {
            Ok(Some(SnapshotHead::Snapshot(head))) => head,
            Ok(Some(SnapshotHead::Other(Reply::Error(m)))) => return Err(m),
            Ok(Some(SnapshotHead::Other(other))) => {
                return Err(format!("unexpected snapshot reply {other:?}"))
            }
            Ok(None) => return Err(CLOSED.into()),
            Err(e) => return Err(receive_error(e)),
        };
        let refusal = match self.tables.get(head.table as usize) {
            None => Some(format!("snapshot for unannounced table {}", head.table)),
            Some(_) if head.table != table => {
                Some(format!("snapshot of table {} where table {table} was expected", head.table))
            }
            Some(spec) if head.count != spec.len => Some(format!(
                "snapshot of table {table} carries {} slots, announced with {}",
                head.count, spec.len
            )),
            Some(_) => None,
        };
        if let Some(refusal) = refusal {
            skip(&mut self.reader, 4 * head.count).map_err(receive_error)?;
            return Err(refusal);
        }
        let mut crc = invector_replog::Crc32::new();
        let data = match self.tables[table as usize].kind {
            ValueKind::F32 => {
                read_slots(&mut self.reader, head.count, &mut crc).map(TableData::F32)
            }
            ValueKind::I32 => {
                read_slots(&mut self.reader, head.count, &mut crc).map(TableData::I32)
            }
        }
        .map_err(|e| format!("receive: {e}"))?;
        let (watermark, checksum) = (head.watermark, head.checksum);
        let computed = crc.finish();
        if computed != checksum {
            return Err(format!(
                "snapshot checksum mismatch for table {table}: computed {computed:#010x} \
                 over received values, server stamped {checksum:#010x}",
            ));
        }
        Ok(Snapshot { table, watermark, checksum, data })
    }

    /// Asks the server to drain and stop; returns the final per-table
    /// watermarks.
    ///
    /// # Errors
    ///
    /// Returns a message for transport failures or unexpected replies.
    pub fn shutdown(mut self) -> Result<Vec<u64>, String> {
        match self.round_trip(&Request::Shutdown)? {
            Reply::Bye { watermarks } => Ok(watermarks),
            Reply::Error(m) => Err(m),
            other => Err(format!("unexpected shutdown reply {other:?}")),
        }
    }
}

impl ServeClient for TcpClient {
    fn submit(&mut self, table: u16, updates: &[Update]) -> Result<SubmitOutcome, String> {
        match self.round_trip(&Request::Update { table, updates: updates.to_vec() })? {
            Reply::Ack { accepted, watermark } => {
                Ok(SubmitOutcome::Accepted { accepted, watermark })
            }
            Reply::Reject { accepted, retry_after_ms, reason } => {
                Ok(SubmitOutcome::Rejected { accepted, retry_after_ms, reason })
            }
            Reply::Error(m) => Ok(SubmitOutcome::Failed(m)),
            other => Err(format!("unexpected submit reply {other:?}")),
        }
    }

    fn window_query(&mut self, table: u16, bucket: u64) -> Result<WindowSnapshot, String> {
        match self.round_trip(&Request::WindowQuery { table, bucket })? {
            Reply::Window { table, watermark, bucket, expired, values } => {
                Ok(WindowSnapshot { table, watermark, bucket, expired, values })
            }
            Reply::Error(m) => Err(m),
            other => Err(format!("unexpected window reply {other:?}")),
        }
    }

    fn top_k(&mut self, table: u16, k: u32) -> Result<TopKPage, String> {
        match self.round_trip(&Request::TopK { table, k })? {
            Reply::TopK { table, watermark, entries } => Ok(TopKPage { table, watermark, entries }),
            Reply::Error(m) => Err(m),
            other => Err(format!("unexpected top-k reply {other:?}")),
        }
    }

    fn flush(&mut self) -> Result<(), String> {
        match self.round_trip(&Request::Flush)? {
            Reply::Ack { .. } => Ok(()),
            Reply::Error(m) => Err(m),
            other => Err(format!("unexpected flush reply {other:?}")),
        }
    }

    /// Streams the reply's slot image from the socket straight into the
    /// returned table (the `Snapshot` frame reader `snapshot_begin` also
    /// uses). The reply must be for `table`, as long as `Hello` announced
    /// it, before anything is allocated for the slots.
    fn snapshot(&mut self, table: u16) -> Result<Snapshot, String> {
        self.send(&Request::Snapshot { table })?;
        self.read_snapshot(table)
    }

    fn stats(&mut self) -> Result<StatsSummary, String> {
        match self.round_trip(&Request::Stats)? {
            Reply::Stats(s) => Ok(s),
            Reply::Error(m) => Err(m),
            other => Err(format!("unexpected stats reply {other:?}")),
        }
    }

    fn metrics(&mut self) -> Result<String, String> {
        match self.round_trip(&Request::Metrics)? {
            Reply::Metrics(text) => Ok(text),
            Reply::Error(m) => Err(m),
            other => Err(format!("unexpected metrics reply {other:?}")),
        }
    }

    fn backoff(&mut self, retry_after_ms: u32) {
        self.backoffs += 1;
        std::thread::sleep(Duration::from_millis(u64::from(retry_after_ms.max(1))));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{read_frame, RejectReason};
    use crate::server::{ServeConfig, Server};
    use crate::table::OpKind;

    fn server() -> Server {
        let mut config = ServeConfig::new(vec![
            TableSpec::i32("counts", OpKind::Add, 64),
            TableSpec::f32("mins", OpKind::Min, 32),
        ]);
        config.quantum = 16;
        Server::bind(config, "127.0.0.1:0").expect("bind loopback")
    }

    #[test]
    fn tcp_round_trip_matches_in_process_state() {
        let server = server();
        let mut tcp = TcpClient::connect(server.local_addr()).expect("connect");
        assert_eq!(tcp.tables().len(), 2);
        assert_eq!(tcp.quantum(), 16);

        let updates: Vec<Update> = (0..40).map(|i| Update::i32(i, (i % 64) as u32, 3)).collect();
        tcp.submit_all(0, &updates).expect("submit");
        tcp.flush().expect("flush");
        let over_wire = tcp.snapshot(0).expect("snapshot");
        assert_eq!(over_wire.watermark, 40);

        let mut local = LocalClient::new(server.core());
        let in_process = local.snapshot(0).expect("snapshot");
        assert_eq!(over_wire.bits(), in_process.bits(), "wire and core views agree bitwise");

        let stats = tcp.stats().expect("stats");
        assert_eq!(stats.applied, 40);

        let scraped = tcp.metrics().expect("metrics");
        assert!(scraped.contains("invector_serve_applied_total 40"), "{scraped}");
        assert!(scraped.contains("invector_serve_epoch_latency_us_bucket"), "{scraped}");

        let watermarks = tcp.shutdown().expect("shutdown");
        assert_eq!(watermarks, vec![40, 0]);
        server.join();
    }

    #[test]
    fn version_mismatch_is_refused_at_handshake() {
        let server = server();
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = std::io::BufWriter::new(stream);
        write_frame(&mut writer, &Request::Hello { version: 999 }.encode()).expect("send");
        let body = read_frame(&mut reader).expect("read").expect("reply");
        assert!(matches!(Reply::decode(&body).expect("decode"), Reply::Error(_)));
        server.shutdown();
        server.join();
    }

    #[test]
    fn protocol_4_peers_are_refused_at_hello() {
        // A protocol 4 client: the server answers its `Hello` with an error.
        let server = server();
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = std::io::BufWriter::new(stream);
        write_frame(&mut writer, &Request::Hello { version: 4 }.encode()).expect("send");
        let body = read_frame(&mut reader).expect("read").expect("reply");
        let refusal = Reply::Error(format!("protocol version 4 != {PROTOCOL_VERSION}"));
        assert_eq!(Reply::decode(&body).expect("decode"), refusal);
        server.shutdown();
        server.join();

        // A protocol 4 server: the client refuses its `Hello` by version,
        // although the v4 layout (a `u16` between version and quantum, here
        // 1, then no tables) does not decode as a v5 reply.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr");
        let v4 = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            read_frame(&mut &stream).expect("hello").expect("a hello frame");
            let hello = [0x81, 4, 0, 1, 0, 16, 0, 0, 0, 0, 0];
            write_frame(&mut &stream, &hello).expect("send hello");
        });
        let err = TcpClient::connect(addr).expect_err("a protocol 4 server");
        assert_eq!(err, format!("server speaks protocol 4, not {PROTOCOL_VERSION}"));
        v4.join().expect("protocol 4 server");
    }

    #[test]
    fn tcp_submit_is_one_attempt_and_submit_all_retries_through_backpressure() {
        // An 8-slot staging buffer: a plain `submit` of 40 updates is one
        // round trip, refused after the prefix that fits, and `submit_all`
        // backs off and resubmits refused suffixes until every update lands.
        let mut config = ServeConfig::new(vec![TableSpec::i32("c", OpKind::Add, 16)]);
        config.queue_capacity = 8;
        config.quantum = 4;
        let server = Server::bind(config, "127.0.0.1:0").expect("bind loopback");
        let mut tcp = TcpClient::connect(server.local_addr()).expect("connect");

        let updates: Vec<Update> = (0..40).map(|i| Update::i32(i, (i % 16) as u32, 1)).collect();
        match tcp.submit(0, &updates).expect("submit") {
            SubmitOutcome::Rejected { accepted, reason, .. } => {
                assert_eq!(
                    (accepted, reason),
                    (8, RejectReason::QueueFull),
                    "the prefix that fits"
                );
            }
            other => panic!("a 40-update batch into an empty 8-slot queue: {other:?}"),
        }
        assert_eq!(tcp.backoffs(), 0, "submit makes one attempt and never backs off");
        let retries = tcp.submit_all(0, &updates[8..]).expect("submit all");
        assert!(retries > 0, "32 updates through an 8-slot queue must be rejected");
        assert!(tcp.backoffs() > 0, "submit_all backs off before each retry");

        tcp.flush().expect("flush");
        let snap = tcp.snapshot(0).expect("snapshot");
        assert_eq!(snap.watermark, 40, "no update lost across retries");
        let TableData::I32(v) = &snap.data else { panic!("i32") };
        assert_eq!(v.iter().sum::<i32>(), 40);
        server.shutdown();
        server.join();
    }

    #[test]
    fn local_client_retries_through_backpressure_without_loss() {
        let mut config = ServeConfig::new(vec![TableSpec::i32("c", OpKind::Add, 16)]);
        config.queue_capacity = 8;
        config.quantum = 4;
        let core = ServerCore::new(config).expect("core");
        let mut client = LocalClient::new(core);
        let updates: Vec<Update> = (0..100).map(|i| Update::i32(i, (i % 16) as u32, 1)).collect();
        let retries = client.submit_all(0, &updates).expect("submit all");
        assert!(retries > 0, "tiny queue must reject at least once");
        client.flush().expect("flush");
        let snap = client.snapshot(0).expect("snapshot");
        assert_eq!(snap.watermark, 100, "every rejected update was retried");
        let TableData::I32(v) = &snap.data else { panic!("i32") };
        assert_eq!(v.iter().sum::<i32>(), 100);
    }
}
