//! Clients: in-process (sharing the [`ServerCore`]) and TCP.
//!
//! Both speak through the same [`ServeClient`] trait so harness smoke
//! drivers and benchmarks can mix transports. `submit_all` implements the
//! backpressure contract from the client side: on a `Reject`, honor the
//! retry-after backoff and resubmit the refused suffix — nothing is lost,
//! the stream just slows down.

use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

use crate::protocol::{
    read_frame, write_frame, EdgeOp, ProtoError, Reply, Request, SnapshotAssembler,
    SnapshotMetaTable, StatsSummary, Update, PROTOCOL_VERSION,
};
use crate::server::{LogTailPage, ServerCore, Snapshot, SubmitOutcome, TopKPage, WindowSnapshot};
use crate::table::{TableData, TableSpec, ValueKind};

/// A pinned chunked-snapshot transfer plan, as announced by
/// `SnapshotMeta`: what to fetch and what it must hash to.
#[derive(Debug, Clone)]
pub struct SnapshotPlan {
    /// Checkpoint generation of the pinned log position.
    pub checkpoint: u64,
    /// Log index the pinned tables correspond to.
    pub index: u64,
    /// Values per chunk frame.
    pub chunk_values: u32,
    /// Per-table watermark, length, and checksum.
    pub tables: Vec<SnapshotMetaTable>,
}

/// Transport-independent client surface.
pub trait ServeClient {
    /// Submits one batch of updates for `table`.
    ///
    /// # Errors
    ///
    /// Returns a message for transport failures or server-side errors.
    fn submit(&mut self, table: u16, updates: &[Update]) -> Result<SubmitOutcome, String>;

    /// Submits one batch of edge insertions/deletions for a graph stream
    /// table.
    ///
    /// # Errors
    ///
    /// Returns a message for transport failures or server-side errors.
    fn edge_ops(&mut self, table: u16, ops: &[EdgeOp]) -> Result<SubmitOutcome, String>;

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
    /// admitted. Returns the number of reject round-trips taken.
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

    fn edge_ops(&mut self, table: u16, ops: &[EdgeOp]) -> Result<SubmitOutcome, String> {
        Ok(self.core.submit_edge_ops(table, ops))
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
        // checksum the server stamped must match the data it handed over.
        let computed = crate::protocol::snapshot_checksum(&snap.bits());
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

/// How many reject-with-retry-after rounds [`TcpClient::submit`] absorbs
/// internally before surfacing the rejection to the caller.
const MAX_SUBMIT_ATTEMPTS: u32 = 8;

/// TCP client: one connection, `Hello`-handshaken, synchronous
/// request/reply.
///
/// `submit` honors the server's reject-with-retry-after contract itself:
/// a rejected suffix is backed off and resubmitted up to
/// `MAX_SUBMIT_ATTEMPTS` times before the caller ever sees a
/// `Rejected` outcome, so transient backpressure never surfaces to every
/// call site.
#[derive(Debug)]
pub struct TcpClient {
    reader: std::io::BufReader<TcpStream>,
    writer: std::io::BufWriter<TcpStream>,
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
        let mut client = TcpClient { reader, writer, quantum: 0, tables: Vec::new(), backoffs: 0 };
        match client.round_trip(&Request::Hello { version: PROTOCOL_VERSION })? {
            Reply::Hello { version, quantum, tables, .. } => {
                if version != PROTOCOL_VERSION {
                    return Err(format!(
                        "server speaks protocol {version}, not {PROTOCOL_VERSION}"
                    ));
                }
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

    /// Backoff rounds this client has absorbed across all submits.
    pub fn backoffs(&self) -> u64 {
        self.backoffs
    }

    /// One wire round trip of an update batch, no retry.
    fn submit_once(&mut self, table: u16, updates: &[Update]) -> Result<SubmitOutcome, String> {
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

    fn round_trip(&mut self, request: &Request) -> Result<Reply, String> {
        write_frame(&mut self.writer, &request.encode()).map_err(|e| format!("send: {e}"))?;
        match read_frame(&mut self.reader) {
            Ok(Some(body)) => Reply::decode(&body).map_err(|e| e.to_string()),
            Ok(None) => Err("server closed the connection".into()),
            Err(ProtoError::Io(e)) => Err(format!("receive: {e}")),
            Err(e) => Err(e.to_string()),
        }
    }

    /// Pins a consistent all-table state server-side for chunked
    /// transfer; returns the transfer plan (per-table lengths, checksums,
    /// chunk geometry, and the matching log position).
    ///
    /// # Errors
    ///
    /// Returns a message for transport failures or unexpected replies.
    pub fn snapshot_begin(&mut self) -> Result<SnapshotPlan, String> {
        match self.round_trip(&Request::SnapshotBegin)? {
            Reply::SnapshotMeta { checkpoint, index, chunk_values, tables } => {
                Ok(SnapshotPlan { checkpoint, index, chunk_values, tables })
            }
            Reply::Error(m) => Err(m),
            other => Err(format!("unexpected snapshot-begin reply {other:?}")),
        }
    }

    /// Fetches one chunk of a pinned table's bit stream.
    ///
    /// # Errors
    ///
    /// Returns a message for transport failures, server-side errors
    /// (no pin, chunk out of range), or replies for the wrong chunk.
    pub fn snapshot_chunk(&mut self, table: u16, chunk: u32) -> Result<Vec<u32>, String> {
        match self.round_trip(&Request::SnapshotChunk { table, chunk })? {
            Reply::SnapshotChunk { table: t, chunk: c, values } => {
                if t != table || c != chunk {
                    return Err(format!(
                        "asked for table {table} chunk {chunk}, got table {t} chunk {c}"
                    ));
                }
                Ok(values)
            }
            Reply::Error(m) => Err(m),
            other => Err(format!("unexpected snapshot-chunk reply {other:?}")),
        }
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

    /// Downloads one pinned table through the chunked verbs, verifying
    /// chunk order, total length, and the announced checksum.
    ///
    /// # Errors
    ///
    /// Returns a message for transport failures or any assembly/integrity
    /// violation (out-of-order chunk, length or checksum mismatch).
    pub fn fetch_pinned_table(
        &mut self,
        plan: &SnapshotPlan,
        table: u16,
    ) -> Result<Vec<u32>, String> {
        let meta = plan
            .tables
            .iter()
            .find(|m| m.table == table)
            .ok_or_else(|| format!("table {table} not in the snapshot plan"))?;
        let mut asm = SnapshotAssembler::new(table, meta.len, meta.checksum, plan.chunk_values);
        while !asm.complete() {
            let chunk = asm.next_chunk();
            let values = self.snapshot_chunk(table, chunk)?;
            asm.push(table, chunk, &values).map_err(|e| e.to_string())?;
        }
        asm.finish().map_err(|e| e.to_string())
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
        let mut rest = updates;
        let mut total = 0u32;
        let mut attempts = 0u32;
        loop {
            match self.submit_once(table, rest)? {
                SubmitOutcome::Accepted { accepted, watermark } => {
                    return Ok(SubmitOutcome::Accepted { accepted: total + accepted, watermark });
                }
                SubmitOutcome::Rejected { accepted, retry_after_ms, reason } => {
                    total += accepted;
                    rest = &rest[accepted as usize..];
                    attempts += 1;
                    // A draining server never admits more; an exhausted
                    // budget hands the remainder back to the caller.
                    if reason == crate::protocol::RejectReason::Draining
                        || attempts >= MAX_SUBMIT_ATTEMPTS
                    {
                        return Ok(SubmitOutcome::Rejected {
                            accepted: total,
                            retry_after_ms,
                            reason,
                        });
                    }
                    self.backoff(retry_after_ms);
                }
                SubmitOutcome::Failed(m) => return Ok(SubmitOutcome::Failed(m)),
            }
        }
    }

    fn edge_ops(&mut self, table: u16, ops: &[EdgeOp]) -> Result<SubmitOutcome, String> {
        match self.round_trip(&Request::EdgeOps { table, ops: ops.to_vec() })? {
            Reply::Ack { accepted, watermark } => {
                Ok(SubmitOutcome::Accepted { accepted, watermark })
            }
            Reply::Reject { accepted, retry_after_ms, reason } => {
                Ok(SubmitOutcome::Rejected { accepted, retry_after_ms, reason })
            }
            Reply::Error(m) => Ok(SubmitOutcome::Failed(m)),
            other => Err(format!("unexpected edge-ops reply {other:?}")),
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

    fn snapshot(&mut self, table: u16) -> Result<Snapshot, String> {
        match self.round_trip(&Request::Snapshot { table })? {
            Reply::Snapshot { table, watermark, checksum, values } => {
                let computed = crate::protocol::snapshot_checksum(&values);
                if computed != checksum {
                    return Err(format!(
                        "snapshot checksum mismatch for table {table}: computed {computed:#010x} \
                         over received values, server stamped {checksum:#010x}",
                    ));
                }
                let spec = self
                    .tables
                    .get(table as usize)
                    .ok_or_else(|| format!("snapshot for unannounced table {table}"))?;
                // In place: the decoded bit vector's allocation is reused.
                let data = match spec.kind {
                    ValueKind::F32 => {
                        TableData::F32(values.into_iter().map(f32::from_bits).collect())
                    }
                    ValueKind::I32 => {
                        TableData::I32(values.into_iter().map(|b| b as i32).collect())
                    }
                };
                Ok(Snapshot { table, watermark, checksum, data })
            }
            Reply::Error(m) => Err(m),
            other => Err(format!("unexpected snapshot reply {other:?}")),
        }
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
    fn tcp_client_absorbs_rejections_with_bounded_backoff() {
        // Tiny staging buffer: a batch larger than it must be rejected at
        // least once, and the client must absorb the rejection
        // internally (backing off and resubmitting the refused suffix)
        // rather than surfacing it.
        let mut config = ServeConfig::new(vec![TableSpec::i32("c", OpKind::Add, 16)]);
        config.queue_capacity = 8;
        config.quantum = 4;
        let server = Server::bind(config, "127.0.0.1:0").expect("bind loopback");
        let mut tcp = TcpClient::connect(server.local_addr()).expect("connect");

        let updates: Vec<Update> = (0..40).map(|i| Update::i32(i, (i % 16) as u32, 1)).collect();
        // submit (not submit_all): the internal retry loop alone must land
        // the whole batch, because the epoch thread keeps draining the
        // queue between backoffs.
        let outcome = tcp.submit(0, &updates).expect("submit");
        match outcome {
            SubmitOutcome::Accepted { accepted, .. } => assert_eq!(accepted, 40),
            // An exhausted budget is allowed by the contract, but the
            // accepted count must reflect every admitted prefix.
            SubmitOutcome::Rejected { accepted, .. } => {
                assert!(accepted < 40);
                tcp.submit_all(0, &updates[accepted as usize..]).expect("residual");
            }
            SubmitOutcome::Failed(m) => panic!("submit failed: {m}"),
        }
        assert!(tcp.backoffs() > 0, "a 40-update batch through an 8-slot queue must back off");

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
