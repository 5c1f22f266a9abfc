//! Follower mode: replication by determinism.
//!
//! A follower is an ordinary [`ServerCore`] marked read-only, fed not by
//! client submits but by the leader's admitted-batch log. Because slice
//! cuts and slice results are pure functions of the logged stream, a
//! follower that replays the log holds bitwise-identical tables — and the
//! leader's `Seal` records let it *prove* that, epoch by epoch, with an
//! exact checksum compare instead of probabilistic spot checks.
//!
//! The lifecycle:
//!
//! 1. **Bootstrap**: `SnapshotBegin` pins a consistent all-table state on
//!    the leader plus the log position it corresponds to; the reply is that
//!    position and one ordinary `Snapshot` frame per table, each read
//!    straight into a typed table and verified against its checksum as it
//!    lands. Nothing is installed unless every table arrived intact.
//! 2. **Tail**: `LogTail` pages admitted-batch records from the pinned
//!    position; each `Batch` replays through the normal epoch path and
//!    each `Seal` is verified against the follower's own state checksum.
//! 3. **Reset**: if the leader checkpoints past the follower's position,
//!    the fetch comes back `reset` and the follower re-bootstraps.
//!
//! Any integrity failure — a frame for the wrong table, a checksum
//! mismatch, a seal that disagrees with replayed state — parks the
//! follower in [`FollowStatus::Diverged`] with the reason; it never serves
//! silently drifted data.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::client::TcpClient;
use crate::server::{ServeConfig, ServerCore};
use crate::wal::WalRecord;

/// Where a follower is in its lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FollowStatus {
    /// Fetching the bootstrap snapshot.
    Bootstrapping,
    /// Tailing the leader's log.
    Tailing,
    /// Stopped on an exact divergence or integrity failure; the reason is
    /// the full error message.
    Diverged(String),
    /// Stopped cleanly ([`Follower::stop`] or leader shutdown).
    Stopped,
}

/// A running follower: a read-only core kept converged with a leader.
#[derive(Debug)]
pub struct Follower {
    core: Arc<ServerCore>,
    status: Arc<Mutex<FollowStatus>>,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

/// How much log payload one `LogTail` fetch asks for.
const TAIL_PAGE_BYTES: u32 = 1 << 20;

/// Idle poll interval while the follower is caught up.
const TAIL_IDLE: Duration = Duration::from_millis(2);

impl Follower {
    /// Connects to a leader at `addr`, builds a read-only core mirroring
    /// the leader's announced tables, bootstraps it from a pinned
    /// snapshot, and starts the tail thread.
    ///
    /// `config` supplies local knobs (threads, backend, quantum is taken
    /// from the leader); its table list is replaced by the leader's.
    ///
    /// # Errors
    ///
    /// Returns a message for connection, bootstrap, or core-construction
    /// failures.
    pub fn start(addr: &str, mut config: ServeConfig) -> Result<Follower, String> {
        let mut client = TcpClient::connect(addr)?;
        config.tables = client.tables().to_vec();
        config.quantum = client.quantum() as usize;
        config.wal = None;
        let core = ServerCore::new(config)?;
        core.set_read_only(true);

        let status = Arc::new(Mutex::new(FollowStatus::Bootstrapping));
        let stop = Arc::new(AtomicBool::new(false));

        let (plan_checkpoint, plan_index) = bootstrap(&mut client, &core)?;
        *status.lock().expect("status lock") = FollowStatus::Tailing;

        let thread = {
            let core = Arc::clone(&core);
            let status = Arc::clone(&status);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("invector-serve-follow".into())
                .spawn(move || {
                    if let Err(m) = tail(&mut client, &core, &stop, plan_checkpoint, plan_index) {
                        *status.lock().expect("status lock") = FollowStatus::Diverged(m);
                        return;
                    }
                    let mut s = status.lock().expect("status lock");
                    if !matches!(*s, FollowStatus::Diverged(_)) {
                        *s = FollowStatus::Stopped;
                    }
                })
                .map_err(|e| format!("spawn follower thread: {e}"))?
        };

        Ok(Follower { core, status, stop, thread: Some(thread) })
    }

    /// The follower's read-only core (serve snapshots from it).
    pub fn core(&self) -> Arc<ServerCore> {
        Arc::clone(&self.core)
    }

    /// Current lifecycle status.
    pub fn status(&self) -> FollowStatus {
        self.status.lock().expect("status lock").clone()
    }

    /// Signals the tail thread to stop and waits for it.
    pub fn stop(mut self) -> FollowStatus {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        self.status()
    }
}

impl Drop for Follower {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Fetches the leader's pinned state, every table checksummed as it lands,
/// and installs it into the core. Returns the pinned log position.
fn bootstrap(client: &mut TcpClient, core: &ServerCore) -> Result<(u64, u64), String> {
    let pin = client.snapshot_begin()?;
    core.install_snapshot(pin.tables.into_iter().map(|s| (s.data, s.watermark)).collect())?;
    core.note_follower_bootstrap();
    Ok((pin.checkpoint, pin.index))
}

/// The tail loop: fetch → decode → replay → verify, re-bootstrapping on a
/// checkpoint reset, until stopped or diverged.
fn tail(
    client: &mut TcpClient,
    core: &Arc<ServerCore>,
    stop: &AtomicBool,
    mut checkpoint: u64,
    mut index: u64,
) -> Result<(), String> {
    while !stop.load(Ordering::Acquire) {
        let page = client.log_tail(checkpoint, index, TAIL_PAGE_BYTES)?;
        if page.reset {
            // The leader checkpointed past us; our state is still exact
            // (every seal so far verified), but the log we were reading
            // is gone. Re-pin a fresh snapshot and install it — the
            // installed checksums are the leader's, so the follower is
            // bitwise-equal by construction and seal verification resumes
            // from the new position.
            let (c, i) = bootstrap(client, core)?;
            checkpoint = c;
            index = i;
            continue;
        }
        core.note_follower_lag(page.head.saturating_sub(page.next_index));
        if page.records.is_empty() {
            std::thread::sleep(TAIL_IDLE);
            continue;
        }
        for payload in &page.records {
            let record = WalRecord::decode(payload)
                .map_err(|e| format!("log record {index} from leader is malformed: {e}"))?;
            core.apply_replica(&record)?;
            index += 1;
        }
        checkpoint = page.checkpoint;
    }
    Ok(())
}
