//! Readiness-based TCP front end: the event-driven replacement for the
//! thread-per-connection accept loop.
//!
//! A small fixed set of I/O threads multiplexes every connection through a
//! readiness poller — epoll on Linux (direct FFI, std-only), `poll(2)` as a
//! forced fallback, and a portable scan poller everywhere else. Each
//! connection owns growable read/write [`Ring`] buffers; request frames are
//! decoded **zero-copy** straight out of the read ring via
//! [`RequestView`] (a frame that happens to
//! wrap the ring edge is linearized into a per-connection scratch buffer,
//! never per-update allocations), and decoded batches feed the exact same
//! [`ServerCore`] admission path the blocking front end used — which is the
//! determinism argument: the core folds updates in contiguous `seq` order
//! per table, so snapshot bytes are a pure function of stream content, not
//! of readiness interleaving.
//!
//! Backpressure is two-sided. A partial socket write parks the remainder in
//! the write ring and arms write interest (resumed on the next writable
//! event). When a connection's write ring exceeds the configured cap — a
//! slow reader — the reactor *stops reading* from that connection (drops
//! read interest) until the ring drains, so one slow consumer cannot balloon
//! server memory. Both stall kinds, plus wakeups, readiness batches, open
//! connections, and accept overflow, are exported through the core's metric
//! registry.

use std::io::{BufWriter, ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use invector_obs::{Counter, Registry};

use crate::protocol::{
    snapshot_reply_len, ProtoError, Reply, RequestView, MAX_FRAME_LEN, PROTOCOL_VERSION,
};
use crate::server::{ServerCore, Snapshot, SubmitOutcome};

/// Which readiness backend the reactor drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReactorKind {
    /// epoll on Linux, the portable scan poller elsewhere.
    #[default]
    Auto,
    /// Force epoll (Linux only; falls back to scan elsewhere).
    Epoll,
    /// Force the `poll(2)` set (Linux; scan elsewhere). Useful for
    /// differential tests: the two backends must produce identical
    /// snapshots.
    Poll,
}

impl std::str::FromStr for ReactorKind {
    type Err = String;

    fn from_str(s: &str) -> Result<ReactorKind, String> {
        match s {
            "auto" => Ok(ReactorKind::Auto),
            "epoll" => Ok(ReactorKind::Epoll),
            "poll" => Ok(ReactorKind::Poll),
            other => Err(format!("unknown reactor '{other}' (auto|epoll|poll)")),
        }
    }
}

impl std::fmt::Display for ReactorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ReactorKind::Auto => "auto",
            ReactorKind::Epoll => "epoll",
            ReactorKind::Poll => "poll",
        })
    }
}

/// Poll timeout: the backstop for the wake sockets ([`Control`]). The stop
/// flag and the cross-thread connection inboxes are checked every wakeup;
/// a thread is woken as soon as either needs it, and this bounds how long
/// a lost wake could delay it.
const WAIT_MS: i32 = 5;

/// Size of one socket `read` call.
const READ_CHUNK: usize = 16 << 10;

/// Per-readiness-event socket read budget per connection: bounds how long
/// one chatty connection can monopolize an I/O thread.
const READ_BUDGET: usize = 64 << 10;

/// Grace period for flushing pending replies (`Bye`, final acks) once
/// shutdown begins.
const CLOSE_GRACE: Duration = Duration::from_millis(250);

/// Token reserved for the listener in thread 0's poller.
const LISTENER_TOKEN: usize = usize::MAX;

/// Token reserved for the wake socket in every thread's poller.
const WAKE_TOKEN: usize = usize::MAX - 1;

// ---------------------------------------------------------------------------
// Ring buffer
// ---------------------------------------------------------------------------

/// A growable power-of-two circular byte buffer.
///
/// Both per-connection buffers use this: the read side appends socket bytes
/// at the tail and decodes frames from the head (borrowing the bytes in
/// place when the frame is contiguous), the write side appends encoded
/// replies and drains from the head into the socket.
#[derive(Debug)]
pub struct Ring {
    buf: Vec<u8>,
    head: usize,
    len: usize,
}

impl Ring {
    /// An empty ring with a small initial capacity.
    pub fn new() -> Ring {
        Ring::with_capacity(4096)
    }

    /// An empty ring with at least `cap` bytes of capacity (rounded up to a
    /// power of two).
    pub fn with_capacity(cap: usize) -> Ring {
        let cap = cap.max(64).next_power_of_two();
        Ring { buf: vec![0; cap], head: 0, len: 0 }
    }

    /// Bytes currently buffered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    fn mask(&self) -> usize {
        self.buf.len() - 1
    }

    /// Byte at logical offset `i` from the head.
    fn at(&self, i: usize) -> u8 {
        debug_assert!(i < self.len);
        self.buf[(self.head + i) & self.mask()]
    }

    /// Grows (linearizing) so at least `additional` more bytes fit.
    fn reserve(&mut self, additional: usize) {
        let needed = self.len + additional;
        if needed <= self.buf.len() {
            return;
        }
        let new_cap = needed.next_power_of_two();
        let mut new_buf = vec![0; new_cap];
        let (a, b) = self.front_slices();
        new_buf[..a.len()].copy_from_slice(a);
        new_buf[a.len()..a.len() + b.len()].copy_from_slice(b);
        self.head = 0;
        self.buf = new_buf;
    }

    /// The buffered bytes as (at most) two contiguous slices, head first.
    pub fn front_slices(&self) -> (&[u8], &[u8]) {
        let start = self.head & self.mask();
        let end = start + self.len;
        if end <= self.buf.len() {
            (&self.buf[start..end], &[])
        } else {
            (&self.buf[start..], &self.buf[..end - self.buf.len()])
        }
    }

    /// Appends `bytes`, growing as needed.
    pub fn push(&mut self, bytes: &[u8]) {
        self.reserve(bytes.len());
        let mask = self.mask();
        let tail = (self.head + self.len) & mask;
        let first = bytes.len().min(self.buf.len() - tail);
        self.buf[tail..tail + first].copy_from_slice(&bytes[..first]);
        self.buf[..bytes.len() - first].copy_from_slice(&bytes[first..]);
        self.len += bytes.len();
    }

    /// Drops `n` bytes from the head.
    pub fn consume(&mut self, n: usize) {
        debug_assert!(n <= self.len);
        self.head = (self.head + n) & self.mask();
        self.len -= n;
    }

    /// Reads up to `max` bytes from `r` into the tail. Returns the byte
    /// count (0 on EOF), like `Read::read`.
    pub fn read_from(&mut self, r: &mut impl Read, max: usize) -> std::io::Result<usize> {
        self.reserve(max.min(READ_CHUNK));
        let mask = self.mask();
        let tail = (self.head + self.len) & mask;
        let room = (self.buf.len() - self.len).min(self.buf.len() - tail).min(max);
        let n = r.read(&mut self.buf[tail..tail + room])?;
        self.len += n;
        Ok(n)
    }

    /// Writes buffered bytes to `w` until empty or `WouldBlock`. Returns
    /// `Ok(true)` when fully drained, `Ok(false)` when the socket stalled.
    pub fn write_to(&mut self, w: &mut impl Write) -> std::io::Result<bool> {
        while self.len > 0 {
            let (a, _) = self.front_slices();
            let want = a.len();
            let n = send(w, a)?;
            self.consume(n);
            if n < want {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Pops the next complete length-prefixed frame, if one is buffered.
    ///
    /// The returned slice borrows the ring directly when the frame body is
    /// contiguous in memory — the zero-copy hot path — and `scratch` (whose
    /// allocation is reused across calls) when the body wraps the ring
    /// edge. Either way no per-frame heap allocation happens in steady
    /// state.
    ///
    /// # Errors
    ///
    /// Returns [`ProtoError::Malformed`] for frames over
    /// [`MAX_FRAME_LEN`].
    pub fn pop_frame<'s>(
        &'s mut self,
        scratch: &'s mut Vec<u8>,
    ) -> Result<Option<&'s [u8]>, ProtoError> {
        if self.len < 4 {
            return Ok(None);
        }
        let frame_len =
            u32::from_le_bytes([self.at(0), self.at(1), self.at(2), self.at(3)]) as usize;
        if frame_len > MAX_FRAME_LEN {
            return Err(ProtoError::Malformed(format!(
                "frame length {frame_len} exceeds {MAX_FRAME_LEN}"
            )));
        }
        if self.len < 4 + frame_len {
            return Ok(None);
        }
        self.consume(4);
        let start = self.head & self.mask();
        if start + frame_len <= self.buf.len() {
            self.consume(frame_len);
            Ok(Some(&self.buf[start..start + frame_len]))
        } else {
            scratch.clear();
            scratch.extend_from_slice(&self.buf[start..]);
            scratch.extend_from_slice(&self.buf[..frame_len - (self.buf.len() - start)]);
            self.consume(frame_len);
            Ok(Some(&scratch[..]))
        }
    }

    /// Whether a complete length-prefixed frame is buffered. A frame whose
    /// declared length exceeds the protocol cap also counts: popping it is
    /// how the malformed-frame error surfaces.
    pub fn has_complete_frame(&self) -> bool {
        if self.len < 4 {
            return false;
        }
        let n = u32::from_le_bytes([self.at(0), self.at(1), self.at(2), self.at(3)]) as usize;
        n > MAX_FRAME_LEN || self.len >= 4 + n
    }
}

impl Default for Ring {
    fn default() -> Ring {
        Ring::new()
    }
}

/// Writes `bytes` to `w` until all are written or `w` would block; returns
/// how many went out.
fn send(w: &mut impl Write, bytes: &[u8]) -> std::io::Result<usize> {
    let mut sent = 0;
    while sent < bytes.len() {
        match w.write(&bytes[sent..]) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => sent += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(sent)
}

// ---------------------------------------------------------------------------
// Readiness pollers
// ---------------------------------------------------------------------------

/// Interest bit: readable.
const INTEREST_READ: u8 = 0b01;
/// Interest bit: writable.
const INTEREST_WRITE: u8 = 0b10;

/// One readiness event: slab token plus what fired. A writable-only event
/// carries `readable: false`; [`drive`] then only flushes.
#[derive(Debug, Clone, Copy)]
struct Event {
    token: usize,
    readable: bool,
    error: bool,
}

#[cfg(target_os = "linux")]
mod sys {
    //! Direct syscall declarations for epoll and poll. std already links
    //! libc, so these resolve without any new dependency.
    use std::os::raw::{c_int, c_ulong};

    /// Mirrors `struct epoll_event`; the kernel ABI packs it on x86-64.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLLIN: u32 = 0x1;
    pub const EPOLLOUT: u32 = 0x4;
    pub const EPOLLERR: u32 = 0x8;
    pub const EPOLLHUP: u32 = 0x10;
    pub const EPOLLRDHUP: u32 = 0x2000;

    /// Mirrors `struct pollfd`.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: i16,
        pub revents: i16,
    }

    pub const POLLIN: i16 = 0x1;
    pub const POLLOUT: i16 = 0x4;
    pub const POLLERR: i16 = 0x8;
    pub const POLLHUP: i16 = 0x10;
    pub const POLLNVAL: i16 = 0x20;

    // The kernel's layouts, which the declarations above mirror: a packed
    // 12-byte `epoll_event` on x86-64 (16 bytes, `data` aligned, elsewhere)
    // and an 8-byte `pollfd`.
    const _: () = assert!(
        std::mem::size_of::<EpollEvent>() == if cfg!(target_arch = "x86_64") { 12 } else { 16 }
    );
    const _: () = assert!(std::mem::size_of::<PollFd>() == 8);

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout_ms: c_int,
        ) -> c_int;
        pub fn poll(fds: *mut PollFd, nfds: c_ulong, timeout_ms: c_int) -> c_int;
    }
}

#[cfg(target_os = "linux")]
struct EpollPoller {
    /// Owned epoll fd; closed on drop.
    epfd: std::os::fd::OwnedFd,
    buf: Vec<sys::EpollEvent>,
}

#[cfg(target_os = "linux")]
impl EpollPoller {
    fn new() -> std::io::Result<EpollPoller> {
        use std::os::fd::FromRawFd;
        // SAFETY: `epoll_create1` takes no pointer; its result is checked
        // below before any use.
        let fd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        // SAFETY: `fd` is the fresh descriptor just returned, checked
        // `>= 0`, and nothing else owns it.
        let epfd = unsafe { std::os::fd::OwnedFd::from_raw_fd(fd) };
        Ok(EpollPoller { epfd, buf: vec![sys::EpollEvent { events: 0, data: 0 }; 256] })
    }

    fn mask(interest: u8) -> u32 {
        let mut m = sys::EPOLLRDHUP;
        if interest & INTEREST_READ != 0 {
            m |= sys::EPOLLIN;
        }
        if interest & INTEREST_WRITE != 0 {
            m |= sys::EPOLLOUT;
        }
        m
    }

    fn ctl(
        &self,
        op: std::os::raw::c_int,
        fd: i32,
        token: usize,
        interest: u8,
    ) -> std::io::Result<()> {
        use std::os::fd::AsRawFd;
        let mut ev = sys::EpollEvent { events: Self::mask(interest), data: token as u64 };
        // SAFETY: `ev` is a live local `epoll_event` for the whole call.
        let rc = unsafe { sys::epoll_ctl(self.epfd.as_raw_fd(), op, fd, &mut ev) };
        if rc < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(())
    }

    fn wait(&mut self, out: &mut Vec<Event>, timeout_ms: i32) -> std::io::Result<()> {
        use std::os::fd::AsRawFd;
        // SAFETY: the kernel writes at most `buf.len()` events, the
        // capacity passed, into `buf`; only `buf[..n]` is read, after `n`
        // is checked.
        let n = unsafe {
            sys::epoll_wait(
                self.epfd.as_raw_fd(),
                self.buf.as_mut_ptr(),
                self.buf.len() as std::os::raw::c_int,
                timeout_ms,
            )
        };
        if n < 0 {
            let e = std::io::Error::last_os_error();
            if e.kind() == ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(e);
        }
        for ev in &self.buf[..n as usize] {
            // Copy packed fields to locals before forming any reference.
            let events = ev.events;
            let data = ev.data;
            out.push(Event {
                token: data as usize,
                readable: events & (sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLHUP) != 0,
                error: events & sys::EPOLLERR != 0,
            });
        }
        Ok(())
    }
}

#[cfg(target_os = "linux")]
#[derive(Default)]
struct PollSet {
    fds: Vec<sys::PollFd>,
    tokens: Vec<usize>,
}

#[cfg(target_os = "linux")]
impl PollSet {
    fn events(interest: u8) -> i16 {
        let mut e = 0i16;
        if interest & INTEREST_READ != 0 {
            e |= sys::POLLIN;
        }
        if interest & INTEREST_WRITE != 0 {
            e |= sys::POLLOUT;
        }
        e
    }

    fn register(&mut self, fd: i32, token: usize, interest: u8) {
        self.fds.push(sys::PollFd { fd, events: Self::events(interest), revents: 0 });
        self.tokens.push(token);
    }

    fn modify(&mut self, fd: i32, interest: u8) {
        if let Some(p) = self.fds.iter_mut().find(|p| p.fd == fd) {
            p.events = Self::events(interest);
        }
    }

    fn deregister(&mut self, fd: i32) {
        if let Some(i) = self.fds.iter().position(|p| p.fd == fd) {
            self.fds.swap_remove(i);
            self.tokens.swap_remove(i);
        }
    }

    fn wait(&mut self, out: &mut Vec<Event>, timeout_ms: i32) -> std::io::Result<()> {
        // SAFETY: `fds` holds `fds.len()` initialized entries, the count
        // passed, and the kernel writes only their `revents`.
        let n = unsafe {
            sys::poll(self.fds.as_mut_ptr(), self.fds.len() as std::os::raw::c_ulong, timeout_ms)
        };
        if n < 0 {
            let e = std::io::Error::last_os_error();
            if e.kind() == ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(e);
        }
        for (p, &token) in self.fds.iter().zip(&self.tokens) {
            let r = p.revents;
            if r == 0 {
                continue;
            }
            out.push(Event {
                token,
                readable: r & (sys::POLLIN | sys::POLLHUP) != 0,
                error: r & (sys::POLLERR | sys::POLLNVAL) != 0,
            });
        }
        Ok(())
    }
}

/// Portable fallback: every registered descriptor is reported ready for its
/// current interest each wait (with a sleep to avoid spinning). Nonblocking
/// sockets turn the spurious readiness into cheap `WouldBlock`s, so this is
/// correct — just not efficient. Only used off-Linux.
#[cfg(not(target_os = "linux"))]
#[derive(Default)]
struct ScanPoller {
    entries: Vec<(i32, usize, u8)>,
}

#[cfg(not(target_os = "linux"))]
impl ScanPoller {
    fn wait(&mut self, out: &mut Vec<Event>, timeout_ms: i32) -> std::io::Result<()> {
        std::thread::sleep(Duration::from_millis(timeout_ms.max(1) as u64));
        for &(_, token, interest) in &self.entries {
            let _ = interest & INTEREST_WRITE;
            out.push(Event { token, readable: interest & INTEREST_READ != 0, error: false });
        }
        Ok(())
    }
}

/// A readiness poller: epoll, `poll(2)`, or the portable scan fallback.
enum Poller {
    #[cfg(target_os = "linux")]
    Epoll(EpollPoller),
    #[cfg(target_os = "linux")]
    Poll(PollSet),
    #[cfg(not(target_os = "linux"))]
    Scan(ScanPoller),
}

impl Poller {
    fn new(kind: ReactorKind) -> std::io::Result<Poller> {
        #[cfg(target_os = "linux")]
        {
            match kind {
                ReactorKind::Auto | ReactorKind::Epoll => Ok(Poller::Epoll(EpollPoller::new()?)),
                ReactorKind::Poll => Ok(Poller::Poll(PollSet::default())),
            }
        }
        #[cfg(not(target_os = "linux"))]
        {
            let _ = kind;
            Ok(Poller::Scan(ScanPoller::default()))
        }
    }

    fn register(&mut self, fd: i32, token: usize, interest: u8) -> std::io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(p) => p.ctl(sys::EPOLL_CTL_ADD, fd, token, interest),
            #[cfg(target_os = "linux")]
            Poller::Poll(p) => {
                p.register(fd, token, interest);
                Ok(())
            }
            #[cfg(not(target_os = "linux"))]
            Poller::Scan(p) => {
                p.entries.push((fd, token, interest));
                Ok(())
            }
        }
    }

    fn modify(&mut self, fd: i32, token: usize, interest: u8) -> std::io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(p) => p.ctl(sys::EPOLL_CTL_MOD, fd, token, interest),
            #[cfg(target_os = "linux")]
            Poller::Poll(p) => {
                p.modify(fd, interest);
                Ok(())
            }
            #[cfg(not(target_os = "linux"))]
            Poller::Scan(p) => {
                if let Some(e) = p.entries.iter_mut().find(|e| e.0 == fd) {
                    e.2 = interest;
                }
                Ok(())
            }
        }
    }

    fn deregister(&mut self, fd: i32) -> std::io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(p) => p.ctl(sys::EPOLL_CTL_DEL, fd, 0, 0),
            #[cfg(target_os = "linux")]
            Poller::Poll(p) => {
                p.deregister(fd);
                Ok(())
            }
            #[cfg(not(target_os = "linux"))]
            Poller::Scan(p) => {
                p.entries.retain(|e| e.0 != fd);
                Ok(())
            }
        }
    }

    fn wait(&mut self, out: &mut Vec<Event>, timeout_ms: i32) -> std::io::Result<()> {
        out.clear();
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(p) => p.wait(out, timeout_ms),
            #[cfg(target_os = "linux")]
            Poller::Poll(p) => p.wait(out, timeout_ms),
            #[cfg(not(target_os = "linux"))]
            Poller::Scan(p) => p.wait(out, timeout_ms),
        }
    }
}

// ---------------------------------------------------------------------------
// Reactor metrics
// ---------------------------------------------------------------------------

/// Registry-backed reactor counters. Handles are lock-free on record; the
/// open-connection count lives in a plain atomic, exported through a
/// collector, because admission control (`max_connections`) reads it and
/// it moves both ways, which a last-write-wins gauge cannot track.
#[derive(Debug)]
struct ReactorStats {
    /// Live accepted connections (source of truth for `max_connections`).
    open: AtomicU64,
    /// Poller wakeups (including empty timeouts).
    wakeups: Counter,
    /// Wakeups that delivered at least one readiness event.
    readiness_batches: Counter,
    /// Readiness events across all wakeups.
    readiness_events: Counter,
    /// Connections accepted.
    accepted: Counter,
    /// Connections refused because `max_connections` was reached.
    accept_overflow: Counter,
    /// Times a connection's read interest was dropped because its write
    /// ring exceeded the cap (slow reader).
    read_stalls: Counter,
    /// Partial socket writes that armed write interest.
    write_stalls: Counter,
}

impl ReactorStats {
    fn new(registry: &Registry) -> Arc<ReactorStats> {
        let stats = Arc::new(ReactorStats {
            open: AtomicU64::new(0),
            wakeups: registry.counter(
                "invector_serve_wakeups_total",
                "reactor poller wakeups (including empty timeouts)",
            ),
            readiness_batches: registry.counter(
                "invector_serve_readiness_batches_total",
                "poller wakeups that delivered at least one readiness event",
            ),
            readiness_events: registry.counter(
                "invector_serve_readiness_events_total",
                "readiness events delivered across all wakeups",
            ),
            accepted: registry.counter(
                "invector_serve_accepted_total",
                "TCP connections accepted by the reactor",
            ),
            accept_overflow: registry.counter(
                "invector_serve_accept_overflow_total",
                "connections refused because max_connections was reached",
            ),
            read_stalls: registry.counter(
                "invector_serve_read_stalls_total",
                "reads paused by write-ring backpressure (slow reader)",
            ),
            write_stalls: registry.counter(
                "invector_serve_write_stalls_total",
                "partial socket writes that armed write interest",
            ),
        });
        let gauge_src = Arc::clone(&stats);
        registry.register_collector(
            "invector_serve_open_connections",
            "currently open reactor connections",
            move || gauge_src.open.load(Ordering::Relaxed),
        );
        stats
    }
}

// ---------------------------------------------------------------------------
// Connections
// ---------------------------------------------------------------------------

/// Per-connection reactor state.
struct Conn {
    stream: TcpStream,
    fd: i32,
    rbuf: Ring,
    wbuf: Ring,
    /// Reused linearization buffer for frames that wrap the read ring.
    scratch: Vec<u8>,
    /// `Hello` handshake completed.
    greeted: bool,
    /// Flush the write ring, then close; no further reads.
    closing: bool,
    /// Peer half-closed its write side (read returned EOF).
    peer_eof: bool,
    /// Read interest dropped due to write-ring backpressure.
    read_paused: bool,
    /// Interest bits currently registered with the poller.
    interest: u8,
}

impl Conn {
    fn new(stream: TcpStream, fd: i32) -> Conn {
        Conn {
            stream,
            fd,
            rbuf: Ring::new(),
            wbuf: Ring::new(),
            scratch: Vec::new(),
            greeted: false,
            closing: false,
            peer_eof: false,
            read_paused: false,
            interest: INTEREST_READ,
        }
    }

    /// The interest this connection should have registered right now.
    fn desired_interest(&self) -> u8 {
        let mut want = 0u8;
        if !self.closing && !self.peer_eof && !self.read_paused {
            want |= INTEREST_READ;
        }
        if !self.wbuf.is_empty() {
            want |= INTEREST_WRITE;
        }
        want
    }
}

/// A reply's way out to one connection: straight into the socket while
/// nothing is queued ahead of it, and into the write ring from the first
/// byte the socket does not take, so replies keep their order. Counts the
/// bytes it is given.
struct Outbound<'a> {
    stream: &'a TcpStream,
    ring: &'a mut Ring,
    written: usize,
}

impl Write for Outbound<'_> {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        let sent = if self.ring.is_empty() { send(&mut self.stream, bytes)? } else { 0 };
        self.ring.push(&bytes[sent..]);
        self.written += bytes.len();
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Writes reply frames through [`Outbound`]: `write` writes them, length
/// prefixes included, and they should come to `len` bytes. A write that
/// fails, or a reply of other than `len` bytes, leaves the stream unusable,
/// so the connection closes.
fn stream_reply<E>(
    stream: &TcpStream,
    wbuf: &mut Ring,
    closing: &mut bool,
    len: usize,
    write: impl FnOnce(&mut BufWriter<Outbound<'_>>) -> Result<(), E>,
) {
    let mut out = BufWriter::with_capacity(64, Outbound { stream, ring: wbuf, written: 0 });
    let sent = write(&mut out).is_ok() && out.flush().is_ok();
    if !sent || out.get_ref().written != len {
        *closing = true;
    }
}

/// Encodes `reply` as a length-prefixed frame into a write ring.
fn queue_reply(wbuf: &mut Ring, reply: &Reply) {
    let body = reply.encode();
    wbuf.push(&(body.len() as u32).to_le_bytes());
    wbuf.push(&body);
}

/// The reactor's stop flag and its I/O threads' wake sockets, held by the
/// server and by every I/O thread.
///
/// Each thread's poller holds the read end of a nonblocking socket pair
/// under [`WAKE_TOKEN`]; a byte written to the other end ends that
/// thread's wait at once. The accept path wakes the thread it hands a
/// connection to, and [`stop`](Control::stop) wakes them all, so neither
/// waits out the poll timeout ([`WAIT_MS`]).
#[derive(Debug)]
pub(crate) struct Control {
    stop: AtomicBool,
    /// One wake socket pair per I/O thread: the end a wake is written to,
    /// and the end the thread polls. Both live as long as the control, so
    /// a wake is never written to a socket whose reader has closed.
    wakes: Vec<(UnixStream, UnixStream)>,
}

impl Control {
    /// Sets the stop flag and wakes every I/O thread to act on it (the
    /// `Shutdown` verb and `Server::shutdown`).
    pub(crate) fn stop(&self) {
        self.stop.store(true, Ordering::Release);
        for thread in 0..self.wakes.len() {
            self.wake(thread);
        }
    }

    fn stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// Ends I/O thread `thread`'s poll wait. A write that fails finds the
    /// socket full, so a wake is already pending and nothing is lost.
    fn wake(&self, thread: usize) {
        let _ = (&self.wakes[thread].0).write(&[1]);
    }
}

/// Reads every pending wake byte off a thread's wake socket.
fn drain_wakes(mut wake: &UnixStream) {
    let mut buf = [0u8; 64];
    while matches!(wake.read(&mut buf), Ok(n) if n > 0) {}
}

/// State shared by every reactor thread.
struct Shared {
    core: Arc<ServerCore>,
    control: Arc<Control>,
    stats: Arc<ReactorStats>,
    /// Per-thread handoff queues: the accept path (thread 0) pushes fresh
    /// streams here and wakes the owning thread, which adopts them.
    inboxes: Vec<Mutex<Vec<TcpStream>>>,
    /// Round-robin assignment cursor.
    next_thread: AtomicUsize,
}

/// Spawns the reactor: `io_threads` event-loop threads, thread 0 owning the
/// (nonblocking) listener. Returns the join handles and the reactor's
/// [`Control`].
pub(crate) fn spawn(
    core: Arc<ServerCore>,
    listener: TcpListener,
) -> std::io::Result<(Vec<std::thread::JoinHandle<()>>, Arc<Control>)> {
    let config = core.config();
    let io_threads = config.io_threads.max(1);
    let kind = config.reactor;
    let stats = ReactorStats::new(core.registry());
    let mut wakes = Vec::with_capacity(io_threads);
    for _ in 0..io_threads {
        let (waker, wake) = UnixStream::pair()?;
        waker.set_nonblocking(true)?;
        wake.set_nonblocking(true)?;
        wakes.push((waker, wake));
    }
    let control = Arc::new(Control { stop: AtomicBool::new(false), wakes });
    let shared = Arc::new(Shared {
        core,
        control: Arc::clone(&control),
        stats,
        inboxes: (0..io_threads).map(|_| Mutex::new(Vec::new())).collect(),
        next_thread: AtomicUsize::new(0),
    });
    let mut handles = Vec::with_capacity(io_threads);
    for t in 0..io_threads {
        let shared = Arc::clone(&shared);
        let listener = if t == 0 { Some(listener.try_clone()?) } else { None };
        handles.push(
            std::thread::Builder::new()
                .name(format!("invector-serve-io{t}"))
                .spawn(move || io_loop(t, &shared, listener, kind))
                .expect("spawn reactor thread"),
        );
    }
    Ok((handles, control))
}

/// One event-loop thread: poll, adopt handed-off connections, accept (thread
/// 0), and drive per-connection state machines.
fn io_loop(thread_idx: usize, shared: &Shared, listener: Option<TcpListener>, kind: ReactorKind) {
    use std::os::fd::AsRawFd;
    let mut poller = match Poller::new(kind) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("invector-serve: reactor poller init failed: {e}");
            return;
        }
    };
    if let Some(l) = &listener {
        let _ = poller.register(l.as_raw_fd(), LISTENER_TOKEN, INTEREST_READ);
    }
    let wake = &shared.control.wakes[thread_idx].1;
    let _ = poller.register(wake.as_raw_fd(), WAKE_TOKEN, INTEREST_READ);
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut events: Vec<Event> = Vec::new();
    let mut open_here = 0usize;

    loop {
        if poller.wait(&mut events, WAIT_MS).is_err() {
            break;
        }
        shared.stats.wakeups.inc();
        if !events.is_empty() {
            shared.stats.readiness_batches.inc();
            shared.stats.readiness_events.add(events.len() as u64);
        }

        // Drain the wake socket before the inbox, so a wake that arrives
        // after this point stays pending for the next wait.
        if events.iter().any(|ev| ev.token == WAKE_TOKEN) {
            drain_wakes(wake);
        }

        // Adopt connections handed off by the accept path.
        let handoff: Vec<TcpStream> =
            shared.inboxes[thread_idx].lock().expect("inbox lock").drain(..).collect();
        for stream in handoff {
            let fd = stream.as_raw_fd();
            let token = free.pop().unwrap_or_else(|| {
                conns.push(None);
                conns.len() - 1
            });
            let conn = Conn::new(stream, fd);
            if poller.register(fd, token, conn.interest).is_ok() {
                conns[token] = Some(conn);
                open_here += 1;
            } else {
                free.push(token);
                shared.stats.open.fetch_sub(1, Ordering::Relaxed);
            }
        }

        let stopping = shared.control.stopping();

        // The scan poller reports every connection ready each pass; epoll
        // and poll report only what fired. Either way, drive what's listed.
        for ev in events.iter().copied() {
            if ev.token == WAKE_TOKEN {
                continue;
            }
            if ev.token == LISTENER_TOKEN {
                if let Some(l) = &listener {
                    accept_ready(l, shared, stopping);
                }
                continue;
            }
            let Some(conn) = conns.get_mut(ev.token).and_then(Option::as_mut) else {
                continue;
            };
            let dead = ev.error || drive(conn, shared, stopping, ev.readable).is_err();
            if dead || (conn.closing && conn.wbuf.is_empty()) {
                let _ = poller.deregister(conn.fd);
                let _ = conn.stream.shutdown(Shutdown::Both);
                conns[ev.token] = None;
                free.push(ev.token);
                open_here -= 1;
                shared.stats.open.fetch_sub(1, Ordering::Relaxed);
                continue;
            }
            let want = conn.desired_interest();
            if want != conn.interest {
                conn.interest = want;
                let _ = poller.modify(conn.fd, ev.token, want);
            }
        }

        // The scan poller never lists the listener; accept opportunistically.
        #[cfg(not(target_os = "linux"))]
        if let Some(l) = &listener {
            accept_ready(l, shared, stopping);
        }

        if stopping {
            // Graceful close: stop reading everywhere, flush what's queued
            // (Bye replies in particular) within the grace window, then bail.
            let deadline = Instant::now() + CLOSE_GRACE;
            for conn in conns.iter_mut().flatten() {
                conn.closing = true;
            }
            while Instant::now() < deadline {
                let mut pending = false;
                for conn in conns.iter_mut().flatten() {
                    let _ = conn.wbuf.write_to(&mut conn.stream);
                    pending |= !conn.wbuf.is_empty();
                }
                if !pending {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            for conn in conns.iter_mut().flatten() {
                let _ = conn.stream.shutdown(Shutdown::Both);
            }
            shared.stats.open.fetch_sub(open_here as u64, Ordering::Relaxed);
            return;
        }
    }
}

/// Accepts every pending connection, enforcing `max_connections` and
/// handing fresh streams to io threads round-robin.
fn accept_ready(listener: &TcpListener, shared: &Shared, stopping: bool) {
    let config = shared.core.config();
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if stopping {
                    continue;
                }
                let open = shared.stats.open.load(Ordering::Relaxed);
                if open as usize >= config.max_connections {
                    shared.stats.accept_overflow.inc();
                    continue;
                }
                if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                    continue;
                }
                shared.stats.open.fetch_add(1, Ordering::Relaxed);
                shared.stats.accepted.inc();
                let t = shared.next_thread.fetch_add(1, Ordering::Relaxed) % shared.inboxes.len();
                shared.inboxes[t].lock().expect("inbox lock").push(stream);
                shared.control.wake(t);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Drives one connection through a readiness event: flush pending writes,
/// read while the socket has bytes and backpressure allows, decode and
/// process complete frames, and re-attempt the flush.
///
/// `Err(())` means the connection died (I/O error or protocol violation
/// with nothing left to flush).
fn drive(conn: &mut Conn, shared: &Shared, stopping: bool, readable: bool) -> Result<(), ()> {
    let config = shared.core.config();
    let write_cap = config.write_buffer_cap;

    // Writable first: draining the ring may lift read backpressure.
    flush(conn, shared)?;
    if conn.read_paused && conn.wbuf.len() < write_cap {
        conn.read_paused = false;
    }

    // Frames may already be complete in the ring from a paused round.
    process(conn, shared, stopping)?;

    // Read until the socket drains, the per-event budget is spent, or
    // backpressure pauses the connection.
    let mut budget = if readable { READ_BUDGET } else { 0 };
    while !conn.closing && !conn.peer_eof && budget > 0 {
        if conn.wbuf.len() >= write_cap {
            flush(conn, shared)?;
            if conn.wbuf.len() >= write_cap {
                if !conn.read_paused {
                    conn.read_paused = true;
                    shared.stats.read_stalls.inc();
                }
                break;
            }
            conn.read_paused = false;
        }
        let chunk = budget.min(READ_CHUNK);
        match conn.rbuf.read_from(&mut conn.stream, chunk) {
            Ok(0) => {
                conn.peer_eof = true;
                break;
            }
            Ok(n) => {
                budget -= n;
                process(conn, shared, stopping)?;
                if n < chunk {
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return Err(()),
        }
    }

    // Serve remaining buffered frames as the socket accepts replies. Without
    // this pump a drained write ring plus a quiet peer leaves complete
    // frames stranded in the read ring with no future readiness event to
    // revisit them. Stop when no complete frame is left, or when the write
    // ring stays over the cap — write interest then guarantees a wakeup.
    loop {
        flush(conn, shared)?;
        if conn.read_paused && conn.wbuf.len() < write_cap {
            conn.read_paused = false;
        }
        if conn.closing || conn.wbuf.len() >= write_cap || !conn.rbuf.has_complete_frame() {
            break;
        }
        process(conn, shared, stopping)?;
    }

    // A half-closed peer winds down once every decodable frame is served;
    // an EOF-truncated partial frame is discarded.
    if conn.peer_eof && !conn.closing && !conn.rbuf.has_complete_frame() {
        conn.closing = true;
        flush(conn, shared)?;
    }
    Ok(())
}

/// Attempts to drain the write ring; a partial write arms write interest
/// via the stall counter + desired-interest settle in the caller.
fn flush(conn: &mut Conn, shared: &Shared) -> Result<(), ()> {
    match conn.wbuf.write_to(&mut conn.stream) {
        Ok(true) => Ok(()),
        Ok(false) => {
            shared.stats.write_stalls.inc();
            Ok(())
        }
        Err(_) => Err(()),
    }
}

/// Decodes and serves every complete frame currently in the read ring.
/// Stops early (leaving frames buffered) when the write ring crosses the
/// backpressure cap.
fn process(conn: &mut Conn, shared: &Shared, _stopping: bool) -> Result<(), ()> {
    let write_cap = shared.core.config().write_buffer_cap;
    // Disjoint field borrows: the decoded frame borrows rbuf/scratch while
    // the reply path mutates wbuf/greeted/closing.
    let Conn { stream, rbuf, scratch, wbuf, greeted, closing, .. } = conn;
    loop {
        if *closing || wbuf.len() >= write_cap {
            return Ok(());
        }
        let frame = match rbuf.pop_frame(scratch) {
            Ok(Some(frame)) => frame,
            Ok(None) => return Ok(()),
            Err(ProtoError::Malformed(m)) => {
                queue_reply(wbuf, &Reply::Error(m));
                *closing = true;
                return Ok(());
            }
            Err(ProtoError::Io(_)) => return Err(()),
        };
        let request = match RequestView::decode(frame) {
            Ok(r) => r,
            Err(ProtoError::Malformed(m)) => {
                queue_reply(wbuf, &Reply::Error(m));
                *closing = true;
                return Ok(());
            }
            Err(ProtoError::Io(_)) => return Err(()),
        };
        respond(greeted, closing, wbuf, stream, shared, request);
    }
}

/// Serves one decoded request, queueing the reply. The update path hands
/// the borrowed view straight to core admission — updates never exist as an
/// intermediate `Vec` between the socket and the table's staging buffer.
fn respond(
    greeted: &mut bool,
    closing: &mut bool,
    wbuf: &mut Ring,
    stream: &TcpStream,
    shared: &Shared,
    request: RequestView<'_>,
) {
    let core = &shared.core;
    let reply = match (*greeted, request) {
        (false, RequestView::Hello { version }) if version == PROTOCOL_VERSION => {
            *greeted = true;
            Reply::Hello {
                version: PROTOCOL_VERSION,
                quantum: core.config().quantum as u32,
                tables: core.config().tables.clone(),
            }
        }
        (false, RequestView::Hello { version }) => {
            *closing = true;
            Reply::Error(format!("protocol version {version} != {PROTOCOL_VERSION}"))
        }
        (false, _) => {
            *closing = true;
            Reply::Error("expected Hello".into())
        }
        (true, RequestView::Hello { .. }) => Reply::Error("already said hello".into()),
        (true, RequestView::Update { table, updates }) => match core.submit_view(table, &updates) {
            SubmitOutcome::Accepted { accepted, watermark } => Reply::Ack { accepted, watermark },
            SubmitOutcome::Rejected { accepted, retry_after_ms, reason } => {
                Reply::Reject { accepted, retry_after_ms, reason }
            }
            SubmitOutcome::Failed(m) => Reply::Error(m),
        },
        (true, RequestView::WindowQuery { table, bucket }) => {
            match core.window_query(table, bucket) {
                Ok(w) => Reply::Window {
                    table: w.table,
                    watermark: w.watermark,
                    bucket: w.bucket,
                    expired: w.expired,
                    values: w.values,
                },
                Err(m) => Reply::Error(m),
            }
        }
        (true, RequestView::TopK { table, k }) => match core.top_k(table, k) {
            Ok(p) => Reply::TopK { table: p.table, watermark: p.watermark, entries: p.entries },
            Err(m) => Reply::Error(m),
        },
        (true, RequestView::Flush) => {
            let report = core.flush();
            Reply::Ack {
                accepted: report.applied as u32,
                watermark: core.watermarks().iter().sum(),
            }
        }
        (true, RequestView::Snapshot { table }) => match core.config().tables.get(table as usize) {
            None => Reply::Error(format!("unknown table {table}")),
            Some(spec) => {
                // Written from the locked table straight into the socket
                // when nothing is queued ahead of it, so the kernel's copy
                // is the only one; what the socket does not take goes into
                // the ring, which is sized from the spec before the lock is
                // taken.
                let len = snapshot_reply_len(spec.len);
                wbuf.reserve(4 + len);
                stream_reply(stream, wbuf, closing, 4 + len, |out| {
                    out.write_all(&(len as u32).to_le_bytes()).map_err(|e| e.to_string())?;
                    core.write_snapshot_reply(table, out)
                });
                return;
            }
        },
        (true, RequestView::SnapshotBegin) => {
            // Pinned under the tick lock; the meta frame and one `Snapshot`
            // frame per table are written from the pin with no lock held,
            // and the pin is dropped once they are written or queued.
            let pin = core.pin_state();
            let meta = Reply::SnapshotMeta {
                checkpoint: pin.checkpoint,
                index: pin.index,
                tables: pin.tables.len() as u16,
            }
            .encode();
            let len = |snap: &Snapshot| snapshot_reply_len(snap.data.len());
            let total = 4 + meta.len() + pin.tables.iter().map(|s| 4 + len(s)).sum::<usize>();
            stream_reply(stream, wbuf, closing, total, |out| {
                out.write_all(&(meta.len() as u32).to_le_bytes())?;
                out.write_all(&meta)?;
                for snap in &pin.tables {
                    out.write_all(&(len(snap) as u32).to_le_bytes())?;
                    snap.write_reply(out)?;
                }
                Ok::<_, std::io::Error>(())
            });
            return;
        }
        (true, RequestView::LogTail { checkpoint, index, max_bytes }) => {
            match core.log_tail(checkpoint, index, max_bytes) {
                Ok(page) => Reply::LogRecords {
                    checkpoint: page.checkpoint,
                    next_index: page.next_index,
                    head: page.head,
                    reset: page.reset,
                    records: page.records,
                },
                Err(m) => Reply::Error(m),
            }
        }
        (true, RequestView::Stats) => Reply::Stats(core.stats_summary()),
        (true, RequestView::Metrics) => Reply::Metrics(core.metrics_text()),
        (true, RequestView::Shutdown) => {
            let watermarks = core.begin_shutdown();
            *closing = true;
            shared.control.stop();
            Reply::Bye { watermarks }
        }
    };
    queue_reply(wbuf, &reply);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_push_consume_round_trip() {
        let mut r = Ring::with_capacity(64);
        r.push(b"hello");
        assert_eq!(r.len(), 5);
        let (a, b) = r.front_slices();
        assert_eq!(a, b"hello");
        assert!(b.is_empty());
        r.consume(2);
        let (a, _) = r.front_slices();
        assert_eq!(a, b"llo");
        r.consume(3);
        assert!(r.is_empty());
    }

    #[test]
    fn ring_grows_and_wraps() {
        let mut r = Ring::with_capacity(64);
        // Rotate the head so pushes wrap the physical edge.
        r.push(&[0u8; 48]);
        r.consume(48);
        let payload: Vec<u8> = (0..40u8).collect();
        r.push(&payload);
        let (a, b) = r.front_slices();
        assert_eq!(a.len() + b.len(), 40);
        let mut got = a.to_vec();
        got.extend_from_slice(b);
        assert_eq!(got, payload);
        // Growth linearizes.
        let big: Vec<u8> = (0..200u8).collect();
        r.push(&big);
        assert!(r.capacity() >= 240);
        let (a, b) = r.front_slices();
        let mut got = a.to_vec();
        got.extend_from_slice(b);
        assert_eq!(&got[..40], &payload[..]);
        assert_eq!(&got[40..], &big[..]);
    }

    #[test]
    fn pop_frame_borrows_contiguous_and_spills_wrapped() {
        let mut r = Ring::with_capacity(32);
        let mut scratch = Vec::new();
        // Contiguous frame at the front.
        let body = b"abcdef";
        r.push(&(body.len() as u32).to_le_bytes());
        r.push(body);
        let frame = r.pop_frame(&mut scratch).unwrap().unwrap();
        assert_eq!(frame, body);
        assert!(scratch.is_empty(), "contiguous frame must not touch scratch");

        // Rotate so the next frame wraps the edge of the 32-byte buffer.
        r.push(&[0u8; 24]);
        r.consume(24);
        let body2 = b"0123456789abcdef";
        r.push(&(body2.len() as u32).to_le_bytes());
        r.push(body2);
        let frame = r.pop_frame(&mut scratch).unwrap().unwrap();
        assert_eq!(frame, body2);
    }

    #[test]
    fn pop_frame_waits_for_completion_and_rejects_oversize() {
        let mut r = Ring::new();
        let mut scratch = Vec::new();
        r.push(&8u32.to_le_bytes());
        r.push(b"1234");
        assert!(r.pop_frame(&mut scratch).unwrap().is_none(), "frame incomplete");
        r.push(b"5678");
        assert_eq!(r.pop_frame(&mut scratch).unwrap().unwrap(), b"12345678");

        let mut r = Ring::new();
        r.push(&(u32::MAX).to_le_bytes());
        assert!(r.pop_frame(&mut scratch).is_err(), "oversize length must refuse");
    }

    #[test]
    fn reactor_kind_parses() {
        assert_eq!("auto".parse::<ReactorKind>().unwrap(), ReactorKind::Auto);
        assert_eq!("epoll".parse::<ReactorKind>().unwrap(), ReactorKind::Epoll);
        assert_eq!("poll".parse::<ReactorKind>().unwrap(), ReactorKind::Poll);
        assert!("uring".parse::<ReactorKind>().is_err());
        assert_eq!(ReactorKind::Poll.to_string(), "poll");
    }
}
