//! The epoll reactor: connection registration, readiness dispatch,
//! deadlines, and the worker hand-off queue.
//!
//! One reactor thread owns everything a connection's *lifetime* depends
//! on: the listening socket, the epoll set, the token → connection
//! registry, and the deadline heap. Worker threads own everything a
//! connection's *traffic* depends on: they pop ready connections off the
//! [`ReadyQueue`], perform the non-blocking reads/writes, and hand the
//! connection back to the reactor with a [`Command`].
//!
//! ```text
//!            epoll_wait ──────────────┐
//!   accept ──► register(EPOLLIN|ET|ONESHOT)   readiness event
//!                                     │  (disarms: ONESHOT)
//!                                     ▼
//!                               ReadyQueue ──► worker: flush / read /
//!                                     ▲         serve ONE frame
//!              Command::Rearm ────────┘              │
//!              (EPOLL_CTL_MOD + deadline)  ◄─────────┤ parked again
//!              Command::Close (DEL, then drop fd) ◄──┘ dead
//! ```
//!
//! Invariants this module enforces:
//!
//! * **Single ownership in time.** A connection is either *parked*
//!   (armed in epoll, reactor may time it out) or *checked out* (in the
//!   ready queue or held by exactly one worker). `EPOLLONESHOT` makes
//!   the kernel enforce the hand-off: a parked connection fires at most
//!   one event before it is disarmed, so two workers can never touch the
//!   same socket. A worker that wants more wake-ups must go through
//!   [`Command::Rearm`], and requeues a connection with work still
//!   buffered *without* rearming — double-dispatch is impossible by
//!   construction.
//! * **Descriptor-reuse safety.** Sockets are deregistered
//!   (`EPOLL_CTL_DEL`) strictly before they are closed, and closing
//!   happens only on the reactor thread when the last `Arc<Conn>` drops
//!   ([`Command::Close`] carries the worker's clone back for exactly
//!   this reason). A freshly accepted fd can therefore never collide
//!   with a half-deregistered old one.
//! * **Deadlines only bind the parked.** A checked-out connection is a
//!   worker's responsibility (workers never block on a peer); the heap
//!   entry is lazily invalidated by a per-arm sequence number, so a
//!   connection that woke up and was rearmed is judged only by its
//!   newest deadline.

use crate::io::FrameAssembler;
use crate::sys::{Epoll, EpollEvent, Waker, EPOLLET, EPOLLIN, EPOLLONESHOT, EPOLLOUT, EPOLLRDHUP};
use parking_lot::Mutex;
use ppann_core::ServiceStats;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::time::{Duration, Instant};

/// Epoll token of the listening socket.
const TOKEN_LISTENER: u64 = 0;
/// Epoll token of the eventfd waker.
const TOKEN_WAKER: u64 = 1;
/// First token handed to a client connection.
const TOKEN_FIRST_CONN: u64 = 2;

/// Per-connection protocol state, guarded by a mutex that is only ever
/// contended at the parked/checked-out hand-off (the ownership protocol
/// above means one thread at a time holds the connection).
pub(crate) struct ConnState {
    /// Incremental frame reassembly across edge-triggered reads.
    pub assembler: FrameAssembler,
    /// Reply bytes not yet accepted by the kernel; replies are appended
    /// here and flushed non-blockingly, never written blocking per frame.
    pub write_buf: Vec<u8>,
    /// Flushed prefix of `write_buf`.
    pub write_pos: usize,
    /// Completed the `Hello`/`HelloAck` handshake.
    pub ready: bool,
    /// Flush the write buffer, then close (error frames and `Shutdown`
    /// acks still reach the peer without a blocking write).
    pub closing: bool,
    /// Absolute deadline for the `Hello`, fixed at accept time.
    pub handshake_deadline: Instant,
    /// When the first byte of the currently-partial frame arrived; the
    /// `frame_timeout` clock for slow-loris peers.
    pub partial_since: Option<Instant>,
    /// When the currently-pending write buffer became non-empty; the
    /// write-timeout clock for peers that stop reading their replies.
    pub write_since: Option<Instant>,
}

impl ConnState {
    /// Unflushed reply bytes.
    pub fn pending_write(&self) -> usize {
        self.write_buf.len() - self.write_pos
    }
}

/// One live client connection, shared between the reactor's registry and
/// whichever worker currently has it checked out.
pub(crate) struct Conn {
    /// Registry/epoll token; never reused within a service lifetime.
    pub token: u64,
    /// The socket, permanently in non-blocking mode.
    pub stream: TcpStream,
    pub state: Mutex<ConnState>,
    /// Live-connection gauge behind `max_connections`; decremented when
    /// the last owner drops the connection, however it dies.
    live: Arc<AtomicUsize>,
}

impl Drop for Conn {
    fn drop(&mut self) {
        self.live.fetch_sub(1, Ordering::Relaxed);
    }
}

/// What a worker wants the reactor to wait for next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Interest {
    /// More request bytes (`EPOLLIN`).
    Read,
    /// Drain of the buffered replies (`EPOLLOUT`); reading is
    /// deliberately *not* armed, which is the backpressure that stops a
    /// peer from pipelining new work while refusing to take answers.
    Write,
}

/// Worker → reactor hand-back.
pub(crate) enum Command {
    /// Park the connection again: rearm epoll with `interest` and judge
    /// it by `deadline` until the next readiness event.
    Rearm { conn: Arc<Conn>, interest: Interest, deadline: Instant },
    /// The connection is finished (EOF, error, timeout, shutdown): the
    /// reactor deregisters the fd and drops the final references, in
    /// that order.
    Close { conn: Arc<Conn> },
}

/// The queue of readiness-dispatched connections workers consume.
///
/// A plain mutex + condvar queue (the vendored channel is single-
/// consumer): the reactor and requeueing workers push, every worker
/// pops, and `close` releases all waiters at shutdown. Depth is
/// mirrored into the process-wide stats gauge on every transition.
pub(crate) struct ReadyQueue {
    inner: StdMutex<ReadyInner>,
    cv: Condvar,
}

struct ReadyInner {
    queue: VecDeque<Arc<Conn>>,
    closed: bool,
}

impl ReadyQueue {
    fn new() -> Self {
        Self {
            inner: StdMutex::new(ReadyInner { queue: VecDeque::new(), closed: false }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ReadyInner> {
        // A worker panics only *outside* the queue lock (frame serving is
        // wrapped in catch_unwind), so a poisoned queue still holds
        // consistent data — recover it rather than wedging the service.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Enqueues a checked-out connection for the next free worker.
    /// Returns the connection back (`Err`) once the queue is closed for
    /// shutdown, so the caller can dispose of it.
    pub fn push(&self, conn: Arc<Conn>, stats: &ServiceStats) -> Result<(), Arc<Conn>> {
        let mut inner = self.lock();
        if inner.closed {
            return Err(conn);
        }
        inner.queue.push_back(conn);
        stats.ready_depth_add(1);
        drop(inner);
        self.cv.notify_one();
        Ok(())
    }

    /// Blocks for the next ready connection; `None` once the queue is
    /// closed and drained — the worker's signal to exit.
    pub fn pop(&self, stats: &ServiceStats) -> Option<Arc<Conn>> {
        let mut inner = self.lock();
        loop {
            if let Some(conn) = inner.queue.pop_front() {
                stats.ready_depth_sub(1);
                return Some(conn);
            }
            if inner.closed {
                return None;
            }
            inner = self.cv.wait(inner).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Closes the queue, waking every blocked worker, and returns the
    /// connections nobody will serve so the caller can dispose of them.
    fn close(&self, stats: &ServiceStats) -> Vec<Arc<Conn>> {
        let mut inner = self.lock();
        inner.closed = true;
        let drained: Vec<Arc<Conn>> = inner.queue.drain(..).collect();
        stats.ready_depth_sub(drained.len() as u64);
        drop(inner);
        self.cv.notify_all();
        drained
    }
}

/// State shared by the reactor, the workers and the service handle.
pub(crate) struct Shared {
    pub stop: AtomicBool,
    pub waker: Waker,
    /// Worker → reactor command queue; every push is followed by a wake.
    commands: Mutex<Vec<Command>>,
    pub ready: ReadyQueue,
    /// Live-connection count behind `max_connections`.
    pub conns_live: Arc<AtomicUsize>,
    pub stats: Arc<ServiceStats>,
}

impl Shared {
    pub fn new(stats: Arc<ServiceStats>) -> std::io::Result<Self> {
        Ok(Self {
            stop: AtomicBool::new(false),
            waker: Waker::new()?,
            commands: Mutex::new(Vec::new()),
            ready: ReadyQueue::new(),
            conns_live: Arc::new(AtomicUsize::new(0)),
            stats,
        })
    }

    pub fn stopping(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    /// Raises the stop flag and wakes the reactor so it notices now, not
    /// at its next timeout.
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
        self.waker.wake();
    }

    /// Hands a connection back to the reactor.
    pub fn send(&self, cmd: Command) {
        self.commands.lock().push(cmd);
        self.waker.wake();
    }

    fn take_commands(&self) -> Vec<Command> {
        std::mem::take(&mut *self.commands.lock())
    }
}

struct ConnEntry {
    conn: Arc<Conn>,
    /// Parked (armed in epoll) vs checked out to the worker side.
    armed: bool,
    /// Bumped on every arm/disarm; deadline-heap entries carry the value
    /// at push time and are ignored once it moves on.
    seq: u64,
}

/// The reactor thread body. Owns the listener, the epoll set, the
/// registry and the deadline heap; everything else reaches it through
/// [`Shared`].
pub(crate) struct Reactor {
    epoll: Epoll,
    listener: TcpListener,
    shared: Arc<Shared>,
    max_connections: usize,
    max_frame: u32,
    handshake_timeout: Duration,
    conns: HashMap<u64, ConnEntry>,
    /// Min-heap of `(deadline, token, seq)`.
    deadlines: BinaryHeap<Reverse<(Instant, u64, u64)>>,
    next_token: u64,
    events: Vec<EpollEvent>,
}

/// Readiness mask for a parked connection: the requested interest plus
/// peer-hangup, edge-triggered, auto-disarming.
fn conn_mask(interest: Interest) -> u32 {
    let base = match interest {
        Interest::Read => EPOLLIN,
        Interest::Write => EPOLLOUT,
    };
    base | EPOLLRDHUP | EPOLLET | EPOLLONESHOT
}

impl Reactor {
    pub fn new(
        listener: TcpListener,
        shared: Arc<Shared>,
        max_connections: usize,
        max_frame: u32,
        handshake_timeout: Duration,
    ) -> std::io::Result<Self> {
        let epoll = Epoll::new()?;
        // Listener and waker stay level-triggered: both are drained on
        // every wake, and level semantics mean a burst larger than one
        // drain pass is simply re-reported.
        epoll.add(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)?;
        epoll.add(shared.waker.raw_fd(), EPOLLIN, TOKEN_WAKER)?;
        Ok(Self {
            epoll,
            listener,
            shared,
            max_connections,
            max_frame,
            handshake_timeout,
            conns: HashMap::new(),
            deadlines: BinaryHeap::new(),
            next_token: TOKEN_FIRST_CONN,
            events: Vec::with_capacity(256),
        })
    }

    pub fn run(mut self) {
        while !self.shared.stopping() {
            let timeout = self.next_timeout();
            if self.epoll.wait(&mut self.events, timeout).is_err() {
                break; // unrecoverable epoll failure: fall through to shutdown
            }
            // Copy the (token, mask) pairs out so dispatch can borrow
            // `self` mutably (the event struct is packed on x86-64, so
            // fields are read by value).
            let fired: Vec<u64> = self.events.iter().map(|ev| ev.data).collect();
            for token in fired {
                match token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKER => self.shared.waker.drain(),
                    token => self.dispatch(token),
                }
            }
            for cmd in self.shared.take_commands() {
                self.apply(cmd);
            }
            self.expire(Instant::now());
            self.maybe_shrink_heap();
        }
        self.shutdown();
    }

    /// Sleep until the earliest (possibly stale — then the wake is just
    /// early) deadline; forever when none is pending, since every other
    /// wake-up source goes through the eventfd.
    fn next_timeout(&self) -> Option<Duration> {
        let Reverse((at, _, _)) = self.deadlines.peek()?;
        Some(at.saturating_duration_since(Instant::now()))
    }

    /// Accepts until the listener would block.
    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => self.admit(stream),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Transient accept failure (EMFILE under fd pressure,
                    // aborted handshake). The listener is level-triggered
                    // so the pending backlog re-reports immediately; the
                    // short sleep keeps that from becoming a hot spin.
                    std::thread::sleep(Duration::from_millis(5));
                    break;
                }
            }
        }
    }

    fn admit(&mut self, stream: TcpStream) {
        // Live-connection cap: shed at accept time, like the pre-reactor
        // server did.
        if self.shared.conns_live.load(Ordering::Relaxed) >= self.max_connections {
            drop(stream);
            return;
        }
        if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
            return;
        }
        let token = self.next_token;
        self.next_token += 1;
        let handshake_deadline = deadline_after(self.handshake_timeout);
        self.shared.conns_live.fetch_add(1, Ordering::Relaxed);
        let conn = Arc::new(Conn {
            token,
            stream,
            state: Mutex::new(ConnState {
                assembler: FrameAssembler::new(self.max_frame),
                write_buf: Vec::new(),
                write_pos: 0,
                ready: false,
                closing: false,
                handshake_deadline,
                partial_since: None,
                write_since: None,
            }),
            live: Arc::clone(&self.shared.conns_live),
        });
        if self.epoll.add(conn.stream.as_raw_fd(), conn_mask(Interest::Read), token).is_err() {
            return; // conn drops, gauge self-corrects
        }
        self.conns.insert(token, ConnEntry { conn, armed: true, seq: 0 });
        self.deadlines.push(Reverse((handshake_deadline, token, 0)));
        self.shared.stats.conns_parked_add(1);
    }

    /// One readiness event for a parked connection: check it out to the
    /// worker side. The kernel has already disarmed it (`EPOLLONESHOT`).
    fn dispatch(&mut self, token: u64) {
        let Some(entry) = self.conns.get_mut(&token) else {
            return; // raced with a close; nothing to do
        };
        if !entry.armed {
            return; // defensive: ONESHOT should make this unreachable
        }
        entry.armed = false;
        entry.seq += 1;
        let conn = Arc::clone(&entry.conn);
        let stats = Arc::clone(&self.shared.stats);
        stats.conns_parked_sub(1);
        stats.conns_active_add(1);
        if self.shared.ready.push(conn, &stats).is_err() {
            // Queue already closed for shutdown: dispose here.
            stats.conns_active_sub(1);
            self.close_token(token);
        }
    }

    fn apply(&mut self, cmd: Command) {
        match cmd {
            Command::Rearm { conn, interest, deadline } => {
                let token = conn.token;
                let Some(entry) = self.conns.get_mut(&token) else {
                    // Closed underneath the worker (service shutdown);
                    // dropping `conn` here closes the fd after the DEL
                    // that already happened.
                    self.shared.stats.conns_active_sub(1);
                    return;
                };
                let fd = conn.stream.as_raw_fd();
                if self.epoll.modify(fd, conn_mask(interest), token).is_err() {
                    self.shared.stats.conns_active_sub(1);
                    self.close_token(token);
                    return;
                }
                entry.armed = true;
                entry.seq += 1;
                let seq = entry.seq;
                self.deadlines.push(Reverse((deadline, token, seq)));
                self.shared.stats.conns_active_sub(1);
                self.shared.stats.conns_parked_add(1);
            }
            Command::Close { conn } => {
                self.shared.stats.conns_active_sub(1);
                self.close_token(conn.token);
                // `conn` drops here, on the reactor thread, after the
                // DEL inside close_token — fd-reuse safe.
            }
        }
    }

    /// Deregisters and forgets a connection. The fd itself closes when
    /// the last `Arc<Conn>` drops — for a parked connection that is the
    /// registry reference right now, on this thread, after the DEL.
    fn close_token(&mut self, token: u64) {
        if let Some(entry) = self.conns.remove(&token) {
            let _ = self.epoll.delete(entry.conn.stream.as_raw_fd());
        }
    }

    /// Closes every parked connection whose deadline has passed. Checked
    /// out connections are exempt: their fate belongs to the worker
    /// holding them, and their heap entries are stale by `seq`.
    fn expire(&mut self, now: Instant) {
        while let Some(Reverse((at, token, seq))) = self.deadlines.peek().copied() {
            if at > now {
                break;
            }
            self.deadlines.pop();
            let Some(entry) = self.conns.get(&token) else {
                continue;
            };
            if !entry.armed || entry.seq != seq {
                continue; // stale entry from an earlier arm
            }
            self.shared.stats.conns_parked_sub(1);
            self.close_token(token);
        }
    }

    /// Keeps the lazily-invalidated heap from accumulating unboundedly
    /// under high rearm traffic: when stale entries dominate, rebuild
    /// with only the entries that still match a live armed connection.
    fn maybe_shrink_heap(&mut self) {
        if self.deadlines.len() < 1024 || self.deadlines.len() < 8 * self.conns.len() {
            return;
        }
        let conns = &self.conns;
        self.deadlines = self
            .deadlines
            .drain()
            .filter(|Reverse((_, token, seq))| {
                conns.get(token).is_some_and(|e| e.armed && e.seq == *seq)
            })
            .collect();
    }

    /// Service shutdown: stop accepting, release the workers, close
    /// every connection this thread still owns.
    fn shutdown(mut self) {
        // Drop the listener registration first so no new connection
        // arrives while tearing down.
        let _ = self.epoll.delete(self.listener.as_raw_fd());
        // Release every worker blocked on the queue; connections nobody
        // will serve are disposed of here.
        for conn in self.shared.ready.close(&self.shared.stats) {
            self.shared.stats.conns_active_sub(1);
            self.close_token(conn.token);
        }
        // Remaining parked connections: deregister and drop. Checked-out
        // ones stay with their worker until its final Command, which
        // nobody processes — their fds close when the command queue is
        // dropped with `Shared`, after every thread has exited.
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            if let Some(entry) = self.conns.get(&token) {
                if entry.armed {
                    self.shared.stats.conns_parked_sub(1);
                }
            }
            self.close_token(token);
        }
    }
}

/// `now + d`, saturating far into the future instead of panicking when a
/// caller configures an effectively-infinite timeout.
pub(crate) fn deadline_after(d: Duration) -> Instant {
    let now = Instant::now();
    now.checked_add(d).unwrap_or_else(|| now + Duration::from_secs(365 * 24 * 3600))
}
