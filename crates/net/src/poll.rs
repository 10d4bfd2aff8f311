//! Minimal readiness-polling shim for the event-loop server.
//!
//! Offline stand-in for the `mio` crate (consistent with the
//! `crates/vendor/` approach): a [`Poller`] multiplexes socket readiness
//! through `epoll(7)` on Linux — `epoll_create1`/`epoll_ctl`/`epoll_wait`
//! via thin hand-written FFI, no `libc` dependency — with a `poll(2)`
//! backend compiled on every Unix: the only path off Linux and the
//! fallback when `epoll_create1` fails (it rebuilds its pollfd array per
//! wait, O(fds); epoll is the production path). Nothing selects between
//! them at run time; the unit tests below drive both.
//!
//! Level-triggered semantics throughout: an fd keeps reporting readiness
//! until drained, so the server may stop reading (backpressure) and resume
//! later without missing data. A [`Waker`] — the write end of a
//! non-blocking pipe whose read end lives in the poll set — lets engine
//! worker threads and `ServerHandle::shutdown` interrupt a blocked wait.
//! [`TimerHeap`] provides the loop's deadline source: a binary heap with
//! lazy cancellation (stale entries are skipped when popped), which is all
//! the "timer wheel" the connection count here needs.

use std::collections::BinaryHeap;
use std::io;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Readiness interest for one registered fd.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable (or the peer hung up).
    pub readable: bool,
    /// Wake when the fd is writable.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Write-only interest.
    pub const WRITE: Interest = Interest {
        readable: false,
        writable: true,
    };
    /// Read + write interest.
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };
}

/// One readiness event out of [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered under.
    pub token: u64,
    /// Readable (includes peer hang-up and errors: a read will not block).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
}

mod sys {
    //! Hand-written syscall bindings (no `libc` crate offline). Constants
    //! are the asm-generic Linux values, correct on x86_64 and aarch64;
    //! the non-Linux branch uses the BSD/macOS values.
    #![allow(non_camel_case_types)]

    use std::ffi::{c_int, c_short, c_uint, c_ulong, c_void};

    pub type nfds_t = c_ulong;

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct pollfd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    pub const POLLIN: c_short = 0x001;
    pub const POLLOUT: c_short = 0x004;
    pub const POLLERR: c_short = 0x008;
    pub const POLLHUP: c_short = 0x010;

    #[cfg(target_os = "linux")]
    pub mod epoll {
        use std::ffi::c_int;

        // x86_64 wants the event struct packed; other Linux targets use
        // natural alignment. Matching the kernel ABI exactly matters here.
        #[cfg(target_arch = "x86_64")]
        #[repr(C, packed)]
        #[derive(Clone, Copy)]
        pub struct epoll_event {
            pub events: u32,
            pub data: u64,
        }
        #[cfg(not(target_arch = "x86_64"))]
        #[repr(C)]
        #[derive(Clone, Copy)]
        pub struct epoll_event {
            pub events: u32,
            pub data: u64,
        }

        pub const EPOLL_CLOEXEC: c_int = 0o2000000;
        pub const EPOLL_CTL_ADD: c_int = 1;
        pub const EPOLL_CTL_DEL: c_int = 2;
        pub const EPOLL_CTL_MOD: c_int = 3;
        pub const EPOLLIN: u32 = 0x001;
        pub const EPOLLOUT: u32 = 0x004;
        pub const EPOLLERR: u32 = 0x008;
        pub const EPOLLHUP: u32 = 0x010;
        pub const EPOLLRDHUP: u32 = 0x2000;

        extern "C" {
            pub fn epoll_create1(flags: c_int) -> c_int;
            pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut epoll_event) -> c_int;
            pub fn epoll_wait(
                epfd: c_int,
                events: *mut epoll_event,
                maxevents: c_int,
                timeout: c_int,
            ) -> c_int;
        }

        extern "C" {
            fn close(fd: c_int) -> c_int;
        }
        /// Close the epoll fd (kept raw: it is not a socket and never
        /// escapes the poller).
        pub fn close_fd(fd: c_int) {
            unsafe {
                close(fd);
            }
        }
    }

    pub const F_GETFL: c_int = 3;
    pub const F_SETFL: c_int = 4;
    #[cfg(target_os = "linux")]
    pub const O_NONBLOCK: c_int = 0o4000;
    #[cfg(not(target_os = "linux"))]
    pub const O_NONBLOCK: c_int = 0x0004;

    #[cfg(target_os = "linux")]
    pub const SOL_SOCKET: c_int = 1;
    #[cfg(target_os = "linux")]
    pub const SO_SNDBUF: c_int = 7;
    #[cfg(target_os = "linux")]
    pub const SO_RCVBUF: c_int = 8;
    #[cfg(not(target_os = "linux"))]
    pub const SOL_SOCKET: c_int = 0xffff;
    #[cfg(not(target_os = "linux"))]
    pub const SO_SNDBUF: c_int = 0x1001;
    #[cfg(not(target_os = "linux"))]
    pub const SO_RCVBUF: c_int = 0x1002;

    extern "C" {
        pub fn poll(fds: *mut pollfd, nfds: nfds_t, timeout: c_int) -> c_int;
        pub fn pipe(fds: *mut c_int) -> c_int;
        pub fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
        pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        pub fn setsockopt(
            fd: c_int,
            level: c_int,
            optname: c_int,
            optval: *const c_void,
            optlen: c_uint,
        ) -> c_int;
    }
}

fn last_os_error() -> io::Error {
    io::Error::last_os_error()
}

fn set_nonblocking_fd(fd: RawFd) -> io::Result<()> {
    unsafe {
        let flags = sys::fcntl(fd, sys::F_GETFL, 0);
        if flags < 0 {
            return Err(last_os_error());
        }
        if sys::fcntl(fd, sys::F_SETFL, flags | sys::O_NONBLOCK) < 0 {
            return Err(last_os_error());
        }
    }
    Ok(())
}

/// Pin a socket's kernel buffer (`SO_SNDBUF`/`SO_RCVBUF`). Pinning disables
/// kernel autotuning for that socket, which makes backpressure deterministic
/// — the slow-reader chaos test relies on this to fill buffers quickly.
fn set_socket_buffer(fd: RawFd, opt: std::ffi::c_int, bytes: usize) -> io::Result<()> {
    let val: std::ffi::c_int = bytes.min(i32::MAX as usize) as std::ffi::c_int;
    let rc = unsafe {
        sys::setsockopt(
            fd,
            sys::SOL_SOCKET,
            opt,
            (&val as *const std::ffi::c_int).cast(),
            std::mem::size_of::<std::ffi::c_int>() as std::ffi::c_uint,
        )
    };
    if rc < 0 {
        return Err(last_os_error());
    }
    Ok(())
}

/// Pin a socket's kernel send buffer to roughly `bytes` (the kernel may
/// round; Linux doubles the value for bookkeeping).
pub fn set_send_buffer(socket: &impl AsRawFd, bytes: usize) -> io::Result<()> {
    set_socket_buffer(socket.as_raw_fd(), sys::SO_SNDBUF, bytes)
}

/// Pin a socket's kernel receive buffer to roughly `bytes`.
pub fn set_recv_buffer(socket: &impl AsRawFd, bytes: usize) -> io::Result<()> {
    set_socket_buffer(socket.as_raw_fd(), sys::SO_RCVBUF, bytes)
}

/// Wakes a [`Poller`] blocked in [`Poller::wait`] from any thread.
///
/// Cloneable and cheap: a wake writes one byte into a non-blocking pipe
/// whose read end sits in the poll set. A full pipe means a wake is already
/// pending, so `EAGAIN` (and `EPIPE` after the poller is gone) are ignored.
#[derive(Clone)]
pub struct Waker {
    write_end: Arc<OwnedFd>,
}

impl Waker {
    /// Interrupt the poller's wait (idempotent, never blocks).
    pub fn wake(&self) {
        let byte = 1u8;
        unsafe {
            // Errors are deliberately ignored: EAGAIN = a wake is already
            // queued; EPIPE/EBADF = the loop is gone and nobody is waiting.
            sys::write(self.write_end.as_raw_fd(), (&byte as *const u8).cast(), 1);
        }
    }
}

/// The token [`Poller::wait`] reports when the [`Waker`] fired. Reserved:
/// user registrations must not use it.
pub const WAKE_TOKEN: u64 = u64::MAX;

enum Backend {
    #[cfg(target_os = "linux")]
    Epoll { epfd: std::ffi::c_int },
    Poll {
        // token + interest per fd, rebuilt into a pollfd array each wait.
        registered: Vec<(RawFd, u64, Interest)>,
    },
}

impl Backend {
    fn poll() -> Self {
        Backend::Poll {
            registered: Vec::new(),
        }
    }

    /// `None` when the kernel has no epoll (ancient kernel / exotic
    /// sandbox).
    #[cfg(target_os = "linux")]
    fn epoll() -> Option<Self> {
        let epfd = unsafe { sys::epoll::epoll_create1(sys::epoll::EPOLL_CLOEXEC) };
        (epfd >= 0).then_some(Backend::Epoll { epfd })
    }
}

impl Drop for Backend {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        if let Backend::Epoll { epfd } = self {
            sys::epoll::close_fd(*epfd);
        }
    }
}

/// A readiness multiplexer over nonblocking fds (see module docs).
pub struct Poller {
    backend: Backend,
    wake_read: OwnedFd,
    waker: Waker,
}

impl Poller {
    /// Create a poller with its wake pipe already registered under
    /// [`WAKE_TOKEN`]: epoll on Linux (`poll(2)` if it is unavailable),
    /// `poll(2)` elsewhere.
    pub fn new() -> io::Result<Self> {
        #[cfg(target_os = "linux")]
        let backend = Backend::epoll().unwrap_or_else(Backend::poll);
        #[cfg(not(target_os = "linux"))]
        let backend = Backend::poll();
        Self::with_backend(backend)
    }

    fn with_backend(backend: Backend) -> io::Result<Self> {
        let mut fds = [0 as std::ffi::c_int; 2];
        if unsafe { sys::pipe(fds.as_mut_ptr()) } < 0 {
            return Err(last_os_error());
        }
        let (wake_read, wake_write) =
            unsafe { (OwnedFd::from_raw_fd(fds[0]), OwnedFd::from_raw_fd(fds[1])) };
        set_nonblocking_fd(wake_read.as_raw_fd())?;
        set_nonblocking_fd(wake_write.as_raw_fd())?;

        let mut poller = Poller {
            backend,
            wake_read,
            waker: Waker {
                write_end: Arc::new(wake_write),
            },
        };
        let wake_fd = poller.wake_read.as_raw_fd();
        poller.register(wake_fd, WAKE_TOKEN, Interest::READ)?;
        Ok(poller)
    }

    /// A handle that can interrupt [`Poller::wait`] from any thread.
    pub fn waker(&self) -> Waker {
        self.waker.clone()
    }

    #[cfg(target_os = "linux")]
    fn epoll_mask(interest: Interest) -> u32 {
        use sys::epoll::*;
        let mut mask = EPOLLRDHUP;
        if interest.readable {
            mask |= EPOLLIN;
        }
        if interest.writable {
            mask |= EPOLLOUT;
        }
        mask
    }

    #[cfg(target_os = "linux")]
    fn epoll_ctl(
        epfd: std::ffi::c_int,
        op: std::ffi::c_int,
        fd: RawFd,
        token: u64,
        interest: Interest,
    ) -> io::Result<()> {
        let mut ev = sys::epoll::epoll_event {
            events: Self::epoll_mask(interest),
            data: token,
        };
        let rc = unsafe { sys::epoll::epoll_ctl(epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(last_os_error());
        }
        Ok(())
    }

    /// Add `fd` to the poll set. The fd must stay valid until
    /// [`Poller::deregister`]; `token` comes back in every event for it.
    pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { epfd } => {
                Self::epoll_ctl(*epfd, sys::epoll::EPOLL_CTL_ADD, fd, token, interest)
            }
            Backend::Poll { registered } => {
                registered.push((fd, token, interest));
                Ok(())
            }
        }
    }

    /// Change the interest set of a registered fd.
    pub fn reregister(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { epfd } => {
                Self::epoll_ctl(*epfd, sys::epoll::EPOLL_CTL_MOD, fd, token, interest)
            }
            Backend::Poll { registered } => {
                for entry in registered.iter_mut() {
                    if entry.0 == fd {
                        entry.1 = token;
                        entry.2 = interest;
                        return Ok(());
                    }
                }
                Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"))
            }
        }
    }

    /// Remove an fd from the poll set (call before closing the fd).
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { epfd } => {
                Self::epoll_ctl(*epfd, sys::epoll::EPOLL_CTL_DEL, fd, 0, Interest::READ)
            }
            Backend::Poll { registered } => {
                registered.retain(|entry| entry.0 != fd);
                Ok(())
            }
        }
    }

    /// Block until readiness, timeout, or a wake. Fills `events` (cleared
    /// first). A [`WAKE_TOKEN`] event means [`Waker::wake`] fired; the wake
    /// pipe is drained here, so one event may coalesce many wakes.
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        events.clear();
        let timeout_ms: std::ffi::c_int = match timeout {
            None => -1,
            Some(d) => {
                // Round up so a 1ns-away deadline does not busy-spin.
                let ms = d.as_millis().min(i32::MAX as u128) as i64;
                let rounded = if d.subsec_nanos() % 1_000_000 != 0 {
                    ms + 1
                } else {
                    ms
                };
                rounded.min(i32::MAX as i64) as std::ffi::c_int
            }
        };
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { epfd } => {
                let mut buf = [sys::epoll::epoll_event { events: 0, data: 0 }; 128];
                let n = loop {
                    let rc = unsafe {
                        sys::epoll::epoll_wait(
                            *epfd,
                            buf.as_mut_ptr(),
                            buf.len() as i32,
                            timeout_ms,
                        )
                    };
                    if rc >= 0 {
                        break rc as usize;
                    }
                    let err = last_os_error();
                    if err.kind() != io::ErrorKind::Interrupted {
                        return Err(err);
                    }
                };
                for ev in &buf[..n] {
                    use sys::epoll::*;
                    let bits = ev.events;
                    let token = ev.data;
                    events.push(Event {
                        token,
                        readable: bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0,
                        writable: bits & (EPOLLOUT | EPOLLHUP | EPOLLERR) != 0,
                    });
                }
            }
            Backend::Poll { registered } => {
                let mut fds: Vec<sys::pollfd> = registered
                    .iter()
                    .map(|&(fd, _, interest)| sys::pollfd {
                        fd,
                        events: {
                            let mut e = 0;
                            if interest.readable {
                                e |= sys::POLLIN;
                            }
                            if interest.writable {
                                e |= sys::POLLOUT;
                            }
                            e
                        },
                        revents: 0,
                    })
                    .collect();
                let n = loop {
                    let rc = unsafe {
                        sys::poll(fds.as_mut_ptr(), fds.len() as sys::nfds_t, timeout_ms)
                    };
                    if rc >= 0 {
                        break rc as usize;
                    }
                    let err = last_os_error();
                    if err.kind() != io::ErrorKind::Interrupted {
                        return Err(err);
                    }
                };
                if n > 0 {
                    for (slot, &(_, token, _)) in fds.iter().zip(registered.iter()) {
                        let bits = slot.revents;
                        if bits == 0 {
                            continue;
                        }
                        events.push(Event {
                            token,
                            readable: bits & (sys::POLLIN | sys::POLLHUP | sys::POLLERR) != 0,
                            writable: bits & (sys::POLLOUT | sys::POLLHUP | sys::POLLERR) != 0,
                        });
                    }
                }
            }
        }
        // Drain the wake pipe so level-triggered polling does not re-fire
        // forever; the WAKE_TOKEN event itself is passed through.
        if events.iter().any(|e| e.token == WAKE_TOKEN) {
            let mut buf = [0u8; 64];
            loop {
                let n = unsafe {
                    sys::read(
                        self.wake_read.as_raw_fd(),
                        buf.as_mut_ptr().cast(),
                        buf.len(),
                    )
                };
                if n <= 0 {
                    break;
                }
                if (n as usize) < buf.len() {
                    break;
                }
            }
        }
        Ok(())
    }
}

/// Deadline source for the event loop: a min-heap of `(Instant, token)`
/// entries with **lazy cancellation** — the owner of a token re-checks its
/// real deadline when an entry pops and simply ignores stale ones, so
/// rescheduling never needs to find-and-remove.
#[derive(Default)]
pub struct TimerHeap {
    heap: BinaryHeap<std::cmp::Reverse<(Instant, u64)>>,
}

impl TimerHeap {
    /// New empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `token` to pop at `at`. Duplicate entries per token are
    /// fine (lazy cancellation absorbs them).
    pub fn schedule(&mut self, at: Instant, token: u64) {
        self.heap.push(std::cmp::Reverse((at, token)));
    }

    /// The earliest scheduled instant, if any.
    pub fn next_deadline(&self) -> Option<Instant> {
        self.heap.peek().map(|e| e.0 .0)
    }

    /// Pop the next entry due at or before `now`.
    pub fn pop_due(&mut self, now: Instant) -> Option<(Instant, u64)> {
        if self.heap.peek().is_some_and(|e| e.0 .0 <= now) {
            self.heap.pop().map(|e| e.0)
        } else {
            None
        }
    }

    /// Entries currently in the heap (stale ones included).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the heap holds no entries at all.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::{TcpListener, TcpStream};

    /// One poller per backend this platform compiles, so the `poll(2)`
    /// path is exercised on Linux too.
    fn pollers() -> Vec<Poller> {
        let mut backends = vec![Backend::poll()];
        #[cfg(target_os = "linux")]
        backends.push(Backend::epoll().expect("epoll is available on the test host"));
        backends
            .into_iter()
            .map(|backend| Poller::with_backend(backend).unwrap())
            .collect()
    }

    #[test]
    fn waker_interrupts_a_blocked_wait() {
        pollers().into_iter().for_each(waker_interrupts);
    }

    fn waker_interrupts(mut poller: Poller) {
        let waker = poller.waker();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            waker.wake();
            waker.wake(); // coalesces
        });
        let mut events = Vec::new();
        let start = Instant::now();
        poller
            .wait(&mut events, Some(Duration::from_secs(10)))
            .unwrap();
        assert!(start.elapsed() < Duration::from_secs(5));
        assert!(events.iter().any(|e| e.token == WAKE_TOKEN));
        handle.join().unwrap();
        // Drained: the next wait times out instead of re-firing.
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.iter().all(|e| e.token != WAKE_TOKEN));
    }

    #[test]
    fn socket_readiness_round_trip() {
        pollers().into_iter().for_each(readiness_round_trip);
    }

    fn readiness_round_trip(mut poller: Poller) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        poller
            .register(server.as_raw_fd(), 7, Interest::READ)
            .unwrap();
        let mut events = Vec::new();
        // Nothing to read yet.
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(events.iter().all(|e| e.token != 7));

        client.write_all(b"hi").unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));

        // Level-triggered: readiness persists until drained.
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));
        let mut buf = [0u8; 8];
        let n = (&server).read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"hi");

        // Write interest on an idle socket fires immediately.
        poller
            .reregister(server.as_raw_fd(), 7, Interest::BOTH)
            .unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.writable));

        poller.deregister(server.as_raw_fd()).unwrap();
        client.write_all(b"again").unwrap();
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(events.iter().all(|e| e.token != 7));
    }

    #[test]
    fn peer_hangup_reports_readable() {
        pollers().into_iter().for_each(hangup_reports_readable);
    }

    fn hangup_reports_readable(mut poller: Poller) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        poller
            .register(server.as_raw_fd(), 3, Interest::READ)
            .unwrap();
        drop(client);
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 3 && e.readable));
    }

    #[test]
    fn timer_heap_orders_and_lazily_cancels() {
        let mut heap = TimerHeap::new();
        let base = Instant::now();
        heap.schedule(base + Duration::from_millis(30), 2);
        heap.schedule(base + Duration::from_millis(10), 1);
        heap.schedule(base + Duration::from_millis(20), 1); // stale duplicate
        assert_eq!(heap.next_deadline(), Some(base + Duration::from_millis(10)));
        assert!(heap.pop_due(base).is_none());
        let now = base + Duration::from_millis(25);
        assert_eq!(heap.pop_due(now).map(|e| e.1), Some(1));
        assert_eq!(heap.pop_due(now).map(|e| e.1), Some(1));
        assert!(heap.pop_due(now).is_none());
        assert_eq!(heap.len(), 1);
        assert!(!heap.is_empty());
    }
}
