//! The event-driven serving front end: a pool of reactor threads, each
//! multiplexing a share of the client connections over its own epoll
//! instance (`pfr-net`), so an idle client costs a few hundred bytes of
//! buffer state instead of an OS thread and accept/parse work scales
//! across cores.
//!
//! ```text
//!                    ┌────────────────────── reactor thread ──┐ × N
//! clients ──epoll──► │ accept / LineConn fill / parse         │
//!                    │  inline: cache hit, METRICS, HEALTH,   │──► replies
//!                    │          EPOCH, parse errors, QUIT     │
//!                    │  async:  SCORE miss ► MicroBatcher ┐   │
//!                    │          TRANSFORM/LOAD/PUSH ► pool │ │
//!                    └──────────▲───────────────────────────┼─┘
//!                               │ eventfd wake + completion │
//!                               └──────────────────────────-┘
//! ```
//!
//! **Accept hand-off.** Every reactor registers its own (level-triggered)
//! clone of the shared listener and calls `accept` when epoll reports a
//! non-empty backlog; the kernel hands each queued connection to exactly
//! one of the concurrent accepters, so connections distribute across the
//! pool without a dispatcher thread or cross-reactor queues. Once
//! accepted, a connection lives and dies on that reactor — no state is
//! ever shared between event loops except the process-wide connection
//! count and the (already thread-safe) cache/batcher/registry.
//!
//! **Shedding.** With a connection limit configured, a connection accepted
//! while the pool is full is answered with one [`protocol::BUSY`] line and
//! closed immediately — the routing tier treats `BUSY` as "walk on to the
//! next replica", so shedding degrades capacity, never correctness. The
//! live count is a process-wide atomic; concurrent reactors may briefly
//! overshoot the limit by at most the pool width, which is the accepted
//! cost of keeping the admission check lock-free.
//!
//! **One verb path.** Every verb that answers on the reactor thread goes
//! through `answer_inline` (in-flight gauge, handler, latency record,
//! ordered emit), and every verb bound for the worker pool through
//! `offload`; only `SCORE` keeps its own path, because its cache hit and
//! batcher hand-off are the hot path.
//!
//! Work that can block (scoring, transforms, disk loads) never runs on the
//! reactor: it is submitted to the existing micro-batcher/worker pool with
//! a [`NetSink`] that records a completion and rings the reactor's eventfd.
//! Because completions finish out of order while the protocol promises
//! in-order responses per connection, each connection carries a sequence
//! counter and a reorder buffer: responses are emitted strictly in request
//! order, which is what keeps pipelined clients correct and pools of
//! every width bitwise interchangeable.
//!
//! Backpressure: a connection whose unsent output exceeds the high
//! watermark stops being **read** (and therefore parsed) until the peer
//! drains its socket — its bytes back up into the kernel buffers and TCP
//! flow control throttles the sender, so a client that pipelines requests
//! without reading responses cannot balloon server memory.

use crate::cache::ScoreKey;
use crate::error::ServeError;
use crate::protocol::{self, Request};
use crate::server::{self, ServeContext};
use crate::stats::VerbStats;
use crate::Result;
use pfr_journal::Record;
use pfr_net::poller::{Event, Interest, Poller, Waker};
use pfr_net::stats::LoopStats;
use pfr_net::wheel::DeadlineWheel;
use pfr_net::{Frame, LineConn};
use pfr_obs::{ActiveSpan, SpanRing};
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const WAKER_TOKEN: u64 = 0;
const LISTENER_TOKEN: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// How long a reactor stops accepting after a resource-exhaustion accept
/// error (EMFILE and friends) before re-registering its listener. Long
/// enough for fds to free up, short enough that a healthy backlog is not
/// visibly stalled.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);

/// Stop parsing new requests for a connection holding this many unsent
/// response bytes; parsing resumes once the peer drains below it.
const HIGH_WATER: usize = 256 * 1024;

/// Longest tolerated request line (a SCORE with thousands of features fits
/// comfortably; an unbounded line is a protocol violation).
const MAX_LINE: usize = 1 << 20;

/// Which verb an asynchronous completion belongs to (for stats routing).
#[derive(Debug, Clone, Copy)]
enum AsyncVerb {
    Score,
    Transform,
    Load,
}

/// What a worker finished for connection `token`, request `seq`.
pub(crate) struct Completion {
    token: u64,
    seq: u64,
    outcome: Outcome,
}

enum Outcome {
    /// A batched score (the reactor renders the payload with the threshold
    /// captured at parse time and inserts the cache entry).
    Score(Result<f64>),
    /// A fully rendered payload (TRANSFORM / LOAD).
    Text(Result<String>),
}

/// The reply-side handle given to the batcher / worker pool: sends one
/// completion and rings the reactor awake. One sink, one send.
pub(crate) struct NetSink {
    completions: Sender<Completion>,
    waker: Arc<Waker>,
    token: u64,
    seq: u64,
}

impl NetSink {
    pub(crate) fn send_score(self, result: Result<f64>) {
        self.send(Outcome::Score(result));
    }

    fn send_text(self, result: Result<String>) {
        self.send(Outcome::Text(result));
    }

    fn send(self, outcome: Outcome) {
        let _ = self.completions.send(Completion {
            token: self.token,
            seq: self.seq,
            outcome,
        });
        let _ = self.waker.wake();
    }
}

/// Metadata the reactor keeps per in-flight asynchronous request.
struct PendingMeta {
    verb: AsyncVerb,
    start: Instant,
    /// Captured at parse time so a hot swap mid-request keeps the
    /// threshold consistent with the scoring model.
    threshold: f64,
    key: Option<ScoreKey>,
    /// The request's trace span, when traced. Events accrue on the
    /// reactor thread only (dispatch and completion), so the span never
    /// crosses into the batcher or worker pool.
    span: Option<ActiveSpan>,
    /// Wire trace token to echo on the response. `None` for untraced and
    /// server-sampled requests — either way the response bytes carry no
    /// token, preserving front-end interchangeability.
    trace: Option<u64>,
}

/// A `PUSH` header parsed mid-connection: the response is owed at `seq`
/// once the counted payload arrives.
struct PendingPush {
    seq: u64,
    name: String,
    trace: Option<u64>,
    span: Option<ActiveSpan>,
}

/// A counted-payload header parsed mid-connection; the connection is in
/// payload mode until the announced bytes arrive, and the response is
/// owed at the recorded seq.
enum PendingPayload {
    /// `PUSH <name> <nbytes>`: install the bundle on the worker pool.
    Push(PendingPush),
    /// `SYNC <nbytes>`: merge the offered placement catalog inline (the
    /// catalog is a control-plane-sized value; parsing it costs less
    /// than a pool round trip).
    Sync {
        /// Sequence number the response is owed at.
        seq: u64,
    },
}

/// Per-connection reactor state.
struct ClientConn {
    stream: TcpStream,
    line: LineConn,
    /// Next sequence number to assign to a parsed request.
    next_seq: u64,
    /// Next sequence number whose response may be emitted.
    next_write: u64,
    /// Out-of-order completions waiting for their turn.
    ready: BTreeMap<u64, String>,
    /// In-flight asynchronous requests.
    pending: HashMap<u64, PendingMeta>,
    /// A counted-payload header (`PUSH`/`SYNC`) was parsed; the
    /// connection is in payload mode until the counted bytes arrive.
    pending_payload: Option<PendingPayload>,
    /// `QUIT` was parsed at this seq: stop parsing, close once emitted.
    quit_at: Option<u64>,
    /// The peer half-closed; finish in-flight work, flush, then close.
    read_closed: bool,
    /// A readable edge arrived but was not yet drained (reads pause while
    /// the output backlog is above the high watermark).
    want_read: bool,
}

impl ClientConn {
    fn new(stream: TcpStream) -> ClientConn {
        ClientConn {
            stream,
            line: LineConn::new(MAX_LINE),
            next_seq: 0,
            next_write: 0,
            ready: BTreeMap::new(),
            pending: HashMap::new(),
            pending_payload: None,
            quit_at: None,
            read_closed: false,
            want_read: false,
        }
    }

    /// Whether every accepted request has been answered and flushed.
    fn drained(&self) -> bool {
        self.pending.is_empty() && self.ready.is_empty() && !self.line.wants_write()
    }
}

/// Finished spans each reactor's ring retains for `TRACE` lookups. Spans
/// exist only for sampled requests, so the memory cost is bounded and
/// small (a few hundred bytes per span).
const SPAN_RING_CAPACITY: usize = 256;

/// Join handles and wakers of a spawned reactor pool, in thread order.
pub(crate) type ReactorPool = (Vec<JoinHandle<()>>, Vec<Arc<Waker>>);

/// Spawns `threads` reactor threads jointly servicing `listener` (each
/// gets its own clone of the listener, its own epoll instance and its own
/// deadline wheel; see the module docs for the accept hand-off).
pub(crate) fn spawn_pool(
    listener: TcpListener,
    context: Arc<ServeContext>,
    shutdown: Arc<AtomicBool>,
    idle_timeout: Option<Duration>,
    threads: usize,
    max_connections: Option<usize>,
) -> Result<ReactorPool> {
    let threads = threads.max(1);
    let live = Arc::new(AtomicUsize::new(0));
    let mut handles = Vec::with_capacity(threads);
    let mut wakers = Vec::with_capacity(threads);
    for index in 0..threads {
        // Each reactor owns a dup of the listening socket (same underlying
        // accept queue); the original drops when this function returns.
        let listener = listener.try_clone()?;
        let poller = Poller::new(1024)?;
        let waker = Arc::new(Waker::new()?);
        poller.add(waker.raw_fd(), WAKER_TOKEN, Interest::READABLE.level())?;
        // Level-triggered listener: readiness re-reports while the backlog
        // is non-empty, so no reactor can strand queued connections behind
        // a lost edge, and a connection another reactor already accepted
        // simply surfaces here as a spurious `WouldBlock`.
        poller.add(
            listener.as_raw_fd(),
            LISTENER_TOKEN,
            Interest::READABLE.level(),
        )?;
        let (completions_tx, completions_rx) = mpsc::channel();
        // Each reactor records spans into its own ring (no cross-thread
        // contention on the trace path) and publishes its own event-loop
        // health gauges, distinguishable by the `reactor` label.
        let span_ring = context.traces.new_ring(SPAN_RING_CAPACITY);
        let loop_stats = Arc::new(LoopStats::new());
        register_loop_gauges(&context, index, &loop_stats);
        let reactor = Reactor {
            poller,
            waker: Arc::clone(&waker),
            listener,
            context: Arc::clone(&context),
            shutdown: Arc::clone(&shutdown),
            idle_timeout,
            max_connections,
            live: Arc::clone(&live),
            completions_tx,
            completions_rx,
            conns: HashMap::new(),
            wheel: DeadlineWheel::new(Duration::from_millis(100), 128),
            next_token: FIRST_CONN_TOKEN,
            span_ring,
            loop_stats,
        };
        let thread = std::thread::Builder::new()
            .name(format!("pfr-serve-reactor-{index}"))
            .spawn(move || reactor.run())
            .expect("spawning the reactor thread never fails on this platform");
        handles.push(thread);
        wakers.push(waker);
    }
    Ok((handles, wakers))
}

struct Reactor {
    poller: Poller,
    waker: Arc<Waker>,
    listener: TcpListener,
    context: Arc<ServeContext>,
    shutdown: Arc<AtomicBool>,
    idle_timeout: Option<Duration>,
    /// Process-wide admission limit (`None` = unlimited).
    max_connections: Option<usize>,
    /// Connections currently admitted across the whole pool.
    live: Arc<AtomicUsize>,
    completions_tx: Sender<Completion>,
    completions_rx: Receiver<Completion>,
    conns: HashMap<u64, ClientConn>,
    wheel: DeadlineWheel,
    next_token: u64,
    /// This reactor's span ring (one per thread; the shared
    /// [`pfr_obs::TraceStore`] searches across all of them).
    span_ring: Arc<SpanRing>,
    /// This reactor's event-loop health counters.
    loop_stats: Arc<LoopStats>,
}

/// Registers one reactor's event-loop gauges on the server registry under
/// a `reactor="<index>"` label so pool members stay distinguishable in a
/// single scrape.
fn register_loop_gauges(context: &ServeContext, index: usize, stats: &Arc<LoopStats>) {
    let reactor = index.to_string();
    let gauge = |name: &str, read: fn(&LoopStats) -> u64| {
        let s = Arc::clone(stats);
        let read = Arc::new(move || read(&s) as f64);
        context.metrics.gauge(name, &[("reactor", &reactor)], read);
    };
    gauge("pfr_net_polls_total", LoopStats::polls);
    gauge("pfr_net_poll_wait_ns_total", LoopStats::wait_ns);
    gauge("pfr_net_ready_events", LoopStats::last_ready);
    gauge("pfr_net_wheel_depth", LoopStats::wheel_depth);
}

impl Reactor {
    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        let mut expired: Vec<u64> = Vec::new();
        while !self.shutdown.load(Ordering::SeqCst) {
            let timeout = self.wheel.next_timeout(Instant::now());
            let waited = Instant::now();
            if self.poller.wait(&mut events, timeout).is_err() {
                break;
            }
            self.loop_stats.record_poll(waited.elapsed(), events.len());
            // Drain in place: the buffer's capacity is reused across
            // iterations (`events` is a local, so borrowing it while
            // calling `&mut self` methods is fine).
            for event in events.drain(..) {
                match event.token {
                    WAKER_TOKEN => self.waker.drain(),
                    LISTENER_TOKEN => self.accept_ready(),
                    token => self.conn_ready(token, event),
                }
            }
            self.apply_completions();
            // The wheel always advances: besides idle deadlines it carries
            // the accept-backoff timer (LISTENER_TOKEN), which must fire
            // even when no idle timeout is configured.
            expired.clear();
            self.wheel.advance(Instant::now(), &mut expired);
            for token in expired.drain(..) {
                if token == LISTENER_TOKEN {
                    self.resume_accepting();
                } else {
                    self.close_conn(token);
                }
            }
            self.loop_stats.set_wheel_depth(self.wheel.len());
        }
        // Shutdown: close every connection (in both directions, so blocked
        // clients observe EOF) and drop the listener. In-flight worker
        // results land in a channel nobody reads: a request that raced the
        // shutdown is dropped, never half-answered.
        for (_, conn) in self.conns.drain() {
            self.live.fetch_sub(1, Ordering::Relaxed);
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
    }

    fn accept_ready(&mut self) {
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                // WouldBlock: the backlog is empty, or a sibling reactor
                // won the race for the connection that woke us.
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                // The peer hung up between entering the backlog and being
                // accepted (ECONNABORTED), or the call was interrupted —
                // transient per-connection noise; keep draining the backlog.
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::ConnectionAborted | std::io::ErrorKind::Interrupted
                    ) =>
                {
                    continue
                }
                // EMFILE and friends: the level-triggered registration
                // would re-report the non-empty backlog on every wait and
                // spin this loop at 100% CPU for as long as fds are
                // exhausted. Deregister the listener and re-arm it on the
                // deadline wheel instead — the reactor keeps serving its
                // admitted connections at full speed while accepting backs
                // off (sibling reactors still accept in the meantime).
                Err(_) => {
                    self.poller.remove(self.listener.as_raw_fd());
                    self.wheel
                        .arm(LISTENER_TOKEN, Instant::now() + ACCEPT_BACKOFF);
                    return;
                }
            };
            if let Some(max) = self.max_connections {
                if self.live.load(Ordering::Relaxed) >= max {
                    // Shed: one BUSY line (best effort — the peer may
                    // already be gone), then close. The stream is still
                    // blocking here, but a 5-byte write into a fresh
                    // socket's empty send buffer cannot block.
                    let mut stream = stream;
                    let _ = writeln!(stream, "{}", protocol::BUSY);
                    self.context.stats.record_shed();
                    continue;
                }
            }
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            let token = self.next_token;
            self.next_token += 1;
            if self
                .poller
                .add(stream.as_raw_fd(), token, Interest::DUPLEX)
                .is_err()
            {
                continue;
            }
            self.live.fetch_add(1, Ordering::Relaxed);
            self.context.stats.record_connection();
            self.conns.insert(token, ClientConn::new(stream));
            self.touch_idle(token);
        }
    }

    /// The accept backoff expired: re-register the listener and drain
    /// whatever backlog accumulated while accepting was paused. If the
    /// resource exhaustion persists, `accept_ready` simply re-arms the
    /// backoff.
    fn resume_accepting(&mut self) {
        if self
            .poller
            .add(
                self.listener.as_raw_fd(),
                LISTENER_TOKEN,
                Interest::READABLE.level(),
            )
            .is_err()
        {
            self.wheel
                .arm(LISTENER_TOKEN, Instant::now() + ACCEPT_BACKOFF);
            return;
        }
        self.accept_ready();
    }

    /// Re-arms `token`'s idle deadline (no-op without an idle timeout).
    fn touch_idle(&mut self, token: u64) {
        if let Some(idle) = self.idle_timeout {
            self.wheel.arm(token, Instant::now() + idle);
        }
    }

    fn conn_ready(&mut self, token: u64, event: Event) {
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if event.writable && conn.line.wants_write() {
                let mut stream = &conn.stream;
                if conn.line.flush_into(&mut stream).is_err() {
                    self.close_conn(token);
                    return;
                }
            }
            if event.readable {
                // Remember the edge; pump drains it only when backpressure
                // allows (a skipped edge cannot re-fire, so the flag is the
                // reactor's memory that unread bytes are waiting).
                conn.want_read = true;
            }
        }
        self.pump(token);
    }

    /// Advances a connection as far as backpressure allows: drains the
    /// socket **unless** the unsent output sits above the high watermark —
    /// a peer that pipelines requests without reading responses stops
    /// being read entirely, so its bytes back up into kernel buffers and
    /// TCP flow control pushes back on *it*, instead of accumulating in
    /// server memory — then parses and closes if the session is over.
    fn pump(&mut self, token: u64) {
        let filled = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.want_read && conn.line.pending_out() <= HIGH_WATER {
                conn.want_read = false;
                let mut stream = &conn.stream;
                match conn.line.fill(&mut stream) {
                    Ok(outcome) => {
                        if outcome.eof {
                            conn.read_closed = true;
                        }
                        outcome.bytes
                    }
                    Err(_) => {
                        self.close_conn(token);
                        return;
                    }
                }
            } else {
                0
            }
        };
        if filled > 0 {
            self.touch_idle(token);
        }
        self.parse_available(token);
        self.finish_round(token);
    }

    /// Parses and dispatches every complete frame the connection has
    /// buffered — request lines, or the counted payload a `PUSH` header
    /// announced — respecting QUIT and the output high watermark.
    fn parse_available(&mut self, token: u64) {
        loop {
            let frame = {
                let Some(conn) = self.conns.get_mut(&token) else {
                    return;
                };
                if conn.quit_at.is_some() || conn.line.pending_out() > HIGH_WATER {
                    return;
                }
                match conn.line.next_frame() {
                    Some(frame) => frame,
                    None => return,
                }
            };
            match frame {
                Frame::Line(line) => {
                    if line.trim().is_empty() {
                        continue;
                    }
                    self.process_line(token, &line);
                }
                Frame::Payload(payload) => self.process_payload(token, payload),
            }
        }
    }

    /// Handles one request line: inline verbs answer immediately, blocking
    /// verbs are dispatched to the batcher / pool with a completion sink.
    fn process_line(&mut self, token: u64, line: &str) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let seq = conn.next_seq;
        conn.next_seq += 1;
        let context = Arc::clone(&self.context);
        match protocol::parse_request(line) {
            Err(e) => {
                context.stats.record_parse_error();
                self.emit(token, seq, protocol::err_response(&e));
            }
            Ok(Request::Quit) => {
                conn.quit_at = Some(seq);
                self.emit(token, seq, protocol::ok_response("bye"));
            }
            Ok(Request::Health) => self.answer_inline(token, seq, &context.stats.health, |ctx| {
                Ok(server::handle_health(ctx))
            }),
            Ok(Request::Epoch { name }) => {
                self.answer_inline(token, seq, &context.stats.epoch, |ctx| {
                    server::handle_epoch(ctx, &name)
                })
            }
            Ok(Request::Metrics) => self.answer_inline(token, seq, &context.stats.metrics, |ctx| {
                // The full exposition, escaped onto one line.
                Ok(pfr_obs::escape_multiline(&ctx.metrics.render()))
            }),
            Ok(Request::Trace { id }) => {
                self.answer_inline(token, seq, &context.stats.metrics, |ctx| {
                    ctx.trace_payload(id)
                })
            }
            Ok(Request::Catalog { full }) => {
                self.answer_inline(token, seq, &context.stats.catalog, |ctx| {
                    Ok(server::handle_catalog(ctx, full))
                })
            }
            Ok(Request::Sync { nbytes }) => {
                // Header parsed; switch the connection into payload mode.
                // The merge itself runs when the bytes arrive.
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.pending_payload = Some(PendingPayload::Sync { seq });
                    conn.line.expect_payload(nbytes);
                }
            }
            Ok(Request::Score {
                name,
                features,
                trace,
            }) => self.dispatch_score(token, seq, &name, features, trace),
            Ok(Request::Transform {
                name,
                features,
                trace,
            }) => self.dispatch_transform(token, seq, &name, features, trace),
            Ok(Request::Load { name, path }) => self.dispatch_load(token, seq, name, path),
            Ok(Request::Push {
                name,
                nbytes,
                trace,
            }) => {
                // Header parsed; switch the connection into payload mode.
                // The response is owed at this seq once the bytes arrive
                // (nothing else can be parsed in between, so ordering is
                // preserved by construction).
                let span = context.begin_span(trace, "serve/PUSH");
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.pending_payload = Some(PendingPayload::Push(PendingPush {
                        seq,
                        name,
                        trace,
                        span,
                    }));
                    conn.line.expect_payload(nbytes);
                }
            }
        }
    }

    /// The counted payload a `PUSH`/`SYNC` header announced has fully
    /// arrived. `SYNC` merges the catalog inline; `PUSH` registers the
    /// bundle on the worker pool (parsing bundle text is real work that
    /// must not stall the reactor).
    fn process_payload(&mut self, token: u64, payload: Vec<u8>) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let Some(pending) = conn.pending_payload.take() else {
            // A payload frame without a pending header cannot happen — the
            // only expect_payload call sites set pending_payload first —
            // but dropping it beats emitting a response at a phantom seq.
            return;
        };
        let push = match pending {
            PendingPayload::Sync { seq } => {
                let context = Arc::clone(&self.context);
                self.answer_inline(token, seq, &context.stats.catalog, |ctx| {
                    server::handle_sync(ctx, &payload)
                });
                return;
            }
            PendingPayload::Push(push) => push,
        };
        let PendingPush {
            seq,
            name,
            trace,
            mut span,
        } = push;
        if let Some(s) = span.as_mut() {
            s.event("payload-read");
        }
        self.context.stats.inflight_enter();
        let meta = PendingMeta {
            verb: AsyncVerb::Load,
            start: Instant::now(),
            threshold: 0.0,
            key: None,
            span,
            trace,
        };
        let context = Arc::clone(&self.context);
        // The span stays on the reactor (in `PendingMeta`), so the
        // worker-side journal/install events are folded into the single
        // "install" event recorded at completion.
        self.offload(token, seq, meta, move || {
            server::handle_push(&context, &name, &payload, None)
        });
    }

    /// `SCORE`: cache hits answer inline; misses go through the batcher.
    fn dispatch_score(
        &mut self,
        token: u64,
        seq: u64,
        name: &str,
        features: Vec<f64>,
        trace: Option<u64>,
    ) {
        let context = Arc::clone(&self.context);
        let stats = &context.stats;
        let start = Instant::now();
        stats.inflight_enter();
        let mut span = context.begin_span(trace, "serve/SCORE");
        let model = match context.registry.resolve(name) {
            Ok(model) => model,
            Err(e) => {
                stats.inflight_exit();
                stats.score.record(start.elapsed(), false);
                if let Some(span) = span {
                    context.finish_span(span, &self.span_ring);
                }
                self.emit(token, seq, with_echo(protocol::err_response(&e), trace));
                return;
            }
        };
        if let Some(s) = span.as_mut() {
            s.event("resolve");
        }
        // Journaled before execution so replay reproduces the request order.
        // Under `FsyncPolicy::PerRecord` the append blocks the reactor on an
        // fsync; journaling reactor deployments should prefer `Interval`.
        if let Err(e) = context.journal_append(|| Record::Score {
            model: name.to_string(),
            features: features.clone(),
        }) {
            stats.inflight_exit();
            stats.score.record(start.elapsed(), false);
            if let Some(span) = span {
                context.finish_span(span, &self.span_ring);
            }
            self.emit(token, seq, with_echo(protocol::err_response(&e), trace));
            return;
        }
        if context.journal.is_some() {
            if let Some(s) = span.as_mut() {
                s.event("journal-append");
            }
        }
        let key = ScoreKey::new(model.generation(), &features);
        if let Some(key) = &key {
            let cached = context.cache.lock().expect("cache lock poisoned").get(key);
            if let Some(score) = cached {
                stats.record_cache_hit();
                if let Some(s) = span.as_mut() {
                    s.event("cache-hit");
                }
                stats.inflight_exit();
                stats.score.record(start.elapsed(), true);
                if let Some(span) = span {
                    context.finish_span(span, &self.span_ring);
                }
                let payload = server::score_payload(score, model.threshold());
                self.emit(
                    token,
                    seq,
                    with_echo(protocol::ok_response(&payload), trace),
                );
                return;
            }
        }
        stats.record_cache_miss();
        if let Some(s) = span.as_mut() {
            s.event("cache-miss");
        }
        let meta = PendingMeta {
            verb: AsyncVerb::Score,
            start,
            threshold: model.threshold(),
            key,
            span,
            trace,
        };
        let sink = self.sink(token, seq);
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.pending.insert(seq, meta);
        }
        if let Err(e) =
            context
                .batcher
                .submit_sink(model, features, crate::batcher::ScoreSink::Net(sink))
        {
            // Shutdown race: answer inline instead of leaking the pending.
            self.apply(Completion {
                token,
                seq,
                outcome: Outcome::Score(Err(e)),
            });
        }
    }

    /// `TRANSFORM`: runs on the worker pool, completes via the sink.
    fn dispatch_transform(
        &mut self,
        token: u64,
        seq: u64,
        name: &str,
        features: Vec<f64>,
        trace: Option<u64>,
    ) {
        let context = Arc::clone(&self.context);
        let stats = &context.stats;
        let start = Instant::now();
        stats.inflight_enter();
        let mut span = context.begin_span(trace, "serve/TRANSFORM");
        let model = match context.registry.resolve(name) {
            Ok(model) => model,
            Err(e) => {
                stats.inflight_exit();
                stats.transform.record(start.elapsed(), false);
                if let Some(span) = span {
                    context.finish_span(span, &self.span_ring);
                }
                self.emit(token, seq, with_echo(protocol::err_response(&e), trace));
                return;
            }
        };
        if let Some(s) = span.as_mut() {
            s.event("resolve");
        }
        if let Err(e) = context.journal_append(|| Record::Transform {
            model: name.to_string(),
            features: features.clone(),
        }) {
            stats.inflight_exit();
            stats.transform.record(start.elapsed(), false);
            if let Some(span) = span {
                context.finish_span(span, &self.span_ring);
            }
            self.emit(token, seq, with_echo(protocol::err_response(&e), trace));
            return;
        }
        let meta = PendingMeta {
            verb: AsyncVerb::Transform,
            start,
            threshold: 0.0,
            key: None,
            span,
            trace,
        };
        self.offload(token, seq, meta, move || {
            let x = pfr_linalg::Matrix::from_vec(1, features.len(), features)
                .map_err(ServeError::model)?;
            let z = model.transform_batch(&x)?;
            Ok(protocol::format_numbers(z.row(0)))
        });
    }

    /// `LOAD`: disk io runs on the worker pool, not the reactor.
    fn dispatch_load(&mut self, token: u64, seq: u64, name: String, path: String) {
        self.context.stats.inflight_enter();
        let meta = PendingMeta {
            verb: AsyncVerb::Load,
            start: Instant::now(),
            threshold: 0.0,
            key: None,
            span: None,
            trace: None,
        };
        let context = Arc::clone(&self.context);
        self.offload(token, seq, meta, move || {
            server::handle_load(&context, &name, Path::new(&path))
        });
    }

    /// Answers a verb on the reactor thread: the handler runs inside the
    /// in-flight gauge (so `HEALTH`'s `queue=` counts itself), its latency
    /// and outcome land on `verb`, and the response is emitted in order.
    fn answer_inline(
        &mut self,
        token: u64,
        seq: u64,
        verb: &VerbStats,
        handler: impl FnOnce(&ServeContext) -> Result<String>,
    ) {
        let start = Instant::now();
        let stats = &self.context.stats;
        stats.inflight_enter();
        let outcome = handler(&self.context);
        stats.inflight_exit();
        verb.record(start.elapsed(), outcome.is_ok());
        self.emit(token, seq, render(outcome));
    }

    /// Runs `job` on the worker pool and parks `meta` until its completion
    /// comes back through the sink. The caller has already raised the
    /// in-flight gauge; [`Reactor::apply`] lowers it, also when the pool
    /// refuses the job (shutdown race), which is answered inline.
    fn offload(
        &mut self,
        token: u64,
        seq: u64,
        meta: PendingMeta,
        job: impl FnOnce() -> Result<String> + Send + 'static,
    ) {
        let sink = self.sink(token, seq);
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.pending.insert(seq, meta);
        }
        if let Err(e) = self.context.pool.execute(move || sink.send_text(job())) {
            self.apply(Completion {
                token,
                seq,
                outcome: Outcome::Text(Err(e)),
            });
        }
    }

    fn sink(&self, token: u64, seq: u64) -> NetSink {
        NetSink {
            completions: self.completions_tx.clone(),
            waker: Arc::clone(&self.waker),
            token,
            seq,
        }
    }

    fn apply_completions(&mut self) {
        while let Ok(completion) = self.completions_rx.try_recv() {
            let token = completion.token;
            self.apply(completion);
            // The emitted response may have drained the output below the
            // watermark; resume any reads and parsing paused behind it.
            self.pump(token);
        }
    }

    /// Applies one finished asynchronous request: stats, cache fill,
    /// response rendering and ordered emission.
    fn apply(&mut self, completion: Completion) {
        let Some(conn) = self.conns.get_mut(&completion.token) else {
            // The connection died while the job ran. Its request still
            // entered the in-flight gauge at parse time, so it must still
            // leave — otherwise every abandoned request inflates `queue=`
            // (the load signal the routing tier reads) forever.
            self.context.stats.inflight_exit();
            return;
        };
        let Some(mut meta) = conn.pending.remove(&completion.seq) else {
            // Unreachable with monotonic tokens and one completion per
            // sink, but the gauge invariant (one exit per enter) must hold
            // on every path a completion can take.
            self.context.stats.inflight_exit();
            return;
        };
        let stats = Arc::clone(&self.context.stats);
        stats.inflight_exit();
        let response = match completion.outcome {
            Outcome::Score(Ok(score)) => {
                if let Some(s) = meta.span.as_mut() {
                    // Queue wait, batch assembly and the GEMM all sit
                    // between "cache-miss" and this event.
                    s.event("batch-scored");
                }
                if let Some(key) = meta.key.take() {
                    self.context
                        .cache
                        .lock()
                        .expect("cache lock poisoned")
                        .insert(key, score);
                    if let Some(s) = meta.span.as_mut() {
                        s.event("cache-insert");
                    }
                }
                verb_stats(&stats, meta.verb).record(meta.start.elapsed(), true);
                protocol::ok_response(&server::score_payload(score, meta.threshold))
            }
            Outcome::Score(Err(e)) => {
                verb_stats(&stats, meta.verb).record(meta.start.elapsed(), false);
                protocol::err_response(&e)
            }
            Outcome::Text(outcome) => {
                if let Some(s) = meta.span.as_mut() {
                    s.event(match meta.verb {
                        AsyncVerb::Load => "install",
                        AsyncVerb::Transform => "pool-exec",
                        AsyncVerb::Score => "batch-scored",
                    });
                }
                verb_stats(&stats, meta.verb).record(meta.start.elapsed(), outcome.is_ok());
                render(outcome)
            }
        };
        if let Some(span) = meta.span.take() {
            self.context.finish_span(span, &self.span_ring);
        }
        self.emit(
            completion.token,
            completion.seq,
            with_echo(response, meta.trace),
        );
    }

    /// Queues `response` for `seq`, then moves every now-contiguous
    /// response into the connection's output buffer and flushes.
    fn emit(&mut self, token: u64, seq: u64, response: String) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.ready.insert(seq, response);
        while let Some(response) = conn.ready.remove(&conn.next_write) {
            conn.line.enqueue_line(&response);
            conn.next_write += 1;
        }
        let mut stream = &conn.stream;
        if conn.line.flush_into(&mut stream).is_err() {
            self.close_conn(token);
        }
        // Parsing paused at the high watermark resumes from conn_ready
        // (the next writable edge — guaranteed, because a non-empty outbuf
        // proves the kernel buffer filled) or from apply_completions; emit
        // itself never re-parses, so pipelined bursts cannot recurse.
    }

    /// End-of-round bookkeeping for one connection: close it once its
    /// QUIT (or the peer's half-close) has been fully served and flushed.
    fn finish_round(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let quit_done = conn
            .quit_at
            .is_some_and(|quit| conn.next_write > quit && !conn.line.wants_write());
        let peer_done = conn.read_closed && conn.drained();
        if quit_done || peer_done {
            self.close_conn(token);
        }
    }

    fn close_conn(&mut self, token: u64) {
        self.wheel.cancel(token);
        if let Some(conn) = self.conns.remove(&token) {
            self.live.fetch_sub(1, Ordering::Relaxed);
            self.poller.remove(conn.stream.as_raw_fd());
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
    }
}

fn render(outcome: Result<String>) -> String {
    match outcome {
        Ok(payload) => protocol::ok_response(&payload),
        Err(e) => protocol::err_response(&e),
    }
}

/// Appends the trace echo when the request carried a wire token.
/// Server-sampled traces never alter response bytes, so sampled and
/// unsampled requests stay bitwise interchangeable for untraced callers.
fn with_echo(mut response: String, trace: Option<u64>) -> String {
    if let Some(id) = trace {
        response.push(' ');
        response.push_str(&pfr_obs::trace_token(id));
    }
    response
}

fn verb_stats(stats: &crate::stats::ServerStats, verb: AsyncVerb) -> &VerbStats {
    match verb {
        AsyncVerb::Score => &stats.score,
        AsyncVerb::Transform => &stats.transform,
        AsyncVerb::Load => &stats.load,
    }
}

/// The protocol tests live in the `server` module (they run against the
/// default one-reactor pool). The tests here cover the event-loop
/// mechanics: idle timeouts and pipelined reordering.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::tests::toy_bundle;
    use crate::server::{Server, ServerConfig};
    use pfr_core::persistence;
    use std::io::{BufRead, BufReader, Read, Write};

    fn reactor_server(idle: Option<Duration>) -> (Server, pfr_linalg::Matrix) {
        let (bundle, x) = toy_bundle();
        let server = Server::spawn(ServerConfig {
            idle_timeout: idle,
            ..ServerConfig::default()
        })
        .unwrap();
        let text = persistence::bundle_to_string(&bundle);
        server.registry().load_from_str("risk", &text).unwrap();
        (server, x)
    }

    #[test]
    fn pipelined_requests_come_back_in_order() {
        let (server, x) = reactor_server(None);
        let model = server.registry().get("risk").unwrap();
        let expected = model.score_batch(&x).unwrap();
        let stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        // One burst: mixed verbs, no reads until everything is written.
        let mut burst = String::new();
        for i in 0..x.rows() {
            burst.push_str(&format!(
                "SCORE risk {}\n",
                protocol::format_numbers(x.row(i))
            ));
            burst.push_str("HEALTH\n");
        }
        writer.write_all(burst.as_bytes()).unwrap();
        writer.flush().unwrap();
        for (i, want) in expected.iter().enumerate() {
            let mut response = String::new();
            reader.read_line(&mut response).unwrap();
            let score: f64 = response.split_whitespace().nth(1).unwrap().parse().unwrap();
            assert_eq!(score.to_bits(), want.to_bits(), "row {i}");
            response.clear();
            reader.read_line(&mut response).unwrap();
            assert!(response.starts_with("OK up"), "{response}");
        }
        server.shutdown();
    }

    #[test]
    fn a_flooding_client_is_throttled_not_buffered() {
        // 20k pipelined requests written before a single response is read:
        // the responses (> HIGH_WATER bytes) back the output up, the
        // reactor pauses reading the connection, and TCP pushes back on
        // the writer — instead of the server buffering the whole flood.
        // Every request is still answered, in order, once the client
        // starts reading.
        let (server, x) = reactor_server(None);
        let n = 20_000usize;
        let line = format!("SCORE risk {}\n", protocol::format_numbers(x.row(0)));
        let stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let writer_stream = stream;
        let writer = std::thread::spawn(move || {
            let mut writer_stream = writer_stream;
            for _ in 0..n {
                // Blocks once kernel buffers fill — that is the throttle.
                writer_stream.write_all(line.as_bytes()).unwrap();
            }
            writer_stream.flush().unwrap();
        });
        // Let the flood hit the watermark before draining anything.
        std::thread::sleep(Duration::from_millis(100));
        let mut first = String::new();
        for i in 0..n {
            let mut response = String::new();
            reader.read_line(&mut response).unwrap();
            assert!(response.starts_with("OK "), "row {i}: {response}");
            if i == 0 {
                first = response;
            } else {
                assert_eq!(response, first, "row {i} diverged");
            }
        }
        writer.join().unwrap();
        server.shutdown();
    }

    #[test]
    fn connections_past_the_limit_are_shed_with_a_busy_line() {
        let (bundle, x) = toy_bundle();
        let server = Server::spawn(ServerConfig {
            max_connections: Some(1),
            ..ServerConfig::default()
        })
        .unwrap();
        let text = persistence::bundle_to_string(&bundle);
        server.registry().load_from_str("risk", &text).unwrap();
        let line = format!("SCORE risk {}", protocol::format_numbers(x.row(0)));

        // First connection is admitted and served.
        let admitted = TcpStream::connect(server.addr()).unwrap();
        let mut reader = BufReader::new(admitted.try_clone().unwrap());
        let mut writer = admitted;
        writeln!(writer, "{line}").unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        assert!(response.starts_with("OK "), "{response}");

        // While it is held open, further connections are shed: one BUSY
        // line, then EOF.
        let shed = TcpStream::connect(server.addr()).unwrap();
        shed.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut shed_reader = BufReader::new(shed);
        let mut busy = String::new();
        shed_reader.read_line(&mut busy).unwrap();
        assert_eq!(busy.trim_end(), protocol::BUSY);
        let mut rest = String::new();
        assert_eq!(shed_reader.read_line(&mut rest).unwrap(), 0, "want EOF");
        assert_eq!(server.stats().sheds(), 1);

        // Releasing the admitted connection frees the slot.
        writeln!(writer, "QUIT").unwrap();
        response.clear();
        reader.read_line(&mut response).unwrap();
        assert!(response.starts_with("OK bye"), "{response}");
        drop((reader, writer));
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let retry = TcpStream::connect(server.addr()).unwrap();
            retry
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            let mut retry_reader = BufReader::new(retry.try_clone().unwrap());
            let mut retry_writer = retry;
            writeln!(retry_writer, "{line}").unwrap();
            let mut response = String::new();
            retry_reader.read_line(&mut response).unwrap();
            if response.starts_with("OK ") {
                break;
            }
            assert_eq!(response.trim_end(), protocol::BUSY);
            assert!(
                Instant::now() < deadline,
                "slot never freed after the admitted connection quit"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        server.shutdown();
    }

    #[test]
    fn a_reactor_pool_serves_connections_on_every_thread() {
        let (bundle, x) = toy_bundle();
        let server = Server::spawn(ServerConfig {
            reactors: 4,
            ..ServerConfig::default()
        })
        .unwrap();
        let text = persistence::bundle_to_string(&bundle);
        server.registry().load_from_str("risk", &text).unwrap();
        let model = server.registry().get("risk").unwrap();
        let expected = model.score_batch(&x).unwrap();
        // More concurrent connections than reactors, each scoring every row.
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let addr = server.addr();
                let x = x.clone();
                let expected = expected.clone();
                std::thread::spawn(move || {
                    let stream = TcpStream::connect(addr).unwrap();
                    stream.set_nodelay(true).unwrap();
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    let mut writer = stream;
                    for (i, want) in expected.iter().enumerate() {
                        writeln!(writer, "SCORE risk {}", protocol::format_numbers(x.row(i)))
                            .unwrap();
                        let mut response = String::new();
                        reader.read_line(&mut response).unwrap();
                        let score: f64 =
                            response.split_whitespace().nth(1).unwrap().parse().unwrap();
                        assert_eq!(score.to_bits(), want.to_bits(), "row {i}");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        server.shutdown();
    }

    #[test]
    fn idle_connections_are_dropped_after_the_timeout() {
        let (server, x) = reactor_server(Some(Duration::from_millis(150)));
        // An active connection survives: keep it busy past the timeout.
        let busy = TcpStream::connect(server.addr()).unwrap();
        busy.set_nodelay(true).unwrap();
        let mut busy_reader = BufReader::new(busy.try_clone().unwrap());
        let mut busy_writer = busy;
        // An idle one gets dropped.
        let mut idle = TcpStream::connect(server.addr()).unwrap();
        let line = format!("SCORE risk {}", protocol::format_numbers(x.row(0)));
        for _ in 0..5 {
            std::thread::sleep(Duration::from_millis(60));
            writeln!(busy_writer, "{line}").unwrap();
            let mut response = String::new();
            busy_reader.read_line(&mut response).unwrap();
            assert!(response.starts_with("OK"), "{response}");
        }
        // By now the idle connection has been closed by the server.
        idle.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = [0u8; 1];
        let n = idle.read(&mut buf).unwrap_or(0);
        assert_eq!(n, 0, "idle connection should see EOF");
        server.shutdown();
    }
}
