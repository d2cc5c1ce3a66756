//! The non-blocking line-protocol connection state machine: byte-stream in,
//! complete `\n`-delimited frames out, plus a buffered write side with
//! backpressure accounting.
//!
//! [`LineConn`] is deliberately io-agnostic — `fill` takes any `Read`,
//! `flush_into` any `Write` — so the state machine can be driven by a real
//! non-blocking socket in the reactors *and* by synthetic readers in tests.
//! Its central invariant, which the workspace property test
//! (`tests/net_properties.rs`) pins down: **the sequence of extracted
//! frames depends only on the byte stream, never on how reads were split
//! across readiness events.** A request arriving one byte per `fill` and a
//! request arriving in one 64 KiB slab parse identically — TCP makes no
//! framing promises, so the parser must make its own.
//!
//! Besides `\n`-delimited lines the state machine understands **counted
//! payload frames**: after a header line announces `n` payload bytes (the
//! serve protocol's `PUSH <name> <nbytes>`), the caller switches the
//! connection into payload mode with [`LineConn::expect_payload`] and the
//! next `n` buffered bytes come back as one [`Frame::Payload`] — newlines
//! inside the payload are data, not frame boundaries. The chunking
//! invariance holds for payload frames too.

use std::collections::VecDeque;
use std::io::{self, Read, Write};

/// Outcome of one [`LineConn::fill`] drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FillOutcome {
    /// Bytes appended to the inbound buffer.
    pub bytes: usize,
    /// The peer closed its write side (EOF was observed).
    pub eof: bool,
}

/// Outcome of one [`LineConn::flush_into`] drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushOutcome {
    /// Bytes written out.
    pub bytes: usize,
    /// The outbound buffer is now empty.
    pub drained: bool,
}

/// One parsed inbound frame: a protocol line, or the counted payload a
/// preceding header line announced (see [`LineConn::expect_payload`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// A `\n`-delimited line, `\r` stripped (the default framing).
    Line(String),
    /// Exactly the announced number of raw payload bytes.
    Payload(Vec<u8>),
}

/// A non-blocking line-protocol connection: read-accumulate / parse /
/// write-drain, with explicit backpressure signals for the event loop.
#[derive(Debug)]
pub struct LineConn {
    inbuf: Vec<u8>,
    /// Start of unconsumed bytes in `inbuf` (compacted lazily).
    consumed: usize,
    outbuf: VecDeque<u8>,
    max_line: usize,
    /// Bytes of counted payload still owed before line framing resumes
    /// (0 = line mode).
    payload_due: usize,
}

impl LineConn {
    /// A fresh connection state machine; a line longer than `max_line`
    /// bytes is a protocol violation surfaced as `InvalidData`.
    pub fn new(max_line: usize) -> LineConn {
        LineConn {
            inbuf: Vec::new(),
            consumed: 0,
            outbuf: VecDeque::new(),
            max_line: max_line.max(16),
            payload_due: 0,
        }
    }

    /// Reads from `src` until it would block (or EOF), accumulating into
    /// the inbound buffer. Call on every readable edge — edge-triggered
    /// delivery requires draining to `WouldBlock`, or the edge never
    /// re-fires. Errors other than `WouldBlock`/`Interrupted` propagate.
    pub fn fill(&mut self, src: &mut impl Read) -> io::Result<FillOutcome> {
        // Stack scratch, not per-connection storage: idle connections cost
        // only their (usually empty) buffers, which is the whole point of
        // replacing thread-per-connection.
        let mut chunk = [0u8; 4096];
        let mut total = 0;
        loop {
            match src.read(&mut chunk) {
                Ok(0) => {
                    return Ok(FillOutcome {
                        bytes: total,
                        eof: true,
                    })
                }
                Ok(n) => {
                    self.inbuf.extend_from_slice(&chunk[..n]);
                    total += n;
                    if self.inbuf.len() - self.consumed > self.max_line + self.payload_due {
                        // Guard before parse: a peer streaming an unbounded
                        // line must not grow the buffer without limit. Bytes
                        // owed to a counted payload are exempt — only the
                        // line bytes past it are newline-bounded.
                        if !self.inbuf[self.consumed + self.payload_due..].contains(&b'\n') {
                            return Err(io::Error::new(
                                io::ErrorKind::InvalidData,
                                "line exceeds the protocol maximum",
                            ));
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    return Ok(FillOutcome {
                        bytes: total,
                        eof: false,
                    })
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    fn buffered_slice(&self) -> &[u8] {
        &self.inbuf[self.consumed..]
    }

    /// Extracts the next complete line frame: the bytes up to (excluding)
    /// the next `\n`, with a trailing `\r` stripped. Returns `None` until a
    /// full line has accumulated, **or while a counted payload is owed**
    /// (payload bytes must never be misparsed as lines — drain them with
    /// [`LineConn::next_frame`] first). Non-UTF-8 bytes are replaced (the
    /// protocol is ASCII; a lossy decode keeps garbage inspectable).
    pub fn next_line(&mut self) -> Option<String> {
        if self.payload_due > 0 {
            return None;
        }
        let rel = self.buffered_slice().iter().position(|&b| b == b'\n')?;
        let end = self.consumed + rel;
        let mut frame = &self.inbuf[self.consumed..end];
        if frame.last() == Some(&b'\r') {
            frame = &frame[..frame.len() - 1];
        }
        let line = String::from_utf8_lossy(frame).into_owned();
        self.consumed = end + 1;
        self.maybe_compact();
        Some(line)
    }

    /// Switches the connection into payload mode: the next `nbytes`
    /// buffered bytes are one counted payload frame, not lines. Call after
    /// parsing a header line that announces a payload; until the payload is
    /// fully buffered and extracted, `next_line` yields nothing.
    pub fn expect_payload(&mut self, nbytes: usize) {
        self.payload_due = nbytes;
    }

    /// Extracts the next frame under the current mode: a counted payload
    /// once its announced bytes have accumulated, otherwise a line. The
    /// frame sequence is invariant under read chunking, exactly like
    /// [`LineConn::next_line`].
    pub fn next_frame(&mut self) -> Option<Frame> {
        if self.payload_due > 0 {
            if self.buffered_slice().len() < self.payload_due {
                return None;
            }
            let end = self.consumed + self.payload_due;
            let payload = self.inbuf[self.consumed..end].to_vec();
            self.consumed = end;
            self.payload_due = 0;
            self.maybe_compact();
            return Some(Frame::Payload(payload));
        }
        self.next_line().map(Frame::Line)
    }

    /// Compacts the inbound buffer once the dead prefix dominates, keeping
    /// amortized O(1) parsing over long sessions.
    fn maybe_compact(&mut self) {
        if self.consumed > 4096 && self.consumed * 2 > self.inbuf.len() {
            self.inbuf.drain(..self.consumed);
            self.consumed = 0;
        }
    }

    /// Bytes accumulated but not yet parsed into a frame.
    pub fn pending_in(&self) -> usize {
        self.inbuf.len() - self.consumed
    }

    /// Queues `line` (a newline is appended) for writing.
    pub fn enqueue_line(&mut self, line: &str) {
        self.outbuf.extend(line.as_bytes());
        self.outbuf.push_back(b'\n');
    }

    /// Queues raw bytes for writing.
    pub fn enqueue_bytes(&mut self, bytes: &[u8]) {
        self.outbuf.extend(bytes);
    }

    /// Writes buffered output to `dst` until drained or it would block.
    /// Call after enqueuing and on every writable edge; a `WouldBlock`
    /// leaves the rest buffered for the next edge (which, edge-triggered,
    /// arrives when the kernel buffer empties — guaranteed because the
    /// short write proves it was full).
    pub fn flush_into(&mut self, dst: &mut impl Write) -> io::Result<FlushOutcome> {
        let mut total = 0;
        while !self.outbuf.is_empty() {
            let (front, _) = self.outbuf.as_slices();
            match dst.write(front) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "peer cannot accept more bytes",
                    ))
                }
                Ok(n) => {
                    self.outbuf.drain(..n);
                    total += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    return Ok(FlushOutcome {
                        bytes: total,
                        drained: false,
                    })
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(FlushOutcome {
            bytes: total,
            drained: true,
        })
    }

    /// Bytes queued for writing but not yet accepted by the socket — the
    /// backpressure signal. An event loop should stop *parsing* (not
    /// reading) for a connection whose pending output exceeds its high
    /// watermark, so one slow reader cannot balloon server memory.
    pub fn pending_out(&self) -> usize {
        self.outbuf.len()
    }

    /// Whether buffered output is waiting on a writable edge.
    pub fn wants_write(&self) -> bool {
        !self.outbuf.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reader that yields a fixed byte stream in caller-chosen chunk
    /// sizes, with a `WouldBlock` after every chunk (like a socket).
    struct Chunked {
        data: Vec<u8>,
        pos: usize,
        chunk: usize,
        ready: bool,
    }

    impl Chunked {
        fn new(data: &[u8], chunk: usize) -> Chunked {
            Chunked {
                data: data.to_vec(),
                pos: 0,
                chunk: chunk.max(1),
                ready: true,
            }
        }
    }

    impl Read for Chunked {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if !self.ready {
                self.ready = true;
                return Err(io::ErrorKind::WouldBlock.into());
            }
            if self.pos == self.data.len() {
                return Ok(0);
            }
            let n = self.chunk.min(self.data.len() - self.pos).min(buf.len());
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            self.ready = false;
            Ok(n)
        }
    }

    fn frames(data: &[u8], chunk: usize) -> Vec<String> {
        let mut conn = LineConn::new(1 << 20);
        let mut src = Chunked::new(data, chunk);
        let mut out = Vec::new();
        loop {
            let outcome = conn.fill(&mut src).unwrap();
            while let Some(line) = conn.next_line() {
                out.push(line);
            }
            if outcome.eof {
                return out;
            }
        }
    }

    #[test]
    fn one_byte_reads_and_whole_buffer_reads_yield_identical_frames() {
        let stream = b"SCORE m 1 2 3\r\nHEALTH\n\nQUIT\n";
        let whole = frames(stream, stream.len());
        assert_eq!(whole, vec!["SCORE m 1 2 3", "HEALTH", "", "QUIT"]);
        for chunk in [1, 2, 3, 7, 16] {
            assert_eq!(frames(stream, chunk), whole, "chunk size {chunk}");
        }
    }

    #[test]
    fn partial_trailing_line_is_held_back() {
        let mut conn = LineConn::new(1024);
        let mut src = Chunked::new(b"HEALTH\nSCO", 64);
        conn.fill(&mut src).unwrap();
        assert_eq!(conn.next_line().as_deref(), Some("HEALTH"));
        assert_eq!(conn.next_line(), None);
        assert_eq!(conn.pending_in(), 3);
    }

    #[test]
    fn oversized_line_is_a_protocol_error() {
        let mut conn = LineConn::new(16);
        let mut src = Chunked::new(&[b'x'; 64], 64);
        assert_eq!(
            conn.fill(&mut src).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    /// A writer accepting at most `cap` bytes per call, blocking between.
    struct Throttled {
        accepted: Vec<u8>,
        cap: usize,
        ready: bool,
    }

    impl Write for Throttled {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if !self.ready {
                self.ready = true;
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = self.cap.min(buf.len());
            self.accepted.extend_from_slice(&buf[..n]);
            self.ready = false;
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_drain_survives_arbitrary_short_writes() {
        let mut conn = LineConn::new(1024);
        conn.enqueue_line("OK 0.25 1");
        conn.enqueue_line("OK bye");
        assert!(conn.wants_write());
        let mut dst = Throttled {
            accepted: Vec::new(),
            cap: 3,
            ready: true,
        };
        // Drive flushes as a loop of writable edges.
        while !conn.flush_into(&mut dst).unwrap().drained {}
        assert_eq!(dst.accepted, b"OK 0.25 1\nOK bye\n");
        assert_eq!(conn.pending_out(), 0);
        assert!(!conn.wants_write());
    }

    /// Drives a `PUSH`-style stream (header line, counted payload, then a
    /// trailing line) through the frame API at one chunk size.
    fn push_frames(data: &[u8], payload_len: usize, chunk: usize) -> Vec<Frame> {
        let mut conn = LineConn::new(64);
        let mut src = Chunked::new(data, chunk);
        let mut out = Vec::new();
        loop {
            let outcome = conn.fill(&mut src).unwrap();
            while let Some(frame) = conn.next_frame() {
                // The caller parses the header and announces the payload —
                // exactly what a protocol front end does.
                if matches!(&frame, Frame::Line(l) if l.starts_with("PUSH ")) {
                    conn.expect_payload(payload_len);
                }
                out.push(frame);
            }
            if outcome.eof {
                return out;
            }
        }
    }

    #[test]
    fn counted_payloads_pass_through_whatever_the_read_chunking() {
        // The payload contains newlines and exceeds max_line (64): both
        // must be invisible to the framing while the payload is owed.
        let payload: Vec<u8> = (0..200u8)
            .map(|i| if i % 7 == 0 { b'\n' } else { i })
            .collect();
        let mut stream = b"PUSH model 200\n".to_vec();
        stream.extend_from_slice(&payload);
        stream.extend_from_slice(b"HEALTH\n");
        let whole = push_frames(&stream, payload.len(), stream.len());
        assert_eq!(
            whole,
            vec![
                Frame::Line("PUSH model 200".to_string()),
                Frame::Payload(payload.clone()),
                Frame::Line("HEALTH".to_string()),
            ]
        );
        for chunk in [1, 2, 3, 7, 16, 64] {
            assert_eq!(
                push_frames(&stream, payload.len(), chunk),
                whole,
                "chunk size {chunk}"
            );
        }
    }

    #[test]
    fn next_line_is_held_back_while_a_payload_is_owed() {
        let mut conn = LineConn::new(1024);
        let mut src = Chunked::new(b"header\nPAYLOADBYTES\nafter\n", 64);
        loop {
            if conn.fill(&mut src).unwrap().eof {
                break;
            }
        }
        assert_eq!(conn.next_line().as_deref(), Some("header"));
        conn.expect_payload(12);
        // The payload contains a newline, but line extraction must wait.
        assert_eq!(conn.next_line(), None);
        assert_eq!(
            conn.next_frame(),
            Some(Frame::Payload(b"PAYLOADBYTES".to_vec()))
        );
        // The newline right after the payload terminates an empty line;
        // then normal framing resumes.
        assert_eq!(conn.next_frame(), Some(Frame::Line(String::new())));
        assert_eq!(conn.next_frame(), Some(Frame::Line("after".to_string())));
    }

    #[test]
    fn compaction_keeps_long_sessions_bounded() {
        let mut conn = LineConn::new(1024);
        for i in 0..10_000 {
            let mut src = Chunked::new(format!("PING {i}\n").as_bytes(), 64);
            loop {
                if conn.fill(&mut src).unwrap().eof {
                    break;
                }
            }
            assert_eq!(conn.next_line(), Some(format!("PING {i}")));
        }
        assert!(
            conn.inbuf.len() < 64 * 1024,
            "inbuf grew to {} bytes over a long session",
            conn.inbuf.len()
        );
    }
}
