//! Atomic service counters with bucketed latency percentiles.
//!
//! The network service keeps one [`ServiceStats`] per listener
//! (process-wide) and every [`Collection`](crate::Collection) carries its
//! own, so a collection's counters see every listener that serves its
//! catalog. Workers update them with relaxed atomics — no locking on the
//! hot path. Latency is recorded into power-of-two microsecond buckets, so
//! the reported p50/p99 are the upper bound of the bucket containing the
//! percentile (within 2× of the true value), which is all an operational
//! dashboard needs. OPERATIONS.md describes how to read these numbers in
//! production.

use crate::wire::WireError;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Number of latency buckets: bucket `i` holds samples whose microsecond
/// value has bit length `i` (bucket 0 holds sub-microsecond samples), so 40
/// buckets cover up to ~2^39 µs ≈ 6.4 days.
const LATENCY_BUCKETS: usize = 40;

/// Shared, lock-free service counters.
///
/// Besides the monotonic counters, three *gauges* describe the service
/// reactor's live connection population: `conns_parked` (registered in
/// epoll, waiting for readiness), `conns_active` (checked out — queued
/// for or held by a worker), and `ready_depth` (connections sitting in
/// the ready queue, i.e. wakes the workers have not kept up with). The
/// reactor maintains the connection gauges single-threadedly; the ready
/// queue maintains its own depth. A collection's counters never
/// *update* the three gauges — connections belong to the process, not a
/// collection — so a per-collection `StatsReply` overlays the
/// process-wide gauge values onto the collection's own counters at
/// serve time (PROTOCOL.md §3.10).
#[derive(Debug)]
pub struct ServiceStats {
    started: Instant,
    queries: AtomicU64,
    inserts: AtomicU64,
    deletes: AtomicU64,
    errors: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    conns_parked: AtomicU64,
    conns_active: AtomicU64,
    ready_depth: AtomicU64,
    scratch_bytes: AtomicU64,
    latency: [AtomicU64; LATENCY_BUCKETS],
}

impl Default for ServiceStats {
    fn default() -> Self {
        Self::new()
    }
}

impl ServiceStats {
    /// Fresh counters; uptime starts now.
    pub fn new() -> Self {
        Self {
            started: Instant::now(),
            queries: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            deletes: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            bytes_in: AtomicU64::new(0),
            bytes_out: AtomicU64::new(0),
            conns_parked: AtomicU64::new(0),
            conns_active: AtomicU64::new(0),
            ready_depth: AtomicU64::new(0),
            scratch_bytes: AtomicU64::new(0),
            latency: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Moves `n` connections into the parked population.
    pub fn conns_parked_add(&self, n: u64) {
        self.conns_parked.fetch_add(n, Ordering::Relaxed);
    }

    /// Moves `n` connections out of the parked population.
    pub fn conns_parked_sub(&self, n: u64) {
        self.conns_parked.fetch_sub(n, Ordering::Relaxed);
    }

    /// Moves `n` connections into the active (checked-out) population.
    pub fn conns_active_add(&self, n: u64) {
        self.conns_active.fetch_add(n, Ordering::Relaxed);
    }

    /// Moves `n` connections out of the active population.
    pub fn conns_active_sub(&self, n: u64) {
        self.conns_active.fetch_sub(n, Ordering::Relaxed);
    }

    /// Records a connection entering the ready queue.
    pub fn ready_depth_add(&self, n: u64) {
        self.ready_depth.fetch_add(n, Ordering::Relaxed);
    }

    /// Records a connection leaving the ready queue.
    pub fn ready_depth_sub(&self, n: u64) {
        self.ready_depth.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current parked-connection gauge.
    pub fn conns_parked(&self) -> u64 {
        self.conns_parked.load(Ordering::Relaxed)
    }

    /// Current active-connection gauge.
    pub fn conns_active(&self) -> u64 {
        self.conns_active.load(Ordering::Relaxed)
    }

    /// Current ready-queue depth.
    pub fn ready_depth(&self) -> u64 {
        self.ready_depth.load(Ordering::Relaxed)
    }

    /// Moves one worker's contribution to the pooled-scratch gauge from
    /// `prev` to `now` resident bytes. Workers call this after a wake
    /// whose serving grew (or shrank) their warm buffers; the gauge sums
    /// every worker's last report (OPERATIONS.md §2).
    pub fn update_scratch_bytes(&self, prev: u64, now: u64) {
        if now >= prev {
            self.scratch_bytes.fetch_add(now - prev, Ordering::Relaxed);
        } else {
            self.scratch_bytes.fetch_sub(prev - now, Ordering::Relaxed);
        }
    }

    /// Current resident bytes across every worker's pooled query scratch.
    pub fn scratch_bytes(&self) -> u64 {
        self.scratch_bytes.load(Ordering::Relaxed)
    }

    /// Records one answered query and its server-side latency.
    pub fn record_query(&self, latency: Duration) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        let micros = latency.as_micros() as u64;
        let bucket = (64 - micros.leading_zeros() as usize).min(LATENCY_BUCKETS - 1);
        self.latency[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Records one completed insertion.
    pub fn record_insert(&self) {
        self.inserts.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one completed deletion.
    pub fn record_delete(&self) {
        self.deletes.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one error frame sent.
    pub fn record_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds received frame bytes.
    pub fn add_bytes_in(&self, n: u64) {
        self.bytes_in.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds sent frame bytes.
    pub fn add_bytes_out(&self, n: u64) {
        self.bytes_out.fetch_add(n, Ordering::Relaxed);
    }

    /// Queries served so far.
    pub fn queries(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    /// The latency percentile `p` (in `0.0..=1.0`) in microseconds: the
    /// upper bound of the bucket containing that percentile, or 0 when no
    /// query has been recorded yet.
    pub fn percentile_micros(&self, p: f64) -> u64 {
        let counts: Vec<u64> = self.latency.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = ((total as f64) * p.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                // Bucket i holds values with bit length i: upper bound 2^i - 1.
                return if i == 0 { 0 } else { (1u64 << i) - 1 };
            }
        }
        (1u64 << (LATENCY_BUCKETS - 1)) - 1
    }

    /// A consistent-enough copy of all counters (each counter is read
    /// atomically; the set is not a single atomic snapshot).
    pub fn snapshot(&self, live: u64) -> StatsSnapshot {
        StatsSnapshot {
            queries: self.queries.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            deletes: self.deletes.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            live,
            p50_micros: self.percentile_micros(0.50),
            p99_micros: self.percentile_micros(0.99),
            uptime_micros: self.started.elapsed().as_micros() as u64,
            conns_parked: self.conns_parked.load(Ordering::Relaxed),
            conns_active: self.conns_active.load(Ordering::Relaxed),
            ready_depth: self.ready_depth.load(Ordering::Relaxed),
            scratch_bytes: self.scratch_bytes.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of the service counters, as carried by the
/// `StatsReply` frame.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Queries answered.
    pub queries: u64,
    /// Insertions applied.
    pub inserts: u64,
    /// Deletions applied.
    pub deletes: u64,
    /// Error frames sent.
    pub errors: u64,
    /// Frame bytes received.
    pub bytes_in: u64,
    /// Frame bytes sent.
    pub bytes_out: u64,
    /// Live vectors currently served.
    pub live: u64,
    /// Median query latency (bucketed upper bound, µs).
    pub p50_micros: u64,
    /// 99th-percentile query latency (bucketed upper bound, µs).
    pub p99_micros: u64,
    /// Server uptime in microseconds.
    pub uptime_micros: u64,
    /// Connections parked in epoll awaiting readiness (gauge;
    /// process-global even in per-collection replies, 0 from
    /// pre-reactor servers — PROTOCOL.md §3.10).
    pub conns_parked: u64,
    /// Connections checked out to the ready queue or a worker (gauge).
    pub conns_active: u64,
    /// Connections waiting in the ready queue for a worker (gauge).
    pub ready_depth: u64,
    /// Resident bytes across every worker's pooled query scratch (gauge;
    /// process-global even in per-collection replies, 0 from pre-pooling
    /// servers — PROTOCOL.md §3.10, OPERATIONS.md §2).
    pub scratch_bytes: u64,
}

impl StatsSnapshot {
    /// Appends the fourteen counters as little-endian `u64`s, in field
    /// order — ten original counters, the three reactor gauges, then the
    /// pooled-scratch gauge (PROTOCOL.md §3.10).
    pub fn write_to(&self, buf: &mut BytesMut) {
        for v in [
            self.queries,
            self.inserts,
            self.deletes,
            self.errors,
            self.bytes_in,
            self.bytes_out,
            self.live,
            self.p50_micros,
            self.p99_micros,
            self.uptime_micros,
            self.conns_parked,
            self.conns_active,
            self.ready_depth,
            self.scratch_bytes,
        ] {
            buf.put_u64_le(v);
        }
    }

    /// Reads a snapshot written by [`Self::write_to`]. The gauges are
    /// optional tails: a legacy 80-byte snapshot (pre-reactor server)
    /// decodes with all gauges zero, a 104-byte one (pre-pooling server)
    /// with `scratch_bytes` zero, so new clients stay compatible with
    /// old servers.
    pub fn read_from(data: &mut Bytes) -> Result<Self, WireError> {
        if data.remaining() < 80 {
            return Err(WireError::Truncated);
        }
        let mut snap = Self {
            queries: data.get_u64_le(),
            inserts: data.get_u64_le(),
            deletes: data.get_u64_le(),
            errors: data.get_u64_le(),
            bytes_in: data.get_u64_le(),
            bytes_out: data.get_u64_le(),
            live: data.get_u64_le(),
            p50_micros: data.get_u64_le(),
            p99_micros: data.get_u64_le(),
            uptime_micros: data.get_u64_le(),
            conns_parked: 0,
            conns_active: 0,
            ready_depth: 0,
            scratch_bytes: 0,
        };
        if data.remaining() >= 24 {
            snap.conns_parked = data.get_u64_le();
            snap.conns_active = data.get_u64_le();
            snap.ready_depth = data.get_u64_le();
        }
        if data.remaining() >= 8 {
            snap.scratch_bytes = data.get_u64_le();
        }
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_over_known_distribution() {
        let stats = ServiceStats::new();
        // 99 fast queries (~100 µs) and one slow outlier (~100 ms).
        for _ in 0..99 {
            stats.record_query(Duration::from_micros(100));
        }
        stats.record_query(Duration::from_millis(100));
        let p50 = stats.percentile_micros(0.50);
        let p99 = stats.percentile_micros(0.99);
        // 100 µs has bit length 7 → bucket upper bound 127 µs.
        assert_eq!(p50, 127);
        assert!(p99 <= 127, "p99 {p99} should still be in the fast bucket");
        // The outlier dominates only the very top of the distribution.
        assert!(stats.percentile_micros(1.0) >= 100_000 / 2);
    }

    #[test]
    fn empty_stats_report_zero() {
        let stats = ServiceStats::new();
        assert_eq!(stats.percentile_micros(0.5), 0);
        let snap = stats.snapshot(0);
        assert_eq!(snap.queries, 0);
        assert_eq!(snap.p99_micros, 0);
    }

    #[test]
    fn snapshot_roundtrip() {
        let snap = StatsSnapshot {
            queries: 1,
            inserts: 2,
            deletes: 3,
            errors: 4,
            bytes_in: 5,
            bytes_out: 6,
            live: 7,
            p50_micros: 8,
            p99_micros: 9,
            uptime_micros: 10,
            conns_parked: 11,
            conns_active: 12,
            ready_depth: 13,
            scratch_bytes: 14,
        };
        let mut buf = BytesMut::new();
        snap.write_to(&mut buf);
        assert_eq!(buf.len(), 112);
        let mut data = buf.freeze();
        assert_eq!(StatsSnapshot::read_from(&mut data).unwrap(), snap);
        assert!(!data.has_remaining());
    }

    #[test]
    fn legacy_80_byte_snapshot_decodes_with_zero_gauges() {
        // A pre-reactor server sends only the ten original counters; the
        // gauges must default to zero, not fail the decode.
        let mut buf = BytesMut::new();
        for v in 1..=10u64 {
            buf.put_u64_le(v);
        }
        let mut data = buf.freeze();
        let snap = StatsSnapshot::read_from(&mut data).unwrap();
        assert_eq!(snap.queries, 1);
        assert_eq!(snap.uptime_micros, 10);
        assert_eq!(snap.conns_parked, 0);
        assert_eq!(snap.conns_active, 0);
        assert_eq!(snap.ready_depth, 0);
        assert_eq!(snap.scratch_bytes, 0);
        assert!(!data.has_remaining());
    }

    #[test]
    fn legacy_104_byte_snapshot_decodes_with_zero_scratch_gauge() {
        // A pre-pooling server sends thirteen counters; only the
        // scratch gauge defaults.
        let mut buf = BytesMut::new();
        for v in 1..=13u64 {
            buf.put_u64_le(v);
        }
        let mut data = buf.freeze();
        let snap = StatsSnapshot::read_from(&mut data).unwrap();
        assert_eq!(snap.ready_depth, 13);
        assert_eq!(snap.scratch_bytes, 0);
        assert!(!data.has_remaining());
    }

    #[test]
    fn scratch_gauge_moves_by_worker_deltas() {
        let stats = ServiceStats::new();
        stats.update_scratch_bytes(0, 4096);
        stats.update_scratch_bytes(0, 1024);
        assert_eq!(stats.scratch_bytes(), 5120);
        stats.update_scratch_bytes(4096, 2048);
        assert_eq!(stats.scratch_bytes(), 3072);
        assert_eq!(stats.snapshot(0).scratch_bytes, 3072);
    }

    #[test]
    fn gauges_track_connection_population() {
        let stats = ServiceStats::new();
        stats.conns_parked_add(3);
        stats.conns_active_add(2);
        stats.ready_depth_add(1);
        stats.conns_parked_sub(1);
        let snap = stats.snapshot(0);
        assert_eq!(snap.conns_parked, 2);
        assert_eq!(snap.conns_active, 2);
        assert_eq!(snap.ready_depth, 1);
        assert_eq!(stats.conns_parked(), 2);
        assert_eq!(stats.conns_active(), 2);
        assert_eq!(stats.ready_depth(), 1);
    }

    #[test]
    fn counters_accumulate() {
        let stats = ServiceStats::new();
        stats.record_insert();
        stats.record_delete();
        stats.record_error();
        stats.add_bytes_in(10);
        stats.add_bytes_out(20);
        let snap = stats.snapshot(5);
        assert_eq!(snap.inserts, 1);
        assert_eq!(snap.deletes, 1);
        assert_eq!(snap.errors, 1);
        assert_eq!(snap.bytes_in, 10);
        assert_eq!(snap.bytes_out, 20);
        assert_eq!(snap.live, 5);
    }
}
