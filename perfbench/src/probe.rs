//! A `Transport` wrapper that times the round loop from the outside.
//!
//! Untimed folds (`detail = false`) only stamp the start of each round
//! trip: one clock read per round, which gives per-round latencies without
//! tracing. With `detail = true` it also times every call of the forwarded
//! `UploadFold` and reads the `CheckInfo` of each folded slot.

use dpbfl::prelude::*;
use dpbfl::round::UploadFold;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Wraps the transport a run delivers its uploads through.
pub struct Probe<T> {
    inner: T,
    detail: bool,
    /// Start of every round trip, in round order.
    pub starts: Vec<Instant>,
    /// Total time inside `round_trip`.
    pub round_trip: Duration,
    /// Total time inside the forwarded fold (detail only).
    pub fold: Duration,
    /// Uploads the transport delivered (detail only).
    pub uploads: u64,
    /// Folded slots whose KS decision ran the exact test (detail only).
    pub ks_exact: u64,
    /// Folded slots whose KS decision the fast screen made (detail only).
    pub ks_fast: u64,
}

impl<T: Transport> Probe<T> {
    /// Wraps `inner`; `detail` also times each fold call.
    pub fn new(inner: T, detail: bool) -> Self {
        Probe {
            inner,
            detail,
            starts: Vec::new(),
            round_trip: Duration::ZERO,
            fold: Duration::ZERO,
            uploads: 0,
            ks_exact: 0,
            ks_fast: 0,
        }
    }

    /// Per-round wall times in ms: start of one round trip to the next, the
    /// last round ending at `end`.
    pub fn round_ms(&self, end: Instant) -> Vec<f64> {
        let ends = self.starts.iter().skip(1).copied().chain(std::iter::once(end));
        self.starts.iter().zip(ends).map(|(s, e)| (e - *s).as_secs_f64() * 1e3).collect()
    }
}

impl<T: Transport> Transport for Probe<T> {
    fn round_trip(
        &mut self,
        round: usize,
        members: &[usize],
        params: &[f32],
        fold: &UploadFold<'_>,
    ) -> Vec<Collected> {
        let start = Instant::now();
        self.starts.push(start);
        if !self.detail {
            let out = self.inner.round_trip(round, members, params, fold);
            self.round_trip += start.elapsed();
            return out;
        }
        let fold_ns = AtomicU64::new(0);
        let timed = |upload: Vec<f32>, scratch: &mut KsScratch| {
            let t = Instant::now();
            let slot = fold(upload, scratch);
            fold_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
            slot
        };
        let out = self.inner.round_trip(round, members, params, &timed);
        self.round_trip += start.elapsed();
        self.fold += Duration::from_nanos(fold_ns.into_inner());
        for slot in &out {
            if matches!(slot, Collected::Dropped) {
                continue;
            }
            self.uploads += 1;
            // Counted as the run ledger counts them: only checks that
            // reached the KS test (an accept or a KS rejection).
            if let Collected::Scored(_, _, Some(info)) = slot {
                match (info.verdict, info.ks_exact) {
                    (_, true) => self.ks_exact += 1,
                    (FirstStageVerdict::Accepted | FirstStageVerdict::KsRejected, false) => {
                        self.ks_fast += 1
                    }
                    _ => {}
                }
            }
        }
        out
    }

    fn publish_summary(&mut self, summary: &RunSummary) {
        self.inner.publish_summary(summary);
    }
}
