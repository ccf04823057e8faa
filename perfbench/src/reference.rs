//! The frozen reference kernel behind `wall_rel` and `engine.rel`.
//!
//! An M/M/c churn over `std::collections::BinaryHeap` with lazy timer
//! cancellation and its own splitmix64 stream. It shares no code with the
//! simulator, so no change to a snicbench crate can move it: a host timing
//! divided by this kernel's timing, taken in the same process moments
//! apart, cancels the speed of the host and keeps the speed of the code.
//!
//! Never change this file. A changed kernel re-bases every recorded ratio.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Servers of the churn station (M/M/c with c = 8).
const SERVERS: u32 = 8;
/// Waiting-room bound of the station.
const QUEUE: usize = 64;
/// Mean service demand, ns.
const SERVICE_NS: f64 = 6_400.0;
/// Mean arrival gap, ns (utilization ~0.9).
const GAP_NS: f64 = 900.0;
/// Per-job timeout armed at arrival and cancelled at departure.
const TIMEOUT_NS: u64 = 500_000;

const ARRIVAL: u8 = 0;
const DEPARTURE: u8 = 1;
const TIMEOUT: u8 = 2;

/// What one kernel run did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefRun {
    /// Events executed (cancelled timers excluded).
    pub events: u64,
    /// Jobs that departed.
    pub completions: u64,
}

struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// An exponential draw with the given mean, at least 1 ns.
    fn exp_ns(&mut self, mean: f64) -> u64 {
        let u = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
        ((-mean * (1.0 - u).ln()).round() as u64).max(1)
    }
}

/// Drives `arrivals` jobs through the station.
pub fn run(seed: u64, arrivals: u64) -> RefRun {
    let mut rng = SplitMix(seed);
    // (time, sequence, kind, job): the sequence breaks time ties FIFO.
    let mut heap: BinaryHeap<Reverse<(u64, u64, u8, u64)>> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut push = |heap: &mut BinaryHeap<_>, at: u64, kind: u8, job: u64| {
        seq += 1;
        heap.push(Reverse((at, seq, kind, job)));
    };
    let mut cancelled = vec![false; arrivals as usize];
    let mut waiting: VecDeque<(u64, u64)> = VecDeque::new();
    let mut busy = 0u32;
    let mut next_job = 0u64;
    let mut out = RefRun {
        events: 0,
        completions: 0,
    };
    if arrivals > 0 {
        push(&mut heap, 0, ARRIVAL, 0);
    }
    while let Some(Reverse((now, _, kind, job))) = heap.pop() {
        match kind {
            ARRIVAL => {
                let id = next_job;
                next_job += 1;
                let demand = rng.exp_ns(SERVICE_NS);
                push(&mut heap, now + TIMEOUT_NS, TIMEOUT, id);
                if busy < SERVERS {
                    busy += 1;
                    push(&mut heap, now + demand, DEPARTURE, id);
                } else if waiting.len() < QUEUE {
                    waiting.push_back((id, demand));
                } else {
                    cancelled[id as usize] = true;
                }
                if next_job < arrivals {
                    let gap = rng.exp_ns(GAP_NS);
                    push(&mut heap, now + gap, ARRIVAL, 0);
                }
            }
            DEPARTURE => {
                out.completions += 1;
                cancelled[job as usize] = true;
                match waiting.pop_front() {
                    Some((next, demand)) => push(&mut heap, now + demand, DEPARTURE, next),
                    None => busy -= 1,
                }
            }
            _ => {
                if cancelled[job as usize] {
                    continue;
                }
            }
        }
        out.events += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_conserves_jobs() {
        let a = run(7, 20_000);
        assert_eq!(a, run(7, 20_000));
        assert!(a.completions > 19_000 && a.completions <= 20_000);
        // Every arrival is an event; every completion is a departure.
        assert!(a.events >= 20_000 + a.completions);
    }
}
