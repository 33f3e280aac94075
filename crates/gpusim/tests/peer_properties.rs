//! Property tests for the peer-copy (`d2d`) primitive.
//!
//! Two contracts a multi-device factorization leans on:
//!
//! 1. **Event semantics** — the event a peer copy returns is *forward-only*
//!    (never earlier than the wait event it was gated on, never earlier than
//!    the issue time) and *transitive* (a chain of copies each waiting on
//!    the previous one yields non-decreasing completion times, across any
//!    device sequence). Because [`Event`] is an absolute simulated
//!    timestamp, cross-device waits compose as a plain `max` — these
//!    properties are what make that composition sound.
//!
//! 2. **Bitwise data fidelity** — a block staged h2d onto one device and
//!    peer-copied to another reads back d2h bitwise identical to the host
//!    source, for arbitrary shapes, strides, and sub-view offsets. The
//!    multi-GPU extend-add path replaces a d2h→host→h2d bounce with exactly
//!    this route, so fidelity here is a prerequisite of the driver's
//!    bitwise-determinism guarantee.

use mf_gpusim::{tesla_t10, xeon_5160_core, DevMat, Event, Gpu, HostClock};
use proptest::prelude::*;

fn host() -> HostClock {
    HostClock::new(xeon_5160_core())
}

/// Deterministic pseudo-random f32 payload (splitmix-style), bit-diverse so
/// equality checks are meaningful.
fn payload(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            // Map to a finite, sign-varied float; keep exponent moderate so
            // the value survives f32 round-trips unchanged (it is f32 end
            // to end anyway — bitwise is bitwise).
            let v = ((state >> 40) as f64 / (1u64 << 24) as f64) - 0.5;
            (v * 1000.0) as f32
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A chain of peer copies bouncing between random devices, each gated
    /// on the previous copy's completion event, yields non-decreasing
    /// completion times; every returned event respects the wait event and
    /// the issue time; and both endpoints' peer engines serialise (their
    /// busy times only grow).
    #[test]
    fn peer_copy_events_are_forward_only_and_transitive(
        ndev in 2usize..5,
        hops in 1usize..12,
        rows in 1usize..40,
        cols in 1usize..12,
        extra_wait in 0u8..2,
        seed in 0u64..1_000_000,
    ) {
        let mut gpus: Vec<Gpu> = (0..ndev).map(|_| Gpu::new(tesla_t10())).collect();
        let mut hc = host();
        let len = rows * cols;
        // One buffer per device, device 0 seeded with data.
        let bufs: Vec<_> = gpus.iter_mut().map(|g| g.alloc(len).unwrap()).collect();
        let src = payload(len, seed);
        let mut ev = {
            let g = &mut gpus[0];
            let view = DevMat::whole(bufs[0], rows);
            let s = g.stream(1);
            g.h2d(s, view, rows, cols, &src, rows, &mut hc);
            g.record_event(s)
        };
        let mut cur = 0usize;
        let mut prev_end = ev.0;
        for hop in 0..hops {
            let nxt = (cur + 1 + (seed as usize + hop) % (ndev - 1)) % ndev;
            // Occasionally gate on an artificially *late* event too: the
            // copy must still be forward-only with respect to it.
            let wait = if extra_wait == 1 && hop == hops / 2 {
                Event(ev.0 + 0.5)
            } else {
                ev
            };
            let sview = DevMat::whole(bufs[cur], rows);
            let dview = DevMat::whole(bufs[nxt], rows);
            let dst_stream = gpus[nxt].stream(2);
            let done = Gpu::p2p(&mut gpus, cur, sview, nxt, dst_stream, dview, rows, cols, wait, &mut hc);
            // Forward-only: completion is strictly after the gate (the link
            // has nonzero latency) and never before the issue point.
            prop_assert!(done.0 > wait.0, "hop {hop}: event {} not after wait {}", done.0, wait.0);
            prop_assert!(done.0 >= hc.now());
            // Transitive: the chain's completion times never go backwards.
            prop_assert!(done.0 >= prev_end, "hop {hop}: chain went backwards");
            // The destination stream observed the copy.
            prop_assert!(gpus[nxt].record_event(dst_stream).0 >= done.0);
            prev_end = done.0;
            ev = done;
            cur = nxt;
        }
        // Peer engines on every device are free no later than the last hop
        // completed (serialisation: the chain is the only peer traffic).
        for g in &gpus {
            prop_assert!(g.peer_busy() <= prev_end + 1e-12);
        }
        // Traffic is accounted on destinations only, once per hop.
        let total: usize = gpus.iter().map(Gpu::peer_bytes).sum();
        prop_assert_eq!(total, hops * rows * cols * 4);
    }

    /// h2d onto device A, peer copy of a sub-view into a padded view on
    /// device B, d2h back out: the block read back is bitwise identical to
    /// the staged source for arbitrary shapes, paddings and offsets.
    #[test]
    fn d2d_after_h2d_roundtrip_is_bitwise(
        rows in 1usize..48,
        cols in 1usize..16,
        src_pad in 0usize..4,
        dst_pad in 0usize..4,
        di in 0usize..3,
        dj in 0usize..3,
        seed in 0u64..1_000_000,
    ) {
        let mut hc = host();
        let mut gpus = vec![Gpu::new(tesla_t10()), Gpu::new(tesla_t10())];
        let lda = rows + src_pad;
        let ldb = rows + di + dst_pad;
        let src = payload(lda * cols, seed);
        let abuf = gpus[0].alloc(lda * cols).unwrap();
        let bbuf = gpus[1].alloc(ldb * (cols + dj)).unwrap();
        let aview = DevMat::whole(abuf, lda);
        let s_up = gpus[0].stream(1);
        gpus[0].h2d(s_up, aview, rows, cols, &src, lda, &mut hc);
        let staged = gpus[0].record_event(s_up);
        // Peer-copy into an offset sub-view of B's padded buffer, gated on
        // the upload event — the route the multi-GPU extend-add takes.
        let bview = DevMat::whole(bbuf, ldb).offset(di, dj);
        let s_peer = gpus[1].stream(2);
        let done = Gpu::p2p(&mut gpus, 0, aview, 1, s_peer, bview, rows, cols, staged, &mut hc);
        prop_assert!(done.0 >= staged.0);
        let mut out = vec![0.0f32; rows * cols];
        let b = &mut gpus[1];
        let s_down = b.stream(1);
        b.wait_event(s_down, done);
        b.d2h(s_down, bview, rows, cols, &mut out, rows, &mut hc);
        for j in 0..cols {
            for i in 0..rows {
                let got = out[i + j * rows].to_bits();
                let want = src[i + j * lda].to_bits();
                prop_assert!(got == want, "({i},{j}) differs bitwise: {got:#x} vs {want:#x}");
            }
        }
    }
}
