//! Literal zero-allocation proof for the steady-state hot paths (the
//! render on both backends): a counting global allocator wraps the
//! system one, and the single test below (one binary, one test — so no
//! concurrent test can pollute the counter deltas) asserts that
//!
//! * scoring a capture inside an open cycle performs **0 heap
//!   allocations**, and
//! * rendering a displayed frame that is neither a video boundary
//!   (`display_index % 4 == 0`, where the clip source materializes a new
//!   video frame) nor a cycle boundary (`k == 0`, where the next payload
//!   is fetched and encoded) performs **0 heap allocations**, and
//! * the network receiver's per-cycle hot path — MAC frame scanning,
//!   address filtering, per-lane stream reassembly, in-order datagram
//!   delivery — performs **0 heap allocations** once every lane and the
//!   caller's output buffer are warm, and
//! * the feedback/ARQ loop — receiver report build, wire codec, sender
//!   aggregation, mode bookkeeping, selective-repeat queueing — performs
//!   **0 heap allocations** once the per-object records, the NACK fold
//!   and every shard's retransmit ring are warm, and
//! * the live-ops event path — flight-recorder push plus binary wire
//!   encode into the file-backed ring, including the frame commits that
//!   publish to an out-of-process tailer — performs **0 heap
//!   allocations** once the writer's frame buffers are sized, and
//! * a rateless `ObjectDecoder` absorbing systematic, repair and
//!   duplicate symbols performs **0 heap allocations** per symbol; only
//!   the completing symbol allocates, once, for the object, and
//! * presenting a display frame performs **0 heap allocations** once
//!   the stream's frame pool is warm, and capturing a camera frame
//!   performs exactly **1** — the returned plane, and
//! * a parity-mode `DataFrame::encode` at paper geometry performs at
//!   most **2** — the Block grid it returns, and
//! * a parity-mode `dataframe::decode` at paper geometry performs at
//!   most **2** — the value and erasure words of the payload it returns.
//!
//! The display and camera are checked on a one-worker engine: spawning
//! scoped worker threads allocates (a few small blocks per spawn), so a
//! count at two workers would measure the thread library, not the
//! pixel chain.
//!
//! Both paths are proven twice: with the disabled no-op telemetry handle
//! and with a live spine attached — instrumentation resolves its
//! atomics at construction time, so the steady-state hot paths must stay
//! allocation-free even while counters and histograms are recording.
//!
//! The workspace crates `#![deny(unsafe_code)]` (with the intrinsic
//! bodies of `inframe_frame::simd` as the single audited exception);
//! this integration test is its own crate root, and the `unsafe` below
//! is confined to the allocator shim.

use inframe::camera::{Camera, CameraConfig, CaptureGeometry};
use inframe::code::framing::LossyBits;
use inframe::core::batch::{BatchScorer, ScoreClass, SKIP, UNREADABLE};
use inframe::core::config::KernelBackend;
use inframe::core::dataframe::{self, DataFrame};
use inframe::core::demux::{Demultiplexer, RegionCache};
use inframe::core::parallel::ParallelEngine;
use inframe::core::pattern::{self, Complementation};
use inframe::core::sender::{PrbsPayload, Sender};
use inframe::core::{CodingMode, DataLayout, InFrameConfig};
use inframe::display::{DisplayConfig, DisplayStream, FrameEmission};
use inframe::frame::geometry::Homography;
use inframe::frame::perturb::{CaptureTransform, OcclusionRect};
use inframe::frame::simd;
use inframe::frame::Plane;
use inframe::obs::Telemetry;
use inframe::video::synth::SolidClip;
use inframe::video::FrameRate;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// System allocator with an allocation-event counter (dealloc is free to
/// happen — returning buffers must not allocate, releasing them may).
struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocation_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

fn demux_steady_state_is_allocation_free(telemetry: &Telemetry) {
    let cfg = InFrameConfig::small_test();
    let layout = DataLayout::from_config(&cfg);
    let payload: Vec<bool> = (0..layout.payload_bits_parity())
        .map(|i| i % 3 == 0)
        .collect();
    let frame = DataFrame::encode(&layout, &payload, cfg.coding);
    let video = Plane::filled(cfg.display_w, cfg.display_h, 127.0);
    let (plus, minus) = pattern::complementary_pair(
        &layout,
        &video,
        &frame,
        cfg.delta,
        Complementation::Code,
        |bx, by| if frame.bit(bx, by) { 1.0 } else { 0.0 },
    );
    let cache = RegionCache::build(&cfg, &Homography::identity(), cfg.display_w, cfg.display_h);
    let mut demux = Demultiplexer::with_cache(cfg, cache, Arc::new(ParallelEngine::new(1)))
        .with_telemetry(telemetry);
    let d = demux.cycle_duration();
    // Warm-up: fill every reusable buffer and cross one cycle boundary so
    // the retired best-score vector is in the recycle slot.
    demux.push_capture(&plus, 0.05 * d);
    demux.push_capture(&minus, 0.15 * d);
    demux
        .push_capture(&plus, 1.05 * d)
        .expect("cycle 0 completes");
    // Steady state: every further scored capture inside the open cycle
    // must be allocation-free.
    for i in 0..8u32 {
        let t = (1.1 + 0.04 * i as f64) * d;
        let before = allocation_count();
        let completed = demux.push_capture(if i % 2 == 0 { &minus } else { &plus }, t);
        let delta = allocation_count() - before;
        assert!(completed.is_none(), "captures stay inside cycle 1");
        assert_eq!(
            delta,
            0,
            "telemetry {}: capture {i} allocated {delta} times in steady state",
            if telemetry.is_enabled() { "on" } else { "off" }
        );
    }
    let decoded = demux.finish().expect("cycle 1 accumulated");
    assert_eq!(decoded.captures_used, 9);
}

fn batch_steady_state_is_allocation_free() {
    let cfg = InFrameConfig::small_test();
    let layout = DataLayout::from_config(&cfg);
    let payload: Vec<bool> = (0..layout.payload_bits_parity())
        .map(|i| i % 3 == 0)
        .collect();
    let frame = DataFrame::encode(&layout, &payload, cfg.coding);
    let video = Plane::filled(cfg.display_w, cfg.display_h, 127.0);
    let (plus, minus) = pattern::complementary_pair(
        &layout,
        &video,
        &frame,
        cfg.delta,
        Complementation::Code,
        |bx, by| if frame.bit(bx, by) { 1.0 } else { 0.0 },
    );
    let cache = RegionCache::build(&cfg, &Homography::identity(), cfg.display_w, cfg.display_h);
    let mut scorer = BatchScorer::new(cfg, cache, Arc::new(ParallelEngine::new(1)));
    let nb = scorer.num_blocks();
    // A representative class mix: identity, pure AWB shift, a gain step
    // and an occlusion, plus a noised class on the identity variant.
    let transforms = [
        CaptureTransform::IDENTITY,
        CaptureTransform {
            awb_raw: 64,
            ..CaptureTransform::IDENTITY
        },
        CaptureTransform {
            gain_q12: 4352,
            ..CaptureTransform::IDENTITY
        },
        CaptureTransform {
            occlusion: Some(OcclusionRect {
                x0: 8,
                y0: 8,
                w: 24,
                h: 16,
                level_raw: 128 * 128,
            }),
            ..CaptureTransform::IDENTITY
        },
    ];
    let classes = [
        ScoreClass::clean(0),
        ScoreClass::clean(1),
        ScoreClass::clean(2),
        ScoreClass::clean(3),
        ScoreClass {
            transform: 0,
            noise_raw_sq: 1024,
        },
    ];
    let receivers = 64usize;
    let assign: Vec<u32> = (0..receivers)
        .map(|r| if r % 7 == 3 { SKIP } else { (r % 5) as u32 })
        .collect();
    let mut best = vec![UNREADABLE; receivers * nb];
    let mut verdicts = LossyBits::default();
    // Warm-up: size every internal buffer for this class mix.
    scorer.score_classes(&plus, &transforms, &classes);
    scorer.merge_assigned(&assign, &mut best);
    scorer.verdicts_into(&best[..nb], &mut verdicts);
    // Steady state: the whole batched path — scoring, fan-out merge,
    // verdict extraction — must stay off the allocator.
    for i in 0..4u32 {
        let capture = if i % 2 == 0 { &minus } else { &plus };
        let before = allocation_count();
        scorer.score_classes(capture, &transforms, &classes);
        scorer.merge_assigned(&assign, &mut best);
        for r in 0..receivers {
            scorer.verdicts_into(&best[r * nb..(r + 1) * nb], &mut verdicts);
        }
        let delta = allocation_count() - before;
        assert_eq!(
            delta, 0,
            "batch round {i} allocated {delta} times in steady state"
        );
    }
}

fn render_steady_state_is_allocation_free(backend: KernelBackend, telemetry: &Telemetry) {
    let cfg = InFrameConfig {
        kernel: backend,
        ..InFrameConfig::small_test()
    };
    let video = SolidClip::new(
        cfg.display_w,
        cfg.display_h,
        127.0,
        FrameRate(cfg.refresh_hz / 4.0),
    );
    let mut sender = Sender::with_engine(
        cfg,
        video,
        PrbsPayload::new(42),
        Arc::new(ParallelEngine::new(1)),
    )
    .with_telemetry(telemetry);
    // Warm-up: three full cycles populate the frame pool, the amplitude
    // buffers and (on the quantized backend) every envelope step's LUT.
    for _ in 0..(3 * cfg.tau) {
        drop(sender.next_frame().expect("endless clip"));
    }
    let mut checked = 0u32;
    for _ in 0..(2 * cfg.tau) {
        let before = allocation_count();
        let frame = sender.next_frame().expect("endless clip");
        let delta = allocation_count() - before;
        let s = frame.slot;
        drop(frame);
        if s.k != 0 && !s.display_index.is_multiple_of(4) {
            assert_eq!(
                delta,
                0,
                "{backend:?} (telemetry {}): frame {} (k={}) allocated {delta} times",
                if telemetry.is_enabled() { "on" } else { "off" },
                s.display_index,
                s.k
            );
            checked += 1;
        }
    }
    assert!(checked >= 12, "too few steady-state frames checked");
}

fn net_steady_state_is_allocation_free(telemetry: &Telemetry) {
    use inframe::net::mac::{encode_frame_into, FLAG_LAST};
    use inframe::net::{AddressFilter, MacAddr, NetReceiver};

    let layout = DataLayout::from_config(&InFrameConfig::paper());
    let map = inframe::core::region::RegionMap::new(&layout, 5, 3);
    let mut filter = AddressFilter::new(MacAddr::new(0x0042));
    filter.join_group(MacAddr::new(0xFF01));
    let mut rx = NetReceiver::new(map, filter).with_telemetry(telemetry);
    rx.open_stream(0, 64, 64, 1 << 16);
    rx.open_stream(1, 64, 64, 1 << 16);

    // Pre-build every cycle's MAC bundle up front (building allocates;
    // ingesting must not). Each round carries: a two-fragment unicast
    // datagram on stream 0, a broadcast datagram on stream 1, a group
    // datagram on stream 1, and a foreign unicast the filter drops.
    let src = MacAddr::new(0x0001);
    let rounds = 12usize;
    let bundles: Vec<Vec<u8>> = (0..rounds)
        .map(|r| {
            let mut b = Vec::new();
            let own = MacAddr::new(0x0042);
            encode_frame_into(own, src, 0, 0, (2 * r) as u16, &[r as u8; 48], &mut b);
            encode_frame_into(
                own,
                src,
                0,
                FLAG_LAST,
                (2 * r + 1) as u16,
                &[!(r as u8); 16],
                &mut b,
            );
            encode_frame_into(
                MacAddr::BROADCAST,
                src,
                1,
                FLAG_LAST,
                r as u16,
                &[0x5A; 24],
                &mut b,
            );
            encode_frame_into(
                MacAddr::new(0xFF01),
                src,
                1,
                FLAG_LAST,
                r as u16,
                &[0xA5; 24],
                &mut b,
            );
            encode_frame_into(
                MacAddr::new(0x0099),
                src,
                0,
                FLAG_LAST,
                r as u16,
                &[0xEE; 32],
                &mut b,
            );
            b
        })
        .collect();

    let mut out = Vec::new();
    let mut delivered = 0u32;
    // Warm-up: route one round through every lane and size the caller's
    // output buffer to the largest datagram.
    for bundle in &bundles[..4] {
        rx.ingest_bytes(bundle);
        for s in [0u8, 1u8] {
            while rx.pop_datagram(s, &mut out) {
                delivered += 1;
            }
        }
    }
    // Steady state: scanning, filtering, reassembly and delivery all
    // stay off the allocator.
    for (i, bundle) in bundles[4..].iter().enumerate() {
        let before = allocation_count();
        rx.ingest_bytes(bundle);
        for s in [0u8, 1u8] {
            while rx.pop_datagram(s, &mut out) {
                delivered += 1;
            }
        }
        let delta = allocation_count() - before;
        assert_eq!(
            delta,
            0,
            "net round {i} (telemetry {}): hot path allocated {delta} times",
            if telemetry.is_enabled() { "on" } else { "off" }
        );
    }
    // Every round delivers its unicast, broadcast and group datagrams;
    // the foreign one is filtered.
    assert_eq!(delivered, 3 * rounds as u32, "net lanes stalled");
    assert_eq!(rx.frames_filtered(), rounds as u64, "filter count drifted");
}

fn feedback_arq_steady_state_is_allocation_free(telemetry: &Telemetry) {
    use inframe::link::feedback::{FeedbackAggregator, FeedbackReport, ObjectNack};
    use inframe::net::spatial::SpatialMux;
    use inframe::net::{AddressFilter, ArqEngine, ArqMode, ArqPolicy, MacAddr, NetReceiver};

    let layout = DataLayout::from_config(&InFrameConfig::paper());
    let regions = 15usize;

    // Sender side: a spatial carousel carrying one object, the ARQ
    // engine driving its retransmit ring, and the feedback fold.
    let mut mux = SpatialMux::new(inframe::core::region::RegionMap::new(&layout, 5, 3));
    let data: Vec<u8> = (0..2000u32).map(|i| (i * 3) as u8).collect();
    mux.add_object(7, 1, &data);
    let mut arq = ArqEngine::new(ArqPolicy::default()).with_telemetry(telemetry);
    let mut agg = FeedbackAggregator::new(regions);

    // Receiver side: a full network receiver whose per-cycle quality
    // windows feed `build_feedback`.
    let map = inframe::core::region::RegionMap::new(&layout, 5, 3);
    let filter = AddressFilter::new(MacAddr::new(0x0042));
    let mut rx = NetReceiver::new(map, filter).with_telemetry(telemetry);
    rx.open_stream(0, 64, 64, 1 << 16);

    // The synthetic NACK alternates between two disjoint hole sets, so
    // consecutive rounds dodge both the repeat holdoff (different seqs)
    // and the no-progress backoff (4 → 3 holes reads as progress).
    let nack_for = |round: usize| {
        let mut words = [0u64; 4];
        let seqs: &[u32] = if round.is_multiple_of(2) {
            &[1, 3, 5, 7]
        } else {
            &[2, 4, 6]
        };
        for &s in seqs {
            words[s as usize / 64] |= 1 << (s % 64);
        }
        ObjectNack {
            object_id: 7,
            k: 60,
            rank: 50,
            words,
        }
    };

    let mut wire = Vec::new();
    let mut full = LossyBits::default();
    // Warm rounds must outlast two onset effects: the receiver's own
    // NACKs only start once its round frontier clears the
    // frontier-slack gate, and the retransmit round-robin touches each
    // shard's ring (15 of them) for the first time over several rounds.
    let rounds = 20usize;
    let warm = 10usize;
    let mut queued_total = 0u32;
    for round in 0..rounds {
        // Rounds are 12 cycles apart: past the repeat holdoff (8) and
        // the round-0 pacing gate (4 + jitter ≤ 6), so every round's
        // NACK actually reaches the queueing path.
        let cycle = 16 + 12 * round as u64;

        // Channel leg — sender emit, per-GOB erasure on the first
        // region, receiver absorb. This is the modem hot path (measured
        // by the demux/net sections, and `next_cycle_payload` returns an
        // owned frame by design), so it runs outside the counter window;
        // emitting here also drains the retransmit ring each round.
        let payload = mux.next_cycle_payload();
        full.clear();
        payload.iter().for_each(|&b| full.push(Some(b)));
        full.erase(0..full.len() / regions);
        rx.push_cycle(&full);

        // Feedback/ARQ leg — report build, wire codec, aggregation,
        // mode bookkeeping, selective-repeat queueing. After the warm
        // rounds this whole loop must stay off the allocator.
        let before = allocation_count();
        let mut report = rx.build_feedback(cycle);
        report.push_nack(nack_for(round));
        report.encode_into(&mut wire);
        let decoded = FeedbackReport::decode(&wire).expect("round-trip");
        assert!(agg.ingest(&decoded, cycle), "fresh report rejected");
        assert_eq!(arq.on_cycle(cycle, &agg, &mut mux), ArqMode::Closed);
        for i in 0..agg.nacks().len() {
            let (_, n) = agg.nacks()[i];
            queued_total += arq.on_nack(&n, cycle, &mut mux);
        }
        agg.reset_window();
        let delta = allocation_count() - before;
        if round >= warm {
            assert_eq!(
                delta,
                0,
                "feedback/ARQ round {round} (telemetry {}): hot path allocated {delta} times",
                if telemetry.is_enabled() { "on" } else { "off" }
            );
        }
    }
    assert!(
        queued_total >= rounds as u32,
        "ARQ queueing path was not exercised: {queued_total} retransmits"
    );
    assert_eq!(agg.accepted(), rounds as u64, "reports lost in the fold");
}

fn obs_ring_writer_steady_state_is_allocation_free() {
    use inframe::obs::event::Event;
    use inframe::obs::{ObsConfig, RingConfig, RingWriter};

    let dir = std::env::temp_dir().join(format!("inframe_alloc_ring_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("ring.bin");
    let tele = Telemetry::with_config(ObsConfig {
        recorder_capacity: 64,
    });
    // Minimum-size frames so the steady-state window crosses many frame
    // commits (encode + CRC + two file writes), not just buffer appends.
    let writer = RingWriter::create(
        &path,
        RingConfig {
            frame_size: 256,
            frame_count: 8,
        },
    )
    .expect("create ring");
    tele.attach_ring(writer);
    // Warm-up: exercise every event shape once (sizing the recorder ring
    // slots) and cross at least one frame commit.
    for cycle in 0..16u64 {
        tele.event(Event::CycleRendered { cycle });
        tele.event(Event::CycleDecoded {
            cycle,
            ok: 700,
            erroneous: 3,
            unavailable: 40,
            captures: 9,
        });
        tele.event(Event::ObjectComplete {
            object: 7,
            cycle,
            eps_milli: 125,
        });
    }
    tele.flush_ring();
    // Steady state: recorder push + wire encode + frame commit all stay
    // off the allocator.
    for cycle in 16..64u64 {
        let before = allocation_count();
        tele.event(Event::CycleRendered { cycle });
        tele.event(Event::CycleDecoded {
            cycle,
            ok: 700,
            erroneous: 3,
            unavailable: 40,
            captures: 9,
        });
        tele.event(Event::ObjectComplete {
            object: 7,
            cycle,
            eps_milli: 125,
        });
        tele.flush_ring();
        let delta = allocation_count() - before;
        assert_eq!(
            delta, 0,
            "obs ring cycle {cycle}: event path allocated {delta} times in steady state"
        );
    }
    let writer = tele.detach_ring().expect("ring attached");
    assert_eq!(writer.events_appended(), 3 * 64, "events lost on the way");
    assert_eq!(tele.summary().events_dropped, 0, "hot path dropped events");
    let _ = std::fs::remove_dir_all(&dir);
}

fn object_decoder_steady_state_allocations() {
    use inframe::link::rlc::{Absorb, ObjectDecoder, RlcEncoder};

    // A 10 KB object in 52-byte symbols (K = 193, the paper RS{10}
    // symbol size) and a lossy stream that mixes every kind of symbol:
    // a systematic pass with every fourth symbol lost, a duplicate after
    // every tenth, then repair symbols with a late copy of a lost
    // systematic symbol and a duplicate repair symbol between them.
    let data: Vec<u8> = (0..10_000u32).map(|i| (i * 37 + i / 251) as u8).collect();
    let enc = RlcEncoder::new(9, &data, 52);
    let k = enc.k() as u32;
    let mut stream = Vec::new();
    for seq in 0..k {
        if seq % 4 != 1 {
            stream.push(enc.symbol(seq));
        }
        if seq % 10 == 0 {
            stream.push(enc.symbol(seq));
        }
    }
    let mut late = (1..k).step_by(4);
    for seq in k..2 * k {
        stream.push(enc.symbol(seq));
        let extra = if seq % 2 == 0 { late.next() } else { None };
        stream.push(enc.symbol(extra.unwrap_or(seq)));
    }
    let mut dec = ObjectDecoder::for_symbol(&stream[0]);
    let mut seen = [0u32; 2];
    for (i, symbol) in stream.iter().enumerate() {
        let before = allocation_count();
        let outcome = dec.absorb(symbol);
        let delta = allocation_count() - before;
        if dec.is_complete() && outcome == Absorb::Innovative {
            // The completing symbol allocates the object, once.
            assert!(delta <= 1, "completing symbol {i} allocated {delta} times");
            break;
        }
        assert_eq!(delta, 0, "symbol {i} ({outcome:?}) allocated {delta} times");
        seen[(symbol.header.seq >= k) as usize] += 1;
    }
    assert_eq!(dec.object(), Some(&data[..]));
    assert!(dec.redundant() > 0, "no duplicate was absorbed");
    assert!(
        seen[0] > 0 && seen[1] > 0,
        "both symbol kinds must be absorbed: {seen:?}"
    );
}

fn dataframe_decode_allocations() {
    // Paper geometry (375 GOBs), parity coding, with erased and flipped
    // Blocks so every GOB outcome occurs: the decode allocates only the
    // words of the payload it returns.
    let layout = DataLayout::from_config(&InFrameConfig::paper());
    let payload: Vec<bool> = (0..layout.payload_bits_parity())
        .map(|i| i % 5 < 2)
        .collect();
    let frame = DataFrame::encode(&layout, &payload, CodingMode::Parity);
    let received: LossyBits = (0..layout.num_blocks())
        .map(|i| {
            let bit = frame.bit(i % layout.blocks_x, i / layout.blocks_x);
            (i % 97 != 0).then_some(bit ^ (i % 89 == 0))
        })
        .collect();
    for _ in 0..3 {
        let before = allocation_count();
        let (bits, stats) = dataframe::decode(&layout, &received, CodingMode::Parity);
        let delta = allocation_count() - before;
        assert!(
            stats.unavailable > 0 && stats.erroneous > 0,
            "every outcome: {stats:?}"
        );
        assert!(delta <= 2, "decode allocated {delta} times");
        drop(bits);
    }
}

fn dataframe_encode_allocations() {
    // Paper geometry (375 GOBs), parity coding: the encode allocates only
    // the Block grid it returns.
    let layout = DataLayout::from_config(&InFrameConfig::paper());
    let payload: Vec<bool> = (0..layout.payload_bits_parity())
        .map(|i| i % 7 < 3)
        .collect();
    for _ in 0..3 {
        let before = allocation_count();
        let frame = DataFrame::encode(&layout, &payload, CodingMode::Parity);
        let delta = allocation_count() - before;
        assert!(delta <= 2, "encode allocated {delta} times");
        drop(frame);
    }
}

fn display_and_camera_steady_state_allocations() {
    // Quick geometry: a 240×168 panel and the 12-band Lumia-like camera
    // at 160×112, noise and optics blur on.
    let engine = Arc::new(ParallelEngine::new(1));
    let mut display = DisplayStream::with_engine(DisplayConfig::eizo_fg2421(), Arc::clone(&engine));
    let camera_config = CameraConfig {
        width: 160,
        height: 112,
        shutter_bands: 12,
        ..CameraConfig::lumia_1020()
    };
    let mut camera = Camera::with_engine(camera_config, CaptureGeometry::Fronto, 7, engine);
    let frames: Vec<Plane<f32>> = (0..2)
        .map(|i| Plane::from_fn(240, 168, |x, y| ((x * 7 + y * 3 + i * 40) % 200) as f32))
        .collect();
    // The capture pump's window, with room reserved so holding
    // emissions never allocates.
    let mut window: Vec<FrameEmission> = Vec::with_capacity(16);
    let mut captures = 0u32;
    for i in 0..40usize {
        let before = allocation_count();
        let emission = display.present(&frames[i % 2]);
        let delta = allocation_count() - before;
        // Warm-up: the pool reaches its high-water mark once the window
        // holds a full exposure's emissions and drops the oldest.
        if i >= 8 {
            assert_eq!(delta, 0, "present {i} allocated {delta} times");
        }
        let end = emission.t_start + emission.duration;
        window.push(emission);
        while camera.required_window().1 <= end {
            let need_start = camera.required_window().0;
            window.retain(|e| e.t_start + e.duration > need_start + 1e-12);
            let before = allocation_count();
            let capture = camera.capture(&window).expect("window is covered");
            let delta = allocation_count() - before;
            // The first capture builds the tap tables and band buffers.
            if captures > 0 {
                assert_eq!(
                    delta, 1,
                    "capture {captures} allocated {delta} times (want only its plane)"
                );
            }
            drop(capture);
            captures += 1;
        }
    }
    assert!(captures >= 8, "too few captures checked: {captures}");
}

#[test]
fn steady_state_hot_paths_allocate_nothing() {
    // Every supported SIMD dispatch tier must preserve the guarantee —
    // the vector kernels write through caller-provided buffers only.
    // (The reference render ignores the level; looping it anyway also
    // proves the dispatch check itself stays off the allocator.)
    for level in simd::SimdLevel::supported() {
        simd::force_level(Some(level));
        for telemetry in [Telemetry::disabled(), Telemetry::new()] {
            demux_steady_state_is_allocation_free(&telemetry);
            for backend in [KernelBackend::Reference, KernelBackend::Quantized] {
                render_steady_state_is_allocation_free(backend, &telemetry);
            }
        }
        batch_steady_state_is_allocation_free();
    }
    simd::force_level(None);
    // The rateless decoder's row kernels dispatch on the SIMD level.
    for level in simd::SimdLevel::supported() {
        simd::force_level(Some(level));
        object_decoder_steady_state_allocations();
    }
    simd::force_level(None);
    // The network hot path is pure byte processing — kernel backend and
    // SIMD tier can't reach it, so once (per telemetry mode) suffices.
    for telemetry in [Telemetry::disabled(), Telemetry::new()] {
        net_steady_state_is_allocation_free(&telemetry);
        feedback_arq_steady_state_is_allocation_free(&telemetry);
    }
    // Likewise for the live-ops event path — pure byte processing over
    // preallocated buffers.
    obs_ring_writer_steady_state_is_allocation_free();
    // The pixel chain between sender and demultiplexer.
    display_and_camera_steady_state_allocations();
    // The PHY encode of one cycle's payload and decode of its verdicts.
    dataframe_encode_allocations();
    dataframe_decode_allocations();
}
