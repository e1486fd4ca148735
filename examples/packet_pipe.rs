//! Datagram bridge: pipe addressed packets through the full network
//! stack — streams → MAC frames → fountain objects → spatial carousel
//! shards → cycle payloads — and back out of three receivers with
//! different address filters.
//!
//! ```sh
//! INFRAME_OBS=1 cargo run --release --example packet_pipe -- [CYCLES]
//! ```
//!
//! Station `A` (0x0042) gets a unicast file on the bulk stream, the
//! `FF01` group gets a ticker on the interactive stream, and everyone
//! gets a broadcast beacon — all multiplexed onto one display channel.
//! A fourth station with a foreign address shows the filters holding:
//! it decodes nothing beyond what its admission mask lets through.

use inframe::code::framing::LossyBits;
use inframe::core::layout::DataLayout;
use inframe::core::region::RegionMap;
use inframe::core::InFrameConfig;
use inframe::net::stream::DeadlineClass;
use inframe::net::{AddressFilter, MacAddr, NetReceiver, NetSender, StreamQos};
use inframe::obs::Telemetry;

const STREAM_BULK: u8 = 0;
const STREAM_TICKER: u8 = 1;
const STREAM_BEACON: u8 = 2;

fn main() {
    let cycles: u32 = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(400);

    let layout = DataLayout::from_config(&InFrameConfig::paper());
    let map = RegionMap::new(&layout, 5, 3);
    let tele = Telemetry::from_env();

    let mut tx = NetSender::new(map.clone(), MacAddr::new(0x0001)).with_telemetry(&tele);
    tx.open_stream(
        STREAM_BULK,
        StreamQos {
            priority: 1,
            weight: 1,
            deadline: DeadlineClass::Bulk,
        },
        64,
    );
    tx.open_stream(
        STREAM_TICKER,
        StreamQos {
            priority: 2,
            weight: 2,
            deadline: DeadlineClass::Interactive,
        },
        64,
    );
    tx.open_stream(
        STREAM_BEACON,
        StreamQos {
            priority: 1,
            weight: 1,
            deadline: DeadlineClass::Realtime,
        },
        32,
    );

    let file: Vec<u8> = (0..2000u32).map(|i| (i * 17 + 5) as u8).collect();
    tx.send_datagram(STREAM_BULK, MacAddr::new(0x0042), &file);
    tx.send_datagram(STREAM_TICKER, MacAddr::new(0xFF01), b"HOME 3 : 1 AWAY");
    tx.send_datagram(
        STREAM_BEACON,
        MacAddr::BROADCAST,
        b"station-id=lobby-display",
    );
    // Flush explicitly to learn the object ids (stream order: bulk,
    // ticker, beacon) — the small objects get retired once delivered so
    // the bulk transfer reclaims their carousel share.
    let ids = tx.flush();
    let (ticker_id, beacon_id) = (ids[1], ids[2]);

    let station = |own: u16, group: Option<u16>| -> NetReceiver {
        let mut filter = AddressFilter::new(MacAddr::new(own));
        if let Some(g) = group {
            filter.join_group(MacAddr::new(g));
        }
        let mut rx = NetReceiver::new(map.clone(), filter).with_telemetry(&tele);
        for s in [STREAM_BULK, STREAM_TICKER, STREAM_BEACON] {
            rx.open_stream(s, 128, 64, 1 << 16);
        }
        rx
    };
    let mut rx_a = station(0x0042, None); // unicast target
    let mut rx_b = station(0x0043, Some(0xFF01)); // group member
    let mut rx_c = station(0x0044, None); // bystander: broadcast only

    let mut out = Vec::new();
    let mut got_file = None;
    let mut beacons = 0u32;
    let mut got_ticker = false;
    for cycle in 0..cycles {
        let payload = tx.next_cycle_payload();
        let seen: LossyBits = payload.iter().map(|&b| Some(b)).collect();
        for rx in [&mut rx_a, &mut rx_b, &mut rx_c] {
            rx.push_cycle(&seen);
        }
        if got_file.is_none() && rx_a.pop_datagram(STREAM_BULK, &mut out) {
            got_file = Some(cycle);
            assert_eq!(out, file, "file must arrive bit-identical");
        }
        while rx_b.pop_datagram(STREAM_TICKER, &mut out) {
            got_ticker = true;
            println!(
                "cycle {cycle:3}  [B ticker] {}",
                String::from_utf8_lossy(&out)
            );
        }
        for (name, rx) in [("A", &mut rx_a), ("B", &mut rx_b), ("C", &mut rx_c)] {
            while rx.pop_datagram(STREAM_BEACON, &mut out) {
                beacons += 1;
                println!(
                    "cycle {cycle:3}  [{name} beacon] {}",
                    String::from_utf8_lossy(&out)
                );
            }
        }
        // Content churn: drop delivered objects off the carousel so the
        // remaining transfer gets the whole symbol schedule.
        if got_ticker && tx.retire_object(ticker_id) {
            println!("cycle {cycle:3}  ticker object retired");
        }
        if beacons == 3 && tx.retire_object(beacon_id) {
            println!("cycle {cycle:3}  beacon object retired");
        }
    }

    match got_file {
        Some(c) => println!(
            "unicast file ({} bytes) delivered to A at cycle {c}",
            file.len()
        ),
        None => panic!("file never delivered within {cycles} cycles"),
    }
    for (name, rx) in [("A", &rx_a), ("B", &rx_b), ("C", &rx_c)] {
        println!(
            "station {name}: frames rx/filtered {}/{}, symbols pre-filtered {}, bytes {}",
            rx.frames_rx(),
            rx.frames_filtered(),
            rx.symbols_filtered(),
            [STREAM_BULK, STREAM_TICKER, STREAM_BEACON]
                .iter()
                .map(|&s| rx.stream_delivered_bytes(s))
                .sum::<u64>(),
        );
    }
    // The bystander must never see the unicast or group traffic.
    assert_eq!(rx_c.stream_delivered_bytes(STREAM_BULK), 0);
    assert_eq!(rx_c.stream_delivered_bytes(STREAM_TICKER), 0);
    assert!(rx_c.stream_delivered_bytes(STREAM_BEACON) > 0);

    if tele.is_enabled() {
        let summary = tele.summary();
        println!("summary: {}", summary.to_json());
    }
}
