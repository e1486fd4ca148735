//! Figure 4: example complementary frame pairs, written as viewable PGM
//! images.
//!
//! ```sh
//! cargo run --release --example complementary_pairs
//! ```
//!
//! Writes `fig4_*.pgm` into `target/figures/`: `V+D` and `V−D` for a pure
//! gray frame and for a sunrise frame (the paper's Figure 4 panels), plus
//! their average — which is indistinguishable from the original, the whole
//! point of the design.

use inframe::core::dataframe::DataFrame;
use inframe::core::pattern::{complementary_pair, Complementation};
use inframe::core::{DataLayout, InFrameConfig};
use inframe::frame::{arith, io};
use inframe::video::synth::SunriseClip;
use inframe::video::VideoSource;
use std::path::PathBuf;

fn main() {
    let cfg = InFrameConfig {
        display_w: 480,
        display_h: 360,
        pixel_size: 4,
        block_size: 9,
        blocks_x: 12,
        blocks_y: 10,
        delta: 20.0,
        ..InFrameConfig::paper()
    };
    let layout = DataLayout::from_config(&cfg);
    let payload: Vec<bool> = (0..layout.payload_bits_parity())
        .map(|i| (i * 7) % 3 != 0)
        .collect();
    let data = DataFrame::encode(&layout, &payload, cfg.coding);

    let out_dir = PathBuf::from("target/figures");
    std::fs::create_dir_all(&out_dir).expect("create target/figures");

    let full = |bx: usize, by: usize| if data.bit(bx, by) { 1.0 } else { 0.0 };

    // Panel (a)(b): pure gray frame.
    let gray = inframe::frame::Plane::filled(cfg.display_w, cfg.display_h, 127.0);
    let (plus, minus) = complementary_pair(
        &layout,
        &gray,
        &data,
        cfg.delta,
        Complementation::Code,
        full,
    );
    io::write_pgm(out_dir.join("fig4a_gray_plus.pgm"), &plus).unwrap();
    io::write_pgm(out_dir.join("fig4b_gray_minus.pgm"), &minus).unwrap();
    let avg = arith::zip_map(&plus, &minus, |a, b| (a + b) / 2.0).unwrap();
    io::write_pgm(out_dir.join("fig4_gray_average.pgm"), &avg).unwrap();

    // Panel (c)(d): a normal video frame.
    let mut clip = SunriseClip::new(cfg.display_w, cfg.display_h, 60, 11);
    for _ in 0..29 {
        clip.next_frame();
    }
    let video = clip.next_frame().expect("clip has 60 frames");
    let (vplus, vminus) = complementary_pair(
        &layout,
        &video,
        &data,
        cfg.delta,
        Complementation::Code,
        full,
    );
    io::write_pgm(out_dir.join("fig4c_video_plus.pgm"), &vplus).unwrap();
    io::write_pgm(out_dir.join("fig4d_video_minus.pgm"), &vminus).unwrap();
    let vavg = arith::zip_map(&vplus, &vminus, |a, b| (a + b) / 2.0).unwrap();
    io::write_pgm(out_dir.join("fig4_video_average.pgm"), &vavg).unwrap();
    io::write_pgm(out_dir.join("fig4_video_original.pgm"), &video).unwrap();

    // Quantify what the images show.
    let residual = arith::mae(&vavg, &video).unwrap();
    let artifact = arith::mae(&vplus, &video).unwrap();
    println!("wrote 7 images to {}", out_dir.display());
    println!(
        "single multiplexed frame vs original: MAE {artifact:.2} code values (visible chessboard)"
    );
    println!("pair average vs original:             MAE {residual:.4} code values (imperceptible)");
    println!();
    println!(
        "view with any image tool, e.g.: feh {}/fig4c_video_plus.pgm",
        out_dir.display()
    );
}
