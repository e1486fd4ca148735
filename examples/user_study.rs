//! Figure 6: the simulated flicker-perception user study.
//!
//! ```sh
//! cargo run --release --example user_study
//! ```
//!
//! Runs the full 8-observer study over the paper's two sweeps and prints
//! both panels as data series (mean ± std on the 0–4 scale). Exits
//! non-zero when the figure breaks the paper's shape (δ = 20 satisfactory
//! everywhere; flicker grows with δ and brightness).

use inframe::display::DisplayConfig;
use inframe::sim::fig6;
use std::process::ExitCode;

fn main() -> ExitCode {
    let display = DisplayConfig::eizo_fg2421();
    println!("Figure 6 — flicker perception, 8 simulated observers, 0–4 scale");
    println!("(each condition: worst-case Block flipping every cycle)");
    println!();
    let fig = fig6::run(&display, 2014);

    println!("left panel — flicker vs color brightness (τ = 12):");
    for series in fig.left_series() {
        print!("{}", series.render());
    }
    println!();
    println!("right panel — flicker vs waveform amplitude δ:");
    for series in fig.right_series() {
        print!("{}", series.render());
    }
    println!();
    let violations = fig.check_shape();
    if violations.is_empty() {
        println!("shape check vs paper: PASS (δ=20 satisfactory everywhere; flicker grows with δ and brightness)");
        ExitCode::SUCCESS
    } else {
        println!("shape check vs paper: {} violation(s)", violations.len());
        for v in violations {
            println!("  ! {v}");
        }
        ExitCode::FAILURE
    }
}
