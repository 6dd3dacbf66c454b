//! The one CLI for the whole evaluation section.
//!
//! ```sh
//! cargo run --release -p lcc-core --bin learnability -- list
//! cargo run --release -p lcc-core --bin learnability -- run calibration
//! cargo run --release -p lcc-core --bin learnability -- run all --fidelity full
//! cargo run --release -p lcc-core --bin learnability -- train all
//! ```
//!
//! See `lcc_core::cli` for the full option reference.

fn main() {
    lcc_core::cli::main()
}
