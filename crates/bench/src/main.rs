//! `ysmart-bench <figure> [--smoke] [--format text|columnar] [--trace [PATH]]
//! [--out DIR]` — see the crate documentation for the figures.

fn main() {
    if let Err(usage) = ysmart_bench::run(std::env::args().skip(1)) {
        eprintln!("{usage}");
        std::process::exit(2);
    }
}
