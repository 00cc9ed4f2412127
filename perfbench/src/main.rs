use std::process::ExitCode;

fn main() -> ExitCode {
    ysmart_perfbench::cli()
}
