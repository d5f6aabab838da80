fn main() {
    std::process::exit(sumtab_e2e::cli::main(std::env::args().skip(1).collect()));
}
