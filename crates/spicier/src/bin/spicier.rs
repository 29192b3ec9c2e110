//! Command-line SPICE deck runner.
//!
//! ```console
//! $ spicier deck.cir            # run every analysis card, report to stdout
//! ```

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(path) = args.next() else {
        eprintln!("usage: spicier <deck.cir>");
        std::process::exit(2);
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    match spicier::runner::run_deck(&text) {
        Ok((report, _)) => print!("{report}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
