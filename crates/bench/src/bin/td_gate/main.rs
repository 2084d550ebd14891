//! `td_gate <name>`: runs one of the CI gates that hold the system to the
//! paper's claims, and fails (panics) on the first broken check.
//!
//! ```text
//! cargo run --release -p td-bench --bin td_gate -- chaos_smoke
//! ```
//!
//! Exactly one gate runs per process. The gates lean on process-wide
//! state (fault plans, the flight recorder's dump cap, `TD_FLIGHT_DIR`,
//! which `obs_smoke` sets, and each thread's cached `TD_TRACE` lookup),
//! so a fresh process per gate keeps them apart.
//! `scripts/ci.sh` runs every gate, one step each; what they share lives
//! in `td_bench::gate`.

/// One module per gate, each with a `pub fn run()`, and the name table
/// `main` dispatches on.
macro_rules! gates {
    ($($gate:ident),* $(,)?) => {
        $(mod $gate;)*
        const GATES: &[(&str, fn())] = &[$((stringify!($gate), $gate::run)),*];
    };
}

gates!(
    trace_smoke,
    sched_smoke,
    journal_smoke,
    chaos_smoke,
    obs_smoke,
    fuzz_smoke,
    serve_smoke,
    serve_obs,
);

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match GATES.iter().find(|(name, _)| args == [*name]) {
        Some((_, run)) => {
            // Injected faults panic by design, and the gates contain and
            // assert on those panics; any other panic is reported.
            let report = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let message = info.payload_as_str().unwrap_or_default();
                if !message.starts_with("injected ") {
                    report(info);
                }
            }));
            run();
        }
        None => {
            let names: Vec<&str> = GATES.iter().map(|(name, _)| *name).collect();
            eprintln!("usage: td_gate <{}>", names.join("|"));
            std::process::exit(2);
        }
    }
}
