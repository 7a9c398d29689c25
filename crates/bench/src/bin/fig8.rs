//! Regenerates Figure 8 of the paper. Takes no arguments: Fig. 8 is
//! computed from the table layouts alone, not from a populated
//! database, so it has no population scale.
fn main() {
    pushtap_bench::fig8::print_all();
}
