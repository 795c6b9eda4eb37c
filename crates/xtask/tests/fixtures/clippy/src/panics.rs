//! Fixture: panic-freedom violations.

/// Panics four different ways.
pub fn boom(x: Option<u8>) -> u8 {
    let v = x.unwrap();
    let w = x.expect("present");
    if v == 0 {
        panic!("zero");
    }
    if w == 1 {
        todo!();
    }
    v + w
}

/// Fine: defaulting is not panicking, and `unwrap_or` is not `unwrap`.
pub fn fine(x: Option<u8>) -> u8 {
    x.unwrap_or_default().min(x.unwrap_or(3))
}
