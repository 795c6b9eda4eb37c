use std::fmt::Debug;

pub struct Undocumented;

/// Documented.
pub struct Fine;

pub fn also_undocumented() -> impl Debug {}
