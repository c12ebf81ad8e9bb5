//! Anchor crate for the workspace-level `examples/` and `tests/`
//! directories (Cargo requires examples and integration tests to belong
//! to a package; this one exists only to host them).

#![forbid(unsafe_code)]
