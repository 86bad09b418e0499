//! The migration pipeline stages, one module per Section 2 issue
//! category.

pub mod bus;
pub mod connectors;
pub mod globals;
pub mod props;
pub mod scale;
pub mod symbols;
pub mod text;
