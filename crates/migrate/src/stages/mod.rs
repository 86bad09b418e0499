//! The migration pipeline stages, one module per Section 2 issue
//! category.
//!
//! A sheet's object lists and a library's symbol map are copy-on-write
//! chunks ([`interop_core::Shared`]) that the cache's memos of earlier
//! stages still hold. Reaching one through `&mut` copies it, so every
//! stage scans a chunk through `&` first and takes `&mut` only on the
//! chunks it will actually change (`edit_where` does both for the
//! common per-element case).

use interop_core::Shared;

pub mod bus;
pub mod connectors;
pub mod globals;
pub mod props;
pub mod scale;
pub mod symbols;
pub mod text;

/// Runs `edit` on every element of `list` that `needs` selects, and
/// returns how many it ran on. The list is reached through `&mut` — and
/// so copied, if another design still shares it — only when `needs`
/// selects something; `needs` must hold for every element `edit` would
/// change.
pub(crate) fn edit_where<T: Clone>(
    list: &mut Shared<Vec<T>>,
    needs: impl Fn(&T) -> bool,
    mut edit: impl FnMut(&mut T),
) -> usize {
    let Some(first) = list.iter().position(&needs) else {
        return 0;
    };
    let mut edited = 0;
    for item in &mut list[first..] {
        if needs(item) {
            edit(item);
            edited += 1;
        }
    }
    edited
}
