//! Per-object query state (Section 4.2, Appendix B).
//!
//! Global query processing maintains computation state for each object; when
//! the object moves to another site, this state is shipped along (or written
//! to the tag's memory). The state of one object for one query consists of
//! (i) the automaton state, (ii) the minimum values needed for future
//! evaluation and (iii) the values the query returns — all captured by the
//! [`AutomatonState`] inside [`ObjectQueryState`].

use crate::pattern::AutomatonState;
use rfid_types::TagId;

/// The migratable query state of one object for one registered query.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectQueryState {
    /// The query this state belongs to.
    pub query: String,
    /// The object this state belongs to.
    pub tag: TagId,
    /// The automaton state (including collected return values).
    pub automaton: AutomatonState,
}
