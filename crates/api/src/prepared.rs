//! Prepared queries: a conjunctive query after engine-side preparation.

use std::any::Any;

use wireframe_graph::PredId;
use wireframe_query::canonical::predicate_footprint;
use wireframe_query::{ConjunctiveQuery, QueryGraph};

/// A query prepared by one engine: the resolved [`ConjunctiveQuery`],
/// structural facts the planner derived, and an optional engine-private plan
/// payload.
///
/// The payload is type-erased so that this crate does not depend on any
/// engine's plan representation; engines downcast it back with
/// [`PreparedQuery::plan`]. Engines without a planning phase (the baselines)
/// simply leave it empty.
pub struct PreparedQuery {
    engine: String,
    query: ConjunctiveQuery,
    cyclic: bool,
    footprint: Vec<PredId>,
    payload: Option<Box<dyn Any + Send + Sync>>,
}

impl PreparedQuery {
    /// Prepares `query` for `engine` with no plan payload, computing the
    /// cyclicity of the query graph and its predicate footprint.
    pub fn new(engine: impl Into<String>, query: ConjunctiveQuery) -> Self {
        let cyclic = QueryGraph::new(&query).is_cyclic();
        let footprint = predicate_footprint(&query);
        PreparedQuery {
            engine: engine.into(),
            query,
            cyclic,
            footprint,
            payload: None,
        }
    }

    /// Attaches an engine-private plan payload.
    pub fn with_payload(mut self, payload: impl Any + Send + Sync) -> Self {
        self.payload = Some(Box::new(payload));
        self
    }

    /// The name of the engine that prepared this query.
    pub fn engine(&self) -> &str {
        &self.engine
    }

    /// The underlying conjunctive query.
    pub fn query(&self) -> &ConjunctiveQuery {
        &self.query
    }

    /// Whether the query graph is cyclic.
    pub fn cyclic(&self) -> bool {
        self.cyclic
    }

    /// The sorted, deduplicated predicate identifiers the query touches
    /// (`wireframe_query::canonical::predicate_footprint`). Plan caches use
    /// it to decide which entries a data mutation invalidates.
    pub fn footprint(&self) -> &[PredId] {
        &self.footprint
    }

    /// Downcasts the engine-private plan payload, if one of type `T` is
    /// attached.
    pub fn plan<T: Any>(&self) -> Option<&T> {
        self.payload.as_deref().and_then(|p| p.downcast_ref())
    }
}

impl std::fmt::Debug for PreparedQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedQuery")
            .field("engine", &self.engine)
            .field("cyclic", &self.cyclic)
            .field("has_payload", &self.payload.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wireframe_graph::GraphBuilder;
    use wireframe_query::CqBuilder;

    fn chain_query() -> ConjunctiveQuery {
        let mut b = GraphBuilder::new();
        b.add("a", "p", "b");
        let g = b.build();
        let mut qb = CqBuilder::new(g.dictionary());
        qb.pattern("?x", "p", "?y").unwrap();
        qb.build().unwrap()
    }

    #[test]
    fn accessors_and_payload_roundtrip() {
        let q = chain_query();
        let p = PreparedQuery::new("test", q).with_payload(vec![1usize, 2, 3]);
        assert_eq!(p.engine(), "test");
        assert!(!p.cyclic());
        assert_eq!(p.footprint(), &[PredId(0)], "the single predicate p");
        assert_eq!(p.plan::<Vec<usize>>(), Some(&vec![1usize, 2, 3]));
        assert!(p.plan::<String>().is_none(), "wrong type downcasts to None");
        assert!(format!("{p:?}").contains("has_payload: true"));
    }

    #[test]
    fn no_payload_by_default() {
        let p = PreparedQuery::new("test", chain_query());
        assert!(p.plan::<Vec<usize>>().is_none());
    }
}
