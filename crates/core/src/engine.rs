//! The Wireframe engine: the two-phase, cost-based evaluator.
//!
//! [`WireframeEngine::execute`] runs the full pipeline of the paper's
//! prototype: plan the edge order (the Edgifier), generate the answer graph
//! (edge extension + node burnback, optionally followed by triangulation and
//! edge burnback for cyclic queries), then defactorize the answer graph into
//! embedding tuples and apply the query's projection.

use std::time::Instant;

use wireframe_api::{
    Engine, Evaluation, Factorized, MaintainedView, PreparedQuery, WireframeError,
};
use wireframe_graph::Graph;
use wireframe_query::{ConjunctiveQuery, EmbeddingSet, QueryGraph};

use crate::answer_graph::AnswerGraph;
use crate::config::EvalOptions;
use crate::defactorize::DefactorizationStats;
use crate::error::EngineError;
use crate::explain::explain_output;
use crate::generate::{generate, GenerationStats};
use crate::maintain::MaterializedQuery;
use crate::planner::{plan, Plan};
use crate::triangulate::{edge_burnback, triangulate, EdgeBurnbackStats};

pub use wireframe_api::Timings;

/// The complete result of evaluating one query: the retained, maintainable
/// [`MaterializedQuery`] view (plan + answer graph + provenance index) plus
/// the phase-two products derived from it.
#[derive(Debug, Clone)]
pub struct QueryOutput {
    /// The factorized artifact: plan, answer graph, per-pattern-edge
    /// provenance index, and maintenance state. [`QueryOutput::into_view`]
    /// extracts it for retention; serving layers maintain it under data
    /// mutations instead of re-evaluating.
    pub view: MaterializedQuery,
    /// Statistics of defactorization.
    pub defactorization: DefactorizationStats,
    /// The projected embeddings (the query's answer).
    pub embeddings: EmbeddingSet,
    /// Per-phase wall-clock timings.
    pub timings: Timings,
}

impl QueryOutput {
    /// The phase-one plan that was executed.
    pub fn plan(&self) -> &Plan {
        self.view.plan()
    }

    /// The answer graph after generation (and edge burnback, if enabled).
    pub fn answer_graph(&self) -> &AnswerGraph {
        self.view.answer_graph()
    }

    /// Statistics of answer-graph generation.
    pub fn generation(&self) -> &GenerationStats {
        self.view.generation()
    }

    /// Statistics of edge burnback (all zeros when it did not run).
    pub fn edge_burnback(&self) -> &EdgeBurnbackStats {
        self.view.edge_burnback()
    }

    /// Whether the query graph is cyclic.
    pub fn cyclic(&self) -> bool {
        self.view.cyclic()
    }

    /// Total answer-graph size (the |AG| / |iAG| column of Table 1).
    pub fn answer_graph_size(&self) -> usize {
        self.view.answer_graph().total_edges()
    }

    /// Number of embeddings in the answer (the |Embeddings| column of Table 1).
    pub fn embedding_count(&self) -> usize {
        self.embeddings.len()
    }

    /// The projected embeddings.
    pub fn embeddings(&self) -> &EmbeddingSet {
        &self.embeddings
    }

    /// Extracts the retained view, discarding the per-call products (the
    /// embeddings are re-derivable from the view on demand).
    pub fn into_view(self) -> MaterializedQuery {
        self.view
    }

    /// Converts this rich output into the uniform [`Evaluation`] of the
    /// workspace-wide [`Engine`] API. The `metrics` list is derived from the
    /// [`Factorized`] artifacts so the two views can never drift apart.
    pub fn into_evaluation(self, explain: Option<String>) -> Evaluation {
        let factorized = Factorized {
            answer_graph_edges: self.view.answer_graph().total_edges(),
            plan_order: self.view.plan().order.clone(),
            edge_walks: self.view.generation().edge_walks,
            edges_burned: self.view.generation().edges_burned,
            nodes_burned: self.view.generation().nodes_burned,
            edge_burnback_removed: self.view.edge_burnback().edges_removed,
        };
        let metrics = factorized.metrics(
            self.defactorization.peak_intermediate as u64,
            self.defactorization.join_order.len() as u64,
        );
        Evaluation {
            engine: "wireframe".to_owned(),
            epochs: Vec::new(),
            cyclic: self.view.cyclic(),
            embeddings: self.embeddings,
            timings: self.timings,
            factorized: Some(factorized),
            metrics,
            explain,
            maintenance: None,
            limited: None,
        }
    }
}

/// The Wireframe query engine over one graph.
#[derive(Debug, Clone, Copy)]
pub struct WireframeEngine<'g> {
    graph: &'g Graph,
    options: EvalOptions,
}

impl<'g> WireframeEngine<'g> {
    /// Creates an engine with the paper's default configuration.
    pub fn new(graph: &'g Graph) -> Self {
        WireframeEngine {
            graph,
            options: EvalOptions::default(),
        }
    }

    /// Creates an engine with explicit evaluation options.
    pub fn with_options(graph: &'g Graph, options: EvalOptions) -> Self {
        WireframeEngine { graph, options }
    }

    /// The graph this engine evaluates against.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// The evaluation options in effect.
    pub fn options(&self) -> &EvalOptions {
        &self.options
    }

    /// Plans the phase-one edge order without executing anything.
    pub fn plan(&self, query: &ConjunctiveQuery) -> Result<Plan, EngineError> {
        plan(self.graph, query, self.options.planner)
    }

    /// Runs only phase one: plans and generates the answer graph.
    /// Useful for benchmarks that study factorization in isolation.
    pub fn answer_graph(
        &self,
        query: &ConjunctiveQuery,
    ) -> Result<(AnswerGraph, GenerationStats, Plan), EngineError> {
        let plan = self.plan(query)?;
        let (mut ag, stats) = generate(self.graph, query, &plan.order, &self.options)?;
        if self.options.edge_burnback {
            let chordification = triangulate(query);
            edge_burnback(query, &mut ag, &chordification);
        }
        Ok((ag, stats, plan))
    }

    /// Evaluates `query` end to end: plan, generate the answer graph,
    /// defactorize, project.
    pub fn execute(&self, query: &ConjunctiveQuery) -> Result<QueryOutput, EngineError> {
        let t = Instant::now();
        let plan = self.plan(query)?;
        let planning = t.elapsed();
        let mut out = self.execute_with_plan(query, &plan)?;
        out.timings.planning += planning;
        Ok(out)
    }

    /// Runs phase one with a precomputed plan and wraps the result into a
    /// retained [`MaterializedQuery`] view, returning the phase-one timings
    /// alongside. This is the shared trunk of [`execute_with_plan`]
    /// (which defactorizes immediately) and the [`Engine::materialize`]
    /// capability (which retains the view for incremental maintenance).
    ///
    /// [`execute_with_plan`]: WireframeEngine::execute_with_plan
    pub fn materialize_with_plan(
        &self,
        query: &ConjunctiveQuery,
        plan: &Plan,
    ) -> Result<(MaterializedQuery, Timings), EngineError> {
        let mut timings = Timings::default();

        let t0 = Instant::now();
        let plan = plan.clone();
        let qg = QueryGraph::new(query);
        let cyclic = qg.is_cyclic();
        let chordification = if cyclic && self.options.edge_burnback {
            Some(triangulate(query))
        } else {
            None
        };
        timings.planning = t0.elapsed();

        let t1 = Instant::now();
        let (mut ag, generation) = generate(self.graph, query, &plan.order, &self.options)?;
        timings.answer_graph = t1.elapsed();

        let mut eb_stats = EdgeBurnbackStats::default();
        if let Some(chordification) = &chordification {
            let t2 = Instant::now();
            eb_stats = edge_burnback(query, &mut ag, chordification);
            timings.edge_burnback = t2.elapsed();
        }

        let view = MaterializedQuery::from_phase_one(
            query.clone(),
            plan,
            cyclic,
            ag,
            generation,
            eb_stats,
            self.options,
        );
        Ok((view, timings))
    }

    /// Evaluates `query` with a precomputed phase-one plan (for example one
    /// cached by a `Session` prepared query), skipping the Edgifier.
    pub fn execute_with_plan(
        &self,
        query: &ConjunctiveQuery,
        plan: &Plan,
    ) -> Result<QueryOutput, EngineError> {
        let (view, mut timings) = self.materialize_with_plan(query, plan)?;

        // Phase two runs through the view's on-demand defactorizer (the
        // parallel path falls back to sequential for small inputs and is
        // answer-identical by construction, verified by tests).
        let t3 = Instant::now();
        let (embeddings, defact_stats) = view.defactorize()?;
        timings.defactorization = t3.elapsed();
        timings.defactorization_cpu = defact_stats.cpu;

        Ok(QueryOutput {
            view,
            defactorization: defact_stats,
            embeddings,
            timings,
        })
    }
}

impl Engine for WireframeEngine<'_> {
    fn name(&self) -> &'static str {
        "wireframe"
    }

    /// Runs the Edgifier and attaches the resulting [`Plan`] to the prepared
    /// query, so cached preparations skip planning on re-evaluation.
    fn prepare(&self, query: &ConjunctiveQuery) -> Result<PreparedQuery, WireframeError> {
        let plan = self.plan(query)?;
        Ok(PreparedQuery::new(self.name(), query.clone()).with_payload(plan))
    }

    fn evaluate(&self, prepared: &PreparedQuery) -> Result<Evaluation, WireframeError> {
        self.check_prepared(prepared)?;
        let query = prepared.query();
        let out = match prepared.plan::<Plan>() {
            Some(plan) => self.execute_with_plan(query, plan)?,
            None => self.execute(query)?,
        };
        let explain = self
            .options
            .explain
            .then(|| explain_output(self.graph, query, &out));
        let mut ev = out.into_evaluation(explain);
        ev.apply_limit(self.options.limit);
        Ok(ev)
    }

    /// The Wireframe engine maintains: its retained artifact (the answer
    /// graph at the node-burnback fixpoint) is updated in `O(delta)` by
    /// [`MaterializedQuery::maintain`].
    fn supports_maintenance(&self) -> bool {
        true
    }

    /// As configured: under edge burnback the answer graph of a cyclic
    /// query is pruned below the node-burnback fixpoint, so those views are
    /// not maintainable and `maintainable_cyclic` drops out.
    fn capabilities(&self) -> wireframe_api::EngineCapabilities {
        wireframe_api::EngineCapabilities {
            cyclic: true,
            factorizes: true,
            maintainable: true,
            maintainable_cyclic: !self.options.edge_burnback,
            parallel_defactorize: true,
            sharded_merge: true,
        }
    }

    /// Runs phase one and retains the result as a maintainable view.
    /// Returns `Ok(None)` for configurations whose answer graph is pruned
    /// below the node-burnback fixpoint (cyclic query with
    /// [`EvalOptions::edge_burnback`] enabled) — those must be re-evaluated,
    /// not maintained.
    fn materialize(
        &self,
        prepared: &PreparedQuery,
    ) -> Result<Option<Box<dyn MaintainedView>>, WireframeError> {
        self.check_prepared(prepared)?;
        // Maintainability is a property of the query shape and the engine
        // options alone — decline *before* paying phase one, so callers
        // that fall back to plain evaluation run the pipeline exactly once.
        if self.options.edge_burnback && prepared.cyclic() {
            return Ok(None);
        }
        let query = prepared.query();
        let owned_plan;
        let plan = match prepared.plan::<Plan>() {
            Some(plan) => plan,
            None => {
                owned_plan = self.plan(query)?;
                &owned_plan
            }
        };
        let (view, _timings) = self.materialize_with_plan(query, plan)?;
        debug_assert!(view.is_maintainable());
        Ok(Some(Box::new(view)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PlannerKind;
    use std::time::Duration;
    use wireframe_graph::GraphBuilder;
    use wireframe_query::{parse_query, CqBuilder};

    fn figure1_graph() -> Graph {
        let mut b = GraphBuilder::new();
        b.add("1", "A", "5");
        b.add("2", "A", "5");
        b.add("3", "A", "5");
        b.add("4", "A", "6");
        b.add("5", "B", "9");
        b.add("7", "B", "10");
        for o in ["12", "13", "14", "15"] {
            b.add("9", "C", o);
        }
        b.add("11", "C", "15");
        b.build()
    }

    #[test]
    fn figure1_end_to_end() {
        let g = figure1_graph();
        let q = parse_query(
            "SELECT ?w ?x ?y ?z WHERE { ?w :A ?x . ?x :B ?y . ?y :C ?z . }",
            g.dictionary(),
        )
        .unwrap();
        let engine = WireframeEngine::new(&g);
        let out = engine.execute(&q).unwrap();
        assert_eq!(out.answer_graph_size(), 8);
        assert_eq!(out.embedding_count(), 12);
        assert!(!out.cyclic());
        assert_eq!(out.embeddings().schema().len(), 4);
        assert!(out.timings.total() > Duration::ZERO);
    }

    #[test]
    fn projection_and_distinct_are_applied() {
        let g = figure1_graph();
        let q = parse_query(
            "SELECT DISTINCT ?x WHERE { ?w :A ?x . ?x :B ?y . }",
            g.dictionary(),
        )
        .unwrap();
        let out = WireframeEngine::new(&g).execute(&q).unwrap();
        assert_eq!(
            out.embedding_count(),
            1,
            "only node 5 both receives A and has B"
        );
        assert_eq!(out.embeddings().schema().len(), 1);
    }

    #[test]
    fn empty_answer() {
        let g = figure1_graph();
        let mut qb = CqBuilder::new(g.dictionary());
        qb.pattern("?x", "C", "?y").unwrap();
        qb.pattern("?y", "A", "?z").unwrap(); // nothing follows a C edge with an A edge
        let q = qb.build().unwrap();
        let out = WireframeEngine::new(&g).execute(&q).unwrap();
        assert_eq!(out.embedding_count(), 0);
        assert_eq!(out.answer_graph_size(), 0);
    }

    #[test]
    fn disconnected_query_is_rejected() {
        let g = figure1_graph();
        let mut qb = CqBuilder::new(g.dictionary());
        qb.pattern("?a", "A", "?b").unwrap();
        qb.pattern("?c", "C", "?d").unwrap();
        let q = qb.build().unwrap();
        assert_eq!(
            WireframeEngine::new(&g).execute(&q).unwrap_err(),
            EngineError::DisconnectedQuery
        );
    }

    #[test]
    fn all_planners_agree_on_the_answer() {
        let g = figure1_graph();
        let q = parse_query(
            "SELECT * WHERE { ?w :A ?x . ?x :B ?y . ?y :C ?z . }",
            g.dictionary(),
        )
        .unwrap();
        let mut answers = Vec::new();
        for kind in [
            PlannerKind::DpLeftDeep,
            PlannerKind::Greedy,
            PlannerKind::AsWritten,
        ] {
            let engine =
                WireframeEngine::with_options(&g, EvalOptions::default().with_planner(kind));
            answers.push(engine.execute(&q).unwrap().embeddings);
        }
        assert!(answers[0].same_answer(&answers[1]));
        assert!(answers[0].same_answer(&answers[2]));
    }

    #[test]
    fn edge_burnback_option_shrinks_cyclic_answer_graphs() {
        let mut b = GraphBuilder::new();
        b.add("3", "A", "4");
        b.add("3", "B", "2");
        b.add("4", "C", "1");
        b.add("2", "D", "1");
        b.add("7", "A", "8");
        b.add("7", "B", "6");
        b.add("8", "C", "5");
        b.add("6", "D", "5");
        b.add("4", "C", "5");
        b.add("8", "C", "1");
        let g = b.build();
        let q = parse_query(
            "SELECT * WHERE { ?x :A ?e . ?x :B ?z . ?e :C ?y . ?z :D ?y . }",
            g.dictionary(),
        )
        .unwrap();

        let plain = WireframeEngine::new(&g).execute(&q).unwrap();
        let burned = WireframeEngine::with_options(&g, EvalOptions::default().with_edge_burnback())
            .execute(&q)
            .unwrap();
        assert!(plain.cyclic() && burned.cyclic());
        assert!(burned.answer_graph_size() < plain.answer_graph_size());
        assert!(plain.embeddings.same_answer(&burned.embeddings));
        assert!(burned.edge_burnback().edges_removed > 0);
        assert_eq!(plain.edge_burnback().edges_removed, 0);
    }

    #[test]
    fn threads_option_never_changes_answers() {
        let mut b = GraphBuilder::new();
        for i in 0..200 {
            b.add(&format!("a{i}"), "A", "hub");
            b.add("mid", "C", &format!("c{i}"));
        }
        b.add("hub", "B", "mid");
        let g = b.build();
        let q = parse_query(
            "SELECT * WHERE { ?w :A ?x . ?x :B ?y . ?y :C ?z . }",
            g.dictionary(),
        )
        .unwrap();
        let sequential = WireframeEngine::new(&g).execute(&q).unwrap();
        let parallel = WireframeEngine::with_options(&g, EvalOptions::default().with_threads(4))
            .execute(&q)
            .unwrap();
        assert_eq!(sequential.embedding_count(), 200 * 200);
        assert!(sequential.embeddings.same_answer(&parallel.embeddings));
        assert_eq!(
            sequential.answer_graph_size(),
            parallel.answer_graph_size(),
            "phase one is untouched by the phase-two thread count"
        );
    }

    #[test]
    fn answer_graph_only_entry_point() {
        let g = figure1_graph();
        let q = parse_query("SELECT * WHERE { ?w :A ?x . ?x :B ?y . }", g.dictionary()).unwrap();
        let (ag, stats, plan) = WireframeEngine::new(&g).answer_graph(&q).unwrap();
        assert!(ag.total_edges() > 0);
        assert!(stats.edge_walks > 0);
        assert_eq!(plan.order.len(), 2);
    }
}
