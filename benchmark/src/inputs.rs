//! Inputs and the answer oracle: the pinned dataset, the request pool of each
//! workload for a seed, and — from the `relational` baseline — what every
//! request must return. This file is the socket driver's whole surface into
//! the measured workspace (listed in the README); none of it is timed.

use std::collections::HashSet;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use wireframe_baseline::RelationalEngine;
use wireframe_datagen::{full_workload, generate, table1_queries, BenchmarkQuery, YagoConfig};
use wireframe_graph::{load, write, Graph, Mutation, MutationOp, NodeId};
use wireframe_query::canonical::plan_cache_key;
use wireframe_query::{parse_query, ConjunctiveQuery, Term};

use crate::client::Frame;
use crate::json::{RowsDigest, RowsHasher};
use crate::rng::{mix, Rng};
use crate::workloads::{
    Class, Expected, Program, ReadRequest, Workload, WriteOp, WritePool, ADHOC_ANALYTICAL,
    ADHOC_FILL, ADHOC_POOL, CHURN_VERIFY_ROWS, PAGE_LIMIT,
};

/// `yago_bench`, spelled out so a change to a datagen preset cannot move it.
pub const DATASET: YagoConfig = YagoConfig {
    scale: 20_000,
    seed: 0x5EED_2020,
    snowflake_cores: 12,
    snowflake_spoke_fanout: 2,
    snowflake_leaf_fanout: 4,
    diamond_cores: 60,
    diamond_branch_fanout: 4,
    diamond_closure: 5,
    include_filler: true,
};

/// The input pin: what [`DATASET`] generated on the defining machine. A run
/// refuses to start on anything else, so a datagen edit cannot silently
/// change the load every committed number was measured on.
pub const PINNED_TRIPLES: usize = 305_226;
pub const PINNED_CONTENT_HASH: u64 = 0xE5CE_21F8_0985_0387;

/// Answers this large are left out of `warm_rows` (one 70 k-row chain would
/// otherwise be most of the bytes) and never asked for DISTINCT in
/// `adhoc_cold`'s analytical variants.
const WARM_ROWS_MAX: usize = 10_000;
const DISTINCT_VARIANT_MAX: usize = 100_000;

/// The dataset on disk and, loaded from that file, in memory. Loading from
/// the file (not keeping the generated graph) gives the oracle the node
/// identifiers `wfserve` will assign, which the canonical row order compares.
pub struct Dataset {
    pub path: PathBuf,
    pub graph: Graph,
    /// Seconds spent generating and writing, when this call had to.
    pub generated: Option<(f64, f64)>,
    pub load_s: f64,
}

impl Dataset {
    /// Reuses `out/yago_bench.nt` when it matches the pin, else regenerates.
    pub fn ensure(out: &Path) -> Result<Dataset, String> {
        std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
        let path = out.join("yago_bench.nt");
        if path.exists() {
            if let Ok(dataset) = Dataset::load_pinned(&path, None) {
                return Ok(dataset);
            }
        }
        let generated = write_dataset(&path)?;
        Dataset::load_pinned(&path, Some(generated))
    }

    fn load_pinned(path: &Path, generated: Option<(f64, f64)>) -> Result<Dataset, String> {
        let t = Instant::now();
        let graph = load_graph(path)?;
        let load_s = t.elapsed().as_secs_f64();
        let (triples, hash) = (graph.triple_count(), content_hash(&graph));
        if (triples, hash) != (PINNED_TRIPLES, PINNED_CONTENT_HASH) {
            return Err(format!(
                "dataset pin mismatch: {triples} triples, content hash {hash:#018x}; \
                 pinned {PINNED_TRIPLES} and {PINNED_CONTENT_HASH:#018x} \
                 (benchmark/src/inputs.rs) — datagen changed, so committed numbers no longer apply"
            ));
        }
        Ok(Dataset {
            path: path.to_owned(),
            graph,
            generated,
            load_s,
        })
    }
}

pub fn load_graph(path: &Path) -> Result<Graph, String> {
    let file = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    load(BufReader::new(file)).map_err(|e| format!("{}: {e}", path.display()))
}

/// Generates [`DATASET`] and writes it to `path` (via a temporary file, so a
/// killed run never leaves a half-written dataset). Returns the seconds
/// spent generating and writing.
pub fn write_dataset(path: &Path) -> Result<(f64, f64), String> {
    let t = Instant::now();
    let graph = generate(&DATASET);
    let generate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let tmp = path.with_extension("nt.tmp");
    let io = |e: std::io::Error| format!("{}: {e}", tmp.display());
    let mut out = BufWriter::new(File::create(&tmp).map_err(io)?);
    write(&graph, &mut out).map_err(|e| format!("{}: {e}", tmp.display()))?;
    out.flush().map_err(io)?;
    drop(out);
    std::fs::rename(&tmp, path).map_err(io)?;
    Ok((generate_s, t.elapsed().as_secs_f64()))
}

/// Order-independent hash of the triples' label text.
pub fn content_hash(graph: &Graph) -> u64 {
    let dict = graph.dictionary();
    let mut sum = 0u64;
    for t in graph.triples() {
        let mut h = RowsHasher::new();
        for label in [
            dict.node_label(t.subject),
            dict.predicate_label(t.predicate),
            dict.node_label(t.object),
        ] {
            h.cell_bytes(label.unwrap_or("?").as_bytes());
            h.end_cell();
        }
        h.end_row();
        sum = sum.wrapping_add(h.finish().unordered);
    }
    mix(sum)
}

/// The full answer of one unanchored query shape, from the `relational`
/// baseline, stored by column so lookups scan one column. Every request of
/// every workload is this answer selected, projected, de-duplicated and cut
/// — the relational operators that commute with the join.
pub struct Base {
    pub name: String,
    query: ConjunctiveQuery,
    var_names: Vec<String>,
    columns: Vec<Vec<u32>>,
    rows: usize,
}

impl Base {
    fn evaluate(graph: &Graph, bq: &BenchmarkQuery) -> Result<Base, String> {
        let answer = RelationalEngine::new(graph)
            .evaluate(&bq.query)
            .map_err(|e| format!("{}: relational oracle failed: {e}", bq.name))?;
        let arity = answer.schema().len();
        let mut columns = vec![Vec::with_capacity(answer.len()); arity];
        for row in answer.rows() {
            for (column, node) in columns.iter_mut().zip(row) {
                column.push(node.0);
            }
        }
        Ok(Base {
            name: bq.name.clone(),
            var_names: answer
                .schema()
                .iter()
                .map(|&v| bq.query.var_name(v).to_owned())
                .collect(),
            query: bq.query.clone(),
            columns,
            rows: answer.len(),
        })
    }

    /// The shape as the workload states it: every variable, its own DISTINCT.
    fn plain(&self, limit: u64) -> Variant {
        Variant {
            select: (0..self.columns.len()).collect(),
            distinct: self.query.distinct(),
            anchor: None,
            limit,
        }
    }

    /// Columns whose variable can be bound to a constant without
    /// disconnecting the query graph (the engines reject disconnected
    /// queries): leaves of a chain, star or snowflake; any corner of a cycle.
    fn anchorable_columns(&self) -> Vec<usize> {
        let var_of = |t: Term| match t {
            Term::Var(v) => self
                .var_names
                .iter()
                .position(|n| n == self.query.var_name(v)),
            Term::Const(_) => None,
        };
        (0..self.columns.len())
            .filter(|&anchored| {
                // Flood the remaining variables from any one of them.
                let mut reached = vec![false; self.columns.len()];
                let Some(start) = (0..self.columns.len()).find(|&c| c != anchored) else {
                    return false;
                };
                reached[start] = true;
                let mut grew = true;
                while grew {
                    grew = false;
                    for p in self.query.patterns() {
                        if let (Some(a), Some(b)) = (var_of(p.subject), var_of(p.object)) {
                            if a != anchored && b != anchored && reached[a] != reached[b] {
                                reached[a] = true;
                                reached[b] = true;
                                grew = true;
                            }
                        }
                    }
                }
                (0..self.columns.len()).all(|c| c == anchored || reached[c])
            })
            .collect()
    }

    fn column_of(&self, name: &str) -> usize {
        self.var_names
            .iter()
            .position(|v| v == name)
            .unwrap_or_else(|| panic!("{} has no ?{name}", self.name))
    }
}

/// One request derived from a [`Base`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Variant {
    /// Columns of the base answer, in SELECT order.
    select: Vec<usize>,
    distinct: bool,
    /// A variable bound to a constant: `(column, node)`.
    anchor: Option<(usize, u32)>,
    limit: u64,
}

impl Variant {
    fn text(&self, base: &Base, graph: &Graph) -> String {
        let dict = graph.dictionary();
        let anchored = self.anchor.map(|(c, n)| (base.var_names[c].as_str(), n));
        let term = |t: Term| match t {
            Term::Const(n) => format!("<{}>", dict.node_label(n).unwrap_or("?")),
            Term::Var(v) => match anchored {
                Some((name, node)) if name == base.query.var_name(v) => {
                    format!("<{}>", dict.node_label(NodeId(node)).unwrap_or("?"))
                }
                _ => format!("?{}", base.query.var_name(v)),
            },
        };
        let mut out = String::from("SELECT");
        if self.distinct {
            out.push_str(" DISTINCT");
        }
        for &c in &self.select {
            out.push_str(" ?");
            out.push_str(&base.var_names[c]);
        }
        out.push_str(" WHERE {");
        for p in base.query.patterns() {
            let label = dict.predicate_label(p.predicate).unwrap_or("?");
            out.push_str(&format!(
                " {} <{label}> {} .",
                term(p.subject),
                term(p.object)
            ));
        }
        out.push_str(" }");
        out
    }

    /// σ (anchor), π (select), δ (distinct), then the canonical cut.
    fn answer(&self, base: &Base, graph: &Graph) -> Expected {
        let key = |row: usize| self.select.iter().map(move |&c| base.columns[c][row]);
        let matching: Box<dyn Iterator<Item = usize> + '_> = match self.anchor {
            Some((column, node)) => Box::new(
                base.columns[column]
                    .iter()
                    .enumerate()
                    .filter(move |&(_, &n)| n == node)
                    .map(|(row, _)| row),
            ),
            None => Box::new(0..base.rows),
        };
        // Base rows are pairwise distinct (a join output), so DISTINCT only
        // bites when the SELECT list drops a column that is not anchored.
        let kept = |c: usize| self.select.contains(&c) || self.anchor.is_some_and(|(a, _)| a == c);
        let dedup = self.distinct && !(0..base.columns.len()).all(kept);
        let cut = if self.limit > 0 {
            self.limit as usize
        } else {
            usize::MAX
        };
        let (total, rows): (usize, Vec<Vec<u32>>) = if dedup {
            // Narrow lists only (the generators keep to three columns):
            // pack each key into one integer, sort, de-duplicate.
            assert!(
                self.select.len() <= 4,
                "DISTINCT variants are at most 4 columns wide"
            );
            let mut packed: Vec<u128> = matching
                .map(|row| key(row).fold(0u128, |acc, n| (acc << 32) | u128::from(n)))
                .collect();
            packed.sort_unstable();
            packed.dedup();
            let unpack = |p: &u128| {
                (0..self.select.len())
                    .rev()
                    .map(|i| (p >> (32 * i)) as u32)
                    .collect()
            };
            (packed.len(), packed.iter().take(cut).map(unpack).collect())
        } else if self.limit == 0 {
            let rows: Vec<Vec<u32>> = matching.map(|row| key(row).collect()).collect();
            (rows.len(), rows)
        } else {
            // One pass keeping the `cut` smallest keys in order. Most rows
            // lose on the first column alone, so that is compared first.
            let first = &base.columns[self.select[0]];
            let mut total = 0;
            let mut best: Vec<usize> = Vec::with_capacity(cut + 1);
            for row in matching {
                total += 1;
                if best.len() == cut
                    && (first[row] > first[best[cut - 1]] || !key(row).lt(key(best[cut - 1])))
                {
                    continue;
                }
                let at = best.partition_point(|&b| !key(row).lt(key(b)));
                best.insert(at, row);
                best.truncate(cut);
            }
            (
                total,
                best.into_iter().map(|row| key(row).collect()).collect(),
            )
        };
        Expected {
            total: total as u64,
            digest: digest_rows(graph, rows.iter().map(Vec::as_slice)),
        }
    }
}

fn digest_rows<'a>(graph: &Graph, rows: impl Iterator<Item = &'a [u32]>) -> RowsDigest {
    let dict = graph.dictionary();
    let mut hasher = RowsHasher::new();
    for row in rows {
        for &node in row {
            hasher.cell_bytes(dict.node_label(NodeId(node)).unwrap_or("?").as_bytes());
            hasher.end_cell();
        }
        hasher.end_row();
    }
    hasher.finish()
}

fn request(
    index: usize,
    base: &Base,
    variant: &Variant,
    class: Class,
    graph: &Graph,
) -> ReadRequest {
    let text = variant.text(base, graph);
    ReadRequest {
        frame: Frame::query(index as u64 + 1, &text, variant.limit),
        expected: variant.answer(base, graph),
        limit: variant.limit,
        class,
        text,
    }
}

/// Shapes of `full_workload()` with duplicates (the generator repeats one
/// chain) removed, evaluated by the oracle.
fn distinct_bases(graph: &Graph, queries: Vec<BenchmarkQuery>) -> Result<Vec<Base>, String> {
    let mut seen = HashSet::new();
    queries
        .iter()
        .filter(|bq| seen.insert(plan_cache_key(&bq.query)))
        .map(|bq| Base::evaluate(graph, bq))
        .collect()
}

/// Builds the request pool and expected answers of `workload` for `seed`.
pub fn build_program(dataset: &Dataset, workload: Workload, seed: u64) -> Result<Program, String> {
    let graph = &dataset.graph;
    let table1 = || table1_queries(graph).map_err(|e| format!("table 1 queries: {e}"));
    let everything = || full_workload(graph).map_err(|e| format!("full workload: {e}"));
    let mut rng = Rng::stream(seed, workload.name());
    let mut specs: Vec<(usize, Variant, Class)> = Vec::new();
    let bases = match workload {
        Workload::PageHot | Workload::ChurnMixed => {
            let bases = distinct_bases(graph, table1()?)?;
            specs.extend((0..bases.len()).map(|b| (b, bases[b].plain(PAGE_LIMIT), Class::Plain)));
            bases
        }
        Workload::WarmEnumerate => {
            let snowflakes: Vec<BenchmarkQuery> = table1()?.into_iter().take(5).collect();
            let bases = distinct_bases(graph, snowflakes)?;
            // Two-variable DISTINCT lists: the projection drops variables, so
            // no prefix can serve it and every request defactorizes in full.
            for (b, base) in bases.iter().enumerate() {
                for pair in [["x", "m"], ["x", "z"], ["m", "a"]] {
                    let variant = Variant {
                        select: pair.iter().map(|v| base.column_of(v)).collect(),
                        distinct: true,
                        anchor: None,
                        limit: PAGE_LIMIT,
                    };
                    specs.push((b, variant, Class::Plain));
                }
            }
            bases
        }
        Workload::WarmRows => {
            let queries = everything()?
                .into_iter()
                .filter(|bq| !bq.name.starts_with("CQS"))
                .collect();
            let mut bases = distinct_bases(graph, queries)?;
            bases.retain(|b| b.rows <= WARM_ROWS_MAX);
            specs.extend((0..bases.len()).map(|b| (b, bases[b].plain(0), Class::Plain)));
            bases
        }
        Workload::AdhocCold => {
            let bases = distinct_bases(graph, everything()?)?;
            specs = adhoc_pool(graph, &bases, &mut rng)?;
            bases
        }
    };
    let write_pool = write_pool(graph, &bases, &mut rng);
    if workload == Workload::AdhocCold {
        // Lookups first (the cache fill), then everything else, mixed.
        specs.sort_by_key(|(_, _, class)| *class != Class::Lookup);
        rng.shuffle(&mut specs[..ADHOC_POOL - ADHOC_ANALYTICAL]);
        rng.shuffle(&mut specs[ADHOC_FILL..]);
    } else {
        rng.shuffle(&mut specs);
    }
    // Two halves on two threads: the pool of `adhoc_cold` is thousands of
    // scans, and nothing else runs yet.
    let numbered: Vec<(usize, &(usize, Variant, Class))> = specs.iter().enumerate().collect();
    let answer_all = |part: &[(usize, &(usize, Variant, Class))]| -> Vec<ReadRequest> {
        part.iter()
            .map(|&(i, (b, variant, class))| request(i, &bases[*b], variant, *class, graph))
            .collect()
    };
    let (front, back) = numbered.split_at(numbered.len() / 2);
    let mut reads = Vec::with_capacity(numbered.len());
    std::thread::scope(|scope| {
        let back = scope.spawn(|| answer_all(back));
        reads.extend(answer_all(front));
        reads.extend(back.join().expect("the oracle does not panic"));
    });
    Ok(Program {
        workload,
        seed,
        reads,
        write_pool,
    })
}

/// `ADHOC_POOL` requests with pairwise distinct canonical signatures:
/// analytical ones re-project an unanchored shape (same phase-one edge
/// walks, new signature); lookups bind one variable to a constant drawn,
/// skewed towards low identifiers, from that variable's answer nodes — so
/// every query has an answer.
fn adhoc_pool(
    graph: &Graph,
    bases: &[Base],
    rng: &mut Rng,
) -> Result<Vec<(usize, Variant, Class)>, String> {
    let mut keys = HashSet::new();
    let mut pool = Vec::with_capacity(ADHOC_POOL);
    let mut fresh = |b: usize, variant: &Variant| -> Result<bool, String> {
        let text = variant.text(&bases[b], graph);
        let query = parse_query(&text, graph.dictionary())
            .map_err(|e| format!("generated query does not parse: {e}: {text}"))?;
        Ok(keys.insert(plan_cache_key(&query)))
    };
    // Analytical: round-robin over the shapes; small shapes run out of
    // distinct SELECT lists and drop out.
    let mut attempts = 0;
    while pool.len() < ADHOC_ANALYTICAL {
        let b = attempts % bases.len();
        attempts += 1;
        if attempts > ADHOC_ANALYTICAL * 64 {
            return Err("cannot build enough analytical variants".to_owned());
        }
        let base = &bases[b];
        let arity = base.columns.len();
        let mut columns: Vec<usize> = (0..arity).collect();
        rng.shuffle(&mut columns);
        columns.truncate(1 + rng.below(arity.min(3)));
        let variant = Variant {
            select: columns,
            distinct: base.rows <= DISTINCT_VARIANT_MAX && rng.below(2) == 0,
            anchor: None,
            limit: PAGE_LIMIT,
        };
        if fresh(b, &variant)? {
            pool.push((b, variant, Class::Analytical));
        }
    }
    // Lookups: the distinct values of each anchorable (shape, variable),
    // ascending.
    let domains: Vec<Vec<(usize, Vec<u32>)>> = bases
        .iter()
        .map(|base| {
            base.anchorable_columns()
                .into_iter()
                .map(|column| {
                    let mut values = base.columns[column].clone();
                    values.sort_unstable();
                    values.dedup();
                    (column, values)
                })
                .collect()
        })
        .collect();
    let mut attempts = 0;
    while pool.len() < ADHOC_POOL {
        attempts += 1;
        if attempts > ADHOC_POOL * 64 {
            return Err("cannot build enough lookup queries".to_owned());
        }
        let b = rng.below(bases.len());
        let (column, domain) = &domains[b][rng.below(domains[b].len())];
        let variant = Variant {
            select: (0..bases[b].columns.len())
                .filter(|c| c != column)
                .collect(),
            distinct: bases[b].query.distinct(),
            anchor: Some((*column, domain[rng.skewed(domain.len())])),
            limit: PAGE_LIMIT,
        };
        if fresh(b, &variant)? {
            pool.push((b, variant, Class::Lookup));
        }
    }
    Ok(pool)
}

/// The triples a writer may touch (`churn_mixed` inside the window; the
/// write probe before it and the ladder elsewhere), all on footprint predicates
/// of the workload's views: a seeded sample of the planted structures, and
/// one equal-sized group of background triples per predicate, predicates in
/// label order.
fn write_pool(graph: &Graph, bases: &[Base], rng: &mut Rng) -> WritePool {
    const PLANTED: usize = 256;
    const GROUP: usize = 16;
    let dict = graph.dictionary();
    let mut footprint: Vec<_> = bases
        .iter()
        .flat_map(|b| b.query.patterns().iter().map(|p| p.predicate))
        .collect();
    footprint.sort_by_key(|&p| dict.predicate_label(p).unwrap_or("?").to_owned());
    footprint.dedup();
    let mut planted = Vec::new();
    let mut background: Vec<Vec<[String; 3]>> = vec![Vec::new(); footprint.len()];
    for t in graph.triples() {
        let Some(slot) = footprint.iter().position(|&p| p == t.predicate) else {
            continue;
        };
        let labels = [
            dict.node_label(t.subject).unwrap_or("?").to_owned(),
            dict.predicate_label(t.predicate).unwrap_or("?").to_owned(),
            dict.node_label(t.object).unwrap_or("?").to_owned(),
        ];
        if labels[0].starts_with("sfq") || labels[0].starts_with("dmq") {
            planted.push(labels);
        } else {
            background[slot].push(labels);
        }
    }
    rng.shuffle(&mut planted);
    planted.truncate(PLANTED);
    let mut pool = WritePool {
        planted: planted.len(),
        triples: planted,
        group: GROUP,
    };
    for mut group in background.into_iter().filter(|g| g.len() >= GROUP) {
        rng.shuffle(&mut group);
        pool.triples.extend(group.into_iter().take(GROUP));
    }
    pool
}

/// After `churn_mixed`: replays the acknowledged writes onto the initial
/// graph and answers every view from scratch with the oracle, cut to the
/// first [`CHURN_VERIFY_ROWS`] canonical rows.
pub fn answers_after_writes(
    dataset: &Dataset,
    program: &Program,
    applied: &[WriteOp],
) -> Result<Vec<(String, Expected)>, String> {
    let mut mutation = Mutation::new();
    for op in applied {
        let [s, p, o] = &program.write_pool.triples[op.triple];
        let kind = if op.insert {
            MutationOp::Insert
        } else {
            MutationOp::Remove
        };
        mutation.push(kind, s, p, o);
    }
    let (graph, _) = dataset.graph.apply(&mutation);
    let queries = table1_queries(&graph).map_err(|e| format!("table 1 queries: {e}"))?;
    distinct_bases(&graph, queries)?
        .iter()
        .map(|base| {
            let variant = base.plain(CHURN_VERIFY_ROWS);
            Ok((variant.text(base, &graph), variant.answer(base, &graph)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wireframe_graph::GraphBuilder;
    use wireframe_query::EmbeddingSet;

    fn tiny() -> Graph {
        let mut b = GraphBuilder::new();
        for (s, o) in [("a", "b"), ("a", "c"), ("d", "b"), ("e", "c")] {
            b.add(s, "knows", o);
        }
        for (s, o) in [("b", "x"), ("b", "y"), ("c", "x")] {
            b.add(s, "likes", o);
        }
        b.build()
    }

    fn chain_base(graph: &Graph) -> Base {
        let query = parse_query(
            "SELECT ?s ?m ?t WHERE { ?s <knows> ?m . ?m <likes> ?t . }",
            graph.dictionary(),
        )
        .unwrap();
        let bq = BenchmarkQuery {
            row: 1,
            name: "chain".to_owned(),
            shape: wireframe_query::Shape::Chain,
            query,
        };
        Base::evaluate(graph, &bq).unwrap()
    }

    /// The derived answer of a variant equals evaluating the variant's own
    /// text with the baseline, projecting and cutting canonically.
    fn direct(graph: &Graph, text: &str, limit: u64) -> Expected {
        let query = parse_query(text, graph.dictionary()).unwrap();
        let answer: EmbeddingSet = RelationalEngine::new(graph).evaluate(&query).unwrap();
        let cut = if limit > 0 {
            answer.canonical_prefix(limit as usize)
        } else {
            answer.clone()
        };
        let rows: Vec<Vec<u32>> = cut
            .rows()
            .map(|r| r.iter().map(|n| n.0).collect())
            .collect();
        Expected {
            total: answer.len() as u64,
            digest: digest_rows(graph, rows.iter().map(Vec::as_slice)),
        }
    }

    #[test]
    fn derived_answers_equal_direct_evaluation() {
        let graph = tiny();
        let base = chain_base(&graph);
        assert_eq!(base.rows, 6);
        // Binding the middle of a chain would disconnect it.
        assert_eq!(base.anchorable_columns(), [0, 2]);
        let node = |l: &str| graph.dictionary().node_id(l).unwrap().0;
        let variants = [
            base.plain(0),
            base.plain(2),
            Variant {
                select: vec![2, 0],
                distinct: false,
                anchor: None,
                limit: 3,
            },
            Variant {
                select: vec![2],
                distinct: true,
                anchor: None,
                limit: 16,
            },
            Variant {
                select: vec![1],
                distinct: false,
                anchor: None,
                limit: 2,
            },
            Variant {
                select: vec![1, 2],
                distinct: false,
                anchor: Some((0, node("a"))),
                limit: 16,
            },
            Variant {
                select: vec![2],
                distinct: true,
                anchor: Some((0, node("a"))),
                limit: 16,
            },
            Variant {
                select: vec![0, 1],
                distinct: false,
                anchor: Some((2, node("y"))),
                limit: 1,
            },
        ];
        for variant in variants {
            let text = variant.text(&base, &graph);
            let derived = variant.answer(&base, &graph);
            let direct = direct(&graph, &text, variant.limit);
            assert_eq!(derived.total, direct.total, "{text}");
            assert_eq!(derived.digest.rows, direct.digest.rows, "{text}");
            if variant.limit > 0 {
                assert_eq!(derived.digest.ordered, direct.digest.ordered, "{text}");
            } else {
                assert_eq!(derived.digest.unordered, direct.digest.unordered, "{text}");
            }
        }
    }

    #[test]
    fn content_hash_ignores_order_but_not_content() {
        let mut forward = GraphBuilder::new();
        forward.add("a", "p", "b");
        forward.add("c", "q", "d");
        let mut backward = GraphBuilder::new();
        backward.add("c", "q", "d");
        backward.add("a", "p", "b");
        let mut other = GraphBuilder::new();
        other.add("a", "p", "b");
        other.add("c", "q", "e");
        let hash = content_hash(&forward.build());
        assert_eq!(hash, content_hash(&backward.build()));
        assert_ne!(hash, content_hash(&other.build()));
    }
}
