//! The five workloads as data: what each connection sends, what a correct
//! reply looks like, and which assertions keep a workload meaning what its
//! name says. Nothing here touches the measured workspace; the requests and
//! their expected answers are filled in by `inputs.rs`.

use std::time::Duration;

use crate::client::Frame;
use crate::json::{Reply, RowsDigest};
use crate::rng::Rng;

/// Row cap of every limited request (`page_hot`, `warm_enumerate`,
/// `adhoc_cold`, and the reader of `churn_mixed`).
pub const PAGE_LIMIT: u64 = 16;
/// Distinct canonical signatures in the `adhoc_cold` pool: twice the
/// session's plan/view cache (4 096), so a cyclic order never hits.
pub const ADHOC_POOL: usize = 8192;
/// The pool starts with this many lookups, which warm-up issues to fill the
/// session cache (so every measured miss also evicts) without spending
/// seconds on analytical queries; measurement starts behind them.
pub const ADHOC_FILL: usize = 4096 + 256;
/// Analytical (unanchored) members of the pool, all behind the fill, mixed
/// with the remaining lookups: a fifth of the measured requests, sized so
/// they take at least half of the wall time (reported on every run as
/// `adhoc analytical time`).
pub const ADHOC_ANALYTICAL: usize = 768;
/// Offered read rate of `churn_mixed`'s open-loop reader, requests/s.
pub const CHURN_READ_RATE: f64 = 200.0;
/// Pace of `churn_mixed`'s writer, writes/s. It waits for every ack, but
/// does not send faster than this: a write holds the session's lock for as
/// long as view maintenance takes (a background insert: 100–600 ms here), so
/// a writer at full speed keeps the lock nearly always and the reader's
/// latency becomes the length of its backlog, which no run repeats.
pub const CHURN_WRITE_RATE: f64 = 10.0;
/// How far into each measured window the writer sends its one expensive
/// write: early enough for the backlog of reads behind it to drain before
/// the window closes, whatever the window's length.
pub const CHURN_BACKGROUND_AFTER: Duration = Duration::from_millis(600);
/// Rows compared per view after `churn_mixed`.
pub const CHURN_VERIFY_ROWS: u64 = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PageHot,
    WarmEnumerate,
    WarmRows,
    AdhocCold,
    ChurnMixed,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::PageHot,
        Workload::WarmEnumerate,
        Workload::WarmRows,
        Workload::AdhocCold,
        Workload::ChurnMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PageHot => "page_hot",
            Workload::WarmEnumerate => "warm_enumerate",
            Workload::WarmRows => "warm_rows",
            Workload::AdhocCold => "adhoc_cold",
            Workload::ChurnMixed => "churn_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `Some(true)`: every reply must be served from a maintained top-k
    /// prefix; `Some(false)`: none may be. `churn_mixed` reads race prefix
    /// maintenance, so either is legitimate there.
    pub fn prefix_rule(self) -> Option<bool> {
        match self {
            Workload::PageHot => Some(true),
            Workload::WarmEnumerate => Some(false),
            _ => None,
        }
    }

    /// Bound on the session's plan-cache hit share over the measured window.
    pub fn cache_rule(self) -> CacheRule {
        match self {
            Workload::AdhocCold => CacheRule::AtMost(0.01),
            Workload::PageHot | Workload::WarmEnumerate | Workload::WarmRows => {
                CacheRule::AtLeast(0.99)
            }
            // Reads hit; a write that nets out to nothing touches no plan.
            Workload::ChurnMixed => CacheRule::AtLeast(0.99),
        }
    }

    /// Replies can be checked against a fixed expected answer unless writes
    /// change the answers underneath the reader.
    pub fn answers_are_static(self) -> bool {
        self != Workload::ChurnMixed
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CacheRule {
    AtLeast(f64),
    AtMost(f64),
}

impl CacheRule {
    pub fn holds(self, hit_share: f64) -> bool {
        match self {
            CacheRule::AtLeast(x) => hit_share >= x,
            CacheRule::AtMost(x) => hit_share <= x,
        }
    }
}

/// What the oracle says a request must return.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    /// Full answer size (after DISTINCT), before the row cap.
    pub total: u64,
    /// Digest of the rows the reply must carry.
    pub digest: RowsDigest,
}

/// Cost class of an `adhoc_cold` request; `Plain` elsewhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Plain,
    Analytical,
    Lookup,
}

#[derive(Debug, Clone)]
pub struct ReadRequest {
    pub text: String,
    pub limit: u64,
    pub class: Class,
    pub expected: Expected,
    /// Encoded once, before timing. Its id is the request's pool index.
    pub frame: Frame,
}

impl ReadRequest {
    /// Checks one reply against the oracle and the workload's prefix rule.
    pub fn check(&self, reply: &Reply, workload: Workload) -> Result<(), String> {
        if reply.kind() != "rows" {
            return Err(format!(
                "{} reply: {}",
                reply.kind(),
                reply
                    .text("message")
                    .or(reply.text("reason"))
                    .unwrap_or("(no detail)")
            ));
        }
        let got = reply.rows.ok_or("rows reply without rows")?;
        let prefix_served = reply.flag("prefix_served");
        if let Some(required) = workload.prefix_rule() {
            if prefix_served != required {
                return Err(format!("prefix_served is {prefix_served}"));
            }
        }
        if self.limit > 0 && got.rows > self.limit {
            return Err(format!("{} rows over limit {}", got.rows, self.limit));
        }
        if !workload.answers_are_static() {
            return Ok(());
        }
        self.expected.matches(reply, self.limit)
    }
}

impl Expected {
    /// Compares a `rows` reply with this expected answer. Limited answers
    /// are canonically cut, so their row order is checked too.
    pub fn matches(&self, reply: &Reply, limit: u64) -> Result<(), String> {
        let got = reply.rows.ok_or("rows reply without rows")?;
        let want = self.digest;
        if got.rows != want.rows || got.cells != want.cells {
            return Err(format!(
                "{}x{} cells, expected {}x{}",
                got.rows, got.cells, want.rows, want.cells
            ));
        }
        let same_rows = if limit > 0 {
            got.ordered == want.ordered
        } else {
            got.unordered == want.unordered
        };
        if !same_rows {
            return Err("row content differs from the oracle".to_owned());
        }
        let total = reply.number("total").ok_or("rows reply without total")?;
        // A prefix that cannot prove it is exhaustive reports the rows it
        // served as `total` and says `truncated` (docs/protocol.md).
        let prefix_total =
            reply.flag("prefix_served") && reply.flag("truncated") && total == got.rows;
        if total != self.total && !prefix_total {
            return Err(format!("total {total}, expected {}", self.total));
        }
        let truncated = reply.flag("truncated");
        if truncated != (self.total > got.rows) {
            return Err(format!("truncated is {truncated}"));
        }
        Ok(())
    }
}

/// One workload's generated inputs for one seed.
#[derive(Debug, Clone)]
pub struct Program {
    pub workload: Workload,
    pub seed: u64,
    /// The distinct requests, in issue order (a seeded permutation).
    pub reads: Vec<ReadRequest>,
    /// Triples a writer touches, all present at start. Only `churn_mixed`
    /// writes inside the window; the others time a few writes before it.
    pub write_pool: WritePool,
}

impl Program {
    /// Whether set-up issues every request once (retaining its view and,
    /// for limited requests, priming its prefix). `adhoc_cold` must not.
    pub fn primes_views(&self) -> bool {
        self.workload != Workload::AdhocCold
    }
}

/// The triples a writer may touch, all on footprint predicates of the
/// workload's views. `planted` edges sit in the views' answer graphs, so
/// toggling one changes answers; `background` edges change no answer, but
/// inserting one still makes every view on its predicate re-derive its
/// prefix — the expensive write. Background triples come in equal-sized
/// groups, one per predicate, so a script can visit predicates in rotation.
#[derive(Debug, Clone, Default)]
pub struct WritePool {
    pub triples: Vec<[String; 3]>,
    /// `triples[..planted]` are planted; the rest are background groups.
    pub planted: usize,
    /// Triples per background group (0 = no background).
    pub group: usize,
}

/// The seeded single-op mutation stream. Planted triples toggle at random,
/// so removals and insertions balance and the graph stays within the pool's
/// size of where it started. The expensive write — one background triple
/// removed and put back — comes only when the caller asks for it, and visits
/// the background predicates in label order from the first, whatever the
/// seed: every run pays for the same expensive writes, so its tail latencies
/// can be compared with another's.
#[derive(Debug, Clone)]
pub struct MutationScript<'p> {
    pool: &'p WritePool,
    present: Vec<bool>,
    rng: Rng,
    backgrounds: usize,
}

/// One applied write: which pool triple, and whether it was inserted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteOp {
    pub triple: usize,
    pub insert: bool,
}

impl<'p> MutationScript<'p> {
    pub fn new(pool: &'p WritePool, seed: u64) -> Self {
        MutationScript {
            pool,
            present: vec![true; pool.triples.len()],
            rng: Rng::stream(seed, "writer"),
            backgrounds: 0,
        }
    }

    fn op(&mut self, triple: usize, insert: bool) -> (WriteOp, String) {
        self.present[triple] = insert;
        (
            WriteOp { triple, insert },
            script_line(insert, &self.pool.triples[triple]),
        )
    }

    /// Toggles one planted triple: the operation and its one-line script.
    pub fn next_toggle(&mut self) -> (WriteOp, String) {
        let triple = self.rng.below(self.pool.planted);
        self.op(triple, !self.present[triple])
    }

    /// The expensive write: removes the next background triple, then puts it
    /// back. `None` when the pool has no background triples.
    pub fn next_background(&mut self) -> Option<[(WriteOp, String); 2]> {
        let groups = self.pool.groups();
        if groups == 0 {
            return None;
        }
        let group = self.backgrounds % groups;
        let member = (self.backgrounds / groups) % self.pool.group;
        self.backgrounds += 1;
        let triple = self.pool.planted + group * self.pool.group + member;
        Some([self.op(triple, false), self.op(triple, true)])
    }

    /// Takes back an operation the server did not acknowledge.
    pub fn undo(&mut self, op: WriteOp) {
        self.present[op.triple] = !op.insert;
    }
}

impl WritePool {
    fn groups(&self) -> usize {
        (self.triples.len() - self.planted)
            .checked_div(self.group)
            .unwrap_or(0)
    }
}

pub fn script_line(insert: bool, [s, p, o]: &[String; 3]) -> String {
    format!("{} {s} {p} {o}\n", if insert { '+' } else { '-' })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::read_reply;

    fn pool() -> WritePool {
        // 8 planted triples, then 3 background groups of 2.
        WritePool {
            triples: (0..14)
                .map(|i| [format!("s{i}"), format!("p{}", i / 2), format!("o{i}")])
                .collect(),
            planted: 8,
            group: 2,
        }
    }

    #[test]
    fn mutation_script_toggles_and_repeats_for_a_seed() {
        let pool = pool();
        let mut a = MutationScript::new(&pool, 5);
        let mut b = MutationScript::new(&pool, 5);
        let mut present = vec![true; pool.triples.len()];
        let mut background = Vec::new();
        for step in 0..400u64 {
            let (op, line) = a.next_toggle();
            assert_eq!((op, line.clone()), b.next_toggle());
            // A present triple is removed, an absent one inserted: never a no-op.
            assert!(op.triple < pool.planted);
            assert_eq!(op.insert, !present[op.triple]);
            present[op.triple] = op.insert;
            assert!(line.starts_with(if op.insert { "+ s" } else { "- s" }));
            if step % 40 == 0 {
                // The expensive write takes one background triple out and
                // puts it back.
                let [(out, out_line), (back, back_line)] = a.next_background().unwrap();
                assert_eq!(b.next_background().unwrap()[0].0, out);
                assert!(out.triple >= pool.planted && out.triple == back.triple);
                assert!(!out.insert && back.insert);
                assert!(out_line.starts_with("- s") && back_line.starts_with("+ s"));
                background.push(out.triple);
            }
        }
        assert!(a.present[pool.planted..].iter().all(|&p| p));
        // Groups in rotation (3 of them), members advancing once per round.
        let groups: Vec<usize> = background.iter().map(|t| (t - pool.planted) / 2).collect();
        assert_eq!(groups, [0, 1, 2, 0, 1, 2, 0, 1, 2, 0]);
        let members: Vec<usize> = background.iter().map(|t| (t - pool.planted) % 2).collect();
        assert_eq!(members, [0, 0, 0, 1, 1, 1, 0, 0, 0, 1]);
        let ops = |seed| -> Vec<WriteOp> {
            let mut script = MutationScript::new(&pool, seed);
            (0..32).map(|_| script.next_toggle().0).collect()
        };
        assert_ne!(ops(5), ops(6), "different seeds give different scripts");
        let mut script = MutationScript::new(&pool, 5);
        let (op, _) = script.next_toggle();
        script.undo(op);
        assert!(
            script.present.iter().all(|&p| p),
            "an unacknowledged write is taken back"
        );
        let planted_only = WritePool {
            triples: pool.triples[..8].to_vec(),
            planted: 8,
            group: 2,
        };
        assert!(MutationScript::new(&planted_only, 5)
            .next_background()
            .is_none());
    }

    #[test]
    fn expected_answers_accept_the_right_reply_only() {
        let reply = read_reply(
            br#"{"type":"rows","id":1,"total":3,"rows":[["a","b"],["c","d"]],"truncated":true,"prefix_served":true}"#,
        )
        .unwrap();
        let expected = Expected {
            total: 3,
            digest: reply.rows.unwrap(),
        };
        assert_eq!(expected.matches(&reply, 2), Ok(()));
        // Non-exhaustive prefix: total may be the served row count.
        let short = read_reply(
            br#"{"type":"rows","id":1,"total":2,"rows":[["a","b"],["c","d"]],"truncated":true,"prefix_served":true}"#,
        )
        .unwrap();
        assert_eq!(expected.matches(&short, 2), Ok(()));
        let swapped = read_reply(
            br#"{"type":"rows","id":1,"total":3,"rows":[["c","d"],["a","b"]],"truncated":true,"prefix_served":true}"#,
        )
        .unwrap();
        assert!(
            expected.matches(&swapped, 2).is_err(),
            "limited answers are ordered"
        );
        assert_eq!(
            expected.matches(&swapped, 0),
            Ok(()),
            "unlimited answers are not"
        );
        let wrong_total = read_reply(
            br#"{"type":"rows","id":1,"total":4,"rows":[["a","b"],["c","d"]],"truncated":true,"prefix_served":false}"#,
        )
        .unwrap();
        assert!(expected.matches(&wrong_total, 2).is_err());
        let request = ReadRequest {
            text: String::new(),
            limit: 2,
            class: Class::Plain,
            expected,
            frame: Frame::stats(1),
        };
        assert_eq!(request.check(&reply, Workload::PageHot), Ok(()));
        assert!(
            request.check(&reply, Workload::WarmEnumerate).is_err(),
            "prefix rule"
        );
        let error = read_reply(br#"{"type":"error","id":1,"message":"boom"}"#).unwrap();
        assert!(request
            .check(&error, Workload::PageHot)
            .unwrap_err()
            .contains("boom"));
    }
}
