//! A small loader/writer for a line-oriented triple format.
//!
//! Two syntaxes are accepted, chosen per line:
//!
//! * A pragmatic subset of N-Triples: `<subject> <predicate> <object> .`
//!   (IRIs in angle brackets; plain literals in double quotes for objects).
//! * Whitespace/tab separated bare labels: `subject predicate object`.
//!
//! Comment lines starting with `#` and blank lines are skipped. This is the
//! on-disk interchange format used by the examples and the data generator; it
//! stands in for the preprocessed YAGO2s dump the paper imports into each
//! system.

use std::io::{BufRead, Write};

use crate::builder::GraphBuilder;
use crate::error::GraphError;
use crate::store::{Graph, StoreKind};

/// Parses one line into `(subject, predicate, object)` labels.
/// Returns `Ok(None)` for blank and comment lines.
pub fn parse_line(line: &str) -> Result<Option<(String, String, String)>, GraphError> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let body = line.strip_suffix('.').map(str::trim_end).unwrap_or(line);
    let mut terms = Vec::with_capacity(3);
    let mut rest = body.trim_start();
    while !rest.is_empty() {
        let (term, remainder) = parse_term(rest, terms.len(), line)?;
        terms.push(term);
        rest = remainder.trim_start();
        if terms.len() == 3 && !rest.is_empty() {
            return Err(GraphError::Parse(format!(
                "trailing content {rest:?} after three terms in line {line:?}"
            )));
        }
    }
    match terms.len() {
        3 => {
            let mut it = terms.into_iter();
            Ok(Some((
                it.next().unwrap(),
                it.next().unwrap(),
                it.next().unwrap(),
            )))
        }
        n => Err(GraphError::Parse(format!(
            "expected 3 terms, found {n} in line {line:?}"
        ))),
    }
}

fn parse_term<'a>(
    input: &'a str,
    position: usize,
    line: &str,
) -> Result<(String, &'a str), GraphError> {
    let bytes = input.as_bytes();
    match bytes[0] {
        b'<' => match input.find('>') {
            Some(end) => Ok((input[1..end].to_owned(), &input[end + 1..])),
            None => Err(GraphError::Parse(format!(
                "unterminated IRI in line {line:?}"
            ))),
        },
        b'"' => {
            if position != 2 {
                return Err(GraphError::Parse(format!(
                    "literal allowed only in object position, line {line:?}"
                )));
            }
            match input[1..].find('"') {
                Some(end) => {
                    let value = input[1..1 + end].to_owned();
                    let mut rest = &input[end + 2..];
                    // Skip datatype / language tags.
                    if let Some(ws) = rest.find(char::is_whitespace) {
                        rest = &rest[ws..];
                    } else {
                        rest = "";
                    }
                    Ok((value, rest))
                }
                None => Err(GraphError::Parse(format!(
                    "unterminated literal in line {line:?}"
                ))),
            }
        }
        _ => {
            let end = input.find(char::is_whitespace).unwrap_or(input.len());
            Ok((input[..end].to_owned(), &input[end..]))
        }
    }
}

/// Reads triples from `reader` into `builder`, returning the number of triples added.
pub fn load_into<R: BufRead>(reader: R, builder: &mut GraphBuilder) -> Result<usize, GraphError> {
    let mut count = 0;
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        match parse_line(&line) {
            Ok(Some((s, p, o))) => {
                builder.add(&s, &p, &o);
                count += 1;
            }
            Ok(None) => {}
            Err(GraphError::Parse(msg)) => {
                return Err(GraphError::Parse(format!("line {}: {msg}", lineno + 1)))
            }
            Err(e) => return Err(e),
        }
    }
    Ok(count)
}

/// Reads a whole graph from `reader` into the default storage backend.
pub fn load<R: BufRead>(reader: R) -> Result<Graph, GraphError> {
    load_with_store(reader, StoreKind::default())
}

/// Reads a whole graph from `reader`, indexed once, straight into the `kind`
/// backend (no intermediate store to re-index from).
pub fn load_with_store<R: BufRead>(reader: R, kind: StoreKind) -> Result<Graph, GraphError> {
    let mut builder = GraphBuilder::new();
    load_into(reader, &mut builder)?;
    Ok(builder.build_with_store(kind))
}

/// Writes `graph` in the bare whitespace-separated syntax understood by [`load`].
pub fn write<W: Write>(graph: &Graph, mut writer: W) -> Result<(), GraphError> {
    let dict = graph.dictionary();
    for t in graph.triples() {
        let s = dict.node_label(t.subject).expect("node label must exist");
        let p = dict
            .predicate_label(t.predicate)
            .expect("predicate label must exist");
        let o = dict.node_label(t.object).expect("node label must exist");
        writeln!(writer, "{s}\t{p}\t{o}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parse_bare_line() {
        let t = parse_line("alice knows bob").unwrap().unwrap();
        assert_eq!(t, ("alice".into(), "knows".into(), "bob".into()));
    }

    #[test]
    fn parse_ntriples_line() {
        let t = parse_line("<http://ex/a> <http://ex/knows> <http://ex/b> .")
            .unwrap()
            .unwrap();
        assert_eq!(t.1, "http://ex/knows");
    }

    #[test]
    fn parse_literal_object() {
        let t = parse_line("<a> <hasName> \"Alice Smith\" .")
            .unwrap()
            .unwrap();
        assert_eq!(t.2, "Alice Smith");
    }

    #[test]
    fn parse_literal_with_datatype() {
        let t = parse_line("<a> <age> \"42\"^^<http://www.w3.org/2001/XMLSchema#integer> .");
        // datatype tag is dropped; the remainder after the literal is the tag which
        // parses as trailing content only if it forms a 4th term — it must not.
        assert!(t.is_ok(), "datatype literals should parse: {t:?}");
    }

    #[test]
    fn skip_comments_and_blanks() {
        assert_eq!(parse_line("").unwrap(), None);
        assert_eq!(parse_line("   ").unwrap(), None);
        assert_eq!(parse_line("# a comment").unwrap(), None);
    }

    #[test]
    fn reject_wrong_arity() {
        assert!(parse_line("just two").is_err());
        assert!(parse_line("a b c d").is_err());
    }

    #[test]
    fn reject_unterminated_iri() {
        assert!(parse_line("<a <b> <c>").is_err());
    }

    #[test]
    fn load_and_roundtrip() {
        let text = "a p b\nb p c\n# comment\na q c\n";
        let g = load(Cursor::new(text)).unwrap();
        assert_eq!(g.triple_count(), 3);
        let mut out = Vec::new();
        write(&g, &mut out).unwrap();
        let g2 = load(Cursor::new(out)).unwrap();
        assert_eq!(g2.triple_count(), 3);
        assert_eq!(g2.predicate_count(), 2);
    }

    #[test]
    fn load_with_store_indexes_into_the_requested_backend() {
        let text = "a p b\nb p c\na q c\na p b\n<c> <q> <a> .\n";
        let sorted_triples = |g: &Graph| {
            let mut triples: Vec<_> = g.triples().collect();
            triples.sort_unstable();
            triples
        };
        let default = load(Cursor::new(text)).unwrap();
        assert_eq!(default.store_kind(), StoreKind::default());
        for kind in [StoreKind::Csr, StoreKind::Map, StoreKind::Delta] {
            let g = load_with_store(Cursor::new(text), kind).unwrap();
            assert_eq!(g.store_kind(), kind);
            assert_eq!(sorted_triples(&g), sorted_triples(&default), "{kind:?}");
        }
    }

    #[test]
    fn load_reports_line_numbers() {
        let text = "a p b\nbroken line here extra\n";
        let err = load(Cursor::new(text)).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }
}
