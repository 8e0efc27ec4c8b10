//! Import/export of triple stores in the pipe-separated format used by the
//! real MetaQA release (`kb.txt`: `subject|relation|object` per line) — so a
//! downstream user can swap the synthetic graphs for the paper's actual data
//! without touching any other code.

use std::fs;
use std::path::Path;

use crate::store::TripleStore;
use crate::types::Triple;

/// A parse failure with source position: 1-based line and 1-based byte
/// column of the offending field (0/0 for whole-file problems such as an
/// unreadable path).
///
/// Every format front-end in the workspace (this module's pipe format and
/// the ingest crate's JSONL/CSV/TSV readers) reports positions through this
/// one type, so tooling can point at the byte that broke.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number (0 when the error is not tied to a line).
    pub line: usize,
    /// 1-based byte column of the offending field (0 when unknown).
    pub col: usize,
    /// Human-readable description.
    pub msg: String,
}

impl ParseError {
    /// An error anchored at `line`/`col`.
    pub fn at(line: usize, col: usize, msg: impl Into<String>) -> Self {
        ParseError {
            line,
            col,
            msg: msg.into(),
        }
    }

    /// A whole-file error with no position.
    pub fn file(msg: impl Into<String>) -> Self {
        ParseError {
            line: 0,
            col: 0,
            msg: msg.into(),
        }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "{}", self.msg)
        } else {
            write!(f, "line {}, col {}: {}", self.line, self.col, self.msg)
        }
    }
}

impl std::error::Error for ParseError {}

impl From<ParseError> for String {
    fn from(e: ParseError) -> String {
        e.to_string()
    }
}

/// Parses a pipe-separated triple dump (`subject|relation|object` per line).
///
/// Empty lines and `#` comments are skipped. Duplicate `(head, relation)`
/// pairs keep only the first tail when `functional` is set (the invariant the
/// MCQ builder needs); otherwise all distinct triples load. An *exact*
/// duplicate `(s, r, o)` row is rejected in both modes, with its position —
/// silent dedup used to hide data bugs, and the streaming front-ends reject
/// duplicates too, so the formats now agree.
pub fn parse_pipe_separated(text: &str, functional: bool) -> Result<TripleStore, ParseError> {
    let mut store = TripleStore::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        // 0-based byte offset of the trimmed content inside the raw line,
        // so reported columns point into the file as written.
        let base = raw.len() - raw.trim_start().len();
        let Some((s_raw, rest)) = trimmed.split_once('|') else {
            return Err(ParseError::at(
                line,
                base + 1,
                format!("expected 'subject|relation|object', got '{trimmed}'"),
            ));
        };
        let Some((r_raw, o_raw)) = rest.split_once('|') else {
            return Err(ParseError::at(
                line,
                base + s_raw.len() + 2,
                format!("expected 'subject|relation|object', got '{trimmed}'"),
            ));
        };
        let cols = [
            base + 1,
            base + s_raw.len() + 2,
            base + s_raw.len() + r_raw.len() + 3,
        ];
        let fields = [s_raw.trim(), r_raw.trim(), o_raw.trim()];
        for (f, col) in fields.iter().zip(cols) {
            if f.is_empty() {
                return Err(ParseError::at(
                    line,
                    col,
                    format!("empty field in '{trimmed}'"),
                ));
            }
        }
        let (s, r, o) = (fields[0], fields[1], fields[2]);
        let head = store.intern_entity(s);
        let rel = store.intern_relation(r);
        let tail = store.intern_entity(o);
        let triple = Triple::new(head, rel, tail);
        if store.contains(&triple) {
            return Err(ParseError::at(
                line,
                cols[0],
                format!("duplicate triple '{s}|{r}|{o}'"),
            ));
        }
        if functional {
            store.insert_functional(triple);
        } else {
            store.insert(triple);
        }
    }
    Ok(store)
}

/// Loads a pipe-separated triple file.
pub fn load_pipe_separated(
    path: impl AsRef<Path>,
    functional: bool,
) -> Result<TripleStore, ParseError> {
    let text = fs::read_to_string(&path)
        .map_err(|e| ParseError::file(format!("read {}: {e}", path.as_ref().display())))?;
    parse_pipe_separated(&text, functional)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::umls::{synth_umls, UmlsConfig};

    /// One `head|relation|tail` line per triple of `store`.
    fn pipe_text(store: &TripleStore) -> String {
        store
            .triples()
            .iter()
            .map(|t| {
                format!(
                    "{}|{}|{}\n",
                    store.entity_name(t.head),
                    store.relation_name(t.relation),
                    store.entity_name(t.tail)
                )
            })
            .collect()
    }

    #[test]
    fn parse_metaqa_style_lines() {
        let text = "the silent horizon|directed_by|ava castellano\n\
                    # a comment\n\
                    \n\
                    the silent horizon|release_year|1987\n";
        let s = parse_pipe_separated(text, true).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.n_entities(), 3);
        assert_eq!(s.n_relations(), 2);
        let movie = s.entity_by_name("the silent horizon").unwrap();
        assert_eq!(s.triples_of_head(movie).len(), 2);
    }

    #[test]
    fn functional_mode_keeps_first_tail() {
        let text = "a|r|b\na|r|c\n";
        let s = parse_pipe_separated(text, true).unwrap();
        assert_eq!(s.len(), 1);
        let nonfunc = parse_pipe_separated(text, false).unwrap();
        assert_eq!(nonfunc.len(), 2);
    }

    #[test]
    fn malformed_lines_are_reported_with_position() {
        let err = parse_pipe_separated("a|b\n", true).unwrap_err();
        assert_eq!((err.line, err.col), (1, 3));
        assert!(err.to_string().contains("line 1"), "{err}");
        let err2 = parse_pipe_separated("a||c\n", true).unwrap_err();
        assert!(err2.msg.contains("empty field"), "{err2}");
        assert_eq!((err2.line, err2.col), (1, 3));
    }

    #[test]
    fn columns_point_at_the_offending_field() {
        // The empty object of line 2 starts after "head|rel|" = col 10; the
        // two leading spaces shift every column by the indent.
        let err = parse_pipe_separated("a|r|b\n  head|rel| \n", true).unwrap_err();
        assert_eq!((err.line, err.col), (2, 12));
    }

    #[test]
    fn exact_duplicate_rows_are_rejected_with_position() {
        let err = parse_pipe_separated("a|r|b\na|r|b\n", true).unwrap_err();
        assert!(err.msg.contains("duplicate triple"), "{err}");
        assert_eq!((err.line, err.col), (2, 1));
        // Same in non-functional mode: formats agree on duplicate handling.
        let err2 = parse_pipe_separated("a|r|b\na|r|b\n", false).unwrap_err();
        assert!(err2.msg.contains("duplicate"), "{err2}");
    }

    #[test]
    fn object_may_contain_pipes_only_in_third_field() {
        // splitn-style behavior preserved: everything past the second '|'
        // is the object.
        let s = parse_pipe_separated("a|r|b|c\n", true).unwrap();
        assert_eq!(s.len(), 1);
        assert!(s.entity_by_name("b|c").is_some());
    }

    #[test]
    fn round_trip_preserves_store() {
        let original = synth_umls(&UmlsConfig::with_triplets(80, 9));
        let text = pipe_text(&original);
        let back = parse_pipe_separated(&text, true).unwrap();
        assert_eq!(back.len(), original.len());
        for t in original.triples() {
            let h = back
                .entity_by_name(original.entity_name(t.head))
                .expect("head survives");
            let found = back.triples_of_head(h);
            assert!(found
                .iter()
                .any(|bt| back.entity_name(bt.tail) == original.entity_name(t.tail)));
        }
    }

    #[test]
    fn file_round_trip() {
        let s = synth_umls(&UmlsConfig::with_triplets(30, 10));
        let path = std::env::temp_dir().join(format!("infuserki_kg_{}.txt", std::process::id()));
        std::fs::write(&path, pipe_text(&s)).unwrap();
        let loaded = load_pipe_separated(&path, true).unwrap();
        assert_eq!(loaded.len(), s.len());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn load_missing_file_errors() {
        assert!(load_pipe_separated("/nonexistent/kb.txt", true).is_err());
    }
}
